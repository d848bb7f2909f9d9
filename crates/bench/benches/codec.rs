//! Wire-codec bench: bulk little-endian conversion and the v2 modes.
//!
//! The v1 encoder used to walk values one `put_f32_le`/`get_f32_le` at a
//! time; it now converts whole slices through `chunks_exact(4)` with an
//! exact-capacity pre-reserve. `encode/f32` and `decode/f32` measure
//! that bulk path directly (the per-value loop it replaced is the
//! baseline recorded in the PR). The `int8` and `int8+topk` rows show
//! what the v2 quantized frames cost to produce and parse at the
//! reference layer sizes, and `validate` prices the structural v2 check
//! the last hop runs per envelope without decompressing. `decode` and
//! `validate` time the `*_expecting` doors — the ones the last hop and
//! the server call — and `decode_into` the door the proxy calls, into an
//! update it already holds.
//!
//! Those rows stop at 2,048 smooth values, where the lossy modes' cost
//! hides behind fixed overheads. The `/262144` rows run one layer of the
//! repo benchmark's big signature with its Gaussian values (select cost
//! depends on the distribution), `codec/topk/select` isolates the
//! three-pass counting select, and its `all-equal` row is the worst case
//! — every value in one bucket at every level — which must stay linear.
//! Those rows run the encoder's best tier; `codec/encode/<tier>/*` and
//! `codec/topk/select/<tier>/*` repeat the lossy ones on every tier the
//! host supports (`codec::TIERS` on the `mixnn_cpu` ladder).
//!
//! `codec/layer_digest/{2048,65536}` hash one layer's v1 frame as the
//! cover-stripping server does, streamed without building the frame; their
//! throughput is in frame bytes, so their ns/B reads beside
//! `crypto/primitives/sha256/64KiB`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixnn_bench::experiments::compress::PAPER_SIGNATURE;
use mixnn_core::codec::{
    self, encode_layer_with, encode_params_with, validate_layer_frame_expecting, CompressionConfig,
};
use mixnn_cpu::Tier;
use mixnn_nn::{LayerParams, ModelParams};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

/// The repo benchmark's big signature (492,810 parameters; see
/// `benchmark/README.md`).
const BIG_SIGNATURE: [usize; 5] = [65_536, 262_144, 131_072, 32_768, 1_290];

fn reference_params() -> ModelParams {
    ModelParams::from_layers(
        PAPER_SIGNATURE
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|i| (i as f32).sin() * 0.7).collect())
            })
            .collect(),
    )
}

fn modes() -> [CompressionConfig; 3] {
    [
        CompressionConfig::F32,
        CompressionConfig::Int8,
        CompressionConfig::int8_top_k(),
    ]
}

/// Up to 1,000 iterations a row within its budget, as in the crypto
/// target: ten or twenty — a few timed batches — cannot resolve a 10–20 %
/// kernel change against the host's phases.
fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(1000)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/encode");
    configure(&mut group);
    let params = reference_params();
    for mode in modes() {
        group.bench_with_input(BenchmarkId::from_parameter(mode.name()), &mode, |b, &m| {
            b.iter(|| encode_params_with(&params, m));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/decode");
    configure(&mut group);
    let params = reference_params();
    for mode in modes() {
        let bytes = encode_params_with(&params, mode);
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &bytes,
            |b, bytes| {
                b.iter(|| codec::decode_params_expecting(bytes, &PAPER_SIGNATURE).unwrap());
            },
        );
    }
    group.finish();
}

/// What the proxy runs: the same bodies decoded into an update it
/// already holds (`decode_params_into`), against `codec/decode`'s fresh
/// one.
fn bench_decode_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/decode_into");
    configure(&mut group);
    let params = reference_params();
    let mut target = params.scale(0.0);
    for mode in modes() {
        let bytes = encode_params_with(&params, mode);
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &bytes,
            |b, bytes| {
                b.iter(|| codec::decode_params_into(bytes, &PAPER_SIGNATURE, &mut target).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/validate");
    configure(&mut group);
    let layer = LayerParams::from_values((0..2048).map(|i| (i as f32).cos()).collect());
    for mode in modes() {
        let frame = encode_layer_with(&layer, mode);
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &frame,
            |b, frame| {
                b.iter(|| validate_layer_frame_expecting(frame, layer.len()).unwrap());
            },
        );
    }
    group.finish();
}

/// One update with Gaussian layers, σ log-spaced from 1e-3 (first layer)
/// to 1e-1 (last) as in the repo benchmark: select cost and quantization
/// error depend on the value distribution, not only on the size.
fn gaussian_update(signature: &[usize], seed: u64) -> ModelParams {
    let zeros = |&len: &usize| LayerParams::from_values(vec![0.0; len]);
    let unit = ModelParams::from_layers(signature.iter().map(zeros).collect())
        .perturbed(1.0, &mut StdRng::seed_from_u64(seed));
    let last = signature.len().saturating_sub(1).max(1) as f32;
    ModelParams::from_layers(
        unit.iter()
            .enumerate()
            .map(|(l, layer)| {
                let sigma = 1e-3 * 100f32.powf(l as f32 / last);
                LayerParams::from_values(layer.values().iter().map(|z| sigma * z).collect())
            })
            .collect(),
    )
}

/// The layer of `signature` holding exactly `len` values, Gaussian at the
/// σ the repo benchmark gives that position.
fn gaussian_layer(signature: &[usize], len: usize) -> LayerParams {
    gaussian_update(signature, 7)
        .into_layers()
        .into_iter()
        .find(|layer| layer.len() == len)
        .expect("the signature has a layer of this length")
}

fn bench_big_layer(c: &mut Criterion) {
    const LEN: usize = 262_144;
    let layer = gaussian_layer(&BIG_SIGNATURE, LEN);
    let mut group = c.benchmark_group("codec/encode");
    configure(&mut group);
    group.throughput(Throughput::Elements(LEN as u64));
    for mode in modes() {
        group.bench_with_input(BenchmarkId::new(mode.name(), LEN), &mode, |b, &m| {
            b.iter(|| encode_layer_with(&layer, m));
        });
    }
    for tier in Tier::runnable(codec::TIERS) {
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let id = BenchmarkId::new(format!("{}/{}", tier.name(), mode.name()), LEN);
            group.bench_with_input(id, &mode, |b, &m| {
                b.iter(|| {
                    let mut frame = Vec::new();
                    codec::encode_layer_on(tier, &mut frame, &layer, m);
                    frame
                });
            });
        }
    }
    group.finish();
    let mut group = c.benchmark_group("codec/decode");
    configure(&mut group);
    group.throughput(Throughput::Elements(LEN as u64));
    for mode in modes() {
        let frame = encode_layer_with(&layer, mode);
        group.bench_with_input(BenchmarkId::new(mode.name(), LEN), &frame, |b, frame| {
            b.iter(|| codec::decode_layer_expecting(frame, LEN).unwrap());
        });
    }
    group.finish();
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/topk/select");
    configure(&mut group);
    let rows = [
        ("2048", gaussian_layer(&PAPER_SIGNATURE, 2048)),
        ("262144", gaussian_layer(&BIG_SIGNATURE, 262_144)),
        (
            "262144-all-equal",
            LayerParams::from_values(vec![0.5; 262_144]),
        ),
    ];
    for (name, layer) in &rows {
        let k = CompressionConfig::int8_top_k().kept(layer.len());
        group.throughput(Throughput::Elements(layer.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), layer, |b, layer| {
            b.iter(|| codec::top_k_cut_on(Tier::best(), layer.values(), k));
        });
    }
    for tier in Tier::runnable(codec::TIERS) {
        for (name, layer) in &rows[1..] {
            let k = CompressionConfig::int8_top_k().kept(layer.len());
            group.throughput(Throughput::Elements(layer.len() as u64));
            group.bench_with_input(BenchmarkId::new(tier.name(), name), layer, |b, layer| {
                b.iter(|| codec::top_k_cut_on(tier, layer.values(), k));
            });
        }
    }
    group.finish();
}

fn bench_layer_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/layer_digest");
    configure(&mut group);
    let rows = [
        gaussian_layer(&PAPER_SIGNATURE, 2048),
        gaussian_layer(&BIG_SIGNATURE, 65_536),
    ];
    for layer in &rows {
        let frame_bytes = codec::encoded_layer_len(layer.len());
        group.throughput(Throughput::Bytes(frame_bytes as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(layer.len()),
            layer,
            |b, layer| {
                b.iter(|| codec::layer_digest(layer));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_decode_into,
    bench_validate,
    bench_big_layer,
    bench_select,
    bench_layer_digest
);
criterion_main!(benches);
