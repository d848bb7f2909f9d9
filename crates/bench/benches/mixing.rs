//! Kernel bench: the Latin plan construction, the batch mix, and the
//! FedAvg kernel the mixed updates feed.
//!
//! Quantifies what `docs/ARCHITECTURE.md` ("Data flow 1: the single
//! proxy") names — the Latin-rectangle plan's cost and the batch mix the
//! proxy and every hop run (`MixPlan::for_round` + `apply_owned`, the
//! calls the repo benchmark times as `core.mixer.{plan,apply}_us`).
//! Kernels only: a whole round is the repo benchmark's to time
//! (ARCHITECTURE.md, "Which number comes from where").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixnn_core::MixPlan;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn updates(c: usize, layers: usize, scalars: usize) -> Vec<ModelParams> {
    (0..c)
        .map(|i| {
            ModelParams::from_layers(
                (0..layers)
                    .map(|l| LayerParams::from_values(vec![(i * layers + l) as f32; scalars]))
                    .collect(),
            )
        })
        .collect()
}

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
}

fn bench_plan_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixing/plan");
    configure(&mut group);
    for &participants in &[20usize, 58] {
        group.bench_with_input(
            BenchmarkId::new("latin", participants),
            &participants,
            |b, &p| {
                let mut rng = StdRng::seed_from_u64(0);
                b.iter(|| MixPlan::latin(p, 5, &mut rng).unwrap());
            },
        );
    }
    group.finish();
}

/// The proxy's batch mix on 20 updates of five 2,000-value layers: one
/// plan draw and the layers moved into their output slots. The timed call
/// also clones the layers it moves (the bench keeps its input), so the row
/// reads a little above the proxy's move-only mix.
fn bench_batch_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixing/strategy");
    configure(&mut group);
    let ups = updates(20, 5, 2_000);

    group.bench_function("batch/20x5x2000", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let rows: Vec<Vec<LayerParams>> =
                ups.iter().map(|u| u.iter().cloned().collect()).collect();
            let plan = MixPlan::for_round(rows.len(), 5, &mut rng).unwrap();
            plan.apply_owned(rows).unwrap()
        });
    });
    group.finish();
}

/// The server's FedAvg kernel on the repo benchmark's two shapes: many
/// small updates (the paper's 5,762-parameter model, 256 clients) and few
/// huge ones (492,810 parameters, 8 clients).
fn bench_mean(c: &mut Criterion) {
    let shapes: [(usize, &[usize]); 2] = [
        (256, &[2048, 2048, 1024, 512, 130]),
        (8, &[65536, 262144, 131072, 32768, 1290]),
    ];
    let mut group = c.benchmark_group("nn/mean");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (clients, signature) in shapes {
        let mut rng = StdRng::seed_from_u64(13);
        let updates: Vec<ModelParams> = (0..clients)
            .map(|_| {
                let layers = signature.iter().map(|&len| {
                    LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
                });
                ModelParams::from_layers(layers.collect())
            })
            .collect();
        let params: usize = signature.iter().sum();
        group.throughput(Throughput::Elements((clients * params) as u64));
        group.bench_function(format!("{clients}x{params}"), |b| {
            b.iter(|| ModelParams::mean(&updates).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_construction,
    bench_batch_mix,
    bench_mean
);
criterion_main!(benches);
