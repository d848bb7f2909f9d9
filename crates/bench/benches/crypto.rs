//! Crypto primitive costs backing the §6.5 "decryption dominates" claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixnn_cpu::Tier;
use mixnn_crypto::chacha20;
use mixnn_crypto::hmac::hmac_sha256;
use mixnn_crypto::poly1305;
use mixnn_crypto::sha256;
use mixnn_crypto::x25519;
use mixnn_crypto::{KeyPair, SealedBox, SealingKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Up to 1,000 iterations a row within its one-second budget: twenty —
/// a few timed batches — left a row's fastest batch swinging ±20 % with
/// the host's phases, too wide to read a 10 % kernel change off.
fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(1000)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/primitives");
    configure(&mut group);
    let data = vec![0xa5u8; 64 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256/64KiB", |b| b.iter(|| sha256::digest(&data)));
    group.bench_function("hmac_sha256/64KiB", |b| {
        b.iter(|| hmac_sha256(b"key", &data))
    });
    group.bench_function("chacha20/64KiB", |b| {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let mut buf = data.clone();
        b.iter(|| chacha20::xor_keystream(&key, &nonce, 0, &mut buf));
    });
    group.finish();

    let mut group = c.benchmark_group("crypto/x25519");
    configure(&mut group);
    group.bench_function("scalarmult", |b| {
        let scalar = [0x42u8; 32];
        b.iter(|| x25519::x25519(&scalar, &x25519::BASEPOINT));
    });
    // A scalar per point on the ladder, as a recipient's opens run it.
    // Per-element time against `scalarmult` is the lane kernel's gain;
    // `/2` against two `scalarmult`s is the crossover `MIN_POINTS` in
    // `x25519.rs` encodes.
    for &n in &[2usize, 8, 30] {
        let scalars: Vec<[u8; 32]> = (0..n).map(|i| [0x42 ^ i as u8; 32]).collect();
        let points = vec![x25519::BASEPOINT; n];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("multi_scalar", n), &n, |b, _| {
            b.iter(|| x25519::x25519_multi(&scalars, &points));
        });
    }
    // The comb on one table, per tier the host supports: `/1` is a lone
    // comb's cost per multiplication (final inversion included), `/8` one
    // full eight-lane pass. On the IFMA tier, groups below `MIN_COMBS` in
    // `x25519.rs` go two to a row-split pass (`/2`, `/4`) and an odd one
    // alone (`/1`, `/3`), the rest take a padded eight-lane pass (`/5`,
    // `/8`): these rows place the crossover (two pairs ≈ 18.6 µs against
    // a pass ≈ 22.4 on the 2-vCPU box, so `MIN_COMBS` is five).
    let table = x25519::FixedBase::basepoint();
    for tier in Tier::runnable(x25519::TIERS) {
        for &n in &[1usize, 2, 3, 4, 5, 8] {
            let scalars: Vec<[u8; 32]> = (0..n).map(|i| [0x42 ^ i as u8; 32]).collect();
            let mut out = vec![[0u8; 32]; n];
            group.throughput(Throughput::Elements(n as u64));
            let id = BenchmarkId::new(format!("fixed_base/{}", tier.name()), n);
            group.bench_with_input(id, &n, |b, _| {
                b.iter(|| x25519::fixed_base_on(tier, table, &scalars, &mut out));
            });
        }
    }
    group.finish();
}

/// One row per keystream tier the host supports, at the three buffer
/// sizes the round benchmark runs: one sixteen-block pass, a
/// `proxy_small` update (5,762 f32 parameters) and a `cascade3_big_*`
/// layer. ns per byte is the reciprocal of the reported throughput.
fn bench_chacha20_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/chacha20");
    configure(&mut group);
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    for tier in Tier::runnable(chacha20::TIERS) {
        for &size in &[1024usize, 23_048, 2_097_152] {
            let mut buf = vec![0xa5u8; size];
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(BenchmarkId::new(tier.name(), size), &size, |b, _| {
                b.iter(|| chacha20::xor_keystream_on(tier, &key, &nonce, 0, &mut buf));
            });
        }
    }
    group.finish();
}

/// One row per Poly1305 tier the host supports: what the envelope's MAC
/// costs per byte, beside the keystream rows and
/// `primitives/hmac_sha256/64KiB` — the MAC it replaced. 256 B is the
/// smallest input both IFMA chains run on, 23,077 B about a `proxy_small`
/// envelope (180 groups and a ragged tail), 393,216 B a mid-sized layer
/// and 2 MiB a `cascade3_big_*` layer.
fn bench_poly1305_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/poly1305");
    configure(&mut group);
    let key = [7u8; 32];
    for tier in Tier::runnable(poly1305::TIERS) {
        for &size in &[256usize, 1024, 23_077, 393_216, 2_097_152] {
            let message = vec![0xa5u8; size];
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(BenchmarkId::new(tier.name(), size), &size, |b, _| {
                b.iter(|| poly1305::poly1305_on(tier, &key, &message));
            });
        }
    }
    group.finish();
}

fn bench_sealed_box(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sealed_box");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(0);
    let recipient = KeyPair::generate(&mut rng);
    // One envelope's key derivation, on both ends of every envelope: HKDF
    // over fixed blocks (ten SHA-256 compressions in six paired steps),
    // then keystream block 0.
    let (shared, eph_pub) = ([0x11u8; 32], [0x22u8; 32]);
    let to = *recipient.public().as_bytes();
    group.bench_function("derive", |b| {
        b.iter(|| SealedBox::one_time_key(&shared, &eph_pub, &to));
    });
    for &size in &[1024usize, 128 * 1024, 1024 * 1024, 2 * 1024 * 1024] {
        let message = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &size, |b, _| {
            b.iter(|| SealedBox::seal(&message, recipient.public(), &mut rng).unwrap());
        });
        // What a participant that attested the key runs: both
        // multiplications on the comb.
        if size == 1024 {
            let sealing = SealingKey::new(*recipient.public());
            group.bench_with_input(BenchmarkId::new("seal_prepared", size), &size, |b, _| {
                b.iter(|| {
                    let prepared = SealedBox::prepare([&sealing], &mut rng).unwrap();
                    prepared.into_iter().next().unwrap().seal(&message)
                });
            });
        }
        let sealed = SealedBox::seal(&message, recipient.public(), &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("open", size), &size, |b, _| {
            b.iter(|| SealedBox::open(&sealed, &recipient).unwrap());
        });
        // What the single proxy runs: every envelope opened into the one
        // plaintext buffer it keeps. Against `open` it leaves out the fresh
        // allocation (and, past the allocator's mmap threshold, the page
        // faults of a new mapping).
        let mut plaintext = Vec::new();
        group.bench_with_input(BenchmarkId::new("open_into", size), &size, |b, _| {
            b.iter(|| SealedBox::open_into(&sealed, &recipient, &mut plaintext).unwrap());
        });
        // What the hops run. Opening consumes the ciphertext, so every
        // iteration first restores it into the same buffer — a copy the
        // real path does not make, which this row therefore over-states
        // by; what it leaves out against `open` is the fresh allocation.
        let mut buffer = sealed.clone();
        group.bench_with_input(BenchmarkId::new("open_in_place", size), &size, |b, _| {
            b.iter(|| {
                buffer.copy_from_slice(&sealed);
                SealedBox::open_in_place(&mut buffer, &recipient).unwrap();
            });
        });
    }
    group.finish();
}

/// The hot path the proxies actually run: a round's worth of envelopes
/// opened together, amortizing the X25519 schedule and field inversion
/// across the batch. Throughput counts are per *envelope* so the per-item
/// gain over `sealed_box/open` is read straight off the report.
fn bench_open_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/open_batch");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(1);
    let recipient = KeyPair::generate(&mut rng);
    let message = vec![0xa5u8; 1024];
    for &batch in &[4usize, 16, 64] {
        let sealed: Vec<Vec<u8>> = (0..batch)
            .map(|_| SealedBox::seal(&message, recipient.public(), &mut rng).unwrap())
            .collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("1024B", batch), &batch, |b, _| {
            b.iter(|| {
                SealedBox::open_batch(&sealed, &recipient)
                    .into_iter()
                    .map(|r| r.unwrap().len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// The client-side twin of `open_batch`: the content-independent phase of
/// sealing one 5-layer update for a 3-hop chain, to the hops'
/// `SealingKey`s — 15 envelopes, 30 combs in one batch, grouped by table
/// (15 on the base point's, 5 on each hop's). Per-envelope throughput
/// reads against `sealed_box/seal_prepared`.
fn bench_onion_prepare(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sealed_box/onion_prepare_5x3");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(2);
    let hops: Vec<SealingKey> = (0..3)
        .map(|_| SealingKey::new(*KeyPair::generate(&mut rng).public()))
        .collect();
    let route: Vec<&SealingKey> = (0..5).flat_map(|_| hops.iter().rev()).collect();
    group.throughput(Throughput::Elements(route.len() as u64));
    group.bench_function("prepare", |b| {
        b.iter(|| SealedBox::prepare(route.iter().copied(), &mut rng).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_chacha20_tiers,
    bench_poly1305_tiers,
    bench_sealed_box,
    bench_open_batch,
    bench_onion_prepare
);
criterion_main!(benches);
