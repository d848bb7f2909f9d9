//! Fig 5-adjacent bench: one full federated round under each defense.
//!
//! The headline number here is the *overhead of MixNN relative to classic
//! FL*, which the paper argues is negligible next to the round's training
//! cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixnn_bench::{DatasetKind, Defense, ExperimentScale, ExperimentSetup};
use mixnn_fl::FlSimulation;
use mixnn_nn::{LayerParams, ModelParams};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

fn bench_round(c: &mut Criterion) {
    let setup = ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 5);
    let population = setup.spec.generate().unwrap();

    let mut group = c.benchmark_group("fl/round");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for defense in Defense::lineup(setup.noise_sigma) {
        group.bench_with_input(
            BenchmarkId::from_parameter(defense.label()),
            &defense,
            |b, defense| {
                b.iter(|| {
                    let mut sim = FlSimulation::new(setup.template(), setup.fl, &population);
                    let mut transport = defense.make_transport(setup.fl.seed);
                    sim.run_round(transport.as_mut()).unwrap()
                });
            },
        );
    }
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

criterion_group!(benches, bench_round, bench_mean);
criterion_main!(benches);
