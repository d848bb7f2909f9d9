//! ∇Sim cost bench: fitting attack models and scoring observed updates
//! (fig7/fig8-adjacent micro benchmarks), and the windowed layers that
//! local training — the clients' and the attacker's — spends its time in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mixnn_attacks::{GradSim, GradSimConfig};
use mixnn_bench::{DatasetKind, ExperimentScale, ExperimentSetup};
use mixnn_cpu::Tier;
use mixnn_fl::{train_local, FlConfig, LocalTrainer};
use mixnn_nn::{
    zoo, Adam, Conv2d, Dense, Layer, LocallyConnected2d, MaxPool2d, Optimizer, Relu,
    SoftmaxCrossEntropy,
};
use mixnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Up to 1,000 iterations a row within its budget, as in the crypto
/// target: ten or twenty — a few timed batches — cannot resolve a 10–20 %
/// kernel change against the host's phases.
fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(1000)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

fn bench_fit_and_score(c: &mut Criterion) {
    let setup = ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 3);
    let population = setup.spec.generate().unwrap();
    let template = setup.template();
    let base = template.params();
    let background: Vec<(usize, mixnn_data::Dataset)> = (0..2)
        .map(|attr| {
            let ids: Vec<usize> = population
                .participants()
                .iter()
                .filter(|p| p.attribute() == attr)
                .map(|p| p.id())
                .collect();
            (attr, population.pooled_train_data(&ids).unwrap())
        })
        .collect();
    let fl_cfg = FlConfig {
        batch_size: 32,
        ..FlConfig::default()
    };

    let mut group = c.benchmark_group("gradsim");
    configure(&mut group);
    for &epochs in &[1usize, 5] {
        group.bench_with_input(BenchmarkId::new("fit", epochs), &epochs, |b, &epochs| {
            let cfg = GradSimConfig {
                attack_epochs: epochs,
                ..GradSimConfig::default()
            };
            b.iter(|| GradSim::fit(&template, &base, &background, &fl_cfg, &cfg).unwrap());
        });
    }

    let cfg = GradSimConfig {
        attack_epochs: 1,
        ..GradSimConfig::default()
    };
    let attack = GradSim::fit(&template, &base, &background, &fl_cfg, &cfg).unwrap();
    let observed = base.perturbed(0.01, &mut StdRng::seed_from_u64(1));
    group.bench_function("score", |b| {
        b.iter(|| attack.score(&observed).unwrap());
    });
    group.bench_function("equidistant_model", |b| {
        b.iter(|| attack.equidistant_model());
    });
    group.finish();
}

/// `Conv2d`, `LocallyConnected2d` and `MaxPool2d` forward and backward at
/// the shapes training runs them: `fl_train`'s `conv2_fc3` (width 4, 1×8×8
/// input, batch 64) and the LFW `deepface_like` (width 4, batch 16). The
/// windowed layers' backward rows feed a gradient that is 80 % zeros, as it
/// is behind ReLU and 2×2 max pooling; `backward_params` is the first
/// layer's backward, which skips the input gradient. The pooling rows read
/// ReLU output, about half of it zeros.
///
/// Then the rest of `fl_train`'s step, with data drawn after every row
/// above so theirs does not change: its three `Dense` layers (32 → 32 →
/// 16 → 6) on ReLU output, the hidden layers' gradients about half zeros
/// (behind ReLU) and the classifier's dense; one Adam step over the
/// model's 2,022 parameters in its ten slots; the loss on batch-64
/// logits; and its first ReLU, on the first convolution's output shape.
///
/// The pooling, dense, Adam and ReLU rows end in the CPU tier they run,
/// one row per tier of the kernel's `TIERS` the host reaches (`scalar`,
/// `avx512`), so before and after read from one binary.
fn bench_windowed_layers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("nn");
    group
        .sample_size(2000)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_secs(1));
    let mut row = |name: &str, mut layer: Box<dyn Layer>, x: Tensor, rng: &mut StdRng| {
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        layer.forward(&x, &mut y).unwrap();
        let g = Tensor::from_fn(y.dims().to_vec(), |_| {
            if rng.gen_bool(0.2) {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        let (kind, shape) = name.split_once('/').unwrap();
        group.bench_function(format!("{kind}/forward/{shape}"), |b| {
            b.iter(|| layer.forward(&x, &mut y).unwrap());
        });
        group.bench_function(format!("{kind}/backward/{shape}"), |b| {
            b.iter(|| layer.backward(&g, &mut dx).unwrap());
        });
        if shape.ends_with("conv1") {
            group.bench_function(format!("{kind}/backward_params/{shape}"), |b| {
                b.iter(|| layer.backward_params(&g).unwrap());
            });
        }
    };
    let normal = |dims: [usize; 4], rng: &mut StdRng| Tensor::randn(dims.to_vec(), 0.0, 1.0, rng);
    let relu = |dims: [usize; 4], rng: &mut StdRng| normal(dims, rng).map(|v| v.max(0.0));
    let conv = Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
    let x = normal([64, 1, 8, 8], &mut rng);
    row("conv2d/fl_train/conv1", conv, x, &mut rng);
    let conv = Box::new(Conv2d::new(4, 8, 3, 1, 1, &mut rng));
    let x = normal([64, 4, 4, 4], &mut rng);
    row("conv2d/fl_train/conv2", conv, x, &mut rng);
    let conv = Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
    let x = normal([16, 1, 8, 8], &mut rng);
    row("conv2d/lfw/conv1", conv, x, &mut rng);
    let conv = Box::new(Conv2d::new(4, 4, 3, 1, 1, &mut rng));
    let x = normal([16, 4, 4, 4], &mut rng);
    row("conv2d/lfw/conv3", conv, x, &mut rng);
    let local = Box::new(LocallyConnected2d::new(4, 4, 3, 4, 4, &mut rng));
    let x = normal([16, 4, 4, 4], &mut rng);
    row("locally_connected2d/lfw/local4", local, x, &mut rng);
    for (name, dims) in [("pool1", [64, 4, 8, 8]), ("pool2", [64, 8, 4, 4])] {
        let x = relu(dims, &mut rng);
        let mut pool = MaxPool2d::new(2);
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        pool.forward(&x, &mut y).unwrap();
        let g = Tensor::from_fn(y.dims().to_vec(), |_| {
            if rng.gen_bool(0.2) {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        for tier in Tier::runnable(MaxPool2d::TIERS) {
            let tier_name = tier.name();
            group.bench_function(
                format!("maxpool2d/forward/fl_train/{name}/{tier_name}"),
                |b| {
                    b.iter(|| pool.forward_on(tier, &x, &mut y).unwrap());
                },
            );
            group.bench_function(
                format!("maxpool2d/backward/fl_train/{name}/{tier_name}"),
                |b| {
                    b.iter(|| pool.backward_on(tier, &g, &mut dx).unwrap());
                },
            );
        }
    }

    for (name, inputs, outputs, zeros) in [
        ("fc1", 32, 32, 0.5),
        ("fc2", 32, 16, 0.5),
        ("fc3", 16, 6, 0.0),
    ] {
        let mut dense = Dense::new(inputs, outputs, &mut rng);
        let x = Tensor::randn(vec![64, inputs], 0.0, 1.0, &mut rng).map(|v| v.max(0.0));
        let g = sparse(vec![64, outputs], zeros, &mut rng);
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        for tier in Tier::runnable(Dense::TIERS) {
            let tier_name = tier.name();
            group.bench_function(format!("dense/forward/fl_train/{name}/{tier_name}"), |b| {
                b.iter(|| dense.forward_on(tier, &x, &mut y).unwrap());
            });
            group.bench_function(format!("dense/backward/fl_train/{name}/{tier_name}"), |b| {
                b.iter(|| dense.backward_on(tier, &g, &mut dx).unwrap());
            });
        }
    }

    // Weights and bias of conv1, conv2, fc1, fc2 and fc3 at six classes.
    let slots = [36, 4, 288, 8, 1024, 32, 512, 16, 96, 6];
    let mut params: Vec<Vec<f32>> = slots.iter().map(|&n| vec![0.0; n]).collect();
    let grads: Vec<Vec<f32>> = slots
        .iter()
        .map(|&n| (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
        .collect();
    for tier in Tier::runnable(Adam::TIERS) {
        let mut adam = Adam::new(0.001);
        group.bench_function(format!("adam/step/fl_train/{}", tier.name()), |b| {
            b.iter(|| {
                for (slot, (p, g)) in params.iter_mut().zip(&grads).enumerate() {
                    adam.step_on(tier, slot, p, g);
                }
                adam.advance();
            });
        });
    }

    let logits = Tensor::randn(vec![64, 6], 0.0, 2.0, &mut rng);
    let labels: Vec<usize> = (0..64).map(|_| rng.gen_range(0..6)).collect();
    let loss = SoftmaxCrossEntropy::new();
    let mut dlogits = Tensor::default();
    group.bench_function("loss/fl_train", |b| {
        b.iter(|| {
            loss.loss_and_grad_into(&logits, &labels, &mut dlogits)
                .unwrap()
        });
    });

    let x = normal([64, 4, 8, 8], &mut rng);
    let g = sparse(x.dims().to_vec(), 0.5, &mut rng);
    let mut relu = Relu::new();
    let (mut y, mut dx) = (Tensor::default(), Tensor::default());
    relu.forward(&x, &mut y).unwrap();
    for tier in Tier::runnable(Relu::TIERS) {
        let tier_name = tier.name();
        group.bench_function(format!("relu/forward/fl_train/relu1/{tier_name}"), |b| {
            b.iter(|| relu.forward_on(tier, &x, &mut y).unwrap());
        });
        group.bench_function(format!("relu/backward/fl_train/relu1/{tier_name}"), |b| {
            b.iter(|| relu.backward_on(tier, &g, &mut dx).unwrap());
        });
    }
    group.finish();
}

/// A tensor of `dims` whose entries are 0.0 with probability `zeros`,
/// otherwise uniform in `[-1, 1)`.
fn sparse(dims: Vec<usize>, zeros: f64, rng: &mut StdRng) -> Tensor {
    Tensor::from_fn(dims, |_| {
        if rng.gen_bool(zeros) {
            0.0
        } else {
            rng.gen_range(-1.0f32..1.0)
        }
    })
}

/// One client's local training on `fl_train`'s shapes — the repo
/// benchmark's MotionSense-like population, `conv2_fc3` at width 4/32, two
/// epochs of one 64-example batch under Adam at 0.005 — in a fresh trainer
/// (`train_local`, which builds a model, an optimizer and every buffer)
/// and in one kept from the previous iteration (what each worker of a
/// simulation does from its second client on). Both return the same bits.
fn bench_local_training(c: &mut Criterion) {
    let population = mixnn_data::motionsense_like(7).generate().unwrap();
    let dims = population.spec().dims;
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        32,
        &mut StdRng::seed_from_u64(4),
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 256,
        learning_rate: 0.005,
        ..FlConfig::default()
    };
    let (global, data) = (template.params(), population.participants()[0].train());
    let mut group = c.benchmark_group("fl");
    configure(&mut group);
    group.bench_function("train_local/fresh", |b| {
        b.iter(|| train_local(&template, &global, data, &cfg, 11).unwrap());
    });
    let mut trainer = LocalTrainer::new(&template);
    group.bench_function("train_local/kept", |b| {
        b.iter(|| trainer.train(&global, data, &cfg, 11).unwrap());
    });
    group.finish();
}

use rand::SeedableRng;

criterion_group!(
    benches,
    bench_fit_and_score,
    bench_windowed_layers,
    bench_local_training
);
criterion_main!(benches);
