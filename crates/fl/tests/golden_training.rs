//! Cross-commit golden digests of local training.
//!
//! Each digest hashes the f32 bit patterns `train_local` returns for a
//! few participants, so any change to a layer's arithmetic — a reordered
//! sum, a contracted multiply-add, a zero that flips sign — moves it. The
//! two scenarios are the shapes training runs at most:
//!
//! - `conv2_fc3` on `motionsense_like` under the repo benchmark's
//!   `fl_train` configuration (2 local epochs, batch 256 over 64 examples,
//!   Adam at 0.005), which drives `Conv2d` at batch 64;
//! - `deepface_like` on `lfw_like` under the paper's LFW configuration
//!   (2 local epochs, batch 16, Adam at 0.005), which drives `Conv2d` and
//!   `LocallyConnected2d` at batch 16.
//!
//! The digests were recorded before the windowed layers moved to
//! batch-innermost loops and pass unedited after: the rewrite keeps every
//! element's sequence of f32 operations.

use mixnn_data::{lfw_like, motionsense_like};
use mixnn_fl::{train_local, FlConfig};
use mixnn_nn::{zoo, ModelParams, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bits of every value, each layer
/// length-prefixed.
fn digest(updates: &[ModelParams]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for update in updates {
        for layer in update.iter() {
            eat(&(layer.len() as u64).to_le_bytes());
            for v in layer.values() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// Trains the first `clients` participants of `population` from the
/// template's own parameters, as round 0 of a simulation would.
fn train_round(
    template: &Sequential,
    population: &mixnn_data::FederatedDataset,
    cfg: &FlConfig,
    clients: usize,
) -> Vec<ModelParams> {
    let global = template.params();
    population.participants()[..clients]
        .iter()
        .enumerate()
        .map(|(id, p)| {
            train_local(template, &global, p.train(), cfg, cfg.client_seed(0, id))
                .expect("training succeeds")
        })
        .collect()
}

fn check(name: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{name}: trained parameters moved (digest {actual:#018x}, recorded {expected:#018x})"
    );
}

#[test]
fn conv2_fc3_on_motionsense_matches_the_recorded_digest() {
    let population = motionsense_like(921).generate().expect("valid spec");
    let dims = population.spec().dims;
    let mut rng = StdRng::seed_from_u64(922);
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        32,
        &mut rng,
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 256,
        clients_per_round: 20,
        learning_rate: 0.005,
        seed: 923,
        ..FlConfig::default()
    };
    let updates = train_round(&template, &population, &cfg, 4);
    check(
        "conv2_fc3/motionsense",
        digest(&updates),
        0x204a_af07_71ff_5ff3,
    );
}

#[test]
fn deepface_like_on_lfw_matches_the_recorded_digest() {
    let population = lfw_like(931).generate().expect("valid spec");
    let dims = population.spec().dims;
    let mut rng = StdRng::seed_from_u64(932);
    let template = zoo::deepface_like(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        &mut rng,
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 16,
        clients_per_round: 20,
        learning_rate: 0.005,
        seed: 933,
        ..FlConfig::default()
    };
    let updates = train_round(&template, &population, &cfg, 4);
    check("deepface_like/lfw", digest(&updates), 0x1aae_048a_8a65_6fc7);
}
