//! A kept `LocalTrainer` returns what a fresh one does, bit for bit.
//!
//! A simulation trains client after client in one trainer per worker,
//! reusing its model, optimizer and batch buffers. Reuse must be invisible:
//! every update equals `train_local` — which builds everything afresh —
//! whatever the trainer trained before, on which batch shapes, and
//! whatever error it last returned. The trainer here is built from a
//! template carrying gradients from a backward pass that was never
//! stepped, so a call that did not zero the gradients, like one that did
//! not restart the optimizer, would move an update.

use mixnn_data::{lfw_like, motionsense_like, Dataset, FederatedDataset};
use mixnn_fl::{train_local, FlConfig, FlError, LocalTrainer};
use mixnn_nn::{zoo, LayerParams, ModelParams, Sequential, SoftmaxCrossEntropy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The f32 bit patterns of every parameter, layer by layer.
fn bits(params: &ModelParams) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|l| l.values().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `template` with gradients accumulated from one backward pass on `data`
/// and never stepped away.
fn with_stale_gradients(template: &Sequential, data: &Dataset) -> Sequential {
    let mut dirty = template.clone();
    let (x, y) = data.full_batch().unwrap();
    let logits = dirty.forward(&x).unwrap();
    let (_, dlogits) = SoftmaxCrossEntropy::new()
        .loss_and_grad(logits, &y)
        .unwrap();
    dirty.backward(&dlogits).unwrap();
    dirty
}

/// Three clients' data: two participants' own, and a third cut to
/// `short` examples so its last batch is short.
fn clients(population: &FederatedDataset, short: usize) -> Vec<Dataset> {
    let p = population.participants();
    let cut: Vec<usize> = (0..short).collect();
    vec![
        p[0].train().clone(),
        p[1].train().clone(),
        p[2].train().subset(&cut),
    ]
}

/// Two rounds of three clients in one kept trainer, each round opened by
/// a call with an invalid learning rate and one with a global model of
/// another architecture; every update is checked against `train_local`
/// from the clean template.
fn assert_reuse_is_invisible(template: &Sequential, clients: &[Dataset], cfg: FlConfig) {
    let mut trainer = LocalTrainer::new(&with_stale_gradients(template, &clients[0]));
    let foreign = ModelParams::from_layers(vec![LayerParams::from_values(vec![0.0; 3])]);
    let mut global = template.params();
    for round in 0..2 {
        let invalid = FlConfig {
            learning_rate: f32::NAN,
            ..cfg
        };
        let err = trainer
            .train(&global, &clients[0], &invalid, 1)
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
        assert!(trainer.train(&foreign, &clients[1], &cfg, 2).is_err());
        let mut updates = Vec::new();
        for (c, data) in clients.iter().enumerate() {
            let seed = cfg.client_seed(round, c);
            let kept = trainer.train(&global, data, &cfg, seed).unwrap();
            let fresh = train_local(template, &global, data, &cfg, seed).unwrap();
            assert_eq!(bits(&kept), bits(&fresh), "round {round}, client {c}");
            assert_ne!(kept, global, "round {round}, client {c} did not train");
            updates.push(kept);
        }
        global = ModelParams::mean(&updates).unwrap();
    }
}

#[test]
fn a_kept_trainer_matches_a_fresh_one_on_conv2_fc3_at_batch_256() {
    let population = motionsense_like(941).generate().unwrap();
    let dims = population.spec().dims;
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        32,
        &mut StdRng::seed_from_u64(942),
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 256,
        learning_rate: 0.005,
        seed: 943,
        ..FlConfig::default()
    };
    assert_reuse_is_invisible(&template, &clients(&population, 37), cfg);
}

#[test]
fn a_kept_trainer_matches_a_fresh_one_on_deepface_like_at_batch_16() {
    let population = lfw_like(951).generate().unwrap();
    let dims = population.spec().dims;
    let template = zoo::deepface_like(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        &mut StdRng::seed_from_u64(952),
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 16,
        learning_rate: 0.005,
        seed: 953,
        ..FlConfig::default()
    };
    // 48 examples in three full batches, then 41 in two and a short one.
    assert_reuse_is_invisible(&template, &clients(&population, 41), cfg);
}
