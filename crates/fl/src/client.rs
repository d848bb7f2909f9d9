//! Federated clients and local training.

use crate::{FlConfig, FlError, ModelUpdate, OptimizerKind};
use mixnn_data::Dataset;
use mixnn_nn::{Adam, ModelParams, Optimizer, Sequential, Sgd, SoftmaxCrossEntropy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A federated participant's device: holds the local dataset and refines
/// disseminated models on it (step ❷ of the paper's Figure 2).
#[derive(Debug, Clone)]
pub struct FlClient {
    id: usize,
    data: Dataset,
}

impl FlClient {
    /// Creates a client with its local training data.
    pub fn new(id: usize, data: Dataset) -> Self {
        FlClient { id, data }
    }

    /// The client's identity on the wire.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The local dataset (never transmitted).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Refines `global` locally and returns the parameter update.
    ///
    /// `template` supplies the architecture; its weights are overwritten
    /// with `global` before training. `seed` fixes batch shuffling, so a
    /// given (model, data, seed) triple always produces the same update.
    ///
    /// # Errors
    ///
    /// Propagates model/data failures as [`FlError`].
    pub fn train(
        &self,
        template: &Sequential,
        global: &ModelParams,
        cfg: &FlConfig,
        seed: u64,
    ) -> Result<ModelUpdate, FlError> {
        let params = train_local(template, global, &self.data, cfg, seed)?;
        Ok(ModelUpdate::new(self.id, params))
    }
}

/// Local refinement: load `global` into a copy of `template`, run
/// `cfg.local_epochs` epochs of mini-batch training on `data`, and return
/// the resulting parameters.
///
/// Exposed as a free function because the ∇Sim adversary uses the *same*
/// routine to build its per-attribute attack models from auxiliary data —
/// the fidelity of the attack depends on the attacker and the victims
/// running identical training.
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] if `cfg.learning_rate` is not finite
/// and positive, and propagates model/data failures as [`FlError`].
pub fn train_local(
    template: &Sequential,
    global: &ModelParams,
    data: &Dataset,
    cfg: &FlConfig,
    seed: u64,
) -> Result<ModelParams, FlError> {
    if !(cfg.learning_rate.is_finite() && cfg.learning_rate > 0.0) {
        return Err(FlError::InvalidConfig {
            reason: format!(
                "learning rate must be finite and positive, got {}",
                cfg.learning_rate
            ),
        });
    }
    let mut model = template.clone();
    model.set_params(global)?;
    let loss = SoftmaxCrossEntropy::new();
    let mut optimizer: Box<dyn Optimizer> = match cfg.optimizer {
        OptimizerKind::Sgd => Box::new(Sgd::new(cfg.learning_rate)),
        OptimizerKind::Adam => Box::new(Adam::new(cfg.learning_rate)),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for _epoch in 0..cfg.local_epochs {
        for batch in data.epoch_batches(cfg.batch_size, &mut rng) {
            let (x, y) = data.batch(&batch)?;
            model.train_batch(&x, &y, &loss, optimizer.as_mut())?;
        }
    }
    Ok(model.params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_data::{lfw_like, InputDims};
    use mixnn_nn::zoo;

    fn setup() -> (Sequential, Dataset, FlConfig) {
        let fed = lfw_like(5).generate().unwrap();
        let dims = fed.spec().dims;
        let mut rng = StdRng::seed_from_u64(0);
        let template = zoo::conv2_fc3(
            zoo::InputSpec::new(dims.channels, dims.height, dims.width),
            fed.spec().num_classes,
            2,
            8,
            &mut rng,
        );
        let data = fed.participants()[0].train().clone();
        let cfg = FlConfig {
            local_epochs: 1,
            batch_size: 16,
            ..FlConfig::default()
        };
        (template, data, cfg)
    }

    #[test]
    fn training_changes_parameters() {
        let (template, data, cfg) = setup();
        let global = template.params();
        let updated = train_local(&template, &global, &data, &cfg, 7).unwrap();
        assert_eq!(updated.signature(), global.signature());
        assert_ne!(updated, global);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (template, data, cfg) = setup();
        let global = template.params();
        let a = train_local(&template, &global, &data, &cfg, 7).unwrap();
        let b = train_local(&template, &global, &data, &cfg, 7).unwrap();
        assert_eq!(a, b);
        let c = train_local(&template, &global, &data, &cfg, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn client_update_carries_identity() {
        let (template, data, cfg) = setup();
        let client = FlClient::new(9, data);
        let update = client
            .train(&template, &template.params(), &cfg, 1)
            .unwrap();
        assert_eq!(update.client_id, 9);
    }

    #[test]
    fn training_reduces_local_loss() {
        let (template, data, cfg) = setup();
        let cfg = FlConfig {
            local_epochs: 4,
            ..cfg
        };
        let global = template.params();
        let updated = train_local(&template, &global, &data, &cfg, 3).unwrap();
        let loss = SoftmaxCrossEntropy::new();
        let (x, y) = data.full_batch().unwrap();
        let mut before = template.clone();
        before.set_params(&global).unwrap();
        let mut after = template.clone();
        after.set_params(&updated).unwrap();
        let l_before = before.evaluate(&x, &y, &loss).unwrap().loss;
        let l_after = after.evaluate(&x, &y, &loss).unwrap().loss;
        assert!(
            l_after < l_before,
            "local training failed to reduce loss ({l_before} -> {l_after})"
        );
    }

    #[test]
    fn invalid_learning_rate_is_a_typed_error() {
        let (template, data, cfg) = setup();
        let global = template.params();
        for learning_rate in [0.0, -0.01, f32::NAN, f32::INFINITY] {
            for optimizer in [OptimizerKind::Sgd, OptimizerKind::Adam] {
                let cfg = FlConfig {
                    learning_rate,
                    optimizer,
                    ..cfg
                };
                let err = train_local(&template, &global, &data, &cfg, 0).unwrap_err();
                assert!(
                    matches!(&err, FlError::InvalidConfig { reason } if reason.contains("learning rate")),
                    "{learning_rate} under {optimizer:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let (template, data, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let other = zoo::mlp(&[4, 3], &mut rng);
        let global = other.params();
        assert!(train_local(&template, &global, &data, &cfg, 0).is_err());
        let _ = InputDims::new(1, 1, 1);
    }
}
