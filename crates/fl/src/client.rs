//! Federated clients and local training.

use crate::{FlConfig, FlError, ModelUpdate};
use mixnn_data::Dataset;
use mixnn_nn::{Adam, ModelParams, Sequential, SoftmaxCrossEntropy, Tensor};
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
    /// This is [`FlClient::train_in`] over a fresh [`LocalTrainer`].
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
        self.train_in(&mut LocalTrainer::new(template), global, cfg, seed)
    }

    /// [`FlClient::train`] in a trainer kept from earlier clients: the same
    /// update, bit for bit, without building a model, an optimizer or a
    /// batch.
    ///
    /// # Errors
    ///
    /// As [`LocalTrainer::train`].
    pub fn train_in(
        &self,
        trainer: &mut LocalTrainer,
        global: &ModelParams,
        cfg: &FlConfig,
        seed: u64,
    ) -> Result<ModelUpdate, FlError> {
        let params = trainer.train(global, &self.data, cfg, seed)?;
        Ok(ModelUpdate::new(self.id, params))
    }
}

/// Local refinement: load `global` into a copy of `template`, run
/// `cfg.local_epochs` epochs of mini-batch training on `data`, and return
/// the resulting parameters — [`LocalTrainer::train`] over a fresh
/// trainer.
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
    LocalTrainer::new(template).train(global, data, cfg, seed)
}

/// What local training keeps from one client to the next: a model of the
/// template's architecture (with its activation and gradient buffers), the
/// Adam optimizer's moments, one batch and the epoch's visiting order.
///
/// Each call of [`LocalTrainer::train`] starts from the same state a fresh
/// trainer would — `global` loaded, gradients zeroed, the optimizer at
/// step zero — so what a trainer trained before, or an error it returned,
/// never reaches an update; only the memory is reused. A simulation keeps
/// one per training worker.
///
/// # Example
///
/// ```
/// use mixnn_data::lfw_like;
/// use mixnn_fl::{train_local, FlConfig, LocalTrainer};
/// use mixnn_nn::zoo;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let population = lfw_like(1).generate()?;
/// let dims = population.spec().dims;
/// let input = zoo::InputSpec::new(dims.channels, dims.height, dims.width);
/// let classes = population.spec().num_classes;
/// let template = zoo::conv2_fc3(input, classes, 2, 8, &mut StdRng::seed_from_u64(0));
/// let cfg = FlConfig { local_epochs: 1, ..FlConfig::default() };
/// let global = template.params();
/// let mut trainer = LocalTrainer::new(&template);
/// for (seed, p) in population.participants()[..2].iter().enumerate() {
///     let kept = trainer.train(&global, p.train(), &cfg, seed as u64)?;
///     assert_eq!(kept, train_local(&template, &global, p.train(), &cfg, seed as u64)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalTrainer {
    model: Sequential,
    /// Created by the first call, restarted by every later one.
    adam: Option<Adam>,
    x: Tensor,
    labels: Vec<usize>,
    order: Vec<usize>,
}

impl LocalTrainer {
    /// A trainer for `template`'s architecture.
    pub fn new(template: &Sequential) -> Self {
        LocalTrainer {
            model: template.clone(),
            adam: None,
            x: Tensor::default(),
            labels: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Loads `global` into the trainer's model, zeroes its gradients,
    /// starts Adam afresh at `cfg.learning_rate`, runs `cfg.local_epochs`
    /// epochs of mini-batch training on `data`, their batches shuffled by
    /// `seed`, and returns the resulting parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`], before anything else, if
    /// `cfg.learning_rate` is not finite and positive, and propagates
    /// model/data failures (a `global` of another architecture, data the
    /// model does not take) as [`FlError`].
    pub fn train(
        &mut self,
        global: &ModelParams,
        data: &Dataset,
        cfg: &FlConfig,
        seed: u64,
    ) -> Result<ModelParams, FlError> {
        let lr = cfg.learning_rate;
        if !(lr.is_finite() && lr > 0.0) {
            return Err(FlError::InvalidConfig {
                reason: format!("learning rate must be finite and positive, got {lr}"),
            });
        }
        self.model.set_params(global)?;
        self.model.zero_grads();
        let adam = self.adam.get_or_insert_with(|| Adam::new(lr));
        adam.restart(lr);
        let loss = SoftmaxCrossEntropy::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _epoch in 0..cfg.local_epochs {
            data.epoch_order(&mut rng, &mut self.order);
            for batch in self.order.chunks(cfg.batch_size.max(1)) {
                data.batch_into(batch, &mut self.x, &mut self.labels)?;
                self.model.train_batch(&self.x, &self.labels, &loss, adam)?;
            }
        }
        Ok(self.model.params())
    }
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
            let cfg = FlConfig {
                learning_rate,
                ..cfg
            };
            let err = train_local(&template, &global, &data, &cfg, 0).unwrap_err();
            assert!(
                matches!(&err, FlError::InvalidConfig { reason } if reason.contains("learning rate")),
                "{learning_rate}: {err}"
            );
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
