//! The end-to-end inference experiment: ∇Sim against a live federated run.

use crate::{AttackError, AttackSession, GradSim, GradSimConfig, ServerLog};
use mixnn_data::{Dataset, FederatedDataset};
use mixnn_fl::{FlConfig, FlSimulation, UpdateTransport};
use mixnn_nn::{ModelParams, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Passive (honest-but-curious) or active (protocol-abusing) ∇Sim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackMode {
    /// The server follows the protocol and only observes (§5 passive).
    Passive,
    /// The server disseminates the crafted equidistant model to amplify
    /// the fingerprint (§5 active; used in Figs. 7–8, "the worst case").
    Active,
}

/// Result of a multi-round inference experiment.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Inference accuracy after each learning round (cumulative scores) —
    /// one curve of Fig. 7.
    pub per_round_accuracy: Vec<f32>,
    /// Final accuracy (last entry of the curve, or chance if no target was
    /// ever observed).
    pub final_accuracy: f32,
    /// The attacked participant ids.
    pub targets: Vec<usize>,
    /// Number of attribute classes (chance level = 1 / this).
    pub num_attributes: usize,
}

impl InferenceResult {
    /// The random-guess baseline for this experiment.
    pub fn chance_level(&self) -> f32 {
        1.0 / self.num_attributes as f32
    }
}

/// Configuration + orchestration of the full ∇Sim experiment: record
/// `fl_cfg.rounds` rounds of FL over a transport (classic, noisy or MixNN)
/// into a [`ServerLog`], then fit attack models for each recorded round and
/// accumulate per-target scores.
#[derive(Debug)]
pub struct InferenceExperiment<'a> {
    population: &'a FederatedDataset,
    template: Sequential,
    fl_cfg: FlConfig,
    attack_cfg: GradSimConfig,
    mode: AttackMode,
    background_fraction: f64,
}

impl<'a> InferenceExperiment<'a> {
    /// Creates an experiment over a generated population.
    ///
    /// `background_fraction` is the share of each attribute class the
    /// adversary controls as auxiliary knowledge (4/5 in §6.1.4; swept in
    /// Fig. 8).
    pub fn new(
        population: &'a FederatedDataset,
        template: Sequential,
        fl_cfg: FlConfig,
        attack_cfg: GradSimConfig,
        mode: AttackMode,
        background_fraction: f64,
    ) -> Self {
        InferenceExperiment {
            population,
            template,
            fl_cfg,
            attack_cfg,
            mode,
            background_fraction,
        }
    }

    /// Runs the experiment against the given transport.
    ///
    /// First the FL run is recorded into a [`ServerLog`]: the server
    /// disseminates the honest global model (passive) or the model
    /// equidistant from attack models fitted at it (active). Then ∇Sim
    /// folds over the log: each round it fits attack models at the model
    /// the round disseminated — victims train *from* it, so their gradient
    /// directions are measured from it too — scores every observed target
    /// update, and the session accumulates.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for degenerate setups and
    /// propagates FL/training failures.
    pub fn run(&self, transport: &mut dyn UpdateTransport) -> Result<InferenceResult, AttackError> {
        if !(0.0..=1.0).contains(&self.background_fraction) {
            return Err(AttackError::InvalidConfig {
                reason: "background fraction must be in [0, 1]".to_string(),
            });
        }
        let num_attributes = self.population.spec().num_attributes;

        // Adversary/victim split, stratified per attribute class.
        let mut split_rng = StdRng::seed_from_u64(self.attack_cfg.seed ^ 0x5b17);
        let split = self
            .population
            .split_users(self.background_fraction, &mut split_rng);

        // Pool the background users' data per attribute class.
        let mut background: Vec<(usize, Dataset)> = Vec::with_capacity(num_attributes);
        for attr in 0..num_attributes {
            let ids: Vec<usize> = split
                .background
                .iter()
                .copied()
                .filter(|&id| self.population.participants()[id].attribute() == attr)
                .collect();
            let pooled = self
                .population
                .pooled_train_data(&ids)
                .ok_or(AttackError::MissingBackground { attribute: attr })?;
            background.push((attr, pooled));
        }

        let truth: HashMap<usize, usize> = split
            .targets
            .iter()
            .map(|&id| (id, self.population.participants()[id].attribute()))
            .collect();

        let fit = |base: &ModelParams| {
            GradSim::fit(
                &self.template,
                base,
                &background,
                &self.fl_cfg,
                &self.attack_cfg,
            )
        };
        let mut sim = FlSimulation::new(self.template.clone(), self.fl_cfg, self.population);
        let disseminate = |global: &ModelParams| -> Result<ModelParams, AttackError> {
            match self.mode {
                AttackMode::Passive => Ok(global.clone()),
                AttackMode::Active => Ok(fit(global)?.equidistant_model()),
            }
        };
        let log = ServerLog::record(&mut sim, transport, self.fl_cfg.rounds, disseminate)?;

        let chance = 1.0 / num_attributes as f32;
        let mut session = AttackSession::new();
        let mut per_round_accuracy = Vec::with_capacity(self.fl_cfg.rounds);
        for (disseminated, observed) in log.broadcasts() {
            let gradsim = fit(disseminated)?;
            for update in observed.iter().filter(|u| truth.contains_key(&u.client_id)) {
                session.record(update.client_id, &gradsim.score(&update.params)?);
            }
            per_round_accuracy.push(session.accuracy(&truth).unwrap_or(chance));
        }

        let final_accuracy = per_round_accuracy.last().copied().unwrap_or(chance);
        Ok(InferenceResult {
            per_round_accuracy,
            final_accuracy,
            targets: split.targets,
            num_attributes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_data::motionsense_like;
    use mixnn_fl::DirectTransport;
    use mixnn_nn::zoo;

    fn tiny_setup() -> (FederatedDataset, Sequential, FlConfig, GradSimConfig) {
        let mut spec = motionsense_like(21);
        spec.train_per_participant = 32;
        spec.attribute_counts = vec![5, 5];
        let fed = spec.generate().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 8, &mut rng);
        let fl_cfg = FlConfig {
            rounds: 2,
            local_epochs: 1,
            batch_size: 16,
            clients_per_round: 10,
            seed: 5,
            ..FlConfig::default()
        };
        let attack_cfg = GradSimConfig {
            attack_epochs: 1,
            ..GradSimConfig::default()
        };
        (fed, template, fl_cfg, attack_cfg)
    }

    #[test]
    fn passive_experiment_produces_curve() {
        let (fed, template, fl_cfg, attack_cfg) = tiny_setup();
        let exp =
            InferenceExperiment::new(&fed, template, fl_cfg, attack_cfg, AttackMode::Passive, 0.8);
        let result = exp.run(&mut DirectTransport::new()).unwrap();
        assert_eq!(result.per_round_accuracy.len(), 2);
        assert!((0.0..=1.0).contains(&result.final_accuracy));
        assert_eq!(result.num_attributes, 2);
        assert!((result.chance_level() - 0.5).abs() < 1e-6);
        assert!(!result.targets.is_empty());
    }

    #[test]
    fn active_experiment_runs() {
        let (fed, template, fl_cfg, attack_cfg) = tiny_setup();
        let exp =
            InferenceExperiment::new(&fed, template, fl_cfg, attack_cfg, AttackMode::Active, 0.8);
        let result = exp.run(&mut DirectTransport::new()).unwrap();
        assert_eq!(result.per_round_accuracy.len(), 2);
    }

    #[test]
    fn zero_rounds_is_rejected() {
        let (fed, template, mut fl_cfg, attack_cfg) = tiny_setup();
        fl_cfg.rounds = 0;
        let exp =
            InferenceExperiment::new(&fed, template, fl_cfg, attack_cfg, AttackMode::Passive, 0.8);
        assert!(matches!(
            exp.run(&mut DirectTransport::new()),
            Err(AttackError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn bad_background_fraction_is_rejected() {
        let (fed, template, fl_cfg, attack_cfg) = tiny_setup();
        let exp =
            InferenceExperiment::new(&fed, template, fl_cfg, attack_cfg, AttackMode::Passive, 1.5);
        assert!(matches!(
            exp.run(&mut DirectTransport::new()),
            Err(AttackError::InvalidConfig { .. })
        ));
    }
}
