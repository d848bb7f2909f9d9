//! Per-dataset experiment configurations from §6.1.4 of the paper.

use mixnn_attacks::GradSimConfig;
use mixnn_data::SyntheticSpec;
use mixnn_fl::FlConfig;
use mixnn_nn::{zoo, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four evaluation datasets of §6.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// CIFAR10-like image classification; sensitive attribute = preference
    /// group (3 classes).
    Cifar10,
    /// MotionSense-like activity recognition; sensitive attribute = gender.
    MotionSense,
    /// MobiAct-like activity recognition; sensitive attribute = gender.
    MobiAct,
    /// LFW-like smile detection with the DeepFace-style model; sensitive
    /// attribute = gender.
    Lfw,
}

impl DatasetKind {
    /// All four datasets, in the paper's presentation order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Cifar10,
        DatasetKind::MotionSense,
        DatasetKind::MobiAct,
        DatasetKind::Lfw,
    ];

    /// Parses a dataset name (as accepted by the `eval` binary).
    pub fn parse(s: &str) -> Option<DatasetKind> {
        match s.to_ascii_lowercase().as_str() {
            "cifar10" | "cifar" => Some(DatasetKind::Cifar10),
            "motionsense" | "motion" => Some(DatasetKind::MotionSense),
            "mobiact" => Some(DatasetKind::MobiAct),
            "lfw" => Some(DatasetKind::Lfw),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "cifar10",
            DatasetKind::MotionSense => "motionsense",
            DatasetKind::MobiAct => "mobiact",
            DatasetKind::Lfw => "lfw",
        }
    }
}

/// Paper-parameter or shrunk-for-smoke-tests scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// §6.1.4 rounds/epochs/batches/users.
    Paper,
    /// Reduced rounds and population for fast runs (CI, unit tests).
    Quick,
}

/// Everything needed to run one dataset's experiments: the synthetic data
/// spec, FL hyper-parameters, attack settings and model widths.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Which dataset this models.
    pub kind: DatasetKind,
    /// Synthetic population specification.
    pub spec: SyntheticSpec,
    /// Federated hyper-parameters (§6.1.4 row for this dataset).
    pub fl: FlConfig,
    /// ∇Sim settings (attack models trained 5 epochs, cosine metric).
    pub attack: GradSimConfig,
    /// Noise scale of the noisy-gradient baseline, calibrated to land the
    /// paper's shape (~10 pt accuracy drop; `docs/ARCHITECTURE.md`,
    /// "Experiments").
    pub noise_sigma: f32,
    /// Convolution width of the model zoo template.
    pub conv_width: usize,
    /// Dense width of the model zoo template.
    pub fc_width: usize,
}

impl ExperimentSetup {
    /// The §6.1.4 configuration for a dataset.
    ///
    /// Paper rows: CIFAR10 — 3 local epochs, batch 32, 16 users/round, 10
    /// rounds; MotionSense — 2 epochs, batch 256, 20 users, 20 rounds;
    /// MobiAct — 3 epochs, batch 64, 40 users, 20 rounds; LFW — 2 epochs,
    /// batch 16, 20 users, 30 rounds; Adam everywhere.
    pub fn paper(kind: DatasetKind, seed: u64) -> Self {
        let (spec, fl, conv_width, fc_width) = match kind {
            DatasetKind::Cifar10 => (
                mixnn_data::cifar10_like(seed),
                FlConfig {
                    rounds: 10,
                    local_epochs: 3,
                    batch_size: 32,
                    clients_per_round: 16,
                    learning_rate: 0.005,
                    seed,
                    ..FlConfig::default()
                },
                4,
                32,
            ),
            DatasetKind::MotionSense => (
                mixnn_data::motionsense_like(seed),
                FlConfig {
                    rounds: 20,
                    local_epochs: 2,
                    batch_size: 256,
                    clients_per_round: 20,
                    learning_rate: 0.005,
                    seed,
                    ..FlConfig::default()
                },
                4,
                32,
            ),
            DatasetKind::MobiAct => (
                mixnn_data::mobiact_like(seed),
                FlConfig {
                    rounds: 20,
                    local_epochs: 3,
                    batch_size: 64,
                    clients_per_round: 40,
                    learning_rate: 0.005,
                    seed,
                    ..FlConfig::default()
                },
                4,
                32,
            ),
            DatasetKind::Lfw => (
                mixnn_data::lfw_like(seed),
                FlConfig {
                    rounds: 30,
                    local_epochs: 2,
                    batch_size: 16,
                    clients_per_round: 20,
                    learning_rate: 0.005,
                    seed,
                    ..FlConfig::default()
                },
                4,
                32,
            ),
        };
        ExperimentSetup {
            kind,
            spec,
            fl,
            attack: GradSimConfig {
                attack_epochs: 5,
                seed,
            },
            noise_sigma: 0.10,
            conv_width,
            fc_width,
        }
    }

    /// A shrunk configuration for smoke tests: fewer rounds, smaller
    /// population and batches, narrower models.
    pub fn quick(kind: DatasetKind, seed: u64) -> Self {
        let mut setup = Self::paper(kind, seed);
        setup.fl.rounds = setup.fl.rounds.min(4);
        setup.fl.local_epochs = 1;
        setup.fl.batch_size = setup.fl.batch_size.min(32);
        setup.fl.clients_per_round = setup.fl.clients_per_round.min(8);
        setup.attack.attack_epochs = 2;
        setup.conv_width = 2;
        setup.fc_width = 16;
        setup.spec.train_per_participant = setup.spec.train_per_participant.min(32);
        setup.spec.test_per_participant = setup.spec.test_per_participant.min(12);
        setup.spec.global_test_examples = setup.spec.global_test_examples.min(120);
        // Shrink the population but keep the attribute balance shape.
        let shrink = |c: usize| (c / 2).max(2);
        setup.spec.attribute_counts = setup
            .spec
            .attribute_counts
            .iter()
            .map(|&c| shrink(c))
            .collect();
        setup.fl.clients_per_round = setup
            .fl
            .clients_per_round
            .min(setup.spec.attribute_counts.iter().sum());
        setup
    }

    /// Builds one setup at the given scale.
    pub fn at_scale(kind: DatasetKind, scale: ExperimentScale, seed: u64) -> Self {
        match scale {
            ExperimentScale::Paper => Self::paper(kind, seed),
            ExperimentScale::Quick => Self::quick(kind, seed),
        }
    }

    /// The model template for this dataset, its weights seeded from the
    /// FL seed: 2-conv + 3-dense for CIFAR10/MotionSense/MobiAct,
    /// DeepFace-like for LFW (§6.1.1).
    pub fn template(&self) -> Sequential {
        let mut rng = StdRng::seed_from_u64(self.fl.seed ^ 0x7e3);
        let input = zoo::InputSpec::new(
            self.spec.dims.channels,
            self.spec.dims.height,
            self.spec.dims.width,
        );
        match self.kind {
            DatasetKind::Lfw => {
                zoo::deepface_like(input, self.spec.num_classes, self.conv_width, &mut rng)
            }
            _ => zoo::conv2_fc3(
                input,
                self.spec.num_classes,
                self.conv_width,
                self.fc_width,
                &mut rng,
            ),
        }
    }

    /// The chance level of the sensitive-attribute inference for this
    /// dataset (1/3 for CIFAR10's preference groups, 1/2 elsewhere).
    pub fn chance_level(&self) -> f32 {
        1.0 / self.spec.num_attributes as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_614() {
        let c = ExperimentSetup::paper(DatasetKind::Cifar10, 0);
        assert_eq!(
            (
                c.fl.rounds,
                c.fl.local_epochs,
                c.fl.batch_size,
                c.fl.clients_per_round
            ),
            (10, 3, 32, 16)
        );
        let m = ExperimentSetup::paper(DatasetKind::MotionSense, 0);
        assert_eq!(
            (
                m.fl.rounds,
                m.fl.local_epochs,
                m.fl.batch_size,
                m.fl.clients_per_round
            ),
            (20, 2, 256, 20)
        );
        let a = ExperimentSetup::paper(DatasetKind::MobiAct, 0);
        assert_eq!(
            (
                a.fl.rounds,
                a.fl.local_epochs,
                a.fl.batch_size,
                a.fl.clients_per_round
            ),
            (20, 3, 64, 40)
        );
        let l = ExperimentSetup::paper(DatasetKind::Lfw, 0);
        assert_eq!(
            (
                l.fl.rounds,
                l.fl.local_epochs,
                l.fl.batch_size,
                l.fl.clients_per_round
            ),
            (30, 2, 16, 20)
        );
        for k in DatasetKind::ALL {
            assert_eq!(ExperimentSetup::paper(k, 0).fl.learning_rate, 0.005);
        }
    }

    #[test]
    fn quick_is_smaller_than_paper() {
        for k in DatasetKind::ALL {
            let p = ExperimentSetup::paper(k, 0);
            let q = ExperimentSetup::quick(k, 0);
            assert!(q.fl.rounds <= p.fl.rounds);
            assert!(q.spec.num_participants() <= p.spec.num_participants());
            assert!(q.fl.clients_per_round <= q.spec.num_participants());
            q.spec.validate().unwrap();
        }
    }

    #[test]
    fn templates_build_and_match_dataset_geometry() {
        for k in DatasetKind::ALL {
            let setup = ExperimentSetup::quick(k, 1);
            let mut template = setup.template();
            let (x, _) = setup
                .spec
                .generate()
                .unwrap()
                .global_test()
                .batch(&[0])
                .unwrap();
            let out = template.forward(&x).unwrap();
            assert_eq!(out.dims(), &[1, setup.spec.num_classes], "{k:?}");
        }
    }

    #[test]
    fn lfw_uses_deepface_architecture() {
        let setup = ExperimentSetup::quick(DatasetKind::Lfw, 0);
        let t = setup.template();
        assert!(t.layer_names().contains(&"locally_connected2d"));
        let other = ExperimentSetup::quick(DatasetKind::Cifar10, 0);
        assert!(!other
            .template()
            .layer_names()
            .contains(&"locally_connected2d"));
    }

    #[test]
    fn dataset_kind_parsing() {
        assert_eq!(DatasetKind::parse("CIFAR10"), Some(DatasetKind::Cifar10));
        assert_eq!(DatasetKind::parse("motion"), Some(DatasetKind::MotionSense));
        assert_eq!(DatasetKind::parse("mobiact"), Some(DatasetKind::MobiAct));
        assert_eq!(DatasetKind::parse("lfw"), Some(DatasetKind::Lfw));
        assert_eq!(DatasetKind::parse("imagenet"), None);
    }

    #[test]
    fn chance_levels() {
        assert!(
            (ExperimentSetup::paper(DatasetKind::Cifar10, 0).chance_level() - 1.0 / 3.0).abs()
                < 1e-6
        );
        assert_eq!(
            ExperimentSetup::paper(DatasetKind::Lfw, 0).chance_level(),
            0.5
        );
    }

    #[test]
    fn template_is_deterministic() {
        let setup = ExperimentSetup::quick(DatasetKind::MotionSense, 3);
        assert_eq!(setup.template().params(), setup.template().params());
    }
}
