//! Synthetic dataset specifications and the four paper-equivalent
//! generators.

use crate::{DataError, Dataset, FederatedDataset, Participant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Geometry of one example: channels × height × width (NCHW without the
/// batch dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputDims {
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
}

impl InputDims {
    /// Creates an input geometry.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        InputDims {
            channels,
            height,
            width,
        }
    }

    /// Scalars per example.
    pub fn volume(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// NCHW dims for a batch of `n`.
    pub fn batch_dims(&self, n: usize) -> Vec<usize> {
        vec![n, self.channels, self.height, self.width]
    }
}

/// How the sensitive attribute shapes a participant's local data.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeMechanism {
    /// The attribute adds a consistent direction in input space
    /// (gender in MotionSense/MobiAct/LFW): `x = μ_c·s_c + ν_a·strength + ε`.
    Signal {
        /// Scale of the attribute component relative to unit prototypes.
        strength: f32,
    },
    /// The attribute is a preference group skewing the **label
    /// distribution** (CIFAR10, §6.1.1): with probability
    /// `preference_ratio` the label is drawn from the group's preferred
    /// classes, otherwise from the remaining classes.
    Preference {
        /// Preferred classes per attribute group (non-overlapping).
        groups: Vec<Vec<usize>>,
        /// Fraction of examples drawn from the preferred classes (0.8 in
        /// the paper).
        preference_ratio: f64,
    },
}

/// Full specification of a synthetic federated dataset.
///
/// Build one with the dataset constructors ([`cifar10_like`],
/// [`motionsense_like`], [`mobiact_like`], [`lfw_like`]) and tweak fields
/// as needed, then call [`SyntheticSpec::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Human-readable dataset name (used in experiment output).
    pub name: String,
    /// Example geometry.
    pub dims: InputDims,
    /// Number of main-task classes.
    pub num_classes: usize,
    /// Number of sensitive-attribute classes.
    pub num_attributes: usize,
    /// Participants per attribute class (length = `num_attributes`).
    pub attribute_counts: Vec<usize>,
    /// How the attribute shapes the data.
    pub mechanism: AttributeMechanism,
    /// Scale of the class prototype component.
    pub class_scale: f32,
    /// Standard deviation of the per-sample Gaussian noise.
    pub noise_scale: f32,
    /// Training examples per participant.
    pub train_per_participant: usize,
    /// Held-out test examples per participant.
    pub test_per_participant: usize,
    /// Examples in the balanced global test set.
    pub global_test_examples: usize,
    /// Base seed: fixes prototypes, participant data and the global test.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Total number of participants.
    pub fn num_participants(&self) -> usize {
        self.attribute_counts.iter().sum()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), DataError> {
        let fail = |reason: &str| {
            Err(DataError::InvalidSpec {
                reason: reason.to_string(),
            })
        };
        if self.num_classes < 2 {
            return fail("need at least 2 classes");
        }
        if self.num_attributes < 2 {
            return fail("need at least 2 attribute classes");
        }
        if self.attribute_counts.len() != self.num_attributes {
            return fail("attribute_counts length must equal num_attributes");
        }
        if self.attribute_counts.contains(&0) {
            return fail("every attribute class needs at least one participant");
        }
        if self.dims.volume() == 0 {
            return fail("input dims must be non-empty");
        }
        if self.train_per_participant == 0 {
            return fail("participants need at least one training example");
        }
        match &self.mechanism {
            AttributeMechanism::Signal { strength } => {
                if !strength.is_finite() || *strength < 0.0 {
                    return fail("signal strength must be a non-negative finite number");
                }
            }
            AttributeMechanism::Preference {
                groups,
                preference_ratio,
            } => {
                if groups.len() != self.num_attributes {
                    return fail("preference groups must match num_attributes");
                }
                if !(0.0..=1.0).contains(preference_ratio) {
                    return fail("preference_ratio must be in [0, 1]");
                }
                let mut seen = vec![false; self.num_classes];
                for g in groups {
                    if g.is_empty() {
                        return fail("every preference group needs at least one class");
                    }
                    for &c in g {
                        if c >= self.num_classes {
                            return fail("preference group references unknown class");
                        }
                        if seen[c] {
                            return fail("preference groups must not overlap");
                        }
                        seen[c] = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// The attribute class of participant `id` (participants are numbered
    /// attribute-block by attribute-block, matching the paper's fixed group
    /// sizes, e.g. CIFAR10's 6/6/8).
    pub fn attribute_of(&self, id: usize) -> usize {
        let mut cursor = 0usize;
        for (attr, &count) in self.attribute_counts.iter().enumerate() {
            cursor += count;
            if id < cursor {
                return attr;
            }
        }
        // Out-of-range ids wrap; callers validate id ranges.
        self.num_attributes - 1
    }

    /// Class prototypes `μ_c` and attribute directions `ν_a`, deterministic
    /// in `seed`.
    pub fn prototypes(&self) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x70_72_6f_74_6f); // "proto"
        let d = self.dims.volume();
        let norm = 1.0 / (d as f32).sqrt();
        let class_protos: Vec<Vec<f32>> = (0..self.num_classes)
            .map(|_| (0..d).map(|_| normal(&mut rng) * norm * 4.0).collect())
            .collect();
        let attr_protos: Vec<Vec<f32>> = (0..self.num_attributes)
            .map(|_| (0..d).map(|_| normal(&mut rng) * norm * 4.0).collect())
            .collect();
        (class_protos, attr_protos)
    }

    /// Draws the label for a participant of attribute class `attr`.
    fn sample_label<R: Rng + ?Sized>(&self, attr: usize, rng: &mut R) -> usize {
        match &self.mechanism {
            AttributeMechanism::Signal { .. } => rng.gen_range(0..self.num_classes),
            AttributeMechanism::Preference {
                groups,
                preference_ratio,
            } => {
                let preferred = &groups[attr];
                if rng.gen_bool(*preference_ratio) {
                    preferred[rng.gen_range(0..preferred.len())]
                } else {
                    // A random class outside the preferred set.
                    let others: Vec<usize> = (0..self.num_classes)
                        .filter(|c| !preferred.contains(c))
                        .collect();
                    if others.is_empty() {
                        preferred[rng.gen_range(0..preferred.len())]
                    } else {
                        others[rng.gen_range(0..others.len())]
                    }
                }
            }
        }
    }

    /// Synthesizes one example of class `label` for attribute `attr`.
    fn sample_input<R: Rng + ?Sized>(
        &self,
        label: usize,
        attr: usize,
        class_protos: &[Vec<f32>],
        attr_protos: &[Vec<f32>],
        rng: &mut R,
    ) -> Vec<f32> {
        let d = self.dims.volume();
        let mut x = vec![0.0f32; d];
        for (xi, &p) in x.iter_mut().zip(&class_protos[label]) {
            *xi += self.class_scale * p;
        }
        if let AttributeMechanism::Signal { strength } = self.mechanism {
            for (xi, &p) in x.iter_mut().zip(&attr_protos[attr]) {
                *xi += strength * p;
            }
        }
        for xi in x.iter_mut() {
            *xi += self.noise_scale * normal(rng);
        }
        x
    }

    /// Generates `n` examples distributed as the local data of a
    /// participant with attribute class `attr`.
    ///
    /// This is also the adversary's tool: §3 assumes an attacker "able to
    /// collect or to use a public dataset with similar raw data (including
    /// the sensitive attribute)" — calling this with a private seed gives
    /// exactly that auxiliary data.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the spec is inconsistent or
    /// `attr` is out of range.
    pub fn sample_attribute_dataset(
        &self,
        attr: usize,
        n: usize,
        seed: u64,
    ) -> Result<Dataset, DataError> {
        self.validate()?;
        if attr >= self.num_attributes {
            return Err(DataError::InvalidSpec {
                reason: format!("attribute {attr} out of range"),
            });
        }
        let (class_protos, attr_protos) = self.prototypes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::with_capacity(n * self.dims.volume());
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let label = self.sample_label(attr, &mut rng);
            inputs.extend(self.sample_input(label, attr, &class_protos, &attr_protos, &mut rng));
            labels.push(label);
        }
        Dataset::from_raw(self.dims, inputs, labels, self.num_classes)
    }

    /// Generates the full federated population: per-participant train/test
    /// data plus a balanced global test set.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if the spec is inconsistent.
    pub fn generate(&self) -> Result<FederatedDataset, DataError> {
        self.validate()?;
        let (class_protos, attr_protos) = self.prototypes();
        let mut participants = Vec::with_capacity(self.num_participants());
        for id in 0..self.num_participants() {
            let attr = self.attribute_of(id);
            let mut rng = StdRng::seed_from_u64(self.seed ^ (0x1000 + id as u64));
            let total = self.train_per_participant + self.test_per_participant;
            let mut inputs = Vec::with_capacity(total * self.dims.volume());
            let mut labels = Vec::with_capacity(total);
            for _ in 0..total {
                let label = self.sample_label(attr, &mut rng);
                inputs.extend(self.sample_input(
                    label,
                    attr,
                    &class_protos,
                    &attr_protos,
                    &mut rng,
                ));
                labels.push(label);
            }
            let all = Dataset::from_raw(self.dims, inputs, labels, self.num_classes)?;
            let train = all.subset(&(0..self.train_per_participant).collect::<Vec<_>>());
            let test = all.subset(&(self.train_per_participant..total).collect::<Vec<_>>());
            participants.push(Participant::new(id, attr, train, test));
        }

        // Balanced global test set: uniform classes, attributes rotated.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7465_7374); // "test"
        let n = self.global_test_examples;
        let mut inputs = Vec::with_capacity(n * self.dims.volume());
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % self.num_classes;
            let attr = (i / self.num_classes) % self.num_attributes;
            inputs.extend(self.sample_input(label, attr, &class_protos, &attr_protos, &mut rng));
            labels.push(label);
        }
        let global_test = Dataset::from_raw(self.dims, inputs, labels, self.num_classes)?;

        Ok(FederatedDataset::new(
            self.clone(),
            participants,
            global_test,
        ))
    }
}

fn normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// CIFAR10-like: 10 object classes, 20 participants in 3 preference groups
/// (6/6/8 as in §6.1.1), 80% preferred-class images. Sensitive attribute =
/// the preference group.
pub fn cifar10_like(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: "cifar10".to_string(),
        dims: InputDims::new(3, 8, 8),
        num_classes: 10,
        num_attributes: 3,
        attribute_counts: vec![6, 6, 8],
        mechanism: AttributeMechanism::Preference {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]],
            preference_ratio: 0.8,
        },
        class_scale: 1.0,
        noise_scale: 0.6,
        train_per_participant: 64,
        test_per_participant: 24,
        global_test_examples: 240,
        seed,
    }
}

/// MotionSense-like: 6 activities from 24 participants (§6.1.1), sensitive
/// attribute = gender, which shifts the sensor signal (Signal mechanism).
/// Examples are 8×8 single-channel sensor windows (6 axis rows + 2 derived
/// magnitude rows × 8 time steps).
pub fn motionsense_like(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: "motionsense".to_string(),
        dims: InputDims::new(1, 8, 8),
        num_classes: 6,
        num_attributes: 2,
        attribute_counts: vec![12, 12],
        mechanism: AttributeMechanism::Signal { strength: 0.5 },
        class_scale: 1.0,
        noise_scale: 0.6,
        train_per_participant: 64,
        test_per_participant: 24,
        global_test_examples: 240,
        seed,
    }
}

/// MobiAct-like: the same six activities from 58 participants (§6.1.1),
/// recorded at a lower rate — modeled with slightly noisier signals.
pub fn mobiact_like(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: "mobiact".to_string(),
        dims: InputDims::new(1, 8, 8),
        num_classes: 6,
        num_attributes: 2,
        attribute_counts: vec![29, 29],
        mechanism: AttributeMechanism::Signal { strength: 0.45 },
        class_scale: 1.0,
        noise_scale: 0.7,
        train_per_participant: 48,
        test_per_participant: 16,
        global_test_examples: 240,
        seed,
    }
}

/// LFW-like: smile detection (2 classes) with gender as the sensitive
/// attribute (§6.1.1), 20 participants. Faces are 8×8 grayscale patches;
/// gender shifts facial structure (Signal mechanism).
pub fn lfw_like(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: "lfw".to_string(),
        dims: InputDims::new(1, 8, 8),
        num_classes: 2,
        num_attributes: 2,
        attribute_counts: vec![10, 10],
        mechanism: AttributeMechanism::Signal { strength: 0.4 },
        class_scale: 1.0,
        noise_scale: 0.8,
        train_per_participant: 48,
        test_per_participant: 16,
        global_test_examples: 200,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_specs_validate() {
        for spec in [
            cifar10_like(1),
            motionsense_like(1),
            mobiact_like(1),
            lfw_like(1),
        ] {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn participant_counts_match_paper() {
        assert_eq!(cifar10_like(0).num_participants(), 20);
        assert_eq!(motionsense_like(0).num_participants(), 24);
        assert_eq!(mobiact_like(0).num_participants(), 58);
        assert_eq!(lfw_like(0).num_participants(), 20);
    }

    #[test]
    fn attribute_blocks_follow_counts() {
        let spec = cifar10_like(0);
        assert_eq!(spec.attribute_of(0), 0);
        assert_eq!(spec.attribute_of(5), 0);
        assert_eq!(spec.attribute_of(6), 1);
        assert_eq!(spec.attribute_of(11), 1);
        assert_eq!(spec.attribute_of(12), 2);
        assert_eq!(spec.attribute_of(19), 2);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = cifar10_like(0);
        spec.attribute_counts = vec![10, 10]; // wrong length vs 3 attributes
        assert!(spec.validate().is_err());

        let mut spec = cifar10_like(0);
        if let AttributeMechanism::Preference { groups, .. } = &mut spec.mechanism {
            groups[0].push(3); // overlap with group 1
        }
        assert!(spec.validate().is_err());

        let mut spec = motionsense_like(0);
        spec.mechanism = AttributeMechanism::Signal { strength: -1.0 };
        assert!(spec.validate().is_err());

        let mut spec = lfw_like(0);
        spec.train_per_participant = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn prototypes_are_deterministic_and_distinct() {
        let spec = motionsense_like(7);
        let (c1, a1) = spec.prototypes();
        let (c2, a2) = spec.prototypes();
        assert_eq!(c1, c2);
        assert_eq!(a1, a2);
        assert_ne!(c1[0], c1[1]);
        assert_ne!(a1[0], a1[1]);
    }

    #[test]
    fn preference_mechanism_skews_labels() {
        let spec = cifar10_like(3);
        let ds = spec.sample_attribute_dataset(0, 600, 42).unwrap();
        let hist = ds.class_histogram();
        let preferred: usize = hist[..3].iter().sum();
        // ~80% of 600 = 480 expected in classes {0,1,2}.
        assert!(
            preferred > 420 && preferred < 540,
            "preferred count {preferred} outside plausible band"
        );
    }

    #[test]
    fn signal_mechanism_shifts_means_by_attribute() {
        let spec = motionsense_like(5);
        let a = spec.sample_attribute_dataset(0, 200, 1).unwrap();
        let b = spec.sample_attribute_dataset(1, 200, 2).unwrap();
        // Mean input vectors should differ measurably between attributes.
        let mean = |ds: &Dataset| -> Vec<f32> {
            let v = ds.dims().volume();
            let mut m = vec![0.0f32; v];
            for i in 0..ds.len() {
                for (mj, &x) in m.iter_mut().zip(ds.example(i).unwrap()) {
                    *mj += x;
                }
            }
            for mj in m.iter_mut() {
                *mj /= ds.len() as f32;
            }
            m
        };
        let d = mixnn_tensor::vecmath::euclidean_distance(&mean(&a), &mean(&b));
        assert!(d > 0.5, "attribute signal too weak: {d}");
    }

    #[test]
    fn generate_produces_consistent_population() {
        let spec = lfw_like(11);
        let fed = spec.generate().unwrap();
        assert_eq!(fed.participants().len(), 20);
        for p in fed.participants() {
            assert_eq!(p.train().len(), spec.train_per_participant);
            assert_eq!(p.test().len(), spec.test_per_participant);
            assert!(p.attribute() < spec.num_attributes);
        }
        assert_eq!(fed.global_test().len(), spec.global_test_examples);
        // Global test is class-balanced.
        let hist = fed.global_test().class_histogram();
        assert_eq!(hist[0], hist[1]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = motionsense_like(9).generate().unwrap();
        let b = motionsense_like(9).generate().unwrap();
        assert_eq!(
            a.participants()[0].train().example(0).unwrap(),
            b.participants()[0].train().example(0).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = motionsense_like(1).generate().unwrap();
        let b = motionsense_like(2).generate().unwrap();
        assert_ne!(
            a.participants()[0].train().example(0).unwrap(),
            b.participants()[0].train().example(0).unwrap()
        );
    }

    #[test]
    fn sample_attribute_dataset_rejects_bad_attr() {
        let spec = lfw_like(0);
        assert!(spec.sample_attribute_dataset(5, 10, 0).is_err());
    }
}
