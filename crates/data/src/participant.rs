//! Federated participants and population-level helpers.

use crate::{Dataset, SyntheticSpec};
use rand::seq::SliceRandom;
use rand::Rng;

/// One federated participant: identity, sensitive attribute and local data.
///
/// The attribute is what the malicious server tries to infer; it never
/// travels on the wire — only the participant's model updates do.
#[derive(Debug, Clone)]
pub struct Participant {
    id: usize,
    attribute: usize,
    train: Dataset,
    test: Dataset,
}

impl Participant {
    /// Creates a participant.
    pub fn new(id: usize, attribute: usize, train: Dataset, test: Dataset) -> Self {
        Participant {
            id,
            attribute,
            train,
            test,
        }
    }

    /// Stable participant identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The ground-truth sensitive attribute class.
    pub fn attribute(&self) -> usize {
        self.attribute
    }

    /// Local training data (never leaves the device in FL).
    pub fn train(&self) -> &Dataset {
        &self.train
    }

    /// Local held-out data, used for the per-participant accuracy CDFs
    /// (Fig. 6).
    pub fn test(&self) -> &Dataset {
        &self.test
    }
}

/// A split of the participant population into the adversary's background
/// users and the attacked targets (the paper's 4/5–1/5 cross-validation,
/// §6.1.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserSplit {
    /// Participant ids whose data the adversary may use as auxiliary
    /// knowledge.
    pub background: Vec<usize>,
    /// Participant ids under attack.
    pub targets: Vec<usize>,
}

/// A complete generated federated population.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    spec: SyntheticSpec,
    participants: Vec<Participant>,
    global_test: Dataset,
}

impl FederatedDataset {
    /// Assembles a population (used by [`SyntheticSpec::generate`]).
    pub fn new(spec: SyntheticSpec, participants: Vec<Participant>, global_test: Dataset) -> Self {
        FederatedDataset {
            spec,
            participants,
            global_test,
        }
    }

    /// The generating specification.
    pub fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }

    /// All participants.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// The balanced global test set used for the utility curves (Fig. 5).
    pub fn global_test(&self) -> &Dataset {
        &self.global_test
    }

    /// Participant count.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Number of participants per attribute class.
    pub fn attribute_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.spec.num_attributes];
        for p in &self.participants {
            hist[p.attribute()] += 1;
        }
        hist
    }

    /// Splits users into adversary background knowledge vs attack targets,
    /// stratified by attribute so every attribute class appears in both
    /// sides (required to *train* one attack model per class and to
    /// *evaluate* on every class).
    ///
    /// `background_fraction` is the share of each attribute class given to
    /// the adversary (the paper uses 4/5).
    ///
    /// # Panics
    ///
    /// Panics if `background_fraction` is outside `[0, 1]`.
    pub fn split_users<R: Rng + ?Sized>(&self, background_fraction: f64, rng: &mut R) -> UserSplit {
        assert!(
            (0.0..=1.0).contains(&background_fraction),
            "background_fraction must be in [0, 1]"
        );
        let mut background = Vec::new();
        let mut targets = Vec::new();
        for attr in 0..self.spec.num_attributes {
            let mut ids: Vec<usize> = self
                .participants
                .iter()
                .filter(|p| p.attribute() == attr)
                .map(Participant::id)
                .collect();
            ids.shuffle(rng);
            // At least one background user and one target per class when
            // the class has ≥ 2 members.
            let mut take = ((ids.len() as f64) * background_fraction).round() as usize;
            if ids.len() >= 2 {
                take = take.clamp(1, ids.len() - 1);
            } else {
                take = take.min(ids.len());
            }
            background.extend_from_slice(&ids[..take]);
            targets.extend_from_slice(&ids[take..]);
        }
        background.sort_unstable();
        targets.sort_unstable();
        UserSplit {
            background,
            targets,
        }
    }

    /// The participants with the given ids, in id order.
    pub fn participants_by_ids(&self, ids: &[usize]) -> Vec<&Participant> {
        ids.iter()
            .filter_map(|&id| self.participants.iter().find(|p| p.id() == id))
            .collect()
    }

    /// Pools the training data of the given participants into one dataset
    /// (used to build the adversary's per-attribute auxiliary corpora).
    pub fn pooled_train_data(&self, ids: &[usize]) -> Option<Dataset> {
        let mut iter = self.participants_by_ids(ids).into_iter();
        let first = iter.next()?;
        let mut acc = first.train().clone();
        for p in iter {
            acc = acc.merged(p.train()).ok()?;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cifar10_like, motionsense_like};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population() -> FederatedDataset {
        motionsense_like(3).generate().unwrap()
    }

    #[test]
    fn attribute_histogram_matches_spec() {
        let fed = population();
        assert_eq!(fed.attribute_histogram(), vec![12, 12]);
        let cifar = cifar10_like(3).generate().unwrap();
        assert_eq!(cifar.attribute_histogram(), vec![6, 6, 8]);
    }

    #[test]
    fn split_users_is_stratified_and_disjoint() {
        let fed = population();
        let mut rng = StdRng::seed_from_u64(0);
        let split = fed.split_users(0.8, &mut rng);
        assert_eq!(split.background.len() + split.targets.len(), fed.len());
        for id in &split.background {
            assert!(!split.targets.contains(id));
        }
        // Every attribute class appears on both sides.
        for attr in 0..2 {
            let bg = split
                .background
                .iter()
                .filter(|&&id| fed.participants()[id].attribute() == attr)
                .count();
            let tg = split
                .targets
                .iter()
                .filter(|&&id| fed.participants()[id].attribute() == attr)
                .count();
            assert!(bg >= 1, "attribute {attr} missing from background");
            assert!(tg >= 1, "attribute {attr} missing from targets");
        }
    }

    #[test]
    fn split_users_extreme_fractions_keep_both_sides() {
        let fed = population();
        let mut rng = StdRng::seed_from_u64(1);
        let all_bg = fed.split_users(1.0, &mut rng);
        assert!(!all_bg.targets.is_empty(), "clamp must keep targets");
        let no_bg = fed.split_users(0.0, &mut rng);
        assert!(!no_bg.background.is_empty(), "clamp must keep background");
    }

    #[test]
    fn pooled_train_data_concatenates() {
        let fed = population();
        let pooled = fed.pooled_train_data(&[0, 1]).unwrap();
        assert_eq!(
            pooled.len(),
            fed.participants()[0].train().len() + fed.participants()[1].train().len()
        );
        assert!(fed.pooled_train_data(&[]).is_none());
    }

    #[test]
    fn participants_by_ids_preserves_requested_order() {
        let fed = population();
        let ps = fed.participants_by_ids(&[5, 2]);
        assert_eq!(ps[0].id(), 5);
        assert_eq!(ps[1].id(), 2);
    }
}
