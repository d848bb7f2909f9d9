//! The core ∇Sim machinery: attack models, reference directions, scoring.

use crate::AttackError;
use mixnn_data::Dataset;
use mixnn_fl::{train_local, FlConfig};
use mixnn_nn::{ModelParams, Sequential};
use mixnn_tensor::vecmath;
use std::collections::HashMap;

/// Configuration of the ∇Sim attack.
#[derive(Debug, Clone, PartialEq)]
pub struct GradSimConfig {
    /// Local-training hyper-parameters used to build the attack models.
    /// §6.1.4: "the attack models are trained for 5 learning rounds of the
    /// previous architecture" — mirror the victims' settings with
    /// `attack_epochs` controlling depth.
    pub attack_epochs: usize,
    /// Seed for the attack model training (batch shuffling).
    pub seed: u64,
}

impl Default for GradSimConfig {
    fn default() -> Self {
        GradSimConfig {
            attack_epochs: 5,
            seed: 0,
        }
    }
}

/// A fitted ∇Sim attack: one reference model per sensitive-attribute
/// class, all trained from a common base model.
///
/// # Example
///
/// ```no_run
/// use mixnn_attacks::{GradSim, GradSimConfig};
/// use mixnn_data::lfw_like;
/// use mixnn_fl::FlConfig;
/// use mixnn_nn::zoo;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_attacks::AttackError> {
/// let fed = lfw_like(0).generate().unwrap();
/// let mut rng = StdRng::seed_from_u64(0);
/// let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 2, 2, 8, &mut rng);
/// let background = vec![
///     (0, fed.participants()[0].train().clone()),
///     (1, fed.participants()[10].train().clone()),
/// ];
/// let attack = GradSim::fit(
///     &template,
///     &template.params(),
///     &background,
///     &FlConfig::default(),
///     &GradSimConfig::default(),
/// )?;
/// assert_eq!(attack.num_attributes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GradSim {
    base: ModelParams,
    references: Vec<ModelParams>,
    /// [`GradSim::centered_direction`] of every class, in class order.
    centered: Vec<Vec<f32>>,
}

impl GradSim {
    /// The attack over `references`, all trained from `base`.
    ///
    /// # Panics
    ///
    /// Panics if a reference's signature differs from `base`'s.
    fn new(base: ModelParams, references: Vec<ModelParams>) -> GradSim {
        let directions: Vec<Vec<f32>> = references
            .iter()
            .map(|r| r.delta(&base).expect("trained from base").flatten())
            .collect();
        let classes = directions.len() as f32;
        let mut mean = vec![0.0f32; directions.first().map_or(0, Vec::len)];
        for dir in &directions {
            for (m, d) in mean.iter_mut().zip(dir) {
                *m += d / classes;
            }
        }
        let centered = directions
            .iter()
            .map(|dir| dir.iter().zip(&mean).map(|(t, m)| t - m).collect())
            .collect();
        GradSim {
            base,
            references,
            centered,
        }
    }

    /// Trains the per-attribute attack models.
    ///
    /// `background` pairs each attribute class with the adversary's pooled
    /// auxiliary data for that class; every class in `0..max_attr+1` must
    /// be covered. Training starts from `base` (the model the victims will
    /// refine) and uses the same [`train_local`] routine as real clients —
    /// the fidelity of ∇Sim rests on that symmetry.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::MissingBackground`] if an attribute class has
    /// no data, [`AttackError::InvalidConfig`] for an empty background, and
    /// propagates training failures.
    pub fn fit(
        template: &Sequential,
        base: &ModelParams,
        background: &[(usize, Dataset)],
        fl_cfg: &FlConfig,
        cfg: &GradSimConfig,
    ) -> Result<GradSim, AttackError> {
        if background.is_empty() {
            return Err(AttackError::InvalidConfig {
                reason: "background knowledge is empty".to_string(),
            });
        }
        let num_attributes = background
            .iter()
            .map(|(a, _)| a + 1)
            .max()
            .expect("non-empty");
        let mut per_attr: Vec<Option<&Dataset>> = vec![None; num_attributes];
        for (attr, data) in background {
            per_attr[*attr] = Some(data);
        }
        let attack_cfg = FlConfig {
            local_epochs: cfg.attack_epochs,
            ..*fl_cfg
        };
        let mut references = Vec::with_capacity(num_attributes);
        for (attr, data) in per_attr.into_iter().enumerate() {
            let data = data.ok_or(AttackError::MissingBackground { attribute: attr })?;
            let reference = train_local(
                template,
                base,
                data,
                &attack_cfg,
                cfg.seed ^ (0xa77ac + attr as u64),
            )?;
            references.push(reference);
        }
        Ok(GradSim::new(base.clone(), references))
    }

    /// Number of attribute classes covered.
    pub fn num_attributes(&self) -> usize {
        self.references.len()
    }

    /// The base model the references were trained from.
    pub fn base(&self) -> &ModelParams {
        &self.base
    }

    /// The reference (attack) model of an attribute class.
    pub fn reference(&self, attr: usize) -> Option<&ModelParams> {
        self.references.get(attr)
    }

    /// The reference *gradient direction* of a class — `reference − base`,
    /// flattened, the fingerprint template an update is compared
    /// against — with the **common mode removed**: all
    /// classes' gradients share a large "fit the data" component that says
    /// nothing about the attribute; subtracting the mean reference
    /// direction leaves only the class-discriminative part. This is what
    /// scoring uses — without it, the shared component dominates the
    /// cosine and the active attack (whose crafted starting point sits far
    /// from the honest trajectory) loses its edge. Computed once, when
    /// the attack is fitted.
    pub fn centered_direction(&self, attr: usize) -> Option<&[f32]> {
        self.centered.get(attr).map(Vec::as_slice)
    }

    /// Scores an observed update (the returned parameters) against every
    /// attribute class by cosine similarity, as the paper does: it is
    /// scale-invariant, so it survives learning-rate differences between
    /// attacker and victims. Higher = closer.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::SignatureMismatch`] if the update does not
    /// match the attack models' architecture.
    pub fn score(&self, observed: &ModelParams) -> Result<Vec<f32>, AttackError> {
        let gradient = observed
            .delta(&self.base)
            .ok_or(AttackError::SignatureMismatch)?
            .flatten();
        Ok(self
            .centered
            .iter()
            .map(|reference| vecmath::cosine_similarity(&gradient, reference))
            .collect())
    }

    /// The **active-attack model**: a point (approximately) equidistant
    /// from all reference models, computed in the models' affine hull by
    /// iterative correction from their centroid. Sending this model makes
    /// each class's gradient pull maximally symmetric, amplifying the
    /// fingerprint (§5: "the aggregation server sends to participants the
    /// model calculated for being equidistant from the models associated to
    /// the sensitive attributes").
    ///
    /// For two classes this converges to the midpoint in one step.
    pub fn equidistant_model(&self) -> ModelParams {
        let refs = &self.references;
        if refs.len() == 1 {
            return refs[0].clone();
        }
        // Start at the centroid.
        let mut point = ModelParams::mean(refs).expect("references share a signature");
        // Iteratively equalize distances: move along (point − ref_a) to
        // lengthen/shorten each distance toward the mean distance.
        for _ in 0..64 {
            let distances: Vec<f32> = refs
                .iter()
                .map(|r| point.l2_distance(r).expect("signatures match"))
                .collect();
            let mean_d = distances.iter().sum::<f32>() / distances.len() as f32;
            let max_err = distances
                .iter()
                .map(|d| (d - mean_d).abs())
                .fold(0.0f32, f32::max);
            if mean_d == 0.0 || max_err / mean_d.max(1e-12) < 1e-4 {
                break;
            }
            let mut correction = point.scale(0.0);
            for (r, &d) in refs.iter().zip(&distances) {
                if d == 0.0 {
                    continue;
                }
                // Unit vector from the reference toward the point, scaled
                // by the distance error.
                let dir = point.delta(r).expect("signatures match");
                let step = (mean_d - d) / d / refs.len() as f32;
                correction = correction.add(&dir.scale(step)).expect("signatures match");
            }
            point = point.add(&correction).expect("signatures match");
        }
        point
    }
}

/// Accumulates per-target similarity scores across learning rounds.
///
/// §5: the fingerprint "can be amplified if the attack is conducted during
/// multiple rounds". The session sums each round's score vector per target
/// and predicts by argmax of the running total — the estimator behind the
/// per-round curves of Fig. 7.
#[derive(Debug, Clone, Default)]
pub struct AttackSession {
    scores: HashMap<usize, Vec<f32>>,
}

impl AttackSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        AttackSession::default()
    }

    /// Adds one round's score vector for a target.
    ///
    /// # Panics
    ///
    /// Panics if the score vector length changes between rounds for the
    /// same target (attack-driver bug).
    pub fn record(&mut self, target: usize, scores: &[f32]) {
        let entry = self
            .scores
            .entry(target)
            .or_insert_with(|| vec![0.0; scores.len()]);
        assert_eq!(entry.len(), scores.len(), "score arity changed mid-attack");
        for (acc, &s) in entry.iter_mut().zip(scores) {
            *acc += s;
        }
    }

    /// Inference accuracy against ground truth, over the targets observed
    /// so far. Returns `None` if nothing was observed.
    pub fn accuracy(&self, truth: &HashMap<usize, usize>) -> Option<f32> {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (target, scores) in &self.scores {
            if let Some(&true_attr) = truth.get(target) {
                total += 1;
                if vecmath::argmax(scores) == true_attr {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            None
        } else {
            Some(correct as f32 / total as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_nn::LayerParams;

    fn mp(vals: &[f32]) -> ModelParams {
        ModelParams::from_layers(vec![LayerParams::from_values(vals.to_vec())])
    }

    fn hand_built_gradsim() -> GradSim {
        // base at origin; reference directions along +x and +y.
        GradSim::new(mp(&[0.0, 0.0]), vec![mp(&[1.0, 0.0]), mp(&[0.0, 1.0])])
    }

    #[test]
    fn metric_scores() {
        // Cosine: a class's score ignores the update's scale.
        let gs = hand_built_gradsim();
        let unit = gs.score(&mp(&[1.0, 0.0])).unwrap();
        assert!(unit[0] > 0.7 && unit[1] < -0.7, "{unit:?}");
        assert_eq!(gs.score(&mp(&[2.0, 0.0])).unwrap(), unit);
    }

    #[test]
    fn infer_picks_closest_direction() {
        let gs = hand_built_gradsim();
        // An update pulled along +x must score highest for attribute 0.
        let infer = |v: &[f32]| vecmath::argmax(&gs.score(&mp(v)).unwrap());
        assert_eq!(infer(&[0.9, 0.1]), 0);
        assert_eq!(infer(&[0.1, 0.9]), 1);
    }

    #[test]
    fn score_rejects_wrong_signature() {
        let gs = hand_built_gradsim();
        let alien = ModelParams::from_layers(vec![LayerParams::from_values(vec![0.0; 3])]);
        assert!(matches!(
            gs.score(&alien),
            Err(AttackError::SignatureMismatch)
        ));
    }

    #[test]
    fn centered_directions_remove_the_mean_direction() {
        let gs = hand_built_gradsim();
        assert_eq!(gs.centered_direction(0).unwrap(), [0.5, -0.5]);
        assert_eq!(gs.centered_direction(1).unwrap(), [-0.5, 0.5]);
        assert!(gs.centered_direction(2).is_none());
    }

    #[test]
    fn equidistant_of_two_is_midpoint() {
        let gs = hand_built_gradsim();
        let e = gs.equidistant_model();
        let d0 = e.l2_distance(gs.reference(0).unwrap()).unwrap();
        let d1 = e.l2_distance(gs.reference(1).unwrap()).unwrap();
        assert!((d0 - d1).abs() < 1e-4, "d0={d0} d1={d1}");
        // Midpoint of (1,0) and (0,1) is (0.5, 0.5).
        let flat = e.flatten();
        assert!((flat[0] - 0.5).abs() < 1e-3);
        assert!((flat[1] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn equidistant_of_three_is_nearly_equidistant() {
        let gs = GradSim::new(
            mp(&[0.0, 0.0]),
            vec![mp(&[1.0, 0.0]), mp(&[0.0, 1.0]), mp(&[3.0, 3.0])],
        );
        let e = gs.equidistant_model();
        let ds: Vec<f32> = (0..3)
            .map(|i| e.l2_distance(gs.reference(i).unwrap()).unwrap())
            .collect();
        let mean = ds.iter().sum::<f32>() / 3.0;
        for d in &ds {
            assert!(
                (d - mean).abs() / mean < 0.02,
                "distances not equalized: {ds:?}"
            );
        }
    }

    #[test]
    fn session_accumulates_and_predicts() {
        let mut s = AttackSession::new();
        s.record(7, &[0.1, 0.5]);
        s.record(7, &[0.3, 0.0]);
        // Accumulated: [0.4, 0.5] → class 1.
        let mut truth = HashMap::new();
        truth.insert(7usize, 1usize);
        assert_eq!(s.accuracy(&truth), Some(1.0));
        truth.insert(7, 0);
        assert_eq!(s.accuracy(&truth), Some(0.0));
    }

    #[test]
    fn session_accuracy_none_when_empty() {
        let s = AttackSession::new();
        assert_eq!(s.accuracy(&HashMap::new()), None);
        assert_eq!(s.accuracy(&HashMap::from([(0, 0)])), None);
    }
}
