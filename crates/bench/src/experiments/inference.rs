//! **Figure 7** — ∇Sim (active) inference accuracy per learning round,
//! for classic FL, noisy gradient and MixNN.
//!
//! Expected shape (§6.3): classic FL approaches perfect inference within a
//! few rounds; noisy gradient leaks less but still far above chance; MixNN
//! stays at the random-guess level (1/3 for CIFAR10's three preference
//! groups, 1/2 for the gender datasets).

use crate::{Defense, ExperimentSetup};
use mixnn_attacks::{AttackError, AttackMode, InferenceExperiment};

/// One (defense, round) point of the Fig. 7 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct InferencePoint {
    /// Dataset name.
    pub dataset: String,
    /// Defense label.
    pub defense: String,
    /// Learning round (1-based).
    pub round: usize,
    /// Inference accuracy with scores accumulated up to this round.
    pub accuracy: f32,
    /// The random-guess level for this dataset.
    pub chance: f32,
}

/// Runs the Fig. 7 experiment: the ∇Sim attack (active by default, as in
/// the paper's figure) against each defense, averaged over `repeats`
/// seeds.
///
/// # Errors
///
/// Propagates attack and FL failures.
pub fn run(
    setup: &ExperimentSetup,
    mode: AttackMode,
    background_fraction: f64,
    repeats: usize,
) -> Result<Vec<InferencePoint>, AttackError> {
    let rounds = setup.fl.rounds;
    let mut points = Vec::new();
    for defense in Defense::lineup(setup.noise_sigma) {
        let mut acc_sum = vec![0.0f32; rounds];
        for rep in 0..repeats.max(1) {
            let seed = setup.fl.seed.wrapping_add(777 * rep as u64);
            let mut spec = setup.spec.clone();
            spec.seed = seed;
            let population = spec.generate()?;
            let mut fl_cfg = setup.fl;
            fl_cfg.seed = seed;
            let mut attack_cfg = setup.attack.clone();
            attack_cfg.seed = seed;
            let mut setup_seeded = setup.clone();
            setup_seeded.fl = fl_cfg;
            let template = setup_seeded.template();
            let mut transport = defense.make_transport(seed, &template.signature());
            let experiment = InferenceExperiment::new(
                &population,
                template,
                fl_cfg,
                attack_cfg,
                mode,
                background_fraction,
            );
            let result = experiment.run(transport.as_mut())?;
            for (round, acc) in result.per_round_accuracy.iter().enumerate() {
                acc_sum[round] += acc;
            }
        }
        let n = repeats.max(1) as f32;
        for (round, sum) in acc_sum.iter().enumerate() {
            points.push(InferencePoint {
                dataset: setup.kind.name().to_string(),
                defense: defense.label().to_string(),
                round: round + 1,
                accuracy: sum / n,
                chance: setup.chance_level(),
            });
        }
    }
    Ok(points)
}

/// Formats Fig. 7 points as table rows.
pub fn rows(points: &[InferencePoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.defense.clone(),
                p.round.to_string(),
                crate::report::fmt3(p.accuracy),
                crate::report::fmt3(p.chance),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn quick_inference_produces_grid() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Lfw, ExperimentScale::Quick, 9);
        let points = run(&setup, AttackMode::Active, 0.8, 1).unwrap();
        assert_eq!(points.len(), 3 * setup.fl.rounds);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert_eq!(p.chance, 0.5);
        }
    }
}
