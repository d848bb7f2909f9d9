//! **Figure 5** — model accuracy per learning round, for classic FL,
//! MixNN and the noisy-gradient baseline.
//!
//! Expected shape (paper §6.2): classic FL and MixNN trace **the same
//! curve** (aggregation equivalence), while noisy gradient sits ~10 points
//! lower and converges more slowly.

use crate::{Defense, ExperimentSetup};
use mixnn_attacks::AttackError;
use mixnn_fl::FlSimulation;

/// One (defense, round) point of the Fig. 5 curves, averaged over repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityPoint {
    /// Dataset name.
    pub dataset: String,
    /// Defense label.
    pub defense: String,
    /// Learning round (1-based, matching the paper's x-axis).
    pub round: usize,
    /// Mean global-model accuracy on the balanced test set.
    pub accuracy: f32,
    /// Mean test loss.
    pub loss: f32,
}

/// Runs the Fig. 5 experiment for one dataset: every defense, `repeats`
/// seeds, accuracy measured after every round.
///
/// # Errors
///
/// Propagates data-generation and FL failures.
pub fn run(setup: &ExperimentSetup, repeats: usize) -> Result<Vec<UtilityPoint>, AttackError> {
    let defenses = Defense::lineup(setup.noise_sigma);
    let rounds = setup.fl.rounds;
    let mut points = Vec::new();

    for defense in defenses {
        // accumulate per-round sums over repeats
        let mut acc_sum = vec![0.0f32; rounds];
        let mut loss_sum = vec![0.0f32; rounds];
        for rep in 0..repeats.max(1) {
            let seed = setup.fl.seed.wrapping_add(1000 * rep as u64);
            let mut spec = setup.spec.clone();
            spec.seed = seed;
            let population = spec.generate()?;
            let mut fl_cfg = setup.fl;
            fl_cfg.seed = seed;
            let mut setup_seeded = setup.clone();
            setup_seeded.fl = fl_cfg;
            let template = setup_seeded.template();
            let mut transport = defense.make_transport(seed, &template.signature());
            let mut sim = FlSimulation::new(template, fl_cfg, &population);
            for round in 0..rounds {
                sim.run_round(transport.as_mut())?;
                let eval = sim.evaluate_global(population.global_test())?;
                acc_sum[round] += eval.accuracy;
                loss_sum[round] += eval.loss;
            }
        }
        let n = repeats.max(1) as f32;
        for round in 0..rounds {
            points.push(UtilityPoint {
                dataset: setup.kind.name().to_string(),
                defense: defense.label().to_string(),
                round: round + 1,
                accuracy: acc_sum[round] / n,
                loss: loss_sum[round] / n,
            });
        }
    }
    Ok(points)
}

/// Formats Fig. 5 points as table rows.
pub fn rows(points: &[UtilityPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.defense.clone(),
                p.round.to_string(),
                crate::report::fmt3(p.accuracy),
                crate::report::fmt3(p.loss),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn quick_run_produces_full_grid() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Lfw, ExperimentScale::Quick, 3);
        let points = run(&setup, 1).unwrap();
        // 3 defenses × rounds points.
        assert_eq!(points.len(), 3 * setup.fl.rounds);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy), "{p:?}");
            assert!(p.loss.is_finite());
        }
        // Classic FL and MixNN must produce identical curves (equivalence).
        let classic: Vec<f32> = points
            .iter()
            .filter(|p| p.defense == "classic-fl")
            .map(|p| p.accuracy)
            .collect();
        let mixnn: Vec<f32> = points
            .iter()
            .filter(|p| p.defense == "mixnn")
            .map(|p| p.accuracy)
            .collect();
        assert_eq!(classic, mixnn, "MixNN must not change utility");
    }
}
