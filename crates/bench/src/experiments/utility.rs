//! **Figure 5** — model accuracy per learning round, for classic FL,
//! MixNN and the noisy-gradient baseline.
//!
//! Expected shape (paper §6.2): classic FL and MixNN trace **the same
//! curve** (aggregation equivalence), while noisy gradient sits ~10 points
//! lower and converges more slowly.

use crate::trial::{map_trials, Trial};
use crate::ExperimentSetup;
use mixnn_attacks::AttackError;
use mixnn_fl::FlSimulation;
use mixnn_nn::Evaluation;

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

/// Fig. 5's trials: repeat `r` runs at seed `setup.fl.seed + 1000·r`.
pub fn trials(setup: &ExperimentSetup, repeats: usize) -> Vec<Trial> {
    Trial::lineup(setup, repeats, 1000)
}

/// Runs the Fig. 5 experiment for one dataset: every defense, `repeats`
/// seeds, accuracy measured after every round.
///
/// # Errors
///
/// Propagates data-generation and FL failures.
pub fn run(setup: &ExperimentSetup, repeats: usize) -> Result<Vec<UtilityPoint>, AttackError> {
    let (repeats, rounds) = (repeats.max(1), setup.fl.rounds);
    let trials = trials(setup, repeats);
    let curves = map_trials(setup.fl.client_workers, &trials, |trial, workers| {
        let (population, template, fl, mut transport) = trial.prepare(workers)?;
        let mut sim = FlSimulation::new(template, fl, &population);
        (0..rounds)
            .map(|_| {
                sim.run_round(transport.as_mut())?;
                Ok(sim.evaluate_global(population.global_test())?)
            })
            .collect::<Result<Vec<_>, AttackError>>()
    })?;
    let (n, mut points) = (repeats as f32, Vec::new());
    for (reps, trial) in curves.chunks(repeats).zip(trials.iter().step_by(repeats)) {
        for round in 0..rounds {
            let sum = |f: fn(&Evaluation) -> f32| reps.iter().fold(0.0, |s, c| s + f(&c[round]));
            points.push(UtilityPoint {
                dataset: setup.kind.name().to_string(),
                defense: trial.defense.label().to_string(),
                round: round + 1,
                accuracy: sum(|e| e.accuracy) / n,
                loss: sum(|e| e.loss) / n,
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
    use crate::{DatasetKind, Defense, ExperimentScale};

    #[test]
    fn fig5_trials_are_defense_major_at_seed_plus_1000_per_repeat() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 42);
        let got: Vec<(Defense, u64)> = trials(&setup, 3)
            .iter()
            .map(|t| (t.defense, t.setup.fl.seed))
            .collect();
        let want: Vec<(Defense, u64)> = Defense::lineup(setup.noise_sigma)
            .into_iter()
            .flat_map(|d| (0..3).map(move |r| (d, 42 + 1000 * r)))
            .collect();
        assert_eq!(got, want);
        assert_eq!(trials(&setup, 0).len(), 3, "repeats 0 runs once");
    }

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
