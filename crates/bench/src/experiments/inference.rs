//! **Figure 7** — ∇Sim (active) inference accuracy per learning round,
//! for classic FL, noisy gradient and MixNN.
//!
//! Expected shape (§6.3): classic FL approaches perfect inference within a
//! few rounds; noisy gradient leaks less but still far above chance; MixNN
//! stays at the random-guess level (1/3 for CIFAR10's three preference
//! groups, 1/2 for the gender datasets).

use crate::trial::{map_trials, Trial};
use crate::ExperimentSetup;
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

/// Fig. 7's trials: repeat `r` runs at seed `setup.fl.seed + 777·r`.
pub fn trials(setup: &ExperimentSetup, repeats: usize) -> Vec<Trial> {
    Trial::lineup(setup, repeats, 777)
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
    let repeats = repeats.max(1);
    let trials = trials(setup, repeats);
    let curves = map_trials(setup.fl.client_workers, &trials, |trial, workers| {
        let (population, template, fl, mut transport) = trial.prepare(workers)?;
        let attack = trial.setup.attack.clone();
        let experiment =
            InferenceExperiment::new(&population, template, fl, attack, mode, background_fraction);
        Ok(experiment.run(transport.as_mut())?.per_round_accuracy)
    })?;
    let (n, mut points) = (repeats as f32, Vec::new());
    for (reps, trial) in curves.chunks(repeats).zip(trials.iter().step_by(repeats)) {
        for round in 0..setup.fl.rounds {
            points.push(InferencePoint {
                dataset: setup.kind.name().to_string(),
                defense: trial.defense.label().to_string(),
                round: round + 1,
                accuracy: reps.iter().fold(0.0, |s, c| s + c[round]) / n,
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
    use crate::{DatasetKind, Defense, ExperimentScale};

    #[test]
    fn fig7_trials_are_defense_major_at_seed_plus_777_per_repeat() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 42);
        let got: Vec<(Defense, u64)> = trials(&setup, 3)
            .iter()
            .map(|t| (t.defense, t.setup.fl.seed))
            .collect();
        let want: Vec<(Defense, u64)> = Defense::lineup(setup.noise_sigma)
            .into_iter()
            .flat_map(|d| (0..3).map(move |r| (d, 42 + 777 * r)))
            .collect();
        assert_eq!(got, want);
        assert_eq!(trials(&setup, 0).len(), 3, "repeats 0 runs once");
    }

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
