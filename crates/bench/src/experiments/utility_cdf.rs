//! **Figure 6** — cumulative distribution over participants of the global
//! model's accuracy on each participant's own held-out data, at a fixed
//! round (the paper uses round 6).
//!
//! Expected shape (§6.2): the noisy-gradient CDF sits to the left of
//! MixNN's for every dataset (most participants lose accuracy to the
//! noise; the paper reports population means of 0.56 vs 0.68).

use crate::{Defense, ExperimentSetup};
use mixnn_attacks::AttackError;
use mixnn_fl::FlSimulation;

/// One CDF point: fraction of participants with accuracy ≤ `accuracy`.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfPoint {
    /// Dataset name.
    pub dataset: String,
    /// Defense label.
    pub defense: String,
    /// Per-participant accuracy value.
    pub accuracy: f32,
    /// Fraction of participants at or below this accuracy.
    pub fraction: f32,
}

/// Per-defense population mean accuracy (the summary §6.2 quotes).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMean {
    /// Defense label.
    pub defense: String,
    /// Mean per-participant accuracy.
    pub mean_accuracy: f32,
}

/// Runs the Fig. 6 experiment: train `at_round` rounds under each defense,
/// then evaluate the global model on every participant's local test set.
///
/// # Errors
///
/// Propagates data-generation and FL failures.
pub fn run(
    setup: &ExperimentSetup,
    at_round: usize,
) -> Result<(Vec<CdfPoint>, Vec<PopulationMean>), AttackError> {
    let rounds = at_round.clamp(1, setup.fl.rounds);
    let mut points = Vec::new();
    let mut means = Vec::new();

    for defense in Defense::lineup(setup.noise_sigma) {
        let population = setup.spec.generate()?;
        let template = setup.template();
        let mut transport = defense.make_transport(setup.fl.seed, &template.signature());
        let mut sim = FlSimulation::new(template, setup.fl, &population);
        for _ in 0..rounds {
            sim.run_round(transport.as_mut())?;
        }
        let mut accuracies: Vec<f32> = sim
            .evaluate_per_participant(&population)?
            .into_iter()
            .map(|(_, e)| e.accuracy)
            .collect();
        means.push(PopulationMean {
            defense: defense.label().to_string(),
            mean_accuracy: crate::report::mean(&accuracies),
        });
        accuracies.sort_by(f32::total_cmp);
        let n = accuracies.len() as f32;
        for (i, acc) in accuracies.iter().enumerate() {
            points.push(CdfPoint {
                dataset: setup.kind.name().to_string(),
                defense: defense.label().to_string(),
                accuracy: *acc,
                fraction: (i + 1) as f32 / n,
            });
        }
    }
    Ok((points, means))
}

/// Formats CDF points as table rows.
pub fn rows(points: &[CdfPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.defense.clone(),
                crate::report::fmt3(p.accuracy),
                crate::report::fmt3(p.fraction),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn cdf_is_monotone_per_defense() {
        let setup = ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 5);
        let (points, means) = run(&setup, 2).unwrap();
        assert_eq!(means.len(), 3);
        for defense in ["classic-fl", "noisy-gradient", "mixnn"] {
            let series: Vec<&CdfPoint> = points.iter().filter(|p| p.defense == defense).collect();
            assert_eq!(series.len(), setup.spec.num_participants());
            assert!(series
                .windows(2)
                .all(|w| { w[0].accuracy <= w[1].accuracy && w[0].fraction <= w[1].fraction }));
            assert!((series.last().unwrap().fraction - 1.0).abs() < 1e-6);
        }
    }
}
