//! **Figure 9** — CDF over participants of the number of neighbours whose
//! gradient lies within a small Euclidean radius.
//!
//! Expected shape (§6.4): every participant has at least a few close alter
//! egos, so a malicious server enumerating combinations of mixed layers
//! cannot tell which pieces belong together.

use crate::trial::Trial;
use crate::{Defense, ExperimentSetup};
use mixnn_attacks::robustness::{cdf_of_counts, neighbor_counts};
use mixnn_attacks::{AttackError, ServerLog};
use mixnn_fl::FlSimulation;

/// The neighbour radius of Fig. 9, on unit-normalized gradients. Two unit
/// vectors lie within 1.25 of each other exactly when their cosine is at
/// least 1 − 1.25²/2 ≈ 0.22.
pub const RADIUS: f32 = 1.25;

/// One CDF point of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborPoint {
    /// Dataset name.
    pub dataset: String,
    /// Number of close neighbours.
    pub neighbors: usize,
    /// Fraction of participants with at most this many neighbours.
    pub fraction: f64,
}

/// Runs the Fig. 9 analysis: record `warmup_rounds` rounds of classic FL
/// and one more, then count, for each participant of the last round, how
/// many others' raw updates are within `radius` (on unit-normalized
/// gradients; the normalization keeps the radius meaningful as gradients
/// shrink, see `mixnn_attacks::robustness`).
///
/// # Errors
///
/// Propagates data-generation and FL failures.
pub fn run(
    setup: &ExperimentSetup,
    warmup_rounds: usize,
    radius: f32,
) -> Result<(Vec<NeighborPoint>, Vec<usize>), AttackError> {
    let mut trial = Trial::new(setup, setup.fl.seed, Defense::ClassicFl);
    // All participants report this round so the neighbourhood statistics
    // cover the population, as in the paper's figure.
    trial.setup.fl.clients_per_round = setup.spec.num_participants();
    // One trial: it takes the whole thread budget for its clients.
    let (population, template, fl, mut transport) = trial.prepare(setup.fl.client_workers)?;
    let mut sim = FlSimulation::new(template, fl, &population);
    let log = ServerLog::record(&mut sim, transport.as_mut(), warmup_rounds + 1, |global| {
        Ok(global.clone())
    })?;
    let (global, observed) = log.broadcasts().next_back().expect("at least one round");
    let gradients: Vec<Vec<f32>> = observed
        .iter()
        .map(|u| u.gradient_from(global).expect("same architecture"))
        .collect();
    let counts = neighbor_counts(&gradients, radius);
    let points = cdf_of_counts(&counts)
        .into_iter()
        .map(|(neighbors, fraction)| NeighborPoint {
            dataset: setup.kind.name().to_string(),
            neighbors,
            fraction,
        })
        .collect();
    Ok((points, counts))
}

/// Formats Fig. 9 points as table rows.
pub fn rows(points: &[NeighborPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.neighbors.to_string(),
                format!("{:.3}", p.fraction),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn produces_valid_cdf() {
        let setup = ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 2);
        let (points, counts) = run(&setup, 1, 0.5).unwrap();
        assert_eq!(counts.len(), setup.spec.num_participants());
        assert!(!points.is_empty());
        assert!((points.last().unwrap().fraction - 1.0).abs() < 1e-9);
        assert!(points
            .windows(2)
            .all(|w| w[0].neighbors < w[1].neighbors && w[0].fraction <= w[1].fraction));
    }
}
