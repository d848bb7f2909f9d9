//! **Figure 8** — ∇Sim inference accuracy as a function of the adversary's
//! background knowledge (fraction of users whose data it controls).
//!
//! Expected shape (§6.3): more background knowledge → better attack models
//! → higher inference accuracy for classic FL and (less so) noisy
//! gradient; MixNN stays flat at chance regardless of knowledge.

use crate::{Defense, ExperimentSetup};
use mixnn_attacks::{AttackError, AttackMode, InferenceExperiment};

/// One (defense, background-ratio) point of the Fig. 8 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundPoint {
    /// Dataset name.
    pub dataset: String,
    /// Defense label.
    pub defense: String,
    /// Fraction of users available to the adversary as auxiliary data.
    pub background_fraction: f64,
    /// Final inference accuracy (after all rounds).
    pub accuracy: f32,
    /// The random-guess level.
    pub chance: f32,
}

/// The ratios swept in Fig. 8.
pub const DEFAULT_FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Runs the Fig. 8 sweep.
///
/// # Errors
///
/// Propagates attack and FL failures.
pub fn run(
    setup: &ExperimentSetup,
    fractions: &[f64],
    mode: AttackMode,
) -> Result<Vec<BackgroundPoint>, AttackError> {
    let mut points = Vec::new();
    for defense in Defense::lineup(setup.noise_sigma) {
        for &fraction in fractions {
            let population = setup.spec.generate()?;
            let template = setup.template();
            let mut transport = defense.make_transport(setup.fl.seed, &template.signature());
            let experiment = InferenceExperiment::new(
                &population,
                template,
                setup.fl,
                setup.attack.clone(),
                mode,
                fraction,
            );
            let result = experiment.run(transport.as_mut())?;
            points.push(BackgroundPoint {
                dataset: setup.kind.name().to_string(),
                defense: defense.label().to_string(),
                background_fraction: fraction,
                accuracy: result.final_accuracy,
                chance: setup.chance_level(),
            });
        }
    }
    Ok(points)
}

/// Formats Fig. 8 points as table rows.
pub fn rows(points: &[BackgroundPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.defense.clone(),
                format!("{:.1}", p.background_fraction),
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
    fn sweep_covers_all_fractions_and_defenses() {
        let setup = ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 4);
        let fractions = [0.5, 1.0];
        let points = run(&setup, &fractions, AttackMode::Active).unwrap();
        assert_eq!(points.len(), 3 * fractions.len());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
    }
}
