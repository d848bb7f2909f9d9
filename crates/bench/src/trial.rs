//! One trial of a paper figure — one dataset, one seed, one defense — and
//! the runner that maps a figure's trials to its rows.

use crate::{Defense, ExperimentSetup};
use mixnn_attacks::AttackError;
use mixnn_data::FederatedDataset;
use mixnn_fl::{map_chunked, FlConfig, UpdateTransport};
use mixnn_nn::Sequential;

/// What a trial runs on: population, template, FL configuration, transport.
pub type Prepared = (
    FederatedDataset,
    Sequential,
    FlConfig,
    Box<dyn UpdateTransport>,
);

/// A setup re-seeded once, and the defense it runs under.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The setup; its population, FL and attack seeds are the trial's.
    pub setup: ExperimentSetup,
    /// The system under test.
    pub defense: Defense,
}

impl Trial {
    /// `setup` under `defense`, its population, FL and attack seeds `seed`.
    pub fn new(setup: &ExperimentSetup, seed: u64, defense: Defense) -> Self {
        let mut setup = setup.clone();
        setup.spec.seed = seed;
        setup.fl.seed = seed;
        setup.attack.seed = seed;
        Trial { setup, defense }
    }

    /// `repeats` trials (at least one) per defense of [`Defense::lineup`],
    /// defense-major; repeat `r` runs at seed `setup.fl.seed + stride·r`.
    pub fn lineup(setup: &ExperimentSetup, repeats: usize, stride: u64) -> Vec<Trial> {
        let mut trials = Vec::new();
        for defense in Defense::lineup(setup.noise_sigma) {
            for r in 0..repeats.max(1) as u64 {
                let seed = setup.fl.seed.wrapping_add(stride * r);
                trials.push(Trial::new(setup, seed, defense));
            }
        }
        trials
    }

    /// Generates the population, builds the template and launches the
    /// defense's transport; the simulation trains on `client_workers`.
    ///
    /// # Errors
    ///
    /// Propagates data-generation failures.
    pub fn prepare(&self, client_workers: usize) -> Result<Prepared, AttackError> {
        let population = self.setup.spec.generate()?;
        let template = self.setup.template();
        let seed = self.setup.fl.seed;
        let transport = self.defense.make_transport(seed, &template.signature());
        let fl = FlConfig {
            client_workers,
            ..self.setup.fl
        };
        Ok((population, template, fl, transport))
    }
}

/// Maps `jobs` through `run` in order on `budget` threads
/// (`FlConfig::client_workers`, at least one): `w = min(budget, jobs)`
/// trial workers, each handing `run` `budget / w` client workers.
///
/// # Errors
///
/// The first failed job's error, in job order.
pub fn map_trials<J: Sync, R: Send>(
    budget: usize,
    jobs: &[J],
    run: impl Fn(&J, usize) -> Result<R, AttackError> + Sync,
) -> Result<Vec<R>, AttackError> {
    let budget = budget.max(1);
    let w = budget.min(jobs.len()).max(1);
    let results = map_chunked(jobs, &mut vec![(); w], |_, job| run(job, budget / w));
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn a_trial_sets_every_seed_together() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 3);
        let trial = Trial::new(&setup, 99, Defense::MixNn);
        assert_eq!(
            (
                trial.setup.spec.seed,
                trial.setup.fl.seed,
                trial.setup.attack.seed
            ),
            (99, 99, 99)
        );
        assert_eq!(trial.prepare(5).unwrap().2.client_workers, 5);
    }

    #[test]
    fn the_runner_keeps_order_and_splits_the_thread_budget() {
        let jobs: Vec<usize> = (0..7).collect();
        for budget in 0..6 {
            let out = map_trials(budget, &jobs, |&job, workers| Ok((job, workers))).unwrap();
            // `w` trial workers, each with `budget / w` client workers.
            let w = budget.clamp(1, jobs.len());
            let per_trial = (budget / w).max(1);
            assert!(w * per_trial <= budget.max(1), "budget {budget}");
            let expected: Vec<(usize, usize)> = jobs.iter().map(|&j| (j, per_trial)).collect();
            assert_eq!(out, expected, "budget {budget}");
        }
        assert_eq!(map_trials(2, &[0u8], |_, w| Ok(w)).unwrap(), [2]);
        let failing = map_trials(2, &jobs, |&job, _| match job {
            3 | 5 => Err(AttackError::InvalidConfig {
                reason: format!("job {job}"),
            }),
            _ => Ok(job),
        });
        assert_eq!(
            failing.unwrap_err(),
            AttackError::InvalidConfig {
                reason: "job 3".to_string()
            }
        );
    }
}
