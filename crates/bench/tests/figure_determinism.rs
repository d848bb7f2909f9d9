//! The paper figures are functions of seed and scale alone: their trials
//! run on a thread budget (`FlConfig::client_workers`) that decides only
//! how many run at once. These tests run Figs. 5–8 at quick scale on one
//! dataset with budgets 1, 2 and 3 (3 splits every figure's trials into
//! uneven chunks) and require the same points from each.

use mixnn_attacks::AttackMode;
use mixnn_bench::experiments::{background, inference, utility, utility_cdf};
use mixnn_bench::{DatasetKind, ExperimentScale, ExperimentSetup};

const BUDGETS: [usize; 3] = [1, 2, 3];

/// `figure` at every budget, asserting each returns what budget 1 does.
fn same_at_every_budget<T: PartialEq + std::fmt::Debug>(
    name: &str,
    figure: impl Fn(&ExperimentSetup) -> T,
) {
    let at = |budget: usize| {
        let mut setup =
            ExperimentSetup::at_scale(DatasetKind::MotionSense, ExperimentScale::Quick, 42);
        setup.fl.client_workers = budget;
        figure(&setup)
    };
    let reference = at(BUDGETS[0]);
    for &budget in &BUDGETS[1..] {
        assert_eq!(at(budget), reference, "{name} at a budget of {budget}");
    }
}

#[test]
fn fig5_with_two_repeats_is_the_same_at_every_thread_budget() {
    same_at_every_budget("fig5", |setup| utility::run(setup, 2).unwrap());
}

#[test]
fn fig6_is_the_same_at_every_thread_budget() {
    same_at_every_budget("fig6", |setup| {
        utility_cdf::run(setup, utility_cdf::ROUND).unwrap()
    });
}

#[test]
fn fig7_active_with_two_repeats_is_the_same_at_every_thread_budget() {
    same_at_every_budget("fig7", |setup| {
        inference::run(setup, AttackMode::Active, 0.8, 2).unwrap()
    });
}

#[test]
fn fig8_is_the_same_at_every_thread_budget() {
    same_at_every_budget("fig8", |setup| {
        background::run(setup, &background::DEFAULT_FRACTIONS, AttackMode::Active).unwrap()
    });
}
