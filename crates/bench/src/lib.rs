//! Experiment harness regenerating the evaluation artifacts of the MixNN
//! paper — Figures 5–9 and the §6.5 memory table — plus the deterministic
//! beyond-the-paper sweeps. Nothing here reads a wall clock: time is the
//! repo benchmark's (`benchmark/`) to measure.
//!
//! Each experiment module produces printable row/series structures so the
//! `eval` binary can emit the same curves the paper plots. Figures 5–9 are
//! [`Trial`]s; 5–8 map their lists to rows through [`trial::map_trials`]:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::utility`] | Fig. 5 — model accuracy vs learning round |
//! | [`experiments::utility_cdf`] | Fig. 6 — CDF of per-participant accuracy |
//! | [`experiments::inference`] | Fig. 7 — ∇Sim inference accuracy vs round |
//! | [`experiments::background`] | Fig. 8 — inference vs background knowledge |
//! | [`experiments::robustness`] | Fig. 9 — CDF of close-gradient neighbours |
//! | [`experiments::sysperf`] | §6.5 — proxy memory table |
//! | [`experiments::topology`] | beyond the paper — cascade layouts (the linear chain included) × hop counts 1..4 × colluding subsets (`BENCH_topology.json`) |
//! | [`experiments::load`] | beyond the paper — simulated-network load, virtual time (`BENCH_load.json`) |
//! | [`experiments::pooled`] | beyond the paper — pooled mixing, k × deadline (`BENCH_pooled.json`) |
//! | [`experiments::compress`] | beyond the paper — wire codec bytes and aggregate error (`BENCH_compress.json`) |
//!
//! Experiments come in two scales: `paper` (the §6.1.4 round/epoch/batch
//! parameters) and `quick` (shrunk for smoke tests). Absolute numbers
//! differ from the paper — the substrate is a synthetic simulator, not the
//! authors' TensorFlow testbed — but the *shape* (who wins, by what
//! factor, where curves flatten) is the reproduction target; see
//! `docs/ARCHITECTURE.md`, "Experiments".

#![deny(missing_docs)]

pub mod configs;
pub mod defense;
pub mod experiments;
pub mod report;
pub mod trial;

pub use configs::{DatasetKind, ExperimentScale, ExperimentSetup};
pub use defense::{Defense, Layout};
pub use trial::Trial;
