//! Deterministic, aggregate-only metrics for MixNN.
//!
//! The paper's §6 evaluation lives on per-hop latency, decrypt cost, EPC
//! pressure and bytes-per-round — numbers a deployment needs as first-class
//! telemetry. But telemetry over a mix network is itself an inference side
//! channel: per-client timing or size series are exactly the metadata a
//! colluding observer correlates. This crate therefore fixes the exported
//! universe *statically*:
//!
//! - every series is an enum variant ([`Counter`], [`Gauge`],
//!   [`Distribution`], [`Span`]) carrying its `(component, name)` key —
//!   there is no API for minting a series at runtime, so cardinality is
//!   bounded by construction and no per-client or per-route-group label
//!   axis can exist;
//! - counters increment only on the single in-order round path, so two
//!   runs of one seed produce bit-identical snapshots;
//! - timestamps flow through a [`ClockSource`] — wall clock for live runs,
//!   a [`VirtualClock`] mirrored from the simulated network for `eval
//!   load`, making span histograms byte-identical across reruns.
//!
//! [`Snapshot`] renders to Prometheus text and JSON; [`validate_prometheus`]
//! is the exported-format checker CI runs (duplicate series, non-monotone
//! counters, unbounded or per-entity label axes all fail the build).
//!
//! # Example
//!
//! ```
//! use mixnn_telemetry::{Counter, Registry, validate_prometheus};
//!
//! let telemetry = Registry::new().shared();
//! telemetry.incr(Counter::CoreUpdatesCommitted, 3);
//! let text = telemetry.snapshot().to_prometheus();
//! assert!(text.contains("mixnn_core_updates_committed_total 3"));
//! validate_prometheus(&text).unwrap();
//! ```

#![deny(missing_docs)]

mod clock;
mod export;
mod metrics;
mod registry;

pub use clock::{ClockSource, VirtualClock, WallClock};
pub use export::{
    check_counter_monotonicity, validate_prometheus, CounterSample, GaugeSample, HistogramSample,
    PromSummary, Snapshot, FORBIDDEN_LABEL_AXES, MAX_LABEL_SETS_PER_FAMILY,
};
pub use metrics::{
    Component, Counter, Distribution, Gauge, Histogram, Span, COUNT_BOUNDS, LATENCY_NS_BOUNDS,
};
pub use registry::{noop, Registry, SpanGuard, Telemetry};
