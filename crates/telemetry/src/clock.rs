//! Clock sources for timestamps and span durations.
//!
//! A [`crate::Registry`] reads time through a [`ClockSource`], so the same
//! instrumentation can run against the wall clock (live deployments,
//! throughput benchmarks) or against [`SimNet`]'s virtual nanosecond clock
//! (the load generator) — under the virtual clock, span durations are
//! pure functions of the simulation and therefore byte-identical across
//! reruns.
//!
//! [`SimNet`]: https://docs.rs/

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone nanosecond clock.
pub trait ClockSource: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// The process wall clock, measured from construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSource for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A manually driven clock, shareable by handle.
///
/// The simulated network advances its registry's `VirtualClock` in lockstep
/// with its own event clock; tests can also drive one directly. A clone
/// observes the same underlying time.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current virtual time.
    pub fn set_ns(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }

    /// Advances the clock by `ns` and returns the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.ns.fetch_add(ns, Ordering::Relaxed) + ns
    }
}

impl ClockSource for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let c = VirtualClock::new();
        let view = c.clone();
        assert_eq!(view.now_ns(), 0);
        c.set_ns(42);
        assert_eq!(view.now_ns(), 42);
        assert_eq!(view.advance_ns(8), 50);
        assert_eq!(c.now_ns(), 50);
    }
}
