//! EPC (Enclave Page Cache) memory accounting.
//!
//! §2.5 of the paper: *"only 96 MB out of the 128 reserved for the enclave
//! can be used by applications. Although virtual and dynamic memory support
//! is available, it incurs significant overheads in paging."* §6.5 then
//! reports per-update memory consumption (26.9 MB for the 2-conv model,
//! 51.3 MB for the 3-conv one) against that limit.
//!
//! [`EpcBudget`] reproduces the arithmetic: allocations up to the usable
//! limit succeed in "fast" EPC; beyond it they fail. A budget is strict —
//! nothing this workspace runs pages, so [`MemoryStats`]' two paging fields
//! read 0.
//!
//! The accounting is **thread-safe**: [`EpcBudget::allocate`] and
//! [`EpcBudget::free`] take `&self` and update lock-free atomics, and an
//! allocation either fits under the limit at the instant it commits, or
//! fails without changing any counter.

use crate::EnclaveError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Usable EPC bytes in the paper's SGX generation (96 MiB of the 128
/// reserved).
pub const DEFAULT_USABLE_EPC: usize = 96 * 1024 * 1024;

/// Snapshot of enclave memory usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes currently allocated inside the EPC.
    pub allocated: usize,
    /// The usable EPC limit.
    pub limit: usize,
    /// Highest allocation watermark observed.
    pub high_water: usize,
    /// Allocations that spilled past the limit: always 0, a budget is
    /// strict. Kept because the golden digests and the repo benchmark read
    /// it.
    pub paging_events: u64,
    /// Bytes paged out to untrusted memory: always 0, as above.
    pub paged_out: usize,
}

/// Allocation accounting for a (simulated) enclave.
///
/// All counters are atomics, so a shared `&EpcBudget` can be charged from
/// many threads at once; the budget still never over-commits because
/// the headroom check and the counter update commit in one compare-exchange.
///
/// # Example
///
/// ```
/// use mixnn_enclave::EpcBudget;
///
/// # fn main() -> Result<(), mixnn_enclave::EnclaveError> {
/// let epc = EpcBudget::strict(1024);
/// epc.allocate(512)?;
/// assert!(epc.allocate(1024).is_err()); // would exceed the EPC
/// epc.free(512)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EpcBudget {
    limit: usize,
    allocated: AtomicUsize,
    high_water: AtomicUsize,
}

impl Clone for EpcBudget {
    fn clone(&self) -> Self {
        EpcBudget {
            limit: self.limit,
            allocated: AtomicUsize::new(self.allocated.load(Ordering::Acquire)),
            high_water: AtomicUsize::new(self.high_water.load(Ordering::Acquire)),
        }
    }
}

impl EpcBudget {
    /// Budget that **fails** allocations beyond `limit` bytes (models an
    /// enclave built without dynamic paging support).
    pub fn strict(limit: usize) -> Self {
        EpcBudget {
            limit,
            allocated: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Records an allocation of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::MemoryExhausted`] when the allocation would
    /// exceed the limit. A failed allocation never changes the accounting,
    /// even under concurrency.
    pub fn allocate(&self, bytes: usize) -> Result<(), EnclaveError> {
        let mut current = self.allocated.load(Ordering::Acquire);
        loop {
            let new_total = current.saturating_add(bytes);
            if new_total > self.limit {
                return Err(EnclaveError::MemoryExhausted {
                    requested: bytes,
                    available: self.limit.saturating_sub(current),
                });
            }
            match self.allocated.compare_exchange_weak(
                current,
                new_total,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(new_total, Ordering::AcqRel);
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Records a free of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::FreeUnderflow`] when freeing more than is
    /// allocated — an accounting bug in the caller that must not be
    /// silently absorbed.
    pub fn free(&self, bytes: usize) -> Result<(), EnclaveError> {
        let mut current = self.allocated.load(Ordering::Acquire);
        loop {
            if bytes > current {
                return Err(EnclaveError::FreeUnderflow {
                    requested: bytes,
                    allocated: current,
                });
            }
            let new_total = current - bytes;
            match self.allocated.compare_exchange_weak(
                current,
                new_total,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(observed) => current = observed,
            }
        }
    }

    /// Current usage snapshot.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            allocated: self.allocated.load(Ordering::Acquire),
            limit: self.limit,
            high_water: self.high_water.load(Ordering::Acquire),
            paging_events: 0,
            paged_out: 0,
        }
    }

    /// Bytes still available before the limit.
    pub fn available(&self) -> usize {
        self.limit
            .saturating_sub(self.allocated.load(Ordering::Acquire))
    }

    /// Whether an allocation of `bytes` would fit.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_mode_rejects_overcommit() {
        let epc = EpcBudget::strict(100);
        epc.allocate(60).unwrap();
        let err = epc.allocate(50).unwrap_err();
        assert_eq!(
            err,
            EnclaveError::MemoryExhausted {
                requested: 50,
                available: 40
            }
        );
        // Failed allocation must not change the accounting.
        assert_eq!(epc.stats().allocated, 60);
    }

    #[test]
    fn high_water_tracks_peak() {
        let epc = EpcBudget::strict(100);
        epc.allocate(70).unwrap();
        epc.free(50).unwrap();
        epc.allocate(10).unwrap();
        assert_eq!(epc.stats().high_water, 70);
    }

    #[test]
    fn free_underflow_is_detected() {
        let epc = EpcBudget::strict(100);
        epc.allocate(10).unwrap();
        assert!(matches!(
            epc.free(20),
            Err(EnclaveError::FreeUnderflow { .. })
        ));
    }

    #[test]
    fn paper_default_is_96_mib() {
        let epc = EpcBudget::strict(DEFAULT_USABLE_EPC);
        assert_eq!(epc.stats().limit, 96 * 1024 * 1024);
    }

    #[test]
    fn fits_and_available() {
        let epc = EpcBudget::strict(100);
        assert!(epc.fits(100));
        epc.allocate(99).unwrap();
        assert_eq!(epc.available(), 1);
        assert!(epc.fits(1));
        assert!(!epc.fits(2));
    }

    #[test]
    fn clone_snapshots_counters() {
        let epc = EpcBudget::strict(200);
        epc.allocate(120).unwrap();
        let snap = epc.clone();
        epc.free(120).unwrap();
        assert_eq!(snap.stats().allocated, 120);
        assert_eq!(snap.stats().high_water, 120);
        assert_eq!(epc.stats().allocated, 0);
    }

    #[test]
    fn concurrent_allocate_free_balances_to_zero() {
        let epc = EpcBudget::strict(1_000_000);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        epc.allocate(7).unwrap();
                        epc.free(7).unwrap();
                    }
                });
            }
        });
        assert_eq!(epc.stats().allocated, 0);
        assert!(epc.stats().high_water >= 7);
        assert!(epc.stats().high_water <= 8 * 7);
    }

    #[test]
    fn concurrent_strict_budget_never_overcommits() {
        // 8 threads race for 10 slots of 10 bytes inside a 100-byte budget:
        // exactly 10 allocations may succeed, regardless of interleaving.
        let epc = EpcBudget::strict(100);
        let successes: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..4).filter(|_| epc.allocate(10).is_ok()).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 10);
        assert_eq!(epc.stats().allocated, 100);
        assert_eq!(epc.stats().high_water, 100);
    }
}
