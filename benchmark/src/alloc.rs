//! A counting `#[global_allocator]`: every request for memory made while a
//! timed round runs is counted, on whichever thread it happens (client
//! training fans out over worker threads). Counts are exact, so a change
//! that adds a copy or a re-framing shows up even when its time is lost in
//! the noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator installed by `main.rs`: the system allocator plus counters.
pub struct Counting;

// Relaxed: the counters publish no other data, they are statistics read
// after the measured threads were joined.
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised `Cell`s need no lazy set-up and no destructor, so
    // touching them from inside the allocator cannot recurse into it.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; the process-wide counters above still see it.
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes requested and allocation calls made so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    pub bytes: u64,
    pub calls: u64,
}

impl AllocCount {
    /// What was requested between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
        }
    }
}

/// Process-wide totals (all threads) — what the benchmark reports.
pub fn snapshot() -> AllocCount {
    AllocCount {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// This thread's totals only. The unit test uses it: `cargo test` runs
/// other tests on other threads, which would disturb the process totals.
#[cfg(test)]
pub fn thread_snapshot() -> AllocCount {
    AllocCount {
        bytes: THREAD_BYTES.with(Cell::get),
        calls: THREAD_CALLS.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let before = thread_snapshot();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let b: Box<[u64; 4]> = Box::new([7; 4]);
        let mut c: Vec<u32> = Vec::with_capacity(8);
        c.extend(0..8);
        c.reserve_exact(8); // one realloc to 16 × 4 bytes
        let counted = thread_snapshot().since(before);
        assert_eq!(counted.calls, 4);
        assert_eq!(counted.bytes, 1000 + 32 + 32 + 64);
        drop((a, b, c));
        // Frees are not counted.
        assert_eq!(thread_snapshot().since(before), counted);
    }

    #[test]
    fn process_totals_include_this_thread() {
        let (p0, t0) = (snapshot(), thread_snapshot());
        let v = vec![0u8; 4096];
        let (p1, t1) = (snapshot(), thread_snapshot());
        assert_eq!(
            t1.since(t0),
            AllocCount {
                bytes: 4096,
                calls: 1
            }
        );
        assert!(p1.since(p0).bytes >= 4096 && p1.since(p0).calls >= 1);
        drop(v);
    }

    #[test]
    fn worker_thread_allocations_reach_the_process_totals() {
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(vec![1u8; 1 << 20]));
        });
        assert!(snapshot().since(before).bytes >= 1 << 20);
    }
}
