//! Pins the process to one CPU before anything is measured.
//!
//! On the 2-vCPU reference box a round that fans out over two threads
//! (`fl_train`: `FlConfig::default()` trains on `available_parallelism()`
//! workers) is bimodal — 40 ms when both vCPUs really run, 70 ms when they
//! do not — and no statistic of it repeats: floors of ten runs spread 14–19%,
//! medians 30%. With one CPU in the affinity mask `available_parallelism()`
//! is 1, the default configs run their sequential path, and the same floor
//! repeats within 4% (README.md, "Why one CPU"). Parallel speed-up is
//! therefore not something this benchmark measures or claims.

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The highest CPU of a mask (CPU 0 takes most interrupts, so the last
/// allowed CPU is the quieter choice).
fn last_cpu(mask: &[u64; MASK_WORDS]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

fn only(cpu: usize) -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Restricts this process (and every thread it later spawns) to the last
/// CPU it is allowed on. Returns that CPU, or `None` where the affinity
/// cannot be read or set (then nothing changed and the run proceeds).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread; the call writes at most
    // `bytes` bytes into it and retains no pointer.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = last_cpu(&allowed)?;
    let wanted = only(cpu);
    // SAFETY: `wanted` is a live buffer of `bytes` bytes that the call only
    // reads. It is made on the main thread before any other thread exists,
    // so every later thread inherits the mask.
    (unsafe { sched_setaffinity(0, bytes, wanted.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_chosen() {
        assert_eq!(last_cpu(&[0; MASK_WORDS]), None);
        assert_eq!(last_cpu(&only(0)), Some(0));
        let mut mask = [0u64; MASK_WORDS];
        mask[0] = 0b1011;
        assert_eq!(last_cpu(&mask), Some(3));
        mask[2] = 1 << 5;
        assert_eq!(last_cpu(&mask), Some(133));
        assert_eq!(only(133)[2], 1 << 5);
        assert_eq!(only(133).iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    /// Run on a thread of its own: the mask is per thread, and the other
    /// tests must keep theirs.
    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_one_cpu_available() {
        std::thread::spawn(|| {
            if let Some(cpu) = pin_to_one_cpu() {
                let n = std::thread::available_parallelism().map_or(0, |n| n.get());
                assert_eq!(n, 1, "pinned to cpu {cpu}");
            }
        })
        .join()
        .unwrap();
    }
}
