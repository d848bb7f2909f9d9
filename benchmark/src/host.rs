//! The host header written into every result, so that a result from a
//! different machine, dispatch tier (SHA-NI / AVX2 / AVX-512 IFMA kernels in
//! `mixnn-crypto`), toolchain or commit is not mistaken for a regression.

use crate::json::Json;
use crate::procfs;
use std::fs;
use std::path::Path;

/// The crates' own feature detectors are private, so the header repeats the
/// detection for the features their kernels dispatch on.
fn cpu_features() -> Json {
    #[cfg(target_arch = "x86_64")]
    let (sha, avx2, ifma) = (
        std::arch::is_x86_feature_detected!("sha"),
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512ifma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (sha, avx2, ifma) = (false, false, false);
    Json::obj([
        ("sha", Json::Bool(sha)),
        ("avx2", Json::Bool(avx2)),
        ("avx512ifma", Json::Bool(ifma)),
    ])
}

/// The commit checked out in the repository this package sits in, read
/// from `.git` directly (no process is spawned, nothing outside the
/// checkout is searched); `"unknown"` in the driver's plain checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string(); // detached HEAD holds the hash
    };
    read(reference)
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn header() -> Json {
    // 1 once the process is pinned (affinity.rs), whatever the host has.
    let usable = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (nproc, cpu_model) = procfs::cpus();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(usable as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("cpu_features", cpu_features()),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("git_commit", Json::str(git_commit())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_names_everything_a_reader_needs() {
        let h = header();
        for key in [
            "nproc",
            "available_parallelism",
            "cpu_model",
            "cpu_features",
            "rustc",
            "git_commit",
        ] {
            assert!(h.get(key).is_some(), "{key} missing");
        }
        assert!(h.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(h.get("rustc").unwrap().as_str().unwrap().contains("rustc"));
        for f in ["sha", "avx2", "avx512ifma"] {
            assert!(h.get("cpu_features").unwrap().get(f).is_some());
        }
    }
}
