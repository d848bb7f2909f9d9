//! Plain-text table output for experiment results, and the two helpers
//! every telemetry-bearing `BENCH_*.json` artefact is built with.

use mixnn_telemetry::{Registry, Telemetry, VirtualClock};

/// The registry an artefact-writing experiment runs on. Its clock is
/// virtual — only an experiment that simulates time (`load`, `pooled`)
/// advances it — so span families record counts, never wall-clock
/// durations, and the embedded snapshot reproduces byte for byte. Time is
/// measured by the repo benchmark, not here.
pub fn artefact_telemetry() -> Telemetry {
    Registry::with_virtual_clock(VirtualClock::default()).shared()
}

/// Splices the registry's JSON snapshot into a hand-rolled `{...}` BENCH
/// artifact as a top-level `"telemetry"` key, so the shared registry's
/// counters ship alongside the experiment rows they describe.
///
/// # Panics
///
/// Panics if `artifact` is not a JSON object — a harness bug.
pub fn embed_telemetry(artifact: &str, telemetry: &Telemetry) -> String {
    let body = artifact
        .trim_end()
        .strip_suffix('}')
        .expect("BENCH artifacts are JSON objects");
    format!(
        "{},\n  \"telemetry\": {}\n}}\n",
        body.trim_end(),
        telemetry.snapshot().to_json("  ")
    )
}

/// Prints an aligned table to stdout: a header row followed by data rows.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's — a harness bug.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch in table");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats an accuracy/fraction with three decimals.
pub fn fmt3(v: f32) -> String {
    format!("{v:.3}")
}

/// Formats a byte count in MB with two decimals.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// The `q`-quantile (`0.0 ..= 1.0`) of `samples` by linear interpolation
/// between closest ranks. The input need not be sorted. Degenerate
/// inputs degrade instead of panicking: non-finite samples (NaN, ±∞)
/// are ignored, an input with no finite samples yields `0.0`, `q`
/// outside `[0, 1]` is clamped, and a NaN `q` reads as `0.0` (the
/// minimum) — so a report renders something sensible out of whatever a
/// partially failed run produced.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

/// The percentile summary every latency/duration table reports: median,
/// tail, extreme tail. Built once from a sample vector so experiments
/// stop hand-rolling their own aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Percentiles {
    /// Summarizes `samples` (unsorted is fine; empty or all-non-finite
    /// yields all zeros — a single sample is its own median and tail,
    /// and NaN/±∞ samples are ignored like [`percentile`] does).
    pub fn from_samples(samples: &[f64]) -> Self {
        Percentiles {
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            p999: percentile(samples, 0.999),
        }
    }
}

/// Mean of a non-empty f32 slice (0.0 for empty).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt_mb(26_900_000), "25.65");
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_and_handle_degenerate_inputs() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&samples);
        assert_eq!(p.p50, 50.5);
        assert!((p.p99 - 99.01).abs() < 1e-9);
        assert!((p.p999 - 99.901).abs() < 1e-9);
        // Order must not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(p, Percentiles::from_samples(&reversed));
        // A single sample is every percentile; empty is all zeros.
        let one = Percentiles::from_samples(&[7.0]);
        assert_eq!((one.p50, one.p99, one.p999), (7.0, 7.0, 7.0));
        let none = Percentiles::from_samples(&[]);
        assert_eq!((none.p50, none.p99, none.p999), (0.0, 0.0, 0.0));
    }

    #[test]
    fn percentile_ignores_non_finite_samples() {
        // NaNs and infinities drop out; the finite samples summarize.
        let noisy = [f64::NAN, 3.0, f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0];
        assert_eq!(percentile(&noisy, 0.5), 2.0);
        assert_eq!(percentile(&noisy, 0.0), 1.0);
        assert_eq!(percentile(&noisy, 1.0), 3.0);
        // No finite samples at all degrades to zero, not a panic.
        assert_eq!(percentile(&[f64::NAN, f64::INFINITY], 0.5), 0.0);
        let p = Percentiles::from_samples(&[f64::NAN]);
        assert_eq!((p.p50, p.p99, p.p999), (0.0, 0.0, 0.0));
    }

    #[test]
    fn percentile_clamps_degenerate_quantiles() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&samples, -0.5), 1.0);
        assert_eq!(percentile(&samples, 1.5), 4.0);
        assert_eq!(percentile(&samples, f64::INFINITY), 4.0);
        assert_eq!(percentile(&samples, f64::NEG_INFINITY), 1.0);
        assert_eq!(percentile(&samples, f64::NAN), 1.0);
    }

    #[test]
    fn print_table_accepts_consistent_rows() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn print_table_rejects_ragged_rows() {
        print_table("test", &["a", "b"], &[vec!["1".into()]]);
    }
}
