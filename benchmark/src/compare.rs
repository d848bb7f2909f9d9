//! `compare A.json B.json`: for every workload × end-to-end metric, both
//! medians, the ratio with its base, the bound from `BENCHMARK.json` and a
//! verdict. A is the base (the parent commit), B the change. All
//! end-to-end metrics are lower-is-better.

use crate::json::Json;
use crate::metrics::{self, fmt_value, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound (or every
    /// run of B reads no worse than every run of A).
    Pass,
    /// B's median is worse than A's by more than the bound, and the runs
    /// repeat well enough to say so.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound: the
    /// files cannot show "unchanged" (choosing-metrics, section 6.5).
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of one side as a share of its median: inter-quartile distance
/// with four or more runs, the full range with two or three (a session has
/// three blocks), 0 with one.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::spread_share(values);
    }
    match (
        stats::floor(values),
        values.iter().copied().reduce(f64::max),
        stats::median(values),
    ) {
        (Some(lo), Some(hi), Some(m)) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

/// The verdict on one lower-is-better metric. `bound` is the share of A's
/// median by which B's may be worse; where A's median is 0 the bound is
/// absolute: any rise regresses.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (Some(a_med), Some(b_med)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    let b_worst = b.iter().copied().fold(f64::MIN, f64::max);
    let a_best = a.iter().copied().fold(f64::MAX, f64::min);
    if b_worst <= a_best {
        return Verdict::Pass;
    }
    if a_med == 0.0 {
        return if b_med > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    if (b_med - a_med) / a_med.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

/// `workload → metric → values` of one result file.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<(Json, Results), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut results = Results::new();
    for entry in doc.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
        let workload = entry.get("workload").and_then(Json::as_str);
        let workload = workload.ok_or("a result names no workload")?;
        let metrics = results.entry(workload.to_string()).or_default();
        for (name, m) in entry.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let values = m.get("values").and_then(Json::as_arr).unwrap_or(&[]);
            metrics.insert(
                name.clone(),
                values.iter().filter_map(Json::as_f64).collect(),
            );
        }
    }
    if results.is_empty() {
        return Err(format!("{} holds no results", path.display()));
    }
    Ok((doc, results))
}

/// Prints the comparison; `Ok(false)` when anything regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bench_path = metrics::benchmark_json_path();
    let bench = std::fs::read_to_string(&bench_path)
        .map_err(|e| format!("{}: {e}", bench_path.display()))?;
    let bounds = metrics::declared_bounds(&Json::parse(&bench)?)?;
    let ((a_doc, a), (b_doc, b)) = (load(a_path)?, load(b_path)?);
    for (label, doc) in [("A (base)", &a_doc), ("B", &b_doc)] {
        println!("{label}: host {}", doc.get("host").unwrap_or(&Json::Null));
    }
    if a_doc.get("host").map(without_commit) != b_doc.get("host").map(without_commit) {
        println!("note: the two results come from different hosts or toolchains");
    }
    println!(
        "{:<20} {:<30} {:>16} {:>16} {:>14} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut regressed = false;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<20} missing from B");
            continue;
        };
        for &(metric, unit) in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(metric), b_metrics.get(metric)) else {
                continue;
            };
            let bound = *bounds
                .get(metric)
                .ok_or_else(|| format!("BENCHMARK.json declares no bound for {metric}"))?;
            let verdict = judge(av, bv, bound);
            regressed |= verdict == Verdict::Regressed;
            let (am, bm) = (
                stats::median(av).unwrap_or(0.0),
                stats::median(bv).unwrap_or(0.0),
            );
            let ratio = if am != 0.0 {
                format!("{:.4} of A", bm / am)
            } else {
                format!("{:+.6} on 0", bm - am)
            };
            println!(
                "{workload:<20} {:<30} {:>16} {:>16} {ratio:>14} {:>6.1}%  {} ({}+{} runs)",
                format!("{metric} [{unit}]"),
                fmt_value(am),
                fmt_value(bm),
                bound * 100.0,
                verdict.label(),
                av.len(),
                bv.len()
            );
        }
    }
    Ok(!regressed)
}

/// The host header minus the commit, which is expected to differ.
fn without_commit(host: &Json) -> Vec<(String, Json)> {
    host.as_obj()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| k != "git_commit")
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bound() {
        // 5% worse under a 10% bound passes; 15% worse regresses.
        assert_eq!(judge(&[100.0], &[105.0], 0.10), Verdict::Pass);
        assert_eq!(judge(&[100.0], &[115.0], 0.10), Verdict::Regressed);
        // Better is never a regression, however large the change.
        assert_eq!(judge(&[100.0], &[50.0], 0.10), Verdict::Pass);
        // Medians decide, not single runs.
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&a, &[104.0, 103.0, 105.0, 104.0], 0.10),
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &[114.0, 113.0, 115.0, 114.0], 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_zero_base_makes_the_bound_absolute() {
        assert_eq!(judge(&[0.0], &[0.0], 0.01), Verdict::Pass);
        assert_eq!(judge(&[0.0], &[1e-9], 0.01), Verdict::Regressed);
        assert_eq!(
            judge(&[0.0, 0.0, 0.0], &[0.0, 0.0, 2.0], 0.01),
            Verdict::Pass
        );
        assert_eq!(
            judge(&[0.0, 0.0, 0.0], &[0.0, 2.0, 2.0], 0.01),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [100.0, 130.0, 90.0, 120.0];
        assert_eq!(
            judge(&noisy, &[104.0, 131.0, 95.0, 118.0], 0.10),
            Verdict::Unresolved
        );
        // …even when the medians look like a regression…
        assert_eq!(
            judge(&noisy, &[140.0, 100.0, 150.0, 160.0], 0.10),
            Verdict::Unresolved
        );
        // …unless every run of B reads no worse than every run of A.
        assert_eq!(
            judge(&noisy, &[80.0, 85.0, 89.0, 90.0], 0.10),
            Verdict::Pass
        );
        // Three blocks (a session): the full range is the spread.
        assert_eq!(
            judge(&[100.0, 101.0, 120.0], &[102.0, 103.0, 104.0], 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&[], &[1.0], 0.10), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_compare_exactly() {
        assert_eq!(judge(&[23141.0; 3], &[23141.0; 3], 0.001), Verdict::Pass);
        assert_eq!(
            judge(&[23141.0; 3], &[23205.0; 3], 0.001),
            Verdict::Regressed
        );
    }
}
