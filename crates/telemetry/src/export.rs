//! Exporters: Prometheus text format, a JSON snapshot, and a format
//! checker.
//!
//! Both renderers are hand-rolled (the workspace has no serialization
//! crate) and emit series in static declaration order, so two
//! snapshots of registries in the same state render byte-identically.
//! [`validate_prometheus`] is the checker CI runs over exported text: it
//! rejects duplicate series, malformed values, broken histogram
//! invariants, and — the privacy-relevant part — any label axis that
//! could carry a client, slot, or route-group identity.

use std::collections::BTreeMap;

/// One counter sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Component name (e.g. `core`).
    pub component: &'static str,
    /// Series name within the component.
    pub name: &'static str,
    /// Help string.
    pub help: &'static str,
    /// Current value.
    pub value: u64,
}

/// One gauge sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Component name.
    pub component: &'static str,
    /// Series name within the component.
    pub name: &'static str,
    /// Help string.
    pub help: &'static str,
    /// Current value.
    pub value: u64,
}

/// One histogram sample (distribution or span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Component name.
    pub component: &'static str,
    /// Series name within the component.
    pub name: &'static str,
    /// Help string.
    pub help: &'static str,
    /// Static bucket upper bounds (exclusive of the implicit `+Inf`).
    pub bounds: &'static [u64],
    /// Non-cumulative per-bucket counts; the final entry is overflow.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time copy of every series in a registry.
///
/// Comparable with `==` and renderable to both export formats; the
/// determinism tests compare rendered snapshots byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters, in declaration order.
    pub counters: Vec<CounterSample>,
    /// Gauges, in declaration order.
    pub gauges: Vec<GaugeSample>,
    /// Distributions then spans, in declaration order.
    pub histograms: Vec<HistogramSample>,
}

fn series_name(component: &str, name: &str) -> String {
    format!("mixnn_{component}_{name}")
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let full = format!("{}_total", series_name(c.component, c.name));
            out.push_str(&format!(
                "# HELP {full} {}\n# TYPE {full} counter\n",
                c.help
            ));
            out.push_str(&format!("{full} {}\n", c.value));
        }
        for g in &self.gauges {
            let full = series_name(g.component, g.name);
            out.push_str(&format!("# HELP {full} {}\n# TYPE {full} gauge\n", g.help));
            out.push_str(&format!("{full} {}\n", g.value));
        }
        for h in &self.histograms {
            let full = series_name(h.component, h.name);
            out.push_str(&format!(
                "# HELP {full} {}\n# TYPE {full} histogram\n",
                h.help
            ));
            let mut cumulative = 0u64;
            for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                cumulative += bucket;
                out.push_str(&format!("{full}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            cumulative += h.buckets.last().copied().unwrap_or(0);
            out.push_str(&format!("{full}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            out.push_str(&format!("{full}_sum {}\n", h.sum));
            out.push_str(&format!("{full}_count {}\n", h.count));
        }
        out
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    ///
    /// `indent` prefixes every line, so the object can be embedded in a
    /// larger hand-rolled document at the caller's nesting depth.
    pub fn to_json(&self, indent: &str) -> String {
        let deeper = format!("{indent}  ");
        let mut out = format!("{{\n{deeper}\"counters\": {{");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "\"{}_total\": {}",
                    series_name(c.component, c.name),
                    c.value
                )
            })
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str(&format!("}},\n{deeper}\"gauges\": {{"));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|g| format!("\"{}\": {}", series_name(g.component, g.name), g.value))
            .collect();
        out.push_str(&gauges.join(", "));
        out.push_str(&format!("}},\n{deeper}\"histograms\": {{\n"));
        for (i, h) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> = h
                .bounds
                .iter()
                .map(|b| b.to_string())
                .chain(std::iter::once("\"+Inf\"".to_string()))
                .zip(&h.buckets)
                .map(|(le, count)| format!("[{le}, {count}]"))
                .collect();
            out.push_str(&format!(
                "{deeper}  \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{}\n",
                series_name(h.component, h.name),
                h.count,
                h.sum,
                buckets.join(", "),
                if i + 1 == self.histograms.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!("{deeper}}}\n{indent}}}"));
        out
    }
}

/// What [`validate_prometheus`] measured while checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromSummary {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Total sample lines.
    pub series: usize,
    /// Largest number of distinct label sets under one family.
    pub max_label_sets: usize,
}

/// Label names that would constitute a per-client or per-route side
/// channel; the checker rejects any exported label whose name contains one
/// of these as a substring.
pub const FORBIDDEN_LABEL_AXES: [&str; 5] = ["client", "slot", "route", "group", "user"];

/// Hard ceiling on distinct label sets per metric family — far above
/// anything the static registry can emit (histogram buckets), far below
/// anything per-client.
pub const MAX_LABEL_SETS_PER_FAMILY: usize = 64;

fn parse_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed label {part:?}"))?;
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value in {part:?}"))?;
        labels.push((name.trim().to_string(), value.to_string()));
    }
    Ok(labels)
}

fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

/// Checks Prometheus exposition text.
///
/// Enforced: every sample belongs to a `# TYPE`-declared family, each
/// family is declared once, no duplicate `(name, labels)` series, every
/// value parses as an unsigned integer (all MixNN series are integral),
/// histogram buckets are cumulative with `+Inf` equal to `_count`, label
/// names avoid [`FORBIDDEN_LABEL_AXES`], and no family exceeds
/// [`MAX_LABEL_SETS_PER_FAMILY`] label sets.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_prometheus(text: &str) -> Result<PromSummary, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut values: BTreeMap<String, u64> = BTreeMap::new();
    let mut series = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").to_string();
            if !["counter", "gauge", "histogram"].contains(&kind.as_str()) {
                return Err(format!("line {}: unknown TYPE {kind:?}", lineno + 1));
            }
            if types.insert(name.clone(), kind).is_some() {
                return Err(format!("line {}: duplicate TYPE for {name}", lineno + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }

        // A sample: name[{labels}] value
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: malformed sample {line:?}", lineno + 1))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: non-integer value {value:?}", lineno + 1))?;
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let raw = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels", lineno + 1))?;
                (name, parse_labels(raw)?)
            }
            None => (name_and_labels, Vec::new()),
        };
        for (label, _) in &labels {
            let lower = label.to_ascii_lowercase();
            if FORBIDDEN_LABEL_AXES.iter().any(|axis| lower.contains(axis)) {
                return Err(format!(
                    "line {}: label {label:?} is a forbidden per-entity axis",
                    lineno + 1
                ));
            }
        }
        let family = family_of(name);
        if !types.contains_key(family) && !types.contains_key(name) {
            return Err(format!(
                "line {}: sample {name} has no TYPE declaration",
                lineno + 1
            ));
        }
        let label_key = labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let series_key = format!("{name}{{{label_key}}}");
        let family_sets = seen.entry(family.to_string()).or_default();
        if family_sets.contains(&series_key) {
            return Err(format!(
                "line {}: duplicate series {series_key}",
                lineno + 1
            ));
        }
        family_sets.push(series_key.clone());
        if family_sets.len() > MAX_LABEL_SETS_PER_FAMILY {
            return Err(format!(
                "family {family} exceeds {MAX_LABEL_SETS_PER_FAMILY} label sets"
            ));
        }
        values.insert(series_key, value);
        series += 1;
    }

    // Histogram invariants: buckets cumulative, +Inf == _count.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let mut last = 0u64;
        let mut inf = None;
        for key in seen.get(family).map(Vec::as_slice).unwrap_or(&[]) {
            if !key.starts_with(&format!("{family}_bucket")) {
                continue;
            }
            let v = values[key];
            if v < last {
                return Err(format!("histogram {family}: non-cumulative bucket {key}"));
            }
            last = v;
            if key.contains("le=+Inf") {
                inf = Some(v);
            }
        }
        let count = values
            .get(&format!("{family}_count{{}}"))
            .copied()
            .ok_or_else(|| format!("histogram {family}: missing _count"))?;
        if let Some(inf) = inf {
            if inf != count {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf} != count {count}"
                ));
            }
        } else {
            return Err(format!("histogram {family}: missing +Inf bucket"));
        }
    }

    let max_label_sets = seen.values().map(Vec::len).max().unwrap_or(0);
    Ok(PromSummary {
        families: types.len(),
        series,
        max_label_sets,
    })
}

/// Checks that every counter-family sample in `prev` is present in `next`
/// with a value at least as large — the "monotone counters" half of the CI
/// export check, run across two snapshots of the same registry.
///
/// # Errors
///
/// Returns a description of the first regression or disappearance.
pub fn check_counter_monotonicity(prev: &str, next: &str) -> Result<(), String> {
    let read = |text: &str| -> Result<BTreeMap<String, u64>, String> {
        validate_prometheus(text)?;
        let mut out = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if family_of(key.split('{').next().unwrap_or(key)).ends_with("_total")
                    || key.contains("_bucket")
                    || key.contains("_count")
                    || key.contains("_sum")
                {
                    out.insert(key.to_string(), value.parse().unwrap_or(0));
                }
            }
        }
        Ok(out)
    };
    let before = read(prev)?;
    let after = read(next)?;
    for (key, old) in &before {
        match after.get(key) {
            None => return Err(format!("series {key} disappeared")),
            Some(new) if new < old => {
                return Err(format!("series {key} regressed: {old} -> {new}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Distribution};
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::with_virtual_clock(crate::clock::VirtualClock::new());
        reg.incr(Counter::CoreUpdatesCommitted, 12);
        reg.incr(Counter::NetPacketsSent, 3);
        reg.observe(Distribution::CoreMixBatchUpdates, 12);
        reg
    }

    #[test]
    fn prometheus_render_passes_its_own_checker() {
        let text = sample_registry().snapshot().to_prometheus();
        let summary = validate_prometheus(&text).unwrap();
        assert!(summary.families > 20);
        assert!(summary.series > summary.families);
        // Only histogram buckets carry labels; cardinality stays tiny.
        assert!(summary.max_label_sets <= 16, "{summary:?}");
    }

    #[test]
    fn renders_are_deterministic_for_equal_state() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.to_json(""), b.to_json(""));
    }

    #[test]
    fn json_braces_balance() {
        let json = sample_registry().snapshot().to_json("  ");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"mixnn_core_updates_committed_total\": 12"));
    }

    #[test]
    fn checker_rejects_duplicates_and_per_client_axes() {
        let dup = "# TYPE m_total counter\nm_total 1\nm_total 2\n";
        assert!(validate_prometheus(dup).unwrap_err().contains("duplicate"));
        let axis = "# TYPE m_total counter\nm_total{client_id=\"7\"} 1\n";
        assert!(validate_prometheus(axis).unwrap_err().contains("forbidden"));
        let untyped = "m_total 1\n";
        assert!(validate_prometheus(untyped)
            .unwrap_err()
            .contains("no TYPE"));
        let float = "# TYPE m gauge\nm 1.5\n";
        assert!(validate_prometheus(float)
            .unwrap_err()
            .contains("non-integer"));
    }

    #[test]
    fn monotonicity_check_catches_regressions() {
        let reg = sample_registry();
        let before = reg.snapshot().to_prometheus();
        reg.incr(Counter::CoreUpdatesCommitted, 1);
        let after = reg.snapshot().to_prometheus();
        check_counter_monotonicity(&before, &after).unwrap();
        let err = check_counter_monotonicity(&after, &before).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }
}
