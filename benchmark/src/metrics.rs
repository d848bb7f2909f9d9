//! The metric names the benchmark prints. `BENCHMARK.json` lists the same
//! names with direction and bound; a unit test keeps the two in step.

use crate::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run. Lower is better for all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("round_ms_floor", "ms"),
    ("alloc_bytes_per_update", "B"),
    ("allocs_per_update", "count"),
    ("upload_bytes_per_update", "B"),
    ("epc_high_water_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
    ("agg_rmse", "rms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run. A workload that does not
/// exercise a layer reports 0 for it (the layer took none of its time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.seal_us", "us"),
    ("crypto.open_us", "us"),
    ("crypto.open_batch_us", "us"),
    ("crypto.x25519_us", "us"),
    ("crypto.seal_ns_per_byte", "ns/B"),
    ("crypto.envelopes_per_round", "count"),
    ("core.codec.encode_ns_per_param", "ns"),
    ("core.codec.decode_ns_per_param", "ns"),
    ("core.codec.wire_bytes_per_param", "B"),
    ("core.mixer.plan_us", "us"),
    ("core.mixer.apply_us", "us"),
    ("core.proxy.seal_ms", "ms"),
    ("core.proxy.ingest_ms", "ms"),
    ("core.proxy.mix_ms", "ms"),
    ("core.proxy.decrypt_ms", "ms"),
    ("core.proxy.store_ms", "ms"),
    ("core.proxy.rejected", "count"),
    ("cascade.client.seal_ms", "ms"),
    ("cascade.client.seal_us_per_update", "us"),
    ("cascade.client.explained_share", "share"),
    ("cascade.hop.first_ms", "ms"),
    ("cascade.hop.mid_ms", "ms"),
    ("cascade.hop.last_ms", "ms"),
    ("cascade.hop.decrypt_ms", "ms"),
    ("cascade.hop.store_ms", "ms"),
    ("cascade.hop.mix_ms", "ms"),
    ("cascade.hop.bytes_in_per_update", "B"),
    ("cascade.hop.explained_share", "share"),
    ("cascade.onion.strip_ms", "ms"),
    ("cascade.onion.frame_us", "us"),
    ("cascade.coordinator.glue_ms", "ms"),
    ("cascade.coordinator.groups_per_relay", "count"),
    ("cascade.coordinator.stage_closure_share", "share"),
    ("cascade.pool.fired_per_relay", "count"),
    ("cascade.pool.useful_share", "share"),
    ("cascade.pool.min_group_slots", "count"),
    ("cascade.pool.wait_virtual_ms_p50", "ms"),
    ("cascade.pool.dummy_gen_us", "us"),
    ("enclave.epc_high_water_mb.hop0", "MiB"),
    ("enclave.epc_high_water_mb.hop1", "MiB"),
    ("enclave.epc_high_water_mb.hop2", "MiB"),
    ("enclave.epc_high_water_mb.hop3", "MiB"),
    ("enclave.paging_events", "count"),
    ("fl.server.aggregate_ms", "ms"),
    ("fl.client.train_ms", "ms"),
    ("nn.train_batch_us", "us"),
    ("nn.params_roundtrip_us", "us"),
    ("tensor.matmul_us", "us"),
    ("net.deliver_us", "us"),
    ("net.path_bytes_per_update", "B"),
    ("net.framing_overhead_share", "share"),
    ("net.packets_per_round", "count"),
    ("net.virtual_round_ms", "ms"),
    ("telemetry.overhead_share", "share"),
    ("harness.rounds", "count"),
    ("harness.round_ms_p50", "ms"),
    ("harness.round_ms_tail", "ms"),
    ("harness.round_ms_tail_pct", "%"),
    ("harness.updates_per_s", "1/s"),
    ("harness.cpu_ms_per_round", "ms"),
    ("harness.floor_block_spread", "ratio"),
    ("harness.trace_overhead_share", "share"),
];

/// Values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be in one of the tables
    /// (a typo would otherwise silently drop a metric).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over every metric of
    /// `table`; an unset metric reads 0.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, entry)
        }))
    }

    /// Human-readable lines, one metric each.
    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        for &(name, unit) in table {
            let value = fmt_value(self.get(name).unwrap_or(0.0));
            println!("  {name:<42} {value:>18} {unit}");
        }
    }
}

/// Six decimals, or scientific notation for what they would print as 0
/// (`agg_rmse` of a lossless workload is about 1e-9).
pub fn fmt_value(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.6e}")
    } else {
        format!("{value:.6}")
    }
}

/// Path of the repo's `BENCHMARK.json` (the parent of this package).
pub fn benchmark_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// `name → bound` of every end-to-end metric declared in `BENCHMARK.json`.
pub fn declared_bounds(benchmark_json: &Json) -> Result<BTreeMap<String, f64>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("an end_to_end entry lacks name or bound".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text = std::fs::read_to_string(benchmark_json_path()).unwrap();
        let doc = Json::parse(&text).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));
        let bounds = declared_bounds(&doc).unwrap();
        assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25));
        assert_eq!(bounds.len(), END_TO_END.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} is declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_metrics_read_zero_and_json_keeps_table_order() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let json = v.to_json(END_TO_END);
        let pairs = json.as_obj().unwrap();
        assert_eq!(pairs.len(), END_TO_END.len());
        assert_eq!(pairs[0].0, "round_ms_floor");
        assert_eq!(pairs[0].1.get("value").unwrap().as_f64(), Some(0.0));
        let setup = json.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
