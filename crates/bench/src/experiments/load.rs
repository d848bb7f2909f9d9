//! `eval load` — load generation over the simulated network.
//!
//! Drives 10^5 (paper scale) size-only simulated clients through a 3-hop
//! cascade wire three times — with **batched** MIXB flushing (a round's
//! envelopes for one peer coalesced into a single burst), with the
//! **per-envelope-flush baseline**, and batched again under the **MIXN
//! v2 `int8+topk` codec** — and reports, per row: sustained updates per
//! virtual second, p50/p99/p99.9 round latency, peak send/receive queue
//! depths, and wire bytes per client per round.
//!
//! The run fails rather than reporting nonsense: a small *fidelity
//! cross-check* first drives a real (crypto-carrying) cascade round over
//! the simulated wire and asserts bit-identity with the in-process
//! drive; batched flushing must beat the per-envelope baseline in
//! virtual time; and the batched framing overhead must stay under 5% of
//! payload. The per-client wire bytes are cross-checked against the
//! ~23 KB/client/round `bytes_received` figure ROADMAP.md records for
//! the paper-scale model. Every reported metric is virtual-time derived,
//! so `BENCH_load.json` is identical across reruns of the same seed and
//! configuration.

use crate::report::Percentiles;
use crate::{ExperimentScale, Layout};
use mixnn_cascade::{CascadeCoordinator, CascadeTransport, FailurePolicy};
use mixnn_core::codec;
use mixnn_fl::{ModelUpdate, UpdateTransport};
use mixnn_net::{run_load_with, FlushPolicy, LinkConfig, LoadConfig, NetCascadeTransport};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::Telemetry;

/// The ~23 KB/client/round `bytes_received` reference ROADMAP.md records
/// for the paper-scale model, in bytes.
pub const ROADMAP_BYTES_PER_CLIENT: f64 = 23.0 * 1024.0;

/// Hard ceiling on acceptable framing overhead (fraction of payload).
pub const MAX_FRAMING_OVERHEAD: f64 = 0.05;

/// One flush policy's metrics. All time-derived figures are virtual, so
/// rows are byte-identical across reruns of one seed and configuration.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Flush policy (`batched` / `per_envelope`).
    pub flush: &'static str,
    /// Wire codec mode (`f32` / `int8+topk`).
    pub codec: &'static str,
    /// Clients per round.
    pub clients: usize,
    /// Rounds driven.
    pub rounds: usize,
    /// Virtual time at which the last round completed.
    pub sim_seconds: f64,
    /// Updates sustained per virtual second.
    pub sustained_updates_per_sec: f64,
    /// p50/p99/p99.9 of per-client round latency, virtual seconds.
    pub latency: Percentiles,
    /// Deepest any link's send queue got.
    pub peak_send_queue: usize,
    /// Deepest any node's receive queue got.
    pub peak_recv_queue: usize,
    /// Access-link wire bytes per client per round (framing included).
    pub bytes_on_wire_per_client: f64,
    /// Fraction of the access wire spent on burst framing.
    pub framing_overhead: f64,
    /// `bytes_on_wire_per_client` over [`ROADMAP_BYTES_PER_CLIENT`].
    pub roadmap_bytes_ratio: f64,
    /// Packets transmitted across all links.
    pub packets_sent: u64,
    /// Packets lost in flight (zero for the healthy deployment modelled).
    pub packets_lost: u64,
    /// Packets that drew the slow reorder detour.
    pub packets_reordered: u64,
    /// Wire bytes across all links.
    pub wire_bytes_total: u64,
    /// Simulator events processed.
    pub events_processed: u64,
}

fn small_updates(c: usize) -> Vec<ModelUpdate> {
    (0..c)
        .map(|i| {
            ModelUpdate::new(
                i,
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 3]),
                    LayerParams::from_values(vec![-(i as f32); 2]),
                ]),
            )
        })
        .collect()
}

/// Drives one real (crypto-carrying) cascade round over the simulated
/// wire and asserts bit-identity with the in-process drive — the load
/// model's sizes mean nothing if the wire itself corrupts rounds.
fn fidelity_check(seed: u64) -> Result<(), String> {
    let cascade = |s| {
        let chain = Layout::Linear.topology(2, s);
        CascadeCoordinator::launch_seeded(vec![3, 2], chain, s, FailurePolicy::Abort)
            .map(|(cascade, _)| cascade)
            .map_err(|e| e.to_string())
    };
    let mut in_process = CascadeTransport::new(cascade(seed)?, seed ^ 0x11);
    let mut over_wire = NetCascadeTransport::new(
        cascade(seed)?,
        seed ^ 0x11,
        LinkConfig {
            jitter_ns: 30_000,
            reorder: 0.2,
            ..LinkConfig::default()
        },
        FlushPolicy::Batched,
        10_000_000_000,
    );
    let reference = in_process
        .relay(small_updates(8))
        .map_err(|e| e.to_string())?;
    let wired = over_wire
        .relay(small_updates(8))
        .map_err(|e| e.to_string())?;
    if reference != wired {
        return Err(
            "fidelity check failed: simulated-wire round diverged from the \
             in-process drive"
                .to_string(),
        );
    }
    Ok(())
}

/// Runs the load experiment at `scale`, returning the two f32 flush
/// rows (batched first) followed by the compressed batched row.
///
/// # Errors
///
/// Fails when the fidelity cross-check diverges, a run times out, the
/// batched framing overhead exceeds [`MAX_FRAMING_OVERHEAD`], or batched
/// flushing does not beat the per-envelope baseline.
pub fn run(
    scale: ExperimentScale,
    clients: Option<usize>,
    seed: u64,
) -> Result<Vec<LoadRow>, String> {
    run_with(scale, clients, seed, &mixnn_telemetry::noop())
}

/// [`run`] with a telemetry registry attached to the simulated network —
/// the load generator drives the registry's virtual clock (if it carries
/// one), so its counters, queue-depth gauges and spans reproduce byte for
/// byte.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with(
    scale: ExperimentScale,
    clients: Option<usize>,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<Vec<LoadRow>, String> {
    fidelity_check(seed)?;

    // Two f32 rows pin the framing comparison; the third row reruns the
    // deployment configuration (batched) under the MIXN v2 compressed
    // codec. Only wire cost changes: lossy rounds keep the aggregate
    // within the tolerances `eval compress` gates (int8+topk RMSE ≤ 0.2
    // vs the lossless baseline at the reference model).
    let sweep = [
        (FlushPolicy::Batched, codec::CompressionConfig::F32),
        (FlushPolicy::PerEnvelope, codec::CompressionConfig::F32),
        (FlushPolicy::Batched, codec::CompressionConfig::int8_top_k()),
    ];
    let mut rows = Vec::with_capacity(sweep.len());
    for (flush, compression) in sweep {
        let mut cfg = match scale {
            ExperimentScale::Paper => LoadConfig::paper(clients.unwrap_or(100_000), flush),
            ExperimentScale::Quick => {
                let mut cfg = LoadConfig::quick(flush);
                if let Some(c) = clients {
                    cfg.clients = c;
                }
                cfg
            }
        };
        cfg.seed = seed;
        cfg.compression = compression;
        let out = run_load_with(&cfg, telemetry).map_err(|e| e.to_string())?;
        let row = LoadRow {
            flush: flush.name(),
            codec: compression.name(),
            clients: out.clients,
            rounds: out.rounds,
            sim_seconds: out.sim_seconds,
            sustained_updates_per_sec: out.sustained_updates_per_sec,
            latency: Percentiles::from_samples(&out.latency_samples_s),
            peak_send_queue: out.peak_send_queue,
            peak_recv_queue: out.peak_recv_queue,
            bytes_on_wire_per_client: out.bytes_on_wire_per_client,
            framing_overhead: out.framing_overhead,
            roadmap_bytes_ratio: out.bytes_on_wire_per_client / ROADMAP_BYTES_PER_CLIENT,
            packets_sent: out.packets_sent,
            packets_lost: out.packets_lost,
            packets_reordered: out.packets_reordered,
            wire_bytes_total: out.wire_bytes_total,
            events_processed: out.events_processed,
        };
        if flush == FlushPolicy::Batched && row.framing_overhead > MAX_FRAMING_OVERHEAD {
            return Err(format!(
                "batched framing overhead {:.4} exceeds the {:.0}% ceiling",
                row.framing_overhead,
                MAX_FRAMING_OVERHEAD * 100.0
            ));
        }
        rows.push(row);
    }
    let (batched, per_env) = (&rows[0], &rows[1]);
    if batched.sim_seconds >= per_env.sim_seconds {
        return Err(format!(
            "batched flushing ({:.3} virtual s) failed to beat the per-envelope \
             baseline ({:.3} virtual s)",
            batched.sim_seconds, per_env.sim_seconds
        ));
    }
    Ok(rows)
}

/// Formats load rows for the report table.
pub fn rows(results: &[LoadRow]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                r.flush.to_string(),
                r.codec.to_string(),
                r.clients.to_string(),
                r.rounds.to_string(),
                format!("{:.1}", r.sustained_updates_per_sec),
                format!("{:.3}", r.latency.p50),
                format!("{:.3}", r.latency.p99),
                format!("{:.3}", r.latency.p999),
                r.peak_send_queue.to_string(),
                r.peak_recv_queue.to_string(),
                format!("{:.0}", r.bytes_on_wire_per_client),
                format!("{:.2}%", r.framing_overhead * 100.0),
                r.packets_sent.to_string(),
            ]
        })
        .collect()
}

/// Serializes the rows as the `BENCH_load.json` artifact. Only
/// virtual-time metrics appear, so the artifact is reproducible byte for
/// byte from one seed and configuration.
pub fn to_json(results: &[LoadRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"load\",\n");
    out.push_str(&format!(
        "  \"roadmap_bytes_per_client\": {ROADMAP_BYTES_PER_CLIENT:.0},\n  \"rows\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"flush\": \"{}\", \"codec\": \"{}\", \"clients\": {}, \"rounds\": {}, \
             \"sim_seconds\": {:.6}, \"sustained_updates_per_sec\": {:.2}, \
             \"latency_p50_s\": {:.6}, \"latency_p99_s\": {:.6}, \"latency_p999_s\": {:.6}, \
             \"peak_send_queue\": {}, \"peak_recv_queue\": {}, \
             \"bytes_on_wire_per_client\": {:.2}, \"framing_overhead\": {:.6}, \
             \"roadmap_bytes_ratio\": {:.4}, \"packets_sent\": {}, \
             \"packets_lost\": {}, \"packets_reordered\": {}, \
             \"wire_bytes_total\": {}, \"events_processed\": {}}}{}\n",
            r.flush,
            r.codec,
            r.clients,
            r.rounds,
            r.sim_seconds,
            r.sustained_updates_per_sec,
            r.latency.p50,
            r.latency.p99,
            r.latency.p999,
            r.peak_send_queue,
            r.peak_recv_queue,
            r.bytes_on_wire_per_client,
            r.framing_overhead,
            r.roadmap_bytes_ratio,
            r.packets_sent,
            r.packets_lost,
            r.packets_reordered,
            r.wire_bytes_total,
            r.events_processed,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_every_row_and_passes_gates() {
        let rows = run(ExperimentScale::Quick, Some(500), 42).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].flush, rows[0].codec), ("batched", "f32"));
        assert_eq!((rows[1].flush, rows[1].codec), ("per_envelope", "f32"));
        assert_eq!((rows[2].flush, rows[2].codec), ("batched", "int8+topk"));
        assert!(rows[0].sim_seconds < rows[1].sim_seconds);
        // The compressed row keeps the f32 baseline rows intact and cuts
        // the per-client wire bytes at least 4x.
        assert!(
            rows[2].bytes_on_wire_per_client * 4.0 <= rows[0].bytes_on_wire_per_client,
            "topk {} B vs f32 {} B",
            rows[2].bytes_on_wire_per_client,
            rows[0].bytes_on_wire_per_client
        );
        assert!(rows[0].framing_overhead < MAX_FRAMING_OVERHEAD);
        assert!(rows[0].latency.p50 <= rows[0].latency.p99);
        assert!(rows[0].latency.p99 <= rows[0].latency.p999);
        // The generator models a healthy deployment: nothing may be
        // lost, and the default links draw no reorder detours.
        assert_eq!(rows[0].packets_lost, 0);
        assert_eq!(rows[0].packets_reordered, 0);
        // Paper-signature envelopes with 2 remaining seals land near the
        // ROADMAP per-client figure.
        assert!(
            (0.8..1.2).contains(&rows[0].roadmap_bytes_ratio),
            "ratio {} strays from the ROADMAP reference",
            rows[0].roadmap_bytes_ratio
        );
    }

    #[test]
    fn artifact_is_deterministic_for_one_seed_and_config() {
        let a = run(ExperimentScale::Quick, Some(300), 7).unwrap();
        let b = run(ExperimentScale::Quick, Some(300), 7).unwrap();
        assert_eq!(to_json(&a), to_json(&b));
        let c = run(ExperimentScale::Quick, Some(300), 8).unwrap();
        assert_ne!(
            to_json(&a),
            to_json(&c),
            "different seed should shift jitter draws somewhere"
        );
    }

    #[test]
    fn json_has_every_required_metric() {
        let rows = run(ExperimentScale::Quick, Some(200), 42).unwrap();
        let json = to_json(&rows);
        for key in [
            "sustained_updates_per_sec",
            "latency_p50_s",
            "latency_p99_s",
            "latency_p999_s",
            "peak_send_queue",
            "peak_recv_queue",
            "bytes_on_wire_per_client",
            "framing_overhead",
            "roadmap_bytes_ratio",
            "packets_lost",
            "packets_reordered",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"batched\""));
        assert!(json.contains("\"per_envelope\""));
        assert!(json.contains("\"f32\""));
        assert!(json.contains("\"int8+topk\""));
    }
}
