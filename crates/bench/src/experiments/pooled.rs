//! Continuous pooled mixing under trickle arrivals: the k × deadline
//! sweep behind `eval pooled` and `BENCH_pooled.json`.
//!
//! Round-synchronous experiments feed the cascade a complete client
//! roster; production traffic trickles. This sweep spreads each point's
//! clients over a fixed arrival window on the pool's clock (the
//! [`arrival_offset`] schedule `mixnn-net`'s load generator also uses),
//! pools them in a [`PooledCoordinator`], and lets every firing —
//! threshold or deadline — drive a k-floor-padded partial round over a
//! [`SimLink`] wire. Per `(k, deadline)` point it records how the pool traded
//! latency for anonymity: firings by trigger, cover updates injected,
//! p50/p99 added latency, and the residual anonymity-set sizes of the
//! *real* clients.
//!
//! Three properties are **asserted**, not just measured, at every point:
//!
//! 1. every fired pool holds `real + dummies ≥ k`, and every route group
//!    inside it was padded to at least `k` members (the k-floor),
//! 2. the dummy-stripped server aggregate of every fired round is
//!    bit-identical to a dummy-free reference round over the same real
//!    updates (cover costs zero utility),
//! 3. every client's update is committed by exactly one fired pool.
//!
//! Everything is virtual-time derived, so the JSON artifact is
//! byte-identical across reruns with the same seed and scale.

use super::topology::synth_update;
use crate::report::Percentiles;
use crate::{ExperimentScale, Layout};
use mixnn_attacks::analyze_routed_collusion;
use mixnn_cascade::{
    arrival_offset, CascadeCoordinator, FailurePolicy, PoolConfig, PoolTrigger, PooledCoordinator,
};
use mixnn_net::{FlushPolicy, LinkConfig, SimLink};
use mixnn_nn::ModelParams;
use mixnn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixing hops every point routes through (free-route layout, so the
/// partition produces groups the padder must top up).
pub const HOPS: usize = 3;

/// Wire timeout for each segment delivery, in virtual nanoseconds.
const WIRE_TIMEOUT_NS: u64 = 200_000_000;

/// One measured `(k, deadline)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledRow {
    /// The pool threshold / padding floor.
    pub k: usize,
    /// The pool deadline in milliseconds.
    pub deadline_ms: f64,
    /// Real clients trickled through the point.
    pub clients: usize,
    /// Pools fired (= partial rounds committed).
    pub rounds: usize,
    /// Firings that reached `k` real updates.
    pub threshold_rounds: usize,
    /// Firings forced by the deadline, under-full.
    pub deadline_rounds: usize,
    /// Firings forced by the end-of-run flush.
    pub flush_rounds: usize,
    /// Cover updates injected across all firings.
    pub dummies: usize,
    /// `dummies / (clients + dummies)` — the bandwidth price of the
    /// k-floor at this point.
    pub dummy_fraction: f64,
    /// Mean real updates per fired pool.
    pub mean_pool_depth: f64,
    /// Added latency per real update (arrival → pool firing), in
    /// milliseconds of virtual time.
    pub wait_ms: Percentiles,
    /// Mean residual anonymity-set size over real clients (no colluding
    /// hops; the route-group ceiling the padder enforces).
    pub mean_anonymity_set: f64,
    /// Smallest residual anonymity set any real client got.
    pub min_anonymity_set: usize,
}

/// The per-scale sweep shape: clients, thresholds, deadlines (ms), and
/// the arrival window (ms) the clients are spread over.
fn sweep_shape(scale: ExperimentScale) -> (usize, &'static [usize], &'static [u64], u64) {
    match scale {
        ExperimentScale::Paper => (60, &[4, 8, 16], &[5, 20, 80], 50),
        ExperimentScale::Quick => (18, &[3, 6], &[5, 40], 20),
    }
}

/// The model signature the sweep seals and routes.
fn sweep_signature(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Paper => vec![64, 32, 16],
        ExperimentScale::Quick => vec![12, 6],
    }
}

/// A free-route cascade for one sweep point, built from `point_seed`.
fn point_cascade(signature: Vec<usize>, point_seed: u64) -> Result<CascadeCoordinator, String> {
    let topology = Layout::FreeRoute.topology(HOPS, point_seed);
    CascadeCoordinator::launch_seeded(signature, topology, point_seed, FailurePolicy::Abort)
        .map(|(cascade, _)| cascade)
        .map_err(|e| e.to_string())
}

/// Runs the pooled-mixing sweep, its pools observed by `telemetry`.
///
/// # Errors
///
/// Fails when a cascade/wire error surfaces.
///
/// # Panics
///
/// Panics (deliberately — these are the experiment's assertions) if any
/// fired pool misses the k-floor, any dummy-stripped aggregate diverges
/// from its dummy-free reference round, or any client's update is not
/// committed by exactly one fired pool.
pub fn run_with(
    scale: ExperimentScale,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<Vec<PooledRow>, String> {
    let (clients, ks, deadlines_ms, spread_ms) = sweep_shape(scale);
    let spread_ns = spread_ms * 1_000_000;
    let signature = sweep_signature(scale);
    let originals: Vec<ModelParams> = (0..clients)
        .map(|i| synth_update(&signature, seed ^ ((i as u64) << 8)))
        .collect();

    let mut rows = Vec::new();
    for &k in ks {
        for &deadline_ms in deadlines_ms {
            let deadline_ns = deadline_ms * 1_000_000;
            let point_seed = seed ^ ((k as u64) << 24) ^ deadline_ns;

            let mut pooled = PooledCoordinator::new(
                point_cascade(signature.clone(), point_seed)?,
                PoolConfig { k, deadline_ns },
                point_seed ^ 0x5ea1,
            )
            .map_err(|e| e.to_string())?;
            pooled.attach_telemetry(telemetry.clone());
            // The dummy-free reference: an identically-seeded cascade that
            // re-runs every fired pool's real updates without padding.
            let mut reference = point_cascade(signature.clone(), point_seed)?;
            let mut reference_rng = StdRng::seed_from_u64(point_seed ^ 0x0ff);
            let mut link = SimLink::new(
                HOPS,
                point_seed ^ 0x11,
                LinkConfig::default(),
                FlushPolicy::Batched,
                WIRE_TIMEOUT_NS,
            );

            // Trickle the roster through the pool from its clock's start.
            let arrivals = originals
                .iter()
                .enumerate()
                .map(|(i, update)| (i, update.clone(), arrival_offset(i, clients, spread_ns)));
            let fired = pooled
                .trickle(arrivals, &mut link)
                .map_err(|e| e.to_string())?;

            // Audit every firing: k-floor, utility, anonymity, coverage.
            let mut committed = vec![0usize; clients];
            let mut wait_samples = Vec::new();
            let mut anonymity: Vec<usize> = Vec::new();
            let (mut threshold_rounds, mut deadline_rounds, mut flush_rounds) = (0, 0, 0);
            let mut dummies = 0;
            for round in &fired {
                match round.trigger {
                    PoolTrigger::Threshold => threshold_rounds += 1,
                    PoolTrigger::Deadline => deadline_rounds += 1,
                    PoolTrigger::Flush => flush_rounds += 1,
                }
                assert!(
                    round.real() + round.dummies() >= k,
                    "fired pool below the k-floor at k={k}, deadline={deadline_ms}ms: \
                     {} real + {} cover",
                    round.real(),
                    round.dummies()
                );
                let groups = round.audit().groups();
                for group in groups {
                    assert!(
                        group.members() >= k,
                        "route group of {} below the k-floor {k} (deadline {deadline_ms}ms)",
                        group.members()
                    );
                }

                let stripped = round.server_outputs().map_err(|e| e.to_string())?;
                let real_updates: Vec<ModelParams> =
                    round.slots.iter().map(|&s| originals[s].clone()).collect();
                let reference_round = reference
                    .run_round(&real_updates, &mut reference_rng)
                    .map_err(|e| e.to_string())?;
                assert_eq!(
                    ModelParams::mean(&reference_round.mixed),
                    ModelParams::mean(&stripped),
                    "dummy-stripped aggregate diverged from the dummy-free reference \
                     (k={k}, deadline={deadline_ms}ms)"
                );

                let report = analyze_routed_collusion(round.audit(), &[]);
                anonymity.extend_from_slice(report.real_client_anonymity());

                wait_samples.extend(round.waits_ns.iter().map(|&w| w as f64 / 1e6));
                dummies += round.dummies();
                for &slot in &round.slots {
                    committed[slot] += 1;
                }
            }
            assert!(
                committed.iter().all(|&c| c == 1),
                "every client must be committed by exactly one fired pool \
                 (k={k}, deadline={deadline_ms}ms): {committed:?}"
            );

            rows.push(PooledRow {
                k,
                deadline_ms: deadline_ms as f64,
                clients,
                rounds: fired.len(),
                threshold_rounds,
                deadline_rounds,
                flush_rounds,
                dummies,
                dummy_fraction: dummies as f64 / (clients + dummies) as f64,
                mean_pool_depth: clients as f64 / fired.len() as f64,
                wait_ms: Percentiles::from_samples(&wait_samples),
                mean_anonymity_set: anonymity.iter().sum::<usize>() as f64 / anonymity.len() as f64,
                min_anonymity_set: anonymity.iter().copied().min().unwrap_or(0),
            });
        }
    }
    Ok(rows)
}

/// Formats the sweep for the report table.
pub fn rows(sweep: &[PooledRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                format!("{:.0}", r.deadline_ms),
                r.rounds.to_string(),
                format!(
                    "{}/{}/{}",
                    r.threshold_rounds, r.deadline_rounds, r.flush_rounds
                ),
                format!("{:.2}", r.mean_pool_depth),
                format!("{} ({:.0}%)", r.dummies, r.dummy_fraction * 100.0),
                format!("{:.2}", r.wait_ms.p50),
                format!("{:.2}", r.wait_ms.p99),
                format!("{:.1}", r.mean_anonymity_set),
                r.min_anonymity_set.to_string(),
            ]
        })
        .collect()
}

/// Serializes the sweep as the `BENCH_pooled.json` artifact, hand-rolled
/// like every artifact of the offline workspace.
pub fn to_json(sweep: &[PooledRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"pooled\",\n  \"rows\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"k\": {}, \"deadline_ms\": {:.1}, \"clients\": {}, \"rounds\": {}, \
             \"threshold_rounds\": {}, \"deadline_rounds\": {}, \"flush_rounds\": {}, \
             \"dummies\": {}, \"dummy_fraction\": {:.4}, \"mean_pool_depth\": {:.4}, \
             \"wait_ms_p50\": {:.6}, \"wait_ms_p99\": {:.6}, \"wait_ms_p999\": {:.6}, \
             \"mean_anonymity_set\": {:.4}, \"min_anonymity_set\": {}, \
             \"k_floor_held\": true, \"aggregate_bit_identical\": true}}{}\n",
            r.k,
            r.deadline_ms,
            r.clients,
            r.rounds,
            r.threshold_rounds,
            r.deadline_rounds,
            r.flush_rounds,
            r.dummies,
            r.dummy_fraction,
            r.mean_pool_depth,
            r.wait_ms.p50,
            r.wait_ms.p99,
            r.wait_ms.p999,
            r.mean_anonymity_set,
            r.min_anonymity_set,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<PooledRow> {
        run_with(ExperimentScale::Quick, 3, &mixnn_telemetry::noop()).unwrap()
    }

    #[test]
    fn sweep_covers_every_point_and_commits_every_client() {
        let rows = sweep();
        assert_eq!(rows.len(), 4, "2 thresholds x 2 deadlines");
        for r in &rows {
            assert_eq!(r.clients, 18);
            assert!(r.rounds >= 1);
            assert_eq!(
                r.threshold_rounds + r.deadline_rounds + r.flush_rounds,
                r.rounds
            );
            // The k-floor guarantees nobody's set drops below k.
            assert!(
                r.min_anonymity_set >= r.k,
                "k={} min={}",
                r.k,
                r.min_anonymity_set
            );
            assert!(r.mean_anonymity_set >= r.k as f64);
            assert!(r.dummy_fraction >= 0.0 && r.dummy_fraction < 1.0);
        }
        // Free-route grouping splits pools below k, so cover must appear
        // somewhere in the sweep.
        assert!(rows.iter().any(|r| r.dummies > 0));
        // A short deadline with a high threshold forces under-full fires.
        assert!(rows.iter().any(|r| r.deadline_rounds > 0));
    }

    #[test]
    fn tight_deadlines_trade_latency_for_cover() {
        let rows = sweep();
        // Within one threshold, the tighter deadline can only lower (or
        // hold) the observed p99 added latency.
        for k in [3usize, 6] {
            let mut of_k: Vec<&PooledRow> = rows.iter().filter(|r| r.k == k).collect();
            of_k.sort_by(|a, b| a.deadline_ms.total_cmp(&b.deadline_ms));
            for pair in of_k.windows(2) {
                assert!(
                    pair[0].wait_ms.p99 <= pair[1].wait_ms.p99 + 1e-9,
                    "k={k}: deadline {}ms p99 {} > {}ms p99 {}",
                    pair[0].deadline_ms,
                    pair[0].wait_ms.p99,
                    pair[1].deadline_ms,
                    pair[1].wait_ms.p99
                );
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_across_reruns() {
        assert_eq!(sweep(), sweep());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let rows = sweep();
        let json = to_json(&rows);
        assert!(json.contains("\"pooled\""));
        assert_eq!(json.matches("\"k\":").count(), 4);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"k_floor_held\": true"));
        assert!(json.contains("\"aggregate_bit_identical\": true"));
        assert_eq!(to_json(&rows), to_json(&sweep()), "artifact is byte-stable");
    }
}
