//! The cascade-layout evaluation: linear vs stratified vs free-route
//! mixing, with per-hop wire bytes and per-client anonymity-set
//! distributions.
//!
//! For each hop count and each of the three shipped layouts (at one hop
//! the chain alone — the other two cannot differ from it) the experiment
//! drives one full onion round and
//!
//! 1. **asserts** the server-side aggregate is bit-identical to a sealed
//!    single-proxy `MixnnProxy` round over the same updates (no layout
//!    may cost any utility),
//! 2. **asserts** the transcript's `RoundTranscript::unmix` restores the original
//!    updates bit-exactly (the per-route-group permutations compose into
//!    an invertible assignment),
//! 3. records the round's route-group structure (group count, sizes and
//!    mean route length — the hops an update actually pays) and the onion
//!    bytes each hop received,
//! 4. runs [`analyze_routed_collusion`] for **every** subset of hops and
//!    **asserts** the routed threat model: a client is linked exactly
//!    when the colluding subset covers its whole route *or* its route
//!    group is a singleton; otherwise its anonymity set is its route
//!    group, whole and intact.
//!
//! Results — including the per-client anonymity-set distribution of every
//! (layout, hops, subset) cell — land in `BENCH_topology.json`, a pure
//! function of the seed and scale (round *time* per layout is the repo
//! benchmark's: `cascade3_small`, `pooled_strat_small`). The
//! distributions are the experiment's point: the linear cascade holds the
//! full round as everyone's anonymity set until total collusion, while
//! stratified and free-route layouts trade exactly that set size for
//! shorter routes.

use crate::{ExperimentScale, ExperimentSetup, Layout};
use mixnn_attacks::{analyze_routed_collusion, AttackError};
use mixnn_cascade::{CascadeCoordinator, FailurePolicy};
use mixnn_core::{MixnnProxyConfig, MixnnTransport};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hop counts swept by default (1 is the single-proxy chain; 2 is the
/// shortest where layouts can differ).
pub const DEFAULT_HOPS: [usize; 4] = [1, 2, 3, 4];

/// One colluding-subset cell of one (layout, hops) round.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyCollusionRow {
    /// The colluding hop indices.
    pub subset: Vec<usize>,
    /// Fraction of (output, layer) pairs linked to a unique client.
    pub linkable_fraction: f64,
    /// Mean per-client residual anonymity-set size.
    pub mean_anonymity_set: f64,
    /// Clients whose residual anonymity set is a singleton.
    pub linked_clients: usize,
    /// Ascending `(anonymity-set size, client count)` pairs — the
    /// per-client distribution.
    pub distribution: Vec<(usize, usize)>,
}

/// One measured (layout, hop count) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyRow {
    /// Layout name (`linear`, `stratified`, `free-route`).
    pub layout: String,
    /// Total hops the layout spans.
    pub hops: usize,
    /// Clients in the round.
    pub clients: usize,
    /// Number of route groups the round split into.
    pub route_groups: usize,
    /// Group sizes, in route order.
    pub group_sizes: Vec<usize>,
    /// Mean route length over clients (the latency proxy: hops an update
    /// actually pays).
    pub mean_route_len: f64,
    /// Onion ciphertext bytes each hop received, in hop-index order (a hop
    /// off every route reads 0).
    pub hop_bytes_received: Vec<u64>,
    /// One row per colluding subset of the hops.
    pub collusion: Vec<TopologyCollusionRow>,
}

/// Everything the topology sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySweep {
    /// One row per (layout, hop count).
    pub rows: Vec<TopologyRow>,
}

/// One seeded synthetic update of the given layer signature.
pub(super) fn synth_update(signature: &[usize], seed: u64) -> ModelParams {
    let mut rng = StdRng::seed_from_u64(seed);
    ModelParams::from_layers(
        signature
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect(),
    )
}

/// The model signature the sweep routes: §6.5-shaped at paper scale, tiny
/// for smoke runs.
fn sweep_signature(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Paper => vec![2048, 2048, 1024, 512, 130],
        ExperimentScale::Quick => vec![64, 32, 16],
    }
}

/// The aggregate of one sealed single-proxy round over `originals` — the
/// baseline every layout must reproduce bit for bit.
fn single_proxy_aggregate(
    signature: &[usize],
    seed: u64,
    originals: &[ModelParams],
    telemetry: &Telemetry,
) -> Result<ModelParams, mixnn_fl::FlError> {
    let mut transport = MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: signature.to_vec(),
            seed,
            ..MixnnProxyConfig::default()
        },
        seed,
    );
    transport.attach_telemetry(telemetry.clone());
    let mixed = transport.relay_round(originals.to_vec())?;
    Ok(ModelParams::mean(&mixed).expect("non-empty round"))
}

/// Runs the topology sweep with `telemetry` attached to the baseline
/// proxy and to every coordinator it drives, so the proxy's and the hops'
/// counters accumulate into the shared registry `eval` exports.
///
/// # Errors
///
/// Propagates cascade/proxy failures as [`AttackError`]-wrapped transport
/// errors.
///
/// # Panics
///
/// Panics (deliberately — these are the experiment's assertions) if any
/// layout's aggregate diverges from the single-proxy baseline, the audit
/// fails to restore the original updates bit-exactly, or any
/// colluding-subset report violates the routed threat model (a client
/// linked without its route covered and its group non-singleton, or an
/// uncovered client's anonymity set smaller than its route group).
pub fn run_with(
    setup: &ExperimentSetup,
    scale: ExperimentScale,
    clients: usize,
    hop_counts: &[usize],
    telemetry: &Telemetry,
) -> Result<TopologySweep, AttackError> {
    if clients < 2 {
        // One client has an anonymity set of one no matter the layout; the
        // collusion invariants below would be vacuous lies at C = 1.
        return Err(mixnn_fl::FlError::Transport {
            message: "topology sweep needs at least 2 clients".to_string(),
        }
        .into());
    }
    let signature = sweep_signature(scale);
    let seed = setup.fl.seed;
    let originals: Vec<ModelParams> = (0..clients)
        .map(|i| synth_update(&signature, seed ^ ((i as u64) << 8)))
        .collect();

    let baseline_aggregate = single_proxy_aggregate(&signature, seed, &originals, telemetry)?;

    let mut rows = Vec::new();
    for &hops in hop_counts {
        for kind in Layout::distinct_at(hops) {
            let topology = kind.topology(hops, seed);
            let layout = topology.name().to_string();
            let (mut cascade, _) = CascadeCoordinator::launch_seeded(
                signature.clone(),
                topology,
                seed,
                FailurePolicy::Abort,
            )
            .map_err(mixnn_fl::FlError::from)?;
            cascade.attach_telemetry(telemetry.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ ((hops as u64) << 16));
            let round = cascade
                .run_round(&originals, &mut rng)
                .map_err(mixnn_fl::FlError::from)?;

            // Assertion 1: utility equivalence against the single-proxy
            // baseline, bit for bit, for every layout.
            let aggregate = ModelParams::mean(&round.mixed).expect("non-empty round");
            assert_eq!(
                baseline_aggregate, aggregate,
                "{layout} aggregate diverged from the single-proxy baseline at {hops} hops"
            );
            // Assertion 2: the per-group permutations invert cleanly.
            let restored = round
                .audit
                .unmix(&round.mixed)
                .map_err(mixnn_fl::FlError::from)?;
            assert_eq!(
                originals, restored,
                "unmix failed to restore the originals ({layout}, {hops} hops)"
            );

            let groups = round.audit.groups();
            let group_sizes: Vec<usize> = groups.iter().map(|g| g.members()).collect();
            let mean_route_len = groups
                .iter()
                .map(|g| (g.route().len() * g.members()) as f64)
                .sum::<f64>()
                / clients as f64;

            // Every colluding subset, adversary-evaluated per route group
            // on the round's actual plans.
            let mut collusion = Vec::with_capacity(1 << hops);
            for mask in 0u32..(1 << hops) {
                let colluding: Vec<usize> = (0..hops).filter(|h| mask & (1 << h) != 0).collect();
                let report = analyze_routed_collusion(&round.audit, &colluding);

                // Assertion 3: the routed threat model, client by client —
                // linked exactly when the subset covers the whole route or
                // the route group is a singleton; otherwise the anonymity
                // set is the whole route group.
                for group in groups {
                    let covered = group.route().iter().all(|h| colluding.contains(h));
                    let expected = if covered { 1 } else { group.members() };
                    for &slot in group.slots() {
                        assert_eq!(
                            report.per_client_anonymity[slot],
                            expected,
                            "{layout} at {hops} hops, subset {colluding:?}: client {slot} \
                             (route {:?}, group of {}) has the wrong anonymity set",
                            group.route(),
                            group.members()
                        );
                    }
                }

                collusion.push(TopologyCollusionRow {
                    subset: colluding,
                    linkable_fraction: report.linkable_fraction,
                    mean_anonymity_set: report.mean_anonymity_set,
                    linked_clients: report.linked_clients(),
                    distribution: report.anonymity_distribution(),
                });
            }

            rows.push(TopologyRow {
                layout,
                hops,
                clients,
                route_groups: groups.len(),
                group_sizes,
                mean_route_len,
                hop_bytes_received: cascade
                    .hop_stats()
                    .iter()
                    .map(|s| s.bytes_received)
                    .collect(),
                collusion,
            });
        }
    }
    Ok(TopologySweep { rows })
}

/// Formats the per-(layout, hops) structure rows for the report table.
pub fn structure_rows(sweep: &TopologySweep) -> Vec<Vec<String>> {
    sweep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.layout.clone(),
                r.hops.to_string(),
                r.route_groups.to_string(),
                format!("{:?}", r.group_sizes),
                format!("{:.2}", r.mean_route_len),
                r.hop_bytes_received
                    .iter()
                    .map(|&bytes| crate::report::fmt_mb(bytes as usize))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]
        })
        .collect()
}

/// Formats the collusion rows for the report table.
pub fn collusion_rows(sweep: &TopologySweep) -> Vec<Vec<String>> {
    sweep
        .rows
        .iter()
        .flat_map(|r| {
            r.collusion.iter().map(move |c| {
                vec![
                    r.layout.clone(),
                    r.hops.to_string(),
                    if c.subset.is_empty() {
                        "∅".to_string()
                    } else {
                        format!(
                            "{{{}}}",
                            c.subset
                                .iter()
                                .map(usize::to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    },
                    format!("{:.2}", c.linkable_fraction),
                    c.linked_clients.to_string(),
                    format!("{:.1}", c.mean_anonymity_set),
                    c.distribution
                        .iter()
                        .map(|(size, count)| format!("{count}×{size}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                ]
            })
        })
        .collect()
}

/// Serializes the sweep as the `BENCH_topology.json` artifact, hand-rolled
/// like every artifact of the offline workspace.
pub fn to_json(sweep: &TopologySweep, clients: usize) -> String {
    let mut out =
        format!("{{\n  \"experiment\": \"topology\",\n  \"clients\": {clients},\n  \"rows\": [\n");
    for (i, r) in sweep.rows.iter().enumerate() {
        let sizes: Vec<String> = r.group_sizes.iter().map(usize::to_string).collect();
        let per_hop: Vec<String> = r
            .hop_bytes_received
            .iter()
            .enumerate()
            .map(|(hop, bytes)| format!("{{\"hop\": {hop}, \"bytes_received\": {bytes}}}"))
            .collect();
        let subsets: Vec<String> = r
            .collusion
            .iter()
            .map(|c| {
                let dist: Vec<String> = c
                    .distribution
                    .iter()
                    .map(|(size, count)| format!("[{size}, {count}]"))
                    .collect();
                format!(
                    "{{\"subset\": [{}], \"linkable_fraction\": {:.4}, \
                     \"linked_clients\": {}, \"mean_anonymity_set\": {:.4}, \
                     \"anonymity_distribution\": [{}]}}",
                    c.subset
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    c.linkable_fraction,
                    c.linked_clients,
                    c.mean_anonymity_set,
                    dist.join(", ")
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"layout\": \"{}\", \"hops\": {}, \"route_groups\": {}, \
             \"group_sizes\": [{}], \"mean_route_len\": {:.4}, \
             \"aggregate_bit_identical\": true, \"unmix_bit_identical\": true,\n     \
             \"per_hop\": [{}],\n     \
             \"collusion\": [{}]}}{}\n",
            r.layout,
            r.hops,
            r.route_groups,
            sizes.join(", "),
            r.mean_route_len,
            per_hop.join(", "),
            subsets.join(", "),
            if i + 1 == sweep.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;

    fn sweep() -> TopologySweep {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 3);
        let telemetry = mixnn_telemetry::noop();
        run_with(&setup, ExperimentScale::Quick, 8, &[1, 2, 3], &telemetry).unwrap()
    }

    #[test]
    fn sweep_covers_every_layout_hop_count_and_subset() {
        let sweep = sweep();
        assert_eq!(
            sweep.rows.len(),
            7,
            "the chain at 1 hop, 3 layouts at 2 and 3"
        );
        assert_eq!(
            Layout::distinct_at(1).len(),
            1,
            "one hop is the chain alone"
        );
        assert_eq!(sweep.rows[0].layout, "linear");
        for r in &sweep.rows {
            assert_eq!(r.collusion.len(), 1 << r.hops);
            assert_eq!(r.group_sizes.iter().sum::<usize>(), 8);
            assert!(r.mean_route_len >= 1.0 && r.mean_route_len <= r.hops as f64);
            assert_eq!(r.hop_bytes_received.len(), r.hops);
        }
        for linear in sweep.rows.iter().filter(|r| r.layout == "linear") {
            assert_eq!(linear.route_groups, 1, "the chain is one route group");
            assert_eq!(linear.mean_route_len, linear.hops as f64);
            // Each hop strips one envelope layer: bytes fall along the chain.
            assert!(linear.hop_bytes_received.windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn linear_rows_reproduce_the_cascade_threat_model() {
        // Only full collusion links anything — at one hop, the hop itself.
        let sweep = sweep();
        for r in sweep.rows.iter().filter(|r| r.layout == "linear") {
            for c in &r.collusion {
                if c.subset.len() == r.hops {
                    assert_eq!(
                        c.linkable_fraction, 1.0,
                        "full collusion at {} hops",
                        r.hops
                    );
                    assert_eq!(c.linked_clients, 8);
                    assert_eq!(c.mean_anonymity_set, 1.0);
                } else {
                    assert_eq!(c.linkable_fraction, 0.0, "proper subset {:?}", c.subset);
                    assert_eq!(c.linked_clients, 0, "proper subset {:?}", c.subset);
                    assert_eq!(c.mean_anonymity_set, 8.0);
                }
            }
        }
    }

    #[test]
    fn non_uniform_rows_expose_the_route_group_ceiling() {
        let sweep = sweep();
        // With nobody colluding, a client's anonymity set is exactly its
        // route group — so the no-collusion distribution must mirror the
        // group sizes.
        for r in &sweep.rows {
            let none = &r.collusion[0];
            assert!(none.subset.is_empty());
            let mut from_groups: Vec<usize> = r
                .group_sizes
                .iter()
                .flat_map(|&s| std::iter::repeat_n(s, s))
                .collect();
            from_groups.sort_unstable();
            let mut from_dist: Vec<usize> = none
                .distribution
                .iter()
                .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
                .collect();
            from_dist.sort_unstable();
            assert_eq!(from_groups, from_dist, "{} at {} hops", r.layout, r.hops);
        }
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let sweep = sweep();
        let json = to_json(&sweep, 8);
        assert!(json.contains("\"topology\""));
        assert_eq!(json.matches("\"layout\"").count(), 7);
        assert_eq!(json.matches("\"per_hop\"").count(), 7);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"anonymity_distribution\""));
        assert!(json.contains("\"aggregate_bit_identical\": true"));
    }
}
