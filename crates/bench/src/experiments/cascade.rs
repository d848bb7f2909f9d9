//! The mix-cascade evaluation: utility equivalence, per-hop wire bytes,
//! and the colluding-adversary sweep.
//!
//! For each hop count the experiment drives one full onion round through a
//! linear cascade and
//!
//! 1. **asserts** the server-side aggregate is bit-identical to a sealed
//!    single-proxy `MixnnProxy` round over the same updates (the cascade
//!    must not cost any utility),
//! 2. **asserts** the audit's [`CascadeAudit::unmix`] restores the
//!    original updates bit-exactly (the composed permutation is invertible
//!    by an honest auditor),
//! 3. records the onion bytes each hop received,
//! 4. runs [`analyze_routed_collusion`] for **every** subset of hops,
//!    recording linkability and residual anonymity — and **asserts** the
//!    threat model: proper subsets link nothing, full collusion links all.
//!
//! Results land in `BENCH_cascade.json`, which is a pure function of the
//! seed and scale. What a round *costs* in time is the repo benchmark's to
//! say (`cascade3_small`; ARCHITECTURE.md, "Which number comes from
//! where").
//!
//! [`CascadeAudit::unmix`]: mixnn_cascade::CascadeAudit::unmix

use crate::{ExperimentScale, ExperimentSetup};
use mixnn_attacks::{analyze_routed_collusion, AttackError, RouteGroupView};
use mixnn_cascade::{CascadeCoordinator, FailurePolicy};
use mixnn_core::{MixingStrategy, MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hop counts swept by default (1 is the single-proxy chain).
pub const DEFAULT_HOPS: [usize; 4] = [1, 2, 3, 4];

/// One driven hop-count cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeRoundRow {
    /// Chain length.
    pub hops: usize,
    /// Clients in the round.
    pub clients: usize,
    /// Onion ciphertext bytes each hop received, in chain order.
    pub hop_bytes_received: Vec<u64>,
}

/// One colluding-subset cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CollusionRow {
    /// Chain length.
    pub hops: usize,
    /// The colluding hop indices.
    pub subset: Vec<usize>,
    /// Fraction of (output, layer) pairs linked to a unique client.
    pub linkable_fraction: f64,
    /// Mean residual anonymity-set size.
    pub mean_anonymity_set: f64,
}

/// Everything the cascade sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeSweep {
    /// Per-hop-count round rows.
    pub rounds: Vec<CascadeRoundRow>,
    /// Per-(hop count, subset) adversary rows.
    pub collusion: Vec<CollusionRow>,
}

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
pub(super) fn sweep_signature(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Paper => vec![2048, 2048, 1024, 512, 130],
        ExperimentScale::Quick => vec![64, 32, 16],
    }
}

/// The aggregate of one sealed single-proxy round over `originals` — the
/// baseline every chain and layout must reproduce bit for bit.
pub(super) fn single_proxy_aggregate(
    signature: &[usize],
    seed: u64,
    originals: &[ModelParams],
    telemetry: &Telemetry,
) -> Result<ModelParams, mixnn_fl::FlError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
    let service = AttestationService::new(&mut rng);
    let mut proxy = MixnnProxy::launch(
        MixnnProxyConfig {
            strategy: MixingStrategy::Batch,
            expected_signature: signature.to_vec(),
            seed,
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    proxy.attach_telemetry(telemetry.clone());
    let mixed = MixnnTransport::new(proxy, TransportMode::Encrypted, seed)
        .relay_round(originals.to_vec())?;
    Ok(ModelParams::mean(&mixed).expect("non-empty round"))
}

/// Runs the cascade sweep.
///
/// # Errors
///
/// Propagates cascade/proxy failures as [`AttackError`]-wrapped transport
/// errors.
///
/// # Panics
///
/// Panics (deliberately — these are the experiment's assertions) if the
/// cascade's aggregate diverges from the single-proxy baseline, the
/// audit fails to restore the original updates bit-exactly, or any
/// colluding-subset report violates the threat model (a proper subset
/// linking anything, or full collusion failing to link everything).
pub fn run(
    setup: &ExperimentSetup,
    scale: ExperimentScale,
    clients: usize,
    hop_counts: &[usize],
) -> Result<CascadeSweep, AttackError> {
    run_with(setup, scale, clients, hop_counts, &mixnn_telemetry::noop())
}

/// [`run`] with a telemetry registry attached to the baseline proxy and
/// to every coordinator the sweep drives, so the proxy's and the hops'
/// counters accumulate into the shared registry `eval` exports.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with(
    setup: &ExperimentSetup,
    scale: ExperimentScale,
    clients: usize,
    hop_counts: &[usize],
    telemetry: &Telemetry,
) -> Result<CascadeSweep, AttackError> {
    if clients < 2 {
        // One client has an anonymity set of one no matter the chain; the
        // collusion invariants below would be vacuous lies at C = 1.
        return Err(mixnn_fl::FlError::Transport {
            message: "cascade sweep needs at least 2 clients".to_string(),
        }
        .into());
    }
    let signature = sweep_signature(scale);
    let seed = setup.fl.seed;
    let originals: Vec<ModelParams> = (0..clients)
        .map(|i| synth_update(&signature, seed ^ ((i as u64) << 8)))
        .collect();

    let baseline_aggregate = single_proxy_aggregate(&signature, seed, &originals, telemetry)?;

    let mut rounds = Vec::with_capacity(hop_counts.len());
    let mut collusion = Vec::new();
    for &hops in hop_counts {
        let mut rng = StdRng::seed_from_u64(seed ^ ((hops as u64) << 16));
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::linear(
            signature.clone(),
            hops,
            seed,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .map_err(mixnn_fl::FlError::from)?;
        cascade.attach_telemetry(telemetry.clone());
        let round = cascade
            .run_round(&originals, &mut rng)
            .map_err(mixnn_fl::FlError::from)?;

        // Assertion 1: utility equivalence against the single-proxy
        // baseline, bit for bit, at every hop count.
        let aggregate = ModelParams::mean(&round.mixed).expect("non-empty round");
        assert_eq!(
            baseline_aggregate, aggregate,
            "cascade aggregate diverged from the single-proxy baseline at {hops} hops"
        );
        // Assertion 2: the composed permutation inverts cleanly.
        let restored = round
            .audit
            .unmix(&round.mixed)
            .map_err(mixnn_fl::FlError::from)?;
        assert_eq!(
            originals, restored,
            "unmix failed to restore the originals at {hops} hops"
        );

        rounds.push(CascadeRoundRow {
            hops,
            clients,
            hop_bytes_received: cascade
                .hop_stats()
                .iter()
                .map(|s| s.bytes_received)
                .collect(),
        });

        // Every colluding subset of this chain, adversary-evaluated on the
        // round's actual plans (a linear round is one route group).
        for mask in 0u32..(1 << hops) {
            let colluding: Vec<usize> = (0..hops).filter(|h| mask & (1 << h) != 0).collect();
            let views: Vec<RouteGroupView> = round
                .audit
                .groups()
                .iter()
                .map(|g| RouteGroupView::for_group(g.slots(), g.route(), g.plans(), &colluding))
                .collect();
            let report = analyze_routed_collusion(&views, clients, signature.len());
            // Assertion 3: the cascade's threat-model claim, on this
            // round's actual plans — only full collusion links anything.
            if colluding.len() == hops {
                assert_eq!(
                    report.linkable_fraction, 1.0,
                    "all {hops} hops colluding must deanonymize the round"
                );
            } else {
                assert_eq!(
                    report.linkable_fraction, 0.0,
                    "proper subset {colluding:?} of {hops} hops linked something"
                );
            }
            collusion.push(CollusionRow {
                hops,
                subset: colluding,
                linkable_fraction: report.linkable_fraction,
                mean_anonymity_set: report.mean_anonymity_set,
            });
        }
    }

    Ok(CascadeSweep { rounds, collusion })
}

/// Formats the per-hop byte rows for the report table.
pub fn round_rows(sweep: &CascadeSweep) -> Vec<Vec<String>> {
    sweep
        .rounds
        .iter()
        .flat_map(|r| {
            r.hop_bytes_received
                .iter()
                .enumerate()
                .map(|(hop, &bytes)| {
                    vec![
                        r.hops.to_string(),
                        hop.to_string(),
                        crate::report::fmt_mb(bytes as usize),
                    ]
                })
        })
        .collect()
}

/// Formats the collusion rows for the report table.
pub fn collusion_rows(sweep: &CascadeSweep) -> Vec<Vec<String>> {
    sweep
        .collusion
        .iter()
        .map(|r| {
            vec![
                r.hops.to_string(),
                if r.subset.is_empty() {
                    "∅".to_string()
                } else {
                    format!(
                        "{{{}}}",
                        r.subset
                            .iter()
                            .map(usize::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                },
                format!("{:.2}", r.linkable_fraction),
                format!("{:.1}", r.mean_anonymity_set),
            ]
        })
        .collect()
}

/// Serializes the sweep as the `BENCH_cascade.json` artifact — hand-rolled
/// because the offline serde shim does not serialize.
pub fn to_json(sweep: &CascadeSweep, clients: usize) -> String {
    let mut out =
        format!("{{\n  \"experiment\": \"cascade\",\n  \"clients\": {clients},\n  \"rows\": [\n");
    for (i, r) in sweep.rounds.iter().enumerate() {
        let per_hop: Vec<String> = r
            .hop_bytes_received
            .iter()
            .enumerate()
            .map(|(hop, bytes)| format!("{{\"hop\": {hop}, \"bytes_received\": {bytes}}}"))
            .collect();
        let subsets: Vec<String> = sweep
            .collusion
            .iter()
            .filter(|c| c.hops == r.hops)
            .map(|c| {
                format!(
                    "{{\"subset\": [{}], \"linkable_fraction\": {:.4}, \
                     \"mean_anonymity_set\": {:.4}}}",
                    c.subset
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    c.linkable_fraction,
                    c.mean_anonymity_set
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"hops\": {}, \"aggregate_bit_identical\": true, \
             \"unmix_bit_identical\": true,\n     \
             \"per_hop\": [{}],\n     \"collusion\": [{}]}}{}\n",
            r.hops,
            per_hop.join(", "),
            subsets.join(", "),
            if i + 1 == sweep.rounds.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;

    fn sweep() -> CascadeSweep {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 3);
        run(&setup, ExperimentScale::Quick, 6, &[1, 2, 3]).unwrap()
    }

    #[test]
    fn sweep_covers_every_hop_count_and_subset() {
        let sweep = sweep();
        assert_eq!(sweep.rounds.len(), 3);
        // 2^1 + 2^2 + 2^3 subsets.
        assert_eq!(sweep.collusion.len(), 2 + 4 + 8);
        for r in &sweep.rounds {
            assert_eq!(r.hop_bytes_received.len(), r.hops);
            // Each hop strips one envelope layer: bytes fall along the chain.
            assert!(r.hop_bytes_received.windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn only_full_collusion_links_anything() {
        let sweep = sweep();
        for c in &sweep.collusion {
            if c.subset.len() == c.hops {
                assert_eq!(
                    c.linkable_fraction, 1.0,
                    "full collusion at {} hops",
                    c.hops
                );
                assert_eq!(c.mean_anonymity_set, 1.0);
            } else {
                assert_eq!(
                    c.linkable_fraction, 0.0,
                    "proper subset {:?} of {} hops linked something",
                    c.subset, c.hops
                );
                assert_eq!(c.mean_anonymity_set, 6.0);
            }
        }
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let sweep = sweep();
        let json = to_json(&sweep, 6);
        assert!(json.contains("\"cascade\""));
        assert_eq!(json.matches("\"hops\"").count(), 3);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"aggregate_bit_identical\": true"));
    }
}
