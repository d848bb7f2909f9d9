//! The mix-cascade evaluation: utility equivalence, per-hop cost, and the
//! colluding-adversary sweep.
//!
//! For each hop count the experiment drives one full onion round through a
//! linear cascade and
//!
//! 1. **asserts** the server-side aggregate is bit-identical to a
//!    single-proxy `MixnnProxy` round over the same updates (the cascade
//!    must not cost any utility),
//! 2. **asserts** the audit's [`CascadeAudit::unmix`] restores the
//!    original updates bit-exactly (the composed permutation is invertible
//!    by an honest auditor),
//! 3. measures wall-clock round latency and the per-hop §6.5-style cost
//!    breakdown,
//! 4. runs [`analyze_collusion`] for **every** subset of hops, recording
//!    linkability and residual anonymity — and **asserts** the threat
//!    model: proper subsets link nothing, full collusion links all.
//!
//! Results land in `BENCH_cascade.json`.
//!
//! [`CascadeAudit::unmix`]: mixnn_cascade::CascadeAudit::unmix

use crate::report::Percentiles;
use crate::{ExperimentScale, ExperimentSetup};
use mixnn_attacks::{analyze_collusion, AttackError};
use mixnn_cascade::{CascadeCoordinator, FailurePolicy};
use mixnn_core::{MixPlan, MixingStrategy, MixnnProxy, MixnnProxyConfig};
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The hop counts swept by default (1 is the single-proxy chain).
pub const DEFAULT_HOPS: [usize; 4] = [1, 2, 3, 4];

/// Per-hop cost of one measured round.
#[derive(Debug, Clone, PartialEq)]
pub struct HopCost {
    /// Hop index in the chain.
    pub hop: usize,
    /// Seconds this hop spent unwrapping envelopes.
    pub decrypt_seconds: f64,
    /// Seconds spent decoding/validating framing.
    pub store_seconds: f64,
    /// Seconds spent drawing and applying the mixing plan.
    pub mix_seconds: f64,
    /// Onion ciphertext bytes this hop received.
    pub bytes_received: u64,
}

/// One measured hop-count cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadePerfRow {
    /// Chain length.
    pub hops: usize,
    /// Clients in the round.
    pub clients: usize,
    /// Wall-clock seconds for the whole round (sealing included).
    pub round_seconds: f64,
    /// Updates per second of round wall-clock.
    pub updates_per_sec: f64,
    /// The per-hop cost breakdown.
    pub per_hop: Vec<HopCost>,
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
    /// Per-hop-count performance rows.
    pub perf: Vec<CascadePerfRow>,
    /// Per-(hop count, subset) adversary rows.
    pub collusion: Vec<CollusionRow>,
}

fn synth_update(signature: &[usize], seed: u64) -> ModelParams {
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

/// Runs the cascade sweep. The per-hop-count round duration is the median
/// of `repeats` identical re-runs ([`Percentiles::from_samples`]).
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
    repeats: usize,
) -> Result<CascadeSweep, AttackError> {
    run_with(
        setup,
        scale,
        clients,
        hop_counts,
        repeats,
        &mixnn_telemetry::noop(),
    )
}

/// [`run`] with a telemetry registry attached to every coordinator the
/// sweep drives, so round/group/hop counters and span timings accumulate
/// into the shared registry `eval` exports.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with(
    setup: &ExperimentSetup,
    scale: ExperimentScale,
    clients: usize,
    hop_counts: &[usize],
    repeats: usize,
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

    // The single-proxy baseline aggregate every chain must reproduce.
    let baseline_aggregate = {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let service = AttestationService::new(&mut rng);
        let mut proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                strategy: MixingStrategy::Batch,
                expected_signature: signature.clone(),
                seed,
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );
        let mixed = proxy
            .mix_plaintext_round(originals.clone())
            .map_err(mixnn_fl::FlError::from)?;
        ModelParams::mean(&mixed).expect("non-empty round")
    };

    let mut perf = Vec::with_capacity(hop_counts.len());
    let mut collusion = Vec::new();
    for &hops in hop_counts {
        // Each repetition rebuilds the cascade from the same seeds, so
        // every rep runs the identical round (bit for bit) and the hop
        // stats below describe exactly one round; the reported duration
        // is the median of the repetitions, not a lucky or unlucky one.
        let mut round_samples = Vec::with_capacity(repeats.max(1));
        let mut last = None;
        for _ in 0..repeats.max(1) {
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

            let t0 = Instant::now();
            let round = cascade
                .run_round(&originals, &mut rng)
                .map_err(mixnn_fl::FlError::from)?;
            round_samples.push(t0.elapsed().as_secs_f64());
            last = Some((cascade, round));
        }
        let (cascade, round) = last.expect("at least one repetition ran");
        let round_seconds = Percentiles::from_samples(&round_samples).p50;

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

        perf.push(CascadePerfRow {
            hops,
            clients,
            round_seconds,
            updates_per_sec: if round_seconds > 0.0 {
                clients as f64 / round_seconds
            } else {
                0.0
            },
            per_hop: cascade
                .hop_stats()
                .iter()
                .enumerate()
                .map(|(hop, s)| HopCost {
                    hop,
                    decrypt_seconds: s.decrypt_seconds,
                    store_seconds: s.store_seconds,
                    mix_seconds: s.mix_seconds,
                    bytes_received: s.bytes_received,
                })
                .collect(),
        });

        // Every colluding subset of this chain, adversary-evaluated on the
        // round's actual plans.
        let plans = round.audit.plans().map_err(mixnn_fl::FlError::from)?;
        for mask in 0u32..(1 << hops) {
            let views: Vec<Option<&MixPlan>> = (0..hops)
                .map(|h| (mask & (1 << h) != 0).then_some(&plans[h]))
                .collect();
            let report = analyze_collusion(&views, clients, signature.len());
            // Assertion 3: the cascade's threat-model claim, on this
            // round's actual plans — only full collusion links anything.
            if report.colluding_hops.len() == hops {
                assert_eq!(
                    report.linkable_fraction, 1.0,
                    "all {hops} hops colluding must deanonymize the round"
                );
            } else {
                assert_eq!(
                    report.linkable_fraction, 0.0,
                    "proper subset {:?} of {hops} hops linked something",
                    report.colluding_hops
                );
            }
            collusion.push(CollusionRow {
                hops,
                subset: report.colluding_hops,
                linkable_fraction: report.linkable_fraction,
                mean_anonymity_set: report.mean_anonymity_set,
            });
        }
    }

    Ok(CascadeSweep { perf, collusion })
}

/// Formats the performance rows for the report table.
pub fn perf_rows(sweep: &CascadeSweep) -> Vec<Vec<String>> {
    sweep
        .perf
        .iter()
        .flat_map(|r| {
            r.per_hop.iter().map(move |h| {
                vec![
                    r.hops.to_string(),
                    h.hop.to_string(),
                    crate::report::fmt_ms(h.decrypt_seconds),
                    crate::report::fmt_ms(h.store_seconds),
                    crate::report::fmt_ms(h.mix_seconds),
                    format!("{:.1}", h.bytes_received as f64 / (1024.0 * 1024.0)),
                    crate::report::fmt_ms(r.round_seconds),
                    format!("{:.1}", r.updates_per_sec),
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
    for (i, r) in sweep.perf.iter().enumerate() {
        let per_hop: Vec<String> = r
            .per_hop
            .iter()
            .map(|h| {
                format!(
                    "{{\"hop\": {}, \"decrypt_seconds\": {:.6}, \"store_seconds\": {:.6}, \
                     \"mix_seconds\": {:.6}, \"bytes_received\": {}}}",
                    h.hop, h.decrypt_seconds, h.store_seconds, h.mix_seconds, h.bytes_received
                )
            })
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
            "    {{\"hops\": {}, \"round_seconds\": {:.6}, \"updates_per_sec\": {:.2}, \
             \"aggregate_bit_identical\": true, \"unmix_bit_identical\": true,\n     \
             \"per_hop\": [{}],\n     \"collusion\": [{}]}}{}\n",
            r.hops,
            r.round_seconds,
            r.updates_per_sec,
            per_hop.join(", "),
            subsets.join(", "),
            if i + 1 == sweep.perf.len() { "" } else { "," }
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
        run(&setup, ExperimentScale::Quick, 6, &[1, 2, 3], 2).unwrap()
    }

    #[test]
    fn sweep_covers_every_hop_count_and_subset() {
        let sweep = sweep();
        assert_eq!(sweep.perf.len(), 3);
        // 2^1 + 2^2 + 2^3 subsets.
        assert_eq!(sweep.collusion.len(), 2 + 4 + 8);
        for r in &sweep.perf {
            assert_eq!(r.per_hop.len(), r.hops);
            assert!(r.round_seconds > 0.0);
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
