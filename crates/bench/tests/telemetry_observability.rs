//! The telemetry layer's two headline guarantees, checked end to end:
//!
//! 1. **Determinism.** Metric snapshots are a pure function of the work:
//!    the Prometheus text of a cascade run is bit-identical across reruns
//!    of one seed (under a frozen virtual clock, which removes the one
//!    legitimately wall-clock-shaped output), and the load generator —
//!    which runs entirely in virtual time — reproduces its whole export
//!    byte for byte across reruns.
//!
//!    And no silent zeros: the registry `eval topology` embeds counts the
//!    single-proxy baseline it ran, because that baseline is the sealed,
//!    telemetered round and not a plaintext shortcut around the hooks.
//!
//! 2. **Privacy.** Exporting telemetry hands the colluding adversary
//!    nothing: the round itself is unperturbed by attachment (same seeds ⇒
//!    same audit ⇒ the `mixnn_attacks` report with telemetry in hand
//!    equals the no-telemetry report, link for link), the exported text
//!    carries no per-client/per-route label axis, and the snapshot is
//!    invariant under permutation of the client→slot assignment — so
//!    conditioning on it cannot shrink any anonymity set.

use mixnn_attacks::analyze_routed_collusion;
use mixnn_bench::experiments::topology;
use mixnn_bench::{DatasetKind, ExperimentScale, ExperimentSetup};
use mixnn_cascade::{
    CascadeCoordinator, CascadeRound, CascadeTopology, CascadeTransport, FailurePolicy, FreeRoute,
    LinearChain, StratifiedLayout,
};
use mixnn_core::{InProcessLink, MixnnProxyConfig, MixnnTransport, RoundTranscript};
use mixnn_fl::{ModelUpdate, UpdateTransport};
use mixnn_net::{run_load_with, FlushPolicy, LinkConfig, LoadConfig, NetCascadeTransport};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{
    validate_prometheus, Counter, Registry, Telemetry, VirtualClock, FORBIDDEN_LABEL_AXES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 6;
const SIGNATURE: [usize; 3] = [4, 2, 3];

fn synth_rounds(rng: &mut StdRng, rounds: usize) -> Vec<Vec<ModelParams>> {
    (0..rounds)
        .map(|_| {
            (0..CLIENTS)
                .map(|_| {
                    ModelParams::from_layers(
                        SIGNATURE
                            .iter()
                            .map(|&len| {
                                LayerParams::from_values(
                                    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                                )
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Drives three rounds through a fresh linear cascade, with a frozen
/// virtual clock so every span duration is zero, and returns (prometheus
/// text, round outputs).
fn drive_cascade(seed: u64) -> (String, Vec<CascadeRound>) {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let chain = Box::new(LinearChain::new(3));
    let (mut cascade, _) =
        CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), chain, seed, FailurePolicy::Abort)
            .unwrap();
    cascade.attach_telemetry(telemetry.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let outputs = synth_rounds(&mut rng, 3)
        .iter()
        .map(|round| cascade.run_round(round, &mut rng).unwrap())
        .collect();
    (telemetry.snapshot().to_prometheus(), outputs)
}

#[test]
fn cascade_snapshots_reproduce_bit_for_bit_across_reruns() {
    let (prom, rounds) = drive_cascade(404);
    validate_prometheus(&prom).unwrap();
    assert!(
        prom.contains("mixnn_cascade_rounds_completed_total 3"),
        "the run should have recorded its three rounds"
    );
    assert_eq!((prom, rounds), drive_cascade(404));
}

#[test]
fn cascade_experiment_telemetry_counts_its_single_proxy_baseline() {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 42);
    let sweep =
        topology::run_with(&setup, ExperimentScale::Quick, CLIENTS, &[1, 2], &telemetry).unwrap();
    // The chain at 1 hop, all three layouts at 2: one round each, and
    // every client's update ingested once per hop of its route.
    assert_eq!(sweep.rows.len(), 4);
    let hop_ingests = sweep
        .rows
        .iter()
        .map(|r| r.mean_route_len * CLIENTS as f64)
        .sum::<f64>()
        .round() as u64;
    let prom = telemetry.snapshot().to_prometheus();
    for line in [
        // The baseline proxy: every update committed, one batch mixed.
        format!("mixnn_core_updates_committed_total {CLIENTS}"),
        format!("mixnn_core_envelopes_opened_total {CLIENTS}"),
        "mixnn_core_batches_mixed_total 1".to_string(),
        "mixnn_cascade_rounds_completed_total 4".to_string(),
        format!("mixnn_cascade_updates_ingested_total {hop_ingests}"),
    ] {
        assert!(
            prom.lines().any(|l| l == line),
            "missing `{line}` in:\n{prom}"
        );
    }
}

/// `mixnn_cascade_envelopes_opened_total` makes the wire format's saving
/// visible: a committed round of C onions of L layers over H-hop routes
/// opens one entry envelope per onion and one per layer at each later hop
/// — C·(1 + L·(H − 1)), where version 1 opened C·L·H — on every layout,
/// cover slots included.
#[test]
fn envelopes_opened_counts_one_entry_envelope_per_onion() {
    // The repo benchmark's `cascade3_small` shape: 704, was 960.
    let paper: Vec<usize> = vec![2048, 2048, 1024, 512, 130];
    let drive = |signature: &[usize],
                 topology: Box<dyn CascadeTopology>,
                 clients: usize,
                 floor: Option<usize>| {
        let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
        let (mut cascade, _) = CascadeCoordinator::launch_seeded(
            signature.to_vec(),
            topology,
            7,
            FailurePolicy::Abort,
        )
        .unwrap();
        cascade.attach_telemetry(telemetry.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let updates: Vec<ModelParams> = (0..clients)
            .map(|_| {
                let layers = signature
                    .iter()
                    .map(|&n| LayerParams::from_values(vec![0.5; n]));
                ModelParams::from_layers(layers.collect())
            })
            .collect();
        let driven = match floor {
            None => {
                cascade.run_round(&updates, &mut rng).unwrap();
                clients
            }
            Some(k) => {
                let padded = cascade
                    .run_padded_round_over(&updates, k, &mut rng, &mut InProcessLink)
                    .unwrap();
                assert!(padded.dummies() > 0, "the floor must inject cover");
                clients + padded.dummies()
            }
        };
        let prom = telemetry.snapshot().to_prometheus();
        let opened = telemetry.counter(Counter::CascadeEnvelopesOpened);
        assert!(
            prom.lines()
                .any(|l| l == format!("mixnn_cascade_envelopes_opened_total {opened}")),
            "the export must carry the family:\n{prom}"
        );
        (opened, driven as u64)
    };

    let (opened, driven) = drive(&paper, Box::new(LinearChain::new(3)), 64, None);
    assert_eq!((opened, driven), (704, 64));
    for hops in 1..=4u64 {
        let chain = Box::new(LinearChain::new(hops as usize));
        let (opened, driven) = drive(&SIGNATURE, chain, CLIENTS, None);
        assert_eq!(opened, driven * (1 + 3 * (hops - 1)), "linear, {hops} hops");
    }
    // Stratified 2x2: every route is two hops, whatever the grouping.
    let strata = || Box::new(StratifiedLayout::evenly(4, 2, 77));
    let (opened, driven) = drive(&SIGNATURE, strata(), 12, None);
    assert_eq!(opened, driven * (1 + 3));
    // Padded: cover slots are sealed and opened like any client's onion.
    let (opened, driven) = drive(&SIGNATURE, strata(), 5, Some(8));
    assert!(driven > 5);
    assert_eq!(opened, driven * (1 + 3));
}

#[test]
fn load_generator_telemetry_reproduces_byte_for_byte_across_reruns() {
    let run = || {
        let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
        let mut cfg = LoadConfig::quick(FlushPolicy::Batched);
        cfg.clients = 200;
        let outcome = run_load_with(&cfg, &telemetry).unwrap();
        (
            telemetry.snapshot().to_prometheus(),
            telemetry.snapshot().to_json("  "),
            outcome,
        )
    };
    let (prom_a, json_a, outcome_a) = run();
    let (prom_b, json_b, outcome_b) = run();
    validate_prometheus(&prom_a).unwrap();
    assert_eq!(prom_a, prom_b, "metrics snapshot differed across reruns");
    assert_eq!(json_a, json_b, "JSON snapshot differed across reruns");
    assert_eq!(
        outcome_a.sustained_updates_per_sec,
        outcome_b.sustained_updates_per_sec
    );
    // A run that recorded nothing would reproduce vacuously.
    let delivered = prom_a
        .lines()
        .find_map(|l| l.strip_prefix("mixnn_net_packets_delivered_total "))
        .and_then(|v| v.parse::<u64>().ok());
    assert!(
        delivered.is_some_and(|n| n > 0),
        "the load generator should count its deliveries:\n{prom_a}"
    );
    assert!(outcome_a.packets_lost == 0 && outcome_a.packets_reordered == 0);
}

/// A seeded free-route cascade, optionally with a live registry attached.
fn free_route(seed: u64, telemetry: Option<&Telemetry>) -> CascadeCoordinator {
    let (mut cascade, _) = CascadeCoordinator::launch_seeded(
        SIGNATURE.to_vec(),
        Box::new(FreeRoute::new(3, 1, 3, seed)),
        seed,
        FailurePolicy::Abort,
    )
    .unwrap();
    if let Some(t) = telemetry {
        cascade.attach_telemetry(t.clone());
    }
    cascade
}

/// Relays one seeded round through each mixing arm — a free-route
/// cascade in process, the sealed single proxy (the one-hop case) and
/// the same cascade over a zero-loss simulated wire — optionally with a
/// live registry attached, and returns each arm's transcript as
/// `UpdateTransport::transcript` reports it.
fn transcripts(seed: u64, telemetry: Option<&Telemetry>) -> Vec<RoundTranscript> {
    let mut proxy = MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: SIGNATURE.to_vec(),
            seed,
            ..MixnnProxyConfig::default()
        },
        seed,
    );
    if let Some(t) = telemetry {
        proxy.attach_telemetry(t.clone());
    }
    let arms: Vec<Box<dyn UpdateTransport>> = vec![
        Box::new(CascadeTransport::new(free_route(seed, telemetry), seed)),
        Box::new(proxy),
        Box::new(NetCascadeTransport::new(
            free_route(seed, telemetry),
            seed,
            LinkConfig::default(), // lossless
            FlushPolicy::Batched,
            10_000_000_000,
        )),
    ];
    let updates: Vec<ModelUpdate> = synth_rounds(&mut StdRng::seed_from_u64(seed), 1)
        .remove(0)
        .into_iter()
        .enumerate()
        .map(|(slot, params)| ModelUpdate::new(slot, params))
        .collect();
    arms.into_iter()
        .map(|mut arm| {
            arm.relay(updates.clone()).unwrap();
            arm.transcript()
                .unwrap_or_else(|| panic!("{} relayed without a transcript", arm.label()))
                .clone()
        })
        .collect()
}

#[test]
fn exported_telemetry_adds_zero_linkage_to_the_collusion_adversary() {
    const SEED: u64 = 2024;
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    // Every mixing arm, each driven with and without the registry.
    let observed = transcripts(SEED, Some(&telemetry));
    let baseline = transcripts(SEED, None);
    assert_eq!(observed.len(), 3);

    // The transcripts are identical — attachment perturbs nothing the
    // adversary can see — so for every colluding subset the report
    // computed *with the telemetry-bearing round* equals the
    // no-telemetry one, link for link and set for set.
    for (observed, baseline) in observed.iter().zip(&baseline) {
        assert_eq!(
            observed, baseline,
            "telemetry attachment changed the transcript"
        );
        assert_eq!(observed.clients(), CLIENTS);
        for mask in 0u32..(1 << 3) {
            let colluding: Vec<usize> = (0..3).filter(|h| mask & (1 << h) != 0).collect();
            assert_eq!(
                analyze_routed_collusion(observed, &colluding),
                analyze_routed_collusion(baseline, &colluding),
                "telemetry attachment changed the adversary's report for subset {colluding:?}"
            );
        }
    }

    // And the snapshot itself offers no new axis to condition on: the
    // format checker enforces the static cardinality bound, and no
    // per-entity label axis appears anywhere in the export.
    let text = telemetry.snapshot().to_prometheus();
    let summary = validate_prometheus(&text).unwrap();
    assert!(summary.families > 0, "the round should have left metrics");
    for axis in FORBIDDEN_LABEL_AXES {
        assert!(
            !text.contains(&format!("{axis}=")),
            "exported text contains forbidden label axis {axis:?}"
        );
    }
}

#[test]
fn snapshots_are_invariant_under_client_permutation() {
    // Two rounds over the same cascade seed whose client→slot assignment
    // is reversed: every aggregate the registry exports (counts, bytes,
    // group-size distribution) is identical, so an adversary holding the
    // snapshot learns nothing about which client sat in which slot.
    let drive = |reverse: bool| {
        let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
        let chain = Box::new(LinearChain::new(3));
        let (mut cascade, _) =
            CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), chain, 99, FailurePolicy::Abort)
                .unwrap();
        cascade.attach_telemetry(telemetry.clone());
        let mut rng = StdRng::seed_from_u64(99);
        let mut updates = synth_rounds(&mut rng, 1).pop().unwrap();
        if reverse {
            updates.reverse();
        }
        cascade.run_round(&updates, &mut rng).unwrap();
        telemetry.snapshot().to_prometheus()
    };
    assert_eq!(
        drive(false),
        drive(true),
        "permuting the client order changed the exported aggregates"
    );
}
