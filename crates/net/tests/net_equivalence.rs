//! The wire-equivalence property the simulated network must uphold: under
//! **zero loss**, a round delivered over the [`SimLink`] — any seed, any
//! latency, any jitter, any reorder probability, either flush policy — is
//! **bit-identical** to the in-process drive. Outputs, audits, hop stats
//! counters and the caller's RNG position all match; the wire only adds
//! *cost* (virtual time, queueing, bytes), never semantics.
//!
//! The wire is a pure cost model.

use mixnn_cascade::{
    CascadeCoordinator, CascadeTopology, CascadeTransport, FailurePolicy, FreeRoute, LinearChain,
    StratifiedLayout,
};
use mixnn_fl::{ModelUpdate, UpdateTransport};
use mixnn_net::{FlushPolicy, LinkConfig, NetCascadeTransport, SimLink};
use mixnn_nn::{LayerParams, ModelParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn signature(layers: usize) -> Vec<usize> {
    (0..layers).map(|l| 2 + (l % 3) * 3).collect()
}

fn round_updates(clients: usize, layers: usize, seed: u64) -> Vec<ModelParams> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
    (0..clients)
        .map(|_| {
            ModelParams::from_layers(
                signature(layers)
                    .into_iter()
                    .map(|len| {
                        LayerParams::from_values(
                            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn topology_for(kind: usize, hops: usize, seed: u64) -> Box<dyn CascadeTopology> {
    match kind {
        0 => Box::new(LinearChain::new(hops)),
        1 => Box::new(StratifiedLayout::evenly(
            hops,
            1 + (seed as usize % hops),
            seed,
        )),
        _ => Box::new(FreeRoute::new(hops, 1, hops, seed)),
    }
}

/// Two cascades launched from the same seeds are bit-identical; the
/// baseline and the wired drive each get their own copy.
fn launch(kind: usize, hops: usize, layers: usize, seed: u64) -> CascadeCoordinator {
    CascadeCoordinator::launch_seeded(
        signature(layers),
        topology_for(kind, hops, seed),
        seed,
        FailurePolicy::Abort,
    )
    .expect("valid configuration")
    .0
}

/// The hop stats counters (the `*_seconds` fields are wall-clock and
/// excluded by design).
fn counters(cascade: &CascadeCoordinator) -> Vec<(u64, u64, u64, u64, u64)> {
    cascade
        .hop_stats()
        .iter()
        .map(|s| {
            (
                s.updates_received,
                s.updates_forwarded,
                s.updates_rejected,
                s.bytes_received,
                s.bytes_rejected,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wire_round_is_bit_identical_to_in_process(
        hops in 1usize..4,
        kind in 0usize..3,
        clients in 3usize..8,
        layers in 1usize..3,
        seed in 0u64..1000,
        latency_us in 0u64..2000,
        jitter_us in 0u64..500,
        reorder in 0.0f64..0.9,
        flush in 0usize..2,
    ) {
        let updates = round_updates(clients, layers, seed);

        // Baseline: the in-process drive, observing round, RNG position
        // and counters.
        let mut baseline_cascade = launch(kind, hops, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let round = baseline_cascade
            .run_round(&updates, &mut rng)
            .expect("in-process round runs");
        let baseline = (round, rng.gen::<u64>(), counters(&baseline_cascade));

        // The same round over a lossless but otherwise adversarial wire:
        // latency, jitter and reordering drawn from the proptest case.
        let mut wired_cascade = launch(kind, hops, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let cfg = LinkConfig {
            latency_ns: latency_us * 1_000,
            jitter_ns: jitter_us * 1_000,
            reorder,
            ..LinkConfig::default()
        };
        let flush = if flush == 0 {
            FlushPolicy::Batched
        } else {
            FlushPolicy::PerEnvelope
        };
        let mut link = SimLink::new(hops, seed ^ 0x77, cfg, flush, 600_000_000_000);
        let round = wired_cascade
            .run_round_over(&updates, &mut rng, &mut link)
            .expect("wired round runs");
        let wired = (round, rng.gen::<u64>(), counters(&wired_cascade));

        prop_assert_eq!(&baseline, &wired);
        // The audit stays honest over the wire…
        prop_assert_eq!(
            &wired.0.audit.unmix(&wired.0.mixed).expect("unmix"),
            &updates
        );
        // …the aggregate never moved…
        prop_assert_eq!(
            ModelParams::mean(&updates),
            ModelParams::mean(&wired.0.mixed)
        );
        // …and the round really crossed the simulated wire.
        prop_assert!(link.stats().packets_sent > 0, "round must cross the wire");
        prop_assert!(link.now_ns() > 0, "virtual time must advance");
    }

    #[test]
    fn net_transport_matches_in_process_transport(
        hops in 1usize..4,
        clients in 3usize..8,
        layers in 1usize..3,
        seed in 0u64..1000,
    ) {
        // The full transport stack: NetCascadeTransport must hand the FL
        // server exactly what CascadeTransport does — same slots, same
        // mixed bits, same audit.
        let updates: Vec<ModelUpdate> = round_updates(clients, layers, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| ModelUpdate::new(i, p))
            .collect();

        let mut baseline = CascadeTransport::new(launch(0, hops, layers, seed), seed ^ 0x9);
        let base_out = baseline.relay(updates.clone()).expect("in-process relay");

        let mut wired = NetCascadeTransport::new(
            launch(0, hops, layers, seed),
            seed ^ 0x9,
            LinkConfig {
                jitter_ns: 40_000,
                reorder: 0.25,
                ..LinkConfig::default()
            },
            FlushPolicy::Batched,
            600_000_000_000,
        );
        let wire_out = wired.relay(updates).expect("wired relay");

        prop_assert_eq!(&base_out, &wire_out);
        prop_assert_eq!(baseline.transcript(), wired.transcript());
    }
}
