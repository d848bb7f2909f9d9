//! The wire-equivalence property the simulated network must uphold: under
//! **zero loss**, a round delivered over the [`SimLink`] — any seed, any
//! latency, any jitter, any reorder probability, either flush policy — is
//! **bit-identical** to the in-process drive. Outputs, audits, hop stats
//! counters and the caller's RNG position all match; the wire only adds
//! *cost* (virtual time, queueing, bytes), never semantics.
//!
//! The wire is a pure cost model — for a pool too: a trickle over a
//! [`SimLink`] fires the rounds it fires in process, even when the link
//! drives the virtual clock of the registry the pool reports to.

use mixnn_cascade::{
    CascadeCoordinator, CascadeTopology, CascadeTransport, FailurePolicy, FreeRoute, LinearChain,
    PoolConfig, PooledCoordinator, PooledRound, StratifiedLayout,
};
use mixnn_core::{InProcessLink, RoundLink};
use mixnn_fl::{ModelUpdate, UpdateTransport};
use mixnn_net::{FlushPolicy, LinkConfig, NetCascadeTransport, SimLink};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Registry, Telemetry, VirtualClock};
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

/// Trickles one update per `schedule` entry through a pooled coordinator
/// over a free-route cascade, its pool reporting to `telemetry`; returns
/// the fired rounds, their stripped outputs and the pool clock after.
fn pooled_trickle(
    k: usize,
    deadline_ns: u64,
    schedule: &[u64],
    telemetry: Telemetry,
    link: &mut dyn RoundLink,
) -> (Vec<PooledRound>, Vec<Vec<ModelParams>>, u64) {
    let mut pooled = PooledCoordinator::new(launch(2, 3, 2, 5), PoolConfig { k, deadline_ns }, 8)
        .expect("valid pool config");
    pooled.attach_telemetry(telemetry);
    let updates = round_updates(schedule.len(), 2, 5);
    let arrivals = updates
        .into_iter()
        .zip(schedule)
        .enumerate()
        .map(|(slot, (update, &at))| (slot, update, at));
    let fired = pooled
        .trickle(arrivals, link)
        .expect("every firing commits");
    let stripped = fired
        .iter()
        .map(|round| round.server_outputs().expect("cover strips"))
        .collect();
    (fired, stripped, pooled.now_ns())
}

#[test]
fn a_trickle_over_a_link_sharing_the_pools_registry_fires_as_in_process() {
    // (k, deadline, arrivals, the last event's time): arrivals 10 µs
    // apart, far closer than the wire's latency, ending on the last
    // pool's deadline; then arrivals 10 ms apart, each firing by its
    // 5 ms deadline long after the wire went quiet.
    let cases: [(usize, u64, Vec<u64>, u64); 2] = [
        (
            2,
            1_000_000,
            (0..5).map(|i| i * 10_000).collect(),
            1_040_000,
        ),
        (
            3,
            5_000_000,
            (0..4).map(|i| i * 10_000_000).collect(),
            35_000_000,
        ),
    ];
    for (k, deadline_ns, schedule, last_event_ns) in cases {
        let registry = || Registry::with_virtual_clock(VirtualClock::new()).shared();
        let in_process = pooled_trickle(k, deadline_ns, &schedule, registry(), &mut InProcessLink);
        let registry = registry();
        let mut link = SimLink::new(
            3,
            11,
            LinkConfig::default(),
            FlushPolicy::Batched,
            600_000_000_000,
        );
        link.attach_telemetry(registry.clone());
        let wired = pooled_trickle(k, deadline_ns, &schedule, registry, &mut link);

        assert!(link.now_ns() > 0, "the rounds crossed the wire");
        assert_eq!(wired.0, in_process.0, "k = {k}: the fired rounds");
        assert_eq!(wired.1, in_process.1, "k = {k}: the stripped outputs");
        assert_eq!(in_process.2, last_event_ns, "k = {k}: the pool clock");
        assert_eq!(
            wired.2, last_event_ns,
            "k = {k}: the pool clock over the wire"
        );
    }
}
