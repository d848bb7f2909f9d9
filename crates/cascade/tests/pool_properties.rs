//! The continuous-mixing pool's load-bearing properties, under arbitrary
//! seeded arrival schedules:
//!
//! * **A drain is a pure function of its seed.** For any arrival
//!   schedule × pool size × deadline × layout × codec, re-running the
//!   drain reproduces firing order, triggers, member slots, padded
//!   rounds, cover digests and audits bit for bit.
//! * **The k-floor holds on every firing.** Every fired pool carries
//!   `real + dummies ≥ k`, and every route group inside it is padded to
//!   at least `k` members — across 1..4 hops and all three layouts.
//! * **Cover strips to identity.** Each fired round's dummy-stripped
//!   server outputs aggregate bit-identically to the plain mean of the
//!   pool's real members, and every client is committed exactly once.
//!   Under a lossy codec the same identity holds against the members'
//!   canonical (quantize∘dequantize) images.

use mixnn_cascade::{
    CascadeCoordinator, CascadeTopology, FailurePolicy, FreeRoute, LinearChain, PoolConfig,
    PooledCoordinator, PooledRound, StratifiedLayout,
};
use mixnn_core::codec::{canonical_params, CompressionConfig};
use mixnn_core::InProcessLink;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Registry, VirtualClock};
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

fn compression_for(kind: usize) -> CompressionConfig {
    match kind {
        0 => CompressionConfig::F32,
        1 => CompressionConfig::Int8,
        _ => CompressionConfig::int8_top_k(),
    }
}

fn layout_for(kind: usize, hops: usize, seed: u64) -> Box<dyn CascadeTopology> {
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

/// Trickles one seeded arrival schedule through a pooled coordinator and
/// returns every fired round, in firing order. The schedule (arrival
/// gaps scaled to the deadline so threshold and deadline firings both
/// occur), the sealing entropy and the cascade seeds are all pure
/// functions of `seed`.
#[allow(clippy::too_many_arguments)]
fn drain(
    kind: usize,
    hops: usize,
    k: usize,
    deadline_ns: u64,
    compression: CompressionConfig,
    clients: usize,
    layers: usize,
    seed: u64,
) -> Vec<PooledRound> {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
    let service = AttestationService::new(&mut rng);
    let mut cascade = CascadeCoordinator::with_topology(
        signature(layers),
        layout_for(kind, hops, seed),
        seed,
        FailurePolicy::Abort,
        &service,
        &mut rng,
    )
    .expect("valid configuration");
    cascade.set_compression(compression);
    let mut pooled = PooledCoordinator::new(cascade, PoolConfig { k, deadline_ns }, seed ^ 0x5ea1)
        .expect("valid pool config");
    pooled.attach_telemetry(telemetry);

    let mut schedule = StdRng::seed_from_u64(seed ^ 0x07ea);
    let mut at = 0u64;
    let arrivals = round_updates(clients, layers, seed)
        .into_iter()
        .enumerate()
        .map(|(slot, update)| {
            at += schedule.gen_range(0..deadline_ns);
            (slot, update, at)
        });
    pooled
        .trickle(arrivals, &mut InProcessLink)
        .expect("every firing commits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pooled_drain_is_a_pure_function_of_its_seed(
        kind in 0usize..3,
        hops in 1usize..5,
        k in 2usize..6,
        deadline_ns in 100u64..2_000,
        clients in 4usize..10,
        layers in 1usize..4,
        comp in 0usize..3,
        seed in 0u64..1000,
    ) {
        let run = || drain(
            kind, hops, k, deadline_ns,
            compression_for(comp),
            clients, layers, seed,
        );
        // Firing order, triggers, slots, padded rounds, audits and cover
        // digests — all of it, bit for bit.
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn every_fired_pool_meets_the_k_floor_and_strips_to_identity(
        kind in 0usize..3,
        hops in 1usize..5,
        k in 2usize..7,
        deadline_ns in 100u64..2_000,
        clients in 4usize..10,
        layers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let updates = round_updates(clients, layers, seed);
        let fired = drain(
            kind, hops, k, deadline_ns,
            CompressionConfig::F32,
            clients, layers, seed,
        );
        prop_assert!(!fired.is_empty(), "the drain commits at least one pool");
        let mut committed = vec![0usize; clients];
        for round in &fired {
            // The k-floor, on the pool and on every route group in it.
            prop_assert!(
                round.real() + round.dummies() >= k,
                "pool of {} real + {} cover under floor {}",
                round.real(), round.dummies(), k
            );
            for group in round.audit().groups() {
                prop_assert!(
                    group.members() >= k,
                    "group of {} under floor {}", group.members(), k
                );
            }
            // Stripping recovers exactly the members' aggregate.
            let stripped = round.server_outputs().expect("cover strips cleanly");
            prop_assert_eq!(stripped.len(), round.real());
            let members: Vec<ModelParams> = round
                .slots
                .iter()
                .map(|&s| updates[s].clone())
                .collect();
            prop_assert_eq!(
                ModelParams::mean(&stripped),
                ModelParams::mean(&members)
            );
            for &slot in &round.slots {
                committed[slot] += 1;
            }
        }
        // Exactly-once commitment across the whole drain.
        prop_assert!(committed.iter().all(|&c| c == 1), "{:?}", committed);
    }

    // Under a lossy wire codec the server cannot see the original
    // updates, only their canonical (quantize∘dequantize) images — and
    // the dummy-stripped aggregate must equal the canonical members'
    // mean bit for bit, with cover still stripping cleanly. That is the
    // pooled-path half of the compression bit-identity gate.
    #[test]
    fn compressed_pools_strip_to_the_canonical_aggregate(
        kind in 0usize..3,
        hops in 1usize..4,
        k in 2usize..6,
        deadline_ns in 100u64..2_000,
        clients in 4usize..9,
        layers in 1usize..4,
        comp in 1usize..3,
        seed in 0u64..1000,
    ) {
        let compression = compression_for(comp);
        let updates = round_updates(clients, layers, seed);
        let fired = drain(
            kind, hops, k, deadline_ns,
            compression,
            clients, layers, seed,
        );
        prop_assert!(!fired.is_empty());
        for round in &fired {
            let stripped = round.server_outputs().expect("cover strips cleanly");
            prop_assert_eq!(stripped.len(), round.real());
            let members: Vec<ModelParams> = round
                .slots
                .iter()
                .map(|&s| canonical_params(&updates[s], compression))
                .collect();
            prop_assert_eq!(
                ModelParams::mean(&stripped),
                ModelParams::mean(&members)
            );
        }
    }
}
