//! The cascade's load-bearing correctness properties, under arbitrary
//! round shapes:
//!
//! * composing the per-hop permutations across 1..4 hops and unmixing at
//!   the server restores the client order and the exact `ModelParams`
//!   bits;
//! * the server-side aggregate is bit-identical to classic FL at every
//!   hop count;
//! * both also hold for **stratified and free-route layouts**, where the
//!   round splits into per-route mixing groups and every hop mixes only
//!   the partial round that traversed it;
//! * both still hold when an intermediate hop dies of EPC exhaustion
//!   mid-round under the skip policy (the surviving chain carries the
//!   round) — in every compression mode, where `unmix` restores the
//!   canonical post-wire form of the inputs;
//! * a cascade is a pure function of its seeds: re-running the same
//!   rounds reproduces outputs, audits, skip events, hop counters and the
//!   caller's RNG position.

use mixnn_cascade::{
    CascadeConfig, CascadeCoordinator, CascadeHopConfig, CascadeRound, CascadeTopology,
    FailurePolicy, FreeRoute, LinearChain, StratifiedLayout,
};
use mixnn_core::codec::CompressionConfig;
use mixnn_enclave::{AttestationService, EnclaveConfig};
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

fn layout_for(kind: usize, hops: usize, clients: usize, seed: u64) -> Box<dyn CascadeTopology> {
    match kind {
        0 => Box::new(LinearChain::new(hops)),
        1 => Box::new(StratifiedLayout::evenly(
            hops,
            1 + (seed as usize % hops),
            seed,
        )),
        2 => Box::new(FreeRoute::new(hops, 1, hops, seed)),
        _ => Box::new(FreeRoute::new(hops, 1, hops, seed).with_min_group_size(2, clients.max(2))),
    }
}

/// The observables of a cascade after some rounds: the
/// rounds themselves (outputs, audits, chains, skip events), the caller's
/// RNG position, the skip state, and every hop's stats counters (the
/// `*_seconds` fields are wall-clock and excluded by design).
type Observed = (
    Vec<CascadeRound>,
    u64,
    Vec<usize>,
    Vec<(u64, u64, u64, u64, u64)>,
);

/// The compression mode under test for a proptest-drawn discriminant.
fn compression_for(kind: usize) -> CompressionConfig {
    match kind {
        0 => CompressionConfig::F32,
        1 => CompressionConfig::Int8,
        _ => CompressionConfig::int8_top_k(),
    }
}

fn observe(
    topology: Box<dyn CascadeTopology>,
    policy: FailurePolicy,
    compression: CompressionConfig,
    dead_hop: Option<usize>,
    rounds: &[Vec<ModelParams>],
    layers: usize,
    seed: u64,
) -> Observed {
    let hops = topology.num_hops();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
    let service = AttestationService::new(&mut rng);
    let mut hop_configs: Vec<CascadeHopConfig> = (0..hops)
        .map(|i| CascadeHopConfig {
            seed: seed ^ ((i as u64) << 4),
            ..CascadeHopConfig::default()
        })
        .collect();
    if let Some(dead) = dead_hop {
        hop_configs[dead].enclave = EnclaveConfig {
            epc_limit: 4,
            code_identity: mixnn_cascade::HOP_CODE_IDENTITY.to_vec(),
        };
    }
    let mut cascade = CascadeCoordinator::launch(
        CascadeConfig {
            expected_signature: signature(layers),
            hops: hop_configs,
            policy,
        },
        topology,
        &service,
        &mut rng,
    )
    .expect("valid configuration");
    cascade.set_compression(compression);
    let out = rounds
        .iter()
        .map(|updates| cascade.run_round(updates, &mut rng).expect("round runs"))
        .collect();
    let counters = cascade
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
        .collect();
    (out, rng.gen::<u64>(), cascade.skipped_hops(), counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn unmix_restores_order_and_bits_across_hop_counts(
        hops in 1usize..5,
        clients in 3usize..9,
        layers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::linear(
            signature(layers),
            hops,
            seed,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .expect("valid configuration");
        let updates = round_updates(clients, layers, seed);
        let round = cascade.run_round(&updates, &mut rng).expect("round runs");

        // Client order and exact bits restored through the composed
        // inverse…
        prop_assert_eq!(&round.audit.unmix(&round.mixed).expect("unmix"), &updates);
        // …and the aggregate never moved in the first place.
        prop_assert_eq!(
            ModelParams::mean(&updates),
            ModelParams::mean(&round.mixed)
        );
        // The composition is a permutation per layer (no duplication, no
        // loss).
        for l in 0..layers {
            let mut seen = vec![false; clients];
            for i in 0..clients {
                let src = round.audit.composed_source(l, i).expect("in range");
                prop_assert!(!seen[src]);
                seen[src] = true;
            }
        }
    }

    #[test]
    fn non_uniform_layouts_unmix_and_preserve_the_aggregate(
        hops in 2usize..5,
        kind in 0usize..2,
        clients in 3usize..9,
        layers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let topology: Box<dyn CascadeTopology> = if kind == 0 {
            Box::new(StratifiedLayout::evenly(hops, 1 + (seed as usize % hops), seed))
        } else {
            Box::new(FreeRoute::new(hops, 1, hops, seed))
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::with_topology(
            signature(layers),
            topology,
            seed,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .expect("valid configuration");
        let updates = round_updates(clients, layers, seed);
        let round = cascade.run_round(&updates, &mut rng).expect("round runs");

        // Bit-exact inversion and aggregate, exactly as for the chain.
        prop_assert_eq!(&round.audit.unmix(&round.mixed).expect("unmix"), &updates);
        prop_assert_eq!(
            ModelParams::mean(&updates),
            ModelParams::mean(&round.mixed)
        );
        // The groups partition the round, and mixing never crosses a
        // group boundary (envelopes are bound to route keys).
        let covered: usize = round.audit.groups().iter().map(|g| g.members()).sum();
        prop_assert_eq!(covered, clients);
        for group in round.audit.groups() {
            for l in 0..layers {
                for &out in group.slots() {
                    let src = round.audit.composed_source(l, out).expect("in range");
                    prop_assert!(group.slots().contains(&src));
                }
            }
        }
    }

    #[test]
    fn epc_exhaustion_at_an_intermediate_hop_skips_and_stays_bit_exact(
        hops in 2usize..5,
        dead in 1usize..4,
        clients in 3usize..8,
        layers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let dead = dead.min(hops - 1); // an intermediate (or last) hop
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let service = AttestationService::new(&mut rng);
        let mut hop_configs: Vec<CascadeHopConfig> = (0..hops)
            .map(|i| CascadeHopConfig {
                seed: seed ^ ((i as u64) << 4),
                ..CascadeHopConfig::default()
            })
            .collect();
        // Starve the chosen hop: its EPC cannot hold even one unwrapped
        // layer blob, so it exhausts mid-round and the skip policy must
        // route around it.
        hop_configs[dead].enclave = EnclaveConfig {
            epc_limit: 4,
            code_identity: mixnn_cascade::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: signature(layers),
                hops: hop_configs,
                policy: FailurePolicy::Skip,
            },
            Box::new(LinearChain::new(hops)),
            &service,
            &mut rng,
        )
        .expect("valid configuration");

        let updates = round_updates(clients, layers, seed);
        let round = cascade.run_round(&updates, &mut rng).expect("skip saves the round");

        prop_assert_eq!(&round.skipped_this_round, &vec![dead]);
        prop_assert_eq!(round.chain.len(), hops - 1);
        prop_assert!(!round.chain.contains(&dead));
        // The surviving chain still carries the round bit-exactly.
        prop_assert_eq!(&round.audit.unmix(&round.mixed).expect("unmix"), &updates);
        prop_assert_eq!(
            ModelParams::mean(&updates),
            ModelParams::mean(&round.mixed)
        );
        // And the dead hop leaked nothing.
        prop_assert_eq!(cascade.hops()[dead].memory_stats().allocated, 0);
    }

    #[test]
    fn multi_round_drives_unmix_to_the_canonical_inputs_on_every_layout_and_codec(
        hops in 1usize..5,
        kind in 0usize..4,
        comp in 0usize..3,
        clients in 3usize..9,
        layers in 1usize..4,
        rounds in 1usize..4,
        seed in 0u64..1000,
    ) {
        let compression = compression_for(comp);
        let batch: Vec<Vec<ModelParams>> = (0..rounds)
            .map(|r| round_updates(clients, layers, seed ^ (r as u64) << 9))
            .collect();
        let drive = || observe(
            layout_for(kind, hops, clients, seed),
            FailurePolicy::Abort,
            compression,
            None,
            &batch,
            layers,
            seed,
        );
        let observed = drive();
        prop_assert_eq!(&observed, &drive(), "a cascade is a pure function of its seeds");
        // The audits stay honest: unmix restores every round — the
        // canonical post-wire form of it under a lossy codec (bit-exact
        // under F32, where canonicalization is the identity).
        for (r, round) in observed.0.iter().enumerate() {
            let expect: Vec<ModelParams> = batch[r]
                .iter()
                .map(|p| mixnn_core::codec::canonical_params(p, compression))
                .collect();
            prop_assert_eq!(&round.audit.unmix(&round.mixed).expect("unmix"), &expect);
        }
    }

    #[test]
    fn epc_exhaustion_skip_path_holds_in_every_compression_mode(
        hops in 2usize..5,
        dead in 1usize..4,
        comp in 0usize..3,
        clients in 3usize..8,
        layers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let compression = compression_for(comp);
        let dead = dead.min(hops - 1);
        let batch: Vec<Vec<ModelParams>> = (0..2)
            .map(|r| round_updates(clients, layers, seed ^ (r as u64) << 9))
            .collect();
        let (rounds, _, skipped, counters) = observe(
            Box::new(LinearChain::new(hops)),
            FailurePolicy::Skip,
            compression,
            Some(dead),
            &batch,
            layers,
            seed,
        );
        prop_assert_eq!(&skipped, &vec![dead], "the starved hop must be skipped");
        // The first round takes the hit; the skip is sticky for the second.
        prop_assert_eq!(&rounds[0].skipped_this_round, &vec![dead]);
        prop_assert!(rounds[1].skipped_this_round.is_empty());
        // The starved hop rejected exactly the one onion it choked on.
        prop_assert_eq!(counters[dead].2, 1);
        for (r, round) in rounds.iter().enumerate() {
            let expect: Vec<ModelParams> = batch[r]
                .iter()
                .map(|p| mixnn_core::codec::canonical_params(p, compression))
                .collect();
            prop_assert_eq!(&round.audit.unmix(&round.mixed).expect("unmix"), &expect);
        }
    }
}

#[test]
fn cascade_transport_drives_a_full_fl_round() {
    use mixnn_cascade::CascadeTransport;
    use mixnn_data::lfw_like;
    use mixnn_fl::{FlConfig, FlSimulation};
    use mixnn_nn::zoo;

    // The cascade-backed transport variant of the simulation: one round of
    // real local training routed through a 3-hop chain must aggregate
    // exactly like classic FL.
    let fed = lfw_like(2).generate().unwrap();
    let dims = fed.spec().dims;
    let mut rng = StdRng::seed_from_u64(5);
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        fed.spec().num_classes,
        2,
        8,
        &mut rng,
    );
    let cfg = FlConfig {
        rounds: 1,
        local_epochs: 1,
        batch_size: 16,
        clients_per_round: 5,
        seed: 5,
        ..FlConfig::default()
    };
    let layer_signature = template.params().signature();

    let run = |cascaded: bool| {
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        if cascaded {
            let mut rng = StdRng::seed_from_u64(6);
            let service = AttestationService::new(&mut rng);
            let cascade = CascadeCoordinator::linear(
                layer_signature.clone(),
                3,
                21,
                FailurePolicy::Abort,
                &service,
                &mut rng,
            )
            .unwrap();
            let mut transport = CascadeTransport::new(cascade, 77);
            sim.run_round(&mut transport).unwrap();
        } else {
            sim.run_round(&mut mixnn_fl::DirectTransport::new())
                .unwrap();
        }
        sim.global().clone()
    };
    assert_eq!(
        run(false),
        run(true),
        "cascading must not change the aggregated global model"
    );
}
