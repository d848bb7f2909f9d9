//! The cascade's headline threat-model claims, checked against real
//! rounds. For the uniform chain: the colluding-subset adversary links
//! **nothing** for any proper subset of hops and **everything** when all
//! hops collude. For stratified and free-route layouts: a client is
//! linked exactly when the subset covers its **whole route** (or its
//! route is unique), and otherwise keeps its full route group as its
//! anonymity set. Seeded and deterministic — every assertion is a pure
//! function of the cascade seeds.

use mixnn_attacks::{analyze_routed_collusion, RoutedCollusionReport};
use mixnn_cascade::{
    CascadeCoordinator, CascadeRound, CascadeTopology, FailurePolicy, FreeRoute, LinearChain,
    StratifiedLayout,
};
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 7;
const SIGNATURE: [usize; 3] = [4, 2, 3];

fn run_round(hops: usize, seed: u64) -> CascadeRound {
    let chain = Box::new(LinearChain::new(hops));
    let (mut cascade, _) =
        CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), chain, seed, FailurePolicy::Abort)
            .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let updates: Vec<ModelParams> = (0..CLIENTS)
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
        .collect();
    cascade.run_round(&updates, &mut rng).unwrap()
}

fn subset_report(round: &CascadeRound, mask: u32) -> RoutedCollusionReport {
    let colluding: Vec<usize> = (0..u32::BITS as usize)
        .filter(|h| mask & (1 << h) != 0)
        .collect();
    analyze_routed_collusion(&round.audit, &colluding)
}

#[test]
fn every_proper_subset_is_zero_linkable_and_full_collusion_links_all() {
    for hops in 1..=4usize {
        let round = run_round(hops, 1000 + hops as u64);
        for mask in 0u32..(1 << hops) {
            let report = subset_report(&round, mask);
            if mask == (1 << hops) - 1 {
                assert_eq!(
                    report.linkable_fraction, 1.0,
                    "all {hops} hops colluding must deanonymize the round"
                );
                assert_eq!(report.mean_anonymity_set, 1.0);
            } else {
                assert_eq!(
                    report.linkable_fraction, 0.0,
                    "proper subset {mask:#b} of {hops} hops linked something"
                );
                assert_eq!(
                    report.mean_anonymity_set, CLIENTS as f64,
                    "proper subset {mask:#b} of {hops} hops shrank the anonymity set"
                );
            }
        }
    }
}

#[test]
fn full_collusion_agrees_with_the_honest_audit() {
    // The adversary that holds every plan reconstructs exactly the
    // composition the auditor inverts — link for link.
    let round = run_round(3, 42);
    let report = subset_report(&round, 0b111);
    assert_eq!(report.linkable_fraction, 1.0);
    for layer in 0..SIGNATURE.len() {
        for out in 0..CLIENTS {
            assert_eq!(
                report.links[layer * CLIENTS + out],
                round.audit.composed_source(layer, out),
                "adversary and audit disagree at layer {layer}, output {out}"
            );
        }
    }
}

#[test]
fn the_analysis_is_deterministic_per_seed() {
    let a = subset_report(&run_round(3, 7), 0b011);
    let b = subset_report(&run_round(3, 7), 0b011);
    assert_eq!(a, b, "same seed must reproduce the same report");
    let c = subset_report(&run_round(3, 8), 0b011);
    // Different seed ⇒ different plans, but the *metrics* of a proper
    // subset are invariant: still nothing linkable.
    assert_eq!(c.linkable_fraction, 0.0);
}

fn run_routed_round(topology: Box<dyn CascadeTopology>, seed: u64) -> CascadeRound {
    let (mut cascade, _) =
        CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), topology, seed, FailurePolicy::Abort)
            .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let updates: Vec<ModelParams> = (0..CLIENTS)
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
        .collect();
    cascade.run_round(&updates, &mut rng).unwrap()
}

#[test]
fn routed_adversary_links_exactly_the_covered_routes() {
    for (hops, seed) in [(3usize, 60u64), (4, 61)] {
        for layout in [
            Box::new(StratifiedLayout::evenly(hops, 2, seed)) as Box<dyn CascadeTopology>,
            Box::new(FreeRoute::new(hops, 1, hops, seed)),
        ] {
            let round = run_routed_round(layout, seed);
            for mask in 0u32..(1 << hops) {
                let colluding: Vec<usize> = (0..hops).filter(|h| mask & (1 << h) != 0).collect();
                let report = analyze_routed_collusion(&round.audit, &colluding);
                for group in round.audit.groups() {
                    let covered = group.route().iter().all(|h| colluding.contains(h));
                    let expected = if covered { 1 } else { group.members() };
                    for &slot in group.slots() {
                        assert_eq!(
                            report.per_client_anonymity[slot],
                            expected,
                            "{hops} hops, subset {colluding:?}, route {:?}",
                            group.route()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn min_group_size_codebook_restores_the_anonymity_floor() {
    // The unconstrained free-route layout fingerprints unique-route
    // clients with zero collusion (BENCH_topology.json measured 10 of 16
    // at 4 hops). The bounded route codebook must restore a floor of k —
    // asserted here through the adversary's own arithmetic.
    const K: usize = 4;
    let unconstrained = run_routed_round(Box::new(FreeRoute::new(4, 1, 4, 55)), 55);
    let baseline = analyze_routed_collusion(&unconstrained.audit, &[]);
    assert!(
        baseline.per_client_anonymity.iter().any(|&a| a < K),
        "baseline layout should exhibit the floor violation being fixed"
    );

    let floored = FreeRoute::new(4, 1, 4, 55).with_min_group_size(K, CLIENTS);
    let round = run_routed_round(Box::new(floored), 55);
    let report = analyze_routed_collusion(&round.audit, &[]);
    assert!(report.colluding_hops.is_empty());
    assert_eq!(report.linkable_fraction, 0.0, "zero collusion links nobody");
    for (slot, &anonymity) in report.per_client_anonymity.iter().enumerate() {
        assert!(
            anonymity >= K,
            "client {slot} anonymity {anonymity} below the floor {K}"
        );
    }
    // Utility is untouched, exactly as for every other layout.
    assert_eq!(round.audit.unmix(&round.mixed).unwrap().len(), CLIENTS);
}

#[test]
fn routed_full_collusion_agrees_with_the_honest_audit() {
    let round = run_routed_round(Box::new(FreeRoute::new(3, 1, 3, 71)), 71);
    let all = [0usize, 1, 2];
    let report = analyze_routed_collusion(&round.audit, &all);
    assert_eq!(report.linked_clients(), CLIENTS);
    for layer in 0..SIGNATURE.len() {
        for out in 0..CLIENTS {
            assert_eq!(
                report.links[layer * CLIENTS + out],
                round.audit.composed_source(layer, out),
                "adversary and audit disagree at layer {layer}, output {out}"
            );
        }
    }
}
