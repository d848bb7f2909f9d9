//! Compression must not buy bytes with linkability.
//!
//! Two properties pin that down. **Size uniformity**: per-layer envelope
//! sizes are adversary-visible on every link, so within a route group
//! every sealed onion — real clients' and hop-generated cover alike —
//! must encode to one length under every codec mode, keep-rate and
//! layout; a content-dependent length would fingerprint clients through
//! the mix. **Anonymity invariance**: the routed colluding-subset
//! adversary must reconstruct *exactly* the same per-client anonymity
//! sets whether the round ran lossless or compressed — compression
//! changes what the wire carries, not what the adversary learns.

use mixnn_attacks::analyze_routed_collusion;
use mixnn_bench::experiments::compress::LAYOUT_HOPS;
use mixnn_bench::Layout;
use mixnn_cascade::{CascadeCoordinator, FailurePolicy, PaddedRound};
use mixnn_core::codec::CompressionConfig;
use mixnn_core::InProcessLink;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIGNATURE: [usize; 3] = [9, 5, 3];
const CLIENTS: usize = 10;
const SEED: u64 = 41;

/// Every mode the wire speaks, including off-default keep rates.
fn all_modes() -> Vec<CompressionConfig> {
    vec![
        CompressionConfig::F32,
        CompressionConfig::Int8,
        CompressionConfig::Int8TopK { keep_per_1024: 64 },
        CompressionConfig::int8_top_k(),
        CompressionConfig::Int8TopK {
            keep_per_1024: 1024,
        },
    ]
}

/// Updates with wildly different content — constants, spikes, NaN and
/// huge magnitudes — so any content-dependent length would show.
fn adversarial_updates() -> Vec<ModelParams> {
    (0..CLIENTS)
        .map(|i| {
            ModelParams::from_layers(
                SIGNATURE
                    .iter()
                    .map(|&len| {
                        LayerParams::from_values(
                            (0..len)
                                .map(|j| match (i + j) % 5 {
                                    0 => 0.0,
                                    1 => 1e30,
                                    2 => f32::NAN,
                                    3 => -3.5e-39, // subnormal
                                    _ => (i as f32) - (j as f32),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn padded_round(
    layout: Layout,
    compression: CompressionConfig,
    updates: &[ModelParams],
) -> (CascadeCoordinator, AttestationService, PaddedRound) {
    let (mut cascade, service) = CascadeCoordinator::launch_seeded(
        SIGNATURE.to_vec(),
        layout.topology(LAYOUT_HOPS, SEED),
        SEED,
        FailurePolicy::Abort,
    )
    .unwrap();
    cascade.set_compression(compression);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5eed);
    let round = cascade
        .run_padded_round_over(updates, CLIENTS + 2, &mut rng, &mut InProcessLink)
        .unwrap();
    (cascade, service, round)
}

#[test]
fn every_route_group_is_size_uniform_under_every_mode_and_layout() {
    let updates = adversarial_updates();
    for layout in Layout::ALL {
        for compression in all_modes() {
            let (cascade, service, padded) = padded_round(layout, compression, &updates);
            assert!(padded.dummies() > 0, "{layout:?}: no cover rode the round");
            // Per route group: seal that group's real updates and fresh
            // hop-generated cover with a group member's client; every
            // onion must land on one length.
            for group in padded.round.audit.groups() {
                let slot = group.slots()[0];
                let mut rng = StdRng::seed_from_u64(SEED ^ 0xbeef);
                let client = cascade.client_for_slot(slot, &service).unwrap();
                assert_eq!(client.compression(), compression);
                let mut lens = std::collections::BTreeSet::new();
                for &s in group.slots() {
                    // Trailing slots are the injected cover updates.
                    if s >= padded.round.audit.real() {
                        continue;
                    }
                    lens.insert(client.seal_update(&updates[s], &mut rng).unwrap().len());
                }
                for nonce in 0..2u64 {
                    let dummy = cascade.hops()[0].generate_dummy(&SIGNATURE, nonce);
                    lens.insert(client.seal_update(&dummy, &mut rng).unwrap().len());
                }
                assert_eq!(
                    lens.len(),
                    1,
                    "{layout:?}/{}: onion sizes leak content: {lens:?}",
                    compression.name()
                );
            }
        }
    }
}

#[test]
fn collusion_analysis_is_identical_with_compression_on_and_off() {
    let updates = adversarial_updates();
    for layout in Layout::ALL {
        // The same seeded round, lossless vs compressed: routing, group
        // partition and mix plans must match, so the adversary's view is
        // unchanged and the anonymity sets are equal element for element.
        let (_, _, lossless) = padded_round(layout, CompressionConfig::F32, &updates);
        for compression in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let (_, _, compressed) = padded_round(layout, compression, &updates);
            let slots = |r: &PaddedRound| {
                r.round
                    .audit
                    .groups()
                    .iter()
                    .map(|g| (g.slots().to_vec(), g.route().to_vec()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                slots(&lossless),
                slots(&compressed),
                "{layout:?}/{}: group structure changed under compression",
                compression.name()
            );
            // Sweep colluding subsets of up to two hops.
            let hops: Vec<usize> = (0..LAYOUT_HOPS).collect();
            let mut subsets: Vec<Vec<usize>> = vec![vec![]];
            for &h in &hops {
                subsets.push(vec![h]);
                for &g in &hops {
                    if g > h {
                        subsets.push(vec![h, g]);
                    }
                }
            }
            for colluding in subsets {
                let a = analyze_routed_collusion(&lossless.round.audit, &colluding);
                let b = analyze_routed_collusion(&compressed.round.audit, &colluding);
                assert_eq!(
                    a.real_client_anonymity(),
                    b.real_client_anonymity(),
                    "{layout:?}/{}/colluding {colluding:?}: anonymity sets differ",
                    compression.name()
                );
                assert_eq!(a.linked_clients(), b.linked_clients());
                assert_eq!(a.anonymity_distribution(), b.anonymity_distribution());
            }
        }
    }
}
