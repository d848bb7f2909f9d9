//! Property tests for the mixer: mixing is lossless (a per-layer
//! permutation of its input — nothing dropped, nothing duplicated) and
//! invertible given the recorded [`MixPlan`] assignment; and, end to end
//! through the sealed proxy, the server never receives one participant's
//! update.
//!
//! These are the §4.2 guarantees the utility-equivalence and the privacy
//! arguments rest on, checked bitwise for arbitrary update contents and
//! shapes.

use mixnn_core::{MixPlan, MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_signature() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..10, 1..6)
}

/// Builds `participants` updates whose every scalar encodes its origin
/// `(participant, layer, offset)`, so layer vectors are pairwise distinct
/// and permutation checks are exact.
fn tagged_updates(signature: &[usize], participants: usize) -> Vec<ModelParams> {
    (0..participants)
        .map(|p| {
            ModelParams::from_layers(
                signature
                    .iter()
                    .enumerate()
                    .map(|(l, &len)| {
                        LayerParams::from_values(
                            (0..len)
                                .map(|o| (p * 10_000 + l * 100 + o) as f32)
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The layer-`l` vectors of `updates` as sorted bit patterns (a canonical
/// multiset representation).
fn layer_multiset(updates: &[ModelParams], layer: usize) -> Vec<Vec<u32>> {
    let mut vectors: Vec<Vec<u32>> = updates
        .iter()
        .map(|u| {
            u.layer(layer)
                .expect("layer within signature")
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    vectors.sort();
    vectors
}

/// The proxy's batch mix: a [`MixPlan::for_round`] draw from `seed`, applied
/// with [`MixPlan::apply_owned`] to the updates' layers.
fn batch_mix(updates: &[ModelParams], seed: u64) -> (Vec<ModelParams>, MixPlan) {
    let layers = updates.first().map_or(0, ModelParams::num_layers);
    let plan = MixPlan::for_round(updates.len(), layers, &mut StdRng::seed_from_u64(seed))
        .expect("a non-empty round");
    (apply(&plan, updates), plan)
}

/// [`MixPlan::apply_owned`] over clones of the updates' layers.
fn apply(plan: &MixPlan, updates: &[ModelParams]) -> Vec<ModelParams> {
    let rows = updates
        .iter()
        .map(|u| u.iter().cloned().collect())
        .collect();
    plan.apply_owned(rows)
        .expect("rows match the plan")
        .into_iter()
        .map(ModelParams::from_layers)
        .collect()
}

/// Inverts a mix using the recorded plan: participant `p`'s layer `l` is
/// wherever the plan says it was routed.
fn unmix(mixed: &[ModelParams], plan: &MixPlan) -> Vec<ModelParams> {
    let layers = plan.layers();
    (0..plan.participants())
        .map(|p| {
            let recovered = (0..layers)
                .map(|l| {
                    let output = (0..plan.participants())
                        .find(|&i| plan.source(l, i) == Some(p))
                        .expect("column bijectivity: every participant appears once");
                    mixed[output]
                        .layer(l)
                        .expect("layer within signature")
                        .clone()
                })
                .collect();
            ModelParams::from_layers(recovered)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mixed batch is, per layer position, exactly a permutation of the
    /// input batch: multiset-equal, so no update is lost or duplicated.
    #[test]
    fn batch_mix_is_a_per_layer_permutation(
        signature in arb_signature(),
        participants in 1usize..12,
        seed in 0u64..1000,
    ) {
        let updates = tagged_updates(&signature, participants);
        let (mixed, plan) = batch_mix(&updates, seed);
        prop_assert_eq!(mixed.len(), updates.len());
        prop_assert!(plan.is_column_bijective());
        for layer in 0..signature.len() {
            prop_assert_eq!(
                layer_multiset(&updates, layer),
                layer_multiset(&mixed, layer)
            );
        }
    }

    /// Unmixing with the recorded assignment restores the original batch in
    /// its original order, bitwise.
    #[test]
    fn unmixing_with_recorded_plan_restores_order(
        signature in arb_signature(),
        participants in 1usize..12,
        seed in 0u64..1000,
    ) {
        let updates = tagged_updates(&signature, participants);
        let (mixed, plan) = batch_mix(&updates, seed);
        prop_assert_eq!(unmix(&mixed, &plan), updates);
    }

    /// The plan the mixer reports is the plan it actually applied: each
    /// output layer is bitwise the recorded source participant's layer.
    #[test]
    fn recorded_plan_matches_applied_routing(
        signature in arb_signature(),
        participants in 1usize..10,
        seed in 0u64..1000,
    ) {
        let updates = tagged_updates(&signature, participants);
        let (mixed, plan) = batch_mix(&updates, seed);
        for layer in 0..signature.len() {
            for (output, mixed_update) in mixed.iter().enumerate() {
                let source = plan.source(layer, output).unwrap();
                prop_assert_eq!(
                    mixed_update.layer(layer).unwrap(),
                    updates[source].layer(layer).unwrap()
                );
            }
        }
    }

    /// `MixPlan::apply_owned` on an explicitly constructed Latin plan is
    /// also invertible — the property does not depend on `for_round`'s
    /// choice of construction.
    #[test]
    fn latin_plan_apply_round_trips(
        layers in 1usize..6,
        extra in 0usize..8,
        seed in 0u64..1000,
    ) {
        // The Latin construction needs participants >= layers.
        let participants = layers + extra;
        let signature = vec![3usize; layers];
        let updates = tagged_updates(&signature, participants);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MixPlan::latin(participants, layers, &mut rng).unwrap();
        let mixed = apply(&plan, &updates);
        prop_assert_eq!(unmix(&mixed, &plan), updates);
    }
}

/// Cases of [`sealed_rounds_never_deliver_a_whole_update`].
const SEALED_CASES: u32 = 48;
// The cases that property has passed so far, and the outputs they checked:
// the last case prints the total.
static SEALED_ROUNDS: AtomicUsize = AtomicUsize::new(0);
static SEALED_OUTPUTS: AtomicUsize = AtomicUsize::new(0);

/// Client `c`'s update: every value of layer `l` is `c * 100 + l`, so each
/// received layer names the client it came from.
fn client_update(client: usize, layers: usize) -> ModelParams {
    ModelParams::from_layers(
        (0..layers)
            .map(|l| LayerParams::from_values(vec![(client * 100 + l) as f32; 2 + l]))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SEALED_CASES))]

    /// The guarantee the paper's defence rests on, on the one mixing path
    /// the proxy has: a sealed [`MixnnTransport::relay_round`] with
    /// `L ∈ 2..=5` layers and `C ∈ L..=4L` clients hands the server no
    /// client's whole update — no output equals any input, and none sits
    /// at its client's own slot — because every output draws its `L` layers
    /// from `L` distinct clients and every (client, layer) pair is
    /// delivered exactly once. The last case prints
    /// `whole updates observed: 0 of N`.
    ///
    /// Rounds with fewer clients than layers (`L > C`) fall back to
    /// `MixPlan::independent`, which cannot be Latin; that case is an open
    /// ROADMAP item (1(b)) and deliberately out of scope here.
    #[test]
    fn sealed_rounds_never_deliver_a_whole_update(
        layers in 2usize..=5,
        extra in 0usize..=15,
        seed in 0u64..1000,
    ) {
        prop_assume!(extra <= 3 * layers);
        let clients = layers + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let config = MixnnProxyConfig {
            expected_signature: client_update(0, layers).signature(),
            seed,
            ..MixnnProxyConfig::default()
        };
        let proxy = MixnnProxy::launch(config, &service, &mut rng);
        let mut transport = MixnnTransport::new(proxy, TransportMode::Encrypted, seed ^ 0x5ea1);
        let inputs: Vec<ModelParams> = (0..clients).map(|c| client_update(c, layers)).collect();
        let outputs = transport.relay_round(inputs.clone()).expect("round commits");
        prop_assert_eq!(outputs.len(), clients);

        let mut delivered = vec![vec![0usize; layers]; clients];
        for (slot, output) in outputs.iter().enumerate() {
            prop_assert!(
                !inputs.contains(output),
                "a whole update reached the server at slot {slot} (L={layers}, C={clients}, seed={seed})"
            );
            prop_assert_ne!(output, &inputs[slot], "slot {} kept its own update", slot);
            let mut sources: Vec<usize> = (0..layers)
                .map(|l| output.layer(l).expect("layer").values()[0] as usize / 100)
                .collect();
            for (l, &source) in sources.iter().enumerate() {
                delivered[source][l] += 1;
            }
            sources.sort_unstable();
            sources.dedup();
            prop_assert_eq!(sources.len(), layers, "slot {} repeats a client", slot);
        }
        prop_assert!(
            delivered.iter().flatten().all(|&n| n == 1),
            "a (client, layer) pair was dropped or duplicated: {:?}", delivered
        );

        let outputs_so_far = SEALED_OUTPUTS.fetch_add(clients, Ordering::Relaxed) + clients;
        if SEALED_ROUNDS.fetch_add(1, Ordering::Relaxed) + 1 == SEALED_CASES as usize {
            println!("whole updates observed: 0 of {outputs_so_far}");
        }
    }
}
