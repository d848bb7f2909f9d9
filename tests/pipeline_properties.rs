//! Property-based integration tests: the §4.2 equivalence and the wire
//! pipeline hold for *arbitrary* update contents, counts and shapes.

use mixnn::crypto::{KeyPair, SealedBox};
use mixnn::nn::{LayerParams, ModelParams};
use mixnn::proxy::{codec, MixPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_signature() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..12, 1..5)
}

fn params_for(signature: &[usize], fill: &[f32]) -> ModelParams {
    let mut it = fill.iter().cycle();
    ModelParams::from_layers(
        signature
            .iter()
            .map(|&len| LayerParams::from_values((0..len).map(|_| *it.next().unwrap()).collect()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch mixing never changes the FedAvg aggregate, for any update
    /// contents and any participant count ≥ layer count or not.
    #[test]
    fn batch_mixing_preserves_mean(
        signature in arb_signature(),
        participants in 1usize..12,
        fill in proptest::collection::vec(-100.0f32..100.0, 8),
        seed in 0u64..1000,
    ) {
        let updates: Vec<ModelParams> = (0..participants)
            .map(|i| {
                let shifted: Vec<f32> = fill.iter().map(|v| v + i as f32).collect();
                params_for(&signature, &shifted)
            })
            .collect();
        let plan = MixPlan::for_round(participants, signature.len(), &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let rows = updates.iter().map(|u| u.iter().cloned().collect()).collect();
        let mixed: Vec<ModelParams> = plan
            .apply_owned(rows)
            .unwrap()
            .into_iter()
            .map(ModelParams::from_layers)
            .collect();
        prop_assert!(plan.is_column_bijective());
        prop_assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&mixed));
    }

    /// The Latin plan satisfies both §4.2 matrix conditions whenever it is
    /// constructible.
    #[test]
    fn latin_plan_conditions(participants in 1usize..30, layers in 1usize..8, seed in 0u64..500) {
        prop_assume!(layers <= participants);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = MixPlan::latin(participants, layers, &mut rng).unwrap();
        prop_assert!(plan.is_column_bijective());
        prop_assert!(plan.is_row_distinct());
    }

    /// The wire codec round-trips arbitrary parameter sets bit-exactly.
    #[test]
    fn codec_round_trip(
        signature in arb_signature(),
        fill in proptest::collection::vec(proptest::num::f32::ANY, 8),
    ) {
        let p = params_for(&signature, &fill);
        let decoded = codec::decode_params(&codec::encode_params(&p)).unwrap();
        let bits = |m: &ModelParams| -> Vec<u32> {
            m.flatten().iter().map(|f| f.to_bits()).collect()
        };
        prop_assert_eq!(bits(&p), bits(&decoded));
        prop_assert_eq!(p.signature(), decoded.signature());
    }

    /// Sealed boxes round-trip arbitrary payloads and reject any single
    /// bit flip.
    #[test]
    fn sealed_box_round_trip_and_integrity(
        payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        flip in 0usize..1000,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let sealed = SealedBox::seal(&payload, kp.public(), &mut rng).unwrap();
        prop_assert_eq!(SealedBox::open(&sealed, &kp).unwrap(), payload);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(SealedBox::open(&bad, &kp).is_err());
    }

    /// FedAvg through `ModelParams::mean` is bitwise permutation-invariant
    /// for arbitrary inputs — the numerical backbone of the equivalence.
    #[test]
    fn mean_is_bitwise_permutation_invariant(
        signature in arb_signature(),
        participants in 1usize..10,
        fill in proptest::collection::vec(-1.0e6f32..1.0e6, 8),
        rotate in 0usize..10,
    ) {
        let updates: Vec<ModelParams> = (0..participants)
            .map(|i| {
                let shifted: Vec<f32> = fill.iter().map(|v| v * (i as f32 + 0.5)).collect();
                params_for(&signature, &shifted)
            })
            .collect();
        let mut rotated = updates.clone();
        rotated.rotate_left(rotate % participants.max(1));
        prop_assert_eq!(
            ModelParams::mean(&updates),
            ModelParams::mean(&rotated)
        );
    }
}
