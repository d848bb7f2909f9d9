//! The participant's side of the cascade.

use crate::{onion, CascadeError, HopDescriptor};
use mixnn_core::codec::CompressionConfig;
use mixnn_crypto::SealingKey;
use mixnn_enclave::AttestationService;
use mixnn_nn::ModelParams;
use rand::Rng;

/// Builds onion-encrypted updates for a verified chain of hops.
///
/// The constructor of record is [`CascadeClient::from_attested_hops`]: a
/// participant must verify **every** hop's quote — the cascade's whole
/// point is that no single hop is trusted, so a single unverified hop
/// would reintroduce the single point of trust the chain removes.
///
/// Under stratified and free-route layouts the "chain" is one client's
/// **route**, not the whole hop set: each participant builds its own
/// client over the descriptors of the hops its route traverses (see
/// `CascadeCoordinator::client_for_slot`), and its onion carries one
/// envelope for the route's first hop plus one per layer for every hop
/// after it.
///
/// Every hop key is held as a [`SealingKey`], its comb table built once
/// when the client is made, so every shared secret an onion seals takes
/// the comb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeClient {
    hop_keys: Vec<SealingKey>,
    compression: CompressionConfig,
}

impl CascadeClient {
    /// Builds a client from hop keys **without attestation** — for tests
    /// and for the coordinator, which launched the hops itself and made
    /// their sealing keys at launch.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain — a configuration bug.
    pub fn from_keys(hop_keys: Vec<SealingKey>) -> Self {
        assert!(
            !hop_keys.is_empty(),
            "cascade client needs at least one hop"
        );
        CascadeClient {
            hop_keys,
            compression: CompressionConfig::F32,
        }
    }

    /// Sets the wire compression mode for every update this client seals.
    ///
    /// All participants of a round must agree on the mode (it is part of
    /// the round's configuration, like the layer signature) — a client on
    /// a different mode would produce differently-sized envelopes and
    /// stand out from its route group.
    #[must_use]
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// The wire compression mode this client seals with.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Verifies every hop's quote (platform signature, expected
    /// measurement, key binding) and builds a client over the attested
    /// keys — where each becomes trusted, so where its [`SealingKey`] is
    /// made. Chain order is the descriptor order.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Attestation`] naming the first hop whose
    /// quote does not verify or whose quote fails to bind its public key,
    /// and [`CascadeError::NoActiveHops`] for an empty descriptor list.
    pub fn from_attested_hops(
        hops: &[HopDescriptor],
        attestation: &AttestationService,
    ) -> Result<Self, CascadeError> {
        if hops.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        for (i, d) in hops.iter().enumerate() {
            let quote_ok = attestation.verify_quote(&d.quote, &d.expected_measurement);
            if !(quote_ok && d.quote.binds_key(&d.public_key)) {
                return Err(CascadeError::Attestation { hop: i });
            }
        }
        Ok(CascadeClient {
            hop_keys: hops.iter().map(|d| SealingKey::new(d.public_key)).collect(),
            compression: CompressionConfig::F32,
        })
    }

    /// Number of hops the onion will traverse.
    pub fn num_hops(&self) -> usize {
        self.hop_keys.len()
    }

    /// Onion-encrypts one model update for the chain and frames it for the
    /// first hop: one sealed envelope per (hop, layer) for every hop after
    /// the first, innermost for the last hop, and **one** envelope for the
    /// first hop around the frame those blobs form — `1 + L·(H − 1)`
    /// envelopes for `L` layers over `H` hops (see [`crate::OnionUpdate`]).
    /// Every layer is encoded, and every envelope nested, directly inside
    /// the returned message — the update's one allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Seal`] if a hop key is low-order (attested
    /// keys never are, but [`CascadeClient::from_keys`] accepts arbitrary
    /// ones).
    pub fn seal_update<R: Rng + ?Sized>(
        &self,
        params: &ModelParams,
        rng: &mut R,
    ) -> Result<Vec<u8>, CascadeError> {
        onion::seal_framed(params, &self.hop_keys, self.compression, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CascadeHop, CascadeHopConfig, OnionUpdate};
    use mixnn_crypto::{KeyPair, PublicKey};
    use mixnn_nn::LayerParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn descriptors(n: usize) -> (Vec<HopDescriptor>, AttestationService) {
        let mut rng = StdRng::seed_from_u64(21);
        let service = AttestationService::new(&mut rng);
        let descriptors = (0..n)
            .map(|i| {
                CascadeHop::launch(i, CascadeHopConfig::default(), &[1], &service, &mut rng)
                    .descriptor()
            })
            .collect();
        (descriptors, service)
    }

    #[test]
    fn attested_client_accepts_honest_hops() {
        let (descriptors, service) = descriptors(3);
        let client = CascadeClient::from_attested_hops(&descriptors, &service).unwrap();
        assert_eq!(client.num_hops(), 3);
    }

    #[test]
    fn rogue_key_is_caught_by_key_binding() {
        let (mut descriptors, service) = descriptors(3);
        // A man in the middle substitutes its own key on hop 1 but cannot
        // forge the quote's report data.
        let mut rng = StdRng::seed_from_u64(22);
        descriptors[1].public_key = *KeyPair::generate(&mut rng).public();
        assert_eq!(
            CascadeClient::from_attested_hops(&descriptors, &service),
            Err(CascadeError::Attestation { hop: 1 })
        );
    }

    #[test]
    fn foreign_platform_quote_is_rejected() {
        let (descriptors, _) = descriptors(2);
        let other = AttestationService::new(&mut StdRng::seed_from_u64(23));
        assert!(matches!(
            CascadeClient::from_attested_hops(&descriptors, &other),
            Err(CascadeError::Attestation { hop: 0 })
        ));
    }

    #[test]
    fn empty_chain_is_rejected() {
        let (_, service) = descriptors(1);
        assert_eq!(
            CascadeClient::from_attested_hops(&[], &service),
            Err(CascadeError::NoActiveHops)
        );
    }

    #[test]
    fn sealed_update_grows_by_one_envelope_per_hop_per_layer() {
        let mut rng = StdRng::seed_from_u64(24);
        let keys: Vec<PublicKey> = (0..4)
            .map(|_| *KeyPair::generate(&mut rng).public())
            .collect();
        let params = ModelParams::from_layers(vec![
            LayerParams::from_values(vec![1.0; 4]),
            LayerParams::from_values(vec![2.0; 2]),
        ]);
        let sizes: Vec<usize> = (1..=4)
            .map(|n| {
                CascadeClient::from_keys(keys[..n].iter().copied().map(SealingKey::new).collect())
                    .seal_update(&params, &mut rng)
                    .unwrap()
                    .len()
            })
            .collect();
        // One hop: the two plaintext layer frames in an inner frame, in
        // the entry envelope, in the entry message.
        let overhead = mixnn_crypto::sealed_box::OVERHEAD;
        let frames: usize = params
            .iter()
            .map(|l| 4 + mixnn_core::codec::encoded_layer_len_with(l.len(), CompressionConfig::F32))
            .sum();
        let header = 11;
        assert_eq!(sizes[0], header + 4 + overhead + header + frames);
        // Two layers ⇒ each further hop adds 2 × sealed-box overhead: the
        // entry envelope is paid once, whatever the route length.
        for pair in sizes.windows(2) {
            assert_eq!(pair[1] - pair[0], 2 * overhead);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The message `seal_update` builds in one buffer is, byte for
        /// byte, the onion `OnionUpdate::build_with` returns (itself pinned
        /// to envelope-by-envelope sealing) framed by `encode`, and both
        /// leave the caller's RNG in the same place — in every codec mode,
        /// over 1–4 hops, with layers on both sides of a one-byte index and
        /// of one select block.
        #[test]
        fn seal_update_is_build_with_then_encode(
            seed in 0u64..1_000_000,
            sizes in proptest::collection::vec(1usize..300, 1..9),
            hops in 1usize..5,
            mode in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<PublicKey> = (0..hops)
                .map(|_| *KeyPair::generate(&mut rng).public())
                .collect();
            let params = ModelParams::from_layers(
                sizes
                    .iter()
                    .map(|&n| LayerParams::from_values((0..n).map(|_| rng.gen()).collect()))
                    .collect(),
            );
            let mode = [
                CompressionConfig::F32,
                CompressionConfig::Int8,
                CompressionConfig::int8_top_k(),
            ][mode];
            let sealing = keys.iter().copied().map(SealingKey::new).collect();
            let client = CascadeClient::from_keys(sealing).with_compression(mode);
            let (mut framed, mut built) = (rng.clone(), rng);
            let wire = client.seal_update(&params, &mut framed).unwrap();
            let onion = OnionUpdate::build_with(&params, &keys, mode, &mut built).unwrap();
            proptest::prop_assert_eq!(&wire, &onion.encode());
            proptest::prop_assert_eq!(wire.capacity(), wire.len(), "one exact allocation");
            proptest::prop_assert_eq!(OnionUpdate::decode(&wire).unwrap(), onion);
            proptest::prop_assert_eq!(framed.gen::<u64>(), built.gen::<u64>());
        }
    }
}
