//! The onion wire format of the cascade.
//!
//! A participant splits its model update into per-layer blobs and wraps
//! **each layer separately** in one [`SealedBox`] envelope per hop,
//! innermost for the last proxy of the chain:
//!
//! ```text
//! layer l plaintext:   codec::encode_layer(values_l)
//! sealed for hop n-1:  seal(plaintext, k_{n-1})
//! sealed for hop n-2:  seal(seal(plaintext, k_{n-1}), k_{n-2})
//! …
//! on the wire:         seal(… seal(plaintext, k_{n-1}) …, k_0)
//! ```
//!
//! Hop `i` opens exactly one envelope per layer and sees only the next
//! envelope — ciphertext it cannot read — so it learns which *slots* it
//! shuffles but never the layer contents. Only the last hop uncovers
//! plaintext layers, and by then every earlier hop has re-assigned the
//! (client, layer) pairs.
//!
//! Each message (one client's update at one position in the chain) is
//! framed as:
//!
//! ```text
//! magic          u32  = 0x4d495843 ("MIXC")
//! version        u8   = 1
//! hops_remaining u8        // sealed envelopes left on every layer
//! layers         u32
//! repeat layers times:
//!     len   u32
//!     data  len bytes      // sealed blob (or plaintext when 0 hops left)
//! ```
//!
//! # One buffer per stage
//!
//! A blob shrinks by exactly one envelope header per hop and is never
//! re-encoded, so the whole path works inside the framed message:
//!
//! * the client encodes every layer and nests all its envelopes directly
//!   in the message it sends (`seal_framed`: one allocation per update);
//! * a hop parses the framing as a borrowed view ([`OnionView`] — the
//!   parser [`OnionUpdate::decode`] itself runs), opens each blob where it
//!   lies, and `frame`s every outgoing message exactly once from slices
//!   of the incoming ones — the one copy a mix cannot avoid, because it
//!   gathers blobs from different messages into one contiguous message;
//! * the server decodes layers straight out of the last hop's messages.
//!
//! [`OnionUpdate`] is the owned form of the same framing, for tests,
//! tools and anything that wants to hold a message's blobs apart.

use crate::CascadeError;
use bytes::BufMut;
use mixnn_core::codec;
use mixnn_core::codec::CompressionConfig;
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{PublicKey, SealedBox};
use mixnn_nn::{LayerParams, ModelParams};
use rand::Rng;
use std::ops::Range;

/// Onion framing magic: `"MIXC"` as a big-endian u32.
pub const MAGIC: u32 = 0x4d49_5843;
/// Current onion framing version.
pub const VERSION: u8 = 1;

/// Bytes before the first layer: magic, version, depth, layer count.
const HEADER_LEN: usize = 10;

fn put_header(out: &mut Vec<u8>, hops_remaining: u8, layers: usize) {
    out.put_u32(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(hops_remaining);
    out.put_u32(layers as u32);
}

/// Frames `blobs` — one per layer — as one wire message, written once
/// into `out`: a buffer whose contents are dead (an empty `Vec`, or a
/// spent message whose allocation is reused when it is large enough).
pub(crate) fn frame<B: AsRef<[u8]>>(hops_remaining: u8, blobs: &[B], mut out: Vec<u8>) -> Vec<u8> {
    let len = HEADER_LEN + blobs.iter().map(|b| 4 + b.as_ref().len()).sum::<usize>();
    if out.capacity() < len {
        // Too small to reuse: growing it would copy its dead bytes.
        out = Vec::with_capacity(len);
    }
    out.clear();
    put_header(&mut out, hops_remaining, blobs.len());
    for blob in blobs {
        let blob = blob.as_ref();
        out.put_u32(blob.len() as u32);
        out.put_slice(blob);
    }
    out
}

/// Builds one update's onion directly as the framed wire message: every
/// layer is encoded behind its envelope header room inside the message
/// buffer and its envelopes nested in place there — one allocation for
/// the whole update. Bytes and `rng` position are those of
/// [`OnionUpdate::build_with`] followed by [`OnionUpdate::encode`] (that
/// constructor is this function, taken apart again).
pub(crate) fn seal_framed<R: Rng + ?Sized>(
    params: &ModelParams,
    hop_keys: &[PublicKey],
    compression: CompressionConfig,
    rng: &mut R,
) -> Result<Vec<u8>, CascadeError> {
    assert!(!hop_keys.is_empty(), "onion needs at least one hop key");
    assert!(hop_keys.len() <= u8::MAX as usize, "chain too long");
    // Phase one, content-independent: every envelope's ephemeral key
    // and shared secret in one batch — drawn layer by layer, innermost
    // hop first, the order the envelopes nest in.
    let route = || hop_keys.iter().rev();
    let mut prepared = SealedBox::prepare(params.iter().flat_map(|_| route()), rng)
        .map_err(|source| CascadeError::Seal { source })?
        .into_iter();
    // Phase two: each layer's envelopes nest in the message itself,
    // envelope `i` wrapping everything from its own header to the end of
    // the blob — which, while the blob is being built, is the end of the
    // buffer.
    let headers = hop_keys.len() * OVERHEAD;
    let blob_len =
        |layer: &LayerParams| headers + codec::encoded_layer_len_with(layer.len(), compression);
    let payload: usize = params.iter().map(|layer| 4 + blob_len(layer)).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + payload);
    put_header(&mut out, hop_keys.len() as u8, params.num_layers());
    for layer in params.iter() {
        out.put_u32(blob_len(layer) as u32);
        let blob = out.len();
        out.resize(blob + headers, 0);
        codec::encode_layer_into(&mut out, layer, compression);
        for start in (0..headers).step_by(OVERHEAD).rev() {
            let envelope = prepared.next().expect("one envelope per (layer, hop)");
            envelope.seal_in_place(&mut out[blob + start..]);
        }
    }
    debug_assert_eq!(out.len(), HEADER_LEN + payload);
    Ok(out)
}

/// A framed onion message parsed where it lies: the framing is fully
/// validated by [`OnionView::parse`], the blobs stay in the message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OnionView<'a> {
    hops_remaining: u8,
    layers: usize,
    bytes: &'a [u8],
}

impl<'a> OnionView<'a> {
    /// Validates a wire message's framing without copying anything out of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] on truncation, bad magic, unknown
    /// version, implausible layer counts or trailing garbage — the checks,
    /// in the order, of [`OnionUpdate::decode`] (which calls this).
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, CascadeError> {
        let fail = |reason: &str| CascadeError::Onion {
            reason: reason.to_string(),
        };
        let be_u32 =
            |at: usize| u32::from_be_bytes(bytes[at..at + 4].try_into().expect("four bytes"));
        if bytes.len() < HEADER_LEN {
            return Err(fail("header truncated"));
        }
        if be_u32(0) != MAGIC {
            return Err(fail("bad magic"));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(CascadeError::Onion {
                reason: format!("unsupported version {version}"),
            });
        }
        let hops_remaining = bytes[5];
        let layers = be_u32(6) as usize;
        if layers == 0 {
            return Err(fail("zero layers"));
        }
        // Sanity bound: each declared layer needs at least its length
        // header.
        if layers > (bytes.len() - HEADER_LEN) / 4 + 1 {
            return Err(fail("implausible layer count"));
        }
        let mut at = HEADER_LEN;
        for _ in 0..layers {
            if bytes.len() - at < 4 {
                return Err(fail("layer header truncated"));
            }
            let len = be_u32(at) as usize;
            at += 4;
            if bytes.len() - at < len {
                return Err(fail("layer blob truncated"));
            }
            at += len;
        }
        if at != bytes.len() {
            return Err(fail("trailing bytes after last layer"));
        }
        Ok(OnionView {
            hops_remaining,
            layers,
            bytes,
        })
    }

    /// Sealed envelopes left on every layer blob.
    pub(crate) fn hops_remaining(&self) -> u8 {
        self.hops_remaining
    }

    /// Number of per-layer blobs.
    pub(crate) fn num_layers(&self) -> usize {
        self.layers
    }

    /// Where each layer's blob sits in the message, in layer order.
    pub(crate) fn blob_ranges(&self) -> impl Iterator<Item = Range<usize>> + Clone + 'a {
        let bytes = self.bytes;
        let mut at = HEADER_LEN;
        (0..self.layers).map(move |_| {
            let len = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("four bytes"));
            let blob = at + 4..at + 4 + len as usize;
            at = blob.end;
            blob
        })
    }

    /// The per-layer blobs, borrowed from the message.
    pub(crate) fn blobs(&self) -> impl Iterator<Item = &'a [u8]> + Clone + 'a {
        let bytes = self.bytes;
        self.blob_ranges().map(move |blob| &bytes[blob])
    }

    /// [`OnionUpdate::into_params`] straight from the wire slices.
    pub(crate) fn into_params(
        self,
        expected_signature: &[usize],
    ) -> Result<ModelParams, CascadeError> {
        params_from_blobs(self.hops_remaining, self.blobs(), expected_signature)
    }
}

/// Interprets fully unwrapped blobs as model parameters: the one
/// implementation behind [`OnionUpdate::into_params`] and the server's
/// decode from the wire.
fn params_from_blobs<'a>(
    hops_remaining: u8,
    blobs: impl Iterator<Item = &'a [u8]> + Clone,
    expected_signature: &[usize],
) -> Result<ModelParams, CascadeError> {
    if hops_remaining != 0 {
        return Err(CascadeError::Onion {
            reason: format!("{hops_remaining} sealed envelope(s) still wrap the layers"),
        });
    }
    let layer_err = |e: mixnn_core::ProxyError| CascadeError::Onion {
        reason: format!("inner layer plaintext: {e}"),
    };
    let declared = blobs
        .clone()
        .map(|blob| codec::declared_layer_len(blob).map_err(layer_err))
        .collect::<Result<Vec<usize>, _>>()?;
    if declared != expected_signature {
        return Err(CascadeError::SignatureMismatch {
            expected: expected_signature.to_vec(),
            actual: declared,
        });
    }
    let layers = blobs
        .zip(expected_signature)
        .map(|(blob, &len)| codec::decode_layer_expecting(blob, len).map_err(layer_err))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ModelParams::from_layers(layers))
}

/// One client's update at one position in the chain: a per-layer vector of
/// blobs, each still wrapped in `hops_remaining` sealed envelopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnionUpdate {
    hops_remaining: u8,
    layers: Vec<Vec<u8>>,
}

impl OnionUpdate {
    /// Builds a fresh onion for `params`, sealed to the given chain of hop
    /// keys (first key = first hop to receive the message).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Seal`] if any hop key is low-order — sealing
    /// to it would yield an attacker-predictable envelope key.
    ///
    /// # Panics
    ///
    /// Panics if `hop_keys` is empty or longer than 255 hops — a
    /// configuration bug, not a runtime condition.
    pub fn build<R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        Self::build_with(params, hop_keys, CompressionConfig::F32, rng)
    }

    /// [`OnionUpdate::build`] with an explicit wire compression mode for
    /// the innermost layer plaintext.
    ///
    /// The compressed frame lengths are signature-derived
    /// (`codec::encoded_layer_len_with`), so two onions built for the same
    /// model signature and chain length are byte-length-identical layer by
    /// layer — compression never becomes a client fingerprint.
    ///
    /// Sealing is two-phase (`SealedBox::prepare`): all `layers × hops`
    /// ephemeral secrets are drawn from `rng` first — layer-major, innermost
    /// hop first, 32 bytes each, exactly the draws of sealing envelope by
    /// envelope — and their X25519 ladders run as one batch; then each
    /// layer's envelopes are nested in place. The batch never extends past
    /// this one update, and no two envelopes share an ephemeral key (equal
    /// `eph_pub`s on two layers would let a hop re-link them after the mix).
    /// The onion is built as its framed wire message (what
    /// `CascadeClient::seal_update` sends as is) and the blobs are then
    /// copied apart.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OnionUpdate::build`]. How far `rng` has
    /// advanced after an error is unspecified.
    pub fn build_with<R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        compression: CompressionConfig,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let wire = seal_framed(params, hop_keys, compression, rng)?;
        // Own framing: taken apart without re-validating it.
        let view = OnionView {
            hops_remaining: hop_keys.len() as u8,
            layers: params.num_layers(),
            bytes: &wire,
        };
        Ok(OnionUpdate {
            hops_remaining: view.hops_remaining,
            layers: view.blobs().map(<[u8]>::to_vec).collect(),
        })
    }

    /// Reassembles an onion from already-processed parts (a hop re-framing
    /// the blobs it just unwrapped and mixed).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — every model has at least one layer.
    pub fn from_parts(hops_remaining: u8, layers: Vec<Vec<u8>>) -> Self {
        assert!(!layers.is_empty(), "onion must carry at least one layer");
        OnionUpdate {
            hops_remaining,
            layers,
        }
    }

    /// Sealed envelopes left on every layer blob.
    pub fn hops_remaining(&self) -> u8 {
        self.hops_remaining
    }

    /// Number of per-layer blobs.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The per-layer blobs.
    pub fn layers(&self) -> &[Vec<u8>] {
        &self.layers
    }

    /// Consumes the onion into its per-layer blobs.
    pub fn into_layers(self) -> Vec<Vec<u8>> {
        self.layers
    }

    /// Serializes the onion for transmission to the next hop.
    pub fn encode(&self) -> Vec<u8> {
        frame(self.hops_remaining, &self.layers, Vec::new())
    }

    /// Decodes an onion message from the wire.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] on truncation, bad magic, unknown
    /// version, implausible layer counts or trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, CascadeError> {
        let view = OnionView::parse(bytes)?;
        Ok(OnionUpdate {
            hops_remaining: view.hops_remaining(),
            layers: view.blobs().map(<[u8]>::to_vec).collect(),
        })
    }

    /// Interprets a fully unwrapped onion (`hops_remaining == 0`) as model
    /// parameters and validates the layer signature — what the aggregation
    /// server does with the last hop's output.
    ///
    /// The signature check runs on the frames' **declared** headers before
    /// any layer is decoded: a crafted frame naming a parameter count the
    /// round's signature never authorized is rejected without allocating
    /// a value buffer for it (the codec's `*_expecting` decoders re-check
    /// per layer).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] if envelopes remain or a layer fails
    /// to decode, and [`CascadeError::SignatureMismatch`] if the declared
    /// signature differs from `expected_signature`.
    pub fn into_params(self, expected_signature: &[usize]) -> Result<ModelParams, CascadeError> {
        let blobs = self.layers.iter().map(Vec::as_slice);
        params_from_blobs(self.hops_remaining, blobs, expected_signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_crypto::KeyPair;
    use mixnn_nn::LayerParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![1.0, -2.5, 3.25]),
            LayerParams::from_values(vec![0.5]),
        ])
    }

    #[test]
    fn onion_peels_hop_by_hop_to_the_original_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let p = params();
        let onion = OnionUpdate::build(&p, &publics, &mut rng).unwrap();
        assert_eq!(onion.hops_remaining(), 3);
        assert_eq!(onion.num_layers(), 2);

        let mut layers = onion.into_layers();
        for kp in &keys {
            layers = layers
                .iter()
                .map(|blob| SealedBox::open(blob, kp).expect("envelope addressed to this hop"))
                .collect();
        }
        let unwrapped = OnionUpdate::from_parts(0, layers);
        assert_eq!(unwrapped.into_params(&p.signature()).unwrap(), p);
    }

    #[test]
    fn wrong_hop_order_cannot_open() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let onion = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        // The second hop's key cannot open the outermost envelope.
        assert!(SealedBox::open(&onion.layers()[0], &keys[1]).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(&mut rng);
        let onion = OnionUpdate::build(&params(), &[*kp.public()], &mut rng).unwrap();
        let decoded = OnionUpdate::decode(&onion.encode()).unwrap();
        assert_eq!(decoded, onion);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&mut rng);
        let bytes = OnionUpdate::build(&params(), &[*kp.public()], &mut rng)
            .unwrap()
            .encode();
        for cut in 0..bytes.len() {
            assert!(
                OnionUpdate::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&mut rng);
        let good = OnionUpdate::build(&params(), &[*kp.public()], &mut rng)
            .unwrap()
            .encode();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(OnionUpdate::decode(&bad).is_err());

        let mut bad = good.clone();
        bad[4] = 9; // version
        assert!(OnionUpdate::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("version 9"));

        let mut bad = good.clone();
        bad.push(0);
        assert!(OnionUpdate::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn view_borrows_what_decode_copies_and_frame_reuses_a_spent_buffer() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp = KeyPair::generate(&mut rng);
        let onion = OnionUpdate::build(&params(), &[*kp.public()], &mut rng).unwrap();
        let wire = onion.encode();
        let view = OnionView::parse(&wire).unwrap();
        assert_eq!(view.hops_remaining(), onion.hops_remaining());
        assert_eq!(view.num_layers(), onion.num_layers());
        let blobs: Vec<&[u8]> = view.blobs().collect();
        assert_eq!(
            blobs,
            onion.layers().iter().map(Vec::as_slice).collect::<Vec<_>>()
        );
        for (range, blob) in view.blob_ranges().zip(&blobs) {
            assert_eq!(&wire[range], *blob);
        }
        // Framing the borrowed blobs into a dirty, larger buffer gives the
        // same message in the same allocation.
        let spent = vec![0xeeu8; wire.len() + 100];
        let at = spent.as_ptr();
        let reframed = frame(view.hops_remaining(), &blobs, spent);
        assert_eq!(reframed, wire);
        assert_eq!(reframed.as_ptr(), at);
    }

    #[test]
    fn implausible_layer_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.put_u32(MAGIC);
        bytes.put_u8(VERSION);
        bytes.put_u8(1);
        bytes.put_u32(u32::MAX);
        assert!(OnionUpdate::decode(&bytes)
            .unwrap_err()
            .to_string()
            .contains("implausible"));
    }

    #[test]
    fn compressed_onion_peels_to_the_canonical_decode() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let p = params();
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let onion = OnionUpdate::build_with(&p, &publics, mode, &mut rng).unwrap();
            let mut layers = onion.into_layers();
            for kp in &keys {
                layers = layers
                    .iter()
                    .map(|blob| SealedBox::open(blob, kp).unwrap())
                    .collect();
            }
            let decoded = OnionUpdate::from_parts(0, layers)
                .into_params(&p.signature())
                .unwrap();
            // The server recovers exactly the canonical post-wire values.
            assert_eq!(
                decoded,
                codec::canonical_params(&p, mode),
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn compressed_onions_are_length_identical_across_contents() {
        // Same signature, different values -> every layer blob (and the
        // whole framed message) is byte-length-identical. This is the
        // unlinkability requirement the v2 codec exists to preserve.
        let mut rng = StdRng::seed_from_u64(8);
        let keys: Vec<PublicKey> = (0..3)
            .map(|_| *KeyPair::generate(&mut rng).public())
            .collect();
        let a = params();
        let b = ModelParams::from_layers(vec![
            LayerParams::from_values(vec![f32::NAN, 1e30, -1e-30]),
            LayerParams::from_values(vec![0.0]),
        ]);
        for mode in [
            CompressionConfig::F32,
            CompressionConfig::Int8,
            CompressionConfig::int8_top_k(),
        ] {
            let oa = OnionUpdate::build_with(&a, &keys, mode, &mut rng).unwrap();
            let ob = OnionUpdate::build_with(&b, &keys, mode, &mut rng).unwrap();
            for (la, lb) in oa.layers().iter().zip(ob.layers()) {
                assert_eq!(la.len(), lb.len(), "{}", mode.name());
            }
            assert_eq!(oa.encode().len(), ob.encode().len(), "{}", mode.name());
        }
    }

    /// Onion building as it was before the two-phase split: envelope by
    /// envelope, each one drawing, laddering and sealing before the next.
    /// The definition [`OnionUpdate::build_with`] must reproduce — bytes
    /// and RNG position.
    fn build_envelope_by_envelope(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        compression: CompressionConfig,
        rng: &mut StdRng,
    ) -> Result<OnionUpdate, CascadeError> {
        let layers = params
            .iter()
            .map(|layer| {
                let mut blob = codec::encode_layer_with(layer, compression);
                for key in hop_keys.iter().rev() {
                    blob = SealedBox::seal(&blob, key, rng)
                        .map_err(|source| CascadeError::Seal { source })?;
                }
                Ok(blob)
            })
            .collect::<Result<_, CascadeError>>()?;
        Ok(OnionUpdate::from_parts(hop_keys.len() as u8, layers))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Batched building is bit-identical to the envelope-by-envelope
        /// loop, and leaves the caller's RNG where the loop leaves it, for
        /// any layer count, chain length, layer sizes and codec mode —
        /// 2..=64 ladders, so every lane split of the batched driver, and
        /// layers on both sides of a one-byte index and of one select
        /// block, each frame encoded in place behind its header room.
        #[test]
        fn batched_build_matches_envelope_by_envelope(
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
            let (mut batched, mut looped) = (rng.clone(), rng);
            let onion = OnionUpdate::build_with(&params, &keys, mode, &mut batched).unwrap();
            let expected = build_envelope_by_envelope(&params, &keys, mode, &mut looped).unwrap();
            proptest::prop_assert_eq!(onion, expected);
            proptest::prop_assert_eq!(batched.gen::<u64>(), looped.gen::<u64>());
        }
    }

    #[test]
    fn low_order_hop_key_mid_route_is_the_same_seal_error() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut keys: Vec<PublicKey> = (0..3)
            .map(|_| *KeyPair::generate(&mut rng).public())
            .collect();
        keys[1] = PublicKey::from_bytes([0u8; 32]);
        let batched = OnionUpdate::build(&params(), &keys, &mut rng).unwrap_err();
        let looped = build_envelope_by_envelope(&params(), &keys, CompressionConfig::F32, &mut rng)
            .unwrap_err();
        assert_eq!(batched, looped);
        assert_eq!(
            batched,
            CascadeError::Seal {
                source: mixnn_crypto::CryptoError::LowOrderPoint
            }
        );
    }

    #[test]
    fn every_envelope_of_an_onion_has_its_own_ephemeral_key() {
        // Peel a 5-layer, 3-hop onion and collect the eph_pub of all 15
        // envelopes: any repeat would link two layers (or two hops' views
        // of one layer) of the same client.
        let mut rng = StdRng::seed_from_u64(10);
        let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let p = ModelParams::from_layers(
            (1..=5)
                .map(|n| LayerParams::from_values(vec![0.25; n]))
                .collect(),
        );
        let mut layers = OnionUpdate::build(&p, &publics, &mut rng)
            .unwrap()
            .into_layers();
        let mut eph_pubs = Vec::new();
        for kp in &keys {
            eph_pubs.extend(layers.iter().map(|blob| blob[..32].to_vec()));
            layers = layers
                .iter()
                .map(|blob| SealedBox::open(blob, kp).unwrap())
                .collect();
        }
        assert_eq!(eph_pubs.len(), 15);
        eph_pubs.sort_unstable();
        eph_pubs.dedup();
        assert_eq!(eph_pubs.len(), 15, "an ephemeral key was reused");
    }

    #[test]
    fn into_params_refuses_wrapped_layers_and_foreign_signatures() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(&mut rng);
        let p = params();
        let wrapped = OnionUpdate::build(&p, &[*kp.public()], &mut rng).unwrap();
        assert!(matches!(
            wrapped.clone().into_params(&p.signature()),
            Err(CascadeError::Onion { .. })
        ));

        let plain =
            OnionUpdate::from_parts(0, p.iter().map(mixnn_core::codec::encode_layer).collect());
        assert!(matches!(
            plain.into_params(&[9, 9]),
            Err(CascadeError::SignatureMismatch { .. })
        ));
    }
}
