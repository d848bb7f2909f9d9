//! The onion wire format of the cascade (MIXC version 2).
//!
//! A participant splits its model update into per-layer blobs and wraps
//! **each layer separately** in one [`SealedBox`] envelope per hop *after
//! the first*, innermost for the last proxy of its route; the per-layer
//! blobs are framed together, and that frame is wrapped in **one**
//! envelope for the first hop:
//!
//! ```text
//! layer l plaintext:   codec::encode_layer(values_l)
//! sealed for hop n-1:  seal(plaintext, k_{n-1})
//! …
//! sealed for hop 1:    bₗ = seal(… seal(plaintext, k_{n-1}) …, k_1)
//! inner frame:         F  = inner(n-1; b₀, …, b_{L-1})
//! on the wire:         entry(n; seal(F, k_0))
//! ```
//!
//! Per-layer envelopes exist so that a hop cannot re-link blobs a mix has
//! moved into different slots: every blob a hop receives *after a mix*
//! carries its own ephemeral key. Before the first mix there is nothing
//! to hide — the entry hop receives all `L` blobs of one sender in one
//! message and knows they belong together — so the outermost layer is one
//! envelope around the whole frame: `1 + L·(n−1)` envelopes per update
//! instead of `L·n`. The entry hop opens that envelope in place and mixes
//! the inner frame's blobs, still sealed to hops `1…n−1`; from there on
//! hop `i` opens exactly one envelope per layer and sees only the next
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
//! version        u8   = 2
//! kind           u8        // 0 inner: one blob per layer
//!                          // 1 entry: one blob, an envelope around an inner frame
//! hops_remaining u8        // envelopes left on the way to the plaintext
//! blobs          u32       // inner: the layer count; entry: always 1
//! repeat blobs times:
//!     len   u32
//!     data  len bytes      // sealed blob (inner, 0 hops left: plaintext)
//! ```
//!
//! The kind is stated, never inferred from the blob count: a one-layer
//! model's inner frame also carries one blob. An entry message of depth
//! `n` wraps an inner frame of depth `n − 1`; hops only ever emit inner
//! frames, and the server accepts nothing else.
//!
//! # One buffer per stage
//!
//! A blob shrinks by exactly one envelope header per hop and is never
//! re-encoded, so the whole path works inside the framed message:
//!
//! * the client encodes every layer and nests all its envelopes directly
//!   in the message it sends (`seal_framed`: one allocation per update);
//! * a hop parses the framing as a borrowed view ([`OnionView`] — the
//!   parser [`OnionUpdate::decode`] itself runs), opens each envelope
//!   where it lies, and `frame`s every outgoing message exactly once from
//!   slices of the incoming ones — the one copy a mix cannot avoid,
//!   because it gathers blobs from different messages into one contiguous
//!   message;
//! * the server decodes layers straight out of the last hop's messages.
//!
//! And no stage but the client needs a buffer of its own: a hop writes
//! its outgoing messages into buffers an earlier stage is done with —
//! along a route, the ones the previous stage's messages arrived in; at
//! the first hop of a route, last round's server-bound messages, which
//! the coordinator keeps once the server has decoded them. `frame` takes
//! such a buffer when its capacity is between the message's length and
//! twice it ([`SpentBuffers::reuse`]) and allocates exactly otherwise, so
//! a smaller round or a more compressed codec cannot pin the memory of a
//! larger one.
//!
//! [`OnionUpdate`] is the owned form of the same framing, for tests,
//! tools and anything that wants to hold a message's blobs apart.

use crate::CascadeError;
use bytes::BufMut;
use mixnn_core::codec;
use mixnn_core::codec::CompressionConfig;
use mixnn_core::SpentBuffers;
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{Recipient, SealedBox};
use mixnn_nn::{LayerParams, ModelParams};
use rand::Rng;
use std::ops::Range;

/// Onion framing magic: `"MIXC"` as a big-endian u32.
pub const MAGIC: u32 = 0x4d49_5843;
/// The onion framing version — the only one accepted.
pub const VERSION: u8 = 2;

/// Bytes before the first blob: magic, version, kind, depth, blob count.
const HEADER_LEN: usize = 11;

/// Header `kind` of a message whose blobs are one per layer.
const KIND_INNER: u8 = 0;
/// Header `kind` of a message whose one blob is the entry hop's envelope
/// around an inner frame.
const KIND_ENTRY: u8 = 1;

fn put_header(out: &mut Vec<u8>, entry: bool, hops_remaining: u8, blobs: usize) {
    out.put_u32(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(if entry { KIND_ENTRY } else { KIND_INNER });
    out.put_u8(hops_remaining);
    out.put_u32(blobs as u32);
}

/// Writes one message of either kind into `out`, reusing its allocation
/// under [`SpentBuffers::reuse`]'s rule: at least the message's length and
/// at most twice it.
fn frame_as<B: AsRef<[u8]>>(entry: bool, hops_remaining: u8, blobs: &[B], out: Vec<u8>) -> Vec<u8> {
    let len = HEADER_LEN + blobs.iter().map(|b| 4 + b.as_ref().len()).sum::<usize>();
    let mut out = SpentBuffers::reuse(out, len);
    put_header(&mut out, entry, hops_remaining, blobs.len());
    for blob in blobs {
        let blob = blob.as_ref();
        out.put_u32(blob.len() as u32);
        out.put_slice(blob);
    }
    out
}

/// Frames `blobs` — one per layer — as one inner wire message, written
/// once into `out`: a buffer whose contents are dead (an empty `Vec`, or a
/// spent message whose allocation is reused when its size fits).
pub(crate) fn frame<B: AsRef<[u8]>>(hops_remaining: u8, blobs: &[B], out: Vec<u8>) -> Vec<u8> {
    frame_as(false, hops_remaining, blobs, out)
}

/// Builds one update's onion directly as the framed entry message: every
/// layer is encoded behind its envelope header room inside the message
/// buffer, its envelopes for hops `1…` nested in place there, and the
/// entry hop's envelope sealed last around the inner frame they form —
/// one allocation for the whole update. Bytes and `rng` position are
/// those of [`OnionUpdate::build_with`] followed by
/// [`OnionUpdate::encode`] (that constructor is this function, taken
/// apart again).
pub(crate) fn seal_framed<K: Recipient, R: Rng + ?Sized>(
    params: &ModelParams,
    hop_keys: &[K],
    compression: CompressionConfig,
    rng: &mut R,
) -> Result<Vec<u8>, CascadeError> {
    assert!(hop_keys.len() <= u8::MAX as usize, "chain too long");
    let (entry_key, inner_keys) = hop_keys
        .split_first()
        .expect("onion needs at least one hop key");
    // Phase one, content-independent: every envelope's ephemeral key
    // and shared secret in one batch — drawn in the order the envelopes
    // are sealed: layer by layer, innermost hop first, then the entry
    // envelope around them all.
    let recipients = params
        .iter()
        .flat_map(|_| inner_keys.iter().rev())
        .chain([entry_key]);
    let mut prepared = SealedBox::prepare(recipients, rng)
        .map_err(|source| CascadeError::Seal { source })?
        .into_iter();
    // Phase two: each layer's envelopes nest in the message itself,
    // envelope `i` wrapping everything from its own header to the end of
    // the blob — which, while the blob is being built, is the end of the
    // buffer. The entry envelope wraps everything behind its header.
    let headers = inner_keys.len() * OVERHEAD;
    let blob_len =
        |layer: &LayerParams| headers + codec::encoded_layer_len_with(layer.len(), compression);
    let inner_len = HEADER_LEN + params.iter().map(|l| 4 + blob_len(l)).sum::<usize>();
    let envelope_len =
        u32::try_from(OVERHEAD + inner_len).expect("an update fits one length-prefixed blob");
    let total = HEADER_LEN + 4 + OVERHEAD + inner_len;
    let mut out = Vec::with_capacity(total);
    put_header(&mut out, true, hop_keys.len() as u8, 1);
    out.put_u32(envelope_len);
    let envelope = out.len();
    out.resize(envelope + OVERHEAD, 0);
    put_header(&mut out, false, inner_keys.len() as u8, params.num_layers());
    for layer in params.iter() {
        out.put_u32(blob_len(layer) as u32);
        let blob = out.len();
        out.resize(blob + headers, 0);
        codec::encode_layer_into(&mut out, layer, compression);
        for start in (0..headers).step_by(OVERHEAD).rev() {
            let envelope = prepared
                .next()
                .expect("one envelope per (layer, inner hop)");
            envelope.seal_in_place(&mut out[blob + start..]);
        }
    }
    let entry = prepared
        .next()
        .expect("the entry envelope is prepared last");
    entry.seal_in_place(&mut out[envelope..]);
    debug_assert_eq!(out.len(), total);
    Ok(out)
}

/// A framed onion message parsed where it lies: the framing is fully
/// validated by [`OnionView::parse`], the blobs stay in the message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OnionView<'a> {
    entry: bool,
    hops_remaining: u8,
    blobs: usize,
    bytes: &'a [u8],
}

impl<'a> OnionView<'a> {
    /// Validates a wire message's framing without copying anything out of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] on truncation, bad magic, any
    /// version but [`VERSION`], an unknown kind, an entry message that
    /// does not carry exactly one envelope, implausible blob counts or
    /// trailing garbage — the checks, in the order, of
    /// [`OnionUpdate::decode`] (which calls this).
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
        let entry = match bytes[5] {
            KIND_INNER => false,
            KIND_ENTRY => true,
            kind => {
                return Err(CascadeError::Onion {
                    reason: format!("unknown message kind {kind}"),
                })
            }
        };
        let hops_remaining = bytes[6];
        let blobs = be_u32(7) as usize;
        if blobs == 0 {
            return Err(fail("zero layers"));
        }
        if entry && blobs != 1 {
            return Err(fail("entry message must carry exactly one envelope"));
        }
        // Sanity bound: each declared blob needs at least its length
        // header.
        if blobs > (bytes.len() - HEADER_LEN) / 4 + 1 {
            return Err(fail("implausible layer count"));
        }
        let mut at = HEADER_LEN;
        for _ in 0..blobs {
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
            entry,
            hops_remaining,
            blobs,
            bytes,
        })
    }

    /// Whether this is a client's entry message: its one blob is the
    /// entry hop's envelope around an inner frame.
    pub(crate) fn is_entry(&self) -> bool {
        self.entry
    }

    /// Sealed envelopes left between this message and the plaintext.
    pub(crate) fn hops_remaining(&self) -> u8 {
        self.hops_remaining
    }

    /// Number of blobs: one per layer, or the one entry envelope.
    pub(crate) fn num_layers(&self) -> usize {
        self.blobs
    }

    /// Where each blob sits in the message, in order.
    pub(crate) fn blob_ranges(&self) -> impl Iterator<Item = Range<usize>> + Clone + 'a {
        let bytes = self.bytes;
        let mut at = HEADER_LEN;
        (0..self.blobs).map(move |_| {
            let len = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("four bytes"));
            let blob = at + 4..at + 4 + len as usize;
            at = blob.end;
            blob
        })
    }

    /// The blobs, borrowed from the message.
    pub(crate) fn blobs(&self) -> impl Iterator<Item = &'a [u8]> + Clone + 'a {
        let bytes = self.bytes;
        self.blob_ranges().map(move |blob| &bytes[blob])
    }

    /// [`OnionUpdate::into_params`] straight from the wire slices.
    pub(crate) fn into_params(
        self,
        expected_signature: &[usize],
    ) -> Result<ModelParams, CascadeError> {
        params_from_blobs(
            self.entry,
            self.hops_remaining,
            self.blobs(),
            expected_signature,
        )
    }
}

/// Interprets fully unwrapped blobs as model parameters: the one
/// implementation behind [`OnionUpdate::into_params`] and the server's
/// decode from the wire.
fn params_from_blobs<'a>(
    entry: bool,
    hops_remaining: u8,
    blobs: impl Iterator<Item = &'a [u8]> + Clone,
    expected_signature: &[usize],
) -> Result<ModelParams, CascadeError> {
    if entry {
        return Err(CascadeError::Onion {
            reason: "the entry envelope still wraps the update".to_string(),
        });
    }
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

/// One client's update at one position in the chain, owned: either the
/// entry message a client sends — one blob, the entry hop's envelope
/// around everything else — or an inner message, a per-layer vector of
/// blobs each still wrapped in `hops_remaining` sealed envelopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnionUpdate {
    entry: bool,
    hops_remaining: u8,
    layers: Vec<Vec<u8>>,
}

impl OnionUpdate {
    /// Builds a fresh onion for `params`, sealed to the given chain of hop
    /// keys (first key = first hop to receive the message). Either key
    /// type gives the same bytes: a [`mixnn_crypto::SealingKey`] per hop
    /// seals through the comb over its table, as a client does, and a bare
    /// [`mixnn_crypto::PublicKey`] through the ladder.
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
    pub fn build<K: Recipient, R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[K],
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        Self::build_with(params, hop_keys, CompressionConfig::F32, rng)
    }

    /// [`OnionUpdate::build`] with an explicit wire compression mode for
    /// the innermost layer plaintext. The result is the client's **entry
    /// message** ([`OnionUpdate::is_entry`]): one blob, `hop_keys[0]`'s
    /// envelope around the inner frame of per-layer blobs sealed to
    /// `hop_keys[1..]`.
    ///
    /// The compressed frame lengths are signature-derived
    /// (`codec::encoded_layer_len_with`), so two onions built for the same
    /// model signature and chain length are byte-length-identical, inside
    /// the entry envelope layer by layer — compression never becomes a
    /// client fingerprint.
    ///
    /// Sealing is two-phase (`SealedBox::prepare`): all
    /// `1 + layers × (hops − 1)` ephemeral secrets are drawn from `rng`
    /// first — layer-major, innermost hop first, the entry envelope's
    /// last, 32 bytes each, exactly the draws of sealing envelope by
    /// envelope — and their X25519 ladders run as one batch; then each
    /// layer's envelopes are nested in place and the entry envelope sealed
    /// around them. The batch never extends past this one update, and no
    /// two envelopes share an ephemeral key (equal `eph_pub`s on two layers
    /// would let a hop re-link them after the mix). The onion is built as
    /// its framed wire message (what `CascadeClient::seal_update` sends as
    /// is) and the envelope is then copied out of it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OnionUpdate::build`]. How far `rng` has
    /// advanced after an error is unspecified.
    pub fn build_with<K: Recipient, R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[K],
        compression: CompressionConfig,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let wire = seal_framed(params, hop_keys, compression, rng)?;
        // Own framing: taken apart without re-validating it.
        let view = OnionView {
            entry: true,
            hops_remaining: hop_keys.len() as u8,
            blobs: 1,
            bytes: &wire,
        };
        Ok(Self::from_view(view))
    }

    fn from_view(view: OnionView<'_>) -> Self {
        OnionUpdate {
            entry: view.entry,
            hops_remaining: view.hops_remaining,
            layers: view.blobs().map(<[u8]>::to_vec).collect(),
        }
    }

    /// Reassembles an inner onion from already-processed parts (a hop
    /// re-framing the blobs it just unwrapped and mixed).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — every model has at least one layer.
    pub fn from_parts(hops_remaining: u8, layers: Vec<Vec<u8>>) -> Self {
        assert!(!layers.is_empty(), "onion must carry at least one layer");
        OnionUpdate {
            entry: false,
            hops_remaining,
            layers,
        }
    }

    /// Whether this is a client's entry message: [`OnionUpdate::layers`]
    /// is then the single envelope for the first hop, whose plaintext is
    /// the encoded inner onion of depth `hops_remaining − 1`.
    pub fn is_entry(&self) -> bool {
        self.entry
    }

    /// Sealed envelopes left between this message and the plaintext.
    pub fn hops_remaining(&self) -> u8 {
        self.hops_remaining
    }

    /// Number of blobs: one per layer, or 1 for an entry message.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The blobs: one per layer, or the one entry envelope.
    pub fn layers(&self) -> &[Vec<u8>] {
        &self.layers
    }

    /// Consumes the onion into its blobs.
    pub fn into_layers(self) -> Vec<Vec<u8>> {
        self.layers
    }

    /// Serializes the onion for transmission to the next hop.
    pub fn encode(&self) -> Vec<u8> {
        frame_as(self.entry, self.hops_remaining, &self.layers, Vec::new())
    }

    /// Decodes an onion message — entry or inner — from the wire;
    /// [`OnionUpdate::encode`] gives the same bytes back.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] on truncation, bad magic, an
    /// unsupported version, an unknown kind, implausible layer counts or
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, CascadeError> {
        OnionView::parse(bytes).map(Self::from_view)
    }

    /// Interprets a fully unwrapped onion (an inner message with
    /// `hops_remaining == 0`) as model parameters and validates the layer
    /// signature — what the aggregation server does with the last hop's
    /// output.
    ///
    /// The signature check runs on the frames' **declared** headers before
    /// any layer is decoded: a crafted frame naming a parameter count the
    /// round's signature never authorized is rejected without allocating
    /// a value buffer for it (the codec's `*_expecting` decoders re-check
    /// per layer).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] for an entry message, if envelopes
    /// remain or a layer fails to decode, and
    /// [`CascadeError::SignatureMismatch`] if the declared signature
    /// differs from `expected_signature`.
    pub fn into_params(self, expected_signature: &[usize]) -> Result<ModelParams, CascadeError> {
        let blobs = self.layers.iter().map(Vec::as_slice);
        params_from_blobs(self.entry, self.hops_remaining, blobs, expected_signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_crypto::{KeyPair, PublicKey, SealingKey};
    use mixnn_nn::LayerParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![1.0, -2.5, 3.25]),
            LayerParams::from_values(vec![0.5]),
        ])
    }

    fn keypairs(n: usize, rng: &mut StdRng) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(rng)).collect();
        let publics = keys.iter().map(|k| *k.public()).collect();
        (keys, publics)
    }

    /// What the entry hop does to a client's message: opens the one
    /// envelope and finds the inner onion, one envelope shallower.
    fn open_entry(onion: &OnionUpdate, entry_hop: &KeyPair) -> OnionUpdate {
        assert!(onion.is_entry());
        assert_eq!(onion.num_layers(), 1, "an entry message is one envelope");
        let frame =
            SealedBox::open(&onion.layers()[0], entry_hop).expect("sealed to the entry hop");
        let inner = OnionUpdate::decode(&frame).expect("the envelope wraps a valid inner frame");
        assert!(!inner.is_entry());
        assert_eq!(inner.hops_remaining(), onion.hops_remaining() - 1);
        inner
    }

    /// Peels a whole onion with the route's keys, down to plaintext blobs.
    fn peel(onion: &OnionUpdate, keys: &[KeyPair]) -> OnionUpdate {
        let inner = open_entry(onion, &keys[0]);
        let mut layers = inner.into_layers();
        for kp in &keys[1..] {
            layers = layers
                .iter()
                .map(|blob| SealedBox::open(blob, kp).expect("envelope addressed to this hop"))
                .collect();
        }
        OnionUpdate::from_parts(0, layers)
    }

    #[test]
    fn onion_peels_hop_by_hop_to_the_original_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = params();
        for hops in 1..=3 {
            let (keys, publics) = keypairs(hops, &mut rng);
            let onion = OnionUpdate::build(&p, &publics, &mut rng).unwrap();
            assert_eq!(onion.hops_remaining(), hops as u8);
            let inner = open_entry(&onion, &keys[0]);
            assert_eq!(inner.num_layers(), 2);
            assert_eq!(peel(&onion, &keys).into_params(&p.signature()).unwrap(), p);
        }
    }

    #[test]
    fn wrong_hop_order_cannot_open() {
        let mut rng = StdRng::seed_from_u64(2);
        let (keys, publics) = keypairs(2, &mut rng);
        let onion = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        // The second hop's key cannot open the entry envelope, nor the
        // first hop's the blobs inside it.
        assert!(SealedBox::open(&onion.layers()[0], &keys[1]).is_err());
        let inner = open_entry(&onion, &keys[0]);
        assert!(SealedBox::open(&inner.layers()[0], &keys[0]).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let (keys, publics) = keypairs(2, &mut rng);
        let entry = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        let inner = open_entry(&entry, &keys[0]);
        for onion in [entry, inner] {
            let wire = onion.encode();
            let decoded = OnionUpdate::decode(&wire).unwrap();
            assert_eq!(decoded, onion);
            assert_eq!(decoded.encode(), wire);
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let (keys, publics) = keypairs(2, &mut rng);
        let entry = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        for bytes in [entry.encode(), open_entry(&entry, &keys[0]).encode()] {
            for cut in 0..bytes.len() {
                assert!(
                    OnionUpdate::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} accepted"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&mut rng);
        let good = OnionUpdate::build(&params(), &[*kp.public()], &mut rng)
            .unwrap()
            .encode();
        let reason = |bytes: &[u8]| OnionUpdate::decode(bytes).unwrap_err().to_string();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(OnionUpdate::decode(&bad).is_err());

        // Exactly one version is spoken; its predecessor is a typed error
        // like any other unknown one.
        for version in [1u8, 3, 9] {
            let mut bad = good.clone();
            bad[4] = version;
            assert!(reason(&bad).contains(&format!("unsupported version {version}")));
        }

        let mut bad = good.clone();
        bad[5] = 2;
        assert!(reason(&bad).contains("unknown message kind 2"));

        let mut bad = good.clone();
        bad.push(0);
        assert!(reason(&bad).contains("trailing"));

        // An entry message is one envelope: two blobs under the entry kind
        // are refused however well they are framed.
        let blobs = [vec![7u8; 70], vec![8u8; 70]];
        let two = frame_as(true, 1, &blobs, Vec::new());
        assert!(reason(&two).contains("exactly one envelope"));
        assert!(OnionUpdate::decode(&frame(1, &blobs, Vec::new())).is_ok());
    }

    #[test]
    fn view_borrows_what_decode_copies_and_frame_reuses_a_spent_buffer() {
        let mut rng = StdRng::seed_from_u64(11);
        let (keys, publics) = keypairs(2, &mut rng);
        let entry = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        let onion = open_entry(&entry, &keys[0]);
        let wire = onion.encode();
        let view = OnionView::parse(&wire).unwrap();
        assert!(!view.is_entry());
        assert!(OnionView::parse(&entry.encode()).unwrap().is_entry());
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
        // Framing the borrowed blobs into a dirty buffer of between the
        // message's length and twice it gives the same message in the same
        // allocation; a shorter or a longer one is left for an exact
        // allocation, and the message is the same either way.
        for (extra, reused) in [
            (0, true),
            (100, true),
            (wire.len(), true),
            (wire.len() + 1, false),
        ] {
            let spent = vec![0xeeu8; wire.len() + extra];
            let at = spent.as_ptr();
            let reframed = frame(view.hops_remaining(), &blobs, spent);
            assert_eq!(reframed, wire);
            assert_eq!(reframed.as_ptr() == at, reused, "extra {extra}");
            assert_eq!(
                reframed.capacity(),
                wire.len() + if reused { extra } else { 0 }
            );
        }
        let short = vec![0xeeu8; wire.len() - 1];
        let at = short.as_ptr();
        let reframed = frame(view.hops_remaining(), &blobs, short);
        assert_eq!(reframed, wire);
        assert_ne!(reframed.as_ptr(), at);
        assert_eq!(reframed.capacity(), wire.len());
    }

    #[test]
    fn implausible_layer_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, false, 1, u32::MAX as usize);
        assert!(OnionUpdate::decode(&bytes)
            .unwrap_err()
            .to_string()
            .contains("implausible"));
    }

    #[test]
    fn compressed_onion_peels_to_the_canonical_decode() {
        let mut rng = StdRng::seed_from_u64(7);
        let (keys, publics) = keypairs(2, &mut rng);
        let p = params();
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let onion = OnionUpdate::build_with(&p, &publics, mode, &mut rng).unwrap();
            let decoded = peel(&onion, &keys).into_params(&p.signature()).unwrap();
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
        // Same signature and route length, different values -> the entry
        // message, and every layer blob inside its envelope, is
        // byte-length-identical. This is the unlinkability requirement the
        // v2 codec exists to preserve: a message's length is a function of
        // the signature, the route length and the round's codec mode only.
        let mut rng = StdRng::seed_from_u64(8);
        let (keys, publics) = keypairs(3, &mut rng);
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
            let oa = OnionUpdate::build_with(&a, &publics, mode, &mut rng).unwrap();
            let ob = OnionUpdate::build_with(&b, &publics, mode, &mut rng).unwrap();
            assert_eq!(oa.encode().len(), ob.encode().len(), "{}", mode.name());
            let (ia, ib) = (open_entry(&oa, &keys[0]), open_entry(&ob, &keys[0]));
            for (la, lb) in ia.layers().iter().zip(ib.layers()) {
                assert_eq!(la.len(), lb.len(), "{}", mode.name());
            }
        }
    }

    /// Onion building envelope by envelope, each one drawing, laddering and
    /// sealing before the next: every layer for hops `n−1 … 1`, the inner
    /// frame, then the entry envelope around it. The definition
    /// [`OnionUpdate::build_with`] must reproduce — bytes and RNG position.
    fn build_envelope_by_envelope(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        compression: CompressionConfig,
        rng: &mut StdRng,
    ) -> Result<OnionUpdate, CascadeError> {
        let seal = |blob: &[u8], key: &PublicKey, rng: &mut StdRng| {
            SealedBox::seal(blob, key, rng).map_err(|source| CascadeError::Seal { source })
        };
        let layers = params
            .iter()
            .map(|layer| {
                let mut blob = codec::encode_layer_with(layer, compression);
                for key in hop_keys[1..].iter().rev() {
                    blob = seal(&blob, key, rng)?;
                }
                Ok(blob)
            })
            .collect::<Result<_, CascadeError>>()?;
        let inner = OnionUpdate::from_parts(hop_keys.len() as u8 - 1, layers).encode();
        Ok(OnionUpdate {
            entry: true,
            hops_remaining: hop_keys.len() as u8,
            layers: vec![seal(&inner, &hop_keys[0], rng)?],
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Batched building is bit-identical to the envelope-by-envelope
        /// loop, and leaves the caller's RNG where the loop leaves it, for
        /// any layer count, chain length, layer sizes and codec mode —
        /// 1..=25 jobs on the base point's table and up to eight on each
        /// hop's, so every lane split of the batched driver, and
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
            // The batch seals to `SealingKey`s — comb jobs grouped by
            // table — and the loop to bare keys, on the ladder.
            let sealing: Vec<SealingKey> = keys.iter().copied().map(SealingKey::new).collect();
            let (mut batched, mut looped) = (rng.clone(), rng);
            let onion = OnionUpdate::build_with(&params, &sealing, mode, &mut batched).unwrap();
            let expected = build_envelope_by_envelope(&params, &keys, mode, &mut looped).unwrap();
            proptest::prop_assert_eq!(onion, expected);
            proptest::prop_assert_eq!(batched.gen::<u64>(), looped.gen::<u64>());
        }
    }

    #[test]
    fn low_order_hop_key_mid_route_is_the_same_seal_error() {
        let mut rng = StdRng::seed_from_u64(9);
        for position in 0..3 {
            let mut keys: Vec<PublicKey> = (0..3)
                .map(|_| *KeyPair::generate(&mut rng).public())
                .collect();
            keys[position] = PublicKey::from_bytes([0u8; 32]);
            let sealing: Vec<SealingKey> = keys.iter().copied().map(SealingKey::new).collect();
            let batched = OnionUpdate::build(&params(), &sealing, &mut rng).unwrap_err();
            assert_eq!(
                OnionUpdate::build(&params(), &keys, &mut rng),
                Err(batched.clone())
            );
            let looped =
                build_envelope_by_envelope(&params(), &keys, CompressionConfig::F32, &mut rng)
                    .unwrap_err();
            assert_eq!(batched, looped);
            assert_eq!(
                batched,
                CascadeError::Seal {
                    source: mixnn_crypto::CryptoError::LowOrderPoint
                }
            );
        }
    }

    #[test]
    fn every_envelope_of_an_onion_has_its_own_ephemeral_key() {
        // Peel a 5-layer, 3-hop onion and collect the eph_pub of all
        // 1 + 5·2 envelopes: any repeat would link two layers (or two
        // hops' views of one layer) of the same client.
        let mut rng = StdRng::seed_from_u64(10);
        let (keys, publics) = keypairs(3, &mut rng);
        let p = ModelParams::from_layers(
            (1..=5)
                .map(|n| LayerParams::from_values(vec![0.25; n]))
                .collect(),
        );
        let onion = OnionUpdate::build(&p, &publics, &mut rng).unwrap();
        let mut eph_pubs = vec![onion.layers()[0][..32].to_vec()];
        let mut layers = open_entry(&onion, &keys[0]).into_layers();
        for kp in &keys[1..] {
            eph_pubs.extend(layers.iter().map(|blob| blob[..32].to_vec()));
            layers = layers
                .iter()
                .map(|blob| SealedBox::open(blob, kp).unwrap())
                .collect();
        }
        assert_eq!(eph_pubs.len(), 11);
        eph_pubs.sort_unstable();
        eph_pubs.dedup();
        assert_eq!(eph_pubs.len(), 11, "an ephemeral key was reused");
    }

    #[test]
    fn into_params_refuses_wrapped_layers_and_foreign_signatures() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(&mut rng);
        let p = params();
        // A client's message: the entry envelope still wraps everything.
        let entry = OnionUpdate::build(&p, &[*kp.public()], &mut rng).unwrap();
        let err = entry.clone().into_params(&p.signature()).unwrap_err();
        assert!(err.to_string().contains("entry envelope"), "{err}");
        // An inner message some hop has yet to unwrap.
        let plaintext: Vec<Vec<u8>> = p.iter().map(mixnn_core::codec::encode_layer).collect();
        let wrapped = OnionUpdate::from_parts(1, plaintext.clone());
        assert!(matches!(
            wrapped.into_params(&p.signature()),
            Err(CascadeError::Onion { .. })
        ));

        let plain = OnionUpdate::from_parts(0, plaintext);
        assert!(matches!(
            plain.clone().into_params(&[9, 9]),
            Err(CascadeError::SignatureMismatch { .. })
        ));
        assert_eq!(plain.into_params(&p.signature()).unwrap(), p);
        // Opening the single hop's envelope gives exactly that message.
        assert_eq!(
            open_entry(&entry, &kp).into_params(&p.signature()).unwrap(),
            p
        );
    }
}
