//! Structure-aware mutation of the MIXC messages a hop ingests.
//!
//! A hop parses the framing of every delivered message as a borrowed view,
//! derives the shared secrets of a window of eight onions in one key
//! agreement, and opens the envelopes where they lie, one onion at a time.
//! This suite hands it rounds — of entry messages and of inner messages,
//! of 1 to 17 onions, at depth 1 to 3 — in which one or two messages keep
//! a valid magic and version but are hostile everywhere else: blob counts,
//! blob lengths, depth 0 and mixed depths, a flipped kind byte, an entry
//! message among inner ones, trailing bytes, a tampered, truncated or
//! low-order envelope in each position, a mis-sized plaintext frame at the
//! last hop, and — the test holds the hop's key, so it can seal them —
//! authenticated entry envelopes around hostile inner frames. It pins the
//! hop to a plain reference: [`reference_decode`], an independent decoder
//! of the version 2 framing (`mixc/mod.rs`), and [`reference_ingest`], which takes one
//! onion after the other and one envelope after the other through
//! [`SealedBox::open`] with no look-ahead, against an [`EpcBudget`] of its
//! own. Five properties:
//!
//! * the error is typed and **equal** to the reference's, payload
//!   included: framing errors first, then the per-onion checks, then the
//!   first failing envelope or blob;
//! * a failing round allocates at most 1 KiB per message — views, key
//!   material, an error string: little more than these ~600-byte
//!   messages, and never a length or count a header merely claims
//!   (measured by a counting allocator, per test thread);
//! * every EPC byte charged on the way is released, and the high-water
//!   mark is the reference's — nothing was charged ahead of its turn;
//! * the hop's mixing RNG has not advanced: the next valid round draws
//!   the plan a twin hop that never saw the failure draws;
//! * counters show exactly the accepted prefix and the one rejection.

mod mixc;

use mixc::{frame, reference_decode, requested, Frame, ENTRY, HEADER_LEN, INNER};
use mixnn_cascade::{CascadeError, CascadeHop, CascadeHopConfig, OnionUpdate, HOP_CODE_IDENTITY};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::ProxyError;
use mixnn_crypto::sealed_box::{plaintext_len, OVERHEAD};
use mixnn_crypto::{CryptoError, KeyPair, PublicKey, SealedBox};
use mixnn_enclave::{AttestationService, EnclaveConfig, EnclaveError, EpcBudget};
use mixnn_nn::{LayerParams, ModelParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIGNATURE: [usize; 3] = [3, 40, 2];
const HOP_INDEX: usize = 7;
const ROOMY: usize = 1 << 30;

/// Two hops with identical keys and mixing seeds (same launch RNG), so
/// one can take the hostile round and the other stay untouched — and the
/// key pair they launched with, which replaying that RNG hands the test.
fn twin_hops(seed: u64, epc_limit: usize) -> (CascadeHop, CascadeHop, KeyPair) {
    let launch = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let config = CascadeHopConfig {
            seed: seed ^ 0x5eed,
            enclave: EnclaveConfig {
                epc_limit,
                code_identity: HOP_CODE_IDENTITY.to_vec(),
            },
        };
        CascadeHop::launch(HOP_INDEX, config, &SIGNATURE, &service, &mut rng)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    AttestationService::new(&mut rng);
    let keypair = KeyPair::generate(&mut rng);
    let (hop, twin) = (launch(), launch());
    assert_eq!(
        keypair.public(),
        hop.public_key(),
        "a launch draws its key first"
    );
    (hop, twin, keypair)
}

fn params(rng: &mut StdRng) -> ModelParams {
    ModelParams::from_layers(
        SIGNATURE
            .iter()
            .map(|&n| LayerParams::from_values((0..n).map(|_| rng.gen()).collect()))
            .collect(),
    )
}

/// A valid round for the hop at onion depth `depth` (throwaway keys behind
/// the hop's): the entry messages clients send it when it is first on
/// their route, or — `entry == false` — the inner messages a hop in front
/// of it would forward (here: what opening a client's entry envelope for
/// that hop uncovers).
fn valid_round(
    hop_key: &PublicKey,
    entry: bool,
    depth: usize,
    clients: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u8>> {
    let front = KeyPair::generate(rng);
    let mut keys = vec![*hop_key];
    keys.extend((1..depth).map(|_| *KeyPair::generate(rng).public()));
    if !entry {
        keys.insert(0, *front.public());
    }
    (0..clients)
        .map(|_| {
            let onion = OnionUpdate::build(&params(rng), &keys, rng).unwrap();
            if entry {
                onion.encode()
            } else {
                SealedBox::open(&onion.layers()[0], &front).unwrap()
            }
        })
        .collect()
}

/// What the mutations that seal for themselves need: the hop's key pair
/// and a valid message of the *other* kind at the round's depth.
struct Forge<'a> {
    hop: &'a KeyPair,
    other_kind: &'a [u8],
    rng: &'a mut StdRng,
}

impl Forge<'_> {
    /// An entry message of `depth` around `inner`, sealed to the hop.
    fn entry_around(&mut self, depth: u8, inner: &[u8]) -> Vec<u8> {
        let envelope = SealedBox::seal(inner, self.hop.public(), self.rng).unwrap();
        frame(ENTRY, depth, 1, &[envelope])
    }
}

/// Mutations every message has a place for; the five after them rewrite
/// the frame *inside* an entry envelope and reseal it.
const OUTER_MUTATIONS: usize = 12;
const MUTATIONS: usize = OUTER_MUTATIONS + 5;
/// Mutations no round survives, whatever its shape.
const ALWAYS_FATAL: [usize; 7] = [0, 2, 3, 5, 6, 7, 8];

/// Rewrites one valid message into a hostile one; `kind` and `at` come
/// from the property's strategy. Magic and version stay valid throughout.
fn mutate(wire: &[u8], kind: usize, at: usize, forge: &mut Forge<'_>) -> Vec<u8> {
    let message = reference_decode(wire).unwrap();
    let kind = if message.entry {
        kind
    } else {
        kind % OUTER_MUTATIONS
    };
    let Frame {
        entry,
        depth,
        mut blobs,
    } = message.clone();
    let tag = message.kind();
    let count = blobs.len() as u32;
    let blob = at % blobs.len();
    let layer = at % SIGNATURE.len();
    // A plaintext frame one to five values too long for its layer.
    let wrong = LayerParams::from_values(vec![0.5; SIGNATURE[layer] + 1 + at % 5]);
    let wrong = codec::encode_layer_with(&wrong, CompressionConfig::F32);
    // The inner frame of an entry message, for the mutations that work
    // inside the envelope.
    let unwrap = |forge: &Forge<'_>| {
        reference_decode(&SealedBox::open(&message.blobs[0], forge.hop).unwrap()).unwrap()
    };
    match kind {
        // Hostile blob counts over otherwise intact framing.
        0 => {
            let counts = [0, count - 1, count + 1, count + 2, 1 << 20, u32::MAX];
            frame(tag, depth, counts[at % counts.len()], &blobs)
        }
        // A consistent frame with one blob too few or too many.
        1 => {
            if at.is_multiple_of(2) {
                blobs.pop();
            } else {
                blobs.push(blobs[0].clone());
            }
            frame(tag, depth, blobs.len() as u32, &blobs)
        }
        // A blob length field that lies: shorter, longer, or enormous.
        2 => {
            let mut out = wire.to_vec();
            let field = HEADER_LEN + blobs[..blob].iter().map(|b| 4 + b.len()).sum::<usize>();
            let truthful = blobs[blob].len() as u32;
            let lies = [0, truthful - 1, truthful + 1, truthful + 4, u32::MAX];
            out[field..field + 4].copy_from_slice(&lies[at % lies.len()].to_be_bytes());
            out
        }
        // Depth 0: nothing left for this hop to open.
        3 => frame(tag, 0, count, &blobs),
        // A depth that differs from the rest of the round.
        4 => frame(tag, depth + 1 + (at % 3) as u8, count, &blobs),
        // Trailing bytes after the last blob.
        5 => {
            let mut out = wire.to_vec();
            out.extend(std::iter::repeat_n(0xa5, 1 + at % 9));
            out
        }
        // One envelope tampered with: a flipped bit anywhere in it.
        6 => {
            let bit = at % (8 * blobs[blob].len());
            blobs[blob][bit / 8] ^= 1 << (bit % 8);
            frame(tag, depth, count, &blobs)
        }
        // One envelope cut short, consistently framed: below the envelope
        // header, or above it (an authentication failure).
        7 => {
            let keep = at % blobs[blob].len();
            blobs[blob].truncate(keep);
            frame(tag, depth, count, &blobs)
        }
        // One envelope whose ephemeral point is low-order.
        8 => {
            blobs[blob][..32].fill(0);
            blobs[blob][0] = (at % 2) as u8;
            frame(tag, depth, count, &blobs)
        }
        // A well-sealed envelope around a plaintext frame of the wrong
        // size: the last hop (depth 1) must refuse it; an earlier hop sees
        // only bytes for the next hop and mixes on.
        9 => {
            if entry {
                let mut inner = unwrap(forge);
                inner.blobs[layer] = wrong;
                forge.entry_around(depth, &inner.encode())
            } else {
                blobs[layer] = SealedBox::seal(&wrong, forge.hop.public(), forge.rng).unwrap();
                frame(tag, depth, count, &blobs)
            }
        }
        // The kind byte flipped to the other kind, or to none at all.
        10 => frame([tag ^ 1, 2, 0xff][at % 3], depth, count, &blobs),
        // A perfectly valid message — of the other kind.
        11 => forge.other_kind.to_vec(),
        // Authenticated but hostile from here on: an inner frame at the
        // wrong depth for its envelope.
        12 => {
            let mut inner = unwrap(forge);
            inner.depth = [depth, depth.wrapping_sub(2), depth + 1, 0xff][at % 4];
            forge.entry_around(depth, &inner.encode())
        }
        // An inner frame with a layer too few or too many.
        13 => {
            let mut inner = unwrap(forge);
            if at.is_multiple_of(2) {
                inner.blobs.pop();
            } else {
                inner.blobs.push(inner.blobs[0].clone());
            }
            forge.entry_around(depth, &inner.encode())
        }
        // An inner frame claiming a count it cannot hold.
        14 => {
            let inner = unwrap(forge);
            let counts = [0, 1 << 20, u32::MAX];
            let claimed = counts[at % counts.len()];
            forge.entry_around(depth, &frame(INNER, inner.depth, claimed, &inner.blobs))
        }
        // Trailing bytes inside the envelope.
        15 => {
            let mut inner = unwrap(forge).encode();
            inner.extend(std::iter::repeat_n(0x5a, 1 + at % 9));
            forge.entry_around(depth, &inner)
        }
        // An envelope around another entry message (the victim itself), or
        // around a frame of no known kind.
        _ => {
            if at.is_multiple_of(2) {
                forge.entry_around(depth, wire)
            } else {
                let inner = unwrap(forge);
                let nonsense = frame(7, inner.depth, inner.blobs.len() as u32, &inner.blobs);
                forge.entry_around(depth, &nonsense)
            }
        }
    }
}

fn hop_err(source: ProxyError) -> CascadeError {
    CascadeError::Hop {
        hop: HOP_INDEX,
        source,
    }
}

fn onion_err(reason: String) -> CascadeError {
    CascadeError::Onion { reason }
}

/// `Enclave::decrypt`, spelled out: reject what cannot carry an envelope
/// header before any charge, charge the plaintext for the duration of the
/// open, release it either way.
fn reference_decrypt(
    sealed: &[u8],
    hop: &KeyPair,
    epc: &EpcBudget,
) -> Result<Vec<u8>, EnclaveError> {
    let plaintext_len = plaintext_len(sealed.len()).map_err(EnclaveError::Crypto)?;
    epc.allocate(plaintext_len)?;
    let opened = SealedBox::open(sealed, hop);
    epc.free(plaintext_len).unwrap();
    Ok(opened?)
}

/// One unwrapped blob waits, charged, in a mixing list; at the last hop it
/// is a plaintext frame and must be the round's. A failure releases what
/// its onion holds.
fn reference_keep(
    blob: &[u8],
    layer: usize,
    last: bool,
    charged: &mut usize,
    epc: &EpcBudget,
) -> Result<(), CascadeError> {
    let kept = epc
        .allocate(blob.len())
        .map_err(ProxyError::from)
        .and_then(|()| {
            *charged += blob.len();
            if last {
                codec::validate_layer_frame_expecting(blob, SIGNATURE[layer])?;
            }
            Ok(())
        });
    kept.map_err(|e| {
        epc.free(*charged).unwrap();
        hop_err(e)
    })
}

/// The ingest of one message, plainly: decode the whole framing, then the
/// per-onion checks, then one envelope after the other through
/// [`SealedBox::open`], charging as it goes. Returns the bytes left
/// charged; a failing onion has released its own.
fn reference_ingest(
    wire: &[u8],
    shape: &mut Option<(bool, u8)>,
    hop: &KeyPair,
    epc: &EpcBudget,
) -> Result<usize, CascadeError> {
    let signature_mismatch = |layers: usize| {
        hop_err(ProxyError::SignatureMismatch {
            expected: vec![SIGNATURE.len()],
            actual: vec![layers],
        })
    };
    let message = reference_decode(wire)?;
    // The crate's own decoder is the same function of the bytes.
    let decoded = OnionUpdate::decode(wire).expect("the reference accepted it");
    assert_eq!(
        (
            decoded.is_entry(),
            decoded.hops_remaining(),
            decoded.layers()
        ),
        (message.entry, message.depth, &message.blobs[..])
    );
    assert_eq!(decoded.encode(), wire);
    if !message.entry && message.blobs.len() != SIGNATURE.len() {
        return Err(signature_mismatch(message.blobs.len()));
    }
    let depth = message.depth;
    if depth == 0 {
        return Err(onion_err(
            "no sealed envelopes left for this hop".to_string(),
        ));
    }
    match *shape {
        Some((_, seen)) if seen != depth => {
            return Err(onion_err(format!(
                "mixed onion depths in one round: {seen} vs {depth}"
            )));
        }
        Some((entry, _)) if entry != message.entry => {
            return Err(onion_err(
                "entry and inner messages mixed in one round".to_string(),
            ));
        }
        _ => *shape = Some((message.entry, depth)),
    }

    let mut charged = 0usize;
    if message.entry {
        let inner = reference_decrypt(&message.blobs[0], hop, epc)
            .map_err(|e| hop_err(ProxyError::Enclave(e)))?;
        let inner = reference_decode(&inner)?;
        if inner.entry {
            return Err(onion_err(
                "an entry envelope wraps another entry message".to_string(),
            ));
        }
        if inner.depth != depth - 1 {
            return Err(onion_err(format!(
                "inner frame of depth {} under an entry envelope of depth {depth}",
                inner.depth
            )));
        }
        if inner.blobs.len() != SIGNATURE.len() {
            return Err(signature_mismatch(inner.blobs.len()));
        }
        for (layer, blob) in inner.blobs.iter().enumerate() {
            reference_keep(blob, layer, depth == 1, &mut charged, epc)?;
        }
    } else {
        for (layer, sealed) in message.blobs.iter().enumerate() {
            let unwrapped = reference_decrypt(sealed, hop, epc).map_err(|e| {
                epc.free(charged).unwrap();
                hop_err(ProxyError::Enclave(e))
            })?;
            reference_keep(&unwrapped, layer, depth == 1, &mut charged, epc)?;
        }
    }
    Ok(charged)
}

/// What the reference makes of a round: the first failing onion's error
/// (or none), and how many onions it accepted before it.
struct Verdict {
    result: Result<(), CascadeError>,
    accepted: usize,
}

fn reference_round(messages: &[Vec<u8>], hop: &KeyPair, epc: &EpcBudget) -> Verdict {
    let mut shape = None;
    let mut charged = 0usize;
    let mut result = Ok(());
    let mut accepted = 0;
    for wire in messages {
        match reference_ingest(wire, &mut shape, hop, epc) {
            Ok(bytes) => {
                charged += bytes;
                accepted += 1;
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    // A failed round releases everything; so does a mixed one.
    epc.free(charged).unwrap();
    Verdict { result, accepted }
}

/// One hop, its twin and their key, launched for a round shape.
struct Rig {
    hop: CascadeHop,
    twin: CascadeHop,
    keypair: KeyPair,
    /// The reference's enclave memory, charged with every round the hop
    /// is handed.
    epc: EpcBudget,
    /// Onions of a valid round the EPC budget admits.
    fits: usize,
}

impl Rig {
    /// `fits: None` is a roomy enclave; `Some(n)` one whose EPC holds `n`
    /// onions' unwrapped blobs plus one inner frame's framing and not a
    /// byte more, so onion `n` of a valid round fails — on its entry
    /// envelope's transient charge, or part-way through its layers.
    fn launch(seed: u64, depth: usize, fits: Option<usize>) -> Rig {
        let onion: usize = SIGNATURE
            .iter()
            .map(|&n| codec::encoded_layer_len_with(n, CompressionConfig::F32))
            .sum::<usize>()
            + SIGNATURE.len() * OVERHEAD * (depth - 1);
        let framing = HEADER_LEN + 4 * SIGNATURE.len();
        let epc_limit = fits.map_or(ROOMY, |n| n * onion + framing);
        let (hop, twin, keypair) = twin_hops(seed, epc_limit);
        Rig {
            hop,
            twin,
            keypair,
            epc: EpcBudget::strict(epc_limit),
            fits: fits.unwrap_or(usize::MAX),
        }
    }

    /// Hands `bad` to the hop and checks all five properties against the
    /// reference; `good` is the valid round `bad` was made from. Returns
    /// the reference's verdict.
    fn check(&mut self, good: &[Vec<u8>], bad: &[Vec<u8>]) -> Verdict {
        let Rig {
            hop,
            twin,
            keypair,
            epc,
            fits,
        } = self;
        let verdict = reference_round(bad, keypair, epc);
        assert_eq!(epc.stats().allocated, 0, "the reference leaked");
        // A framing error must also be what the public decoder reports.
        for wire in bad {
            if let Err(framing) = reference_decode(wire) {
                assert_eq!(OnionUpdate::decode(wire).unwrap_err(), framing);
            }
        }

        let delivered = bad.to_vec();
        let mut spent = Vec::new();
        let earlier = hop.stats();
        let before = requested();
        let outcome = hop.mix_delivered(delivered, &mut spent);
        let allocated = requested() - before;

        // What this round added to the counters.
        let mut stats = hop.stats();
        stats.updates_received -= earlier.updates_received;
        stats.updates_rejected -= earlier.updates_rejected;
        stats.updates_forwarded -= earlier.updates_forwarded;
        stats.bytes_received -= earlier.bytes_received;
        stats.bytes_rejected -= earlier.bytes_rejected;
        let bytes = |messages: &[Vec<u8>]| messages.iter().map(Vec::len).sum::<usize>() as u64;
        match &verdict.result {
            // Nothing this hop can see is wrong (a mis-sized frame under a
            // deeper onion, a lone message of the other kind): the round
            // mixes, and the twin must take it too to stay in step.
            Ok(()) => {
                let (out, plan) = outcome.expect("the reference accepted the round");
                assert_eq!((out, plan), twin.mix_round(bad).unwrap());
                assert_eq!(stats.updates_forwarded, bad.len() as u64);
                assert_eq!(stats.bytes_received, bytes(bad));
            }
            Err(expected) => {
                assert_eq!(&outcome.unwrap_err(), expected);
                // A failing round builds views, key material and an error
                // message — never a copy of the input, never a claimed
                // length.
                assert!(
                    allocated <= 1024 * (bad.len() + 1),
                    "{allocated} B allocated for {} B of input",
                    bytes(bad)
                );
                assert!(
                    spent.is_empty(),
                    "a failed round has no spent buffers to hand on"
                );
                let rejected = bad[verdict.accepted].len() as u64;
                assert_eq!(
                    (stats.updates_received, stats.updates_rejected),
                    (verdict.accepted as u64, 1)
                );
                assert_eq!(stats.bytes_rejected, rejected);
                assert_eq!(
                    stats.bytes_received,
                    bytes(&bad[..verdict.accepted]) + rejected
                );
                assert_eq!(stats.updates_forwarded, 0);
            }
        }
        let memory = hop.memory_stats();
        assert_eq!(memory.allocated, 0, "EPC charges leaked");
        assert_eq!(
            memory.high_water,
            epc.stats().high_water,
            "the hop charged something ahead of its turn (or not at all)"
        );

        // The mixing RNG stands where the twin's does: the same valid
        // round (as much of it as the enclave holds) draws the same plan
        // and frames the same bytes on both.
        let probe = &good[..good.len().min(*fits)];
        let (out, plan) = hop.mix_round(probe).unwrap();
        let (twin_out, twin_plan) = twin.mix_round(probe).unwrap();
        assert_eq!(plan, twin_plan);
        assert_eq!(out, twin_out);
        assert_eq!(hop.memory_stats().allocated, 0);
        assert!(reference_round(probe, keypair, epc).result.is_ok());
        assert_eq!(hop.memory_stats().high_water, epc.stats().high_water);
        verdict
    }
}

/// Round sizes on both sides of one and of two ingest windows of eight.
const ROUND_SIZES: [usize; 8] = [1, 2, 5, 7, 8, 9, 16, 17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_messages_fail_like_the_copying_ingest_and_leave_no_trace(
        seed in 0u64..1_000_000,
        entry in 0usize..2,
        depth in 1usize..4,
        size in 0usize..ROUND_SIZES.len(),
        victim in 0usize..17,
        kind in 0usize..MUTATIONS,
        at in 0usize..100_000,
        // Half the rounds carry a second hostile message.
        second in 0usize..2,
        second_victim in 0usize..17,
        second_kind in 0usize..MUTATIONS,
        second_at in 0usize..100_000,
        budget in 0usize..3,
    ) {
        let entry = entry == 1;
        let clients = ROUND_SIZES[size];
        // Two in three cases run in a roomy enclave; the third in one that
        // runs out after two onions, so a charge taken early would show.
        let mut rig = Rig::launch(seed, depth, (budget == 2).then_some(2));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa22);
        let hop_key = *rig.hop.public_key();
        let good = valid_round(&hop_key, entry, depth, clients, &mut rng);
        let other_kind = valid_round(&hop_key, !entry, depth, 1, &mut rng).remove(0);

        let mut victims = vec![(victim % clients, kind, at)];
        if second == 1 && second_victim % clients != victim % clients {
            victims.push((second_victim % clients, second_kind, second_at));
        }
        let mut bad = good.clone();
        let mut fatal = false;
        for &(victim, kind, at) in &victims {
            let mut forge = Forge {
                hop: &rig.keypair,
                other_kind: &other_kind,
                rng: &mut rng,
            };
            bad[victim] = mutate(&good[victim], kind, at, &mut forge);
            let kind = if entry { kind } else { kind % OUTER_MUTATIONS };
            fatal |= ALWAYS_FATAL.contains(&kind);
        }
        let verdict = rig.check(&good, &bad);
        // The reference is not vacuous: these mutations no hop survives.
        prop_assert!(!fatal || verdict.result.is_err(), "{victims:?} must fail");
    }
}

/// Flips the last ciphertext bit of a message: its (last) envelope no
/// longer authenticates.
fn bad_tag(wire: &[u8]) -> Vec<u8> {
    let mut out = wire.to_vec();
    *out.last_mut().unwrap() ^= 1;
    out
}

/// Appends a byte: a framing error, caught before any crypto.
fn bad_framing(wire: &[u8]) -> Vec<u8> {
    let mut out = wire.to_vec();
    out.push(0);
    out
}

fn authentication_failed() -> CascadeError {
    hop_err(ProxyError::Enclave(EnclaveError::Crypto(
        CryptoError::AuthenticationFailed,
    )))
}

/// The failing onion at every offset of both windows of a 17-onion round,
/// failing before (framing) and after (tag) the window's key agreement:
/// always that onion's error, always exactly the prefix before it.
#[test]
fn the_failing_onion_is_found_at_every_offset_of_a_window() {
    for entry in [true, false] {
        let mut rig = Rig::launch(77, 2, None);
        let hop_key = *rig.hop.public_key();
        let mut rng = StdRng::seed_from_u64(78);
        let good = valid_round(&hop_key, entry, 2, 17, &mut rng);
        for offset in 0..good.len() {
            for (hostile, expected) in [
                (bad_tag(&good[offset]), authentication_failed()),
                (
                    bad_framing(&good[offset]),
                    onion_err("trailing bytes after last layer".to_string()),
                ),
            ] {
                let mut bad = good.clone();
                bad[offset] = hostile;
                let verdict = rig.check(&good, &bad);
                assert_eq!(verdict.result, Err(expected), "offset {offset}");
                assert_eq!(verdict.accepted, offset);
            }
        }
    }
}

/// Two failures inside one window: whichever kind each is — one the
/// look-ahead sees, one only the onion's own turn does — the round fails
/// with the *earlier* onion's error and the counters show the prefix
/// before it.
#[test]
fn two_failures_in_one_window_report_the_earlier_onion() {
    let framing = || onion_err("trailing bytes after last layer".to_string());
    for entry in [true, false] {
        let mut rig = Rig::launch(79, 1, None);
        let hop_key = *rig.hop.public_key();
        let mut rng = StdRng::seed_from_u64(80);
        let good = valid_round(&hop_key, entry, 1, 9, &mut rng);
        for i in 0..good.len() - 3 {
            // The look-ahead stops the window at i + 3; onion i fails on
            // its own turn first.
            let mut bad = good.clone();
            bad[i] = bad_tag(&good[i]);
            bad[i + 3] = bad_framing(&good[i + 3]);
            let verdict = rig.check(&good, &bad);
            assert_eq!(verdict.result, Err(authentication_failed()), "i = {i}");
            assert_eq!(verdict.accepted, i);

            // The other way round: the window ends at i, the bad tag
            // behind it is never reached.
            let mut bad = good.clone();
            bad[i] = bad_framing(&good[i]);
            bad[i + 3] = bad_tag(&good[i + 3]);
            let verdict = rig.check(&good, &bad);
            assert_eq!(verdict.result, Err(framing()), "i = {i}");
            assert_eq!(verdict.accepted, i);
        }
    }
}

/// The owned and the borrowing entry points are the same round: outputs,
/// plan, stats and the buffers handed on.
#[test]
fn mix_delivered_reuses_spent_buffers_and_matches_mix_round() {
    for entry in [true, false] {
        let (mut hop, mut twin, _) = twin_hops(42, ROOMY);
        let mut rng = StdRng::seed_from_u64(43);
        let round = valid_round(&{ *hop.public_key() }, entry, 2, 5, &mut rng);
        let (expected, expected_plan) = twin.mix_round(&round).unwrap();

        // Spent buffers from an earlier stage, larger than any outgoing
        // message: the hop must write into them instead of allocating.
        let mut spent: Vec<Vec<u8>> = (0..5).map(|_| vec![0xee; round[0].len()]).collect();
        let recycled: Vec<*const u8> = spent.iter().map(|b| b.as_ptr()).collect();
        let arrived: Vec<*const u8> = round.iter().map(|b| b.as_ptr()).collect();
        let (out, plan) = hop.mix_delivered(round, &mut spent).unwrap();
        assert_eq!((&out, &plan), (&expected, &expected_plan));
        for message in &out {
            assert!(
                recycled.contains(&message.as_ptr()),
                "outgoing message was reallocated"
            );
        }
        // What arrived is now spent, for the next stage to write into.
        let handed_on: Vec<*const u8> = spent.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(handed_on, arrived);
        let (a, b) = (hop.stats(), twin.stats());
        assert_eq!(
            (a.updates_received, a.updates_forwarded, a.bytes_received),
            (b.updates_received, b.updates_forwarded, b.bytes_received)
        );
    }
}
