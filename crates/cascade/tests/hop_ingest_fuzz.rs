//! Structure-aware mutation of the MIXC messages a hop ingests.
//!
//! A hop parses the framing of every delivered message as a borrowed view
//! and opens the blobs where they lie; nothing is copied out first. This
//! suite hands it messages that keep a valid magic and version but are
//! hostile everywhere else — layer counts, blob lengths, depth 0 and
//! mixed depths, trailing bytes, a tampered, truncated or low-order blob
//! in each position, a mis-sized plaintext frame at the last hop — at any
//! position in the round, and pins five properties:
//!
//! * the error is typed and **equal** to what the copying ingest this
//!   one replaced returned: [`OnionUpdate::decode`]'s error first, then
//!   the per-onion checks, then the first failing layer's error
//!   ([`reference_ingest`] is that routine, over [`reference_decode`], a
//!   port of the decoder as it was);
//! * a failing round allocates at most 1 KiB per message — views, key
//!   material, an error string: under twice these ~600-byte messages,
//!   and never a length or count a header merely claims (measured by a
//!   counting allocator, per test thread);
//! * every EPC byte charged on the way is released;
//! * the hop's mixing RNG has not advanced: the next valid round draws
//!   the plan a twin hop that never saw the failure draws;
//! * counters show exactly the accepted prefix and the one rejection.

use mixnn_cascade::{CascadeError, CascadeHop, CascadeHopConfig, OnionUpdate};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::ProxyError;
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{CryptoError, PublicKey, SealedBox};
use mixnn_enclave::{AttestationService, EnclaveError};
use mixnn_nn::{LayerParams, ModelParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator so far.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes per thread so
/// concurrently running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = REQUESTED.try_with(|requested| requested.set(requested.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the heap
// (a const-initialised `Cell` without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

const SIGNATURE: [usize; 3] = [3, 40, 2];
const MAGIC: u32 = 0x4d49_5843;
const VERSION: u8 = 1;

/// Two hops with identical keys and mixing seeds (same launch RNG), so
/// one can take the hostile round and the other stay untouched.
fn twin_hops(seed: u64) -> (CascadeHop, CascadeHop) {
    let launch = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let config = CascadeHopConfig {
            seed: seed ^ 0x5eed,
            ..CascadeHopConfig::default()
        };
        CascadeHop::launch(7, config, &SIGNATURE, &service, &mut rng)
    };
    (launch(), launch())
}

fn params(rng: &mut StdRng) -> ModelParams {
    ModelParams::from_layers(
        SIGNATURE
            .iter()
            .map(|&n| LayerParams::from_values((0..n).map(|_| rng.gen()).collect()))
            .collect(),
    )
}

/// A valid round for `hop` at onion depth `depth` (the hop's key
/// outermost, throwaway keys behind it).
fn valid_round(hop: &CascadeHop, depth: usize, clients: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut keys = vec![*hop.public_key()];
    keys.extend((1..depth).map(|_| *mixnn_crypto::KeyPair::generate(rng).public()));
    (0..clients)
        .map(|_| {
            OnionUpdate::build(&params(rng), &keys, rng)
                .unwrap()
                .encode()
        })
        .collect()
}

fn frame(depth: u8, declared_layers: u32, blobs: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(depth);
    out.extend_from_slice(&declared_layers.to_be_bytes());
    for blob in blobs {
        out.extend_from_slice(&(blob.len() as u32).to_be_bytes());
        out.extend_from_slice(blob);
    }
    out
}

/// A blob the test itself sealed to the hop, with its plaintext.
type Forged = (Vec<u8>, Vec<u8>);

/// Rewrites one valid message into a hostile one; `kind` and `at` come
/// from the property's strategy. Magic and version stay valid throughout.
/// The last kind seals a blob of its own, which it also returns.
fn mutate(
    wire: &[u8],
    kind: usize,
    at: usize,
    hop_key: &PublicKey,
    rng: &mut StdRng,
) -> (Vec<u8>, Option<Forged>) {
    let onion = OnionUpdate::decode(wire).unwrap();
    let depth = onion.hops_remaining();
    let layers = onion.num_layers();
    let mut blobs = onion.into_layers();
    let layer = at % layers;
    let mut forged = None;
    let wire = match kind {
        // Hostile layer counts over otherwise intact framing.
        0 => {
            let counts = [
                0,
                1,
                layers as u32 - 1,
                layers as u32 + 1,
                1 << 20,
                u32::MAX,
            ];
            frame(depth, counts[at % counts.len()], &blobs)
        }
        // A consistent frame with one layer too few or too many.
        1 => {
            if at.is_multiple_of(2) {
                blobs.pop();
            } else {
                blobs.push(blobs[0].clone());
            }
            frame(depth, blobs.len() as u32, &blobs)
        }
        // A blob length field that lies: shorter, longer, or enormous.
        2 => {
            let mut out = wire.to_vec();
            let field = 10 + blobs[..layer].iter().map(|b| 4 + b.len()).sum::<usize>();
            let truthful = blobs[layer].len() as u32;
            let lies = [0, truthful - 1, truthful + 1, truthful + 4, u32::MAX];
            out[field..field + 4].copy_from_slice(&lies[at % lies.len()].to_be_bytes());
            out
        }
        // Depth 0: nothing left for this hop to open.
        3 => frame(0, layers as u32, &blobs),
        // A depth that differs from the rest of the round.
        4 => frame(depth + 1 + (at % 3) as u8, layers as u32, &blobs),
        // Trailing bytes after the last layer.
        5 => {
            let mut out = wire.to_vec();
            out.extend(std::iter::repeat_n(0xa5, 1 + at % 9));
            out
        }
        // One blob tampered with: a flipped bit anywhere in it.
        6 => {
            let bit = at % (8 * blobs[layer].len());
            blobs[layer][bit / 8] ^= 1 << (bit % 8);
            frame(depth, layers as u32, &blobs)
        }
        // One blob cut short, consistently framed: below the envelope
        // header, or above it (an authentication failure).
        7 => {
            let keep = at % blobs[layer].len();
            blobs[layer].truncate(keep);
            frame(depth, layers as u32, &blobs)
        }
        // One blob whose ephemeral point is low-order.
        8 => {
            blobs[layer][..32].fill(0);
            blobs[layer][0] = (at % 2) as u8;
            frame(depth, layers as u32, &blobs)
        }
        // A well-sealed blob around a plaintext frame of the wrong size:
        // the last hop (depth 1) must refuse it; an earlier hop opens it,
        // sees only bytes for the next hop, and mixes on.
        _ => {
            let wrong = LayerParams::from_values(vec![0.5; SIGNATURE[layer] + 1 + at % 5]);
            let plain = codec::encode_layer_with(&wrong, CompressionConfig::F32);
            blobs[layer] = SealedBox::seal(&plain, hop_key, rng).unwrap();
            forged = Some((blobs[layer].clone(), plain));
            frame(depth, layers as u32, &blobs)
        }
    };
    (wire, forged)
}

/// `OnionUpdate::decode` as it was while hops still copied every blob out
/// of the message — kept here, independent of the crate's parser, as the
/// definition of which framing error a message earns.
fn reference_decode(mut bytes: &[u8]) -> Result<(u8, Vec<Vec<u8>>), CascadeError> {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
        let (head, tail) = bytes.split_at(n);
        *bytes = tail;
        head
    }
    let be_u32 = |b: &[u8]| u32::from_be_bytes(b.try_into().unwrap());
    let fail = |reason: &str| CascadeError::Onion {
        reason: reason.to_string(),
    };
    if bytes.len() < 10 {
        return Err(fail("header truncated"));
    }
    if be_u32(take(&mut bytes, 4)) != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = take(&mut bytes, 1)[0];
    if version != VERSION {
        return Err(CascadeError::Onion {
            reason: format!("unsupported version {version}"),
        });
    }
    let hops_remaining = take(&mut bytes, 1)[0];
    let layer_count = be_u32(take(&mut bytes, 4)) as usize;
    if layer_count == 0 {
        return Err(fail("zero layers"));
    }
    if layer_count > bytes.len() / 4 + 1 {
        return Err(fail("implausible layer count"));
    }
    let mut layers = Vec::new();
    for _ in 0..layer_count {
        if bytes.len() < 4 {
            return Err(fail("layer header truncated"));
        }
        let len = be_u32(take(&mut bytes, 4)) as usize;
        if bytes.len() < len {
            return Err(fail("layer blob truncated"));
        }
        layers.push(take(&mut bytes, len).to_vec());
    }
    if !bytes.is_empty() {
        return Err(fail("trailing bytes after last layer"));
    }
    Ok((hops_remaining, layers))
}

/// What opening `blob` at the hop yields, decided without the hop's
/// secret key: only blobs the round's honest clients sealed authenticate.
fn reference_open(blob: &[u8], authentic: &[Vec<u8>]) -> Result<(), CryptoError> {
    if blob.len() < OVERHEAD {
        return Err(CryptoError::BadLength {
            expected: "at least 64 bytes",
            actual: blob.len(),
        });
    }
    if blob[1..32].iter().all(|&b| b == 0) && blob[0] <= 1 {
        return Err(CryptoError::LowOrderPoint);
    }
    if authentic.iter().any(|sealed| sealed == blob) {
        Ok(())
    } else {
        Err(CryptoError::AuthenticationFailed)
    }
}

/// The ingest of one message as the copying hop performed it: decode the
/// whole framing first, then the per-onion checks, then layer by layer in
/// order. `plaintext_of` recovers what an authentic blob unwraps to (the
/// test sealed it, so it knows). EPC is roomy here, so charges never fail.
fn reference_ingest(
    wire: &[u8],
    depth_seen: &mut Option<u8>,
    authentic: &[Vec<u8>],
    plaintext_of: &dyn Fn(&[u8]) -> Option<Vec<u8>>,
) -> Result<(), CascadeError> {
    let hop_err = |source: ProxyError| CascadeError::Hop { hop: 7, source };
    let (depth, layers) = reference_decode(wire)?;
    // The crate's own decoder is the same function of the bytes.
    let decoded = OnionUpdate::decode(wire).expect("the reference accepted it");
    assert_eq!(
        (decoded.hops_remaining(), decoded.layers()),
        (depth, &layers[..])
    );
    if layers.len() != SIGNATURE.len() {
        return Err(hop_err(ProxyError::SignatureMismatch {
            expected: vec![SIGNATURE.len()],
            actual: vec![layers.len()],
        }));
    }
    if depth == 0 {
        return Err(CascadeError::Onion {
            reason: "no sealed envelopes left for this hop".to_string(),
        });
    }
    match *depth_seen {
        Some(seen) if seen != depth => {
            return Err(CascadeError::Onion {
                reason: format!("mixed onion depths in one round: {seen} vs {depth}"),
            });
        }
        _ => *depth_seen = Some(depth),
    }
    for (blob, &expected_len) in layers.iter().zip(&SIGNATURE) {
        reference_open(blob, authentic)
            .map_err(|e| hop_err(ProxyError::Enclave(EnclaveError::Crypto(e))))?;
        if depth == 1 {
            if let Some(plain) = plaintext_of(blob) {
                codec::validate_layer_frame_expecting(&plain, expected_len).map_err(hop_err)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_messages_fail_like_the_copying_ingest_and_leave_no_trace(
        seed in 0u64..1_000_000,
        depth in 1usize..3,
        clients in 2usize..6,
        victim in 0usize..6,
        kind in 0usize..10,
        at in 0usize..100_000,
    ) {
        let (mut hop, mut twin) = twin_hops(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa22);
        let good = valid_round(&hop, depth, clients, &mut rng);
        let victim = victim % clients;

        // Everything honest clients sealed for this hop, and — for the
        // mis-sized frame mutation — the one forged blob's plaintext.
        let mut authentic: Vec<Vec<u8>> = good
            .iter()
            .flat_map(|wire| OnionUpdate::decode(wire).unwrap().into_layers())
            .collect();
        let mut bad = good.clone();
        let (hostile, forged) = mutate(&good[victim], kind, at, hop.public_key(), &mut rng);
        // A framing error must also be what the public decoder reports.
        if let Err(framing) = reference_decode(&hostile) {
            prop_assert_eq!(OnionUpdate::decode(&hostile).unwrap_err(), framing);
        }
        bad[victim] = hostile;
        authentic.extend(forged.iter().map(|(sealed, _)| sealed.clone()));
        let plaintext_of = |blob: &[u8]| {
            forged.as_ref().filter(|(sealed, _)| sealed == blob).map(|(_, plain)| plain.clone())
        };

        // The reference verdict, message by message in submission order.
        let mut depth_seen = None;
        let mut expected = Ok(());
        let mut accepted = 0u64;
        for wire in &bad {
            expected = reference_ingest(wire, &mut depth_seen, &authentic, &plaintext_of);
            if expected.is_err() {
                break;
            }
            accepted += 1;
        }

        let input_len: usize = bad.iter().map(Vec::len).sum();
        let rejected_len = bad.get(accepted as usize).map_or(0, Vec::len) as u64;
        let mut spent = Vec::new();
        let before = requested();
        let outcome = hop.mix_delivered(bad.clone(), &mut spent);
        let allocated = requested() - before;

        match expected {
            // A mutation this hop cannot see through (a mis-sized frame
            // under a deeper onion): the round mixes like the good one.
            Ok(()) => {
                prop_assert!(depth > 1 && kind == 9, "kind {} must fail", kind);
                prop_assert!(outcome.is_ok());
                twin.mix_round(&bad).unwrap();
            }
            Err(expected) => {
                prop_assert_eq!(outcome.unwrap_err(), expected, "kind {}, at {}", kind, at);
                // `bad.clone()` above is outside the window; inside it a
                // failing round builds views, key material and an error
                // message — never a copy of the input, never a claimed
                // length.
                prop_assert!(
                    allocated <= 1024 * (clients + 1),
                    "kind {}: {} B allocated for {} B of input", kind, allocated, input_len
                );
                prop_assert!(spent.is_empty(), "a failed round has no spent buffers to hand on");
                let stats = hop.stats();
                prop_assert_eq!((stats.updates_received, stats.updates_rejected), (accepted, 1));
                prop_assert_eq!(stats.bytes_rejected, rejected_len);
                prop_assert_eq!(stats.updates_forwarded, 0);
            }
        }
        prop_assert_eq!(hop.memory_stats().allocated, 0, "EPC charges leaked");

        // The mixing RNG stands where the twin's does: the same valid
        // round draws the same plan and frames the same bytes on both.
        let (out, plan) = hop.mix_round(&good).unwrap();
        let (twin_out, twin_plan) = twin.mix_round(&good).unwrap();
        prop_assert_eq!(plan, twin_plan);
        prop_assert_eq!(out, twin_out);
        prop_assert_eq!(hop.memory_stats().allocated, 0);
    }
}

/// The owned and the borrowing entry points are the same round: outputs,
/// plan, stats and the buffers handed on.
#[test]
fn mix_delivered_reuses_spent_buffers_and_matches_mix_round() {
    let (mut hop, mut twin) = twin_hops(42);
    let mut rng = StdRng::seed_from_u64(43);
    let round = valid_round(&hop, 2, 5, &mut rng);
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
