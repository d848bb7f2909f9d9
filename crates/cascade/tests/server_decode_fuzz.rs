//! Structure-aware mutation of the MIXC messages the **server** decodes.
//!
//! The last hop's output reaches the aggregation server over a wire
//! nobody authenticates: the coordinator parses each message as a
//! borrowed view and decodes the layers straight out of it
//! (`OnionView::parse(..).into_params(..)`). This suite drives real
//! rounds whose link rewrites one message on the segment into the server
//! — hostile blob counts and lengths, envelopes claimed to remain, a
//! flipped kind byte, a client's whole entry message, trailing bytes, and
//! layer frames whose own headers lie (a few dozen bytes declaring
//! 16 GiB of parameters) — and pins two properties:
//!
//! * the round fails with a **typed** error, equal to what the plain
//!   framing reference (`mixc/mod.rs`) followed by the codec's public
//!   header peek and expecting decoder give for that message — or
//!   commits, when the mutation left a well-formed update (nothing
//!   authenticates a plaintext float);
//! * between the hostile delivery and the round's return the server
//!   allocates at most the decoded size of the updates it was handed
//!   plus 1 KiB per message — never a length or count a header merely
//!   claims (counting allocator, per test thread).

mod mixc;

use mixc::{frame, reference_decode, requested, ENTRY, HEADER_LEN, INNER};
use mixnn_cascade::{CascadeCoordinator, CascadeError, FailurePolicy};
use mixnn_core::codec::{self, CompressionConfig, V2_SENTINEL};
use mixnn_core::{Endpoint, LinkError, ProxyError, RoundLink};
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIGNATURE: [usize; 3] = [3, 40, 2];

fn updates(clients: usize, rng: &mut StdRng) -> Vec<ModelParams> {
    (0..clients)
        .map(|_| {
            ModelParams::from_layers(
                SIGNATURE
                    .iter()
                    .map(|&n| LayerParams::from_values((0..n).map(|_| rng.gen()).collect()))
                    .collect(),
            )
        })
        .collect()
}

/// A top-k frame that is structurally self-consistent — valid sentinel,
/// version and mode, finite scale and zero, `k` ascending indices, `k`
/// quant bytes: 22 + 5·`k` bytes — and declares `len` parameters.
fn crafted_topk_frame(len: u32, k: u32) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&V2_SENTINEL.to_be_bytes());
    frame.push(2); // version
    frame.push(1); // mode: top-k
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&k.to_be_bytes());
    frame.extend_from_slice(&1.0f32.to_le_bytes()); // scale
    frame.extend_from_slice(&0.0f32.to_le_bytes()); // zero
    for i in 0..k {
        frame.extend_from_slice(&i.to_be_bytes()); // len > 2^24: four-byte indices
    }
    frame.extend(std::iter::repeat_n(0x7f, k as usize));
    frame
}

const MUTATIONS: usize = 13;
/// Mutations no server accepts, whatever they hit.
const ALWAYS_FATAL: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

/// Rewrites one of the last hop's messages into a hostile one. Magic and
/// version stay valid throughout. `entry_message` is what a client sent
/// into the round's first hop.
fn mutate(wire: &[u8], kind: usize, at: usize, entry_message: &[u8]) -> Vec<u8> {
    let message = reference_decode(wire).unwrap();
    assert!(
        !message.entry && message.depth == 0,
        "the last hop emits plaintext inner frames"
    );
    let mut blobs = message.blobs;
    let count = blobs.len() as u32;
    let layer = at % blobs.len();
    match kind {
        // Hostile blob counts over otherwise intact framing.
        0 => {
            let counts = [0, count - 1, count + 1, 1 << 20, u32::MAX];
            frame(INNER, 0, counts[at % counts.len()], &blobs)
        }
        // A consistent frame with one layer too few or too many.
        1 => {
            if at.is_multiple_of(2) {
                blobs.pop();
            } else {
                blobs.push(blobs[0].clone());
            }
            frame(INNER, 0, blobs.len() as u32, &blobs)
        }
        // A blob length field that lies: shorter, longer, or enormous.
        2 => {
            let mut out = wire.to_vec();
            let field = HEADER_LEN + blobs[..layer].iter().map(|b| 4 + b.len()).sum::<usize>();
            let truthful = blobs[layer].len() as u32;
            let lies = [truthful - 1, truthful + 1, truthful + 4, u32::MAX];
            out[field..field + 4].copy_from_slice(&lies[at % lies.len()].to_be_bytes());
            out
        }
        // Envelopes claimed to remain: the server is nobody's hop.
        3 => frame(INNER, [1, 2, 0xff][at % 3], count, &blobs),
        // Trailing bytes after the last layer.
        4 => {
            let mut out = wire.to_vec();
            out.extend(std::iter::repeat_n(0xa5, 1 + at % 9));
            out
        }
        // The kind byte flipped: three blobs under the entry kind, or no
        // known kind at all.
        5 => frame([ENTRY, 2, 0xff][at % 3], 0, count, &blobs),
        // A well-formed entry message — a client's own, replayed at the
        // server, or one blob of this message dressed up as one.
        6 => {
            if at.is_multiple_of(2) {
                entry_message.to_vec()
            } else {
                frame(ENTRY, (at % 3) as u8, 1, &blobs[layer..=layer])
            }
        }
        // A v1 layer frame whose four-byte header claims parameters it
        // does not carry — up to 16 GiB of them.
        7 => {
            let honest = SIGNATURE[layer] as u32;
            let claims = [honest + 1, 1 << 20, 1 << 30, u32::MAX - 1];
            blobs[layer][..4].copy_from_slice(&claims[at % claims.len()].to_be_bytes());
            frame(INNER, 0, count, &blobs)
        }
        // The same from a self-consistent compressed frame: 42 bytes that
        // decode to `len` parameters if anyone lets them.
        8 => {
            let lens = [1 << 25, 1 << 30, u32::MAX];
            blobs[layer] = crafted_topk_frame(lens[at % lens.len()], 4);
            frame(INNER, 0, count, &blobs)
        }
        // A layer frame cut short or padded, consistently framed.
        9 => {
            if at.is_multiple_of(2) {
                let keep = at % blobs[layer].len();
                blobs[layer].truncate(keep);
            } else {
                blobs[layer].extend(std::iter::repeat_n(0, 1 + at % 7));
            }
            frame(INNER, 0, count, &blobs)
        }
        // Two layers' frames swapped: right bytes, wrong geometry.
        10 => {
            blobs.swap(layer, (layer + 1) % SIGNATURE.len());
            frame(INNER, 0, count, &blobs)
        }
        // An empty layer frame.
        11 => {
            blobs[layer].clear();
            frame(INNER, 0, count, &blobs)
        }
        // A flipped bit anywhere in one layer frame: in its header it is a
        // typed error, in a value it is simply another update.
        _ => {
            let bit = at % (8 * blobs[layer].len());
            blobs[layer][bit / 8] ^= 1 << (bit % 8);
            frame(INNER, 0, count, &blobs)
        }
    }
}

/// What the server must make of one message, from the plain framing
/// reference and the codec's public surface alone.
fn reference_server_decode(wire: &[u8]) -> Result<(), CascadeError> {
    let onion = |reason: String| CascadeError::Onion { reason };
    let layer_err = |e: ProxyError| onion(format!("inner layer plaintext: {e}"));
    let message = reference_decode(wire)?;
    if message.entry {
        return Err(onion(
            "the entry envelope still wraps the update".to_string(),
        ));
    }
    if message.depth != 0 {
        return Err(onion(format!(
            "{} sealed envelope(s) still wrap the layers",
            message.depth
        )));
    }
    let declared = message
        .blobs
        .iter()
        .map(|blob| codec::declared_layer_len(blob).map_err(layer_err))
        .collect::<Result<Vec<usize>, _>>()?;
    if declared != SIGNATURE {
        return Err(CascadeError::SignatureMismatch {
            expected: SIGNATURE.to_vec(),
            actual: declared,
        });
    }
    for (blob, &len) in message.blobs.iter().zip(&SIGNATURE) {
        codec::decode_layer_expecting(blob, len).map_err(layer_err)?;
    }
    Ok(())
}

/// The identity everywhere but on the segment into the server, where it
/// rewrites message `victim` and notes what the allocator had handed out
/// by then.
#[derive(Default)]
struct HostileLastMile {
    victim: usize,
    kind: usize,
    at: usize,
    entry_message: Option<Vec<u8>>,
    /// The batch as the server received it.
    delivered: Vec<Vec<u8>>,
    requested_at_delivery: usize,
}

impl RoundLink for HostileLastMile {
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        mut messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        if from == Endpoint::Clients {
            self.entry_message = Some(messages[0].clone());
        }
        if to == Endpoint::Server {
            let entry_message = self.entry_message.as_deref().expect("clients sent first");
            let victim = self.victim % messages.len();
            messages[victim] = mutate(&messages[victim], self.kind, self.at, entry_message);
            self.delivered.clone_from(&messages);
            self.requested_at_delivery = requested();
        }
        Ok(messages)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hostile_last_mile_is_a_typed_error_with_bounded_allocation(
        seed in 0u64..1_000_000,
        hops in 1usize..3,
        clients in 2usize..7,
        mode in 0usize..3,
        skip in 0usize..2,
        victim in 0usize..7,
        kind in 0usize..MUTATIONS,
        at in 0usize..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let policy = [FailurePolicy::Abort, FailurePolicy::Skip][skip];
        let mut cascade =
            CascadeCoordinator::linear(SIGNATURE.to_vec(), hops, seed, policy, &service, &mut rng)
                .unwrap();
        cascade.set_compression([
            CompressionConfig::F32,
            CompressionConfig::Int8,
            CompressionConfig::int8_top_k(),
        ][mode]);
        let ins = updates(clients, &mut rng);

        let mut link = HostileLastMile {
            victim,
            kind,
            at,
            ..HostileLastMile::default()
        };
        let outcome = cascade.run_round_over(&ins, &mut rng, &mut link);
        let allocated = requested() - link.requested_at_delivery;
        let delivered = link.delivered;

        // Messages decode in slot order; the first one the reference
        // refuses names the error.
        let expected = delivered.iter().try_for_each(|wire| reference_server_decode(wire));
        match expected {
            Ok(()) => {
                prop_assert!(!ALWAYS_FATAL.contains(&kind), "kind {} must fail", kind);
                prop_assert_eq!(outcome.expect("a well-formed batch commits").mixed.len(), clients);
            }
            Err(expected) => {
                // A server-side decode failure is nobody's hop to skip:
                // the round fails under either policy.
                prop_assert_eq!(outcome.unwrap_err(), expected, "kind {}, at {}", kind, at);
                prop_assert!(cascade.skipped_hops().is_empty());
            }
        }
        let decoded_update = SIGNATURE.iter().sum::<usize>() * std::mem::size_of::<f32>();
        prop_assert!(
            allocated <= clients * (decoded_update + 1024),
            "kind {}: {} B allocated after the server received {} B",
            kind,
            allocated,
            delivered.iter().map(Vec::len).sum::<usize>()
        );
    }
}
