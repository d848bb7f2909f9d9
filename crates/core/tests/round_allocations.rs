//! Exact counts of what a proxy round allocates.
//!
//! `MixnnTransport::relay_round` seals every update into an envelope of
//! `OVERHEAD` + its encoded length, and nothing else the round allocates
//! is that long (the one opened plaintext the proxy keeps is `OVERHEAD`
//! shorter and outlives the round; a decoded layer is shorter still).
//! This binary's allocator counts, per thread, the allocations of at
//! least a threshold. Counted from an envelope's length, the first round
//! makes one per update; from the second round on the transport seals
//! into the envelopes of the round before, which the proxy only borrowed,
//! and the count is zero.
//!
//! Counted from the smallest layer's shortest form — its frame on the
//! wire or its `f32` values, whichever is shorter — the first round makes
//! one allocation per envelope and one for the proxy's plaintext scratch,
//! and no later round makes any, under every codec: the proxy opens each
//! update into the scratch it keeps and decodes it into the updates the
//! participants just sealed, so the mixed updates are their memory. The
//! layers are sized so that the round's per-envelope bookkeeping — eight
//! prepared opens at most, 576 bytes — stays below that floor.

use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{MixnnProxyConfig, MixnnTransport};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SIGNATURE: [usize; 3] = [4000, 2000, 1000];
const CLIENTS: usize = 8;

thread_local! {
    /// Requests of at least this many bytes are counted.
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Allocations of at least `THRESHOLD` bytes this thread has made.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting large requests per thread so
/// concurrently running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = THRESHOLD.try_with(|threshold| {
        if bytes >= threshold.get() {
            let _ = LARGE.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the heap
// (const-initialised `Cell`s without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn updates(rng: &mut StdRng) -> Vec<ModelParams> {
    (0..CLIENTS)
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

fn launch() -> MixnnTransport {
    MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: SIGNATURE.to_vec(),
            seed: 5,
            ..MixnnProxyConfig::default()
        },
        6,
    )
}

/// Relays `ins` and returns the allocations of at least `THRESHOLD`
/// bytes the relay made; the mixed round must average what the wire
/// delivers of `ins`. The copy handed over and the drop of what comes
/// back are the caller's, outside the count.
fn relay(transport: &mut MixnnTransport, ins: &[ModelParams]) -> usize {
    let delivered: Vec<ModelParams> = ins
        .iter()
        .map(|p| codec::canonical_params(p, transport.compression()))
        .collect();
    let params = ins.to_vec();
    let before = LARGE.with(Cell::get);
    let mixed = transport.relay_round(params).unwrap();
    let counted = LARGE.with(Cell::get) - before;
    assert_eq!(ModelParams::mean(&delivered), ModelParams::mean(&mixed));
    counted
}

#[test]
fn from_the_second_round_on_no_envelope_is_allocated() {
    let mut transport = launch();
    let envelope = OVERHEAD + codec::encoded_len_with(&SIGNATURE, CompressionConfig::F32);
    THRESHOLD.with(|t| t.set(envelope));
    let ins = updates(&mut StdRng::seed_from_u64(4));
    assert_eq!(
        relay(&mut transport, &ins),
        CLIENTS,
        "the first round seals fresh"
    );
    let steady: Vec<usize> = (0..3).map(|_| relay(&mut transport, &ins)).collect();
    assert_eq!(steady, [0; 3]);
    println!(
        "steady-state round: {} envelope-sized allocations for {CLIENTS} sealed updates",
        steady[2]
    );
}

/// The smallest layer's shortest form under `compression`: its frame on
/// the wire or its `f32` values, whichever is shorter.
fn layer_bytes(compression: CompressionConfig) -> usize {
    let smallest = *SIGNATURE.iter().min().expect("layers");
    codec::encoded_layer_len_with(smallest, compression).min(4 * smallest)
}

#[test]
fn from_the_second_round_on_nothing_of_a_layers_size_is_allocated() {
    let ins = updates(&mut StdRng::seed_from_u64(7));
    for compression in [
        CompressionConfig::F32,
        CompressionConfig::Int8,
        CompressionConfig::int8_top_k(),
    ] {
        let mut transport = launch().with_compression(compression);
        THRESHOLD.with(|t| t.set(layer_bytes(compression)));
        let warm_up = relay(&mut transport, &ins);
        assert_eq!(
            warm_up,
            CLIENTS + 1,
            "{}: the envelopes and the plaintext scratch",
            compression.name()
        );
        let steady: Vec<usize> = (0..3).map(|_| relay(&mut transport, &ins)).collect();
        assert_eq!(steady, [0; 3], "{}", compression.name());
        println!(
            "steady relay under {}: {} allocations of a layer's size ({warm_up} at warm-up)",
            compression.name(),
            steady[2]
        );
    }
}
