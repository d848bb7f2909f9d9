//! Exact counts of the envelopes a proxy round allocates.
//!
//! `MixnnTransport::relay_round` seals every update into an envelope of
//! `OVERHEAD` + its encoded length, and nothing else the round allocates
//! is that long (the opened plaintext is `OVERHEAD` shorter, a decoded
//! layer shorter still). This binary's allocator counts, per thread, the
//! allocations of at least an envelope's length. The first round makes
//! one per update; from the second round on the transport seals into the
//! envelopes of the round before, which the proxy only borrowed, and the
//! count is zero.

use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{MixnnProxyConfig, MixnnTransport};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SIGNATURE: [usize; 3] = [3000, 1000, 500];
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

#[test]
fn from_the_second_round_on_no_envelope_is_allocated() {
    let mut transport = MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: SIGNATURE.to_vec(),
            seed: 5,
            ..MixnnProxyConfig::default()
        },
        6,
    );
    let envelope = OVERHEAD + codec::encoded_len_with(&SIGNATURE, CompressionConfig::F32);
    THRESHOLD.with(|t| t.set(envelope));
    let ins = updates(&mut StdRng::seed_from_u64(4));

    let relay = |transport: &mut MixnnTransport| {
        let params = ins.clone();
        let before = LARGE.with(Cell::get);
        let mixed = transport.relay_round(params).unwrap();
        let envelopes = LARGE.with(Cell::get) - before;
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&mixed));
        envelopes
    };
    assert_eq!(
        relay(&mut transport),
        CLIENTS,
        "the first round seals fresh"
    );
    let steady: Vec<usize> = (0..3).map(|_| relay(&mut transport)).collect();
    assert_eq!(steady, [0; 3]);
    println!(
        "steady-state round: {} envelope-sized allocations for {CLIENTS} sealed updates",
        steady[2]
    );
}
