//! What a steady federated round over the cascade allocates:
//! `CascadeTransport::relay` followed by `AggregationServer::aggregate`,
//! the round a deployment repeats.
//!
//! Nothing in that round needs fresh memory the size of a layer or of a
//! message: the clients seal into the messages the last hop received the
//! round before, every hop writes into messages an earlier stage is done
//! with, the server decodes into the updates the transport consumed, and
//! the aggregate is written over the global model. This binary's allocator
//! counts, per thread, the allocations of at least the smallest layer's
//! smallest form — its frame on the wire, or its `f32` values, whichever
//! is shorter — and a steady round must make none, under the full-width
//! codec and under int8 + top-k (whose decoded layers are about four times
//! its messages). The layers are sized so that the round's per-envelope
//! bookkeeping, one entry per (client, layer), stays below that floor.
//!
//! The pooled round — `PooledCascadeTransport::relay`, whose firings are
//! padded with cover — is held to the same floor: cover is generated into
//! updates the relay is done with, the server decodes into them, and the
//! outputs are copied into the members of committed firings. It runs on
//! two telemetry handles: the no-op one, as a pool may hold (the pool
//! keeps its own clock), and a live virtual-clock registry, as the repo
//! benchmark attaches. A live registry holds one fixed slot per series,
//! so recording into it must not allocate either.

use mixnn_cascade::{
    CascadeCoordinator, CascadeTransport, FailurePolicy, LinearChain, PoolConfig,
    PooledCascadeTransport, PooledCoordinator,
};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_fl::{AggregationServer, ModelUpdate, UpdateTransport};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Counter, Registry, Telemetry, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SIGNATURE: [usize; 3] = [24_000, 8_000, 4_000];
const CLIENTS: usize = 8;

thread_local! {
    /// The size from which this thread's allocations are counted.
    static FLOOR: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Allocations of at least `FLOOR` bytes this thread has made.
    static COUNTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requests of at least the thread's floor
/// so concurrently running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = FLOOR.try_with(|floor| {
        if bytes >= floor.get() {
            let _ = COUNTED.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the heap
// (const-initialised `Cell`s without destructors).
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

fn counted() -> usize {
    COUNTED.with(Cell::get)
}

/// The smallest layer's shortest form under `compression`.
fn layer_bytes(compression: CompressionConfig) -> usize {
    let smallest = *SIGNATURE.iter().min().expect("layers");
    codec::encoded_layer_len_with(smallest, compression).min(4 * smallest)
}

/// Four relay + aggregate rounds under `compression`: the layer- or
/// message-sized allocations of each, every aggregate checked bit for bit.
fn rounds(compression: CompressionConfig, seed: u64) -> Vec<usize> {
    let chain = Box::new(LinearChain::new(3));
    let (mut cascade, _) =
        CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), chain, seed, FailurePolicy::Abort)
            .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    cascade.set_compression(compression);
    let mut transport = CascadeTransport::new(cascade, seed);
    let inputs: Vec<ModelUpdate> = (0..CLIENTS)
        .map(|id| {
            let layers = SIGNATURE
                .iter()
                .map(|&n| {
                    LayerParams::from_values((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                })
                .collect();
            ModelUpdate::new(id, ModelParams::from_layers(layers))
        })
        .collect();
    // What the wire delivers at best, and so what the server must average.
    let delivered: Vec<ModelParams> = inputs
        .iter()
        .map(|u| codec::canonical_params(&u.params, compression))
        .collect();
    let expected = ModelParams::mean(&delivered).unwrap();
    let mut server = AggregationServer::new(expected.scale(0.0));
    FLOOR.with(|floor| floor.set(layer_bytes(compression)));
    (0..4)
        .map(|_| {
            // The copy handed to the relay and the drop of what it returns
            // are the caller's, outside the count.
            let batch = inputs.clone();
            let before = counted();
            let observed = transport.relay(batch).unwrap();
            server.aggregate(&observed).unwrap();
            let fresh = counted() - before;
            assert_eq!(server.global(), &expected, "{}", compression.name());
            drop(observed);
            fresh
        })
        .collect()
}

#[test]
fn steady_relay_and_aggregate_allocate_nothing_of_a_layers_size() {
    for (compression, seed) in [
        (CompressionConfig::F32, 1),
        (CompressionConfig::int8_top_k(), 2),
    ] {
        let counts = rounds(compression, seed);
        assert_eq!(
            counts[0],
            2 * CLIENTS,
            "{} warm-up: the client onions and the first hop's messages",
            compression.name()
        );
        assert_eq!(counts[1..], [0; 3], "{}", compression.name());
        println!(
            "steady relay + aggregate under {}: {} allocations of a layer's or a message's size",
            compression.name(),
            counts[3]
        );
    }
}

/// Pooled relays in one test: each relay's arrivals come in pairs a
/// deadline apart, so every firing holds two members and is padded to
/// the k-floor with two cover updates.
const POOLED_CLIENTS: usize = 8;
const POOL_K: usize = 4;
const POOLED_RELAYS: usize = 6;

/// `POOLED_RELAYS` pooled relay + aggregate rounds under `compression`,
/// recorded into `telemetry`: the layer- or message-sized allocations of
/// each and the updates the transport holds after it, every aggregate
/// checked bit for bit.
fn pooled_relays(
    compression: CompressionConfig,
    seed: u64,
    telemetry: Telemetry,
) -> Vec<(usize, usize)> {
    let chain = Box::new(LinearChain::new(2));
    let (mut cascade, _) =
        CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), chain, seed, FailurePolicy::Abort)
            .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    cascade.set_compression(compression);
    let config = PoolConfig {
        k: POOL_K,
        deadline_ns: 1_000,
    };
    let pooled = PooledCoordinator::new(cascade, config, seed).unwrap();
    // Arrivals 750 ns apart: the pool opened by one arrival fires by
    // deadline after the next.
    let spread = 750 * POOLED_CLIENTS as u64;
    let mut transport = PooledCascadeTransport::new(pooled, telemetry, spread).unwrap();
    let inputs: Vec<ModelUpdate> = (0..POOLED_CLIENTS)
        .map(|id| {
            let layers = SIGNATURE
                .iter()
                .map(|&n| {
                    LayerParams::from_values((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                })
                .collect();
            ModelUpdate::new(id, ModelParams::from_layers(layers))
        })
        .collect();
    let delivered: Vec<ModelParams> = inputs
        .iter()
        .map(|u| codec::canonical_params(&u.params, compression))
        .collect();
    let expected = ModelParams::mean(&delivered).unwrap();
    let mut server = AggregationServer::new(expected.scale(0.0));
    FLOOR.with(|floor| floor.set(layer_bytes(compression)));
    (0..POOLED_RELAYS)
        .map(|_| {
            let batch = inputs.clone();
            let before = counted();
            let observed = transport.relay(batch).unwrap();
            server.aggregate(&observed).unwrap();
            let fresh = counted() - before;
            assert_eq!(server.global(), &expected, "{}", compression.name());
            drop(observed);
            let rounds = transport.last_rounds();
            assert!(rounds.iter().all(|r| r.real() == 2 && r.dummies() == 2));
            let mixed: usize = rounds.iter().map(|r| r.padded.round.mixed.len()).sum();
            (fresh, transport.coordinator().spares() + mixed)
        })
        .collect()
}

#[test]
fn steady_pooled_relay_and_aggregate_allocate_nothing_of_a_layers_size() {
    for (compression, seed) in [
        (CompressionConfig::F32, 3),
        (CompressionConfig::int8_top_k(), 4),
    ] {
        for (handle, telemetry) in [
            ("no-op", mixnn_telemetry::noop()),
            (
                "live",
                Registry::with_virtual_clock(VirtualClock::new()).shared(),
            ),
        ] {
            let arm = format!("{} on the {handle} handle", compression.name());
            let relays = pooled_relays(compression, seed, telemetry.clone());
            let slots = 2 * POOLED_CLIENTS;
            for (i, &(fresh, held)) in relays.iter().enumerate() {
                // Between relays the transport holds the last relay's mixed
                // outputs and nothing more: the spares never pile up.
                assert_eq!(held, slots, "{arm}: relay {i}");
                if i > 0 {
                    assert_eq!(fresh, 0, "{arm}: relay {i}");
                }
            }
            // A live arm that recorded nothing would pass vacuously.
            let fired = telemetry.counter(Counter::CascadePoolsFired);
            assert_eq!(fired > 0, telemetry.enabled(), "{arm}: {fired} firings");
            println!(
                "steady pooled relay + aggregate under {arm}: {} allocations of a layer's \
                 or a message's size ({} at warm-up), {} updates held between relays",
                relays[POOLED_RELAYS - 1].0,
                relays[0].0,
                relays[POOLED_RELAYS - 1].1,
            );
        }
    }
}
