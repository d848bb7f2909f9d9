//! Exact counts of the message buffers a cascade round allocates.
//!
//! Every message of the round drive — a client's onion, a hop's outgoing
//! message, the server-bound message of the last hop — carries one whole
//! update, so it is at least `MESSAGE_BYTES` long, and nothing else the
//! drive allocates is (a decoded layer is one layer's `f32` vector). This
//! binary's allocator counts, per thread, the allocations of at least that
//! size. On a 3-hop linear chain the warm-up round makes `2·C` of them
//! (the `C` client onions and the first hop's outgoing messages); every
//! later round makes only the `C` client onions, because the first hop
//! writes into the server-bound messages the coordinator kept from the
//! round before and every later hop into the messages the stage before it
//! received. A failed round (abort) or a reroute (skip) gives that
//! generation up, so the round after it may pay the warm-up again; the
//! round after that is back to `C`.

use mixnn_cascade::{CascadeCoordinator, CascadeError, CascadeRound, FailurePolicy};
use mixnn_core::{Endpoint, InProcessLink, LinkError, RoundLink};
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SIGNATURE: [usize; 3] = [3000, 1000, 500];
const CLIENTS: usize = 8;
/// One update's `f32` values: every message is longer, every decoded layer
/// shorter.
const MESSAGE_BYTES: usize = 4 * (SIGNATURE[0] + SIGNATURE[1] + SIGNATURE[2]);

thread_local! {
    /// Allocations of at least `MESSAGE_BYTES` this thread has made.
    static MESSAGE_SIZED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting message-sized requests per thread so
/// concurrently running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    if bytes >= MESSAGE_BYTES {
        // A thread being torn down may allocate after its locals are gone.
        let _ = MESSAGE_SIZED.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the heap
// (a const-initialised `Cell` without a destructor).
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

fn message_sized() -> usize {
    MESSAGE_SIZED.with(Cell::get)
}

fn launch(policy: FailurePolicy, seed: u64) -> (CascadeCoordinator, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let cascade =
        CascadeCoordinator::linear(SIGNATURE.to_vec(), 3, seed, policy, &service, &mut rng)
            .unwrap();
    (cascade, rng)
}

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

/// One round over `link`, with the message-sized allocations it made.
fn counted_round(
    cascade: &mut CascadeCoordinator,
    ins: &[ModelParams],
    rng: &mut StdRng,
    link: &mut dyn RoundLink,
) -> (Result<CascadeRound, CascadeError>, usize) {
    let before = message_sized();
    let round = cascade.run_round_over(ins, rng, link);
    (round, message_sized() - before)
}

/// A committed round over the in-process link: its aggregate is the
/// inputs' mean, bit for bit. Returns the message-sized allocations.
fn correct_round(cascade: &mut CascadeCoordinator, ins: &[ModelParams], rng: &mut StdRng) -> usize {
    let (round, fresh) = counted_round(cascade, ins, rng, &mut InProcessLink);
    let round = round.unwrap();
    assert_eq!(ModelParams::mean(ins), ModelParams::mean(&round.mixed));
    fresh
}

/// After a failed or rerouted round: the next round is correct and pays
/// at most the warm-up, the one after it only the client onions.
fn recovers(cascade: &mut CascadeCoordinator, ins: &[ModelParams], rng: &mut StdRng) -> usize {
    let next = correct_round(cascade, ins, rng);
    assert!(next <= 2 * CLIENTS, "{next} message-sized allocations");
    assert_eq!(correct_round(cascade, ins, rng), CLIENTS);
    next
}

/// Fails every delivery on one segment; everything else is the identity.
struct DropSegment {
    from: Endpoint,
    to: Endpoint,
}

impl RoundLink for DropSegment {
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        if (from, to) == (self.from, self.to) {
            return Err(LinkError::Timeout {
                from,
                to,
                delivered: 0,
                expected: messages.len(),
            });
        }
        Ok(messages)
    }
}

/// Flips one ciphertext bit of the first message into `to`, so that hop's
/// own ingest — not the wire — fails the round.
struct CorruptInto {
    to: Endpoint,
}

impl RoundLink for CorruptInto {
    fn deliver(
        &mut self,
        _from: Endpoint,
        to: Endpoint,
        mut messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        if to == self.to {
            let last = messages[0].len() - 1;
            messages[0][last] ^= 1;
        }
        Ok(messages)
    }
}

#[test]
fn steady_rounds_allocate_only_the_client_onions() {
    let (mut cascade, mut rng) = launch(FailurePolicy::Abort, 1);
    let ins = updates(&mut rng);
    assert_eq!(
        correct_round(&mut cascade, &ins, &mut rng),
        2 * CLIENTS,
        "warm-up: the client onions and the first hop's messages"
    );
    let steady: Vec<usize> = (0..3)
        .map(|_| correct_round(&mut cascade, &ins, &mut rng))
        .collect();
    assert_eq!(steady, [CLIENTS; 3]);
    println!(
        "steady-state round: {} fresh message buffers beyond {CLIENTS} client onions",
        steady[2] - CLIENTS
    );
}

#[test]
fn an_aborted_round_costs_at_most_one_warm_up() {
    let (mut cascade, mut rng) = launch(FailurePolicy::Abort, 2);
    let ins = updates(&mut rng);
    correct_round(&mut cascade, &ins, &mut rng);
    correct_round(&mut cascade, &ins, &mut rng);
    let mut corrupt = CorruptInto {
        to: Endpoint::Hop(1),
    };
    let (failed, _) = counted_round(&mut cascade, &ins, &mut rng, &mut corrupt);
    assert!(matches!(failed, Err(CascadeError::Hop { hop: 1, .. })));
    let next = recovers(&mut cascade, &ins, &mut rng);
    println!("after an abort: {next} message-sized allocations, then {CLIENTS}");
}

#[test]
fn a_skip_reroute_costs_at_most_one_warm_up() {
    let (mut cascade, mut rng) = launch(FailurePolicy::Skip, 3);
    let ins = updates(&mut rng);
    correct_round(&mut cascade, &ins, &mut rng);
    correct_round(&mut cascade, &ins, &mut rng);
    let mut drop_into_hop_1 = DropSegment {
        from: Endpoint::Hop(0),
        to: Endpoint::Hop(1),
    };
    let (rerouted, _) = counted_round(&mut cascade, &ins, &mut rng, &mut drop_into_hop_1);
    let rerouted = rerouted.unwrap();
    assert_eq!(rerouted.skipped_this_round, vec![1]);
    assert_eq!(rerouted.chain, vec![0, 2]);
    assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&rerouted.mixed));
    let next = recovers(&mut cascade, &ins, &mut rng);
    println!("after a skip reroute: {next} message-sized allocations, then {CLIENTS}");
}
