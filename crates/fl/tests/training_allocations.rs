//! What a steady federated round allocates.
//!
//! `FlSimulation` trains each worker's clients in a `LocalTrainer` it keeps
//! from round to round: one model, optimizer and batch per worker, and
//! every layer writing into buffers that outlive the round. So from the
//! second round on a round allocates nothing of an activation's size
//! except the parameters it hands out: each client's update, the broadcast
//! copy of the global model and the new global model in the outcome. And a
//! warm trainer allocates exactly what building the update it returns
//! does, whatever the model and however the batches are cut. This binary's
//! allocator counts every allocation, on every thread, made while a test
//! asks it to; the tests take turns.

use mixnn_data::{lfw_like, motionsense_like};
use mixnn_fl::{DirectTransport, FlConfig, FlSimulation, LocalTrainer};
use mixnn_nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Held by each test for its whole body, so no test allocates while
/// another counts.
static TURN: Mutex<()> = Mutex::new(());

/// Whether allocations are being counted, and the size from which one
/// counts as large.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Allocations counted, those of them at least `LARGE_FROM` bytes, and
/// all their bytes.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting requests from every thread: the round's
/// workers train on threads of their own.
struct Counting;

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
        if bytes >= LARGE_FROM.load(Ordering::Relaxed) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and never
// touch the heap.
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
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations, the large ones among them, and the bytes `f` makes.
fn counted(f: impl FnOnce()) -> (usize, usize, usize) {
    for n in [&ALLOCATIONS, &LARGE, &BYTES] {
        n.store(0, Ordering::Relaxed);
    }
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    let load = |n: &AtomicUsize| n.load(Ordering::Relaxed);
    (load(&ALLOCATIONS), load(&LARGE), load(&BYTES))
}

/// `fl_train`'s round — 20 MotionSense-like clients, `conv2_fc3` at width
/// 4/32, two epochs of one 64-example batch under Adam at 0.005 — over
/// `DirectTransport`, at one worker (the sequential path) and at two.
/// "Of an activation's size" counts from the smallest activation the model
/// makes, the logits of a batch: 64 examples × 6 classes of f32.
#[test]
fn from_the_second_round_on_training_allocates_nothing_of_an_activations_size() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: usize = 3;
    for workers in [1, 2] {
        let population = motionsense_like(961).generate().unwrap();
        let spec = population.spec();
        let (dims, classes) = (spec.dims, spec.num_classes);
        let template = zoo::conv2_fc3(
            zoo::InputSpec::new(dims.channels, dims.height, dims.width),
            classes,
            4,
            32,
            &mut StdRng::seed_from_u64(962),
        );
        let cfg = FlConfig {
            local_epochs: 2,
            batch_size: 256,
            clients_per_round: 20,
            learning_rate: 0.005,
            seed: 963,
            client_workers: workers,
            ..FlConfig::default()
        };
        let logits = 64 * classes * std::mem::size_of::<f32>();
        LARGE_FROM.store(logits, Ordering::Relaxed);
        // Each parameter layer of that size is one allocation of every
        // model the round hands out.
        let large_layers = template
            .signature()
            .iter()
            .filter(|&&len| len * std::mem::size_of::<f32>() >= logits)
            .count();
        let handed_out = cfg.clients_per_round + 2;
        let mut sim = FlSimulation::new(template, cfg, &population);
        let mut transport = DirectTransport::new();
        let (_, warm_up, _) = counted(|| {
            sim.run_round(&mut transport).unwrap();
        });
        let (allocations, large, bytes) = counted(|| {
            for _ in 0..ROUNDS {
                let outcome = sim.run_round(&mut transport).unwrap();
                assert_eq!(outcome.observed.len(), cfg.clients_per_round);
            }
        });
        let beyond = large.saturating_sub(ROUNDS * handed_out * large_layers);
        println!(
            "steady round at {workers} worker(s): {beyond} allocations of an activation's size \
             beyond the {handed_out} models it hands out ({warm_up} in the first round); \
             {} allocations, {} B per update",
            allocations as f64 / (ROUNDS * cfg.clients_per_round) as f64,
            bytes as f64 / (ROUNDS * cfg.clients_per_round) as f64,
        );
        assert_eq!(
            large,
            ROUNDS * handed_out * large_layers,
            "{workers} worker(s): large allocations beyond the models handed out"
        );
    }
}

/// One warm trainer on `fl_train`'s model and batch, and on
/// `deepface_like` (a locally connected layer) at batch 20 over 48
/// examples, so every epoch ends on a short batch of 8 and the buffers
/// shrink and grow back: a client's training allocates what `params()` of
/// the template does, nothing more.
#[test]
fn a_warm_trainer_allocates_only_the_update_it_returns() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let motionsense = motionsense_like(971).generate().unwrap();
    let lfw = lfw_like(972).generate().unwrap();
    let input = |p: &mixnn_data::FederatedDataset| {
        let d = p.spec().dims;
        zoo::InputSpec::new(d.channels, d.height, d.width)
    };
    let mut rng = StdRng::seed_from_u64(973);
    let cases = [
        (
            "conv2_fc3 at batch 256",
            zoo::conv2_fc3(
                input(&motionsense),
                motionsense.spec().num_classes,
                4,
                32,
                &mut rng,
            ),
            &motionsense,
            256,
        ),
        (
            "deepface_like at batch 20",
            zoo::deepface_like(input(&lfw), lfw.spec().num_classes, 4, &mut rng),
            &lfw,
            20,
        ),
    ];
    for (name, template, population, batch_size) in cases {
        let global = template.params();
        let (expected, _, expected_bytes) = counted(|| drop(template.params()));
        let mut trainer = LocalTrainer::new(&template);
        let cfg = FlConfig {
            local_epochs: 2,
            batch_size,
            learning_rate: 0.005,
            ..FlConfig::default()
        };
        let data = population.participants()[0].train();
        trainer.train(&global, data, &cfg, 1).unwrap();
        let (allocations, _, bytes) = counted(|| {
            for (seed, p) in population.participants()[1..4].iter().enumerate() {
                drop(
                    trainer
                        .train(&global, p.train(), &cfg, seed as u64)
                        .unwrap(),
                );
            }
        });
        println!(
            "warm trainer, {name}: {} allocations, {} B per client \
             ({expected} allocations, {expected_bytes} B for the update)",
            allocations as f64 / 3.0,
            bytes as f64 / 3.0
        );
        assert_eq!(
            (allocations, bytes),
            (3 * expected, 3 * expected_bytes),
            "{name}"
        );
    }
}
