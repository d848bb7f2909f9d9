//! What one training step allocates.
//!
//! `Sequential::apply_gradients` steps every trainable layer's
//! `ParamBlock` where it lies, so once the optimizer holds its state (Adam
//! draws its moment buffers on the first step) a step allocates nothing.
//! Every layer keeps its scratch from pass to pass and writes its output
//! and input gradient into tensors its caller keeps, and the loss writes
//! its softmax into a kept gradient, so after a warm-up batch of the same
//! shape a whole `train_batch` allocates nothing. This binary's allocator
//! counts, per thread, every allocation made while a test asks it to.

use mixnn_nn::{zoo, Adam, Dense, Layer, Optimizer, Sequential, Sgd, SoftmaxCrossEntropy};
use mixnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread, and their bytes.
    static ALLOCATIONS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting requests per thread so concurrently
/// running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| {
                let (count, total) = n.get();
                n.set((count + 1, total + bytes));
            });
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
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A model, one batch for it and the batch's labels.
type Batch = (Sequential, Tensor, Vec<usize>);

/// The `fl_train` model (`conv2_fc3` at width 4/32 on 1×8×8 input, four
/// classes: 1,988 parameters), one 64-example batch and its labels.
fn fl_train_model(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 4, 4, 32, &mut rng);
    assert_eq!(model.num_parameters(), 1_988);
    let x = Tensor::randn(vec![64, 1, 8, 8], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..64).map(|_| rng.gen_range(0..4)).collect();
    (model, x, labels)
}

/// The allocations, and their bytes, of one `apply_gradients` on the
/// `fl_train` model after one warm-up step under `optimizer`.
fn step_allocations(optimizer: &mut dyn Optimizer) -> (usize, usize) {
    let (mut model, x, labels) = fl_train_model(33);
    let loss = SoftmaxCrossEntropy::new();
    model.train_batch(&x, &labels, &loss, optimizer).unwrap();

    let logits = model.forward(&x).unwrap();
    let (_, dlogits) = loss.loss_and_grad(logits, &labels).unwrap();
    model.backward(&dlogits).unwrap();
    let before = model.params();
    let ((), counts) = counted(|| model.apply_gradients(optimizer));
    assert_ne!(model.params(), before, "the step moved no parameter");
    counts
}

/// What `f` returns, and the allocations and bytes it makes on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    ALLOCATIONS.with(|n| n.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (value, ALLOCATIONS.with(Cell::get))
}

#[test]
fn a_warm_dense_layer_and_loss_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(35);
    let loss = SoftmaxCrossEntropy::new();
    // `fl_train`'s three Dense layers: 32 → 32 → 16 → 6, batch 64.
    for (inputs, outputs) in [(32, 32), (32, 16), (16, 6)] {
        let mut dense = Dense::new(inputs, outputs, &mut rng);
        let x = Tensor::randn(vec![64, inputs], 0.0, 1.0, &mut rng).map(|v| v.max(0.0));
        let g = Tensor::randn(vec![64, outputs], 0.0, 1.0, &mut rng);
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        dense.forward(&x, &mut y).unwrap();
        dense.backward(&g, &mut dx).unwrap();
        let (_, forward) = counted(|| dense.forward(&x, &mut y).unwrap());
        let (_, backward) = counted(|| dense.backward(&g, &mut dx).unwrap());
        println!(
            "dense {inputs}->{outputs}: forward {} allocations, {} B; backward {} allocations, {} B",
            forward.0, forward.1, backward.0, backward.1
        );
        assert_eq!(forward, (0, 0), "dense {inputs}->{outputs} forward");
        assert_eq!(backward, (0, 0), "dense {inputs}->{outputs} backward");
    }
    let logits = Tensor::randn(vec![64, 6], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..64).map(|_| rng.gen_range(0..6)).collect();
    let mut gradient = Tensor::default();
    loss.loss_and_grad_into(&logits, &labels, &mut gradient)
        .unwrap();
    let (_, counts) = counted(|| {
        loss.loss_and_grad_into(&logits, &labels, &mut gradient)
            .unwrap()
    });
    println!(
        "loss_and_grad_into: {} allocations, {} B",
        counts.0, counts.1
    );
    assert_eq!(counts, (0, 0), "loss_and_grad_into");
}

/// A dense-first model of `fl_train`'s widths (64 → 32 → 16 → 4, the
/// input a flattened 1×8×8 example) and one 64-example batch: its first
/// layer skips the input gradient through `Dense::backward_params`.
fn dense_first_model(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = zoo::mlp(&[64, 32, 16, 4], &mut rng);
    let x = Tensor::randn(vec![64, 64], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..64).map(|_| rng.gen_range(0..4)).collect();
    (model, x, labels)
}

#[test]
fn a_warm_train_batch_allocates_nothing() {
    let models = [
        ("conv2_fc3", fl_train_model as fn(u64) -> Batch),
        ("dense-first mlp", dense_first_model),
    ];
    for (model_name, model) in models {
        for (name, optimizer) in [
            ("adam", &mut Adam::new(0.005) as &mut dyn Optimizer),
            ("sgd", &mut Sgd::new(0.005)),
        ] {
            let (mut model, x, labels) = model(37);
            let loss = SoftmaxCrossEntropy::new();
            model.train_batch(&x, &labels, &loss, optimizer).unwrap();
            let before = model.params();
            let (_, (allocations, bytes)) =
                counted(|| model.train_batch(&x, &labels, &loss, optimizer).unwrap());
            assert_ne!(model.params(), before, "the batch moved no parameter");
            println!(
                "train_batch of {model_name} under {name}: {allocations} allocations, {bytes} B"
            );
            assert_eq!(
                allocations, 0,
                "{model_name} under {name}: {bytes} B allocated by one batch"
            );
        }
    }
}

#[test]
fn a_step_after_the_first_allocates_nothing() {
    for (name, optimizer) in [
        ("adam", &mut Adam::new(0.005) as &mut dyn Optimizer),
        ("sgd", &mut Sgd::new(0.005)),
    ] {
        let (allocations, bytes) = step_allocations(optimizer);
        println!("apply_gradients under {name}: {allocations} allocations, {bytes} B");
        assert_eq!(allocations, 0, "{name}: {bytes} B allocated by one step");
    }
}
