//! DESIGN.md §7 claims a steady-state training step allocates nothing in
//! the kernel path. `steady_state_alloc.rs` checks that against the
//! arena's own counter; this binary checks it against the heap, with a
//! counting `#[global_allocator]` (which is per binary, hence the file of
//! its own). The counter is per thread, so the harness's threads cannot
//! leak into a measurement.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_nn::loss::softmax_cross_entropy;
use selsync_nn::models::{AlexNetMini, Model, ResNetMini, TransformerMini, VggMini};
use selsync_nn::{Input, Module, Workspace};
use selsync_tensor::{init, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations a steady-state training step may perform, whatever
/// the model, batch size or sequence length: the logits, which escape to
/// the caller, and the gradient `softmax_cross_entropy` returns. Before
/// the layer contract was unified a step of ResNetMini / VggMini /
/// AlexNetMini / TransformerMini made 122 / 52 / 56 / 344 (batch 8).
const MAX_ALLOCS_PER_STEP: u64 = 2;

thread_local! {
    // const-initialized and without a destructor: reading it from inside
    // the allocator can neither allocate nor run after thread teardown
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting is a side effect only.
// lint:allow(unsafe-outside-kernels): a counting global allocator is the only way a test can observe heap allocations; it only forwards to `System`
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System::alloc`'s, passed on.
    // lint:allow(unsafe-outside-kernels): see the impl above
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: the caller's obligations are `System::dealloc`'s, passed on.
    // lint:allow(unsafe-outside-kernels): see the impl above
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs. (`realloc` is left to
/// its default, which goes through `alloc`.)
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Two warm-up steps, then the allocations of a third.
fn step_allocations(model: &mut dyn Model, input: &Input, rows: usize) -> u64 {
    let targets: Vec<usize> = (0..rows).map(|i| i % model.num_classes()).collect();
    let step = |model: &mut dyn Model| {
        let logits = model.forward(input, true);
        let (_, dlogits) = softmax_cross_entropy(&logits, &targets);
        model.zero_grad();
        model.backward(&dlogits);
    };
    step(model);
    step(model);
    allocations_in(|| step(model))
}

fn images(n: usize) -> Tensor {
    init::randn([n, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(n as u64))
}

fn tokens(batch: usize, seq: usize) -> Input {
    Input::Tokens(
        (0..batch)
            .map(|b| (0..seq).map(|t| (b * 5 + t * 3) % 64).collect())
            .collect(),
    )
}

/// Warm `ws` with one predict, then count a run of further ones — a
/// smaller batch among them, as a dynamic batcher produces.
fn predict_allocations(model: &mut dyn Model) -> u64 {
    let (big, small) = (images(8), images(3));
    let mut ws = Workspace::new();
    let y = model.predict_ws(&big, &mut ws);
    ws.give(y);
    allocations_in(|| {
        for x in [&big, &small, &big] {
            let y = model.predict_ws(x, &mut ws);
            ws.give(y);
        }
    })
}

// The batches stay under the GEMM's parallel threshold: above it the
// kernel spawns scoped threads per product, which allocates — the
// kernel's trade (crates/tensor), not the layer contract's.
#[test]
fn steady_state_steps_stay_within_a_fixed_heap_budget() {
    for batch in [4, 8, 16] {
        let x = Input::Dense(images(batch));
        let per_model = [
            step_allocations(&mut ResNetMini::new(10, 1), &x, batch),
            step_allocations(&mut VggMini::new(20, 1), &x, batch),
            step_allocations(&mut AlexNetMini::new(20, 1), &x, batch),
        ];
        for n in per_model {
            assert!(
                n <= MAX_ALLOCS_PER_STEP,
                "batch {batch}: {per_model:?} allocations per step"
            );
        }
    }
    for (batch, seq) in [(8, 12), (8, 36), (16, 12)] {
        let n = step_allocations(
            &mut TransformerMini::new(64, 1),
            &tokens(batch, seq),
            batch * seq,
        );
        assert!(
            n <= MAX_ALLOCS_PER_STEP,
            "batch {batch} x seq {seq}: {n} allocations per step"
        );
    }

    assert_eq!(predict_allocations(&mut ResNetMini::new(10, 2)), 0);
    assert_eq!(predict_allocations(&mut VggMini::new(20, 2)), 0);
}

#[test]
fn gelu_keeps_one_tensor_that_resizes_in_place() {
    // The derivative tensor belongs to the layer, not to the arena, so
    // only this counter sees it: a training step, an eval forward on a
    // batch twice the size, and the next training step allocate nothing
    // once the largest shape has been seen.
    let mut rng = StdRng::seed_from_u64(24);
    let train = init::randn([96, 32], 1.0, &mut rng);
    let eval = init::randn([192, 32], 1.0, &mut rng);
    let mut g = selsync_nn::layers::Gelu::new();
    let mut ws = Workspace::new();
    let mut round = || {
        let y = g.forward(&eval, false, &mut ws);
        ws.give(y);
        let y = g.forward(&train, true, &mut ws);
        let dx = g.backward(&y, &mut ws);
        ws.give(y);
        ws.give(dx);
    };
    round();
    assert_eq!(allocations_in(round), 0);
}
