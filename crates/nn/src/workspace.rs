//! Reusable scratch-buffer arena for the training hot path.
//!
//! Every layer forward/backward needs its activations and
//! intermediates somewhere, and [`crate::Module`] hands each of them a
//! [`Workspace`] that recycles those buffers: a layer *takes* a tensor of the shape it needs (served from
//! a free list when a large-enough buffer exists) and *gives* buffers
//! back once they are no longer needed. After a warmup step the free
//! list holds every shape the step uses, and the steady-state step
//! performs zero heap allocations in the kernel path.
//!
//! Ownership rules (documented in DESIGN.md § Kernel design):
//! * Each model owns exactly one `Workspace`, threaded `&mut` through
//!   its layers; layers never stash workspace buffers across steps —
//!   persistent caches (e.g. a layer's saved input) live in the layer
//!   and are resized in place with [`Tensor::ensure_shape`].
//! * `take` returns a tensor with unspecified contents; callers must
//!   overwrite every element or use [`Workspace::take_zeroed`].
//! * `give` is optional (dropping a tensor is merely a missed reuse),
//!   but the zero-allocation guarantee only holds if every step's
//!   takes are balanced by gives.
//!
//! The arena counts how many times it had to fall back to the global
//! allocator; tests assert the count stays flat across steady-state
//! steps.

use selsync_tensor::{Shape, Tensor};

/// A free-list arena of `f32` buffers, reused across training steps.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
    allocations: u64,
}

/// Cloning a workspace yields a fresh empty arena: scratch buffers are
/// per-replica state, and models derive `Clone` for worker spawning.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a tensor of `shape` with **unspecified contents**, reusing
    /// a free buffer when one with sufficient capacity exists.
    pub fn take(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        // Best fit: the smallest free buffer with enough capacity, so a
        // large activation buffer is not burned on a bias-sized request.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= n && best.is_none_or(|(_, bcap)| cap < bcap) {
                best = Some((i, cap));
            }
        }
        let mut data = match best {
            Some((i, _)) => self.free.swap_remove(i),
            None => {
                self.allocations += 1;
                Vec::with_capacity(n)
            }
        };
        data.resize(n, 0.0);
        Tensor::from_vec(data, shape)
    }

    /// Take a zero-filled tensor of `shape`.
    pub fn take_zeroed(&mut self, shape: impl Into<Shape>) -> Tensor {
        let mut t = self.take(shape);
        t.fill_zero();
        t
    }

    /// Return a tensor's storage to the free list.
    pub fn give(&mut self, t: Tensor) {
        let data = t.into_vec();
        if data.capacity() > 0 {
            self.free.push(data);
        }
    }

    /// How many times `take` fell back to the global allocator. Flat
    /// across steps ⇒ the step is allocation-free in the arena path.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_reuses_buffer() {
        let mut ws = Workspace::new();
        let t = ws.take([4, 8]);
        assert_eq!(ws.allocations(), 1);
        ws.give(t);
        let t2 = ws.take([8, 4]);
        assert_eq!(ws.allocations(), 1, "same-size retake must not allocate");
        assert_eq!(t2.numel(), 32);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take([100]);
        let small = ws.take([10]);
        ws.give(big);
        ws.give(small);
        let t = ws.take([10]);
        assert_eq!(ws.allocations(), 2);
        // The 100-element buffer must still be available untouched.
        let t2 = ws.take([100]);
        assert_eq!(ws.allocations(), 2);
        assert_eq!(t.numel() + t2.numel(), 110);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut ws = Workspace::new();
        let mut t = ws.take([3]);
        t.fill(7.0);
        ws.give(t);
        let z = ws.take_zeroed([3]);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn undersized_free_buffer_triggers_allocation() {
        let mut ws = Workspace::new();
        let t = ws.take([4]);
        ws.give(t);
        let _big = ws.take([1000]);
        assert_eq!(ws.allocations(), 2);
    }

    #[test]
    fn clone_is_fresh_and_empty() {
        let mut ws = Workspace::new();
        let t = ws.take([16]);
        ws.give(t);
        let c = ws.clone();
        assert_eq!(c.allocations(), 0);
        assert_eq!(c.free_buffers(), 0);
    }
}
