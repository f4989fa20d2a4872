//! The buffers one endpoint reuses: encoded frames and decoded float
//! vectors.
//!
//! A sync step moves the whole model twice per worker, and every copy of
//! it used to be a fresh allocation — the frame a rank encodes, the
//! vector a reader decodes, the frame of the reply. A freed buffer of
//! that size mostly stays with the allocator, so those allocations were
//! about half of a sync-bound run's peak memory. A [`BufferPool`] keeps
//! them instead: the rank thread encodes into a pooled frame and the
//! driver hands it back once its last byte is written; a sent vector is
//! pooled once it is encoded, so the reply decodes into it; the
//! parameter server hands back what its reduction consumed
//! (`Transport::recycle`).
//!
//! The pool is shared by the rank thread and the driver's threads, and
//! the poll driver may never block. So nobody waits on it: a taker that
//! finds it busy allocates, a giver that finds it busy drops. In a
//! lockstep round the rank and its readers and writers take turns, so
//! that almost never happens; it costs an allocation when it does, never
//! a wrong result.

use bytes::Bytes;
use std::sync::{Mutex, MutexGuard};

/// Buffers smaller than this are not worth keeping: allocating them is
/// cheap, and a small buffer in a slot would push out a large one.
const MIN_POOLED_BYTES: usize = 4096;

/// How often a taker or giver retries a busy shelf before it allocates
/// or drops. A shelf is held for a few dozen instructions at a time, so
/// this rides out a collision without ever waiting on a preempted
/// holder.
const TRY_LOCK_SPINS: u32 = 64;

/// One endpoint's reusable buffers: byte frames and float vectors, each
/// shelf holding a bounded number.
///
/// The bounds are what a lockstep round needs, and no more, because a
/// buffer a late giver brings back to a full shelf is dropped: a round
/// in which a writer was descheduled before handing its frame back costs
/// one allocation, instead of one more model-sized buffer kept for the
/// rest of the run.
pub struct BufferPool {
    frames: Shelf<u8>,
    floats: Shelf<f32>,
}

impl BufferPool {
    /// A pool for an endpoint of a fabric with `n` ranks. Float vectors:
    /// `n`, what a parameter server cycles through — one decoded push
    /// from each of its `n - 1` peers, and the previous reply, which are
    /// all back in the pool when a run of rounds ends. Frames: one, since
    /// a rank encodes its next model-sized frame only once the last is
    /// written; the server's reply frame stays with its fan-out until the
    /// next reply replaces it, and goes back then.
    pub(crate) fn for_fabric(n: usize) -> BufferPool {
        BufferPool {
            frames: Shelf::new(1),
            floats: Shelf::new(n),
        }
    }

    pub(crate) fn with_slots(slots: usize) -> BufferPool {
        BufferPool {
            frames: Shelf::new(slots),
            floats: Shelf::new(slots),
        }
    }

    /// An empty byte buffer with room for `len` bytes, if one is pooled.
    pub(crate) fn take_frame(&self, len: usize) -> Option<Vec<u8>> {
        self.frames.take(len)
    }

    /// Keep `frame` for a later [`take_frame`](Self::take_frame).
    pub(crate) fn give_frame(&self, frame: Vec<u8>) {
        self.frames.give(frame);
    }

    /// Give back a handle on an encoded frame. Only the last of its
    /// handles — whichever writer or cache lets go last — gets the
    /// buffer back into the pool.
    pub(crate) fn give_bytes(&self, frame: Bytes) {
        if let Some(v) = frame.try_into_vec() {
            self.give_frame(v);
        }
    }

    /// An empty float vector with room for `count` values, if one is
    /// pooled. Its memory holds whatever it last held.
    pub(crate) fn take_floats(&self, count: usize) -> Option<Vec<f32>> {
        self.floats.take(count)
    }

    /// Keep `v` for a later [`take_floats`](Self::take_floats).
    pub(crate) fn give_floats(&self, v: Vec<f32>) {
        self.floats.give(v);
    }
}

/// A bounded set of cleared vectors of one element type.
struct Shelf<T> {
    slots: Mutex<Vec<Vec<T>>>,
    bound: usize,
}

impl<T> Shelf<T> {
    fn new(bound: usize) -> Shelf<T> {
        Shelf {
            // reserved up front: giving a buffer back never allocates
            slots: Mutex::new(Vec::with_capacity(bound)),
            bound,
        }
    }

    fn try_lock(&self) -> Option<MutexGuard<'_, Vec<Vec<T>>>> {
        for _ in 0..TRY_LOCK_SPINS {
            if let Ok(guard) = self.slots.try_lock() {
                return Some(guard);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// The smallest kept vector with room for `want` elements, as long as
    /// it is not more than twice that: a model-sized buffer must not
    /// leave the pool to carry a small message someone may keep.
    fn take(&self, want: usize) -> Option<Vec<T>> {
        if want * size_of::<T>() < MIN_POOLED_BYTES {
            return None;
        }
        let mut slots = self.try_lock()?;
        let best = slots
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= want && v.capacity() / 2 <= want)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i)?;
        Some(slots.swap_remove(best))
    }

    /// Keep `v` (cleared) if it is large enough to be worth it and there
    /// is room; when the shelf is full it replaces a smaller buffer.
    fn give(&self, mut v: Vec<T>) {
        if v.capacity() * size_of::<T>() < MIN_POOLED_BYTES {
            return;
        }
        v.clear();
        let Some(mut slots) = self.try_lock() else {
            return;
        };
        if slots.len() < self.bound {
            slots.push(v);
        } else if let Some(smaller) = slots
            .iter_mut()
            .filter(|s| s.capacity() < v.capacity())
            .min_by_key(|s| s.capacity())
        {
            *smaller = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_buffer_comes_back_for_a_fitting_request() {
        let pool = BufferPool::with_slots(2);
        let v = vec![1.0f32; 10_000];
        let ptr = v.as_ptr();
        pool.give_floats(v);
        assert!(pool.take_floats(20_001).is_none(), "too small");
        assert!(
            pool.take_floats(4_999).is_none(),
            "more than twice too large"
        );
        let back = pool.take_floats(6_000).expect("fits");
        assert_eq!(
            (back.as_ptr(), back.len()),
            (ptr, 0),
            "same buffer, cleared"
        );
        assert!(pool.take_floats(6_000).is_none(), "taken once");
    }

    #[test]
    fn small_buffers_are_not_kept_and_a_full_shelf_keeps_the_larger() {
        let pool = BufferPool::with_slots(1);
        pool.give_frame(vec![0u8; 100]);
        assert!(pool.take_frame(100).is_none());
        pool.give_frame(Vec::with_capacity(8192));
        pool.give_frame(Vec::with_capacity(16_384)); // replaces the smaller
        pool.give_frame(Vec::with_capacity(5_000)); // dropped: nothing smaller
        assert!(pool
            .take_frame(8192)
            .is_some_and(|f| f.capacity() >= 16_384));
        assert!(pool.take_frame(4096).is_none());
    }

    #[test]
    fn only_the_last_handle_returns_a_frame() {
        let pool = BufferPool::with_slots(2);
        let frame = Bytes::from(vec![7u8; 8192]);
        let other = frame.clone();
        pool.give_bytes(frame);
        assert!(pool.take_frame(8192).is_none(), "a handle is still out");
        pool.give_bytes(other);
        assert!(pool.take_frame(8192).is_some());
    }
}
