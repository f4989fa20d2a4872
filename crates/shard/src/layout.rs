//! The workers-first physical rank layout and its inverse.
//!
//! An elastic cluster assigns ranks as
//!
//! ```text
//! 0 .. W            the W workers (worker w *is* rank w)
//! W .. W+K          the K shard servers
//! W+K .. W+2K       one hot standby per shard (only with standbys on)
//! ```
//!
//! Workers come first so a worker's id in status vectors, fault plans
//! and data partitions equals its rank for every K, and the default
//! K = 1 group is the classic "PS on rank W, standby on rank W+1"
//! layout.

/// What a physical rank does in an elastic cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves shard `.0`.
    Shard(usize),
    /// Trains as worker `.0`.
    Worker(usize),
    /// Hot standby for shard `.0`.
    Standby(usize),
}

/// Rank arithmetic for a K-shard, W-worker cluster. One definition,
/// shared by the rank entry points, the launcher, the benches, and the
/// process tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// Shard count K (>= 1).
    pub k: usize,
    /// Worker count W (>= 1).
    pub n_workers: usize,
    /// Whether every shard has a hot standby.
    pub standby: bool,
}

impl ShardLayout {
    /// Build a layout.
    ///
    /// # Panics
    /// Panics on zero shards or zero workers — configuration bugs.
    pub fn new(k: usize, n_workers: usize, standby: bool) -> Self {
        assert!(k > 0, "need at least one shard");
        assert!(n_workers > 0, "need at least one worker");
        ShardLayout {
            k,
            n_workers,
            standby,
        }
    }

    /// Total ranks in the fabric.
    pub fn total_ranks(&self) -> usize {
        self.n_workers + self.k + if self.standby { self.k } else { 0 }
    }

    /// Physical rank serving shard `s`.
    pub fn shard_rank(&self, s: usize) -> usize {
        assert!(s < self.k);
        self.n_workers + s
    }

    /// Physical rank of shard `s`'s standby.
    ///
    /// # Panics
    /// Panics when the layout has no standbys.
    pub fn standby_rank(&self, s: usize) -> usize {
        assert!(self.standby, "layout has no standbys");
        assert!(s < self.k);
        self.n_workers + self.k + s
    }

    /// All shard-serving ranks, in shard order.
    pub fn shard_ranks(&self) -> Vec<usize> {
        (0..self.k).map(|s| self.shard_rank(s)).collect()
    }

    /// All standby ranks in shard order, if the layout has them.
    pub fn standby_ranks(&self) -> Option<Vec<usize>> {
        self.standby
            .then(|| (0..self.k).map(|s| self.standby_rank(s)).collect())
    }

    /// What physical rank `rank` does.
    ///
    /// # Panics
    /// Panics if `rank` is outside the layout — an addressing bug.
    pub fn role_of(&self, rank: usize) -> Role {
        let w = self.n_workers;
        if rank < w {
            Role::Worker(rank)
        } else if rank < w + self.k {
            Role::Shard(rank - w)
        } else if self.standby && rank < self.total_ranks() {
            Role::Standby(rank - w - self.k)
        } else {
            // lint:allow(unwrap-in-prod): asking for a rank outside the
            // layout is a wiring bug in the caller, not a runtime fault
            panic!("rank {rank} outside layout {self:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trips_every_rank() {
        for (k, w, sb) in [(1, 2, false), (2, 3, true), (4, 1, true)] {
            let l = ShardLayout::new(k, w, sb);
            for wk in 0..w {
                assert_eq!(l.role_of(wk), Role::Worker(wk), "worker id is its rank");
            }
            for s in 0..k {
                assert_eq!(l.role_of(l.shard_rank(s)), Role::Shard(s));
            }
            if sb {
                for s in 0..k {
                    assert_eq!(l.role_of(l.standby_rank(s)), Role::Standby(s));
                }
            }
            // every rank maps to exactly one role and back
            assert_eq!(l.total_ranks(), k + w + if sb { k } else { 0 });
        }
    }

    #[test]
    fn k1_is_the_single_ps_layout() {
        // at K = 1: workers 0..W, the PS on rank W, its standby on W+1
        let l = ShardLayout::new(1, 3, true);
        assert_eq!(l.shard_ranks(), vec![3]);
        assert_eq!(l.standby_ranks(), Some(vec![4]));
        assert_eq!(ShardLayout::new(1, 3, false).standby_ranks(), None);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn out_of_range_rank_panics() {
        ShardLayout::new(2, 2, false).role_of(4);
    }
}
