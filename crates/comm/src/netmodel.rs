//! Analytic network cost model.
//!
//! Real wall-clock on this host says nothing about a 16×V100 cluster on a
//! 5 Gbps NIC, so timing *claims* are produced by this model, driven by
//! the *paper-scale* model sizes (`selsync_nn::models::ModelKind`) and
//! the decisions (sync / local) the real in-process run actually made.
//! This is DESIGN.md substitution 1.

use serde::{Deserialize, Serialize};

/// Link and endpoint parameters of the modeled cluster.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second (paper: 5 Gbps).
    pub bandwidth_bps: f64,
    /// One-way message latency in seconds (per hop).
    pub latency_s: f64,
    /// Effective parallelism of PS service: how many link-equivalents
    /// of bandwidth the PS round can use concurrently. 1 models a single
    /// serialized NIC; the paper cluster behaves like ~7 (four per-node
    /// NICs carrying flows in parallel plus push/pull overlap — backed
    /// out from the measured 3× relative throughput of ResNet101 on 16
    /// workers in Fig. 1a; see EXPERIMENTS.md).
    pub ps_parallelism: f64,
}

impl NetworkModel {
    /// The paper's cluster fabric: 5 Gbps NIC, ~0.5 ms latency over the
    /// docker-swarm overlay.
    pub fn paper_cluster() -> Self {
        NetworkModel {
            bandwidth_bps: 5.0e9,
            latency_s: 0.5e-3,
            ps_parallelism: 7.0,
        }
    }

    /// Time to move `bytes` point-to-point.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        self.latency_s + (bytes as f64 * 8.0) / self.bandwidth_bps
    }

    /// One full PS synchronization for `n` workers and a model of
    /// `model_bytes`: all workers push through the server's shared
    /// ingress, then pull through its egress (the PS bandwidth wall the
    /// paper's §III-E discussion references).
    pub fn ps_sync_time(&self, model_bytes: u64, n: usize) -> f64 {
        let serialized =
            (n as u64 * model_bytes) as f64 * 8.0 / (self.bandwidth_bps * self.ps_parallelism);
        2.0 * (self.latency_s + serialized)
    }

    /// One full synchronization against a **K-shard PS group**: each
    /// worker splits its `model_bytes` push into K ranges and fans them
    /// out concurrently, so the server-side ingress congestion term of
    /// [`ps_sync_time`](Self::ps_sync_time) divides by K — but never
    /// below the floor of a single worker's own transfer (a worker still
    /// serializes its whole model through its own NIC, so `k >= n`
    /// shards cannot beat that). Each extra shard costs one extra
    /// request dispatch worth of latency that pipelining does not fully
    /// hide, which is what makes K = 1 win for small models and many
    /// shards lose for tiny clusters.
    ///
    /// `sharded_ps_sync_time(m, n, 1) == ps_sync_time(m, n)` exactly —
    /// the cost-model mirror of the wire-level K = 1 byte identity.
    pub fn sharded_ps_sync_time(&self, model_bytes: u64, n: usize, k: usize) -> f64 {
        assert!(k >= 1, "need at least one shard");
        let eff = self.bandwidth_bps * self.ps_parallelism;
        let congested = (n as u64 * model_bytes) as f64 * 8.0 / (k as f64 * eff);
        let floor = model_bytes as f64 * 8.0 / eff;
        let serialized = congested.max(floor);
        2.0 * (self.latency_s + serialized) + (k as f64 - 1.0) * self.latency_s
    }

    /// The model size (bytes) above which a K-shard PS beats the single
    /// PS for `n` workers under this model: the point where the saved
    /// ingress serialization `2·(n·M/eff)·(1 − 1/K)` outgrows the
    /// `(K−1)·latency` fan-out overhead. Meaningful for `1 < k <= n`
    /// (beyond `n` shards the saving saturates at the single-worker
    /// floor).
    pub fn shard_crossover_bytes(&self, n: usize, k: usize) -> u64 {
        assert!(k > 1, "crossover is defined against the K = 1 baseline");
        let eff = self.bandwidth_bps * self.ps_parallelism;
        // 2·(n·M·8/eff)·(k−1)/k = (k−1)·latency  ⇒  M = k·latency·eff/(16·n)
        (k as f64 * self.latency_s * eff / (16.0 * n as f64)) as u64
    }

    /// One bucketed-pipeline synchronization (DESIGN.md §12): the push
    /// streams bucket-by-bucket *during* the remaining backward pass,
    /// so the wall-clock cost of the round is the larger of the two
    /// overlapped phases — the backward tail still computing
    /// (`compute_tail_s`) and the full PS round — instead of their sum.
    /// The serialized baseline pays `compute_tail_s +
    /// ps_sync_time(...)`; pipelining saves the smaller term.
    ///
    /// The bucket granularity itself does not appear: with buckets much
    /// smaller than the model the pipeline's fill/drain stubs are one
    /// bucket's transfer each, which the latency term already dwarfs at
    /// paper scale.
    pub fn pipelined_sync_time(&self, model_bytes: u64, n: usize, compute_tail_s: f64) -> f64 {
        compute_tail_s.max(self.ps_sync_time(model_bytes, n))
    }

    /// The model size (bytes) at which a PS round exactly fills a
    /// backward tail of `compute_tail_s` seconds — the crossover of the
    /// two [`pipelined_sync_time`](Self::pipelined_sync_time) regimes,
    /// mirroring [`shard_crossover_bytes`](Self::shard_crossover_bytes).
    /// Below it the push hides entirely under compute (overlap saves
    /// the whole sync, the job is compute-bound); above it compute
    /// hides under the push (overlap saves the whole tail, the job is
    /// at the PS bandwidth wall and only sharding or compression —
    /// not more overlap — buys further speedup). Returns 0 when the
    /// tail is too short to cover even the two latency hops.
    pub fn overlap_crossover_bytes(&self, n: usize, compute_tail_s: f64) -> u64 {
        let eff = self.bandwidth_bps * self.ps_parallelism;
        // 2·(latency + n·M·8/eff) = T  ⇒  M = (T/2 − latency)·eff/(8·n)
        let m = (compute_tail_s / 2.0 - self.latency_s) * eff / (8.0 * n as f64);
        if m > 0.0 {
            m as u64
        } else {
            0
        }
    }

    /// Partial PS round: `pushers` upload, `pullers` download.
    pub fn ps_partial_sync_time(&self, model_bytes: u64, pushers: usize, pullers: usize) -> f64 {
        let eff = self.bandwidth_bps * self.ps_parallelism;
        let up = (pushers as u64 * model_bytes) as f64 * 8.0 / eff;
        let down = (pullers as u64 * model_bytes) as f64 * 8.0 / eff;
        2.0 * self.latency_s + up + down
    }

    /// Bandwidth-optimal ring allreduce: `2(N−1)/N · M` bytes per worker
    /// plus `2(N−1)` latency hops (§III-E's "bandwidth-optimal" remark).
    pub fn ring_allreduce_time(&self, model_bytes: u64, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let volume = 2.0 * (n as f64 - 1.0) / n as f64 * model_bytes as f64 * 8.0;
        volume / self.bandwidth_bps + 2.0 * (n as f64 - 1.0) * self.latency_s
    }

    /// The 1-bit-per-worker flags allgather of Alg. 1 line 12 — latency
    /// dominated; the paper measured ≈2–4 ms.
    pub fn flags_allgather_time(&self, n: usize) -> f64 {
        // parallel exchange: two latency hops plus negligible payload
        2.0 * self.latency_s + (n as f64 * 8.0) / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm() -> NetworkModel {
        NetworkModel::paper_cluster()
    }

    #[test]
    fn p2p_is_latency_plus_serialization() {
        let t = nm().p2p_time(5_000_000_000 / 8); // exactly 1 second of payload
        assert!((t - 1.0005).abs() < 1e-6);
    }

    #[test]
    fn ps_sync_scales_linearly_with_workers() {
        let m = 100_000_000; // 100 MB model
        let t8 = nm().ps_sync_time(m, 8);
        let t16 = nm().ps_sync_time(m, 16);
        assert!(t16 / t8 > 1.9 && t16 / t8 < 2.1, "PS wall scales with N");
    }

    #[test]
    fn ring_allreduce_is_nearly_n_independent() {
        let m = 100_000_000;
        let t4 = nm().ring_allreduce_time(m, 4);
        let t16 = nm().ring_allreduce_time(m, 16);
        // volume term: 2(N-1)/N approaches 2; ratio stays near 1
        assert!(
            t16 / t4 < 1.4,
            "ring allreduce is bandwidth-optimal: {t4} vs {t16}"
        );
    }

    #[test]
    fn ring_beats_ps_at_scale() {
        let m = 500_000_000; // VGG11-scale
        assert!(nm().ring_allreduce_time(m, 16) < nm().ps_sync_time(m, 16));
    }

    #[test]
    fn flags_allgather_matches_paper_2_to_4_ms() {
        let t = nm().flags_allgather_time(16);
        assert!(t > 0.5e-3 && t < 5e-3, "flags op ≈ couple of ms, got {t}");
    }

    #[test]
    fn single_worker_ring_is_free() {
        assert_eq!(nm().ring_allreduce_time(1_000_000, 1), 0.0);
    }

    #[test]
    fn sharded_k1_equals_monolithic_exactly() {
        for m in [1_000u64, 5_000_000, 507_000_000] {
            for n in [2usize, 8, 16] {
                assert_eq!(nm().sharded_ps_sync_time(m, n, 1), nm().ps_sync_time(m, n));
            }
        }
    }

    #[test]
    fn sharding_wins_at_the_congested_point() {
        // VGG11-scale on 16 workers: the paper's PS bandwidth wall
        let m = 507_000_000;
        let t1 = nm().sharded_ps_sync_time(m, 16, 1);
        let t2 = nm().sharded_ps_sync_time(m, 16, 2);
        let t4 = nm().sharded_ps_sync_time(m, 16, 4);
        assert!(t4 < t2 && t2 < t1, "t4={t4} t2={t2} t1={t1}");
        assert!(t1 / t4 > 3.0, "4 shards ≈ 4× the congested ingress");
    }

    #[test]
    fn tiny_models_prefer_one_shard() {
        // the flags-scale payload: fan-out dispatch overhead dominates
        let m = 1_000;
        assert!(nm().sharded_ps_sync_time(m, 16, 4) > nm().sharded_ps_sync_time(m, 16, 1));
    }

    #[test]
    fn oversharding_saturates_at_the_worker_uplink_floor() {
        let m = 507_000_000;
        let n = 4;
        let eff = nm().bandwidth_bps * nm().ps_parallelism;
        let floor = m as f64 * 8.0 / eff;
        // k = n already hits the floor; more shards only add overhead
        let t = nm().sharded_ps_sync_time(m, n, 8);
        assert!(t >= 2.0 * floor, "cannot beat one worker's own transfer");
        assert!(nm().sharded_ps_sync_time(m, n, 8) > nm().sharded_ps_sync_time(m, n, 4));
    }

    #[test]
    fn crossover_separates_the_regimes() {
        let n = 16;
        let k = 4;
        let cross = nm().shard_crossover_bytes(n, k);
        assert!(cross > 0);
        let below = cross / 2;
        let above = cross * 2;
        assert!(
            nm().sharded_ps_sync_time(below, n, k) > nm().sharded_ps_sync_time(below, n, 1),
            "below the crossover the single PS wins"
        );
        assert!(
            nm().sharded_ps_sync_time(above, n, k) < nm().sharded_ps_sync_time(above, n, 1),
            "above the crossover the shard group wins"
        );
    }

    #[test]
    fn pipelined_sync_is_the_max_of_the_overlapped_phases() {
        let m = 100_000_000u64;
        let n = 8;
        let sync = nm().ps_sync_time(m, n);
        for tail in [sync / 4.0, sync, 4.0 * sync] {
            let t = nm().pipelined_sync_time(m, n, tail);
            assert_eq!(t, tail.max(sync));
            // never worse than serial, and the saving is the hidden term
            let serial = tail + sync;
            assert!((serial - t - tail.min(sync)).abs() < 1e-12);
        }
    }

    #[test]
    fn overlap_crossover_separates_compute_and_comm_bound_regimes() {
        let n = 16;
        let tail = 0.1; // a ~100 ms backward tail
        let cross = nm().overlap_crossover_bytes(n, tail);
        assert!(cross > 0);
        // below the crossover the push hides under compute...
        assert!(nm().ps_sync_time(cross / 2, n) < tail);
        assert_eq!(nm().pipelined_sync_time(cross / 2, n, tail), tail);
        // ...above it the job sits at the PS bandwidth wall
        assert!(nm().ps_sync_time(cross * 2, n) > tail);
        assert!(nm().pipelined_sync_time(cross * 2, n, tail) > tail);
    }

    #[test]
    fn degenerate_overlap_crossover_is_zero() {
        // a tail shorter than the two latency hops can hide nothing
        assert_eq!(nm().overlap_crossover_bytes(16, 1e-6), 0);
    }

    #[test]
    fn vgg11_overlap_cannot_fix_the_bandwidth_wall() {
        // paper §I: 507 MB VGG11 on 5 Gbps is comm-bound; overlap only
        // hides the compute tail, leaving the sync time itself exposed
        let m = 507_000_000;
        let sync = nm().ps_sync_time(m, 2);
        assert_eq!(nm().pipelined_sync_time(m, 2, 0.1), sync);
    }

    #[test]
    fn vgg11_ps_sync_dominates_compute() {
        // paper §I: 507 MB VGG11 on 5 Gbps made 2-worker throughput < 1×.
        // one sync for 2 workers must exceed a typical ~100 ms GPU step.
        let t = nm().ps_sync_time(507_000_000, 2);
        assert!(t > 0.1, "VGG11 sync {t}s must dwarf a compute step");
    }
}
