//! The worker training loop, and the static trainer that runs it: N
//! worker threads + one parameter-server thread over the `selsync-comm`
//! fabric, running any [`Strategy`].
//!
//! This is a faithful executable of Alg. 1 (for SelSync) and of the
//! baselines' protocols. Every synchronization decision, flags
//! allgather, PS round and injection transfer is a *real* message
//! exchange between *real* threads; only the wall-clock claims are later
//! derived by `crate::timing` from the decision log.
//!
//! One loop, two deployments: `train` is the crate's only training
//! loop, run by the static ranks here and by the elastic ranks of
//! [`crate::elastic`]. A static worker's membership is `0..n` for good;
//! an elastic worker's is its PS group's status vector (DESIGN.md §10).

use crate::config::{Aggregation, CompressionKind, OptimKind, RunConfig, Strategy, SyncBackend};
use crate::elastic::ElasticWorker;
use crate::metrics::{EvalRecord, RunResult, StepRecord};
use crate::workload::{AnyModel, Workload, WorkloadData, SEQ_LEN};
use selsync_comm::bucket::{n_buckets, send_bucket_range};
use selsync_comm::collectives::{allgather_flags, phase_tag, ring_allreduce};
use selsync_comm::fabric::{Fabric, Payload};
use selsync_comm::ps::{
    recv_round_reply, run_round_server, run_ssp_server, send_shutdown, ssp_step, sync_round,
    SyncRequest,
};
use selsync_comm::{Transport, TransportError};
use selsync_data::{
    noniid_label_partition, partition_indices, BatchCursor, InjectionConfig, TextBatchCursor,
};
use selsync_nn::flat::{
    flat_grads, flat_grads_into, flat_params, flat_params_into, set_flat_grads, set_flat_params,
};
use selsync_nn::loss::{accuracy, softmax_cross_entropy, topk_accuracy};
use selsync_nn::models::ModelKind;
use selsync_nn::module::ParamVisitor;
use selsync_nn::{Adam, Batch, Input, Optimizer, Sgd};
use selsync_shard::ShardLayout;
use selsync_stats::{LssrCounter, RelativeGradChange};
use selsync_tensor::reduce::sqnorm_slice;
use selsync_tensor::Tensor;
use std::sync::Arc;
use std::thread;

/// Worker-to-worker tag phase used by data-injection sample broadcasts
/// (collectives reserve the low phases).
const INJECT_PHASE: u64 = 250;

/// Tag of the initial pullFromPS round (Alg. 1 line 3).
const INIT_TAG: u64 = u64::MAX;

/// Run one distributed training experiment. Blocks until every worker
/// and the server finish; panics if any thread panicked.
pub fn run_distributed(config: &RunConfig, workload: &Workload) -> RunResult {
    validate(config, workload, None);
    let n = config.n_workers;
    let mut endpoints = Fabric::new(n + 1);
    // lint:allow(unwrap-in-prod): Fabric::new(n + 1) always returns n + 1
    // endpoints, so the pop cannot come up empty
    let server_ep = endpoints.pop().expect("server endpoint");
    let stats = Arc::clone(server_ep.stats());

    let workload = Arc::new(workload.clone());
    let config = Arc::new(config.clone());

    // the decentralized backend has no server thread; the endpoint is
    // simply parked (workers never address it)
    let server_handle = match config.backend {
        SyncBackend::RingAllReduce => None,
        SyncBackend::ParameterServer => {
            let wl = Arc::clone(&workload);
            let cfg = Arc::clone(&config);
            Some(
                thread::Builder::new()
                    .name("selsync-ps".into())
                    // in-process fabric: a comm fault here means a worker
                    // thread panicked, which join() below reports anyway
                    .spawn(move || {
                        // lint:allow(unwrap-in-prod): in-process harness —
                        // run_distributed documents that it panics on faults
                        run_server_rank(server_ep, &cfg, &wl).expect("parameter server comm fault")
                    })
                    // lint:allow(unwrap-in-prod): thread spawn fails only on
                    // OS resource exhaustion; no recovery path in the harness
                    .expect("spawn PS"),
            )
        }
    };

    let mut handles = Vec::with_capacity(n);
    for ep in endpoints {
        let wl = Arc::clone(&workload);
        let cfg = Arc::clone(&config);
        let worker = ep.id();
        handles.push(
            thread::Builder::new()
                .name(format!("selsync-w{worker}"))
                // lint:allow(unwrap-in-prod): in-process harness —
                // run_distributed documents that it panics on faults
                .spawn(move || run_worker_rank(ep, &cfg, &wl).expect("worker comm fault"))
                // lint:allow(unwrap-in-prod): thread spawn fails only on
                // OS resource exhaustion; no recovery path in the harness
                .expect("spawn worker"),
        );
    }

    let mut outputs: Vec<WorkerOutput> = handles
        .into_iter()
        // lint:allow(unwrap-in-prod): propagating a worker panic is this
        // harness's documented failure mode
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    outputs.sort_by_key(|o| o.worker);
    let final_params = match server_handle {
        // lint:allow(unwrap-in-prod): propagating a server panic is this
        // harness's documented failure mode
        Some(h) => h.join().expect("server thread panicked"),
        // decentralized: the "global" state is the replica average
        None => {
            let d = outputs[0].final_params.len();
            let mut avg = vec![0.0f32; d];
            for o in &outputs {
                for (a, v) in avg.iter_mut().zip(&o.final_params) {
                    *a += v;
                }
            }
            for a in &mut avg {
                *a /= outputs.len() as f32;
            }
            avg
        }
    };

    let w0 = outputs.remove(0);
    let mut worker_params = vec![w0.final_params.clone()];
    worker_params.extend(outputs.into_iter().map(|o| o.final_params));

    RunResult {
        final_metric: w0.evals.last().map_or(0.0, |e| e.metric),
        step_records: w0.records,
        evals: w0.evals,
        lssr: w0.lssr,
        final_params,
        worker_params,
        comm_bytes: stats.total_bytes(),
        logical_sync_bytes: w0.logical_sync_bytes,
        steps_run: config.max_steps,
    }
}

/// Startup checks every rank runs before any traffic flows, so a bad
/// configuration fails on the calling thread instead of inside a rank.
/// `elastic` is the group layout when the rank belongs to an elastic run.
pub(crate) fn validate(config: &RunConfig, workload: &Workload, elastic: Option<&ShardLayout>) {
    assert!(config.n_workers >= 1, "need at least one worker");
    assert!(config.max_steps >= 1, "need at least one step");
    if let Some(labels) = config.noniid_labels {
        assert!(
            matches!(workload.data, WorkloadData::Vision { .. }),
            "non-IID splits are defined for the vision workloads (§IV-A)"
        );
        // the label split balances only if every class has as many owners
        let (slots, classes) = (config.n_workers * labels, workload.num_classes());
        assert!(
            slots.is_multiple_of(classes),
            "workers×labels ({slots}) must be a multiple of classes ({classes})"
        );
    }
    if let Strategy::FedAvg { c, e } = config.strategy {
        assert!(c > 0.0 && c <= 1.0, "FedAvg C in (0, 1]");
        assert!(e > 0.0 && e <= 1.0, "FedAvg E in (0, 1]");
    }
    if config.backend == SyncBackend::RingAllReduce {
        assert!(
            !matches!(config.strategy, Strategy::FedAvg { .. } | Strategy::Ssp { .. }),
            "FedAvg participation and SSP staleness are PS services; use SyncBackend::ParameterServer"
        );
    }
    if config.compression.is_some() {
        let grads_agg = match config.strategy {
            Strategy::Bsp { aggregation } | Strategy::SelSync { aggregation, .. } => {
                aggregation == Aggregation::Gradient
            }
            _ => false,
        };
        assert!(
            grads_agg,
            "compression applies to gradient-aggregation syncs only"
        );
    }
    if let Some(bucket) = config.overlap_buckets {
        assert!(bucket > 0, "overlap bucket size must be positive");
        // elastic PA cannot overlap comm with backward (parameters only
        // exist after the post-heartbeat optimizer step), but the push
        // still ships as Bucket frames: a lossy fabric then retries the
        // cheap frame set instead of wedging on one giant write
        if elastic.is_none() {
            assert!(
                matches!(
                    config.strategy,
                    Strategy::Bsp {
                        aggregation: Aggregation::Gradient
                    }
                ),
                "overlap_buckets pipelines the BSP gradient push; SelSync's \
                 sync decision needs the full gradient norm after backward"
            );
            assert_eq!(
                config.backend,
                SyncBackend::ParameterServer,
                "overlap_buckets streams buckets to the PS; the ring is a barrier"
            );
            assert!(
                config.grad_clip.is_none() && config.compression.is_none(),
                "grad clipping and compression are whole-vector transforms; \
                 they cannot run while buckets are already on the wire"
            );
        }
    }
    if config.wire_compression {
        assert!(
            config.compression.is_some(),
            "wire_compression ships the configured compression's wire form; \
             set `compression` too"
        );
        assert_eq!(
            config.backend,
            SyncBackend::ParameterServer,
            "compact wire payloads are densified by the PS; the ring \
             reduces dense vectors"
        );
    }
    // compression (and so wire compression) is already rejected above for
    // the parameter averaging elastic runs are limited to
    if let Some(layout) = elastic {
        assert_eq!(layout.n_workers, config.n_workers, "layout/config mismatch");
        assert_eq!(
            config.backend,
            SyncBackend::ParameterServer,
            "elastic membership is a PS service"
        );
        assert!(
            matches!(
                config.strategy,
                Strategy::SelSync { aggregation, .. } | Strategy::Bsp { aggregation }
                    if aggregation == Aggregation::Parameter
            ),
            "elastic mode supports parameter-averaged SelSync/BSP"
        );
        assert!(
            config.noniid_labels.is_none() && config.injection.is_none(),
            "elastic re-partitioning is defined for the IID schemes"
        );
    }
}

/// This worker's batch cursor: the training set split over `members`,
/// `me`'s share. Every member computes the same split from the same
/// membership, so a membership change needs no extra coordination, and
/// a static run's membership `0..n` splits it as it always has.
fn cursor_for(config: &RunConfig, workload: &Workload, members: &[usize], me: usize) -> AnyCursor {
    let slot = members
        .binary_search(&me)
        // lint:allow(unwrap-in-prod): every caller passes a membership
        // vector it just observed itself in; a miss is an addressing bug,
        // not a runtime fault
        .expect("this rank must be a member");
    let partition = match (&workload.data, config.noniid_labels) {
        (WorkloadData::Vision { train, .. }, Some(labels)) => noniid_label_partition(
            &train.labels,
            train.num_classes,
            members.len(),
            labels,
            config.seed,
        )
        .swap_remove(slot),
        _ => partition_indices(
            workload.num_train_units(),
            members.len(),
            slot,
            config.partition,
        ),
    };
    // data injection (§III-E) shrinks the local batch to b′
    let batch = config.injection.map_or(config.batch_size, |inj| {
        inj.adjusted_batch_size(config.batch_size, config.n_workers)
    });
    match &workload.data {
        WorkloadData::Vision { .. } => AnyCursor::Vision(BatchCursor::new(partition, batch)),
        WorkloadData::Text { .. } => {
            AnyCursor::Text(TextBatchCursor::new(partition, SEQ_LEN, batch))
        }
    }
}

/// What one worker rank produces; [`run_distributed`] merges these into
/// a [`RunResult`], multi-process launchers report them per rank.
pub struct WorkerOutput {
    /// Worker id (`ep.id()`).
    pub worker: usize,
    /// Flat replica parameters after the last step.
    pub final_params: Vec<f32>,
    /// Local/sync step counts.
    pub lssr: LssrCounter,
    /// Per-step decision log (worker 0 only; empty elsewhere).
    pub records: Vec<StepRecord>,
    /// Periodic held-out evaluations (worker 0 only; empty elsewhere).
    pub evals: Vec<EvalRecord>,
    /// Model bytes this worker contributed to syncs (post-compression).
    pub logical_sync_bytes: u64,
}

/// Run the parameter-server role for one experiment over any
/// [`Transport`] — in-process endpoint or a real socket fabric. The
/// server's rank must be `config.n_workers` (the fabric convention).
/// Returns the final global parameters.
///
/// Initial parameters are derived deterministically from the workload's
/// seeded model build, so separately-launched processes agree on the
/// starting state without a broadcast.
///
/// # Errors
/// Propagates [`TransportError`] on comm faults — a dead worker mid-round
/// surfaces here instead of hanging the server.
pub fn run_server_rank<T: Transport>(
    ep: T,
    config: &RunConfig,
    workload: &Workload,
) -> Result<Vec<f32>, TransportError> {
    validate(config, workload, None);
    assert_eq!(
        ep.id(),
        config.n_workers,
        "the PS listens on rank n_workers"
    );
    assert_eq!(
        config.backend,
        SyncBackend::ParameterServer,
        "the decentralized backend has no server rank"
    );
    let init = flat_params(workload.build_model().as_visitor());
    match config.strategy {
        Strategy::Ssp { staleness } => run_ssp_server(ep, config.n_workers, init, staleness),
        _ => run_round_server(ep, config.n_workers, init),
    }
}

/// Run one worker rank (`ep.id()` in `0..config.n_workers`) over any
/// [`Transport`]. The worker's data partition is recomputed
/// deterministically from the config and workload, so separately
/// launched processes slice the dataset exactly as the in-process
/// trainer does.
///
/// # Errors
/// Propagates [`TransportError`] on comm faults (dead peer, closed
/// fabric) so multi-process launchers can exit with a diagnostic
/// instead of hanging.
pub fn run_worker_rank<T: Transport>(
    mut ep: T,
    config: &RunConfig,
    workload: &Workload,
) -> Result<WorkerOutput, TransportError> {
    validate(config, workload, None);
    let n = config.n_workers;
    assert!(ep.id() < n, "worker rank out of range");
    // Alg. 1 line 3: pull the initial model state from the PS. With the
    // decentralized backend there is no server; replicas already share
    // the seeded init (the §III-C broadcast-equivalent).
    let params = match config.backend {
        SyncBackend::ParameterServer => {
            Some(sync_round(&mut ep, n, INIT_TAG, SyncRequest::Pull)?.into_vec())
        }
        SyncBackend::RingAllReduce => None,
    };
    let start = Start {
        step: 0,
        members: (0..n).collect(),
        params,
    };
    train(&mut ep, config, workload, Deployment::Static, start)
}

/// Where a worker's flags and parameter averages go: the one thing a
/// static and an elastic worker do differently.
pub(crate) enum Deployment {
    /// A member of `0..n` for the whole run: flags by worker-to-worker
    /// allgather, syncs with the PS at rank `n` or around the ring.
    Static,
    /// A member of an elastic PS group ([`crate::elastic`]).
    Elastic(Box<ElasticWorker>),
}

/// Where one incarnation of a worker begins.
pub(crate) struct Start {
    /// The first step it runs.
    pub(crate) step: u64,
    /// The membership the training set is split over.
    pub(crate) members: Vec<usize>,
    /// Warm-start parameters: the PS's initial state or a join grant.
    pub(crate) params: Option<Vec<f32>>,
}

pub(crate) enum AnyOptimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl AnyOptimizer {
    pub(crate) fn new(kind: OptimKind, lr: f32) -> Self {
        match kind {
            OptimKind::Sgd {
                momentum,
                weight_decay,
            } => AnyOptimizer::Sgd(Sgd::with_momentum(lr, momentum, weight_decay)),
            OptimKind::Adam => AnyOptimizer::Adam(Adam::new(lr)),
        }
    }
    pub(crate) fn step(&mut self, m: &mut dyn ParamVisitor) {
        match self {
            AnyOptimizer::Sgd(o) => o.step(m),
            AnyOptimizer::Adam(o) => o.step(m),
        }
    }
    pub(crate) fn set_lr(&mut self, lr: f32) {
        match self {
            AnyOptimizer::Sgd(o) => o.set_lr(lr),
            AnyOptimizer::Adam(o) => o.set_lr(lr),
        }
    }
    /// Snapshot `(step_counter, slot_buffers)` for a checkpoint: SGD has
    /// no counter and one velocity slot per param; Adam exports its bias
    /// correction `t` and `m ++ v`.
    pub(crate) fn export_state(&self) -> (u64, Vec<Vec<f32>>) {
        match self {
            AnyOptimizer::Sgd(o) => (0, o.export_slots()),
            AnyOptimizer::Adam(o) => (o.t(), o.export_slots()),
        }
    }
    /// Restore state captured by [`AnyOptimizer::export_state`].
    pub(crate) fn import_state(&mut self, t: u64, slots: Vec<Vec<f32>>) {
        match self {
            AnyOptimizer::Sgd(o) => o.import_slots(slots),
            AnyOptimizer::Adam(o) => o.import_slots(t, slots),
        }
    }
}

enum AnyCursor {
    Vision(BatchCursor),
    Text(TextBatchCursor),
}

impl AnyCursor {
    fn next_batch(&mut self, data: &WorkloadData) -> Batch {
        match (self, data) {
            (AnyCursor::Vision(c), WorkloadData::Vision { train, .. }) => c.next_batch(train),
            (AnyCursor::Text(c), WorkloadData::Text { train, .. }) => c.next_batch(train),
            // lint:allow(unwrap-in-prod): the cursor is constructed from the
            // same WorkloadData variant it is later stepped with
            _ => unreachable!("cursor/data kind mismatch"),
        }
    }
    fn steps_per_epoch(&self) -> usize {
        match self {
            AnyCursor::Vision(c) => c.batches_per_epoch(),
            AnyCursor::Text(c) => c.batches_per_epoch(),
        }
    }
    fn epoch_progress(&self) -> f64 {
        match self {
            AnyCursor::Vision(c) => c.epoch_progress(),
            AnyCursor::Text(c) => c.epoch_progress(),
        }
    }
}

/// Per-worker synchronization context: where syncs go, compression
/// state, and logical-byte accounting.
struct SyncCtx<'a> {
    /// The run; the PS listens on rank `config.n_workers`.
    config: &'a RunConfig,
    dep: Deployment,
    /// DGC-style error-feedback residual for lossy compression.
    residual: Vec<f32>,
    /// Model bytes this worker contributed to syncs (post-compression).
    logical_bytes: u64,
    /// Loop-persistent flat-vector scratch — the SSP snapshot, the
    /// pipelined push's gradients, the elastic push and pull — so those
    /// paths stop allocating after their first step.
    flat: Vec<f32>,
}

impl SyncCtx<'_> {
    /// Compress `grads` in place with error feedback; returns the wire
    /// bytes the compressed representation would occupy, plus the
    /// compact wire payload itself when `wire_compression` is on (the
    /// PS densifies it at arrival to exactly the same values as the
    /// in-place reconstruction for Top-k and sign; PowerSGD's padded
    /// reconstruction may reassociate float ops).
    fn compress_with_ef(&mut self, grads: &mut Vec<f32>) -> (u64, Option<Payload>) {
        let Some(kind) = self.config.compression else {
            return (4 * grads.len() as u64, None);
        };
        if self.residual.len() != grads.len() {
            self.residual = vec![0.0; grads.len()];
        }
        // error feedback: compensate with what previous syncs dropped
        for (g, r) in grads.iter_mut().zip(&self.residual) {
            *g += r;
        }
        let (lossy, bytes, wire) = match kind {
            CompressionKind::TopK { ratio } => {
                let k = ((grads.len() as f32 * ratio) as usize).max(1);
                let sparse = crate::compression::topk_compress(grads, k);
                let wire = self.config.wire_compression.then(|| Payload::SparseGrad {
                    len: sparse.len as u32,
                    indices: sparse.indices.clone(),
                    values: sparse.values.clone(),
                });
                (sparse.to_dense(), sparse.wire_bytes(), wire)
            }
            CompressionKind::SignSgd => {
                let sg = crate::compression::sign_compress(grads);
                let wire = self.config.wire_compression.then(|| Payload::SignGrad {
                    len: sg.len as u32,
                    scale: sg.scale,
                    bits: sg.bits.clone(),
                });
                (
                    crate::compression::sign_decompress(&sg),
                    sg.wire_bytes(),
                    wire,
                )
            }
            CompressionKind::PowerSgd { rank } => {
                // pad to a near-square matrix so the factorization is
                // meaningful regardless of the parameter count's divisors
                let n = grads.len();
                let rows = (n as f64).sqrt().ceil() as usize;
                let cols = n.div_ceil(rows);
                let mut padded = grads.clone();
                padded.resize(rows * cols, 0.0);
                let (pm, qm) = crate::compression::powersgd_factorize(&padded, rows, rank, 1, 0);
                // the factorization clamps the rank to the matrix shape
                let eff_rank = pm.shape().dim(1);
                let wire = self.config.wire_compression.then(|| Payload::LowRank {
                    rows: rows as u32,
                    cols: cols as u32,
                    rank: eff_rank as u32,
                    p: pm.as_slice().to_vec(),
                    q: qm.as_slice().to_vec(),
                });
                let mut rec = crate::compression::powersgd_reconstruct(&pm, &qm);
                rec.truncate(n);
                (
                    rec,
                    crate::compression::powersgd_wire_bytes(rows, cols, eff_rank),
                    wire,
                )
            }
        };
        for ((r, g), l) in self.residual.iter_mut().zip(grads.iter()).zip(&lossy) {
            *r = g - l;
        }
        *grads = lossy;
        (bytes, wire)
    }
}

/// Squared L2 norm of all gradients without materializing the flat copy.
fn grad_sqnorm(m: &dyn ParamVisitor) -> f32 {
    let mut s = 0.0;
    m.visit_params(&mut |p| s += sqnorm_slice(p.grad.as_slice()));
    s
}

/// The training loop of every worker rank, static or elastic: batch,
/// forward/backward, the strategy's communication, bookkeeping. `dep`
/// says where flags and averages go; `start` where this incarnation of
/// the worker begins.
#[allow(clippy::too_many_lines)]
pub(crate) fn train<T: Transport>(
    ep: &mut T,
    config: &RunConfig,
    workload: &Workload,
    dep: Deployment,
    start: Start,
) -> Result<WorkerOutput, TransportError> {
    let worker = ep.id();
    let n = config.n_workers; // workers are 0..n, the PS is rank n
    let mut ctx = SyncCtx {
        config,
        dep,
        residual: Vec::new(),
        logical_bytes: 0,
        flat: Vec::new(),
    };
    let Start {
        step: first,
        mut members,
        params,
    } = start;
    let mut model = workload.build_model();
    if let Some(init) = params {
        set_flat_params(model.as_model(), &init);
    }
    let mut opt = AnyOptimizer::new(config.optim, config.lr.at(first));
    let mut relchange = RelativeGradChange::new(config.ewma_window, config.ewma_alpha);
    if let Deployment::Elastic(e) = &mut ctx.dep {
        e.restore(&mut opt, &mut relchange);
    }
    let mut cursor = cursor_for(config, workload, &members, worker);

    // FedAvg synchronizes x = 1/E times per epoch, uniformly spaced
    let fedavg_interval = match config.strategy {
        Strategy::FedAvg { e, .. } => ((cursor.steps_per_epoch() as f32 * e).round() as u64).max(1),
        _ => u64::MAX,
    };

    let mut lssr = LssrCounter::new();
    let mut records = Vec::new();
    let mut evals = Vec::new();
    let mut crashed = false;

    for step in first..config.max_steps {
        if matches!(&ctx.dep, Deployment::Elastic(e) if e.crash_at == Some(step)) {
            crashed = true;
            break; // go silent: no shutdown, no farewell — a real crash
        }
        opt.set_lr(config.lr.at(step));
        // injected systems heterogeneity (§II-A): the straggler computes
        // more slowly than its peers
        if let Some((slow, delay_us)) = config.straggler {
            if slow == worker {
                thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
        let mut batch = cursor.next_batch(&workload.data);

        // --- data injection: sharers broadcast a slice of their batch ---
        if let Some(inj) = config.injection {
            batch = exchange_injection(ep, n, step, inj, config.seed, batch)?;
        }

        // --- forward / backward on the (possibly augmented) batch ---
        let logits = model.as_model().forward(&batch.input, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.targets);
        model.as_model().zero_grad();
        let pipelined = match (config.overlap_buckets, &ctx.dep) {
            // pipelined BSP push (DESIGN.md §12): backward itself streams
            // ready gradient buckets to the PS as the readiness watermark
            // descends, overlapping comm with the rest of backprop. An
            // elastic worker's buckets only frame its parameter push.
            (Some(bucket_size), Deployment::Static) => {
                push_grad_buckets(ep, &mut ctx, step, &mut model, &dlogits, bucket_size)?;
                true
            }
            _ => {
                model.as_model().backward(&dlogits);
                false
            }
        };
        if let Some(max_norm) = config.grad_clip {
            selsync_nn::flat::clip_grad_norm(model.as_model(), max_norm);
        }

        // --- strategy-specific update & communication ---
        let (synced, delta_g) = match config.strategy {
            Strategy::Bsp { aggregation } | Strategy::SelSync { aggregation, .. } => {
                // Alg. 1 lines 8–13: Δ(g) and this worker's flag; BSP has
                // no Δ(g) and its flag is always up
                let (flag, dg) = match config.strategy {
                    Strategy::SelSync { delta, .. } => {
                        let dg = relchange.update(grad_sqnorm(model.as_visitor()));
                        (Some(u8::from(dg >= delta)), dg)
                    }
                    _ => (None, f32::NAN),
                };
                let sync = match &mut ctx.dep {
                    // static BSP needs no flags round at all
                    Deployment::Static => match flag {
                        Some(bit) => allgather_flags(ep, n, step, bit)?.contains(&1),
                        None => true,
                    },
                    // the elastic flags round is also the heartbeat, and
                    // the status vector it returns is the membership
                    Deployment::Elastic(e) => {
                        let (sync, now_alive) = e.heartbeat(ep, step, flag.unwrap_or(1))?;
                        if now_alive != members {
                            // eviction or rejoin: every survivor recomputes
                            // the same partition of the dataset
                            members = now_alive;
                            cursor = cursor_for(config, workload, &members, worker);
                        }
                        sync
                    }
                };
                if !sync {
                    opt.step(model.as_model());
                } else if pipelined {
                    // the buckets are already on the wire; collect the
                    // round average and apply it like the monolithic path
                    let avg = recv_round_reply(ep, n, step)?;
                    set_flat_grads(model.as_model(), &avg);
                    opt.step(model.as_model());
                } else {
                    apply_sync(ep, &mut ctx, step, &mut model, &mut opt, aggregation)?;
                }
                (sync, dg)
            }
            Strategy::LocalOnly => {
                opt.step(model.as_model());
                (false, f32::NAN)
            }
            Strategy::FedAvg { c, .. } => {
                opt.step(model.as_model());
                if (step + 1).is_multiple_of(fedavg_interval) {
                    let round = (step + 1) / fedavg_interval;
                    let participants =
                        InjectionConfig::new(c, 1.0).select_sharers(n, config.seed ^ 0xFEDA, round);
                    let req = if participants.binary_search(&worker).is_ok() {
                        SyncRequest::PushParams(flat_params(model.as_visitor()))
                    } else {
                        SyncRequest::Pull
                    };
                    let avg = sync_round(ep, n, step, req)?;
                    ctx.logical_bytes += 4 * avg.len() as u64;
                    set_flat_params(model.as_model(), &avg);
                    (true, f32::NAN)
                } else {
                    (false, f32::NAN)
                }
            }
            Strategy::Ssp { .. } => {
                let before = &mut ctx.flat;
                flat_params_into(model.as_visitor(), before);
                opt.step(model.as_model());
                // delta = after − before, streamed straight off the
                // updated params without materializing `after`; the delta
                // itself is wire-bound and moves into the message
                let mut delta = Vec::with_capacity(before.len());
                let mut off = 0;
                model.as_visitor().visit_params(&mut |p| {
                    let prev = &before[off..off + p.numel()];
                    delta.extend(p.value.as_slice().iter().zip(prev).map(|(a, b)| a - b));
                    off += p.numel();
                });
                ctx.logical_bytes += 4 * before.len() as u64;
                let global = ssp_step(ep, n, step, delta)?;
                set_flat_params(model.as_model(), &global);
                (true, f32::NAN)
            }
        };

        if synced {
            lssr.record_sync();
            if let Deployment::Elastic(e) = &ctx.dep {
                e.mirror(step, lssr.sync_steps, &opt, &relchange, &members, &model);
            }
        } else {
            lssr.record_local();
        }
        if worker == 0 {
            records.push(StepRecord {
                step,
                loss,
                synced,
                delta_g,
            });
            if (step + 1).is_multiple_of(config.eval_every) || step + 1 == config.max_steps {
                evals.push(EvalRecord {
                    step,
                    epoch: cursor.epoch_progress(),
                    metric: evaluate(&mut model, workload),
                });
            }
        }
    }

    match &mut ctx.dep {
        // dedicated shutdown round (all workers, same tag)
        Deployment::Static if config.backend == SyncBackend::ParameterServer => {
            send_shutdown(ep, n, config.max_steps)?;
        }
        Deployment::Elastic(e) if !crashed => e.client.shutdown(ep, config.max_steps),
        _ => {}
    }

    Ok(WorkerOutput {
        worker,
        final_params: flat_params(model.as_visitor()),
        lssr,
        records,
        evals,
        logical_sync_bytes: ctx.logical_bytes,
    })
}

/// Pipelined backward + push (DESIGN.md §12): run
/// [`Model::backward_hooked`] and ship every gradient bucket to the PS
/// the moment the readiness watermark clears it, so communication
/// overlaps the remaining backprop. Bucket `i` (covering flat range
/// `[i·B, (i+1)·B)`) is final once `watermark <= i·B`; ready buckets
/// are sent highest-index-first as the watermark descends. Buckets the
/// hook never announced — e.g. a model falling back to the default
/// un-hooked `backward` — are flushed after the pass, so the round
/// always completes. The server reassembles strictly by bucket index,
/// which keeps the result bit-identical to a monolithic push.
///
/// The caller still owns the round reply ([`recv_round_reply`]).
fn push_grad_buckets<T: Transport>(
    ep: &mut T,
    ctx: &mut SyncCtx,
    step: u64,
    model: &mut AnyModel,
    dlogits: &Tensor,
    bucket_size: usize,
) -> Result<(), TransportError> {
    let total = model.as_visitor().num_params();
    let server = ctx.config.n_workers;
    let scratch = &mut ctx.flat;
    // lowest bucket index not yet sent, counting down from the top;
    // everything in `unsent_hi..` is already on the wire
    let mut unsent_hi = n_buckets(total, bucket_size);
    let mut send_err: Option<TransportError> = None;
    model
        .as_model()
        .backward_hooked(dlogits, &mut |watermark, m| {
            if send_err.is_some() {
                return;
            }
            // first bucket fully inside the finalized suffix [watermark..]
            let ready_from = watermark.div_ceil(bucket_size).min(unsent_hi);
            if ready_from >= unsent_hi {
                return;
            }
            flat_grads_into(m, scratch);
            match send_bucket_range(
                ep,
                server,
                step,
                scratch,
                bucket_size,
                ready_from..unsent_hi,
            ) {
                Ok(()) => unsent_hi = ready_from,
                Err(e) => send_err = Some(e),
            }
        });
    if let Some(e) = send_err {
        return Err(e);
    }
    if unsent_hi > 0 {
        flat_grads_into(model.as_visitor(), scratch);
        send_bucket_range(ep, server, step, scratch, bucket_size, 0..unsent_hi)?;
    }
    ctx.logical_bytes += 4 * total as u64;
    Ok(())
}

/// One synchronization (Alg. 1 lines 14–15 for PA; the §IV-D
/// gradient-aggregation variant otherwise), through the configured
/// transport: PS push/pull rounds or the decentralized ring allreduce
/// §III-E suggests as a drop-in replacement, or the elastic group.
fn apply_sync<T: Transport>(
    ep: &mut T,
    ctx: &mut SyncCtx,
    step: u64,
    model: &mut AnyModel,
    opt: &mut AnyOptimizer,
    aggregation: Aggregation,
) -> Result<(), TransportError> {
    let n = ctx.config.n_workers; // also the PS's rank
    let inv_n = 1.0 / n as f32;
    match aggregation {
        Aggregation::Parameter => {
            // local update first (Alg. 1 line 9), then average parameters
            opt.step(model.as_model());
            let params = &mut ctx.flat;
            flat_params_into(model.as_visitor(), params);
            ctx.logical_bytes += 4 * params.len() as u64;
            match (&mut ctx.dep, ctx.config.backend) {
                // the group's replies land in `params` itself
                (Deployment::Elastic(e), _) => {
                    e.client.sync(ep, step, params)?;
                    set_flat_params(model.as_model(), params);
                }
                // the push moves into the message
                (Deployment::Static, SyncBackend::ParameterServer) => {
                    let req = SyncRequest::PushParams(std::mem::take(params));
                    set_flat_params(model.as_model(), &sync_round(ep, n, step, req)?);
                }
                (Deployment::Static, SyncBackend::RingAllReduce) => {
                    ring_allreduce(ep, n, step, params)?;
                    params.iter_mut().for_each(|v| *v *= inv_n);
                    set_flat_params(model.as_model(), params);
                }
            }
        }
        Aggregation::Gradient => {
            // average (optionally compressed) gradients, then every
            // replica applies the same averaged update locally
            let mut grads = flat_grads(model.as_visitor());
            let n_values = grads.len();
            let (wire_bytes, wire_payload) = ctx.compress_with_ef(&mut grads);
            ctx.logical_bytes += wire_bytes;
            match ctx.config.backend {
                SyncBackend::ParameterServer => {
                    let avg = match wire_payload {
                        // ship the compact wire form; the server
                        // densifies at arrival, and PowerSGD's matrix
                        // padding is truncated back off the reply
                        Some(payload) => {
                            ep.send(n, step, payload)?;
                            let mut v = recv_round_reply(ep, n, step)?.into_vec();
                            v.truncate(n_values);
                            v
                        }
                        None => sync_round(ep, n, step, SyncRequest::PushGrads(grads))?.into_vec(),
                    };
                    set_flat_grads(model.as_model(), &avg);
                }
                SyncBackend::RingAllReduce => {
                    ring_allreduce(ep, n, step, &mut grads)?;
                    for v in &mut grads {
                        *v *= inv_n;
                    }
                    set_flat_grads(model.as_model(), &grads);
                }
            }
            opt.step(model.as_model());
        }
    }
    Ok(())
}

/// Broadcast/collect injection samples and build the augmented batch.
fn exchange_injection<T: Transport>(
    ep: &mut T,
    n: usize,
    step: u64,
    inj: InjectionConfig,
    seed: u64,
    batch: Batch,
) -> Result<Batch, TransportError> {
    let me = ep.id();
    let sharers = inj.select_sharers(n, seed ^ 0x1213, step);
    let share_k = inj.shared_per_worker(batch.len());
    let tag = phase_tag(step, INJECT_PHASE);
    if sharers.binary_search(&me).is_ok() {
        let shared = batch.truncate_dense(share_k);
        let x = shared.input.dense();
        let dims = x.shape().dims()[1..].to_vec();
        for w in 0..n {
            if w != me {
                ep.send(
                    w,
                    tag,
                    Payload::Samples {
                        data: x.as_slice().to_vec(),
                        targets: shared.targets.clone(),
                        dims: dims.clone(),
                    },
                )?;
            }
        }
    }
    let mut combined = batch;
    let expected = sharers.iter().filter(|&&s| s != me).count();
    let mut received = Vec::with_capacity(expected);
    for _ in 0..expected {
        received.push(ep.recv_tagged(None, tag)?);
    }
    // concatenate in worker-id order so the augmented batch (and hence
    // the gradients) are independent of message arrival order
    received.sort_by_key(|m| m.from);
    for m in received {
        if let Payload::Samples {
            data,
            targets,
            dims,
        } = m.payload
        {
            let mut shape = vec![targets.len()];
            shape.extend(&dims);
            let incoming = Batch::dense(Tensor::from_vec(data, shape.as_slice()), targets);
            combined = combined.concat_dense(&incoming);
        } else {
            return Err(TransportError::Protocol(
                "unexpected payload in injection exchange".into(),
            ));
        }
    }
    Ok(combined)
}

/// Evaluate worker 0's replica on the held-out split with the workload's
/// paper metric (top-1 / top-5 accuracy or perplexity).
pub fn evaluate(model: &mut AnyModel, workload: &Workload) -> f32 {
    match &workload.data {
        WorkloadData::Vision { test, .. } => {
            let n_eval = test.len().min(256);
            let indices: Vec<usize> = (0..n_eval).collect();
            let (x, targets) = test.gather(&indices);
            let logits = model.as_model().forward(&Input::Dense(x), false);
            if workload.kind == ModelKind::AlexNetMini {
                topk_accuracy(&logits, &targets, 5)
            } else {
                accuracy(&logits, &targets)
            }
        }
        WorkloadData::Text { test, .. } => {
            let total = test.num_windows(SEQ_LEN);
            assert!(total > 0, "test stream too short");
            let take = total.min(16);
            let mut seqs = Vec::with_capacity(take);
            let mut targets = Vec::new();
            // sample windows evenly across the stream so every topic
            // segment is represented (the corpus is topic-switching)
            for k in 0..take {
                let w = k * total / take;
                let (x, y) = test.window(w, SEQ_LEN);
                seqs.push(x);
                targets.extend(y);
            }
            let logits = model.as_model().forward(&Input::Tokens(seqs), false);
            let (loss, _) = softmax_cross_entropy(&logits, &targets);
            loss.exp() // perplexity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use selsync_data::PartitionScheme;

    fn quick(strategy: Strategy, n_workers: usize, steps: u64) -> RunConfig {
        RunConfig {
            strategy,
            n_workers,
            max_steps: steps,
            eval_every: steps,
            ..RunConfig::quick_defaults()
        }
    }

    fn mlp_workload() -> Workload {
        Workload::vision(ModelKind::VggMini, 96, 32, 7)
    }

    #[test]
    fn bsp_keeps_replicas_identical() {
        let cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Parameter,
            },
            3,
            6,
        );
        let r = run_distributed(&cfg, &mlp_workload());
        assert_eq!(r.lssr.lssr(), 0.0, "BSP syncs every step");
        assert!(
            r.replica_divergence() < 1e-5,
            "replicas identical after PA sync: {}",
            r.replica_divergence()
        );
        assert_eq!(r.worker_params.len(), 3);
        assert_eq!(r.step_records.len(), 6);
    }

    #[test]
    fn local_only_diverges_and_never_syncs() {
        let cfg = quick(Strategy::LocalOnly, 3, 6);
        let r = run_distributed(&cfg, &mlp_workload());
        assert_eq!(r.lssr.lssr(), 1.0);
        assert!(
            r.replica_divergence() > 1e-4,
            "independent local training must diverge"
        );
    }

    #[test]
    fn selsync_lssr_between_bsp_and_local() {
        let cfg = RunConfig {
            strategy: Strategy::SelSync {
                delta: 0.35,
                aggregation: Aggregation::Parameter,
            },
            n_workers: 3,
            max_steps: 40,
            eval_every: 40,
            ewma_window: 25,
            ewma_alpha: 0.1,
            partition: PartitionScheme::SelDp,
            ..RunConfig::quick_defaults()
        };
        let r = run_distributed(&cfg, &mlp_workload());
        let lssr = r.lssr.lssr();
        assert!(
            lssr > 0.0,
            "some steps go local with a positive δ (lssr={lssr})"
        );
        assert!(lssr < 1.0, "step 0 always syncs (Δ = ∞)");
        assert!(r.step_records[0].synced, "first step must synchronize");
    }

    #[test]
    fn selsync_delta_zero_equals_bsp_schedule() {
        let cfg = quick(
            Strategy::SelSync {
                delta: 0.0,
                aggregation: Aggregation::Parameter,
            },
            2,
            5,
        );
        let r = run_distributed(&cfg, &mlp_workload());
        assert_eq!(r.lssr.lssr(), 0.0, "δ=0 implies fully synchronous training");
    }

    #[test]
    fn fedavg_syncs_on_schedule() {
        // 96 samples, 3 workers DefDP → 32/worker; batch 8 → 4 steps/epoch;
        // E=0.5 → interval 2
        let cfg = RunConfig {
            strategy: Strategy::FedAvg { c: 1.0, e: 0.5 },
            n_workers: 3,
            max_steps: 8,
            eval_every: 8,
            partition: PartitionScheme::DefDp,
            ..RunConfig::quick_defaults()
        };
        let r = run_distributed(&cfg, &mlp_workload());
        let synced: Vec<u64> = r
            .step_records
            .iter()
            .filter(|s| s.synced)
            .map(|s| s.step)
            .collect();
        assert_eq!(synced, vec![1, 3, 5, 7], "uniformly spaced syncs");
        assert!((r.lssr.lssr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ssp_trains_without_deadlock() {
        let cfg = quick(Strategy::Ssp { staleness: 3 }, 3, 10);
        let r = run_distributed(&cfg, &mlp_workload());
        assert_eq!(r.steps_run, 10);
        assert!(r.final_params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn transformer_workload_runs_distributed() {
        let cfg = quick(
            Strategy::SelSync {
                delta: 0.1,
                aggregation: Aggregation::Parameter,
            },
            2,
            4,
        );
        let wl = Workload::text(SEQ_LEN * 40, 3);
        let r = run_distributed(&cfg, &wl);
        assert!(
            r.final_metric > 1.0,
            "perplexity is > 1: {}",
            r.final_metric
        );
    }

    #[test]
    fn noniid_injection_run_completes() {
        let cfg = RunConfig {
            strategy: Strategy::SelSync {
                delta: 0.3,
                aggregation: Aggregation::Parameter,
            },
            n_workers: 5,
            max_steps: 6,
            eval_every: 6,
            batch_size: 10,
            noniid_labels: Some(2),
            injection: Some(InjectionConfig::new(0.5, 0.5)),
            ..RunConfig::quick_defaults()
        };
        let wl = Workload::vision(ModelKind::ResNetMini, 400, 50, 9);
        let r = run_distributed(&cfg, &wl);
        assert_eq!(r.steps_run, 6);
        assert!(r.comm_bytes > 0);
    }

    /// An impossible label split fails validation on the calling thread,
    /// not once per worker thread inside the partitioner.
    #[test]
    #[should_panic(expected = "multiple of classes")]
    fn impossible_noniid_split_fails_before_any_rank_starts() {
        let cfg = RunConfig {
            noniid_labels: Some(2),
            ..quick(Strategy::LocalOnly, 3, 2)
        };
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    fn ring_backend_matches_ps_backend_bitwise() {
        // §III-E: the PS push/pull and the ring allreduce compute the
        // same average; with a fixed seed the entire runs must agree
        // up to float reassociation in the reduction.
        let wl = mlp_workload();
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Parameter,
            },
            3,
            8,
        );
        let ps = run_distributed(&cfg, &wl);
        cfg.backend = SyncBackend::RingAllReduce;
        let ring = run_distributed(&cfg, &wl);
        let dist = crate::divergence::l2_distance(&ps.worker_params[0], &ring.worker_params[0]);
        let norm: f32 = ps.worker_params[0]
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        assert!(
            dist < 1e-3 * norm.max(1.0),
            "PS and ring training should agree: distance {dist}"
        );
        assert_eq!(ring.lssr.lssr(), 0.0);
    }

    #[test]
    fn ring_backend_runs_selsync() {
        let mut cfg = quick(
            Strategy::SelSync {
                delta: 0.3,
                aggregation: Aggregation::Parameter,
            },
            3,
            10,
        );
        cfg.backend = SyncBackend::RingAllReduce;
        let r = run_distributed(&cfg, &mlp_workload());
        assert!(r.step_records[0].synced);
        assert!(r.final_params.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn ring_backend_rejects_ssp() {
        let mut cfg = quick(Strategy::Ssp { staleness: 5 }, 2, 4);
        cfg.backend = SyncBackend::RingAllReduce;
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    fn topk_compression_cuts_logical_bytes() {
        let wl = mlp_workload();
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            2,
            6,
        );
        let dense = run_distributed(&cfg, &wl);
        cfg.compression = Some(CompressionKind::TopK { ratio: 0.05 });
        let compressed = run_distributed(&cfg, &wl);
        assert!(
            compressed.logical_sync_bytes * 5 < dense.logical_sync_bytes,
            "top-5% must cut payload ≥5x: {} vs {}",
            compressed.logical_sync_bytes,
            dense.logical_sync_bytes
        );
        // error feedback keeps training sane
        assert!(compressed.final_params.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn compression_requires_gradient_aggregation() {
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Parameter,
            },
            2,
            4,
        );
        cfg.compression = Some(CompressionKind::SignSgd);
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    fn overlap_bucketed_run_matches_monolithic_bitwise() {
        // the tentpole invariant (DESIGN.md §12): pipelining the push as
        // buckets emitted during backward must not change a single bit —
        // the PS fixes the reduction order by bucket index, not arrival
        let wl = mlp_workload();
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            3,
            6,
        );
        let mono = run_distributed(&cfg, &wl);
        cfg.overlap_buckets = Some(1000);
        let bucketed = run_distributed(&cfg, &wl);
        assert_eq!(mono.worker_params.len(), bucketed.worker_params.len());
        for (m, b) in mono.worker_params.iter().zip(&bucketed.worker_params) {
            let mb: Vec<u32> = m.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(mb, bb, "bucketed push must be bit-identical");
        }
        assert_eq!(
            mono.logical_sync_bytes, bucketed.logical_sync_bytes,
            "same model bytes either way"
        );
        assert!(
            bucketed.comm_bytes > mono.comm_bytes,
            "per-bucket frames carry header overhead: {} vs {}",
            bucketed.comm_bytes,
            mono.comm_bytes
        );
    }

    #[test]
    fn overlap_bucket_size_larger_than_model_still_works() {
        let wl = mlp_workload();
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            2,
            4,
        );
        let mono = run_distributed(&cfg, &wl);
        cfg.overlap_buckets = Some(usize::MAX / 2);
        let one_bucket = run_distributed(&cfg, &wl);
        assert_eq!(
            mono.worker_params[0]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            one_bucket.worker_params[0]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic]
    fn overlap_requires_gradient_aggregation() {
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Parameter,
            },
            2,
            4,
        );
        cfg.overlap_buckets = Some(512);
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    #[should_panic]
    fn overlap_rejects_whole_vector_transforms() {
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            2,
            4,
        );
        cfg.overlap_buckets = Some(512);
        cfg.grad_clip = Some(1.0);
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    fn wire_topk_matches_dense_push_bitwise_and_cuts_fabric_bytes() {
        // top-k densification at the server is exact, so shipping the
        // sparse wire form changes the physical bytes but not the math
        let wl = mlp_workload();
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            2,
            6,
        );
        cfg.compression = Some(CompressionKind::TopK { ratio: 0.05 });
        let dense_wire = run_distributed(&cfg, &wl);
        cfg.wire_compression = true;
        let compact = run_distributed(&cfg, &wl);
        for (d, c) in dense_wire.worker_params.iter().zip(&compact.worker_params) {
            let db: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
            assert_eq!(db, cb, "server densification is exact for top-k");
        }
        assert!(
            compact.comm_bytes < dense_wire.comm_bytes,
            "sparse wire form must cut fabric bytes: {} vs {}",
            compact.comm_bytes,
            dense_wire.comm_bytes
        );
        assert_eq!(
            compact.logical_sync_bytes, dense_wire.logical_sync_bytes,
            "logical accounting is the compressed size either way"
        );
    }

    #[test]
    fn wire_sign_and_powersgd_runs_stay_finite() {
        let wl = mlp_workload();
        for kind in [
            CompressionKind::SignSgd,
            CompressionKind::PowerSgd { rank: 2 },
        ] {
            let mut cfg = quick(
                Strategy::Bsp {
                    aggregation: Aggregation::Gradient,
                },
                2,
                4,
            );
            cfg.compression = Some(kind);
            cfg.wire_compression = true;
            let r = run_distributed(&cfg, &wl);
            assert!(
                r.final_params.iter().all(|v| v.is_finite()),
                "{kind:?} wire run diverged"
            );
            assert!(r.comm_bytes > 0);
        }
    }

    #[test]
    #[should_panic]
    fn wire_compression_requires_a_compressor() {
        let mut cfg = quick(
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            2,
            4,
        );
        cfg.wire_compression = true;
        let _ = run_distributed(&cfg, &mlp_workload());
    }

    #[test]
    fn comm_bytes_scale_with_sync_frequency() {
        let bsp = run_distributed(
            &quick(
                Strategy::Bsp {
                    aggregation: Aggregation::Parameter,
                },
                2,
                10,
            ),
            &mlp_workload(),
        );
        let local = run_distributed(&quick(Strategy::LocalOnly, 2, 10), &mlp_workload());
        assert!(
            bsp.comm_bytes > 5 * local.comm_bytes.max(1),
            "BSP {} vs local {}",
            bsp.comm_bytes,
            local.comm_bytes
        );
    }
}
