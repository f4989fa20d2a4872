//! Randomized fault-schedule soak engine with shrinking.
//!
//! `selsync_soak` sweeps N seeded random [`FaultPlan`]s — drops,
//! duplicates, delays, stragglers, partitions, worker crashes, and
//! byte-level corruption/truncation — across four topologies (the
//! default single-server elastic PS, the same cluster with bucketed
//! parameter pushes, a K-shard PS group, serve router/replica) and
//! asserts global invariants on every run:
//!
//! 1. **Deadline** — the run terminates within a budget (a watchdog
//!    thread converts a hang into a violation instead of a wedged CI).
//! 2. **No panic** — a panicking rank thread is a violation, not a
//!    crash of the sweeper.
//! 3. **Conservation** — summed over ranks, the chaos layer's
//!    `sent − dropped − corrupt + duplicated` equals the messages the
//!    underlying fabric actually forwarded.
//! 4. **Classified recovery** — a *benign* plan (delays/stragglers
//!    only) must evict nobody, fail nobody, and finish bit-identical
//!    to the fault-free baseline; a *crash-only* plan must evict
//!    exactly the scheduled ranks and fail nobody; a *lossy* plan
//!    (drops/dups/partitions/corruption) may evict and fail ranks, but
//!    must still terminate and conserve.
//!
//! On a violation the engine greedily **shrinks** the plan: it retries
//! simplified variants (one fault element removed or one probability
//! zeroed at a time) and keeps any that still reproduce, until no
//! single simplification does. The minimal plan is emitted as a JSON
//! repro so the schedule can be replayed directly.
//!
//! Before the random sweep, `selsync_soak` runs the nine
//! [`named_scenarios`], among them the PS crashes a random plan never
//! draws: a shard dies on schedule and restarts from its own checkpoint
//! ([`PsRecovery`]), once over a torn current generation. Two more
//! invariants hold them to it: the crash fired and the shard resumed,
//! and a torn run loaded `.prev`.
//!
//! One driver runs a training schedule over any endpoint type — the
//! channel [`Fabric`], or [`TcpEndpoint`]s or [`PollTcpEndpoint`]s on a
//! loopback mesh. Named scenarios run on all three; random training
//! schedule `i` runs on [`FabricKind::for_schedule`]`(i)`; serve
//! schedules stay on the channel fabric. Benign runs are compared with
//! the *channel* fault-free fingerprint, so each benign socket run is a
//! cross-fabric bit-identity check. [`ChaosTransport`] damages *encoded
//! frames* and feeds them back through `selsync_net::decode_frame`, so
//! corruption exercises the real codec on every fabric.

use selsync_chaos::{ChaosTransport, Crash, FaultPlan, Partition, Straggler};
use selsync_comm::elastic::{ElasticReport, ServerCrashPoint};
use selsync_comm::{CommStats, Fabric, Transport, TransportError};
use selsync_core::checkpoint::{load_state_with_fallback, prev_path};
use selsync_core::prelude::*;
use selsync_core::trainer::WorkerOutput;
use selsync_core::ElasticOptions;
use selsync_core::{
    run_elastic_server_rank, run_elastic_server_rank_from, run_elastic_worker_rank,
    shard_state_path,
};
use selsync_net::{PollTcpEndpoint, TcpEndpoint};
use selsync_nn::models::ModelKind;
use selsync_serve::{
    run_client, run_replica, run_router, ClientConfig, ModelSpec, PredictEngine, Ranks,
    ReplicaConfig, RouterConfig,
};
use selsync_shard::{Role, ShardLayout};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Which cluster shape a schedule runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Workers `0..W`, the default K = 1 elastic PS group: one server,
    /// on rank `W`.
    Monolithic,
    /// Same cluster as [`Topology::Monolithic`], but every parameter
    /// push ships as [`SOAK_BUCKET_VALUES`]-value `Bucket` frames, so
    /// drops/corruption land mid-assembly and retries resend whole
    /// bucket sets (DESIGN.md §12).
    Bucketed,
    /// K-shard PS group: workers `0..W`, shards `W..W+K`.
    Sharded(usize),
    /// Serving tier: replicas `0..R`, router `R`, client `R+1`.
    Serve,
}

/// Bucket size (in f32 values) used by [`Topology::Bucketed`]: small
/// enough to split the soak model's flat vector into several frames.
pub const SOAK_BUCKET_VALUES: usize = 1000;

impl Topology {
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Monolithic => "monolithic",
            Topology::Bucketed => "bucketed",
            Topology::Sharded(_) => "sharded",
            Topology::Serve => "serve",
        }
    }

    /// Shard count of a training topology's PS group.
    fn shards(&self) -> usize {
        match self {
            Topology::Sharded(k) => *k,
            Topology::Monolithic | Topology::Bucketed => 1,
            Topology::Serve => unreachable!("serve schedules use run_serve"),
        }
    }
}

/// Which endpoint type a training schedule's ranks talk over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The in-process channel [`Fabric`] (one shared `CommStats`).
    Channel,
    /// Blocking-TCP [`TcpEndpoint`]s on a loopback mesh.
    Tcp,
    /// Poll-TCP [`PollTcpEndpoint`]s on a loopback mesh.
    Poll,
}

impl FabricKind {
    pub const ALL: [FabricKind; 3] = [FabricKind::Channel, FabricKind::Tcp, FabricKind::Poll];

    /// The fabric random training schedule `index` runs on — a pure
    /// function of the index, so a repro needs no extra number.
    pub fn for_schedule(index: u64) -> FabricKind {
        FabricKind::ALL[(index % 3) as usize]
    }

    pub fn name(&self) -> &'static str {
        match self {
            FabricKind::Channel => "channel",
            FabricKind::Tcp => "tcp",
            FabricKind::Poll => "poll",
        }
    }
}

/// What a plan is allowed to do to the run, derived from its knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanClass {
    /// Delays and stragglers only: nothing may be lost, nobody evicted,
    /// and the outcome must be bit-identical to the fault-free run.
    Benign,
    /// Scheduled rank crashes on an otherwise clean network: the
    /// crashed ranks are evicted, everyone else finishes cleanly.
    CrashOnly,
    /// Messages can be lost (drops, partitions, corruption, truncation)
    /// or duplicated: evictions and worker failures are legitimate
    /// recovery outcomes, but termination and conservation still hold.
    Lossy,
}

/// Classify `plan`. Duplicates count as lossy: a duplicated push can
/// legally perturb aggregation timing, so bit-identity is not claimed.
pub fn classify(plan: &FaultPlan) -> PlanClass {
    let lossy = plan.drop_prob > 0.0
        || plan.duplicate_prob > 0.0
        || plan.corrupt_prob > 0.0
        || plan.truncate_prob > 0.0
        || !plan.partitions.is_empty()
        || plan.server_crash.is_some();
    if lossy {
        PlanClass::Lossy
    } else if !plan.crashes.is_empty() {
        PlanClass::CrashOnly
    } else {
        PlanClass::Benign
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)` with 53-bit precision.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded random plan for schedule `index` of a sweep — a pure
/// function of `(sweep_seed, index, topology, workers, steps)`, so a
/// repro needs only those numbers (or the emitted plan JSON). For
/// [`Topology::Serve`], `workers` is the *replica* count (crash and
/// straggler ranks must land on replicas, not the router or client)
/// and `steps` is read as a served-batch budget.
pub fn random_plan(
    sweep_seed: u64,
    index: u64,
    topo: Topology,
    workers: usize,
    steps: u64,
) -> FaultPlan {
    let mut d = Draw(sweep_seed ^ splitmix64(index.wrapping_mul(0x5851_F42D_4C95_7F2D)));
    let mut plan = FaultPlan::quiet(d.next());
    match topo {
        Topology::Serve => {
            // the serving tier's chaos menu is narrower: its protocol
            // has no retry layer, so loss-type faults would test the
            // sweeper, not the system. Stragglers, jitter, and replica
            // crashes are the faults its router is built to absorb.
            match d.below(4) {
                0 => {} // fault-free schedule
                1 => plan.stragglers.push(Straggler {
                    rank: d.below(workers as u64) as usize,
                    delay_ms: 1 + d.below(2),
                }),
                2 => plan.crashes.push(Crash {
                    rank: d.below(workers as u64) as usize,
                    at_step: 1 + d.below(3), // read as served batches
                }),
                _ => plan.delay_ms_max = 1 + d.below(2),
            }
        }
        Topology::Monolithic | Topology::Bucketed | Topology::Sharded(_) => {
            // a single server is not drawn, which keeps every plan of
            // the sweep what it was when K = 1 had its own driver
            let server_of = |d: &mut Draw| match topo.shards() {
                1 => workers,
                k => workers + d.below(k as u64) as usize,
            };
            // 1–3 distinct fault kinds per schedule (or none, ~1 in 8)
            if d.below(8) == 0 {
                return plan;
            }
            let kinds = 1 + d.below(3);
            for _ in 0..kinds {
                match d.below(8) {
                    0 => plan.drop_prob = 0.01 + d.unit() * 0.04,
                    1 => plan.duplicate_prob = 0.01 + d.unit() * 0.04,
                    2 => plan.delay_ms_max = 1 + d.below(2),
                    3 => {
                        let rank = d.below(workers as u64) as usize;
                        if plan.stragglers.iter().all(|s| s.rank != rank) {
                            plan.stragglers.push(Straggler {
                                rank,
                                delay_ms: 1 + d.below(2),
                            });
                        }
                    }
                    4 => {
                        let from_seq = d.below(16);
                        plan.partitions.push(Partition {
                            a: d.below(workers as u64) as usize,
                            b: server_of(&mut d),
                            from_seq,
                            to_seq: from_seq + 2 + d.below(4),
                        });
                    }
                    5 => {
                        let rank = d.below(workers as u64) as usize;
                        if plan.crashes.iter().all(|c| c.rank != rank) {
                            plan.crashes.push(Crash {
                                rank,
                                at_step: 1 + d.below(steps.saturating_sub(1).max(1)),
                            });
                        }
                    }
                    6 => plan.corrupt_prob = 0.01 + d.unit() * 0.05,
                    _ => plan.truncate_prob = 0.01 + d.unit() * 0.03,
                }
            }
        }
    }
    plan
}

/// One invariant violation: which invariant, and the evidence.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    pub invariant: String,
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: String) -> Violation {
        Violation {
            invariant: invariant.to_string(),
            detail,
        }
    }
}

/// Schema tag of [`Repro`] files; `v2` added the fabric.
pub const REPRO_SCHEMA: &str = "selsync-soak-repro-v2";

/// The minimal reproduction emitted when a schedule fails — everything
/// needed to replay: the shrunk plan (and the original it came from),
/// the topology and fabric, and what broke.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct Repro {
    pub schema: String,
    pub sweep_seed: u64,
    pub schedule: u64,
    pub topology: String,
    pub fabric: String,
    pub invariant: String,
    pub detail: String,
    pub shrunk_plan: FaultPlan,
    pub original_plan: FaultPlan,
}

impl Repro {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Bit-exact fingerprint of a training outcome: each completed
/// worker's id, step counts, and every final parameter's raw bits.
fn training_fingerprint(completed: &[WorkerOutput]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in completed {
        fnv(&mut h, o.worker as u64);
        fnv(&mut h, o.lssr.total());
        for p in &o.final_params {
            fnv(&mut h, u64::from(p.to_bits()));
        }
    }
    h
}

/// The chaos layer's counters summed over a run's ranks, and what the
/// fabric underneath actually forwarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosTally {
    pub sent: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupt: u64,
    pub forwarded: u64,
}

impl ChaosTally {
    /// Add one rank's chaos layer.
    fn add<T: Transport>(&mut self, cep: &ChaosTransport<T>) {
        let s = cep.stats();
        self.sent += s.total_messages();
        self.dropped += s.dropped_messages();
        self.duplicated += s.duplicated_messages();
        self.corrupt += s.corrupt_messages();
    }

    /// Conservation, which holds for every class: nothing the chaos
    /// layer did is unaccounted for.
    fn check(&self) -> Option<Violation> {
        let balance = self.sent - self.dropped - self.corrupt + self.duplicated;
        (balance != self.forwarded).then(|| {
            Violation::new(
                "conservation",
                format!(
                    "sent {} − dropped {} − corrupt {} + duplicated {} = {} ≠ forwarded {}",
                    self.sent, self.dropped, self.corrupt, self.duplicated, balance, self.forwarded
                ),
            )
        })
    }
}

/// A reading of what the fabric under `endpoints` has forwarded, summed
/// over its distinct counters: the channel fabric shares one
/// `CommStats` among its endpoints, each TCP endpoint owns its own.
fn forwarded<T: Transport>(endpoints: &[T]) -> impl Fn() -> u64 {
    let mut stats: Vec<Arc<CommStats>> = endpoints.iter().map(|ep| ep.stats().clone()).collect();
    stats.dedup_by(|a, b| Arc::ptr_eq(a, b));
    move || stats.iter().map(|s| s.total_messages()).sum()
}

/// Run `drive` on its own thread under `deadline` and return its result
/// with the wall time. A hang becomes a `deadline` violation, a
/// panicking rank a `no-panic` violation, an error (a dead server) a
/// `server-survival` violation.
fn watchdog<R: Send + 'static>(
    deadline: Duration,
    drive: impl FnOnce() -> Result<R, String> + Send + 'static,
) -> Result<(R, u64), Violation> {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(drive());
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(r)) => Ok((r, start.elapsed().as_millis() as u64)),
        Ok(Err(e)) => Err(Violation::new("server-survival", e)),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Violation::new(
            "deadline",
            format!("run exceeded the {deadline:?} budget"),
        )),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(Violation::new(
            "no-panic",
            "a rank thread panicked mid-run".to_string(),
        )),
    }
}

/// Everything a training schedule produced, condensed for checking.
#[derive(Debug, Clone, Default)]
pub struct TrainingRun {
    pub syncs: u64,
    pub evictions: usize,
    pub completed: usize,
    pub failed: usize,
    pub full_run: usize,
    pub fingerprint: u64,
    pub chaos: ChaosTally,
    /// PS shards that crashed on schedule and resumed from a checkpoint.
    pub ps_resumed: usize,
    /// Of those, the ones that loaded the `.prev` generation.
    pub fallback_prev: usize,
    pub wall_ms: u64,
}

/// Fixed per-sweep training parameters: the model, and in `cfg` the
/// cluster size (`n_workers`) and step budget (`max_steps`).
#[derive(Clone)]
pub struct TrainingKnobs {
    pub cfg: RunConfig,
    pub wl: Workload,
    pub opts: ElasticOptions,
    pub deadline: Duration,
}

impl TrainingKnobs {
    /// CI-scale knobs: 3 workers, a few steps of the small conv net,
    /// liveness tuned so loss-type faults resolve in a second or two.
    pub fn quick(steps: u64) -> TrainingKnobs {
        let cfg = RunConfig {
            strategy: Strategy::SelSync {
                delta: 0.25,
                aggregation: Aggregation::Parameter,
            },
            n_workers: 3,
            max_steps: steps,
            eval_every: steps,
            ..RunConfig::quick_defaults()
        };
        let wl = Workload::vision(ModelKind::VggMini, 64, 16, 7);
        let mut opts = ElasticOptions::with_liveness(Duration::from_millis(150), 3);
        opts.comm_retries = 6;
        TrainingKnobs {
            cfg,
            wl,
            opts,
            deadline: Duration::from_secs(60),
        }
    }
}

/// A scheduled PS crash and its in-process restart: shard `shard` dies
/// at `point`, waits the plan's `server_crash.restart_after_ms`, tears
/// its current checkpoint generation if `tear_current` (forcing the
/// `.prev` fallback), reloads its own checkpoint and serves the rest of
/// the run over the same endpoint. Its siblings serve throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsRecovery {
    pub shard: usize,
    pub point: ServerCrashPoint,
    pub tear_current: bool,
}

/// Truncate the current generation mid-byte — simulated bit rot of the
/// newest file, strictly harsher than a real mid-write kill (the
/// temp-file + atomic-rename writer never opens the current generation
/// for writing). With no `.prev` generation to fall back on, the damage
/// is unrecoverable by construction and the scenario would test
/// nothing, so that is an error, not a skip.
fn tear_checkpoint(path: &Path) -> Result<(), String> {
    let prev = prev_path(path);
    if !prev.exists() {
        return Err(format!("no {} generation to fall back on", prev.display()));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    std::fs::write(path, &bytes[..bytes.len() / 2])
        .map_err(|e| format!("tearing {}: {e}", path.display()))
}

/// Restart shard `rec.shard` after its scheduled crash: wait out the
/// plan's restart delay, tear the current generation if asked, reload
/// the shard's own checkpoint and serve on. Returns the report and
/// whether `.prev` was loaded.
fn restart_shard<T: Transport>(
    cep: &mut ChaosTransport<T>,
    rec: PsRecovery,
    knobs: &TrainingKnobs,
    layout: ShardLayout,
) -> Result<(ElasticReport, bool), TransportError> {
    let restart_after = cep
        .plan()
        .server_crash
        .as_ref()
        .map_or(0, |c| c.restart_after_ms);
    thread::sleep(Duration::from_millis(restart_after));
    let base = knobs
        .opts
        .checkpoint
        .as_deref()
        .expect("a PS-crash run writes checkpoints");
    let path = shard_state_path(base, &layout, rec.shard);
    if rec.tear_current {
        tear_checkpoint(&path).map_err(TransportError::Protocol)?;
    }
    let (state, fallback) = load_state_with_fallback(&path)
        .map_err(|e| TransportError::Protocol(format!("recovering {}: {e}", path.display())))?;
    let mut opts = knobs.opts.clone();
    opts.server_crash = None;
    run_elastic_server_rank_from(cep, &knobs.cfg, &knobs.wl, &opts, layout, &state)
        .map(|report| (report, fallback))
}

/// Drive one elastic run over `endpoints` — workers `0..W`, the
/// `layout`'s PS group after them — with every endpoint wrapped in a
/// [`ChaosTransport`] executing `plan`, and the shard `recovery` names
/// restarted after its scheduled crash.
fn drive_training<T: Transport + Send + 'static>(
    endpoints: Vec<T>,
    layout: ShardLayout,
    plan: &FaultPlan,
    knobs: &TrainingKnobs,
    recovery: Option<PsRecovery>,
) -> Result<TrainingRun, String> {
    let forwarded = forwarded(&endpoints);
    let mut servers = Vec::new();
    let mut workers = Vec::new();
    for ep in endpoints {
        let (mut knobs, plan) = (knobs.clone(), plan.clone());
        match layout.role_of(ep.id()) {
            Role::Worker(_) => {
                knobs.opts.crash_at = plan.crash_step(ep.id());
                workers.push(thread::spawn(move || {
                    let mut cep = ChaosTransport::new(ep, plan);
                    let (cfg, wl, opts) = (&knobs.cfg, &knobs.wl, &knobs.opts);
                    let res = run_elastic_worker_rank(&mut cep, cfg, wl, opts, layout);
                    (res, cep)
                }));
            }
            Role::Shard(s) => {
                // the crash schedule is per process: siblings serve on
                let rec = recovery.filter(|r| r.shard == s);
                knobs.opts.server_crash = rec.map(|r| r.point);
                servers.push(thread::spawn(move || {
                    let mut cep = ChaosTransport::new(ep, plan);
                    let (cfg, wl, opts) = (&knobs.cfg, &knobs.wl, &knobs.opts);
                    let mut res = run_elastic_server_rank(&mut cep, cfg, wl, opts, layout)
                        .map(|report| (report, None));
                    if let (Some(rec), Ok((report, _))) = (rec, &res) {
                        if report.crashed {
                            res = restart_shard(&mut cep, rec, &knobs, layout)
                                .map(|(report, prev)| (report, Some(prev)));
                        }
                    }
                    (res, cep)
                }));
            }
            Role::Standby(_) => unreachable!("soak runs without standbys"),
        }
    }

    let mut run = TrainingRun::default();
    let mut completed = Vec::new();
    for h in workers {
        let (res, cep) = h.join().expect("worker thread");
        run.chaos.add(&cep);
        match res {
            Ok(out) => completed.push(out),
            Err(_) => run.failed += 1,
        }
    }
    for (s, h) in servers.into_iter().enumerate() {
        let (res, cep) = h.join().expect("server thread");
        run.chaos.add(&cep);
        let (report, resumed) = res.map_err(|e| format!("PS shard {s} failed: {e}"))?;
        if let Some(prev) = resumed {
            run.ps_resumed += 1;
            run.fallback_prev += usize::from(prev);
        }
        if s == 0 {
            // shard 0 is the authoritative membership view
            run.syncs = report.syncs;
            run.evictions = report.evictions.len();
        }
    }
    completed.sort_by_key(|o| o.worker);
    run.completed = completed.len();
    run.full_run = completed
        .iter()
        .filter(|o| o.lssr.total() == knobs.cfg.max_steps)
        .count();
    run.fingerprint = training_fingerprint(&completed);
    run.chaos.forwarded = forwarded();
    Ok(run)
}

/// A fresh directory for one run's checkpoints, unique in the process.
fn checkpoint_dir() -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("selsync_soak_{}_{run}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Run one training schedule over `fabric` under a deadline watchdog.
/// A hang becomes a `deadline` violation, a panicking rank a `no-panic`
/// violation, a dead server a `server-survival` violation.
pub fn run_training(
    topo: Topology,
    fabric: FabricKind,
    plan: &FaultPlan,
    knobs: &TrainingKnobs,
    recovery: Option<PsRecovery>,
) -> Result<TrainingRun, Violation> {
    let (plan, mut knobs) = (plan.clone(), knobs.clone());
    let (mut run, wall_ms) = watchdog(knobs.deadline, move || {
        if topo == Topology::Bucketed {
            // identical cluster, bucketed wire format: the elastic
            // param push becomes several Bucket frames
            knobs.cfg.overlap_buckets = Some(SOAK_BUCKET_VALUES);
        }
        // a restarted shard reloads its checkpoint from a directory
        // private to this run
        let dir = recovery.map(|_| checkpoint_dir());
        knobs.opts.checkpoint = dir.as_ref().map(|d| d.join("ps.ckpt"));
        let layout = ShardLayout::new(topo.shards(), knobs.cfg.n_workers, false);
        let n = layout.total_ranks();
        let mesh = |e: std::io::Error| format!("loopback mesh: {e}");
        let res = match fabric {
            FabricKind::Channel => drive_training(Fabric::new(n), layout, &plan, &knobs, recovery),
            FabricKind::Tcp => TcpEndpoint::loopback_mesh(n, |_| {})
                .map_err(mesh)
                .and_then(|eps| drive_training(eps, layout, &plan, &knobs, recovery)),
            FabricKind::Poll => PollTcpEndpoint::loopback_mesh(n, |_| {})
                .map_err(mesh)
                .and_then(|eps| drive_training(eps, layout, &plan, &knobs, recovery)),
        };
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        res
    })?;
    run.wall_ms = wall_ms;
    Ok(run)
}

/// Check every class-dependent invariant of a completed training run.
/// `baseline` is the channel fabric's fault-free fingerprint for the
/// same shard count; `recovery` is the PS crash the run scheduled.
pub fn verify_training(
    plan: &FaultPlan,
    run: &TrainingRun,
    baseline: u64,
    knobs: &TrainingKnobs,
    recovery: Option<PsRecovery>,
) -> Option<Violation> {
    if let Some(v) = run.chaos.check() {
        return Some(v);
    }
    // a scheduled PS crash that never fired, or never resumed, tested
    // nothing; neither did a torn generation nobody fell back from
    if let Some(rec) = recovery {
        if run.ps_resumed != 1 {
            return Some(Violation::new(
                "ps-recovery",
                format!(
                    "shard {} was scheduled to crash at {:?} and restart; {} shard(s) resumed",
                    rec.shard, rec.point, run.ps_resumed
                ),
            ));
        }
        if rec.tear_current && run.fallback_prev != 1 {
            return Some(Violation::new(
                "ps-recovery",
                format!(
                    "shard {}'s current generation was to be torn, but recovery did not load .prev",
                    rec.shard
                ),
            ));
        }
    }
    let (workers, crashes) = (knobs.cfg.n_workers, plan.crashes.len());
    let checks = match classify(plan) {
        PlanClass::Benign => vec![
            (
                run.evictions != 0,
                "no-unexpected-eviction",
                format!("benign plan evicted {} rank(s)", run.evictions),
            ),
            (
                run.failed != 0 || run.full_run != workers,
                "classified-recovery",
                format!(
                    "benign plan: {} failed, {}/{workers} full-run workers",
                    run.failed, run.full_run
                ),
            ),
            (
                run.fingerprint != baseline,
                "bit-identity",
                format!(
                    "benign run fingerprint 0x{:016x} ≠ fault-free 0x{baseline:016x}",
                    run.fingerprint
                ),
            ),
        ],
        PlanClass::CrashOnly => vec![
            (
                run.failed != 0,
                "classified-recovery",
                format!(
                    "crash-only plan: {} unexplained worker failure(s)",
                    run.failed
                ),
            ),
            (
                run.evictions != crashes,
                "classified-recovery",
                format!(
                    "crash-only plan scheduled {crashes} crash(es) but {} eviction(s) happened",
                    run.evictions
                ),
            ),
            (
                run.full_run != workers - crashes,
                "classified-recovery",
                format!(
                    "{} survivors should have run all {} steps, {} did",
                    workers - crashes,
                    knobs.cfg.max_steps,
                    run.full_run
                ),
            ),
        ],
        // evictions/failures are legitimate recovery here; what must
        // still hold is the accounting above and that every worker
        // resolved one way or the other
        PlanClass::Lossy => vec![(
            run.completed + run.failed != workers,
            "classified-recovery",
            format!(
                "{} completed + {} failed ≠ {workers} workers",
                run.completed, run.failed
            ),
        )],
    };
    checks
        .into_iter()
        .find(|(failed, _, _)| *failed)
        .map(|(_, invariant, detail)| Violation::new(invariant, detail))
}

/// One canned chaos scenario: a fixed plan on a fixed topology, the
/// class that plan must classify as, and — for a PS crash — the shard
/// restart it schedules.
#[derive(Clone)]
pub struct Scenario {
    pub name: &'static str,
    pub topo: Topology,
    pub class: PlanClass,
    pub plan: FaultPlan,
    pub recovery: Option<PsRecovery>,
}

/// The nine named scenarios `selsync_soak` runs on every fabric before
/// its random sweep, sized for `w` workers; `seed` seeds each plan.
/// Every scenario runs the K = 1 group but the last two, which run
/// K = 2.
pub fn named_scenarios(seed: u64, w: usize) -> Vec<Scenario> {
    use PlanClass::{Benign, CrashOnly, Lossy};
    use ServerCrashPoint::{MidSync, RoundStart};
    use Topology::{Monolithic, Sharded};
    let crash_ps = |at_step| FaultPlan::crash_server(seed, at_step, 150);
    let crash_shard = |at_step| FaultPlan::crash_one_shard(seed, at_step, 150);
    let skewed = ShardLayout::new(2, w, false).shard_rank(1);
    let rows = [
        (
            "fault-free",
            Monolithic,
            Benign,
            FaultPlan::quiet(seed),
            None,
        ),
        // the highest rank goes silent at step 1 and is evicted
        (
            "crash-one-worker",
            Monolithic,
            CrashOnly,
            FaultPlan::crash_one(seed, w - 1, 1),
            None,
        ),
        // training paces at the straggler, nobody is evicted
        (
            "slow-straggler",
            Monolithic,
            Benign,
            FaultPlan::slow_straggler(seed, 1 % w, 3),
            None,
        ),
        (
            "flaky-network",
            Monolithic,
            Lossy,
            FaultPlan::flaky_network(seed, 0.02, 0.03, 2),
            None,
        ),
        // a corrupted frame dies at the decoder's CRC check, a truncated
        // one at the length audit: either way a lost message
        (
            "corrupt-link",
            Monolithic,
            Lossy,
            FaultPlan::corrupt_link(seed, 0.02, 0.01),
            None,
        ),
        // the PS dies at a round boundary and resumes from step 0's sync
        (
            "crash-ps-midrun",
            Monolithic,
            Lossy,
            crash_ps(1),
            Some((0, RoundStart(1), false)),
        ),
        // steps 0 and 1 both sync (Δ(g) starts high), so the first sync
        // from step 2 on dies with two durable generations behind it:
        // the current one is torn and recovery must load `.prev`
        (
            "crash-ps-midckpt",
            Monolithic,
            Lossy,
            crash_ps(2),
            Some((0, MidSync(2), true)),
        ),
        // shard 1 resumes from its own `.s1` file while shard 0 serves on
        (
            "crash-one-shard",
            Sharded(2),
            Lossy,
            crash_shard(2),
            Some((1, MidSync(2), false)),
        ),
        // one slow shard paces every fan-out round
        (
            "shard-skew",
            Sharded(2),
            Benign,
            FaultPlan::slow_shard(seed, skewed, 3),
            None,
        ),
    ];
    rows.into_iter()
        .map(|(name, topo, class, plan, crash)| Scenario {
            name,
            topo,
            class,
            plan,
            recovery: crash.map(|(shard, point, tear_current)| PsRecovery {
                shard,
                point,
                tear_current,
            }),
        })
        .collect()
}

/// Everything a serve schedule produced, condensed for checking.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    pub completed: u64,
    pub evicted: Vec<usize>,
    pub fingerprint: u64,
    pub chaos: ChaosTally,
    pub wall_ms: u64,
}

/// Fixed per-sweep serving parameters.
#[derive(Clone)]
pub struct ServeKnobs {
    pub replicas: usize,
    pub requests: u64,
    pub ckpt: PathBuf,
    pub deadline: Duration,
}

impl ServeKnobs {
    pub fn quick(ckpt: PathBuf, requests: u64) -> ServeKnobs {
        ServeKnobs {
            replicas: 2,
            requests,
            ckpt,
            deadline: Duration::from_secs(60),
        }
    }
}

/// The MLP spec the serve checkpoint is written for.
pub const SOAK_MLP_DIMS: [usize; 3] = [16, 32, 8];

fn drive_serve(plan: &FaultPlan, knobs: &ServeKnobs) -> Result<ServeRun, String> {
    let ranks = Ranks::new(knobs.replicas);
    let mut eps = Fabric::new(knobs.replicas + 2);
    let forwarded = forwarded(&eps);
    let client_ep = eps.pop().expect("client endpoint");
    let router_ep = eps.pop().expect("router endpoint");

    let mut replica_handles = Vec::new();
    for ep in eps {
        let ckpt = knobs.ckpt.clone();
        let router = ranks.router();
        let plan = plan.clone();
        let crash_after = plan.crash_step(ep.id());
        replica_handles.push(thread::spawn(move || {
            let (state, _) = selsync_core::checkpoint::load_state_with_fallback(&ckpt)
                .expect("soak checkpoint readable");
            let spec = ModelSpec::Mlp {
                dims: SOAK_MLP_DIMS.to_vec(),
            };
            let mut engine =
                PredictEngine::new(&spec, 0, &state.params).expect("soak checkpoint fits its spec");
            let cfg = ReplicaConfig {
                router,
                heartbeat: Duration::from_millis(50),
                warmup_rows: 8,
                warmup_dims: vec![SOAK_MLP_DIMS[0]],
                crash_after_batches: crash_after,
            };
            let mut cep = ChaosTransport::new(ep, plan);
            let res = run_replica(&mut cep, &mut engine, None, &cfg);
            (res.map(|_| ()).map_err(|e| e.to_string()), cep)
        }));
    }
    let router_cfg = RouterConfig {
        replicas: knobs.replicas,
        clients: 1,
        max_batch: 8,
        deadline: Duration::from_millis(2),
        heartbeat: Duration::from_millis(50),
        max_missed: 3,
    };
    let router = {
        let plan = plan.clone();
        thread::spawn(move || {
            let mut cep = ChaosTransport::new(router_ep, plan);
            let res = run_router(&mut cep, &router_cfg);
            (res.map_err(|e| e.to_string()), cep)
        })
    };
    let client_cfg = ClientConfig {
        router: ranks.router(),
        requests: knobs.requests,
        concurrency: 4,
        dims: vec![SOAK_MLP_DIMS[0]],
        spacing: Duration::ZERO,
        seed: 1,
        fixed_input: false,
        recv_timeout: Duration::from_secs(30),
    };
    let mut client = ChaosTransport::new(client_ep, plan.clone());
    let report = run_client(&mut client, &client_cfg).map_err(|e| format!("client: {e}"))?;

    let mut run = ServeRun {
        completed: report.completed,
        ..ServeRun::default()
    };
    run.chaos.add(&client);
    for h in replica_handles {
        let (res, cep) = h.join().expect("replica thread");
        run.chaos.add(&cep);
        res.map_err(|e| format!("replica: {e}"))?;
    }
    let (router_res, cep) = router.join().expect("router thread");
    run.chaos.add(&cep);
    let router_report = router_res.map_err(|e| format!("router: {e}"))?;
    run.evicted = router_report.evicted;

    // reply fingerprints in request order: the serving tier's outputs
    // are a pure function of (checkpoint, inputs), so this is stable
    // across batching, stragglers, and replica failover
    let mut replies: Vec<_> = report
        .replies
        .iter()
        .map(|r| (r.request, r.fingerprint))
        .collect();
    replies.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (req, fp) in replies {
        fnv(&mut h, req);
        fnv(&mut h, fp);
    }
    run.fingerprint = h;
    run.chaos.forwarded = forwarded();
    Ok(run)
}

/// Run one serve schedule under the same watchdog contract as
/// [`run_training`].
pub fn run_serve(plan: &FaultPlan, knobs: &ServeKnobs) -> Result<ServeRun, Violation> {
    let (plan, knobs) = (plan.clone(), knobs.clone());
    let (mut run, wall_ms) = watchdog(knobs.deadline, move || drive_serve(&plan, &knobs))?;
    run.wall_ms = wall_ms;
    Ok(run)
}

/// Check every invariant of a completed serve run.
pub fn verify_serve(
    plan: &FaultPlan,
    run: &ServeRun,
    baseline: u64,
    knobs: &ServeKnobs,
) -> Option<Violation> {
    if let Some(v) = run.chaos.check() {
        return Some(v);
    }
    if run.completed != knobs.requests {
        return Some(Violation::new(
            "classified-recovery",
            format!("{}/{} requests answered", run.completed, knobs.requests),
        ));
    }
    let crashed: Vec<usize> = plan.crashes.iter().map(|c| c.rank).collect();
    for rank in &run.evicted {
        if !crashed.contains(rank) {
            return Some(Violation::new(
                "no-unexpected-eviction",
                format!("replica {rank} evicted without a scheduled crash"),
            ));
        }
    }
    for rank in &crashed {
        if !run.evicted.contains(rank) {
            return Some(Violation::new(
                "classified-recovery",
                format!("replica {rank} was scheduled to crash but never evicted"),
            ));
        }
    }
    // output bit-identity holds for the whole serve menu: failover and
    // stragglers reroute work, they never change a logit
    if run.fingerprint != baseline {
        return Some(Violation::new(
            "bit-identity",
            format!(
                "reply fingerprint 0x{:016x} ≠ fault-free 0x{:016x}",
                run.fingerprint, baseline
            ),
        ));
    }
    None
}

/// Every plan that is exactly one simplification step smaller: one
/// schedule entry removed, or one probability/knob zeroed.
pub fn simplifications(p: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    let mut push = |edit: &dyn Fn(&mut FaultPlan)| {
        let mut c = p.clone();
        edit(&mut c);
        out.push(c);
    };
    for i in 0..p.crashes.len() {
        push(&|c| _ = c.crashes.remove(i));
    }
    for i in 0..p.partitions.len() {
        push(&|c| _ = c.partitions.remove(i));
    }
    for i in 0..p.stragglers.len() {
        push(&|c| _ = c.stragglers.remove(i));
    }
    if p.server_crash.is_some() {
        push(&|c| c.server_crash = None);
    }
    if p.drop_prob > 0.0 {
        push(&|c| c.drop_prob = 0.0);
    }
    if p.duplicate_prob > 0.0 {
        push(&|c| c.duplicate_prob = 0.0);
    }
    if p.corrupt_prob > 0.0 {
        push(&|c| c.corrupt_prob = 0.0);
    }
    if p.truncate_prob > 0.0 {
        push(&|c| c.truncate_prob = 0.0);
    }
    if p.delay_ms_max > 0 {
        push(&|c| c.delay_ms_max = 0);
    }
    out
}

/// Greedy shrink: repeatedly take the first one-step simplification
/// that still fails `still_fails`, until none does. Terminates because
/// every simplification strictly shrinks the plan (one list element or
/// one nonzero knob fewer). The result is 1-minimal: removing any
/// single remaining fault makes the failure disappear.
pub fn shrink(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut cur = plan.clone();
    loop {
        match simplifications(&cur).into_iter().find(|c| still_fails(c)) {
            Some(simpler) => cur = simpler,
            None => return cur,
        }
    }
}

/// One-line human summary of what a plan injects.
pub fn describe(p: &FaultPlan) -> String {
    let mut parts = Vec::new();
    if p.drop_prob > 0.0 {
        parts.push(format!("drop={:.3}", p.drop_prob));
    }
    if p.duplicate_prob > 0.0 {
        parts.push(format!("dup={:.3}", p.duplicate_prob));
    }
    if p.corrupt_prob > 0.0 {
        parts.push(format!("corrupt={:.3}", p.corrupt_prob));
    }
    if p.truncate_prob > 0.0 {
        parts.push(format!("trunc={:.3}", p.truncate_prob));
    }
    if p.delay_ms_max > 0 {
        parts.push(format!("delay<={}ms", p.delay_ms_max));
    }
    for s in &p.stragglers {
        parts.push(format!("slow[{}]={}ms", s.rank, s.delay_ms));
    }
    for c in &p.crashes {
        parts.push(format!("crash[{}]@{}", c.rank, c.at_step));
    }
    for pa in &p.partitions {
        parts.push(format!(
            "part[{}-{}]@{}..{}",
            pa.a, pa.b, pa.from_seq, pa.to_seq
        ));
    }
    if p.server_crash.is_some() {
        parts.push("ps-crash".to_string());
    }
    if parts.is_empty() {
        "quiet".to_string()
    } else {
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generator_is_pure_and_covers_all_classes() {
        let topos = [
            Topology::Monolithic,
            Topology::Bucketed,
            Topology::Sharded(2),
            Topology::Serve,
        ];
        let mut seen = std::collections::HashSet::new();
        let mut seen_pairs = std::collections::HashSet::new();
        for i in 0..160u64 {
            let topo = topos[(i % 4) as usize];
            // serve plans are drawn over the replica count (2), not the
            // training worker count — rank 2 would be the router
            let ranks = if topo == Topology::Serve { 2 } else { 3 };
            let a = random_plan(9, i, topo, ranks, 6);
            let b = random_plan(9, i, topo, ranks, 6);
            assert_eq!(a, b, "pure function of (seed, index, topo, W, steps)");
            seen.insert(classify(&a));
            assert!(a.server_crash.is_none(), "PS crashes are named scenarios");
            if topo != Topology::Serve {
                seen_pairs.insert((topo.name(), FabricKind::for_schedule(i).name()));
            }
            if topo == Topology::Serve {
                // the serve menu never schedules loss-type faults
                assert_eq!(a.drop_prob, 0.0);
                assert_eq!(a.corrupt_prob, 0.0);
                assert_eq!(a.truncate_prob, 0.0);
                assert!(a.partitions.is_empty());
                assert!(a.crashes.len() <= 1, "at most one replica crash");
                for c in &a.crashes {
                    assert!(c.rank < ranks, "crash rank lands on a replica");
                }
                for s in &a.stragglers {
                    assert!(s.rank < ranks, "straggler rank lands on a replica");
                }
            }
        }
        assert!(seen.contains(&PlanClass::Benign));
        assert!(seen.contains(&PlanClass::CrashOnly));
        assert!(seen.contains(&PlanClass::Lossy));
        // training schedules rotate channel → blocking TCP → poll TCP by
        // index alone, which over a sweep reaches every training
        // topology × fabric pair
        assert_eq!(
            (0..6).map(FabricKind::for_schedule).collect::<Vec<_>>(),
            [FabricKind::ALL, FabricKind::ALL].concat()
        );
        assert_eq!(seen_pairs.len(), 3 * FabricKind::ALL.len());
        // a different sweep seed reshuffles the schedules
        assert_ne!(
            random_plan(9, 5, Topology::Monolithic, 3, 6),
            random_plan(10, 5, Topology::Monolithic, 3, 6)
        );
    }

    #[test]
    fn classification_matches_the_knobs() {
        assert_eq!(classify(&FaultPlan::quiet(1)), PlanClass::Benign);
        assert_eq!(
            classify(&FaultPlan::slow_straggler(1, 0, 2)),
            PlanClass::Benign
        );
        assert_eq!(
            classify(&FaultPlan::crash_one(1, 2, 3)),
            PlanClass::CrashOnly
        );
        assert_eq!(
            classify(&FaultPlan::corrupt_link(1, 0.1, 0.0)),
            PlanClass::Lossy
        );
        assert_eq!(
            classify(&FaultPlan::flaky_network(1, 0.1, 0.0, 0)),
            PlanClass::Lossy
        );
    }

    /// The acceptance demo: against a deliberately broken invariant
    /// ("any plan that crashes rank 1 fails"), the shrinker must strip
    /// a kitchen-sink plan down to exactly that one crash and emit a
    /// replayable JSON repro.
    #[test]
    fn shrinker_reduces_a_kitchen_sink_plan_to_the_minimal_repro() {
        let mut plan = FaultPlan::flaky_network(5, 0.05, 0.04, 2);
        plan.corrupt_prob = 0.03;
        plan.truncate_prob = 0.02;
        plan.stragglers.push(Straggler {
            rank: 0,
            delay_ms: 2,
        });
        plan.crashes.push(Crash {
            rank: 1,
            at_step: 4,
        });
        plan.crashes.push(Crash {
            rank: 2,
            at_step: 5,
        });
        plan.partitions.push(Partition {
            a: 0,
            b: 3,
            from_seq: 2,
            to_seq: 6,
        });

        let mut checks = 0u32;
        let broken_invariant =
            |p: &FaultPlan| p.crashes.iter().any(|c| c.rank == 1 && c.at_step == 4);
        let minimal = shrink(&plan, |p| {
            checks += 1;
            broken_invariant(p)
        });

        let mut expected = FaultPlan::quiet(plan.seed);
        expected.crashes.push(Crash {
            rank: 1,
            at_step: 4,
        });
        assert_eq!(minimal, expected, "1-minimal: only the culprit remains");
        assert!(checks > 0 && checks < 200, "greedy, not exhaustive");

        let repro = Repro {
            schema: REPRO_SCHEMA.to_string(),
            sweep_seed: 9,
            schedule: 3,
            topology: "monolithic".to_string(),
            fabric: "poll".to_string(),
            invariant: "classified-recovery".to_string(),
            detail: "demo".to_string(),
            shrunk_plan: minimal.clone(),
            original_plan: plan,
        };
        let json = repro.to_json();
        // the repro replays: the emitted plan parses back to the minimum
        let parsed: Repro = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.shrunk_plan, minimal);
        assert_eq!(parsed.shrunk_plan.crashes.len(), 1);
        assert_eq!(parsed.shrunk_plan.drop_prob, 0.0);
    }

    #[test]
    fn shrinker_returns_an_unshrinkable_plan_unchanged() {
        let plan = FaultPlan::crash_one(3, 0, 2);
        let out = shrink(&plan, |p| !p.crashes.is_empty());
        assert_eq!(out, plan);
        // and a never-failing check shrinks all the way to quiet
        let noisy = FaultPlan::flaky_network(3, 0.1, 0.1, 2);
        let out = shrink(&noisy, |_| true);
        assert_eq!(out, FaultPlan::quiet(3));
    }

    /// A real (tiny) end-to-end run: the fault-free monolithic schedule
    /// is its own baseline and must pass every invariant, twice, with
    /// identical fingerprints (the bit-identity floor the sweep's
    /// benign checks stand on).
    #[test]
    fn fault_free_training_run_is_reproducible_and_clean() {
        let knobs = TrainingKnobs::quick(3);
        let quiet = FaultPlan::quiet(1);
        let chan = FabricKind::Channel;
        let a =
            run_training(Topology::Monolithic, chan, &quiet, &knobs, None).expect("baseline run");
        let b =
            run_training(Topology::Monolithic, chan, &quiet, &knobs, None).expect("baseline rerun");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "fault-free runs are bit-identical"
        );
        assert!(verify_training(&quiet, &a, b.fingerprint, &knobs, None).is_none());
        assert_eq!(a.evictions, 0);
        assert_eq!(a.failed, 0);
        assert_eq!(a.full_run, knobs.cfg.n_workers);
    }

    /// The bucketed topology is the monolithic one in a different wire
    /// format: fault-free it must land on the *same* fingerprint, and a
    /// lossy schedule (drops + frame corruption, landing mid-assembly)
    /// must still satisfy every sweep invariant.
    #[test]
    fn bucketed_topology_matches_monolithic_and_survives_loss() {
        let knobs = TrainingKnobs::quick(3);
        let quiet = FaultPlan::quiet(1);
        let chan = FabricKind::Channel;
        let bucketed = run_training(Topology::Bucketed, chan, &quiet, &knobs, None)
            .expect("bucketed baseline");
        let mono = run_training(Topology::Monolithic, chan, &quiet, &knobs, None)
            .expect("monolithic baseline");
        assert_eq!(
            bucketed.fingerprint, mono.fingerprint,
            "bucketing changes the wire format, not the outcome"
        );
        assert!(verify_training(&quiet, &bucketed, mono.fingerprint, &knobs, None).is_none());

        let mut lossy = FaultPlan::flaky_network(7, 0.05, 0.0, 0);
        lossy.corrupt_prob = 0.03;
        let run = run_training(Topology::Bucketed, chan, &lossy, &knobs, None)
            .expect("lossy bucketed run");
        assert!(
            verify_training(&lossy, &run, bucketed.fingerprint, &knobs, None).is_none(),
            "lossy bucketed run must terminate, conserve, and resolve every worker"
        );
    }

    /// The named table is a fixed contract: each plan classifies as its
    /// row says, and each PS crash restarts a shard its layout has.
    #[test]
    fn named_scenarios_classify_as_their_rows_say() {
        let workers = TrainingKnobs::quick(4).cfg.n_workers;
        let table = named_scenarios(42, workers);
        assert_eq!(table.len(), 9);
        for s in &table {
            assert_eq!(classify(&s.plan), s.class, "{}", s.name);
            assert_eq!(
                s.plan.server_crash.is_some(),
                s.recovery.is_some(),
                "{}: a planned PS crash is a scheduled restart",
                s.name
            );
            if let Some(rec) = s.recovery {
                assert!(rec.shard < s.topo.shards(), "{}: victim shard", s.name);
            }
        }
        let torn: Vec<_> = table
            .iter()
            .filter(|s| s.recovery.is_some_and(|r| r.tear_current))
            .map(|s| s.name)
            .collect();
        assert_eq!(torn, ["crash-ps-midckpt"]);
    }

    /// One quiet plan over a 2-worker mesh on each endpoint type: the
    /// same fingerprint everywhere, and conservation holds whether the
    /// fabric shares one `CommStats` or each endpoint owns its own.
    #[test]
    fn quiet_plan_is_bit_identical_across_fabrics() {
        let mut knobs = TrainingKnobs::quick(3);
        knobs.cfg.n_workers = 2;
        let quiet = FaultPlan::quiet(1);
        let runs: Vec<TrainingRun> = FabricKind::ALL
            .iter()
            .map(|&f| {
                run_training(Topology::Monolithic, f, &quiet, &knobs, None).expect("quiet run")
            })
            .collect();
        for (f, run) in FabricKind::ALL.iter().zip(&runs) {
            assert_eq!(run.fingerprint, runs[0].fingerprint, "{}", f.name());
            assert!(run.chaos.forwarded > 0);
            assert!(
                verify_training(&quiet, run, runs[0].fingerprint, &knobs, None).is_none(),
                "{}",
                f.name()
            );
        }
    }
}
