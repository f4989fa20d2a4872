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
//! Runs use the in-process channel fabric: per-schedule TCP mesh setup
//! would dominate the sweep, and the wire-level integrity of real
//! sockets is covered separately (`crates/net` torn-frame suite,
//! `fault_experiments` TCP rows). Byte-level corruption still exercises
//! the real codec — [`ChaosTransport`] damages *encoded frames* and
//! feeds them back through `selsync_net::decode_frame`.

use selsync_chaos::{ChaosTransport, Crash, FaultPlan, Partition, Straggler};
use selsync_comm::{Fabric, Transport};
use selsync_core::prelude::*;
use selsync_core::trainer::WorkerOutput;
use selsync_core::ElasticOptions;
use selsync_core::{run_elastic_server_rank, run_elastic_worker_rank};
use selsync_nn::models::ModelKind;
use selsync_serve::{
    run_client, run_replica, run_router, ClientConfig, ModelSpec, PredictEngine, Ranks,
    ReplicaConfig, RouterConfig,
};
use selsync_shard::{Role, ShardLayout};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::mpsc;
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

/// The minimal reproduction emitted when a schedule fails — everything
/// needed to replay: the shrunk plan (and the original it came from),
/// the topology, and what broke.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct Repro {
    pub schema: String,
    pub sweep_seed: u64,
    pub schedule: u64,
    pub topology: String,
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

/// Everything a training schedule produced, condensed for checking.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    pub rounds: u64,
    pub syncs: u64,
    pub evictions: usize,
    pub completed: usize,
    pub failed: usize,
    pub full_run: usize,
    pub fingerprint: u64,
    pub sent: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupt: u64,
    pub forwarded: u64,
    pub wall_ms: u64,
}

/// Fixed per-sweep training parameters (model, cluster size, budget).
#[derive(Clone)]
pub struct TrainingKnobs {
    pub workers: usize,
    pub steps: u64,
    pub cfg: RunConfig,
    pub wl: Workload,
    pub opts: ElasticOptions,
    pub deadline: Duration,
}

impl TrainingKnobs {
    /// CI-scale knobs: 3 workers, a few steps of the small conv net,
    /// liveness tuned so loss-type faults resolve in a second or two.
    pub fn quick(steps: u64) -> TrainingKnobs {
        let workers = 3;
        let cfg = RunConfig {
            strategy: Strategy::SelSync {
                delta: 0.25,
                aggregation: Aggregation::Parameter,
            },
            n_workers: workers,
            max_steps: steps,
            eval_every: steps,
            ..RunConfig::quick_defaults()
        };
        let wl = Workload::vision(ModelKind::VggMini, 64, 16, 7);
        let mut opts = ElasticOptions::with_liveness(Duration::from_millis(150), 3);
        opts.comm_retries = 6;
        TrainingKnobs {
            workers,
            steps,
            cfg,
            wl,
            opts,
            deadline: Duration::from_secs(60),
        }
    }
}

struct RawRun {
    rounds: u64,
    syncs: u64,
    evictions: usize,
    completed: Vec<WorkerOutput>,
    failed: usize,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    corrupt: u64,
    forwarded: u64,
}

/// Tally one rank's chaos layer into the run totals.
fn tally<T: Transport>(raw: &mut RawRun, cep: &ChaosTransport<T>) {
    let s = cep.stats();
    raw.sent += s.total_messages();
    raw.dropped += s.dropped_messages();
    raw.duplicated += s.duplicated_messages();
    raw.corrupt += s.corrupt_messages();
}

/// Drive one elastic run — workers `0..W`, a `k`-shard PS group after
/// them — with every endpoint wrapped in a [`ChaosTransport`] executing
/// `plan`.
fn drive_training(k: usize, plan: &FaultPlan, knobs: &TrainingKnobs) -> Result<RawRun, String> {
    let layout = ShardLayout::new(k, knobs.workers, false);
    let endpoints = Fabric::new(layout.total_ranks());
    // the channel fabric shares one CommStats across endpoints: its
    // total is exactly "messages every rank's chaos layer forwarded"
    let fabric_stats = endpoints[0].stats().clone();
    let mut servers = Vec::new();
    let mut workers = Vec::new();
    for ep in endpoints {
        let (cfg, wl, plan) = (knobs.cfg.clone(), knobs.wl.clone(), plan.clone());
        let mut opts = knobs.opts.clone();
        match layout.role_of(ep.id()) {
            Role::Worker(_) => {
                opts.crash_at = plan.crash_step(ep.id());
                workers.push(thread::spawn(move || {
                    let mut cep = ChaosTransport::new(ep, plan);
                    let res = run_elastic_worker_rank(&mut cep, &cfg, &wl, &opts, layout);
                    (res, cep)
                }));
            }
            Role::Shard(_) => servers.push(thread::spawn(move || {
                let mut cep = ChaosTransport::new(ep, plan);
                let res = run_elastic_server_rank(&mut cep, &cfg, &wl, &opts, layout);
                (res, cep)
            })),
            Role::Standby(_) => unreachable!("soak runs without standbys"),
        }
    }

    let mut raw = RawRun {
        rounds: 0,
        syncs: 0,
        evictions: 0,
        completed: Vec::new(),
        failed: 0,
        sent: 0,
        dropped: 0,
        duplicated: 0,
        corrupt: 0,
        forwarded: 0,
    };
    for h in workers {
        let (res, cep) = h.join().expect("worker thread");
        tally(&mut raw, &cep);
        match res {
            Ok(out) => raw.completed.push(out),
            Err(_) => raw.failed += 1,
        }
    }
    for (s, h) in servers.into_iter().enumerate() {
        let (res, cep) = h.join().expect("server thread");
        tally(&mut raw, &cep);
        let report = res.map_err(|e| format!("PS shard {s} failed: {e}"))?;
        if s == 0 {
            // shard 0 is the authoritative membership view
            raw.rounds = report.rounds;
            raw.syncs = report.syncs;
            raw.evictions = report.evictions.len();
        }
    }
    raw.completed.sort_by_key(|o| o.worker);
    raw.forwarded = fabric_stats.total_messages();
    Ok(raw)
}

/// Run one training schedule under a deadline watchdog. A hang becomes
/// a `deadline` violation, a panicking rank a `no-panic` violation, a
/// dead server a `server-survival` violation.
pub fn run_training(
    topo: Topology,
    plan: &FaultPlan,
    knobs: &TrainingKnobs,
) -> Result<TrainingRun, Violation> {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    {
        let (plan, knobs) = (plan.clone(), knobs.clone());
        thread::spawn(move || {
            let mut knobs = knobs;
            if topo == Topology::Bucketed {
                // identical cluster, bucketed wire format: the elastic
                // param push becomes several Bucket frames
                knobs.cfg.overlap_buckets = Some(SOAK_BUCKET_VALUES);
            }
            let _ = tx.send(drive_training(topo.shards(), &plan, &knobs));
        });
    }
    let raw = match rx.recv_timeout(knobs.deadline) {
        Ok(Ok(raw)) => raw,
        Ok(Err(e)) => return Err(Violation::new("server-survival", e)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            return Err(Violation::new(
                "deadline",
                format!("run exceeded the {:?} budget", knobs.deadline),
            ))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(Violation::new(
                "no-panic",
                "a rank thread panicked mid-run".to_string(),
            ))
        }
    };
    let full_run = raw
        .completed
        .iter()
        .filter(|o| o.lssr.total() == knobs.steps)
        .count();
    Ok(TrainingRun {
        rounds: raw.rounds,
        syncs: raw.syncs,
        evictions: raw.evictions,
        completed: raw.completed.len(),
        failed: raw.failed,
        full_run,
        fingerprint: training_fingerprint(&raw.completed),
        sent: raw.sent,
        dropped: raw.dropped,
        duplicated: raw.duplicated,
        corrupt: raw.corrupt,
        forwarded: raw.forwarded,
        wall_ms: start.elapsed().as_millis() as u64,
    })
}

/// Check every class-dependent invariant of a completed training run.
/// `baseline` is the fault-free fingerprint for the same topology.
pub fn verify_training(
    plan: &FaultPlan,
    run: &TrainingRun,
    baseline: u64,
    knobs: &TrainingKnobs,
) -> Option<Violation> {
    // conservation holds for every class: nothing the chaos layer did
    // is unaccounted for
    let balance = run.sent - run.dropped - run.corrupt + run.duplicated;
    if balance != run.forwarded {
        return Some(Violation::new(
            "conservation",
            format!(
                "sent {} − dropped {} − corrupt {} + duplicated {} = {} ≠ forwarded {}",
                run.sent, run.dropped, run.corrupt, run.duplicated, balance, run.forwarded
            ),
        ));
    }
    match classify(plan) {
        PlanClass::Benign => {
            if run.evictions != 0 {
                return Some(Violation::new(
                    "no-unexpected-eviction",
                    format!("benign plan evicted {} rank(s)", run.evictions),
                ));
            }
            if run.failed != 0 || run.full_run != knobs.workers {
                return Some(Violation::new(
                    "classified-recovery",
                    format!(
                        "benign plan: {} failed, {}/{} full-run workers",
                        run.failed, run.full_run, knobs.workers
                    ),
                ));
            }
            if run.fingerprint != baseline {
                return Some(Violation::new(
                    "bit-identity",
                    format!(
                        "benign run fingerprint 0x{:016x} ≠ fault-free 0x{:016x}",
                        run.fingerprint, baseline
                    ),
                ));
            }
        }
        PlanClass::CrashOnly => {
            let crashes = plan.crashes.len();
            if run.failed != 0 {
                return Some(Violation::new(
                    "classified-recovery",
                    format!(
                        "crash-only plan: {} unexplained worker failure(s)",
                        run.failed
                    ),
                ));
            }
            if run.evictions != crashes {
                return Some(Violation::new(
                    "classified-recovery",
                    format!(
                        "crash-only plan scheduled {} crash(es) but {} eviction(s) happened",
                        crashes, run.evictions
                    ),
                ));
            }
            if run.full_run != knobs.workers - crashes {
                return Some(Violation::new(
                    "classified-recovery",
                    format!(
                        "{} survivors should have run all {} steps, {} did",
                        knobs.workers - crashes,
                        knobs.steps,
                        run.full_run
                    ),
                ));
            }
        }
        PlanClass::Lossy => {
            // evictions/failures are legitimate recovery here; what
            // must still hold is the accounting above and that every
            // worker resolved one way or the other
            if run.completed + run.failed != knobs.workers {
                return Some(Violation::new(
                    "classified-recovery",
                    format!(
                        "{} completed + {} failed ≠ {} workers",
                        run.completed, run.failed, knobs.workers
                    ),
                ));
            }
        }
    }
    None
}

/// Everything a serve schedule produced, condensed for checking.
#[derive(Debug, Clone)]
pub struct ServeRun {
    pub completed: u64,
    pub evicted: Vec<usize>,
    pub requeued: u64,
    pub fingerprint: u64,
    pub sent: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupt: u64,
    pub forwarded: u64,
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

const SOAK_MLP_DIMS: [usize; 3] = [16, 32, 8];

/// The MLP spec the soak checkpoint is written for (binary + tests).
pub fn soak_model_dims() -> Vec<usize> {
    SOAK_MLP_DIMS.to_vec()
}

fn drive_serve(plan: &FaultPlan, knobs: &ServeKnobs) -> Result<RawServe, String> {
    let ranks = Ranks::new(knobs.replicas);
    let mut eps = Fabric::new(knobs.replicas + 2);
    let fabric_stats = eps[0].stats().clone();
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

    let mut raw = RawServe {
        completed: report.completed,
        evicted: Vec::new(),
        requeued: 0,
        fingerprint: 0,
        sent: 0,
        dropped: 0,
        duplicated: 0,
        corrupt: 0,
        forwarded: 0,
    };
    let s = client.stats();
    raw.sent += s.total_messages();
    raw.dropped += s.dropped_messages();
    raw.duplicated += s.duplicated_messages();
    raw.corrupt += s.corrupt_messages();
    for h in replica_handles {
        let (res, cep) = h.join().expect("replica thread");
        let s = cep.stats();
        raw.sent += s.total_messages();
        raw.dropped += s.dropped_messages();
        raw.duplicated += s.duplicated_messages();
        raw.corrupt += s.corrupt_messages();
        res.map_err(|e| format!("replica: {e}"))?;
    }
    let (router_res, cep) = router.join().expect("router thread");
    let s = cep.stats();
    raw.sent += s.total_messages();
    raw.dropped += s.dropped_messages();
    raw.duplicated += s.duplicated_messages();
    raw.corrupt += s.corrupt_messages();
    let router_report = router_res.map_err(|e| format!("router: {e}"))?;
    raw.evicted = router_report.evicted;
    raw.requeued = router_report.requeued_batches;

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
    raw.fingerprint = h;
    raw.forwarded = fabric_stats.total_messages();
    Ok(raw)
}

struct RawServe {
    completed: u64,
    evicted: Vec<usize>,
    requeued: u64,
    fingerprint: u64,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    corrupt: u64,
    forwarded: u64,
}

/// Run one serve schedule under the same watchdog contract as
/// [`run_training`].
pub fn run_serve(plan: &FaultPlan, knobs: &ServeKnobs) -> Result<ServeRun, Violation> {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    {
        let (plan, knobs) = (plan.clone(), knobs.clone());
        thread::spawn(move || {
            let _ = tx.send(drive_serve(&plan, &knobs));
        });
    }
    let raw = match rx.recv_timeout(knobs.deadline) {
        Ok(Ok(raw)) => raw,
        Ok(Err(e)) => return Err(Violation::new("server-survival", e)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            return Err(Violation::new(
                "deadline",
                format!("serve run exceeded the {:?} budget", knobs.deadline),
            ))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(Violation::new(
                "no-panic",
                "a serving thread panicked mid-run".to_string(),
            ))
        }
    };
    Ok(ServeRun {
        completed: raw.completed,
        evicted: raw.evicted,
        requeued: raw.requeued,
        fingerprint: raw.fingerprint,
        sent: raw.sent,
        dropped: raw.dropped,
        duplicated: raw.duplicated,
        corrupt: raw.corrupt,
        forwarded: raw.forwarded,
        wall_ms: start.elapsed().as_millis() as u64,
    })
}

/// Check every invariant of a completed serve run.
pub fn verify_serve(
    plan: &FaultPlan,
    run: &ServeRun,
    baseline: u64,
    knobs: &ServeKnobs,
) -> Option<Violation> {
    let balance = run.sent - run.dropped - run.corrupt + run.duplicated;
    if balance != run.forwarded {
        return Some(Violation::new(
            "conservation",
            format!(
                "sent {} − dropped {} − corrupt {} + duplicated {} = {} ≠ forwarded {}",
                run.sent, run.dropped, run.corrupt, run.duplicated, balance, run.forwarded
            ),
        ));
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
    for i in 0..p.crashes.len() {
        let mut c = p.clone();
        c.crashes.remove(i);
        out.push(c);
    }
    for i in 0..p.partitions.len() {
        let mut c = p.clone();
        c.partitions.remove(i);
        out.push(c);
    }
    for i in 0..p.stragglers.len() {
        let mut c = p.clone();
        c.stragglers.remove(i);
        out.push(c);
    }
    if p.server_crash.is_some() {
        let mut c = p.clone();
        c.server_crash = None;
        out.push(c);
    }
    if p.drop_prob > 0.0 {
        let mut c = p.clone();
        c.drop_prob = 0.0;
        out.push(c);
    }
    if p.duplicate_prob > 0.0 {
        let mut c = p.clone();
        c.duplicate_prob = 0.0;
        out.push(c);
    }
    if p.corrupt_prob > 0.0 {
        let mut c = p.clone();
        c.corrupt_prob = 0.0;
        out.push(c);
    }
    if p.truncate_prob > 0.0 {
        let mut c = p.clone();
        c.truncate_prob = 0.0;
        out.push(c);
    }
    if p.delay_ms_max > 0 {
        let mut c = p.clone();
        c.delay_ms_max = 0;
        out.push(c);
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
        for i in 0..160u64 {
            let topo = topos[(i % 4) as usize];
            // serve plans are drawn over the replica count (2), not the
            // training worker count — rank 2 would be the router
            let ranks = if topo == Topology::Serve { 2 } else { 3 };
            let a = random_plan(9, i, topo, ranks, 6);
            let b = random_plan(9, i, topo, ranks, 6);
            assert_eq!(a, b, "pure function of (seed, index, topo, W, steps)");
            seen.insert(classify(&a));
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
            schema: "selsync-soak-repro-v1".to_string(),
            sweep_seed: 9,
            schedule: 3,
            topology: "monolithic".to_string(),
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
        let a = run_training(Topology::Monolithic, &quiet, &knobs).expect("baseline run");
        let b = run_training(Topology::Monolithic, &quiet, &knobs).expect("baseline rerun");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "fault-free runs are bit-identical"
        );
        assert!(verify_training(&quiet, &a, b.fingerprint, &knobs).is_none());
        assert_eq!(a.evictions, 0);
        assert_eq!(a.failed, 0);
        assert_eq!(a.full_run, knobs.workers);
    }

    /// The bucketed topology is the monolithic one in a different wire
    /// format: fault-free it must land on the *same* fingerprint, and a
    /// lossy schedule (drops + frame corruption, landing mid-assembly)
    /// must still satisfy every sweep invariant.
    #[test]
    fn bucketed_topology_matches_monolithic_and_survives_loss() {
        let knobs = TrainingKnobs::quick(3);
        let quiet = FaultPlan::quiet(1);
        let bucketed = run_training(Topology::Bucketed, &quiet, &knobs).expect("bucketed baseline");
        let mono = run_training(Topology::Monolithic, &quiet, &knobs).expect("monolithic baseline");
        assert_eq!(
            bucketed.fingerprint, mono.fingerprint,
            "bucketing changes the wire format, not the outcome"
        );
        assert!(verify_training(&quiet, &bucketed, mono.fingerprint, &knobs).is_none());

        let mut lossy = FaultPlan::flaky_network(7, 0.05, 0.0, 0);
        lossy.corrupt_prob = 0.03;
        let run = run_training(Topology::Bucketed, &lossy, &knobs).expect("lossy bucketed run");
        assert!(
            verify_training(&lossy, &run, bucketed.fingerprint, &knobs).is_none(),
            "lossy bucketed run must terminate, conserve, and resolve every worker"
        );
    }
}
