//! Fault-tolerance experiments: seeded chaos scenarios driven through
//! the elastic SelSync trainer, each run twice — over the in-process
//! channel fabric and over real loopback TCP sockets.
//!
//! The paper's testbed (docker-swarm over a shared cluster) saw real
//! node failures and stragglers; this harness reproduces those
//! conditions deterministically. Every scenario is a [`FaultPlan`]:
//! same seed ⇒ same per-link drop/duplicate/delay schedule on either
//! fabric, so rows are comparable across transports.
//!
//! Scenarios:
//!
//! * `fault-free`      — baseline: the elastic protocol adds heartbeats
//!   but no faults fire;
//! * `crash-one-worker` — the highest rank goes silent a third of the
//!   way in; the PS evicts it and the survivors re-partition and finish;
//! * `slow-straggler`   — one rank sleeps before every send; nobody is
//!   evicted, training just paces at the straggler;
//! * `flaky-network`    — seeded random drops/duplicates/delays on every
//!   link; retries and catch-up replies absorb most of it, and any rank
//!   the PS gives up on is evicted while the rest finish.
//! * `corrupt-link`     — seeded bit-flips and truncations damage the
//!   encoded bytes of random frames; every damaged frame flows through
//!   the real decoder, fails its CRC (or length audit), and is counted
//!   corrupt and lost — the protocol absorbs it exactly like a drop.
//! * `crash-ps-midrun`  — the PS itself dies at a round boundary and
//!   restarts from its crash-consistent checkpoint; workers resend
//!   until it answers and nobody is evicted.
//! * `crash-ps-midckpt` — the PS dies *mid-sync* and its current
//!   checkpoint generation is torn on top of that; recovery falls back
//!   to the retained `.prev` generation and replays the lost round from
//!   the workers' resent pushes.
//! * `crash-one-shard`  — K = 2 PS group: one shard dies mid-sync and
//!   resumes from *its own* `.s<shard>` checkpoint while the sibling
//!   shard keeps serving its range; nobody is evicted.
//! * `shard-skew`       — K = 2 PS group: one shard answers slowly,
//!   pacing every fan-out round at the slowest shard — the server-side
//!   analogue of `slow-straggler`.
//!
//! Every scenario but the last two runs the default K = 1 group (one
//! server, on the rank after the workers).
//!
//! One JSON row per (scenario × fabric), after the aligned table.

use selsync_bench::{banner, json_row};
use selsync_chaos::{ChaosTransport, FaultPlan};
use selsync_comm::elastic::ServerCrashPoint;
use selsync_comm::{CommStats, Fabric, Transport, TransportError};
use selsync_core::checkpoint::load_state_with_fallback;
use selsync_core::prelude::*;
use selsync_core::trainer::WorkerOutput;
use selsync_core::ElasticOptions;
use selsync_core::{
    run_elastic_server_rank, run_elastic_server_rank_from, run_elastic_worker_rank,
    shard_state_path,
};
use selsync_net::TcpEndpoint;
use selsync_nn::models::ModelKind;
use selsync_shard::{Role, ShardLayout};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    fabric: &'static str,
    workers: usize,
    steps: u64,
    seed: u64,
    rounds: u64,
    syncs: u64,
    evictions: usize,
    completed_workers: usize,
    failed_workers: usize,
    full_run_workers: usize,
    final_metric: Option<f32>,
    ps_recovered: bool,
    chaos_sent_messages: u64,
    chaos_dropped_messages: u64,
    chaos_duplicated_messages: u64,
    chaos_corrupt_messages: u64,
    fault_fingerprint: String,
    wall_ms: u64,
}

/// Per-rank chaos accounting snapshot, taken after the rank's run.
struct RankChaos {
    sent: u64,
    dropped: u64,
    duplicated: u64,
    corrupt: u64,
    fingerprint: u64,
}

fn snapshot<T: Transport>(cep: &ChaosTransport<T>) -> RankChaos {
    let stats: &Arc<CommStats> = cep.stats();
    RankChaos {
        sent: stats.total_messages(),
        dropped: stats.dropped_messages(),
        duplicated: stats.duplicated_messages(),
        corrupt: stats.corrupt_messages(),
        fingerprint: cep.log_fingerprint(),
    }
}

struct Outcome {
    rounds: u64,
    syncs: u64,
    evictions: usize,
    completed: Vec<WorkerOutput>,
    failed: usize,
    chaos: Vec<RankChaos>,
    ps_recovered: bool,
    wall: Duration,
}

/// How a scheduled PS crash is recovered in-process: shard `shard`'s
/// server honors the scheduled `opts.server_crash` (its siblings serve
/// on), waits, optionally tears the current checkpoint generation
/// (forcing the `.prev` fallback), reloads its own checkpoint file, and
/// continues the run on the same endpoint.
#[derive(Clone)]
struct PsRecovery {
    shard: usize,
    /// The run's base checkpoint path (see [`shard_state_path`]).
    checkpoint: PathBuf,
    restart_after: Duration,
    tear_current: bool,
}

/// Truncate the current generation mid-byte — simulated bit rot of the
/// newest file, strictly harsher than a real mid-write kill (the
/// temp-file + atomic-rename writer never opens the current generation
/// for writing). Only fires when a `.prev` generation exists to fall
/// back on: with a single generation the damage is unrecoverable by
/// construction, which is a statement about the simulated disk, not
/// about the recovery protocol under test.
fn tear_checkpoint(path: &PathBuf) {
    if !selsync_core::checkpoint::prev_path(path).exists() {
        return;
    }
    if let Ok(bytes) = std::fs::read(path) {
        let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
    }
}

/// Drive one full elastic run over the workers-first `layout` — workers
/// `0..n`, the K-shard PS group after them — with every endpoint wrapped
/// in a [`ChaosTransport`] executing `plan`.
fn run_scenario<T: Transport + Send + 'static>(
    endpoints: Vec<T>,
    layout: ShardLayout,
    cfg: &RunConfig,
    wl: &Workload,
    opts: &ElasticOptions,
    plan: &FaultPlan,
    recovery: Option<PsRecovery>,
) -> Outcome {
    let start = Instant::now();
    let mut servers = Vec::new();
    let mut workers = Vec::new();
    for ep in endpoints {
        let (cfg, wl, plan) = (cfg.clone(), wl.clone(), plan.clone());
        let mut opts = opts.clone();
        match layout.role_of(ep.id()) {
            Role::Worker(_) => {
                opts.crash_at = plan.crash_step(ep.id());
                workers.push(thread::spawn(move || {
                    let mut cep = ChaosTransport::new(ep, plan);
                    let res = run_elastic_worker_rank(&mut cep, &cfg, &wl, &opts, layout);
                    (res, snapshot(&cep))
                }));
            }
            Role::Shard(s) => {
                let rec = recovery.clone().filter(|r| r.shard == s);
                if rec.is_none() {
                    // the crash schedule is per-process: siblings serve on
                    opts.server_crash = None;
                }
                servers.push(thread::spawn(move || {
                    let mut cep = ChaosTransport::new(ep, plan);
                    let mut recovered = false;
                    let mut res = run_elastic_server_rank(&mut cep, &cfg, &wl, &opts, layout);
                    if let (Ok(report), Some(rec)) = (&res, &rec) {
                        if report.crashed {
                            thread::sleep(rec.restart_after);
                            let ckpt = shard_state_path(&rec.checkpoint, &layout, s);
                            if rec.tear_current {
                                tear_checkpoint(&ckpt);
                            }
                            res = match load_state_with_fallback(&ckpt) {
                                Ok((state, fallback)) => {
                                    println!(
                                        "  recovery=ps_resumed shard={s} step={} syncs={} \
                                         fallback_prev={}",
                                        state.step,
                                        state.syncs,
                                        u8::from(fallback)
                                    );
                                    recovered = true;
                                    let mut ropts = opts.clone();
                                    ropts.server_crash = None;
                                    run_elastic_server_rank_from(
                                        &mut cep, &cfg, &wl, &ropts, layout, &state,
                                    )
                                }
                                Err(e) => Err(TransportError::Protocol(format!(
                                    "recovering {}: {e}",
                                    ckpt.display()
                                ))),
                            };
                        }
                    }
                    (res, snapshot(&cep), recovered)
                }));
            }
            Role::Standby(_) => unreachable!("scenarios run without standbys"),
        }
    }

    let mut completed = Vec::new();
    let mut failed = 0;
    let mut chaos = Vec::new();
    for h in workers {
        let (res, snap) = h.join().expect("worker thread");
        chaos.push(snap);
        match res {
            Ok(out) => completed.push(out),
            Err(e) => {
                eprintln!("  worker fault (absorbed by eviction): {e}");
                failed += 1;
            }
        }
    }
    let mut ps_recovered = false;
    let mut reports = Vec::new();
    for h in servers {
        let (res, snap, recovered) = h.join().expect("server thread");
        chaos.push(snap);
        ps_recovered |= recovered;
        reports.push(res.expect("every PS shard must survive (or recover from) the scenario"));
    }
    completed.sort_by_key(|o| o.worker);

    Outcome {
        // shard 0 is the authoritative membership view
        rounds: reports[0].rounds,
        syncs: reports[0].syncs,
        evictions: reports[0].evictions.len(),
        completed,
        failed,
        chaos,
        ps_recovered,
        wall: start.elapsed(),
    }
}

fn tcp_fabric(n_ranks: usize) -> Vec<TcpEndpoint> {
    TcpEndpoint::loopback_mesh(n_ranks, |cfg| cfg.recv_timeout = Duration::from_secs(60))
        .expect("loopback mesh")
}

fn emit(row: &Row) {
    println!(
        "{:<18} {:<8} {:>6} {:>5} {:>6} {:>5}/{:<2} {:>5} {:>4} {:>4} {:>8} {:>7}",
        row.scenario,
        row.fabric,
        row.rounds,
        row.syncs,
        row.evictions,
        row.full_run_workers,
        row.workers,
        row.chaos_dropped_messages,
        row.chaos_duplicated_messages,
        row.chaos_corrupt_messages,
        row.final_metric
            .map_or_else(|| "-".to_string(), |m| format!("{:.3}", m)),
        format!("{}ms", row.wall_ms),
    );
    json_row(row);
}

fn main() {
    banner(
        "Fault experiments",
        "Seeded chaos over elastic SelSync (channel + TCP fabrics)",
    );
    let n: usize = std::env::var("SELSYNC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let steps: u64 = std::env::var("SELSYNC_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let seed = 42;
    let cfg = RunConfig {
        strategy: Strategy::SelSync {
            delta: 0.25,
            aggregation: Aggregation::Parameter,
        },
        n_workers: n,
        max_steps: steps,
        eval_every: steps,
        ..RunConfig::quick_defaults()
    };
    let wl = Workload::vision(ModelKind::VggMini, 96, 32, 7);

    // liveness policy: rounds comfortably longer than a training step,
    // eviction after two silent rounds, patient worker-side retries
    let calm = {
        let mut o = ElasticOptions::with_liveness(Duration::from_millis(150), 2);
        o.reply_timeout = Duration::from_secs(10);
        o
    };
    // under random drops the worker must resend well before its own
    // patience runs out; the PS answers stale resends with catch-up
    // replies, and a rank it gives up on gets evicted, not hung
    let flaky_opts = {
        let mut o = ElasticOptions::with_liveness(Duration::from_millis(200), 3);
        o.comm_retries = 6;
        o
    };

    // PS-crash scenarios need prompt worker resends (the first resend
    // is what wakes the recovered server) and a patient failover budget
    let ps_crash_opts = {
        let mut o = ElasticOptions::with_liveness(Duration::from_millis(300), 3);
        o.ps_patience = Duration::from_secs(30);
        o
    };

    // (name, PS shards, plan, options, scheduled PS crash: victim shard,
    // crash point, torn-write flag)
    type CrashSpec = Option<(usize, ServerCrashPoint, bool)>;
    let scenarios: Vec<(&'static str, usize, FaultPlan, &ElasticOptions, CrashSpec)> = vec![
        ("fault-free", 1, FaultPlan::quiet(seed), &calm, None),
        (
            "crash-one-worker",
            1,
            FaultPlan::crash_one(seed, n - 1, steps / 3),
            &calm,
            None,
        ),
        (
            "slow-straggler",
            1,
            FaultPlan::slow_straggler(seed, 1 % n, 3),
            &calm,
            None,
        ),
        (
            "flaky-network",
            1,
            FaultPlan::flaky_network(seed, 0.02, 0.03, 2),
            &flaky_opts,
            None,
        ),
        (
            // byte-level damage at roughly the flaky-network loss rate:
            // a corrupted frame dies at the decoder's CRC check, a
            // truncated one at the length audit — either way the
            // protocol sees a lost message and resends
            "corrupt-link",
            1,
            FaultPlan::corrupt_link(seed, 0.02, 0.01),
            &flaky_opts,
            None,
        ),
        (
            "crash-ps-midrun",
            1,
            FaultPlan::crash_server(seed, steps / 3, 150),
            &ps_crash_opts,
            Some((0, ServerCrashPoint::RoundStart(steps / 3), false)),
        ),
        (
            // crash at the first sync round past step 2: early steps
            // always sync (Δ(g) starts high), so at least two durable
            // generations exist for the torn-write fallback
            "crash-ps-midckpt",
            1,
            FaultPlan::crash_server(seed, 2, 150),
            &ps_crash_opts,
            Some((0, ServerCrashPoint::MidSync(2), true)),
        ),
        (
            // K = 2, no standbys: shard 1 is the victim, shard 0 stays
            // authoritative
            "crash-one-shard",
            2,
            FaultPlan::crash_one_shard(seed, 2, 150),
            &ps_crash_opts,
            Some((1, ServerCrashPoint::MidSync(2), false)),
        ),
        (
            "shard-skew",
            2,
            FaultPlan::slow_shard(seed, ShardLayout::new(2, n, false).shard_rank(1), 3),
            &calm,
            None,
        ),
    ];

    println!(
        "{:<18} {:<8} {:>6} {:>5} {:>6} {:>8} {:>5} {:>4} {:>4} {:>8} {:>7}",
        "scenario",
        "fabric",
        "rounds",
        "syncs",
        "evict",
        "full/N",
        "drop",
        "dup",
        "corr",
        "metric",
        "wall",
    );
    for (name, k, plan, opts, crash) in &scenarios {
        let layout = ShardLayout::new(*k, n, false);
        for fabric in ["channel", "tcp"] {
            let mut opts = (*opts).clone();
            let recovery = crash.map(|(shard, point, tear_current)| {
                let mut ckpt = std::env::temp_dir();
                ckpt.push(format!(
                    "selsync_faultexp_{}_{name}_{fabric}.ckpt",
                    std::process::id()
                ));
                opts.server_crash = Some(point);
                opts.checkpoint = Some(ckpt.clone());
                let restart_after = Duration::from_millis(
                    plan.server_crash
                        .as_ref()
                        .map_or(150, |c| c.restart_after_ms),
                );
                PsRecovery {
                    shard,
                    checkpoint: ckpt,
                    restart_after,
                    tear_current,
                }
            });
            let ranks = layout.total_ranks();
            let outcome = match fabric {
                "channel" => run_scenario(
                    Fabric::new(ranks),
                    layout,
                    &cfg,
                    &wl,
                    &opts,
                    plan,
                    recovery.clone(),
                ),
                _ => run_scenario(
                    tcp_fabric(ranks),
                    layout,
                    &cfg,
                    &wl,
                    &opts,
                    plan,
                    recovery.clone(),
                ),
            };
            if let Some(rec) = &recovery {
                for s in 0..layout.k {
                    let p = shard_state_path(&rec.checkpoint, &layout, s);
                    let _ = std::fs::remove_file(&p);
                    let _ = std::fs::remove_file(selsync_core::checkpoint::prev_path(&p));
                }
            }
            let full_run = outcome
                .completed
                .iter()
                .filter(|o| o.lssr.total() == steps)
                .count();
            let final_metric = outcome
                .completed
                .iter()
                .find(|o| o.worker == 0)
                .and_then(|o| o.evals.last())
                .map(|e| e.metric);
            emit(&Row {
                scenario: name,
                fabric,
                workers: n,
                steps,
                seed,
                rounds: outcome.rounds,
                syncs: outcome.syncs,
                evictions: outcome.evictions,
                completed_workers: outcome.completed.len(),
                failed_workers: outcome.failed,
                full_run_workers: full_run,
                final_metric,
                ps_recovered: outcome.ps_recovered,
                chaos_sent_messages: outcome.chaos.iter().map(|c| c.sent).sum(),
                chaos_dropped_messages: outcome.chaos.iter().map(|c| c.dropped).sum(),
                chaos_duplicated_messages: outcome.chaos.iter().map(|c| c.duplicated).sum(),
                chaos_corrupt_messages: outcome.chaos.iter().map(|c| c.corrupt).sum(),
                fault_fingerprint: format!(
                    "0x{:016x}",
                    outcome.chaos.iter().fold(0u64, |a, c| a ^ c.fingerprint)
                ),
                wall_ms: outcome.wall.as_millis() as u64,
            });
        }
    }
    println!();
    println!("full/N = workers that ran every step; a crashed or evicted rank stops early.");
    println!("Same seed ⇒ same per-link fault schedule on both fabrics.");
}
