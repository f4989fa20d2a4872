//! `selsync_dist` — multi-process launcher: run one rank of a real
//! TCP-fabric training job. Start `n` worker processes (ranks `0..n`)
//! and one parameter-server process (rank `n`) with the same `--peers`
//! list and the same training flags; the ranks dial each other (with
//! retry, so start order is free) and run the exact trainer code the
//! in-process harness uses, so results are bit-identical to a same-seed
//! single-process run.
//!
//! ```sh
//! P="127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102"
//! selsync_dist --role ps     --rank 2 --peers $P --strategy selsync --delta 0.25 &
//! selsync_dist --role worker --rank 0 --peers $P --strategy selsync --delta 0.25 &
//! selsync_dist --role worker --rank 1 --peers $P --strategy selsync --delta 0.25 &
//! wait
//! ```
//!
//! A dead peer is a *diagnosed failure*, not a hang: every rank exits
//! nonzero with a one-line `fatal:` message when the fabric faults.
//! `--elastic` upgrades the failure to a tolerated event — the PS evicts
//! silent workers and the survivors keep training — and `--fault-plan`
//! injects a seeded chaos schedule (drops, duplicates, delays,
//! stragglers, crashes) for reproducible failure experiments. The
//! elastic PS is a group of K servers (`--ps-shards`, default 1), each
//! owning one range of the parameter vector; ranks stay workers-first
//! (workers `0..n`, ps ranks `n..n+K`, standbys after).

use selsync_bench::cli::parse_args;
use selsync_chaos::{ChaosTransport, FaultPlan, ServerCrash};
use selsync_comm::elastic::{ElasticReport, ServerCrashPoint, StandbyOutcome};
use selsync_comm::{Transport, TransportError};
use selsync_core::checkpoint::load_state_with_fallback;
use selsync_core::elastic::{
    run_elastic_server_rank, run_elastic_server_rank_from, run_elastic_worker_rank,
    run_standby_server_rank, shard_state_path, ElasticOptions,
};
use selsync_core::trainer::{run_server_rank, run_worker_rank, WorkerOutput};
use selsync_core::Workload;
use selsync_net::{PollTcpEndpoint, TcpEndpoint, TcpFabricConfig};
use selsync_shard::{Role, ShardLayout};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const DIST_USAGE: &str = "\
selsync_dist — run one rank of a multi-process TCP training job

USAGE:
  selsync_dist --role ps|worker|standby --rank N --peers host:port,...
               [training flags]

DIST KEYS:
  --role             ps | worker | standby             (required)
  --rank             this process's rank; workers are 0..n, the ps is
                     n, the standby (with --standby) n+1; with
                     --ps-shards K the ps ranks are n..n+K and the
                     standbys n+K..n+2K                 (required)
  --peers            comma-separated host:port of every rank, in rank
                     order; the ps ranks follow the workers and the
                     standbys (if any) are last         (required)
  --connect-timeout  seconds to keep redialing peers    (default 60)
  --recv-timeout     watchdog seconds for blocking receives; a silent
                     fabric fails instead of hanging    (default 300)
  --fabric           tcp | poll — thread-per-connection blocking fabric
                     or the single-thread event-driven poll loop; the
                     wire protocol is identical, so ranks may mix
                     fabrics freely                     (default tcp)

FAULT TOLERANCE:
  --elastic            run the elastic membership protocol: the ps
                       evicts silent workers, survivors re-partition
                       and keep training, crashed workers may rejoin
  --round-timeout-ms   elastic ps silence deadline per round (default 1000)
  --max-missed         missed rounds before eviction      (default 3)
  --fault-plan FILE    JSON FaultPlan (selsync-chaos) injected at this
                       rank's transport; scheduled worker crashes and
                       the server_crash are honored in --elastic mode

RECOVERY (all require --elastic):
  --checkpoint FILE    ps: write a crash-consistent v2 state checkpoint
                       (atomic rename + retained .prev generation)
                       after every sync round; workers mirror their
                       private state to FILE.w<rank>
  --resume FILE        ps: restart from the last durable sync round in
                       FILE (falls back to FILE.prev on a torn write)
                       and print a one-line `recovery=` report
  --standby            every rank: each ps has a hot standby (rank n+1
                       for the default single ps) shadowing each sync;
                       workers fail over to it when the primary goes
                       silent
  --ps-patience-ms     worker budget for re-reaching a silent ps before
                       failing over (default 3 x reply timeout)
  --ps-shards K        every rank: the elastic ps is a group of K
                       servers, each owning one contiguous range of the
                       parameter vector               (default 1)
                       The ps ranks are n..n+K (--role ps serves shard
                       rank-n) and, with --standby, one standby per
                       shard at n+K..n+2K. With K >= 2 each shard
                       checkpoints to FILE.s<shard>, --resume reloads
                       that shard's own file and --save-params writes
                       FILE.s<shard>, so one shard can be killed and
                       restarted while the others keep serving; with
                       K = 1 all three use FILE itself.

The worker count is taken from --peers (entries minus the ps ranks,
minus their standbys when --standby is given); any --workers flag must
agree. All ranks must be given identical training flags and the same
--seed, or they will disagree on partitions and initial state.

Training flags are those of selsync_run (see selsync_run --help).
--save-params writes the final parameters in the legacy v1 format: on
a ps rank the final global parameters (its range of them, with
--ps-shards >= 2), on a worker rank that replica's; per-sync durable
state goes to --checkpoint.

EXIT CODES: 0 ok (including a scheduled crash) / 1 comm fault or
eviction / 2 usage error.
";

struct DistArgs {
    role: String,
    rank: usize,
    peers: Vec<String>,
    connect_timeout: Duration,
    recv_timeout: Duration,
    poll_fabric: bool,
    elastic: bool,
    round_timeout: Duration,
    max_missed: u32,
    fault_plan: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    standby: bool,
    ps_patience: Option<Duration>,
    ps_shards: Option<usize>,
    rest: Vec<String>,
}

#[allow(clippy::too_many_lines)]
fn split_dist_args(args: &[String]) -> Result<DistArgs, String> {
    let mut role = None;
    let mut rank = None;
    let mut peers: Option<Vec<String>> = None;
    let mut connect_timeout = Duration::from_secs(60);
    let mut recv_timeout = Duration::from_secs(300);
    let mut poll_fabric = false;
    let mut elastic = false;
    let mut round_timeout = Duration::from_millis(1000);
    let mut max_missed = 3u32;
    let mut fault_plan = None;
    let mut checkpoint = None;
    let mut resume = None;
    let mut standby = false;
    let mut ps_patience = None;
    let mut ps_shards = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if key == "--help" {
            return Err(DIST_USAGE.to_string());
        }
        if key == "--elastic" {
            elastic = true;
            continue;
        }
        if key == "--standby" {
            standby = true;
            continue;
        }
        let mut dist_value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key.as_str() {
            "--role" => role = Some(dist_value()?),
            "--rank" => {
                rank = Some(
                    dist_value()?
                        .parse()
                        .map_err(|_| "--rank must be an integer".to_string())?,
                )
            }
            "--peers" => peers = Some(dist_value()?.split(',').map(str::to_string).collect()),
            "--connect-timeout" => {
                connect_timeout = Duration::from_secs(
                    dist_value()?
                        .parse()
                        .map_err(|_| "--connect-timeout must be seconds".to_string())?,
                )
            }
            "--recv-timeout" => {
                recv_timeout = Duration::from_secs(
                    dist_value()?
                        .parse()
                        .map_err(|_| "--recv-timeout must be seconds".to_string())?,
                )
            }
            "--fabric" => {
                poll_fabric = match dist_value()?.as_str() {
                    "tcp" => false,
                    "poll" => true,
                    other => return Err(format!("--fabric takes tcp|poll, got '{other}'")),
                }
            }
            "--round-timeout-ms" => {
                round_timeout = Duration::from_millis(
                    dist_value()?
                        .parse()
                        .map_err(|_| "--round-timeout-ms must be milliseconds".to_string())?,
                )
            }
            "--max-missed" => {
                max_missed = dist_value()?
                    .parse()
                    .map_err(|_| "--max-missed must be an integer".to_string())?
            }
            "--fault-plan" => fault_plan = Some(PathBuf::from(dist_value()?)),
            "--checkpoint" => checkpoint = Some(PathBuf::from(dist_value()?)),
            "--resume" => resume = Some(PathBuf::from(dist_value()?)),
            "--ps-patience-ms" => {
                ps_patience =
                    Some(Duration::from_millis(dist_value()?.parse().map_err(
                        |_| "--ps-patience-ms must be milliseconds".to_string(),
                    )?))
            }
            "--ps-shards" => {
                let k: usize = dist_value()?
                    .parse()
                    .map_err(|_| "--ps-shards must be an integer".to_string())?;
                if k == 0 {
                    return Err("--ps-shards must be at least 1".to_string());
                }
                ps_shards = Some(k);
            }
            _ => {
                rest.push(key.clone());
                rest.push(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("missing value for {key}"))?,
                );
            }
        }
    }
    Ok(DistArgs {
        role: role.ok_or("--role is required")?,
        rank: rank.ok_or("--rank is required")?,
        peers: peers.ok_or("--peers is required")?,
        connect_timeout,
        recv_timeout,
        poll_fabric,
        elastic,
        round_timeout,
        max_missed,
        fault_plan,
        checkpoint,
        resume,
        standby,
        ps_patience,
        ps_shards,
        rest,
    })
}

/// Stable checksum of a parameter vector's exact bit pattern, so ranks
/// from separate runs can be compared by eye.
fn params_fingerprint(params: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in params {
        for b in v.to_bits().to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

struct RankJob<'a> {
    dist: &'a DistArgs,
    run: &'a selsync_bench::cli::CliRun,
    workload: &'a Workload,
    fabric_stats: Arc<selsync_comm::CommStats>,
    crash_at: Option<u64>,
    server_crash: Option<ServerCrash>,
    /// Workers-first rank layout; K = 1 unless `--ps-shards` says
    /// otherwise (and always for the static trainer).
    layout: ShardLayout,
}

/// The worker's result lines, identical across every deployment so
/// same-seed runs can be compared field by field.
fn print_worker_output(job: &RankJob, out: &WorkerOutput) {
    let dist = job.dist;
    println!(
        "role=worker rank={} steps={} steps_run={}",
        dist.rank,
        job.run.config.max_steps,
        out.lssr.total()
    );
    println!("lssr={:.6}", out.lssr.lssr());
    println!(
        "params_fingerprint=0x{:016x}",
        params_fingerprint(&out.final_params)
    );
    println!("fabric_bytes_sent={}", job.fabric_stats.total_bytes());
    if out.worker == 0 {
        // step-for-step sync decision log: 1 = synchronized step
        let decisions: String = out
            .records
            .iter()
            .map(|r| if r.synced { '1' } else { '0' })
            .collect();
        println!("decisions={decisions}");
        if let Some(r) = out.records.last() {
            println!("final_loss={:.6}", r.loss);
        }
        if let Some(e) = out.evals.last() {
            println!("final_metric={:.6}", e.metric);
        }
    }
    if let Some(path) = &job.run.save_params {
        selsync_core::checkpoint::save_params(path, &out.final_params)
            .expect("writable checkpoint path");
        eprintln!("[rank {}] saved replica params to {path}", dist.rank);
    }
}

/// The closing lines of every server rank: fingerprint of the
/// parameters it holds and its fabric byte count.
fn print_server_params(job: &RankJob, params: &[f32]) {
    println!("params_fingerprint=0x{:016x}", params_fingerprint(params));
    println!("fabric_bytes_sent={}", job.fabric_stats.total_bytes());
}

/// `--save-params` on a PS rank: write the parameters it ends with in
/// the v1 format at `shard`'s [`shard_state_path`] (the path as given
/// for the only server of a K = 1 group, `FILE.s<shard>` otherwise).
fn save_server_params(job: &RankJob, shard: usize, params: &[f32]) {
    if let Some(path) = &job.run.save_params {
        let p = shard_state_path(Path::new(path), &job.layout, shard);
        selsync_core::checkpoint::save_params(&p, params).expect("writable checkpoint path");
        eprintln!(
            "[rank {}] saved global params to {}",
            job.dist.rank,
            p.display()
        );
    }
}

fn print_ps_report(job: &RankJob, shard: usize, report: &ElasticReport) {
    println!(
        "role=ps rank={} steps={} elastic=1 rounds={} syncs={}",
        job.dist.rank, job.run.config.max_steps, report.rounds, report.syncs
    );
    let fmt = |v: &[(u64, usize)]| {
        v.iter()
            .map(|(s, r)| format!("{s}:{r}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("evictions={}", fmt(&report.evictions));
    println!("joins={}", fmt(&report.joins));
    println!("shard={shard} shard_len={}", report.final_params.len());
    print_server_params(job, &report.final_params);
}

/// Run one server of the elastic PS group to completion, honoring
/// `--resume` (from this shard's own checkpoint file) at startup and the
/// fault plan's scheduled `server_crash` (crash mid-sync, then — when a
/// restart delay is set — reload the durable checkpoint and continue on
/// the same fabric). Each recovery prints one `recovery=ps_resumed`
/// line.
fn run_ps_shard<T: Transport>(
    ep: &mut T,
    job: &RankJob,
    shard: usize,
    eopts: &mut ElasticOptions,
) -> Result<ElasticReport, TransportError> {
    let (dist, run) = (job.dist, job.run);
    let resume = |ep: &mut T, eopts: &ElasticOptions, base: &Path| {
        let path = shard_state_path(base, &job.layout, shard);
        let (state, fallback) = load_state_with_fallback(&path).map_err(|e| {
            TransportError::Protocol(format!("loading checkpoint {}: {e}", path.display()))
        })?;
        println!(
            "recovery=ps_resumed shard={shard} step={} syncs={} fallback_prev={}",
            state.step,
            state.syncs,
            u8::from(fallback)
        );
        run_elastic_server_rank_from(ep, &run.config, job.workload, eopts, job.layout, &state)
    };
    eopts.server_crash = job
        .server_crash
        .as_ref()
        .map(|c| ServerCrashPoint::MidSync(c.at_step));
    let mut report = match &dist.resume {
        Some(base) => resume(&mut *ep, eopts, base)?,
        None => run_elastic_server_rank(&mut *ep, &run.config, job.workload, eopts, job.layout)?,
    };
    while report.crashed {
        let restart_ms = job.server_crash.as_ref().map_or(0, |c| c.restart_after_ms);
        let Some(base) = eopts.checkpoint.clone().filter(|_| restart_ms > 0) else {
            // no restart scheduled (or nothing durable): stay dead and
            // let the standby — if any — take over
            println!("recovery=ps_dead shard={shard} syncs={}", report.syncs);
            break;
        };
        eprintln!(
            "[rank {}] ps crashed at a scheduled point; restarting in {restart_ms} ms",
            dist.rank
        );
        std::thread::sleep(Duration::from_millis(restart_ms));
        eopts.server_crash = None;
        report = resume(&mut *ep, eopts, &base)?;
    }
    Ok(report)
}

/// Run this rank's role to completion over any transport; returns the
/// process exit code. Every comm fault becomes a one-line `fatal:`
/// diagnostic and a nonzero exit instead of a hang or a panic.
fn run_one_rank<T: Transport>(ep: &mut T, job: &RankJob) -> i32 {
    let (dist, run, layout) = (job.dist, job.run, job.layout);
    let mut eopts = ElasticOptions::with_liveness(dist.round_timeout, dist.max_missed);
    eopts.crash_at = job.crash_at;
    eopts.checkpoint = dist.checkpoint.clone().or_else(|| dist.resume.clone());
    if let Some(p) = dist.ps_patience {
        eopts.ps_patience = p;
    }
    let done = match (layout.role_of(dist.rank), dist.elastic) {
        (Role::Worker(_), false) => run_worker_rank(&mut *ep, &run.config, job.workload)
            .map(|out| print_worker_output(job, &out)),
        (Role::Worker(_), true) => {
            run_elastic_worker_rank(&mut *ep, &run.config, job.workload, &eopts, layout)
                .map(|out| print_worker_output(job, &out))
        }
        (Role::Shard(shard), false) => {
            run_server_rank(&mut *ep, &run.config, job.workload).map(|params| {
                println!("role=ps rank={} steps={}", dist.rank, run.config.max_steps);
                print_server_params(job, &params);
                save_server_params(job, shard, &params);
            })
        }
        (Role::Shard(shard), true) => {
            run_ps_shard(&mut *ep, job, shard, &mut eopts).map(|report| {
                print_ps_report(job, shard, &report);
                save_server_params(job, shard, &report.final_params);
            })
        }
        (Role::Standby(shard), _) => {
            run_standby_server_rank(&mut *ep, &run.config, job.workload, &eopts, layout).map(
                |outcome| match outcome {
                    StandbyOutcome::Retired { shadowed_syncs } => println!(
                        "role=standby rank={} shard={shard} promoted=0 \
                         shadowed_syncs={shadowed_syncs}",
                        dist.rank
                    ),
                    StandbyOutcome::Promoted(report) => {
                        println!(
                            "recovery=promoted_standby shard={shard} syncs={}",
                            report.syncs
                        );
                        print_ps_report(job, shard, &report);
                    }
                },
            )
        }
    };
    match done {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[rank {}] fatal: {e}", dist.rank);
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dist = match split_dist_args(&args) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if args.contains(&"--help".into()) {
                0
            } else {
                2
            });
        }
    };
    // server ranks the peer list must carry: K ps ranks, plus K standbys
    let k = dist.ps_shards.unwrap_or(1);
    let servers = k * (1 + usize::from(dist.standby));
    let n_workers = dist.peers.len().saturating_sub(servers);
    if n_workers == 0 {
        eprintln!(
            "--peers needs at least {} entries (1 worker + {k} ps rank(s){})",
            1 + servers,
            if dist.standby {
                " + their standbys"
            } else {
                ""
            }
        );
        std::process::exit(2);
    }
    if !dist.elastic
        && (dist.standby
            || dist.resume.is_some()
            || dist.checkpoint.is_some()
            || dist.ps_shards.is_some())
    {
        eprintln!("--standby / --resume / --checkpoint / --ps-shards require --elastic");
        std::process::exit(2);
    }
    let layout = ShardLayout::new(k, n_workers, dist.standby);

    // force the cluster size the peer list implies; reject contradictions
    let mut training = dist.rest.clone();
    if let Some(i) = training.iter().position(|a| a == "--workers") {
        if training[i + 1] != n_workers.to_string() {
            eprintln!(
                "--workers {} contradicts --peers ({n_workers} workers + {servers} ps/standby \
                 rank(s))",
                training[i + 1]
            );
            std::process::exit(2);
        }
    } else {
        training.push("--workers".into());
        training.push(n_workers.to_string());
    }
    let run = match parse_args(&training) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // workers-first layout: the rank decides the role, the --role flag
    // must agree
    if dist.rank >= layout.total_ranks() {
        eprintln!(
            "rank {} out of range 0..{} ({n_workers} workers + {servers} ps/standby rank(s))",
            dist.rank,
            layout.total_ranks()
        );
        std::process::exit(2);
    }
    let role_label = match layout.role_of(dist.rank) {
        Role::Worker(_) => "worker",
        Role::Shard(_) => "ps",
        Role::Standby(_) => "standby",
    };
    if dist.role != role_label {
        eprintln!(
            "rank {} is a {role_label} rank (workers 0..{n_workers}, ps {n_workers}..{}, \
             standbys after, with --standby), got --role {}",
            dist.rank,
            n_workers + k,
            dist.role
        );
        std::process::exit(2);
    }

    let plan = dist
        .fault_plan
        .as_ref()
        .map(|path| match FaultPlan::load(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("[rank {}] bad --fault-plan: {e}", dist.rank);
                std::process::exit(2);
            }
        });

    let mut workload = Workload::for_kind(run.kind, run.data_scale, run.config.seed);
    if let Some(path) = &run.load_params {
        workload.init_params =
            Some(selsync_core::checkpoint::load_params(path).expect("readable checkpoint"));
        eprintln!("[rank {}] warm-started from {path}", dist.rank);
    }

    let mut fabric = TcpFabricConfig::new(dist.rank, dist.peers.clone());
    fabric.connect_timeout = dist.connect_timeout;
    fabric.recv_timeout = dist.recv_timeout;
    eprintln!(
        "[rank {}] {} dialing {} peers ({} on {})...",
        dist.rank,
        role_label,
        n_workers,
        run.config.strategy.label(),
        dist.peers[dist.rank]
    );
    let code = if dist.poll_fabric {
        connect_and_drive(
            PollTcpEndpoint::connect(fabric),
            &dist,
            &run,
            &workload,
            plan,
            layout,
        )
    } else {
        connect_and_drive(
            TcpEndpoint::connect(fabric),
            &dist,
            &run,
            &workload,
            plan,
            layout,
        )
    };
    std::process::exit(code);
}

/// Connect this rank's fabric endpoint (blocking or poll — the training
/// code is fabric-agnostic), run the rank over it and return the exit
/// code, with the fabric cleanly flushed before `main` exits.
fn connect_and_drive<E: Transport>(
    connected: std::io::Result<E>,
    dist: &DistArgs,
    run: &selsync_bench::cli::CliRun,
    workload: &Workload,
    plan: Option<FaultPlan>,
    layout: ShardLayout,
) -> i32 {
    let mut ep = match connected {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("[rank {}] fabric setup failed: {e}", dist.rank);
            return 1;
        }
    };
    let job = RankJob {
        dist,
        run,
        workload,
        fabric_stats: Arc::clone(ep.stats()),
        crash_at: plan.as_ref().and_then(|p| p.crash_step(dist.rank)),
        server_crash: plan.as_ref().and_then(|p| p.server_crash.clone()),
        layout,
    };
    match plan {
        Some(plan) => {
            let mut cep = ChaosTransport::new(ep, plan);
            let code = run_one_rank(&mut cep, &job);
            // chaos-layer accounting: sent − dropped − corrupt
            // + duplicated must equal the messages the inner fabric
            // actually framed
            let cs = Arc::clone(cep.stats());
            println!(
                "chaos_sent_messages={} chaos_dropped_messages={} \
                 chaos_duplicated_messages={} chaos_corrupt_messages={}",
                cs.total_messages(),
                cs.dropped_messages(),
                cs.duplicated_messages(),
                cs.corrupt_messages()
            );
            println!(
                "chaos_sent_bytes={} chaos_dropped_bytes={} \
                 chaos_duplicated_bytes={} chaos_corrupt_bytes={}",
                cs.total_bytes(),
                cs.dropped_bytes(),
                cs.duplicated_bytes(),
                cs.corrupt_bytes()
            );
            println!("fault_fingerprint=0x{:016x}", cep.log_fingerprint());
            // `std::process::exit` in main skips destructors; flush the
            // fabric here or the last queued frames (a worker's shutdown
            // round, the PS's final replies) race the process teardown
            // and can be silently lost, stranding peers until their
            // recv watchdog fires.
            drop(cep);
            code
        }
        None => {
            let code = run_one_rank(&mut ep, &job);
            drop(ep); // same reason as the chaos arm's drop
            code
        }
    }
}
