//! Process-level acceptance for the elastic parameter-server group:
//! real `selsync_dist --elastic` OS processes on localhost TCP,
//! workers-first rank layout.
//!
//! Three properties, the elastic counterparts of `dist_processes.rs`
//! (fault-free bit-identity) and `ps_failover_processes.rs` (SIGKILL
//! recovery):
//!
//! 1. **Elastic ≡ static when nothing fails** — a fault-free elastic
//!    run on the default K = 1 group (spelled with or without
//!    `--ps-shards 1`) ends on exactly the parameters `selsync_run`
//!    writes for the same seed, and costs exactly the heartbeat/sync
//!    conversation plus one `ShardMap` frame each way per worker.
//! 2. **Per-shard SIGKILL failover** — in a K = 2 group one shard is
//!    killed mid-run with no warning and respawned with `--resume`; it
//!    reloads *its own* `FILE.s1` checkpoint while the sibling shard
//!    keeps serving, nobody is evicted, and every rank's final
//!    parameters are bit-identical to the fault-free K = 2 run.
//! 3. **Per-shard standby promotion** — with `--standby`, one shard is
//!    SIGKILLed for good; its standby is promoted once the workers fail
//!    over, the sibling shard sits out their failover stall, nobody is
//!    evicted, and every worker runs every step.

mod common;

use common::{assert_clean, collect, field, free_ports, tmp, RankOut};
use selsync_chaos::{FaultPlan, Straggler};
use selsync_comm::Payload;
use selsync_shard::{ShardLayout, ShardMap};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// The recipe `selsync_run` and every `selsync_dist` rank share.
const TRAINING: &[&str] = &[
    "--model",
    "vgg",
    "--strategy",
    "selsync",
    "--delta",
    "0.25",
    "--steps",
    "12",
    "--batch",
    "8",
    "--data",
    "96",
    "--eval-every",
    "12",
    "--seed",
    "42",
    "--workers",
    "2",
];
const STEPS: u64 = 12;
const WORKERS: usize = 2;

fn ports(n: usize) -> String {
    free_ports(31000, 850, n).join(",")
}

/// Spawn one elastic rank with the shared training recipe. Liveness
/// mirrors the PS-failover suite: 2 s reply timeout per attempt and a
/// 30 s patience budget, so a shard outage stalls the workers instead
/// of evicting them (the sibling shard widens its own eviction budget
/// by the workers' failover window — see DESIGN.md §10).
fn spawn_rank(role: &str, rank: usize, peers: &str, extra: &[&str]) -> Child {
    const LIVENESS: &[&str] = &[
        "--elastic",
        "--round-timeout-ms",
        "400",
        "--max-missed",
        "3",
        "--ps-patience-ms",
        "30000",
        "--recv-timeout",
        "120",
    ];
    let recipe = [TRAINING, LIVENESS].concat();
    common::spawn_rank(role, rank, peers, &recipe, extra)
}

/// Run a fault-free K-shard cluster with `flags` on every rank (plus
/// `ps_flags` on the shards). Returns outputs indexed by rank: workers
/// `0..2`, then the shards.
fn run_group(k: usize, flags: &[&str], ps_flags: &[&str]) -> (Vec<RankOut>, String) {
    let layout = ShardLayout::new(k, WORKERS, false);
    let peers = ports(layout.total_ranks());
    let mut ranks: Vec<Child> = (0..WORKERS)
        .map(|w| spawn_rank("worker", w, &peers, flags))
        .collect();
    for s in 0..k {
        let all = [flags, ps_flags].concat();
        ranks.push(spawn_rank("ps", layout.shard_rank(s), &peers, &all));
    }
    collect(ranks)
}

#[test]
fn fault_free_elastic_k1_run_matches_selsync_run_and_the_byte_accounting() {
    // the static reference: one process, in-process fabric
    let run_params = tmp("k1_selsync_run.bin");
    let status = Command::new(env!("CARGO_BIN_EXE_selsync_run"))
        .args(TRAINING)
        .args(["--save-params", run_params.to_str().unwrap()])
        .output()
        .expect("spawn selsync_run");
    assert!(status.status.success(), "selsync_run failed");
    let reference = std::fs::read(&run_params).expect("selsync_run params");
    std::fs::remove_file(&run_params).ok();

    // `--elastic` alone and `--elastic --ps-shards 1` are the same
    // deployment: workers at ranks 0-1, the single PS at rank 2
    let mut runs = Vec::new();
    for (label, flags) in [("default", &[][..]), ("k1", &["--ps-shards", "1"][..])] {
        let saved = tmp(&format!("k1_{label}.bin"));
        let (outs, stderr) = run_group(1, flags, &["--save-params", saved.to_str().unwrap()]);
        assert_clean(&outs, &stderr, label);
        let elastic = std::fs::read(&saved).expect("ps --save-params writes the path as given");
        std::fs::remove_file(&saved).ok();
        assert!(
            elastic == reference,
            "{label}: the elastic PS's --save-params file must `cmp` equal to selsync_run's"
        );
        runs.push(outs);
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(
        field(&a[0].stdout, "decisions"),
        field(&b[0].stdout, "decisions")
    );
    for r in 0..3 {
        for key in ["params_fingerprint", "fabric_bytes_sent"] {
            assert_eq!(
                field(&a[r].stdout, key),
                field(&b[r].stdout, key),
                "rank {r} {key}"
            );
        }
    }

    // Byte accounting, in closed form: per worker, the heartbeat/sync
    // conversation with a single PS — a flags frame per step, a whole
    // push per synced step, one shutdown frame — plus exactly one
    // ShardMap frame (the map handshake), and the mirror image on the
    // PS. (At the parent commit the monolithic path sent 117 621 bytes
    // per worker and 235 214 from the PS over 15 such steps; the
    // handshake adds one 49-byte frame each way per worker.)
    let ps = &a[2].stdout;
    let params: usize = field(ps, "shard_len").parse().unwrap();
    let syncs = field(&a[0].stdout, "decisions").matches('1').count() as u64;
    assert_eq!(field(ps, "syncs"), syncs.to_string());
    let map = Payload::ShardMap(ShardMap::compute(params as u64, 1).spec().clone()).wire_bytes();
    let push = Payload::ShardPush(vec![0.0; params]).wire_bytes();
    let pull = Payload::ShardPull(vec![0.0; params]).wire_bytes();
    assert_eq!(push, Payload::Params(vec![0.0; params]).wire_bytes());
    let worker_bytes = STEPS * Payload::Flags(vec![0]).wire_bytes()
        + syncs * push
        + Payload::Control(0).wire_bytes()
        + map;
    let w = WORKERS as u64;
    let ps_bytes = w * (STEPS * Payload::Flags(vec![0; WORKERS]).wire_bytes() + syncs * pull + map);
    for worker in &a[..WORKERS] {
        assert_eq!(
            field(&worker.stdout, "fabric_bytes_sent"),
            worker_bytes.to_string()
        );
    }
    assert_eq!(field(ps, "fabric_bytes_sent"), ps_bytes.to_string());
}

#[test]
fn sigkill_one_shard_resumes_from_its_own_checkpoint() {
    // K = 2: workers at ranks 0-1, shards at ranks 2-3
    let layout = ShardLayout::new(2, WORKERS, false);
    let (shard0, shard1) = (layout.shard_rank(0), layout.shard_rank(1));
    // a 50 ms straggler on worker 0 paces the run so the kill lands
    // mid-run; wall-clock delays never change the math. Shard 1's sends
    // are delayed 200 ms so the SIGKILL below lands in the write-ahead
    // window deterministically: the checkpoint rename (which the kill
    // poll watches) happens before the sync replies, and 200 ms per
    // send gives the poll + 50 ms fuse time to fire first. The replies
    // die with the process, workers must recover via the respawned
    // shard's stale-push arm, and the sibling shard must hold its round
    // clock for them — the most adversarial schedule.
    let mut plan = FaultPlan::slow_straggler(17, 0, 50);
    plan.stragglers.push(Straggler {
        rank: shard1,
        delay_ms: 200,
    });
    let plan_path = tmp("shard_kill_plan.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let plan_str = plan_path.to_str().unwrap().to_string();

    let ckpt = tmp("shard_kill.ckpt");
    let shard1_ckpt = selsync_core::shard_state_path(&ckpt, &layout, 1);
    let cleanup = || {
        for s in 0..2 {
            let p = selsync_core::shard_state_path(&ckpt, &layout, s);
            std::fs::remove_file(selsync_core::checkpoint::prev_path(&p)).ok();
            std::fs::remove_file(&p).ok();
        }
    };
    cleanup();
    let ckpt_str = ckpt.to_str().unwrap().to_string();

    let peers = ports(4);
    let group_flags = ["--ps-shards", "2", "--fault-plan", &plan_str];
    let shard_flags = [&group_flags[..], &["--checkpoint", &ckpt_str]].concat();
    let workers: Vec<Child> = (0..WORKERS)
        .map(|w| spawn_rank("worker", w, &peers, &group_flags))
        .collect();
    let shard0_proc = spawn_rank("ps", shard0, &peers, &shard_flags);
    let mut shard1_proc = spawn_rank("ps", shard1, &peers, &shard_flags);

    // wait until shard 1 has written its own durable generation, then
    // SIGKILL it with no warning — possibly mid-round, possibly mid-write
    let deadline = Instant::now() + Duration::from_secs(30);
    while !shard1_ckpt.exists() {
        assert!(
            Instant::now() < deadline,
            "shard 1 never wrote {}",
            shard1_ckpt.display()
        );
        assert!(
            shard1_proc.try_wait().unwrap().is_none(),
            "shard 1 exited before writing a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(50));
    shard1_proc.kill().expect("SIGKILL shard 1");
    shard1_proc.wait().unwrap();

    // respawn shard 1 on the same advertised port, resuming from the
    // shard's own FILE.s1 while shard 0 keeps serving its range
    let resume_flags = [&group_flags[..], &["--resume", &ckpt_str]].concat();
    let shard1b = spawn_rank("ps", shard1, &peers, &resume_flags);

    let mut ranks = workers;
    ranks.extend([shard0_proc, shard1b]);
    let (run, run_err) = collect(ranks);
    cleanup();
    assert_clean(&run, &run_err, "sigkill run");

    assert_eq!(field(&run[shard1].stdout, "recovery"), "ps_resumed");
    assert_eq!(field(&run[shard1].stdout, "shard"), "1");
    for (s, shard_out) in run.iter().skip(WORKERS).enumerate() {
        assert_eq!(
            field(&shard_out.stdout, "evictions"),
            "",
            "the outage must stall workers, not evict them; shard {s} stdout:\n{}",
            shard_out.stdout
        );
    }

    let (reference, ref_err) = run_group(2, &group_flags, &[]);
    std::fs::remove_file(&plan_path).ok();
    assert_clean(&reference, &ref_err, "fault-free reference");

    // every rank's final parameters — both workers, the killed shard
    // and its survivor sibling — must match the fault-free run
    for r in 0..layout.total_ranks() {
        assert_eq!(
            field(&run[r].stdout, "params_fingerprint"),
            field(&reference[r].stdout, "params_fingerprint"),
            "rank {r} params must be bit-identical to the fault-free run"
        );
    }
    assert_eq!(
        field(&run[0].stdout, "decisions"),
        field(&reference[0].stdout, "decisions"),
        "sync decisions must match the fault-free run"
    );
}

#[test]
fn sigkill_one_shard_for_good_promotes_its_standby_and_evicts_nobody() {
    // K = 2 with standbys: workers 0-1, shards 2-3, standbys 4-5
    let layout = ShardLayout::new(2, WORKERS, true);
    let (shard1, standby1) = (layout.shard_rank(1), layout.standby_rank(1));
    // As in the resume test above, shard 1's sends are delayed 200 ms so
    // the kill lands after its first checkpoint but before any of that
    // sync's shadow or replies leave: both workers stall in the same
    // sync, and the standby is promoted by their re-sent pushes.
    let mut plan = FaultPlan::slow_straggler(17, 0, 50);
    plan.stragglers.push(Straggler {
        rank: shard1,
        delay_ms: 200,
    });
    let plan_path = tmp("shard_standby_plan.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let plan_str = plan_path.to_str().unwrap().to_string();
    let ckpt = tmp("shard_standby.ckpt");
    let shard1_ckpt = selsync_core::shard_state_path(&ckpt, &layout, 1);
    let cleanup = || {
        for s in 0..2 {
            let p = selsync_core::shard_state_path(&ckpt, &layout, s);
            std::fs::remove_file(selsync_core::checkpoint::prev_path(&p)).ok();
            std::fs::remove_file(&p).ok();
        }
    };
    cleanup();
    let ckpt_str = ckpt.to_str().unwrap().to_string();

    // a 2 s patience (instead of the suite's 30 s) keeps the failover —
    // four 2 s reply timeouts — short; the healthy shard must still sit
    // it out rather than evict the stalled workers
    let peers = ports(layout.total_ranks());
    let flags = [
        "--ps-shards",
        "2",
        "--standby",
        "--fault-plan",
        &plan_str,
        "--ps-patience-ms",
        "2000",
    ];
    let shard_flags = [&flags[..], &["--checkpoint", &ckpt_str]].concat();
    let mut ranks: Vec<Child> = (0..WORKERS)
        .map(|w| spawn_rank("worker", w, &peers, &flags))
        .collect();
    ranks.push(spawn_rank("ps", layout.shard_rank(0), &peers, &shard_flags));
    let mut shard1_proc = spawn_rank("ps", shard1, &peers, &shard_flags);
    for s in 0..2 {
        ranks.push(spawn_rank(
            "standby",
            layout.standby_rank(s),
            &peers,
            &flags,
        ));
    }

    // once shard 1 has checkpointed its first sync, SIGKILL it for good
    let deadline = Instant::now() + Duration::from_secs(30);
    while !shard1_ckpt.exists() {
        assert!(Instant::now() < deadline, "shard 1 never synced");
        assert!(
            shard1_proc.try_wait().unwrap().is_none(),
            "shard 1 exited before syncing"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(50));
    shard1_proc.kill().expect("SIGKILL shard 1");
    shard1_proc.wait().unwrap();

    // collected in rank order, minus the killed shard 1
    let (run, run_err) = collect(ranks);
    cleanup();
    std::fs::remove_file(&plan_path).ok();
    assert_clean(&run, &run_err, "standby promotion run");
    let (shard0_out, standby1_out) = (&run[WORKERS].stdout, &run[WORKERS + 2].stdout);
    assert_eq!(field(standby1_out, "recovery"), "promoted_standby");
    assert_eq!(field(standby1_out, "shard"), "1");
    for (rank, out) in [(layout.shard_rank(0), shard0_out), (standby1, standby1_out)] {
        assert_eq!(
            field(out, "evictions"),
            "",
            "rank {rank} must evict nobody; stdout:\n{out}"
        );
    }
    for worker in &run[..WORKERS] {
        assert_eq!(field(&worker.stdout, "steps_run"), STEPS.to_string());
    }
}
