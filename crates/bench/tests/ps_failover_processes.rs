//! Process-level parameter-server failover acceptance: real
//! `selsync_dist` OS processes on localhost TCP, a PS killed with
//! SIGKILL mid-run, and a respawn from the durable checkpoint.
//!
//! Two properties, completing the recovery story that
//! `dist_processes.rs` (fault-free) and `chaos_processes.rs` (worker
//! faults) leave open:
//!
//! 1. **SIGKILL failover** — the PS process is killed mid-run with no
//!    warning, a replacement is spawned with `--resume` on the same
//!    advertised port, the workers ride out the outage (no eviction, no
//!    hang, no fatal exit), and the finished run is bit-identical to a
//!    fault-free run of the same seed and plan.
//! 2. **Scheduled-crash determinism** — a `server_crash` entry in the
//!    shared fault plan makes the PS crash mid-sync and restart itself
//!    from the checkpoint; two independent runs reproduce each other
//!    and the fault-free run bit-for-bit.

mod common;

use common::{collect_cluster, field, free_ports, tmp, ClusterRun};
use selsync_chaos::FaultPlan;
use std::process::Child;
use std::time::{Duration, Instant};

fn ports() -> String {
    free_ports(25000, 1900, 3).join(",")
}

/// Spawn one rank with the shared training recipe. Liveness is tuned
/// for a PS outage of a few seconds: reply timeout 2 s per attempt
/// (round 400 ms × (3+2)) and a 30 s worker patience budget, so the
/// kill→respawn gap stalls the workers instead of evicting them.
fn spawn_rank(role: &str, rank: usize, peers: &str, extra: &[&str]) -> Child {
    const RECIPE: &[&str] = &[
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
        "--elastic",
        "--round-timeout-ms",
        "400",
        "--max-missed",
        "3",
        "--ps-patience-ms",
        "30000",
        "--recv-timeout",
        "120",
        "--workers",
        "2",
    ];
    common::spawn_rank(role, rank, peers, RECIPE, extra)
}

/// One PS + two workers, no kill, shared fault plan — the reference
/// every failover run must reproduce bit-for-bit.
fn run_reference(plan_path: &str, extra_ps: &[&str]) -> ClusterRun {
    let peers = ports();
    let mut ps_flags = vec!["--fault-plan", plan_path];
    ps_flags.extend_from_slice(extra_ps);
    let ps = spawn_rank("ps", 2, &peers, &ps_flags);
    let workers = (0..2)
        .map(|r| spawn_rank("worker", r, &peers, &["--fault-plan", plan_path]))
        .collect();
    collect_cluster(ps, workers)
}

fn assert_bit_identical(run: &ClusterRun, reference: &ClusterRun) {
    assert_eq!(
        field(&run.workers[0], "decisions"),
        field(&reference.workers[0], "decisions"),
        "sync decisions must match the fault-free run"
    );
    for w in 0..2 {
        assert_eq!(
            field(&run.workers[w], "params_fingerprint"),
            field(&reference.workers[w], "params_fingerprint"),
            "worker {w} params must be bit-identical to the fault-free run"
        );
    }
    assert_eq!(
        field(&run.ps, "params_fingerprint"),
        field(&reference.ps, "params_fingerprint"),
        "global params must be bit-identical to the fault-free run"
    );
}

#[test]
fn sigkill_ps_mid_run_resume_is_bit_identical_to_fault_free() {
    // a 50 ms straggler on worker 0 paces the run (wall-clock only —
    // chaos delays never change the training math), guaranteeing the
    // kill lands mid-run rather than after the last step
    let plan = FaultPlan::slow_straggler(17, 0, 50);
    let plan_path = tmp("sigkill_plan.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let plan_str = plan_path.to_str().unwrap().to_string();

    let ckpt = tmp("sigkill.ckpt");
    let prev = selsync_core::checkpoint::prev_path(&ckpt);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&prev).ok();
    let ckpt_str = ckpt.to_str().unwrap().to_string();

    let peers = ports();
    let mut ps = spawn_rank(
        "ps",
        2,
        &peers,
        &["--fault-plan", &plan_str, "--checkpoint", &ckpt_str],
    );
    let workers: Vec<Child> = (0..2)
        .map(|r| spawn_rank("worker", r, &peers, &["--fault-plan", &plan_str]))
        .collect();

    // wait for the first durable sync generation, then SIGKILL the PS
    // with no warning — possibly mid-round, possibly mid-write
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(
            Instant::now() < deadline,
            "PS never wrote a checkpoint generation"
        );
        assert!(
            ps.try_wait().unwrap().is_none(),
            "PS exited before writing a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(50));
    ps.kill().expect("SIGKILL the ps");
    ps.wait().unwrap();

    // respawn on the same advertised port, resuming from the checkpoint
    let ps2 = spawn_rank(
        "ps",
        2,
        &peers,
        &["--fault-plan", &plan_str, "--resume", &ckpt_str],
    );
    let run = collect_cluster(ps2, workers);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&prev).ok();

    assert_eq!(
        run.codes,
        vec![0, 0, 0],
        "no rank may hang, panic or exit fatally; stderr:\n{}",
        run.stderr
    );
    assert_eq!(field(&run.ps, "recovery"), "ps_resumed");
    assert_eq!(
        field(&run.ps, "evictions"),
        "",
        "the outage must stall workers, not evict them; ps stdout:\n{}",
        run.ps
    );

    let reference = run_reference(&plan_str, &[]);
    std::fs::remove_file(&plan_path).ok();
    assert_eq!(
        reference.codes,
        vec![0, 0, 0],
        "reference run failed; stderr:\n{}",
        reference.stderr
    );
    assert_bit_identical(&run, &reference);
}

#[test]
fn scheduled_server_crash_reproduces_and_matches_fault_free() {
    // crash the PS mid-sync at step 1 (early steps always sync under
    // δ = 0.25, so the point is guaranteed to fire and a durable
    // generation already exists), restart in-process after 150 ms
    let plan = FaultPlan::crash_server(23, 1, 150);
    let plan_path = tmp("server_crash_plan.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let plan_str = plan_path.to_str().unwrap().to_string();

    let run_crash = |name: &str| {
        let ckpt = tmp(name);
        let prev = selsync_core::checkpoint::prev_path(&ckpt);
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&prev).ok();
        let peers = ports();
        let ps = spawn_rank(
            "ps",
            2,
            &peers,
            &[
                "--fault-plan",
                &plan_str,
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ],
        );
        let workers = (0..2)
            .map(|r| spawn_rank("worker", r, &peers, &["--fault-plan", &plan_str]))
            .collect();
        let run = collect_cluster(ps, workers);
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&prev).ok();
        run
    };

    let a = run_crash("crash_a.ckpt");
    let b = run_crash("crash_b.ckpt");
    for (label, run) in [("A", &a), ("B", &b)] {
        assert_eq!(
            run.codes,
            vec![0, 0, 0],
            "run {label} exit codes; stderr:\n{}",
            run.stderr
        );
        assert_eq!(
            field(&run.ps, "recovery"),
            "ps_resumed",
            "run {label} PS must report its restart; stdout:\n{}",
            run.ps
        );
        assert_eq!(field(&run.ps, "evictions"), "");
    }
    // the two crash runs reproduce each other...
    assert_bit_identical(&a, &b);

    // ...and the fault-free run with the same seed (quiet plan: the
    // crash schedule is the only difference)
    let quiet_path = tmp("quiet_plan.json");
    std::fs::write(&quiet_path, FaultPlan::quiet(23).to_json()).unwrap();
    let reference = run_reference(quiet_path.to_str().unwrap(), &[]);
    std::fs::remove_file(&quiet_path).ok();
    std::fs::remove_file(&plan_path).ok();
    assert_eq!(
        reference.codes,
        vec![0, 0, 0],
        "reference run failed; stderr:\n{}",
        reference.stderr
    );
    assert_bit_identical(&a, &reference);
}
