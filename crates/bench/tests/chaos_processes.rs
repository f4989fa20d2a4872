//! End-to-end chaos acceptance over real OS processes: `selsync_dist`
//! ranks on localhost TCP, elastic membership on, faults injected from
//! a shared `--fault-plan` file.
//!
//! Two properties, mirroring `dist_processes.rs`:
//!
//! 1. **Determinism** — the same seeded [`FaultPlan`] produces the same
//!    fault schedule, the same eviction history, the same sync
//!    decisions, and bit-identical surviving-worker parameters across
//!    two independent runs (fresh ports, fresh processes).
//! 2. **Crash tolerance** — a scheduled worker crash is survived: no
//!    rank panics or hangs, the PS evicts exactly the dead rank, the
//!    survivor runs every step, and the final training loss lands near
//!    a fault-free run with the same surviving-worker count.

mod common;

use common::{collect_cluster, field, free_ports, spawn_rank, tmp, ClusterRun};
use selsync_chaos::FaultPlan;

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
    "1000",
    "--max-missed",
    "2",
    "--recv-timeout",
    "120",
];

/// Run one PS + `n` workers to completion under the shared fault plan.
fn run_trio(n_workers: usize, plan_path: &str) -> ClusterRun {
    let peers = free_ports(27000, 1700, n_workers + 1).join(",");
    let n = n_workers.to_string();
    let extra = ["--workers", &n, "--fault-plan", plan_path];
    let ps = spawn_rank("ps", n_workers, &peers, RECIPE, &extra);
    let workers = (0..n_workers)
        .map(|r| spawn_rank("worker", r, &peers, RECIPE, &extra))
        .collect();
    collect_cluster(ps, workers)
}

#[test]
fn same_fault_plan_seed_reproduces_the_run_bit_for_bit() {
    // crash rank 1 at step 4 plus seeded duplicate deliveries: the
    // duplicates exercise the chaos layer on every link, the crash
    // exercises eviction — and none of it may depend on wall-clock
    let mut plan = FaultPlan::crash_one(7, 1, 4);
    plan.duplicate_prob = 0.25;
    let plan_path = tmp("determinism.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();
    let plan_str = plan_path.to_str().unwrap();

    let a = run_trio(2, plan_str);
    let b = run_trio(2, plan_str);
    std::fs::remove_file(&plan_path).ok();

    // every rank exits cleanly in both runs (a scheduled crash is a
    // normal, reported outcome — not a failure)
    assert_eq!(
        a.codes,
        vec![0, 0, 0],
        "run A exit codes; stderr:\n{}",
        a.stderr
    );
    assert_eq!(
        b.codes,
        vec![0, 0, 0],
        "run B exit codes; stderr:\n{}",
        b.stderr
    );

    // identical eviction history on the PS
    let evictions = field(&a.ps, "evictions");
    assert!(
        evictions.ends_with(":1"),
        "rank 1 must be the evicted rank, got {evictions}"
    );
    assert_eq!(evictions, field(&b.ps, "evictions"));

    // identical sync decisions and bit-identical surviving params
    assert_eq!(
        field(&a.workers[0], "decisions"),
        field(&b.workers[0], "decisions")
    );
    assert_eq!(
        field(&a.workers[0], "params_fingerprint"),
        field(&b.workers[0], "params_fingerprint")
    );
    assert_eq!(
        field(&a.ps, "params_fingerprint"),
        field(&b.ps, "params_fingerprint")
    );

    // identical fault schedule and chaos accounting on every worker.
    // (The PS is excluded: whether a duplicated heartbeat draws a
    // catch-up reply depends on when it lands relative to the round
    // boundary, so the PS's own send sequence — and with it its fault
    // log — may vary, while tag filtering keeps every training outcome
    // above bit-reproducible.)
    for (ra, rb) in [
        (&a.workers[0], &b.workers[0]),
        (&a.workers[1], &b.workers[1]),
    ] {
        for key in [
            "fault_fingerprint",
            "chaos_sent_messages",
            "chaos_dropped_messages",
            "chaos_duplicated_messages",
            "chaos_sent_bytes",
        ] {
            assert_eq!(field(ra, key), field(rb, key), "{key} must reproduce");
        }
    }
    // the duplicates actually fired somewhere (the plan is not a no-op)
    let dups: u64 = [&a.workers[0], &a.workers[1]]
        .iter()
        .map(|s| {
            field(s, "chaos_duplicated_messages")
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    assert!(dups > 0, "duplicate_prob 0.25 must duplicate something");
}

#[test]
fn crash_one_worker_is_survived_and_tracks_the_fault_free_loss() {
    // faulty run: 2 workers, rank 1 dies at step 4, survivor finishes
    let crash_path = tmp("crash.json");
    std::fs::write(&crash_path, FaultPlan::crash_one(11, 1, 4).to_json()).unwrap();
    let faulty = run_trio(2, crash_path.to_str().unwrap());
    std::fs::remove_file(&crash_path).ok();

    assert_eq!(
        faulty.codes,
        vec![0, 0, 0],
        "no rank may hang or panic; stderr:\n{}",
        faulty.stderr
    );
    let evictions = field(&faulty.ps, "evictions");
    assert!(
        evictions.ends_with(":1") && !evictions.contains(','),
        "exactly the crashed rank is evicted, got {evictions}"
    );
    assert_eq!(field(&faulty.workers[1], "steps_run"), "4", "crashed early");
    assert_eq!(
        field(&faulty.workers[0], "steps_run"),
        "12",
        "survivor ran all steps"
    );

    // reference: a fault-free cluster with the same surviving-worker
    // count (one worker), identical recipe
    let quiet_path = tmp("quiet.json");
    std::fs::write(&quiet_path, FaultPlan::quiet(11).to_json()).unwrap();
    let reference = run_trio(1, quiet_path.to_str().unwrap());
    std::fs::remove_file(&quiet_path).ok();
    assert_eq!(reference.codes, vec![0, 0]);

    let faulty_loss: f32 = field(&faulty.workers[0], "final_loss").parse().unwrap();
    let ref_loss: f32 = field(&reference.workers[0], "final_loss").parse().unwrap();
    assert!(faulty_loss.is_finite() && ref_loss.is_finite());
    // the histories differ (two workers for the first four steps, then
    // a mid-run repartition), so require agreement only to a tolerance
    // that still catches divergence or a dead optimizer
    assert!(
        (faulty_loss - ref_loss).abs() < 0.6,
        "crash-run loss {faulty_loss} strays from fault-free loss {ref_loss}"
    );
}
