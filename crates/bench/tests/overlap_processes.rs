//! End-to-end acceptance for the pipelined bucketed push and the
//! event-driven poll fabric (DESIGN.md §12): spawn real `selsync_dist`
//! OS processes (2 workers + 1 PS on localhost TCP) and check that the
//! same-seed run is **bit-identical** — fingerprint-for-fingerprint —
//! across every combination of push layout (monolithic vs bucketed)
//! and fabric (blocking thread-per-connection vs single-thread poll
//! loop), including a mixed-fabric cluster. The bucketed pipeline and
//! the poll loop are allowed to change scheduling, threading and frame
//! boundaries; they are not allowed to change a single bit of the
//! result.

mod common;

use common::{collect_cluster, field, free_ports, spawn_rank};

const TRAINING_FLAGS: &[&str] = &[
    "--model",
    "vgg",
    "--strategy",
    "bsp",
    "--aggregation",
    "ga",
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

/// One cluster run's observable identity: the PS's and worker 0's
/// `params_fingerprint` lines (FNV over the exact f32 bit patterns).
struct ClusterResult {
    ps_fingerprint: String,
    w0_fingerprint: String,
}

/// Run 2 workers + 1 PS to completion; `per_rank_extra[rank]` lets a
/// caller give each rank different fabric flags (mixed-fabric interop).
fn run_cluster(per_rank_extra: [&[&str]; 3]) -> ClusterResult {
    let peers = free_ports(33000, 4000, 3).join(",");
    let run = collect_cluster(
        spawn_rank("ps", 2, &peers, TRAINING_FLAGS, per_rank_extra[2]),
        vec![
            spawn_rank("worker", 0, &peers, TRAINING_FLAGS, per_rank_extra[0]),
            spawn_rank("worker", 1, &peers, TRAINING_FLAGS, per_rank_extra[1]),
        ],
    );
    assert_eq!(run.codes, vec![0, 0, 0], "stderr:\n{}", run.stderr);
    ClusterResult {
        ps_fingerprint: field(&run.ps, "params_fingerprint"),
        w0_fingerprint: field(&run.workers[0], "params_fingerprint"),
    }
}

fn assert_same(a: &ClusterResult, b: &ClusterResult, what: &str) {
    assert_eq!(
        a.ps_fingerprint, b.ps_fingerprint,
        "{what}: PS params diverged"
    );
    assert_eq!(
        a.w0_fingerprint, b.w0_fingerprint,
        "{what}: worker 0 params diverged"
    );
}

#[test]
fn bucketed_and_poll_fabric_runs_are_bit_identical_to_the_baseline() {
    // the baseline: monolithic pushes over the blocking fabric
    let baseline = run_cluster([&[], &[], &[]]);

    // bucketed pipelined pushes (1000-value Bucket frames) — the
    // tentpole bit-identity claim, across real OS processes
    let bucketed = run_cluster([
        &["--overlap-buckets", "1000"],
        &["--overlap-buckets", "1000"],
        &["--overlap-buckets", "1000"],
    ]);
    assert_same(&baseline, &bucketed, "bucketed vs monolithic");

    // the event-driven poll fabric on every rank
    let polled = run_cluster([
        &["--fabric", "poll"],
        &["--fabric", "poll"],
        &["--fabric", "poll"],
    ]);
    assert_same(&baseline, &polled, "poll fabric vs blocking fabric");

    // both at once, on a *mixed* cluster: worker 0 and the PS speak the
    // poll loop, worker 1 the blocking fabric — same wire protocol, so
    // same bits
    let mixed = run_cluster([
        &["--fabric", "poll", "--overlap-buckets", "500"],
        &["--overlap-buckets", "500"],
        &["--fabric", "poll", "--overlap-buckets", "500"],
    ]);
    assert_same(&baseline, &mixed, "mixed fabrics + buckets vs baseline");
}
