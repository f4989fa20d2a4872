//! End-to-end acceptance for the multi-process launcher: spawn real
//! `selsync_dist` OS processes (2 workers + 1 PS on localhost TCP) and
//! check they reproduce the in-process run of the same configuration —
//! identical per-step sync decisions, bit-identical final global
//! parameters, and fabric byte totals equal to the shared in-process
//! counter.

mod common;

use common::{collect_cluster, field, free_ports, spawn_rank, tmp};
use selsync_bench::cli::parse_args;
use selsync_core::{checkpoint, run_distributed, Workload};

const TRAINING_FLAGS: &[&str] = &[
    "--model",
    "vgg",
    "--strategy",
    "selsync",
    "--delta",
    "0.25",
    "--steps",
    "15",
    "--batch",
    "8",
    "--data",
    "96",
    "--eval-every",
    "15",
    "--seed",
    "42",
    "--workers",
    "2",
];

#[test]
fn three_processes_reproduce_the_in_process_run() {
    let peers = free_ports(23000, 4000, 3).join(",");
    let ckpt = tmp("dist_test.bin");
    let ckpt_str = ckpt.to_str().unwrap();

    let cluster = collect_cluster(
        spawn_rank(
            "ps",
            2,
            &peers,
            TRAINING_FLAGS,
            &["--save-params", ckpt_str],
        ),
        vec![
            spawn_rank("worker", 0, &peers, TRAINING_FLAGS, &[]),
            spawn_rank("worker", 1, &peers, TRAINING_FLAGS, &[]),
        ],
    );
    assert_eq!(cluster.codes, vec![0, 0, 0], "stderr:\n{}", cluster.stderr);

    // reference: the same configuration through the in-process trainer
    let run = parse_args(
        &TRAINING_FLAGS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let workload = Workload::for_kind(run.kind, run.data_scale, run.config.seed);
    let reference = run_distributed(&run.config, &workload);

    // step-for-step identical sync decisions
    let ref_decisions: String = reference
        .step_records
        .iter()
        .map(|r| if r.synced { '1' } else { '0' })
        .collect();
    assert_eq!(field(&cluster.workers[0], "decisions"), ref_decisions);

    // bit-identical final global parameters
    let dist_params = checkpoint::load_params(&ckpt).expect("ps checkpoint");
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(
        dist_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        reference
            .final_params
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "multi-process params must be bit-identical to in-process"
    );

    // per-process send counters sum to the in-process shared counter
    let total: u64 = std::iter::once(&cluster.ps)
        .chain(&cluster.workers)
        .map(|s| field(s, "fabric_bytes_sent").parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, reference.comm_bytes, "framed byte totals must match");
}
