//! Sharded parameter-server sweep: K ∈ {1, 2, 4} shards × N workers.
//!
//! Two row families, merged into `BENCH_kernels.json` (run *after*
//! `kernel_bench`, which rewrites that file wholesale; this harness
//! reads it back, drops any stale `shard_*` rows and appends fresh
//! ones, so the two tables coexist in one report):
//!
//! * `shard_sync` — *measured*: a real in-process elastic cluster per K
//!   (channel fabric, VGG-mini, same seed), reporting wall time per
//!   step and validating two invariants end-to-end: the worker's fan-out
//!   wire bytes match the closed-form accounting (each extra sub-frame
//!   costs exactly one header + count prefix) and the final parameters
//!   are bit-identical across every K — sharding is a pure re-layout of
//!   the same arithmetic.
//! * `shard_sync_model` / `shard_crossover` — *modeled*: the calibrated
//!   [`NetworkModel::paper_cluster`] at the paper's scale (VGG11 over
//!   16 workers), where splitting the PS genuinely pays: the sweep must
//!   show K = 4 beating K = 1 at the congested point, and the
//!   crossover row records the model size where fan-out latency stops
//!   dominating and bandwidth sharding starts winning.
//!
//! Flags:
//!
//! * `--quick`     smaller cluster / fewer steps (CI mode)
//! * `--out PATH`  merge into this JSON table (default BENCH_kernels.json)
//!
//! Exits nonzero if any invariant fails or the merged file does not
//! read back with every shard row intact and positive.

use selsync_bench::{banner, json_row};
use selsync_comm::shard::fanout_push_wire_bytes;
use selsync_comm::{Fabric, NetworkModel, Payload};
use selsync_core::prelude::*;
use selsync_core::trainer::WorkerOutput;
use selsync_core::ElasticOptions;
use selsync_core::{run_elastic_server_rank, run_elastic_worker_rank};
use selsync_shard::{Role, ShardLayout, ShardMap};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Same row/report shape as `kernel_bench` — the two binaries share one
/// JSON table, so the schema string and field names must match exactly.
#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    shape: String,
    impl_name: String,
    ms_per_call: f64,
    gflops: Option<f64>,
    steps_per_sec: Option<f64>,
    checksum: f64,
    checksum_ok: Option<bool>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    rows: Vec<Row>,
}

const SCHEMA: &str = "selsync-kernel-bench-v1";
const SWEEP_K: [usize; 3] = [1, 2, 4];

/// One measured sharded run: wall seconds, the cluster's total wire
/// bytes and sync count, and every worker's final parameters.
struct Measured {
    secs: f64,
    cluster_bytes: u64,
    syncs: u64,
    outs: Vec<WorkerOutput>,
}

fn sweep_config(n_workers: usize, steps: u64) -> RunConfig {
    RunConfig {
        strategy: Strategy::SelSync {
            delta: 0.25,
            aggregation: Aggregation::Parameter,
        },
        n_workers,
        max_steps: steps,
        eval_every: steps,
        ..RunConfig::quick_defaults()
    }
}

/// Run a full K-shard cluster on the channel fabric and collect the
/// measurements. Mirrors the layout convention everywhere else: workers
/// first, then shards.
fn run_measured(cfg: &RunConfig, wl: &Workload, opts: &ElasticOptions, k: usize) -> Measured {
    let layout = ShardLayout::new(k, cfg.n_workers, false);
    let eps = Fabric::new(layout.total_ranks());
    // the channel fabric shares one CommStats across every endpoint, so
    // any endpoint's counter reads the whole cluster's traffic
    let fabric_stats = Arc::clone(eps[0].stats());
    let mut servers = Vec::new();
    let mut workers = Vec::new();
    let start = Instant::now();
    for mut ep in eps {
        let (cfg, wl, opts) = (cfg.clone(), wl.clone(), opts.clone());
        match layout.role_of(ep.id()) {
            Role::Worker(_) => workers.push(thread::spawn(move || {
                run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout)
            })),
            _ => servers.push(thread::spawn(move || {
                run_elastic_server_rank(ep, &cfg, &wl, &opts, layout)
            })),
        }
    }
    let outs: Vec<WorkerOutput> = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("worker ok"))
        .collect();
    for h in servers {
        h.join().expect("shard thread").expect("shard ok");
    }
    let secs = start.elapsed().as_secs_f64();
    let syncs = outs[0].records.iter().filter(|r| r.synced).count() as u64;
    Measured {
        secs,
        cluster_bytes: fabric_stats.total_bytes(),
        syncs,
        outs,
    }
}

/// Closed-form wire bytes the *whole cluster* sends in a fault-free
/// K-shard run — every frame of the protocol, both directions:
///
/// * handshake: each worker sends its map to every shard, each shard
///   echoes it back;
/// * per step: each worker fans a 1-byte flags frame to every shard,
///   each shard answers with the n-byte status vector;
/// * per sync: each worker's push splits into K sub-frames
///   ([`fanout_push_wire_bytes`]), and the K range replies cost exactly
///   the same bytes coming back;
/// * shutdown: one control frame from each worker to every shard.
///
/// Measured bytes must match this *exactly* — any drift means a frame
/// the accounting forgot (or an unplanned retry/catch-up).
fn expected_cluster_bytes(params: usize, n: usize, k: usize, steps: u64, syncs: u64) -> u64 {
    let map = ShardMap::compute(params as u64, k);
    let map_frame = Payload::ShardMap(map.spec().clone()).wire_bytes();
    let flags_up = Payload::Flags(vec![0]).wire_bytes();
    let flags_down = Payload::Flags(vec![0; n]).wire_bytes();
    let ctrl_frame = Payload::Control(0).wire_bytes();
    let (n64, k64) = (n as u64, k as u64);
    2 * n64 * k64 * map_frame
        + steps * n64 * k64 * (flags_up + flags_down)
        + 2 * syncs * n64 * fanout_push_wire_bytes(params, k)
        + n64 * k64 * ctrl_frame
}

fn checksum(v: &[f32]) -> f64 {
    v.iter().map(|&x| f64::from(x)).sum()
}

fn fmt_row(r: &Row) {
    println!(
        "  {:<18} {:<20} {:<10} {:>10.3} ms   checksum {:>14.4} {}",
        r.bench,
        r.shape,
        r.impl_name,
        r.ms_per_call,
        r.checksum,
        match r.checksum_ok {
            Some(true) => "ok",
            Some(false) => "MISMATCH",
            None => "-",
        }
    );
    json_row(r);
}

/// Measured sweep: one row per K, validated for byte-exact accounting
/// and bit-identical results across shard counts.
fn measured_rows(quick: bool) -> (Vec<Row>, bool) {
    let (n, steps) = if quick { (2, 6) } else { (4, 12) };
    let cfg = sweep_config(n, steps);
    let wl = Workload::vision(ModelKind::VggMini, 96, 32, 7);
    let opts = ElasticOptions::with_liveness(Duration::from_millis(500), 3);
    let params = selsync_core::shard_map_for(&wl, &ShardLayout::new(1, n, false)).total() as usize;

    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for k in SWEEP_K {
        let m = run_measured(&cfg, &wl, &opts, k);
        let expected = expected_cluster_bytes(params, n, k, steps, m.syncs);
        let bytes_ok = m.cluster_bytes == expected;
        if !bytes_ok {
            eprintln!(
                "  !! k={k}: cluster sent {} wire bytes, accounting predicts {expected}",
                m.cluster_bytes
            );
        }
        let finals: Vec<Vec<f32>> = m.outs.iter().map(|o| o.final_params.clone()).collect();
        let params_ok = match &reference {
            None => {
                reference = Some(finals.clone());
                true
            }
            Some(r) => r == &finals,
        };
        if !params_ok {
            eprintln!("  !! k={k}: final parameters diverge from the k=1 run");
        }
        all_ok &= bytes_ok && params_ok;
        let row = Row {
            bench: "shard_sync".into(),
            shape: format!("vgg-mini:w{n}k{k}"),
            impl_name: "measured".into(),
            ms_per_call: m.secs * 1e3 / steps as f64,
            gflops: None,
            steps_per_sec: Some(steps as f64 / m.secs),
            checksum: checksum(&m.outs[0].final_params),
            checksum_ok: Some(bytes_ok && params_ok),
        };
        fmt_row(&row);
        rows.push(row);
    }
    (rows, all_ok)
}

/// Modeled sweep at the paper's scale: VGG11 (507 MB of f32 parameters)
/// over 16 workers on the calibrated cluster. This is where sharding
/// pays: the acceptance bar is K = 4 strictly beating K = 1 at the
/// congested point, with K = 1 exactly reproducing the monolithic
/// model's prediction.
fn model_rows() -> (Vec<Row>, bool) {
    let net = NetworkModel::paper_cluster();
    let vgg11_bytes: u64 = 507 * 1024 * 1024;
    let n = 16;

    let mut rows = Vec::new();
    let times: Vec<f64> = SWEEP_K
        .iter()
        .map(|&k| net.sharded_ps_sync_time(vgg11_bytes, n, k))
        .collect();
    let k1_matches_mono = times[0].to_bits() == net.ps_sync_time(vgg11_bytes, n).to_bits();
    let k4_wins = times[SWEEP_K.len() - 1] < times[0];
    if !k1_matches_mono {
        eprintln!("  !! modeled k=1 time diverges from the monolithic model");
    }
    if !k4_wins {
        eprintln!("  !! modeled k=4 does not beat k=1 at the congested point");
    }
    for (&k, &t) in SWEEP_K.iter().zip(&times) {
        let row = Row {
            bench: "shard_sync_model".into(),
            shape: format!("vgg11-507MB:n{n}k{k}"),
            impl_name: "netmodel".into(),
            ms_per_call: t * 1e3,
            gflops: None,
            steps_per_sec: None,
            checksum: t,
            checksum_ok: Some(k1_matches_mono && k4_wins),
        };
        fmt_row(&row);
        rows.push(row);
    }

    // the break-even model size: below it fan-out latency dominates and
    // K = 1 is at least as fast; above it the per-shard bandwidth share
    // wins. Probe both sides to prove the row means what it says.
    let cross = net.shard_crossover_bytes(n, 4);
    let below = cross / 4;
    let above = cross * 4;
    let cross_ok = cross > 0
        && net.sharded_ps_sync_time(below, n, 4) >= net.sharded_ps_sync_time(below, n, 1)
        && net.sharded_ps_sync_time(above, n, 4) < net.sharded_ps_sync_time(above, n, 1);
    if !cross_ok {
        eprintln!("  !! crossover row fails its two-sided probe at {cross} bytes");
    }
    let row = Row {
        bench: "shard_crossover".into(),
        shape: format!("n{n}k4"),
        impl_name: "netmodel".into(),
        ms_per_call: net.sharded_ps_sync_time(cross, n, 4) * 1e3,
        gflops: None,
        steps_per_sec: None,
        checksum: cross as f64,
        checksum_ok: Some(cross_ok),
    };
    fmt_row(&row);
    rows.push(row);
    (rows, k1_matches_mono && k4_wins && cross_ok)
}

/// Merge the shard rows into the existing kernel table: keep everything
/// `kernel_bench` wrote, replace any stale `shard_*` rows.
fn merge_into(path: &str, mode: &str, fresh: Vec<Row>) -> Report {
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<Report>(&s).ok())
        .unwrap_or_else(|| Report {
            schema: SCHEMA.to_string(),
            mode: mode.to_string(),
            rows: Vec::new(),
        });
    report.rows.retain(|r| !r.bench.starts_with("shard_"));
    report.rows.extend(fresh);
    report
}

fn parse_flags() -> (bool, String) {
    let mut quick = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other:?} (expected --quick / --out PATH)");
                std::process::exit(2);
            }
        }
    }
    (quick, out_path)
}

fn main() {
    let (quick, out_path) = parse_flags();
    let mode = if quick { "quick" } else { "full" };
    banner(
        "shard-bench",
        &format!("sharded PS sweep (K in {SWEEP_K:?}, mode {mode})"),
    );

    println!("measured (channel fabric):");
    let (mrows, measured_ok) = measured_rows(quick);
    println!("modeled (paper cluster):");
    let (crows, model_ok) = model_rows();

    let fresh: Vec<Row> = mrows.into_iter().chain(crows).collect();
    let n_fresh = fresh.len();
    let report = merge_into(&out_path, mode, fresh);
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, json).expect("write report");

    // read back and re-validate: the merged table must hold every fresh
    // shard row, all positive and none flagged as a mismatch
    let back: Report =
        serde_json::from_str(&std::fs::read_to_string(&out_path).expect("re-read report"))
            .expect("parse merged report");
    let shard_rows: Vec<&Row> = back
        .rows
        .iter()
        .filter(|r| r.bench.starts_with("shard_"))
        .collect();
    let readback_ok = back.schema == SCHEMA
        && shard_rows.len() == n_fresh
        && shard_rows.iter().all(|r| {
            r.ms_per_call.is_finite() && r.ms_per_call > 0.0 && r.checksum_ok != Some(false)
        });

    if !(measured_ok && model_ok && readback_ok) {
        eprintln!(
            "FAILED: measured_ok={measured_ok} model_ok={model_ok} readback_ok={readback_ok}"
        );
        std::process::exit(1);
    }
    println!(
        "wrote {n_fresh} shard rows into {out_path} ({} rows total)",
        back.rows.len()
    );
}
