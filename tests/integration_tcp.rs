//! Loopback TCP fabric integration: the same experiment run (a) fully
//! in-process over the channel fabric and (b) over real 127.0.0.1
//! sockets must make the same sync decision at every step and end with
//! bit-identical parameters — the trainer is transport-agnostic and the
//! wire codec is lossless. Every test runs over both socket drivers.

use selsync_comm::Transport;
use selsync_core::prelude::*;
use selsync_core::trainer::{run_server_rank, run_worker_rank, WorkerOutput};
use selsync_core::{run_distributed, RunConfig};
use selsync_net::{PollTcpEndpoint, TcpEndpoint, TcpFabricConfig};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn watchdog(cfg: &mut TcpFabricConfig) {
    cfg.recv_timeout = Duration::from_secs(60);
}

fn blocking_mesh(n_ranks: usize) -> Vec<TcpEndpoint> {
    TcpEndpoint::loopback_mesh(n_ranks, watchdog).expect("loopback mesh")
}

fn poll_mesh(n_ranks: usize) -> Vec<PollTcpEndpoint> {
    PollTcpEndpoint::loopback_mesh(n_ranks, watchdog).expect("loopback mesh")
}

/// Instantiate each generic test below over a mesh of either driver.
macro_rules! over_both_drivers {
    ($($test:ident),* $(,)?) => {
        mod blocking {
            $(#[test] fn $test() { super::$test(super::blocking_mesh); })*
        }
        mod poll {
            $(#[test] fn $test() { super::$test(super::poll_mesh); })*
        }
    };
}

over_both_drivers!(
    selsync_over_tcp_matches_in_process_bitwise,
    bsp_over_tcp_matches_in_process_bitwise,
    ssp_over_tcp_completes_and_accounts_bytes,
);

/// Run `config` over real sockets: one thread per rank, each owning an
/// endpoint of `mesh` — the same topology `selsync_dist` gives separate
/// OS processes. Returns (worker outputs in rank order, final global
/// params, total bytes actually framed onto sockets).
fn run_over_tcp<E: Transport + Send + 'static>(
    mesh: fn(usize) -> Vec<E>,
    config: &RunConfig,
    workload: &Workload,
) -> (Vec<WorkerOutput>, Vec<f32>, u64) {
    let n = config.n_workers;
    let mut endpoints = mesh(n + 1);
    let server_ep = endpoints.pop().unwrap();
    let stats: Vec<_> = endpoints
        .iter()
        .map(|ep| Arc::clone(ep.stats()))
        .chain(std::iter::once(Arc::clone(server_ep.stats())))
        .collect();

    let config = Arc::new(config.clone());
    let workload = Arc::new(workload.clone());
    let server = {
        let cfg = Arc::clone(&config);
        let wl = Arc::clone(&workload);
        thread::spawn(move || run_server_rank(server_ep, &cfg, &wl))
    };
    let workers: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let cfg = Arc::clone(&config);
            let wl = Arc::clone(&workload);
            thread::spawn(move || run_worker_rank(ep, &cfg, &wl))
        })
        .collect();

    let mut outputs: Vec<WorkerOutput> = workers
        .into_iter()
        .map(|h| h.join().unwrap().expect("worker comm fault"))
        .collect();
    outputs.sort_by_key(|o| o.worker);
    let final_params = server.join().unwrap().expect("server comm fault");
    let bytes = stats.iter().map(|s| s.total_bytes()).sum();
    (outputs, final_params, bytes)
}

fn selsync_config() -> RunConfig {
    RunConfig {
        strategy: Strategy::SelSync {
            delta: 0.25,
            aggregation: Aggregation::Parameter,
        },
        n_workers: 2,
        max_steps: 15,
        eval_every: 15,
        ..RunConfig::quick_defaults()
    }
}

fn workload() -> Workload {
    Workload::vision(ModelKind::VggMini, 96, 32, 7)
}

fn selsync_over_tcp_matches_in_process_bitwise<E: Transport + Send + 'static>(
    mesh: fn(usize) -> Vec<E>,
) {
    let cfg = selsync_config();
    let wl = workload();
    let reference = run_distributed(&cfg, &wl);
    let (outputs, final_params, tcp_bytes) = run_over_tcp(mesh, &cfg, &wl);

    // step-for-step identical sync decisions (worker 0 keeps the log)
    let ref_decisions: Vec<bool> = reference.step_records.iter().map(|r| r.synced).collect();
    let tcp_decisions: Vec<bool> = outputs[0].records.iter().map(|r| r.synced).collect();
    assert_eq!(ref_decisions, tcp_decisions, "sync schedules must agree");

    // Δ(g) values feeding those decisions agree bit-exactly too
    let ref_dg: Vec<u32> = reference
        .step_records
        .iter()
        .map(|r| r.delta_g.to_bits())
        .collect();
    let tcp_dg: Vec<u32> = outputs[0]
        .records
        .iter()
        .map(|r| r.delta_g.to_bits())
        .collect();
    assert_eq!(ref_dg, tcp_dg);

    // bit-identical final global parameters
    assert_eq!(
        reference
            .final_params
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "global params must be bit-identical across transports"
    );
    // and bit-identical per-worker replicas
    for (o, ref_params) in outputs.iter().zip(&reference.worker_params) {
        assert_eq!(
            o.final_params
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            ref_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "worker {} replica diverged across transports",
            o.worker
        );
    }

    // byte accounting: both transports charge Payload::wire_bytes per
    // message, so the summed TCP per-rank counters (each backed by real
    // encoded frames — the codec asserts the equality) match the shared
    // in-process counter exactly
    assert_eq!(tcp_bytes, reference.comm_bytes, "framed bytes must match");
}

fn bsp_over_tcp_matches_in_process_bitwise<E: Transport + Send + 'static>(
    mesh: fn(usize) -> Vec<E>,
) {
    let mut cfg = selsync_config();
    cfg.strategy = Strategy::Bsp {
        aggregation: Aggregation::Gradient,
    };
    cfg.max_steps = 8;
    let wl = workload();
    let reference = run_distributed(&cfg, &wl);
    let (outputs, final_params, tcp_bytes) = run_over_tcp(mesh, &cfg, &wl);
    assert_eq!(
        reference
            .final_params
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(outputs[0].lssr.lssr(), 0.0);
    assert_eq!(tcp_bytes, reference.comm_bytes);
}

fn ssp_over_tcp_completes_and_accounts_bytes<E: Transport + Send + 'static>(
    mesh: fn(usize) -> Vec<E>,
) {
    // SSP is valid but order-sensitive server-side, so require only a
    // clean finish and exact byte accounting (not bitwise identity)
    let mut cfg = selsync_config();
    cfg.strategy = Strategy::Ssp { staleness: 3 };
    cfg.max_steps = 8;
    let wl = workload();
    let reference = run_distributed(&cfg, &wl);
    let (outputs, final_params, tcp_bytes) = run_over_tcp(mesh, &cfg, &wl);
    assert!(final_params.iter().all(|v| v.is_finite()));
    assert_eq!(outputs.len(), 2);
    assert_eq!(tcp_bytes, reference.comm_bytes);
}
