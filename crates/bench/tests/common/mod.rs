//! The one process harness of the multi-process suites: reserve ports,
//! spawn `selsync_dist` ranks, wait for them, and read `key=value`
//! fields off their stdout.

// each suite uses its own subset of the harness
#![allow(dead_code)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Reserve `n` distinct loopback ports *below* the kernel's ephemeral
/// range. A kernel-assigned (port 0) listen port can be stolen — as the
/// source port of some other test's outbound connection — between
/// dropping the probe listener here and the spawned rank re-binding it,
/// which strands the whole fabric (observed under full-workspace test
/// load). Low ports are never handed out as source ports, so a
/// successful probe stays bindable; the cursor keeps concurrent callers
/// in one process disjoint.
///
/// Each suite probes its own window, `base .. base + 2·span`, starting
/// at an offset derived from the process id so concurrent test binaries
/// rarely meet: dist 23000-30999, ps_failover 25000-28799, chaos
/// 27000-30399, shard 31000-32699, overlap 33000-40999 (`ci.sh` runs
/// the suites one at a time).
pub fn free_ports(base: usize, span: usize, n: usize) -> Vec<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PORT_CURSOR: AtomicUsize = AtomicUsize::new(0);
    let base = base + (std::process::id() as usize % span);
    let mut held = Vec::new();
    let mut addrs = Vec::new();
    while addrs.len() < n {
        let port = base + PORT_CURSOR.fetch_add(1, Ordering::Relaxed) % span;
        if let Ok(l) = TcpListener::bind(("127.0.0.1", port as u16)) {
            addrs.push(format!("127.0.0.1:{port}"));
            held.push(l);
        }
    }
    addrs
}

/// A per-process scratch path for plans and checkpoints.
pub fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("selsync_proc_{}_{name}", std::process::id()));
    p
}

/// Spawn one `selsync_dist` rank: its identity, then the suite's shared
/// training `recipe`, then this rank's `extra` flags.
pub fn spawn_rank(role: &str, rank: usize, peers: &str, recipe: &[&str], extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_selsync_dist"))
        .args([
            "--role",
            role,
            "--rank",
            &rank.to_string(),
            "--peers",
            peers,
        ])
        .args(recipe)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn selsync_dist")
}

/// Extract `key=value` from stdout, where several pairs may share a
/// line (the chaos counter and `recovery=` lines do).
pub fn field(stdout: &str, key: &str) -> String {
    stdout
        .lines()
        .flat_map(|l| l.split_whitespace())
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing {key} in output:\n{stdout}"))
        .to_string()
}

pub struct RankOut {
    pub stdout: String,
    pub code: i32,
}

/// Wait for every rank, in the order given, and collect stdout and exit
/// codes, concatenating stderr for failure diagnostics.
pub fn collect(ranks: Vec<Child>) -> (Vec<RankOut>, String) {
    let mut outs = Vec::new();
    let mut stderr = String::new();
    for c in ranks {
        let out = c.wait_with_output().unwrap();
        stderr.push_str(&String::from_utf8_lossy(&out.stderr));
        outs.push(RankOut {
            stdout: String::from_utf8(out.stdout).unwrap(),
            code: out.status.code().unwrap_or(-1),
        });
    }
    (outs, stderr)
}

pub fn assert_clean(outs: &[RankOut], stderr: &str, label: &str) {
    let codes: Vec<i32> = outs.iter().map(|o| o.code).collect();
    let stdouts: Vec<&str> = outs.iter().map(|o| o.stdout.as_str()).collect();
    assert!(
        codes.iter().all(|&c| c == 0),
        "{label}: exit codes {codes:?}; stderr:\n{stderr}\nstdouts:\n{stdouts:#?}"
    );
}

/// One PS + its workers, collected: each rank's stdout and exit code
/// (PS first in `codes`), plus every rank's stderr concatenated.
pub struct ClusterRun {
    pub ps: String,
    pub workers: Vec<String>,
    pub codes: Vec<i32>,
    pub stderr: String,
}

pub fn collect_cluster(ps: Child, workers: Vec<Child>) -> ClusterRun {
    let (outs, stderr) = collect(std::iter::once(ps).chain(workers).collect());
    let codes = outs.iter().map(|o| o.code).collect();
    let mut stdouts = outs.into_iter().map(|o| o.stdout);
    ClusterRun {
        ps: stdouts.next().expect("the ps rank"),
        workers: stdouts.collect(),
        codes,
        stderr,
    }
}
