//! A warm sync round allocates no model-sized buffer in the fabric.
//!
//! Two workers push 1 Mi floats (4 MB) each to a parameter server over a
//! loopback mesh, round after round, as the dense sync benchmark does:
//! `sync_round` against `run_round_server(&mut ps, ...)`. Once warm, the
//! frames each rank encodes, the vectors each reader decodes into and the
//! reply the server reduces into all come back through the endpoints'
//! pools, so the only allocations of 64 KiB or more in a round are the
//! copies the callers themselves make of what they push. A counting
//! `#[global_allocator]` (per binary, hence the file of its own) counts
//! them across every thread of the process — ranks, readers, writers and
//! the poll driver alike — on both drivers.

use selsync_comm::ps::{run_round_server, send_shutdown, sync_round, SyncRequest};
use selsync_comm::Transport;
use selsync_net::{PollTcpEndpoint, TcpEndpoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Duration;

/// An allocation at least this large is model-sized here; everything a
/// round allocates below it (queue nodes, `Arc` headers, message
/// vectors) is bookkeeping.
const BIG: usize = 64 * 1024;

const WORKERS: usize = 2;
const LEN: usize = 1 << 20;
const WARM_ROUNDS: u64 = 4;
const COUNTED_ROUNDS: u64 = 8;

static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting is a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System::alloc`'s, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: the caller's obligations are `System::dealloc`'s, passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide, so the two drivers take turns.
static ONE_MESH_AT_A_TIME: Mutex<()> = Mutex::new(());

fn pushed(worker: usize) -> Vec<f32> {
    (0..LEN)
        .map(|i| ((i * 7 + worker * 13) % 1000) as f32 * 0.001 - 0.5)
        .collect()
}

/// Run warm-up rounds, then count the big allocations of the counted
/// rounds; every worker checks its last reply against the mean, bit for
/// bit. The mesh is workers `0..WORKERS`, then the server.
fn big_allocations_per_warm_round<E: Transport + Send>(mesh: Vec<E>) -> u64 {
    let mut mean = pushed(0);
    for (m, x) in mean.iter_mut().zip(pushed(1)) {
        *m = (*m + x) / WORKERS as f32;
    }
    let mean = &mean;
    // workers and this thread: warm-up done, counting started, rounds done
    let gate = Barrier::new(WORKERS + 1);
    let gate = &gate;
    let mut ranks = mesh.into_iter();
    let workers: Vec<E> = ranks.by_ref().take(WORKERS).collect();
    let mut ps = ranks.next().expect("the server's endpoint");
    thread::scope(|s| {
        s.spawn(move || run_round_server(&mut ps, WORKERS, Vec::new()).expect("server"));
        for mut ep in workers {
            s.spawn(move || {
                let mine = pushed(ep.id());
                let mut round = |r: u64| {
                    let reply =
                        sync_round(&mut ep, WORKERS, r, SyncRequest::PushGrads(mine.clone()))
                            .expect("round");
                    let exact = reply.len() == mean.len()
                        && reply
                            .iter()
                            .zip(mean)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(exact, "round {r}: the reply is not the mean");
                };
                (0..WARM_ROUNDS).for_each(&mut round);
                gate.wait();
                gate.wait();
                (WARM_ROUNDS..WARM_ROUNDS + COUNTED_ROUNDS).for_each(&mut round);
                gate.wait();
                send_shutdown(&mut ep, WORKERS, u64::MAX).expect("shutdown");
            });
        }
        gate.wait();
        let before = BIG_ALLOCS.load(Ordering::SeqCst);
        gate.wait();
        gate.wait();
        BIG_ALLOCS.load(Ordering::SeqCst) - before
    })
}

fn check(allocs: u64, driver: &str) {
    // each worker's `mine.clone()`, once per round
    let pushes = WORKERS as u64 * COUNTED_ROUNDS;
    assert_eq!(
        allocs, pushes,
        "{driver}: {allocs} allocations of >= {BIG} bytes in {COUNTED_ROUNDS} warm rounds; \
         the callers' pushes account for {pushes}, the fabric must add none"
    );
}

#[test]
fn warm_rounds_on_the_blocking_driver_allocate_only_the_pushes() {
    let _turn = ONE_MESH_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = TcpEndpoint::loopback_mesh(WORKERS + 1, |c| {
        c.recv_timeout = Duration::from_secs(60);
    })
    .unwrap();
    check(big_allocations_per_warm_round(mesh), "blocking");
}

#[test]
fn warm_rounds_on_the_poll_driver_allocate_only_the_pushes() {
    let _turn = ONE_MESH_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = PollTcpEndpoint::loopback_mesh(WORKERS + 1, |c| {
        c.recv_timeout = Duration::from_secs(60);
    })
    .unwrap();
    check(big_allocations_per_warm_round(mesh), "poll");
}
