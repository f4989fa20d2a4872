//! A length prefix commits no memory: a reader's allocations follow the
//! bytes that arrive, not the length a frame declares. A peer that
//! announces a 256 MiB gradient frame — a header whose count matches the
//! prefix, well under the default 1 GiB cap — and then sends 64 bytes
//! must not move the receiving process's resident set by more than
//! a little. (A reader that sized its buffer from the prefix, zero-filled,
//! grew it by the whole 256 MiB on the spot.) Resident memory is the
//! process's, so this binary holds nothing else, and its tests take turns.

use selsync_net::{encode_handshake, PollTcpEndpoint, TcpEndpoint, HANDSHAKE_BYTES};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The resident set may grow this much while the reader holds the frame.
const ALLOWED_GROWTH: u64 = 16 << 20;

/// Floats the hostile frame declares: 256 MiB of them.
const DECLARED_FLOATS: u32 = 64 << 20;

/// The frame kind byte of `Payload::Grads`.
const KIND_GRADS: u8 = 1;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// This process's resident set in bytes, from `/proc/self/status`.
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Dial `addr` as a peer would, announce the frame, send 64 of its bytes,
/// and hold the connection open: the reader is left mid-frame.
fn announce_and_stall(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&encode_handshake()).unwrap();
    s.read_exact(&mut [0u8; HANDSHAKE_BYTES]).unwrap();
    let declared = 4 + 8 + 1 + 4 + 4 * u64::from(DECLARED_FLOATS) + 4;
    let mut head = Vec::new();
    head.extend_from_slice(&(declared as u32).to_be_bytes());
    head.extend_from_slice(&1u32.to_be_bytes()); // from
    head.extend_from_slice(&0u64.to_be_bytes()); // tag
    head.push(KIND_GRADS);
    head.extend_from_slice(&DECLARED_FLOATS.to_be_bytes());
    head.extend_from_slice(&[0x3F; 64]);
    s.write_all(&head).unwrap();
    s
}

/// The growth of the resident set while a reader of `ep` holds the
/// announced frame, then the fault the torn frame becomes on EOF.
fn growth_while_stalled<E>(
    ep: &mut E,
    addr: SocketAddr,
    faults: impl Fn(&mut E) -> Vec<String>,
) -> Option<u64> {
    let before = resident_bytes()?;
    let stalled = announce_and_stall(addr);
    // the peak over a second: the reader takes the header and the 64
    // bytes at once, but a buffer it sized from the prefix takes a while
    // to zero-fill
    let mut during = before;
    for _ in 0..50 {
        thread::sleep(Duration::from_millis(20));
        during = during.max(resident_bytes()?);
    }
    drop(stalled);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = faults(ep);
    while seen.is_empty() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        seen = faults(ep);
    }
    assert!(
        seen.iter().any(|f| f.contains("torn frame: 81 of")),
        "the stalled frame ends as a torn frame: {seen:?}"
    );
    Some(during.saturating_sub(before))
}

fn check(growth: Option<u64>, driver: &str) {
    let Some(growth) = growth else {
        eprintln!("no /proc/self/status on this platform; resident set not measured");
        return;
    };
    assert!(
        growth < ALLOWED_GROWTH,
        "{driver}: a 256 MiB declared frame plus 64 bytes grew the resident set by {} KiB",
        growth >> 10
    );
}

#[test]
fn the_blocking_reader_commits_memory_as_bytes_arrive() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut eps = TcpEndpoint::loopback_mesh(2, |_| {}).unwrap();
    let addr = eps[0].local_addr();
    let growth = growth_while_stalled(&mut eps[0], addr, |ep| {
        ep.link_faults()
            .iter()
            .map(|f| f.error.to_string())
            .collect()
    });
    check(growth, "blocking");
}

#[test]
fn the_poll_reader_commits_memory_as_bytes_arrive() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut eps = PollTcpEndpoint::loopback_mesh(2, |_| {}).unwrap();
    let addr = eps[0].local_addr();
    let growth = growth_while_stalled(&mut eps[0], addr, |ep| {
        ep.link_faults()
            .iter()
            .map(|f| f.error.to_string())
            .collect()
    });
    check(growth, "poll");
}
