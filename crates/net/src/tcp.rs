//! The blocking driver: a fully-connected mesh of processes (or
//! threads) served by one acceptor thread, one reader thread per
//! inbound connection and one writer thread per peer, all on blocking
//! sockets — plus the socket helpers (`bind_reuse`, `dial`, the dialer
//! handshake) both drivers and the shared `MeshEndpoint` use.
//!
//! [`TcpEndpoint`] is `MeshEndpoint` over this driver; everything a
//! caller sees — `connect`, the `Transport` receive semantics,
//! [`LinkFault`] reporting, teardown — is documented on
//! `MeshEndpoint`, in `endpoint.rs`. Writer threads drain their peer's
//! frame queue with `write_all` and redial a broken link within
//! `reconnect_timeout`; reader threads decode frames into the shared
//! inbox and report byte-level damage as typed faults.

use crate::codec::{decode_after_len, decode_handshake, encode_handshake, HANDSHAKE_BYTES};
use crate::endpoint::{link_fault, Driver, InboxEvent, Links, MeshEndpoint};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::endpoint::{LinkFault, TcpFabricConfig, DEFAULT_MAX_FRAME_BYTES};

/// How often blocked reader/acceptor threads wake to check shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Bind a listener with `SO_REUSEADDR`, so a restarted rank can
/// reclaim its advertised port while the previous process's accepted
/// connections still sit in `TIME_WAIT` / `FIN_WAIT` (a parameter
/// server respawned with `--resume` rebinds the same address seconds
/// after the old one was killed). `std::net::TcpListener::bind` offers
/// no hook between `socket()` and `bind()`, so on Linux the socket is
/// assembled through the already-linked C library directly; elsewhere
/// — and for anything but a literal IPv4 address — it falls back to
/// the plain std bind, which costs only restart latency, never
/// correctness.
pub(crate) fn bind_reuse(addr: &str) -> io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    if let Ok(SocketAddr::V4(v4)) = addr.parse::<SocketAddr>() {
        return bind_reuse_v4(&v4);
    }
    TcpListener::bind(addr)
}

#[cfg(target_os = "linux")]
fn bind_reuse_v4(addr: &std::net::SocketAddrV4) -> io::Result<TcpListener> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::{FromRawFd, RawFd};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;

    /// `struct sockaddr_in`; `sin_port` and `sin_addr` in network order.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    // SAFETY: plain libc socket calls on a fd this function owns until
    // it is handed to `TcpListener`; on any failure the fd is closed
    // before returning the OS error.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: c_int| -> io::Error {
            let e = io::Error::last_os_error();
            close(fd);
            e
        };
        let one: c_int = 1;
        if setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&raw const one).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        ) != 0
        {
            return Err(fail(fd));
        }
        let sa = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from_ne_bytes(addr.ip().octets()),
            sin_zero: [0; 8],
        };
        if bind(
            fd,
            (&raw const sa).cast::<c_void>(),
            std::mem::size_of::<SockaddrIn>() as u32,
        ) != 0
        {
            return Err(fail(fd));
        }
        if listen(fd, 128) != 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd as RawFd))
    }
}

/// One rank's handle on the blocking TCP fabric: the shared
/// `MeshEndpoint` served by reader/writer/acceptor threads.
pub type TcpEndpoint = MeshEndpoint<ThreadDriver>;

/// The blocking driver's threads. Only names the driver in
/// [`TcpEndpoint`]; there is nothing to construct or call.
pub struct ThreadDriver {
    /// The acceptor (which owns and joins its reader threads) and one
    /// writer per peer.
    threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    write_timeout: Duration,
    reconnect_timeout: Duration,
}

impl Driver for ThreadDriver {
    fn start(
        listener: Option<TcpListener>,
        links: Links,
        config: &TcpFabricConfig,
    ) -> io::Result<Self> {
        let shutdown = Arc::clone(&links.shutdown);
        let max_frame = config.max_frame_bytes;
        let threads = listener
            .map(|l| std::thread::spawn(move || accept_loop(&l, &links, max_frame)))
            .into_iter()
            .collect();
        Ok(ThreadDriver {
            threads,
            shutdown,
            write_timeout: config.write_timeout,
            reconnect_timeout: config.reconnect_timeout,
        })
    }

    fn adopt(&mut self, addr: &str, stream: TcpStream, frames: Receiver<Bytes>) -> io::Result<()> {
        let addr = addr.to_string();
        let shutdown = Arc::clone(&self.shutdown);
        let (write_timeout, reconnect_timeout) = (self.write_timeout, self.reconnect_timeout);
        self.threads.push(std::thread::spawn(move || {
            write_loop(
                stream,
                &addr,
                &frames,
                &shutdown,
                write_timeout,
                reconnect_timeout,
            );
        }));
        Ok(())
    }

    /// Writers block on their queues and readers on their sockets;
    /// nobody needs telling.
    fn notify(&self) {}

    fn stop(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Dial `addr` until it answers or `timeout` elapses. Exponential
/// backoff from 20ms; lets a whole fleet be launched in any order.
pub(crate) fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(20);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + backoff >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("dialing {addr} failed after {timeout:?}: {e}"),
                    ));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Dialer half of the connection preamble: advertise our protocol,
/// read the peer's echo, and fail fast (typed, as an
/// `InvalidData` [`io::Error`] wrapping [`crate::codec::FrameError`],
/// recoverable via [`io::Error::get_ref`]) if the peer speaks a
/// different version or no SelSync at all.
pub(crate) fn shake_hands_as_dialer(stream: &mut TcpStream, timeout: Duration) -> io::Result<()> {
    stream.write_all(&encode_handshake())?;
    stream.set_read_timeout(Some(timeout))?;
    let mut echo = [0u8; HANDSHAKE_BYTES];
    stream
        .read_exact(&mut echo)
        .map_err(|e| io::Error::new(e.kind(), format!("reading the handshake echo: {e}")))?;
    stream.set_read_timeout(None)?;
    decode_handshake(&echo)
        .map(|_| ())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn accept_loop(listener: &TcpListener, links: &Links, max_frame: usize) {
    let mut readers = Vec::new();
    while !links.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let links = links.clone();
                readers.push(std::thread::spawn(move || {
                    read_loop(stream, &links, max_frame);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for handle in readers {
        let _ = handle.join();
    }
}

/// Outcome of filling a fixed-size buffer from a socket.
enum ReadOutcome {
    Full,
    /// Peer closed cleanly at a frame boundary.
    CleanEof,
    /// Local shutdown was requested while blocked.
    Shutdown,
}

/// A read that died partway through a fixed-size unit: how many bytes
/// made it, and why it stopped. Lets the reader report *where* in the
/// stream a frame was torn instead of a generic connection error.
struct ShortRead {
    filled: usize,
    error: io::Error,
}

fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    allow_clean_eof: bool,
) -> Result<ReadOutcome, ShortRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && allow_clean_eof {
                    Ok(ReadOutcome::CleanEof)
                } else {
                    Err(ShortRead {
                        filled,
                        error: io::ErrorKind::UnexpectedEof.into(),
                    })
                };
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(ReadOutcome::Shutdown);
                }
            }
            Err(error) => return Err(ShortRead { filled, error }),
        }
    }
    Ok(ReadOutcome::Full)
}

fn read_loop(mut stream: TcpStream, links: &Links, max_frame: usize) {
    let Links {
        inbox,
        shutdown,
        stats,
    } = links;
    let Ok(peer) = stream.peer_addr() else { return };
    let report = |offset: u64, detail: &str| {
        if !shutdown.load(Ordering::SeqCst) {
            let _ = inbox.send(InboxEvent::Fault(link_fault(peer, offset, detail)));
        }
    };

    // Acceptor half of the connection preamble: advertise ours first
    // (so the dialer can diagnose a mismatch symmetrically), then
    // require a valid one before any frame byte is interpreted.
    if stream.write_all(&encode_handshake()).is_err() {
        return;
    }
    let mut preamble = [0u8; HANDSHAKE_BYTES];
    match read_full(&mut stream, &mut preamble, shutdown, true) {
        Ok(ReadOutcome::Full) => {}
        Ok(ReadOutcome::CleanEof) | Ok(ReadOutcome::Shutdown) => return,
        Err(short) => {
            report(
                short.filled as u64,
                &format!(
                    "connection died {} bytes into the {HANDSHAKE_BYTES}-byte handshake: {}",
                    short.filled, short.error
                ),
            );
            return;
        }
    }
    if let Err(e) = decode_handshake(&preamble) {
        report(0, &format!("handshake rejected: {e}"));
        return;
    }

    // bytes consumed from this connection's stream so far
    let mut offset = HANDSHAKE_BYTES as u64;
    // One receive buffer per connection, resized per frame: it grows to
    // the largest frame seen (bounded by `max_frame`) and never shrinks,
    // the retention rule the poll driver's `conn.buf` has.
    let mut body = Vec::new();
    loop {
        let frame_start = offset;
        let mut len_bytes = [0u8; 4];
        match read_full(&mut stream, &mut len_bytes, shutdown, true) {
            Ok(ReadOutcome::Full) => offset += 4,
            Ok(ReadOutcome::CleanEof) | Ok(ReadOutcome::Shutdown) => return,
            Err(short) => {
                // a partial length prefix is already a torn frame
                stats.record_corrupt(short.filled as u64);
                report(
                    frame_start + short.filled as u64,
                    &format!(
                        "torn frame: {} of 4 length-prefix bytes, then {}",
                        short.filled, short.error
                    ),
                );
                return;
            }
        }
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > max_frame {
            stats.record_corrupt(4);
            report(
                frame_start,
                &format!("hostile frame length {len} exceeds the {max_frame}-byte cap"),
            );
            return;
        }
        body.resize(len, 0);
        match read_full(&mut stream, &mut body, shutdown, false) {
            Ok(ReadOutcome::Full) => offset += len as u64,
            // lint:allow(unwrap-in-prod): read_full(eof_ok = false) maps a
            // mid-frame EOF to an error, so CleanEof cannot reach this arm
            Ok(ReadOutcome::CleanEof) => unreachable!("clean EOF not allowed mid-frame"),
            Ok(ReadOutcome::Shutdown) => return,
            Err(short) => {
                stats.record_corrupt(4 + short.filled as u64);
                report(
                    frame_start + 4 + short.filled as u64,
                    &format!(
                        "torn frame: {} of {len} body bytes, then {}",
                        short.filled, short.error
                    ),
                );
                return;
            }
        }
        match decode_after_len(&body) {
            Ok(msg) => {
                if inbox.send(InboxEvent::Msg(msg)).is_err() {
                    return; // endpoint gone
                }
            }
            Err(e) => {
                // CRC mismatch or structural damage: the whole frame
                // (prefix included) is lost, and a stream that produced
                // it cannot be trusted to still be frame-aligned — tear
                // the connection down and let the writer side redial
                stats.record_corrupt(4 + len as u64);
                report(frame_start, &format!("frame rejected: {e}"));
                return;
            }
        }
    }
}

fn write_loop(
    mut stream: TcpStream,
    addr: &str,
    frames: &Receiver<Bytes>,
    shutdown: &AtomicBool,
    write_timeout: Duration,
    reconnect_timeout: Duration,
) {
    // recv() errors once the endpoint drops the sender: drain then FIN.
    while let Ok(frame) = frames.recv() {
        if stream.write_all(&frame).is_ok() {
            continue;
        }
        // The established link broke (peer crashed/restarted, transient
        // fault). Redial within the reconnect budget and resend the
        // failed frame; a frame already buffered by the dead kernel
        // socket is lost, which the protocol-level retry layers absorb.
        // Only when the budget is exhausted does this thread exit, after
        // which sends to this peer surface as `PeerUnreachable`.
        match reconnect(addr, write_timeout, reconnect_timeout, shutdown) {
            Some(s) => stream = s,
            None => return,
        }
        if let Err(e) = stream.write_all(&frame) {
            if !shutdown.load(Ordering::SeqCst) {
                eprintln!("selsync-net: write to {addr} failed after reconnect: {e}");
            }
            return;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Redial a broken established link with capped exponential backoff
/// until `budget` elapses or shutdown is requested. Every fresh
/// connection re-runs the protocol handshake: a version mismatch is
/// permanent (the peer restarted under a different build), so it ends
/// the redial early rather than burning the whole budget.
fn reconnect(
    addr: &str,
    write_timeout: Duration,
    budget: Duration,
    shutdown: &AtomicBool,
) -> Option<TcpStream> {
    let deadline = Instant::now() + budget;
    let mut backoff = Duration::from_millis(20);
    while !shutdown.load(Ordering::SeqCst) {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_write_timeout(Some(write_timeout));
                match shake_hands_as_dialer(&mut s, write_timeout) {
                    Ok(()) => return Some(s),
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        if !shutdown.load(Ordering::SeqCst) {
                            eprintln!("selsync-net: reconnect to {addr}: handshake rejected: {e}");
                        }
                        return None;
                    }
                    // transient (peer still restarting): retry within
                    // the budget like any other failed dial
                    Err(e) => {
                        if Instant::now() + backoff >= deadline {
                            if !shutdown.load(Ordering::SeqCst) {
                                eprintln!(
                                    "selsync-net: reconnect to {addr} failed after {budget:?}: {e}"
                                );
                            }
                            return None;
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(500));
                    }
                }
            }
            Err(e) => {
                if Instant::now() + backoff >= deadline {
                    if !shutdown.load(Ordering::SeqCst) {
                        eprintln!("selsync-net: reconnect to {addr} failed after {budget:?}: {e}");
                    }
                    return None;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A restarted rank must reclaim its advertised port immediately,
    /// even though the dead process's accepted connections (local port
    /// = the listen port) linger in `TIME_WAIT` after an active close.
    /// This is exactly the `--resume` respawn path: without
    /// `SO_REUSEADDR` the rebind fails with `AddrInUse` for up to a
    /// minute.
    #[test]
    fn rebind_same_port_after_active_close_succeeds() {
        let first = bind_reuse("127.0.0.1:0").unwrap();
        let addr = first.local_addr().unwrap().to_string();
        let client = TcpStream::connect(&addr).unwrap();
        let (accepted, _) = first.accept().unwrap();
        // accepted side closes first (the active closer) → its end of
        // the connection, which owns the listen port, enters TIME_WAIT
        drop(accepted);
        drop(client);
        drop(first);
        thread::sleep(Duration::from_millis(50));
        let again = bind_reuse(&addr).expect("rebind of a just-released port");
        assert_eq!(again.local_addr().unwrap().to_string(), addr);
    }

    #[test]
    fn dial_gives_up_after_timeout() {
        // a bound-then-dropped port is very likely unreachable
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let start = Instant::now();
        let r = dial(&addr, Duration::from_millis(300));
        assert!(r.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
