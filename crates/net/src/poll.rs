//! The event-driven driver: one thread, nonblocking sockets, a
//! readiness wait in `poll(2)`.
//!
//! [`PollTcpEndpoint`] is the shared `MeshEndpoint` — the same type,
//! hence the same `Transport` semantics, as the blocking
//! [`crate::tcp::TcpEndpoint`] — over this driver, which speaks exactly
//! the blocking driver's wire protocol — same 8-byte version
//! handshake, same CRC-checked codec-v2 frames, same
//! `max_frame_bytes` hostile-length cap, same typed
//! [`crate::LinkFault`] reports — but replaces the 2(N−1)+1
//! reader/writer/acceptor threads per rank with a **single driver
//! thread** multiplexing every connection:
//!
//! * every socket (listener included) runs nonblocking; the driver
//!   sweeps them in a loop, and when a full sweep makes no progress it
//!   **parks in `poll(2)`** — declared `extern "C"` against the
//!   already-linked C library, no crate beyond `std` — over the
//!   listener, every inbound socket (`POLLIN`), every outbound socket
//!   that still owes queued bytes (`POLLOUT`) and the read end of a
//!   **waker** socket pair, so an arriving byte or a drained send
//!   buffer resumes the sweep at once and an idle fabric costs no CPU.
//!   What `poll` reported doubles as a per-socket readiness hint: the
//!   sweeps that follow `accept`/`read` only the sockets it named (and
//!   every socket again after a few busy sweeps without a park), so a
//!   wake costs syscalls in proportion to what is ready, not to the
//!   mesh size;
//! * the endpoint's own thread cannot make a socket ready, so after it
//!   enqueues a frame, hands over a dialled stream or starts teardown
//!   it writes one byte to the waker — but only if the driver is (about
//!   to be) parked. The **park/wake protocol**: the driver sets the
//!   `parked` flag with a `SeqCst` swap, re-sweeps *once*, and only
//!   then blocks; a sender publishes its work first and then does
//!   `parked.swap(false)`, writing the byte only if it read `true`.
//!   Every access to the flag is a read-modify-write, so they are
//!   totally ordered and each reads the one before it: either the
//!   sender's swap comes first — then the driver's arming swap reads it
//!   (directly or through swaps in between), the work was published
//!   before it, and the re-sweep finds it — or the driver's comes first
//!   — then the sender reads `true` and the byte ends the park (or is
//!   already in the pipe when it starts). No wakeup is lost, and
//!   at most one byte is written per park (socket readiness needs no
//!   such care: `poll` is level-triggered). The wait is bounded by the
//!   nearest redial deadline, else `PARK_CAP` (100 ms), so the shutdown
//!   flag and redial pacing never *depend* on a wake;
//! * each outbound peer owns a **write backpressure queue**: frames a
//!   kernel send buffer will not take (`WouldBlock`) park in the queue
//!   with a byte offset into the partially-written front frame, and the
//!   driver resumes mid-frame when `POLLOUT` fires — `Transport::send`
//!   never blocks the caller, exactly like the channel fabric;
//! * inbound connections parse incrementally: each read lands in the
//!   driver's one read buffer and goes straight to the connection's
//!   `FrameReader`, which keeps only what a frame in progress needs, so
//!   one slow peer trickling a large frame never stalls the others (the
//!   head-of-line blocking a blocking `read_exact` would impose). A
//!   frame the driver finishes writing goes back to the endpoint's pool.
//!
//! Off unix there is no `poll(2)` to call: the one wait function falls
//! back (as `bind_reuse` falls back to a plain bind) to blocking at most
//! 500 µs on a channel that stands in for the waker, then trying every
//! socket.
//!
//! Byte-level damage — torn frames, CRC mismatches, hostile length
//! prefixes, rejected handshakes — is reported and tallied exactly as
//! the blocking driver does: a typed [`crate::LinkFault`] with the peer
//! address and stream byte offset, a `corrupt_messages` tick, and the
//! connection torn down (a stream that lost framing cannot be
//! resynchronized; the peer's writer redials).
//!
//! A broken *established* outbound link redials with capped backoff
//! within `reconnect_timeout`, paced by the park timeout so the other
//! peers keep flowing during the outage; only an exhausted budget (or a
//! version-mismatch handshake, which a retry cannot fix) declares the
//! peer unreachable. What survives a break: the frame the driver was
//! writing (or had not started) when the write failed is kept and
//! resent *whole* on the redialled link, followed by everything queued
//! behind it, in order — the blocking fabric's `write_loop` does the
//! same. Frames already handed in full to the dead kernel socket may be
//! lost (the protocol retry layers absorb that), and the receiver may
//! see the resent frame's abandoned prefix as a torn-frame
//! [`crate::LinkFault`] on the old connection.

use crate::codec::{encode_handshake, FrameReader, READ_BUF_BYTES};
use crate::endpoint::{Driver, Links, MeshEndpoint, TcpFabricConfig};
use crate::tcp::{dial, shake_hands_as_dialer};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the driver stays parked when no redial is due sooner. Every
/// event the driver acts on either makes a socket ready or fires the
/// waker, so this only bounds how stale the shutdown flag can get if a
/// wake were ever missed.
const PARK_CAP: Duration = Duration::from_millis(100);

/// Per-sweep cap on bytes read from one inbound connection, so a
/// firehose peer cannot starve its neighbours within a sweep.
const READ_CHUNK: usize = 256 * 1024;

/// A driver that keeps progressing never parks, so its readiness hints
/// go stale: after this many progressing sweeps in a row it tries every
/// socket once.
const BUSY_RECHECK: u32 = 8;

/// Dial budget for one *redial* attempt inside the driver loop. Short:
/// a redial must not stall the sweep (and with it every other peer)
/// for long; the overall budget is `reconnect_timeout` across
/// attempts.
const REDIAL_ATTEMPT: Duration = Duration::from_millis(100);

/// One rank's handle on the event-driven TCP fabric: the shared
/// `MeshEndpoint` — the exact semantics of the blocking
/// [`crate::tcp::TcpEndpoint`] — served by a single driver thread.
pub type PollTcpEndpoint = MeshEndpoint<PollDriver>;

/// The endpoint's side of the poll driver. Only names the driver in
/// [`PollTcpEndpoint`]; there is nothing to construct or call.
pub struct PollDriver {
    /// Waker + gauges shared with the driver thread.
    shared: Arc<DriverShared>,
    /// Hands dialled streams to the driver thread.
    new_conns: Sender<OutboundConn>,
    thread: Option<JoinHandle<()>>,
}

/// A snapshot of the driver thread's activity counters (see
/// `PollTcpEndpoint::driver_gauges`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverGauges {
    /// Full passes over the connection set.
    pub sweeps: u64,
    /// Times the driver blocked in the readiness wait after a sweep
    /// (and its re-sweep) made no progress.
    pub parks: u64,
    /// Parks ended by readiness — a socket event or the waker — rather
    /// than by the timeout; `parks - wakes` (less the park in progress)
    /// is how often the driver woke with nothing to do.
    pub wakes: u64,
}

/// What the endpoint and its driver share besides the frame queues:
/// the waker and the gauges.
struct DriverShared {
    /// The driver is parked, or committed to parking after one more
    /// sweep (module doc, park/wake protocol).
    parked: AtomicBool,
    /// Write end of the waker pair; the driver polls the read end.
    wake_tx: WakeTx,
    // plain statistics, hence `Relaxed`: they publish no other data
    sweeps: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl DriverShared {
    /// Call *after* publishing work for the driver (a queued frame, a
    /// handed-over stream, the shutdown flag): ends the driver's park,
    /// or stops it from starting one, at the cost of one byte per park.
    fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            // a full pipe already guarantees a wake, so the error is moot
            #[cfg(unix)]
            let _ = (&self.wake_tx).write(&[1]);
            #[cfg(not(unix))]
            let _ = self.wake_tx.send(());
        }
    }
}

impl Driver for PollDriver {
    fn start(
        listener: Option<TcpListener>,
        links: Links,
        config: &TcpFabricConfig,
    ) -> io::Result<Self> {
        let (wake_tx, wake_rx) = wake_pipe()?;
        let shared = Arc::new(DriverShared {
            parked: AtomicBool::new(false),
            wake_tx,
            sweeps: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });
        let (new_conns, conn_rx) = unbounded::<OutboundConn>();
        let thread = {
            let shared = Arc::clone(&shared);
            let reconnect_timeout = config.reconnect_timeout;
            let max_frame = config.max_frame_bytes;
            std::thread::spawn(move || {
                driver_loop(
                    listener,
                    &conn_rx,
                    &links,
                    &shared,
                    &wake_rx,
                    max_frame,
                    reconnect_timeout,
                );
            })
        };
        Ok(PollDriver {
            shared,
            new_conns,
            thread: Some(thread),
        })
    }

    fn adopt(&mut self, addr: &str, stream: TcpStream, frames: Receiver<Bytes>) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let conn = OutboundConn::established(addr.to_string(), stream, frames);
        let _ = self.new_conns.send(conn);
        self.shared.wake();
        Ok(())
    }

    fn notify(&self) {
        self.shared.wake();
    }

    fn stop(&mut self) {
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl PollTcpEndpoint {
    /// The driver thread's activity counters so far: how often it swept,
    /// parked, and was woken by readiness rather than by its timeout.
    pub fn driver_gauges(&self) -> DriverGauges {
        let shared = &self.driver.shared;
        DriverGauges {
            sweeps: shared.sweeps.load(Ordering::Relaxed),
            parks: shared.parks.load(Ordering::Relaxed),
            wakes: shared.wakes.load(Ordering::Relaxed),
        }
    }
}

/// One accepted inbound connection: its socket, the reader its bytes go
/// to, and the not-yet-written tail of our handshake echo.
struct InboundConn {
    stream: TcpStream,
    peer: SocketAddr,
    reader: FrameReader,
    /// Readiness hint: the last [`wait_ready`] reported input (or the
    /// connection is new, or a read stopped at its budget). A sweep reads
    /// only hinted sockets; a wrong `false` costs nothing, because
    /// `poll(2)` is level-triggered and the next park corrects it.
    readable: bool,
    /// Our handshake preamble, written opportunistically (the peer's
    /// dialer blocks on reading it, we must not block sending it).
    echo_pending: Vec<u8>,
    echo_off: usize,
}

/// One outbound peer: the live socket (when up), the frames the
/// endpoint queued, and the redial state for a broken link.
struct OutboundConn {
    addr: String,
    stream: Option<TcpStream>,
    /// Frame source from the endpoint; dropped to signal
    /// `PeerUnreachable` once the peer is given up on.
    rx: Option<Receiver<Bytes>>,
    /// Backpressure queue: frames the socket would not take yet.
    queue: VecDeque<Bytes>,
    /// Bytes of the front frame already written (mid-frame resume).
    front_off: usize,
    /// Redial pacing for a broken established link.
    redial_deadline: Instant,
    next_redial: Instant,
    backoff: Duration,
    /// FIN sent; nothing more to do for this peer.
    finished: bool,
}

impl OutboundConn {
    fn established(addr: String, stream: TcpStream, rx: Receiver<Bytes>) -> OutboundConn {
        let now = Instant::now();
        OutboundConn {
            addr,
            stream: Some(stream),
            rx: Some(rx),
            queue: VecDeque::new(),
            front_off: 0,
            redial_deadline: now,
            next_redial: now,
            backoff: Duration::from_millis(20),
            finished: false,
        }
    }

    /// The link just broke: drop the dead socket and arm the redial
    /// clock. The front frame — partially written or not started — stays
    /// queued and is resent whole on the redialled link, as the blocking
    /// fabric's `write_loop` resends its failed frame; only frames the
    /// dead kernel socket had taken in full are lost, which the protocol
    /// retry layers absorb.
    fn mark_broken(&mut self, reconnect_timeout: Duration) {
        self.stream = None;
        self.front_off = 0; // the written prefix died with the socket
        let now = Instant::now();
        self.redial_deadline = now + reconnect_timeout;
        self.next_redial = now;
        self.backoff = Duration::from_millis(20);
    }

    /// Give up on this peer: further sends surface `PeerUnreachable`.
    fn give_up(&mut self) {
        self.rx = None;
        self.queue.clear();
        self.front_off = 0;
        self.finished = true;
    }
}

/// The single-thread readiness loop. Sweeps: accept new inbound
/// connections, read+parse every inbound socket, drain the endpoint's
/// frame queues into per-peer write queues and flush them, pace
/// redials for broken links. When a sweep moves nothing it arms the
/// waker, sweeps once more, and parks in [`wait_ready`] (module doc,
/// park/wake protocol).
#[allow(clippy::too_many_lines)]
fn driver_loop(
    listener: Option<TcpListener>,
    new_conns: &Receiver<OutboundConn>,
    links: &Links,
    shared: &DriverShared,
    wake_rx: &WakeRx,
    max_frame: usize,
    reconnect_timeout: Duration,
) {
    let shutdown = &*links.shutdown;
    // every connection reads into this one buffer; its `FrameReader`
    // keeps what it needs before the next read overwrites it
    let mut read_buf = vec![0u8; READ_BUF_BYTES];
    let mut outbound: Vec<OutboundConn> = Vec::new();
    let mut inbound: Vec<InboundConn> = Vec::new();
    let mut interest = Interest::default();
    // readiness hint for the listener, as `InboundConn::readable`
    let mut acceptable = true;
    // `shared.parked` was set by this thread and no sweep has progressed since
    let mut armed = false;
    // progressing sweeps since the last park refreshed the hints
    let mut busy_streak = 0u32;
    loop {
        let mut progressed = false;
        let shutting = shutdown.load(Ordering::SeqCst);
        shared.sweeps.fetch_add(1, Ordering::Relaxed);

        // adopt streams the connect path finished dialing
        while let Ok(conn) = new_conns.try_recv() {
            outbound.push(conn);
            progressed = true;
        }

        // --- accept ---
        if !shutting && acceptable {
            if let Some(l) = &listener {
                acceptable = false;
                loop {
                    match l.accept() {
                        Ok((stream, peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            inbound.push(InboundConn {
                                stream,
                                peer,
                                reader: FrameReader::pooled(max_frame, Arc::clone(&links.pool)),
                                readable: true,
                                echo_pending: encode_handshake().to_vec(),
                                echo_off: 0,
                            });
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
        }

        // --- inbound: echo, read, parse ---
        if !shutting {
            let mut i = 0;
            while i < inbound.len() {
                match pump_inbound(&mut inbound[i], links, &mut read_buf) {
                    PumpOutcome::Progress => {
                        progressed = true;
                        i += 1;
                    }
                    PumpOutcome::Idle => i += 1,
                    PumpOutcome::Closed => {
                        inbound.swap_remove(i);
                        progressed = true;
                    }
                }
            }
        }

        // --- outbound: drain queues, flush, redial ---
        for conn in &mut outbound {
            if conn.finished {
                continue;
            }
            // pull everything the endpoint has queued
            let mut disconnected = false;
            if let Some(rx) = &conn.rx {
                loop {
                    match rx.try_recv() {
                        Ok(frame) => {
                            conn.queue.push_back(frame);
                            progressed = true;
                        }
                        Err(crossbeam::channel::TryRecvError::Empty) => break,
                        Err(crossbeam::channel::TryRecvError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
            }
            // flush the backpressure queue into the socket
            if let Some(stream) = &mut conn.stream {
                let mut broken = false;
                while let Some(front) = conn.queue.front() {
                    match stream.write(&front[conn.front_off..]) {
                        Ok(0) => {
                            broken = true;
                            break;
                        }
                        Ok(k) => {
                            conn.front_off += k;
                            progressed = true;
                            if conn.front_off == front.len() {
                                if let Some(done) = conn.queue.pop_front() {
                                    links.pool.give_bytes(done);
                                }
                                conn.front_off = 0;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
                if broken {
                    conn.mark_broken(reconnect_timeout);
                    progressed = true;
                }
            } else if conn.rx.is_some() || !conn.queue.is_empty() {
                // broken link with traffic still owed: pace the redials
                let now = Instant::now();
                if now >= conn.redial_deadline {
                    if !shutdown.load(Ordering::SeqCst) {
                        eprintln!(
                            "selsync-net: reconnect to {} failed after {reconnect_timeout:?}",
                            conn.addr
                        );
                    }
                    conn.give_up();
                } else if now >= conn.next_redial {
                    match redial_once(&conn.addr) {
                        RedialOutcome::Up(s) => {
                            conn.stream = Some(s);
                            progressed = true;
                        }
                        RedialOutcome::Fatal => {
                            if !shutdown.load(Ordering::SeqCst) {
                                eprintln!(
                                    "selsync-net: reconnect to {}: handshake rejected",
                                    conn.addr
                                );
                            }
                            conn.give_up();
                        }
                        RedialOutcome::Retry => {
                            conn.next_redial = Instant::now() + conn.backoff;
                            conn.backoff = (conn.backoff * 2).min(Duration::from_millis(500));
                        }
                    }
                }
            }
            // endpoint gone and everything flushed: FIN and finish
            if disconnected {
                conn.rx = None;
            }
            if conn.rx.is_none() && conn.queue.is_empty() && !conn.finished {
                if let Some(s) = &conn.stream {
                    let _ = s.shutdown(Shutdown::Write);
                }
                conn.finished = true;
            }
        }

        if outbound.iter().all(|c| c.finished) && shutting {
            return;
        }
        // Every access to `parked`, here and in `wake`, is a SeqCst
        // read-modify-write — never a plain store — so each reads its
        // predecessor in the flag's modification order, and that chain
        // carries a sender's published work to the re-sweep after arming.
        if progressed {
            if armed {
                // spare senders the waker write while the driver is busy
                shared.parked.swap(false, Ordering::SeqCst);
                armed = false;
            }
            // The hints are only refreshed by a park, and a driver kept
            // busy by one peer never parks: every few sweeps try every
            // socket, so no peer waits on another's traffic.
            busy_streak += 1;
            if busy_streak == BUSY_RECHECK {
                busy_streak = 0;
                acceptable = true;
                inbound.iter_mut().for_each(|c| c.readable = true);
            }
            continue;
        }
        if !armed {
            shared.parked.swap(true, Ordering::SeqCst);
            armed = true;
            continue;
        }
        // after a sweep, an unfinished peer without a socket is redialing
        let now = Instant::now();
        let timeout = outbound
            .iter()
            .filter(|c| !c.finished && c.stream.is_none())
            .map(|c| c.next_redial.min(c.redial_deadline))
            .min()
            .map_or(PARK_CAP, |due| {
                due.saturating_duration_since(now).min(PARK_CAP)
            });
        shared.parks.fetch_add(1, Ordering::Relaxed);
        // a shutting driver no longer accepts or reads, so it must not
        // wait on those sockets either (they would stay ready forever)
        let (listener, inbound) = if shutting {
            (None, &mut [][..])
        } else {
            (
                listener.as_ref().map(|l| (l, &mut acceptable)),
                &mut inbound[..],
            )
        };
        if wait_ready(
            wake_rx,
            &mut interest,
            listener,
            inbound,
            &outbound,
            timeout,
        ) {
            shared.wakes.fetch_add(1, Ordering::Relaxed);
        }
        shared.parked.swap(false, Ordering::SeqCst);
        armed = false;
        busy_streak = 0;
    }
}

/// The waker's write and read ends: a nonblocking socket pair the
/// driver can `poll(2)` alongside its sockets on unix; elsewhere a
/// channel, which [`wait_ready`] blocks on for a bounded time.
#[cfg(unix)]
type WakeTx = std::os::unix::net::UnixStream;
#[cfg(unix)]
type WakeRx = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakeTx = Sender<()>;
#[cfg(not(unix))]
type WakeRx = Receiver<()>;

fn wake_pipe() -> io::Result<(WakeTx, WakeRx)> {
    #[cfg(unix)]
    {
        let (tx, rx) = WakeTx::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    }
    #[cfg(not(unix))]
    Ok(unbounded())
}

/// `struct pollfd`.
#[cfg(unix)]
#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

/// The interest set handed to `poll(2)`, kept across parks so building
/// it does not allocate.
#[derive(Default)]
struct Interest {
    #[cfg(unix)]
    fds: Vec<PollFd>,
}

/// Park the driver until the waker fires, a socket it is waiting on
/// becomes ready, or `timeout` passes, and refresh the listener's and
/// the inbound sockets' readiness hints from what `poll` reported.
/// Returns whether readiness (not the timeout) ended the wait. Waits
/// on: the waker's read end; the listener and every inbound socket for
/// input (plus output while a handshake echo is unsent); every live
/// outbound socket that still owes queued bytes for output. An outbound
/// socket with nothing queued is left out — `poll` reports its errors
/// unasked, and a dead idle link would otherwise end every park at
/// once.
///
/// Off unix only the waker is waited on, for at most 500 µs, and every
/// hint is set, so the next sweep tries every socket.
fn wait_ready(
    wake_rx: &WakeRx,
    interest: &mut Interest,
    listener: Option<(&TcpListener, &mut bool)>,
    inbound: &mut [InboundConn],
    outbound: &[OutboundConn],
    timeout: Duration,
) -> bool {
    #[cfg(unix)]
    {
        use std::ffi::{c_int, c_short};
        use std::os::fd::AsRawFd;

        const POLLIN: c_short = 0x1;
        const POLLOUT: c_short = 0x4;
        /// `nfds_t`.
        #[cfg(target_os = "linux")]
        type Nfds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type Nfds = std::ffi::c_uint;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        }

        let fds = &mut interest.fds;
        fds.clear();
        let mut want = |fd: c_int, events: c_short| {
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
        };
        want(wake_rx.as_raw_fd(), POLLIN);
        if let Some((l, _)) = &listener {
            want(l.as_raw_fd(), POLLIN);
        }
        for c in inbound.iter() {
            let echo_owed = c.echo_off < c.echo_pending.len();
            want(
                c.stream.as_raw_fd(),
                if echo_owed { POLLIN | POLLOUT } else { POLLIN },
            );
        }
        for c in outbound {
            if let (Some(s), false) = (&c.stream, c.queue.is_empty()) {
                want(s.as_raw_fd(), POLLOUT);
            }
        }
        // round up, so a deadline a fraction of a millisecond away is
        // slept through rather than spun on
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed, initialised slice of
        // `#[repr(C)]` records laid out as `struct pollfd`, and its exact
        // length is passed with it; `poll` writes only their `revents`.
        // lint:allow(poll-blocking): bounded by `timeout` ≤ PARK_CAP (100ms) —
        // the driver's one deliberate wait, ended early by any socket
        // readiness or by the waker byte every send/hand-over/teardown writes
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        // on a timeout or error `revents` are all zero or stale; either
        // way the hints go false and the next park sets them right
        let mut reported = fds.iter().map(|f| ready > 0 && f.revents != 0);
        if reported.next() == Some(true) {
            // a short read means the pipe is drained
            let mut sink = [0u8; 64];
            let mut rx = wake_rx;
            while matches!(rx.read(&mut sink), Ok(k) if k == sink.len()) {}
        }
        if let Some((_, acceptable)) = listener {
            *acceptable = reported.next() == Some(true);
        }
        for c in inbound {
            c.readable = reported.next() == Some(true);
        }
        ready > 0
    }
    #[cfg(not(unix))]
    {
        let _ = (interest, outbound);
        if let Some((_, acceptable)) = listener {
            *acceptable = true;
        }
        inbound.iter_mut().for_each(|c| c.readable = true);
        let woken = wake_rx
            .recv_timeout(timeout.min(Duration::from_micros(500)))
            .is_ok();
        while wake_rx.try_recv().is_ok() {}
        woken
    }
}

/// What one inbound sweep step did.
enum PumpOutcome {
    Progress,
    Idle,
    /// Clean EOF, fault, or local shutdown: the connection is done.
    Closed,
}

/// One redial attempt's result.
enum RedialOutcome {
    Up(TcpStream),
    /// Version mismatch — retrying cannot help.
    Fatal,
    Retry,
}

/// One short, bounded redial attempt (so the sweep never stalls long).
fn redial_once(addr: &str) -> RedialOutcome {
    let Ok(sock_addr) = addr.parse::<SocketAddr>() else {
        // hostname peers resolve through the blocking dial path
        // lint:allow(poll-blocking): one attempt capped at REDIAL_ATTEMPT
        // (100ms); the sweep stalls at most one bounded attempt per pass
        return match dial(addr, REDIAL_ATTEMPT) {
            Ok(s) => finish_redial(s),
            Err(_) => RedialOutcome::Retry,
        };
    };
    // lint:allow(poll-blocking): bounded by REDIAL_ATTEMPT (100ms) and
    // only reached on a down peer whose next_redial backoff expired
    match TcpStream::connect_timeout(&sock_addr, REDIAL_ATTEMPT) {
        Ok(s) => finish_redial(s),
        Err(_) => RedialOutcome::Retry,
    }
}

fn finish_redial(mut s: TcpStream) -> RedialOutcome {
    let _ = s.set_nodelay(true);
    // lint:allow(poll-blocking): handshake read/write deadline is capped
    // at REDIAL_ATTEMPT (100ms) via the socket timeouts set inside
    match shake_hands_as_dialer(&mut s, REDIAL_ATTEMPT) {
        Ok(()) => {
            if s.set_nonblocking(true).is_err() {
                return RedialOutcome::Retry;
            }
            RedialOutcome::Up(s)
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => RedialOutcome::Fatal,
        Err(_) => RedialOutcome::Retry,
    }
}

/// Service one inbound connection: push our handshake echo, then read
/// whatever the socket has (up to [`READ_CHUNK`]) into `buf` and feed it
/// to the connection's reader.
fn pump_inbound(conn: &mut InboundConn, links: &Links, buf: &mut [u8]) -> PumpOutcome {
    let mut progressed = false;

    // write our half of the preamble (opportunistically, never blocking)
    while conn.echo_off < conn.echo_pending.len() {
        match conn.stream.write(&conn.echo_pending[conn.echo_off..]) {
            Ok(0) => return PumpOutcome::Closed,
            Ok(k) => {
                conn.echo_off += k;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return PumpOutcome::Closed,
        }
    }

    let mut read_total = 0;
    // fairness: at most READ_CHUNK per sweep, then the other connections run
    while conn.readable && read_total < READ_CHUNK {
        let room = buf.len().min(READ_CHUNK - read_total);
        match conn.stream.read(&mut buf[..room]) {
            Ok(0) => {
                links.end(&conn.reader, conn.peer, &"EOF");
                return PumpOutcome::Closed;
            }
            Ok(k) => {
                read_total += k;
                progressed = true;
                // a short read means the socket is drained for now
                conn.readable = k == room;
                if !links.feed(&mut conn.reader, conn.peer, &buf[..k]) {
                    return PumpOutcome::Closed;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // connection reset mid-stream
            Err(e) => {
                links.end(&conn.reader, conn.peer, &e);
                return PumpOutcome::Closed;
            }
        }
    }
    if progressed {
        PumpOutcome::Progress
    } else {
        PumpOutcome::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use crate::endpoint::tests::accept_and_shake;
    use selsync_comm::{Payload, Transport};
    use std::thread;

    fn loopback_fabric(n: usize) -> Vec<PollTcpEndpoint> {
        loopback_fabric_with(n, Duration::from_secs(20))
    }

    fn loopback_fabric_with(n: usize, recv_timeout: Duration) -> Vec<PollTcpEndpoint> {
        PollTcpEndpoint::loopback_mesh(n, |c| c.recv_timeout = recv_timeout).unwrap()
    }

    /// The write backpressure queue: a burst of large frames far beyond
    /// any kernel send buffer parks in the driver's per-peer queue and
    /// drains completely while the receiver slowly catches up.
    #[test]
    fn write_backpressure_queue_drains_a_large_burst() {
        let mut eps = loopback_fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let big = vec![1.5f32; 128 * 1024]; // 512 KiB per frame
        let frames = 32u64; // ~16 MiB total, far beyond SO_SNDBUF
        for i in 0..frames {
            b.send(0, i, Payload::Params(big.clone())).unwrap(); // never blocks
        }
        for i in 0..frames {
            let m = a.recv_tagged(Some(1), i).unwrap();
            assert!(matches!(m.payload, Payload::Params(v) if v.len() == big.len()));
        }
        a.close();
        b.close();
    }

    /// The poll fabric speaks the exact wire protocol of the blocking
    /// fabric: a mixed mesh (one blocking rank, one poll rank)
    /// exchanges traffic transparently.
    #[test]
    fn interoperates_with_the_blocking_fabric() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let cfg0 = TcpFabricConfig::new(0, peers.clone());
        let cfg1 = TcpFabricConfig::new(1, peers);
        let t0 = thread::spawn(move || {
            crate::tcp::TcpEndpoint::connect_with_listener(cfg0, l0).unwrap()
        });
        let t1 = thread::spawn(move || PollTcpEndpoint::connect_with_listener(cfg1, l1).unwrap());
        let mut blocking = t0.join().unwrap();
        let mut polled = t1.join().unwrap();
        blocking
            .send(1, 5, Payload::Grads(vec![0.25, -0.75]))
            .unwrap();
        assert_eq!(
            polled.recv_tagged(Some(0), 5).unwrap().payload,
            Payload::Grads(vec![0.25, -0.75])
        );
        polled
            .send(
                0,
                6,
                Payload::SignGrad {
                    len: 5,
                    scale: 0.5,
                    bits: vec![0b10101],
                },
            )
            .unwrap();
        assert_eq!(
            blocking.recv_tagged(Some(1), 6).unwrap().payload,
            Payload::SignGrad {
                len: 5,
                scale: 0.5,
                bits: vec![0b10101],
            }
        );
        polled.close();
        blocking.close();
    }

    /// The reader across read boundaries: frames dribbled in odd slices
    /// (splitting the handshake, a length prefix and a body larger than
    /// one read) reassemble in order, and a final frame cut
    /// short by EOF is a torn-frame fault at the right stream offset.
    #[test]
    fn dribbled_frames_reassemble_and_a_torn_tail_is_a_fault() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            raw.local_addr().unwrap().to_string(),
        ];
        let mut cfg = TcpFabricConfig::new(0, peers);
        cfg.recv_timeout = Duration::from_secs(5);
        let answer = thread::spawn(move || accept_and_shake(&raw));
        let mut ep = PollTcpEndpoint::connect_with_listener(cfg, l0).unwrap();
        let _peer_side = answer.join().unwrap();

        let payloads = [
            Payload::Flags(vec![1]),
            Payload::Params((0..20_000).map(|i| i as f32).collect()), // 80 KB
            Payload::Control(3),
        ];
        let mut stream = encode_handshake().to_vec();
        for (tag, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(1, tag as u64, p));
        }
        let whole = stream.len();
        let torn = encode_frame(1, 9, &Payload::Params(vec![0.5; 64]));
        stream.extend_from_slice(&torn[..torn.len() / 2]);

        let mut dribble = TcpStream::connect(ep.local_addr()).unwrap();
        dribble.set_nodelay(true).unwrap();
        let mut sent = 0;
        for slice in [5, 4, 2, 17, 3, 30_000, 1, 50_011].iter().cycle() {
            let end = (sent + slice).min(stream.len());
            dribble.write_all(&stream[sent..end]).unwrap();
            thread::sleep(Duration::from_millis(2)); // let the driver read it
            sent = end;
            if sent == stream.len() {
                break;
            }
        }
        for (tag, p) in payloads.iter().enumerate() {
            assert_eq!(&ep.recv_tagged(Some(1), tag as u64).unwrap().payload, p);
        }
        drop(dribble);

        let deadline = Instant::now() + Duration::from_secs(5);
        while ep.link_faults().is_empty() {
            assert!(Instant::now() < deadline, "fault never reported");
            thread::sleep(Duration::from_millis(10));
        }
        let fault = &ep.link_faults()[0];
        assert_eq!(fault.offset, (whole + torn.len() / 2) as u64);
        assert!(fault.error.to_string().contains("torn frame"), "{fault:?}");
        assert_eq!(ep.stats().corrupt_messages(), 1);
        ep.close();
    }

    /// What only the readiness-driven driver does: these pin the
    /// `poll(2)` wait and the waker through the driver gauges, which the
    /// sleeping fallback would fail by design.
    #[cfg(unix)]
    mod readiness {
        use super::*;

        /// Block until `ep`'s driver sits in the readiness wait: its parked
        /// flag is up and it has not swept for 20 ms (the armed-but-still-
        /// sweeping window lasts one sweep).
        fn wait_until_parked(ep: &PollTcpEndpoint) -> DriverGauges {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let before = ep.driver_gauges();
                thread::sleep(Duration::from_millis(20));
                if ep.driver_gauges() == before && ep.driver.shared.parked.load(Ordering::SeqCst) {
                    return before;
                }
                assert!(Instant::now() < deadline, "driver never parked");
            }
        }

        /// Parks the timeout ended rather than readiness. A lost wakeup
        /// shows up here — the park it should have ended runs to `PARK_CAP`
        /// — long before it could show up as a `RecvTimeout`.
        fn timed_out_parks(g: DriverGauges) -> u64 {
            g.parks - g.wakes
        }

        /// The driver blocks in `poll(2)` when nothing is ready: an idle mesh
        /// sweeps twice per `PARK_CAP` timeout (once on waking, once after
        /// re-arming), where a driver polling on a sub-millisecond timer
        /// would make hundreds of sweeps in 300 ms.
        #[test]
        fn idle_mesh_parks_instead_of_sweeping() {
            let eps = loopback_fabric(2);
            let before = wait_until_parked(&eps[0]);
            let started = Instant::now();
            thread::sleep(Duration::from_millis(300));
            let swept = eps[0].driver_gauges().sweeps - before.sweeps;
            let timeouts = started.elapsed().as_millis() / PARK_CAP.as_millis();
            let allowed = 2 * (timeouts as u64 + 2);
            assert!(
                swept <= allowed,
                "{swept} sweeps while idle, {allowed} allowed"
            );
        }

        /// Lost-wakeup stress, the tightest interleaving there is: every
        /// send lands just as the sender's own driver goes back to sleep.
        /// 20 000 one-byte ping-pongs must finish without a `RecvTimeout`
        /// and with (nearly) every park ended by readiness.
        #[test]
        fn flag_pingpong_loses_no_wakeup() {
            const ROUNDS: u64 = 20_000;
            let mut eps = loopback_fabric_with(2, Duration::from_secs(2));
            let mut b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            let echo = thread::spawn(move || {
                for tag in 0..ROUNDS {
                    let m = b.recv_tagged(Some(0), tag).unwrap();
                    b.send(0, tag, m.payload).unwrap();
                }
                let gauges = b.driver_gauges();
                b.close();
                gauges
            });
            for tag in 0..ROUNDS {
                a.send(1, tag, Payload::Flags(vec![(tag % 2) as u8]))
                    .unwrap();
                let m = a.recv_tagged(Some(1), tag).unwrap();
                assert_eq!(m.payload, Payload::Flags(vec![(tag % 2) as u8]));
            }
            for g in [a.driver_gauges(), echo.join().unwrap()] {
                assert!(timed_out_parks(g) <= 20, "parks ended by timeout: {g:?}");
            }
            a.close();
        }

        /// The same stress with four drivers and four endpoint threads, all
        /// sending and receiving at once (the flags allgather's shape).
        #[test]
        fn flag_ring_loses_no_wakeup() {
            const LAPS: u64 = 5_000;
            let n = 4;
            let handles: Vec<_> = loopback_fabric_with(n, Duration::from_secs(2))
                .into_iter()
                .map(|mut ep| {
                    thread::spawn(move || {
                        let me = ep.id();
                        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                        for lap in 0..LAPS {
                            ep.send(next, lap, Payload::Flags(vec![me as u8])).unwrap();
                            let m = ep.recv_tagged(Some(prev), lap).unwrap();
                            assert_eq!(m.payload, Payload::Flags(vec![prev as u8]));
                        }
                        let gauges = ep.driver_gauges();
                        ep.close();
                        gauges
                    })
                })
                .collect();
            for h in handles {
                let g = h.join().unwrap();
                assert!(timed_out_parks(g) <= 20, "parks ended by timeout: {g:?}");
            }
        }

        /// Teardown ends an idle driver's park through the waker instead of
        /// leaving `close()` to wait out the park timeout.
        #[test]
        fn close_wakes_an_idle_driver() {
            let mut eps = loopback_fabric(2);
            let b = eps.pop().unwrap();
            let a = eps.pop().unwrap();
            let before = wait_until_parked(&a);
            let shared = Arc::clone(&a.driver.shared);
            a.close();
            assert_eq!(
                shared.wakes.load(Ordering::Relaxed),
                before.wakes + 1,
                "the park in progress should have ended by readiness"
            );
            b.close();
        }
    }
}
