//! Event-driven TCP fabric: one driver thread, nonblocking sockets, a
//! readiness wait in `poll(2)`.
//!
//! [`PollTcpEndpoint`] speaks exactly the wire protocol of the blocking
//! fabric ([`crate::tcp::TcpEndpoint`]) — same 8-byte version
//! handshake, same CRC-checked codec-v2 frames, same
//! `max_frame_bytes` hostile-length cap, same typed
//! [`TransportError`]s and [`LinkFault`] reports — but replaces the
//! 2(N−1)+1 reader/writer/acceptor threads per rank with a **single
//! driver thread** multiplexing every connection:
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
//!   driver resumes mid-frame when `POLLOUT` fires —
//!   [`Transport::send`] never blocks the caller, exactly like the
//!   channel fabric;
//! * inbound connections parse incrementally: bytes are read straight
//!   into a per-connection buffer and complete handshakes/frames peel
//!   off as they arrive, so one slow peer trickling a large frame never
//!   stalls the others (the head-of-line blocking a blocking
//!   `read_exact` would impose).
//!
//! Off unix there is no `poll(2)` to call: the one wait function falls
//! back (as `bind_reuse` falls back to a plain bind) to blocking at most
//! 500 µs on a channel that stands in for the waker, then trying every
//! socket.
//!
//! Byte-level damage — torn frames, CRC mismatches, hostile length
//! prefixes, rejected handshakes — is reported and tallied exactly as
//! the blocking fabric does: a typed [`LinkFault`] with the peer
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
//! [`LinkFault`] on the old connection.

use crate::codec::{
    decode_after_len, decode_handshake, encode_frame, encode_handshake, HANDSHAKE_BYTES,
};
use crate::tcp::{
    bind_reuse, dial, link_fault, shake_hands_as_dialer, InboxEvent, LinkFault, TcpFabricConfig,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
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

/// Smallest tail a read is offered: room for a length prefix and a
/// small frame. Once a partial frame's prefix is known the tail is
/// sized to the rest of that frame instead.
const READ_MIN: usize = 16 * 1024;

/// Dial budget for one *redial* attempt inside the driver loop. Short:
/// a redial must not stall the sweep (and with it every other peer)
/// for long; the overall budget is `reconnect_timeout` across
/// attempts.
const REDIAL_ATTEMPT: Duration = Duration::from_millis(100);

/// One rank's handle on the event-driven TCP fabric. Implements
/// [`Transport`] with the exact semantics of the blocking
/// [`crate::tcp::TcpEndpoint`]; only the threading model differs.
pub struct PollTcpEndpoint {
    id: usize,
    n: usize,
    /// Frame queues into the driver; `None` at `id` (self-sends loop
    /// back through `inbox_tx`). The driver drops a peer's receiver
    /// when it declares the peer unreachable, which surfaces here as
    /// `PeerUnreachable` on the next send — same contract as the
    /// blocking fabric's writer threads.
    outbound: Vec<Option<Sender<Bytes>>>,
    /// Waker + gauges shared with the driver thread.
    shared: Arc<DriverShared>,
    inbox_tx: Sender<InboxEvent>,
    inbox: Receiver<InboxEvent>,
    pending: VecDeque<Msg>,
    faults: Vec<LinkFault>,
    stats: Arc<CommStats>,
    recv_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    driver: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

/// A snapshot of the driver thread's activity counters (see
/// [`PollTcpEndpoint::driver_gauges`]).
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

impl PollTcpEndpoint {
    /// Bind `peers[rank]` and connect the mesh; see
    /// [`crate::tcp::TcpEndpoint::connect`]. Dialing is blocking (ranks
    /// may start in any order); once the mesh is up, everything runs on
    /// the single driver thread.
    ///
    /// # Errors
    /// Propagates bind/dial/handshake failures.
    pub fn connect(config: TcpFabricConfig) -> io::Result<PollTcpEndpoint> {
        let addr = config.peers[config.rank].as_str();
        let deadline = Instant::now() + config.connect_timeout;
        let listener = loop {
            match bind_reuse(addr) {
                Ok(l) => break l,
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        };
        Self::connect_with_listener(config, listener)
    }

    /// Like [`connect`](Self::connect) but over a pre-bound listener —
    /// lets tests bind port 0 and exchange the real addresses first.
    ///
    /// # Errors
    /// Propagates dial/handshake failures.
    pub fn connect_with_listener(
        config: TcpFabricConfig,
        listener: TcpListener,
    ) -> io::Result<PollTcpEndpoint> {
        let n = config.peers.len();
        assert!(config.rank < n, "rank {} out of range 0..{n}", config.rank);
        let local_addr = listener.local_addr()?;
        let (inbox_tx, inbox) = unbounded::<InboxEvent>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(CommStats::default());
        let (wake_tx, wake_rx) = wake_pipe()?;
        let shared = Arc::new(DriverShared {
            parked: AtomicBool::new(false),
            wake_tx,
            sweeps: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });

        // Spawn the driver *before* dialing: every dial below blocks on
        // the peer's handshake echo, and the peer's own dials block on
        // ours — so each rank's acceptor must already be serving while
        // it dials, exactly as the blocking fabric's acceptor thread
        // does. Established streams reach the driver over a channel.
        listener.set_nonblocking(true)?;
        let (conn_tx, conn_rx) = unbounded::<OutboundConn>();
        let driver = {
            let inbox = inbox_tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let shared = Arc::clone(&shared);
            let reconnect_timeout = config.reconnect_timeout;
            let max_frame = config.max_frame_bytes;
            let listener = (n > 1).then_some(listener);
            std::thread::spawn(move || {
                driver_loop(
                    listener,
                    &conn_rx,
                    &inbox,
                    &shutdown,
                    &stats,
                    &shared,
                    &wake_rx,
                    max_frame,
                    reconnect_timeout,
                );
            })
        };

        let mut outbound_tx: Vec<Option<Sender<Bytes>>> = Vec::with_capacity(n);
        for (peer, addr) in config.peers.iter().enumerate() {
            if peer == config.rank {
                outbound_tx.push(None);
                continue;
            }
            let established = dial(addr, config.connect_timeout).and_then(|mut stream| {
                stream.set_nodelay(true)?;
                shake_hands_as_dialer(&mut stream, config.connect_timeout)?;
                stream.set_nonblocking(true)?;
                Ok(stream)
            });
            match established {
                Ok(stream) => {
                    let (tx, rx) = unbounded::<Bytes>();
                    outbound_tx.push(Some(tx));
                    let _ = conn_tx.send(OutboundConn::established(addr.clone(), stream, rx));
                    shared.wake();
                }
                Err(e) => {
                    // unwind the half-built mesh before reporting
                    shutdown.store(true, Ordering::SeqCst);
                    drop(conn_tx);
                    drop(outbound_tx);
                    shared.wake();
                    let _ = driver.join();
                    return Err(e);
                }
            }
        }
        drop(conn_tx);

        Ok(PollTcpEndpoint {
            id: config.rank,
            n,
            outbound: outbound_tx,
            shared,
            inbox_tx,
            inbox,
            pending: VecDeque::new(),
            faults: Vec::new(),
            stats,
            recv_timeout: config.recv_timeout,
            shutdown,
            driver: Some(driver),
            local_addr,
        })
    }

    /// The address this rank's listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Byte-level faults the driver has reported so far, in arrival
    /// order (see [`crate::tcp::TcpEndpoint::link_faults`]).
    pub fn link_faults(&mut self) -> &[LinkFault] {
        while let Ok(ev) = self.inbox.try_recv() {
            match ev {
                InboxEvent::Msg(m) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    self.pending.push_back(m);
                }
                InboxEvent::Fault(f) => self.faults.push(f),
            }
        }
        &self.faults
    }

    /// The driver thread's activity counters so far: how often it swept,
    /// parked, and was woken by readiness rather than by its timeout.
    pub fn driver_gauges(&self) -> DriverGauges {
        DriverGauges {
            sweeps: self.shared.sweeps.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
        }
    }

    /// Flush queued frames to every peer, close the outbound streams,
    /// and join the driver. Called implicitly on drop.
    pub fn close(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        // Dropping the queues tells the driver to drain whatever is in
        // flight, then FIN each peer and exit; only then raise the
        // shutdown flag so inbound reading stops too.
        self.outbound.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }

    fn blocking_recv(
        &mut self,
        timeout: Duration,
        mut matches: impl FnMut(&Msg) -> bool,
    ) -> Result<Msg, TransportError> {
        if let Some(pos) = self.pending.iter().position(&mut matches) {
            if let Some(m) = self.pending.remove(pos) {
                return Ok(m);
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = match deadline.checked_duration_since(Instant::now()) {
                Some(d) => d,
                None => {
                    return Err(TransportError::RecvTimeout {
                        rank: self.id,
                        waited: timeout,
                        buffered: self.pending.len(),
                    })
                }
            };
            match self.inbox.recv_timeout(remaining) {
                Ok(InboxEvent::Msg(m)) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    if matches(&m) {
                        return Ok(m);
                    }
                    self.pending.push_back(m);
                }
                // a damaged frame behaves like a lost one, as on the
                // blocking fabric
                Ok(InboxEvent::Fault(f)) => self.faults.push(f),
                Err(RecvTimeoutError::Timeout) => continue, // errors above
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }
}

impl Transport for PollTcpEndpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn fabric_size(&self) -> usize {
        self.n
    }

    fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        assert!(to < self.n, "destination {to} out of range");
        let bytes = payload.wire_bytes();
        if to == self.id {
            self.inbox_tx
                .send(InboxEvent::Msg(Msg {
                    from: self.id,
                    tag,
                    payload,
                }))
                .map_err(|_| TransportError::Closed)?;
            self.stats.record(bytes);
            return Ok(());
        }
        let frame = encode_frame(self.id, tag, &payload);
        match self.outbound.get(to).and_then(|s| s.as_ref()) {
            None => return Err(TransportError::Closed),
            Some(tx) => tx
                .send(frame)
                .map_err(|_| TransportError::PeerUnreachable { peer: to })?,
        }
        self.shared.wake();
        self.stats.record(bytes);
        Ok(())
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        self.blocking_recv(self.recv_timeout, |_| true)
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        self.blocking_recv(self.recv_timeout, |m| {
            m.tag == tag && from.is_none_or(|f| m.from == f)
        })
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        self.blocking_recv(timeout, |m| m.matches(from, tag))
    }

    fn try_recv(&mut self) -> Option<Msg> {
        if let Some(m) = self.pending.pop_front() {
            return Some(m);
        }
        loop {
            match self.inbox.try_recv().ok()? {
                InboxEvent::Msg(m) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    return Some(m);
                }
                InboxEvent::Fault(f) => self.faults.push(f),
            }
        }
    }
}

impl Drop for PollTcpEndpoint {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One accepted inbound connection: its socket, an accumulation buffer
/// the incremental parser peels handshakes/frames off of, and the
/// not-yet-written tail of our handshake echo.
struct InboundConn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Read buffer: `buf[..filled]` holds the unparsed inbound bytes (at
    /// most a partial frame once parsing catches up), the rest is
    /// zeroed room the next read lands in directly. It only grows, to
    /// the largest frame seen, so steady state neither allocates nor
    /// re-zeroes.
    buf: Vec<u8>,
    filled: usize,
    /// Readiness hint: the last [`wait_ready`] reported input (or the
    /// connection is new, or a read stopped at its budget). A sweep reads
    /// only hinted sockets; a wrong `false` costs nothing, because
    /// `poll(2)` is level-triggered and the next park corrects it.
    readable: bool,
    /// Stream bytes fully parsed so far — the frame-boundary offset
    /// fault reports anchor to.
    offset: u64,
    handshaken: bool,
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
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn driver_loop(
    listener: Option<TcpListener>,
    new_conns: &Receiver<OutboundConn>,
    inbox: &Sender<InboxEvent>,
    shutdown: &AtomicBool,
    stats: &CommStats,
    shared: &DriverShared,
    wake_rx: &WakeRx,
    max_frame: usize,
    reconnect_timeout: Duration,
) {
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
                                buf: Vec::new(),
                                filled: 0,
                                readable: true,
                                offset: 0,
                                handshaken: false,
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
                match pump_inbound(&mut inbound[i], inbox, stats, max_frame, shutdown) {
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
                                conn.queue.pop_front();
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

/// The frame length a 4-byte big-endian prefix at the start of `buf`
/// announces (callers have checked that the four bytes are there).
fn frame_len(buf: &[u8]) -> usize {
    u32::from_be_bytes(buf[..4].try_into().unwrap_or([0; 4])) as usize
}

/// Service one inbound connection: push our handshake echo, read
/// whatever the socket has (up to [`READ_CHUNK`]), and peel completed
/// handshakes/frames off the buffer.
fn pump_inbound(
    conn: &mut InboundConn,
    inbox: &Sender<InboxEvent>,
    stats: &CommStats,
    max_frame: usize,
    shutdown: &AtomicBool,
) -> PumpOutcome {
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

    // read what the socket has, straight into the buffer's tail
    let mut eof = false;
    let mut read_total = 0;
    // fairness: at most READ_CHUNK per sweep, then the other connections run
    while conn.readable && read_total < READ_CHUNK {
        // Offer the room the buffer already has, grown to the rest of the
        // partial frame when its length prefix is in (one read can then
        // finish it), else to READ_MIN. The prefix may not have been
        // checked against `max_frame` yet, so the READ_CHUNK budget also
        // caps what it can make us allocate.
        let frame_rest = if conn.handshaken && conn.filled >= 4 {
            frame_len(&conn.buf)
                .saturating_add(4)
                .saturating_sub(conn.filled)
        } else {
            0
        };
        let spare = conn.buf.len() - conn.filled;
        let room = frame_rest
            .max(READ_MIN)
            .max(spare)
            .min(READ_CHUNK - read_total);
        if spare < room {
            conn.buf.resize(conn.filled + room, 0);
        }
        match conn
            .stream
            .read(&mut conn.buf[conn.filled..conn.filled + room])
        {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(k) => {
                conn.filled += k;
                read_total += k;
                progressed = true;
                // a short read means the socket is drained for now
                conn.readable = k == room;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                eof = true; // connection reset mid-stream
                break;
            }
        }
    }

    let report = |offset: u64, detail: &str| {
        if !shutdown.load(Ordering::SeqCst) {
            let _ = inbox.send(InboxEvent::Fault(link_fault(conn.peer, offset, detail)));
        }
    };

    // parse: handshake first, then complete frames
    let mut consumed = 0usize;
    loop {
        let avail = conn.filled - consumed;
        if !conn.handshaken {
            if avail < HANDSHAKE_BYTES {
                break;
            }
            let mut preamble = [0u8; HANDSHAKE_BYTES];
            preamble.copy_from_slice(&conn.buf[consumed..consumed + HANDSHAKE_BYTES]);
            match decode_handshake(&preamble) {
                Ok(_) => {
                    conn.handshaken = true;
                    consumed += HANDSHAKE_BYTES;
                    conn.offset += HANDSHAKE_BYTES as u64;
                    progressed = true;
                    continue;
                }
                Err(e) => {
                    report(0, &format!("handshake rejected: {e}"));
                    return PumpOutcome::Closed;
                }
            }
        }
        if avail < 4 {
            break;
        }
        let len = frame_len(&conn.buf[consumed..]);
        if len > max_frame {
            stats.record_corrupt(4);
            report(
                conn.offset,
                &format!("hostile frame length {len} exceeds the {max_frame}-byte cap"),
            );
            return PumpOutcome::Closed;
        }
        if avail < 4 + len {
            break; // partial frame: wait for more bytes
        }
        match decode_after_len(&conn.buf[consumed + 4..consumed + 4 + len]) {
            Ok(msg) => {
                if inbox.send(InboxEvent::Msg(msg)).is_err() {
                    return PumpOutcome::Closed; // endpoint gone
                }
                consumed += 4 + len;
                conn.offset += 4 + len as u64;
                progressed = true;
            }
            Err(e) => {
                // CRC mismatch or structural damage: frame lost, stream
                // no longer trustworthy — tear the connection down
                stats.record_corrupt(4 + len as u64);
                report(conn.offset, &format!("frame rejected: {e}"));
                return PumpOutcome::Closed;
            }
        }
    }
    if consumed > 0 {
        // move the partial frame (if any) to the front
        conn.buf.copy_within(consumed..conn.filled, 0);
        conn.filled -= consumed;
    }

    if eof {
        let filled = conn.filled;
        if filled == 0 {
            return PumpOutcome::Closed; // clean EOF at a frame boundary
        }
        // torn frame: the peer died mid-frame (or mid-handshake)
        let detail = if !conn.handshaken {
            format!("connection died {filled} bytes into the {HANDSHAKE_BYTES}-byte handshake")
        } else if filled < 4 {
            format!("torn frame: {filled} of 4 length-prefix bytes, then EOF")
        } else {
            let len = frame_len(&conn.buf);
            format!("torn frame: {} of {len} body bytes, then EOF", filled - 4)
        };
        stats.record_corrupt(filled as u64);
        report(conn.offset + filled as u64, &detail);
        return PumpOutcome::Closed;
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
    use std::thread;

    /// Bind `n` loopback listeners on ephemeral ports and connect a
    /// full mesh of poll endpoints over them.
    fn loopback_fabric(n: usize) -> Vec<PollTcpEndpoint> {
        loopback_fabric_with(n, Duration::from_secs(20))
    }

    fn loopback_fabric_with(n: usize, recv_timeout: Duration) -> Vec<PollTcpEndpoint> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let mut config = TcpFabricConfig::new(rank, peers.clone());
                config.recv_timeout = recv_timeout;
                thread::spawn(move || {
                    PollTcpEndpoint::connect_with_listener(config, listener).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Play rank 1 over raw sockets for `ep` = rank 0: accept its dial on
    /// `raw` and answer the handshake.
    fn accept_and_shake(raw: &TcpListener) -> TcpStream {
        let (mut s, _) = raw.accept().unwrap();
        let mut preamble = [0u8; HANDSHAKE_BYTES];
        s.read_exact(&mut preamble).unwrap();
        decode_handshake(&preamble).unwrap();
        s.write_all(&encode_handshake()).unwrap();
        s
    }

    fn read_frame(s: &mut TcpStream) -> Msg {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut rest = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut rest).unwrap();
        decode_after_len(&rest).unwrap()
    }

    #[test]
    fn point_to_point_and_self_send() {
        let mut eps = loopback_fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 1, Payload::Params(vec![1.0, -2.0])).unwrap();
        let m = a.recv_tagged(Some(1), 1).unwrap();
        assert_eq!(m.from, 1);
        assert_eq!(m.payload, Payload::Params(vec![1.0, -2.0]));
        a.send(0, 2, Payload::Control(9)).unwrap(); // self-send loops back
        assert_eq!(
            a.recv_tagged(Some(0), 2).unwrap().payload,
            Payload::Control(9)
        );
        a.close();
        b.close();
    }

    #[test]
    fn tagged_receive_buffers_out_of_order() {
        let mut eps = loopback_fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 2, Payload::Control(2)).unwrap();
        b.send(0, 1, Payload::Control(1)).unwrap();
        assert_eq!(a.recv_tagged(None, 1).unwrap().payload, Payload::Control(1));
        assert_eq!(
            a.recv_tagged(Some(1), 2).unwrap().payload,
            Payload::Control(2)
        );
        a.close();
        b.close();
    }

    #[test]
    fn byte_accounting_matches_encoded_frames() {
        let mut eps = loopback_fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let payloads = [
            Payload::Params(vec![0.5; 33]),
            Payload::Bucket {
                bucket: 1,
                n_buckets: 3,
                values: vec![2.0; 9],
            },
            Payload::SparseGrad {
                len: 16,
                indices: vec![3, 9],
                values: vec![1.5, -0.5],
            },
            Payload::Control(7),
        ];
        let mut expected = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            expected += encode_frame(1, i as u64, p).len() as u64;
            b.send(0, i as u64, p.clone()).unwrap();
        }
        for i in 0..payloads.len() {
            let _ = a.recv_tagged(Some(1), i as u64).unwrap();
        }
        assert_eq!(b.stats().total_bytes(), expected);
        assert_eq!(b.stats().total_messages(), payloads.len() as u64);
        a.close();
        b.close();
    }

    /// One driver thread multiplexes all peers: a 4-rank mesh exchanges
    /// ring traffic with every endpoint on its own thread.
    #[test]
    fn mesh_ring_traffic_across_threads() {
        let n = 4;
        let eps = loopback_fabric(n);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let me = ep.id();
                    let next = (me + 1) % n;
                    let prev = (me + n - 1) % n;
                    for step in 0..50u64 {
                        ep.send(next, step, Payload::Params(vec![me as f32, step as f32]))
                            .unwrap();
                        let m = ep.recv_tagged(Some(prev), step).unwrap();
                        assert_eq!(m.payload, Payload::Params(vec![prev as f32, step as f32]));
                    }
                    ep.close();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
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

    #[test]
    fn recv_watchdog_is_an_error_not_a_panic() {
        let mut eps = loopback_fabric(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let err = a
            .recv_deadline(None, Some(42), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, TransportError::RecvTimeout { rank: 0, .. }));
        a.close();
        b.close();
    }

    #[test]
    fn send_after_close_is_an_error_not_a_panic() {
        let mut eps = loopback_fabric(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.teardown();
        let err = a.send(1, 0, Payload::Control(1)).unwrap_err();
        assert_eq!(err, TransportError::Closed);
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

    /// A CRC-corrupted frame surfaces as a typed `LinkFault` with the
    /// stream offset, tallies `corrupt_messages`, and never decodes —
    /// the same contract the blocking fabric's torn-frame suite proves.
    #[test]
    fn corrupt_frame_is_a_typed_fault_not_a_message() {
        // 2-rank fabric where the test plays rank 1 over raw sockets:
        // the answer thread completes rank 0's outbound handshake, then
        // the test dials rank 0's listener directly to inject damage.
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

        // dial rank 0's listener raw and send a handshake + a frame with
        // a flipped CRC byte, then a clean frame on a fresh connection
        let addr = ep.local_addr().to_string();
        let mut evil = TcpStream::connect(&addr).unwrap();
        evil.write_all(&encode_handshake()).unwrap();
        let mut good = encode_frame(1, 9, &Payload::Control(9)).to_vec();
        let last = good.len() - 1;
        good[last] ^= 0xFF; // break the CRC trailer
        evil.write_all(&good).unwrap();
        evil.flush().unwrap();

        // the fault arrives instead of a message
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let faults = ep.link_faults();
            if !faults.is_empty() {
                assert!(matches!(faults[0].error, TransportError::Protocol(_)));
                assert_eq!(faults[0].offset, HANDSHAKE_BYTES as u64);
                break;
            }
            assert!(Instant::now() < deadline, "fault never reported");
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(ep.stats().corrupt_messages(), 1);

        // the damaged connection is torn down; a fresh one still works
        let mut clean = TcpStream::connect(&addr).unwrap();
        clean.write_all(&encode_handshake()).unwrap();
        clean
            .write_all(&encode_frame(1, 10, &Payload::Control(10)))
            .unwrap();
        let m = ep
            .recv_deadline(None, Some(10), Duration::from_secs(5))
            .unwrap();
        assert_eq!(m.payload, Payload::Control(10));
        ep.close();
    }

    /// A hostile length prefix is rejected before any allocation.
    #[test]
    fn hostile_length_prefix_is_rejected() {
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            raw.local_addr().unwrap().to_string(),
        ];
        let mut cfg = TcpFabricConfig::new(0, peers);
        cfg.recv_timeout = Duration::from_secs(5);
        cfg.max_frame_bytes = 1024;
        let answer = thread::spawn(move || accept_and_shake(&raw));
        let mut ep = PollTcpEndpoint::connect_with_listener(cfg, l0).unwrap();
        drop(answer.join().unwrap());

        let mut evil = TcpStream::connect(ep.local_addr()).unwrap();
        evil.write_all(&encode_handshake()).unwrap();
        evil.write_all(&u32::MAX.to_be_bytes()).unwrap(); // 4 GiB "frame"
        evil.flush().unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let faults = ep.link_faults();
            if !faults.is_empty() {
                let TransportError::Protocol(detail) = &faults[0].error else {
                    panic!("expected a Protocol fault");
                };
                assert!(detail.contains("hostile frame length"), "{detail}");
                break;
            }
            assert!(Instant::now() < deadline, "fault never reported");
            thread::sleep(Duration::from_millis(10));
        }
        ep.close();
    }

    /// `close()` right behind a frame far larger than the socket buffers
    /// still delivers it: the driver keeps waiting on `POLLOUT` until the
    /// queue is flushed, and only then sends FIN and exits.
    #[test]
    fn close_flushes_a_large_frame_queued_just_before_it() {
        let mut eps = loopback_fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let big = vec![0.25f32; 1024 * 1024]; // 4 MiB
        b.send(0, 7, Payload::Params(big.clone())).unwrap();
        b.close();
        assert_eq!(
            a.recv_tagged(Some(1), 7).unwrap().payload,
            Payload::Params(big)
        );
        a.close();
    }

    /// The read buffer across read boundaries: frames dribbled in odd
    /// slices (splitting the handshake, a length prefix and a body that
    /// outgrows `READ_MIN`) reassemble in order, and a final frame cut
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
                if ep.driver_gauges() == before && ep.shared.parked.load(Ordering::SeqCst) {
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
            let shared = Arc::clone(&a.shared);
            a.close();
            assert_eq!(
                shared.wakes.load(Ordering::Relaxed),
                before.wakes + 1,
                "the park in progress should have ended by readiness"
            );
            b.close();
        }

        /// Fault parity with the blocking fabric's `write_loop`: the frame in
        /// the backpressure queue when the link breaks — here partly
        /// written — is resent whole on the redialled link, ahead of what
        /// was queued behind it.
        #[test]
        fn broken_link_resends_the_queued_frame_after_redial() {
            let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
            let raw = TcpListener::bind("127.0.0.1:0").unwrap();
            let raw_addr = raw.local_addr().unwrap().to_string();
            let peers = vec![l0.local_addr().unwrap().to_string(), raw_addr.clone()];
            let cfg = TcpFabricConfig::new(0, peers);
            // the listener goes away with the thread; only the accepted
            // socket comes back
            let answer = thread::spawn(move || accept_and_shake(&raw));
            let mut ep = PollTcpEndpoint::connect_with_listener(cfg, l0).unwrap();
            let accepted = answer.join().unwrap();

            // 16 MiB that nobody reads: more than the socket buffers hold, so
            // the driver parks with the frame partly written
            let big = vec![-1.5f32; 4 * 1024 * 1024];
            ep.send(1, 1, Payload::Params(big.clone())).unwrap();
            ep.send(1, 2, Payload::Control(2)).unwrap();
            wait_until_parked(&ep);
            drop(accepted); // unread data: the peer answers with a reset

            let raw = bind_reuse(&raw_addr).expect("rebind of the released port");
            let mut redialled = accept_and_shake(&raw);
            let first = read_frame(&mut redialled);
            assert_eq!((first.from, first.tag), (0, 1));
            assert_eq!(first.payload, Payload::Params(big));
            let second = read_frame(&mut redialled);
            assert_eq!((second.tag, second.payload), (2, Payload::Control(2)));
            ep.close();
        }
    }
}
