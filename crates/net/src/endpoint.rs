//! One rank's handle on a TCP mesh — everything about it that does not
//! depend on *how* bytes reach the sockets.
//!
//! Topology: rank `i` listens on `peers[i]` and dials one outbound
//! connection to every other rank, so each ordered pair owns a
//! unidirectional frame stream. Every new connection opens with the
//! 8-byte protocol preamble ([`crate::codec::encode_handshake`]):
//! each side sends its own and validates the peer's, so a mixed-version
//! fleet (or a stranger speaking another protocol entirely) fails fast
//! instead of mis-parsing frames.
//!
//! [`MeshEndpoint`] owns the receive semantics every rank's sync
//! decision rests on — tagged receive with out-of-order buffering,
//! self-send loopback, byte accounting, the receive watchdog — plus the
//! bind-and-dial `connect` and the teardown, and is the crate's one
//! `impl Transport`. What it does not own is the socket I/O: a
//! [`Driver`] accepts, reads, writes and redials. The crate has two,
//! and the public endpoint types are this one type over each of them:
//! [`crate::tcp::TcpEndpoint`] (reader/writer/acceptor threads,
//! blocking sockets) and [`crate::poll::PollTcpEndpoint`] (one thread,
//! nonblocking sockets, `poll(2)`). Frames reach a driver through
//! per-peer unbounded queues (keeping [`Transport::send`] non-blocking,
//! like the channel fabric); a driver feeds decoded messages into one
//! shared inbox.
//!
//! Two things about the send side are decided here, before a driver
//! sees a frame. A payload whose frame would exceed the fabric's
//! `max_frame_bytes` — which the receiving rank would reject as hostile,
//! tearing the link down and losing the message in silence — is refused
//! with [`TransportError::Protocol`] before it is encoded. And a
//! [`Payload::SharedParams`] is encoded once per fan-out: a frame names
//! its sender, tag and body but not its destination, so when the
//! parameter server answers every worker of a round with the same `Arc`
//! under the same tag, the sends after the first queue a clone of the
//! first one's bytes. Both live inside [`Transport::send`], so wrappers
//! that call it once per link (chaos, the benchmark's tracer) see
//! exactly the calls, bytes and counters they always did.
//!
//! Byte-level damage on an inbound connection — a torn frame, a CRC
//! mismatch, a hostile length prefix — is surfaced by either driver as
//! a typed [`LinkFault`] (peer address + stream byte offset + a
//! [`TransportError::Protocol`] error) and tallied in
//! [`CommStats::corrupt_messages`], then the connection is torn down:
//! a stream that has lost framing cannot be resynchronized, so the
//! peer's writer redials and the protocol retry layers absorb the
//! loss. Blocking receives never return these faults as errors — a
//! damaged frame behaves like a lost one (`RecvTimeout` + resend), so
//! clean-link behavior is unchanged.

use crate::codec::{encode_frame_into, FrameReader, StreamFault};
use crate::pool::BufferPool;
use crate::tcp::{bind_reuse, dial, shake_hands_as_dialer};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Default ceiling on a single frame's declared size; a corrupted
/// length prefix fails fast instead of attempting a huge allocation.
/// Configurable per fabric via [`TcpFabricConfig::max_frame_bytes`].
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 30;

/// Configuration for one rank of a TCP fabric.
#[derive(Debug, Clone)]
pub struct TcpFabricConfig {
    /// This process's rank (index into `peers`).
    pub rank: usize,
    /// `host:port` of every rank, in rank order. `peers.len()` is the
    /// fabric size.
    pub peers: Vec<String>,
    /// Total budget for dialing each peer (retry with backoff inside).
    pub connect_timeout: Duration,
    /// Socket write timeout per frame.
    pub write_timeout: Duration,
    /// Watchdog for blocking receives: a `recv_*` that sees no matching
    /// message for this long returns [`TransportError::RecvTimeout`]
    /// (deadlock/peer-death detector).
    pub recv_timeout: Duration,
    /// Budget for re-establishing a *broken* established link (peer
    /// crashed and restarted, transient network fault). The driver
    /// redials with capped exponential backoff for this long before the
    /// peer is declared unreachable; failover protocols need this to
    /// survive a parameter-server restart without tearing the fabric
    /// down.
    pub reconnect_timeout: Duration,
    /// Ceiling on a single frame's declared size. Inbound, a length
    /// prefix above this — hostile or corrupt — is rejected as a
    /// [`LinkFault`] before any allocation is attempted; outbound,
    /// [`Transport::send`] refuses a payload whose frame would exceed it
    /// (the peer would only tear the link down over it).
    pub max_frame_bytes: usize,
}

impl TcpFabricConfig {
    /// Config with production-lenient timeouts.
    pub fn new(rank: usize, peers: Vec<String>) -> Self {
        TcpFabricConfig {
            rank,
            peers,
            connect_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            recv_timeout: Duration::from_secs(300),
            reconnect_timeout: Duration::from_secs(15),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A byte-level fault a driver detected on one inbound connection: a
/// frame torn mid-read, a CRC mismatch, a hostile length prefix, or a
/// rejected handshake. Distinguishes in-flight damage from a peer crash
/// (which shows up as a clean EOF or `PeerUnreachable` instead) in soak
/// and chaos logs.
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Remote address of the damaged connection.
    pub peer: SocketAddr,
    /// Bytes successfully consumed from this connection's stream
    /// before the fault (handshake included) — where in the stream the
    /// damage was detected.
    pub offset: u64,
    /// The typed error, always [`TransportError::Protocol`].
    pub error: TransportError,
}

pub(crate) fn link_fault(peer: SocketAddr, offset: u64, detail: &str) -> LinkFault {
    LinkFault {
        peer,
        offset,
        error: TransportError::Protocol(format!(
            "{detail} (peer {peer}, stream byte offset {offset})"
        )),
    }
}

/// What a driver feeds the shared inbox: decoded messages, plus typed
/// fault reports the endpoint collects off to the side.
pub enum InboxEvent {
    Msg(Msg),
    Fault(LinkFault),
}

/// What a driver's threads share with the endpoint they serve.
#[derive(Clone)]
pub struct Links {
    pub inbox: Sender<InboxEvent>,
    /// Raised by teardown: stop accepting, reading and redialing.
    pub shutdown: Arc<AtomicBool>,
    pub stats: Arc<CommStats>,
    /// The endpoint's buffers: a driver decodes into them through its
    /// `FrameReader`s and hands every written frame back.
    pub pool: Arc<BufferPool>,
}

impl Links {
    /// Feed bytes read from the connection from `peer` to its reader:
    /// every message completed goes to the inbox, a fault is filed.
    /// `false` once the connection is done — a fault tore its framing,
    /// or the endpoint is gone.
    pub fn feed(&self, reader: &mut FrameReader, peer: SocketAddr, bytes: &[u8]) -> bool {
        let mut gone = false;
        let fed = reader.feed(bytes, |msg| {
            gone |= self.inbox.send(InboxEvent::Msg(msg)).is_err();
        });
        if let Err(fault) = fed {
            // CRC mismatch, structural damage or a hostile length: a
            // stream that produced it cannot be trusted to still be
            // frame-aligned, so the connection is torn down and the
            // peer's writer redials
            self.fault(peer, &fault);
            return false;
        }
        !gone
    }

    /// The connection from `peer` ended for `cause`: quietly at a frame
    /// boundary, else as the torn frame (or handshake) its reader holds.
    pub fn end(&self, reader: &FrameReader, peer: SocketAddr, cause: &dyn std::fmt::Display) {
        if let Some(fault) = reader.end(cause) {
            self.fault(peer, &fault);
        }
    }

    /// File a fault a reader found on the connection from `peer`: tally
    /// the frame it cost and, unless the endpoint is shutting down,
    /// report it.
    fn fault(&self, peer: SocketAddr, fault: &StreamFault) {
        if let Some(bytes) = fault.corrupt_bytes() {
            self.stats.record_corrupt(bytes);
        }
        if !self.shutdown.load(Ordering::SeqCst) {
            let _ = self.inbox.send(InboxEvent::Fault(link_fault(
                peer,
                fault.offset,
                &fault.to_string(),
            )));
        }
    }
}

/// The seam between [`MeshEndpoint`] and whatever moves its bytes. A
/// driver is *started* (on the listener, then handed each dialled
/// stream), *notified* when the endpoint's thread has published work
/// for it, and *stopped*.
pub trait Driver: Sized + Send + 'static {
    /// Begin serving inbound connections on `listener` (nonblocking;
    /// absent on a one-rank fabric) — before any peer is dialled, since
    /// every dial blocks on the peer's handshake echo and the peer's
    /// own dial blocks on ours.
    fn start(
        listener: Option<TcpListener>,
        links: Links,
        config: &TcpFabricConfig,
    ) -> io::Result<Self>;

    /// Take over one dialled, handshaken outbound stream to `addr` and
    /// the queue of frames bound for it. When the endpoint drops the
    /// queue's sender the driver drains what is left, then sends FIN;
    /// when the driver gives a peer up it drops the receiver, which the
    /// next send surfaces as `PeerUnreachable`.
    fn adopt(&mut self, addr: &str, stream: TcpStream, frames: Receiver<Bytes>) -> io::Result<()>;

    /// The endpoint queued a frame or raised the shutdown flag.
    fn notify(&self);

    /// Join every thread. The endpoint has already dropped the frame
    /// queues, raised the shutdown flag and notified; a second call
    /// finds nothing left to join.
    fn stop(&mut self);
}

/// One rank's handle on the TCP fabric, over driver `D`. Implements
/// [`Transport`], so the PS, collectives and trainer run over it
/// unchanged.
pub struct MeshEndpoint<D: Driver> {
    id: usize,
    n: usize,
    /// Frame queues into the driver; `None` at `id` (self-sends loop
    /// back through `links.inbox`).
    outbound: Vec<Option<Sender<Bytes>>>,
    links: Links,
    inbox: Receiver<InboxEvent>,
    pending: VecDeque<Msg>,
    /// Byte-level faults the driver has reported, in arrival order.
    faults: Vec<LinkFault>,
    /// The last [`Payload::SharedParams`] frame encoded, with the tag and
    /// the buffer it was encoded from: a fan-out of one buffer encodes
    /// once. The `Weak` lets the sender take the buffer back once every
    /// `Arc` is gone, yet keeps the `Arc`'s allocation from being reused
    /// and, while any `Arc` lives, its contents from being written:
    /// pointer equality with a live `Arc` means same contents.
    fanout: Option<(u64, Weak<Vec<f32>>, Bytes)>,
    /// Largest declared length (`wire_bytes - 4`) `send` will frame.
    max_declared_len: u64,
    recv_timeout: Duration,
    local_addr: SocketAddr,
    pub(crate) driver: D,
}

impl<D: Driver> MeshEndpoint<D> {
    /// Bind `peers[rank]`, accept inbound connections from every other
    /// rank, and dial every peer (with retry/backoff, so ranks may
    /// start in any order). Returns once all outbound connections are
    /// established.
    ///
    /// The bind itself also retries within `connect_timeout`: the
    /// assigned port may be transiently occupied — typically as the
    /// ephemeral *source* port of someone else's outbound connection —
    /// and giving up immediately would strand the whole fabric waiting
    /// on this rank.
    ///
    /// # Errors
    /// Propagates bind/dial/handshake failures.
    pub fn connect(config: TcpFabricConfig) -> io::Result<Self> {
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
    /// Propagates dial/handshake failures. The half-built mesh is
    /// unwound first: the driver is stopped and the listen port
    /// released before the error is returned.
    pub fn connect_with_listener(
        config: TcpFabricConfig,
        listener: TcpListener,
    ) -> io::Result<Self> {
        let n = config.peers.len();
        assert!(config.rank < n, "rank {} out of range 0..{n}", config.rank);
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (inbox_tx, inbox) = unbounded::<InboxEvent>();
        let links = Links {
            inbox: inbox_tx,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(CommStats::default()),
            pool: Arc::new(BufferPool::for_fabric(n)),
        };
        let driver = D::start((n > 1).then_some(listener), links.clone(), &config)?;
        // From here on an early return drops `ep`, and its teardown
        // stops the driver.
        let mut ep = MeshEndpoint {
            id: config.rank,
            n,
            outbound: Vec::with_capacity(n),
            links,
            inbox,
            pending: VecDeque::new(),
            faults: Vec::new(),
            fanout: None,
            // the length prefix is a u32 whatever the configured cap
            max_declared_len: (config.max_frame_bytes as u64).min(u64::from(u32::MAX)),
            recv_timeout: config.recv_timeout,
            local_addr,
            driver,
        };

        // Dial every peer. Synchronous here is deadlock-free: inbound
        // connections land in the already-running driver, which also
        // produces the handshake echo the *peer's* dial waits for.
        for (peer, addr) in config.peers.iter().enumerate() {
            if peer == config.rank {
                ep.outbound.push(None);
                continue;
            }
            let mut stream = dial(addr, config.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.set_write_timeout(Some(config.write_timeout))?;
            shake_hands_as_dialer(&mut stream, config.connect_timeout)?;
            let (tx, rx) = unbounded::<Bytes>();
            ep.driver.adopt(addr, stream, rx)?;
            ep.outbound.push(Some(tx));
        }
        Ok(ep)
    }

    /// Bind `n` ephemeral loopback listeners and connect the full mesh
    /// inside this process — one thread per rank, because every connect
    /// blocks until its peers answer. Element `i` of the result is rank
    /// `i`. `configure` adjusts each rank's config (watchdog, frame
    /// cap) before it dials. For tests, benchmarks and in-process
    /// experiments; a deployment [`connect`](Self::connect)s to the
    /// addresses it was given.
    ///
    /// # Errors
    /// Propagates the first bind or connect failure.
    pub fn loopback_mesh(
        n: usize,
        configure: impl Fn(&mut TcpFabricConfig),
    ) -> io::Result<Vec<Self>> {
        let listeners = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let peers = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<io::Result<Vec<_>>>()?;
        std::thread::scope(|s| {
            let dials: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let mut config = TcpFabricConfig::new(rank, peers.clone());
                    configure(&mut config);
                    s.spawn(move || Self::connect_with_listener(config, listener))
                })
                .collect();
            dials
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io::Error::other("mesh dial thread panicked")))
                })
                .collect()
        })
    }

    /// The address this rank's listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Byte-level faults the driver has reported so far (torn frames,
    /// CRC mismatches, hostile lengths, rejected handshakes), in
    /// arrival order. Drains freshly reported faults first, so a
    /// caller polling after an injected corruption sees it without an
    /// intervening receive.
    pub fn link_faults(&mut self) -> &[LinkFault] {
        while let Ok(ev) = self.inbox.try_recv() {
            if let Some(m) = self.admit(ev) {
                self.pending.push_back(m);
            }
        }
        &self.faults
    }

    /// Flush queued frames to every peer, close the outbound streams,
    /// and join the driver. Called implicitly on drop; explicit calls
    /// make shutdown ordering visible in launcher code.
    pub fn close(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        // Dropping the queues tells the driver to drain whatever is in
        // flight, then FIN each peer, so peers see clean EOFs at frame
        // boundaries; only then raise the shutdown flag, which stops
        // inbound reading (and any redial) too.
        self.outbound.clear();
        self.links.shutdown.store(true, Ordering::SeqCst);
        self.driver.notify();
        self.driver.stop();
    }

    /// The wire frame for `payload`, encoded into a pooled buffer. Nothing
    /// in a frame names its destination, so a [`Payload::SharedParams`]
    /// sent again under the same tag from the same buffer — the parameter
    /// server answering every worker of a round — reuses the bytes of the
    /// first encode; the frame it replaces goes back to the pool.
    fn frame_for(&mut self, tag: u64, payload: &Payload) -> Bytes {
        let Payload::SharedParams(params) = payload else {
            return self.encode(tag, payload);
        };
        if let Some((t, p, frame)) = &self.fanout {
            if *t == tag && std::ptr::eq(p.as_ptr(), Arc::as_ptr(params)) {
                return frame.clone();
            }
        }
        let frame = self.encode(tag, payload);
        let entry = (tag, Arc::downgrade(params), frame.clone());
        if let Some((_, _, replaced)) = self.fanout.replace(entry) {
            self.links.pool.give_bytes(replaced);
        }
        frame
    }

    fn encode(&self, tag: u64, payload: &Payload) -> Bytes {
        let wire = payload.wire_bytes() as usize;
        let buf = self
            .links
            .pool
            .take_frame(wire)
            .unwrap_or_else(|| Vec::with_capacity(wire));
        encode_frame_into(buf, self.id, tag, payload)
    }

    /// Account for one inbox event: a message is tallied and handed
    /// back, a fault report is filed.
    fn admit(&mut self, ev: InboxEvent) -> Option<Msg> {
        match ev {
            InboxEvent::Msg(m) => {
                self.links.stats.record_recv(m.payload.wire_bytes());
                Some(m)
            }
            InboxEvent::Fault(f) => {
                self.faults.push(f);
                None
            }
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
                // a damaged frame behaves like a lost one: its typed
                // report is filed and the wait goes on — the caller's
                // timeout and resend layers handle the loss
                Ok(ev) => {
                    if let Some(m) = self.admit(ev) {
                        if matches(&m) {
                            return Ok(m);
                        }
                        self.pending.push_back(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue, // errors above
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }
}

/// The crate's one `impl Transport for` an endpoint type: both public
/// aliases get their `Transport` from here.
impl<D: Driver> Transport for MeshEndpoint<D> {
    fn id(&self) -> usize {
        self.id
    }

    fn fabric_size(&self) -> usize {
        self.n
    }

    fn stats(&self) -> &Arc<CommStats> {
        &self.links.stats
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        assert!(to < self.n, "destination {to} out of range");
        let bytes = payload.wire_bytes();
        if to == self.id {
            // loop back without touching a socket, like the channel
            // fabric's self-send
            self.links
                .inbox
                .send(InboxEvent::Msg(Msg {
                    from: self.id,
                    tag,
                    payload,
                }))
                .map_err(|_| TransportError::Closed)?;
            self.links.stats.record(bytes);
            return Ok(());
        }
        // the receiver would call a longer frame hostile and drop the
        // link, losing the message without telling anyone; past u32::MAX
        // the length prefix itself would wrap
        let declared = bytes - 4;
        if declared > self.max_declared_len {
            return Err(TransportError::Protocol(format!(
                "a {declared}-byte frame to rank {to} exceeds the fabric's {}-byte frame cap",
                self.max_declared_len
            )));
        }
        let frame = self.frame_for(tag, &payload);
        // encoded: the caller's vector is the next reply's buffer
        if let Payload::Params(v) | Payload::Grads(v) = payload {
            self.links.pool.give_floats(v);
        }
        match self.outbound.get(to).and_then(|s| s.as_ref()) {
            None => return Err(TransportError::Closed),
            Some(tx) => tx
                .send(frame)
                .map_err(|_| TransportError::PeerUnreachable { peer: to })?,
        }
        self.driver.notify();
        self.links.stats.record(bytes);
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
            let ev = self.inbox.try_recv().ok()?;
            if let Some(m) = self.admit(ev) {
                return Some(m);
            }
        }
    }

    /// Pools `v`: the driver decodes the next model-sized message into it.
    fn recycle(&mut self, v: Vec<f32>) {
        self.links.pool.give_floats(v);
    }
}

impl<D: Driver> Drop for MeshEndpoint<D> {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The endpoint's contract, checked once and run over both drivers,
/// plus the raw-socket helpers the driver-specific tests share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::{
        decode_after_len, decode_handshake, encode_frame, encode_handshake, FrameError,
        HANDSHAKE_BYTES, PROTOCOL_VERSION,
    };
    use crate::poll::PollDriver;
    use crate::tcp::ThreadDriver;
    use std::io::{Read, Write};
    use std::net::Shutdown;
    use std::thread;

    /// Instantiate each generic test below once per driver.
    macro_rules! on_both_drivers {
        ($($test:ident),* $(,)?) => {
            mod threads {
                $(#[test] fn $test() { super::$test::<super::ThreadDriver>(); })*
            }
            mod poll {
                $(#[test] fn $test() { super::$test::<super::PollDriver>(); })*
            }
        };
    }

    on_both_drivers!(
        point_to_point_and_self_send,
        tagged_receive_buffers_out_of_order,
        byte_accounting_matches_encoded_frames,
        mesh_ring_traffic_across_threads,
        recv_watchdog_is_an_error_not_a_panic,
        send_after_close_is_an_error_not_a_panic,
        close_flushes_a_large_frame_queued_just_before_it,
        writer_reconnects_after_peer_restart,
        broken_link_resends_the_queued_frame_after_redial,
        mixed_versions_fail_the_connect_handshake,
        oversized_send_is_refused_before_it_reaches_the_wire,
        shared_params_fan_out_encodes_once_and_never_serves_stale_bytes,
    );

    fn loopback_fabric<D: Driver>(n: usize) -> Vec<MeshEndpoint<D>> {
        MeshEndpoint::loopback_mesh(n, |c| c.recv_timeout = Duration::from_secs(20)).unwrap()
    }

    /// A two-rank fabric whose rank 1 the test plays by hand over raw
    /// sockets: that rank's listener, then rank 0's listener and config.
    fn raw_peer_fabric() -> (TcpListener, TcpListener, TcpFabricConfig) {
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            raw.local_addr().unwrap().to_string(),
        ];
        (raw, l0, TcpFabricConfig::new(0, peers))
    }

    /// Accept rank 0's dial on `raw` and answer the SelSync preamble, the
    /// way a real acceptor would.
    pub(crate) fn accept_and_shake(raw: &TcpListener) -> TcpStream {
        let (mut s, _) = raw.accept().unwrap();
        let mut preamble = [0u8; HANDSHAKE_BYTES];
        s.read_exact(&mut preamble).unwrap();
        decode_handshake(&preamble).unwrap();
        s.write_all(&encode_handshake()).unwrap();
        s
    }

    /// Read one wire frame (length prefix + body) off a raw socket.
    fn read_frame(s: &mut TcpStream) -> Msg {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut rest = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut rest).unwrap();
        decode_after_len(&rest).unwrap()
    }

    fn point_to_point_and_self_send<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
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

    fn tagged_receive_buffers_out_of_order<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 2, Payload::Control(2)).unwrap();
        b.send(0, 1, Payload::Control(1)).unwrap();
        let m1 = a.recv_tagged(None, 1).unwrap();
        assert_eq!(m1.payload, Payload::Control(1));
        let m2 = a.recv_tagged(Some(1), 2).unwrap();
        assert_eq!(m2.payload, Payload::Control(2));
        a.close();
        b.close();
    }

    fn byte_accounting_matches_encoded_frames<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let payloads = [
            Payload::Params(vec![0.5; 33]),
            Payload::Flags(vec![1; 5]),
            Payload::Control(7),
            Payload::Samples {
                data: vec![1.0; 12],
                targets: vec![0, 1, 2],
                dims: vec![2, 2, 3],
            },
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

    fn mesh_ring_traffic_across_threads<D: Driver>() {
        let n = 4;
        let eps = loopback_fabric::<D>(n);
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

    fn recv_watchdog_is_an_error_not_a_panic<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let err = a
            .recv_deadline(None, Some(42), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, TransportError::RecvTimeout { rank: 0, .. }));
        a.close();
        b.close();
    }

    fn send_after_close_is_an_error_not_a_panic<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.teardown();
        let err = a.send(1, 0, Payload::Control(1)).unwrap_err();
        assert_eq!(err, TransportError::Closed);
        b.close();
    }

    /// `close()` right behind a frame far larger than the socket buffers
    /// still delivers it: teardown drops the queues first, and the driver
    /// flushes what they held, then sends FIN, before it exits.
    fn close_flushes_a_large_frame_queued_just_before_it<D: Driver>() {
        let mut eps = loopback_fabric::<D>(2);
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

    /// A broken established link is redialed by the driver: drop the
    /// first accepted connection mid-run and frames keep arriving on a
    /// second one — sends never surface `PeerUnreachable`.
    fn writer_reconnects_after_peer_restart<D: Driver>() {
        // rank 1 stands in for a peer that crashes and restarts
        let (raw, l0, mut config) = raw_peer_fabric();
        config.reconnect_timeout = Duration::from_secs(10);
        let accept_first = thread::spawn(move || (accept_and_shake(&raw), raw));
        let mut ep = MeshEndpoint::<D>::connect_with_listener(config, l0).unwrap();
        let (mut conn1, raw) = accept_first.join().unwrap();

        ep.send(1, 7, Payload::Control(7)).unwrap();
        assert_eq!(read_frame(&mut conn1).tag, 7);

        // "crash" the peer: kill the established connection
        conn1.shutdown(Shutdown::Both).unwrap();
        drop(conn1);

        // keep sending until the driver notices the dead link and
        // redials; the listener is still bound, so the redial lands here
        let (tx, rx) = std::sync::mpsc::channel();
        let accept_second = thread::spawn(move || {
            let conn = accept_and_shake(&raw);
            tx.send(()).ok();
            conn
        });
        let mut probes = 0u64;
        while rx.try_recv().is_err() {
            probes += 1;
            assert!(probes < 200, "driver never redialed the restarted peer");
            ep.send(1, 100 + probes, Payload::Control(probes)).unwrap();
            thread::sleep(Duration::from_millis(25));
        }
        let mut conn2 = accept_second.join().unwrap();

        // everything sent after the reconnect arrives on the new link
        ep.send(1, 999, Payload::Params(vec![1.0, 2.0])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = read_frame(&mut conn2);
            if m.tag == 999 {
                assert_eq!(m.payload, Payload::Params(vec![1.0, 2.0]));
                break;
            }
            assert!(Instant::now() < deadline, "tag 999 never arrived");
        }
        ep.close();
    }

    /// The frame the driver was writing when the link broke — here partly
    /// written — is resent whole on the redialled link, ahead of what was
    /// queued behind it.
    fn broken_link_resends_the_queued_frame_after_redial<D: Driver>() {
        let (raw, l0, config) = raw_peer_fabric();
        let raw_addr = raw.local_addr().unwrap().to_string();
        // the listener goes away with the thread; only the accepted
        // socket comes back
        let answer = thread::spawn(move || accept_and_shake(&raw));
        let mut ep = MeshEndpoint::<D>::connect_with_listener(config, l0).unwrap();
        let mut accepted = answer.join().unwrap();

        // 16 MiB of which the peer reads only the start: the write has
        // begun, and the socket buffers cannot hold the rest of it
        let big = vec![-1.5f32; 4 * 1024 * 1024];
        ep.send(1, 1, Payload::Params(big.clone())).unwrap();
        ep.send(1, 2, Payload::Control(2)).unwrap();
        accepted.read_exact(&mut [0u8; 4096]).unwrap();
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

    /// A payload the receiver's frame cap would reject is an error at the
    /// sender, not a torn-down link and a message lost in silence: the
    /// link stays up, the next send arrives, and nothing was counted.
    fn oversized_send_is_refused_before_it_reaches_the_wire<D: Driver>() {
        let mut eps = MeshEndpoint::<D>::loopback_mesh(2, |c| {
            c.recv_timeout = Duration::from_secs(20);
            c.max_frame_bytes = 1024;
        })
        .unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // a flags frame declares 21 + len bytes after its length prefix
        let err = a.send(1, 1, Payload::Flags(vec![1; 1004])).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        let err = a.send(1, 2, Payload::Params(vec![0.5; 4096])).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        assert_eq!(
            a.stats().total_messages(),
            0,
            "a refused send is not a send"
        );

        a.send(1, 3, Payload::Flags(vec![1; 1003])).unwrap(); // exactly the cap
        a.send(1, 4, Payload::Control(7)).unwrap();
        assert_eq!(
            b.recv_tagged(Some(0), 3).unwrap().payload,
            Payload::Flags(vec![1; 1003])
        );
        assert_eq!(
            b.recv_tagged(Some(0), 4).unwrap().payload,
            Payload::Control(7)
        );
        assert!(b.link_faults().is_empty(), "{:?}", b.link_faults());
        a.close();
        b.close();
    }

    /// The parameter server's reply fan-out: one `SharedParams` buffer to
    /// W peers is encoded once, arrives bit-equal everywhere and is
    /// counted W times — and the remembered frame is never served for
    /// another tag or another buffer.
    fn shared_params_fan_out_encodes_once_and_never_serves_stale_bytes<D: Driver>() {
        const W: usize = 3;
        let mut eps = loopback_fabric::<D>(W + 1);
        let mut ps = eps.pop().unwrap();
        let values = |salt: u32| -> Arc<Vec<f32>> {
            // NaN payloads included: the comparison below is on bits
            Arc::new(
                (0..300u32)
                    .map(|i| f32::from_bits((i ^ salt).wrapping_mul(0x9E37_79B9)))
                    .collect(),
            )
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

        let first = values(1);
        let payload = Payload::SharedParams(Arc::clone(&first));
        let frame = ps.frame_for(5, &payload);
        let again = ps.frame_for(5, &payload);
        assert_eq!(frame.as_ptr(), again.as_ptr(), "second encode of a fan-out");
        let retagged = ps.frame_for(6, &payload);
        assert_ne!(
            frame.as_ptr(),
            retagged.as_ptr(),
            "a new tag is a new frame"
        );
        drop((frame, again, retagged));

        // (tag, what must arrive), in send order on every link
        let second = values(2);
        let mut sent = vec![
            (5, bits(&first)),
            (6, bits(&first)),  // same buffer, new tag
            (6, bits(&second)), // new buffer, same tag
        ];
        for (tag, buffer) in [(5, &first), (6, &first), (6, &second)] {
            for to in 0..W {
                ps.send(to, tag, Payload::SharedParams(Arc::clone(buffer)))
                    .unwrap();
            }
        }
        // a buffer allocated after the last one sent was released by its
        // owner: the endpoint still holds that one, so its address cannot
        // come back and vouch for the old bytes
        drop(second);
        let third = values(3);
        sent.push((6, bits(&third)));
        for to in 0..W {
            ps.send(to, 6, Payload::SharedParams(Arc::clone(&third)))
                .unwrap();
        }

        let frame_bytes = payload.wire_bytes();
        assert_eq!(ps.stats().total_messages(), (sent.len() * W) as u64);
        assert_eq!(
            ps.stats().total_bytes(),
            (sent.len() * W) as u64 * frame_bytes
        );
        for mut peer in eps {
            for (tag, want) in &sent {
                let m = peer.recv_tagged(Some(W), *tag).unwrap();
                match m.payload {
                    Payload::Params(got) => assert_eq!(&bits(&got), want, "tag {tag}"),
                    other => panic!("SharedParams must decode as Params, got {other:?}"),
                }
            }
            peer.close();
        }
        ps.close();
    }

    /// Mixed protocol versions must fail the connect, fast and typed:
    /// the dialer gets an `InvalidData` error wrapping
    /// `FrameError::VersionMismatch`, not a hang or a garbled fabric —
    /// and the failed connect leaves nothing behind holding its port.
    fn mixed_versions_fail_the_connect_handshake<D: Driver>() {
        let (raw, l0, mut config) = raw_peer_fabric();
        let l0_addr = l0.local_addr().unwrap();
        config.connect_timeout = Duration::from_secs(5);
        let future_peer = thread::spawn(move || {
            let (mut s, _) = raw.accept().unwrap();
            let mut preamble = [0u8; HANDSHAKE_BYTES];
            s.read_exact(&mut preamble).unwrap();
            // echo a preamble from one protocol version ahead
            let mut echo = encode_handshake();
            echo[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_be_bytes());
            s.write_all(&echo).unwrap();
            s
        });
        let err = match MeshEndpoint::<D>::connect_with_listener(config, l0) {
            Err(e) => e,
            Ok(_) => panic!("connect accepted a mismatched protocol version"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameError>())
            .expect("typed FrameError inside the io::Error");
        assert_eq!(
            *inner,
            FrameError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 1,
            }
        );
        drop(future_peer.join().unwrap());
        // a plain bind, no SO_REUSEADDR: it succeeds only if the driver
        // that held the listener was stopped, not leaked
        TcpListener::bind(l0_addr).expect("the failed connect released its listen port");
    }
}
