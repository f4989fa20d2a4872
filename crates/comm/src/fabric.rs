//! The message-passing fabric: a fully-connected set of endpoints over
//! crossbeam channels, with tagged receive and byte accounting.

use crate::error::TransportError;
use crate::stats::CommStats;
use crate::wire::wire_schema;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

wire_schema! {
    /// A message payload, declared as the wire schema (see [`crate::wire`]):
    /// each entry is a kind's number, its `KIND_*` name, its variant and
    /// its fields in wire order. Sizes are accounted as fp32/byte counts
    /// so the [`CommStats`] totals mirror what a wire transport would move.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Payload {
        /// A flat parameter vector (pushToPS / pullFromPS of Alg. 1).
        0 KIND_PARAMS => Params(values: [f32])
        /// A flat parameter vector broadcast to several receivers from one
        /// shared allocation: cloning the payload bumps the `Arc`, so an
        /// N-worker fan-out costs O(1) model copies instead of O(N).
        /// Wire-identical to [`Payload::Params`] — the codec emits the same
        /// frame kind and the byte accounting matches exactly.
        | SharedParams(Arc<Vec<f32>>),
        /// A flat gradient vector (gradient-aggregation mode).
        1 KIND_GRADS => Grads(values: [f32]),
        /// Synchronization-status bits, one per worker (Alg. 1 line 12).
        2 KIND_FLAGS => Flags(flags: [u8]),
        /// Raw training samples for data injection (§III-E).
        3 KIND_SAMPLES => Samples {
            /// Flattened sample features.
            data: [f32],
            /// Class targets, one per sample.
            targets: [usize],
            /// Per-sample feature dimensions (e.g. `[3, 8, 8]`).
            dims: [usize],
        },
        /// Small control message (requests, acks, shutdown).
        4 KIND_CONTROL => Control(code: u64),
        /// Inference request: one or more samples flattened back-to-back,
        /// each of shape `dims` (serving tier, `selsync-serve`). The number
        /// of rows is `data.len() / dims.iter().product()`.
        5 KIND_PREDICT => Predict {
            /// Flattened sample features, row-major, rows back-to-back.
            data: [f32],
            /// Per-sample feature dimensions (e.g. `[16]` or `[3, 8, 8]`).
            dims: [usize],
        },
        /// Inference reply: logits rows back-to-back, `classes` per row.
        6 KIND_LOGITS => Logits {
            /// Flattened logits, `rows × classes` values.
            rows: [f32],
            /// Logits per row (the model's class count).
            classes: usize,
        },
        /// The range-partition map of the flat parameter vector across a
        /// sharded PS group (`crates/shard`). Carried on the wire so every
        /// rank can prove it agrees with its peers before any sub-frame
        /// traffic flows — a silent partition mismatch would scatter
        /// parameters across the wrong servers.
        7 KIND_SHARD_MAP => ShardMap(ShardSpec { version: u64, total: u64, starts: [u64] }),
        /// A worker's parameter push restricted to one shard's range. Body
        /// layout is identical to [`Payload::Params`] (count + values):
        /// the shard index is implied by the destination rank and the
        /// range by the agreed [`Payload::ShardMap`], so at `K = 1` the
        /// sharded path moves exactly as many bytes as the monolithic one.
        8 KIND_SHARD_PUSH => ShardPush(values: [f32]),
        /// A shard server's reply carrying its updated range. Body layout
        /// is identical to [`Payload::Params`], mirroring [`Payload::ShardPush`].
        9 KIND_SHARD_PULL => ShardPull(values: [f32]),
        /// One fixed-size chunk of a flat `f32` vector, shipped the moment
        /// its values are final so communication overlaps the rest of the
        /// step (DDP-style gradient bucketing). `bucket` is the chunk index
        /// — bucket `i` covers flat range `[i·B, i·B + values.len())` for
        /// the sender's bucket size `B` — and `n_buckets` the total chunk
        /// count of the vector being shipped. Receivers reassemble strictly
        /// by index ([`BucketAssembler`](crate::BucketAssembler)), so
        /// arrival order can never change the reduction order.
        10 KIND_BUCKET => Bucket {
            /// Chunk index within the flat vector (0-based).
            bucket: u32,
            /// Total chunks the sender will ship for this vector.
            n_buckets: u32,
            /// The chunk's values.
            values: [f32],
        },
        /// Top-k sparse gradient: `len` is the dense vector length, and
        /// `indices`/`values` are parallel sections of the surviving
        /// coordinates (indices ascending). Wire twin of
        /// `core::compression::SparseGrad`.
        11 KIND_SPARSE_GRAD => SparseGrad {
            /// Dense length of the gradient this sparsifies.
            len: u32,
            /// Flat indices of the kept coordinates, ascending.
            indices: [u32],
            /// Values at those indices.
            values: [f32],
        },
        /// 1-bit sign-compressed gradient: bit `i` of the little-endian
        /// bitmap gives the sign of coordinate `i` (1 ⇒ `+scale`, 0 ⇒
        /// `-scale`). Wire twin of `core::compression::SignGrad`.
        12 KIND_SIGN_GRAD => SignGrad {
            /// Dense length of the gradient (bits beyond `len` are padding).
            len: u32,
            /// Magnitude applied to every coordinate.
            scale: f32,
            /// Sign bitmap, `ceil(len / 8)` bytes.
            bits: [u8],
        },
        /// Low-rank factor pair: the dense `rows × cols` gradient matrix is
        /// `P · Qᵀ` with `P` of shape `rows × rank` and `Q` of shape
        /// `cols × rank`, both row-major. Wire form of a PowerSGD step.
        13 KIND_LOW_RANK => LowRank {
            /// Rows of the dense matrix.
            rows: u32,
            /// Columns of the dense matrix.
            cols: u32,
            /// Factor rank.
            rank: u32,
            /// Left factor, `rows × rank` row-major.
            p: [f32],
            /// Right factor, `cols × rank` row-major.
            q: [f32],
        },
    }
}

/// Wire form of the shard partition map: `starts[i]` is the first flat
/// parameter index owned by shard `i`, `total` is one past the last.
/// `version` counts map revisions so a stale map is detectable (the
/// initial map is version 1). The rich, validated view with range
/// arithmetic lives in `selsync-shard`; this type is deliberately dumb
/// data so the wire layer stays free of partition policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Map revision (1 = initial).
    pub version: u64,
    /// Flat parameter vector length the map partitions.
    pub total: u64,
    /// First owned index per shard, ascending, `starts.len()` = K.
    pub starts: Vec<u64>,
}

/// Bytes every encoded frame spends before the payload body:
/// `u32` frame length + `u32` sender id + `u64` tag + `u8` payload kind.
pub const FRAME_HEADER_BYTES: u64 = 4 + 4 + 8 + 1;

/// Bytes every encoded frame spends after the payload body: a `u32`
/// CRC-32 trailer covering everything after the length prefix. The
/// in-process fabric never computes the checksum, but it accounts for
/// the trailer so channel and TCP byte totals stay bit-identical.
pub const FRAME_CRC_BYTES: u64 = 4;

impl Payload {
    /// Exact bytes this payload occupies on the wire, header and CRC
    /// trailer included — the unit every [`CommStats`] counter is
    /// denominated in.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_HEADER_BYTES + self.body_bytes() + FRAME_CRC_BYTES
    }
}

/// A received flat `f32` vector: exclusively owned, or a view of a
/// buffer shared with the other receivers of the same broadcast.
/// Derefs to `[f32]` — read-only consumers (e.g. `set_flat_params`)
/// never copy; call [`FlatVec::into_vec`] only when ownership is
/// genuinely needed.
#[derive(Debug, Clone)]
pub enum FlatVec {
    /// Exclusively owned (arrived as `Params`/`Grads`).
    Owned(Vec<f32>),
    /// Shared with the broadcast's other receivers (`SharedParams`).
    Shared(Arc<Vec<f32>>),
}

impl std::ops::Deref for FlatVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        match self {
            FlatVec::Owned(v) => v,
            FlatVec::Shared(a) => a,
        }
    }
}

impl FlatVec {
    /// Extract an owned vector, copying only if other receivers still
    /// hold the shared buffer.
    pub fn into_vec(self) -> Vec<f32> {
        match self {
            FlatVec::Owned(v) => v,
            FlatVec::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// An addressed, tagged message.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Sender endpoint id.
    pub from: usize,
    /// Application tag (usually the training step) separating rounds.
    pub tag: u64,
    /// The payload.
    pub payload: Payload,
}

impl Msg {
    /// Does this message match a receive filter? `None` is a wildcard.
    pub fn matches(&self, from: Option<usize>, tag: Option<u64>) -> bool {
        from.is_none_or(|f| self.from == f) && tag.is_none_or(|t| self.tag == t)
    }
}

/// One participant's handle on the fabric.
///
/// Endpoints are `Send` (moved into worker threads) but not `Sync`; each
/// thread owns exactly one.
pub struct Endpoint {
    id: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Messages received but not yet matched by a tagged receive.
    pending: VecDeque<Msg>,
    stats: Arc<CommStats>,
}

impl Endpoint {
    /// This endpoint's id (workers `0..n`, server `n` by convention).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of endpoints in the fabric (including this one).
    pub fn fabric_size(&self) -> usize {
        self.senders.len()
    }

    /// Shared byte/message counters.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Send `payload` to endpoint `to` with tag `tag`.
    ///
    /// # Errors
    /// [`TransportError::PeerUnreachable`] if `to`'s endpoint was
    /// dropped (the in-process equivalent of a crashed rank).
    ///
    /// # Panics
    /// Panics if `to` is out of range — an addressing bug, not a fault.
    pub fn send(&self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        assert!(to < self.senders.len(), "destination {to} out of range");
        let bytes = payload.wire_bytes();
        self.senders[to]
            .send(Msg {
                from: self.id,
                tag,
                payload,
            })
            .map_err(|_| TransportError::PeerUnreachable { peer: to })?;
        self.stats.record(bytes);
        Ok(())
    }

    /// Pull the next message off the channel, counting it as received.
    fn pull(&mut self, timeout: Option<Duration>) -> Result<Msg, TransportError> {
        let m = match timeout {
            None => self.receiver.recv().map_err(|_| TransportError::Closed)?,
            Some(t) => self.receiver.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::RecvTimeout {
                    rank: self.id,
                    waited: t,
                    buffered: self.pending.len(),
                },
                RecvTimeoutError::Disconnected => TransportError::Closed,
            })?,
        };
        self.stats.record_recv(m.payload.wire_bytes());
        Ok(m)
    }

    /// Blocking receive of the next message regardless of tag/sender.
    ///
    /// # Errors
    /// [`TransportError::Closed`] if every sender is gone.
    pub fn recv_any(&mut self) -> Result<Msg, TransportError> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(m);
        }
        self.pull(None)
    }

    /// Blocking receive of the next message matching `tag` (and `from`,
    /// if given). Non-matching messages are buffered, preserving order.
    ///
    /// # Errors
    /// [`TransportError::Closed`] if every sender is gone.
    pub fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        self.recv_filtered(from, Some(tag), None)
    }

    /// Blocking receive with a deadline: the next message matching
    /// `from`/`tag` (either may be a wildcard), or
    /// [`TransportError::RecvTimeout`] once `timeout` elapses without a
    /// match. Non-matching messages are buffered, preserving order.
    ///
    /// # Errors
    /// `RecvTimeout` on deadline, `Closed` if every sender is gone.
    pub fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        self.recv_filtered(from, tag, Some(timeout))
    }

    fn recv_filtered(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Option<Duration>,
    ) -> Result<Msg, TransportError> {
        // scan buffered messages first
        if let Some(pos) = self.pending.iter().position(|m| m.matches(from, tag)) {
            if let Some(m) = self.pending.remove(pos) {
                return Ok(m);
            }
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let remaining = match deadline {
                None => None,
                Some(d) => Some(d.checked_duration_since(Instant::now()).ok_or(
                    TransportError::RecvTimeout {
                        rank: self.id,
                        waited: timeout.unwrap_or_default(),
                        buffered: self.pending.len(),
                    },
                )?),
            };
            let m = self.pull(remaining)?;
            if m.matches(from, tag) {
                return Ok(m);
            }
            self.pending.push_back(m);
        }
    }

    /// Non-blocking receive of any message (buffered first).
    pub fn try_recv(&mut self) -> Option<Msg> {
        if let Some(m) = self.pending.pop_front() {
            return Some(m);
        }
        let m = self.receiver.try_recv().ok()?;
        self.stats.record_recv(m.payload.wire_bytes());
        Some(m)
    }
}

/// Construction of a fully-connected fabric.
pub struct Fabric;

impl Fabric {
    /// Create `n` endpoints, each able to send to every other (and to
    /// itself). Returned in id order; move each into its own thread.
    #[allow(clippy::new_ret_no_self)] // constructor of endpoints, not Fabric
    pub fn new(n: usize) -> Vec<Endpoint> {
        assert!(n > 0);
        let stats = Arc::new(CommStats::default());
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(id, receiver)| Endpoint {
                id,
                senders: senders.clone(),
                receiver,
                pending: VecDeque::new(),
                stats: Arc::clone(&stats),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 1, Payload::Control(42)).unwrap();
        let m = a.recv_any().unwrap();
        assert_eq!(m.from, 1);
        assert_eq!(m.tag, 1);
        assert_eq!(m.payload, Payload::Control(42));
    }

    #[test]
    fn tagged_receive_buffers_out_of_order() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 2, Payload::Control(2)).unwrap();
        b.send(0, 1, Payload::Control(1)).unwrap();
        // ask for tag 1 first: tag-2 message must be buffered, not lost
        let m1 = a.recv_tagged(None, 1).unwrap();
        assert_eq!(m1.payload, Payload::Control(1));
        let m2 = a.recv_tagged(Some(1), 2).unwrap();
        assert_eq!(m2.payload, Payload::Control(2));
    }

    #[test]
    fn wire_bytes_accounting() {
        // fixed per-frame overhead: header (17) + CRC trailer (4)
        const OH: u64 = 17 + 4;
        // overhead + u32 count + 4 bytes per f32
        assert_eq!(Payload::Params(vec![0.0; 10]).wire_bytes(), OH + 4 + 40);
        // overhead + u32 count + 1 byte per flag
        assert_eq!(Payload::Flags(vec![0; 16]).wire_bytes(), OH + 4 + 16);
        // overhead + u64 code
        assert_eq!(Payload::Control(0).wire_bytes(), OH + 8);
        // overhead + three length-prefixed sections
        let s = Payload::Samples {
            data: vec![0.0; 6],
            targets: vec![1, 2],
            dims: vec![3, 2],
        };
        assert_eq!(s.wire_bytes(), OH + (4 + 24) + (4 + 16) + (4 + 16));
        // overhead + f32 section + u64 dims section
        let p = Payload::Predict {
            data: vec![0.0; 8],
            dims: vec![2, 4],
        };
        assert_eq!(p.wire_bytes(), OH + (4 + 32) + (4 + 16));
        // overhead + f32 section + u64 class count
        let l = Payload::Logits {
            rows: vec![0.0; 6],
            classes: 3,
        };
        assert_eq!(l.wire_bytes(), OH + (4 + 24) + 8);
        // overhead + version + total + u32 count + 8 bytes per start
        let m = Payload::ShardMap(ShardSpec {
            version: 1,
            total: 100,
            starts: vec![0, 25, 50, 75],
        });
        assert_eq!(m.wire_bytes(), OH + 8 + 8 + (4 + 32));
        // shard push/pull bodies are byte-identical to Params of the
        // same length — the K=1 accounting-equivalence invariant
        assert_eq!(
            Payload::ShardPush(vec![0.0; 10]).wire_bytes(),
            Payload::Params(vec![0.0; 10]).wire_bytes()
        );
        assert_eq!(
            Payload::ShardPull(vec![0.0; 10]).wire_bytes(),
            Payload::Params(vec![0.0; 10]).wire_bytes()
        );
        // overhead + bucket index + total count + f32 section
        let b = Payload::Bucket {
            bucket: 2,
            n_buckets: 4,
            values: vec![0.0; 6],
        };
        assert_eq!(b.wire_bytes(), OH + 4 + 4 + (4 + 24));
        // overhead + dense len + u32 index section + f32 value section
        let sg = Payload::SparseGrad {
            len: 100,
            indices: vec![1, 7, 42],
            values: vec![0.5, -0.5, 2.0],
        };
        assert_eq!(sg.wire_bytes(), OH + 4 + (4 + 12) + (4 + 12));
        // a k-sparse frame beats dense f32 whenever 8k + 4 < 4n
        assert!(sg.wire_bytes() < Payload::Grads(vec![0.0; 100]).wire_bytes());
        // overhead + dense len + scale + byte section
        let sign = Payload::SignGrad {
            len: 16,
            scale: 0.25,
            bits: vec![0xAA, 0x55],
        };
        assert_eq!(sign.wire_bytes(), OH + 4 + 4 + (4 + 2));
        assert!(sign.wire_bytes() < Payload::Grads(vec![0.0; 16]).wire_bytes());
        // overhead + rows + cols + rank + two f32 factor sections
        let lr = Payload::LowRank {
            rows: 32,
            cols: 32,
            rank: 1,
            p: vec![0.0; 32],
            q: vec![0.0; 32],
        };
        assert_eq!(lr.wire_bytes(), OH + 4 + 4 + 4 + (4 + 128) + (4 + 128));
        // rank-1 factors of a 32×32 matrix beat the 1024-value dense frame
        assert!(lr.wire_bytes() < Payload::Grads(vec![0.0; 1024]).wire_bytes());
    }

    #[test]
    fn stats_shared_across_endpoints() {
        let mut eps = Fabric::new(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 0, Payload::Params(vec![0.0; 100])).unwrap();
        c.send(0, 0, Payload::Flags(vec![0; 3])).unwrap();
        let _ = a.recv_any().unwrap();
        let _ = a.recv_any().unwrap();
        // Params(100): 21 + 4 + 400; Flags(3): 21 + 4 + 3
        assert_eq!(a.stats().total_bytes(), 425 + 28);
        assert_eq!(a.stats().total_messages(), 2);
        // both deliveries were drained, so received mirrors sent
        assert_eq!(a.stats().recv_bytes(), 425 + 28);
        assert_eq!(a.stats().recv_messages(), 2);
    }

    #[test]
    fn cross_thread_round_trip() {
        let mut eps = Fabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let m = b.recv_tagged(Some(0), 7).unwrap();
            if let Payload::Params(v) = m.payload {
                b.send(0, 7, Payload::Params(v.iter().map(|x| x * 2.0).collect()))
                    .unwrap();
            }
        });
        a.send(1, 7, Payload::Params(vec![1.0, 2.0])).unwrap();
        let r = a.recv_tagged(Some(1), 7).unwrap();
        assert_eq!(r.payload, Payload::Params(vec![2.0, 4.0]));
        h.join().unwrap();
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mut eps = Fabric::new(1);
        let mut a = eps.pop().unwrap();
        assert!(a.try_recv().is_none());
        a.send(0, 0, Payload::Control(5)).unwrap(); // self-send is allowed
        assert!(a.try_recv().is_some());
    }

    #[test]
    fn send_to_dropped_endpoint_is_an_error_not_a_panic() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b); // rank 1 "crashes"
        let before = a.stats().total_messages();
        let err = a.send(1, 0, Payload::Control(1)).unwrap_err();
        assert_eq!(err, TransportError::PeerUnreachable { peer: 1 });
        // failed sends are not counted as traffic
        assert_eq!(a.stats().total_messages(), before);
    }

    #[test]
    fn recv_deadline_times_out_and_preserves_buffered() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 9, Payload::Control(9)).unwrap();
        let err = a
            .recv_deadline(None, Some(1), Duration::from_millis(50))
            .unwrap_err();
        match err {
            TransportError::RecvTimeout { rank, buffered, .. } => {
                assert_eq!(rank, 0);
                assert_eq!(buffered, 1, "the tag-9 message stays buffered");
            }
            other => panic!("expected RecvTimeout, got {other:?}"),
        }
        // the buffered message is still deliverable afterwards
        assert_eq!(
            a.recv_tagged(Some(1), 9).unwrap().payload,
            Payload::Control(9)
        );
    }
}
