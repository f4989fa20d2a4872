//! Worker-side client for the **elastic parameter-server group** — the
//! only elastic PS client there is.
//!
//! An elastic PS group splits the flat parameter vector into K
//! contiguous ranges ([`crate::elastic::shard_starts`]) and runs one
//! elastic server per range; the default deployment is the K = 1 group,
//! one server owning the whole vector. [`ShardedPsClient`] is the
//! worker's view of the group: it splits every push into K
//! [`Payload::ShardPush`] sub-frames, fans them out to the K shard ranks
//! back-to-back (all K requests are in flight concurrently — the
//! congested `model_bytes × N` single-socket ingress of one server
//! becomes K parallel `model_bytes × N / K` streams), then collects the
//! K [`Payload::ShardPull`] replies in whatever order they arrive and
//! reassembles the full vector.
//!
//! Heartbeats fan out the same way: every shard tracks worker liveness
//! independently, so each can evict dead workers and keep its range
//! moving even while a sibling shard is down. Membership decisions are
//! pure functions of the observed flags history and `max_missed`, so
//! shards fed identical traffic reach identical verdicts; shard 0's
//! status vector is used as the authoritative membership for dataset
//! re-partitioning, and a `DEAD` verdict from *any* shard is treated as
//! an eviction (the worker stops heartbeating everywhere, so the
//! remaining shards converge on the same verdict within `max_missed`
//! rounds).
//!
//! Failover is per shard: each shard has its own resend budget, capped
//! redial backoff, and (at most one) switch to that shard's hot standby
//! — one shard crashing and recovering never stalls traffic to the
//! other K−1.
//!
//! ## Byte accounting
//!
//! Sub-frame bodies are deliberately Params-shaped (`u32 count` +
//! values), so the fan-out moves exactly the monolithic payload bytes
//! plus `(K−1) × (FRAME_HEADER_BYTES + 4 + FRAME_CRC_BYTES)` of
//! per-frame framing — see
//! [`monolithic_push_wire_bytes`]/[`fanout_push_wire_bytes`]. At K = 1
//! a push is one frame of exactly the `Params` size.
//! Per-shard [`CommStats`] instances record every sub-frame, so the
//! accounting is auditable per shard as well as in total.

use crate::collectives::{phase_tag, FLAGS_PHASE};
use crate::elastic::{SHARD_MAP_TAG, STATUS_DEAD, SYNC_PHASE};
use crate::error::TransportError;
use crate::fabric::{FlatVec, Payload, ShardSpec, FRAME_CRC_BYTES, FRAME_HEADER_BYTES};
use crate::ps::CTRL_SHUTDOWN;
use crate::stats::CommStats;
use crate::transport::Transport;
use std::time::{Duration, Instant};

/// Exact wire bytes of a one-frame parameter push (or pull reply) of
/// `len` floats: frame header + `u32 count` + the values + CRC trailer.
pub fn monolithic_push_wire_bytes(len: usize) -> u64 {
    FRAME_HEADER_BYTES + 4 + 4 * len as u64 + FRAME_CRC_BYTES
}

/// Exact wire bytes of the same push split into `k` sub-frames: the
/// payload bytes are conserved, each extra frame costs exactly one
/// header + one `u32` count prefix + one CRC trailer.
pub fn fanout_push_wire_bytes(len: usize, k: usize) -> u64 {
    monolithic_push_wire_bytes(len) + (k as u64 - 1) * (FRAME_HEADER_BYTES + 4 + FRAME_CRC_BYTES)
}

/// Timeouts and retry budget for the client's per-shard failover.
#[derive(Debug, Clone)]
pub struct ShardClientConfig {
    /// Wait for any outstanding shard reply before resending.
    pub reply_timeout: Duration,
    /// Resend attempts per shard after a reply timeout.
    pub comm_retries: u32,
    /// Per-shard budget for re-reaching a silent or unreachable shard
    /// before failing over to its standby (or giving up without one).
    /// Failover fires at the first reply timeout by which the shard has
    /// been resent `comm_retries` times *and* `ps_patience` has passed,
    /// so a dead shard stalls the exchange for
    /// [`ShardClientConfig::failover_stall`], which can be well past
    /// `ps_patience`.
    pub ps_patience: Duration,
    /// `Some(B)` ships each shard's push as B-value [`Payload::Bucket`]
    /// frames instead of one [`Payload::ShardPush`]; the shard server
    /// reassembles them by index, so retries (which resend the whole
    /// per-shard set) stay idempotent. `None` keeps the single
    /// sub-frame.
    pub bucket: Option<usize>,
}

impl Default for ShardClientConfig {
    fn default() -> Self {
        ShardClientConfig {
            reply_timeout: Duration::from_secs(2),
            comm_retries: 3,
            ps_patience: Duration::from_secs(6),
            bucket: None,
        }
    }
}

/// The pause after a failed resend to an unreachable shard, doubling per
/// pause up to [`MAX_REDIAL_BACKOFF`].
const FIRST_REDIAL_BACKOFF: Duration = Duration::from_millis(50);
const MAX_REDIAL_BACKOFF: Duration = Duration::from_secs(1);

impl ShardClientConfig {
    /// The longest one fan-out exchange stalls on a dead shard before it
    /// fails over to that shard's standby (or gives up without one).
    /// `fanout_exchange` fails over at the first reply timeout by which
    /// the shard has been resent `comm_retries` times and `ps_patience`
    /// has passed, and each resend to an unreachable shard is followed
    /// by a redial pause; this replays that schedule. A sibling shard
    /// must hear nothing from the stalled worker for this long (plus the
    /// standby's promotion) without reading it as worker death.
    pub fn failover_stall(&self) -> Duration {
        let mut stall = Duration::ZERO;
        let mut backoff = FIRST_REDIAL_BACKOFF;
        for timeouts in 1u64.. {
            stall += self.reply_timeout;
            if timeouts > u64::from(self.comm_retries) && stall >= self.ps_patience {
                break;
            }
            stall += backoff;
            backoff = (backoff * 2).min(MAX_REDIAL_BACKOFF);
        }
        stall
    }
}

/// One shard's current target and failover state.
#[derive(Debug)]
struct ShardLink {
    /// Rank currently serving this shard (primary, or standby after a
    /// failover).
    server: usize,
    /// This shard's hot standby, consumed by at most one failover.
    standby: Option<usize>,
    /// Ranks that may answer for this shard (primary + standby), for
    /// mapping reply senders back to shard indices.
    answers_for: Vec<usize>,
}

/// The worker's client onto a K-shard PS group. See the module docs.
pub struct ShardedPsClient {
    /// This worker's rank, which is its index into status vectors.
    me: usize,
    /// The agreed partition map.
    spec: ShardSpec,
    links: Vec<ShardLink>,
    cfg: ShardClientConfig,
    /// Per-shard sent/received wire-byte tallies.
    stats: Vec<CommStats>,
    /// Reassembly buffer for pulls, reused across syncs.
    assembled: Vec<f32>,
}

impl ShardedPsClient {
    /// Build a client for `spec` where shard `i` is served by rank
    /// `shard_ranks[i]` (standby at `standby_ranks[i]`, when present).
    ///
    /// # Panics
    /// Panics if the rank lists disagree with the map's shard count — a
    /// layout bug, not a runtime fault.
    pub fn new(
        me: usize,
        spec: ShardSpec,
        shard_ranks: &[usize],
        standby_ranks: Option<&[usize]>,
        cfg: ShardClientConfig,
    ) -> Self {
        let k = spec.starts.len();
        assert_eq!(shard_ranks.len(), k, "one serving rank per shard");
        if let Some(sb) = standby_ranks {
            assert_eq!(sb.len(), k, "one standby rank per shard");
        }
        let links = (0..k)
            .map(|s| {
                let standby = standby_ranks.map(|sb| sb[s]);
                let mut answers_for = vec![shard_ranks[s]];
                answers_for.extend(standby);
                ShardLink {
                    server: shard_ranks[s],
                    standby,
                    answers_for,
                }
            })
            .collect();
        let stats = (0..k).map(|_| CommStats::default()).collect();
        ShardedPsClient {
            me,
            spec,
            links,
            cfg,
            stats,
            assembled: Vec::new(),
        }
    }

    /// Number of shards in the group.
    pub fn k(&self) -> usize {
        self.links.len()
    }

    /// This worker's rank (its index in status vectors).
    pub fn me(&self) -> usize {
        self.me
    }

    /// The agreed partition map.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Sent/received wire-byte tallies for shard `s`.
    pub fn shard_stats(&self, s: usize) -> &CommStats {
        &self.stats[s]
    }

    /// Total wire bytes this client pushed across all shards.
    pub fn total_sent_bytes(&self) -> u64 {
        self.stats.iter().map(CommStats::total_bytes).sum()
    }

    /// Shard `s`'s flat-vector range under the agreed map.
    fn range(&self, s: usize) -> (usize, usize) {
        let start = self.spec.starts[s] as usize;
        let end = self
            .spec
            .starts
            .get(s + 1)
            .map_or(self.spec.total as usize, |&e| e as usize);
        (start, end)
    }

    /// Which shard a reply sender answers for, if any.
    fn shard_of(&self, from: usize) -> Option<usize> {
        self.links
            .iter()
            .position(|l| l.answers_for.contains(&from))
    }

    /// Best-effort send of one sub-frame, tallied per shard. A send
    /// failure (shard crashed) is not an error here: the shard stays
    /// outstanding and the timeout path retries or fails it over.
    fn send_shard<T: Transport>(&self, ep: &mut T, s: usize, tag: u64, payload: Payload) -> bool {
        let bytes = payload.wire_bytes();
        match ep.send(self.links[s].server, tag, payload) {
            Ok(()) => {
                self.stats[s].record(bytes);
                true
            }
            Err(_) => false,
        }
    }

    /// Best-effort send of one shard's whole request (one frame, or a
    /// bucket set). A partial set on the wire is fine: the retry path
    /// resends the full set and the server's assembler overwrites.
    fn send_shard_all<T: Transport>(
        &self,
        ep: &mut T,
        s: usize,
        tag: u64,
        payloads: Vec<Payload>,
    ) -> bool {
        let mut ok = true;
        for p in payloads {
            ok &= self.send_shard(ep, s, tag, p);
        }
        ok
    }

    /// Fan one request out to every shard and collect one reply from
    /// each, resending and failing over per shard as needed. `mk` builds
    /// shard `s`'s request frames (one payload, or a bucket set);
    /// replies are returned indexed by shard.
    fn fanout_exchange<T: Transport>(
        &mut self,
        ep: &mut T,
        tag: u64,
        mk: impl Fn(&Self, usize) -> Vec<Payload>,
    ) -> Result<Vec<Payload>, TransportError> {
        let k = self.k();
        let mut replies: Vec<Option<Payload>> = (0..k).map(|_| None).collect();
        let mut outstanding: Vec<bool> = vec![true; k];
        let mut attempts = vec![0u32; k];
        let mut backoff = FIRST_REDIAL_BACKOFF;
        let deadline = Instant::now() + self.cfg.ps_patience;
        for s in 0..k {
            self.send_shard_all(ep, s, tag, mk(self, s));
        }
        while outstanding.iter().any(|&o| o) {
            match ep.recv_deadline(None, Some(tag), self.cfg.reply_timeout) {
                Ok(m) => {
                    if let Some(s) = self.shard_of(m.from) {
                        if outstanding[s] {
                            outstanding[s] = false;
                            self.stats[s].record_recv(m.payload.wire_bytes());
                            replies[s] = Some(m.payload);
                        }
                        // a duplicate reply after a resend: drop it
                    }
                }
                Err(TransportError::RecvTimeout { .. }) => {
                    let spent = attempts
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| outstanding[s])
                        .all(|(_, &a)| a >= self.cfg.comm_retries);
                    let past_patience = Instant::now() >= deadline;
                    for s in 0..k {
                        if !outstanding[s] {
                            continue;
                        }
                        attempts[s] += 1;
                        if spent && past_patience {
                            // the resend budget is gone: fail over to
                            // this shard's standby (once), or give up
                            match self.links[s].standby.take() {
                                Some(sb) => {
                                    self.links[s].server = sb;
                                    attempts[s] = 0;
                                }
                                None => {
                                    return Err(TransportError::RecvTimeout {
                                        rank: ep.id(),
                                        waited: self.cfg.ps_patience,
                                        buffered: 0,
                                    });
                                }
                            }
                        }
                        if !self.send_shard_all(ep, s, tag, mk(self, s)) {
                            // unreachable target: pace the redials
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(MAX_REDIAL_BACKOFF);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // lint:allow(unwrap-in-prod): the loop above only exits once every
        // shard's reply slot is filled
        Ok(replies.into_iter().map(|r| r.unwrap()).collect())
    }

    /// Prove map agreement with every shard: send our map, require each
    /// server to echo an identical one.
    ///
    /// # Errors
    /// [`TransportError::Protocol`] on any mismatch — no parameter
    /// traffic may flow under a disputed partition.
    pub fn handshake<T: Transport>(&mut self, ep: &mut T) -> Result<(), TransportError> {
        let replies = self.fanout_exchange(ep, SHARD_MAP_TAG, |c, _| {
            vec![Payload::ShardMap(c.spec.clone())]
        })?;
        for (s, r) in replies.into_iter().enumerate() {
            match r {
                Payload::ShardMap(theirs) if theirs == self.spec => {}
                Payload::ShardMap(theirs) => {
                    return Err(TransportError::Protocol(format!(
                        "shard {s} disagrees on the partition map: \
                         ours {:?}, theirs {:?}",
                        self.spec, theirs
                    )));
                }
                p => {
                    return Err(TransportError::Protocol(format!(
                        "shard {s} answered the map handshake with {p:?}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// One heartbeat/flags round against every shard. Returns shard 0's
    /// status vector (the authoritative membership for re-partitioning).
    ///
    /// # Errors
    /// [`TransportError::Evicted`] if *any* shard reports this rank
    /// dead; transport faults otherwise.
    pub fn heartbeat<T: Transport>(
        &mut self,
        ep: &mut T,
        step: u64,
        my_bit: u8,
    ) -> Result<Vec<u8>, TransportError> {
        let tag = phase_tag(step, FLAGS_PHASE);
        let replies = self.fanout_exchange(ep, tag, |_, _| vec![Payload::Flags(vec![my_bit])])?;
        let me = self.me;
        let mut first: Option<Vec<u8>> = None;
        for (s, r) in replies.into_iter().enumerate() {
            match r {
                Payload::Flags(status) => {
                    if status.get(me).copied().unwrap_or(STATUS_DEAD) == STATUS_DEAD {
                        return Err(TransportError::Evicted { rank: me });
                    }
                    if first.is_none() {
                        first = Some(status);
                    }
                }
                p => {
                    return Err(TransportError::Protocol(format!(
                        "shard {s} heartbeat reply was {p:?}, expected Flags"
                    )));
                }
            }
        }
        // lint:allow(unwrap-in-prod): k >= 1 is asserted at construction,
        // so at least one reply filled `first`
        Ok(first.unwrap())
    }

    /// One sharded sync round: split `params` along the map, push each
    /// range to its shard concurrently, reassemble the K averaged
    /// ranges into the full global vector.
    ///
    /// # Errors
    /// [`TransportError::Protocol`] on a reply of the wrong variant or
    /// length; transport faults otherwise.
    pub fn sync<T: Transport>(
        &mut self,
        ep: &mut T,
        step: u64,
        params: &[f32],
    ) -> Result<FlatVec, TransportError> {
        assert_eq!(
            params.len() as u64,
            self.spec.total,
            "pushed vector must match the agreed map"
        );
        let tag = phase_tag(step, SYNC_PHASE);
        let replies = self.fanout_exchange(ep, tag, |c, s| {
            let (start, end) = c.range(s);
            match c.cfg.bucket {
                Some(b) => crate::bucket::bucket_payloads(&params[start..end], b),
                None => vec![Payload::ShardPush(params[start..end].to_vec())],
            }
        })?;
        let mut assembled = std::mem::take(&mut self.assembled);
        assembled.clear();
        assembled.resize(params.len(), 0.0);
        for (s, r) in replies.into_iter().enumerate() {
            let (start, end) = self.range(s);
            match r {
                Payload::ShardPull(v) if v.len() == end - start => {
                    assembled[start..end].copy_from_slice(&v);
                }
                Payload::ShardPull(v) => {
                    return Err(TransportError::Protocol(format!(
                        "shard {s} pull reply had {} values, its range holds {}",
                        v.len(),
                        end - start
                    )));
                }
                p => {
                    return Err(TransportError::Protocol(format!(
                        "shard {s} sync reply was {p:?}, expected ShardPull"
                    )));
                }
            }
        }
        // hand the assembled buffer out; the next sync starts from an
        // empty one and re-grows it (allocation-free once both are warm)
        let out = FlatVec::Owned(assembled);
        Ok(out)
    }

    /// Enable or disable bucketed pushes after construction.
    pub fn set_bucket(&mut self, bucket: Option<usize>) {
        self.cfg.bucket = bucket;
    }

    /// Tell every shard this worker is finished (fire-and-forget).
    pub fn shutdown<T: Transport>(&mut self, ep: &mut T, step: u64) {
        let tag = phase_tag(step, FLAGS_PHASE);
        for s in 0..self.k() {
            self.send_shard(ep, s, tag, Payload::Control(CTRL_SHUTDOWN));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::shard_starts;

    fn spec(total: u64, k: usize) -> ShardSpec {
        ShardSpec {
            version: 1,
            total,
            starts: shard_starts(total, k),
        }
    }

    #[test]
    fn fanout_byte_accounting_is_exact() {
        for len in [0usize, 1, 7, 1000] {
            for k in [1usize, 2, 4] {
                let mono = monolithic_push_wire_bytes(len);
                let fan = fanout_push_wire_bytes(len, k);
                // payload bytes conserved; overhead is exactly one extra
                // header + count prefix + CRC trailer per extra frame
                assert_eq!(
                    fan,
                    mono + (k as u64 - 1) * (FRAME_HEADER_BYTES + 4 + FRAME_CRC_BYTES)
                );
                if k == 1 {
                    assert_eq!(fan, mono, "K=1 must be byte-identical");
                }
            }
        }
    }

    #[test]
    fn sub_frame_sum_matches_accounting_formula() {
        // the analytic formula must equal real frames summed over shards
        let total = 103usize;
        for k in [1usize, 2, 4] {
            let s = spec(total as u64, k);
            let params = vec![1.0f32; total];
            let mut sum = 0u64;
            for i in 0..k {
                let start = s.starts[i] as usize;
                let end = s.starts.get(i + 1).map_or(total, |&e| e as usize);
                sum += Payload::ShardPush(params[start..end].to_vec()).wire_bytes();
            }
            assert_eq!(sum, fanout_push_wire_bytes(total, k));
        }
    }

    #[test]
    fn failover_stall_replays_the_exchange_schedule() {
        let cfg = |reply_ms, comm_retries, patience_ms| ShardClientConfig {
            reply_timeout: Duration::from_millis(reply_ms),
            comm_retries,
            ps_patience: Duration::from_millis(patience_ms),
            bucket: None,
        };
        // retries bind: four 500 ms timeouts and the three redial pauses
        // between them (50 + 100 + 200 ms), although patience is 1.5 s
        assert_eq!(
            cfg(500, 3, 1500).failover_stall(),
            Duration::from_millis(2350)
        );
        // patience binds: timeouts at 100, 250, 450, 750 and 1250 ms,
        // the pauses doubling from 50 ms
        assert_eq!(
            cfg(100, 1, 1000).failover_stall(),
            Duration::from_millis(1250)
        );
        // no retries, no patience: the first timeout fails over
        assert_eq!(cfg(300, 0, 0).failover_stall(), Duration::from_millis(300));
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for (total, k) in [(10u64, 4usize), (4, 4), (1, 2), (100, 3), (0, 2)] {
            let s = spec(total, k);
            let mut covered = 0u64;
            for i in 0..k {
                let start = s.starts[i];
                let end = s.starts.get(i + 1).copied().unwrap_or(total);
                assert!(start <= end);
                covered += end - start;
            }
            assert_eq!(covered, total, "ranges partition [0, {total})");
        }
    }
}
