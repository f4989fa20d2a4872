//! # selsync-chaos
//!
//! Deterministic fault injection for the SelSync communication fabric.
//!
//! A [`FaultPlan`] is a *seeded, declarative* chaos schedule: message
//! drops, duplicate deliveries, per-message delays, per-rank straggler
//! slowdowns, scheduled crashes, transient link partitions, and
//! byte-level wire damage (seeded bit flips and truncation). A
//! [`ChaosTransport`] wraps any [`Transport`] and applies the plan on
//! the send path.
//!
//! **Byte-level damage** is not simulated at the payload layer: a
//! corrupted or truncated message is encoded with the real
//! `selsync-net` codec, damaged, and fed back through the real
//! decoder. A damaged frame the CRC trailer (or length/section guards)
//! rejects is consumed like a drop and tallied as *corrupt*; in the
//! astronomically unlikely event the damage still decodes, whatever
//! decoded is what gets delivered — exactly the semantics of a real
//! link with a checksummed wire format.
//!
//! **Determinism.** Every per-message decision is a pure function of
//! `(seed, sender, receiver, link_sequence_number)` — a splitmix64 hash,
//! never wall-clock time or thread scheduling — so the same plan over
//! the same traffic produces the *identical* fault sequence, byte
//! counters, and fault log on every run, over both the in-process and
//! TCP fabrics. Partitions are expressed as link-sequence windows for
//! the same reason: the transport has no reliable notion of "training
//! step" (tag spaces differ between the PS and the collectives), but
//! the k-th message on a link is the k-th message on every run.
//!
//! **Crashes** are scheduled here ([`FaultPlan::crash_step`]) but
//! *enforced* by the worker loop (`selsync-core`), which exits at the
//! scheduled step — a transport cannot kill its owner.
//!
//! **Conservation.** The wrapper's [`CommStats`] counts every attempted
//! send, plus drop/duplicate/corrupt tallies, while the inner transport
//! counts what was actually forwarded, so chaos runs can assert
//! `sent − dropped − corrupt + duplicated = forwarded` exactly.

// The unsafe-outside-kernels invariant (selsync-lint), compiler-enforced:
// SIMD and socket code live in crates/tensor and crates/net only.
#![deny(unsafe_code)]

use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// A scheduled worker crash: the rank exits just before running `at_step`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crash {
    /// Rank that dies.
    pub rank: usize,
    /// Step at which it dies (before any step-`at_step` traffic).
    pub at_step: u64,
}

/// A scheduled parameter-server crash: the PS process dies at the start
/// of `at_step`'s round (or mid-sync, at the launcher's discretion) and
/// — when `restart_after_ms` is nonzero — is restarted from its last
/// durable checkpoint after that many milliseconds. With
/// `restart_after_ms == 0` the PS stays dead, which only makes sense
/// when a hot standby is configured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerCrash {
    /// Sync round at (or after) which the server dies.
    pub at_step: u64,
    /// Delay before the server restarts from its checkpoint; `0` means
    /// no restart (fail over to the standby instead).
    pub restart_after_ms: u64,
}

/// A straggler: every send by `rank` is preceded by a fixed delay,
/// modelling a uniformly slow worker (the paper's heterogeneous-cluster
/// scenario).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Straggler {
    /// Rank that is slow.
    pub rank: usize,
    /// Extra latency added to each of its sends, in milliseconds.
    pub delay_ms: u64,
}

/// A transient partition of one bidirectional link: messages whose
/// per-link sequence number falls in `[from_seq, to_seq)` are dropped
/// in both directions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One side of the link.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// First dropped sequence number (inclusive).
    pub from_seq: u64,
    /// First delivered sequence number after the partition (exclusive end).
    pub to_seq: u64,
}

/// A complete, seeded chaos schedule.
///
/// Serializes to/from JSON (`--fault-plan plan.json`). The vendored
/// serde derive does not interpret field attributes, so **every field
/// must be present** in a JSON plan; use the scenario constructors or
/// [`FaultPlan::quiet`] as a template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Per-message drop probability in `[0, 1]`.
    pub drop_prob: f64,
    /// Per-message duplicate-delivery probability in `[0, 1]`.
    pub duplicate_prob: f64,
    /// Upper bound for the per-message injected delay (uniform in
    /// `0..=delay_ms_max`, chosen by hash); `0` disables delays.
    pub delay_ms_max: u64,
    /// Per-message probability in `[0, 1]` that the *encoded bytes* of
    /// the frame take 1–4 seeded bit flips before decoding. The CRC
    /// trailer rejects essentially all of them, so a corrupted message
    /// is lost (and tallied as corrupt), not delivered wrong.
    pub corrupt_prob: f64,
    /// Per-message probability in `[0, 1]` that the encoded frame is
    /// cut short at a seeded byte boundary, modelling a torn stream.
    pub truncate_prob: f64,
    /// Uniformly slow ranks.
    pub stragglers: Vec<Straggler>,
    /// Scheduled crashes.
    pub crashes: Vec<Crash>,
    /// Transient link partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled parameter-server crash (at most one per run).
    pub server_crash: Option<ServerCrash>,
}

impl FaultPlan {
    /// A plan that injects nothing — the template every scenario edits.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_ms_max: 0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            stragglers: Vec::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
            server_crash: None,
        }
    }

    /// Scenario: the PS dies at sync round `at_step` and restarts from
    /// its checkpoint `restart_after_ms` later, nothing else.
    pub fn crash_server(seed: u64, at_step: u64, restart_after_ms: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.server_crash = Some(ServerCrash {
            at_step,
            restart_after_ms,
        });
        p
    }

    /// Scenario: `rank` crashes at `at_step`, nothing else.
    pub fn crash_one(seed: u64, rank: usize, at_step: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.crashes.push(Crash { rank, at_step });
        p
    }

    /// Scenario: serving replica `rank` crashes after answering
    /// `after_batches` batches, nothing else. Reuses the `crashes`
    /// schedule — the serving tier reads `at_step` as a served-batch
    /// count (`selsync-serve`'s `crash_after_batches`), the same way
    /// the training tier reads it as a step count.
    pub fn crash_replica(seed: u64, rank: usize, after_batches: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.crashes.push(Crash {
            rank,
            at_step: after_batches,
        });
        p
    }

    /// Scenario: `rank` is `delay_ms` slower per send, nothing else.
    pub fn slow_straggler(seed: u64, rank: usize, delay_ms: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.stragglers.push(Straggler { rank, delay_ms });
        p
    }

    /// Scenario (K ≥ 2 PS group): one shard server dies at sync round
    /// `at_step` and restarts from its own `FILE.s<shard>` checkpoint
    /// `restart_after_ms` later, while the sibling shards keep
    /// serving. The plan is given only to the dying shard's process —
    /// `server_crash` has no rank field; in a shard group "which
    /// server" is chosen by which process loads the plan.
    pub fn crash_one_shard(seed: u64, at_step: u64, restart_after_ms: u64) -> FaultPlan {
        FaultPlan::crash_server(seed, at_step, restart_after_ms)
    }

    /// Scenario (K ≥ 2 PS group): the shard server on rank `shard_rank`
    /// (`ShardLayout::shard_rank`, after the workers) answers every
    /// send `delay_ms` late — one slow shard skews the whole fan-out,
    /// since a worker's round completes only when the slowest shard
    /// replies. Give this plan to the slow shard's process.
    pub fn slow_shard(seed: u64, shard_rank: usize, delay_ms: u64) -> FaultPlan {
        FaultPlan::slow_straggler(seed, shard_rank, delay_ms)
    }

    /// Scenario: a dirty link that flips bits in (and occasionally
    /// tears) encoded frames on every link, nothing else. The wire
    /// CRC must convert every hit into a clean loss.
    pub fn corrupt_link(seed: u64, corrupt_prob: f64, truncate_prob: f64) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.corrupt_prob = corrupt_prob;
        p.truncate_prob = truncate_prob;
        p
    }

    /// Scenario: lossy, duplicating, jittery network on every link.
    pub fn flaky_network(
        seed: u64,
        drop_prob: f64,
        duplicate_prob: f64,
        delay_ms_max: u64,
    ) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.drop_prob = drop_prob;
        p.duplicate_prob = duplicate_prob;
        p.delay_ms_max = delay_ms_max;
        p
    }

    /// The step at which `rank` is scheduled to crash, if any.
    pub fn crash_step(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.rank == rank)
            .map(|c| c.at_step)
    }

    /// The per-send straggler delay for `rank`, if any.
    pub fn straggler_delay(&self, rank: usize) -> Option<Duration> {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map(|s| Duration::from_millis(s.delay_ms))
    }

    /// Is the `from ↔ to` link partitioned for sequence number `seq`?
    pub fn is_partitioned(&self, from: usize, to: usize, seq: u64) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == from && p.b == to) || (p.a == to && p.b == from))
                && (p.from_seq..p.to_seq).contains(&seq)
        })
    }

    /// The deterministic decision for the `seq`-th message `from → to`.
    pub fn decide(&self, from: usize, to: usize, seq: u64) -> FaultDecision {
        if self.is_partitioned(from, to, seq) {
            return FaultDecision {
                drop: Some(DropReason::Partition),
                damage: None,
                duplicate: false,
                delay: Duration::ZERO,
            };
        }
        if unit(link_hash(self.seed, from, to, seq, 0x0D0D)) < self.drop_prob {
            return FaultDecision {
                drop: Some(DropReason::Random),
                damage: None,
                duplicate: false,
                delay: Duration::ZERO,
            };
        }
        // byte-level damage preempts duplicate/delay: the frame is
        // (almost certainly) lost in the decoder, so layering more
        // faults on top would be unobservable anyway
        let damage = if unit(link_hash(self.seed, from, to, seq, SALT_CORRUPT)) < self.corrupt_prob
        {
            Some(WireDamage::Corrupt)
        } else if unit(link_hash(self.seed, from, to, seq, SALT_TRUNCATE)) < self.truncate_prob {
            Some(WireDamage::Truncate)
        } else {
            None
        };
        if damage.is_some() {
            return FaultDecision {
                drop: None,
                damage,
                duplicate: false,
                delay: Duration::ZERO,
            };
        }
        let duplicate = unit(link_hash(self.seed, from, to, seq, 0xD0B1)) < self.duplicate_prob;
        let delay = if self.delay_ms_max == 0 {
            Duration::ZERO
        } else {
            Duration::from_millis(
                link_hash(self.seed, from, to, seq, 0xDE1A) % (self.delay_ms_max + 1),
            )
        };
        FaultDecision {
            drop: None,
            damage: None,
            duplicate,
            delay,
        }
    }

    /// Parse a plan from JSON (all fields required).
    ///
    /// # Errors
    /// Returns the parser's message on malformed or incomplete JSON.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Serialize the plan as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }

    /// Load a plan from a JSON file.
    ///
    /// # Errors
    /// I/O or parse failures, as a message naming the path.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }
}

/// What [`FaultPlan::decide`] resolved for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDecision {
    /// `Some` if the message is discarded (and why).
    pub drop: Option<DropReason>,
    /// `Some` if the encoded bytes take seeded damage before decoding.
    pub damage: Option<WireDamage>,
    /// Deliver an extra copy.
    pub duplicate: bool,
    /// Sender-side delay before forwarding (preserves link FIFO order).
    pub delay: Duration,
}

/// The kind of byte-level damage applied to an encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WireDamage {
    /// 1–4 seeded bit flips anywhere in the frame.
    Corrupt,
    /// The frame is cut short at a seeded byte boundary.
    Truncate,
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DropReason {
    /// The link-sequence window of a [`Partition`] covered it.
    Partition,
    /// The seeded per-message drop probability fired.
    Random,
}

/// One injected fault, for the audit log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultEvent {
    /// Sender rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Per-link sequence number of the affected message.
    pub seq: u64,
    /// Message tag (step/phase), for readability of the log.
    pub tag: u64,
    /// What was done.
    pub action: FaultAction,
}

/// The action recorded in a [`FaultEvent`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultAction {
    /// Message discarded.
    Dropped(DropReason),
    /// Extra copy delivered.
    Duplicated,
    /// Delivery delayed by this many milliseconds.
    DelayedMs(u64),
    /// This many bit flips applied to the encoded frame.
    Corrupted(u64),
    /// Encoded frame truncated to this many bytes.
    TruncatedWire(u64),
}

/// Hash salts for the byte-damage decisions (drop/dup/delay use
/// 0x0D0D/0xD0B1/0xDE1A; these must differ from them and each other so
/// every fault kind draws independent randomness per message).
const SALT_CORRUPT: u64 = 0xC0DE;
const SALT_TRUNCATE: u64 = 0x7EA4;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn link_hash(seed: u64, from: usize, to: usize, seq: u64, salt: u64) -> u64 {
    let link = ((from as u64) << 32) | to as u64;
    splitmix64(seed ^ splitmix64(link) ^ splitmix64(seq.wrapping_add(salt)))
}

/// Map a hash to the unit interval with 53-bit precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Transport`] wrapper that injects the faults a [`FaultPlan`]
/// schedules. Receives pass through untouched; all injection happens on
/// the send path so each link stays FIFO and every decision is
/// attributable to the sending rank.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// Per-destination sequence counters (the determinism backbone).
    seq: Vec<u64>,
    /// Chaos-layer counters: resolved sends (fabric-accepted or eaten
    /// by chaos) + drop/duplicate/corrupt tallies.
    stats: Arc<CommStats>,
    log: Vec<FaultEvent>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> ChaosTransport<T> {
        let n = inner.fabric_size();
        ChaosTransport {
            inner,
            plan,
            seq: vec![0; n],
            stats: Arc::new(CommStats::default()),
            log: Vec::new(),
        }
    }

    /// The wrapped transport (e.g. to read its forwarded-traffic stats).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwrap, discarding the chaos layer.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The plan driving this wrapper.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every fault injected so far, in injection order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// FNV-1a fingerprint of the fault log — equal fingerprints mean an
    /// identical injected fault sequence (the determinism assertion).
    pub fn log_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in &self.log {
            eat(e.from as u64);
            eat(e.to as u64);
            eat(e.seq);
            eat(e.tag);
            eat(match &e.action {
                FaultAction::Dropped(DropReason::Partition) => 1,
                FaultAction::Dropped(DropReason::Random) => 2,
                FaultAction::Duplicated => 3,
                FaultAction::DelayedMs(ms) => 4 ^ (ms << 8),
                FaultAction::Corrupted(flips) => 5 ^ (flips << 8),
                FaultAction::TruncatedWire(cut) => 6 ^ (cut << 8),
            });
        }
        h
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn fabric_size(&self) -> usize {
        self.inner.fabric_size()
    }

    /// Chaos-layer counters: `record` = resolved sends (accepted by
    /// the inner fabric, or eaten by a drop/corruption), plus the
    /// drop/duplicate/corrupt tallies. The *forwarded* traffic is on
    /// [`inner`](Self::inner)`.stats()`.
    fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let from = self.inner.id();
        if let Some(d) = self.plan.straggler_delay(from) {
            std::thread::sleep(d);
        }
        let seq = self.seq[to];
        self.seq[to] += 1;
        let bytes = payload.wire_bytes();
        // `sent` counts messages the chaos layer *resolved*: eaten by a
        // drop/corruption, or accepted by the inner fabric. A send the
        // fabric rejects (dead peer) is counted on neither side — its
        // error propagates to the protocol layer instead — so the
        // conservation law `sent − dropped − corrupt + duplicated =
        // forwarded` holds exactly even while ranks are dying.
        let decision = self.plan.decide(from, to, seq);
        if let Some(reason) = decision.drop {
            self.stats.record(bytes);
            self.stats.record_drop(bytes);
            self.log.push(FaultEvent {
                from,
                to,
                seq,
                tag,
                action: FaultAction::Dropped(reason),
            });
            return Ok(()); // silently eaten, like a real lossy link
        }
        if let Some(damage) = decision.damage {
            // damage the *encoded bytes* and push them through the real
            // decoder, so corruption exercises the CRC trailer and the
            // section guards, not a payload-level shortcut
            let mut frame = selsync_net::encode_frame(from, tag, &payload).to_vec();
            let action = match damage {
                WireDamage::Corrupt => {
                    let flips =
                        1 + link_hash(self.plan.seed, from, to, seq, SALT_CORRUPT ^ 0x55) % 4;
                    for k in 0..flips {
                        let h = link_hash(
                            self.plan.seed,
                            from,
                            to,
                            seq,
                            SALT_CORRUPT.wrapping_add(0x100 + k),
                        );
                        let pos = (h % frame.len() as u64) as usize;
                        frame[pos] ^= 1 << ((h >> 32) & 7);
                    }
                    FaultAction::Corrupted(flips)
                }
                WireDamage::Truncate => {
                    let cut = link_hash(self.plan.seed, from, to, seq, SALT_TRUNCATE ^ 0x55)
                        % frame.len() as u64;
                    frame.truncate(cut as usize);
                    FaultAction::TruncatedWire(cut)
                }
            };
            self.log.push(FaultEvent {
                from,
                to,
                seq,
                tag,
                action,
            });
            return match selsync_net::decode_frame(&frame) {
                // essentially impossible past the CRC, but decode is
                // total: if the damage still parses, deliver what parsed
                Ok(msg) => {
                    let res = self.inner.send(to, msg.tag, msg.payload);
                    if res.is_ok() {
                        self.stats.record(bytes);
                    }
                    res
                }
                Err(_) => {
                    self.stats.record(bytes);
                    self.stats.record_corrupt(bytes);
                    Ok(()) // rejected by the wire check: lost, tallied
                }
            };
        }
        if !decision.delay.is_zero() {
            self.log.push(FaultEvent {
                from,
                to,
                seq,
                tag,
                action: FaultAction::DelayedMs(decision.delay.as_millis() as u64),
            });
            std::thread::sleep(decision.delay);
        }
        if decision.duplicate {
            self.inner.send(to, tag, payload.clone())?;
            self.stats.record_duplicate(bytes);
            self.log.push(FaultEvent {
                from,
                to,
                seq,
                tag,
                action: FaultAction::Duplicated,
            });
        }
        let res = self.inner.send(to, tag, payload);
        if res.is_ok() {
            self.stats.record(bytes);
        }
        res
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        self.inner.recv_any()
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        self.inner.recv_tagged(from, tag)
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        self.inner.recv_deadline(from, tag, timeout)
    }

    fn try_recv(&mut self) -> Option<Msg> {
        self.inner.try_recv()
    }

    fn recycle(&mut self, v: Vec<f32>) {
        self.inner.recycle(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_comm::Fabric;

    fn wrap_pair(
        plan: &FaultPlan,
    ) -> (
        ChaosTransport<selsync_comm::Endpoint>,
        ChaosTransport<selsync_comm::Endpoint>,
    ) {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (
            ChaosTransport::new(a, plan.clone()),
            ChaosTransport::new(b, plan.clone()),
        )
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (mut a, mut b) = wrap_pair(&FaultPlan::quiet(1));
        a.send(1, 7, Payload::Control(5)).unwrap();
        assert_eq!(
            b.recv_tagged(Some(0), 7).unwrap().payload,
            Payload::Control(5)
        );
        assert!(a.fault_log().is_empty());
        assert_eq!(a.stats().dropped_messages(), 0);
        assert_eq!(a.stats().total_messages(), 1);
    }

    #[test]
    fn decisions_are_deterministic_across_instances() {
        let plan = FaultPlan::flaky_network(42, 0.3, 0.2, 0);
        for from in 0..3 {
            for to in 0..3 {
                for seq in 0..200 {
                    assert_eq!(
                        plan.decide(from, to, seq),
                        plan.decide(from, to, seq),
                        "pure function of (seed, from, to, seq)"
                    );
                }
            }
        }
        // and a different seed gives a different schedule
        let other = FaultPlan::flaky_network(43, 0.3, 0.2, 0);
        let same = (0..200u64)
            .filter(|&s| plan.decide(0, 1, s) == other.decide(0, 1, s))
            .count();
        assert!(same < 200, "seeds must matter");
    }

    #[test]
    fn same_seed_same_traffic_same_fault_log() {
        let plan = FaultPlan::flaky_network(7, 0.25, 0.15, 0);
        let mut fingerprints = Vec::new();
        for _ in 0..2 {
            let (mut a, mut b) = wrap_pair(&plan);
            for i in 0..300u64 {
                a.send(1, i, Payload::Flags(vec![1])).unwrap();
            }
            // drain whatever survived
            while b.try_recv().is_some() {}
            fingerprints.push((
                a.log_fingerprint(),
                a.stats().dropped_messages(),
                a.stats().duplicated_messages(),
            ));
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert!(fingerprints[0].1 > 0, "drops actually happened");
        assert!(fingerprints[0].2 > 0, "duplicates actually happened");
    }

    #[test]
    fn conservation_sent_minus_dropped_plus_duplicated_is_forwarded() {
        let plan = FaultPlan::flaky_network(99, 0.2, 0.1, 0);
        let (mut a, mut b) = wrap_pair(&plan);
        for i in 0..500u64 {
            a.send(1, i, Payload::Params(vec![0.0; 3])).unwrap();
        }
        let sent = a.stats().total_messages();
        let dropped = a.stats().dropped_messages();
        let duplicated = a.stats().duplicated_messages();
        // the shared in-process fabric stats count forwarded messages
        let forwarded = a.inner().stats().total_messages();
        assert_eq!(sent - dropped + duplicated, forwarded);
        assert_eq!(sent, 500);
        // byte-level conservation too
        assert_eq!(
            a.stats().total_bytes() - a.stats().dropped_bytes() + a.stats().duplicated_bytes(),
            a.inner().stats().total_bytes()
        );
        // every forwarded message is receivable
        let mut got = 0;
        while b.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, forwarded);
    }

    #[test]
    fn partition_window_drops_exactly_its_range() {
        let mut plan = FaultPlan::quiet(3);
        plan.partitions.push(Partition {
            a: 0,
            b: 1,
            from_seq: 10,
            to_seq: 20,
        });
        let (mut a, mut b) = wrap_pair(&plan);
        for i in 0..30u64 {
            a.send(1, i, Payload::Control(i)).unwrap();
        }
        assert_eq!(a.stats().dropped_messages(), 10);
        let mut delivered = Vec::new();
        while let Some(m) = b.try_recv() {
            delivered.push(m.tag);
        }
        let expected: Vec<u64> = (0..10).chain(20..30).collect();
        assert_eq!(delivered, expected);
        // symmetric: the window also covers b -> a
        assert!(plan.is_partitioned(1, 0, 15));
        assert!(!plan.is_partitioned(1, 0, 25));
    }

    #[test]
    fn crash_and_straggler_lookups() {
        let plan = FaultPlan::crash_one(5, 2, 40);
        assert_eq!(plan.crash_step(2), Some(40));
        assert_eq!(plan.crash_step(0), None);
        let plan = FaultPlan::slow_straggler(5, 1, 25);
        assert_eq!(plan.straggler_delay(1), Some(Duration::from_millis(25)));
        assert_eq!(plan.straggler_delay(0), None);
    }

    #[test]
    fn crash_replica_schedules_a_served_batch_crash() {
        let plan = FaultPlan::crash_replica(7, 1, 12);
        assert_eq!(plan.crash_step(1), Some(12));
        assert_eq!(plan.crash_step(0), None);
        // nothing else is injected: the plan is otherwise quiet
        assert_eq!(plan.drop_prob, 0.0);
        assert_eq!(plan.duplicate_prob, 0.0);
        assert!(plan.server_crash.is_none());
        // and it survives the JSON wire like every other scenario
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.crash_step(1), Some(12));
    }

    #[test]
    fn corrupt_link_loses_messages_through_the_real_decoder() {
        let plan = FaultPlan::corrupt_link(31, 0.25, 0.1);
        let (mut a, mut b) = wrap_pair(&plan);
        for i in 0..400u64 {
            a.send(1, i, Payload::Params(vec![1.0, 2.0, 3.0])).unwrap();
        }
        let corrupt = a.stats().corrupt_messages();
        assert!(corrupt > 0, "corruption actually happened");
        // both damage kinds fired and were logged
        let flips = a
            .fault_log()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Corrupted(_)))
            .count();
        let cuts = a
            .fault_log()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::TruncatedWire(_)))
            .count();
        assert!(flips > 0, "bit flips fired");
        assert!(cuts > 0, "truncations fired");
        // conservation with the corrupt term: every damaged frame the
        // decoder rejected is accounted for, nothing was mis-delivered
        let forwarded = a.inner().stats().total_messages();
        assert_eq!(
            a.stats().total_messages() - a.stats().dropped_messages() - corrupt
                + a.stats().duplicated_messages(),
            forwarded
        );
        // survivors decode to exactly what was sent (the CRC turned
        // every hit into a loss, never a wrong value)
        let mut got = 0;
        while let Some(m) = b.try_recv() {
            assert_eq!(m.payload, Payload::Params(vec![1.0, 2.0, 3.0]));
            got += 1;
        }
        assert_eq!(got, forwarded);
    }

    #[test]
    fn corrupt_schedule_is_deterministic() {
        let plan = FaultPlan::corrupt_link(77, 0.2, 0.2);
        let mut prints = Vec::new();
        for _ in 0..2 {
            let (mut a, _b) = wrap_pair(&plan);
            for i in 0..300u64 {
                a.send(1, i, Payload::Flags(vec![9])).unwrap();
            }
            prints.push((a.log_fingerprint(), a.stats().corrupt_messages()));
        }
        assert_eq!(prints[0], prints[1]);
        assert!(prints[0].1 > 0);
    }

    #[test]
    fn json_roundtrip_preserves_the_plan() {
        let mut plan = FaultPlan::flaky_network(11, 0.05, 0.01, 30);
        plan.corrupt_prob = 0.02;
        plan.truncate_prob = 0.03;
        plan.crashes.push(Crash {
            rank: 1,
            at_step: 17,
        });
        plan.stragglers.push(Straggler {
            rank: 0,
            delay_ms: 9,
        });
        plan.partitions.push(Partition {
            a: 0,
            b: 2,
            from_seq: 100,
            to_seq: 250,
        });
        plan.server_crash = Some(ServerCrash {
            at_step: 6,
            restart_after_ms: 250,
        });
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn delays_are_logged_and_bounded() {
        let plan = FaultPlan::flaky_network(21, 0.0, 0.0, 3);
        let (mut a, _b) = wrap_pair(&plan);
        for i in 0..50u64 {
            a.send(1, i, Payload::Control(i)).unwrap();
        }
        let delays: Vec<u64> = a
            .fault_log()
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::DelayedMs(ms) => Some(ms),
                _ => None,
            })
            .collect();
        assert!(!delays.is_empty());
        assert!(delays.iter().all(|&ms| ms <= 3));
    }

    #[test]
    fn shard_scenarios_roundtrip_and_read_back() {
        // crash-one-shard: the per-process server_crash schedule,
        // targeted by giving the plan to the dying shard only
        let plan = FaultPlan::crash_one_shard(7, 4, 300);
        assert_eq!(
            plan.server_crash,
            Some(ServerCrash {
                at_step: 4,
                restart_after_ms: 300
            })
        );
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);

        // slow shard: an ordinary straggler pinned to a shard rank
        let plan = FaultPlan::slow_shard(7, 1, 80);
        assert_eq!(plan.straggler_delay(1), Some(Duration::from_millis(80)));
        assert_eq!(plan.straggler_delay(0), None);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }
}
