//! Elastic membership: liveness tracking, worker eviction,
//! checkpoint-based rejoin, and a **resumable** parameter server with a
//! hot-standby protocol, all coordinated over the same per-step
//! heartbeat.
//!
//! This is the server side of one shard of an elastic PS group (the
//! whole service when K = 1); the worker side is the fan-out client in
//! [`crate::shard`]. In elastic mode every training step routes its
//! SelSync flags exchange through the PS instead of a worker-to-worker
//! allgather — the per-step flags round doubles as a **heartbeat**. The
//! server collects each round with a deadline; a worker that keeps
//! missing deadlines (crash, partition, pathological straggling) is
//! **evicted** and the survivors learn about it in the very next status
//! vector, re-partition the dataset deterministically, and keep
//! training. An evicted (or late-starting) worker can **rejoin** with
//! [`join_request`], receiving the resume step, the current global
//! parameters, and the membership.
//!
//! Protocol per step `s` (tags inside the step's [`phase_tag`] space):
//!
//! 1. *Flags/heartbeat round* at `phase_tag(s, FLAGS_PHASE)`: every
//!    live worker sends `Flags([my_bit])`; the server answers each
//!    contributor with a status vector (one byte per rank, see the
//!    `STATUS_*` constants). Workers that miss the round deadline are
//!    marked [`STATUS_MISSED`] and, after `max_missed` consecutive
//!    misses, [`STATUS_DEAD`].
//! 2. *Sync round* at `phase_tag(s, SYNC_PHASE)`, only if any status
//!    byte is [`STATUS_SYNC`]: every round-1 contributor pushes its
//!    slice of the parameters ([`Payload::ShardPush`], or a set of
//!    [`Payload::Bucket`] frames); the server averages (in rank order,
//!    so runs are bit-reproducible) and replies the new range
//!    ([`Payload::ShardPull`]) to each.
//! 3. *Joins* (tag [`JOIN_TAG`]) are queued while a round is in flight
//!    and granted between rounds, so a joiner always starts at a clean
//!    step boundary.
//!
//! A worker that fell behind (its flags arrive at an old tag) gets an
//! immediate catch-up reply marking itself `STATUS_MISSED`, letting it
//! skip the sync it missed and sprint back to the current round.
//!
//! ## Recovery
//!
//! [`run_elastic_server_from`] restarts the server from a [`ServerState`]
//! (loaded from a durable checkpoint, or shadowed by a standby). Because
//! `on_sync` fires *before* the sync replies are sent (write-ahead
//! ordering), a restart from the last durable state always lands on one
//! of three worker configurations, and the loop tolerates each:
//!
//! * workers blocked in a **later flags round** than the resumed step —
//!   their flags carry a future tag; with nothing collected yet the
//!   server *fast-forwards* its round counter to the earliest future
//!   step seen (nothing in the skipped rounds had durable effects);
//! * workers blocked **mid-sync at the resumed round** — their re-sent
//!   pushes arrive during flags collection ("early pushes"); the server
//!   counts them as sync contributors and seeds the sync round with
//!   them, reproducing the interrupted average bit-for-bit;
//! * workers blocked **mid-sync at the round before** the resumed step
//!   (the checkpoint was written but its replies were lost) — their
//!   re-sent pushes arrive at a stale tag and draw the recovered global,
//!   which *is* that round's average.
//!
//! ## Hot standby
//!
//! A standby rank ([`run_standby_server`]) shadows every sync round's
//! state via a [`STANDBY_TAG`] triple (`Control(step)`, `Params`,
//! `Flags(membership)`) and promotes itself to a full server the moment
//! workers start addressing it — which they only do after their own
//! failover patience on the primary expires.

use crate::bucket::BucketAssembler;
use crate::collectives::{phase_tag, tag_step, FLAGS_PHASE};
use crate::error::TransportError;
use crate::fabric::{FlatVec, Payload, ShardSpec};
use crate::ps::{average, CTRL_JOIN, CTRL_SHUTDOWN};
use crate::transport::Transport;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tag reserved for join handshakes (outside every step's tag space).
pub const JOIN_TAG: u64 = u64::MAX - 1;

/// Tag reserved for PS→standby shadow updates.
pub const STANDBY_TAG: u64 = u64::MAX - 2;

/// Tag reserved for the shard-map agreement handshake (outside every
/// step's tag space): a worker sends its locally computed
/// [`Payload::ShardMap`] to a shard server, which echoes its own map
/// back. The worker errors out on any mismatch, so no parameter
/// sub-frame ever flows under a disputed partition.
pub const SHARD_MAP_TAG: u64 = u64::MAX - 3;

/// `Control` value (on [`STANDBY_TAG`]) telling the standby the run
/// ended cleanly and it will never be promoted. Outside the valid step
/// range, so it cannot collide with a shadowed sync step.
pub const STANDBY_RETIRE: u64 = u64::MAX;

/// Phase used for the elastic parameter-sync round within a step.
pub const SYNC_PHASE: u64 = 0;

/// Status byte: rank is dead — evicted or finished; survivors must
/// re-partition without it.
pub const STATUS_DEAD: u8 = 0;
/// Status byte: rank is alive and did not request a sync this step.
pub const STATUS_ALIVE: u8 = 1;
/// Status byte: rank is alive and raised its sync flag this step.
pub const STATUS_SYNC: u8 = 2;
/// Status byte: rank is alive but missed this round's deadline; it is
/// skipped for this step's sync and may catch up or be evicted later.
pub const STATUS_MISSED: u8 = 3;

/// Scheduled server death, used by the chaos harness to exercise the
/// recovery path deterministically inside one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCrashPoint {
    /// Die at the start of the first round with step ≥ the given step —
    /// before collecting any flags (a "mid-run" kill).
    RoundStart(u64),
    /// Die during the first sync at step ≥ the given step: after the
    /// pushes are consumed and averaged, but *before* the checkpoint
    /// callback runs or any reply is sent — the most adversarial point,
    /// equivalent to a kill mid-checkpoint-write.
    MidSync(u64),
}

/// Liveness policy for the elastic server.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Deadline for each blocking receive while collecting a round; the
    /// clock restarts on every arriving message, so this bounds *silence*,
    /// not round length. Must comfortably exceed one training step.
    pub round_timeout: Duration,
    /// Consecutive missed rounds before a worker is evicted.
    pub max_missed: u32,
    /// Rank of a hot-standby server to shadow state to after every sync
    /// (and to retire on clean shutdown).
    pub standby: Option<usize>,
    /// Simulated server death for chaos/fault experiments.
    pub crash: Option<ServerCrashPoint>,
    /// The partition map of the PS group this server computed locally
    /// (one range at K = 1), echoed under the [`SHARD_MAP_TAG`]
    /// agreement handshake so every worker can prove it partitioned
    /// identically. Its shard count also selects the sync-window
    /// eviction policy: only a K > 1 server can see a pusher stalled on
    /// a *sibling* shard.
    pub shard_map: ShardSpec,
    /// Initial window during which collection timeouts neither count as
    /// missed rounds nor advance the step. A restarted or promoted
    /// server sets this to cover the workers' resend budget: their
    /// in-flight requests died with the old server, so the first
    /// evidence of life can take a full reply timeout to arrive — two,
    /// when the first resend is swallowed by the dying kernel socket
    /// before the reset surfaces. The window is adaptive: each *first*
    /// contact from a member extends it by one `resume_grace` unit
    /// (the stragglers' next resend is at most one cycle away), and it
    /// ends early once every live member has reported in, restoring
    /// normal eviction latency.
    pub resume_grace: Duration,
}

impl ElasticConfig {
    /// The default liveness policy for a server of the group `shard_map`
    /// describes: 1 s rounds, eviction after 3 misses, no standby, no
    /// scheduled crash, no resume grace.
    pub fn new(shard_map: ShardSpec) -> Self {
        Self {
            round_timeout: Duration::from_secs(1),
            max_missed: 3,
            standby: None,
            crash: None,
            shard_map,
            resume_grace: Duration::ZERO,
        }
    }
}

/// The elastic server's recoverable state: everything a restarted or
/// promoted server needs to continue a run. Snapshots of this are handed
/// to the `on_sync` callback after every sync round (with write-ahead
/// ordering: before the sync replies go out), so persisting them yields
/// a checkpoint from which [`run_elastic_server_from`] resumes
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerState {
    /// Next round/step the server will run.
    pub step: u64,
    /// Completed sync rounds.
    pub syncs: u64,
    /// Current global parameters.
    pub global: Vec<f32>,
    /// Which worker ranks are members (not evicted).
    pub alive: Vec<bool>,
    /// Which worker ranks shut down cleanly.
    pub done: Vec<bool>,
    /// `(step, rank)` evictions so far.
    pub evictions: Vec<(u64, usize)>,
    /// `(resume_step, rank)` joins so far.
    pub joins: Vec<(u64, usize)>,
}

impl ServerState {
    /// The state of a brand-new run: step 0, everyone alive, the seeded
    /// initial parameters.
    pub fn fresh(n_workers: usize, init_params: Vec<f32>) -> Self {
        ServerState {
            step: 0,
            syncs: 0,
            global: init_params,
            alive: vec![true; n_workers],
            done: vec![false; n_workers],
            evictions: Vec::new(),
            joins: Vec::new(),
        }
    }
}

/// What the elastic server observed over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// Global parameters after the last sync (or the init if none).
    pub final_params: Vec<f32>,
    /// `(step, rank)` evictions, in order.
    pub evictions: Vec<(u64, usize)>,
    /// `(resume_step, rank)` granted joins, in order.
    pub joins: Vec<(u64, usize)>,
    /// Completed parameter-sync rounds.
    pub syncs: u64,
    /// Heartbeat rounds driven to completion (≈ steps observed).
    pub rounds: u64,
    /// True if the server exited via a scheduled [`ServerCrashPoint`]
    /// instead of a clean shutdown; the report then reflects the dying
    /// server's volatile state, not durable truth.
    pub crashed: bool,
}

/// What a joiner receives from [`join_request`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGrant {
    /// First step the joiner should run.
    pub resume_step: u64,
    /// Current global parameters.
    pub params: Vec<f32>,
    /// Membership at grant time (status bytes, indexed by rank).
    pub status: Vec<u8>,
}

fn status_vec(
    n: usize,
    alive: &[bool],
    done: &[bool],
    bits: Option<&BTreeMap<usize, u8>>,
    missed_requester: usize,
) -> Vec<u8> {
    (0..n)
        .map(|i| {
            if !alive[i] || done[i] {
                STATUS_DEAD
            } else if i == missed_requester {
                STATUS_MISSED
            } else {
                match bits {
                    Some(b) => match b.get(&i) {
                        Some(&bit) if bit != 0 => STATUS_SYNC,
                        Some(_) => STATUS_ALIVE,
                        None => STATUS_MISSED,
                    },
                    None => STATUS_ALIVE,
                }
            }
        })
        .collect()
}

/// Deterministic range partition of a flat parameter vector of `total`
/// elements across `k` shards: shard `i` owns the contiguous range
/// `starts[i] .. starts[i+1]` (or `total` for the last shard), with
/// every shard sized `ceil(total / k)` except possibly the tail. A pure
/// function of `(total, k)`, so every rank computes the identical map
/// with no coordination — the [`SHARD_MAP_TAG`] handshake then *proves*
/// the agreement instead of establishing it.
///
/// # Panics
/// Panics on `k == 0` — a configuration bug, not a runtime fault.
pub fn shard_starts(total: u64, k: usize) -> Vec<u64> {
    assert!(k > 0, "shard count must be positive");
    let chunk = total.div_ceil(k as u64).max(1);
    (0..k as u64).map(|i| (i * chunk).min(total)).collect()
}

/// Membership encoded for the standby shadow: bit 0 = alive, bit 1 =
/// done (richer than the worker-facing status bytes, which cannot tell
/// "finished" from "evicted").
fn membership_bytes(alive: &[bool], done: &[bool]) -> Vec<u8> {
    alive
        .iter()
        .zip(done)
        .map(|(a, d)| u8::from(*a) | (u8::from(*d) << 1))
        .collect()
}

/// Run the elastic parameter server for a brand-new run (state
/// [`ServerState::fresh`]). `on_sync(state)` fires after each completed
/// sync round, *before* the sync replies go out — wire it to a
/// checkpoint writer so a killed server restarts from its last durable
/// sync via [`run_elastic_server_from`].
///
/// # Errors
/// Propagates unrecoverable transport faults ([`TransportError::Closed`])
/// and protocol violations. Dead *workers* are not errors — they are
/// evicted and reported in the returned [`ElasticReport`].
pub fn run_elastic_server<T, F>(
    ep: T,
    n_workers: usize,
    init_params: Vec<f32>,
    cfg: &ElasticConfig,
    on_sync: F,
) -> Result<ElasticReport, TransportError>
where
    T: Transport,
    F: FnMut(&ServerState),
{
    run_elastic_server_from(ep, ServerState::fresh(n_workers, init_params), cfg, on_sync)
}

/// Record a member's first message since a resume/promotion and adjust
/// the grace window: extend it by one `resume_grace` unit while other
/// members are still silent (their next resend is at most one cycle
/// away), end it as soon as every live member has reported in. An
/// already-expired window is never resurrected.
fn note_contact(
    grace_until: &mut Option<Instant>,
    heard: &mut [bool],
    alive: &[bool],
    done: &[bool],
    from: usize,
    resume_grace: Duration,
) {
    let Some(g) = *grace_until else { return };
    if Instant::now() >= g {
        *grace_until = None;
        return;
    }
    if from >= heard.len() || heard[from] {
        return;
    }
    heard[from] = true;
    if (0..heard.len()).all(|i| heard[i] || !alive[i] || done[i]) {
        *grace_until = None;
    } else {
        let horizon = Instant::now() + resume_grace;
        if g < horizon {
            *grace_until = Some(horizon);
        }
    }
}

/// Normalize an arriving push. A [`Payload::Bucket`] frame is absorbed
/// into its sender's assembler and only a *completed* set comes back
/// out, as the [`Payload::ShardPush`] it stands for (`None` while the
/// set is partial) — a retrying worker resends its complete set and
/// duplicate frames overwrite, so assembly is idempotent under the
/// failover policy. Every whole push must then cover exactly this
/// server's range: `average` zips its inputs, so a short push would
/// silently truncate the round. Other payloads pass through.
fn whole_push(
    asm: &mut BTreeMap<(u64, usize), BucketAssembler>,
    tag: u64,
    from: usize,
    payload: Payload,
    range_len: usize,
) -> Result<Option<Payload>, TransportError> {
    let payload = match payload {
        Payload::Bucket {
            bucket,
            n_buckets,
            values,
        } => match asm
            .entry((tag, from))
            .or_default()
            .absorb(bucket, n_buckets, values)?
        {
            Some(flat) => Payload::ShardPush(flat),
            None => return Ok(None),
        },
        p => p,
    };
    if let Payload::ShardPush(v) = &payload {
        if v.len() != range_len {
            return Err(TransportError::Protocol(format!(
                "elastic server: rank {from} pushed {} values at tag {tag}, \
                 this server's range holds {range_len}",
                v.len()
            )));
        }
    }
    Ok(Some(payload))
}

/// A sender that is not one of the `n` workers (a sibling shard, a
/// standby, a rank from a differently-sized launch) has no slot in the
/// membership vectors; its traffic is a wiring fault, not a protocol
/// event.
fn foreign_sender(from: usize, n: usize) -> TransportError {
    TransportError::Protocol(format!(
        "elastic server: message from rank {from}, which is not one of the {n} workers"
    ))
}

/// Run the elastic parameter server from a recovered [`ServerState`]
/// (checkpoint resume or standby promotion). See the module docs for the
/// three worker configurations a restart can find and how each is
/// reconciled.
///
/// # Errors
/// As [`run_elastic_server`].
#[allow(clippy::too_many_lines)]
pub fn run_elastic_server_from<T, F>(
    mut ep: T,
    state: ServerState,
    cfg: &ElasticConfig,
    mut on_sync: F,
) -> Result<ElasticReport, TransportError>
where
    T: Transport,
    F: FnMut(&ServerState),
{
    let ServerState {
        mut step,
        mut syncs,
        mut global,
        mut alive,
        mut done,
        mut evictions,
        mut joins,
    } = state;
    let n = alive.len();
    let mut missed = vec![0u32; n];
    let mut crashed = false;
    // A recovering server must outwait the workers' resend budget before
    // judging silence: their in-flight rounds died with the predecessor.
    // See `ElasticConfig::resume_grace` for the adaptive-extension rules
    // `note_contact` applies as members report back in.
    let mut grace_until =
        (cfg.resume_grace > Duration::ZERO).then(|| Instant::now() + cfg.resume_grace);
    let mut heard_since_start = vec![false; n];
    // Traffic from rounds ahead of this one (recovery: the server
    // restarted behind the workers). Keyed by step.
    let mut future_flags: BTreeMap<u64, BTreeMap<usize, u8>> = BTreeMap::new();
    let mut future_pushes: BTreeMap<u64, BTreeMap<usize, Vec<f32>>> = BTreeMap::new();
    let mut pending_joins: Vec<usize> = Vec::new();
    // Bucketed parameter pushes (DESIGN.md §12): partial Bucket frames
    // assemble per (tag, sender) in `whole_push`, so every arm below
    // only ever sees whole vectors.
    let mut bucket_asm: BTreeMap<(u64, usize), BucketAssembler> = BTreeMap::new();

    'run: loop {
        if (0..n).all(|i| !alive[i] || done[i]) {
            break;
        }
        if let Some(ServerCrashPoint::RoundStart(s)) = cfg.crash {
            if step >= s {
                crashed = true;
                break;
            }
        }
        let ftag = phase_tag(step, FLAGS_PHASE);
        let stag = phase_tag(step, SYNC_PHASE);
        // drop bucket partials from rounds that already closed — a
        // retrying worker resends its complete set, so nothing is lost
        bucket_asm.retain(|&(t, _), a| a.in_progress() && tag_step(t) + 1 >= step);
        // seed the round with any buffered traffic that raced ahead
        let mut bits: BTreeMap<usize, u8> = future_flags.remove(&step).unwrap_or_default();
        let mut early_pushes: BTreeMap<usize, Vec<f32>> =
            future_pushes.remove(&step).unwrap_or_default();
        future_flags.retain(|&s, _| s > step);
        future_pushes.retain(|&s, _| s > step);
        bits.retain(|&i, _| alive[i] && !done[i]);
        early_pushes.retain(|&i, _| alive[i] && !done[i]);
        let mut jump: Option<u64> = None;

        // ---- flags / heartbeat collection ----
        loop {
            let expected = (0..n).filter(|&i| alive[i] && !done[i]).count();
            let heard = bits.len()
                + early_pushes
                    .keys()
                    .filter(|i| !bits.contains_key(i))
                    .count();
            if expected == 0 || heard >= expected {
                break;
            }
            match ep.recv_deadline(None, None, cfg.round_timeout) {
                Err(TransportError::RecvTimeout { .. }) => {
                    if grace_until.is_some_and(|g| Instant::now() < g) {
                        continue;
                    }
                    let mut evicted_now = false;
                    for i in 0..n {
                        if alive[i]
                            && !done[i]
                            && !bits.contains_key(&i)
                            && !early_pushes.contains_key(&i)
                        {
                            missed[i] += 1;
                            if missed[i] >= cfg.max_missed {
                                alive[i] = false;
                                evictions.push((step, i));
                                evicted_now = true;
                            }
                        }
                    }
                    // A round nobody joined is a liveness tick, not a
                    // round: closing it would free-run this server's
                    // step past workers that are alive but stalled
                    // elsewhere (sharded: on a sibling shard's
                    // recovery), stranding all their later traffic in
                    // the stale arms — whose status replies carry no
                    // sync bits, so the group can never agree on a sync
                    // again. Keep collecting at this step; the `missed`
                    // counters above still age silent workers toward
                    // eviction, which is the only thing an empty round
                    // was good for.
                    if bits.is_empty() && early_pushes.is_empty() && !evicted_now {
                        continue;
                    }
                    break;
                }
                Err(e) => return Err(e),
                Ok(m) => {
                    let from = m.from;
                    note_contact(
                        &mut grace_until,
                        &mut heard_since_start,
                        &alive,
                        &done,
                        from,
                        cfg.resume_grace,
                    );
                    if m.tag == JOIN_TAG {
                        if let Payload::Control(c) = m.payload {
                            if c == CTRL_JOIN {
                                pending_joins.push(from);
                            }
                        }
                        continue;
                    }
                    if m.tag == SHARD_MAP_TAG {
                        // map-agreement handshake: echo our map so the
                        // worker can prove both sides partitioned alike
                        let _ = ep.send(
                            from,
                            SHARD_MAP_TAG,
                            Payload::ShardMap(cfg.shard_map.clone()),
                        );
                        continue;
                    }
                    if m.tag >= STANDBY_TAG {
                        // reserved tags this role never consumes
                        continue;
                    }
                    if from >= n {
                        return Err(foreign_sender(from, n));
                    }
                    if !alive[from] {
                        // tell an evicted-but-alive sender its fate so it
                        // can stop waiting and rejoin or exit (best effort)
                        if matches!(m.payload, Payload::Flags(_)) {
                            let status = status_vec(n, &alive, &done, None, from);
                            let _ = ep.send(from, m.tag, Payload::Flags(status));
                        }
                        continue;
                    }
                    let Some(payload) =
                        whole_push(&mut bucket_asm, m.tag, from, m.payload, global.len())?
                    else {
                        continue;
                    };
                    match (m.tag, payload) {
                        (t, Payload::Flags(b)) if t == ftag => {
                            bits.insert(from, b.first().copied().unwrap_or(0));
                        }
                        (t, Payload::ShardPush(v)) if t == stag => {
                            // a re-sent push for *this* round: the sender
                            // already holds a SYNC status from before a
                            // server restart — count it as a contributor
                            early_pushes.insert(from, v);
                        }
                        (_, Payload::Control(c)) if c == CTRL_SHUTDOWN => {
                            // accepted at any tag: a worker may finish
                            // while a recovering server is still behind
                            done[from] = true;
                            missed[from] = 0;
                        }
                        (t, Payload::Flags(_)) if t < ftag => {
                            // straggler catching up from an older step
                            let status = status_vec(n, &alive, &done, None, from);
                            let _ = ep.send(from, t, Payload::Flags(status));
                        }
                        (t, Payload::ShardPush(_)) if t < ftag => {
                            // stale push from a sync round that already
                            // closed (or whose replies died with the old
                            // server); unblock the sender with the global,
                            // which is exactly that round's average
                            let _ = ep.send(from, t, Payload::ShardPull(global.clone()));
                        }
                        (t, Payload::Flags(b)) if t > ftag => {
                            let s = tag_step(t);
                            future_flags
                                .entry(s)
                                .or_default()
                                .insert(from, b.first().copied().unwrap_or(0));
                            if bits.is_empty() && early_pushes.is_empty() {
                                jump = Some(s);
                                break;
                            }
                        }
                        (t, Payload::ShardPush(v))
                            if t > ftag && t == phase_tag(tag_step(t), SYNC_PHASE) =>
                        {
                            let s = tag_step(t);
                            future_pushes.entry(s).or_default().insert(from, v);
                            if bits.is_empty() && early_pushes.is_empty() {
                                jump = Some(s);
                                break;
                            }
                        }
                        (t, p) => {
                            return Err(TransportError::Protocol(format!(
                                "elastic server: unexpected {p:?} at tag {t} \
                                 from rank {from} (round tag {ftag})"
                            )));
                        }
                    }
                }
            }
        }

        if jump.is_some() {
            // recovery fast-forward: every live worker is already past
            // this round (nothing durable happened in the skipped
            // rounds, or their effects were already replied). Jump to
            // the earliest round with buffered traffic.
            let next = future_flags
                .keys()
                .next()
                .copied()
                .into_iter()
                .chain(future_pushes.keys().next().copied())
                .min();
            if let Some(next) = next {
                step = next;
                continue 'run;
            }
        }

        for &i in bits.keys() {
            missed[i] = 0;
        }
        for &i in early_pushes.keys() {
            missed[i] = 0;
        }
        let contributors: Vec<usize> = bits.keys().copied().collect();
        let mut sync_members: Vec<usize> = contributors.clone();
        for &i in early_pushes.keys() {
            if !sync_members.contains(&i) {
                sync_members.push(i);
            }
        }
        sync_members.sort_unstable();

        if !contributors.is_empty() || !early_pushes.is_empty() {
            let any_sync = bits.values().any(|&b| b != 0) || !early_pushes.is_empty();
            // early pushers are mid-sync: the membership view must show
            // them as syncing even though no flag arrived this round
            let mut merged = bits.clone();
            for &i in early_pushes.keys() {
                merged.insert(i, 1);
            }
            let status = status_vec(n, &alive, &done, Some(&merged), usize::MAX);
            for &i in &contributors {
                match ep.send(i, ftag, Payload::Flags(status.clone())) {
                    Ok(()) => {}
                    Err(TransportError::PeerUnreachable { .. }) => {
                        alive[i] = false;
                        evictions.push((step, i));
                    }
                    Err(e) => return Err(e),
                }
            }

            // ---- sync round: every contributor pushes, server averages ----
            if any_sync {
                let mut pushes: BTreeMap<usize, Vec<f32>> = early_pushes;
                // how many empty round_timeouts to sit through before
                // declaring the missing pushers crashed. The only server
                // of a K = 1 group evicts after one: a worker that
                // flagged a sync and then fell silent is gone. With
                // siblings the window extends to the (recovery-widened)
                // miss budget — the pusher may be stalled in its fan-out
                // on a *sibling* shard that is crashing and resuming,
                // and evicting it here would tear down a cluster that is
                // seconds from recovering (DESIGN.md §10).
                let push_patience = if cfg.shard_map.starts.len() > 1 {
                    cfg.max_missed.max(1)
                } else {
                    1
                };
                let mut empty_waits = 0u32;
                loop {
                    let expected = sync_members.iter().filter(|&&i| alive[i]).count();
                    if expected == 0 || pushes.len() >= expected {
                        break;
                    }
                    match ep.recv_deadline(None, None, cfg.round_timeout) {
                        Err(TransportError::RecvTimeout { .. }) => {
                            if grace_until.is_some_and(|g| Instant::now() < g) {
                                continue;
                            }
                            empty_waits += 1;
                            if empty_waits < push_patience {
                                continue;
                            }
                            // a crash inside the sync window: evict at once,
                            // the partial average keeps the survivors moving
                            for &i in &sync_members {
                                if alive[i] && !pushes.contains_key(&i) {
                                    alive[i] = false;
                                    evictions.push((step, i));
                                }
                            }
                            break;
                        }
                        Err(e) => return Err(e),
                        Ok(m) => {
                            let from = m.from;
                            empty_waits = 0;
                            note_contact(
                                &mut grace_until,
                                &mut heard_since_start,
                                &alive,
                                &done,
                                from,
                                cfg.resume_grace,
                            );
                            if m.tag == JOIN_TAG {
                                if let Payload::Control(c) = m.payload {
                                    if c == CTRL_JOIN {
                                        pending_joins.push(from);
                                    }
                                }
                                continue;
                            }
                            if m.tag == SHARD_MAP_TAG {
                                let _ = ep.send(
                                    from,
                                    SHARD_MAP_TAG,
                                    Payload::ShardMap(cfg.shard_map.clone()),
                                );
                                continue;
                            }
                            if m.tag >= STANDBY_TAG {
                                continue;
                            }
                            if from >= n {
                                return Err(foreign_sender(from, n));
                            }
                            let Some(payload) =
                                whole_push(&mut bucket_asm, m.tag, from, m.payload, global.len())?
                            else {
                                continue;
                            };
                            if m.tag == stag && alive[from] {
                                match payload {
                                    Payload::ShardPush(v) => {
                                        if !sync_members.contains(&from) {
                                            sync_members.push(from);
                                        }
                                        pushes.insert(from, v);
                                    }
                                    p => {
                                        return Err(TransportError::Protocol(format!(
                                            "elastic server: expected ShardPush at sync \
                                             tag {stag}, got {p:?} from rank {from}"
                                        )));
                                    }
                                }
                            }
                            // anything else mid-sync is stale traffic: drop
                        }
                    }
                }
                let pushers: Vec<usize> = pushes.keys().copied().collect();
                if let Some(avg) = average(pushes.into_values()) {
                    if let Some(ServerCrashPoint::MidSync(s)) = cfg.crash {
                        if step >= s {
                            // die with the average computed but nothing
                            // durable: no checkpoint, no shadow, no reply
                            crashed = true;
                            break 'run;
                        }
                    }
                    global = avg;
                    syncs += 1;
                    // write-ahead: checkpoint + shadow BEFORE any reply,
                    // so a durable sync implies no worker saw it early
                    on_sync(&ServerState {
                        step: step + 1,
                        syncs,
                        global: global.clone(),
                        alive: alive.clone(),
                        done: done.clone(),
                        evictions: evictions.clone(),
                        joins: joins.clone(),
                    });
                    if let Some(sb) = cfg.standby {
                        let _ = ep.send(sb, STANDBY_TAG, Payload::Control(step));
                        let _ = ep.send(sb, STANDBY_TAG, Payload::Params(global.clone()));
                        let _ = ep.send(
                            sb,
                            STANDBY_TAG,
                            Payload::Flags(membership_bytes(&alive, &done)),
                        );
                    }
                    for i in pushers {
                        match ep.send(i, stag, Payload::ShardPull(global.clone())) {
                            Ok(()) => {}
                            Err(TransportError::PeerUnreachable { .. }) => {
                                alive[i] = false;
                                evictions.push((step, i));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }

        // ---- grant joins at the step boundary ----
        for r in pending_joins.drain(..) {
            if r < n && !done[r] && !alive[r] {
                alive[r] = true;
                missed[r] = 0;
                let resume = step + 1;
                let status = status_vec(n, &alive, &done, None, usize::MAX);
                let granted = ep.send(r, JOIN_TAG, Payload::Control(resume)).is_ok()
                    && ep
                        .send(r, JOIN_TAG, Payload::Params(global.clone()))
                        .is_ok()
                    && ep.send(r, JOIN_TAG, Payload::Flags(status)).is_ok();
                if granted {
                    joins.push((resume, r));
                } else {
                    alive[r] = false;
                    evictions.push((step, r));
                }
            }
        }

        step += 1;
    }

    if !crashed {
        if let Some(sb) = cfg.standby {
            let _ = ep.send(sb, STANDBY_TAG, Payload::Control(STANDBY_RETIRE));
        }
    }
    Ok(ElasticReport {
        final_params: global,
        evictions,
        joins,
        syncs,
        rounds: step,
        crashed,
    })
}

/// What a standby rank's watch ended in.
#[derive(Debug)]
pub enum StandbyOutcome {
    /// The primary retired us (clean shutdown) or the whole cluster went
    /// silent past the patience window; nothing to do.
    Retired {
        /// Sync rounds shadowed while on watch.
        shadowed_syncs: u64,
    },
    /// Workers failed over to this rank; it ran the elastic server from
    /// the shadowed state to completion.
    Promoted(ElasticReport),
}

/// Run the hot-standby role for the server on rank `primary`: shadow
/// its [`STANDBY_TAG`] state updates, and promote to a full elastic
/// server the moment worker traffic lands on this rank (workers only
/// redirect here after their failover patience on the primary expires —
/// see the worker retry layer). While waiting, worker messages are buffered, not consumed, so
/// the promoted server's first round sees them all.
///
/// `max_silence` bounds how long the standby outlives a cluster that
/// went completely quiet (primary died *and* no worker ever failed
/// over, e.g. because they all finished).
///
/// # Errors
/// Propagates unrecoverable transport faults.
pub fn run_standby_server<T, F>(
    mut ep: T,
    n_workers: usize,
    primary: usize,
    init_params: Vec<f32>,
    cfg: &ElasticConfig,
    max_silence: Duration,
    on_sync: F,
) -> Result<StandbyOutcome, TransportError>
where
    T: Transport,
    F: FnMut(&ServerState),
{
    let mut state = ServerState::fresh(n_workers, init_params);
    let mut shadowed = 0u64;
    let mut silence = Duration::ZERO;
    loop {
        match ep.recv_deadline(Some(primary), Some(STANDBY_TAG), cfg.round_timeout) {
            Ok(m) => {
                silence = Duration::ZERO;
                match m.payload {
                    Payload::Control(c) if c == STANDBY_RETIRE => {
                        return Ok(StandbyOutcome::Retired {
                            shadowed_syncs: shadowed,
                        });
                    }
                    Payload::Control(sync_step) => {
                        // a shadow triple: Params and membership follow on
                        // the same tag; a torn triple (primary died mid-
                        // send) leaves the previous consistent state
                        let params = match ep.recv_deadline(
                            Some(primary),
                            Some(STANDBY_TAG),
                            cfg.round_timeout,
                        ) {
                            Ok(pm) => match pm.payload {
                                Payload::Params(v) => v,
                                Payload::SharedParams(a) => FlatVec::Shared(a).into_vec(),
                                // explicit so new wire variants fail here
                                // at compile time instead of being dropped
                                Payload::Grads(_)
                                | Payload::Flags(_)
                                | Payload::Samples { .. }
                                | Payload::Control(_)
                                | Payload::Predict { .. }
                                | Payload::Logits { .. }
                                | Payload::ShardMap(_)
                                | Payload::ShardPush(_)
                                | Payload::ShardPull(_)
                                | Payload::Bucket { .. }
                                | Payload::SparseGrad { .. }
                                | Payload::SignGrad { .. }
                                | Payload::LowRank { .. } => continue,
                            },
                            Err(TransportError::RecvTimeout { .. }) => continue,
                            Err(e) => return Err(e),
                        };
                        let mem = match ep.recv_deadline(
                            Some(primary),
                            Some(STANDBY_TAG),
                            cfg.round_timeout,
                        ) {
                            Ok(fm) => match fm.payload {
                                Payload::Flags(b) => b,
                                // explicit so new wire variants fail here
                                // at compile time instead of being dropped
                                Payload::Params(_)
                                | Payload::SharedParams(_)
                                | Payload::Grads(_)
                                | Payload::Samples { .. }
                                | Payload::Control(_)
                                | Payload::Predict { .. }
                                | Payload::Logits { .. }
                                | Payload::ShardMap(_)
                                | Payload::ShardPush(_)
                                | Payload::ShardPull(_)
                                | Payload::Bucket { .. }
                                | Payload::SparseGrad { .. }
                                | Payload::SignGrad { .. }
                                | Payload::LowRank { .. } => continue,
                            },
                            Err(TransportError::RecvTimeout { .. }) => continue,
                            Err(e) => return Err(e),
                        };
                        state.step = sync_step + 1;
                        state.syncs += 1;
                        state.global = params;
                        state.alive = mem.iter().map(|b| b & 1 != 0).collect();
                        state.done = mem.iter().map(|b| b & 2 != 0).collect();
                        shadowed += 1;
                    }
                    // stray non-control traffic on the standby tag is
                    // ignored; listed explicitly so new wire variants
                    // fail here at compile time instead of being dropped
                    Payload::Params(_)
                    | Payload::SharedParams(_)
                    | Payload::Grads(_)
                    | Payload::Flags(_)
                    | Payload::Samples { .. }
                    | Payload::Predict { .. }
                    | Payload::Logits { .. }
                    | Payload::ShardMap(_)
                    | Payload::ShardPush(_)
                    | Payload::ShardPull(_)
                    | Payload::Bucket { .. }
                    | Payload::SparseGrad { .. }
                    | Payload::SignGrad { .. }
                    | Payload::LowRank { .. } => {}
                }
            }
            Err(TransportError::RecvTimeout { buffered, .. }) => {
                if buffered > 0 {
                    // workers are addressing this rank: the primary is
                    // gone and the cluster failed over — promote. The
                    // buffered worker traffic is drained by the server
                    // loop's pending-first receives.
                    let promoted_cfg = ElasticConfig {
                        standby: None,
                        crash: None,
                        ..cfg.clone()
                    };
                    let report = run_elastic_server_from(ep, state, &promoted_cfg, on_sync)?;
                    return Ok(StandbyOutcome::Promoted(report));
                }
                silence += cfg.round_timeout;
                if silence >= max_silence {
                    return Ok(StandbyOutcome::Retired {
                        shadowed_syncs: shadowed,
                    });
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Ask the elastic server to (re)admit this rank. Blocks until the
/// grant: resume step, current global parameters, and membership.
///
/// # Errors
/// `RecvTimeout` if the server never answers (training already over);
/// `Protocol` on a malformed grant.
pub fn join_request<T: Transport>(
    ep: &mut T,
    server: usize,
    reply_timeout: Duration,
) -> Result<JoinGrant, TransportError> {
    ep.send(server, JOIN_TAG, Payload::Control(CTRL_JOIN))?;
    let resume_step = match ep
        .recv_deadline(Some(server), Some(JOIN_TAG), reply_timeout)?
        .payload
    {
        Payload::Control(s) => s,
        p => {
            return Err(TransportError::Protocol(format!(
                "join grant began with {p:?}, expected Control(resume_step)"
            )))
        }
    };
    let params = match ep
        .recv_deadline(Some(server), Some(JOIN_TAG), reply_timeout)?
        .payload
    {
        Payload::Params(v) => v,
        Payload::SharedParams(a) => FlatVec::Shared(a).into_vec(),
        p => {
            return Err(TransportError::Protocol(format!(
                "join grant missing Params, got {p:?}"
            )))
        }
    };
    let status = match ep
        .recv_deadline(Some(server), Some(JOIN_TAG), reply_timeout)?
        .payload
    {
        Payload::Flags(s) => s,
        p => {
            return Err(TransportError::Protocol(format!(
                "join grant missing Flags, got {p:?}"
            )))
        }
    };
    Ok(JoinGrant {
        resume_step,
        params,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Endpoint, Fabric};
    use crate::shard::{ShardClientConfig, ShardedPsClient};
    use std::sync::{Arc, Mutex};
    use std::thread;

    const REPLY: Duration = Duration::from_secs(5);

    /// The K = 1 map of a `len`-value vector: one range, the whole thing.
    fn one_shard(len: usize) -> ShardSpec {
        ShardSpec {
            version: 1,
            total: len as u64,
            starts: shard_starts(len as u64, 1),
        }
    }

    fn server_cfg(len: usize, round_timeout: Duration, max_missed: u32) -> ElasticConfig {
        ElasticConfig {
            round_timeout,
            max_missed,
            ..ElasticConfig::new(one_shard(len))
        }
    }

    /// The worker's client onto the single server on rank `server`
    /// (standby on `standby`), resending every `reply_timeout` for up to
    /// `ps_patience` before failing over or giving up.
    fn client(
        ep: &Endpoint,
        len: usize,
        server: usize,
        standby: Option<usize>,
        reply_timeout: Duration,
        ps_patience: Duration,
    ) -> ShardedPsClient {
        ShardedPsClient::new(
            ep.id(),
            one_shard(len),
            &[server],
            standby.as_ref().map(std::slice::from_ref),
            ShardClientConfig {
                reply_timeout,
                comm_retries: 3,
                ps_patience,
                bucket: None,
            },
        )
    }

    /// A client that never needs its retry layer: one patient wait.
    fn calm_client(ep: &Endpoint, len: usize, server: usize) -> ShardedPsClient {
        client(ep, len, server, None, REPLY, REPLY)
    }

    #[test]
    fn periodic_sync_rounds_average_across_members() {
        let n = 3;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(4, Duration::from_millis(500), 3);
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![0.0; 4], &cfg, |_| {}).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    let mut ps = calm_client(&ep, 4, n);
                    ps.handshake(&mut ep).unwrap();
                    let mut last_sync = Vec::new();
                    for step in 0..6u64 {
                        let bit = u8::from(step % 3 == 0);
                        let status = ps.heartbeat(&mut ep, step, bit).unwrap();
                        assert_eq!(status.len(), n);
                        if status.contains(&STATUS_SYNC) {
                            last_sync = ps.sync(&mut ep, step, &[id as f32; 4]).unwrap().into_vec();
                        }
                    }
                    ps.shutdown(&mut ep, 6);
                    last_sync
                })
            })
            .collect();
        for h in handles {
            // avg(0, 1, 2) = 1.0 on every member after the last sync
            assert_eq!(h.join().unwrap(), vec![1.0; 4]);
        }
        let report = server.join().unwrap();
        assert_eq!(report.syncs, 2, "steps 0 and 3 raised the flag");
        assert!(report.evictions.is_empty());
        assert!(report.joins.is_empty());
        assert!(!report.crashed);
        assert_eq!(report.final_params, vec![1.0; 4]);
    }

    /// A worker pushing its parameters as Bucket frames must land in the
    /// same average as a whole-frame pusher in the same round — and a
    /// full resend of an already-consumed set (the retry layer's move
    /// after a lost reply) must draw the stale-push catch-up reply, not
    /// wedge the server.
    #[test]
    fn bucketed_param_push_averages_with_whole_frame_peers() {
        let n = 2;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(5, Duration::from_millis(400), 3);
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![0.0; 5], &cfg, |_| {}).unwrap()
        });
        let mut bucketed = eps.pop().unwrap(); // rank 1
        let mut whole = eps.pop().unwrap(); // rank 0
        let whole_h = thread::spawn(move || {
            let mut ps = calm_client(&whole, 5, n);
            let status = ps.heartbeat(&mut whole, 0, 1).unwrap();
            assert!(status.contains(&STATUS_SYNC));
            let avg = ps.sync(&mut whole, 0, &[1.0; 5]).unwrap().into_vec();
            ps.shutdown(&mut whole, 1);
            avg
        });
        let bucketed_h = thread::spawn(move || {
            let mut ps = calm_client(&bucketed, 5, n);
            ps.set_bucket(Some(2));
            let status = ps.heartbeat(&mut bucketed, 0, 1).unwrap();
            assert!(status.contains(&STATUS_SYNC));
            let params = [2.0, 4.0, 6.0, 8.0, 10.0];
            let avg = ps.sync(&mut bucketed, 0, &params).unwrap().into_vec();
            // simulate a lost reply: resend the whole set; the server
            // answers the stale push with the current global
            let catch_up = ps.sync(&mut bucketed, 0, &params).unwrap().into_vec();
            ps.shutdown(&mut bucketed, 1);
            (avg, catch_up)
        });
        let whole_avg = whole_h.join().unwrap();
        let (bucket_avg, catch_up) = bucketed_h.join().unwrap();
        let want = vec![1.5, 2.5, 3.5, 4.5, 5.5];
        assert_eq!(whole_avg, want);
        assert_eq!(bucket_avg, want);
        assert_eq!(catch_up, want, "stale bucketed resend draws the global");
        let report = server.join().unwrap();
        assert_eq!(report.syncs, 1);
        assert_eq!(report.final_params, want);
        assert!(report.evictions.is_empty(), "{:?}", report.evictions);
    }

    #[test]
    fn silent_worker_is_evicted_and_survivors_finish() {
        let n = 3;
        let steps = 8u64;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(1, Duration::from_millis(100), 2);
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![0.0], &cfg, |_| {}).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    let mut ps = calm_client(&ep, 1, n);
                    let mut dead_seen_at = None;
                    for step in 0..steps {
                        if id == 2 && step == 2 {
                            return dead_seen_at; // crash: drop the endpoint
                        }
                        let bit = u8::from(step == 5);
                        let status = ps.heartbeat(&mut ep, step, bit).unwrap();
                        if status[2] == STATUS_DEAD && dead_seen_at.is_none() {
                            dead_seen_at = Some(step);
                        }
                        if status.contains(&STATUS_SYNC) {
                            ps.sync(&mut ep, step, &[id as f32]).unwrap();
                        }
                    }
                    ps.shutdown(&mut ep, steps);
                    dead_seen_at
                })
            })
            .collect();
        let mut survivor_saw_death = Vec::new();
        for h in handles {
            if let Some(step) = h.join().unwrap() {
                survivor_saw_death.push(step);
            }
        }
        let report = server.join().unwrap();
        assert_eq!(report.evictions.len(), 1);
        let (evict_step, evicted_rank) = report.evictions[0];
        assert_eq!(evicted_rank, 2);
        assert!(
            (2..steps).contains(&evict_step),
            "evicted after its crash step, got {evict_step}"
        );
        assert_eq!(
            survivor_saw_death,
            vec![evict_step, evict_step],
            "both survivors saw the death in the eviction round's status"
        );
        assert_eq!(report.syncs, 1, "step-5 sync completed among survivors");
        // avg of ranks 0 and 1
        assert_eq!(report.final_params, vec![0.5]);
    }

    #[test]
    fn evicted_worker_can_rejoin_and_finish() {
        let n = 2;
        let steps = 100u64;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(1, Duration::from_millis(80), 2);
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![7.0], &cfg, |_| {}).unwrap()
        });
        let mut rejoiner = eps.pop().unwrap(); // rank 1
        let mut steady = eps.pop().unwrap(); // rank 0
        let steady_h = thread::spawn(move || {
            let mut ps = calm_client(&steady, 1, n);
            for step in 0..steps {
                ps.heartbeat(&mut steady, step, 0).unwrap();
                thread::sleep(Duration::from_millis(10));
            }
            ps.shutdown(&mut steady, steps);
        });
        let rejoin_h = thread::spawn(move || {
            let mut ps = calm_client(&rejoiner, 1, n);
            for step in 0..3u64 {
                ps.heartbeat(&mut rejoiner, step, 0).unwrap();
            }
            // go dark long enough to be evicted, then come back
            thread::sleep(Duration::from_millis(400));
            let grant = join_request(&mut rejoiner, n, REPLY).unwrap();
            assert_eq!(grant.params, vec![7.0], "no sync ran; global is the init");
            assert_eq!(grant.status[1], STATUS_ALIVE, "readmitted before resuming");
            assert!(grant.resume_step > 3);
            for step in grant.resume_step..steps {
                ps.heartbeat(&mut rejoiner, step, 0).unwrap();
            }
            ps.shutdown(&mut rejoiner, steps);
            grant.resume_step
        });
        steady_h.join().unwrap();
        let resume_step = rejoin_h.join().unwrap();
        let report = server.join().unwrap();
        assert_eq!(report.evictions.len(), 1);
        assert_eq!(report.evictions[0].1, 1);
        assert_eq!(report.joins, vec![(resume_step, 1)]);
        assert_eq!(
            report.rounds,
            steps + 1,
            "all rounds plus the shutdown round"
        );
    }

    /// A server that dies mid-sync (after consuming the pushes, before
    /// checkpoint/replies) and resumes from its last on_sync snapshot
    /// must complete the run with parameters bit-identical to a
    /// fault-free schedule: the re-sent pushes rebuild the interrupted
    /// average exactly.
    #[test]
    fn mid_sync_crash_resume_is_bit_identical() {
        let n = 2;
        let steps = 6u64;
        let mut eps = Fabric::new(n + 1);
        let mut server_ep = eps.pop().unwrap();
        let last_state: Arc<Mutex<Option<ServerState>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&last_state);
        let crash_cfg = ElasticConfig {
            crash: Some(ServerCrashPoint::MidSync(3)),
            ..server_cfg(1, Duration::from_millis(400), 5)
        };
        let resume_cfg = ElasticConfig {
            crash: None,
            ..crash_cfg.clone()
        };
        let server = thread::spawn(move || {
            let crashed = run_elastic_server(&mut server_ep, n, vec![0.0], &crash_cfg, |s| {
                *sink.lock().unwrap() = Some(s.clone());
            })
            .unwrap();
            assert!(crashed.crashed, "the scheduled crash must fire");
            assert_eq!(crashed.syncs, 3, "steps 0..2 synced before the crash");
            // "restart": resume on the same endpoint from the last
            // durable snapshot — exactly what --resume does from disk
            let state = last_state.lock().unwrap().clone().expect("snapshot");
            assert_eq!(state.step, 3, "snapshot is from the step-2 sync");
            run_elastic_server_from(&mut server_ep, state, &resume_cfg, |_| {}).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    // the push consumed by the dying server is re-sent
                    // every 250 ms until the resumed one answers
                    let mut ps = client(&ep, 1, n, None, Duration::from_millis(250), REPLY * 2);
                    for step in 0..steps {
                        let status = ps.heartbeat(&mut ep, step, 1).unwrap();
                        assert!(status.contains(&STATUS_SYNC));
                        let avg = ps
                            .sync(&mut ep, step, &[(id * 10) as f32 + step as f32])
                            .unwrap();
                        // avg of (0 + s, 10 + s) = 5 + s at every step
                        assert_eq!(&*avg, &[5.0 + step as f32], "step {step}");
                    }
                    ps.shutdown(&mut ep, steps);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.join().unwrap();
        assert!(!report.crashed);
        assert_eq!(report.syncs, steps, "every step synced exactly once");
        assert_eq!(
            report.final_params,
            vec![5.0 + (steps - 1) as f32],
            "resumed run ends on the fault-free average"
        );
        assert!(report.evictions.is_empty(), "{:?}", report.evictions);
    }

    /// A server resumed far behind its workers (flags arriving at future
    /// tags with nothing collected) fast-forwards to the workers' round
    /// instead of evicting everyone or erroring.
    #[test]
    fn resumed_server_fast_forwards_to_future_rounds() {
        let n = 2;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(1, Duration::from_millis(300), 3);
        // the server believes it is at step 0; workers start at step 5
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![1.0], &cfg, |_| {}).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mut ps = calm_client(&ep, 1, n);
                    for step in 5..8u64 {
                        ps.heartbeat(&mut ep, step, 0).unwrap();
                    }
                    ps.shutdown(&mut ep, 8);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.join().unwrap();
        assert!(report.evictions.is_empty(), "{:?}", report.evictions);
        assert_eq!(report.syncs, 0);
        assert_eq!(report.rounds, 9, "jumped to 5, ran 5..=8");
    }

    /// Clean shutdown retires the standby, which reports how many syncs
    /// it shadowed.
    #[test]
    fn standby_is_retired_on_clean_shutdown() {
        let n = 2;
        let steps = 4u64;
        let mut eps = Fabric::new(n + 2);
        let standby_ep = eps.pop().unwrap(); // rank 3
        let server_ep = eps.pop().unwrap(); // rank 2
        let cfg = ElasticConfig {
            standby: Some(n + 1),
            ..server_cfg(1, Duration::from_millis(400), 3)
        };
        let standby_cfg = cfg.clone();
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![0.0], &cfg, |_| {}).unwrap()
        });
        let standby = thread::spawn(move || {
            run_standby_server(
                standby_ep,
                n,
                n,
                vec![0.0],
                &standby_cfg,
                Duration::from_secs(20),
                |_| {},
            )
            .unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    let mut ps = client(&ep, 1, n, Some(n + 1), REPLY, REPLY);
                    for step in 0..steps {
                        let status = ps.heartbeat(&mut ep, step, 1).unwrap();
                        assert!(status.contains(&STATUS_SYNC));
                        ps.sync(&mut ep, step, &[id as f32]).unwrap();
                    }
                    ps.shutdown(&mut ep, steps);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.join().unwrap();
        assert_eq!(report.syncs, steps);
        match standby.join().unwrap() {
            StandbyOutcome::Retired { shadowed_syncs } => {
                assert_eq!(shadowed_syncs, steps, "every sync was shadowed");
            }
            StandbyOutcome::Promoted(_) => panic!("must not promote on a clean run"),
        }
    }

    /// The primary dies mid-run; once their patience on it is spent the
    /// workers' clients fail over to the standby rank, which promotes
    /// itself from the shadowed state and finishes the run with the
    /// fault-free averages.
    #[test]
    fn standby_promotes_when_workers_fail_over() {
        let n = 2;
        let steps = 6u64;
        let mut eps = Fabric::new(n + 2);
        let standby_ep = eps.pop().unwrap(); // rank 3
        let server_ep = eps.pop().unwrap(); // rank 2
        let cfg = ElasticConfig {
            standby: Some(n + 1),
            crash: Some(ServerCrashPoint::RoundStart(3)),
            ..server_cfg(1, Duration::from_millis(300), 5)
        };
        let standby_cfg = ElasticConfig {
            crash: None,
            ..cfg.clone()
        };
        let server = thread::spawn(move || {
            // endpoint dropped on return: the primary is truly dead
            run_elastic_server(server_ep, n, vec![0.0], &cfg, |_| {}).unwrap()
        });
        let standby = thread::spawn(move || {
            run_standby_server(
                standby_ep,
                n,
                n,
                vec![0.0],
                &standby_cfg,
                Duration::from_secs(20),
                |_| {},
            )
            .unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    let mut ps = client(
                        &ep,
                        1,
                        n,
                        Some(n + 1),
                        Duration::from_millis(250),
                        Duration::from_millis(600),
                    );
                    for step in 0..steps {
                        let status = ps.heartbeat(&mut ep, step, 1).unwrap();
                        assert!(status.contains(&STATUS_SYNC));
                        let avg = ps
                            .sync(&mut ep, step, &[(id * 10) as f32 + step as f32])
                            .unwrap();
                        assert_eq!(&*avg, &[5.0 + step as f32], "step {step}");
                    }
                    ps.shutdown(&mut ep, steps);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let primary = server.join().unwrap();
        assert!(primary.crashed);
        assert_eq!(primary.syncs, 3, "steps 0..2 synced before the crash");
        match standby.join().unwrap() {
            StandbyOutcome::Promoted(report) => {
                assert!(!report.crashed);
                assert_eq!(report.syncs, steps, "shadowed 3 + ran 3 more");
                assert_eq!(report.final_params, vec![5.0 + (steps - 1) as f32]);
                assert!(report.evictions.is_empty(), "{:?}", report.evictions);
            }
            StandbyOutcome::Retired { .. } => panic!("standby must be promoted"),
        }
    }

    /// `average` zips its inputs, so a push shorter than the server's
    /// range would silently truncate the round: the server must refuse
    /// it, whether it arrives whole or as a bucket set.
    #[test]
    fn wrong_length_push_errors_the_server() {
        for bucketed in [false, true] {
            let mut eps = Fabric::new(2);
            let server_ep = eps.pop().unwrap();
            let w = eps.pop().unwrap();
            let cfg = server_cfg(3, Duration::from_millis(400), 3);
            let server =
                thread::spawn(move || run_elastic_server(server_ep, 1, vec![0.0; 3], &cfg, |_| {}));
            let tag = phase_tag(0, SYNC_PHASE);
            if bucketed {
                for p in crate::bucket::bucket_payloads(&[1.0, 2.0], 1) {
                    w.send(1, tag, p).unwrap();
                }
            } else {
                w.send(1, tag, Payload::ShardPush(vec![1.0, 2.0])).unwrap();
            }
            let err = server.join().unwrap().unwrap_err();
            assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        }
    }

    /// Only workers converse with a shard's server; traffic from any
    /// other rank (here: a sibling shard of a K = 2 group) is a wiring
    /// fault the server reports instead of indexing its membership with.
    #[test]
    fn foreign_rank_traffic_is_a_protocol_error() {
        let n = 1;
        let mut eps = Fabric::new(n + 2);
        let sibling = eps.pop().unwrap(); // rank 2
        let server_ep = eps.pop().unwrap(); // rank 1
        let cfg = server_cfg(1, Duration::from_millis(400), 3);
        let server =
            thread::spawn(move || run_elastic_server(server_ep, n, vec![0.0], &cfg, |_| {}));
        sibling
            .send(1, phase_tag(0, FLAGS_PHASE), Payload::Flags(vec![0]))
            .unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
    }

    /// The eviction rule replayed as the pure function it is: a worker
    /// is dead once it has missed `max_missed` consecutive heartbeat
    /// rounds. `history[round][worker]` is `Some(bit)` if the worker's
    /// flag arrived that round.
    fn replay_survivors(history: &[Vec<Option<u8>>], max_missed: u32) -> Vec<bool> {
        let n = history[0].len();
        let mut missed = vec![0u32; n];
        let mut alive = vec![true; n];
        for round in history {
            for w in 0..n {
                if !alive[w] {
                    continue;
                }
                match round[w] {
                    Some(_) => missed[w] = 0,
                    None => {
                        missed[w] += 1;
                        if missed[w] >= max_missed {
                            alive[w] = false;
                        }
                    }
                }
            }
        }
        alive
    }

    /// Every shard server applies the same membership rule to the same
    /// flags history, so K independent replicas of the decision agree —
    /// and so do everything downstream of it: the survivor list, each
    /// survivor's partition slot, and the parameter shard map. This is
    /// the agreement argument that lets the sharded PS group skip any
    /// cross-shard membership consensus.
    #[test]
    fn independent_replays_agree_on_survivors_slots_and_shard_map() {
        let n = 5;
        // worker 2 goes silent at round 3, worker 4 flaps but recovers
        let history: Vec<Vec<Option<u8>>> = (0..10u64)
            .map(|r| {
                (0..n)
                    .map(|w| {
                        if (w == 2 && r >= 3) || (w == 4 && r % 3 == 1) {
                            None
                        } else {
                            Some(u8::from(r % 2 == 0))
                        }
                    })
                    .collect()
            })
            .collect();
        // replica A: batch replay of the full history; replica B: the
        // same rule applied incrementally, one round at a time
        let a = replay_survivors(&history, 2);
        let mut b = vec![true; n];
        for upto in 1..=history.len() {
            b = replay_survivors(&history[..upto], 2);
        }
        assert_eq!(a, b, "replicas of the eviction rule must agree");
        assert_eq!(a, vec![true, true, false, true, true]);

        // identical survivor sets => identical sorted survivor lists and
        // partition slots (the cursor-rebuild rule: slot = index of the
        // worker among the sorted survivors)
        let survivors = |alive: &[bool]| -> Vec<usize> { (0..n).filter(|&w| alive[w]).collect() };
        let (sa, sb) = (survivors(&a), survivors(&b));
        assert_eq!(sa, sb);
        for &w in &sa {
            assert_eq!(
                sa.binary_search(&w).unwrap(),
                sb.binary_search(&w).unwrap(),
                "worker {w} must land in the same partition slot"
            );
        }
        // ... and identical shard maps, since the map is a pure function
        // of (total, k) — membership changes never move range boundaries
        for k in [1, 2, 4] {
            assert_eq!(shard_starts(1000, k), shard_starts(1000, k));
        }
    }

    #[test]
    fn shard_starts_partitions_evenly_and_handles_edges() {
        assert_eq!(shard_starts(10, 1), vec![0]);
        assert_eq!(shard_starts(10, 4), vec![0, 3, 6, 9]);
        assert_eq!(shard_starts(8, 4), vec![0, 2, 4, 6]);
        // more shards than elements: trailing shards own empty ranges
        assert_eq!(shard_starts(2, 4), vec![0, 1, 2, 2]);
        assert_eq!(shard_starts(0, 2), vec![0, 0]);
    }

    /// Workers that stall together (e.g. on a sibling shard's recovery)
    /// and come back many round-timeouts later must return as *current*
    /// traffic: an empty round is a liveness tick, not a round, so the
    /// server's step may not free-run ahead of them. Under the old
    /// clock-driven advancement the step-2 flags below would arrive
    /// stale, their sync bits would be dropped from the status reply,
    /// and the sync could never complete.
    #[test]
    fn server_step_does_not_free_run_past_stalled_workers() {
        let n = 2;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        // plenty of miss budget: the stall must age, not evict
        let cfg = server_cfg(2, Duration::from_millis(60), 50);
        let server = thread::spawn(move || {
            run_elastic_server(server_ep, n, vec![0.0; 2], &cfg, |_| {}).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    let mut ps = calm_client(&ep, 2, n);
                    for step in 0..2u64 {
                        ps.heartbeat(&mut ep, step, 0).unwrap();
                    }
                    // both workers go dark for ~7 empty round-timeouts
                    thread::sleep(Duration::from_millis(400));
                    let status = ps.heartbeat(&mut ep, 2, 1).unwrap();
                    assert!(
                        status.contains(&STATUS_SYNC),
                        "sync bit after the stall must survive into the status, got {status:?}"
                    );
                    let avg = ps.sync(&mut ep, 2, &[id as f32; 2]).unwrap();
                    assert_eq!(
                        &*avg,
                        &[0.5, 0.5],
                        "post-stall sync must average both replicas"
                    );
                    ps.shutdown(&mut ep, 3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.join().unwrap();
        assert!(report.evictions.is_empty(), "{:?}", report.evictions);
        assert_eq!(report.syncs, 1);
        assert!(
            report.rounds <= 4,
            "the stall must not inflate the round counter, got {}",
            report.rounds
        );
    }
}
