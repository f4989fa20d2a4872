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
//! ## Events and actions
//!
//! Every protocol decision is made in the private `core` module, a pure
//! state machine fed one event at a time with the time passed in; one
//! receive loop performs the actions it asks for, in order, for the
//! primary, a resumed server and the standby ([`run_standby_server`])
//! alike. At step `s`, with `ftag`/`stag` the tags of its flags
//! ([`FLAGS_PHASE`](crate::collectives::FLAGS_PHASE)) and sync
//! ([`SYNC_PHASE`]) rounds:
//!
//! | event | phase | action |
//! |---|---|---|
//! | `Control(CTRL_JOIN)` at [`JOIN_TAG`] | any | at the step boundary, grant `Control(s + 1)`, `Params(global)`, `Flags(status)` |
//! | `ShardMap` at [`SHARD_MAP_TAG`] | any | echo this server's map |
//! | `Control(step)`, `Params`, `Flags(membership)` at [`STANDBY_TAG`] | shadow | commit the primary's state after that sync (a torn triple commits nothing); `Control(STANDBY_RETIRE)` retires |
//! | a message from a rank that is not a worker | serving | `Protocol` error |
//! | `Flags` from an evicted worker | serving | reply a status marking it [`STATUS_DEAD`] |
//! | `Control(CTRL_SHUTDOWN)`, any tag | serving | mark the worker done |
//! | `Flags` at `ftag` | flags | record its bit (in the sync window: drop, a resend into a closed round) |
//! | `ShardPush` or a completed `Bucket` set at `stag` | serving | count the push (before the sync window: an *early push*) |
//! | `Flags` below `ftag` | serving | catch-up status: the sender [`STATUS_MISSED`], no sync bits |
//! | `ShardPush` below `ftag` | serving | reply `ShardPull(global)` |
//! | `Flags` or `ShardPush` above `ftag` | serving | buffer; with nothing collected in the flags phase, fast-forward to the earliest buffered step |
//! | any other payload | serving | `Protocol` error |
//! | silence | shadow | promote if worker traffic is buffered; retire after `max_silence` |
//! | silence, grace window open | serving | nothing |
//! | silence | flags | age silent workers' misses, evict at `max_missed`; close the round only if someone joined it or was evicted (an empty round is a liveness tick) |
//! | silence, 1 (K = 1) or `max_missed` (K > 1) times running | sync | evict the members that did not push, close the window |
//! | every live worker heard | flags | status to each flag sender; a [`STATUS_SYNC`] opens the sync window, else the next step |
//! | every live member pushed | sync | rank-order average, `on_sync`, shadow triple, `ShardPull` to each pusher, joins, next step |
//! | an evicting send (status, pull, grant) finds its peer gone | serving | evict the peer at the send's step |
//!
//! ## Recovery
//!
//! [`run_elastic_server_from`] restarts the server from a [`ServerState`]
//! (a durable checkpoint, or a standby's shadow). Because `on_sync` fires
//! *before* the sync replies go out, a restart always finds its workers
//! in one of three places, and the table reconciles each: blocked in a
//! **later flags round** (their future flags fast-forward the server);
//! **mid-sync at the resumed round** (their re-sent pushes arrive early
//! and rebuild the interrupted average bit for bit); or **mid-sync at the
//! round before** (their stale pushes draw the recovered global, which
//! *is* that round's average). A standby is promoted only once workers
//! address it, after their failover patience on the primary expires
//! ([`ShardClientConfig::failover_stall`](crate::shard::ShardClientConfig::failover_stall)).

mod core;

use self::core::{Action, Core};
use crate::error::TransportError;
use crate::fabric::{FlatVec, Payload, ShardSpec};
use crate::ps::CTRL_JOIN;
use crate::transport::Transport;
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

/// Run the elastic parameter server from `state`: [`ServerState::fresh`]
/// for a new run, a recovered state for a checkpoint resume. See the
/// module docs for the three worker configurations a restart can find
/// and how each is reconciled. `on_sync(state)` fires after each
/// completed sync round, *before* the sync replies go out — wire it to a
/// checkpoint writer so a killed server restarts from its last durable
/// sync.
///
/// # Errors
/// Propagates unrecoverable transport faults ([`TransportError::Closed`])
/// and protocol violations. Dead *workers* are not errors — they are
/// evicted and reported in the returned [`ElasticReport`].
pub fn run_elastic_server_from<T, F>(
    mut ep: T,
    state: ServerState,
    cfg: &ElasticConfig,
    on_sync: F,
) -> Result<ElasticReport, TransportError>
where
    T: Transport,
    F: FnMut(&ServerState),
{
    let mut core = Core::server(state, cfg, Instant::now());
    serve(&mut ep, &mut core, on_sync)?;
    Ok(core.into_report())
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
/// redirect here after their failover patience on the primary expires).
/// While waiting, worker messages stay buffered in the transport, so
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
    let now = Instant::now();
    let mut core = Core::standby(n_workers, primary, init_params, cfg, max_silence, now);
    serve(&mut ep, &mut core, on_sync)?;
    Ok(match core.retired() {
        Some(shadowed_syncs) => StandbyOutcome::Retired { shadowed_syncs },
        None => StandbyOutcome::Promoted(core.into_report()),
    })
}

/// The one receive loop: perform the core's outbox in order, then
/// receive as it asks and feed it the message or the silence, until it
/// has nothing left to wait for.
fn serve<T, F>(ep: &mut T, core: &mut Core, mut on_sync: F) -> Result<(), TransportError>
where
    T: Transport,
    F: FnMut(&ServerState),
{
    let mut wait = core.wait();
    loop {
        while let Some(action) = core.outbox.pop_front() {
            match action {
                Action::Durable(state) => on_sync(&state),
                Action::Send {
                    to,
                    tag,
                    payload,
                    evict_at,
                } => match (ep.send(to, tag, payload), evict_at) {
                    (Ok(()), _) | (Err(_), None) => {}
                    (Err(TransportError::PeerUnreachable { .. }), Some(step)) => {
                        wait = core.on_unreachable(to, step);
                    }
                    (Err(e), Some(_)) => return Err(e),
                },
            }
        }
        let Some(w) = wait else {
            return Ok(());
        };
        let timeout = w.deadline.saturating_duration_since(Instant::now());
        wait = match ep.recv_deadline(w.from, w.tag, timeout) {
            Ok(m) => core.on_msg(m, Instant::now())?,
            Err(TransportError::RecvTimeout { buffered, .. }) => {
                core.on_silence(buffered, Instant::now())
            }
            Err(e) => return Err(e),
        };
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
    let mut next = || ep.recv_deadline(Some(server), Some(JOIN_TAG), reply_timeout);
    let malformed = |want: &str, got: Payload| {
        TransportError::Protocol(format!("join grant: expected {want}, got {got:?}"))
    };
    let resume_step = match next()?.payload {
        Payload::Control(s) => s,
        p => return Err(malformed("Control(resume_step)", p)),
    };
    let params = match next()?.payload {
        Payload::Params(v) => v,
        Payload::SharedParams(a) => FlatVec::Shared(a).into_vec(),
        p => return Err(malformed("Params", p)),
    };
    let status = match next()?.payload {
        Payload::Flags(s) => s,
        p => return Err(malformed("Flags", p)),
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
    use crate::collectives::{phase_tag, FLAGS_PHASE};
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

    /// A sync reassembles the group's reply in the pushed buffer itself,
    /// so a worker that keeps its buffer across steps syncs without
    /// allocating: consecutive syncs leave it where it was.
    #[test]
    fn consecutive_syncs_reuse_the_callers_buffer() {
        let n = 1;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(3, Duration::from_millis(500), 3);
        let server = thread::spawn(move || {
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0; 3]), &cfg, |_| {})
                .unwrap()
        });
        let mut ep = eps.pop().unwrap();
        let mut ps = calm_client(&ep, 3, n);
        let mut params = vec![1.0, 2.0, 3.0];
        let buffer = (params.as_ptr(), params.capacity());
        for step in 0..2u64 {
            let status = ps.heartbeat(&mut ep, step, 1).unwrap();
            assert!(status.contains(&STATUS_SYNC));
            ps.sync(&mut ep, step, &mut params).unwrap();
            assert_eq!((params.as_ptr(), params.capacity()), buffer, "step {step}");
            for v in &mut params {
                *v += 1.0;
            }
        }
        ps.shutdown(&mut ep, 2);
        let report = server.join().unwrap();
        assert_eq!(report.syncs, 2);
        // the one member's second push is the global
        assert_eq!(report.final_params, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn periodic_sync_rounds_average_across_members() {
        let n = 3;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let cfg = server_cfg(4, Duration::from_millis(500), 3);
        let server = thread::spawn(move || {
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0; 4]), &cfg, |_| {})
                .unwrap()
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
                            last_sync = vec![id as f32; 4];
                            ps.sync(&mut ep, step, &mut last_sync).unwrap();
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0; 5]), &cfg, |_| {})
                .unwrap()
        });
        let mut bucketed = eps.pop().unwrap(); // rank 1
        let mut whole = eps.pop().unwrap(); // rank 0
        let whole_h = thread::spawn(move || {
            let mut ps = calm_client(&whole, 5, n);
            let status = ps.heartbeat(&mut whole, 0, 1).unwrap();
            assert!(status.contains(&STATUS_SYNC));
            let mut avg = vec![1.0; 5];
            ps.sync(&mut whole, 0, &mut avg).unwrap();
            ps.shutdown(&mut whole, 1);
            avg
        });
        let bucketed_h = thread::spawn(move || {
            let mut ps = ShardedPsClient::new(
                bucketed.id(),
                one_shard(5),
                &[n],
                None,
                ShardClientConfig {
                    reply_timeout: REPLY,
                    comm_retries: 3,
                    ps_patience: REPLY,
                    bucket: Some(2),
                },
            );
            let status = ps.heartbeat(&mut bucketed, 0, 1).unwrap();
            assert!(status.contains(&STATUS_SYNC));
            let params = [2.0, 4.0, 6.0, 8.0, 10.0];
            let mut avg = params.to_vec();
            ps.sync(&mut bucketed, 0, &mut avg).unwrap();
            // simulate a lost reply: resend the whole set; the server
            // answers the stale push with the current global
            let mut catch_up = params.to_vec();
            ps.sync(&mut bucketed, 0, &mut catch_up).unwrap();
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0]), &cfg, |_| {})
                .unwrap()
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
                            ps.sync(&mut ep, step, &mut [id as f32]).unwrap();
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![7.0]), &cfg, |_| {})
                .unwrap()
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
            let crashed = run_elastic_server_from(
                &mut server_ep,
                ServerState::fresh(n, vec![0.0]),
                &crash_cfg,
                |s| {
                    *sink.lock().unwrap() = Some(s.clone());
                },
            )
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
                        let mut avg = vec![(id * 10) as f32 + step as f32];
                        ps.sync(&mut ep, step, &mut avg).unwrap();
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![1.0]), &cfg, |_| {})
                .unwrap()
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0]), &cfg, |_| {})
                .unwrap()
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
                        ps.sync(&mut ep, step, &mut [id as f32]).unwrap();
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0]), &cfg, |_| {})
                .unwrap()
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
                        let mut avg = vec![(id * 10) as f32 + step as f32];
                        ps.sync(&mut ep, step, &mut avg).unwrap();
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
            let server = thread::spawn(move || {
                run_elastic_server_from(
                    server_ep,
                    ServerState::fresh(1, vec![0.0; 3]),
                    &cfg,
                    |_| {},
                )
            });
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
        let server = thread::spawn(move || {
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0]), &cfg, |_| {})
        });
        sibling
            .send(1, phase_tag(0, FLAGS_PHASE), Payload::Flags(vec![0]))
            .unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
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
            run_elastic_server_from(server_ep, ServerState::fresh(n, vec![0.0; 2]), &cfg, |_| {})
                .unwrap()
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
                    let mut avg = vec![id as f32; 2];
                    ps.sync(&mut ep, 2, &mut avg).unwrap();
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
