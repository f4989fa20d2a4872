//! Elastic fault-tolerant training: the worker and server ranks of one
//! **elastic PS group**, built on the `selsync-comm` elastic membership
//! protocol.
//!
//! There is one elastic deployment: W workers and a group of K elastic
//! servers, each owning one contiguous range of the flat parameter
//! vector (K = 1 unless the launcher says otherwise — one server owning
//! everything), optionally with one hot standby per server. Ranks are
//! laid out workers-first ([`ShardLayout`]). Every step's flags exchange
//! routes through the group and doubles as a heartbeat
//! ([`selsync_comm::elastic`]); workers reach it through the fan-out
//! client ([`ShardedPsClient`]).
//!
//! One loop, two deployments: an elastic worker runs the static trainer's
//! step loop ([`crate::trainer`]), with its flags round, its parameter
//! sync and three hooks routed here through `ElasticWorker`. This
//! module adds the training side of the protocol:
//!
//! - **Eviction tolerance**: when the status vector reports a rank dead,
//!   the survivors deterministically *re-partition* the dataset over the
//!   remaining members and keep training — no barrier ever waits on a
//!   corpse.
//! - **Checkpointing**: each server writes its range of the global
//!   parameters to disk (via [`crate::checkpoint`], at
//!   [`shard_state_path`]) after every completed sync round, so one
//!   server can crash, resume from its own file or promote its standby,
//!   and catch its workers up while its siblings keep serving.
//! - **Rejoin**: an evicted or restarted worker warm-starts from the
//!   parameters carried by the servers' join grants, resumes at the
//!   server-assigned step, and re-enters the membership.
//!
//! Scheduled crashes ([`ElasticOptions::crash_at`]) are enforced here —
//! the worker goes silent just before the given step — because a
//! transport wrapper cannot kill its owner; the chaos layer only
//! *schedules* crashes.

use crate::checkpoint;
use crate::config::RunConfig;
use crate::trainer::{train, validate, AnyOptimizer, Deployment, Start, WorkerOutput};
use crate::workload::{AnyModel, Workload};
use selsync_comm::elastic::{
    join_request, run_elastic_server_from, run_standby_server, ElasticConfig, ElasticReport,
    ServerCrashPoint, ServerState, StandbyOutcome, STATUS_DEAD, STATUS_SYNC,
};
use selsync_comm::shard::{ShardClientConfig, ShardedPsClient};
use selsync_comm::{Transport, TransportError};
use selsync_nn::flat::flat_params;
use selsync_shard::{Role, ShardLayout, ShardMap};
use selsync_stats::RelativeGradChange;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Knobs of an elastic run, shared by the server and worker ranks.
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Server-side silence deadline per collection round; must
    /// comfortably exceed one training step.
    pub round_timeout: Duration,
    /// Worker-side wait for a server reply; must exceed
    /// `round_timeout × (max_missed + 1)` so a round stalled on a dying
    /// peer is not mistaken for a dead server.
    pub reply_timeout: Duration,
    /// Consecutive missed rounds before the server evicts a rank.
    pub max_missed: u32,
    /// Worker-side resend attempts after a reply timeout (a lossy
    /// network can eat a heartbeat; the server answers stale resends
    /// with catch-up replies).
    pub comm_retries: u32,
    /// Server: write a crash-consistent v2 state checkpoint after every
    /// sync, at [`shard_state_path`] of this base path. A restarted
    /// server resumes from it, and each worker mirrors its own private
    /// state next to it (see [`worker_state_path`]).
    pub checkpoint: Option<PathBuf>,
    /// Worker: go silent just before this step (scheduled crash).
    pub crash_at: Option<u64>,
    /// Worker: per-server budget for re-reaching a silent or unreachable
    /// server (resend with capped-backoff redials) before failing over
    /// to its standby — or, without one, giving up with the transport
    /// error. Failover fires at the first `reply_timeout` by which the
    /// server has also been resent `comm_retries` times, so a dead
    /// server stalls a worker for
    /// [`ShardClientConfig::failover_stall`]: with
    /// [`ElasticOptions::with_liveness`], four reply timeouts plus three
    /// redial pauses, past this budget.
    pub ps_patience: Duration,
    /// Server: die at a scheduled point (chaos/fault experiments).
    pub server_crash: Option<ServerCrashPoint>,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions::with_liveness(Duration::from_millis(500), 3)
    }
}

impl ElasticOptions {
    /// Build options with a consistent worker reply deadline derived
    /// from the server's liveness policy.
    pub fn with_liveness(round_timeout: Duration, max_missed: u32) -> Self {
        let reply_timeout = round_timeout * (max_missed + 2);
        ElasticOptions {
            round_timeout,
            reply_timeout,
            max_missed,
            comm_retries: 3,
            checkpoint: None,
            crash_at: None,
            ps_patience: reply_timeout * 3,
            server_crash: None,
        }
    }
}

fn with_suffix(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(suffix);
    base.with_file_name(name)
}

/// Where worker `rank` mirrors its private training state (optimizer
/// slots, Δ(g) stream, cursor position) relative to the run's base
/// checkpoint path: `<ckpt>.w<rank>`.
pub fn worker_state_path(base: &Path, rank: usize) -> PathBuf {
    with_suffix(base, &format!(".w{rank}"))
}

/// Where shard `s` keeps its durable state (and its `--save-params`
/// output) relative to the run's base path — the one naming rule: the
/// only server of a K = 1 group writes the base path itself, a K ≥ 2
/// group writes one `<base>.s<s>` per shard (each with its own `.prev`
/// generation). One file per shard is what makes recovery independent:
/// a crashed shard resumes from *its* last sync without touching its
/// siblings' files.
pub fn shard_state_path(base: &Path, layout: &ShardLayout, s: usize) -> PathBuf {
    if layout.k == 1 {
        base.to_path_buf()
    } else {
        with_suffix(base, &format!(".s{s}"))
    }
}

/// The partition map every rank of an elastic run computes: the model's
/// flat parameter count split over the layout's K shards.
pub fn shard_map_for(workload: &Workload, layout: &ShardLayout) -> ShardMap {
    let total = flat_params(workload.build_model().as_visitor()).len() as u64;
    ShardMap::compute(total, layout.k)
}

/// Launch-time wiring check: the index `rank` holds under the role
/// `want` (`Role::Shard`, `Role::Worker` or `Role::Standby`). A rank
/// started under the wrong role must die loudly before serving.
fn expect_role(rank: usize, layout: &ShardLayout, want: fn(usize) -> Role) -> usize {
    let is = layout.role_of(rank);
    let (Role::Shard(i) | Role::Worker(i) | Role::Standby(i)) = is;
    assert_eq!(is, want(i), "rank {rank} was launched under the wrong role");
    i
}

/// Ranks a status vector reports as members (anything but dead — a rank
/// that merely missed a round is still in the membership).
fn alive_ranks(status: &[u8]) -> Vec<usize> {
    status
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s != STATUS_DEAD)
        .map(|(i, _)| i)
        .collect()
}

/// What one server-side rank — a shard's server or its standby — derives
/// from the launch: which shard it holds, that shard's slice of the
/// seeded initial parameters, its liveness policy, and its checkpoint
/// file.
struct ShardSeat {
    shard: usize,
    init: Vec<f32>,
    cfg: ElasticConfig,
    checkpoint: Option<PathBuf>,
}

fn shard_seat(
    rank: usize,
    role: fn(usize) -> Role,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: &ShardLayout,
) -> ShardSeat {
    validate(config, workload, Some(layout));
    let shard = expect_role(rank, layout, role);
    let full = flat_params(workload.build_model().as_visitor());
    let map = ShardMap::compute(full.len() as u64, layout.k);
    let mut cfg = ElasticConfig {
        round_timeout: opts.round_timeout,
        max_missed: opts.max_missed,
        standby: layout.standby.then(|| layout.standby_rank(shard)),
        crash: opts.server_crash,
        ..ElasticConfig::new(map.spec().clone())
    };
    if map.k() > 1 {
        // Widen the eviction budget to cover a *sibling* shard's
        // recovery window. A worker whose fan-out is stalled on a dead
        // shard goes silent toward the healthy shards until its client
        // fails over (`failover_stall`), and the dead shard's standby
        // needs up to one more round to notice the traffic and promote;
        // without this allowance the healthy shards would read that
        // stall as worker death and evict the whole cluster. The only
        // server of a K = 1 group has no sibling to wait for and keeps
        // `max_missed` as given. Fault-free rounds never accumulate
        // misses, so this only slows eviction of genuinely dead workers
        // by the failover window (DESIGN.md §10).
        let window = client_config(opts, None).failover_stall() + opts.round_timeout;
        let round = opts.round_timeout.as_nanos().max(1);
        let stall_rounds = u32::try_from(window.as_nanos().div_ceil(round)).unwrap_or(u32::MAX);
        cfg.max_missed = cfg.max_missed.saturating_add(stall_rounds);
    }
    ShardSeat {
        shard,
        init: map.slice(&full, shard).to_vec(),
        cfg,
        checkpoint: opts
            .checkpoint
            .as_ref()
            .map(|p| shard_state_path(p, layout, shard)),
    }
}

/// The write-ahead checkpoint hook: persist every completed sync round's
/// server state as a v2 checkpoint before any worker can see the round's
/// result. Best effort — a full disk must not take the cluster down.
fn server_checkpoint_writer(seed: u64, ckpt: Option<PathBuf>) -> impl FnMut(&ServerState) {
    move |state: &ServerState| {
        if let Some(path) = &ckpt {
            let ts = checkpoint::TrainState {
                step: state.step,
                syncs: state.syncs,
                rounds: state.step,
                seed,
                cursor_consumed: 0,
                optim_t: 0,
                params: state.global.clone(),
                alive: state.alive.clone(),
                done: state.done.clone(),
                evictions: state.evictions.clone(),
                joins: state.joins.clone(),
                optim_slots: Vec::new(),
                delta_state: None,
            };
            let _ = checkpoint::save_state(path, &ts);
        }
    }
}

/// Run one server of the elastic PS group — the shard `layout` assigns
/// to this rank. Blocks until every member has finished or been evicted;
/// returns this shard's membership history and final range parameters.
///
/// # Errors
/// Propagates unrecoverable transport faults; dying *workers* are not
/// errors — they are evicted and reported in the [`ElasticReport`].
pub fn run_elastic_server_rank<T: Transport>(
    ep: T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: ShardLayout,
) -> Result<ElasticReport, TransportError> {
    let seat = shard_seat(ep.id(), Role::Shard, config, workload, opts, &layout);
    run_elastic_server_from(
        ep,
        ServerState::fresh(config.n_workers, seat.init),
        &seat.cfg,
        server_checkpoint_writer(config.seed, seat.checkpoint),
    )
}

/// Restart one server of the group from its recovered
/// [`checkpoint::TrainState`] (the durable image of its last completed
/// sync, loaded from [`shard_state_path`]): training on this range
/// continues from that sync boundary, reconciling workers wherever the
/// crash left them (see
/// [`selsync_comm::elastic::run_elastic_server_from`]), while any
/// sibling shards keep serving uninterrupted.
///
/// # Errors
/// As [`run_elastic_server_rank`].
pub fn run_elastic_server_rank_from<T: Transport>(
    ep: T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: ShardLayout,
    state: &checkpoint::TrainState,
) -> Result<ElasticReport, TransportError> {
    let mut seat = shard_seat(ep.id(), Role::Shard, config, workload, opts, &layout);
    assert_eq!(
        state.params.len(),
        seat.init.len(),
        "checkpoint holds a different range than shard {} owns",
        seat.shard
    );
    assert_eq!(
        state.alive.len(),
        config.n_workers,
        "checkpoint membership must match the configured worker count"
    );
    // the workers' in-flight rounds died with the old server: hold off
    // liveness judgements until their resends can possibly arrive.
    // Two reply windows, not one — a resend written into the dying
    // kernel socket before the reset surfaces is silently lost, and
    // the worker only notices one full reply timeout later.
    seat.cfg.resume_grace = opts.reply_timeout * 2 + opts.round_timeout;
    run_elastic_server_from(
        ep,
        ServerState {
            step: state.step,
            syncs: state.syncs,
            global: state.params.clone(),
            alive: state.alive.clone(),
            done: state.done.clone(),
            evictions: state.evictions.clone(),
            joins: state.joins.clone(),
        },
        &seat.cfg,
        server_checkpoint_writer(config.seed, seat.checkpoint),
    )
}

/// Run one shard's hot standby: shadow that shard's sync state, promote
/// to a full server if its workers fail over here, and keep writing the
/// shard's checkpoint once promoted.
///
/// # Errors
/// Propagates unrecoverable transport faults.
pub fn run_standby_server_rank<T: Transport>(
    ep: T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: ShardLayout,
) -> Result<StandbyOutcome, TransportError> {
    let mut seat = shard_seat(ep.id(), Role::Standby, config, workload, opts, &layout);
    // once promoted, wait out the failover skew: workers switch over one
    // by one as their individual patience budgets run dry
    seat.cfg.resume_grace = opts.ps_patience + opts.reply_timeout;
    // outlive every worker's failover budget before concluding the
    // whole cluster is gone
    let max_silence = (opts.ps_patience + opts.reply_timeout) * 3;
    run_standby_server(
        ep,
        config.n_workers,
        layout.shard_rank(seat.shard),
        seat.init,
        &seat.cfg,
        max_silence,
        server_checkpoint_writer(config.seed, seat.checkpoint),
    )
}

/// The workers' client policy: built in one place, so the servers size
/// their sibling allowance from exactly the failover the clients run.
fn client_config(opts: &ElasticOptions, bucket: Option<usize>) -> ShardClientConfig {
    ShardClientConfig {
        reply_timeout: opts.reply_timeout,
        comm_retries: opts.comm_retries,
        ps_patience: opts.ps_patience,
        bucket,
    }
}

/// Run one elastic worker rank from step 0: prove map agreement with
/// every shard, then train with fan-out rounds. Takes the endpoint by
/// mutable reference (unlike the static-membership trainer) so a
/// scheduled crash can later [`rejoin_elastic_worker_rank`] on the same
/// endpoint.
///
/// # Errors
/// [`TransportError::Evicted`] if any shard expelled this rank (it may
/// rejoin); [`TransportError::Protocol`] if the map handshake fails;
/// other variants on unrecoverable comm faults.
pub fn run_elastic_worker_rank<T: Transport>(
    ep: &mut T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: ShardLayout,
) -> Result<WorkerOutput, TransportError> {
    elastic_worker(ep, config, workload, opts, &layout, false).map(|(_, out)| out)
}

/// Re-admit this rank into a running elastic experiment: request a join
/// grant from every shard, assemble the warm-start parameters from the
/// per-range grants, and resume at shard 0's assigned step with its
/// granted membership (shard 0 is the authoritative membership view),
/// then train to the end. Returns the resume step alongside the worker
/// output.
///
/// # Errors
/// `RecvTimeout` if any shard never grants the join (training already
/// over); otherwise as [`run_elastic_worker_rank`].
pub fn rejoin_elastic_worker_rank<T: Transport>(
    ep: &mut T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: ShardLayout,
) -> Result<(u64, WorkerOutput), TransportError> {
    elastic_worker(ep, config, workload, opts, &layout, true)
}

/// Both worker entry points: join the group (from step 0, or through
/// join grants when `rejoin`), prove map agreement with every shard
/// before any parameter traffic flows, then run the training loop.
fn elastic_worker<T: Transport>(
    ep: &mut T,
    config: &RunConfig,
    workload: &Workload,
    opts: &ElasticOptions,
    layout: &ShardLayout,
    rejoin: bool,
) -> Result<(u64, WorkerOutput), TransportError> {
    validate(config, workload, Some(layout));
    let worker = expect_role(ep.id(), layout, Role::Worker);
    let map = shard_map_for(workload, layout);
    let mut start = Start {
        step: 0,
        members: (0..config.n_workers).collect(),
        params: None,
    };
    let mut private = None;
    if rejoin {
        let mut init = vec![0.0f32; map.total() as usize];
        for s in 0..layout.k {
            let grant = join_request(ep, layout.shard_rank(s), opts.reply_timeout)?;
            let range = map.range(s);
            if grant.params.len() != range.len() {
                return Err(TransportError::Protocol(format!(
                    "shard {s} join grant carried {} params, its range holds {}",
                    grant.params.len(),
                    range.len()
                )));
            }
            init[range].copy_from_slice(&grant.params);
            if s == 0 {
                start.members = alive_ranks(&grant.status);
                start.step = grant.resume_step;
            }
        }
        start.params = Some(init);
        // this rank's private state (optimizer slots, Δ(g) stream)
        // survives in its own mirror file; the granted parameters stay
        // authoritative
        private = opts
            .checkpoint
            .as_ref()
            .and_then(|p| checkpoint::load_state_with_fallback(worker_state_path(p, worker)).ok())
            .map(|(s, _)| s);
    }
    let mut client = ShardedPsClient::new(
        worker,
        map.spec().clone(),
        &layout.shard_ranks(),
        layout.standby_ranks().as_deref(),
        // per-shard Bucket frames; each shard reassembles its range
        client_config(opts, config.overlap_buckets),
    );
    client.handshake(ep)?;
    let resume_step = start.step;
    let dep = Deployment::Elastic(Box::new(ElasticWorker {
        client,
        crash_at: opts.crash_at,
        mirror_path: opts
            .checkpoint
            .as_ref()
            .map(|p| worker_state_path(p, worker)),
        seed: config.seed,
        n_workers: config.n_workers,
        private,
        consumed: 0,
    }));
    Ok((resume_step, train(ep, config, workload, dep, start)?))
}

/// The elastic arm of a worker's [`Deployment`]: its client onto the
/// group, plus the three things only an elastic worker does — a
/// scheduled crash, restoring a rejoiner's private state, and mirroring
/// that state after every sync.
pub(crate) struct ElasticWorker {
    pub(crate) client: ShardedPsClient,
    /// Go silent just before this step ([`ElasticOptions::crash_at`]).
    pub(crate) crash_at: Option<u64>,
    /// Where this rank mirrors its private state ([`worker_state_path`]),
    /// when the run checkpoints.
    mirror_path: Option<PathBuf>,
    seed: u64,
    n_workers: usize,
    /// A rejoiner's mirrored private state, until the loop restores it.
    private: Option<checkpoint::TrainState>,
    /// Batches this rank has drawn, carried over from the mirror on a
    /// rejoin. The cursor position is recorded for observability but not
    /// replayed: a rejoiner re-partitions over the current members.
    consumed: u64,
}

impl ElasticWorker {
    /// Pick up where the crashed incarnation's last sync left momentum
    /// and the Δ(g) stream. Without a private checkpoint a rejoiner
    /// restarts its Δ(g) EWMA from scratch: its first step reports an
    /// infinite relative change and forces a sync — the conservative
    /// behaviour for a returning replica.
    pub(crate) fn restore(&mut self, opt: &mut AnyOptimizer, relchange: &mut RelativeGradChange) {
        if let Some(st) = self.private.take() {
            opt.import_state(st.optim_t, st.optim_slots);
            if let Some(d) = st.delta_state {
                *relchange = d;
            }
            self.consumed = st.cursor_consumed;
        }
    }

    /// The elastic flags round: heartbeat every shard with this step's
    /// flag. Returns whether the step syncs and the membership the
    /// status vector reports.
    pub(crate) fn heartbeat<T: Transport>(
        &mut self,
        ep: &mut T,
        step: u64,
        bit: u8,
    ) -> Result<(bool, Vec<usize>), TransportError> {
        // every step draws one batch, then heartbeats once
        self.consumed += 1;
        let status = self.client.heartbeat(ep, step, bit)?;
        // a status vector containing SYNC can only come from the current
        // round (catch-up replies never carry sync bits), so every
        // receiver of one participates in the parameter-averaging round
        Ok((status.contains(&STATUS_SYNC), alive_ranks(&status)))
    }

    /// Mirror this rank's private state next to the server's checkpoint
    /// after the sync of `step`, so a rejoin resumes momentum and Δ(g).
    /// Best effort, like the server's checkpoint.
    pub(crate) fn mirror(
        &self,
        step: u64,
        syncs: u64,
        opt: &AnyOptimizer,
        relchange: &RelativeGradChange,
        members: &[usize],
        model: &AnyModel,
    ) {
        let Some(path) = &self.mirror_path else {
            return;
        };
        let (optim_t, optim_slots) = opt.export_state();
        let ts = checkpoint::TrainState {
            step: step + 1,
            syncs,
            rounds: step + 1,
            seed: self.seed,
            cursor_consumed: self.consumed,
            optim_t,
            params: flat_params(model.as_visitor()),
            alive: (0..self.n_workers).map(|i| members.contains(&i)).collect(),
            done: vec![false; self.n_workers],
            evictions: Vec::new(),
            joins: Vec::new(),
            optim_slots,
            delta_state: Some(relchange.clone()),
        };
        let _ = checkpoint::save_state(path, &ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Aggregation, Strategy};
    use crate::run_distributed;
    use selsync_comm::shard::fanout_push_wire_bytes;
    use selsync_comm::{Fabric, Payload};
    use selsync_nn::models::ModelKind;
    use std::thread;

    fn elastic_cfg(n_workers: usize, steps: u64, delta: f32) -> RunConfig {
        RunConfig {
            strategy: Strategy::SelSync {
                delta,
                aggregation: Aggregation::Parameter,
            },
            n_workers,
            max_steps: steps,
            eval_every: steps,
            ..RunConfig::quick_defaults()
        }
    }

    fn small_workload() -> Workload {
        Workload::vision(ModelKind::VggMini, 96, 32, 7)
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("selsync_elastic_{}_{name}", std::process::id()));
        p
    }

    /// Remove every shard's checkpoint, its previous generation, and
    /// every worker's private mirror.
    fn cleanup(ckpt: &Path, layout: &ShardLayout) {
        let shards = (0..layout.k).map(|s| shard_state_path(ckpt, layout, s));
        let mirrors = (0..layout.n_workers).map(|w| worker_state_path(ckpt, w));
        for p in shards.chain(mirrors) {
            std::fs::remove_file(checkpoint::prev_path(&p)).ok();
            std::fs::remove_file(p).ok();
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run a full fault-free K-shard elastic cluster on one fabric;
    /// returns the server reports by shard, the worker outputs by rank,
    /// and every byte the cluster put on the fabric (the channel fabric
    /// shares one `CommStats` across its endpoints).
    fn run_cluster(
        cfg: &RunConfig,
        wl: &Workload,
        opts: &ElasticOptions,
        k: usize,
    ) -> (Vec<ElasticReport>, Vec<WorkerOutput>, u64) {
        let layout = ShardLayout::new(k, cfg.n_workers, false);
        let eps = Fabric::new(layout.total_ranks());
        let stats = std::sync::Arc::clone(eps[0].stats());
        let mut servers = Vec::new();
        let mut workers = Vec::new();
        for mut ep in eps {
            let (cfg, wl, opts) = (cfg.clone(), wl.clone(), opts.clone());
            match layout.role_of(ep.id()) {
                Role::Worker(_) => workers.push(thread::spawn(move || {
                    run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout)
                })),
                _ => servers.push(thread::spawn(move || {
                    run_elastic_server_rank(ep, &cfg, &wl, &opts, layout)
                })),
            }
        }
        let outs = workers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let reports = servers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        (reports, outs, stats.total_bytes())
    }

    /// Closed-form wire bytes the whole cluster sends in a fault-free
    /// K-shard run, every frame of the protocol in both directions:
    ///
    /// * handshake: each worker sends its map to every shard, each shard
    ///   echoes it back;
    /// * per step: each worker fans a 1-byte flags frame to every shard,
    ///   each shard answers with the n-byte status vector;
    /// * per sync: each worker's push splits into K sub-frames
    ///   ([`fanout_push_wire_bytes`]), and the K range replies cost
    ///   exactly the same bytes coming back;
    /// * shutdown: one control frame from each worker to every shard.
    fn expected_cluster_bytes(params: usize, n: usize, k: usize, steps: u64, syncs: u64) -> u64 {
        let map = ShardMap::compute(params as u64, k);
        let map_frame = Payload::ShardMap(map.spec().clone()).wire_bytes();
        let flags_up = Payload::Flags(vec![0]).wire_bytes();
        let flags_down = Payload::Flags(vec![0; n]).wire_bytes();
        let ctrl_frame = Payload::Control(0).wire_bytes();
        let (n64, k64) = (n as u64, k as u64);
        2 * n64 * k64 * map_frame
            + steps * n64 * k64 * (flags_up + flags_down)
            + 2 * syncs * n64 * fanout_push_wire_bytes(params, k)
            + n64 * k64 * ctrl_frame
    }

    #[test]
    fn fault_free_elastic_run_completes() {
        let cfg = elastic_cfg(3, 10, 0.35);
        let opts = ElasticOptions::with_liveness(Duration::from_millis(500), 3);
        let (reports, outputs, _) = run_cluster(&cfg, &small_workload(), &opts, 1);
        assert!(reports[0].evictions.is_empty());
        assert!(reports[0].joins.is_empty());
        assert!(reports[0].syncs >= 1, "step 0 must sync (Δ = ∞)");
        for o in &outputs {
            assert!(o.final_params.iter().all(|v| v.is_finite()));
            assert_eq!(o.lssr.total(), 10);
        }
        assert!(
            outputs[0].records[0].synced,
            "first step always synchronizes"
        );
    }

    /// The surviving reference: a fault-free elastic run on the default
    /// K = 1 group is the static trainer's run bit for bit — same sync
    /// decisions, same per-step loss, same replicas, same global vector.
    /// Membership that never changes must cost nothing but heartbeats.
    /// BSP is where the two deployments put different frames on the wire
    /// (a static BSP step sends no flags frame, an elastic one still
    /// heartbeats), and they must agree there too.
    #[test]
    fn fault_free_elastic_k1_run_is_bit_identical_to_the_static_trainer() {
        let wl = small_workload();
        let opts = ElasticOptions::with_liveness(Duration::from_millis(500), 3);
        for strategy in [
            Strategy::SelSync {
                delta: 0.25,
                aggregation: Aggregation::Parameter,
            },
            Strategy::Bsp {
                aggregation: Aggregation::Parameter,
            },
        ] {
            let cfg = RunConfig {
                strategy,
                ..elastic_cfg(2, 8, 0.25)
            };
            let reference = run_distributed(&cfg, &wl);
            let (reports, outs, _) = run_cluster(&cfg, &wl, &opts, 1);

            assert_eq!(
                bits(&reports[0].final_params),
                bits(&reference.final_params),
                "{strategy:?}"
            );
            let synced = reference.step_records.iter().filter(|r| r.synced).count();
            if let Strategy::SelSync { .. } = strategy {
                assert!(synced < 8, "δ = 0.25 must leave some steps local");
            } else {
                assert_eq!(synced, 8, "BSP syncs every step");
            }
            assert_eq!(reports[0].syncs, synced as u64, "{strategy:?}");
            assert_eq!(outs[0].records.len(), reference.step_records.len());
            for (e, r) in outs[0].records.iter().zip(&reference.step_records) {
                assert_eq!(e.synced, r.synced, "{strategy:?} step {}", r.step);
                assert_eq!(
                    e.loss.to_bits(),
                    r.loss.to_bits(),
                    "{strategy:?} step {}",
                    r.step
                );
            }
            for (o, r) in outs.iter().zip(&reference.worker_params) {
                assert_eq!(
                    bits(&o.final_params),
                    bits(r),
                    "{strategy:?} worker {}",
                    o.worker
                );
            }
            assert_eq!(
                outs[0].logical_sync_bytes, reference.logical_sync_bytes,
                "{strategy:?}"
            );
        }
    }

    /// Sharding is a pure re-layout of the same arithmetic: at K = 1, 2
    /// and 4, on a δ that leaves some steps local, every worker ends on
    /// the same bits, the shard ranges concatenate to the K = 1 global
    /// vector, and the cluster puts exactly the closed-form bytes on the
    /// wire. A frame the accounting forgot, or an unplanned retry or
    /// catch-up, shows as a byte mismatch.
    #[test]
    fn k_shards_reassemble_the_global_vector() {
        let (n, steps) = (2, 6);
        let cfg = elastic_cfg(n, steps, 0.25);
        let wl = small_workload();
        let opts = ElasticOptions::with_liveness(Duration::from_millis(500), 3);
        let params = shard_map_for(&wl, &ShardLayout::new(1, n, false)).total() as usize;
        let mut k1: Option<(Vec<f32>, Vec<Vec<u32>>)> = None;
        for k in [1, 2, 4] {
            let (reports, outs, bytes) = run_cluster(&cfg, &wl, &opts, k);
            assert_eq!(reports.len(), k);
            // every shard saw the same sync schedule
            let syncs = reports[0].syncs;
            assert!(reports.iter().all(|r| r.syncs == syncs), "k={k}");
            assert!(
                0 < syncs && syncs < steps,
                "k={k}: δ must leave some steps local"
            );
            assert_eq!(
                bytes,
                expected_cluster_bytes(params, n, k, steps, syncs),
                "k={k}: cluster wire bytes vs the closed form"
            );
            let global: Vec<f32> = reports
                .iter()
                .flat_map(|r| r.final_params.clone())
                .collect();
            let finals: Vec<Vec<u32>> = outs.iter().map(|o| bits(&o.final_params)).collect();
            match &k1 {
                None => k1 = Some((global, finals)),
                Some((k1_global, k1_finals)) => {
                    assert_eq!(bits(&global), bits(k1_global), "k={k}: shard concatenation");
                    assert_eq!(&finals, k1_finals, "k={k}: worker parameters");
                }
            }
        }
    }

    /// Shipping parameter pushes as Bucket frames must change nothing
    /// but the wire format, for the single server and for a shard group
    /// alike: same-seed runs end bit-identical.
    #[test]
    fn bucketed_elastic_sync_is_bit_identical_to_whole_frame_push() {
        let wl = small_workload();
        let opts = ElasticOptions::with_liveness(Duration::from_millis(500), 3);
        for k in [1, 2] {
            let mut cfg = elastic_cfg(2, 6, 0.0); // δ=0: sync every step
            let (plain_reports, plain_outs, _) = run_cluster(&cfg, &wl, &opts, k);
            cfg.overlap_buckets = Some(1000);
            let (bucket_reports, bucket_outs, _) = run_cluster(&cfg, &wl, &opts, k);
            for (p, b) in plain_reports.iter().zip(&bucket_reports) {
                assert_eq!(bits(&p.final_params), bits(&b.final_params), "k={k}");
                assert_eq!(p.syncs, b.syncs, "k={k}");
            }
            for (p, b) in plain_outs.iter().zip(&bucket_outs) {
                assert_eq!(
                    bits(&p.final_params),
                    bits(&b.final_params),
                    "k={k} worker {}",
                    p.worker
                );
            }
        }
    }

    #[test]
    fn crash_evicts_and_survivors_finish_with_checkpoint() {
        let n = 3;
        let steps = 12;
        let cfg = elastic_cfg(n, steps, 0.0); // δ=0: sync every step
        let wl = small_workload();
        let ckpt = tmp("crash.bin");
        let mut opts = ElasticOptions::with_liveness(Duration::from_millis(150), 2);
        opts.reply_timeout = Duration::from_secs(5);
        opts.checkpoint = Some(ckpt.clone());
        let layout = ShardLayout::new(1, n, false);
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let (s_cfg, s_wl, s_opts) = (cfg.clone(), wl.clone(), opts.clone());
        let server = thread::spawn(move || {
            run_elastic_server_rank(server_ep, &s_cfg, &s_wl, &s_opts, layout)
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let (cfg, wl) = (cfg.clone(), wl.clone());
                let mut opts = opts.clone();
                if ep.id() == 2 {
                    opts.crash_at = Some(4);
                }
                thread::spawn(move || run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout))
            })
            .collect();
        let outputs: Vec<WorkerOutput> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let report = server.join().unwrap().unwrap();

        assert_eq!(report.evictions.len(), 1, "exactly the crashed rank dies");
        let (evict_step, evicted) = report.evictions[0];
        assert_eq!(evicted, 2);
        assert!((4..steps).contains(&evict_step));
        // the crashed rank stopped early, the survivors ran every step
        for o in &outputs {
            if o.worker == 2 {
                assert_eq!(o.lssr.total(), 4);
            } else {
                assert_eq!(o.lssr.total(), steps);
                // δ=0 ⇒ the last step synced, so survivors hold the
                // global state bit-for-bit
                assert_eq!(o.final_params, report.final_params);
            }
        }
        // the v2 checkpoint holds the final global state and membership
        let (saved, used_prev) = checkpoint::load_state_with_fallback(&ckpt).unwrap();
        assert!(!used_prev, "current generation must be loadable");
        assert_eq!(saved.params, report.final_params);
        assert_eq!(saved.alive, vec![true, true, false]);
        assert_eq!(saved.evictions, report.evictions);
        cleanup(&ckpt, &layout);
    }

    /// A crashed worker is evicted, asks every shard to readmit it,
    /// warm-starts from the per-range join grants and finishes the run —
    /// against the single server and against a K = 2 group, where the
    /// warm start is assembled from two range grants and the resume step
    /// is shard 0's.
    #[test]
    fn crashed_worker_rejoins_from_checkpoint_and_finishes() {
        for k in [1, 2] {
            let n = 2;
            let steps = 60;
            // A K = 2 group evicts later: its servers first sit out a
            // sibling shard's failover window (`failover_stall` + one
            // round), which a 10 s reply timeout would stretch past the
            // whole run. So the K = 2 arm's clients give up sooner — a
            // 250 + 50 + 250 ms window, eviction after 2 + ⌈630 / 80⌉ = 10
            // silent rounds — the rejoiner stays dark longer, and rank 0
            // is paced slower so the run outlasts the outage.
            let (reply_timeout, comm_retries, pace_us, dark_ms) = if k == 1 {
                (Duration::from_secs(10), 3, 10_000, 400)
            } else {
                (Duration::from_millis(250), 1, 60_000, 2_500)
            };
            let mut cfg = elastic_cfg(n, steps, 0.0);
            cfg.straggler = Some((0, pace_us));
            let wl = small_workload();
            let ckpt = tmp(&format!("rejoin_k{k}.bin"));
            let mut opts = ElasticOptions::with_liveness(Duration::from_millis(80), 2);
            opts.reply_timeout = reply_timeout;
            opts.comm_retries = comm_retries;
            opts.ps_patience = Duration::from_millis(160);
            opts.checkpoint = Some(ckpt.clone());
            let layout = ShardLayout::new(k, n, false);
            let mut eps = Fabric::new(layout.total_ranks());
            let servers: Vec<_> = eps
                .split_off(n)
                .into_iter()
                .map(|ep| {
                    let (cfg, wl, opts) = (cfg.clone(), wl.clone(), opts.clone());
                    thread::spawn(move || run_elastic_server_rank(ep, &cfg, &wl, &opts, layout))
                })
                .collect();
            let mut rejoiner_ep = eps.pop().unwrap(); // rank 1
            let mut steady_ep = eps.pop().unwrap(); // rank 0
            let (cfg0, wl0, opts0) = (cfg.clone(), wl.clone(), opts.clone());
            let steady = thread::spawn(move || {
                run_elastic_worker_rank(&mut steady_ep, &cfg0, &wl0, &opts0, layout)
            });
            let rejoin = thread::spawn(move || {
                let mut first = opts.clone();
                first.crash_at = Some(3);
                let partial =
                    run_elastic_worker_rank(&mut rejoiner_ep, &cfg, &wl, &first, layout).unwrap();
                assert_eq!(partial.lssr.total(), 3);
                // stay dark long enough to be evicted, then come back
                thread::sleep(Duration::from_millis(dark_ms));
                rejoin_elastic_worker_rank(&mut rejoiner_ep, &cfg, &wl, &opts, layout).unwrap()
            });
            let steady_out = steady.join().unwrap().unwrap();
            let (resume_step, rejoined_out) = rejoin.join().unwrap();
            let reports: Vec<ElasticReport> = servers
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect();

            for (s, report) in reports.iter().enumerate() {
                assert_eq!(report.evictions.len(), 1, "k={k} shard {s}");
                assert_eq!(report.evictions[0].1, 1, "k={k} shard {s}");
                assert_eq!(report.joins.len(), 1, "k={k} shard {s}");
                assert_eq!(report.joins[0].1, 1, "k={k} shard {s}");
            }
            assert_eq!(
                reports[0].joins,
                vec![(resume_step, 1)],
                "k={k}: the resume step is shard 0's"
            );
            assert!(resume_step > 3, "k={k}: rejoined after the crash step");
            assert!(resume_step < steps, "k={k}: rejoined before training ended");
            // correct step count: the rejoiner ran exactly the rest
            assert_eq!(rejoined_out.lssr.total(), steps - resume_step, "k={k}");
            assert_eq!(steady_out.lssr.total(), steps, "k={k}");
            // δ=0 ⇒ both members end on the synced global state: the
            // concatenated shard ranges
            let global: Vec<f32> = reports
                .iter()
                .flat_map(|r| r.final_params.iter().copied())
                .collect();
            assert_eq!(steady_out.final_params, global, "k={k}");
            assert_eq!(rejoined_out.final_params, global, "k={k}");
            cleanup(&ckpt, &layout);
        }
    }

    #[test]
    fn ps_mid_sync_crash_resumes_bit_identically() {
        let n = 2;
        let steps = 8;
        let cfg = elastic_cfg(n, steps, 0.0); // δ=0: sync every step
        let wl = small_workload();

        // reference: the same cluster with no faults
        let mut ref_opts = ElasticOptions::with_liveness(Duration::from_millis(400), 3);
        ref_opts.ps_patience = Duration::from_secs(30);
        let (ref_reports, ref_outs, _) = run_cluster(&cfg, &wl, &ref_opts, 1);
        assert!(!ref_reports[0].crashed);

        // faulted run: PS dies mid-sync at step 4, then resumes from the
        // durable checkpoint on the same endpoint
        let ckpt = tmp("ps_resume.bin");
        let mut opts = ref_opts.clone();
        opts.checkpoint = Some(ckpt.clone());
        let layout = ShardLayout::new(1, n, false);
        let mut eps = Fabric::new(n + 1);
        let mut server_ep = eps.pop().unwrap();
        let (s_cfg, s_wl, s_opts, s_ckpt) = (cfg.clone(), wl.clone(), opts.clone(), ckpt.clone());
        let server = thread::spawn(move || {
            let mut crash_opts = s_opts.clone();
            crash_opts.server_crash = Some(ServerCrashPoint::MidSync(4));
            let dead = run_elastic_server_rank(&mut server_ep, &s_cfg, &s_wl, &crash_opts, layout)
                .unwrap();
            assert!(dead.crashed, "the scheduled crash must fire");
            assert_eq!(dead.syncs, 4, "rounds 0..4 completed before the crash");
            // the write-ahead snapshot for round 4 is already durable
            let (state, used_prev) = checkpoint::load_state_with_fallback(&s_ckpt).unwrap();
            assert!(!used_prev);
            assert_eq!(state.step, 4);
            run_elastic_server_rank_from(&mut server_ep, &s_cfg, &s_wl, &s_opts, layout, &state)
                .unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let (cfg, wl, opts) = (cfg.clone(), wl.clone(), opts.clone());
                thread::spawn(move || run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout))
            })
            .collect();
        let outs: Vec<WorkerOutput> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let report = server.join().unwrap();

        assert!(!report.crashed);
        assert!(
            report.evictions.is_empty(),
            "recovery must not evict anyone"
        );
        assert_eq!(report.syncs, steps, "every round syncs after resume");
        // bit-identical to the unfailed run from the last sync boundary on
        assert_eq!(report.final_params, ref_reports[0].final_params);
        for (o, r) in outs.iter().zip(&ref_outs) {
            assert_eq!(o.lssr.total(), steps);
            assert_eq!(o.final_params, r.final_params);
        }
        cleanup(&ckpt, &layout);
    }

    /// One shard of a K = 2 group dies mid-sync (the most adversarial
    /// point: pushes consumed, nothing durable, no replies) and resumes
    /// from its own `.s<shard>` checkpoint while shard 0 keeps serving.
    /// The workers must finish with parameters bit-identical to a
    /// fault-free run.
    #[test]
    fn one_shard_crash_resumes_from_its_own_checkpoint() {
        let n = 2;
        let cfg = elastic_cfg(n, 8, 0.25);
        let wl = small_workload();
        let ref_opts = ElasticOptions::with_liveness(Duration::from_millis(300), 5);
        let ckpt = tmp("shard_crash.bin");
        let mut opts = ref_opts.clone();
        opts.checkpoint = Some(ckpt.clone());

        // fault-free reference (no checkpointing, same seed)
        let (_, reference, _) = run_cluster(&cfg, &wl, &ref_opts, 2);

        let layout = ShardLayout::new(2, n, false);
        let mut servers = Vec::new();
        let mut workers = Vec::new();
        for mut ep in Fabric::new(layout.total_ranks()) {
            let (cfg, wl, opts, ckpt) = (cfg.clone(), wl.clone(), opts.clone(), ckpt.clone());
            match layout.role_of(ep.id()) {
                Role::Worker(_) => workers.push(thread::spawn(move || {
                    run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout)
                })),
                Role::Shard(s) => servers.push(thread::spawn(move || {
                    let mut crash_opts = opts.clone();
                    if s == 1 {
                        crash_opts.server_crash = Some(ServerCrashPoint::MidSync(1));
                    }
                    let mut report =
                        run_elastic_server_rank(&mut ep, &cfg, &wl, &crash_opts, layout).unwrap();
                    if report.crashed {
                        assert_eq!(s, 1, "only shard 1 is scheduled to die");
                        thread::sleep(Duration::from_millis(100));
                        let (state, _) = checkpoint::load_state_with_fallback(shard_state_path(
                            &ckpt, &layout, s,
                        ))
                        .unwrap();
                        report =
                            run_elastic_server_rank_from(&mut ep, &cfg, &wl, &opts, layout, &state)
                                .unwrap();
                    }
                    report
                })),
                Role::Standby(_) => unreachable!(),
            }
        }
        let outs: Vec<WorkerOutput> = workers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        for (s, h) in servers.into_iter().enumerate() {
            let report = h.join().unwrap();
            assert!(
                report.evictions.is_empty(),
                "shard {s}: {:?}",
                report.evictions
            );
        }
        for (r, o) in reference.iter().zip(&outs) {
            assert_eq!(
                o.lssr.total(),
                cfg.max_steps,
                "worker {} ran every step",
                o.worker
            );
            assert_eq!(
                r.final_params, o.final_params,
                "worker {}: surviving params must be bit-identical to fault-free",
                o.worker
            );
        }
        cleanup(&ckpt, &layout);
    }

    #[test]
    fn workers_promote_standby_after_ps_death() {
        let n = 2;
        let steps = 8;
        let cfg = elastic_cfg(n, steps, 0.0);
        let wl = small_workload();
        let mut opts = ElasticOptions::with_liveness(Duration::from_millis(300), 5);
        opts.reply_timeout = Duration::from_millis(400);
        opts.ps_patience = Duration::from_millis(900);
        let layout = ShardLayout::new(1, n, true);

        let mut eps = Fabric::new(layout.total_ranks());
        let standby_ep = eps.pop().unwrap(); // rank n+1
        let server_ep = eps.pop().unwrap(); // rank n
        let (s_cfg, s_wl, mut s_opts) = (cfg.clone(), wl.clone(), opts.clone());
        s_opts.server_crash = Some(ServerCrashPoint::RoundStart(4));
        let primary = thread::spawn(move || {
            // the endpoint drops with this thread: the PS stays dead
            run_elastic_server_rank(server_ep, &s_cfg, &s_wl, &s_opts, layout).unwrap()
        });
        let (b_cfg, b_wl, b_opts) = (cfg.clone(), wl.clone(), opts.clone());
        let standby = thread::spawn(move || {
            run_standby_server_rank(standby_ep, &b_cfg, &b_wl, &b_opts, layout).unwrap()
        });
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let (cfg, wl, opts) = (cfg.clone(), wl.clone(), opts.clone());
                thread::spawn(move || run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout))
            })
            .collect();
        let outs: Vec<WorkerOutput> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let dead = primary.join().unwrap();
        let outcome = standby.join().unwrap();

        assert!(dead.crashed);
        assert_eq!(dead.syncs, 4, "rounds 0..4 completed before the crash");
        let StandbyOutcome::Promoted(report) = outcome else {
            panic!("the standby must be promoted, got {outcome:?}");
        };
        assert!(!report.crashed);
        assert_eq!(report.syncs, steps, "shadowed rounds + promoted rounds");
        assert!(
            report.evictions.is_empty(),
            "failover must not evict anyone"
        );
        for o in &outs {
            assert_eq!(o.lssr.total(), steps);
            // δ=0 ⇒ the last step synced against the promoted standby
            assert_eq!(o.final_params, report.final_params);
        }
    }

    /// One shard of a K = 2 group with standbys dies for good. Its
    /// workers' fan-outs stall on it until their clients fail over to
    /// its standby; the healthy shard must sit that stall out instead of
    /// reading it as worker death, and the promoted standby must finish
    /// the run with everyone still a member.
    #[test]
    fn k2_standby_promotion_evicts_nobody_from_the_healthy_shard() {
        let n = 2;
        let steps = 8;
        let cfg = elastic_cfg(n, steps, 0.0); // δ=0: sync every step
        let wl = small_workload();
        let opts = ElasticOptions::with_liveness(Duration::from_millis(100), 3);
        let layout = ShardLayout::new(2, n, true);
        let (mut shards, mut standbys, mut workers) = (Vec::new(), Vec::new(), Vec::new());
        for mut ep in Fabric::new(layout.total_ranks()) {
            let (cfg, wl, mut opts) = (cfg.clone(), wl.clone(), opts.clone());
            match layout.role_of(ep.id()) {
                Role::Worker(_) => workers.push(thread::spawn(move || {
                    run_elastic_worker_rank(&mut ep, &cfg, &wl, &opts, layout)
                })),
                Role::Shard(s) => {
                    if s == 1 {
                        opts.server_crash = Some(ServerCrashPoint::RoundStart(4));
                    }
                    // the endpoint drops with the thread: shard 1 stays dead
                    shards.push(thread::spawn(move || {
                        run_elastic_server_rank(ep, &cfg, &wl, &opts, layout)
                    }));
                }
                Role::Standby(_) => standbys.push(thread::spawn(move || {
                    run_standby_server_rank(ep, &cfg, &wl, &opts, layout)
                })),
            }
        }
        let outs: Vec<WorkerOutput> = workers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let reports: Vec<ElasticReport> = shards
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let outcomes: Vec<StandbyOutcome> = standbys
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();

        assert!(!reports[0].crashed);
        assert!(reports[1].crashed, "shard 1's scheduled crash must fire");
        assert!(
            reports[0].evictions.is_empty(),
            "the healthy shard evicted {:?}",
            reports[0].evictions
        );
        assert!(
            matches!(outcomes[0], StandbyOutcome::Retired { .. }),
            "shard 0's standby is never needed, got {:?}",
            outcomes[0]
        );
        let StandbyOutcome::Promoted(promoted) = &outcomes[1] else {
            panic!("shard 1's standby must be promoted, got {:?}", outcomes[1]);
        };
        assert!(promoted.evictions.is_empty(), "{:?}", promoted.evictions);
        assert_eq!(reports[0].syncs, steps);
        assert_eq!(promoted.syncs, steps, "shadowed rounds + promoted rounds");
        let global = [&reports[0].final_params[..], &promoted.final_params].concat();
        for o in &outs {
            assert_eq!(o.lssr.total(), steps, "worker {}", o.worker);
            assert_eq!(o.final_params, global, "worker {}", o.worker);
        }
    }

    #[test]
    fn shard_state_path_follows_the_one_naming_rule() {
        let base = PathBuf::from("/tmp/run/ckpt.bin");
        // the only server of a K = 1 group owns the base path itself
        assert_eq!(
            shard_state_path(&base, &ShardLayout::new(1, 2, false), 0),
            base
        );
        let k2 = ShardLayout::new(2, 2, false);
        assert_eq!(
            shard_state_path(&base, &k2, 0),
            PathBuf::from("/tmp/run/ckpt.bin.s0")
        );
        assert_ne!(
            shard_state_path(&base, &k2, 0),
            shard_state_path(&base, &k2, 1)
        );
    }
}
