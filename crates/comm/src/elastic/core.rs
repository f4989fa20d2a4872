//! The elastic server's protocol core: every decision the server and
//! its hot standby make, as a pure state machine that never touches a
//! transport or reads the clock. Each event — [`Core::on_msg`],
//! [`Core::on_silence`], [`Core::on_unreachable`], with the time passed
//! in — appends [`Action`]s to the outbox and returns the [`Wait`] the
//! shell receives with next (`None` once the run is over). The event →
//! action table is in the [`super`] module docs.

use super::{
    ElasticConfig, ElasticReport, ServerCrashPoint, ServerState, JOIN_TAG, SHARD_MAP_TAG,
    STANDBY_RETIRE, STANDBY_TAG, STATUS_ALIVE, STATUS_DEAD, STATUS_MISSED, STATUS_SYNC, SYNC_PHASE,
};
use crate::bucket::BucketAssembler;
use crate::collectives::{phase_tag, tag_step, FLAGS_PHASE};
use crate::error::TransportError;
use crate::fabric::{FlatVec, Msg, Payload};
use crate::ps::{average, CTRL_JOIN, CTRL_SHUTDOWN};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// One thing the shell must do on the core's behalf, in outbox order.
pub(super) enum Action {
    /// Send `payload` to `to` at `tag`. With `evict_at: Some(step)` the
    /// send is *evicting*: a `PeerUnreachable` comes back through
    /// [`Core::on_unreachable`] (which evicts `to` at `step`) and any other
    /// failure is fatal. With `None` the send is best effort.
    Send {
        to: usize,
        tag: u64,
        payload: Payload,
        evict_at: Option<u64>,
    },
    /// Hand this snapshot to the `on_sync` callback before anything
    /// queued after it goes out (write-ahead checkpointing).
    Durable(ServerState),
}

/// What the shell receives next: a sender/tag filter (`None` is a
/// wildcard) and the deadline after which it reports silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Wait {
    pub from: Option<usize>,
    pub tag: Option<u64>,
    pub deadline: Instant,
}

/// A standby's watch over its primary.
struct Shadow {
    primary: usize,
    /// How long the whole cluster may stay silent before the standby
    /// concludes it will never be needed.
    max_silence: Duration,
    quiet_since: Instant,
    /// A shadow update in progress: `Control(step)` seen, then `Params`.
    /// A torn update never commits; the last whole one stands.
    partial: Option<(u64, Option<Vec<f32>>)>,
    shadowed: u64,
}

enum Phase {
    /// A hot standby mirroring its primary's sync rounds.
    Shadow(Shadow),
    /// Collecting this step's flags (the heartbeat round).
    Flags,
    /// Collecting the pushes of this step's sync round from `members`
    /// (the round's flag senders and early pushers).
    Sync {
        members: Vec<usize>,
        empty_waits: u32,
    },
    /// A standby told to stand down, or one the cluster never needed.
    Retired { shadowed: u64 },
    /// Every member finished or was evicted, or a scheduled crash fired.
    Done,
}

/// The elastic server's whole volatile state. See the module docs.
pub(super) struct Core {
    cfg: ElasticConfig,
    st: ServerState,
    missed: Vec<u32>,
    phase: Phase,
    crashed: bool,
    /// End of the recovery grace window, while it is open.
    grace_until: Option<Instant>,
    /// Members heard from since the server started serving.
    heard: Vec<bool>,
    /// This step's flag bits, by sender.
    bits: BTreeMap<usize, u8>,
    /// This step's pushes by sender: early ones (re-sent by workers that
    /// were mid-sync when a predecessor died) or the sync window's own.
    pushes: BTreeMap<usize, Vec<f32>>,
    /// Traffic from rounds ahead of this one (the server restarted behind
    /// its workers), by step.
    future_flags: BTreeMap<u64, BTreeMap<usize, u8>>,
    future_pushes: BTreeMap<u64, BTreeMap<usize, Vec<f32>>>,
    /// Join requests, granted at the next step boundary.
    pending_joins: Vec<usize>,
    /// Partial `Bucket` push sets by (tag, sender).
    asm: BTreeMap<(u64, usize), BucketAssembler>,
    deadline: Instant,
    /// Actions for the shell, oldest first.
    pub(super) outbox: VecDeque<Action>,
}

impl Core {
    /// A server continuing from `state` (a new run passes
    /// [`ServerState::fresh`]), starting to serve at `now`.
    pub(super) fn server(state: ServerState, cfg: &ElasticConfig, now: Instant) -> Core {
        let mut core = Core::new(state, cfg.clone(), Phase::Flags, now);
        core.serve(now);
        core
    }

    /// A hot standby for the server on rank `primary`, shadowing from
    /// the run's initial state. Once promoted it serves under `cfg`
    /// without a standby of its own and without a scheduled crash.
    pub(super) fn standby(
        n_workers: usize,
        primary: usize,
        init_params: Vec<f32>,
        cfg: &ElasticConfig,
        max_silence: Duration,
        now: Instant,
    ) -> Core {
        let shadow = Shadow {
            primary,
            max_silence,
            quiet_since: now,
            partial: None,
            shadowed: 0,
        };
        let cfg = ElasticConfig {
            standby: None,
            crash: None,
            ..cfg.clone()
        };
        let state = ServerState::fresh(n_workers, init_params);
        Core::new(state, cfg, Phase::Shadow(shadow), now)
    }

    fn new(st: ServerState, cfg: ElasticConfig, phase: Phase, now: Instant) -> Core {
        let n = st.alive.len();
        Core {
            deadline: now + cfg.round_timeout,
            cfg,
            st,
            missed: vec![0; n],
            phase,
            crashed: false,
            grace_until: None,
            heard: vec![false; n],
            bits: BTreeMap::new(),
            pushes: BTreeMap::new(),
            future_flags: BTreeMap::new(),
            future_pushes: BTreeMap::new(),
            pending_joins: Vec::new(),
            asm: BTreeMap::new(),
            outbox: VecDeque::new(),
        }
    }

    /// Start serving at `now` (at construction, or on promotion), opening
    /// the recovery grace window if there is one.
    fn serve(&mut self, now: Instant) {
        let grace = self.cfg.resume_grace;
        self.grace_until = (grace > Duration::ZERO).then(|| now + grace);
        self.begin_round();
        self.advance();
    }

    /// The receive the shell should run next; `None` once the run is over.
    pub(super) fn wait(&self) -> Option<Wait> {
        let (from, tag) = match &self.phase {
            Phase::Shadow(sh) => (Some(sh.primary), Some(STANDBY_TAG)),
            Phase::Flags | Phase::Sync { .. } => (None, None),
            Phase::Retired { .. } | Phase::Done => return None,
        };
        Some(Wait {
            from,
            tag,
            deadline: self.deadline,
        })
    }

    /// The standby's shadowed sync count, if it retired without being
    /// promoted.
    pub(super) fn retired(&self) -> Option<u64> {
        match self.phase {
            Phase::Retired { shadowed } => Some(shadowed),
            _ => None,
        }
    }

    /// What this server observed, for the shell to return.
    pub(super) fn into_report(self) -> ElasticReport {
        ElasticReport {
            rounds: self.st.step,
            final_params: self.st.global,
            evictions: self.st.evictions,
            joins: self.st.joins,
            syncs: self.st.syncs,
            crashed: self.crashed,
        }
    }

    /// A message arrived at `now`.
    ///
    /// # Errors
    /// [`TransportError::Protocol`] on traffic no correct worker sends.
    pub(super) fn on_msg(&mut self, m: Msg, now: Instant) -> Result<Option<Wait>, TransportError> {
        let Msg { from, tag, payload } = m;
        self.deadline = now + self.cfg.round_timeout;
        self.note_contact(from, now);
        if let Phase::Sync { empty_waits, .. } = &mut self.phase {
            *empty_waits = 0;
        }
        match tag {
            JOIN_TAG if matches!(payload, Payload::Control(CTRL_JOIN)) => {
                self.pending_joins.push(from);
            }
            SHARD_MAP_TAG => {
                let map = Payload::ShardMap(self.cfg.shard_map.clone());
                self.send(from, tag, map, None);
            }
            STANDBY_TAG => self.shadow(payload, now),
            // reserved tags this role never consumes
            t if t > SHARD_MAP_TAG => {}
            _ => self.round_msg(from, tag, payload)?,
        }
        self.advance();
        Ok(self.wait())
    }

    /// The receive deadline passed at `now` with nothing matching;
    /// `buffered` non-matching messages are waiting in the transport.
    pub(super) fn on_silence(&mut self, buffered: usize, now: Instant) -> Option<Wait> {
        self.deadline = now + self.cfg.round_timeout;
        let in_grace = self.grace_until.is_some_and(|g| now < g);
        match &mut self.phase {
            Phase::Shadow(sh) => {
                sh.partial = None;
                if buffered > 0 {
                    // workers are addressing this rank: their patience on
                    // the primary ran out and they failed over — promote
                    self.serve(now);
                } else if now.saturating_duration_since(sh.quiet_since) >= sh.max_silence {
                    let shadowed = sh.shadowed;
                    self.phase = Phase::Retired { shadowed };
                }
            }
            Phase::Flags | Phase::Sync { .. } if in_grace => {}
            Phase::Flags => {
                let step = self.st.step;
                let mut evicted = false;
                for i in 0..self.n() {
                    if self.live(i) && !self.reported(i) {
                        self.missed[i] += 1;
                        if self.missed[i] >= self.cfg.max_missed {
                            self.evict(i, step);
                            evicted = true;
                        }
                    }
                }
                // a round nobody joined is a liveness tick, not a round:
                // closing it would free-run the step past workers stalled
                // elsewhere (on a sibling's recovery), whose later flags
                // would then only draw catch-up replies without sync bits
                if evicted || !self.bits.is_empty() || !self.pushes.is_empty() {
                    self.close_flags();
                }
            }
            Phase::Sync {
                members,
                empty_waits,
            } => {
                *empty_waits += 1;
                // a K = 1 pusher that flagged a sync and fell silent is
                // gone; with siblings it may be stalled in its fan-out on
                // a sibling's recovery, so wait out the widened miss budget
                let siblings = self.cfg.shard_map.starts.len() > 1;
                if !siblings || *empty_waits >= self.cfg.max_missed {
                    for i in members.clone() {
                        if self.live(i) && !self.pushes.contains_key(&i) {
                            self.evict(i, self.st.step);
                        }
                    }
                    self.close_sync();
                }
            }
            Phase::Retired { .. } | Phase::Done => {}
        }
        self.advance();
        self.wait()
    }

    /// An evicting send queued for step `step` found `rank` unreachable:
    /// evict it, and drop whatever else the outbox still holds for it.
    pub(super) fn on_unreachable(&mut self, rank: usize, step: u64) -> Option<Wait> {
        self.outbox
            .retain(|a| !matches!(a, Action::Send { to, .. } if *to == rank));
        self.evict(rank, step);
        self.advance();
        self.wait()
    }

    /// A message in some step's tag space, in either serving phase.
    fn round_msg(&mut self, from: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let n = self.n();
        if from >= n {
            // a sibling shard, a standby, a rank from a differently-sized
            // launch: a wiring fault, not a protocol event
            return Err(TransportError::Protocol(format!(
                "elastic server: message from rank {from}, which is not one of the {n} workers"
            )));
        }
        if !self.st.alive[from] {
            // tell an evicted-but-alive sender its fate
            if matches!(payload, Payload::Flags(_)) {
                let status = self.status(None, from);
                self.send(from, tag, Payload::Flags(status), None);
            }
            return Ok(());
        }
        let Some(payload) = self.whole_push(tag, from, payload)? else {
            return Ok(());
        };
        let step = self.st.step;
        let ftag = phase_tag(step, FLAGS_PHASE);
        let stag = phase_tag(step, SYNC_PHASE);
        match (tag, payload) {
            (_, Payload::Control(CTRL_SHUTDOWN)) => {
                // any tag: a worker may finish while a resumed server is
                // still behind
                self.st.done[from] = true;
                self.missed[from] = 0;
            }
            (t, Payload::Flags(b)) if t == ftag => {
                // in the sync window this is a resend into a closed round
                if matches!(self.phase, Phase::Flags) {
                    self.bits.insert(from, b.first().copied().unwrap_or(0));
                }
            }
            (t, Payload::ShardPush(v)) if t == stag => {
                self.pushes.insert(from, v);
            }
            (t, Payload::Flags(_)) if t < ftag => {
                let catch_up = Payload::Flags(self.status(None, from));
                self.send(from, t, catch_up, None);
            }
            (t, Payload::ShardPush(_)) if t < ftag => {
                // the global is the average of the round it was pushed to
                let global = Payload::ShardPull(self.st.global.clone());
                self.send(from, t, global, None);
            }
            (t, Payload::Flags(b)) if t > ftag => {
                let ahead = self.future_flags.entry(tag_step(t)).or_default();
                ahead.insert(from, b.first().copied().unwrap_or(0));
                self.fast_forward();
            }
            (t, Payload::ShardPush(v)) if t > ftag && t == phase_tag(tag_step(t), SYNC_PHASE) => {
                let ahead = self.future_pushes.entry(tag_step(t)).or_default();
                ahead.insert(from, v);
                self.fast_forward();
            }
            (t, p) => {
                return Err(TransportError::Protocol(format!(
                    "elastic server: unexpected {p:?} at tag {t} from rank {from} \
                     (round tag {ftag})"
                )));
            }
        }
        Ok(())
    }

    /// A standby's shadow update: a `Control(step)`, `Params`,
    /// `Flags(membership)` triple commits as the state after that step's
    /// sync. A serving core ignores the tag.
    fn shadow(&mut self, payload: Payload, now: Instant) {
        let Phase::Shadow(sh) = &mut self.phase else {
            return;
        };
        sh.quiet_since = now;
        sh.partial = match (sh.partial.take(), payload) {
            (_, Payload::Control(STANDBY_RETIRE)) => {
                let shadowed = sh.shadowed;
                self.phase = Phase::Retired { shadowed };
                return;
            }
            (_, Payload::Control(step)) => Some((step, None)),
            (Some((step, None)), Payload::Params(v)) => Some((step, Some(v))),
            (Some((step, None)), Payload::SharedParams(a)) => {
                Some((step, Some(FlatVec::Shared(a).into_vec())))
            }
            (Some((step, Some(params))), Payload::Flags(membership)) => {
                self.st.step = step + 1;
                self.st.syncs += 1;
                self.st.global = params;
                self.st.alive = membership.iter().map(|b| b & 1 != 0).collect();
                self.st.done = membership.iter().map(|b| b & 2 != 0).collect();
                sh.shadowed += 1;
                None
            }
            // out of order: the update is torn, the last whole one stands
            (_, _torn) => None,
        };
    }

    /// Record a member's first message since the server started serving
    /// and adjust the grace window: extend it by one `resume_grace` unit
    /// while other members are still silent (their next resend is at
    /// most one cycle away), end it once every live member has reported
    /// in. An expired window is never resurrected.
    fn note_contact(&mut self, from: usize, now: Instant) {
        let Some(g) = self.grace_until else { return };
        if now >= g {
            self.grace_until = None;
            return;
        }
        if from >= self.heard.len() || self.heard[from] {
            return;
        }
        self.heard[from] = true;
        if (0..self.n()).all(|i| self.heard[i] || !self.live(i)) {
            self.grace_until = None;
        } else {
            self.grace_until = Some(g.max(now + self.cfg.resume_grace));
        }
    }

    /// Normalize an arriving push. A [`Payload::Bucket`] frame joins its
    /// sender's assembler, and only a completed set comes out, as the
    /// [`Payload::ShardPush`] it stands for (retries resend whole sets and
    /// duplicates overwrite). A whole push must cover exactly this
    /// server's range: `average` zips its inputs, so a short push would
    /// silently truncate the round.
    fn whole_push(
        &mut self,
        tag: u64,
        from: usize,
        p: Payload,
    ) -> Result<Option<Payload>, TransportError> {
        let p = match p {
            Payload::Bucket {
                bucket,
                n_buckets,
                values,
            } => {
                let asm = self.asm.entry((tag, from)).or_default();
                match asm.absorb(bucket, n_buckets, values)? {
                    Some(flat) => Payload::ShardPush(flat),
                    None => return Ok(None),
                }
            }
            p => p,
        };
        let range = self.st.global.len();
        match &p {
            Payload::ShardPush(v) if v.len() != range => Err(TransportError::Protocol(format!(
                "elastic server: rank {from} pushed {} values at tag {tag}, \
                 this server's range holds {range}",
                v.len()
            ))),
            _ => Ok(Some(p)),
        }
    }

    /// Recovery fast-forward: with nothing collected for this round, a
    /// member's traffic from a later one means every live worker is past
    /// it. Jump to the earliest round with buffered traffic.
    fn fast_forward(&mut self) {
        if !matches!(self.phase, Phase::Flags) || !self.bits.is_empty() || !self.pushes.is_empty() {
            return;
        }
        let flags = self.future_flags.keys().next();
        let pushes = self.future_pushes.keys().next();
        if let Some(&next) = flags.into_iter().chain(pushes).min() {
            self.st.step = next;
            self.begin_round();
        }
    }

    /// Close every phase whose collection is complete, until the core
    /// has to wait for the network again.
    fn advance(&mut self) {
        loop {
            let pushed = |i: usize| self.pushes.contains_key(&i);
            match &self.phase {
                Phase::Flags if (0..self.n()).all(|i| !self.live(i) || self.reported(i)) => {
                    self.close_flags();
                }
                Phase::Sync { members, .. }
                    if members.iter().all(|&i| !self.live(i) || pushed(i)) =>
                {
                    self.close_sync();
                }
                _ => return,
            }
        }
    }

    /// Enter this step's flags round: stop if the run is over or a
    /// scheduled crash is due, else seed the round with any buffered
    /// traffic that raced ahead of it.
    fn begin_round(&mut self) {
        let step = self.st.step;
        if (0..self.n()).all(|i| !self.live(i)) {
            if let Some(sb) = self.cfg.standby {
                self.send(sb, STANDBY_TAG, Payload::Control(STANDBY_RETIRE), None);
            }
            self.phase = Phase::Done;
            return;
        }
        if matches!(self.cfg.crash, Some(ServerCrashPoint::RoundStart(s)) if step >= s) {
            self.crashed = true;
            self.phase = Phase::Done;
            return;
        }
        // drop bucket partials from rounds that already closed: a
        // retrying worker resends its complete set, so nothing is lost
        self.asm
            .retain(|&(t, _), a| a.in_progress() && tag_step(t) + 1 >= step);
        let (alive, done) = (&self.st.alive, &self.st.done);
        self.bits = self.future_flags.remove(&step).unwrap_or_default();
        self.pushes = self.future_pushes.remove(&step).unwrap_or_default();
        self.bits.retain(|&i, _| alive[i] && !done[i]);
        self.pushes.retain(|&i, _| alive[i] && !done[i]);
        self.future_flags.retain(|&s, _| s > step);
        self.future_pushes.retain(|&s, _| s > step);
        self.phase = Phase::Flags;
    }

    /// Close the flags round: answer every flag sender with the round's
    /// status vector, then open the sync window if anyone asked for one.
    fn close_flags(&mut self) {
        for &i in self.bits.keys().chain(self.pushes.keys()) {
            self.missed[i] = 0;
        }
        if self.bits.is_empty() && self.pushes.is_empty() {
            self.end_step();
            return;
        }
        let any_sync = self.bits.values().any(|&b| b != 0) || !self.pushes.is_empty();
        // early pushers are mid-sync: the membership view must show them
        // as syncing even though no flag arrived this round
        let mut merged = self.bits.clone();
        for &i in self.pushes.keys() {
            merged.insert(i, 1);
        }
        let status = self.status(Some(&merged), usize::MAX);
        let step = self.st.step;
        let ftag = phase_tag(step, FLAGS_PHASE);
        let contributors: Vec<usize> = self.bits.keys().copied().collect();
        for i in contributors {
            self.send(i, ftag, Payload::Flags(status.clone()), Some(step));
        }
        if any_sync {
            let members = merged.into_keys().collect();
            self.phase = Phase::Sync {
                members,
                empty_waits: 0,
            };
        } else {
            self.end_step();
        }
    }

    /// Close the sync window: average the pushes in rank order, make the
    /// result durable and shadow it, and only then reply to the pushers.
    fn close_sync(&mut self) {
        let step = self.st.step;
        let pushes = std::mem::take(&mut self.pushes);
        let pushers: Vec<usize> = pushes.keys().copied().collect();
        if let Some(avg) = average(pushes.into_values(), drop) {
            if matches!(self.cfg.crash, Some(ServerCrashPoint::MidSync(s)) if step >= s) {
                // die with the average computed but nothing durable: no
                // checkpoint, no shadow, no reply
                self.crashed = true;
                self.phase = Phase::Done;
                return;
            }
            self.st.global = avg;
            self.st.syncs += 1;
            self.outbox.push_back(Action::Durable(ServerState {
                step: step + 1,
                ..self.st.clone()
            }));
            if let Some(sb) = self.cfg.standby {
                let membership = self
                    .st
                    .alive
                    .iter()
                    .zip(&self.st.done)
                    .map(|(&a, &d)| u8::from(a) | (u8::from(d) << 1))
                    .collect();
                let params = Payload::Params(self.st.global.clone());
                self.send(sb, STANDBY_TAG, Payload::Control(step), None);
                self.send(sb, STANDBY_TAG, params, None);
                self.send(sb, STANDBY_TAG, Payload::Flags(membership), None);
            }
            let stag = phase_tag(step, SYNC_PHASE);
            for i in pushers {
                let pull = Payload::ShardPull(self.st.global.clone());
                self.send(i, stag, pull, Some(step));
            }
        }
        self.end_step();
    }

    /// Grant pending joins at the step boundary (so a joiner always starts
    /// on a clean step), then enter the next step.
    fn end_step(&mut self) {
        let step = self.st.step;
        for r in std::mem::take(&mut self.pending_joins) {
            if r < self.n() && !self.st.done[r] && !self.st.alive[r] {
                self.st.alive[r] = true;
                self.missed[r] = 0;
                let resume = step + 1;
                self.st.joins.push((resume, r));
                let status = self.status(None, usize::MAX);
                let params = Payload::Params(self.st.global.clone());
                self.send(r, JOIN_TAG, Payload::Control(resume), Some(step));
                self.send(r, JOIN_TAG, params, Some(step));
                self.send(r, JOIN_TAG, Payload::Flags(status), Some(step));
            }
        }
        self.st.step = step + 1;
        self.begin_round();
    }

    fn evict(&mut self, rank: usize, step: u64) {
        if self.st.alive[rank] {
            self.st.alive[rank] = false;
            self.st.evictions.push((step, rank));
        }
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload, evict_at: Option<u64>) {
        self.outbox.push_back(Action::Send {
            to,
            tag,
            payload,
            evict_at,
        });
    }

    /// The status vector: one byte per rank. `bits` are the round's flags
    /// (`None` for a reply outside the round: everyone alive is ALIVE),
    /// and `missed_requester` is marked MISSED.
    fn status(&self, bits: Option<&BTreeMap<usize, u8>>, missed_requester: usize) -> Vec<u8> {
        let byte = |i| match (self.live(i), bits.map(|b| b.get(&i))) {
            (false, _) => STATUS_DEAD,
            (true, _) if i == missed_requester => STATUS_MISSED,
            (true, Some(Some(&bit))) if bit != 0 => STATUS_SYNC,
            (true, Some(Some(_)) | None) => STATUS_ALIVE,
            (true, Some(None)) => STATUS_MISSED,
        };
        (0..self.n()).map(byte).collect()
    }

    fn n(&self) -> usize {
        self.st.alive.len()
    }

    /// Whether member `i` has joined this step's round, by flag or push.
    fn reported(&self, i: usize) -> bool {
        self.bits.contains_key(&i) || self.pushes.contains_key(&i)
    }

    /// A member the server still expects to hear from.
    fn live(&self, i: usize) -> bool {
        self.st.alive[i] && !self.st.done[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::bucket_payloads;
    use crate::elastic::shard_starts;
    use crate::fabric::ShardSpec;

    const ROUND: Duration = Duration::from_millis(100);

    /// The K = 1 policy for a `len`-value range.
    fn cfg(len: usize, max_missed: u32) -> ElasticConfig {
        let map = ShardSpec {
            version: 1,
            total: len as u64,
            starts: shard_starts(len as u64, 1),
        };
        ElasticConfig {
            round_timeout: ROUND,
            max_missed,
            ..ElasticConfig::new(map)
        }
    }

    fn state(step: u64, global: Vec<f32>, alive: Vec<bool>) -> ServerState {
        ServerState {
            step,
            done: vec![false; alive.len()],
            alive,
            ..ServerState::fresh(0, global)
        }
    }

    fn flags(from: usize, step: u64, bit: u8) -> Msg {
        let tag = phase_tag(step, FLAGS_PHASE);
        Msg {
            from,
            tag,
            payload: Payload::Flags(vec![bit]),
        }
    }

    fn push(from: usize, step: u64, payload: Payload) -> Msg {
        let tag = phase_tag(step, SYNC_PHASE);
        Msg { from, tag, payload }
    }

    /// Take the outbox: the sends as `(to, tag, payload)`, and the
    /// durable snapshots.
    fn drain(core: &mut Core) -> (Vec<(usize, u64, Payload)>, Vec<ServerState>) {
        let (mut sends, mut durable) = (Vec::new(), Vec::new());
        for a in core.outbox.drain(..) {
            match a {
                Action::Send {
                    to, tag, payload, ..
                } => sends.push((to, tag, payload)),
                Action::Durable(s) => durable.push(s),
            }
        }
        (sends, durable)
    }

    fn status(step: u64, to: usize, s: &[u8]) -> (usize, u64, Payload) {
        (to, phase_tag(step, FLAGS_PHASE), Payload::Flags(s.to_vec()))
    }

    /// Restart configuration one: workers blocked in a later flags round.
    /// With nothing collected, the first future flag fast-forwards the
    /// round counter, and the round then completes at the workers' step.
    #[test]
    fn future_flags_fast_forward_a_server_resumed_behind_its_workers() {
        let t0 = Instant::now();
        let mut core = Core::server(ServerState::fresh(2, vec![1.0]), &cfg(1, 3), t0);
        core.on_msg(flags(0, 5, 0), t0).unwrap();
        assert_eq!(core.st.step, 5, "jumped to the earliest buffered step");
        assert!(drain(&mut core).0.is_empty());
        core.on_msg(flags(1, 5, 0), t0).unwrap();
        let (sends, durable) = drain(&mut core);
        let both = [STATUS_ALIVE, STATUS_ALIVE];
        assert_eq!(sends, vec![status(5, 0, &both), status(5, 1, &both)]);
        assert!(durable.is_empty());
        assert_eq!(core.st.step, 6);
        assert!(core.st.evictions.is_empty());
    }

    /// Restart configuration two: workers blocked mid-sync at the resumed
    /// round re-send their pushes, which arrive during flags collection.
    /// They count as the round's contributors and rebuild the interrupted
    /// average, made durable before any reply.
    #[test]
    fn early_pushes_rebuild_the_interrupted_average() {
        let t0 = Instant::now();
        let resumed = state(3, vec![0.0; 2], vec![true, true]);
        let mut core = Core::server(resumed, &cfg(2, 3), t0);
        core.on_msg(push(1, 3, Payload::ShardPush(vec![2.0, 4.0])), t0)
            .unwrap();
        core.on_msg(push(0, 3, Payload::ShardPush(vec![1.0, 1.0])), t0)
            .unwrap();
        assert!(
            matches!(core.outbox.front(), Some(Action::Durable(_))),
            "write-ahead: durable before any reply"
        );
        let (sends, durable) = drain(&mut core);
        let avg = vec![1.5, 2.5];
        let stag = phase_tag(3, SYNC_PHASE);
        assert_eq!(
            sends,
            vec![
                (0, stag, Payload::ShardPull(avg.clone())),
                (1, stag, Payload::ShardPull(avg.clone())),
            ],
            "no flag sender, so no status; a pull to each pusher"
        );
        assert_eq!(durable.len(), 1);
        assert_eq!((durable[0].step, durable[0].syncs), (4, 1));
        assert_eq!(durable[0].global, avg);
        assert_eq!(core.st.step, 4);
    }

    /// Restart configuration three: workers blocked mid-sync at the round
    /// before the resumed step re-send a push at a stale tag, which draws
    /// the recovered global — that round's average.
    #[test]
    fn stale_pushes_draw_the_recovered_global() {
        let t0 = Instant::now();
        let resumed = state(4, vec![1.5], vec![true, true]);
        let mut core = Core::server(resumed, &cfg(1, 3), t0);
        core.on_msg(push(0, 3, Payload::ShardPush(vec![9.0])), t0)
            .unwrap();
        let (sends, _) = drain(&mut core);
        let stag = phase_tag(3, SYNC_PHASE);
        assert_eq!(sends, vec![(0, stag, Payload::ShardPull(vec![1.5]))]);
        assert_eq!((core.st.step, core.st.syncs), (4, 0), "nothing else moved");
    }

    /// An empty round is a liveness tick, not a round: silence ages every
    /// silent member toward eviction without advancing the step, and a
    /// round someone joined closes on the first silence.
    #[test]
    fn silence_ages_misses_without_free_running_the_step() {
        let t0 = Instant::now();
        let mut core = Core::server(ServerState::fresh(2, vec![0.0]), &cfg(1, 3), t0);
        for tick in 1..=2 {
            core.on_silence(0, t0 + ROUND * tick);
        }
        assert_eq!(core.st.step, 0, "two empty ticks, no round");
        assert_eq!(core.missed, vec![2, 2]);
        core.on_msg(flags(0, 0, 0), t0 + ROUND * 2).unwrap();
        let wait = core.on_silence(0, t0 + ROUND * 3).unwrap();
        assert_eq!(wait.deadline, t0 + ROUND * 4);
        let (sends, _) = drain(&mut core);
        // a joined round closes on silence; worker 1's third miss evicts
        // it before the status goes out
        assert_eq!(sends, vec![status(0, 0, &[STATUS_ALIVE, STATUS_DEAD])]);
        assert_eq!(core.st.step, 1);
        assert_eq!(core.missed, vec![0, 3]);
        assert_eq!(core.st.evictions, vec![(0, 1)]);
        let shutdown = Payload::Control(CTRL_SHUTDOWN);
        let tag = phase_tag(1, FLAGS_PHASE);
        let wait = core
            .on_msg(
                Msg {
                    from: 0,
                    tag,
                    payload: shutdown,
                },
                t0,
            )
            .unwrap();
        assert_eq!(wait, None, "no live member left: the run is over");
    }

    /// The grace window of a recovering server: silence inside it judges
    /// nobody, each first contact pushes its end out by one grace unit,
    /// and it ends for good once it expires — or once every live member
    /// has been heard.
    #[test]
    fn grace_window_extends_on_first_contact_and_expires() {
        let t0 = Instant::now();
        let grace = Duration::from_secs(1);
        let graced = ElasticConfig {
            resume_grace: grace,
            ..cfg(1, 1)
        };
        let resumed = state(2, vec![0.0], vec![true, true]);
        let ms = Duration::from_millis;

        let mut core = Core::server(resumed.clone(), &graced, t0);
        core.on_silence(0, t0 + ms(500));
        assert_eq!(core.missed, vec![0, 0], "silence in grace judges nobody");
        core.on_msg(flags(0, 2, 0), t0 + ms(900)).unwrap();
        assert_eq!(core.grace_until, Some(t0 + ms(1900)), "extended by a unit");
        core.on_silence(0, t0 + ms(1500));
        assert!(core.st.evictions.is_empty());
        core.on_silence(0, t0 + ms(2000));
        assert_eq!(
            core.st.evictions,
            vec![(2, 1)],
            "grace over: one miss evicts"
        );

        let mut core = Core::server(resumed, &graced, t0);
        core.on_msg(flags(1, 2, 0), t0 + ms(100)).unwrap();
        core.on_msg(flags(0, 2, 0), t0 + ms(200)).unwrap();
        assert_eq!(core.grace_until, None, "every member heard: grace ends");
    }

    /// A bucketed push whose first frame lands before the sync window
    /// opens and whose last lands inside it assembles into one push.
    #[test]
    fn bucket_set_completes_across_phases() {
        let t0 = Instant::now();
        let mut core = Core::server(ServerState::fresh(2, vec![0.0; 4]), &cfg(4, 3), t0);
        let mut frames = bucket_payloads(&[1.0, 2.0, 3.0, 4.0], 2).into_iter();
        core.on_msg(push(0, 0, frames.next().unwrap()), t0).unwrap();
        core.on_msg(flags(0, 0, 1), t0).unwrap();
        core.on_msg(flags(1, 0, 0), t0).unwrap();
        assert!(matches!(core.phase, Phase::Sync { .. }));
        core.on_msg(push(0, 0, frames.next().unwrap()), t0).unwrap();
        core.on_msg(push(1, 0, Payload::ShardPush(vec![3.0, 4.0, 5.0, 6.0])), t0)
            .unwrap();
        let (_, durable) = drain(&mut core);
        assert_eq!(durable[0].global, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(core.st.step, 1);
    }

    /// A join request is queued while a round is in flight and granted
    /// at the step boundary, after the round's replies.
    #[test]
    fn join_is_granted_at_the_step_boundary() {
        let t0 = Instant::now();
        let resumed = state(6, vec![7.0], vec![true, false]);
        let mut core = Core::server(resumed, &cfg(1, 3), t0);
        let join = Payload::Control(CTRL_JOIN);
        core.on_msg(
            Msg {
                from: 1,
                tag: JOIN_TAG,
                payload: join,
            },
            t0,
        )
        .unwrap();
        assert!(drain(&mut core).0.is_empty(), "nothing granted mid-round");
        core.on_msg(flags(0, 6, 0), t0).unwrap();
        let (sends, _) = drain(&mut core);
        assert_eq!(
            sends,
            vec![
                status(6, 0, &[STATUS_ALIVE, STATUS_DEAD]),
                (1, JOIN_TAG, Payload::Control(7)),
                (1, JOIN_TAG, Payload::Params(vec![7.0])),
                (
                    1,
                    JOIN_TAG,
                    Payload::Flags(vec![STATUS_ALIVE, STATUS_ALIVE])
                ),
            ]
        );
        assert_eq!(core.st.joins, vec![(7, 1)]);
        assert_eq!(core.st.step, 7);
    }

    /// The one rule for a straggler's stale flags: a catch-up status
    /// marking it missed, in the flags round and in the sync window alike.
    #[test]
    fn stale_flags_draw_a_catch_up_status_in_either_phase() {
        let t0 = Instant::now();
        let resumed = state(2, vec![0.0], vec![true, true]);
        let mut core = Core::server(resumed, &cfg(1, 3), t0);
        let catch_up = status(1, 1, &[STATUS_ALIVE, STATUS_MISSED]);
        core.on_msg(flags(1, 1, 1), t0).unwrap();
        assert_eq!(drain(&mut core).0, vec![catch_up.clone()]);
        // worker 0 asks for a sync; worker 1's flags miss the round
        core.on_msg(flags(0, 2, 1), t0).unwrap();
        core.on_silence(0, t0 + ROUND);
        assert!(matches!(core.phase, Phase::Sync { .. }));
        drain(&mut core);
        core.on_msg(flags(1, 1, 1), t0 + ROUND).unwrap();
        assert_eq!(drain(&mut core).0, vec![catch_up]);
        assert!(matches!(core.phase, Phase::Sync { .. }));
    }

    /// An evicting send that finds its peer gone evicts it at the send's
    /// step, drops what else was queued for it, and lets the round close
    /// without it.
    #[test]
    fn an_unreachable_flag_sender_is_evicted_and_the_sync_closes_without_it() {
        let t0 = Instant::now();
        let mut core = Core::server(ServerState::fresh(2, vec![0.0]), &cfg(1, 3), t0);
        core.on_msg(flags(0, 0, 1), t0).unwrap();
        core.on_msg(flags(1, 0, 1), t0).unwrap();
        core.on_msg(push(0, 0, Payload::ShardPush(vec![4.0])), t0)
            .unwrap();
        assert!(
            matches!(core.phase, Phase::Sync { .. }),
            "rank 1 not pushed"
        );
        // the status send to rank 1 fails
        core.on_unreachable(1, 0);
        assert_eq!(core.st.evictions, vec![(0, 1)]);
        assert!(core
            .outbox
            .iter()
            .all(|a| !matches!(a, Action::Send { to: 1, .. })));
        assert_eq!(core.st.global, vec![4.0], "the sync closed on rank 0 alone");
        assert_eq!(core.st.step, 1);
    }

    /// A standby commits only whole shadow triples, promotes when worker
    /// traffic is waiting, and retires on the primary's word.
    #[test]
    fn standby_shadows_whole_triples_then_promotes_or_retires() {
        let t0 = Instant::now();
        let shadow = |payload| Msg {
            from: 3,
            tag: STANDBY_TAG,
            payload,
        };
        let max_silence = Duration::from_secs(10);
        let mut core = Core::standby(2, 3, vec![0.0], &cfg(1, 3), max_silence, t0);
        let wait = core.wait().unwrap();
        assert_eq!((wait.from, wait.tag), (Some(3), Some(STANDBY_TAG)));
        core.on_msg(shadow(Payload::Control(2)), t0).unwrap();
        core.on_msg(shadow(Payload::Params(vec![5.0])), t0).unwrap();
        core.on_msg(shadow(Payload::Flags(vec![1, 3])), t0).unwrap();
        // a torn triple: Params never arrives
        core.on_msg(shadow(Payload::Control(3)), t0).unwrap();
        core.on_msg(shadow(Payload::Flags(vec![0, 0])), t0).unwrap();
        assert_eq!((core.st.step, core.st.syncs), (3, 1));
        assert_eq!(core.st.global, vec![5.0]);
        assert_eq!(
            (core.st.alive.clone(), core.st.done.clone()),
            (vec![true, true], vec![false, true])
        );

        let mut retiring = Core::standby(2, 3, vec![0.0], &cfg(1, 3), max_silence, t0);
        retiring
            .on_msg(shadow(Payload::Control(STANDBY_RETIRE)), t0)
            .unwrap();
        assert_eq!(retiring.retired(), Some(0));

        assert!(
            core.on_silence(0, t0 + ROUND).is_some(),
            "nothing waiting yet"
        );
        let wait = core.on_silence(2, t0 + ROUND * 2).unwrap();
        assert_eq!((wait.from, wait.tag), (None, None), "promoted: serving");
        assert_eq!(core.retired(), None);
        core.on_msg(flags(0, 3, 0), t0 + ROUND * 2).unwrap();
        assert_eq!(
            drain(&mut core).0,
            vec![status(3, 0, &[STATUS_ALIVE, STATUS_DEAD])]
        );
    }

    /// The eviction rule replayed through the core: feed it a flags
    /// history (`history[round][worker]` is `Some(bit)` if that worker's
    /// flag arrived), closing each round on silence and answering each
    /// sync window with pushes, and read off the membership.
    fn replay_survivors(history: &[Vec<Option<u8>>], max_missed: u32) -> Vec<bool> {
        let mut now = Instant::now();
        let n = history[0].len();
        let mut core = Core::server(ServerState::fresh(n, vec![0.0]), &cfg(1, max_missed), now);
        for (step, round) in (0u64..).zip(history) {
            for (w, bit) in round.iter().enumerate() {
                if let Some(bit) = bit {
                    core.on_msg(flags(w, step, *bit), now).unwrap();
                }
            }
            if core.st.step == step && matches!(core.phase, Phase::Flags) {
                now += ROUND;
                core.on_silence(0, now);
            }
            if let Phase::Sync { members, .. } = &core.phase {
                for w in members.clone() {
                    core.on_msg(push(w, step, Payload::ShardPush(vec![1.0])), now)
                        .unwrap();
                }
            }
            assert_eq!(core.st.step, step + 1, "round {step} closed");
        }
        core.st.alive
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
}
