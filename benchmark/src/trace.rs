//! Tracing from outside the program: a [`Transport`] wrapper that records
//! one span per fabric call, the step spans derived from them, and the
//! step-time attribution built on both.
//!
//! A rank's calls are sequential and each carries the step it belongs to
//! in its tag, so a rank's *step span* runs from the end of its previous
//! step's last call to the end of this step's last call; its children are
//! the calls themselves. Self time is the span minus its children: on a
//! worker that is compute (data, forward, backward, optimizer, Δ(g),
//! eval), on the PS it is reduce + apply.

use selsync_comm::collectives::tag_step;
use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step id of traffic that belongs to set-up: the trainer's initial pull
/// is tagged `u64::MAX`, which is also what this constant must equal.
pub const SETUP_STEP: u64 = u64::MAX;

/// Which `Transport` method a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Send,
    RecvTagged,
    RecvDeadline,
    RecvAny,
    TryRecv,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Send => "send",
            Op::RecvTagged => "recv_tagged",
            Op::RecvDeadline => "recv_deadline",
            Op::RecvAny => "recv_any",
            Op::TryRecv => "try_recv",
        }
    }
}

/// Payload families the byte breakdown reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flags,
    Params,
    Control,
    Other,
    /// A receive that returned no message (timeout, empty poll).
    None,
}

impl Kind {
    fn of(p: &Payload) -> Kind {
        match p {
            Payload::Flags(_) => Kind::Flags,
            Payload::Params(_) | Payload::SharedParams(_) | Payload::Grads(_) => Kind::Params,
            Payload::Control(_) => Kind::Control,
            _ => Kind::Other,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Flags => "flags",
            Kind::Params => "params",
            Kind::Control => "control",
            Kind::Other => "other",
            Kind::None => "none",
        }
    }
}

/// The step a frame belongs to. Worker↔worker frames (the flags
/// allgather) carry `step * TAG_STRIDE + phase`; worker↔PS frames carry
/// the step itself, which is how `sync_round` tags them.
pub fn step_of(tag: u64, me: usize, peer: Option<usize>, n_workers: usize) -> u64 {
    match peer {
        Some(p) if me < n_workers && p < n_workers => tag_step(tag),
        _ => tag,
    }
}

/// One fabric call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub op: Op,
    pub kind: Kind,
    pub episode: u32,
    pub step: u64,
    pub peer: Option<usize>,
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one rank recorded. Built with room for the whole run so
/// recording a span is a bounds check and a store.
#[derive(Debug)]
pub struct RankLog {
    pub rank: usize,
    n_workers: usize,
    epoch: Instant,
    episode: u32,
    pub spans: Vec<Span>,
    /// `(episode, start_ns, end_ns)` of every traced episode on this rank.
    pub episodes: Vec<(u32, u64, u64)>,
}

impl RankLog {
    /// `epoch` is shared by every rank of the run so their clocks agree.
    pub fn new(rank: usize, n_workers: usize, epoch: Instant, capacity: usize) -> Self {
        RankLog {
            rank,
            n_workers,
            epoch,
            episode: 0,
            spans: Vec::with_capacity(capacity),
            episodes: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark the start of episode `episode` on this rank.
    fn begin_episode(&mut self, episode: u32) {
        self.episode = episode;
        let t = self.now();
        self.episodes.push((episode, t, t));
    }

    /// Mark the end of the episode begun last.
    fn end_episode(&mut self) {
        let t = self.now();
        if let Some(last) = self.episodes.last_mut() {
            last.2 = t;
        }
    }

    /// Close the span that began at `start_ns`.
    fn record(
        &mut self,
        op: Op,
        start_ns: u64,
        peer: Option<usize>,
        tag: u64,
        kind: Kind,
        bytes: u64,
    ) {
        let end_ns = self.now();
        self.spans.push(Span {
            op,
            kind,
            episode: self.episode,
            step: step_of(tag, self.rank, peer, self.n_workers),
            peer,
            bytes,
            start_ns,
            end_ns,
        });
    }

    /// Close a receive span: the message says who sent it and for which
    /// step; a receive that returned nothing keeps what the caller asked for.
    fn record_recv(
        &mut self,
        op: Op,
        start_ns: u64,
        from: Option<usize>,
        tag: Option<u64>,
        got: Option<&Msg>,
    ) {
        match got {
            Some(m) => {
                let (kind, bytes) = (Kind::of(&m.payload), m.payload.wire_bytes());
                self.record(op, start_ns, Some(m.from), m.tag, kind, bytes);
            }
            None => self.record(op, start_ns, from, tag.unwrap_or(SETUP_STEP), Kind::None, 0),
        }
    }
}

/// A transport that records a span around every call into `inner`.
pub struct TracedTransport<T> {
    inner: T,
    log: RankLog,
}

impl<T: Transport> TracedTransport<T> {
    /// Wrap `inner` for episode `episode`; the episode's clock starts now.
    pub fn new(inner: T, mut log: RankLog, episode: u32) -> Self {
        log.begin_episode(episode);
        TracedTransport { inner, log }
    }

    /// End the episode and give the endpoint and the log back.
    pub fn into_parts(mut self) -> (T, RankLog) {
        self.log.end_episode();
        (self.inner, self.log)
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn fabric_size(&self) -> usize {
        self.inner.fabric_size()
    }

    fn stats(&self) -> &Arc<CommStats> {
        self.inner.stats()
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        let (kind, bytes) = (Kind::of(&payload), payload.wire_bytes());
        let start = self.log.now();
        let out = self.inner.send(to, tag, payload);
        self.log.record(Op::Send, start, Some(to), tag, kind, bytes);
        out
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        let start = self.log.now();
        let out = self.inner.recv_any();
        self.log
            .record_recv(Op::RecvAny, start, None, None, out.as_ref().ok());
        out
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        let start = self.log.now();
        let out = self.inner.recv_tagged(from, tag);
        self.log
            .record_recv(Op::RecvTagged, start, from, Some(tag), out.as_ref().ok());
        out
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        let start = self.log.now();
        let out = self.inner.recv_deadline(from, tag, timeout);
        self.log
            .record_recv(Op::RecvDeadline, start, from, tag, out.as_ref().ok());
        out
    }

    fn try_recv(&mut self) -> Option<Msg> {
        let start = self.log.now();
        let out = self.inner.try_recv();
        self.log
            .record_recv(Op::TryRecv, start, None, None, out.as_ref());
        out
    }
}

/// Nanoseconds of `parent` not covered by any of `children`. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// A rank's step (worker) or round (PS): the interval, and how its
/// children split.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpan {
    pub rank: usize,
    pub episode: u32,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub sends: u32,
    /// Index range of the child spans in the rank's log.
    pub children: (usize, usize),
}

/// Derive a rank's step spans. Steps `>= teardown_step` (the shutdown
/// round) and [`SETUP_STEP`] traffic get no step span; they only move the
/// point the next step starts from.
pub fn step_spans(log: &RankLog, teardown_step: u64) -> Vec<StepSpan> {
    let mut out = Vec::new();
    let mut cursor = 0;
    let mut episode = None;
    let mut i = 0;
    while i < log.spans.len() {
        let first = log.spans[i];
        if episode != Some(first.episode) {
            episode = Some(first.episode);
            cursor = log
                .episodes
                .iter()
                .find(|e| e.0 == first.episode)
                .map_or(first.start_ns, |e| e.1);
        }
        let mut j = i;
        while j < log.spans.len()
            && log.spans[j].episode == first.episode
            && log.spans[j].step == first.step
        {
            j += 1;
        }
        let group = &log.spans[i..j];
        let end_ns = group[group.len() - 1].end_ns;
        if first.step < teardown_step {
            let intervals: Vec<(u64, u64)> = group.iter().map(|s| (s.start_ns, s.end_ns)).collect();
            let time_in = |send: bool| -> u64 {
                group
                    .iter()
                    .filter(|s| (s.op == Op::Send) == send)
                    .map(|s| s.end_ns - s.start_ns)
                    .sum()
            };
            out.push(StepSpan {
                rank: log.rank,
                episode: first.episode,
                step: first.step,
                start_ns: cursor,
                end_ns,
                self_ns: self_time_ns((cursor, end_ns), &intervals),
                send_ns: time_in(true),
                recv_ns: time_in(false),
                sends: group.iter().filter(|s| s.op == Op::Send).count() as u32,
                children: (i, j),
            });
        }
        cursor = end_ns;
        i = j;
    }
    out
}

/// The tail percentile a sample of `n` supports: the highest of the usual
/// ladder that still leaves at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    // in whole percent, so that 100 samples leave exactly ten beyond p90
    [99, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .map_or(0.5, |p| p as f64 / 100.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-workload numbers read off a traced run.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub worker_steps: usize,
    pub step_ms_p50: f64,
    pub step_ms_tail: f64,
    pub tail_percentile: f64,
    pub compute_ms_per_step: f64,
    pub send_ms_per_step: f64,
    pub recv_wait_ms_per_step: f64,
    pub sends_per_step: f64,
    pub bytes_per_step: [f64; 3],
    pub total_sent_bytes: u64,
    pub rounds: usize,
    pub ps_busy_ms_per_round: f64,
    pub ps_idle_share: f64,
}

const MS: f64 = 1e-6;

/// Summarize the logs of one traced run: `workers` are the worker ranks,
/// `ps` the server. `cluster_steps` is episodes × steps per episode.
pub fn summarize(
    workers: &[RankLog],
    ps: &RankLog,
    teardown_step: u64,
    cluster_steps: u64,
) -> TraceSummary {
    let steps: Vec<StepSpan> = workers
        .iter()
        .flat_map(|l| step_spans(l, teardown_step))
        .collect();
    let n = steps.len().max(1) as f64;
    let mut durations: Vec<f64> = steps
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 * MS)
        .collect();
    durations.sort_by(f64::total_cmp);
    let tail = tail_percentile(durations.len());
    let sum = |f: fn(&StepSpan) -> u64| steps.iter().map(f).sum::<u64>() as f64;

    let mut by_kind = [0u64; 3];
    let mut total_sent = 0;
    for log in workers.iter().chain(std::iter::once(ps)) {
        for s in log.spans.iter().filter(|s| s.op == Op::Send) {
            total_sent += s.bytes;
            match s.kind {
                Kind::Flags => by_kind[0] += s.bytes,
                Kind::Params => by_kind[1] += s.bytes,
                Kind::Control => by_kind[2] += s.bytes,
                Kind::Other | Kind::None => {}
            }
        }
    }

    let rounds = step_spans(ps, teardown_step);
    let ps_busy: u64 = rounds.iter().map(|r| r.self_ns + r.send_ns).sum();
    let ps_wall: u64 = ps.episodes.iter().map(|e| e.2 - e.1).sum();
    let ps_recv: u64 = ps
        .spans
        .iter()
        .filter(|s| s.op != Op::Send)
        .map(|s| s.end_ns - s.start_ns)
        .sum();

    TraceSummary {
        worker_steps: steps.len(),
        step_ms_p50: percentile(&durations, 0.5),
        step_ms_tail: percentile(&durations, tail),
        tail_percentile: tail,
        compute_ms_per_step: sum(|s| s.self_ns) * MS / n,
        send_ms_per_step: sum(|s| s.send_ns) * MS / n,
        recv_wait_ms_per_step: sum(|s| s.recv_ns) * MS / n,
        sends_per_step: sum(|s| u64::from(s.sends)) / n,
        bytes_per_step: by_kind.map(|b| b as f64 / cluster_steps.max(1) as f64),
        total_sent_bytes: total_sent,
        rounds: rounds.len(),
        ps_busy_ms_per_round: ps_busy as f64 * MS / rounds.len().max(1) as f64,
        ps_idle_share: ps_recv as f64 / ps_wall.max(1) as f64,
    }
}

impl TraceSummary {
    /// Where a worker's step went, as printed after a traced run.
    pub fn attribution_table(&self) -> String {
        let mean = self.compute_ms_per_step + self.send_ms_per_step + self.recv_wait_ms_per_step;
        let share = |v: f64| 100.0 * v / mean.max(f64::MIN_POSITIVE);
        let mut t = String::new();
        let _ = writeln!(
            t,
            "step-time attribution (mean of {} worker steps)",
            self.worker_steps
        );
        let _ = writeln!(t, "  {:<12} {:>10} {:>7}", "phase", "ms/step", "share");
        for (name, v) in [
            ("compute", self.compute_ms_per_step),
            ("send", self.send_ms_per_step),
            ("recv wait", self.recv_wait_ms_per_step),
        ] {
            let _ = writeln!(t, "  {:<12} {:>10.4} {:>6.1}%", name, v, share(v));
        }
        let _ = writeln!(
            t,
            "  step p50 {:.4} ms, p{} {:.4} ms (n = {})",
            self.step_ms_p50,
            self.tail_percentile * 100.0,
            self.step_ms_tail,
            self.worker_steps
        );
        let _ = writeln!(
            t,
            "  PS: {} rounds, busy {:.4} ms/round, idle {:.1}% of its wall time",
            self.rounds,
            self.ps_busy_ms_per_round,
            100.0 * self.ps_idle_share
        );
        t
    }
}

/// Write every span as one JSON object per line. A step span and the
/// calls under it share `rank`/`episode`/`step`; `parent` is the id of the
/// step span, or null for set-up and teardown traffic.
pub fn write_jsonl(path: &Path, logs: &[&RankLog], teardown_step: u64) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    let mut next_id = 0u64;
    for log in logs {
        let steps = step_spans(log, teardown_step);
        let name = if log.rank == log.n_workers {
            "round"
        } else {
            "step"
        };
        let mut parent_of = vec![None; log.spans.len()];
        for s in &steps {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":null,\"name\":\"{}\",\"rank\":{},\"episode\":{},\"step\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                next_id, name, s.rank, s.episode, s.step, s.start_ns, s.end_ns, s.self_ns
            )?;
            for slot in &mut parent_of[s.children.0..s.children.1] {
                *slot = Some(next_id);
            }
            next_id += 1;
        }
        for (span, parent) in log.spans.iter().zip(parent_of) {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let step = (span.step != SETUP_STEP).then_some(span.step);
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rank\":{},\"episode\":{},\"step\":{},\
                 \"peer\":{},\"kind\":\"{}\",\"bytes\":{},\"start_ns\":{},\"end_ns\":{}}}",
                next_id,
                opt(parent),
                span.op.name(),
                log.rank,
                span.episode,
                opt(step),
                opt(span.peer.map(|p| p as u64)),
                span.kind.name(),
                span.bytes,
                span.start_ns,
                span.end_ns
            )?;
            next_id += 1;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_comm::collectives::{phase_tag, FLAGS_PHASE};

    #[test]
    fn self_time_subtracts_clipped_union_of_children() {
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 190)]), 50);
        // overlap counted once, children clipped to the parent
        assert_eq!(
            self_time_ns((100, 200), &[(90, 130), (120, 140), (195, 250)]),
            55
        );
        assert_eq!(self_time_ns((100, 200), &[(0, 300)]), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
    }

    #[test]
    fn step_id_follows_both_tag_encodings() {
        // worker↔worker: the flags allgather packs the step above the phase
        assert_eq!(step_of(phase_tag(37, FLAGS_PHASE), 0, Some(1), 2), 37);
        // worker↔PS in either direction: sync_round tags with the step itself
        assert_eq!(step_of(37, 0, Some(2), 2), 37);
        assert_eq!(step_of(37, 2, Some(1), 2), 37);
        // the PS never sees a phase tag, even with the sender unknown
        assert_eq!(step_of(300, 2, None, 2), 300);
        // the initial pull is set-up
        assert_eq!(step_of(u64::MAX, 1, Some(2), 2), SETUP_STEP);
    }

    fn span(op: Op, step: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            kind: Kind::Control,
            episode: 0,
            step,
            peer: Some(2),
            bytes: 29,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn step_spans_start_where_the_previous_step_ended() {
        let mut log = RankLog::new(0, 2, Instant::now(), 8);
        log.episodes.push((0, 1_000, 9_000));
        log.spans = vec![
            span(Op::Send, SETUP_STEP, 1_500, 1_600),
            span(Op::RecvTagged, SETUP_STEP, 1_600, 2_000),
            span(Op::Send, 0, 2_700, 2_800),
            span(Op::RecvTagged, 0, 2_800, 3_000),
            span(Op::Send, 1, 3_900, 4_000),
            span(Op::Send, 2, 8_000, 8_100), // shutdown round
        ];
        let steps = step_spans(&log, 2);
        assert_eq!(steps.len(), 2);
        // step 0 starts when the initial pull returned, not at episode start
        assert_eq!((steps[0].start_ns, steps[0].end_ns), (2_000, 3_000));
        assert_eq!(
            (steps[0].self_ns, steps[0].send_ns, steps[0].recv_ns),
            (700, 100, 200)
        );
        assert_eq!(
            (steps[1].start_ns, steps[1].end_ns, steps[1].self_ns),
            (3_000, 4_000, 900)
        );
        assert_eq!(steps[1].children, (4, 5));
    }
}
