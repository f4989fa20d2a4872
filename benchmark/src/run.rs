//! One benchmark run: set-up, the output checks, the timed window, and
//! the metrics read off it — with tracing off for the end-to-end numbers,
//! or with every episode run twice, bare and traced, for the per-layer ones.

use crate::fabric::{distinct_stats, Mesh};
use crate::layers;
use crate::metrics::{interquartile_mean, median, peak_rss_mb, process_cpu_s, Metric, END_TO_END};
use crate::trace::{summarize, write_jsonl, RankLog, TracedTransport};
use crate::workloads::{
    counted_episodes, sub_seed, Episode, FabricKind, Job, RankPool, Spec, Task, N_WORKERS,
};
use selsync_comm::{CommStats, Endpoint};
use selsync_net::{PollTcpEndpoint, TcpEndpoint};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What a run hands back to `main`.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Listed metrics this workload does not define — convergence on
    /// `sync_dense_tcp`, which has no model — with a stand-in value. The
    /// pipeline's result line must carry them; nothing else shows them.
    pub fillers: Vec<Metric>,
    /// Free-form lines for the human reader (attribution table, notes).
    pub report: String,
    /// Worker-steps the run set out to do, and how many did not complete
    /// or cannot be trusted because a check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check; empty means the outputs are correct.
    pub violations: Vec<String>,
}

/// What the command line asked for.
pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the trace file goes.
    pub out_dir: &'a Path,
}

impl Plan<'_> {
    /// Episodes the exact counts are averaged over.
    fn counted(&self) -> u64 {
        counted_episodes(self.seconds)
    }

    fn ops_per_episode(&self) -> u64 {
        self.spec.episode_steps * N_WORKERS as u64
    }
}

pub fn run(plan: &Plan) -> Outcome {
    match plan.spec.fabric {
        FabricKind::Channel => run_on::<Endpoint>(plan),
        FabricKind::Tcp => run_on::<TcpEndpoint>(plan),
        FabricKind::Poll => run_on::<PollTcpEndpoint>(plan),
    }
}

fn run_on<E: Mesh>(plan: &Plan) -> Outcome {
    let mut out = Outcome {
        metrics: Vec::new(),
        fillers: Vec::new(),
        report: String::new(),
        attempted: plan.counted() * plan.ops_per_episode(),
        failed: 0,
        violations: Vec::new(),
    };
    if let Err(fatal) = measure::<E>(plan, &mut out) {
        out.violations.push(fatal);
    }
    if !out.violations.is_empty() && out.failed == 0 {
        // the check that failed covers the whole run
        out.failed = out.attempted;
    }
    out
}

fn measure<E: Mesh>(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (spec, trace) = (plan.spec, plan.trace);
    let pool = RankPool::new();
    let (mut mesh, setup_s) = set_up::<E>(spec, plan.seed, &pool)?;
    let stats = distinct_stats(&mesh);
    // the direct rows run before the window so they do not share the CPU
    let ladder = if trace {
        layers::run_ladder()
    } else {
        Vec::new()
    };
    let window = Window::run(plan, &pool, &mut mesh, &stats, out)?;
    let (lost, link_faults) = check_fabric(&mut mesh, &stats, out);

    // counts and convergence come from the first sub-seeds only, so they
    // do not depend on how many episodes the host had time for
    let k = plan.counted() as usize;
    let counted = if trace {
        &window.traced[..]
    } else {
        &window.untraced[..k]
    };
    let counts = Counts::of(spec, counted, out);
    let rates: Vec<f64> = window.untraced.iter().map(|e| e.rate(spec)).collect();
    let steps_per_s = median(&rates);
    let _ = writeln!(
        out.report,
        "{}: {} episodes of {} steps on the {} fabric in {:.2} s, {} counted\n  \
         untraced episode rates: min {:.2}, median {:.2}, max {:.2} steps/s\n  \
         sync fraction {:.4}",
        spec.name,
        window.episodes(),
        spec.episode_steps,
        E::NAME,
        window.wall_s,
        counted.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        steps_per_s,
        rates.iter().copied().fold(0.0, f64::max),
        counts.sync_fraction,
    );
    if let Some(c) = &counts.convergence {
        let _ = writeln!(
            out.report,
            "  steps to target {:.2}, final metric {:.4}",
            c.steps_to_target, c.final_metric
        );
    }

    if !trace {
        // in the order of the END_TO_END table, which names and units them
        let values = [
            Some(median(&setup_s)),
            Some(steps_per_s),
            counts
                .convergence
                .as_ref()
                .map(|c| c.steps_to_target / steps_per_s),
            Some(counts.wire_bytes_per_step),
            Some(window.cpu_s * 1e3 / (window.episodes() * spec.episode_steps) as f64),
            Some(peak_rss_mb()),
        ];
        // where there is no target, the one time there is stands in: an episode's
        let episode_s = spec.episode_steps as f64 / steps_per_s;
        for (m, value) in END_TO_END.iter().zip(values) {
            match value {
                Some(v) => out.metrics.push(Metric::new(m.name, v, m.unit)),
                None => out.fillers.push(Metric::new(m.name, episode_s, m.unit)),
            }
        }
        return Ok(());
    }

    out.metrics = ladder;
    // the ladder counted its own meshes' faults; add this mesh's
    if let Some(m) = out.metrics.iter_mut().find(|m| m.name == "net.link_faults") {
        m.value += link_faults as f64;
    }
    traced_metrics(plan, &window, out)?;
    out.metrics.extend([
        Metric::new("comm.dropped_or_corrupt_msgs", lost as f64, "count"),
        Metric::new("core.sync_fraction", counts.sync_fraction, "ratio"),
    ]);
    let converged = |steps_to_target, final_metric| {
        [
            Metric::new("core.steps_to_target", steps_to_target, "count"),
            Metric::new("core.final_metric", final_metric, "metric"),
        ]
    };
    match counts.convergence {
        Some(c) => out
            .metrics
            .extend(converged(c.steps_to_target, c.final_metric)),
        None => out.fillers.extend(converged(0.0, 0.0)),
    }
    Ok(())
}

/// Set up [`SETUPS`] times — inputs of sub-seed 0, a fresh mesh, one
/// warm-up episode on it — and keep the last mesh. The last warm-up also
/// serves the output check: the same job on the channel fabric must end
/// in the same bits.
fn set_up<E: Mesh>(spec: &Spec, seed: u64, pool: &RankPool) -> Result<(Vec<E>, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // the previous mesh's teardown is not part of the next set-up
        drop(kept.take());
        let start = Instant::now();
        let job = Arc::new(spec.job(sub_seed(seed, 0)));
        let mesh = E::connect(N_WORKERS + 1).map_err(|e| format!("mesh connect: {e}"))?;
        let (mesh, warm) = pool.run_episode(mesh, &job);
        let warm = warm.map_err(|e| format!("warm-up episode: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((mesh, job, warm));
    }
    let (mesh, job, warm) = kept.expect("SETUPS >= 1");
    match warm.train_outcome() {
        Some(on_fabric) => {
            let channel = Endpoint::connect(N_WORKERS + 1).expect("channel fabric");
            let reference = pool.run_episode(channel, &job).1;
            let reference = reference.map_err(|e| format!("reference episode: {e}"))?;
            if !on_fabric.same_as(&reference.train_outcome().expect("training job")) {
                return Err(format!(
                    "parameters or sync counts differ between the {} fabric and the channel fabric",
                    E::NAME
                ));
            }
        }
        None if !warm.dense_mean_ok() => {
            return Err("warm-up reply is not the mean of the pushes".into())
        }
        None => {}
    }
    Ok((mesh, setup_s))
}

/// The numbers kept from one timed episode.
struct EpisodeStats {
    wall_s: f64,
    wire_bytes: u64,
    sync_steps: u64,
    /// Training episodes only: a dense episode has no model to converge.
    trained: Option<Trained>,
    outputs_ok: bool,
}

struct Trained {
    /// Steps to the target; `None` when the curve never met it.
    crossing: Option<f64>,
    final_metric: f64,
}

impl EpisodeStats {
    fn of(spec: &Spec, episode: &Episode, wire_bytes: u64) -> Self {
        match (spec.task, episode.train_outcome()) {
            (Task::Train { target, .. }, Some(o)) => {
                let final_metric = f64::from(o.final_metric());
                EpisodeStats {
                    wall_s: episode.wall_s,
                    wire_bytes,
                    sync_steps: o.lssr().sync_steps,
                    trained: Some(Trained {
                        crossing: o.steps_to_target(target, spec.lower_is_better()),
                        final_metric,
                    }),
                    outputs_ok: final_metric.is_finite(),
                }
            }
            // every dense round is a sync
            _ => EpisodeStats {
                wall_s: episode.wall_s,
                wire_bytes,
                sync_steps: spec.episode_steps,
                trained: None,
                outputs_ok: episode.dense_mean_ok(),
            },
        }
    }

    fn rate(&self, spec: &Spec) -> f64 {
        spec.episode_steps as f64 / self.wall_s
    }
}

fn sent_bytes(stats: &[Arc<CommStats>]) -> u64 {
    stats.iter().map(|s| s.total_bytes()).sum()
}

/// Run `job` as a timed episode on `mesh`; with `logs`, every rank's
/// endpoint is wrapped in a [`TracedTransport`] for the episode.
fn timed_episode<E: Mesh>(
    spec: &Spec,
    pool: &RankPool,
    mesh: &mut Vec<E>,
    stats: &[Arc<CommStats>],
    job: &Arc<Job>,
    logs: Option<(&mut Vec<RankLog>, u32)>,
) -> Result<EpisodeStats, String> {
    let before = sent_bytes(stats);
    let eps = std::mem::take(mesh);
    let episode = match logs {
        None => {
            let (eps, episode) = pool.run_episode(eps, job);
            *mesh = eps;
            episode
        }
        Some((logs, index)) => {
            let traced = eps
                .into_iter()
                .zip(logs.drain(..))
                .map(|(ep, log)| TracedTransport::new(ep, log, index))
                .collect();
            let (traced, episode) = pool.run_episode(traced, job);
            (*mesh, *logs) = traced.into_iter().map(TracedTransport::into_parts).unzip();
            episode
        }
    }
    .map_err(|e| format!("a rank returned a transport error: {e}"))?;
    Ok(EpisodeStats::of(spec, &episode, sent_bytes(stats) - before))
}

/// The timed window: episodes back to back on one mesh.
struct Window {
    /// Every episode on the bare endpoints, in sub-seed order.
    untraced: Vec<EpisodeStats>,
    /// Traced runs only: the same sub-seeds again, with spans recorded.
    traced: Vec<EpisodeStats>,
    /// One log per rank, the PS last; empty unless traced.
    logs: Vec<RankLog>,
    wall_s: f64,
    cpu_s: f64,
}

impl Window {
    fn run<E: Mesh>(
        plan: &Plan,
        pool: &RankPool,
        mesh: &mut Vec<E>,
        stats: &[Arc<CommStats>],
        out: &mut Outcome,
    ) -> Result<Window, String> {
        let (spec, seed, trace) = (plan.spec, plan.seed, plan.trace);
        let k = plan.counted();
        let pairs = (k / 2).max(1);
        let epoch = Instant::now();
        let capacity = if trace {
            (pairs * spec.episode_steps * 8) as usize
        } else {
            0
        };
        let mut w = Window {
            untraced: Vec::new(),
            traced: Vec::new(),
            logs: (0..=N_WORKERS)
                .map(|rank| RankLog::new(rank, N_WORKERS, epoch, capacity))
                .collect(),
            wall_s: 0.0,
            cpu_s: 0.0,
        };
        let cpu_start = process_cpu_s();
        loop {
            let index = w.untraced.len() as u64;
            let job = Arc::new(spec.job(sub_seed(seed, index)));
            let plain = timed_episode(spec, pool, mesh, stats, &job, None);
            w.untraced.push(w.completed(plan, plain, out)?);
            if trace {
                let logs = Some((&mut w.logs, index as u32));
                let with_spans = timed_episode(spec, pool, mesh, stats, &job, logs);
                w.traced.push(w.completed(plan, with_spans, out)?);
            }
            let enough = if trace {
                index + 1 >= pairs
            } else {
                // stop when the next episode would not fit, but never
                // before the counted sub-seeds have all run
                let walls: Vec<f64> = w.untraced.iter().map(|e| e.wall_s).collect();
                index + 1 >= k
                    && epoch.elapsed().as_secs_f64() + median(&walls) > plan.seconds as f64
            };
            if enough {
                break;
            }
        }
        w.wall_s = epoch.elapsed().as_secs_f64();
        w.cpu_s = process_cpu_s() - cpu_start;
        out.attempted = w.episodes() * plan.ops_per_episode();
        Ok(w)
    }

    fn episodes(&self) -> u64 {
        (self.untraced.len() + self.traced.len()) as u64
    }

    /// Pass a finished episode through; a failed one ends the run, with
    /// its own ops and those of the episodes still owed counted as failed.
    fn completed(
        &self,
        plan: &Plan,
        episode: Result<EpisodeStats, String>,
        out: &mut Outcome,
    ) -> Result<EpisodeStats, String> {
        episode.inspect_err(|_| {
            let done = self.episodes() * plan.ops_per_episode();
            out.attempted = out.attempted.max(done + plan.ops_per_episode());
            out.failed = out.attempted - done;
        })
    }
}

/// Checks over the whole life of the mesh: every byte sent was received,
/// nothing was dropped, duplicated or damaged. Returns the lost-message
/// and link-fault counts.
fn check_fabric<E: Mesh>(
    mesh: &mut [E],
    stats: &[Arc<CommStats>],
    out: &mut Outcome,
) -> (u64, usize) {
    let sent = sent_bytes(stats);
    let received: u64 = stats.iter().map(|s| s.recv_bytes()).sum();
    if sent != received {
        out.violations
            .push(format!("{sent} bytes sent but {received} received"));
    }
    let lost: u64 = stats
        .iter()
        .map(|s| s.dropped_messages() + s.corrupt_messages() + s.duplicated_messages())
        .sum();
    let link_faults: usize = mesh.iter_mut().map(Mesh::link_fault_count).sum();
    if lost > 0 || link_faults > 0 {
        out.violations.push(format!(
            "{lost} dropped, corrupt or duplicated messages, {link_faults} link faults"
        ));
    }
    (lost, link_faults)
}

/// What the counted episodes add up to: exact for a given seed and window.
struct Counts {
    wire_bytes_per_step: f64,
    sync_fraction: f64,
    /// `None` for a workload that trains nothing.
    convergence: Option<Convergence>,
}

struct Convergence {
    steps_to_target: f64,
    final_metric: f64,
}

impl Counts {
    fn of(spec: &Spec, counted: &[EpisodeStats], out: &mut Outcome) -> Counts {
        for (i, e) in counted.iter().enumerate() {
            if !e.outputs_ok {
                out.violations.push(format!(
                    "episode {i}: wrong reply or non-finite final metric"
                ));
            }
        }
        let trained: Vec<&Trained> = counted.iter().filter_map(|e| e.trained.as_ref()).collect();
        let convergence = (!trained.is_empty()).then(|| {
            // seeds differ in how long the loss plateaus before it drops, and
            // a rare one outlasts the episode: the interquartile mean ignores
            // up to a quarter of such episodes, more than that fails the run
            let crossings: Vec<Option<f64>> = trained.iter().map(|t| t.crossing).collect();
            let steps_to_target = interquartile_mean(&crossings).unwrap_or_else(|| {
                out.violations.push(format!(
                    "{} of {} counted episodes never met the target",
                    crossings.iter().filter(|c| c.is_none()).count(),
                    crossings.len()
                ));
                f64::NAN
            });
            Convergence {
                steps_to_target,
                final_metric: trained.iter().map(|t| t.final_metric).sum::<f64>()
                    / trained.len() as f64,
            }
        });
        let steps = (counted.len() as u64 * spec.episode_steps) as f64;
        Counts {
            wire_bytes_per_step: counted.iter().map(|e| e.wire_bytes).sum::<u64>() as f64 / steps,
            sync_fraction: counted.iter().map(|e| e.sync_steps).sum::<u64>() as f64 / steps,
            convergence,
        }
    }
}

/// The traced half of a traced run: summarize the spans, write them out,
/// and add the `comm.*`, `core.*` and `trace.*` rows read off them.
fn traced_metrics(plan: &Plan, window: &Window, out: &mut Outcome) -> Result<(), String> {
    let (spec, out_dir) = (plan.spec, plan.out_dir);
    let (ps_log, worker_logs) = window.logs.split_last().expect("one log per rank");
    let steps = spec.episode_steps;
    let summary = summarize(
        worker_logs,
        ps_log,
        steps,
        window.traced.len() as u64 * steps,
    );
    let traced_bytes: u64 = window.traced.iter().map(|e| e.wire_bytes).sum();
    if summary.total_sent_bytes != traced_bytes {
        out.violations.push(format!(
            "spans account for {} sent bytes, the fabric counted {traced_bytes}",
            summary.total_sent_bytes
        ));
    }
    // each pair ran the same sub-seed, so the ratio is of identical work
    let ratios: Vec<f64> = window
        .traced
        .iter()
        .zip(&window.untraced)
        .map(|(t, u)| t.rate(spec) / u.rate(spec))
        .collect();

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    let logs: Vec<&RankLog> = window.logs.iter().collect();
    write_jsonl(&path, &logs, steps).map_err(|e| format!("write {}: {e}", path.display()))?;
    let _ = writeln!(out.report, "  trace written to {}", path.display());
    out.report.push_str(&summary.attribution_table());

    out.metrics.extend([
        Metric::new("comm.send_ms_per_step", summary.send_ms_per_step, "ms"),
        Metric::new(
            "comm.recv_wait_ms_per_step",
            summary.recv_wait_ms_per_step,
            "ms",
        ),
        Metric::new("comm.sends_per_step", summary.sends_per_step, "count"),
        Metric::new("comm.bytes_per_step.flags", summary.bytes_per_step[0], "B"),
        Metric::new("comm.bytes_per_step.params", summary.bytes_per_step[1], "B"),
        Metric::new(
            "comm.bytes_per_step.control",
            summary.bytes_per_step[2],
            "B",
        ),
        Metric::new(
            "comm.ps_busy_ms_per_round",
            summary.ps_busy_ms_per_round,
            "ms",
        ),
        Metric::new("comm.ps_idle_share", summary.ps_idle_share, "ratio"),
        Metric::new("core.step_ms_p50", summary.step_ms_p50, "ms"),
        Metric::new("core.step_ms_p99", summary.step_ms_tail, "ms"),
        Metric::new(
            "core.compute_ms_per_step",
            summary.compute_ms_per_step,
            "ms",
        ),
        Metric::new("trace.overhead_share", 1.0 - median(&ratios), "ratio"),
    ]);
    Ok(())
}
