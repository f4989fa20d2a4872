//! The four workloads, and what one *episode* of each does.
//!
//! A run is a sequence of episodes on one mesh. An episode is a complete,
//! deterministic job — a fresh model trained for a fixed number of steps,
//! or a fixed number of dense sync rounds — whose inputs come from a
//! sub-seed derived from `--seed` and the episode index. Counts and
//! convergence numbers are averaged over the first
//! [`counted_episodes`] sub-seeds, which is what keeps them steady from
//! one `--seed` to the next; rates are medians over every episode run.

use selsync_comm::ps::{run_round_server, send_shutdown, sync_round, SyncRequest};
use selsync_comm::{Transport, TransportError};
use selsync_core::prelude::*;
use selsync_core::trainer::{run_server_rank, run_worker_rank, WorkerOutput};
use selsync_core::{OptimKind, RunConfig, SyncBackend};
use selsync_stats::LssrCounter;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Ranks of every workload: two workers and the parameter server, one
/// thread each, sized for a two-core host.
pub const N_WORKERS: usize = 2;

/// Which fabric a workload's mesh is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    Channel,
    Tcp,
    Poll,
}

/// What an episode runs.
#[derive(Debug, Clone, Copy)]
pub enum Task {
    /// Train a mini model from scratch through the trainer's rank entry
    /// points.
    Train {
        kind: ModelKind,
        strategy: Strategy,
        lr: f32,
        momentum: f32,
        weight_decay: f32,
        /// Training samples (vision) or bptt windows (text).
        train_units: usize,
        eval_every: u64,
        /// Quality target on worker 0's eval curve: accuracy to reach, or
        /// perplexity to get under.
        target: f32,
    },
    /// No model: every worker pushes a `len`-float gradient each round.
    Dense { len: usize },
}

/// A workload as `--workload` names it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: FabricKind,
    pub task: Task,
    /// Steps (rounds) per episode, sized to about 1.2 s on the reference
    /// host so that [`counted_episodes`] of them fit the timed window.
    pub episode_steps: u64,
}

const PA: Aggregation = Aggregation::Parameter;

/// Held-out samples per vision eval: 128 keeps the eval at about 5% of
/// worker 0's time at `eval_every` = 100 and the accuracy quantum under 1%.
const VISION_TEST_N: usize = 128;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "train_local_chan",
        why: "Compute-bound: SelSync on ResNetMini over in-process channels, ~92% of steps local, \
              no socket and no codec; the bypass workload for every net/comm optimisation.",
        fabric: FabricKind::Channel,
        task: Task::Train {
            kind: ModelKind::ResNetMini,
            strategy: Strategy::SelSync {
                delta: 0.10,
                aggregation: PA,
            },
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 4e-4,
            train_units: 768,
            eval_every: 100,
            target: 0.70,
        },
        episode_steps: 600,
    },
    Spec {
        name: "train_bsp_tcp",
        why: "Sync-bound with 58 KB frames: BSP on VggMini pushes and pulls every step over blocking \
              TCP, so codec, sockets, reader threads and the PS are most of the step.",
        fabric: FabricKind::Tcp,
        task: Task::Train {
            kind: ModelKind::VggMini,
            strategy: Strategy::Bsp { aggregation: PA },
            lr: 0.02,
            momentum: 0.5,
            weight_decay: 5e-4,
            train_units: 1536,
            eval_every: 100,
            target: 0.40,
        },
        episode_steps: 500,
    },
    Spec {
        name: "train_selsync_poll",
        why: "The paper's strategy over sockets: a 1-byte-flag allgather every step (latency-bound on \
              the poll driver's sweep) plus a full push on ~10% of steps, TransformerMini over poll TCP.",
        fabric: FabricKind::Poll,
        task: Task::Train {
            kind: ModelKind::TransformerMini,
            strategy: Strategy::SelSync {
                delta: 0.06,
                aggregation: PA,
            },
            lr: 0.04,
            momentum: 0.9,
            weight_decay: 0.0,
            train_units: 768,
            eval_every: 50,
            target: 8.0,
        },
        episode_steps: 600,
    },
    Spec {
        name: "sync_dense_tcp",
        why: "The paper's regime, comm >> compute: no model, two workers push 4 MB gradients to the PS \
              every round over blocking TCP; bandwidth-, CRC-, allocation- and reduce-bound.",
        fabric: FabricKind::Tcp,
        task: Task::Dense { len: 1 << 20 },
        episode_steps: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How many episodes (sub-seeds `0..k`) the exact counts are averaged
/// over. A function of `--seconds` alone, so two runs with the same seed
/// and window agree to the last digit however fast the host is.
pub fn counted_episodes(seconds: u64) -> u64 {
    (seconds * 3 / 5).max(2)
}

/// SplitMix64 of the run seed and the episode index, kept under 2^32
/// because the dataset builders add small offsets to their seed.
pub fn sub_seed(seed: u64, episode: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(episode.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// One episode's inputs, built from a sub-seed before the episode is timed.
#[allow(clippy::large_enum_variant)] // one job per episode, never stored in bulk
pub enum Job {
    Train {
        config: RunConfig,
        workload: Workload,
    },
    Dense {
        /// `pushes[w]` is what worker `w` pushes every round.
        pushes: Vec<Vec<f32>>,
        /// The mean the PS must reply with, reduced in worker-id order as
        /// the PS does, so the comparison is bit-exact.
        expected: Vec<f32>,
        rounds: u64,
    },
}

/// What one rank returns from an episode.
pub enum RankOut {
    Worker(WorkerOutput),
    Server(Vec<f32>),
    /// A dense worker: did the first and last reply equal the mean?
    DenseWorker {
        mean_ok: bool,
    },
}

impl Spec {
    /// Build episode inputs for `seed` (a sub-seed). Every field of the
    /// run config is spelled out: the workload is frozen here, not
    /// inherited from defaults a later change could move.
    pub fn job(&self, seed: u64) -> Job {
        match self.task {
            Task::Train {
                kind,
                strategy,
                lr,
                momentum,
                weight_decay,
                train_units,
                eval_every,
                ..
            } => {
                let workload = match kind {
                    ModelKind::TransformerMini => {
                        Workload::text(train_units * selsync_core::workload::SEQ_LEN, seed)
                    }
                    _ => Workload::vision(kind, train_units, VISION_TEST_N, seed),
                };
                let config = RunConfig {
                    strategy,
                    n_workers: N_WORKERS,
                    batch_size: 8,
                    max_steps: self.episode_steps,
                    eval_every,
                    partition: PartitionScheme::SelDp,
                    noniid_labels: None,
                    injection: None,
                    lr: LrSchedule::Constant { lr },
                    optim: OptimKind::Sgd {
                        momentum,
                        weight_decay,
                    },
                    ewma_window: 25,
                    ewma_alpha: RunConfig::paper_ewma_alpha(N_WORKERS),
                    seed,
                    straggler: None,
                    backend: SyncBackend::ParameterServer,
                    compression: None,
                    grad_clip: None,
                    overlap_buckets: None,
                    wire_compression: false,
                };
                Job::Train { config, workload }
            }
            Task::Dense { len } => {
                let pushes: Vec<Vec<f32>> = (0..N_WORKERS)
                    .map(|w| lcg_floats(len, sub_seed(seed, w as u64 + 1)))
                    .collect();
                let mut expected = pushes[0].clone();
                for push in &pushes[1..] {
                    for (e, v) in expected.iter_mut().zip(push) {
                        *e += v;
                    }
                }
                for e in &mut expected {
                    *e /= N_WORKERS as f32;
                }
                Job::Dense {
                    pushes,
                    expected,
                    rounds: self.episode_steps,
                }
            }
        }
    }

    /// Whether lower eval values are better (perplexity) for this task.
    pub fn lower_is_better(&self) -> bool {
        matches!(self.task, Task::Train { kind, .. } if kind.lower_is_better())
    }
}

/// `len` values in (-0.5, 0.5) from a 64-bit LCG started at `state`.
pub fn lcg_floats(len: usize, mut state: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

impl Job {
    /// Run this rank's part of the episode. The PS is rank [`N_WORKERS`].
    pub fn run_rank<T: Transport>(&self, ep: &mut T) -> Result<RankOut, TransportError> {
        let server = ep.id() == N_WORKERS;
        match self {
            Job::Train { config, workload } if server => {
                run_server_rank(ep, config, workload).map(RankOut::Server)
            }
            Job::Train { config, workload } => {
                run_worker_rank(ep, config, workload).map(RankOut::Worker)
            }
            Job::Dense { .. } if server => {
                run_round_server(ep, N_WORKERS, Vec::new()).map(RankOut::Server)
            }
            Job::Dense {
                pushes,
                expected,
                rounds,
            } => {
                let mine = &pushes[ep.id()];
                let mut mean_ok = true;
                for round in 0..*rounds {
                    let reply =
                        sync_round(ep, N_WORKERS, round, SyncRequest::PushGrads(mine.clone()))?;
                    if round == 0 || round + 1 == *rounds {
                        mean_ok &= reply[..] == expected[..];
                    }
                }
                send_shutdown(ep, N_WORKERS, *rounds)?;
                Ok(RankOut::DenseWorker { mean_ok })
            }
        }
    }
}

/// One finished episode.
pub struct Episode {
    /// Wall time from handing the ranks their work to the last rank's return.
    pub wall_s: f64,
    /// Rank order: workers, then the PS.
    pub ranks: Vec<RankOut>,
}

type RankWork = Box<dyn FnOnce() + Send>;

/// The ranks of a run: one long-lived thread per rank, as a rank is one
/// long-lived process in a deployment. Keeping the threads for the whole
/// run also keeps each rank in one allocator arena, which is what makes
/// `peak_rss_mb` repeat from run to run.
pub struct RankPool {
    lanes: Vec<mpsc::Sender<RankWork>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl RankPool {
    pub fn new() -> Self {
        let (lanes, threads) = (0..=N_WORKERS)
            .map(|rank| {
                let (tx, rx) = mpsc::channel::<RankWork>();
                let thread = thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || rx.into_iter().for_each(|work| work()))
                    .expect("spawn rank thread");
                (tx, thread)
            })
            .unzip();
        RankPool { lanes, threads }
    }

    /// Run one episode, rank `i` on `eps[i]`, and hand the endpoints back.
    pub fn run_episode<T: Transport + Send + 'static>(
        &self,
        eps: Vec<T>,
        job: &Arc<Job>,
    ) -> (Vec<T>, Result<Episode, TransportError>) {
        assert_eq!(eps.len(), self.lanes.len(), "one endpoint per rank");
        let (done, results) = mpsc::channel();
        let start = Instant::now();
        for (rank, mut ep) in eps.into_iter().enumerate() {
            let (job, done) = (Arc::clone(job), done.clone());
            let work = move || {
                let out = job.run_rank(&mut ep);
                // the receiver outlives every rank's work
                let _ = done.send((rank, ep, out));
            };
            self.lanes[rank]
                .send(Box::new(work))
                .expect("rank thread is alive");
        }
        drop(done);
        let mut finished: Vec<_> = results.iter().collect();
        let wall_s = start.elapsed().as_secs_f64();
        assert_eq!(finished.len(), self.lanes.len(), "a rank thread panicked");
        finished.sort_by_key(|(rank, ..)| *rank);
        let (eps, outs): (Vec<T>, Vec<_>) =
            finished.into_iter().map(|(_, ep, out)| (ep, out)).unzip();
        let ranks = outs.into_iter().collect::<Result<Vec<_>, _>>();
        (eps, ranks.map(|ranks| Episode { wall_s, ranks }))
    }
}

impl Drop for RankPool {
    fn drop(&mut self) {
        self.lanes.clear();
        for t in self.threads.drain(..) {
            // a rank that panicked already failed its episode's assert
            let _ = t.join();
        }
    }
}

/// What the output checks and the convergence numbers need from a
/// training episode.
pub struct TrainOutcome<'a> {
    pub workers: Vec<&'a WorkerOutput>,
    pub server_params: &'a [f32],
}

impl Episode {
    pub fn train_outcome(&self) -> Option<TrainOutcome<'_>> {
        let mut workers = Vec::new();
        let mut server_params = None;
        for r in &self.ranks {
            match r {
                RankOut::Worker(w) => workers.push(w),
                RankOut::Server(p) => server_params = Some(p.as_slice()),
                RankOut::DenseWorker { .. } => return None,
            }
        }
        workers.sort_by_key(|w| w.worker);
        Some(TrainOutcome {
            workers,
            server_params: server_params?,
        })
    }

    /// For a dense episode: did every worker see the mean?
    pub fn dense_mean_ok(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| !matches!(r, RankOut::DenseWorker { mean_ok: false }))
    }
}

fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

impl TrainOutcome<'_> {
    /// Bit-identical parameters on the PS and every worker, and the same
    /// local/sync counts: what the same job must give on any fabric.
    pub fn same_as(&self, other: &TrainOutcome<'_>) -> bool {
        bits(self.server_params).eq(bits(other.server_params))
            && self.workers.len() == other.workers.len()
            && self
                .workers
                .iter()
                .zip(&other.workers)
                .all(|(a, b)| a.lssr == b.lssr && bits(&a.final_params).eq(bits(&b.final_params)))
    }

    pub fn lssr(&self) -> LssrCounter {
        self.workers[0].lssr
    }

    pub fn final_metric(&self) -> f32 {
        self.workers[0].evals.last().map_or(f32::NAN, |e| e.metric)
    }

    /// Steps until worker 0's eval curve first meets `target`, linearly
    /// interpolated between the two evals that bracket the crossing.
    pub fn steps_to_target(&self, target: f32, lower_is_better: bool) -> Option<f64> {
        let met = |m: f32| {
            if lower_is_better {
                m <= target
            } else {
                m >= target
            }
        };
        let mut prev: Option<(f64, f32)> = None;
        for e in &self.workers[0].evals {
            let at = (e.step + 1) as f64;
            if met(e.metric) {
                return Some(match prev {
                    Some((p_at, p_m)) => {
                        p_at + f64::from((target - p_m) / (e.metric - p_m)) * (at - p_at)
                    }
                    None => at,
                });
            }
            prev = Some((at, e.metric));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_comm::Endpoint;
    use selsync_core::EvalRecord;

    fn outcome_with_curve(curve: &[(u64, f32)]) -> WorkerOutput {
        WorkerOutput {
            worker: 0,
            final_params: Vec::new(),
            lssr: LssrCounter::new(),
            records: Vec::new(),
            evals: curve
                .iter()
                .map(|&(step, metric)| EvalRecord {
                    step,
                    epoch: 0.0,
                    metric,
                })
                .collect(),
            logical_sync_bytes: 0,
        }
    }

    #[test]
    fn crossing_is_interpolated_between_evals() {
        let w = outcome_with_curve(&[(99, 0.25), (199, 0.75), (299, 0.9)]);
        let o = TrainOutcome {
            workers: vec![&w],
            server_params: &[],
        };
        assert_eq!(o.steps_to_target(0.25, false), Some(100.0));
        assert_eq!(o.steps_to_target(0.5, false), Some(150.0));
        assert_eq!(o.steps_to_target(0.95, false), None);
        let p = outcome_with_curve(&[(49, 40.0), (99, 10.0)]);
        let o = TrainOutcome {
            workers: vec![&p],
            server_params: &[],
        };
        assert_eq!(o.steps_to_target(25.0, true), Some(75.0));
    }

    #[test]
    fn sub_seeds_differ_and_stay_small() {
        let seeds: Vec<u64> = (0..12).map(|e| sub_seed(1, e)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(*a < 1 << 32);
            assert!(seeds[i + 1..].iter().all(|b| a != b));
        }
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(counted_episodes(20), 12);
        assert_eq!(counted_episodes(1), 2);
    }

    #[test]
    fn dense_episode_replies_with_the_mean() {
        let spec = Spec {
            task: Task::Dense { len: 1000 },
            episode_steps: 3,
            ..*find("sync_dense_tcp").unwrap()
        };
        let pool = RankPool::new();
        let eps: Vec<Endpoint> = selsync_comm::Fabric::new(N_WORKERS + 1);
        let mut job = spec.job(7);
        let (eps, ep) = pool.run_episode(eps, &Arc::new(spec.job(7)));
        assert!(ep.unwrap().dense_mean_ok());
        if let Job::Dense { expected, .. } = &mut job {
            expected[0] += 1.0;
        }
        let (_, ep) = pool.run_episode(eps, &Arc::new(job));
        assert!(!ep.unwrap().dense_mean_ok(), "a wrong reply must be caught");
    }
}
