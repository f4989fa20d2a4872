//! # selsync-core
//!
//! The paper's contribution: **SelSync** — selective synchronization for
//! distributed DNN training (Alg. 1) — together with the baselines it is
//! evaluated against (BSP, FedAvg, SSP), a threaded distributed trainer
//! that runs any of them over the `selsync-comm` fabric, the timing
//! replayer that converts a run's decision log into paper-scale
//! wall-clock via the network cost model, and the gradient-compression
//! extensions the paper situates itself against (§II-D).
//!
//! Quick start:
//!
//! ```no_run
//! use selsync_core::prelude::*;
//!
//! let workload = Workload::vision(ModelKind::ResNetMini, 512, 256, 42);
//! let config = RunConfig {
//!     strategy: Strategy::SelSync { delta: 0.25, aggregation: Aggregation::Parameter },
//!     n_workers: 4,
//!     ..RunConfig::quick_defaults()
//! };
//! let result = run_distributed(&config, &workload);
//! println!("LSSR = {:.3}, final metric = {:.3}", result.lssr.lssr(), result.final_metric);
//! ```

// The unsafe-outside-kernels invariant (selsync-lint), compiler-enforced:
// SIMD and socket code live in crates/tensor and crates/net only.
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod compression;
pub mod config;
pub mod divergence;
pub mod elastic;
pub mod metrics;
pub mod timing;
pub mod trainer;
pub mod workload;

pub use checkpoint::{CheckpointError, TrainState};
pub use config::{Aggregation, CompressionKind, OptimKind, RunConfig, Strategy, SyncBackend};
pub use elastic::{
    rejoin_elastic_worker_rank, run_elastic_server_rank, run_elastic_server_rank_from,
    run_elastic_worker_rank, run_standby_server_rank, shard_map_for, shard_state_path,
    worker_state_path, ElasticOptions,
};
pub use metrics::{EvalRecord, RunResult, StepRecord};
pub use trainer::{run_distributed, run_server_rank, run_worker_rank, WorkerOutput};
pub use workload::Workload;

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::config::{
        Aggregation, CompressionKind, OptimKind, RunConfig, Strategy, SyncBackend,
    };
    pub use crate::metrics::{EvalRecord, RunResult, StepRecord};
    pub use crate::timing::{
        simulate_heterogeneous, simulate_timeline, TimingBreakdown, TimingParams,
    };
    pub use crate::trainer::run_distributed;
    pub use crate::workload::Workload;
    pub use selsync_data::{InjectionConfig, PartitionScheme};
    pub use selsync_nn::models::ModelKind;
    pub use selsync_nn::LrSchedule;
}
