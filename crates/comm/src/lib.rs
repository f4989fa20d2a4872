//! # selsync-comm
//!
//! The communication substrate for the SelSync reproduction: an
//! in-process message-passing fabric (threads + crossbeam channels)
//! playing the role of the paper's PyTorch-RPC / docker-swarm transport,
//! a parameter server with both round-synchronous and stale-synchronous
//! (SSP) service disciplines, allgather/allreduce collectives, and the
//! analytic **network cost model** + simulated clock that provide the
//! paper-scale timing axis (DESIGN.md substitution 1).
//!
//! Everything below exchanges *real* messages between *real* threads —
//! only wall-clock *claims* about a 16×V100/5 Gbps cluster come from the
//! cost model.

#![deny(unsafe_code)]

pub mod bucket;
pub mod clock;
pub mod collectives;
pub mod crc;
pub mod densify;
pub mod elastic;
pub mod error;
pub mod fabric;
pub mod netmodel;
pub mod ps;
pub mod shard;
pub mod stats;
pub mod transport;
pub mod wire;

pub use bucket::{BucketAssembler, BucketError, BucketIntake};
pub use clock::ClusterClock;
pub use crc::{crc32, crc32_continue};
pub use densify::densify_payload;
pub use error::TransportError;
pub use fabric::{
    Endpoint, Fabric, FlatVec, Msg, Payload, ShardSpec, FRAME_CRC_BYTES, FRAME_HEADER_BYTES,
};
pub use netmodel::NetworkModel;
pub use shard::ShardedPsClient;
pub use stats::CommStats;
pub use transport::Transport;
