//! # selsync-shard
//!
//! Who is who, and who owns what, in an **elastic PS group**: K elastic
//! servers (K = 1 unless the launcher says otherwise), each owning one
//! contiguous range of the flat parameter vector, behind the fan-out
//! client in `selsync_comm::shard`.
//!
//! * [`ShardMap`] — a validated wrapper over the wire-level
//!   [`ShardSpec`](selsync_comm::ShardSpec), built from the pure
//!   partition function `selsync_comm::elastic::shard_starts` so every
//!   rank computes the identical map with no coordination;
//! * [`ShardLayout`] — the workers-first physical rank layout
//!   (workers `0..W`, shards `W..W+K`, standbys `W+K..W+2K`) and its
//!   inverse, shared by the rank entry points, the launcher, the
//!   benches, and the process tests so no two layers can disagree about
//!   who is who. A worker's id equals its rank, so the elastic server
//!   addresses workers directly and needs no rank translation.

#![deny(unsafe_code)]

pub mod layout;
pub mod map;

pub use layout::{Role, ShardLayout};
pub use map::ShardMap;
