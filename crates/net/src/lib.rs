//! # selsync-net
//!
//! Real-socket transport for the SelSync fabric: a length-prefixed
//! binary wire codec for [`selsync_comm::Payload`] frames and a
//! full-mesh TCP fabric implementing [`selsync_comm::Transport`], so
//! every strategy in `selsync-core` runs unchanged across OS processes
//! (DESIGN.md substitution 1, lifted: the transport is no longer
//! simulated). The fabric is one endpoint (private module `endpoint`:
//! connect, tagged receive, byte accounting, link-fault reports,
//! teardown — the crate's single `impl Transport`) over one of two
//! socket drivers: [`TcpEndpoint`] runs it on blocking
//! reader/writer/acceptor threads ([`tcp`]), [`PollTcpEndpoint`] on one
//! `poll(2)` thread ([`poll`]). Both speak the same wire protocol and
//! mix freely in one mesh.
//!
//! Wire format (all integers big-endian):
//!
//! ```text
//! [u32 rest_len][u32 from][u64 tag][u8 kind][body...][u32 crc32]
//! ```
//!
//! `rest_len` counts every byte after itself, the CRC-32 trailer
//! included. The trailer covers `[from][tag][kind][body]`, and no
//! payload is delivered before it verifies, so in-flight damage is
//! rejected as a typed [`FrameError`] instead of decoding into garbage.
//! The socket readers ([`FrameReader`]) read a frame's header fields
//! before its trailer arrives — a model-sized frame is decoded as its
//! bytes stream in — but hand nothing on until the trailer matches. The frame length is the authoritative
//! [`Payload::wire_bytes`]: the codec asserts the two agree on every
//! encode, so `CommStats` totals equal bytes moved.
//!
//! Each endpoint owns the model-sized buffers of its traffic: frames
//! are encoded into, and decoded vectors taken from, one pool per
//! endpoint (private module `pool`), which the drivers hand written
//! frames back to and `Transport::recycle` refills.
//!
//! Every TCP connection additionally opens with an 8-byte preamble
//! `[u32 magic][u16 version][u16 features]` so mixed protocol versions
//! fail fast at connect time (see [`codec::encode_handshake`]).
//!
//! [`Payload::wire_bytes`]: selsync_comm::Payload::wire_bytes

pub mod codec;
mod endpoint;
pub mod poll;
mod pool;
pub mod tcp;

pub use codec::{
    crc32, decode_frame, decode_handshake, encode_frame, encode_handshake, FrameError, FrameReader,
    Handshake, StreamFault, StreamFaultKind, CRC_BYTES, HANDSHAKE_BYTES, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
pub use poll::{DriverGauges, PollTcpEndpoint};
pub use tcp::{LinkFault, TcpEndpoint, TcpFabricConfig, DEFAULT_MAX_FRAME_BYTES};
