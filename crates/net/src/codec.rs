//! Binary wire codec for fabric messages.
//!
//! One encoded frame per [`Msg`]:
//!
//! ```text
//! [u32 rest_len][u32 from][u64 tag][u8 kind][body][u32 crc32]
//! ```
//!
//! The trailing CRC-32 (IEEE) covers everything after the length
//! prefix — `[from][tag][kind][body]` — and nothing is delivered before
//! it verifies, so a bit-flipped frame is rejected as
//! [`FrameError::Crc`] instead of decoding into garbage parameters.
//! `rest_len` includes the trailer. [`decode_frame`] checks the trailer
//! before it reads a body byte; the socket readers' [`FrameReader`]
//! reads the header first and decodes a model-sized body as it arrives,
//! carrying the CRC along, and drops it if the trailer disagrees.
//!
//! Body layouts by kind (big-endian, length prefixes inline):
//!
//! * `Params`/`Grads`: `u32 count` + `count × f32`
//! * `Flags`:          `u32 count` + `count × u8`
//! * `Samples`:        three sections — `u32 count + count × f32` data,
//!   `u32 count + count × u64` targets, `u32 count + count × u64` dims
//! * `Control`:        `u64 code`
//! * `Predict`:        two sections — `u32 count + count × f32` data,
//!   `u32 count + count × u64` dims
//! * `Logits`:         `u32 count + count × f32` rows, then `u64 classes`
//! * `ShardMap`:       `u64 version` + `u64 total` + `u32 count + count × u64` starts
//! * `ShardPush`/`ShardPull`: `u32 count` + `count × f32` (Params-shaped)
//! * `Bucket`:     `u32 bucket` + `u32 n_buckets` + `u32 count + count × f32` values
//! * `SparseGrad`: `u32 len` + `u32 count + count × u32` indices +
//!   `u32 count + count × f32` values
//! * `SignGrad`:   `u32 len` + `f32 scale` + `u32 count + count × u8` bits
//! * `LowRank`:    `u32 rows` + `u32 cols` + `u32 rank` +
//!   `u32 count + count × f32` P + `u32 count + count × f32` Q
//!
//! Every inner `u32 count` is validated against the bytes actually
//! remaining in the frame *before* anything is allocated, so a hostile
//! count can never drive an oversized allocation — decode is total:
//! any byte string either decodes or returns a typed [`FrameError`],
//! never panics (the mutational fuzzer in `tests/frame_fuzz.rs` proves
//! this over every payload kind).
//!
//! Floats travel as raw IEEE-754 bits, so a decoded vector is
//! bit-identical to the encoded one (NaN payloads included) — the
//! property the loopback determinism tests rely on.
//!
//! They travel *big-endian*, and every supported host is little-endian,
//! so a frame can never be the header, the caller's float buffer and a
//! trailer handed to one vectored write: each element has to be
//! byte-swapped on the way out. One swap pass into the frame is
//! therefore the floor of an encode, and the section writers
//! (`put_f32_section` and its `u32`/`u64` siblings) are that pass —
//! a kilobyte-sized block at a time, not an append per element. Going
//! below it means a wire-version change.
//!
//! ## Connection handshake
//!
//! Before any frame flows on a TCP connection, each side sends an
//! 8-byte preamble `[u32 magic][u16 version][u16 features]`
//! ([`encode_handshake`]). Mixed protocol versions or a non-SelSync
//! peer fail fast with [`FrameError::VersionMismatch`] /
//! [`FrameError::BadMagic`] instead of mis-parsing each other's
//! frames indefinitely.

use crate::pool::BufferPool;
use bytes::{Buf, BufMut, Bytes};
use selsync_comm::{crc32_continue, Msg, Payload, ShardSpec};
use std::fmt;
use std::sync::Arc;

const KIND_PARAMS: u8 = 0;
const KIND_GRADS: u8 = 1;
const KIND_FLAGS: u8 = 2;
const KIND_SAMPLES: u8 = 3;
const KIND_CONTROL: u8 = 4;
const KIND_PREDICT: u8 = 5;
const KIND_LOGITS: u8 = 6;
const KIND_SHARD_MAP: u8 = 7;
const KIND_SHARD_PUSH: u8 = 8;
const KIND_SHARD_PULL: u8 = 9;
const KIND_BUCKET: u8 = 10;
const KIND_SPARSE_GRAD: u8 = 11;
const KIND_SIGN_GRAD: u8 = 12;
const KIND_LOW_RANK: u8 = 13;

/// Wire-protocol magic: `b"SSYN"` as a big-endian `u32`. A peer that
/// opens with anything else is not speaking this protocol at all.
pub const PROTOCOL_MAGIC: u32 = u32::from_be_bytes(*b"SSYN");

/// Wire-protocol version. Bumped on any incompatible frame-format
/// change; mixed versions refuse to talk rather than mis-parse.
pub const PROTOCOL_VERSION: u16 = 2;

/// Feature bit: frames carry a CRC-32 trailer.
pub const FEATURE_CRC32: u16 = 0x0001;

/// The feature set this build advertises in its handshake.
pub const PROTOCOL_FEATURES: u16 = FEATURE_CRC32;

/// Bytes of the connection preamble: `[u32 magic][u16 version][u16 features]`.
pub const HANDSHAKE_BYTES: usize = 8;

/// Bytes of the CRC-32 trailer closing every frame.
pub const CRC_BYTES: usize = 4;

/// The fixed bytes of a frame after the length prefix that are not
/// body: `u32 from` + `u64 tag` + `u8 kind` + `u32 crc`.
const MIN_REST_BYTES: usize = 4 + 8 + 1 + CRC_BYTES;

/// Decoding failure; encoding cannot fail. Every decode path is total:
/// arbitrary bytes produce one of these variants, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame ended before its declared length, or an inner section's
    /// `u32 count` asks for more bytes than the frame holds.
    Truncated {
        /// Bytes the frame declared or the section required.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Unknown payload kind byte.
    BadKind(u8),
    /// Frame bytes left over after the body was fully decoded.
    TrailingBytes(usize),
    /// The CRC-32 trailer disagrees with the received bytes: the frame
    /// was damaged in flight.
    Crc {
        /// Checksum the sender stamped on the frame.
        expected: u32,
        /// Checksum computed over the bytes as received.
        computed: u32,
    },
    /// The connection preamble did not open with [`PROTOCOL_MAGIC`] —
    /// the peer is not speaking this protocol.
    BadMagic(u32),
    /// The peer speaks a different protocol version; refuse to talk
    /// rather than mis-parse its frames.
    VersionMismatch {
        /// Version this build implements.
        ours: u16,
        /// Version the peer advertised.
        theirs: u16,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload body"),
            FrameError::Crc { expected, computed } => write!(
                f,
                "frame CRC mismatch: expected {expected:#010x}, computed {computed:#010x}"
            ),
            FrameError::BadMagic(m) => {
                write!(
                    f,
                    "bad protocol magic {m:#010x}, expected {PROTOCOL_MAGIC:#010x}"
                )
            }
            FrameError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The checksum stamped on every frame trailer: the workspace's one
/// CRC32 (IEEE), shared with the checkpoint format.
pub use selsync_comm::crc32;

/// A decoded connection preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Protocol version the peer implements.
    pub version: u16,
    /// Feature bits the peer advertises.
    pub features: u16,
}

/// Encode the 8-byte connection preamble this build sends on every new
/// TCP connection: `[u32 magic][u16 version][u16 features]`.
pub fn encode_handshake() -> [u8; HANDSHAKE_BYTES] {
    let mut out = [0u8; HANDSHAKE_BYTES];
    out[..4].copy_from_slice(&PROTOCOL_MAGIC.to_be_bytes());
    out[4..6].copy_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    out[6..8].copy_from_slice(&PROTOCOL_FEATURES.to_be_bytes());
    out
}

/// Decode and validate a peer's connection preamble.
///
/// # Errors
/// [`FrameError::BadMagic`] if the peer is not speaking this protocol;
/// [`FrameError::VersionMismatch`] if it speaks an incompatible
/// version. Unknown *feature* bits are tolerated (they are advertisory,
/// not load-bearing) and returned for the caller to inspect.
pub fn decode_handshake(raw: &[u8; HANDSHAKE_BYTES]) -> Result<Handshake, FrameError> {
    // lint:allow(unwrap-in-prod): fixed-size sub-slices of an 8-byte
    // array always convert
    let magic = u32::from_be_bytes(raw[..4].try_into().unwrap());
    if magic != PROTOCOL_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    // lint:allow(unwrap-in-prod): fixed-size sub-slice, see above
    let version = u16::from_be_bytes(raw[4..6].try_into().unwrap());
    // lint:allow(unwrap-in-prod): fixed-size sub-slice, see above
    let features = u16::from_be_bytes(raw[6..8].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    Ok(Handshake { version, features })
}

fn kind_of(payload: &Payload) -> u8 {
    match payload {
        // SharedParams is an in-process optimization; on the wire it is
        // indistinguishable from Params (decode always yields Params)
        Payload::Params(_) | Payload::SharedParams(_) => KIND_PARAMS,
        Payload::Grads(_) => KIND_GRADS,
        Payload::Flags(_) => KIND_FLAGS,
        Payload::Samples { .. } => KIND_SAMPLES,
        Payload::Control(_) => KIND_CONTROL,
        Payload::Predict { .. } => KIND_PREDICT,
        Payload::Logits { .. } => KIND_LOGITS,
        Payload::ShardMap(_) => KIND_SHARD_MAP,
        Payload::ShardPush(_) => KIND_SHARD_PUSH,
        Payload::ShardPull(_) => KIND_SHARD_PULL,
        Payload::Bucket { .. } => KIND_BUCKET,
        Payload::SparseGrad { .. } => KIND_SPARSE_GRAD,
        Payload::SignGrad { .. } => KIND_SIGN_GRAD,
        Payload::LowRank { .. } => KIND_LOW_RANK,
    }
}

/// Encode one message as a complete wire frame, CRC trailer included.
///
/// The returned buffer's length always equals
/// [`Payload::wire_bytes`] — asserted here, so any drift between the
/// analytic accounting and the real codec fails loudly rather than
/// skewing `CommStats`.
pub fn encode_frame(from: usize, tag: u64, payload: &Payload) -> Bytes {
    encode_frame_into(Vec::new(), from, tag, payload)
}

/// [`encode_frame`] into `buf`: its contents are discarded and its
/// allocation is kept when it has room for the frame — how an endpoint
/// encodes into a pooled buffer.
pub(crate) fn encode_frame_into(
    mut buf: Vec<u8>,
    from: usize,
    tag: u64,
    payload: &Payload,
) -> Bytes {
    let wire = payload.wire_bytes() as usize;
    buf.clear();
    buf.reserve_exact(wire);
    buf.put_u32((wire - 4) as u32);
    buf.put_u32(from as u32);
    buf.put_u64(tag);
    buf.put_u8(kind_of(payload));
    match payload {
        Payload::Params(v) | Payload::Grads(v) => put_f32_section(&mut buf, v),
        Payload::SharedParams(v) => put_f32_section(&mut buf, v),
        Payload::Flags(v) => {
            buf.put_u32(v.len() as u32);
            buf.put_slice(v);
        }
        Payload::Samples {
            data,
            targets,
            dims,
        } => {
            put_f32_section(&mut buf, data);
            put_u64_section(&mut buf, targets);
            put_u64_section(&mut buf, dims);
        }
        Payload::Control(code) => buf.put_u64(*code),
        Payload::Predict { data, dims } => {
            put_f32_section(&mut buf, data);
            put_u64_section(&mut buf, dims);
        }
        Payload::Logits { rows, classes } => {
            put_f32_section(&mut buf, rows);
            buf.put_u64(*classes as u64);
        }
        Payload::ShardMap(spec) => {
            buf.put_u64(spec.version);
            buf.put_u64(spec.total);
            buf.put_u32(spec.starts.len() as u32);
            for s in &spec.starts {
                buf.put_u64(*s);
            }
        }
        // shard push/pull bodies are deliberately Params-shaped so the
        // K=1 sharded path moves exactly the monolithic byte count
        Payload::ShardPush(v) | Payload::ShardPull(v) => put_f32_section(&mut buf, v),
        Payload::Bucket {
            bucket,
            n_buckets,
            values,
        } => {
            buf.put_u32(*bucket);
            buf.put_u32(*n_buckets);
            put_f32_section(&mut buf, values);
        }
        Payload::SparseGrad {
            len,
            indices,
            values,
        } => {
            buf.put_u32(*len);
            put_u32_section(&mut buf, indices);
            put_f32_section(&mut buf, values);
        }
        Payload::SignGrad { len, scale, bits } => {
            buf.put_u32(*len);
            buf.put_f32(*scale);
            buf.put_u32(bits.len() as u32);
            buf.put_slice(bits);
        }
        Payload::LowRank {
            rows,
            cols,
            rank,
            p,
            q,
        } => {
            buf.put_u32(*rows);
            buf.put_u32(*cols);
            buf.put_u32(*rank);
            put_f32_section(&mut buf, p);
            put_f32_section(&mut buf, q);
        }
    }
    // CRC covers everything after the length prefix
    let crc = crc32(&buf[4..]);
    buf.put_u32(crc);
    assert_eq!(
        buf.len(),
        wire,
        "encoded frame length diverged from Payload::wire_bytes"
    );
    Bytes::from(buf)
}

/// Elements a section writer converts per [`BufMut::put_slice`]. A
/// 4 MB section encodes as fast at 256 as at 1024; the three small
/// sections of a `Samples` frame encode a third faster, because the
/// block is zeroed once per section.
const SECTION_BLOCK: usize = 256;

/// Write `u32 count` + `count` big-endian elements. Elements are
/// byte-swapped a block at a time into a stack array and appended with
/// one copy per block — per-element appends were most of a 4 MB
/// encode once the CRC stopped being.
fn put_section<T: Copy, const N: usize>(
    buf: &mut impl BufMut,
    v: &[T],
    to_be_bytes: impl Fn(T) -> [u8; N],
) {
    buf.put_u32(v.len() as u32);
    let mut block = [[0u8; N]; SECTION_BLOCK];
    for chunk in v.chunks(SECTION_BLOCK) {
        for (dst, x) in block.iter_mut().zip(chunk) {
            *dst = to_be_bytes(*x);
        }
        buf.put_slice(block[..chunk.len()].as_flattened());
    }
}

fn put_f32_section(buf: &mut impl BufMut, v: &[f32]) {
    put_section(buf, v, |x| x.to_bits().to_be_bytes());
}

fn put_u64_section(buf: &mut impl BufMut, v: &[usize]) {
    put_section(buf, v, |x| (x as u64).to_be_bytes());
}

fn put_u32_section(buf: &mut impl BufMut, v: &[u32]) {
    put_section(buf, v, u32::to_be_bytes);
}

/// Decode a complete frame (as produced by [`encode_frame`]) back into
/// a [`Msg`], verifying the CRC trailer first.
pub fn decode_frame(frame: &[u8]) -> Result<Msg, FrameError> {
    if frame.len() < 4 {
        return Err(FrameError::Truncated {
            needed: 4,
            have: frame.len(),
        });
    }
    // lint:allow(unwrap-in-prod): frame.len() >= 4 checked above, so the
    // 4-byte slice always converts into [u8; 4]
    let declared = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
    let rest = &frame[4..];
    if rest.len() != declared {
        return Err(FrameError::Truncated {
            needed: declared,
            have: rest.len(),
        });
    }
    decode_after_len(rest)
}

/// Decode the portion of a frame after the `u32 rest_len` prefix — what
/// [`FrameReader`] decodes every frame it does not stream with. The CRC
/// trailer is verified before any body byte is interpreted.
pub fn decode_after_len(buf: &[u8]) -> Result<Msg, FrameError> {
    if buf.len() < MIN_REST_BYTES {
        return Err(FrameError::Truncated {
            needed: MIN_REST_BYTES,
            have: buf.len(),
        });
    }
    let (covered, trailer) = buf.split_at(buf.len() - CRC_BYTES);
    // lint:allow(unwrap-in-prod): split_at leaves exactly CRC_BYTES = 4
    let expected = u32::from_be_bytes(trailer.try_into().unwrap());
    let computed = crc32(covered);
    if computed != expected {
        return Err(FrameError::Crc { expected, computed });
    }
    let mut buf = covered;
    let from = get_u32_checked(&mut buf)? as usize;
    let tag = get_u64_checked(&mut buf)?;
    let kind = {
        let b = take(&mut buf, 1)?;
        b[0]
    };
    let payload = match kind {
        KIND_PARAMS => Payload::Params(get_f32_section(&mut buf)?),
        KIND_GRADS => Payload::Grads(get_f32_section(&mut buf)?),
        KIND_FLAGS => Payload::Flags(take_section(&mut buf, 1)?.to_vec()),
        KIND_SAMPLES => {
            let data = get_f32_section(&mut buf)?;
            let targets = get_u64_section(&mut buf)?;
            let dims = get_u64_section(&mut buf)?;
            Payload::Samples {
                data,
                targets,
                dims,
            }
        }
        KIND_CONTROL => Payload::Control(get_u64_checked(&mut buf)?),
        KIND_PREDICT => {
            let data = get_f32_section(&mut buf)?;
            let dims = get_u64_section(&mut buf)?;
            Payload::Predict { data, dims }
        }
        KIND_LOGITS => {
            let rows = get_f32_section(&mut buf)?;
            let classes = get_u64_checked(&mut buf)? as usize;
            Payload::Logits { rows, classes }
        }
        KIND_SHARD_MAP => {
            let version = get_u64_checked(&mut buf)?;
            let total = get_u64_checked(&mut buf)?;
            // the count is validated against the frame's remaining bytes
            // BEFORE any allocation — a hostile count of 4 billion must
            // not reserve 32 GB
            let raw = take_section(&mut buf, 8)?;
            let starts = raw
                .chunks_exact(8)
                // lint:allow(unwrap-in-prod): chunks_exact(8) yields 8-byte slices
                .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
                .collect();
            Payload::ShardMap(ShardSpec {
                version,
                total,
                starts,
            })
        }
        KIND_SHARD_PUSH => Payload::ShardPush(get_f32_section(&mut buf)?),
        KIND_SHARD_PULL => Payload::ShardPull(get_f32_section(&mut buf)?),
        KIND_BUCKET => {
            let bucket = get_u32_checked(&mut buf)?;
            let n_buckets = get_u32_checked(&mut buf)?;
            let values = get_f32_section(&mut buf)?;
            // cross-field consistency (bucket < n_buckets) is the
            // receiver's protocol layer's concern, like ShardMap's
            // range sanity: the frame itself is well-formed
            Payload::Bucket {
                bucket,
                n_buckets,
                values,
            }
        }
        KIND_SPARSE_GRAD => {
            let len = get_u32_checked(&mut buf)?;
            let indices = get_u32_section(&mut buf)?;
            let values = get_f32_section(&mut buf)?;
            Payload::SparseGrad {
                len,
                indices,
                values,
            }
        }
        KIND_SIGN_GRAD => {
            let len = get_u32_checked(&mut buf)?;
            let scale = {
                let b = take(&mut buf, 4)?;
                // lint:allow(unwrap-in-prod): take() returned exactly 4 bytes
                f32::from_bits(u32::from_be_bytes(b.try_into().unwrap()))
            };
            let bits = take_section(&mut buf, 1)?.to_vec();
            Payload::SignGrad { len, scale, bits }
        }
        KIND_LOW_RANK => {
            let rows = get_u32_checked(&mut buf)?;
            let cols = get_u32_checked(&mut buf)?;
            let rank = get_u32_checked(&mut buf)?;
            let p = get_f32_section(&mut buf)?;
            let q = get_f32_section(&mut buf)?;
            Payload::LowRank {
                rows,
                cols,
                rank,
                p,
                q,
            }
        }
        other => return Err(FrameError::BadKind(other)),
    };
    if buf.has_remaining() {
        return Err(FrameError::TrailingBytes(buf.remaining()));
    }
    Ok(Msg { from, tag, payload })
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], FrameError> {
    if buf.len() < n {
        return Err(FrameError::Truncated {
            needed: n,
            have: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Read an inner section's `u32 count` and hand back its `count × elem`
/// raw bytes, rejecting before any allocation or overflow if the frame
/// does not actually hold that many bytes.
fn take_section<'a>(buf: &mut &'a [u8], elem: usize) -> Result<&'a [u8], FrameError> {
    let count = get_u32_checked(buf)? as u64;
    let needed = count * elem as u64; // <= (2^32 - 1) * 8, cannot overflow u64
    if needed > buf.len() as u64 {
        return Err(FrameError::Truncated {
            needed: usize::try_from(needed).unwrap_or(usize::MAX),
            have: buf.len(),
        });
    }
    take(buf, needed as usize)
}

fn get_u32_checked(buf: &mut &[u8]) -> Result<u32, FrameError> {
    let b = take(buf, 4)?;
    // lint:allow(unwrap-in-prod): take() returned exactly 4 bytes, so the
    // conversion into [u8; 4] cannot fail
    Ok(u32::from_be_bytes(b.try_into().unwrap()))
}

fn get_u64_checked(buf: &mut &[u8]) -> Result<u64, FrameError> {
    let b = take(buf, 8)?;
    // lint:allow(unwrap-in-prod): take() returned exactly 8 bytes, so the
    // conversion into [u8; 8] cannot fail
    Ok(u64::from_be_bytes(b.try_into().unwrap()))
}

fn get_f32_section(buf: &mut &[u8]) -> Result<Vec<f32>, FrameError> {
    let raw = take_section(buf, 4)?;
    Ok(raw
        .chunks_exact(4)
        // lint:allow(unwrap-in-prod): chunks_exact(4) yields 4-byte slices
        .map(|c| f32::from_bits(u32::from_be_bytes(c.try_into().unwrap())))
        .collect())
}

fn get_u32_section(buf: &mut &[u8]) -> Result<Vec<u32>, FrameError> {
    let raw = take_section(buf, 4)?;
    Ok(raw
        .chunks_exact(4)
        // lint:allow(unwrap-in-prod): chunks_exact(4) yields 4-byte slices
        .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
        .collect())
}

fn get_u64_section(buf: &mut &[u8]) -> Result<Vec<usize>, FrameError> {
    let raw = take_section(buf, 8)?;
    Ok(raw
        .chunks_exact(8)
        // lint:allow(unwrap-in-prod): chunks_exact(8) yields 8-byte slices
        .map(|c| u64::from_be_bytes(c.try_into().unwrap()) as usize)
        .collect())
}

// ---------------------------------------------------------------------
// The streaming reader
// ---------------------------------------------------------------------

/// Bytes after the length prefix up to and including the first section
/// count: `u32 from` + `u64 tag` + `u8 kind` + `u32 count`. Enough to
/// tell a frame whose body is one f32 section from any other.
const HEADER_BYTES: usize = 4 + 8 + 1 + 4;

/// The read buffer a driver feeds a [`FrameReader`] from: the most one
/// `read(2)` returns. A small frame arrives whole in one; a model-sized
/// one is decoded a buffer at a time while it is still in cache.
pub(crate) const READ_BUF_BYTES: usize = 64 * 1024;

/// A `body` grown past this by one large frame goes back to the pool
/// once the frame is decoded, so a connection pins no model-sized
/// buffer between frames.
const BODY_KEEP: usize = READ_BUF_BYTES;

/// The header of a frame whose body is exactly one f32 section: the kinds
/// a model travels as, with a count the length prefix agrees with.
#[derive(Clone, Copy)]
struct FloatHead {
    /// Declared bytes after the length prefix.
    len: usize,
    from: usize,
    tag: u64,
    /// The payload variant of the kind.
    make: fn(Vec<f32>) -> Payload,
    count: usize,
}

impl FloatHead {
    /// `Some` when `header` (the [`HEADER_BYTES`] after a prefix that
    /// declared `len`) starts a frame the reader can decode as it
    /// arrives: an f32-section kind whose count fills the frame exactly.
    fn parse(len: usize, header: &[u8; HEADER_BYTES]) -> Option<FloatHead> {
        let h = header;
        let make: fn(Vec<f32>) -> Payload = match h[12] {
            KIND_PARAMS => Payload::Params,
            KIND_GRADS => Payload::Grads,
            KIND_SHARD_PUSH => Payload::ShardPush,
            KIND_SHARD_PULL => Payload::ShardPull,
            // every other kind, today's or a future one, is decoded
            // whole by decode_after_len, whose match names each kind
            _ => return None,
        };
        let count = u32::from_be_bytes([h[13], h[14], h[15], h[16]]) as usize;
        let fills = (HEADER_BYTES + CRC_BYTES) as u64 + 4 * count as u64 == len as u64;
        fills.then(|| FloatHead {
            len,
            from: u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize,
            tag: u64::from_be_bytes([h[4], h[5], h[6], h[7], h[8], h[9], h[10], h[11]]),
            make,
            count,
        })
    }
}

/// Where a [`FrameReader`] stands in its stream.
#[derive(Clone, Copy)]
enum Phase {
    /// Collecting the peer's preamble.
    Handshake,
    /// Collecting a frame's length prefix.
    Prefix,
    /// Collecting the header of a frame of `len` declared bytes.
    Header { len: usize },
    /// Decoding a single-f32-section frame's values as they arrive, then
    /// its trailer.
    Floats(FloatHead),
    /// Accumulating any other frame's `len` bytes in `body`.
    Whole { len: usize },
    /// A fault ended the stream.
    Failed,
}

/// Why a [`FrameReader`] gave up on its stream: the stream has lost its
/// framing, so the connection is torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFault {
    /// Stream bytes consumed before the fault, handshake included: where
    /// the rejected frame began, or where a torn stream ended.
    pub offset: u64,
    /// What went wrong.
    pub kind: StreamFaultKind,
}

/// The kinds of [`StreamFault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFaultKind {
    /// The peer's preamble was not ours.
    Handshake(FrameError),
    /// The stream ended `have` bytes into the handshake.
    TornHandshake {
        /// Handshake bytes received.
        have: usize,
        /// Why the stream ended.
        cause: String,
    },
    /// A length prefix above the reader's cap.
    HostileLength {
        /// The declared length.
        len: usize,
        /// The cap.
        cap: usize,
    },
    /// A complete frame of `len` declared bytes failed its CRC or did not
    /// decode: exactly what [`decode_after_len`] returns for its bytes.
    Frame {
        /// The declared length.
        len: usize,
        /// The decode error.
        error: FrameError,
    },
    /// The stream ended `have` bytes into a length prefix.
    TornPrefix {
        /// Prefix bytes received.
        have: usize,
        /// Why the stream ended.
        cause: String,
    },
    /// The stream ended `have` of a frame's `len` declared bytes in.
    TornBody {
        /// Declared bytes received.
        have: usize,
        /// The declared length.
        len: usize,
        /// Why the stream ended.
        cause: String,
    },
}

impl StreamFault {
    /// The frame bytes the fault destroyed, prefix included, as
    /// `CommStats::record_corrupt` tallies them; `None` for a handshake
    /// fault, which loses no message.
    pub fn corrupt_bytes(&self) -> Option<u64> {
        match &self.kind {
            StreamFaultKind::Handshake(_) | StreamFaultKind::TornHandshake { .. } => None,
            StreamFaultKind::HostileLength { .. } => Some(4),
            StreamFaultKind::Frame { len, .. } => Some(4 + *len as u64),
            StreamFaultKind::TornPrefix { have, .. } => Some(*have as u64),
            StreamFaultKind::TornBody { have, .. } => Some(4 + *have as u64),
        }
    }
}

impl fmt::Display for StreamFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StreamFaultKind::Handshake(e) => write!(f, "handshake rejected: {e}"),
            StreamFaultKind::TornHandshake { have, cause } => write!(
                f,
                "connection died {have} bytes into the {HANDSHAKE_BYTES}-byte handshake: {cause}"
            ),
            StreamFaultKind::HostileLength { len, cap } => {
                write!(f, "hostile frame length {len} exceeds the {cap}-byte cap")
            }
            StreamFaultKind::Frame { error, .. } => write!(f, "frame rejected: {error}"),
            StreamFaultKind::TornPrefix { have, cause } => write!(
                f,
                "torn frame: {have} of 4 length-prefix bytes, then {cause}"
            ),
            StreamFaultKind::TornBody { have, len, cause } => {
                write!(f, "torn frame: {have} of {len} body bytes, then {cause}")
            }
        }
    }
}

/// The receive side of one connection: the peer's handshake, then frames,
/// from byte slices of any size in stream order. Both socket drivers
/// read through it, so they validate, cap, decode and classify damage
/// alike.
///
/// A frame whose body is one f32 section (`Params`, `Grads`, `ShardPush`,
/// `ShardPull`) with a count its length prefix agrees with is decoded as
/// its bytes arrive, into a vector from the endpoint's pool: the vector
/// grows with the bytes received and is never zero-filled, and the CRC
/// is carried over the raw bytes ([`crc32_continue`]). The header is read
/// before the trailer is checked, but nothing is delivered unless the
/// trailer matches. Any other frame accumulates until complete (or, when
/// it lies whole in one slice, is read in place) and goes through
/// [`decode_after_len`]. Either way the outcome for a frame is exactly
/// `decode_after_len` of its bytes.
///
/// Memory follows the bytes actually received, not the declared length:
/// a prefix that claims a gigabyte and is followed by 64 bytes costs a
/// few hundred bytes.
pub struct FrameReader {
    max_frame: usize,
    pool: Arc<BufferPool>,
    phase: Phase,
    /// A fixed-size unit in progress: the handshake, a prefix, a header,
    /// a float split across slices, or a trailer; `unit[..unit_len]`.
    unit: [u8; HEADER_BYTES],
    unit_len: usize,
    /// The values of the f32 frame in progress, and the CRC of its
    /// covered bytes so far.
    values: Vec<f32>,
    crc: u32,
    /// The bytes of any other frame in progress.
    body: Vec<u8>,
    /// Stream bytes consumed, handshake included.
    pos: u64,
    /// Where the handshake or frame in progress began.
    start: u64,
}

impl FrameReader {
    /// A reader that expects the handshake first and rejects a length
    /// prefix above `max_frame` bytes. Decoded vectors are allocated as
    /// they are needed.
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader::pooled(max_frame, Arc::new(BufferPool::with_slots(1)))
    }

    /// A reader that decodes into, and returns buffers to, `pool`.
    pub(crate) fn pooled(max_frame: usize, pool: Arc<BufferPool>) -> FrameReader {
        FrameReader {
            max_frame,
            pool,
            phase: Phase::Handshake,
            unit: [0; HEADER_BYTES],
            unit_len: 0,
            values: Vec::new(),
            crc: 0,
            body: Vec::new(),
            pos: 0,
            start: 0,
        }
    }

    /// Consume the next `bytes` of the stream, handing every message
    /// completed and verified on the way to `deliver`, in order.
    ///
    /// # Errors
    /// The first fault in the stream; the reader ignores anything fed
    /// after it.
    pub fn feed(
        &mut self,
        mut bytes: &[u8],
        mut deliver: impl FnMut(Msg),
    ) -> Result<(), StreamFault> {
        while !bytes.is_empty() {
            let used = match self.phase {
                Phase::Failed => bytes.len(),
                Phase::Handshake => self.read_handshake(bytes)?,
                Phase::Prefix => self.read_prefix(bytes, &mut deliver)?,
                Phase::Header { len } => self.read_header(bytes, len),
                Phase::Floats(head) => self.read_floats(bytes, head, &mut deliver)?,
                Phase::Whole { len } => self.read_whole(bytes, len, &mut deliver)?,
            };
            bytes = &bytes[used..];
        }
        Ok(())
    }

    /// The stream ended for `cause` (an EOF, a reset, a read error):
    /// `None` at a handshake or frame boundary, else the torn-frame fault.
    pub fn end(&self, cause: &dyn fmt::Display) -> Option<StreamFault> {
        let have = (self.pos - self.start) as usize;
        let cause = cause.to_string();
        let kind = match self.phase {
            Phase::Failed => return None,
            Phase::Handshake | Phase::Prefix if have == 0 => return None,
            Phase::Handshake => StreamFaultKind::TornHandshake { have, cause },
            Phase::Prefix => StreamFaultKind::TornPrefix { have, cause },
            Phase::Header { len } | Phase::Whole { len } | Phase::Floats(FloatHead { len, .. }) => {
                StreamFaultKind::TornBody {
                    have: have - 4,
                    len,
                    cause,
                }
            }
        };
        Some(StreamFault {
            offset: self.pos,
            kind,
        })
    }

    /// Copy from `bytes` into the unit until it holds `need` bytes;
    /// returns how many were used.
    fn fill(&mut self, bytes: &[u8], need: usize) -> usize {
        let used = (need - self.unit_len).min(bytes.len());
        self.unit[self.unit_len..self.unit_len + used].copy_from_slice(&bytes[..used]);
        self.unit_len += used;
        self.pos += used as u64;
        used
    }

    /// The unit is complete: clear it and return its first `N` bytes.
    fn take_unit<const N: usize>(&mut self) -> [u8; N] {
        self.unit_len = 0;
        let mut out = [0; N];
        out.copy_from_slice(&self.unit[..N]);
        out
    }

    /// End the stream with a fault at the handshake or frame in progress.
    fn fail(&mut self, kind: StreamFaultKind) -> StreamFault {
        self.phase = Phase::Failed;
        StreamFault {
            offset: self.start,
            kind,
        }
    }

    /// A frame was delivered: the next one starts here.
    fn next_frame(&mut self) {
        self.phase = Phase::Prefix;
        self.start = self.pos;
    }

    fn read_handshake(&mut self, bytes: &[u8]) -> Result<usize, StreamFault> {
        let used = self.fill(bytes, HANDSHAKE_BYTES);
        if self.unit_len == HANDSHAKE_BYTES {
            let preamble = self.take_unit::<HANDSHAKE_BYTES>();
            if let Err(e) = decode_handshake(&preamble) {
                return Err(self.fail(StreamFaultKind::Handshake(e)));
            }
            self.next_frame();
        }
        Ok(used)
    }

    fn read_prefix(
        &mut self,
        bytes: &[u8],
        deliver: &mut impl FnMut(Msg),
    ) -> Result<usize, StreamFault> {
        let used = self.fill(bytes, 4);
        if self.unit_len < 4 {
            return Ok(used);
        }
        let len = u32::from_be_bytes(self.take_unit::<4>()) as usize;
        if len > self.max_frame {
            let cap = self.max_frame;
            return Err(self.fail(StreamFaultKind::HostileLength { len, cap }));
        }
        // a frame that is not decoded as it arrives and lies whole in
        // this slice is decoded in place
        let rest = &bytes[used..];
        let streamed = rest
            .first_chunk::<HEADER_BYTES>()
            .is_some_and(|h| FloatHead::parse(len, h).is_some());
        if rest.len() >= len && !streamed {
            self.pos += len as u64;
            match decode_after_len(&rest[..len]) {
                Ok(msg) => deliver(msg),
                Err(error) => return Err(self.fail(StreamFaultKind::Frame { len, error })),
            }
            self.next_frame();
            return Ok(used + len);
        }
        if len < HEADER_BYTES {
            self.begin_whole(len);
        } else {
            self.phase = Phase::Header { len };
        }
        Ok(used)
    }

    fn read_header(&mut self, bytes: &[u8], len: usize) -> usize {
        let used = self.fill(bytes, HEADER_BYTES);
        if self.unit_len < HEADER_BYTES {
            return used;
        }
        let header = self.take_unit::<HEADER_BYTES>();
        if let Some(head) = FloatHead::parse(len, &header) {
            self.crc = crc32_continue(0, &header);
            self.values = self.pool.take_floats(head.count).unwrap_or_default();
            self.phase = Phase::Floats(head);
        } else {
            self.begin_whole(len);
            self.body.extend_from_slice(&header);
        }
        used
    }

    fn read_floats(
        &mut self,
        bytes: &[u8],
        head: FloatHead,
        deliver: &mut impl FnMut(Msg),
    ) -> Result<usize, StreamFault> {
        if self.values.len() < head.count {
            // section bytes still owed, less a split float's first bytes
            let owed = 4 * (head.count - self.values.len()) - self.unit_len;
            let chunk = &bytes[..owed.min(bytes.len())];
            self.crc = crc32_continue(self.crc, chunk);
            self.pos += chunk.len() as u64;
            let mut rest = chunk;
            if self.unit_len > 0 {
                let k = (4 - self.unit_len).min(rest.len());
                self.unit[self.unit_len..self.unit_len + k].copy_from_slice(&rest[..k]);
                self.unit_len += k;
                rest = &rest[k..];
                if self.unit_len < 4 {
                    return Ok(chunk.len());
                }
                let word = self.take_unit::<4>();
                grow_for(&mut self.values, 1, head.count);
                self.values.push(f32::from_bits(u32::from_be_bytes(word)));
            }
            let (words, tail) = rest.as_chunks::<4>();
            grow_for(&mut self.values, words.len(), head.count);
            self.values
                .extend(words.iter().map(|w| f32::from_bits(u32::from_be_bytes(*w))));
            self.unit[..tail.len()].copy_from_slice(tail);
            self.unit_len = tail.len();
            return Ok(chunk.len());
        }
        let used = self.fill(bytes, CRC_BYTES);
        if self.unit_len < CRC_BYTES {
            return Ok(used);
        }
        let expected = u32::from_be_bytes(self.take_unit::<CRC_BYTES>());
        let values = std::mem::take(&mut self.values);
        if expected != self.crc {
            self.pool.give_floats(values);
            let error = FrameError::Crc {
                expected,
                computed: self.crc,
            };
            return Err(self.fail(StreamFaultKind::Frame {
                len: head.len,
                error,
            }));
        }
        deliver(Msg {
            from: head.from,
            tag: head.tag,
            payload: (head.make)(values),
        });
        self.next_frame();
        Ok(used)
    }

    /// Start accumulating a frame of `len` bytes, in a pooled buffer when
    /// it is a large one.
    fn begin_whole(&mut self, len: usize) {
        self.body.clear();
        if self.body.capacity() < len {
            if let Some(buf) = self.pool.take_frame(len) {
                self.body = buf;
            }
        }
        self.phase = Phase::Whole { len };
    }

    fn read_whole(
        &mut self,
        bytes: &[u8],
        len: usize,
        deliver: &mut impl FnMut(Msg),
    ) -> Result<usize, StreamFault> {
        let used = (len - self.body.len()).min(bytes.len());
        self.body.extend_from_slice(&bytes[..used]);
        self.pos += used as u64;
        if self.body.len() < len {
            return Ok(used);
        }
        let decoded = decode_after_len(&self.body);
        self.body.clear();
        if self.body.capacity() > BODY_KEEP {
            self.pool.give_frame(std::mem::take(&mut self.body));
        }
        match decoded {
            Ok(msg) => deliver(msg),
            Err(error) => return Err(self.fail(StreamFaultKind::Frame { len, error })),
        }
        self.next_frame();
        Ok(used)
    }
}

/// Make room in `values` for `incoming` more of `count` values. Growth
/// follows what has arrived — at least doubling, never past `count` — so
/// a prefix that lies about its length costs at most twice the bytes
/// actually sent, and a pooled vector with room never reallocates.
fn grow_for(values: &mut Vec<f32>, incoming: usize, count: usize) {
    if values.capacity() - values.len() < incoming {
        let extra = incoming.max(values.len()).min(count - values.len());
        values.reserve_exact(extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip(from: usize, tag: u64, payload: Payload) -> Msg {
        let frame = encode_frame(from, tag, &payload);
        assert_eq!(frame.len() as u64, payload.wire_bytes());
        decode_frame(&frame).expect("decode")
    }

    /// One payload of every variant, plus model-sized f32 frames the
    /// reader decodes across many slices.
    fn every_variant() -> Vec<Payload> {
        vec![
            Payload::Params(vec![1.0, -2.5, f32::NAN, 0.0]),
            Payload::Grads(vec![]),
            Payload::Flags(vec![0, 1, 1, 0, 1]),
            Payload::Samples {
                data: vec![0.5; 7],
                targets: vec![3, 1, 4],
                dims: vec![3, 8, 8],
            },
            Payload::Control(u64::MAX),
            Payload::Predict {
                data: vec![1.5, -0.25, 42.0, 0.0],
                dims: vec![2, 2],
            },
            Payload::Logits {
                rows: vec![0.1, -9.0, 7.5],
                classes: 3,
            },
            Payload::ShardMap(ShardSpec {
                version: 1,
                total: 1000,
                starts: vec![0, 250, 500, 750],
            }),
            Payload::ShardPush(vec![2.0, -0.5, 9.75]),
            Payload::ShardPull(vec![]),
            Payload::Bucket {
                bucket: 3,
                n_buckets: 7,
                values: vec![1.0, -2.0, 0.5],
            },
            Payload::SparseGrad {
                len: 64,
                indices: vec![0, 31, 63],
                values: vec![0.25, -1.5, 8.0],
            },
            Payload::SignGrad {
                len: 12,
                scale: 0.125,
                bits: vec![0b1010_1010, 0b0000_1111],
            },
            Payload::LowRank {
                rows: 3,
                cols: 2,
                rank: 1,
                p: vec![1.0, 2.0, 3.0],
                q: vec![-1.0, 0.5],
            },
            Payload::SharedParams(Arc::new(vec![0.5; 7])),
            Payload::Grads(
                (0..3000u32)
                    .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
                    .collect(),
            ),
            Payload::ShardPush((0..1500).map(|i| i as f32 - 700.25).collect()),
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for (i, p) in every_variant().into_iter().enumerate() {
            let m = roundtrip(i, i as u64 * 1000, p.clone());
            assert_eq!(m.from, i);
            assert_eq!(m.tag, i as u64 * 1000);
            match (&m.payload, &p) {
                // NaN != NaN under PartialEq; compare the bytes
                (_, Payload::SharedParams(_) | Payload::Grads(_)) => {
                    assert_eq!(
                        encode_frame(i, m.tag, &m.payload),
                        encode_frame(i, m.tag, &p)
                    );
                }
                (Payload::Params(a), Payload::Params(b)) => {
                    assert_eq!(
                        a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    );
                }
                (got, want) => assert_eq!(got, want),
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Frames pinned byte for byte (cross-checked against Python's
    /// `struct` + `zlib.crc32`): a round trip alone passes when encode
    /// and decode drift together.
    #[test]
    fn golden_frames() {
        let small = encode_frame(3, 9, &Payload::Params(vec![1.0, -2.5]));
        assert_eq!(
            hex(&small),
            "0000001d00000003000000000000000900000000023f800000c0200000caec77cc"
        );
        // 273 covered bytes: long enough for the CRC's folding kernel
        let grads = (0..64).map(|i| i as f32 * 0.25 - 4.0).collect();
        let long = encode_frame(1, 0x0102_0304_0506_0708, &Payload::Grads(grads));
        assert_eq!(long.len(), 281);
        assert_eq!(
            hex(&long[..25]),
            "000001150000000101020304050607080100000040c0800000"
        );
        assert_eq!(hex(&long[277..]), "b47aee82");
    }

    /// The block-wise section writers against one append per element, at
    /// lengths on both sides of every block boundary; NaN payload bits
    /// must come through untouched.
    #[test]
    fn section_writers_match_per_element_appends_across_block_boundaries() {
        use bytes::BytesMut;
        const B: usize = SECTION_BLOCK;
        for len in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
            let floats: Vec<f32> = (0..len as u32)
                .map(|i| f32::from_bits(0x7FC0_0001 ^ i.wrapping_mul(0x9E37_79B9)))
                .collect();
            let words: Vec<u32> = floats.iter().map(|x| x.to_bits()).collect();
            let sizes: Vec<usize> = words.iter().map(|&w| (w as usize) << 7 | 5).collect();

            let (mut got, mut want) = (BytesMut::with_capacity(0), BytesMut::with_capacity(0));
            put_f32_section(&mut got, &floats);
            want.put_u32(len as u32);
            floats.iter().for_each(|x| want.put_f32(*x));
            assert_eq!(got, want, "f32 section of {len}");
            let decoded = get_f32_section(&mut &got[..]).unwrap();
            let bits: Vec<u32> = decoded.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, words, "f32 bits of {len}");

            let (mut got, mut want) = (BytesMut::with_capacity(0), BytesMut::with_capacity(0));
            put_u32_section(&mut got, &words);
            want.put_u32(len as u32);
            words.iter().for_each(|w| want.put_u32(*w));
            assert_eq!(got, want, "u32 section of {len}");

            let (mut got, mut want) = (BytesMut::with_capacity(0), BytesMut::with_capacity(0));
            put_u64_section(&mut got, &sizes);
            want.put_u32(len as u32);
            sizes.iter().for_each(|n| want.put_u64(*n as u64));
            assert_eq!(got, want, "u64 section of {len}");
        }
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_frame(0, 7, &Payload::Params(vec![1.0, 2.0]));
        for cut in 1..frame.len() {
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    /// Recompute and overwrite the CRC trailer after a test mutated the
    /// covered bytes, so the mutation under test is reached at all.
    fn restamp(frame: &mut [u8]) {
        let end = frame.len() - CRC_BYTES;
        let crc = crc32(&frame[4..end]);
        frame[end..].copy_from_slice(&crc.to_be_bytes());
    }

    #[test]
    fn bad_kind_and_trailing_bytes_error() {
        let mut frame = encode_frame(0, 0, &Payload::Control(1)).to_vec();
        let kind_pos = 4 + 4 + 8;
        frame[kind_pos] = 200;
        restamp(&mut frame);
        assert_eq!(decode_frame(&frame), Err(FrameError::BadKind(200)));

        let mut padded = encode_frame(0, 0, &Payload::Control(1)).to_vec();
        let crc_at = padded.len() - CRC_BYTES;
        padded.insert(crc_at, 0); // extra body byte before the trailer
        let declared = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&declared.to_be_bytes());
        restamp(&mut padded);
        assert_eq!(decode_frame(&padded), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn flipped_bit_is_caught_by_crc() {
        let frame = encode_frame(3, 9, &Payload::Params(vec![1.0, 2.0, 3.0])).to_vec();
        // flip one bit in every covered byte position in turn; the CRC
        // must reject each damaged frame
        for pos in 4..frame.len() - CRC_BYTES {
            let mut bad = frame.clone();
            bad[pos] ^= 0x10;
            match decode_frame(&bad) {
                Err(FrameError::Crc { .. }) => {}
                other => panic!("flip at {pos} decoded as {other:?}"),
            }
        }
        // damage confined to the trailer itself is also a CRC error
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(decode_frame(&bad), Err(FrameError::Crc { .. })));
    }

    #[test]
    fn hostile_section_count_is_rejected_without_allocation() {
        // a ShardMap frame whose inner count claims 2^32-1 entries: the
        // decoder must reject it via Truncated, not reserve ~32 GB
        let mut frame = encode_frame(
            0,
            0,
            &Payload::ShardMap(ShardSpec {
                version: 1,
                total: 10,
                starts: vec![0],
            }),
        )
        .to_vec();
        let count_pos = 4 + 4 + 8 + 1 + 8 + 8;
        frame[count_pos..count_pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        restamp(&mut frame);
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_sparse_index_count_is_rejected_without_allocation() {
        // same property as the ShardMap case, for the u32 index section:
        // a count claiming 2^32-1 indices must fail via Truncated before
        // any allocation happens
        let mut frame = encode_frame(
            0,
            0,
            &Payload::SparseGrad {
                len: 8,
                indices: vec![1],
                values: vec![2.0],
            },
        )
        .to_vec();
        let count_pos = 4 + 4 + 8 + 1 + 4; // header + dense-len field
        frame[count_pos..count_pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        restamp(&mut frame);
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::Truncated { .. })
        ));
    }

    /// Feed `stream` to a reader in pieces of `size` bytes; the messages
    /// it delivered and how it ended.
    fn read_in_pieces(
        reader: &mut FrameReader,
        stream: &[u8],
        size: usize,
    ) -> (Vec<Msg>, Result<(), StreamFault>) {
        let mut got = Vec::new();
        for piece in stream.chunks(size) {
            if let Err(f) = reader.feed(piece, |m| got.push(m)) {
                return (got, Err(f));
            }
        }
        (got, Ok(()))
    }

    fn stream_of(frames: &[Bytes]) -> Vec<u8> {
        let mut stream = encode_handshake().to_vec();
        frames.iter().for_each(|f| stream.extend_from_slice(f));
        stream
    }

    /// Every variant, one stream, cut into pieces of every size from a
    /// byte to the whole: the reader delivers exactly what
    /// `decode_frame` makes of each frame, in order, and ends at a frame
    /// boundary.
    #[test]
    fn the_reader_decodes_every_variant_however_the_stream_is_cut() {
        let payloads = every_variant();
        let frames: Vec<Bytes> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| encode_frame(i, 1000 + i as u64, p))
            .collect();
        let stream = stream_of(&frames);
        for size in [1, 2, 3, 5, 17, 64, 1000, 4099, stream.len()] {
            let mut reader = FrameReader::new(1 << 20);
            let (got, end) = read_in_pieces(&mut reader, &stream, size);
            assert_eq!(end, Ok(()), "pieces of {size}");
            assert_eq!(got.len(), frames.len(), "pieces of {size}");
            for (m, frame) in got.iter().zip(&frames) {
                let want = decode_frame(frame).unwrap();
                assert_eq!((m.from, m.tag), (want.from, want.tag));
                assert_eq!(
                    encode_frame(m.from, m.tag, &m.payload),
                    *frame,
                    "pieces of {size}"
                );
            }
            assert_eq!(reader.end(&"EOF"), None, "ends at a frame boundary");
        }
    }

    /// A pooled vector that is larger than the frame and full of another
    /// message's values receives a shorter frame as exactly its values,
    /// in the pooled allocation.
    #[test]
    fn a_pooled_vector_with_room_and_stale_values_decodes_a_shorter_frame_exactly() {
        let pool = Arc::new(BufferPool::with_slots(2));
        let stale = vec![f32::NAN; 3000];
        let ptr = stale.as_ptr();
        pool.give_floats(stale);
        let values: Vec<f32> = (0..2000).map(|i| f32::from_bits(0x4000_0000 ^ i)).collect();
        let frame = encode_frame(4, 9, &Payload::Params(values.clone()));
        let mut reader = FrameReader::pooled(1 << 20, Arc::clone(&pool));
        let (got, end) = read_in_pieces(&mut reader, &stream_of(&[frame]), 777);
        assert_eq!(end, Ok(()));
        let [Msg {
            from: 4,
            tag: 9,
            payload: Payload::Params(v),
        }] = &got[..]
        else {
            panic!("{got:?}");
        };
        assert_eq!(v.as_ptr(), ptr, "decoded into the pooled vector");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(v), bits(&values));
    }

    /// Damage is classified as the drivers report it: a bad trailer on a
    /// streamed frame is the CRC error `decode_frame` gives, a length
    /// over the cap is hostile, and a stream that stops mid-frame is torn
    /// at the byte where it stopped.
    #[test]
    fn the_reader_classifies_damage_like_decode_frame() {
        let mut frame = encode_frame(1, 2, &Payload::Grads(vec![1.5; 2000])).to_vec();
        frame[100] ^= 0x08;
        let Err(want) = decode_frame(&frame) else {
            panic!("damage decoded");
        };
        let (got, end) = read_in_pieces(
            &mut FrameReader::new(1 << 20),
            &stream_of(&[frame.into()]),
            500,
        );
        assert!(got.is_empty());
        let fault = end.unwrap_err();
        assert_eq!(
            fault.kind,
            StreamFaultKind::Frame {
                len: 4 * 2000 + 21,
                error: want
            }
        );
        assert_eq!(
            (fault.offset, fault.corrupt_bytes()),
            (8, Some(4 * 2000 + 25))
        );
        assert!(fault
            .to_string()
            .starts_with("frame rejected: frame CRC mismatch"));

        let mut reader = FrameReader::new(1000);
        let mut stream = encode_handshake().to_vec();
        stream.extend_from_slice(&1001u32.to_be_bytes());
        let fault = reader.feed(&stream, |_| panic!()).unwrap_err();
        assert_eq!(
            fault.to_string(),
            "hostile frame length 1001 exceeds the 1000-byte cap"
        );
        assert_eq!((fault.offset, fault.corrupt_bytes()), (8, Some(4)));

        let frame = encode_frame(1, 2, &Payload::Params(vec![0.5; 40]));
        let stream = stream_of(&[frame.clone(), frame]);
        for (cut, want) in [
            (0, None),
            (
                5,
                Some("connection died 5 bytes into the 8-byte handshake: EOF"),
            ),
            (8, None),
            (10, Some("torn frame: 2 of 4 length-prefix bytes, then EOF")),
            (33, Some("torn frame: 21 of 181 body bytes, then EOF")),
            (8 + 185, None),
            (
                8 + 185 + 184,
                Some("torn frame: 180 of 181 body bytes, then EOF"),
            ),
        ] {
            let mut reader = FrameReader::new(1 << 20);
            reader.feed(&stream[..cut], |_| {}).unwrap();
            let fault = reader.end(&"EOF");
            assert_eq!(
                fault.as_ref().map(|f| f.to_string()).as_deref(),
                want,
                "cut {cut}"
            );
            if let Some(f) = fault {
                assert_eq!(f.offset, cut as u64, "cut {cut}");
            }
        }
    }

    #[test]
    fn handshake_roundtrips_and_rejects_strangers() {
        let raw = encode_handshake();
        let hs = decode_handshake(&raw).expect("own handshake");
        assert_eq!(hs.version, PROTOCOL_VERSION);
        assert_eq!(hs.features, PROTOCOL_FEATURES);

        let mut alien = raw;
        alien[0] ^= 0xFF;
        assert!(matches!(
            decode_handshake(&alien),
            Err(FrameError::BadMagic(_))
        ));

        let mut future = raw;
        future[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_be_bytes());
        assert_eq!(
            decode_handshake(&future),
            Err(FrameError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 1,
            })
        );

        // unknown feature bits are advertisory, not fatal
        let mut extra = raw;
        extra[7] |= 0x80;
        assert!(decode_handshake(&extra).is_ok());
    }
}
