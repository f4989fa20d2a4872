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
//! Each payload kind's body layout is declared once, in the wire schema
//! that defines [`Payload`] (`selsync_comm::wire`); DESIGN.md §13
//! prints the table of kinds and layouts. The codec writes a body with
//! [`Payload::write_body`] and reads one with [`Payload::read_body`].
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
//! byte-swapped on the way out, and zero-copy encode would need a
//! wire-version change. What an encode can avoid is touching a byte
//! twice from memory. One writer builds every frame: a section is
//! byte-swapped a kilobyte-sized block at a time into a stack array,
//! appended, and the frame's CRC is carried over the block while it is
//! still in L1, so the trailer comes from the running state and the
//! finished frame is never read back. The streaming reader does the
//! converse, a CRC and then a swap per 4 KiB sub-chunk of each read. Both
//! swaps are one safe body compiled twice, for the baseline target and
//! for AVX2 (`vpshufb`), picked per call by `is_x86_feature_detected!`.
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
use bytes::Bytes;
use selsync_comm::wire::{WireSink, WireSource, Word};
use selsync_comm::{crc32_continue, Msg, Payload};
use std::fmt;
use std::sync::Arc;

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
    let mut w = FrameWriter::new(&mut buf, wire);
    w.put_raw(&(from as u32).to_be_bytes());
    w.put_raw(&tag.to_be_bytes());
    w.put_raw(&[payload.kind()]);
    payload.write_body(&mut w);
    w.finish();
    assert_eq!(
        buf.len(),
        wire,
        "encoded frame length diverged from Payload::wire_bytes"
    );
    Bytes::from(buf)
}

/// Elements a section writer byte-swaps per block: 1 KiB of f32 or u32
/// (2 KiB of u64), small enough that the block is still in L1 when it is
/// appended and the frame's CRC is carried over it.
const SECTION_BLOCK: usize = 256;

/// Bytes a [`FrameWriter`] lets gather before it carries the CRC over
/// them, and the piece [`FrameWriter::put_slice`] appends at a time.
const CARRY_BYTES: usize = 1024;

/// Where the section writers append: every block goes through
/// [`Sink::put_block`].
trait Sink {
    fn put_block(&mut self, bytes: &[u8]);
}

/// A frame being encoded: its bytes so far, and the CRC-32 of those after
/// the length prefix up to `carried`. The CRC is carried over each
/// [`CARRY_BYTES`] that gather, so a section block is checksummed right
/// after it is appended, while it is in L1, and a small frame's header
/// and fields cost one CRC call, not one per field.
/// [`FrameWriter::finish`] stamps the trailer from the running state, so
/// the finished frame is never read back. It writes through the caller's
/// `Vec` in place: moved into the writer and back out, the `Vec` added
/// about a fifth to a flags frame's encode.
struct FrameWriter<'a> {
    buf: &'a mut Vec<u8>,
    crc: u32,
    carried: usize,
}

impl Sink for FrameWriter<'_> {
    fn put_block(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() - self.carried >= CARRY_BYTES {
            self.carry();
        }
    }
}

/// The schema writes a body here: raw bytes a [`CARRY_BYTES`] piece at a
/// time, sections block by block.
impl WireSink for FrameWriter<'_> {
    fn put_raw(&mut self, bytes: &[u8]) {
        for piece in bytes.chunks(CARRY_BYTES) {
            self.put_block(piece);
        }
    }

    fn put_section<T: Word<N>, const N: usize>(&mut self, v: &[T]) {
        put_section(self, v);
    }
}

impl FrameWriter<'_> {
    /// A frame of `wire` bytes in `buf`, whose contents are discarded and
    /// whose allocation is kept when it has room; the length prefix,
    /// which the CRC does not cover, is written.
    fn new(buf: &mut Vec<u8>, wire: usize) -> FrameWriter<'_> {
        buf.clear();
        buf.reserve_exact(wire);
        buf.extend_from_slice(&((wire - 4) as u32).to_be_bytes());
        FrameWriter {
            buf,
            crc: 0,
            carried: 4,
        }
    }

    /// Carry the CRC over the bytes appended since the last carry.
    fn carry(&mut self) {
        self.crc = crc32_continue(self.crc, &self.buf[self.carried..]);
        self.carried = self.buf.len();
    }

    /// Append the CRC-32 trailer.
    fn finish(mut self) {
        self.carry();
        let crc = self.crc;
        self.buf.extend_from_slice(&crc.to_be_bytes());
    }
}

/// Write `u32 count` + `count` big-endian elements: each block of
/// [`SECTION_BLOCK`] elements is byte-swapped into a stack array and
/// handed to the sink whole.
fn put_section<T: Word<N>, const N: usize>(sink: &mut impl Sink, v: &[T]) {
    sink.put_block(&(v.len() as u32).to_be_bytes());
    let mut block = [[0u8; N]; SECTION_BLOCK];
    for chunk in v.chunks(SECTION_BLOCK) {
        let block = &mut block[..chunk.len()];
        to_wire(block, chunk);
        sink.put_block(block.as_flattened());
    }
}

/// Whether the host has AVX2, so the swap bodies compiled for it can
/// run. `is_x86_feature_detected!` caches its answer, so this is a load.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// `dst[i] = src[i]` in wire order, `dst` and `src` of one length: one
/// safe body, compiled twice. This dispatches to the compilation for
/// AVX2 when the host has it; at rustc's baseline x86-64 target the
/// swap runs at SSE2 width, with the same bytes at well under half the
/// speed (swapping 64 KiB in L2 on a 2-vCPU x86-64 host: 10.7 against
/// 25.5 GB/s).
fn to_wire<T: Word<N>, const N: usize>(dst: &mut [[u8; N]], src: &[T]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature the body is
        // compiled for; the body is safe code.
        unsafe { to_wire_avx2(dst, src) };
        return;
    }
    to_wire_body(dst, src);
}

/// [`to_wire_body`] compiled for AVX2: eight f32 or four u64 swapped per
/// `vpshufb`. A safe fn; its caller checks the feature in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn to_wire_avx2<T: Word<N>, const N: usize>(dst: &mut [[u8; N]], src: &[T]) {
    to_wire_body(dst, src);
}

#[inline(always)]
fn to_wire_body<T: Word<N>, const N: usize>(dst: &mut [[u8; N]], src: &[T]) {
    assert_eq!(dst.len(), src.len());
    for (d, x) in dst.iter_mut().zip(src) {
        *d = x.to_wire();
    }
}

/// Append the elements of `src`'s big-endian words to `dst`: like
/// [`to_wire`], one safe body compiled twice and dispatched by the host's
/// features.
fn extend_from_wire<T: Word<N>, const N: usize>(dst: &mut Vec<T>, src: &[[u8; N]]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature the body is
        // compiled for; the body is safe code.
        unsafe { extend_from_wire_avx2(dst, src) };
        return;
    }
    extend_from_wire_body(dst, src);
}

/// [`extend_from_wire_body`] compiled for AVX2. A safe fn; its caller
/// checks the feature in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn extend_from_wire_avx2<T: Word<N>, const N: usize>(dst: &mut Vec<T>, src: &[[u8; N]]) {
    extend_from_wire_body(dst, src);
}

#[inline(always)]
fn extend_from_wire_body<T: Word<N>, const N: usize>(dst: &mut Vec<T>, src: &[[u8; N]]) {
    dst.extend(src.iter().map(|w| T::from_wire(*w)));
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
    let mut body = Verified(covered);
    let from = u32::from_wire(body.take()?) as usize;
    let tag = u64::from_wire(body.take()?);
    let [kind] = body.take()?;
    let payload = Payload::read_body(kind, &mut body)?.ok_or(FrameError::BadKind(kind))?;
    if !body.0.is_empty() {
        return Err(FrameError::TrailingBytes(body.0.len()));
    }
    Ok(Msg { from, tag, payload })
}

/// The bytes of a frame whose CRC has verified that are still to be
/// read: the schema reads a body from here, every read checked against
/// what is left.
struct Verified<'a>(&'a [u8]);

impl<'a> Verified<'a> {
    /// Read an inner section's `u32 count` and hand back its
    /// `count × elem` raw bytes, rejecting before any allocation or
    /// overflow if the frame does not actually hold that many bytes.
    fn take_section(&mut self, elem: usize) -> Result<&'a [u8], FrameError> {
        let count = u32::from_wire(self.take()?) as u64;
        let needed = count * elem as u64; // <= (2^32 - 1) * 8, cannot overflow u64
        if needed > self.0.len() as u64 {
            return Err(FrameError::Truncated {
                needed: usize::try_from(needed).unwrap_or(usize::MAX),
                have: self.0.len(),
            });
        }
        let (section, rest) = self.0.split_at(needed as usize);
        self.0 = rest;
        Ok(section)
    }
}

impl WireSource for Verified<'_> {
    type Error = FrameError;

    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(FrameError::Truncated {
            needed: N,
            have: self.0.len(),
        })?;
        self.0 = rest;
        Ok(*head)
    }

    /// Inlined, as the section reads are, so a flags frame decodes in one
    /// function.
    #[inline(always)]
    fn get_bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        Ok(self.take_section(1)?.to_vec())
    }

    /// An inner section's `u32 count` and its `count` big-endian elements,
    /// in one pass over the frame bytes.
    fn get_section<T: Word<N>, const N: usize>(&mut self) -> Result<Vec<T>, FrameError> {
        let (words, _) = self.take_section(N)?.as_chunks::<N>();
        let mut v = Vec::with_capacity(words.len());
        extend_from_wire(&mut v, words);
        Ok(v)
    }
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

/// Bytes of a streamed f32 section the reader checksums and then swaps
/// at a time: a read buffer is walked in sub-chunks that stay in L1
/// between the two passes.
const DECODE_CHUNK: usize = 4 * 1024;

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
        // every other kind is decoded whole by decode_after_len
        let make = Payload::f32_section_kind(h[12])?;
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
            self.pos += chunk.len() as u64;
            let mut rest = chunk;
            if self.unit_len > 0 {
                let k = (4 - self.unit_len).min(rest.len());
                self.crc = crc32_continue(self.crc, &rest[..k]);
                self.unit[self.unit_len..self.unit_len + k].copy_from_slice(&rest[..k]);
                self.unit_len += k;
                rest = &rest[k..];
                if self.unit_len < 4 {
                    return Ok(chunk.len());
                }
                let word = self.take_unit::<4>();
                grow_for(&mut self.values, 1, head.count);
                self.values.push(f32::from_wire(word));
            }
            let (words, tail) = rest.as_chunks::<4>();
            grow_for(&mut self.values, words.len(), head.count);
            // checksum a sub-chunk, then swap it while it is still in L1
            for sub in words.chunks(DECODE_CHUNK / 4) {
                self.crc = crc32_continue(self.crc, sub.as_flattened());
                extend_from_wire(&mut self.values, sub);
            }
            self.crc = crc32_continue(self.crc, tail);
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
    use bytes::{BufMut, BytesMut};
    use selsync_comm::ShardSpec;
    use std::sync::Arc;

    /// A plain buffer as a section writer's sink: the bytes, no CRC.
    impl Sink for BytesMut {
        fn put_block(&mut self, bytes: &[u8]) {
            self.put_slice(bytes);
        }
    }

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

    /// The kinds the reader streams, as the schema derives them: exactly
    /// the four one-f32-section kinds a model travels as. Every other
    /// kind is decoded whole by `decode_after_len`.
    #[test]
    fn the_streamed_kinds_are_the_four_model_kinds() {
        let streamed: Vec<Payload> = (0..=u8::MAX)
            .filter_map(|kind| Payload::f32_section_kind(kind).map(|make| make(vec![1.5])))
            .collect();
        assert_eq!(
            streamed,
            [
                Payload::Params(vec![1.5]),
                Payload::Grads(vec![1.5]),
                Payload::ShardPush(vec![1.5]),
                Payload::ShardPull(vec![1.5]),
            ]
        );
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
            put_section(&mut got, &floats);
            want.put_u32(len as u32);
            floats.iter().for_each(|x| want.put_f32(*x));
            assert_eq!(got, want, "f32 section of {len}");
            let decoded: Vec<f32> = Verified(&got).get_section().unwrap();
            let bits: Vec<u32> = decoded.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, words, "f32 bits of {len}");

            let (mut got, mut want) = (BytesMut::with_capacity(0), BytesMut::with_capacity(0));
            put_section(&mut got, &words);
            want.put_u32(len as u32);
            words.iter().for_each(|w| want.put_u32(*w));
            assert_eq!(got, want, "u32 section of {len}");

            let (mut got, mut want) = (BytesMut::with_capacity(0), BytesMut::with_capacity(0));
            put_section(&mut got, &sizes);
            want.put_u32(len as u32);
            sizes.iter().for_each(|n| want.put_u64(*n as u64));
            assert_eq!(got, want, "u64 section of {len}");
        }
    }

    /// Bit patterns for the swap tests: random words, one in four of them
    /// a special — signalling and quiet NaNs with payloads, both
    /// infinities, -0.0 and subnormals as f32, all-ones and the sign bit
    /// as u64.
    fn salted_bits(len: usize, seed: u64) -> Vec<u64> {
        const SPECIALS: [u64; 10] = [
            0x7F80_0001,
            0xFF80_0001,
            0x7FBF_FFFF,
            0x7FC0_0001,
            0x7F80_0000,
            0xFF80_0000,
            0x8000_0000,
            0x0000_0001,
            0x807F_FFFF,
            u64::MAX,
        ];
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = x ^ (x >> 29);
                if r.is_multiple_of(4) {
                    SPECIALS[(r >> 8) as usize % SPECIALS.len()] | (r >> 40) << 63
                } else {
                    r
                }
            })
            .collect()
    }

    /// Both compilations of both swap bodies for one element type, at
    /// every length from 0 to three blocks and three elements, against
    /// per-element big-endian oracles `enc`/`dec`; and a section written
    /// through a [`FrameWriter`] carries the CRC of exactly those bytes.
    fn check_swap_compilations<T: Word<N>, const N: usize>(
        make: fn(u64) -> T,
        enc: fn(T) -> [u8; N],
        dec: fn([u8; N]) -> T,
    ) {
        for len in 0..=3 * SECTION_BLOCK + 3 {
            let what = format!("{len} elements of {N} bytes");
            let src: Vec<T> = salted_bits(len, len as u64).into_iter().map(make).collect();
            let want: Vec<[u8; N]> = src.iter().map(|x| enc(*x)).collect();

            let mut baseline = vec![[0u8; N]; len];
            to_wire_body(&mut baseline, &src);
            assert!(baseline == want, "encode, baseline: {what}");
            let mut decoded = vec![make(7)];
            extend_from_wire_body(&mut decoded, &want);
            let bytes = |v: &[T]| v.iter().map(|x| enc(*x)).collect::<Vec<_>>();
            assert!(
                enc(decoded[0]) == enc(make(7)),
                "decode keeps what was there: {what}"
            );
            assert!(bytes(&decoded[1..]) == want, "decode, baseline: {what}");
            let oracle: Vec<T> = want.iter().map(|w| dec(*w)).collect();
            assert!(bytes(&oracle) == want, "decode oracle: {what}");

            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                let mut avx2 = vec![[0u8; N]; len];
                // SAFETY: avx2_available() holds.
                unsafe { to_wire_avx2(&mut avx2, &src) };
                assert!(avx2 == want, "encode, avx2: {what}");
                assert_eq!(
                    crc32(avx2.as_flattened()),
                    crc32(baseline.as_flattened()),
                    "{what}"
                );
                let mut decoded = vec![make(7)];
                // SAFETY: avx2_available() holds.
                unsafe { extend_from_wire_avx2(&mut decoded, &want) };
                assert!(enc(decoded[0]) == enc(make(7)), "{what}");
                assert!(bytes(&decoded[1..]) == want, "decode, avx2: {what}");
            }

            let wire = 4 + 4 + N * len + CRC_BYTES;
            let mut frame = Vec::new();
            let mut w = FrameWriter::new(&mut frame, wire);
            put_section(&mut w, &src);
            w.finish();
            assert_eq!(frame.len(), wire, "{what}");
            assert_eq!(&frame[4..8], &(len as u32).to_be_bytes(), "{what}");
            assert!(frame[8..wire - CRC_BYTES] == *want.as_flattened(), "{what}");
            let crc = crc32(&frame[4..wire - CRC_BYTES]);
            assert_eq!(frame[wire - CRC_BYTES..], crc.to_be_bytes(), "{what}");
        }
    }

    /// The swap bodies' baseline and AVX2 compilations write the same
    /// bytes, the bytes a per-element big-endian conversion writes, for
    /// every section element type.
    #[test]
    fn swap_compilations_write_the_same_bytes() {
        check_swap_compilations::<f32, 4>(
            |b| f32::from_bits(b as u32),
            |x| x.to_bits().to_be_bytes(),
            |w| f32::from_bits(u32::from_be_bytes(w)),
        );
        check_swap_compilations::<u32, 4>(|b| b as u32, u32::to_be_bytes, u32::from_be_bytes);
        check_swap_compilations::<u64, 8>(|b| b, u64::to_be_bytes, u64::from_be_bytes);
        check_swap_compilations::<usize, 8>(
            |b| b as usize,
            |x| (x as u64).to_be_bytes(),
            |w| u64::from_be_bytes(w) as usize,
        );
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

    /// A streamed float frame four decode sub-chunks long, read as two
    /// slices cut within five bytes of each sub-chunk boundary (mid-word
    /// cuts included), delivers exactly `decode_after_len`'s message; a
    /// bit flipped inside any sub-chunk is the fault `decode_after_len`
    /// makes of the frame, however the stream is cut.
    #[test]
    fn the_reader_is_exact_at_its_sub_chunk_boundaries() {
        let count = 3 * DECODE_CHUNK / 4 + 517;
        let values = salted_bits(count, 40)
            .into_iter()
            .map(|b| f32::from_bits(b as u32))
            .collect();
        let frame = encode_frame(2, 77, &Payload::Grads(values)).to_vec();
        let want = decode_after_len(&frame[4..]).unwrap();
        let want = encode_frame(want.from, want.tag, &want.payload);
        let stream = stream_of(&[frame.clone().into()]);
        // a read that holds the whole frame starts its sub-chunks here
        let section = HANDSHAKE_BYTES + 4 + HEADER_BYTES;
        let read_cut = |stream: &[u8], cut: usize| {
            let mut reader = FrameReader::new(1 << 20);
            let mut got = Vec::new();
            let end = reader
                .feed(&stream[..cut], |m| got.push(m))
                .and_then(|()| reader.feed(&stream[cut..], |m| got.push(m)));
            (got, end, reader.end(&"EOF"))
        };
        for j in 1..=3 {
            let boundary = section + j * DECODE_CHUNK;
            for cut in boundary - 5..=boundary + 5 {
                let (got, end, tail) = read_cut(&stream, cut);
                assert_eq!((end, tail), (Ok(()), None), "cut {cut}");
                let [m] = &got[..] else {
                    panic!("cut {cut}: {} messages", got.len());
                };
                assert!(matches!(m.payload, Payload::Grads(_)), "cut {cut}");
                assert_eq!(encode_frame(m.from, m.tag, &m.payload), want, "cut {cut}");
            }
        }
        for j in 0..4 {
            let mut bad = frame.clone();
            bad[section - HANDSHAKE_BYTES + j * DECODE_CHUNK + 301] ^= 0x40;
            let kind = StreamFaultKind::Frame {
                len: frame.len() - 4,
                error: decode_after_len(&bad[4..]).unwrap_err(),
            };
            assert!(matches!(
                kind,
                StreamFaultKind::Frame {
                    error: FrameError::Crc { .. },
                    ..
                }
            ));
            let stream = stream_of(&[bad.into()]);
            let boundary = section + j * DECODE_CHUNK;
            for cut in [stream.len(), boundary + 2, boundary + 303, stream.len() - 3] {
                let (got, end, _) = read_cut(&stream, cut);
                assert!(got.is_empty(), "flip in sub-chunk {j}, cut {cut}");
                let fault = end.unwrap_err();
                assert_eq!(
                    fault.offset, HANDSHAKE_BYTES as u64,
                    "sub-chunk {j}, cut {cut}"
                );
                assert_eq!(fault.kind, kind, "sub-chunk {j}, cut {cut}");
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
