//! Seeded mutational frame fuzzer: proof that decode is *total*.
//!
//! Every iteration encodes a frame from one of the 15 `Payload`
//! variants, damages it (bit flips, truncation, extension, hostile
//! length/count overwrites with a restamped CRC, or pure garbage), and
//! feeds it to the decoder. Two properties must hold for every input:
//!
//! 1. **No panic** — arbitrary bytes produce `Ok` or a typed
//!    `FrameError`, nothing else (the test process dying is the
//!    failure signal).
//! 2. **No mis-decode** — any *accepted* frame re-encodes to exactly
//!    the bytes that were decoded, so a damaged frame can never decode
//!    into a plausible-but-wrong message silently.
//!
//! The same schedule then goes through the streaming `FrameReader` the
//! socket drivers read with, in random-size pieces: its verdict on every
//! frame must be the decoder's.
//!
//! Deterministic: the schedule is a pure function of `FRAME_FUZZ_SEED`
//! (default 0xC0FFEE). `FRAME_FUZZ_ITERS` (default 12288, spread over
//! all variants) scales the run for longer offline sweeps.

use selsync_comm::{Msg, Payload, ShardSpec};
use selsync_net::codec::decode_after_len;
use selsync_net::{
    decode_frame, encode_frame, encode_handshake, FrameError, FrameReader, StreamFaultKind,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::sync::Arc;

/// splitmix64: tiny, seedable, and good enough to explore the damage
/// space reproducibly without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn f32(&mut self) -> f32 {
        // raw bit pattern: covers NaN, infinities, subnormals
        f32::from_bits(self.next() as u32)
    }

    fn f32_vec(&mut self, max: usize) -> Vec<f32> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.f32()).collect()
    }

    fn usize_vec(&mut self, max: usize) -> Vec<usize> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.below(1 << 20)).collect()
    }
}

/// One of the 15 payload variants, sized small so tens of thousands of
/// iterations stay fast.
fn gen_payload(rng: &mut Rng, variant: usize) -> Payload {
    match variant {
        0 => Payload::Params(rng.f32_vec(24)),
        1 => Payload::SharedParams(Arc::new(rng.f32_vec(24))),
        2 => Payload::Grads(rng.f32_vec(24)),
        3 => Payload::Flags((0..rng.below(17)).map(|_| rng.next() as u8).collect()),
        4 => Payload::Samples {
            data: rng.f32_vec(16),
            targets: rng.usize_vec(8),
            dims: rng.usize_vec(4),
        },
        5 => Payload::Control(rng.next()),
        6 => Payload::Predict {
            data: rng.f32_vec(16),
            dims: rng.usize_vec(4),
        },
        7 => Payload::Logits {
            rows: rng.f32_vec(16),
            classes: rng.below(1000),
        },
        8 => Payload::ShardMap(ShardSpec {
            version: rng.next(),
            total: rng.next(),
            starts: (0..rng.below(9)).map(|_| rng.next()).collect(),
        }),
        9 => Payload::ShardPush(rng.f32_vec(24)),
        10 => Payload::ShardPull(rng.f32_vec(24)),
        11 => Payload::Bucket {
            bucket: rng.next() as u32,
            n_buckets: rng.next() as u32,
            values: rng.f32_vec(16),
        },
        12 => Payload::SparseGrad {
            len: rng.next() as u32,
            indices: (0..rng.below(9)).map(|_| rng.next() as u32).collect(),
            values: rng.f32_vec(8),
        },
        13 => Payload::SignGrad {
            len: rng.next() as u32,
            scale: rng.f32(),
            bits: (0..rng.below(9)).map(|_| rng.next() as u8).collect(),
        },
        _ => Payload::LowRank {
            rows: rng.next() as u32,
            cols: rng.next() as u32,
            rank: rng.next() as u32,
            p: rng.f32_vec(12),
            q: rng.f32_vec(12),
        },
    }
}

/// Recompute the CRC trailer after a mutation, so mutations exercise
/// the decode paths *behind* the checksum, not just the checksum.
fn restamp(frame: &mut [u8]) {
    let end = frame.len() - 4;
    let crc = selsync_net::crc32(&frame[4..end]);
    frame[end..].copy_from_slice(&crc.to_be_bytes());
}

/// Apply one seeded damage strategy; returns the mutated bytes.
fn mutate(rng: &mut Rng, frame: &[u8], strategy: usize) -> Vec<u8> {
    let mut out = frame.to_vec();
    match strategy {
        // pristine: must decode and re-encode identically
        0 => {}
        // 1..=8 random bit flips anywhere
        1 => {
            for _ in 0..1 + rng.below(8) {
                let pos = rng.below(out.len());
                out[pos] ^= 1 << rng.below(8);
            }
        }
        // truncate at a random boundary (including empty)
        2 => out.truncate(rng.below(out.len() + 1)),
        // extend with random garbage
        3 => {
            for _ in 0..1 + rng.below(16) {
                out.push(rng.next() as u8);
            }
        }
        // overwrite one aligned u32 with an extreme value and restamp
        // the CRC: drives hostile lengths/counts past the checksum
        4 => {
            let vals = [u32::MAX, u32::MAX - 1, 1 << 31, 0x7FFF_FFFF, 0];
            let pos = rng
                .below(out.len().saturating_sub(8) + 1)
                .min(out.len() - 4);
            out[pos..pos + 4].copy_from_slice(&vals[rng.below(vals.len())].to_be_bytes());
            if out.len() >= 21 {
                restamp(&mut out);
            }
        }
        // rewrite the kind byte (valid or invalid) and restamp
        5 => {
            if out.len() > 16 {
                out[16] = rng.next() as u8 % 16;
                restamp(&mut out);
            }
        }
        // pure garbage of arbitrary length, no structure at all
        _ => {
            let n = rng.below(96);
            out = (0..n).map(|_| rng.next() as u8).collect();
        }
    }
    out
}

#[test]
fn mutated_frames_never_panic_or_misdecode() {
    let seed = std::env::var("FRAME_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE_u64);
    let iters: usize = std::env::var("FRAME_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_288);
    let mut rng = Rng(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let variant = i % 15;
        let payload = gen_payload(&mut rng, variant);
        let from = rng.below(1 << 16);
        let tag = rng.next();
        let frame = encode_frame(from, tag, &payload);
        let strategy = rng.below(7);
        let bad = mutate(&mut rng, &frame, strategy);
        match decode_frame(&bad) {
            Ok(msg) => {
                accepted += 1;
                // an accepted frame must re-encode to exactly the bytes
                // decoded — acceptance of damaged bytes that still
                // parse (e.g. a value flip with a restamped CRC) is
                // fine only because nothing was *mis*-read
                let re = encode_frame(msg.from, msg.tag, &msg.payload);
                assert_eq!(
                    re.as_ref(),
                    bad.as_slice(),
                    "iter {i}: accepted frame re-encoded differently \
                     (variant {variant}, strategy {strategy}, seed {seed})"
                );
            }
            Err(_) => rejected += 1,
        }
    }
    // sanity on the schedule itself: both outcomes must actually occur
    // (pristine frames decode; garbage is rejected)
    assert!(accepted > 0, "schedule produced no accepted frames");
    assert!(rejected > 0, "schedule produced no rejected frames");
}

/// A decode result compared by bytes: an accepted message by its
/// re-encoding, which the test above holds equal to the bytes decoded
/// (NaN payloads make `Msg` itself unequal to its own copy).
fn verdict(r: Result<Msg, FrameError>) -> Result<Vec<u8>, FrameError> {
    r.map(|m| encode_frame(m.from, m.tag, &m.payload).to_vec())
}

/// Every mutated frame of the schedule above, behind a handshake, fed to
/// a `FrameReader` in pieces of 1 to 64 bytes. Its verdict on the frame
/// the length prefix announces is `decode_after_len` of exactly those
/// bytes — `decode_frame`'s verdict whenever the prefix matches the
/// frame — delivered as the message or reported as that `FrameError`.
/// A frame shorter than its prefix claims is a torn frame at EOF, never
/// a message.
#[test]
fn the_stream_reader_agrees_with_the_decoder_in_random_pieces() {
    let seed = std::env::var("FRAME_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE_u64);
    let iters: usize = std::env::var("FRAME_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_288);
    let mut rng = Rng(seed);
    let mut pieces = Rng(seed ^ 0x5EED_F00D);
    let (mut streamed_ok, mut streamed_err) = (0u64, 0u64);
    for i in 0..iters {
        let variant = i % 15;
        let payload = gen_payload(&mut rng, variant);
        let from = rng.below(1 << 16);
        let tag = rng.next();
        let frame = encode_frame(from, tag, &payload);
        let strategy = rng.below(7);
        let bad = mutate(&mut rng, &frame, strategy);

        let mut stream = encode_handshake().to_vec();
        stream.extend_from_slice(&bad);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut got = Vec::new();
        let mut fault = None;
        let mut at = 0;
        while at < stream.len() && fault.is_none() {
            let end = (at + 1 + pieces.below(64)).min(stream.len());
            fault = reader.feed(&stream[at..end], |m| got.push(m)).err();
            at = end;
        }
        let ctx = format!("iter {i} (variant {variant}, strategy {strategy}, seed {seed})");

        let Some(prefix) = bad.first_chunk::<4>() else {
            assert!(got.is_empty() && fault.is_none(), "{ctx}");
            let torn = reader.end(&"EOF").map(|f| f.kind);
            assert_eq!(torn.is_some(), !bad.is_empty(), "{ctx}: {torn:?}");
            continue;
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > DEFAULT_MAX_FRAME_BYTES {
            let hostile = fault.map(|f| f.kind);
            assert!(got.is_empty(), "{ctx}");
            assert!(
                matches!(hostile, Some(StreamFaultKind::HostileLength { .. })),
                "{ctx}: {hostile:?}"
            );
            continue;
        }
        if bad.len() < 4 + len {
            assert!(
                got.is_empty() && fault.is_none(),
                "{ctx}: {got:?} {fault:?}"
            );
            let torn = reader.end(&"EOF").map(|f| f.kind);
            assert!(
                matches!(torn, Some(StreamFaultKind::TornBody { .. })),
                "{ctx}: {torn:?}"
            );
            continue;
        }
        let want = verdict(decode_after_len(&bad[4..4 + len]));
        if bad.len() == 4 + len {
            assert_eq!(want, verdict(decode_frame(&bad)), "{ctx}");
        }
        let first = match got.into_iter().next() {
            Some(m) => Ok(m),
            None => match fault.map(|f| f.kind) {
                Some(StreamFaultKind::Frame { len: l, error }) if l == len => Err(error),
                other => panic!("{ctx}: no verdict on the frame, got {other:?}"),
            },
        };
        if matches!(payload, Payload::Params(_) | Payload::Grads(_)) {
            if want.is_ok() {
                streamed_ok += 1;
            } else {
                streamed_err += 1;
            }
        }
        assert_eq!(verdict(first), want, "{ctx}");
    }
    // the float kinds took both outcomes, so the streamed path was judged
    assert!(streamed_ok > 0 && streamed_err > 0);
}
