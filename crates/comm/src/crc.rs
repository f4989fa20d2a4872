//! CRC32 (IEEE 802.3 reflected polynomial) — the one checksum of the
//! workspace: the wire codec stamps it on every frame trailer
//! (`selsync_net::crc32`) and the checkpoint format on every section
//! (`selsync_core::checkpoint::crc32`). Local implementation, no
//! external dependency; the tables are built at compile time.
//!
//! One value, two kernels, chosen per call from what the code can see —
//! the CPU and the input length — never from a switch:
//!
//! * **Carry-less multiply** (`clmul`, x86_64 only): inputs of at least
//!   64 bytes on a CPU that reports `pclmulqdq` + `sse4.1` fold four
//!   128-bit lanes per 64-byte block, then 4 → 1 lane, 128 → 64 bits,
//!   and a Barrett reduction to the 32-bit state (Gopal et al., *Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ*, Intel
//!   2009). It stops at 128-bit lanes on purpose: at well under a
//!   millisecond per 4 MB frame the checksum is no longer a visible
//!   share of a sync step.
//! * **Slice-by-16** (portable, safe Rust): everything else — short
//!   inputs (a flags frame covers 18 bytes) and every other CPU —
//!   consumes 16 bytes per iteration through sixteen 256-entry tables.
//!
//! Both finish a sub-16-byte tail with the single-table byte loop. The
//! whole-buffer byte loop this module used to be survives only as the
//! test oracle the two kernels are checked against.
//!
//! [`crc32_continue`] carries a finished CRC across a split, so a frame
//! reader checks the bytes of a frame as they arrive instead of holding
//! the whole frame first.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the state after byte `b` followed by `k` zero bytes, which is what
/// lets sixteen lookups advance sixteen bytes at once.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32 of `bytes` (IEEE, as used by zip/gzip/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_continue(0, bytes)
}

/// The CRC32 of a message whose first part had CRC32 `crc` and whose
/// next part is `bytes`: `crc32_continue(crc32(a), b) == crc32(a ++ b)`,
/// and `crc32_continue(0, b) == crc32(b)`. This is how a reader checks a
/// frame while its bytes are still arriving. Each piece picks its kernel
/// by its own length, so a stream fed in pieces of 64 bytes or more runs
/// at the folding kernel's speed.
pub fn crc32_continue(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = clmul::update(!crc, bytes) {
        return !state;
    }
    !update_slice16(!crc, bytes)
}

/// Advance the (pre-inverted) CRC state one byte at a time.
fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advance the (pre-inverted) CRC state sixteen bytes per iteration.
fn update_slice16(mut c: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        let lo = lo ^ u64::from(c);
        // byte j of the block is followed by 15 - j more bytes
        c = 0;
        for j in 0..8 {
            c ^= TABLES[15 - j][(lo >> (8 * j)) as u8 as usize]
                ^ TABLES[7 - j][(hi >> (8 * j)) as u8 as usize];
        }
    }
    update_bytewise(c, tail)
}

/// The PCLMULQDQ folding kernel — the only `unsafe` in this crate, all
/// of it behind the runtime feature check in [`update`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the fold applies to: one four-lane block.
    const MIN_LEN: usize = 64;

    // Folding constants for the bit-reflected IEEE polynomial,
    // `reflect(x^n mod P) << 1` (the test module re-derives them):
    /// n = 4·128 + 32: low half of a lane, four lanes ahead.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// n = 4·128 − 32: high half of a lane, four lanes ahead.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// n = 128 + 32: low half, one lane ahead.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// n = 128 − 32: high half, one lane ahead.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// n = 64: the 96 → 64 bit step.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself, reflected, with its x^32 term.
    pub(super) const P_X: i64 = 0x1_db71_0641;
    /// Barrett constant `reflect(floor(x^64 / P))`.
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Advance the (pre-inverted) CRC state over all of `bytes`, or
    /// `None` when the input is shorter than [`MIN_LEN`] or this CPU
    /// lacks the instructions. The detection is a cached load inside
    /// `std`, so asking per call is cheap.
    pub(super) fn update(state: u32, bytes: &[u8]) -> Option<u32> {
        if bytes.len() >= MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both target features `fold` is compiled with were
            // just detected on the running CPU.
            Some(unsafe { fold(state, bytes) })
        } else {
            None
        }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Move `lane` ahead by the distance `k` encodes (low half × low
    /// constant, high half × high constant) and add the data there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(lane: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let mut quads = blocks.chunks_exact(4);
        let Some(q) = quads.next() else {
            return super::update_slice16(state, bytes);
        };
        // four independent lanes, the running state folded into the first
        let mut x1 = _mm_xor_si128(load(&q[0]), _mm_cvtsi32_si128(state as i32));
        let mut x2 = load(&q[1]);
        let mut x3 = load(&q[2]);
        let mut x4 = load(&q[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for q in &mut quads {
            x1 = step(x1, k1k2, load(&q[0]));
            x2 = step(x2, k1k2, load(&q[1]));
            x3 = step(x3, k1k2, load(&q[2]));
            x4 = step(x4, k1k2, load(&q[3]));
        }
        // four lanes into one, then the 16-byte blocks short of a quad
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = step(x1, k3k4, x2);
        x1 = step(x1, k3k4, x3);
        x1 = step(x1, k3k4, x4);
        for b in quads.remainder() {
            x1 = step(x1, k3k4, load(b));
        }
        // 128 → 96 → 64 bits
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        let x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        let x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5));
        let x1 = _mm_xor_si128(x1, x2);
        // Barrett reduction to the 32-bit state
        let poly_mu = _mm_set_epi64x(MU, P_X);
        let x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly_mu);
        let x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), poly_mu);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(x1, x2)) as u32;
        super::update_bytewise(state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The whole-buffer byte loop `crc32` was until the sliced and
    /// folded kernels replaced it; kept as their reference.
    fn oracle(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn slice16(bytes: &[u8]) -> u32 {
        !update_slice16(!0, bytes)
    }

    /// `None` where the folding kernel does not apply: a short input, or
    /// a CPU (or architecture) without carry-less multiply.
    fn folded(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        return clmul::update(!0, bytes).map(|s| !s);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
    }

    /// zlib's answers, through the public entry point and each kernel.
    #[test]
    fn known_answers() {
        let every_byte: Vec<u8> = (0..=255).collect(); // long enough to fold
        let cases: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0x00; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
            (&every_byte, 0x2905_8C73),
        ];
        for (input, want) in cases {
            assert_eq!(crc32(input), want, "crc32 of {input:?}");
            assert_eq!(oracle(input), want, "oracle of {input:?}");
            assert_eq!(slice16(input), want, "slice-by-16 of {input:?}");
            if let Some(got) = folded(input) {
                assert_eq!(got, want, "clmul of {input:?}");
            }
        }
    }

    /// Every length 0..=320 at every start offset 0..16 crosses the
    /// 16-, 64- and 128-byte loop boundaries of both kernels at every
    /// alignment; the long buffer runs the four-lane loop for real.
    #[test]
    fn kernels_agree_with_the_byte_loop() {
        let buf = seeded(320 + 16, 0x5E15_CAFE);
        let long = seeded((1 << 20) + 37, 0xC0FF_EE11);
        let mut on_clmul = 0usize;
        let windows = (0..16)
            .flat_map(|off| (0..=320).map(move |len| (off, len)))
            .map(|(off, len)| &buf[off..off + len])
            .chain(std::iter::once(&long[..]));
        for w in windows {
            let want = oracle(w);
            assert_eq!(crc32(w), want, "crc32, len {}", w.len());
            assert_eq!(slice16(w), want, "slice-by-16, len {}", w.len());
            if let Some(got) = folded(w) {
                assert_eq!(got, want, "clmul, len {}", w.len());
                on_clmul += 1;
            }
        }
        // visible with `--nocapture`, which is how ci.sh runs this test
        println!(
            "crc32 paths exercised: oracle, slice-by-16, clmul on {on_clmul} of {} inputs",
            16 * 321 + 1
        );
        let gbps = |f: &dyn Fn(&[u8]) -> u32| {
            let fastest = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(f(std::hint::black_box(&long)));
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            long.len() as f64 / 1e9 / fastest
        };
        println!(
            "fastest of 5 passes over 1 MiB, GB/s: oracle {:.2}, slice-by-16 {:.2}, clmul {:.2}",
            gbps(&oracle),
            gbps(&slice16),
            gbps(&|b| folded(b).unwrap_or(0))
        );
    }

    /// A CRC continued across any split point equals the one-shot CRC,
    /// with either side of the split above or below the folding kernel's
    /// 64-byte threshold, and continuing from 0 is the one-shot CRC.
    #[test]
    fn continuation_across_every_split_equals_the_one_shot_crc() {
        for (len, seed) in [
            (0, 1),
            (1, 2),
            (63, 3),
            (64, 4),
            (65, 5),
            (200, 6),
            (1000, 7),
        ] {
            let buf = seeded(len, seed);
            let want = crc32(&buf);
            assert_eq!(want, oracle(&buf), "len {len}");
            assert_eq!(crc32_continue(0, &buf), want, "from 0, len {len}");
            for split in 0..=len {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    crc32_continue(crc32(a), b),
                    want,
                    "len {len}, split at {split}"
                );
            }
        }
        // three pieces, as a reader fed short reads sees them
        let buf = seeded(4096 + 13, 8);
        let pieces = [7usize, 64, 1000, 3, 129];
        let (mut crc, mut at) = (0, 0);
        for p in pieces.iter().cycle() {
            let end = (at + p).min(buf.len());
            crc = crc32_continue(crc, &buf[at..end]);
            at = end;
            if at == buf.len() {
                break;
            }
        }
        assert_eq!(crc, crc32(&buf));
    }

    /// Provenance of the folding constants: each is `x^n mod P` in the
    /// reflected bit order, shifted left once; P(x) is the polynomial
    /// with its x^32 term and µ the quotient `x^64 / P`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_derive_from_the_polynomial() {
        // reflected: bit 31 is x^0, multiplying by x shifts right
        let xn_mod_p = |n: u32| {
            (0..n).fold(0x8000_0000u32, |r, _| {
                (r >> 1) ^ if r & 1 != 0 { POLY } else { 0 }
            })
        };
        use clmul::{K1, K2, K3, K4, K5, MU, P_X};
        for (n, k) in [(544, K1), (480, K2), (160, K3), (96, K4), (64, K5)] {
            assert_eq!(i64::from(xn_mod_p(n)) << 1, k, "x^{n} mod P");
        }
        assert_eq!((i64::from(POLY) << 1) | 1, P_X);
        // long division of x^64 by P in the natural bit order, then
        // reflect the 33-bit quotient
        let p: u128 = 0x1_04C1_1DB7;
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem >> (shift + 32) & 1 != 0 {
                rem ^= p << shift;
                quot |= 1 << shift;
            }
        }
        assert_eq!((quot.reverse_bits() >> 31) as i64, MU);
    }
}
