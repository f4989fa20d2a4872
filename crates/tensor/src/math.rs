//! Bit-exact lane kernels for libm functions the models call per
//! element.
//!
//! [`tanh_in_place`] writes, element for element, the bits x86-64 glibc
//! 2.36's `tanhf` returns (the libm behind `f32::tanh` there), but over
//! a whole slice with no call per element, so the optimiser vectorises
//! the loop. GELU takes one `tanh` per element of its input.
//!
//! The kernel is the C routine — fdlibm's `s_tanhf.c` over
//! `s_expm1f.c` — rewritten lane-wise. Every lane computes every branch
//! with the same IEEE operations, in the same order, and then one chain
//! of selects picks the value of the branch the C code would have
//! returned from. Branches have no side effects, so no lane depends on
//! another lane or on the vector width. The integer steps (the
//! float-to-int truncation, the shifts of `expm1f`'s reconstruction)
//! are made total first: each is clamped to a range that changes no lane
//! that uses it, so nothing a discarded branch computes can trap or
//! panic. glibc compiles these routines without FMA on every x86-64
//! host, and Rust never contracts a multiply and an add, so nothing here
//! fuses.
//!
//! The claim is proven by exhaustion, not argued: the release build of
//! this module's tests compares every body with libm by `to_bits` on
//! all 2³² inputs (DESIGN.md §7). The kernel dispatches on the GEMM
//! microkernel's cached check: an AVX2 body when the host has AVX2 and
//! FMA, a portable body otherwise; both give the same bits.

/// `xs[i] = tanh(xs[i])`, bit for bit glibc's `tanhf`.
pub fn tanh_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature the body is
        // compiled for; it reads and writes only through `xs`.
        unsafe { tanh_avx2(xs) };
        return;
    }
    tanh_portable(xs);
}

/// [`tanh_in_place`] at the target's baseline SIMD width.
fn tanh_portable(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// [`tanh_in_place`] compiled for AVX2, eight lanes a vector, with the
/// portable body's bits.
///
/// # Safety
/// The CPU must support `avx2`.
// SAFETY: unsafe only because of #[target_feature]; the sole caller is
// gated on avx2_available(), and the body is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

// s_tanhf.c
const TANH_TINY: u32 = 0x2400_0000; // |x| < 2^-55: x·(1 + x)
const TANH_ONE: u32 = 0x3f80_0000; // |x| >= 1: expm1(2|x|), else expm1(-2|x|)
const TANH_SAT: u32 = 0x41b0_0000; // |x| >= 22: ±1
const INF_BITS: u32 = 0x7f80_0000;

/// glibc's `tanhf` on one lane.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    // expm1f(2|x|) for |x| >= 1, expm1f(-2|x|) below (exact doublings)
    let two_ax = 2.0 * f32::from_bits(ix);
    let t = expm1_lane(if ix >= TANH_ONE { two_ax } else { -two_ax });
    // every branch divides once: 1/x (non-finite), 2/(t+2) (|x| >= 1) or
    // -t/(t+2) (below), so one division serves the lane
    let (num, den) = if ix >= INF_BITS {
        (1.0, x)
    } else if ix >= TANH_ONE {
        (2.0, t + 2.0)
    } else {
        (-t, t + 2.0)
    };
    let q = num / den;
    let z = if ix >= TANH_SAT {
        1.0 // `one - tiny` rounds to 1
    } else if ix >= TANH_ONE {
        1.0 - q
    } else {
        q
    };
    let signed = if jx >> 31 == 0 { z } else { -z };
    let non_finite = if jx >> 31 == 0 { q + 1.0 } else { q - 1.0 };
    if ix >= INF_BITS {
        non_finite
    } else if ix == 0 {
        x
    } else if ix < TANH_TINY {
        x * (1.0 + x)
    } else {
        signed
    }
}

// s_expm1f.c
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const EXPM1_REDUCE: u32 = 0x3eb1_7218; // |x| > ln2/2: reduce by k·ln2
const EXPM1_NEAR: u32 = 0x3f85_1592; // |x| < 1.5·ln2: k = ±1
const EXPM1_TINY: u32 = 0x3300_0000; // |x| < 2^-25: x

/// glibc's `expm1f` on one lane, exact for the arguments [`tanh_lane`]
/// keeps: finite, `|x| < 44` (any other input returns some value). In
/// that domain the C code's `|x| >= 27·ln2` filter (`0x4195b844`), which
/// returns only for negative `x`, and its overflow and non-finite
/// branches (`0x42b17218`, 88.7) fall through for every lane, so they
/// are left out.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let pos = x.to_bits() >> 31 == 0;

    // argument reduction: x = k·ln2 + (hi - lo), c the rounding error
    let k_near = if pos { 1 } else { -1 };
    let hi_near = if pos { x - LN2_HI } else { x + LN2_HI };
    let lo_near = if pos { LN2_LO } else { -LN2_LO };
    // C's float-to-int conversion truncates. In the domain |v| < 64; the
    // clamp only bounds the lanes whose result is discarded. It is
    // max-then-min because that sends NaN to -128, where `clamp` would
    // keep it.
    #[allow(clippy::manual_clamp)]
    let v = (INVLN2 * x + if pos { 0.5 } else { -0.5 })
        .max(-128.0)
        .min(128.0);
    // SAFETY: after the clamp `v` is finite and within ±128, so its
    // truncation fits an i32. (`as i32` would saturate, which the
    // optimiser does not vectorise: 7.6 against 6.5 ns an element.)
    let k_far: i32 = unsafe { v.to_int_unchecked() };
    let tk = k_far as f32;
    let hi_far = x - tk * LN2_HI; // exact
    let lo_far = tk * LN2_LO;
    let near = hx < EXPM1_NEAR;
    let hi = if near { hi_near } else { hi_far };
    let lo = if near { lo_near } else { lo_far };
    let reduced = hi - lo;
    let reduce = hx > EXPM1_REDUCE;
    let k = if !reduce {
        0
    } else if near {
        k_near
    } else {
        k_far
    };
    let c = if reduce { (hi - reduced) - lo } else { 0.0 };
    let x = if reduce { reduced } else { x };

    // x is now in the primary range
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let k_zero = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let k_minus_one = 0.5 * (x - e) - 0.5;
    let k_one = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };

    // 2^k·y: add k to y's exponent field
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let k_wide = scale(1.0 - (e - x)) - 1.0; // k <= -2 or k > 56
    let mid = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k.clamp(0, 31))); // 1 - 2^-k
    let k_mid = scale(mid - (e - x)); // 2 <= k < 23
    let low = f32::from_bits(((0x7f - k.clamp(0, 0x7f)) << 23) as u32); // 2^-k
    let k_high = scale((x - (e + low)) + 1.0); // 23 <= k <= 56

    if hx < EXPM1_TINY {
        x
    } else if k == 0 {
        k_zero
    } else if k == -1 {
        k_minus_one
    } else if k == 1 {
        k_one
    } else if k <= -2 || k > 56 {
        k_wide
    } else if k < 23 {
        k_mid
    } else {
        k_high
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Body = fn(&mut [f32]);

    /// [`tanh_avx2`] behind the dispatch check, as a plain fn.
    #[cfg(target_arch = "x86_64")]
    fn tanh_avx2_checked(xs: &mut [f32]) {
        assert!(crate::matmul::avx2_available());
        // SAFETY: the assert above is the target-feature contract.
        unsafe { tanh_avx2(xs) }
    }

    /// Every body this host can run, by name: the dispatched kernel and
    /// each body it can dispatch to.
    fn bodies() -> Vec<(&'static str, Body)> {
        #[allow(unused_mut)]
        let mut out: Vec<(&'static str, Body)> = vec![
            ("tanh_in_place", tanh_in_place),
            ("portable", tanh_portable),
        ];
        #[cfg(target_arch = "x86_64")]
        if crate::matmul::avx2_available() {
            out.push(("avx2", tanh_avx2_checked));
        }
        out
    }

    /// At most this many differing inputs are kept per body and list.
    const KEEP: usize = 16;

    /// Runs every body on `xs` (`got` is scratch of the same length) and
    /// appends to `found`, per body, the bit patterns of the inputs whose
    /// result differs from `f32::tanh`'s by `to_bits`.
    fn collect_mismatches(
        bodies: &[(&str, Body)],
        xs: &[f32],
        got: &mut [f32],
        found: &mut [Vec<u32>],
    ) {
        let want: Vec<u32> = xs.iter().map(|x| x.tanh().to_bits()).collect();
        for ((_, body), found) in bodies.iter().zip(found) {
            got.copy_from_slice(xs);
            body(got);
            for ((x, g), w) in xs.iter().zip(got.iter()).zip(&want) {
                if g.to_bits() != *w && found.len() < KEEP {
                    found.push(x.to_bits());
                }
            }
        }
    }

    /// Panics on the first body with a mismatch, naming the lowest
    /// differing input's bits.
    fn assert_no_mismatch(bodies: &[(&str, Body)], found: &[Vec<u32>]) {
        for ((name, body), found) in bodies.iter().zip(found) {
            if let Some(&bits) = found.iter().min() {
                let x = f32::from_bits(bits);
                let mut got = [x];
                body(&mut got);
                panic!(
                    "tanh ({name}) differs from libm; first at x = {bits:#010x} ({x:e}): \
                     {:#010x}, libm {:#010x}",
                    got[0].to_bits(),
                    x.tanh().to_bits()
                );
            }
        }
    }

    /// `x` and its `ulps` neighbours on either side, of both signs.
    fn around(x: f32, ulps: u32) -> impl Iterator<Item = f32> {
        let b = x.to_bits() & 0x7fff_ffff;
        (b.saturating_sub(ulps)..=b.saturating_add(ulps))
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
    }

    #[test]
    fn tanh_matches_libm_at_every_threshold_and_a_sample() {
        // ±0, the subnormals' edges, ±∞ and the largest finite values
        let mut v: Vec<f32> = [0.0, f32::from_bits(1), f32::from_bits(0x007f_ffff)]
            .into_iter()
            .flat_map(|x| around(x, 3))
            .collect();
        v.extend(around(f32::MIN_POSITIVE, 2));
        v.extend(around(f32::INFINITY, 1));
        // quiet and signalling NaNs with several payloads, both signs
        for payload in [
            0x0040_0000,
            0x0000_0001,
            0x0012_3456,
            0x007f_ffff,
            0x0040_0001,
        ] {
            v.push(f32::from_bits(0x7f80_0000 | payload));
            v.push(f32::from_bits(0xff80_0000 | payload));
        }
        // s_tanhf.c's own thresholds
        for bits in [TANH_TINY, TANH_ONE, TANH_SAT] {
            v.extend(around(f32::from_bits(bits), 1));
        }
        // s_expm1f.c's, at the tanh input whose argument ±2|x| meets them
        for bits in [
            EXPM1_TINY,
            EXPM1_REDUCE,
            EXPM1_NEAR,
            0x4195_b844,
            0x42b1_7218,
        ] {
            v.extend(around(f32::from_bits(bits) / 2.0, 1));
        }
        // where expm1f's k = trunc(2|x|/ln2 ± 1/2) changes reconstruction
        for k in [2, 22, 23, 56, 57] {
            v.extend(around((k as f32 - 0.5) * std::f32::consts::LN_2 / 2.0, 64));
        }
        // a stride of 65 537 through all 2³² bit patterns
        v.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));

        let bodies = bodies();
        let mut found = vec![Vec::new(); bodies.len()];
        collect_mismatches(&bodies, &v, &mut v.clone(), &mut found);
        assert_no_mismatch(&bodies, &found);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 inputs: run by the release test step")]
    fn tanh_matches_libm_on_every_input() {
        // the dispatched kernel is one of the bodies; sweep those
        let bodies = &bodies()[1..];
        const CHUNK: u64 = 1 << 16;
        let chunks = (1u64 << 32) / CHUNK;
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4) as u64;
        let mut found = vec![Vec::new(); bodies.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        let mut got = xs.clone();
                        let mut found = vec![Vec::new(); bodies.len()];
                        for c in (t..chunks).step_by(threads as usize) {
                            for (i, x) in (c * CHUNK..).zip(xs.iter_mut()) {
                                *x = f32::from_bits(i as u32);
                            }
                            collect_mismatches(bodies, &xs, &mut got, &mut found);
                        }
                        found
                    })
                })
                .collect();
            for h in handles {
                for (all, f) in found.iter_mut().zip(h.join().unwrap()) {
                    all.extend(f);
                }
            }
        });
        assert_no_mismatch(bodies, &found);
    }
}
