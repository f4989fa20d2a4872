//! Bit-exact lane kernels for libm functions the models call per
//! element.
//!
//! [`tanh_in_place`] writes, element for element, the bits x86-64 glibc
//! 2.36's `tanhf` returns (the libm behind `f32::tanh` there), but over
//! a whole slice with no call per element, so the optimiser vectorises
//! the loop. GELU takes one `tanh` per element of its input.
//! `exp_lane` is `expf` on one lane, and `exp_in_place` runs it over a
//! slice eight lanes a step; the softmaxes of [`crate::attention`]
//! inline them into their vector loops.
//!
//! Each kernel is the C routine — fdlibm's `s_tanhf.c` over
//! `s_expm1f.c`, and glibc's table-driven `e_expf.c` — rewritten
//! lane-wise. Every lane computes every branch with the same IEEE
//! operations, in the same order, and then one chain of selects picks
//! the value of the branch the C code would have returned from. Branches
//! have no side effects, so no lane depends on another lane or on the
//! vector width. The integer steps (the float-to-int truncation, the
//! shifts of `expm1f`'s reconstruction, `expf`'s table index) are made
//! total first: each is clamped or masked to a range that changes no
//! lane that uses it, so nothing a discarded branch computes can trap or
//! panic. glibc compiles `tanhf` without FMA on every x86-64 host, and
//! Rust never contracts a multiply and an add, so nothing in it fuses.
//! glibc's `expf` is an ifunc whose FMA build runs on hosts with FMA and
//! AVX2; `exp_lane` is that build on every host, each multiply-add of
//! the C source one `mul_add`, so a lane's bits never depend on the host
//! (without FMA they are one ulp above the host's `f32::exp` at two
//! inputs, where glibc's generic build rounds the other way).
//!
//! The claim is proven by exhaustion, not argued: the release build of
//! this module's tests compares every body with libm by `to_bits` on
//! all 2³² inputs (DESIGN.md §7). `tanh_in_place`, and the softmax
//! bodies around `exp_in_place`, dispatch on the GEMM microkernel's
//! cached check: a body compiled for AVX2 and FMA when the host has
//! both, the same body compiled for the baseline target otherwise.

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
/// portable body's bits. A safe fn; its caller checks the feature in
/// `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_avx2(xs: &mut [f32]) {
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

// e_expf.c over e_exp2f_data.c, with N = 32 table entries
const EXP_N: u64 = 32;
const INV_LN2_N: f64 = f64::from_bits(0x3ff7_1547_652b_82fe) * EXP_N as f64;
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000); // 0x1.8p+52
const EXP_C0: f64 = f64::from_bits(0x3fac_6af8_4b91_2394) / (32.0 * 32.0 * 32.0);
const EXP_C1: f64 = f64::from_bits(0x3fce_bfce_50fa_c4f3) / (32.0 * 32.0);
const EXP_C2: f64 = f64::from_bits(0x3fe6_2e42_ff0c_52d6) / 32.0;
/// `bits(2^(i/32)) - (i << 47)`: adding `k << 47` to entry `k % 32`
/// yields `2^(k/32)` for any integer `k`.
const EXP_T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
// the outcomes of e_expf.c's |x| >= 88 filter
const EXP_OFLOW: u32 = 0x42b1_7217; // x above: +inf
const EXP_UFLOW: u32 = 0xc2cf_f1b4; // x below: +0
const EXP_MAY_UFLOW: u32 = 0xc2ce_8ecf; // x below: 2^-149

/// glibc's `expf` on one lane: its FMA build, every multiply-add of the
/// C source one `mul_add`. (glibc's generic build, which an x86-64 host
/// without FMA runs, rounds one ulp lower at `0x4202422f` and
/// `0xc27c65d9` only.) The C code's `|x| >= 88` filter is written as its
/// outcomes: every lane it does not decide takes the common path, as in
/// C.
#[inline(always)]
pub(crate) fn exp_lane(x: f32) -> f32 {
    let xd = x as f64;
    // x·N/ln2 = k + r with r in [-1/2, 1/2] and integer k, rounded by
    // the shift; the shifted value's low bits are k
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let r = INV_LN2_N.mul_add(xd, -(kd - SHIFT));
    // exp(x) = 2^(k/N)·2^(r/N) ≈ s·(C0·r³ + C1·r² + C2·r + 1)
    let s = f64::from_bits(EXP_T[(ki % EXP_N) as usize].wrapping_add(ki << 47));
    let r2 = r * r;
    let y = EXP_C0
        .mul_add(r, EXP_C1)
        .mul_add(r2, EXP_C2.mul_add(r, 1.0));
    let common = (y * s) as f32;
    if x.is_nan() {
        x + x
    } else if x > f32::from_bits(EXP_OFLOW) {
        f32::INFINITY
    } else if x < f32::from_bits(EXP_UFLOW) {
        0.0
    } else if x < f32::from_bits(EXP_MAY_UFLOW) {
        f32::from_bits(1)
    } else {
        common
    }
}

/// `xs[i] = exp_lane(xs[i])`: eight lanes a step by [`exp8_fused`] when
/// `AVX2`, one lane at a time otherwise.
///
/// # Safety
/// With `AVX2` the CPU must support `avx2` and `fma`.
// SAFETY: unsafe only for the `AVX2` contract; every load and store
// is of a whole 8-float chunk of `xs`.
// lint:allow(simd-intrinsic): one unaligned load and store a vector, which feed exp8_fused (measured there)
#[inline(always)]
pub(crate) unsafe fn exp_in_place<const AVX2: bool>(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if AVX2 {
        use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
        let mut chunks = xs.chunks_exact_mut(8);
        for v in &mut chunks {
            // SAFETY: the caller guarantees avx2 and fma; `v` holds eight
            // floats for the unaligned load and store.
            unsafe { _mm256_storeu_ps(v.as_mut_ptr(), exp8_fused(_mm256_loadu_ps(v.as_ptr()))) };
        }
        for x in chunks.into_remainder() {
            *x = exp_lane(*x);
        }
        return;
    }
    for x in xs {
        *x = exp_lane(*x);
    }
}

/// [`exp_lane`] on eight lanes: the same IEEE operations on the
/// same operands in the same order, four `f64` lanes an instruction,
/// with the filter's outcomes blended in by the same priority.
///
/// # Safety
/// The CPU must support `avx2` and `fma`.
// SAFETY: unsafe because of #[target_feature]; the gather reads
// `EXP_T[ki & 31]`, always inside the 32-entry table.
// lint:allow(simd-intrinsic): the loss's 96×64 softmax `exp` takes 7.2–10.9 µs with it against 10.6–16.1 µs for exp_lane compiled for AVX2 and FMA (2-vCPU AVX2+FMA host, best of 7 × 2 000 calls)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn exp8_fused(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let half = |xd: __m256d| -> __m128 {
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        // fma(InvLn2N, xd, -(kd - SHIFT)); negating is exact
        let r = _mm256_fmsub_pd(inv, xd, _mm256_sub_pd(kd, shift));
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(EXP_N as i64 - 1));
        let t = _mm256_i64gather_epi64::<8>(EXP_T.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let r2 = _mm256_mul_pd(r, r);
        let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C0), r, _mm256_set1_pd(EXP_C1));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    };
    let lo = half(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    let hi = half(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
    let mut y = _mm256_set_m128(hi, lo);
    let below = |bits: u32| _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(f32::from_bits(bits)));
    y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::from_bits(1)), below(EXP_MAY_UFLOW));
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), below(EXP_UFLOW));
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(f32::from_bits(EXP_OFLOW)));
    y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Body = fn(&mut [f32]);
    type Libm = fn(f32) -> f32;

    /// [`tanh_avx2`] behind the dispatch check, as a plain fn.
    #[cfg(target_arch = "x86_64")]
    fn tanh_avx2_checked(xs: &mut [f32]) {
        assert!(crate::matmul::avx2_available());
        // SAFETY: the assert above is the target-feature contract.
        unsafe { tanh_avx2(xs) }
    }

    /// Every `tanh` body this host can run, by name: the dispatched
    /// kernel and each body it can dispatch to.
    fn tanh_bodies() -> Vec<(&'static str, Body)> {
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

    /// [`exp_in_place`]'s portable body: the lanes one at a time, each
    /// `mul_add` a libm `fma` call unless the compiler may emit FMA.
    fn exp_portable(xs: &mut [f32]) {
        // SAFETY: the portable body needs no CPU feature.
        unsafe { exp_in_place::<false>(xs) }
    }

    /// [`exp_in_place`]'s AVX2 body: [`exp8_fused`] on whole vectors,
    /// [`exp_lane`] on the rest.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn exp_fused_avx2(xs: &mut [f32]) {
        // SAFETY: this function's target features are the contract.
        unsafe { exp_in_place::<true>(xs) }
    }

    #[cfg(target_arch = "x86_64")]
    fn exp_fused(xs: &mut [f32]) {
        assert!(crate::matmul::avx2_available());
        // SAFETY: the assert above is the target-feature contract.
        unsafe { exp_fused_avx2(xs) }
    }

    /// [`exp_lane`] one lane at a time compiled for AVX2 and FMA, as
    /// [`exp_in_place`] runs a slice's last `len % 8` elements there.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn exp_fused_lanes_avx2(xs: &mut [f32]) {
        for x in xs {
            *x = exp_lane(*x);
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn exp_fused_lanes(xs: &mut [f32]) {
        assert!(crate::matmul::avx2_available());
        // SAFETY: the assert above is the target-feature contract.
        unsafe { exp_fused_lanes_avx2(xs) }
    }

    /// Where glibc's FMA and generic `expf` builds differ: the generic
    /// one is one ulp low at both.
    const EXP_SPLITS: [u32; 2] = [0x4202_422f, 0xc27c_65d9];

    /// Every `expf` body this host can run, portable first, each with the
    /// inputs at which it must differ from this host's libm: none where
    /// glibc runs its FMA build (exactly when `avx2_available()`),
    /// [`EXP_SPLITS`] where it runs its generic one.
    fn exp_bodies() -> Vec<(&'static str, Body, &'static [u32])> {
        let avx2 = crate::matmul::avx2_available();
        let splits: &'static [u32] = if avx2 { &[] } else { &EXP_SPLITS };
        #[allow(unused_mut)]
        let mut out: Vec<(&'static str, Body, &'static [u32])> =
            vec![("portable", exp_portable, splits)];
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            out.push(("fused", exp_fused, &[]));
            out.push(("fused lanes", exp_fused_lanes, &[]));
        }
        out
    }

    /// At most this many differing inputs are kept per body and list.
    const KEEP: usize = 16;

    /// Runs every body on `xs` (`got` is scratch of the same length) and
    /// appends to `found`, per body, the bit patterns of the inputs whose
    /// result differs from `libm`'s by `to_bits`.
    fn collect_mismatches(
        bodies: &[Body],
        libm: Libm,
        xs: &[f32],
        got: &mut [f32],
        found: &mut [Vec<u32>],
    ) {
        let want: Vec<u32> = xs.iter().map(|&x| libm(x).to_bits()).collect();
        for (body, found) in bodies.iter().zip(found) {
            got.copy_from_slice(xs);
            body(got);
            for ((x, g), w) in xs.iter().zip(got.iter()).zip(&want) {
                if g.to_bits() != *w && found.len() < KEEP {
                    found.push(x.to_bits());
                }
            }
        }
    }

    /// Panics on the first body whose mismatches are not exactly its
    /// `expected` inputs, naming the lowest unexpected one's bits.
    fn assert_mismatches(
        what: &str,
        bodies: &[(&str, Body, &[u32])],
        libm: Libm,
        found: &mut [Vec<u32>],
    ) {
        for ((name, body, expected), found) in bodies.iter().zip(found) {
            found.sort_unstable();
            found.dedup();
            let unexpected = found.iter().find(|b| !expected.contains(b));
            if let Some(&bits) = unexpected {
                let x = f32::from_bits(bits);
                let mut got = [x];
                body(&mut got);
                panic!(
                    "{what} ({name}) differs from libm; first at x = {bits:#010x} ({x:e}): \
                     {:#010x}, libm {:#010x}",
                    got[0].to_bits(),
                    libm(x).to_bits()
                );
            }
            assert_eq!(
                found.as_slice(),
                *expected,
                "{what} ({name}) must differ from libm exactly at these inputs"
            );
        }
    }

    /// Sweeps `bodies` over `xs` and asserts their mismatches.
    fn check(what: &str, bodies: &[(&str, Body, &[u32])], libm: Libm, xs: &[f32]) {
        let fns: Vec<Body> = bodies.iter().map(|b| b.1).collect();
        let mut found = vec![Vec::new(); bodies.len()];
        collect_mismatches(&fns, libm, xs, &mut xs.to_vec(), &mut found);
        assert_mismatches(what, bodies, libm, &mut found);
    }

    /// Sweeps `bodies` over all 2³² inputs on scoped threads and asserts
    /// their mismatches.
    fn check_every_input(what: &str, bodies: &[(&str, Body, &[u32])], libm: Libm) {
        let fns: Vec<Body> = bodies.iter().map(|b| b.1).collect();
        let fns = &fns;
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
                        let mut found = vec![Vec::new(); fns.len()];
                        for c in (t..chunks).step_by(threads as usize) {
                            for (i, x) in (c * CHUNK..).zip(xs.iter_mut()) {
                                *x = f32::from_bits(i as u32);
                            }
                            collect_mismatches(fns, libm, &xs, &mut got, &mut found);
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
        assert_mismatches(what, bodies, libm, &mut found);
    }

    fn exact(bodies: Vec<(&'static str, Body)>) -> Vec<(&'static str, Body, &'static [u32])> {
        bodies.into_iter().map(|(n, b)| (n, b, &[][..])).collect()
    }

    /// `x` and its `ulps` neighbours on either side, of both signs.
    fn around(x: f32, ulps: u32) -> impl Iterator<Item = f32> {
        let b = x.to_bits() & 0x7fff_ffff;
        (b.saturating_sub(ulps)..=b.saturating_add(ulps))
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
    }

    /// ±0, the subnormals' edges, ±∞, the largest finite values, NaNs of
    /// both signs with several payloads, and a stride of 65 537 through
    /// all 2³² bit patterns.
    fn edges_and_sample() -> Vec<f32> {
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
        v.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        v
    }

    #[test]
    fn tanh_matches_libm_at_every_threshold_and_a_sample() {
        let mut v = edges_and_sample();
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
        check("tanh", &exact(tanh_bodies()), f32::tanh, &v);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 inputs: run by the release test step")]
    fn tanh_matches_libm_on_every_input() {
        // the dispatched kernel is one of the bodies; sweep those
        check_every_input("tanh", &exact(tanh_bodies())[1..], f32::tanh);
    }

    #[test]
    fn exp_matches_libm_at_every_threshold_and_a_sample() {
        let mut v = edges_and_sample();
        // e_expf.c's filter (|x| >= 88) and its outcomes' thresholds,
        // both signs of each
        for bits in [0x42b0_0000, EXP_OFLOW, EXP_UFLOW, EXP_MAY_UFLOW] {
            v.extend(around(f32::from_bits(bits), 1));
        }
        // where glibc's FMA and generic builds split
        v.extend(EXP_SPLITS.map(f32::from_bits));
        // where k = round(x·32/ln2) steps, so the table index wraps
        for k in [-1, 1, 31, 32, 33, -32] {
            v.extend(around(k as f32 * std::f32::consts::LN_2 / 32.0, 2));
        }
        check("exp", &exp_bodies(), f32::exp, &v);
    }

    #[test]
    fn exp_returns_the_fma_builds_bits_at_the_split_inputs() {
        for bits in EXP_SPLITS {
            // opaque to the optimiser: a release build folds a constant
            // `exp` at compile time, to the generic build's bits here
            let x = std::hint::black_box(f32::from_bits(bits));
            let mut got = [x];
            exp_portable(&mut got);
            let libm = x.exp().to_bits();
            // glibc's generic build, which runs without FMA, is one ulp low
            let want = if crate::matmul::avx2_available() {
                libm
            } else {
                libm + 1
            };
            assert_eq!(got[0].to_bits(), want, "exp at {bits:#010x}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 inputs: run by the release test step")]
    fn exp_matches_libm_on_every_input() {
        let bodies = exp_bodies();
        // where the dispatch never runs the portable body, its per-lane
        // libm `fma` calls would take most of the sweep's time
        let swept = if crate::matmul::avx2_available() {
            &bodies[1..]
        } else {
            &bodies[..]
        };
        check_every_input("exp", swept, f32::exp);
    }
}
