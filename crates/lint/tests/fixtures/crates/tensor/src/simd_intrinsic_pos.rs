// Fixture: two fns with hand-written intrinsics — each fires once, on
// the first line of its attributes.
// SAFETY: fixture; the caller checks avx2 and the lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add8(a: &[f32], b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let x = _mm256_loadu_ps(a.as_ptr());
    let y = _mm256_loadu_ps(b.as_ptr());
    _mm256_storeu_ps(out.as_mut_ptr(), _mm256_add_ps(x, y));
}
// SAFETY: fixture; the caller checks sse.
unsafe fn shuffle(x: std::arch::x86_64::__m128) -> std::arch::x86_64::__m128 {
    std::arch::x86_64::_mm_shuffle_ps::<0x1b>(x, x)
}
