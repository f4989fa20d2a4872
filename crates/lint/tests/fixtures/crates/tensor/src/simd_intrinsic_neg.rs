// Fixture: nothing here fires simd-intrinsic unsuppressed.
// A comment that names _mm256_fmadd_ps(a, b, c) is not a call.
use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};

/// A safe body compiled for AVX2 and FMA: the compiler emits the
/// instructions.
#[target_feature(enable = "avx2", enable = "fma")]
fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    let s = "_mm256_set1_ps(1.0) in a string";
    for (y, &x) in y.iter_mut().zip(x) {
        *y = a.mul_add(x, *y);
    }
    let _ = s;
}
// SAFETY: fixture; the caller checks avx2 and the lengths.
// lint:allow(simd-intrinsic): its safe twin took 3.1 µs against 1.0 µs per call on the reference host
#[inline]
unsafe fn copy8(src: &[f32], dst: &mut [f32]) {
    _mm256_storeu_ps(dst.as_mut_ptr(), _mm256_loadu_ps(src.as_ptr()));
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle() {
        // SAFETY: fixture; the intrinsic touches no memory.
        let _ = unsafe { std::arch::x86_64::_mm256_setzero_ps() };
    }
}
