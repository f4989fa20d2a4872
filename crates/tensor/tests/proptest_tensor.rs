//! Property-based tests of the tensor algebra: the three matmul kernels
//! agree with explicit transposition, conv lowering is a linear adjoint
//! pair, and reductions obey their algebraic identities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_tensor::conv::{col2im, im2col, ConvGeom};
use selsync_tensor::{init, matmul, ops, reduce, Tensor};

fn randt(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    init::randn(dims, 1.0, &mut rng)
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape().same(b.shape())
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * y.abs().max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_tn_agrees_with_transpose(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let a = randt(&[m, k], seed);
        let b = randt(&[m, n], seed + 1);
        let kernel = matmul::matmul_tn(&a, &b);
        let explicit = matmul::matmul(&matmul::transpose(&a), &b);
        prop_assert!(close(&kernel, &explicit, 1e-4));
    }

    #[test]
    fn matmul_nt_agrees_with_transpose(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let a = randt(&[m, n], seed);
        let b = randt(&[k, n], seed + 2);
        let kernel = matmul::matmul_nt(&a, &b);
        let explicit = matmul::matmul(&a, &matmul::transpose(&b));
        prop_assert!(close(&kernel, &explicit, 1e-4));
    }

    #[test]
    fn matmul_is_associative_enough(n in 1usize..6, seed in 0u64..500) {
        let a = randt(&[n, n], seed);
        let b = randt(&[n, n], seed + 3);
        let c = randt(&[n, n], seed + 4);
        let lhs = matmul::matmul(&matmul::matmul(&a, &b), &c);
        let rhs = matmul::matmul(&a, &matmul::matmul(&b, &c));
        prop_assert!(close(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn axpy_matches_scale_add(seed in 0u64..1000, alpha in -4.0f32..4.0, len in 1usize..50) {
        let x = randt(&[len], seed);
        let y = randt(&[len], seed + 5);
        let mut via_axpy = y.clone();
        ops::axpy(alpha, &x, &mut via_axpy);
        let via_ops = ops::add(&y, &ops::scale(&x, alpha));
        prop_assert!(close(&via_axpy, &via_ops, 1e-5));
    }

    #[test]
    fn conv_adjoint_identity(
        n in 1usize..3,
        c in 1usize..3,
        h in 3usize..7,
        w in 3usize..7,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..500,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let g = ConvGeom { in_ch: c, in_h: h, in_w: w, k_h: k, k_w: k, stride, pad };
        let x = randt(&[n, c, h, w], seed);
        // patch-major: one row per tap (c, ky, kx), one column per output pixel
        let cols = im2col(&x, &g);
        prop_assert_eq!(cols.shape().dims(), &[c * k * k, n * g.out_h() * g.out_w()]);
        let y = randt(cols.shape().dims(), seed + 6);
        // <im2col(x), y> == <x, col2im(y)>
        let lhs = ops::dot(&cols, &y);
        let rhs = ops::dot(&x, &col2im(&y, n, &g));
        prop_assert!((lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn sum_axis0_matches_total_sum(rows in 1usize..10, cols in 1usize..10, seed in 0u64..1000) {
        let t = randt(&[rows, cols], seed);
        let col_sums = reduce::sum_axis0(&t);
        prop_assert!((reduce::sum(&col_sums) - reduce::sum(&t)).abs() < 1e-3);
    }

    #[test]
    fn norm_triangle_inequality(len in 1usize..40, seed in 0u64..1000) {
        let a = randt(&[len], seed);
        let b = randt(&[len], seed + 7);
        let sum = ops::add(&a, &b);
        prop_assert!(reduce::norm(&sum) <= reduce::norm(&a) + reduce::norm(&b) + 1e-4);
    }

    #[test]
    fn argmax_rows_points_at_row_maximum(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let t = randt(&[rows, cols], seed);
        for (r, &am) in reduce::argmax_rows(&t).iter().enumerate() {
            let row = t.row(r);
            prop_assert!(row.iter().all(|&v| v <= row[am]));
        }
    }

    #[test]
    fn reshape_preserves_sum(rows in 1usize..12, cols in 1usize..12, seed in 0u64..1000) {
        let t = randt(&[rows, cols], seed);
        let s1 = reduce::sum(&t);
        let flat = t.reshape([rows * cols]);
        prop_assert_eq!(s1, reduce::sum(&flat));
    }
}
