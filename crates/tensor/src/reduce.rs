//! Reductions: sums, means, norms, extrema, and axis reductions.

use crate::tensor::Tensor;

/// Sum of all elements.
pub fn sum(t: &Tensor) -> f32 {
    t.as_slice().iter().sum()
}

/// Arithmetic mean of all elements (0 for an empty tensor).
pub fn mean(t: &Tensor) -> f32 {
    if t.numel() == 0 {
        0.0
    } else {
        sum(t) / t.numel() as f32
    }
}

/// Squared L2 norm `‖t‖²` — the quantity Eqn. (2) of the paper tracks.
pub fn sqnorm(t: &Tensor) -> f32 {
    sqnorm_slice(t.as_slice())
}

/// Squared L2 norm of a raw slice.
#[inline]
pub fn sqnorm_slice(x: &[f32]) -> f32 {
    crate::ops::dot_slice(x, x)
}

/// L2 norm.
pub fn norm(t: &Tensor) -> f32 {
    sqnorm(t).sqrt()
}

/// Population variance of the elements.
pub fn variance(t: &Tensor) -> f32 {
    let n = t.numel();
    if n == 0 {
        return 0.0;
    }
    let m = mean(t);
    t.as_slice().iter().map(|x| (x - m) * (x - m)).sum::<f32>() / n as f32
}

/// Maximum element (`-inf` for an empty tensor).
pub fn max(t: &Tensor) -> f32 {
    t.as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Minimum element (`+inf` for an empty tensor).
pub fn min(t: &Tensor) -> f32 {
    t.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
}

/// Index of the maximum element of a flat slice (first on ties).
pub fn argmax_slice(x: &[f32]) -> usize {
    let mut best = 0;
    let mut bestv = f32::NEG_INFINITY;
    for (i, &v) in x.iter().enumerate() {
        if v > bestv {
            bestv = v;
            best = i;
        }
    }
    best
}

/// Per-row argmax of a rank-2 tensor — predicted class per sample.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    assert_eq!(t.shape().ndim(), 2, "argmax_rows needs rank-2 input");
    let rows = t.shape().dim(0);
    (0..rows).map(|r| argmax_slice(t.row(r))).collect()
}

/// Indices of the top-`k` rows by value per row; used by top-5 accuracy.
pub fn topk_rows(t: &Tensor, k: usize) -> Vec<Vec<usize>> {
    assert_eq!(t.shape().ndim(), 2, "topk_rows needs rank-2 input");
    let rows = t.shape().dim(0);
    (0..rows)
        .map(|r| {
            let row = t.row(r);
            let mut idx: Vec<usize> = (0..row.len()).collect();
            idx.sort_by(|&a, &b| {
                row[b]
                    .partial_cmp(&row[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            idx.truncate(k);
            idx
        })
        .collect()
}

/// Column sums of a rank-2 tensor `[rows, cols]` → length-`cols` tensor.
/// This is the bias-gradient reduction.
pub fn sum_axis0(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().ndim(), 2, "sum_axis0 needs rank-2 input");
    let cols = t.shape().dim(1);
    let mut out = Tensor::zeros([cols]);
    let o = out.as_mut_slice();
    for row in t.as_slice().chunks_exact(cols) {
        for (ov, rv) in o.iter_mut().zip(row) {
            *ov += rv;
        }
    }
    out
}

/// Column sums of a rank-2 tensor accumulated into an existing
/// length-`cols` slice (the allocation-free bias-gradient path:
/// `acc[j] += Σ_i t[i, j]`).
pub fn sum_axis0_acc(t: &Tensor, acc: &mut [f32]) {
    assert_eq!(t.shape().ndim(), 2, "sum_axis0_acc needs rank-2 input");
    let cols = t.shape().dim(1);
    assert_eq!(acc.len(), cols, "sum_axis0_acc accumulator length mismatch");
    for row in t.as_slice().chunks_exact(cols) {
        for (ov, rv) in acc.iter_mut().zip(row) {
            *ov += rv;
        }
    }
}

/// Row sums of a tensor read as `[rows, cols]` (`rows` its first dim,
/// `cols` the product of the rest) accumulated into an existing
/// length-`rows` slice: `acc[i] += Σ_j t[i, j]`, every row summed
/// sequentially in ascending `j` onto its accumulator (the
/// bias-gradient reduction of a channel-major gradient `[c, n, h, w]`,
/// one row per channel). Rows are taken
/// eight at a time so eight independent add chains are in flight
/// instead of one, their sums held in a local array between the load
/// from `acc` and the store back.
pub fn sum_axis1_acc(t: &Tensor, acc: &mut [f32]) {
    const LANES: usize = 8;
    let dims = t.shape().dims();
    assert!(dims.len() >= 2, "sum_axis1_acc needs rank-2 or more input");
    let (rows, cols) = (dims[0], dims[1..].iter().product::<usize>());
    assert_eq!(acc.len(), rows, "sum_axis1_acc accumulator length mismatch");
    if cols == 0 {
        return;
    }
    for (block, accs) in t.as_slice().chunks(LANES * cols).zip(acc.chunks_mut(LANES)) {
        let mut sums = [0.0f32; LANES];
        let n = accs.len();
        sums[..n].copy_from_slice(accs);
        if n == LANES {
            for j in 0..cols {
                for (i, s) in sums.iter_mut().enumerate() {
                    *s += block[i * cols + j];
                }
            }
        } else {
            for j in 0..cols {
                for (i, s) in sums[..n].iter_mut().enumerate() {
                    *s += block[i * cols + j];
                }
            }
        }
        accs.copy_from_slice(&sums[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()])
    }

    #[test]
    fn sums_and_means() {
        let x = t(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum(&x), 10.0);
        assert_eq!(mean(&x), 2.5);
    }

    #[test]
    fn norms() {
        let x = t(&[3.0, 4.0]);
        assert_eq!(sqnorm(&x), 25.0);
        assert_eq!(norm(&x), 5.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&Tensor::full([5], 3.0)), 0.0);
    }

    #[test]
    fn variance_known_value() {
        // var([1, 3]) = 1 (population)
        assert!((variance(&t(&[1.0, 3.0])) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn extrema() {
        let x = t(&[-1.0, 7.0, 3.0]);
        assert_eq!(max(&x), 7.0);
        assert_eq!(min(&x), -1.0);
    }

    #[test]
    fn argmax_per_row() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.8, 0.1, 0.1], [2, 3]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn topk_contains_argmax_first() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.3], [1, 4]);
        let tk = topk_rows(&x, 3);
        assert_eq!(tk[0], vec![1, 2, 3]);
    }

    #[test]
    fn axis0_sum() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], [2, 2]);
        assert_eq!(sum_axis0(&x).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn axis1_sum_accumulates_each_row_in_order() {
        // 11 rows straddles the 8-row blocking; the per-row result must
        // be the plain sequential sum, bit for bit.
        let (rows, cols) = (11, 37);
        let x = Tensor::from_vec(
            (0..rows * cols)
                .map(|i| (i as f32 * 0.37).sin() * 1e3)
                .collect(),
            [rows, cols],
        );
        let mut acc: Vec<f32> = (0..rows).map(|i| i as f32 * 0.5).collect();
        let want: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(i, &a)| x.row(i).iter().fold(a, |s, v| s + v))
            .collect();
        sum_axis1_acc(&x, &mut acc);
        assert_eq!(acc, want);
    }

    #[test]
    fn axis1_sum_matches_per_row_loop_bit_for_bit_under_cancellation() {
        // terms of ±1e7 that cancel around small ones, so any change of
        // order or of the starting value shows in the low bits; rows
        // straddle the 8-row blocks, and the accumulators start at
        // -0.0, +0.0 and values that cancel the row
        for (rows, cols) in [(13, 64), (8, 512), (3, 5), (17, 1)] {
            let x = Tensor::from_vec(
                (0..rows * cols)
                    .map(|i| match i % 4 {
                        0 => 1e7 + (i as f32 * 0.61).sin(),
                        1 => -1e7,
                        2 => (i as f32 * 0.23).cos() * 1e-3,
                        _ => -0.0,
                    })
                    .collect(),
                [rows, cols],
            );
            let start: Vec<f32> = (0..rows)
                .map(|i| [-0.0, 0.0, -3.5e6, 1.25][i % 4])
                .collect();
            let want: Vec<u32> = start
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let mut s = a;
                    for v in x.row(i) {
                        s += v;
                    }
                    s.to_bits()
                })
                .collect();
            let mut acc = start.clone();
            sum_axis1_acc(&x, &mut acc);
            let got: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{rows} x {cols}");
        }
    }

    #[test]
    fn axis0_sum_accumulates() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], [2, 2]);
        let mut acc = [100.0, 200.0];
        sum_axis0_acc(&x, &mut acc);
        assert_eq!(acc, [111.0, 222.0]);
    }
}
