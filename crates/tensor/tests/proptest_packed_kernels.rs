//! Property-based bit-equality of the packed/tiled GEMM kernels with the
//! exact reference kernels, over irregular shapes — degenerate 1×N
//! strips, sizes straddling the MR/NR/KC tile boundaries, and anything
//! in between — plus the determinism properties the distributed protocol
//! relies on: the serial and parallel code paths are bit-identical, and
//! so are the three operand paths (B streamed in place, B packed from a
//! transpose, A packed from a transpose) on the same product.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_tensor::matmul::{
    self, matmul_into_with, matmul_nt_into_with, matmul_tn_into_with, reference,
};
use selsync_tensor::{init, Par, Tensor};

fn randt(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    init::randn(dims, 1.0, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] with every NaN as `f32::NAN`: which payload survives where
/// NaNs of two payloads meet is the compiler's choice of operand order.
fn nan_blind_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice()
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_nn_matches_reference(m in 1usize..=97, k in 1usize..=97, n in 1usize..=97, seed in 0u64..1000) {
        let a = randt(&[m, k], seed);
        let b = randt(&[k, n], seed + 1);
        let packed = matmul::matmul(&a, &b);
        let naive = reference::matmul(&a, &b);
        prop_assert_eq!(bits(&packed), bits(&naive));
    }

    #[test]
    fn packed_tn_matches_reference(m in 1usize..=97, k in 1usize..=97, n in 1usize..=97, seed in 0u64..1000) {
        let a = randt(&[m, k], seed);
        let b = randt(&[m, n], seed + 2);
        let packed = matmul::matmul_tn(&a, &b);
        let naive = reference::matmul_tn(&a, &b);
        prop_assert_eq!(bits(&packed), bits(&naive));
    }

    #[test]
    fn packed_nt_matches_reference(m in 1usize..=97, k in 1usize..=97, n in 1usize..=97, seed in 0u64..1000) {
        let a = randt(&[m, n], seed);
        let b = randt(&[k, n], seed + 3);
        let packed = matmul::matmul_nt(&a, &b);
        let naive = reference::matmul_nt(&a, &b);
        prop_assert_eq!(bits(&packed), bits(&naive));
    }

    /// Serial and parallel paths must be BIT-identical, not just close:
    /// the distributed determinism guarantees (same-seed single-process
    /// vs multi-process runs) depend on matmul results never varying
    /// with the parallelism decision.
    #[test]
    fn serial_and_parallel_are_bit_identical(m in 1usize..=97, k in 1usize..=97, n in 1usize..=97, seed in 0u64..1000) {
        let a = randt(&[m, k], seed);
        let b_nn = randt(&[k, n], seed + 4);
        let mut serial = Tensor::zeros([m, n]);
        let mut par = Tensor::zeros([m, n]);
        matmul_into_with(&a, &b_nn, &mut serial, Par::Never);
        matmul_into_with(&a, &b_nn, &mut par, Par::Always);
        prop_assert_eq!(bits(&serial), bits(&par));

        let b_tn = randt(&[m, n], seed + 5);
        let mut serial = Tensor::zeros([k, n]);
        let mut par = Tensor::zeros([k, n]);
        matmul_tn_into_with(&a, &b_tn, &mut serial, Par::Never);
        matmul_tn_into_with(&a, &b_tn, &mut par, Par::Always);
        prop_assert_eq!(bits(&serial), bits(&par));

        let a_nt = randt(&[m, n], seed + 6);
        let b_nt = randt(&[k, n], seed + 7);
        let mut serial = Tensor::zeros([m, k]);
        let mut par = Tensor::zeros([m, k]);
        matmul_nt_into_with(&a_nt, &b_nt, &mut serial, Par::Never);
        matmul_nt_into_with(&a_nt, &b_nt, &mut par, Par::Always);
        prop_assert_eq!(bits(&serial), bits(&par));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shapes the in-place-B path meets in the conv lowering: a
    /// short `m` (fewer rows than one MR panel up to a few panels), `k`
    /// past the KC = 256 cut, `n` ragged against NR = 16 and past the
    /// NC = 512 block. An output element is one FMA chain over `p` with
    /// the same cuts whichever operand path feeds it, so NN (B in
    /// place), NT on the stored transpose of B (B packed) and TN on the
    /// stored transpose of A (A packed contiguously) must agree bit for
    /// bit, serial and parallel.
    ///
    /// Every fourth case forces `k % 8 != 0` and `n % 8 != 0`, so the NT
    /// pack's 8×8 register transpose runs beside both of its tails.
    #[test]
    fn operand_paths_and_parallelism_are_bit_identical(
        m in 1usize..=20,
        k_small in 1usize..=40,
        k_large in 250usize..=530,
        n_small in 1usize..=50,
        n_large in 500usize..=560,
        large in 0usize..4,
        ragged in 0usize..4,
        k_tail in 1usize..8,
        n_tail in 1usize..8,
        seed in 0u64..1000,
    ) {
        let k = if large & 1 == 0 { k_small } else { k_large };
        let n = if large & 2 == 0 { n_small } else { n_large };
        let (k, n) = if ragged == 0 {
            (k / 8 * 8 + k_tail, n / 8 * 8 + n_tail)
        } else {
            (k, n)
        };
        let a = randt(&[m, k], seed);
        let b = randt(&[k, n], seed + 8);
        let mut want = Tensor::zeros([m, n]);
        matmul_into_with(&a, &b, &mut want, Par::Never);
        prop_assert_eq!(bits(&want), bits(&reference::matmul(&a, &b)));

        let mut got = Tensor::zeros([m, n]);
        matmul_into_with(&a, &b, &mut got, Par::Always);
        prop_assert_eq!(bits(&want), bits(&got), "nn parallel");
        let (at, bt) = (matmul::transpose(&a), matmul::transpose(&b));
        for par in [Par::Never, Par::Always] {
            matmul_nt_into_with(&a, &bt, &mut got, par);
            prop_assert_eq!(bits(&want), bits(&got), "nt {:?}", par);
            matmul_tn_into_with(&at, &b, &mut got, par);
            prop_assert_eq!(bits(&want), bits(&got), "tn {:?}", par);
        }
    }
}

/// Deterministic sweep of the degenerate and tile-edge shapes the
/// random generator might miss (1×N strips, exact tile multiples, and
/// one-off-the-tile sizes for MR=6 / NR=16 / KC=256), plus the products
/// the models run: every case is an `[m, n]` output contracted over `k`,
/// computed as NN, TN and NT and each held to its reference kernel bit
/// for bit. Each shape runs twice: on normals, and on normals salted
/// with NaN, ±∞ and −0.0, where a skipped `0·NaN` or `0·∞` term would
/// show (NaNs compared by presence, not payload).
#[test]
fn tile_boundary_shapes_match_reference() {
    let mut cases = vec![
        (1, 1, 1),
        (1, 7, 33),
        (6, 16, 16),   // exactly one microtile
        (7, 17, 17),   // one past the microtile
        (12, 256, 32), // exactly one KC block
        (13, 257, 31), // one past the KC block
        (5, 3, 97),
        (97, 1, 1),
        (256, 256, 256),
        (128, 64, 128), // a transformer feed-forward GEMM
        (256, 72, 8),   // an im2col GEMM
        (12, 8, 12),    // TransformerMini attention, per head: Q·Kᵀ, dctx·Vᵀ
        (12, 12, 8),    // A·V, Aᵀ·dctx, dS·K, dSᵀ·Q
        // k % 8 != 0 and n % 8 != 0 beside whole 8×8 blocks: the NT
        // pack's register transpose and both of its tails
        (5, 23, 37),
        (9, 263, 45), // the second KC block is 7 deep
        (16, 17, 19),
        (3, 9, 15),
    ];
    // The conv layer's three products on a batch of 5: forward
    // W[oc, plen]·cols[plen, r], dW = dy[oc, r]·colsᵀ and
    // dcols = Wᵀ·dy[oc, r]; the 32→7 geometry's plen = 288 crosses KC.
    // (in_ch, out_ch, h, w, kernel, stride, pad)
    for (ic, oc, h, w, k, s, p) in [
        (8, 8, 8, 8, 3, 1, 1),
        (8, 16, 8, 8, 3, 2, 1),
        (3, 5, 7, 6, 5, 1, 2),
        (32, 7, 8, 8, 3, 1, 1),
    ] {
        let plen = ic * k * k;
        let r = 5 * ((h + 2 * p - k) / s + 1) * ((w + 2 * p - k) / s + 1);
        cases.extend([(oc, plen, r), (oc, r, plen), (plen, oc, r)]);
    }
    // Zeros among the terms, and a sparse few non-finite ones, so most
    // outputs stay finite and the rest are ±∞ or NaN.
    let salt = |t: &mut Tensor, seed: usize| {
        for (e, x) in t.as_mut_slice().iter_mut().enumerate() {
            match (e * 7 + seed) % 211 {
                0 => *x = f32::NAN,
                1 => *x = f32::INFINITY,
                2 => *x = f32::NEG_INFINITY,
                3..=30 => *x = -0.0,
                31..=50 => *x = 0.0,
                _ => {}
            }
        }
    };
    for (m, k, n) in cases {
        for salted in [false, true] {
            let mut a = randt(&[m, k], (m * 1000 + k * 10 + n) as u64);
            let mut b = randt(&[k, n], (m * 1000 + k * 10 + n) as u64 + 1);
            if salted {
                salt(&mut a, 0);
                salt(&mut b, 5);
            }
            let (at, bt) = (matmul::transpose(&a), matmul::transpose(&b));
            for (form, packed, naive) in [
                ("nn", matmul::matmul(&a, &b), reference::matmul(&a, &b)),
                (
                    "tn",
                    matmul::matmul_tn(&at, &b),
                    reference::matmul_tn(&at, &b),
                ),
                (
                    "nt",
                    matmul::matmul_nt(&a, &bt),
                    reference::matmul_nt(&a, &bt),
                ),
            ] {
                assert_eq!(
                    nan_blind_bits(&packed),
                    nan_blind_bits(&naive),
                    "{form} packed vs reference at {m}x{k}x{n}, salted: {salted}"
                );
            }
        }
    }
}
