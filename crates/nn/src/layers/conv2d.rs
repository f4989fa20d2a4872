//! 2-D convolution via the patch-major im2col lowering, over
//! channel-major activations `[c, n, h, w]`.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use selsync_tensor::conv::{col2im_into, im2col_into, ConvGeom};
use selsync_tensor::{init, matmul, ops, reduce, Tensor};

/// A 2-D convolution layer over channel-major activations
/// `[in_ch, n, h, w]`.
///
/// Weights are stored flattened `[out_ch, in_ch*k_h*k_w]` so the forward
/// pass is a single `W · cols` product over the patch-major im2col
/// expansion `[in_ch*k_h*k_w, n*out_h*out_w]`. The product is the
/// channel-major output `[out_ch, n, out_h, out_w]` as it stands, and the
/// gradient coming back is the `dW` and `dcols` products' operand as it
/// stands: no layout copy on either side.
#[derive(Clone)]
pub struct Conv2d {
    /// Flattened kernel `[out_ch, in_ch*k_h*k_w]`.
    pub w: Param,
    /// Per-output-channel bias `[out_ch]`.
    pub b: Param,
    geom: ConvGeom,
    out_ch: usize,
    cache_cols: Tensor,
    cache_n: usize,
}

impl Conv2d {
    /// Kaiming-initialized convolution over the given input geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        let geom = ConvGeom {
            in_ch,
            in_h,
            in_w,
            k_h: kernel,
            k_w: kernel,
            stride,
            pad,
        };
        let fan_in = geom.patch_len();
        Conv2d {
            w: Param::new(
                format!("{name}.weight"),
                init::kaiming_normal([out_ch, fan_in], fan_in, rng),
            ),
            b: Param::new_no_decay(format!("{name}.bias"), Tensor::zeros([out_ch])),
            geom,
            out_ch,
            cache_cols: Tensor::zeros([0]),
            cache_n: 0,
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.geom.out_h()
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.geom.out_w()
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }
}

impl ParamVisitor for Conv2d {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let n = x.shape().dim(1);
        let (oc, oh, ow) = (self.out_ch, self.out_h(), self.out_w());
        self.cache_n = n;
        self.cache_cols
            .ensure_shape([self.geom.patch_len(), n * oh * ow]);
        im2col_into(x, &self.geom, &mut self.cache_cols);
        let mut y = ws.take([oc, n * oh * ow]);
        matmul::matmul_into(&self.w.value, &self.cache_cols, &mut y);
        let channels = y.as_mut_slice().chunks_exact_mut((n * oh * ow).max(1));
        for (channel, &bias) in channels.zip(self.b.value.as_slice()) {
            for v in channel {
                *v += bias;
            }
        }
        y.reshape([oc, n, oh, ow])
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        self.param_grads(dy, ws);
        // dcols = Wᵀ · dy, then scatter back to the input maps
        let mut dcols = ws.take(self.cache_cols.shape().clone());
        matmul::matmul_tn_into(&self.w.value, dy, &mut dcols);
        let n = self.cache_n;
        let mut dx = ws.take([self.geom.in_ch, n, self.geom.in_h, self.geom.in_w]);
        col2im_into(&dcols, n, &self.geom, &mut dx);
        ws.give(dcols);
        dx
    }

    fn backward_params(&mut self, dy: &Tensor, ws: &mut Workspace) {
        self.param_grads(dy, ws);
    }
}

impl Conv2d {
    /// Accumulate `db` and `dW` from `dy`, read as the matrix
    /// `[oc, n·plane]` it is.
    fn param_grads(&mut self, dy: &Tensor, ws: &mut Workspace) {
        assert_eq!(
            dy.shape().dims(),
            &[self.out_ch, self.cache_n, self.out_h(), self.out_w()],
            "Conv2d::backward gradient shape mismatch"
        );
        // db[c] += Σ_r dy[c, r], each channel summed in ascending r
        reduce::sum_axis1_acc(dy, self.b.grad.as_mut_slice());
        // dW += dy · colsᵀ    ([oc, r]·[r, plen])
        let mut dw = ws.take(self.w.value.shape().clone());
        matmul::matmul_nt_into(dy, &self.cache_cols, &mut dw);
        ops::add_assign(&mut self.w.grad, &dw);
        ws.give(dw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::swap_outer;
    use rand::SeedableRng;

    /// The row-major lowering this layer used before the patch-major
    /// one, kept verbatim as the bit-identity oracle: one im2col row per
    /// output pixel, `cols · Wᵀ` / `dyᵀ · cols` / `dy · W`, and a scatter
    /// transpose on either side of each GEMM.
    mod oracle {
        use super::*;

        fn im2col_image(img: &[f32], rows: &mut [f32], g: &ConvGeom) {
            let (c, h, w) = (g.in_ch, g.in_h, g.in_w);
            let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
            let mut row = 0usize;
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_row = &mut rows[row * plen..(row + 1) * plen];
                    let mut col = 0usize;
                    for ch in 0..c {
                        let plane = &img[ch * h * w..(ch + 1) * h * w];
                        for ky in 0..g.k_h {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            for kx in 0..g.k_w {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                out_row[col] =
                                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w
                                    {
                                        plane[iy as usize * w + ix as usize]
                                    } else {
                                        0.0
                                    };
                                col += 1;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }

        fn col2im_image(rows: &[f32], img: &mut [f32], g: &ConvGeom) {
            let (h, w) = (g.in_h, g.in_w);
            let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
            img.fill(0.0);
            let mut row = 0usize;
            for oy in 0..oh {
                for ox in 0..ow {
                    let in_row = &rows[row * plen..(row + 1) * plen];
                    let mut col = 0usize;
                    for ch in 0..g.in_ch {
                        let plane_off = ch * h * w;
                        for ky in 0..g.k_h {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            for kx in 0..g.k_w {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                    img[plane_off + iy as usize * w + ix as usize] += in_row[col];
                                }
                                col += 1;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }

        fn im2col(x: &Tensor, g: &ConvGeom) -> Tensor {
            let n = x.shape().dim(0);
            let rows_len = g.out_h() * g.out_w() * g.patch_len();
            let img_len = g.in_ch * g.in_h * g.in_w;
            let mut cols = Tensor::zeros([n * g.out_h() * g.out_w(), g.patch_len()]);
            for (b, rows) in cols
                .as_mut_slice()
                .chunks_exact_mut(rows_len.max(1))
                .enumerate()
            {
                im2col_image(&x.as_slice()[b * img_len..(b + 1) * img_len], rows, g);
            }
            cols
        }

        fn col2im(cols: &Tensor, n: usize, g: &ConvGeom) -> Tensor {
            let rows_len = g.out_h() * g.out_w() * g.patch_len();
            let img_len = g.in_ch * g.in_h * g.in_w;
            let mut out = Tensor::zeros([n, g.in_ch, g.in_h, g.in_w]);
            for (b, img) in out.as_mut_slice().chunks_exact_mut(img_len).enumerate() {
                col2im_image(&cols.as_slice()[b * rows_len..(b + 1) * rows_len], img, g);
            }
            out
        }

        fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Tensor {
            let mut out = Tensor::zeros([n, oc, oh, ow]);
            let (src, dst) = (rows.as_slice(), out.as_mut_slice());
            for b in 0..n {
                for p in 0..oh * ow {
                    let row = &src[(b * oh * ow + p) * oc..(b * oh * ow + p + 1) * oc];
                    for (c, &v) in row.iter().enumerate() {
                        dst[((b * oc) + c) * oh * ow + p] = v;
                    }
                }
            }
            out
        }

        fn nchw_to_rows(x: &Tensor) -> Tensor {
            let dims = x.shape().dims();
            let (n, oc, oh, ow) = (dims[0], dims[1], dims[2], dims[3]);
            let mut out = Tensor::zeros([n * oh * ow, oc]);
            let (src, dst) = (x.as_slice(), out.as_mut_slice());
            for b in 0..n {
                for c in 0..oc {
                    let plane = &src[((b * oc) + c) * oh * ow..((b * oc) + c + 1) * oh * ow];
                    for (p, &v) in plane.iter().enumerate() {
                        dst[(b * oh * ow + p) * oc + c] = v;
                    }
                }
            }
            out
        }

        /// The row-major forward: returns `y`.
        pub fn forward(c: &Conv2d, x: &Tensor) -> Tensor {
            let n = x.shape().dim(0);
            let cols = im2col(x, &c.geom);
            let mut rows = Tensor::zeros([n * c.out_h() * c.out_w(), c.out_ch]);
            matmul::matmul_nt_into(&cols, &c.w.value, &mut rows);
            ops::add_row_bias(&mut rows, &c.b.value);
            rows_to_nchw(&rows, n, c.out_ch, c.out_h(), c.out_w())
        }

        /// The row-major backward on zeroed gradients: returns `(dW, db, dx)`.
        pub fn backward(c: &Conv2d, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
            let n = x.shape().dim(0);
            let cols = im2col(x, &c.geom);
            let dy_rows = nchw_to_rows(dy);
            let mut dw = Tensor::zeros(c.w.value.shape().clone());
            matmul::matmul_tn_into(&dy_rows, &cols, &mut dw);
            let mut w_grad = Tensor::zeros(c.w.value.shape().clone());
            ops::add_assign(&mut w_grad, &dw);
            let mut db = Tensor::zeros([c.out_ch]);
            reduce::sum_axis0_acc(&dy_rows, db.as_mut_slice());
            let mut dcols = Tensor::zeros(cols.shape().clone());
            matmul::matmul_into(&dy_rows, &c.w.value, &mut dcols);
            (w_grad, db, col2im(&dcols, n, &c.geom))
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `(in_ch, out_ch, in_h, in_w, kernel, stride, pad)`
    type Geometry = (usize, usize, usize, usize, usize, usize, usize);

    /// Forward + backward on the layer against the oracle, bit for bit:
    /// the oracle takes `x` and `dy` NCHW, the layer channel-major, and
    /// the layer's `y` and `dx` are compared after converting back.
    fn assert_matches_oracle(batch: usize, geometry: Geometry) {
        assert_matches_oracle_with(batch, geometry, false);
    }

    /// [`assert_matches_oracle`]; with `poison` set, `x` and `dy` each
    /// carry a `NaN` in the first column of a row and an `∞` in the last
    /// column of another, the elements a flat shift's wrapped fringe
    /// reads.
    fn assert_matches_oracle_with(batch: usize, (ic, oc, h, w, k, s, p): Geometry, poison: bool) {
        let label = format!("n{batch} {ic}->{oc} {h}x{w} k{k} s{s} p{p} poison {poison}");
        let mut rng = StdRng::seed_from_u64((batch * 131 + ic * 17 + oc + h * 7 + k) as u64);
        let mut c = Conv2d::new("c", ic, oc, h, w, k, s, p, &mut rng);
        c.b.value = init::randn([oc], 1.0, &mut rng);
        let mut x = init::randn([batch, ic, h, w], 1.0, &mut rng);
        let mut dy = init::randn([batch, oc, c.out_h(), c.out_w()], 1.0, &mut rng);
        if poison {
            for (t, row) in [(&mut x, w), (&mut dy, c.out_w())] {
                let v = t.as_mut_slice();
                let len = v.len();
                v[row.min(len - 1)] = f32::NAN;
                v[len.saturating_sub(row + 1)] = f32::INFINITY;
            }
        }
        let want_y = oracle::forward(&c, &x);
        let (want_dw, want_db, want_dx) = oracle::backward(&c, &x, &dy);

        let mut ws = Workspace::new();
        let y = swap_outer(&c.forward(&swap_outer(&x), true, &mut ws));
        c.zero_grad();
        let dx = swap_outer(&c.backward(&swap_outer(&dy), &mut ws));
        assert_eq!(bits(&y), bits(&want_y), "y {label}");
        assert_eq!(bits(&c.w.grad), bits(&want_dw), "dW {label}");
        assert_eq!(bits(&c.b.grad), bits(&want_db), "db {label}");
        assert_eq!(bits(&dx), bits(&want_dx), "dx {label}");
    }

    /// Every conv geometry the three conv minis build.
    const MINI_GEOMETRIES: [Geometry; 9] = [
        // ResNetMini
        (3, 8, 8, 8, 3, 1, 1),
        (8, 8, 8, 8, 3, 1, 1),
        (8, 16, 8, 8, 3, 2, 1),
        (16, 16, 4, 4, 3, 1, 1),
        (8, 16, 8, 8, 1, 2, 0),
        // VggMini
        (3, 16, 8, 8, 3, 1, 1),
        (16, 32, 4, 4, 3, 1, 1),
        // AlexNetMini
        (3, 12, 8, 8, 3, 1, 1),
        (12, 24, 4, 4, 3, 1, 1),
    ];

    #[test]
    fn mini_geometries_match_the_row_major_oracle_bitwise() {
        for batch in [1, 3, 8, 128] {
            for g in MINI_GEOMETRIES {
                assert_matches_oracle(batch, g);
            }
        }
        for g in MINI_GEOMETRIES {
            assert_matches_oracle_with(3, g, true);
        }
    }

    #[test]
    fn geometry_sweep_matches_the_row_major_oracle_bitwise() {
        // stride x pad x kernel on a non-square input; batch 3 makes
        // n·oh·ow a non-multiple of the 16-wide GEMM panel throughout
        for k in [1, 3, 5] {
            for s in [1, 2] {
                for p in [0, 1, 2] {
                    assert_matches_oracle(3, (2, 5, 7, 6, k, s, p));
                }
            }
        }
        // plen = 32·3·3 = 288 crosses a KC = 256 cut in forward and dW's
        // k = n·oh·ow = 5·64 = 320 crosses one too
        assert_matches_oracle(5, (32, 7, 8, 8, 3, 1, 1));
        // fewer output channels than one MR panel, and exactly one
        assert_matches_oracle(2, (4, 1, 6, 5, 3, 1, 1));
        assert_matches_oracle(2, (4, 6, 6, 5, 3, 2, 1));
    }

    #[test]
    fn identity_1x1_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 1, 1, 3, 3, 1, 1, 0, &mut rng);
        c.w.value = Tensor::ones([1, 1]);
        c.b.value = Tensor::zeros([1]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), [1, 1, 3, 3]);
        let y = c.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn averaging_kernel_known_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 1, 1, 2, 2, 2, 1, 0, &mut rng);
        c.w.value = Tensor::full([1, 4], 0.25);
        c.b.value = Tensor::zeros([1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let y = c.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert!((y.as_slice()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn shapes_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new("c", 3, 8, 8, 8, 3, 2, 1, &mut rng);
        let y = c.forward(&Tensor::zeros([3, 2, 8, 8]), true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[8, 2, 4, 4]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new("c", 2, 3, 4, 4, 3, 1, 1, &mut rng);
        let x = init::randn([2, 1, 4, 4], 1.0, &mut rng);
        let objective = |c: &mut Conv2d, x: &Tensor| -> f32 {
            c.forward(x, true, &mut Workspace::new())
                .as_slice()
                .iter()
                .sum()
        };
        let base = objective(&mut c, &x);
        c.zero_grad();
        let dy = Tensor::ones([3, 1, 4, 4]);
        let dx = c.backward(&dy, &mut Workspace::new());

        let eps = 1e-2;
        for &wi in &[0usize, 5, 17] {
            let mut c2 = c.clone();
            c2.w.value.as_mut_slice()[wi] += eps;
            let fd = (objective(&mut c2, &x) - base) / eps;
            let an = c.w.grad.as_slice()[wi];
            assert!(
                (an - fd).abs() < 0.05 * fd.abs().max(1.0),
                "w[{wi}]: {an} vs {fd}"
            );
        }
        for &xi in &[0usize, 9, 30] {
            let mut xp = x.clone();
            xp.as_mut_slice()[xi] += eps;
            let fd = (objective(&mut c, &xp) - base) / eps;
            let an = dx.as_slice()[xi];
            assert!(
                (an - fd).abs() < 0.05 * fd.abs().max(1.0),
                "x[{xi}]: {an} vs {fd}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_output_pixels() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new("c", 1, 2, 4, 4, 3, 1, 1, &mut rng);
        let _ = c.forward(&Tensor::zeros([1, 2, 4, 4]), true, &mut Workspace::new());
        c.zero_grad();
        let _ = c.backward(&Tensor::ones([2, 2, 4, 4]), &mut Workspace::new());
        // each bias sees n*oh*ow = 2*16 = 32 gradient contributions of 1
        assert_eq!(c.b.grad.as_slice(), &[32.0, 32.0]);
    }
}
