//! im2col / col2im lowering for 2-D convolution.
//!
//! Convolutions in `selsync-nn` are computed as matrix products over the
//! im2col expansion, the same lowering the reference frameworks use on
//! CPU. The column matrix is *patch-major*: one row per receptive-field
//! element `(c, ky, kx)` and one column per output pixel `(n, oy, ox)`,
//! so every row is a sequence of `out_w`-long runs that are contiguous
//! in the input too (stride 1) and the long `n·out_h·out_w` axis is the
//! one the GEMM microkernel vectorizes over.
//!
//! Both directions have `*_into` variants writing into caller-provided
//! buffers (the workspace path allocates nothing in steady state).
//! Neither fans out over threads: no shape the minis run is large
//! enough to amortize a parallel region (DESIGN.md §7).

use crate::tensor::Tensor;

/// Geometry of a conv / pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_ch: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after the sweep.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width after the sweep.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Number of rows in the im2col matrix (receptive-field size).
    pub fn patch_len(&self) -> usize {
        self.in_ch * self.k_h * self.k_w
    }

    /// Output coordinates `[lo, hi)` along one axis (input length `len`,
    /// `out` outputs) whose tap offset `k` reads inside the input; the
    /// rest read zero padding. For `o` in range the tap reads input
    /// coordinate `o * stride + k - pad`.
    fn valid_out(&self, k: usize, len: usize, out: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(k).div_ceil(self.stride).min(out);
        let hi = match (len + self.pad).checked_sub(k + 1) {
            Some(last) => (last / self.stride + 1).min(out),
            None => 0,
        };
        (lo.min(hi), hi)
    }

    /// Split a patch-row index into its `(channel, ky, kx)` tap.
    fn tap(&self, row: usize) -> (usize, usize, usize) {
        (
            row / (self.k_h * self.k_w),
            row / self.k_w % self.k_h,
            row % self.k_w,
        )
    }
}

/// Expand input `[n, c, h, w]` into columns `[c*k_h*k_w, n*out_h*out_w]`.
pub fn im2col(input: &Tensor, g: &ConvGeom) -> Tensor {
    let n = input.shape().dim(0);
    let mut cols = Tensor::zeros([g.patch_len(), n * g.out_h() * g.out_w()]);
    im2col_into(input, g, &mut cols);
    cols
}

/// [`im2col`] writing into a preallocated `[c*k_h*k_w, n*out_h*out_w]`
/// output (contents overwritten).
pub fn im2col_into(input: &Tensor, g: &ConvGeom, cols: &mut Tensor) {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 4, "im2col expects [n,c,h,w]");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, g.in_ch, "channel mismatch");
    assert_eq!(h, g.in_h, "height mismatch");
    assert_eq!(w, g.in_w, "width mismatch");
    let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
    let total = n * oh * ow;
    assert_eq!(
        cols.shape().dims(),
        &[plen, total],
        "im2col output shape mismatch"
    );
    if total == 0 {
        return;
    }
    let src = input.as_slice();
    // One patch row per tap (ch, ky, kx), in the weight's column order.
    for (tap, row) in cols.as_mut_slice().chunks_exact_mut(total).enumerate() {
        let (ch, ky, kx) = g.tap(tap);
        let (y_lo, y_hi) = g.valid_out(ky, h, oh);
        let (x_lo, x_hi) = g.valid_out(kx, w, ow);
        if y_lo == y_hi || x_lo == x_hi {
            row.fill(0.0);
            continue;
        }
        // input element read by the first valid output pixel
        let first = (y_lo * g.stride + ky - g.pad) * w + x_lo * g.stride + kx - g.pad;
        for (b, out_plane) in row.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &src[(b * c + ch) * h * w..][..h * w];
            out_plane[..y_lo * ow].fill(0.0);
            out_plane[y_hi * ow..].fill(0.0);
            let valid = &mut out_plane[y_lo * ow..y_hi * ow];
            if g.stride == 1 && ow == w {
                // Output and input planes have the same pitch, so the tap
                // is one constant shift: copy the whole valid span at
                // once, then zero the padded columns it dragged along.
                let span = valid.len() - x_lo - (ow - x_hi);
                valid[x_lo..x_lo + span].copy_from_slice(&plane[first..first + span]);
                if x_lo > 0 || x_hi < ow {
                    for out in valid.chunks_exact_mut(ow) {
                        out[..x_lo].fill(0.0);
                        out[x_hi..].fill(0.0);
                    }
                }
                continue;
            }
            for (out, in_row) in valid
                .chunks_exact_mut(ow)
                .zip(plane[first..].chunks(g.stride * w))
            {
                out[..x_lo].fill(0.0);
                out[x_hi..].fill(0.0);
                for (i, o) in out[x_lo..x_hi].iter_mut().enumerate() {
                    *o = in_row[i * g.stride];
                }
            }
        }
    }
}

/// Scatter column gradients `[c*k_h*k_w, n*out_h*out_w]` back onto the
/// input gradient `[n, c, h, w]` (the adjoint of [`im2col`]).
pub fn col2im(cols: &Tensor, n: usize, g: &ConvGeom) -> Tensor {
    let mut out = Tensor::zeros([n, g.in_ch, g.in_h, g.in_w]);
    col2im_into(cols, n, g, &mut out);
    out
}

/// [`col2im`] writing into a preallocated `[n, c, h, w]` output
/// (contents overwritten, not accumulated into).
///
/// Every input element sums its contributions in ascending `(oy, ox)`
/// order starting from `+0.0`: for a fixed element a larger tap offset
/// means a smaller output coordinate, so the tap planes are walked in
/// *descending* `(ky, kx)`.
pub fn col2im_into(cols: &Tensor, n: usize, g: &ConvGeom, out: &mut Tensor) {
    let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
    let total = n * oh * ow;
    assert_eq!(
        cols.shape().dims(),
        &[plen, total],
        "col2im input shape mismatch"
    );
    let (c, h, w) = (g.in_ch, g.in_h, g.in_w);
    assert_eq!(
        out.shape().dims(),
        &[n, c, h, w],
        "col2im output shape mismatch"
    );
    let dst = out.as_mut_slice();
    dst.fill(0.0);
    if total == 0 {
        return;
    }
    for (tap, row) in cols.as_slice().chunks_exact(total).enumerate().rev() {
        let (ch, ky, kx) = g.tap(tap);
        let (y_lo, y_hi) = g.valid_out(ky, h, oh);
        let (x_lo, x_hi) = g.valid_out(kx, w, ow);
        if y_lo == y_hi || x_lo == x_hi {
            continue;
        }
        // input element fed by the first valid output pixel
        let first = (y_lo * g.stride + ky - g.pad) * w + x_lo * g.stride + kx - g.pad;
        for (b, in_plane) in row.chunks_exact(oh * ow).enumerate() {
            let plane = &mut dst[(b * c + ch) * h * w..][..h * w];
            for (src, run) in in_plane[y_lo * ow..y_hi * ow]
                .chunks_exact(ow)
                .zip(plane[first..].chunks_mut(g.stride * w))
            {
                let src = &src[x_lo..x_hi];
                if g.stride == 1 {
                    for (d, v) in run.iter_mut().zip(src) {
                        *d += v;
                    }
                } else {
                    for (i, v) in src.iter().enumerate() {
                        run[i * g.stride] += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> ConvGeom {
        ConvGeom {
            in_ch: c,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
            stride,
            pad,
        }
    }

    fn wavy(dims: &[usize], freq: f32) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_vec((0..len).map(|i| (i as f32 * freq).sin()).collect(), dims)
    }

    /// Input coordinate a tap reads for an output coordinate, if inside.
    fn tap_src(o: usize, k: usize, g: &ConvGeom, len: usize) -> Option<usize> {
        (o * g.stride + k).checked_sub(g.pad).filter(|&i| i < len)
    }

    /// The layout by definition: `cols[(ch,ky,kx), (b,oy,ox)]` is the
    /// input element the tap reads, or zero in the padding.
    fn im2col_spec(x: &Tensor, g: &ConvGeom) -> Tensor {
        let n = x.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut cols = Tensor::zeros([g.patch_len(), n * oh * ow]);
        for ch in 0..g.in_ch {
            for ky in 0..g.k_h {
                for kx in 0..g.k_w {
                    let tap = (ch * g.k_h + ky) * g.k_w + kx;
                    for b in 0..n {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let (Some(iy), Some(ix)) =
                                    (tap_src(oy, ky, g, g.in_h), tap_src(ox, kx, g, g.in_w))
                                else {
                                    continue;
                                };
                                *cols.at_mut(&[tap, (b * oh + oy) * ow + ox]) =
                                    x.at(&[b, ch, iy, ix]);
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// The accumulate-order contract by definition: every input element
    /// starts at `+0.0` and adds the gradients of the output pixels that
    /// read it in ascending `(oy, ox)`.
    fn col2im_spec(cols: &Tensor, n: usize, g: &ConvGeom) -> Tensor {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros([n, g.in_ch, g.in_h, g.in_w]);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ch in 0..g.in_ch {
                        for ky in 0..g.k_h {
                            for kx in 0..g.k_w {
                                let (Some(iy), Some(ix)) =
                                    (tap_src(oy, ky, g, g.in_h), tap_src(ox, kx, g, g.in_w))
                                else {
                                    continue;
                                };
                                let tap = (ch * g.k_h + ky) * g.k_w + kx;
                                *out.at_mut(&[b, ch, iy, ix]) +=
                                    cols.at(&[tap, (b * oh + oy) * ow + ox]);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn output_geometry() {
        let g = geom(3, 8, 8, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (8, 8), "same-padding conv");
        let g2 = geom(3, 8, 8, 2, 2, 0);
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4), "stride-2 downsample");
    }

    #[test]
    fn im2col_identity_kernel() {
        // With a 1x1 kernel, stride 1, no padding, im2col is a pure
        // layout change: row c holds channel c of every pixel (b, y, x).
        let g = geom(2, 2, 2, 1, 1, 0);
        let input = Tensor::from_vec((0..8).map(|i| i as f32).collect(), [1, 2, 2, 2]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(cols.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_zero_pads_border() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let input = Tensor::ones([1, 1, 2, 2]);
        let cols = im2col(&input, &g);
        // top-left output pixel: only the bottom-right 2x2 of the kernel
        // overlaps the image → exactly 4 ones down its column.
        let first: f32 = (0..9).map(|tap| cols.at(&[tap, 0])).sum();
        assert_eq!(first, 4.0);
    }

    /// Every geometry family the lowering branches on: the flat-shift
    /// fast path (stride 1, same width), stride-1 with a narrower
    /// output, strided gathers, `h != w`, pads wider than the kernel
    /// reach, and kernels wider than the input.
    fn sweep() -> Vec<(usize, ConvGeom)> {
        let mut out = Vec::new();
        for n in [1, 3] {
            for (h, w) in [(8, 8), (4, 4), (5, 7), (1, 1), (2, 6)] {
                for k in [1, 3, 5] {
                    for stride in [1, 2, 3] {
                        for pad in [0, 1, 2] {
                            if h + 2 * pad >= k && w + 2 * pad >= k {
                                out.push((n, geom(2, h, w, k, stride, pad)));
                            }
                        }
                    }
                }
            }
        }
        // non-square kernel
        out.push((
            2,
            ConvGeom {
                in_ch: 1,
                in_h: 6,
                in_w: 5,
                k_h: 3,
                k_w: 2,
                stride: 1,
                pad: 1,
            },
        ));
        out
    }

    #[test]
    fn im2col_matches_its_definition_over_the_sweep() {
        for (n, g) in sweep() {
            let x = wavy(&[n, g.in_ch, g.in_h, g.in_w], 0.37);
            // stale contents must be overwritten, padding included
            let mut cols = Tensor::full([g.patch_len(), n * g.out_h() * g.out_w()], 99.0);
            im2col_into(&x, &g, &mut cols);
            assert_eq!(bits(&cols), bits(&im2col_spec(&x, &g)), "{n} x {g:?}");
        }
    }

    #[test]
    fn col2im_keeps_the_ascending_output_order_over_the_sweep() {
        for (n, g) in sweep() {
            // wide dynamic range so a reordered sum rounds differently
            let mut cols = wavy(&[g.patch_len(), n * g.out_h() * g.out_w()], 0.11);
            for (i, v) in cols.as_mut_slice().iter_mut().enumerate() {
                *v *= [1e-3, 1.0, 1e3, -0.0][i % 4];
            }
            let mut out = Tensor::full([n, g.in_ch, g.in_h, g.in_w], 99.0);
            col2im_into(&cols, n, &g, &mut out);
            assert_eq!(bits(&out), bits(&col2im_spec(&cols, n, &g)), "{n} x {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for the scatter/gather pair.
        use crate::ops::dot;
        let g = geom(2, 4, 4, 3, 1, 1);
        let x = wavy(&[1, 2, 4, 4], 0.37);
        let cols = im2col(&x, &g);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| (i as f32 * 0.11).cos()).collect(),
            cols.shape().clone(),
        );
        let lhs = dot(&cols, &y);
        let back = col2im(&y, 1, &g);
        let rhs = dot(&x, &back);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // Overlapping 2x2 windows with stride 1 on a 3x3 image: the center
        // pixel is visited by all four windows.
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = Tensor::ones([4, 4]);
        let img = col2im(&cols, 1, &g);
        assert_eq!(img.at(&[0, 0, 1, 1]), 4.0);
        assert_eq!(img.at(&[0, 0, 0, 0]), 1.0);
    }

    #[test]
    fn batched_matches_per_image() {
        // A 2-image batch must expand to exactly the two single-image
        // expansions side by side: image b owns columns
        // [b*oh*ow, (b+1)*oh*ow) of every patch row.
        let g = geom(2, 5, 5, 3, 1, 1);
        let batch = wavy(&[2, 2, 5, 5], 0.13);
        let both = im2col(&batch, &g);
        let plane = g.out_h() * g.out_w();
        for b in 0..2 {
            let one = Tensor::from_vec(
                batch.as_slice()[b * 50..(b + 1) * 50].to_vec(),
                [1, 2, 5, 5],
            );
            let solo = im2col(&one, &g);
            for tap in 0..g.patch_len() {
                assert_eq!(
                    &both.row(tap)[b * plane..(b + 1) * plane],
                    solo.row(tap),
                    "image {b} tap {tap}"
                );
            }
        }
    }
}
