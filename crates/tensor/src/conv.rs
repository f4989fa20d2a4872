//! im2col / col2im lowering for 2-D convolution.
//!
//! Convolutions in `selsync-nn` are computed as matrix products over the
//! im2col expansion, the same lowering the reference frameworks use on
//! CPU. Activations are *channel-major*, `[c, n, h, w]`: one channel's
//! planes lie back to back for the whole batch. The column matrix is
//! *patch-major*: one row per receptive-field element `(c, ky, kx)` and
//! one column per output pixel `(n, oy, ox)`, so the long `n·out_h·out_w`
//! axis is the one the GEMM microkernel vectorizes over, and the
//! product `W · cols` is already the channel-major output `[oc, n,
//! out_h, out_w]`.
//!
//! Neither direction moves data one row, or one image, at a time. Each
//! (channel, tap) is one pass over the batch. Where a tap is one
//! constant shift of the plane (stride 1, output planes the input's
//! size), that pass is one masked shift over the channel's `n` planes:
//! every pixel that reads padding is ANDed to `+0.0` by the window's
//! mask, which repeats every plane, and only the two ends of the pass
//! are clipped to the tensor. Every other geometry gathers (or
//! scatters) each image's plane through a per-window table of input
//! indices and masks. A mask never multiplies, so a `NaN` or `±∞` read
//! from the padding cannot leak (DESIGN.md §7).
//!
//! Both directions have `*_into` variants writing into caller-provided
//! buffers (the workspace path allocates nothing in steady state).
//! Neither fans out over threads: no shape the minis run is large
//! enough to amortize a parallel region (DESIGN.md §7).

use crate::tensor::Tensor;
use std::cell::RefCell;

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

    /// Whether window offset `(ky, kx)` reads the input at any output
    /// pixel, rather than padding only.
    fn reads_input(&self, ky: usize, kx: usize) -> bool {
        let (y_lo, y_hi) = self.valid_out(ky, self.in_h, self.out_h());
        let (x_lo, x_hi) = self.valid_out(kx, self.in_w, self.out_w());
        y_lo < y_hi && x_lo < x_hi
    }
}

/// The mask of an output pixel whose tap reads inside the input; `0`
/// (the bits of `+0.0`) marks one that reads padding. ANDed into a
/// value's bits it keeps them or makes the value exactly `+0.0`,
/// whatever the value is — a multiply by 0 would turn `NaN` and `±∞`
/// into `NaN`.
const KEEP: u32 = !0;

thread_local! {
    /// The sweep's window table (see [`window_table`]), reused across
    /// calls on the same thread so steady-state steps do not reallocate
    /// it.
    static TABLE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Output pixels a window table covers per window: whole planes, as
/// many as fit in this many (at least one plane, at most the batch). A
/// pass over a channel's `n` planes walks them a tile at a time, so the
/// table stays a few KB whatever the batch.
const TILE: usize = 256;

/// The sweep's per-call constants, computed once: each of `out_h`,
/// `out_w` and the flat-shift test divides by the stride.
struct Sweep {
    /// Output pixels of one plane.
    plane: usize,
    /// Output pixels of one channel's pass, `n` planes.
    total: usize,
    /// Output pixels of one tile of the table, a whole number of planes.
    tile: usize,
    /// Whether every tap is a [flat shift](ConvGeom::flat_shift).
    flat: bool,
}

impl Sweep {
    fn new(g: &ConvGeom, n: usize) -> Self {
        let plane = g.out_h() * g.out_w();
        Sweep {
            plane,
            total: n * plane,
            tile: (TILE / plane.max(1)).clamp(1, n.max(1)) * plane,
            flat: g.flat_shift(),
        }
    }

    /// Table entries per window: the masks, and for a gather the indices
    /// ahead of them.
    fn window_len(&self) -> usize {
        if self.flat {
            self.tile
        } else {
            2 * self.tile
        }
    }
}

impl ConvGeom {
    /// Stride 1 with output planes the size of the input's (every 3×3,
    /// pad-1 layer of the minis): output pixel `o = oy·ow + ox` of tap
    /// `(ky, kx)` reads input pixel `o + (ky − pad)·w + kx − pad`, one
    /// constant shift for the whole plane, and since the planes are as
    /// long as the input's, for a channel's whole run of `n` planes too.
    /// The pixels that read padding map onto the neighbouring input
    /// row's far end (the wrapped fringe), or past the plane's first or
    /// last row into the neighbouring plane or channel.
    fn flat_shift(&self) -> bool {
        self.stride == 1 && self.out_w() == self.in_w && self.out_h() == self.in_h
    }

    /// The element offset a flat-shift tap `(ky, kx)` reads at.
    fn shift(&self, ky: usize, kx: usize) -> isize {
        (ky * self.in_w + kx) as isize - (self.pad * self.in_w + self.pad) as isize
    }
}

/// Fill `table` for the sweep `g`: per window offset `(ky, kx)`, over the
/// output pixels of one tile (`s.tile / plane` image planes back to
/// back), the index each pixel reads from the tile's input planes (0 in
/// the padding) followed by each pixel's mask. A
/// [flat-shift](ConvGeom::flat_shift) geometry has no indices: a
/// pixel's is its own plus a constant.
fn window_table(g: &ConvGeom, s: &Sweep, table: &mut Vec<u32>) {
    let (h, w, ow) = (g.in_h, g.in_w, g.out_w());
    let images = s.tile / s.plane.max(1);
    assert!(
        images * h * w <= u32::MAX as usize,
        "input tile too large to index"
    );
    table.clear();
    for ky in 0..g.k_h {
        let (y_lo, y_hi) = g.valid_out(ky, h, g.out_h());
        for kx in 0..g.k_w {
            let (x_lo, x_hi) = g.valid_out(kx, w, ow);
            // one plane of indices (unless flat) and masks, then the
            // tile's other planes, each image's indices one input plane on
            let at = table.len();
            table.resize(at + s.window_len(), 0);
            let (idx, mask) = table[at..].split_at_mut(s.window_len() - s.tile);
            for oy in y_lo..y_hi {
                mask[oy * ow..][x_lo..x_hi].fill(KEEP);
                if !s.flat {
                    let iy = oy * g.stride + ky - g.pad;
                    for (i, ox) in idx[oy * ow..][x_lo..x_hi].iter_mut().zip(x_lo..) {
                        *i = (iy * w + ox * g.stride + kx - g.pad) as u32;
                    }
                }
            }
            for image in 1..images {
                mask.copy_within(..s.plane, image * s.plane);
                if !s.flat {
                    idx.copy_within(..s.plane, image * s.plane);
                    for i in &mut idx[image * s.plane..][..s.plane] {
                        *i += (image * h * w) as u32;
                    }
                }
            }
        }
    }
}

/// Window `(ky, kx)` of a [`window_table`]: `(indices, masks)`, the
/// indices empty for a flat-shift geometry.
#[inline]
fn window<'t>(
    table: &'t [u32],
    g: &ConvGeom,
    s: &Sweep,
    ky: usize,
    kx: usize,
) -> (&'t [u32], &'t [u32]) {
    let len = s.window_len();
    table[(ky * g.k_w + kx) * len..][..len].split_at(len - s.tile)
}

/// For a flat-shift pass whose output pixel `o` of a `run`-long row
/// reads element `base + o` of an `len`-long tensor: the pixels
/// `[lo, hi)` whose element lies inside the tensor, and the element
/// pixel `lo` reads (in bounds even when the range is empty). Every
/// pixel outside the range reads padding.
fn inside(base: isize, len: usize, run: usize) -> (usize, usize, usize) {
    let lo = (-base).clamp(0, run as isize);
    let hi = (len as isize - base).clamp(lo, run as isize);
    let at = (base + lo).clamp(0, len as isize);
    (lo as usize, hi as usize, at as usize)
}

/// The part `[a, b)` of the in-tensor pixels `[lo, hi)` that falls in
/// the tile of `len` pixels from `t0`, relative to `t0`; empty (`a == b`)
/// when none does. For a non-empty part `t0 + a ≥ lo`.
#[inline(always)]
fn clip(lo: usize, hi: usize, t0: usize, len: usize) -> (usize, usize) {
    (lo.clamp(t0, t0 + len) - t0, hi.clamp(t0, t0 + len) - t0)
}

/// `v` where `mask` is [`KEEP`], `+0.0` where it is 0.
#[inline(always)]
fn masked(v: f32, mask: u32) -> f32 {
    f32::from_bits(v.to_bits() & mask)
}

/// Copy `src`, read as `[a, b, inner]`, into `dst` as `[b, a, inner]`:
/// with `a = n, b = c, inner = h·w` an NCHW batch becomes the
/// channel-major activations `[c, n, h, w]` the conv layers exchange,
/// and with `a = c, b = n` they turn back into one row of `c·h·w`
/// values per image.
pub fn swap_outer_axes(src: &[f32], a: usize, b: usize, inner: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), a * b * inner, "swap_outer_axes input length");
    assert_eq!(dst.len(), src.len(), "swap_outer_axes output length");
    if src.is_empty() {
        return;
    }
    for (i, outer) in src.chunks_exact(b * inner).enumerate() {
        for (j, run) in outer.chunks_exact(inner).enumerate() {
            dst[(j * a + i) * inner..][..inner].copy_from_slice(run);
        }
    }
}

/// Expand channel-major input `[c, n, h, w]` into columns
/// `[c*k_h*k_w, n*out_h*out_w]`.
pub fn im2col(input: &Tensor, g: &ConvGeom) -> Tensor {
    let n = input.shape().dim(1);
    let mut cols = Tensor::zeros([g.patch_len(), n * g.out_h() * g.out_w()]);
    im2col_into(input, g, &mut cols);
    cols
}

/// [`im2col`] writing into a preallocated `[c*k_h*k_w, n*out_h*out_w]`
/// output (contents overwritten).
///
/// Each (channel, tap) row is one pass over the channel's `n` planes. A
/// flat-shift tap (stride 1, output planes the input's size) copies
/// them from the shifted input, ANDing every pixel that reads padding
/// to `+0.0`; any other geometry gathers every output pixel through the
/// window table's index and mask.
pub fn im2col_into(input: &Tensor, g: &ConvGeom, cols: &mut Tensor) {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 4, "im2col expects [c,n,h,w]");
    let (c, n, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, g.in_ch, "channel mismatch");
    assert_eq!(h, g.in_h, "height mismatch");
    assert_eq!(w, g.in_w, "width mismatch");
    let s = Sweep::new(g, n);
    assert_eq!(
        cols.shape().dims(),
        &[g.patch_len(), s.total],
        "im2col output shape mismatch"
    );
    if s.total == 0 {
        return;
    }
    let (src, cols) = (input.as_slice(), cols.as_mut_slice());
    // input floats behind one tile of output planes
    let tile_in = s.tile / s.plane * h * w;
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        window_table(g, &s, &mut table);
        for ky in 0..g.k_h {
            for kx in 0..g.k_w {
                let (idx, mask) = window(&table, g, &s, ky, kx);
                let reads = g.reads_input(ky, kx);
                // patch row (ch, ky, kx), in the weight's column order
                let tap = ky * g.k_w + kx;
                for ch in 0..c {
                    let row = &mut cols[(ch * g.k_h * g.k_w + tap) * s.total..][..s.total];
                    if s.flat {
                        let base = (ch * n * h * w) as isize + g.shift(ky, kx);
                        let (lo, hi, at) = inside(base, src.len(), s.total);
                        let mut t0 = 0;
                        for out in row.chunks_mut(s.tile) {
                            let (a, b) = clip(lo, hi, t0, out.len());
                            if a < b {
                                let span = &src[at + t0 + a - lo..][..b - a];
                                for ((o, &v), &m) in out[a..b].iter_mut().zip(span).zip(&mask[a..])
                                {
                                    *o = masked(v, m);
                                }
                            }
                            // only the first and last channels' passes
                            // reach past the tensor
                            out[..a].fill(0.0);
                            out[b..].fill(0.0);
                            t0 += out.len();
                        }
                    } else if reads {
                        let chan = &src[ch * n * h * w..][..n * h * w];
                        for (out, tile) in row.chunks_mut(s.tile).zip(chan.chunks(tile_in)) {
                            for ((o, &i), &m) in out.iter_mut().zip(idx).zip(mask) {
                                *o = masked(tile[i as usize], m);
                            }
                        }
                    } else {
                        row.fill(0.0);
                    }
                }
            }
        }
    });
}

/// Scatter column gradients `[c*k_h*k_w, n*out_h*out_w]` back onto the
/// channel-major input gradient `[c, n, h, w]` (the adjoint of
/// [`im2col`]).
pub fn col2im(cols: &Tensor, n: usize, g: &ConvGeom) -> Tensor {
    let mut out = Tensor::zeros([g.in_ch, n, g.in_h, g.in_w]);
    col2im_into(cols, n, g, &mut out);
    out
}

/// [`col2im`] writing into a preallocated `[c, n, h, w]` output
/// (contents overwritten, not accumulated into).
///
/// Every input element sums its contributions in ascending `(oy, ox)`
/// order starting from `+0.0`: for a fixed element a larger tap offset
/// means a smaller output coordinate, so the taps are walked in
/// *descending* `(ky, kx)`. Each (channel, tap) is one pass over the
/// channel's `n` planes, and within it an element gets at most one
/// addend. A flat-shift tap (stride 1, output planes the input's size)
/// adds the pass onto the shifted input and any other geometry scatters
/// every output pixel through the window table; either way a pixel
/// that reads padding adds `+0.0` (masked, never multiplied by 0),
/// possibly to an element of a neighbouring plane or channel. That
/// changes no bits: every element starts at `+0.0`, a sum started at
/// `+0.0` is never `−0.0`, and `x + (+0.0)` is `x` bit for bit for every
/// other `x`, `NaN` included.
pub fn col2im_into(cols: &Tensor, n: usize, g: &ConvGeom, out: &mut Tensor) {
    let s = Sweep::new(g, n);
    assert_eq!(
        cols.shape().dims(),
        &[g.patch_len(), s.total],
        "col2im input shape mismatch"
    );
    let (c, h, w) = (g.in_ch, g.in_h, g.in_w);
    assert_eq!(
        out.shape().dims(),
        &[c, n, h, w],
        "col2im output shape mismatch"
    );
    let (cols, dst) = (cols.as_slice(), out.as_mut_slice());
    dst.fill(0.0);
    if s.total == 0 {
        return;
    }
    let tile_in = s.tile / s.plane * h * w;
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        window_table(g, &s, &mut table);
        for ky in (0..g.k_h).rev() {
            for kx in (0..g.k_w).rev() {
                if !g.reads_input(ky, kx) {
                    continue;
                }
                let (idx, mask) = window(&table, g, &s, ky, kx);
                let tap = ky * g.k_w + kx;
                for ch in 0..c {
                    let row = &cols[(ch * g.k_h * g.k_w + tap) * s.total..][..s.total];
                    if s.flat {
                        let base = (ch * n * h * w) as isize + g.shift(ky, kx);
                        let (lo, hi, at) = inside(base, dst.len(), s.total);
                        let mut t0 = 0;
                        for grads in row.chunks(s.tile) {
                            let (a, b) = clip(lo, hi, t0, grads.len());
                            if a < b {
                                let span = &mut dst[at + t0 + a - lo..][..b - a];
                                let terms = grads[a..].iter().zip(&mask[a..]);
                                for (d, (&v, &m)) in span.iter_mut().zip(terms) {
                                    *d += masked(v, m);
                                }
                            }
                            t0 += grads.len();
                        }
                    } else {
                        let chan = &mut dst[ch * n * h * w..][..n * h * w];
                        for (grads, tile) in row.chunks(s.tile).zip(chan.chunks_mut(tile_in)) {
                            for ((&v, &i), &m) in grads.iter().zip(idx).zip(mask) {
                                tile[i as usize] += masked(v, m);
                            }
                        }
                    }
                }
            }
        }
    });
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
    /// element `[ch, b, iy, ix]` of the channel-major input the tap
    /// reads, or zero in the padding.
    fn im2col_spec(x: &Tensor, g: &ConvGeom) -> Tensor {
        let n = x.shape().dim(1);
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
                                    x.at(&[ch, b, iy, ix]);
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
        let mut out = Tensor::zeros([g.in_ch, n, g.in_h, g.in_w]);
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
                                *out.at_mut(&[ch, b, iy, ix]) +=
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

    /// [`bits`] with every `NaN` as one pattern. Which payload an
    /// addition of two `NaN`s returns is unspecified (the compiler may
    /// commute its operands), so sums are compared this way; infinities
    /// and signed zeros still compare bit for bit.
    fn sum_bits(t: &Tensor) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        t.as_slice()
            .iter()
            .map(|x| if x.is_nan() { nan } else { x.to_bits() })
            .collect()
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
        // With a 1x1 kernel, stride 1, no padding, im2col is the
        // identity on channel-major input: row c holds channel c of every
        // pixel (b, y, x).
        let g = geom(2, 2, 2, 1, 1, 0);
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [2, 2, 2, 2]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[2, 8]);
        assert_eq!(cols.as_slice(), input.as_slice());
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
    /// fast path (stride 1, same plane size), stride-1 with a smaller
    /// output, strided gathers, `h != w`, pads wider than the kernel
    /// reach, and kernels wider than the input; with a batch of 9, the
    /// larger planes' passes span several table tiles, the last one
    /// partial.
    fn sweep() -> Vec<(usize, ConvGeom)> {
        let mut out = Vec::new();
        for n in [1, 3, 9] {
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

    /// The values a mask has to drop, not multiply: `v · 0` is `NaN`
    /// for the first three and `−0.0` for the last.
    const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];

    /// Overwrite every element of a `[.., rows, cols]` tensor that lies
    /// in the first or last column, or on every fifth index, with
    /// [`SPECIALS`] in turn; returns how many were written.
    fn salt(t: &mut Tensor) -> usize {
        let cols = t.shape().dim(t.shape().ndim() - 1);
        let mut salted = 0;
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if i % cols == 0 || i % cols == cols - 1 || i % 5 == 0 {
                *v = SPECIALS[salted % SPECIALS.len()];
                salted += 1;
            }
        }
        salted
    }

    /// Whether the tap and output pixel of `cols[tap, pixel]` read
    /// padding rather than the input.
    fn reads_padding(g: &ConvGeom, tap: usize, pixel: usize) -> bool {
        let (ky, kx) = (tap / g.k_w % g.k_h, tap % g.k_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let (oy, ox) = (pixel % (oh * ow) / ow, pixel % ow);
        tap_src(oy, ky, g, g.in_h).is_none() || tap_src(ox, kx, g, g.in_w).is_none()
    }

    #[test]
    fn im2col_matches_its_definition_over_the_sweep() {
        for (n, g) in sweep() {
            let mut x = wavy(&[g.in_ch, n, g.in_h, g.in_w], 0.37);
            // the edge columns are what a flat shift's wrapped fringe
            // reads, and index 0 what a masked gather reads in padding
            assert!(salt(&mut x) > 0);
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
            let total = n * g.out_h() * g.out_w();
            let mut cols = wavy(&[g.patch_len(), total], 0.11);
            for (i, v) in cols.as_mut_slice().iter_mut().enumerate() {
                *v *= [1e-3, 1.0, 1e3, -0.0][i % 4];
            }
            salt(&mut cols);
            // and the first valid pixel of every tap, so a sweep with
            // few valid pixels gets its share
            for (tap, row) in cols.as_mut_slice().chunks_exact_mut(total).enumerate() {
                if let Some(p) = (0..total).find(|&p| !reads_padding(&g, tap, p)) {
                    row[p] = SPECIALS[tap % SPECIALS.len()];
                }
            }
            // specials must reach both kinds of position where there is
            // padding: the ones the mask drops and the ones it keeps
            let (mut dropped, mut kept) = (0, 0);
            for (i, v) in cols.as_slice().iter().enumerate() {
                if !v.is_finite() || v.to_bits() == (-0.0f32).to_bits() {
                    if reads_padding(&g, i / total, i % total) {
                        dropped += 1;
                    } else {
                        kept += 1;
                    }
                }
            }
            let padding =
                (0..g.patch_len() * total).filter(|&i| reads_padding(&g, i / total, i % total));
            let padding = padding.count();
            assert_eq!(dropped > 0, padding > 0, "{n} x {g:?}");
            assert_eq!(kept > 0, padding < g.patch_len() * total, "{n} x {g:?}");
            let mut out = Tensor::full([g.in_ch, n, g.in_h, g.in_w], 99.0);
            col2im_into(&cols, n, &g, &mut out);
            let want = col2im_spec(&cols, n, &g);
            assert_eq!(sum_bits(&out), sum_bits(&want), "{n} x {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for the scatter/gather pair.
        use crate::ops::dot;
        let g = geom(2, 4, 4, 3, 1, 1);
        let x = wavy(&[2, 1, 4, 4], 0.37);
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
            // channel ch of image b is plane ch·n + b
            let mut one = Vec::new();
            for ch in 0..2 {
                one.extend_from_slice(&batch.as_slice()[(ch * 2 + b) * 25..][..25]);
            }
            let solo = im2col(&Tensor::from_vec(one, [2, 1, 5, 5]), &g);
            for tap in 0..g.patch_len() {
                assert_eq!(
                    &both.row(tap)[b * plane..(b + 1) * plane],
                    solo.row(tap),
                    "image {b} tap {tap}"
                );
            }
        }
    }

    #[test]
    fn swapping_the_outer_axes_round_trips() {
        // an NCHW batch to channel-major and back, and channel-major
        // maps to one row per image and back
        let (n, c, plane) = (3, 4, 5);
        let nchw = wavy(&[n, c, plane], 0.29);
        let mut cm = vec![0.0; nchw.numel()];
        swap_outer_axes(nchw.as_slice(), n, c, plane, &mut cm);
        for (b, ch, p) in
            (0..n).flat_map(|b| (0..c).flat_map(move |ch| (0..plane).map(move |p| (b, ch, p))))
        {
            assert_eq!(cm[(ch * n + b) * plane + p], nchw.at(&[b, ch, p]));
        }
        let mut back = vec![0.0; cm.len()];
        swap_outer_axes(&cm, c, n, plane, &mut back);
        assert_eq!(back, nchw.as_slice());
        swap_outer_axes(&[], 0, 3, 2, &mut []);
    }
}
