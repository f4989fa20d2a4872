//! Spatial pooling layers over channel-major activations `[c, n, h, w]`,
//! and the boundary from them to one row per image.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use selsync_tensor::conv::swap_outer_axes;
use selsync_tensor::{Shape, Tensor};

/// 2-D max pooling with a square window and matching stride.
///
/// Each `h × w` plane pools on its own, so the layer is the same over
/// NCHW and channel-major input; the models feed it `[c, n, h, w]`.
#[derive(Clone)]
pub struct MaxPool2d {
    k: usize,
    in_shape: Shape,
    /// Per output element, the input element its gradient goes to.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Max pooling with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        MaxPool2d {
            k,
            in_shape: Shape::default(),
            argmax: Vec::new(),
        }
    }
}

impl ParamVisitor for MaxPool2d {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for MaxPool2d {
    /// A window's output is its first maximum: starting from `−∞`, an
    /// element replaces the running best only if it is strictly greater,
    /// in row-major window order, so a tie goes to the earlier element
    /// and a `NaN` never wins. A window of only `−∞` and `NaN` outputs
    /// `−∞` and routes its gradient to its own first element. The
    /// compare is two selects, not a branch.
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "MaxPool2d expects [c,n,h,w]");
        let (h, w) = (dims[2], dims[3]);
        let k = self.k;
        assert!(
            h % k == 0 && w % k == 0,
            "input {h}x{w} not divisible by window {k}"
        );
        let (oh, ow) = (h / k, w / k);
        self.in_shape = x.shape().clone();
        let mut out = ws.take([dims[0], dims[1], oh, ow]);
        self.argmax.resize(out.numel(), 0);
        let (src, dst) = (x.as_slice(), out.as_mut_slice());
        // the window a model uses gets a body with a constant trip count
        if k == 2 {
            max_pool::<2>(k, w, src, dst, &mut self.argmax);
        } else {
            max_pool::<0>(k, w, src, dst, &mut self.argmax);
        }
        out
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.argmax.len(), "backward before forward");
        let mut dx = ws.take_zeroed(self.in_shape.clone());
        let d = dx.as_mut_slice();
        for (g, &idx) in dy.as_slice().iter().zip(&self.argmax) {
            d[idx] += g;
        }
        dx
    }
}

/// The `k × k` max pool of `src` read as one `[rows, w]` image: the planes
/// of `[c, n, h, w]` stack into one, since `k` divides `h` and no window
/// straddles two planes. Each band of `k` input rows gives one output row
/// of `dst` and `arg`. The window is `K` when nonzero, else `k`.
fn max_pool<const K: usize>(k: usize, w: usize, src: &[f32], dst: &mut [f32], arg: &mut [usize]) {
    let k = if K == 0 { k } else { K };
    let ow = w / k;
    let rows = dst
        .chunks_exact_mut(ow.max(1))
        .zip(arg.chunks_exact_mut(ow.max(1)));
    for (band, (src, (dst, arg))) in src.chunks_exact((k * w).max(1)).zip(rows).enumerate() {
        for (ox, (d, a)) in dst.iter_mut().zip(arg).enumerate() {
            let (mut best, mut best_idx) = (f32::NEG_INFINITY, ox * k);
            for ky in 0..k {
                let at = ky * w + ox * k;
                for (idx, &v) in (at..).zip(&src[at..][..k]) {
                    let greater = v > best;
                    best = if greater { v } else { best };
                    best_idx = if greater { idx } else { best_idx };
                }
            }
            *d = best;
            *a = band * k * w + best_idx;
        }
    }
}

/// Global average pooling: channel-major `[c, n, h, w]` → `[n, c]`, one
/// row per image for the classifier.
#[derive(Clone, Default)]
pub struct GlobalAvgPool {
    in_shape: Shape,
}

impl GlobalAvgPool {
    /// A fresh global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for GlobalAvgPool {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "GlobalAvgPool expects [c,n,h,w]");
        let (c, n, hw) = (dims[0], dims[1], dims[2] * dims[3]);
        self.in_shape = x.shape().clone();
        let plane = hw as f32;
        let mut out = ws.take([n, c]);
        let dst = out.as_mut_slice();
        // plane (ch, b) is the ch·n + b-th
        for (i, p) in x.as_slice().chunks_exact(hw.max(1)).enumerate() {
            dst[i % n * c + i / n] = p.iter().sum::<f32>() / plane;
        }
        out
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let d = self.in_shape.dims();
        let (c, n, hw) = (d[0], d[1], d[2] * d[3]);
        let plane = hw as f32;
        let mut dx = ws.take(self.in_shape.clone());
        let g = dy.as_slice();
        for (i, p) in dx.as_mut_slice().chunks_exact_mut(hw.max(1)).enumerate() {
            p.fill(g[i % n * c + i / n] / plane);
        }
        dx
    }
}

/// The boundary from the conv stack to the classifier: channel-major
/// maps `[c, n, h, w]` become one row of `c·h·w` values per image,
/// `[n, c·h·w]` (each row in `(c, h, w)` order, as an NCHW image), and
/// the gradient goes back the same way.
#[derive(Clone, Default)]
pub struct ToRows {
    in_shape: Shape,
}

impl ToRows {
    /// A fresh boundary stage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for ToRows {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for ToRows {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "ToRows expects [c,n,h,w]");
        let (c, n, hw) = (dims[0], dims[1], dims[2] * dims[3]);
        self.in_shape = x.shape().clone();
        let mut rows = ws.take([n, c * hw]);
        swap_outer_axes(x.as_slice(), c, n, hw, rows.as_mut_slice());
        rows
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let d = self.in_shape.dims();
        let (c, n, hw) = (d[0], d[1], d[2] * d[3]);
        let mut dx = ws.take(self.in_shape.clone());
        swap_outer_axes(dy.as_slice(), n, c, hw, dx.as_mut_slice());
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::swap_outer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selsync_tensor::init;

    #[test]
    fn maxpool_selects_window_maxima() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        );
        let y = mp.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let _ = mp.forward(&x, true, &mut Workspace::new());
        let dx = mp.backward(
            &Tensor::from_vec(vec![7.0], [1, 1, 1, 1]),
            &mut Workspace::new(),
        );
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn avgpool_means_planes() {
        let mut gp = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 0.0, 0.0, 0.0, 4.0], [2, 1, 2, 2]);
        let y = gp.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 1.0]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut gp = GlobalAvgPool::new();
        let _ = gp.forward(&Tensor::zeros([1, 1, 2, 2]), true, &mut Workspace::new());
        let dx = gp.backward(&Tensor::from_vec(vec![8.0], [1, 1]), &mut Workspace::new());
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn maxpool_rejects_indivisible_input() {
        MaxPool2d::new(2).forward(&Tensor::zeros([1, 1, 3, 3]), true, &mut Workspace::new());
    }

    #[test]
    fn maxpool_routes_degenerate_windows_to_their_own_first_element() {
        // image 1 of channel 1, so the window's first element is far
        // from element 0 of the tensor; one window of -inf, one of NaN,
        // one mixed, and one with a tie (the first of the tied wins)
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let mut x = Tensor::full([2, 2, 2, 4], 9.0);
        let plane = &mut x.as_mut_slice()[3 * 8..][..8];
        plane.copy_from_slice(&[ninf, ninf, nan, nan, ninf, ninf, nan, nan]);
        let mut y = MaxPool2d::new(2);
        let out = y.forward(&x, true, &mut Workspace::new());
        assert_eq!(&out.as_slice()[6..], &[ninf, ninf]);
        let dx = y.backward(&Tensor::full([2, 2, 1, 2], 1.0), &mut Workspace::new());
        let routed: Vec<usize> = (0..dx.numel())
            .filter(|&i| dx.as_slice()[i] != 0.0)
            .collect();
        // the NaN/-inf windows pick their own first elements, 24 and 26
        assert_eq!(&routed[6..], &[24, 26]);

        let mut x = Tensor::from_vec(vec![nan, 2.0, 5.0, 5.0, ninf, 5.0, 1.0, nan], [1, 1, 2, 4]);
        let out = y.forward(&x, true, &mut Workspace::new());
        assert_eq!(out.as_slice(), &[5.0, 5.0]);
        let dx = y.backward(
            &Tensor::from_vec(vec![1.0, 2.0], [1, 1, 1, 2]),
            &mut Workspace::new(),
        );
        // the NaN is skipped; the tie goes to the first 5.0 in each window
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        x.as_mut_slice().fill(nan);
        let out = y.forward(&x, true, &mut Workspace::new());
        assert_eq!(out.as_slice(), &[ninf, ninf]);
        let dx = y.backward(
            &Tensor::from_vec(vec![1.0, 2.0], [1, 1, 1, 2]),
            &mut Workspace::new(),
        );
        assert_eq!(dx.as_slice(), &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    /// The NCHW bodies of `MaxPool2d` and `GlobalAvgPool` before
    /// activations went channel-major, kept as the bit-identity oracle.
    /// Verbatim but for one line: a window with no element above `−∞`
    /// now routes its gradient to its own first element, where the old
    /// body sent it to element 0 of the tensor.
    mod nchw {
        use super::*;

        /// `(y, argmax)` of a `k × k` max pool.
        pub fn maxpool(x: &Tensor, k: usize) -> (Tensor, Vec<usize>) {
            let dims = x.shape().dims();
            let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
            let (oh, ow) = (h / k, w / k);
            let mut out = Tensor::zeros([n, c, oh, ow]);
            let mut argmax = Vec::new();
            let src = x.as_slice();
            let dst = out.as_mut_slice();
            let mut oi = 0;
            for b in 0..n {
                for ch in 0..c {
                    let plane = &src[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_idx = (b * c + ch) * h * w + oy * k * w + ox * k;
                            for ky in 0..k {
                                for kx in 0..k {
                                    let idx = (oy * k + ky) * w + (ox * k + kx);
                                    if plane[idx] > best {
                                        best = plane[idx];
                                        best_idx = (b * c + ch) * h * w + idx;
                                    }
                                }
                            }
                            dst[oi] = best;
                            argmax.push(best_idx);
                            oi += 1;
                        }
                    }
                }
            }
            (out, argmax)
        }

        pub fn maxpool_backward(dy: &Tensor, argmax: &[usize], in_shape: &Shape) -> Tensor {
            let mut dx = Tensor::zeros(in_shape.clone());
            let d = dx.as_mut_slice();
            for (g, &idx) in dy.as_slice().iter().zip(argmax) {
                d[idx] += g;
            }
            dx
        }

        pub fn avgpool(x: &Tensor) -> Tensor {
            let dims = x.shape().dims();
            let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
            let plane = (h * w) as f32;
            let mut out = Tensor::zeros([n, c]);
            let src = x.as_slice();
            let dst = out.as_mut_slice();
            for b in 0..n {
                for ch in 0..c {
                    let p = &src[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                    dst[b * c + ch] = p.iter().sum::<f32>() / plane;
                }
            }
            out
        }

        pub fn avgpool_backward(dy: &Tensor, in_shape: &Shape) -> Tensor {
            let d = in_shape.dims();
            let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
            let plane = (h * w) as f32;
            let mut dx = Tensor::zeros(in_shape.clone());
            let d = dx.as_mut_slice();
            let g = dy.as_slice();
            for b in 0..n {
                for ch in 0..c {
                    let v = g[b * c + ch] / plane;
                    for p in 0..h * w {
                        d[(b * c + ch) * h * w + p] = v;
                    }
                }
            }
            dx
        }
    }

    /// Overwrite every seventh element with `NaN`, `+∞`, `−∞`, `−0.0` in
    /// turn, and (given three planes) the whole of plane 1 with `−∞`
    /// and plane 2 with `NaN` (windows with no element above `−∞`).
    fn salted(dims: [usize; 4], seed: u64) -> Tensor {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut t = init::randn(dims, 1.0, &mut StdRng::seed_from_u64(seed));
        let plane = dims[2] * dims[3];
        let v = t.as_mut_slice();
        for (i, x) in v.iter_mut().enumerate().step_by(7) {
            *x = specials[i / 7 % specials.len()];
        }
        if v.len() >= 3 * plane {
            v[plane..2 * plane].fill(f32::NEG_INFINITY);
            v[2 * plane..3 * plane].fill(f32::NAN);
        }
        t
    }

    /// `to_bits`, with every `NaN` as one pattern: which payload a sum
    /// of two `NaN`s returns depends on the operand order the compiler
    /// picks. Infinities and signed zeros compare bit for bit.
    fn nan_bits(t: &Tensor) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        t.as_slice()
            .iter()
            .map(|v| if v.is_nan() { nan } else { v.to_bits() })
            .collect()
    }

    #[test]
    fn pools_match_their_nchw_bodies_bitwise_on_salted_input() {
        let mut ws = Workspace::new();
        for (dims, k) in [([3, 5, 4, 4], 2), ([2, 3, 6, 6], 3), ([4, 2, 2, 2], 1)] {
            let x = salted(dims, 1);
            let (want_y, argmax) = nchw::maxpool(&x, k);
            let dy = salted([dims[0], dims[1], dims[2] / k, dims[3] / k], 2);
            let want_dx = nchw::maxpool_backward(&dy, &argmax, x.shape());
            let mut pool = MaxPool2d::new(k);
            let y = swap_outer(&pool.forward(&swap_outer(&x), true, &mut ws));
            let dx = swap_outer(&pool.backward(&swap_outer(&dy), &mut ws));
            // maxima are copies and dx sums at most one addend from +0.0
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want_y), "maxpool y {dims:?} k{k}");
            assert_eq!(bits(&dx), bits(&want_dx), "maxpool dx {dims:?} k{k}");

            let dy = salted([1, 1, dims[0], dims[1]], 3).reshaped([dims[0], dims[1]]);
            let mut gap = GlobalAvgPool::new();
            let y = gap.forward(&swap_outer(&x), true, &mut ws);
            let dx = swap_outer(&gap.backward(&dy, &mut ws));
            assert_eq!(nan_bits(&y), nan_bits(&nchw::avgpool(&x)), "gap y {dims:?}");
            let want = nchw::avgpool_backward(&dy, x.shape());
            assert_eq!(nan_bits(&dx), nan_bits(&want), "gap dx {dims:?}");
        }
    }

    #[test]
    fn to_rows_lays_out_each_image_as_its_nchw_row_and_back() {
        let mut rng = StdRng::seed_from_u64(4);
        let nchw = init::randn([3, 4, 2, 2], 1.0, &mut rng);
        let mut stage = ToRows::new();
        let mut ws = Workspace::new();
        let rows = stage.forward(&swap_outer(&nchw), true, &mut ws);
        assert_eq!(rows.shape().dims(), &[3, 16]);
        assert_eq!(rows.as_slice(), nchw.as_slice());
        let dy = init::randn([3, 16], 1.0, &mut rng);
        let dx = stage.backward(&dy, &mut ws);
        assert_eq!(dx.shape().dims(), &[4, 3, 2, 2]);
        assert_eq!(swap_outer(&dx).as_slice(), dy.as_slice());
    }
}
