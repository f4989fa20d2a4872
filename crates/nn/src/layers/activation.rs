//! Parameter-free activation layers.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use selsync_tensor::Tensor;

/// Rectified linear unit `max(0, x)`.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for Relu {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        self.mask.resize(x.numel(), false);
        let mut y = ws.take(x.shape().clone());
        // Both comparisons are false for NaN: it passes through and its
        // gradient is masked. `<=` sends -0.0 to +0.0. Two selects and no
        // data-dependent branch, so the loop vectorises.
        for ((y, keep), &v) in y
            .as_mut_slice()
            .iter_mut()
            .zip(&mut self.mask)
            .zip(x.as_slice())
        {
            *keep = v > 0.0;
            *y = if v <= 0.0 { 0.0 } else { v };
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.mask.len(), "backward before forward");
        let mut dx = ws.take(dy.shape().clone());
        for ((d, &keep), &g) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(&self.mask)
            .zip(dy.as_slice())
        {
            *d = if keep { g } else { 0.0 };
        }
        dx
    }
}

/// Hyperbolic-tangent activation.
#[derive(Clone, Default)]
pub struct Tanh {
    cache_y: Tensor,
}

impl Tanh {
    /// A fresh Tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for Tanh {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Tanh {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        self.cache_y.ensure_shape(x.shape().clone());
        let mut y = ws.take(x.shape().clone());
        for ((y, c), v) in y
            .as_mut_slice()
            .iter_mut()
            .zip(self.cache_y.as_mut_slice())
            .zip(x.as_slice())
        {
            *y = v.tanh();
            *c = *y;
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.cache_y.numel(), "backward before forward");
        let mut dx = ws.take(dy.shape().clone());
        for ((d, g), y) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice())
            .zip(self.cache_y.as_slice())
        {
            *d = g * (1.0 - y * y);
        }
        dx
    }
}

/// Gaussian error linear unit (tanh approximation), used by the
/// Transformer feed-forward blocks.
#[derive(Clone, Default)]
pub struct Gelu {
    /// `d gelu / dx` at the last forward's input.
    dydx: Tensor,
}

impl Gelu {
    /// A fresh GELU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for Gelu {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Gelu {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        self.dydx.ensure_shape(x.shape().clone());
        let mut y = ws.take(x.shape().clone());
        let (xs, ds) = (x.as_slice(), self.dydx.as_mut_slice());
        // `tanh` is the layer's one libm call and the derivative needs the
        // same value, so each element's is taken once, in a pass of its
        // own between two that vectorise. The expressions are those of
        // x·Φ(x) and its analytic derivative with their association kept,
        // so the bits do not depend on the split (DESIGN.md §7).
        for (d, &v) in ds.iter_mut().zip(xs) {
            *d = C * (v + 0.044715 * v * v * v);
        }
        for d in ds.iter_mut() {
            *d = d.tanh();
        }
        for ((y, d), &v) in y.as_mut_slice().iter_mut().zip(ds).zip(xs) {
            let t = *d;
            let phi = 0.5 * (1.0 + t);
            let sech2 = 1.0 - t * t;
            let dphi = 0.5 * sech2 * C * (1.0 + 3.0 * 0.044715 * v * v);
            *y = v * phi;
            *d = phi + v * dphi;
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.dydx.numel(), "backward before forward");
        let mut dx = ws.take(dy.shape().clone());
        for ((d, g), k) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice())
            .zip(self.dydx.as_slice())
        {
            *d = g * k;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selsync_tensor::init;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()])
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut ws = Workspace::new();
        let mut r = Relu::new();
        let y = r.forward(&t(&[-1.0, 0.0, 2.0]), true, &mut ws);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let dx = r.backward(&t(&[1.0, 1.0, 1.0]), &mut ws);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_edge_cases_keep_their_bits() {
        // -0.0 becomes +0.0; NaN passes through forward and gets a zero
        // gradient; a recycled output buffer's old contents never show
        let mut ws = Workspace::new();
        let mut stale = ws.take([3]);
        stale.fill(7.0);
        ws.give(stale);
        let mut r = Relu::new();
        let y = r.forward(&t(&[-0.0, f32::NAN, 3.0]), true, &mut ws);
        assert_eq!(y.as_slice()[0].to_bits(), 0.0f32.to_bits());
        assert!(y.as_slice()[1].is_nan());
        assert_eq!(y.as_slice()[2], 3.0);
        ws.give(y);
        let dx = r.backward(&t(&[5.0, 5.0, f32::NAN]), &mut ws);
        assert_eq!(dx.as_slice()[..2], [0.0, 0.0]);
        assert!(dx.as_slice()[2].is_nan(), "a kept gradient is copied as is");
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut ws = Workspace::new();
        let mut th = Tanh::new();
        let _ = th.forward(&t(&[0.0]), true, &mut ws);
        let dx = th.backward(&t(&[1.0]), &mut ws);
        assert!((dx.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    /// `Gelu::forward` as it was before the derivative was cached:
    /// `x·Φ(x)` in one expression. With [`gelu_backward_oracle`], the bit
    /// oracle for the three-pass layer.
    fn gelu_oracle(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        x * (0.5 * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh()))
    }

    /// `Gelu::backward` as it was: `tanh` recomputed from the cached input.
    fn gelu_backward_oracle(x: f32, g: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (x + 0.044715 * x * x * x);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        let dphi = 0.5 * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x);
        g * (0.5 * (1.0 + t) + x * dphi)
    }

    /// One forward + backward of `g`, every output bit against the oracle.
    fn assert_gelu_matches_oracle(g: &mut Gelu, x: &Tensor, dy: &Tensor, ws: &mut Workspace) {
        let y = g.forward(x, true, ws);
        let dx = g.backward(dy, ws);
        assert_eq!((y.shape(), dx.shape()), (x.shape(), x.shape()));
        for (i, (&v, &gr)) in x.as_slice().iter().zip(dy.as_slice()).enumerate() {
            let (want_y, want_dx) = (gelu_oracle(v), gelu_backward_oracle(v, gr));
            assert_eq!(
                y.as_slice()[i].to_bits(),
                want_y.to_bits(),
                "y at x={v:e}: {} vs {want_y}",
                y.as_slice()[i]
            );
            assert_eq!(
                dx.as_slice()[i].to_bits(),
                want_dx.to_bits(),
                "dx at x={v:e}, dy={gr:e}: {} vs {want_dx}",
                dx.as_slice()[i]
            );
        }
        ws.give(y);
        ws.give(dx);
    }

    #[test]
    fn gelu_is_bit_identical_to_the_recomputing_oracle() {
        let mut ws = Workspace::new();
        let mut g = Gelu::new();
        let mut edges = vec![f32::NAN];
        for v in [
            0.0,
            f32::MIN_POSITIVE / 4.0,
            f32::MIN_POSITIVE,
            1e-3,
            1.0,
            3.0,
            9.1,
            22.0,
            88.0,
            f32::INFINITY,
        ] {
            edges.extend([v, -v]);
        }
        assert_gelu_matches_oracle(&mut g, &t(&edges), &t(&vec![1.0; edges.len()]), &mut ws);
        let dy = t(&edges.iter().map(|v| 0.3 - v).collect::<Vec<_>>());
        assert_gelu_matches_oracle(&mut g, &t(&edges), &dy, &mut ws);

        // std 3 reaches both saturated tails of tanh as well as the bend
        let mut rng = StdRng::seed_from_u64(24);
        let x = init::randn([10_000], 3.0, &mut rng);
        let dy = init::randn([10_000], 1.0, &mut rng);
        assert_gelu_matches_oracle(&mut g, &x, &dy, &mut ws);
        for shape in [&[96, 32][..], &[1, 1], &[4, 8, 8, 8]] {
            let x = init::randn(shape, 3.0, &mut rng);
            let dy = init::randn(shape, 1.0, &mut rng);
            assert_gelu_matches_oracle(&mut g, &x, &dy, &mut ws);
        }
    }

    #[test]
    fn gelu_backward_follows_the_last_forward() {
        // a train step, an eval forward on a larger batch, a train step:
        // the derivative backward reads is the last forward's, whatever
        // shape the kept tensor had in between
        let mut ws = Workspace::new();
        let mut g = Gelu::new();
        let mut rng = StdRng::seed_from_u64(25);
        let train = init::randn([96, 32], 3.0, &mut rng);
        let eval = init::randn([192, 32], 3.0, &mut rng);
        let dy = init::randn([96, 32], 1.0, &mut rng);
        assert_gelu_matches_oracle(&mut g, &train, &dy, &mut ws);
        let y = g.forward(&eval, false, &mut ws);
        ws.give(y);
        let next = init::randn([96, 32], 3.0, &mut rng);
        assert_gelu_matches_oracle(&mut g, &next, &dy, &mut ws);
    }

    /// A workspace whose next `take` hands back 7.0s, as some other
    /// layer's recycled buffer would.
    fn dirty_workspace() -> Workspace {
        let mut ws = Workspace::new();
        let mut stale = ws.take([8]);
        stale.fill(7.0);
        ws.give(stale);
        ws
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn gelu_backward_rejects_a_gradient_of_another_size() {
        let mut ws = dirty_workspace();
        let mut g = Gelu::new();
        let y = g.forward(&t(&[0.5, -0.5]), true, &mut ws);
        ws.give(y);
        let _ = g.backward(&t(&[1.0, 1.0, 1.0]), &mut ws);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn tanh_backward_rejects_a_gradient_of_another_size() {
        let mut ws = dirty_workspace();
        let mut th = Tanh::new();
        let y = th.forward(&t(&[0.5, -0.5]), true, &mut ws);
        ws.give(y);
        let _ = th.backward(&t(&[1.0, 1.0, 1.0]), &mut ws);
    }

    #[test]
    fn gelu_matches_finite_differences() {
        let mut ws = Workspace::new();
        let mut g = Gelu::new();
        let xs = [-2.0f32, -0.5, 0.0, 0.7, 3.0];
        let x = t(&xs);
        let _ = g.forward(&x, true, &mut ws);
        let dx = g.backward(&t(&[1.0; 5]), &mut ws);
        let eps = 1e-3;
        for (i, &xv) in xs.iter().enumerate() {
            let fd = (gelu_oracle(xv + eps) - gelu_oracle(xv - eps)) / (2.0 * eps);
            assert!((dx.as_slice()[i] - fd).abs() < 1e-2, "at x={xv}");
        }
    }

    #[test]
    fn activations_have_no_params() {
        let r = Relu::new();
        assert_eq!(r.num_params(), 0);
        assert_eq!(Tanh::new().num_params(), 0);
        assert_eq!(Gelu::new().num_params(), 0);
    }
}
