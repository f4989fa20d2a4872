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
    cache_x: Tensor,
}

impl Gelu {
    /// A fresh GELU layer.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn phi(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }
}

impl ParamVisitor for Gelu {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Gelu {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        self.cache_x.ensure_shape(x.shape().clone());
        self.cache_x.copy_from(x);
        let mut y = ws.take(x.shape().clone());
        for (y, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *y = v * Self::phi(v);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        // numerical derivative of x·Φ(x) via the analytic tanh form
        let mut dx = ws.take(dy.shape().clone());
        const C: f32 = 0.797_884_6;
        for ((d, g), &x) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice())
            .zip(self.cache_x.as_slice())
        {
            let inner = C * (x + 0.044715 * x * x * x);
            let t = inner.tanh();
            let sech2 = 1.0 - t * t;
            let dphi = 0.5 * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x);
            *d = g * (0.5 * (1.0 + t) + x * dphi);
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let f = |v: f32| v * Gelu::phi(v);
            let fd = (f(xv + eps) - f(xv - eps)) / (2.0 * eps);
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
