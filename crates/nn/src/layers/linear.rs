//! Fully-connected layer `y = x·Wᵀ + b`.
//!
//! Any `[n, …]` input is read as `[n, in_features]` by rows, so an NCHW
//! batch `[n, c, h, w]` (the MLP's) feeds it with no flatten stage; `dx`
//! comes back in the input's shape. A conv trunk's channel-major maps
//! `[c, n, h, w]` reach it through the `ToRows` boundary stage.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use selsync_tensor::{init, matmul, ops, reduce, Shape, Tensor};

/// A dense affine layer. Weight is stored `[out, in]` so both forward
/// (`x·Wᵀ`) and input-gradient (`dy·W`) passes stream rows contiguously.
#[derive(Clone)]
pub struct Linear {
    /// Weight parameter `[out_features, in_features]`.
    pub w: Param,
    /// Bias parameter `[out_features]`, absent if constructed without bias.
    pub b: Option<Param>,
    /// The last forward's input, read as `[n, in_features]`.
    cache_x: Tensor,
    /// The last forward's input shape, which `dx` takes back.
    in_shape: Shape,
}

impl Linear {
    /// Xavier-initialized layer `in_features → out_features`.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let w = init::xavier_uniform([out_features, in_features], in_features, out_features, rng);
        Self::with_weight(name, w)
    }

    /// Kaiming-initialized layer for ReLU networks.
    pub fn new_kaiming(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = init::kaiming_normal([out_features, in_features], in_features, rng);
        Self::with_weight(name, w)
    }

    /// A layer over weight `w` (`[out, in]`) and a zero bias.
    fn with_weight(name: &str, w: Tensor) -> Self {
        let b = Tensor::zeros([w.shape().dim(0)]);
        Linear {
            w: Param::new(format!("{name}.weight"), w),
            b: Some(Param::new_no_decay(format!("{name}.bias"), b)),
            cache_x: Tensor::zeros([0]),
            in_shape: Shape::default(),
        }
    }

    /// Layer without a bias term (projection matrices in attention).
    pub fn new_no_bias(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut l = Self::new(name, in_features, out_features, rng);
        l.b = None;
        l
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.value.shape().dim(0)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.value.shape().dim(1)
    }
}

impl ParamVisitor for Linear {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        if let Some(b) = &self.b {
            f(b);
        }
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.b {
            f(b);
        }
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let n = x.shape().dim(0);
        assert_eq!(
            x.numel(),
            n * self.in_features(),
            "Linear expects [n, …] with {} values a row, got {}",
            self.in_features(),
            x.shape()
        );
        self.in_shape = x.shape().clone();
        self.cache_x.ensure_shape([n, self.in_features()]);
        self.cache_x.copy_from_slice(x.as_slice());
        let mut y = ws.take([n, self.out_features()]);
        matmul::matmul_nt_into(&self.cache_x, &self.w.value, &mut y);
        if let Some(b) = &self.b {
            ops::add_row_bias(&mut y, &b.value);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_params(dy, ws);
        // dx = dy · W     ([n, out]·[out, in] = [n, in])
        let mut dx = ws.take([dy.shape().dim(0), self.in_features()]);
        matmul::matmul_into(dy, &self.w.value, &mut dx);
        dx.reshape(self.in_shape.clone())
    }

    fn backward_params(&mut self, dy: &Tensor, ws: &mut Workspace) {
        // dW += dyᵀ · x   ([out, n]·[n, in] = [out, in])
        let mut dw = ws.take(self.w.value.shape().clone());
        matmul::matmul_tn_into(dy, &self.cache_x, &mut dw);
        ops::add_assign(&mut self.w.grad, &dw);
        ws.give(dw);
        if let Some(b) = &mut self.b {
            reduce::sum_axis0_acc(dy, b.grad.as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        l.w.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], [2, 2]);
        l.b.as_mut().unwrap().value = Tensor::from_vec(vec![0.5, -0.5], [2]);
        let y = l.forward(
            &Tensor::from_vec(vec![3.0, 4.0], [1, 2]),
            true,
            &mut Workspace::new(),
        );
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new("l", 3, 2, &mut rng);
        let x = init::randn([4, 3], 1.0, &mut rng);
        // scalar objective: sum of outputs
        let y = l.forward(&x, true, &mut Workspace::new());
        let dy = Tensor::ones(y.shape().clone());
        l.zero_grad();
        let dx = l.backward(&dy, &mut Workspace::new());

        let eps = 1e-3;
        // check a weight gradient
        let base: f32 = l
            .forward(&x, true, &mut Workspace::new())
            .as_slice()
            .iter()
            .sum();
        let mut l2 = l.clone();
        l2.w.value.as_mut_slice()[1] += eps;
        let pert: f32 = l2
            .forward(&x, true, &mut Workspace::new())
            .as_slice()
            .iter()
            .sum();
        let fd = (pert - base) / eps;
        assert!(
            (l.w.grad.as_slice()[1] - fd).abs() < 1e-2,
            "{} vs {fd}",
            l.w.grad.as_slice()[1]
        );

        // check an input gradient
        let mut xp = x.clone();
        xp.as_mut_slice()[5] += eps;
        let pert_x: f32 = l
            .forward(&xp, true, &mut Workspace::new())
            .as_slice()
            .iter()
            .sum();
        let fd_x = (pert_x - base) / eps;
        assert!((dx.as_slice()[5] - fd_x).abs() < 1e-2);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        let x = Tensor::ones([3, 2]);
        let _ = l.forward(&x, true, &mut Workspace::new());
        l.zero_grad();
        let dy = Tensor::ones([3, 2]);
        let _ = l.backward(&dy, &mut Workspace::new());
        assert_eq!(l.b.as_ref().unwrap().grad.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn image_input_is_read_as_its_flattened_rows() {
        // VggMini's head: [n, 32, 2, 2] maps into fc(128→64)
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new_kaiming("l", 32 * 2 * 2, 64, &mut rng);
        let mut flat = l.clone();
        let x = init::randn([8, 32, 2, 2], 1.0, &mut rng);
        let dy = init::randn([8, 64], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let y = l.forward(&x, true, &mut ws);
        let dx = l.backward(&dy, &mut ws);
        let want_y = flat.forward(&x.reshaped([8, 128]), true, &mut ws);
        let want_dx = flat.backward(&dy, &mut ws);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(y.shape().dims(), &[8, 64]);
        assert_eq!(dx.shape().dims(), &[8, 32, 2, 2]);
        assert_eq!(bits(&y), bits(&want_y));
        assert_eq!(bits(&dx), bits(&want_dx));
        assert_eq!(bits(&l.w.grad), bits(&flat.w.grad));
        assert_eq!(
            bits(&l.b.as_ref().unwrap().grad),
            bits(&flat.b.as_ref().unwrap().grad)
        );
    }

    #[test]
    #[should_panic(expected = "Linear expects [n, …] with 12 values a row, got [2, 3, 2, 3]")]
    fn input_rows_must_hold_in_features_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new("l", 12, 2, &mut rng);
        let _ = l.forward(&Tensor::zeros([2, 3, 2, 3]), true, &mut Workspace::new());
    }

    #[test]
    fn no_bias_layer_has_one_param() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new_no_bias("l", 4, 4, &mut rng);
        let mut count = 0;
        l.visit_params(&mut |_| count += 1);
        assert_eq!(count, 1);
    }
}
