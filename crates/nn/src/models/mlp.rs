//! A configurable multi-layer perceptron — the fast workhorse model used
//! by unit/integration tests and overhead-measurement experiments.

use crate::layers::{Linear, Relu};
use crate::models::sequential::{Flatten, Sequential, Stage};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fully-connected ReLU network `dims[0] → … → dims.last()`.
#[derive(Clone)]
pub struct Mlp {
    net: Sequential,
    in_features: usize,
    classes: usize,
    /// Scratch-buffer arena recycled across steps (`Clone` yields a fresh
    /// empty arena, so cloned models never share buffers).
    ws: Workspace,
}

impl Mlp {
    /// Build an MLP with the given layer widths from a seed.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let mut rng = StdRng::seed_from_u64(seed);
        // accept [n, d] or flatten [n, c, h, w]
        let mut stages = vec![Stage::Flatten(Flatten::default())];
        for (i, io) in dims.windows(2).enumerate() {
            if i > 0 {
                stages.push(Stage::Relu(Relu::new()));
            }
            let name = format!("fc{i}");
            stages.push(Stage::Linear(Linear::new_kaiming(
                &name, io[0], io[1], &mut rng,
            )));
        }
        Mlp {
            net: Sequential::new(stages),
            in_features: dims[0],
            classes: dims[dims.len() - 1],
            ws: Workspace::new(),
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

dense_model!(Mlp, "mlp");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, Input};
    use crate::loss::softmax_cross_entropy;
    use crate::models::Model;
    use crate::module::ParamVisitor;
    use crate::optim::{Optimizer, Sgd};
    use selsync_tensor::init;
    use selsync_tensor::Tensor;

    #[test]
    fn forward_shapes() {
        let mut m = Mlp::new(&[4, 8, 3], 0);
        let y = m.forward(&Input::Dense(Tensor::zeros([5, 4])), true);
        assert_eq!(y.shape().dims(), &[5, 3]);
        assert_eq!(m.num_classes(), 3);
    }

    #[test]
    fn flattens_image_input() {
        let mut m = Mlp::new(&[12, 6, 2], 1);
        let y = m.forward(&Input::Dense(Tensor::zeros([2, 3, 2, 2])), true);
        assert_eq!(y.shape().dims(), &[2, 2]);
    }

    #[test]
    fn predict_ws_matches_forward_bit_exactly() {
        let mut m = Mlp::new(&[6, 12, 4], 7);
        let mut rng = StdRng::seed_from_u64(8);
        let x = init::randn([5, 6], 1.0, &mut rng);
        let want = m.forward(&Input::Dense(x.clone()), false);
        let mut ws = Workspace::new();
        let got = m.predict_ws(&x, &mut ws);
        assert_eq!(got.shape().dims(), want.shape().dims());
        let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "workspace predict must be bit-identical");
    }

    #[test]
    fn predict_ws_agrees_with_forward_on_a_negative_zero_preactivation() {
        // fc0's product underflows to -0.0 where the GEMM fuses its
        // multiply-add, and a -0.0 bias keeps the sign: the hidden
        // pre-activation `Relu` clamps with `<=` but a `< 0.0` test, as
        // predict_ws once inlined, lets through
        let mut m = Mlp::new(&[1, 1, 1], 0);
        crate::flat::set_flat_params(&mut m, &[-1e-30, -0.0, 1.0, -0.0]);
        let x = Tensor::from_vec(vec![1e-30], [1, 1]);
        let want = m.forward(&Input::Dense(x.clone()), false);
        let got = m.predict_ws(&x, &mut Workspace::new());
        assert_eq!(got.as_slice()[0].to_bits(), want.as_slice()[0].to_bits());
    }

    #[test]
    fn predict_ws_flattens_image_input() {
        let mut m = Mlp::new(&[12, 6, 2], 1);
        let mut ws = Workspace::new();
        let y = m.predict_ws(&Tensor::zeros([2, 3, 2, 2]), &mut ws);
        assert_eq!(y.shape().dims(), &[2, 2]);
    }

    #[test]
    fn gradient_check_through_two_layers() {
        let mut m = Mlp::new(&[3, 5, 2], 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::randn([4, 3], 1.0, &mut rng);
        let targets = vec![0usize, 1, 0, 1];
        let logits = m.forward(&Input::Dense(x.clone()), true);
        let (base, dlogits) = softmax_cross_entropy(&logits, &targets);
        m.zero_grad();
        m.backward(&dlogits);
        let grads = crate::flat::flat_grads(&m);

        let eps = 1e-3;
        let params = crate::flat::flat_params(&m);
        for &i in &[0usize, 7, 20, params.len() - 1] {
            let mut p2 = params.clone();
            p2[i] += eps;
            let mut m2 = m.clone();
            crate::flat::set_flat_params(&mut m2, &p2);
            let l2 = m2.forward(&Input::Dense(x.clone()), true);
            let (pert, _) = softmax_cross_entropy(&l2, &targets);
            let fd = (pert - base) / eps;
            assert!(
                (grads[i] - fd).abs() < 2e-2,
                "param {i}: analytic {} vs fd {fd}",
                grads[i]
            );
        }
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut m = Mlp::new(&[2, 16, 2], 4);
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        // simple separable task: sign of x0
        let x = init::randn([64, 2], 1.0, &mut rng);
        let targets: Vec<usize> = (0..64).map(|i| (x.at(&[i, 0]) > 0.0) as usize).collect();
        let batch = Batch::dense(x, targets);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let logits = m.forward(&batch.input, true);
            let (loss, dl) = softmax_cross_entropy(&logits, &batch.targets);
            if step == 0 {
                first = loss;
            }
            last = loss;
            m.zero_grad();
            m.backward(&dl);
            opt.step(&mut m);
        }
        assert!(last < first * 0.5, "loss {first} → {last} should halve");
    }
}
