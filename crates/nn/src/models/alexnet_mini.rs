//! `AlexNetMini` — the shallow-convolution workload standing in for
//! AlexNet/ImageNet-1K (§IV-A of the paper).
//!
//! Architecture over `[n, 3, 8, 8]` inputs:
//! `conv3x3(3→12) → relu → maxpool2 → conv3x3(12→24) → relu → maxpool2
//!  → flatten → dropout(0.5) → fc(96→48) → relu → fc(48 → classes)`.
//! Shallow and few-layered — the property that made SSP competitive on
//! AlexNet in the paper (staleness hurts less with fewer layers), trained
//! with Adam and evaluated by top-5 accuracy.

use crate::layers::{Conv2d, Dropout, Linear, MaxPool2d, Relu};
use crate::models::sequential::{Flatten, Sequential, Stage};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The AlexNet-style mini model (see module docs).
#[derive(Clone)]
pub struct AlexNetMini {
    net: Sequential,
    classes: usize,
    /// Scratch-buffer arena recycled across steps (`Clone` yields a fresh
    /// empty arena, so cloned models never share buffers).
    ws: Workspace,
}

impl AlexNetMini {
    /// Expected input spatial size.
    pub const IMAGE_SIZE: usize = 8;

    /// Build with `classes` outputs from a seed.
    pub fn new(classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Self::IMAGE_SIZE;
        let flat_dim = 24 * (s / 4) * (s / 4);
        // the seeded RNG is consumed in list order: conv, conv, fc, fc
        // (dropout draws from its own stream)
        let net = Sequential::new(vec![
            Stage::Conv2d(Conv2d::new("features.0", 3, 12, s, s, 3, 1, 1, &mut rng)),
            Stage::Relu(Relu::new()),
            Stage::MaxPool2d(MaxPool2d::new(2)),
            Stage::Conv2d(Conv2d::new(
                "features.3",
                12,
                24,
                s / 2,
                s / 2,
                3,
                1,
                1,
                &mut rng,
            )),
            Stage::Relu(Relu::new()),
            Stage::MaxPool2d(MaxPool2d::new(2)),
            Stage::Flatten(Flatten::default()),
            Stage::Dropout(Dropout::new(0.5, seed ^ 0xA1EC)),
            Stage::Linear(Linear::new_kaiming("classifier.1", flat_dim, 48, &mut rng)),
            Stage::Relu(Relu::new()),
            Stage::Linear(Linear::new("classifier.3", 48, classes, &mut rng)),
        ]);
        AlexNetMini {
            net,
            classes,
            ws: Workspace::new(),
        }
    }
}

dense_model!(AlexNetMini, "alexnet_mini");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Input;
    use crate::flat::{flat_grads, flat_params, set_flat_params};
    use crate::loss::softmax_cross_entropy;
    use crate::models::Model;
    use crate::module::ParamVisitor;
    use selsync_tensor::init;
    use selsync_tensor::Tensor;

    fn input(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        init::randn([n, 3, 8, 8], 1.0, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut m = AlexNetMini::new(20, 0);
        let y = m.forward(&Input::Dense(input(2, 1)), true);
        assert_eq!(y.shape().dims(), &[2, 20]);
    }

    #[test]
    fn dropout_only_active_in_train_mode() {
        let mut m = AlexNetMini::new(20, 2);
        let x = Input::Dense(input(2, 3));
        let a = m.forward(&x, false);
        let b = m.forward(&x, false);
        assert_eq!(a.as_slice(), b.as_slice(), "eval is deterministic");
        let c = m.forward(&x, true);
        assert_ne!(
            a.as_slice(),
            c.as_slice(),
            "dropout perturbs training output"
        );
    }

    #[test]
    fn gradient_check_eval_dropout_path() {
        // gradient-check with train=true is noisy under dropout, so check
        // through the deterministic eval path using a dropout-free clone.
        let mut m = AlexNetMini::new(4, 4);
        for stage in &mut m.net.stages {
            if let Stage::Dropout(d) = stage {
                *d = Dropout::new(0.0, 0);
            }
        }
        let x = input(2, 5);
        let targets = vec![1usize, 2];
        let logits = m.forward(&Input::Dense(x.clone()), true);
        let (base, dl) = softmax_cross_entropy(&logits, &targets);
        m.zero_grad();
        m.backward(&dl);
        let grads = flat_grads(&m);
        let params = flat_params(&m);
        let eps = 1e-2;
        let n = params.len();
        for &i in &[10usize, 500, n - 3] {
            let mut p2 = params.clone();
            p2[i] += eps;
            let mut m2 = m.clone();
            set_flat_params(&mut m2, &p2);
            let l2 = m2.forward(&Input::Dense(x.clone()), true);
            let (pert, _) = softmax_cross_entropy(&l2, &targets);
            let fd = (pert - base) / eps;
            assert!(
                (grads[i] - fd).abs() < 0.05 * fd.abs().max(0.2),
                "param {i}: analytic {} vs fd {fd}",
                grads[i]
            );
        }
    }
}
