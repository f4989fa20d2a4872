//! `VggMini` — the plain deep-convolution workload standing in for
//! VGG11/CIFAR100 (§IV-A of the paper).
//!
//! Architecture over `[n, 3, 8, 8]` inputs:
//! `conv3x3(3→16) → relu → maxpool2 → conv3x3(16→32) → relu → maxpool2
//!  → fc(32·2·2 = 128→64) → relu → fc(64 → classes)`, the first fc reading
//! each image's `[32, 2, 2]` maps as one row.
//! No skip connections and no batch-norm — the "simpler convolution-based
//! architecture" whose generalization suffers most under DefDP (§IV-C).

use crate::layers::{Conv2d, Linear, MaxPool2d, Relu};
use crate::models::sequential::{Sequential, Stage};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The VGG-style mini model (see module docs).
#[derive(Clone)]
pub struct VggMini {
    net: Sequential,
    classes: usize,
    /// Scratch-buffer arena recycled across steps (`Clone` yields a fresh
    /// empty arena, so cloned models never share buffers).
    ws: Workspace,
}

impl VggMini {
    /// Expected input spatial size.
    pub const IMAGE_SIZE: usize = 8;

    /// Build with `classes` outputs from a seed.
    pub fn new(classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Self::IMAGE_SIZE;
        let flat_dim = 32 * (s / 4) * (s / 4);
        // the seeded RNG is consumed in list order: conv, conv, fc, fc
        let net = Sequential::new(vec![
            Stage::Conv2d(Conv2d::new("features.0", 3, 16, s, s, 3, 1, 1, &mut rng)),
            Stage::Relu(Relu::new()),
            Stage::MaxPool2d(MaxPool2d::new(2)),
            Stage::Conv2d(Conv2d::new(
                "features.3",
                16,
                32,
                s / 2,
                s / 2,
                3,
                1,
                1,
                &mut rng,
            )),
            Stage::Relu(Relu::new()),
            Stage::MaxPool2d(MaxPool2d::new(2)),
            Stage::Linear(Linear::new_kaiming("classifier.0", flat_dim, 64, &mut rng)),
            Stage::Relu(Relu::new()),
            Stage::Linear(Linear::new("classifier.2", 64, classes, &mut rng)),
        ]);
        VggMini {
            net,
            classes,
            ws: Workspace::new(),
        }
    }
}

dense_model!(VggMini, "vgg_mini");

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
    fn forward_shape_and_determinism() {
        let mut m = VggMini::new(100, 0);
        let y = m.forward(&Input::Dense(input(3, 1)), true);
        assert_eq!(y.shape().dims(), &[3, 100]);
        assert_eq!(
            flat_params(&VggMini::new(100, 9)),
            flat_params(&VggMini::new(100, 9))
        );
    }

    #[test]
    fn no_norm_layers_all_params_weight_or_bias() {
        let m = VggMini::new(10, 0);
        let mut count = 0;
        m.visit_params(&mut |p| {
            assert!(p.name.ends_with(".weight") || p.name.ends_with(".bias"));
            count += 1;
        });
        assert_eq!(count, 8, "4 layers × (weight, bias)");
    }

    #[test]
    fn gradient_check_spot_samples() {
        let mut m = VggMini::new(4, 2);
        let x = input(2, 3);
        let targets = vec![2usize, 0];
        let logits = m.forward(&Input::Dense(x.clone()), true);
        let (base, dl) = softmax_cross_entropy(&logits, &targets);
        m.zero_grad();
        m.backward(&dl);
        let grads = flat_grads(&m);
        let params = flat_params(&m);
        let eps = 1e-2;
        let n = params.len();
        for &i in &[5usize, 300, n - 10, n - 1] {
            let mut p2 = params.clone();
            p2[i] += eps;
            let mut m2 = m.clone();
            set_flat_params(&mut m2, &p2);
            let l2 = m2.forward(&Input::Dense(x.clone()), true);
            let (pert, _) = softmax_cross_entropy(&l2, &targets);
            let fd = (pert - base) / eps;
            // one-sided finite differences carry O(eps) curvature error
            assert!(
                (grads[i] - fd).abs() < 0.08 * fd.abs().max(0.2),
                "param {i}: analytic {} vs fd {fd}",
                grads[i]
            );
        }
    }
}
