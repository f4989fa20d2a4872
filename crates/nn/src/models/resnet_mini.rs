//! `ResNetMini` — the skip-connection workload standing in for
//! ResNet101/CIFAR10 (§IV-A of the paper).
//!
//! Architecture over `[n, 3, 8, 8]` inputs:
//! `conv3x3(3→c) → bn → relu → ResBlock(c) → ResBlock(c→2c, stride 2)
//!  → ResBlock(2c) → global-avg-pool → fc(2c → classes)`.
//! The residual (identity shortcut) structure is the property the paper
//! leans on: skip-connection nets generalize better and tolerate long
//! stretches of local-SGD training (§IV-C).

use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use crate::models::sequential::{Sequential, Stage};
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_tensor::{ops, Tensor};

/// One pre-activation-free basic residual block
/// `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
#[derive(Clone)]
pub(crate) struct ResBlock {
    /// `conv1 → bn1 → relu → conv2 → bn2`.
    main: Sequential,
    /// 1×1 projection `conv → bn` when channel count or spatial size
    /// changes; the identity otherwise.
    shortcut: Option<Sequential>,
    relu_out: Relu,
}

impl ResBlock {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        in_h: usize,
        in_w: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        // the seeded RNG is consumed conv1, conv2, projection
        let conv1 = Conv2d::new(
            &format!("{name}.conv1"),
            in_ch,
            out_ch,
            in_h,
            in_w,
            3,
            stride,
            1,
            rng,
        );
        let (oh, ow) = (conv1.out_h(), conv1.out_w());
        let conv2 = Conv2d::new(
            &format!("{name}.conv2"),
            out_ch,
            out_ch,
            oh,
            ow,
            3,
            1,
            1,
            rng,
        );
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            let down = Conv2d::new(
                &format!("{name}.down"),
                in_ch,
                out_ch,
                in_h,
                in_w,
                1,
                stride,
                0,
                rng,
            );
            Sequential::new(vec![
                Stage::Conv2d(down),
                Stage::BatchNorm2d(BatchNorm2d::new(&format!("{name}.down_bn"), out_ch)),
            ])
        });
        ResBlock {
            main: Sequential::new(vec![
                Stage::Conv2d(conv1),
                Stage::BatchNorm2d(BatchNorm2d::new(&format!("{name}.bn1"), out_ch)),
                Stage::Relu(Relu::new()),
                Stage::Conv2d(conv2),
                Stage::BatchNorm2d(BatchNorm2d::new(&format!("{name}.bn2"), out_ch)),
            ]),
            shortcut,
            relu_out: Relu::new(),
        }
    }
}

impl ParamVisitor for ResBlock {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.main.visit_params(f);
        if let Some(s) = &self.shortcut {
            s.visit_params(f);
        }
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params_mut(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params_mut(f);
        }
    }
}

impl Module for ResBlock {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut sum = self.main.forward(x, train, ws, false);
        match &mut self.shortcut {
            Some(s) => {
                let sb = s.forward(x, train, ws, false);
                ops::add_assign(&mut sum, &sb);
                ws.give(sb);
            }
            None => ops::add_assign(&mut sum, x),
        }
        let out = self.relu_out.forward(&sum, train, ws);
        ws.give(sum);
        out
    }

    /// Both branches finalize before this returns, so the enclosing
    /// list may announce the whole block's parameters at once.
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let dsum = self.relu_out.backward(dy, ws);
        let mut dx = self.main.backward(&dsum, ws, &mut |_, _| {});
        match &mut self.shortcut {
            Some(s) => {
                let sc = s.backward(&dsum, ws, &mut |_, _| {});
                ops::add_assign(&mut dx, &sc);
                ws.give(sc);
            }
            None => ops::add_assign(&mut dx, &dsum),
        }
        ws.give(dsum);
        dx
    }
}

/// The ResNet-style mini model (see module docs).
#[derive(Clone)]
pub struct ResNetMini {
    net: Sequential,
    classes: usize,
    /// Scratch-buffer arena recycled across steps (`Clone` yields a fresh
    /// empty arena, so cloned models never share buffers).
    ws: Workspace,
}

impl ResNetMini {
    /// Default width (base channel count).
    pub const BASE_CHANNELS: usize = 8;
    /// Expected input spatial size.
    pub const IMAGE_SIZE: usize = 8;

    /// Build with `classes` outputs from a seed.
    pub fn new(classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = Self::BASE_CHANNELS;
        let s = Self::IMAGE_SIZE;
        // the seeded RNG is consumed in list order: conv, blocks, fc
        let net = Sequential::new(vec![
            Stage::Conv2d(Conv2d::new("conv1", 3, c, s, s, 3, 1, 1, &mut rng)),
            Stage::BatchNorm2d(BatchNorm2d::new("bn1", c)),
            Stage::Relu(Relu::new()),
            Stage::ResBlock(ResBlock::new("layer1_0", c, c, s, s, 1, &mut rng)),
            Stage::ResBlock(ResBlock::new("layer2_0", c, 2 * c, s, s, 2, &mut rng)),
            Stage::ResBlock(ResBlock::new(
                "layer2_1",
                2 * c,
                2 * c,
                s / 2,
                s / 2,
                1,
                &mut rng,
            )),
            Stage::GlobalAvgPool(GlobalAvgPool::new()),
            Stage::Linear(Linear::new("fc", 2 * c, classes, &mut rng)),
        ]);
        ResNetMini {
            net,
            classes,
            ws: Workspace::new(),
        }
    }
}

dense_model!(ResNetMini, "resnet_mini");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Input;
    use crate::flat::{flat_grads, flat_params, set_flat_params};
    use crate::loss::softmax_cross_entropy;
    use crate::models::Model;
    use selsync_tensor::init;

    fn input(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        init::randn([n, 3, 8, 8], 1.0, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut m = ResNetMini::new(10, 0);
        let y = m.forward(&Input::Dense(input(4, 1)), true);
        assert_eq!(y.shape().dims(), &[4, 10]);
    }

    #[test]
    fn same_seed_builds_identical_models() {
        let a = ResNetMini::new(10, 7);
        let b = ResNetMini::new(10, 7);
        assert_eq!(flat_params(&a), flat_params(&b));
    }

    #[test]
    fn has_downsample_shortcut_params() {
        let m = ResNetMini::new(10, 0);
        let mut names = Vec::new();
        m.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(
            names.iter().any(|n| n.contains("down")),
            "projection shortcut exists"
        );
        assert!(names.iter().any(|n| n == "layer1_0.conv1.weight"));
    }

    #[test]
    fn gradient_check_spot_samples() {
        let mut m = ResNetMini::new(4, 3);
        let x = input(2, 4);
        let targets = vec![1usize, 3];
        let logits = m.forward(&Input::Dense(x.clone()), true);
        let (base, dl) = softmax_cross_entropy(&logits, &targets);
        m.zero_grad();
        m.backward(&dl);
        let grads = flat_grads(&m);
        let params = flat_params(&m);
        let eps = 1e-2;
        // fc weights (last params) have the cleanest signal; check a few
        // spread across the net including conv1.
        let n = params.len();
        for &i in &[0usize, 40, n - 5, n - 1] {
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

    #[test]
    fn training_step_changes_all_trainable_params() {
        use crate::optim::{Optimizer, Sgd};
        let mut m = ResNetMini::new(4, 5);
        let before = flat_params(&m);
        let x = input(4, 6);
        let logits = m.forward(&Input::Dense(x), true);
        let (_, dl) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        m.zero_grad();
        m.backward(&dl);
        Sgd::new(0.1).step(&mut m);
        let after = flat_params(&m);
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(
            changed > before.len() / 2,
            "most parameters should move ({changed}/{})",
            before.len()
        );
    }
}
