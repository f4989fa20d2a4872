//! `ResNetMini` — the skip-connection workload standing in for
//! ResNet101/CIFAR10 (§IV-A of the paper).
//!
//! Architecture over `[n, 3, 8, 8]` inputs:
//! `conv3x3(3→c) → bn → relu → ResBlock(c) → ResBlock(c→2c, stride 2)
//!  → ResBlock(2c) → global-avg-pool → fc(2c → classes)`.
//! The residual (identity shortcut) structure is the property the paper
//! leans on: skip-connection nets generalize better and tolerate long
//! stretches of local-SGD training (§IV-C).

use crate::batch::Input;
use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use crate::models::Model;
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_tensor::{ops, Tensor};

/// One pre-activation-free basic residual block
/// `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
#[derive(Clone)]
struct ResBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu_out: Relu,
    /// 1×1 projection when channel count or spatial size changes.
    shortcut: Option<(Conv2d, BatchNorm2d)>,
}

impl ResBlock {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        in_h: usize,
        in_w: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
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
        let shortcut = if stride != 1 || in_ch != out_ch {
            Some((
                Conv2d::new(
                    &format!("{name}.down"),
                    in_ch,
                    out_ch,
                    in_h,
                    in_w,
                    1,
                    stride,
                    0,
                    rng,
                ),
                BatchNorm2d::new(&format!("{name}.down_bn"), out_ch),
            ))
        } else {
            None
        };
        ResBlock {
            conv1,
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), out_ch),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), out_ch),
            relu_out: Relu::new(),
            shortcut,
        }
    }

    /// Forward pass. Convolution and batch-norm temporaries come from
    /// `ws`; the returned activation is heap-owned (ReLU output) so
    /// callers just drop it.
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let c1 = self.conv1.forward_ws(x, train, ws);
        let n1 = self.bn1.forward_ws(&c1, train, ws);
        ws.give(c1);
        let h = self.relu1.forward(&n1, train);
        ws.give(n1);
        let c2 = self.conv2.forward_ws(&h, train, ws);
        let mut sum = self.bn2.forward_ws(&c2, train, ws);
        ws.give(c2);
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward_ws(x, train, ws);
                let sb = bn.forward_ws(&s, train, ws);
                ws.give(s);
                ops::add_assign(&mut sum, &sb);
                ws.give(sb);
            }
            None => ops::add_assign(&mut sum, x),
        }
        let out = self.relu_out.forward(&sum, train);
        ws.give(sum);
        out
    }

    /// Backward pass. The returned `dx` is workspace-owned — the caller
    /// must `ws.give` it back once consumed.
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let dsum = self.relu_out.backward(dy);
        // main branch
        let g = self.bn2.backward_ws(&dsum, ws);
        let gc = self.conv2.backward_ws(&g, ws);
        ws.give(g);
        let gr = self.relu1.backward(&gc);
        ws.give(gc);
        let g = self.bn1.backward_ws(&gr, ws);
        let mut dx = self.conv1.backward_ws(&g, ws);
        ws.give(g);
        // skip branch
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = bn.backward_ws(&dsum, ws);
                let sc = conv.backward_ws(&s, ws);
                ws.give(s);
                ops::add_assign(&mut dx, &sc);
                ws.give(sc);
            }
            None => ops::add_assign(&mut dx, &dsum),
        }
        dx
    }

    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((c, b)) = &self.shortcut {
            c.visit_params(f);
            b.visit_params(f);
        }
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.bn2.visit_params_mut(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_params_mut(f);
            b.visit_params_mut(f);
        }
    }

    /// Scalar parameter count across the whole block (both branches).
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.numel());
        n
    }
}

/// The ResNet-style mini model (see module docs).
#[derive(Clone)]
pub struct ResNetMini {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    block1: ResBlock,
    block2: ResBlock,
    block3: ResBlock,
    pool: GlobalAvgPool,
    fc: Linear,
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
        let conv1 = Conv2d::new("conv1", 3, c, s, s, 3, 1, 1, &mut rng);
        let block1 = ResBlock::new("layer1_0", c, c, s, s, 1, &mut rng);
        let block2 = ResBlock::new("layer2_0", c, 2 * c, s, s, 2, &mut rng);
        let block3 = ResBlock::new("layer2_1", 2 * c, 2 * c, s / 2, s / 2, 1, &mut rng);
        let fc = Linear::new("fc", 2 * c, classes, &mut rng);
        ResNetMini {
            conv1,
            bn1: BatchNorm2d::new("bn1", c),
            relu1: Relu::new(),
            block1,
            block2,
            block3,
            pool: GlobalAvgPool::new(),
            fc,
            classes,
            ws: Workspace::new(),
        }
    }
}

impl ParamVisitor for ResNetMini {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.block1.visit(f);
        self.block2.visit(f);
        self.block3.visit(f);
        self.fc.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.block1.visit_mut(f);
        self.block2.visit_mut(f);
        self.block3.visit_mut(f);
        self.fc.visit_params_mut(f);
    }
}

impl Model for ResNetMini {
    fn forward(&mut self, input: &Input, train: bool) -> Tensor {
        let x = input.dense();
        let c1 = self.conv1.forward_ws(x, train, &mut self.ws);
        let n1 = self.bn1.forward_ws(&c1, train, &mut self.ws);
        self.ws.give(c1);
        let h = self.relu1.forward(&n1, train);
        self.ws.give(n1);
        let h = self.block1.forward(&h, train, &mut self.ws);
        let h = self.block2.forward(&h, train, &mut self.ws);
        let h = self.block3.forward(&h, train, &mut self.ws);
        let h = self.pool.forward(&h, train);
        // last layer stays on the allocating path: the logits escape to
        // the caller and would otherwise drain the arena every step
        self.fc.forward(&h, train)
    }

    fn backward(&mut self, dlogits: &Tensor) {
        self.backward_hooked(dlogits, &mut |_, _| {});
    }

    fn backward_hooked(
        &mut self,
        dlogits: &Tensor,
        hook: &mut dyn FnMut(usize, &dyn ParamVisitor),
    ) {
        // visit order conv1 bn1 block1 block2 block3 fc; a ResBlock's
        // backward finalizes every param in the block (both branches)
        // before returning, so the watermark steps down block-at-a-time.
        let mut watermark = self.num_params();
        let g = self.fc.backward_ws(dlogits, &mut self.ws);
        watermark -= self.fc.num_params();
        hook(watermark, &*self);
        let gp = self.pool.backward(&g);
        self.ws.give(g);
        let g3 = self.block3.backward(&gp, &mut self.ws);
        watermark -= self.block3.param_count();
        hook(watermark, &*self);
        let g2 = self.block2.backward(&g3, &mut self.ws);
        self.ws.give(g3);
        watermark -= self.block2.param_count();
        hook(watermark, &*self);
        let g1 = self.block1.backward(&g2, &mut self.ws);
        self.ws.give(g2);
        watermark -= self.block1.param_count();
        hook(watermark, &*self);
        let gr = self.relu1.backward(&g1);
        self.ws.give(g1);
        let g = self.bn1.backward_ws(&gr, &mut self.ws);
        watermark -= self.bn1.num_params();
        hook(watermark, &*self);
        let gc = self.conv1.backward_ws(&g, &mut self.ws);
        self.ws.give(g);
        self.ws.give(gc);
        watermark -= self.conv1.num_params();
        debug_assert_eq!(watermark, 0);
        hook(0, &*self);
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn name(&self) -> &'static str {
        "resnet_mini"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{flat_grads, flat_params, set_flat_params};
    use crate::loss::softmax_cross_entropy;
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
