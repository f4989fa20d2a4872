//! The mini model zoo standing in for the paper's four workloads.
//!
//! | Mini                | Paper workload             | Property preserved |
//! |---------------------|----------------------------|--------------------|
//! | [`ResNetMini`]      | ResNet101 on CIFAR10       | skip connections → robust to local training |
//! | [`VggMini`]         | VGG11 on CIFAR100          | plain deep conv stack → fragile under DefDP |
//! | [`AlexNetMini`]     | AlexNet on ImageNet-1K     | shallow; trained with Adam, top-5 metric |
//! | [`TransformerMini`] | Transformer on WikiText-103| attention LM, perplexity metric |
//!
//! Each model implements [`Model`]: `forward` consumes a [`Input`] and
//! yields logits `[rows, classes]`; `backward` consumes the logits
//! gradient. The cost model in `selsync-comm` uses
//! [`ModelKind::paper_model_bytes`] so timing figures reflect the
//! *paper's* model sizes, not the minis'.

/// [`ParamVisitor`] and [`Model`] for a dense-input model: a struct with
/// a stage list `net`, an arena `ws` and a class count `classes`. The
/// optional third argument names the [`sequential::Sequential`] method
/// the input goes through: `forward` (the default) for rows,
/// `forward_images` for an NCHW image batch the stages take
/// channel-major.
macro_rules! dense_model {
    ($model:ty, $name:literal) => {
        dense_model!($model, $name, forward);
    };
    ($model:ty, $name:literal, $entry:ident) => {
        impl $crate::module::ParamVisitor for $model {
            fn visit_params(&self, f: &mut dyn FnMut(&$crate::module::Param)) {
                self.net.visit_params(f);
            }
            fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut $crate::module::Param)) {
                self.net.visit_params_mut(f);
            }
        }

        impl $crate::models::Model for $model {
            fn forward(
                &mut self,
                input: &$crate::batch::Input,
                train: bool,
            ) -> selsync_tensor::Tensor {
                self.net.$entry(input.dense(), train, &mut self.ws, true)
            }

            fn backward(&mut self, dlogits: &selsync_tensor::Tensor) {
                self.backward_hooked(dlogits, &mut |_, _| {});
            }

            fn backward_hooked(
                &mut self,
                dlogits: &selsync_tensor::Tensor,
                hook: &mut dyn FnMut(usize, &dyn $crate::module::ParamVisitor),
            ) {
                // the input batch needs no gradient
                self.net.backward_params(dlogits, &mut self.ws, hook);
            }

            fn predict_ws(
                &mut self,
                x: &selsync_tensor::Tensor,
                ws: &mut $crate::workspace::Workspace,
            ) -> selsync_tensor::Tensor {
                self.net.$entry(x, false, ws, false)
            }

            fn num_classes(&self) -> usize {
                self.classes
            }

            fn name(&self) -> &'static str {
                $name
            }
        }
    };
}

pub mod alexnet_mini;
pub mod mlp;
pub mod resnet_mini;
pub(crate) mod sequential;
pub mod transformer_mini;
pub mod vgg_mini;

pub use alexnet_mini::AlexNetMini;
pub use mlp::Mlp;
pub use resnet_mini::ResNetMini;
pub use transformer_mini::TransformerMini;
pub use vgg_mini::VggMini;

use crate::batch::Input;
use crate::module::ParamVisitor;
use crate::workspace::Workspace;
use selsync_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable model: batch in, logits out.
pub trait Model: ParamVisitor + Send {
    /// Forward pass producing logits `[rows, classes]` (one row per
    /// sample, or per token position for language models).
    fn forward(&mut self, input: &Input, train: bool) -> Tensor;

    /// Backward pass from the logits gradient (as produced by
    /// [`crate::loss::softmax_cross_entropy`]).
    fn backward(&mut self, dlogits: &Tensor);

    /// Backward pass that reports gradient readiness as it runs.
    ///
    /// Every in-tree model runs backprop in exactly the *reverse* of its
    /// [`ParamVisitor::visit_params`] order, so mid-backward the
    /// finalized gradients always form a **suffix** of the flat
    /// parameter vector. After each parameterized stage finishes, `hook`
    /// is invoked with the new *watermark* — the flat offset below which
    /// gradients are still in flight. When `hook(w, m)` runs,
    /// `flat_grads(m)[w..]` is final and will not change for the rest of
    /// the pass.
    ///
    /// Contract (relied on by the bucketed gradient pipeline,
    /// DESIGN.md §12):
    /// - watermarks are strictly decreasing across calls and the final
    ///   call passes 0;
    /// - the gradients produced are bit-identical to a plain
    ///   [`Model::backward`] — the hook observes, it never reorders
    ///   arithmetic.
    ///
    /// The default ignores `hook` and delegates to [`Model::backward`]:
    /// correct for any model — callers must flush buckets that were
    /// never announced once this returns — but with zero
    /// compute/communication overlap. All in-tree models override it.
    fn backward_hooked(
        &mut self,
        dlogits: &Tensor,
        hook: &mut dyn FnMut(usize, &dyn ParamVisitor),
    ) {
        let _ = hook;
        self.backward(dlogits);
    }

    /// Inference entry point for the serving tier: logits
    /// `[rows, classes]` for a dense batch `x` of shape
    /// `[rows, features…]`, drawing every temporary *and the logits*
    /// from the caller's `ws`, so a steady-state predict loop allocates
    /// nothing after warmup. The caller should `give` the returned
    /// tensor back to `ws` once consumed to keep the arena balanced.
    ///
    /// Every dense-input model in the zoo overrides this with its
    /// evaluation-mode forward run against `ws`. The default is for
    /// models without such a path (and the token-input
    /// [`TransformerMini`], which rejects dense input): it delegates to
    /// [`Model::forward`] and ignores `ws`.
    fn predict_ws(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let _ = &mut *ws;
        self.forward(&Input::Dense(x.clone()), false)
    }

    /// Number of output classes (vocab size for language models).
    fn num_classes(&self) -> usize;

    /// Short name used in logs and experiment output.
    fn name(&self) -> &'static str;
}

/// Identifier of a paper workload; carries the metadata the experiment
/// harnesses need (paper-scale sizes, metric names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// ResNet101 / CIFAR10 analogue.
    ResNetMini,
    /// VGG11 / CIFAR100 analogue.
    VggMini,
    /// AlexNet / ImageNet-1K analogue.
    AlexNetMini,
    /// Transformer / WikiText-103 analogue.
    TransformerMini,
}

impl ModelKind {
    /// All four paper workloads, in Table-I order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::ResNetMini,
        ModelKind::VggMini,
        ModelKind::AlexNetMini,
        ModelKind::TransformerMini,
    ];

    /// The paper's name for the workload.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::ResNetMini => "ResNet101",
            ModelKind::VggMini => "VGG11",
            ModelKind::AlexNetMini => "AlexNet",
            ModelKind::TransformerMini => "Transformer",
        }
    }

    /// Size of the *paper's* model in bytes (fp32), used by the network
    /// cost model so communication/compute ratios match the paper's
    /// regime. VGG11 = 507 MB is stated in the paper (§I); the others are
    /// standard parameter counts × 4 bytes (ResNet101 ≈ 44.5 M,
    /// AlexNet ≈ 61 M, WikiText-103 Transformer w/ 200-d tied embedding
    /// ≈ 28 M).
    pub fn paper_model_bytes(self) -> u64 {
        match self {
            ModelKind::ResNetMini => 178_000_000,
            ModelKind::VggMini => 507_000_000,
            ModelKind::AlexNetMini => 233_000_000,
            ModelKind::TransformerMini => 112_000_000,
        }
    }

    /// The paper's evaluation metric for this workload.
    pub fn metric(self) -> &'static str {
        match self {
            ModelKind::ResNetMini => "top-1 accuracy",
            ModelKind::VggMini => "top-1 accuracy",
            ModelKind::AlexNetMini => "top-5 accuracy",
            ModelKind::TransformerMini => "perplexity",
        }
    }

    /// Whether lower metric values are better (perplexity) or higher
    /// (accuracy).
    pub fn lower_is_better(self) -> bool {
        matches!(self, ModelKind::TransformerMini)
    }

    /// Number of classes in the paired dataset substitute. The ratios
    /// mirror the paper's datasets — VGG's task has several times the
    /// labels of ResNet's (CIFAR100 vs CIFAR10), AlexNet's sits between
    /// (ImageNet-1K scaled down), the LM vocab is largest.
    pub fn default_classes(self) -> usize {
        match self {
            ModelKind::ResNetMini => 10,
            ModelKind::VggMini => 20,
            ModelKind::AlexNetMini => 20,
            ModelKind::TransformerMini => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flat_grads;
    use crate::layers::{GlobalAvgPool, Linear, Relu};
    use crate::loss::softmax_cross_entropy;
    use crate::models::resnet_mini::ResBlock;
    use crate::models::sequential::{Sequential, Stage};
    use crate::module::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selsync_tensor::init;

    /// The `backward_hooked` contract every model must satisfy: strictly
    /// decreasing watermarks ending at 0, each announced suffix already
    /// bit-final, and total grads bit-identical to plain `backward`.
    /// Returns the watermarks in the order the hook saw them.
    fn assert_hook_contract<M: Model>(mut build: impl FnMut() -> M, input: Input) -> Vec<usize> {
        // reference: plain backward on a fresh same-seed model
        let mut a = build();
        let logits = a.forward(&input, true);
        let rows = logits.shape().dim(0);
        let classes = a.num_classes();
        let targets: Vec<usize> = (0..rows).map(|i| i % classes).collect();
        let (_, dl) = softmax_cross_entropy(&logits, &targets);
        a.zero_grad();
        a.backward(&dl);
        let want = flat_grads(&a);

        // hooked pass on an identical twin
        let mut b = build();
        let logits_b = b.forward(&input, true);
        let (_, dl_b) = softmax_cross_entropy(&logits_b, &targets);
        b.zero_grad();
        let total = b.num_params();
        let mut marks: Vec<usize> = Vec::new();
        b.backward_hooked(&dl_b, &mut |w, m| {
            let partial = flat_grads(m);
            assert_eq!(partial.len(), total);
            let got: Vec<u32> = partial[w..].iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want[w..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "suffix at watermark {w} not yet final");
            marks.push(w);
        });
        assert!(!marks.is_empty(), "hook never fired");
        assert!(
            marks.windows(2).all(|p| p[0] > p[1]),
            "watermarks must strictly decrease: {marks:?}"
        );
        assert!(marks[0] < total, "first watermark excludes the last layer");
        assert_eq!(*marks.last().unwrap(), 0, "backward must finish at 0");
        let got: Vec<u32> = flat_grads(&b).iter().map(|v| v.to_bits()).collect();
        let exp: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, exp, "hooked grads must be bit-identical to plain");
        marks
    }

    fn image(n: usize, seed: u64) -> Input {
        let mut rng = StdRng::seed_from_u64(seed);
        Input::Dense(init::randn([n, 3, 8, 8], 1.0, &mut rng))
    }

    #[test]
    fn backward_hooked_contract_mlp() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = init::randn([3, 12], 1.0, &mut rng);
        assert_hook_contract(|| Mlp::new(&[12, 10, 8, 4], 7), Input::Dense(x));
    }

    #[test]
    fn backward_hooked_contract_vgg() {
        assert_hook_contract(|| VggMini::new(4, 5), image(2, 6));
    }

    #[test]
    fn backward_hooked_contract_alexnet() {
        assert_hook_contract(|| AlexNetMini::new(4, 5), image(2, 6));
    }

    #[test]
    fn backward_hooked_contract_resnet() {
        assert_hook_contract(|| ResNetMini::new(4, 5), image(2, 6));
    }

    #[test]
    fn backward_hooked_contract_transformer() {
        assert_hook_contract(
            || TransformerMini::new(16, 5),
            Input::Tokens(vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]),
        );
    }

    /// A bare stage list: a composite stage, then a parameter-free stage
    /// between two parameterised ones.
    #[derive(Clone)]
    struct Staged {
        net: Sequential,
        classes: usize,
        ws: Workspace,
    }

    dense_model!(Staged, "staged", forward_images);

    #[test]
    fn backward_hooked_contract_sequential() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            Staged {
                net: Sequential::new(vec![
                    Stage::ResBlock(ResBlock::new("block", 3, 4, 8, 8, 2, &mut rng)),
                    Stage::GlobalAvgPool(GlobalAvgPool::new()),
                    Stage::Linear(Linear::new("fc1", 4, 6, &mut rng)),
                    Stage::Relu(Relu::new()),
                    Stage::Linear(Linear::new("fc2", 6, 3, &mut rng)),
                ]),
                classes: 3,
                ws: Workspace::new(),
            }
        };
        let total = build().num_params();
        let marks = assert_hook_contract(build, image(2, 6));
        // one announcement per parameterised stage, none for the pool or
        // the ReLU, and the block (both branches) all at once
        let (fc2, fc1) = (6 * 3 + 3, 4 * 6 + 6);
        assert_eq!(marks, [total - fc2, total - fc2 - fc1, 0]);
    }

    struct Plain {
        p: Param,
    }

    impl ParamVisitor for Plain {
        fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
            f(&self.p);
        }
        fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    impl Model for Plain {
        fn forward(&mut self, _input: &Input, _train: bool) -> Tensor {
            Tensor::zeros([1, 1])
        }
        fn backward(&mut self, _dlogits: &Tensor) {
            self.p.grad.fill(1.0);
        }
        fn num_classes(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "plain"
        }
    }

    #[test]
    fn default_backward_hooked_delegates_without_announcing() {
        let mut m = Plain {
            p: Param::new("w", Tensor::zeros([2])),
        };
        let mut calls = 0;
        m.backward_hooked(&Tensor::zeros([1, 1]), &mut |_, _| calls += 1);
        assert_eq!(calls, 0, "default must not announce partial progress");
        assert_eq!(m.p.grad.as_slice(), &[1.0, 1.0], "still runs backward");
    }

    #[test]
    fn kinds_cover_table1_rows() {
        assert_eq!(ModelKind::ALL.len(), 4);
        assert_eq!(ModelKind::ResNetMini.paper_name(), "ResNet101");
        assert_eq!(ModelKind::VggMini.paper_model_bytes(), 507_000_000);
    }

    #[test]
    fn metric_direction() {
        assert!(ModelKind::TransformerMini.lower_is_better());
        assert!(!ModelKind::ResNetMini.lower_is_better());
    }
}
