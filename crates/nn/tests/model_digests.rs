//! Bit-identity gate for the five models: a 64-bit digest of every
//! gradient after one training step and of every parameter after five
//! SGD steps, at a fixed seed and batch. The constants were recorded at
//! the commit before the layer contract was unified (PR 23's parent) and
//! must never change unless a PR sets out to change the arithmetic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_nn::flat::{flat_grads, flat_params};
use selsync_nn::loss::softmax_cross_entropy;
use selsync_nn::models::{AlexNetMini, Mlp, Model, ResNetMini, TransformerMini, VggMini};
use selsync_nn::{Input, Optimizer, Sgd};
use selsync_tensor::init;

const SEED: u64 = 23;
const BATCH: usize = 8;
const SEQ: usize = 12;

/// FNV-1a over the IEEE-754 bits, in flat (`visit_params`) order.
fn digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(digest of flat_grads after step 1, digest of flat_params after step 5)`.
fn run(model: &mut dyn Model, input: &Input) -> (u64, u64) {
    let rows = match input {
        Input::Dense(x) => x.shape().dim(0),
        Input::Tokens(seqs) => seqs.iter().map(Vec::len).sum(),
    };
    let classes = model.num_classes();
    let targets: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % classes).collect();
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    let mut grads = 0;
    for step in 0..5 {
        let logits = model.forward(input, true);
        let (_, dl) = softmax_cross_entropy(&logits, &targets);
        model.zero_grad();
        model.backward(&dl);
        if step == 0 {
            grads = digest(&flat_grads(model));
        }
        opt.step(model);
    }
    (grads, digest(&flat_params(model)))
}

fn images() -> Input {
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    Input::Dense(init::randn([BATCH, 3, 8, 8], 1.0, &mut rng))
}

#[test]
fn mlp_digests_match_the_recorded_bits() {
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    let x = Input::Dense(init::randn([BATCH, 12], 1.0, &mut rng));
    let got = run(&mut Mlp::new(&[12, 10, 8, 4], SEED), &x);
    assert_eq!(got, (MLP.0, MLP.1), "{got:#x?}");
}

#[test]
fn vgg_digests_match_the_recorded_bits() {
    let got = run(&mut VggMini::new(20, SEED), &images());
    assert_eq!(got, (VGG.0, VGG.1), "{got:#x?}");
}

#[test]
fn alexnet_digests_match_the_recorded_bits() {
    let got = run(&mut AlexNetMini::new(20, SEED), &images());
    assert_eq!(got, (ALEXNET.0, ALEXNET.1), "{got:#x?}");
}

#[test]
fn resnet_digests_match_the_recorded_bits() {
    let got = run(&mut ResNetMini::new(10, SEED), &images());
    assert_eq!(got, (RESNET.0, RESNET.1), "{got:#x?}");
}

#[test]
fn transformer_digests_match_the_recorded_bits() {
    let seqs = (0..BATCH)
        .map(|b| (0..SEQ).map(|t| (b * 5 + t * 3 + 1) % 64).collect())
        .collect();
    let got = run(&mut TransformerMini::new(64, SEED), &Input::Tokens(seqs));
    assert_eq!(got, (TRANSFORMER.0, TRANSFORMER.1), "{got:#x?}");
}

// (grads after one step, params after five), recorded at the parent commit
const MLP: (u64, u64) = (0xb65c_9b76_1036_b290, 0x5f97_114b_c474_5c42);
const VGG: (u64, u64) = (0x578a_ff40_db51_d01a, 0x4baf_21ac_b7eb_fd86);
const ALEXNET: (u64, u64) = (0xf15d_f5bb_05f4_fe0d, 0xe5b8_cafb_ed29_9f95);
const RESNET: (u64, u64) = (0x2587_eced_2330_642b, 0xd3e9_6b7b_c9fb_e6e5);
const TRANSFORMER: (u64, u64) = (0x2c4f_485b_f92c_42be, 0x904a_3724_caf6_3b01);
