//! Serving-tier allocation discipline, the analogue of the training
//! tier's `crates/nn/tests/steady_state_alloc.rs`: after one warmup
//! batch at the largest row count, every steady-state predict call —
//! including smaller and varying batch sizes, and across parameter
//! reloads — takes all of its temporaries from the workspace arena
//! without allocating.

use selsync_nn::flat::flat_params;
use selsync_nn::models::{Mlp, ModelKind};
use selsync_serve::{ModelSpec, PredictEngine};

fn engine(dims: &[usize], seed: u64) -> PredictEngine {
    let params = flat_params(&Mlp::new(dims, seed));
    PredictEngine::new(
        &ModelSpec::Mlp {
            dims: dims.to_vec(),
        },
        0,
        &params,
    )
    .expect("params fit the spec by construction")
}

#[test]
fn steady_state_predict_is_allocation_free() {
    let mut e = engine(&[16, 32, 8], 3);
    e.warmup(8, &[16]);
    let baseline = e.allocations();
    assert!(baseline > 0, "warmup must have populated the arena");
    // vary the batch size every call — the router's deadline path
    // produces partial batches, so flat allocations must hold for
    // every rows <= warmup rows, not just the warmup size
    for step in 0..32u32 {
        let rows = 1 + (step as usize % 8);
        let data = vec![0.25; rows * 16];
        let out = e.predict(&data, &[16]).expect("well-shaped batch");
        assert_eq!(out.len(), rows * 8);
        assert_eq!(
            e.allocations(),
            baseline,
            "predict with {rows} rows allocated at step {step}"
        );
    }
}

#[test]
fn conv_model_predict_is_allocation_free_too() {
    // every dense-input model predicts against the engine's arena, not
    // only the MLP: a VggMini replica, built the way `--model vgg` does
    let spec = ModelSpec::Kind {
        kind: ModelKind::VggMini,
        data_scale: 64,
    };
    let params = flat_params(spec.build(7).as_visitor());
    let mut e = PredictEngine::new(&spec, 0, &params).expect("params fit the spec");
    let dims = [3, 8, 8];
    e.warmup(8, &dims);
    let baseline = e.allocations();
    assert!(
        baseline > 1,
        "the model's temporaries, not only the input batch, come from the engine's arena"
    );
    for step in 0..16u32 {
        let rows = 1 + (step as usize % 8);
        let data = vec![0.25; rows * 3 * 8 * 8];
        let out = e.predict(&data, &dims).expect("well-shaped batch");
        assert_eq!(out.len(), rows * e.classes());
        assert_eq!(
            e.allocations(),
            baseline,
            "predict with {rows} rows allocated at step {step}"
        );
    }
}

#[test]
fn parameter_reload_does_not_allocate_in_the_arena() {
    let dims = [16, 32, 8];
    let gen_a = flat_params(&Mlp::new(&dims, 1));
    let gen_b = flat_params(&Mlp::new(&dims, 2));
    let mut e = engine(&dims, 1);
    e.warmup(8, &[16]);
    let baseline = e.allocations();
    let data = vec![0.5; 4 * 16];
    for swap in 0..6 {
        let params = if swap % 2 == 0 { &gen_b } else { &gen_a };
        e.set_params(params).expect("matching parameter count");
        e.predict(&data, &[16]).expect("well-shaped batch");
        assert_eq!(
            e.allocations(),
            baseline,
            "reload {swap} perturbed the arena"
        );
    }
}
