//! Steady-state allocation discipline of the layer contract: after a
//! warmup step has sized the arena and the layer caches, repeated
//! `forward` + `backward` must draw every temporary from the workspace —
//! the arena's allocation counter stays flat. (`heap_allocations.rs`
//! checks the same steps against the global allocator.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_nn::layers::{
    BatchNorm, Conv2d, Gelu, LayerNorm, Linear, MaxPool2d, MultiHeadSelfAttention, Relu,
};
use selsync_nn::models::{Mlp, Model};
use selsync_nn::module::ParamVisitor;
use selsync_nn::{Module, Workspace};
use selsync_tensor::{init, Tensor};

/// Run `steps` forward+backward pairs, returning the arena's allocation
/// count after warmup and at the end.
fn drive(
    layer: &mut dyn Module,
    x: &Tensor,
    dy: &Tensor,
    ws: &mut Workspace,
    warmup: usize,
    steps: usize,
) -> (u64, u64) {
    let mut after_warmup = 0;
    for step in 0..warmup + steps {
        if step == warmup {
            after_warmup = ws.allocations();
        }
        let y = layer.forward(x, true, ws);
        ws.give(y);
        layer.zero_grad();
        let dx = layer.backward(dy, ws);
        ws.give(dx);
    }
    (after_warmup, ws.allocations())
}

#[test]
fn linear_steady_state_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut l = Linear::new("l", 64, 32, &mut rng);
    let x = init::randn([8, 64], 1.0, &mut rng);
    let dy = Tensor::ones([8, 32]);
    let mut ws = Workspace::new();
    let (start, end) = drive(&mut l, &x, &dy, &mut ws, 2, 8);
    assert!(start > 0, "warmup must have populated the arena");
    assert_eq!(end, start, "steady-state Linear steps must not allocate");
}

#[test]
fn conv2d_steady_state_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut c = Conv2d::new("c", 3, 8, 8, 8, 3, 1, 1, &mut rng);
    let x = init::randn([4, 3, 8, 8], 1.0, &mut rng);
    let dy = Tensor::ones([4, 8, 8, 8]);
    let mut ws = Workspace::new();
    let (start, end) = drive(&mut c, &x, &dy, &mut ws, 2, 8);
    assert!(start > 0, "warmup must have populated the arena");
    assert_eq!(end, start, "steady-state Conv2d steps must not allocate");
}

#[test]
fn batchnorm_steady_state_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut bn = BatchNorm::new("bn", 8);
    let x = init::randn([4, 8, 8, 8], 1.0, &mut rng);
    let dy = Tensor::ones([4, 8, 8, 8]);
    let mut ws = Workspace::new();
    let (start, end) = drive(&mut bn, &x, &dy, &mut ws, 2, 8);
    assert!(start > 0, "warmup must have populated the arena");
    assert_eq!(end, start, "steady-state BatchNorm steps must not allocate");
}

#[test]
fn layernorm_steady_state_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut ln = LayerNorm::new("ln", 16);
    let x = init::randn([96, 16], 1.0, &mut rng);
    let dy = Tensor::ones([96, 16]);
    let mut ws = Workspace::new();
    let (start, end) = drive(&mut ln, &x, &dy, &mut ws, 2, 8);
    assert!(start > 0, "warmup must have populated the arena");
    assert_eq!(end, start, "steady-state LayerNorm steps must not allocate");
}

#[test]
fn parameter_free_layers_are_allocation_free_in_steady_state() {
    let mut rng = StdRng::seed_from_u64(6);
    let x = init::randn([4, 8, 8, 8], 1.0, &mut rng);
    let rows: [(&str, Box<dyn Module>, Tensor); 3] = [
        ("Relu", Box::new(Relu::new()), Tensor::ones([4, 8, 8, 8])),
        (
            "MaxPool2d",
            Box::new(MaxPool2d::new(2)),
            Tensor::ones([4, 8, 4, 4]),
        ),
        ("Gelu", Box::new(Gelu::new()), Tensor::ones([4, 8, 8, 8])),
    ];
    for (name, mut layer, dy) in rows {
        let mut ws = Workspace::new();
        let (start, end) = drive(layer.as_mut(), &x, &dy, &mut ws, 2, 8);
        assert!(start > 0, "{name}: warmup must have populated the arena");
        assert_eq!(end, start, "steady-state {name} steps must not allocate");
    }
}

#[test]
fn gelu_follows_alternating_shapes_without_allocating() {
    // TransformerMini's feed-forward width; an eval forward on a batch
    // twice the training one sits between training steps. Once the
    // largest shape has been seen, outputs come from the arena's buffers
    // (`heap_allocations.rs` shows the layer's kept tensor resizing in
    // place too).
    let mut rng = StdRng::seed_from_u64(8);
    let mut g = Gelu::new();
    let train = init::randn([96, 32], 1.0, &mut rng);
    let eval = init::randn([192, 32], 1.0, &mut rng);
    let dy = Tensor::ones([96, 32]);
    let mut ws = Workspace::new();
    let mut after_warmup = 0;
    for step in 0..10 {
        if step == 2 {
            after_warmup = ws.allocations();
        }
        let y = g.forward(&eval, false, &mut ws);
        ws.give(y);
        let y = g.forward(&train, true, &mut ws);
        let dx = g.backward(&dy, &mut ws);
        ws.give(y);
        ws.give(dx);
    }
    assert!(after_warmup > 0, "warmup must have populated the arena");
    assert_eq!(ws.allocations(), after_warmup);
}

#[test]
fn attention_steady_state_is_allocation_free() {
    // TransformerMini's geometry; a smaller batch mid-run (the last,
    // short batch of an epoch) must be served from the same buffers
    let mut rng = StdRng::seed_from_u64(7);
    let mut attn = MultiHeadSelfAttention::new("a", 16, 2, &mut rng);
    let big = init::randn([8 * 12, 16], 1.0, &mut rng);
    let small = init::randn([3 * 12, 16], 1.0, &mut rng);
    let mut ws = Workspace::new();
    let mut after_warmup = 0;
    for step in 0..10 {
        if step == 2 {
            after_warmup = ws.allocations();
        }
        let (x, batch) = if step % 4 == 3 {
            (&small, 3)
        } else {
            (&big, 8)
        };
        let y = attn.forward_seq(x, batch, 12, true, &mut ws);
        attn.zero_grad();
        let dx = attn.backward_seq(&y, &mut ws);
        ws.give(y);
        ws.give(dx);
    }
    assert!(after_warmup > 0, "warmup must have populated the arena");
    assert_eq!(ws.allocations(), after_warmup);
}

#[test]
fn mlp_predict_steady_state_is_allocation_free() {
    // The serving hot path: after one warmup batch at the largest row
    // count, repeated predict_ws calls (including smaller batches, as a
    // dynamic batcher produces) must draw every temporary from the
    // arena. Mirrors the layer-level assertions above at model level.
    let mut rng = StdRng::seed_from_u64(3);
    let mut m = Mlp::new(&[16, 32, 8], 9);
    let big = init::randn([8, 16], 1.0, &mut rng);
    let small = init::randn([3, 16], 1.0, &mut rng);
    let mut ws = Workspace::new();
    let y = m.predict_ws(&big, &mut ws);
    ws.give(y);
    let after_warmup = ws.allocations();
    assert!(after_warmup > 0, "warmup must have populated the arena");
    for step in 0..16 {
        let x = if step % 3 == 0 { &small } else { &big };
        let y = m.predict_ws(x, &mut ws);
        ws.give(y);
    }
    assert_eq!(
        ws.allocations(),
        after_warmup,
        "steady-state predict must not allocate"
    );
}

#[test]
fn shared_arena_across_layers_stays_flat() {
    // A Linear and a Conv2d sharing one arena (as models do) must also
    // reach a fixed point: best-fit take never steals a buffer it can't
    // return in equivalent capacity.
    let mut rng = StdRng::seed_from_u64(2);
    let mut c = Conv2d::new("c", 3, 4, 8, 8, 3, 1, 1, &mut rng);
    let mut l = Linear::new("l", 4 * 8 * 8, 16, &mut rng);
    let xc = init::randn([2, 3, 8, 8], 1.0, &mut rng);
    let dyc = Tensor::ones([2, 4, 8, 8]);
    let xl = init::randn([2, 4 * 8 * 8], 1.0, &mut rng);
    let dyl = Tensor::ones([2, 16]);
    let mut ws = Workspace::new();
    let mut after_warmup = 0;
    for step in 0..10 {
        if step == 2 {
            after_warmup = ws.allocations();
        }
        let y = c.forward(&xc, true, &mut ws);
        ws.give(y);
        c.zero_grad();
        let dx = c.backward(&dyc, &mut ws);
        ws.give(dx);
        let y = l.forward(&xl, true, &mut ws);
        ws.give(y);
        l.zero_grad();
        let dx = l.backward(&dyl, &mut ws);
        ws.give(dx);
    }
    assert!(after_warmup > 0);
    assert_eq!(ws.allocations(), after_warmup);
}
