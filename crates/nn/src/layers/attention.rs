//! Multi-head self-attention (scaled dot-product), the core of the
//! Transformer-mini workload.

use crate::layers::linear::Linear;
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use selsync_tensor::attention::{self, Heads};
use selsync_tensor::{ops, Tensor};

/// Multi-head self-attention over batch-major `[batch*seq, dim]`
/// activations (row `b*seq + t` is token `t` of sequence `b`).
///
/// Like [`crate::layers::Embedding`], this is not a plain
/// tensor→tensor `Module` because it needs the `(batch, seq)` layout and
/// a causality flag; it exposes `forward_seq` / `backward_seq`, which
/// take the workspace like [`Module::forward`] / [`Module::backward`].
///
/// Between the projections every head of the batch runs at once in
/// [`selsync_tensor::attention`]'s lane layout, one (sequence, head) pair
/// a vector lane; the result is bit for bit the per-head softmax
/// attention, as the per-head oracle in this module's tests checks.
#[derive(Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    dim: usize,
    // caches, in the lane layout of `geometry`
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
    geometry: Heads,
}

impl MultiHeadSelfAttention {
    /// A fresh attention block with `heads` heads over `dim` channels.
    pub fn new(name: &str, dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            heads >= 1 && dim.is_multiple_of(heads),
            "dim must divide into heads"
        );
        MultiHeadSelfAttention {
            wq: Linear::new_no_bias(&format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new_no_bias(&format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new_no_bias(&format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(&format!("{name}.wo"), dim, dim, rng),
            dim,
            q: Tensor::zeros([0]),
            k: Tensor::zeros([0]),
            v: Tensor::zeros([0]),
            attn: Tensor::zeros([0]),
            geometry: Heads {
                batch: 0,
                heads,
                seq: 0,
                head_dim: dim / heads,
            },
        }
    }

    /// Forward pass over `[batch*seq, dim]` activations. Every temporary
    /// and the result come from `ws`; the q/k/v and attention-weight
    /// caches persist in the layer and are resized in place across steps.
    pub fn forward_seq(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        causal: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        assert_eq!(
            x.shape().dims(),
            &[batch * seq, self.dim],
            "layout mismatch"
        );
        let g = Heads {
            batch,
            seq,
            ..self.geometry
        };
        self.geometry = g;
        for (proj, cache) in [
            (&mut self.wq, &mut self.q),
            (&mut self.wk, &mut self.k),
            (&mut self.wv, &mut self.v),
        ] {
            let rows = proj.forward(x, true, ws);
            cache.ensure_shape([g.qkv_len()]);
            attention::to_lanes(g, rows.as_slice(), cache.as_mut_slice());
            ws.give(rows);
        }
        self.attn.ensure_shape([g.weights_len()]);
        let mut ctx_lanes = ws.take([g.qkv_len()]);
        attention::forward(
            g,
            causal,
            self.q.as_slice(),
            self.k.as_slice(),
            self.v.as_slice(),
            self.attn.as_mut_slice(),
            ctx_lanes.as_mut_slice(),
        );
        let mut ctx = ws.take([batch * seq, self.dim]);
        attention::from_lanes(g, ctx_lanes.as_slice(), ctx.as_mut_slice());
        ws.give(ctx_lanes);
        let y = self.wo.forward(&ctx, true, ws);
        ws.give(ctx);
        y
    }

    /// Backward pass; returns the gradient w.r.t. the input activations,
    /// drawn from `ws` like every temporary.
    pub fn backward_seq(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let g = self.geometry;
        let dctx = self.wo.backward(dy, ws);
        let mut dctx_lanes = ws.take([g.qkv_len()]);
        attention::to_lanes(g, dctx.as_slice(), dctx_lanes.as_mut_slice());
        ws.give(dctx);
        let mut dq = ws.take([g.qkv_len()]);
        let mut dk = ws.take([g.qkv_len()]);
        let mut dv = ws.take([g.qkv_len()]);
        attention::backward(
            g,
            self.q.as_slice(),
            self.k.as_slice(),
            self.v.as_slice(),
            self.attn.as_slice(),
            dctx_lanes.as_slice(),
            dq.as_mut_slice(),
            dk.as_mut_slice(),
            dv.as_mut_slice(),
        );
        ws.give(dctx_lanes);
        let mut dx = project_back(&mut self.wq, g, dq, ws);
        for (proj, lanes) in [(&mut self.wk, dk), (&mut self.wv, dv)] {
            let dxp = project_back(proj, g, lanes, ws);
            ops::add_assign(&mut dx, &dxp);
            ws.give(dxp);
        }
        dx
    }
}

/// Backward through one input projection of the gradient `lanes` w.r.t.
/// its output, which is given back.
fn project_back(proj: &mut Linear, g: Heads, lanes: Tensor, ws: &mut Workspace) -> Tensor {
    let mut rows = ws.take([g.batch * g.seq, g.heads * g.head_dim]);
    attention::from_lanes(g, lanes.as_slice(), rows.as_mut_slice());
    ws.give(lanes);
    let dx = proj.backward(&rows, ws);
    ws.give(rows);
    dx
}

impl ParamVisitor for MultiHeadSelfAttention {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params_mut(f);
        self.wk.visit_params_mut(f);
        self.wv.visit_params_mut(f);
        self.wo.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use selsync_tensor::init;
    use selsync_tensor::matmul::{matmul_into, matmul_nt_into, matmul_tn_into};

    // ---------------------------------------------------------------
    // The per-head path the lane kernel replaced, kept as its oracle:
    // one packed GEMM per product and one scalar softmax per row, per
    // (sequence, head).
    // ---------------------------------------------------------------

    /// Extract head `h` of sequence `b` from `[batch*seq, dim]` into a
    /// preallocated `[seq, head_dim]` tensor.
    fn slice_head_into(t: &Tensor, b: usize, h: usize, seq: usize, hd: usize, out: &mut Tensor) {
        for s in 0..seq {
            out.row_mut(s)
                .copy_from_slice(&t.row(b * seq + s)[h * hd..(h + 1) * hd]);
        }
    }

    /// Scatter `[seq, head_dim]` into head `h` of sequence `b` (overwrite).
    fn write_head_into(dst: &mut Tensor, src: &Tensor, b: usize, h: usize, seq: usize, hd: usize) {
        for s in 0..seq {
            dst.row_mut(b * seq + s)[h * hd..(h + 1) * hd].copy_from_slice(src.row(s));
        }
    }

    /// Numerically-stable in-place softmax of a row.
    fn softmax_in_place(row: &mut [f32]) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }

    /// Per-head forward over `[batch*seq, dim]` q, k, v: the context
    /// rows and the weights per (batch, head), each `[seq, seq]`.
    fn per_head_forward(
        g: Heads,
        causal: bool,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        let (batch, heads, seq, hd) = (g.batch, g.heads, g.seq, g.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut ctx = Tensor::zeros([batch * seq, heads * hd]);
        let mut attn = Vec::new();
        let mut qh = Tensor::zeros([seq, hd]);
        let mut kh = Tensor::zeros([seq, hd]);
        let mut vh = Tensor::zeros([seq, hd]);
        let mut out = Tensor::zeros([seq, hd]);
        for b in 0..batch {
            for h in 0..heads {
                slice_head_into(q, b, h, seq, hd, &mut qh);
                slice_head_into(k, b, h, seq, hd, &mut kh);
                slice_head_into(v, b, h, seq, hd, &mut vh);
                let mut scores = Tensor::zeros([seq, seq]);
                matmul_nt_into(&qh, &kh, &mut scores);
                ops::scale_assign(&mut scores, scale);
                for i in 0..seq {
                    let row = scores.row_mut(i);
                    if causal {
                        for v in row.iter_mut().skip(i + 1) {
                            *v = f32::NEG_INFINITY;
                        }
                    }
                    softmax_in_place(row);
                }
                matmul_into(&scores, &vh, &mut out);
                write_head_into(&mut ctx, &out, b, h, seq, hd);
                attn.push(scores);
            }
        }
        (ctx, attn)
    }

    /// Per-head backward: `(dq, dk, dv)` rows from the context gradient.
    fn per_head_backward(
        g: Heads,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        attn: &[Tensor],
        dctx: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (batch, heads, seq, hd) = (g.batch, g.heads, g.seq, g.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut dq = Tensor::zeros([batch * seq, heads * hd]);
        let mut dk = dq.clone();
        let mut dv = dq.clone();
        let mut dctx_h = Tensor::zeros([seq, hd]);
        let mut vh = Tensor::zeros([seq, hd]);
        let mut qh = Tensor::zeros([seq, hd]);
        let mut kh = Tensor::zeros([seq, hd]);
        let mut dvh = Tensor::zeros([seq, hd]);
        let mut dqh = Tensor::zeros([seq, hd]);
        let mut dkh = Tensor::zeros([seq, hd]);
        let mut da = Tensor::zeros([seq, seq]);
        for b in 0..batch {
            for h in 0..heads {
                let a = &attn[b * heads + h];
                slice_head_into(dctx, b, h, seq, hd, &mut dctx_h);
                slice_head_into(v, b, h, seq, hd, &mut vh);
                slice_head_into(q, b, h, seq, hd, &mut qh);
                slice_head_into(k, b, h, seq, hd, &mut kh);
                // dV = Aᵀ · dctx, dA = dctx · Vᵀ
                matmul_tn_into(a, &dctx_h, &mut dvh);
                matmul_nt_into(&dctx_h, &vh, &mut da);
                // softmax backward per row: dS = A ⊙ (dA - sum(dA ⊙ A))
                for i in 0..seq {
                    let arow = a.row(i);
                    let darow = da.row_mut(i);
                    let dot: f32 = darow.iter().zip(arow).map(|(x, y)| x * y).sum();
                    for (dv_, av) in darow.iter_mut().zip(arow) {
                        *dv_ = av * (*dv_ - dot);
                    }
                }
                ops::scale_assign(&mut da, scale);
                // dQ = dS · K ;  dK = dSᵀ · Q
                matmul_into(&da, &kh, &mut dqh);
                matmul_tn_into(&da, &qh, &mut dkh);
                write_head_into(&mut dq, &dqh, b, h, seq, hd);
                write_head_into(&mut dk, &dkh, b, h, seq, hd);
                write_head_into(&mut dv, &dvh, b, h, seq, hd);
            }
        }
        (dq, dk, dv)
    }

    /// The per-head layer: the same projections around the per-head core.
    struct PerHeadLayer {
        proj: [Linear; 4],
        heads: usize,
        cache: Option<(Heads, [Tensor; 3], Vec<Tensor>)>,
    }

    impl PerHeadLayer {
        fn of(a: &MultiHeadSelfAttention) -> Self {
            PerHeadLayer {
                proj: [a.wq.clone(), a.wk.clone(), a.wv.clone(), a.wo.clone()],
                heads: a.geometry.heads,
                cache: None,
            }
        }

        fn forward(&mut self, x: &Tensor, batch: usize, seq: usize, causal: bool) -> Tensor {
            let ws = &mut Workspace::new();
            let dim = x.shape().dim(1);
            let g = Heads {
                batch,
                heads: self.heads,
                seq,
                head_dim: dim / self.heads,
            };
            let [q, k, v] = [0, 1, 2].map(|p| self.proj[p].forward(x, true, ws));
            let (ctx, attn) = per_head_forward(g, causal, &q, &k, &v);
            self.cache = Some((g, [q, k, v], attn));
            self.proj[3].forward(&ctx, true, ws)
        }

        fn backward(&mut self, dy: &Tensor) -> Tensor {
            let ws = &mut Workspace::new();
            let (g, [q, k, v], attn) = self.cache.as_ref().expect("forward first");
            let dctx = self.proj[3].backward(dy, ws);
            let (dq, dk, dv) = per_head_backward(*g, q, k, v, attn, &dctx);
            let mut dx = self.proj[0].backward(&dq, ws);
            ops::add_assign(&mut dx, &self.proj[1].backward(&dk, ws));
            ops::add_assign(&mut dx, &self.proj[2].backward(&dv, ws));
            dx
        }

        fn zero_grad(&mut self) {
            for p in &mut self.proj {
                p.zero_grad();
            }
        }

        fn grads(&self) -> Vec<Vec<u32>> {
            let mut out = Vec::new();
            for p in &self.proj {
                p.visit_params(&mut |p| out.push(bits(&p.grad)));
            }
            out
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN as `f32::NAN`. Where NaNs of two payloads
    /// meet in one operation (a salted NaN and the default NaN of
    /// `−∞ − (−∞)` in a masked row's softmax, say), which payload
    /// survives depends on the operand order the compiler picks, and
    /// Rust leaves it unspecified; whether an element is NaN is compared.
    fn bits_nan_as_one(t: &Tensor) -> Vec<u32> {
        let canon = |x: &f32| if x.is_nan() { f32::NAN } else { *x };
        t.as_slice().iter().map(|x| canon(x).to_bits()).collect()
    }

    /// Asserts `got` and `want` equal by [`bits_nan_as_one`], naming the
    /// first differing element.
    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape().dims(), want.shape().dims(), "{what}");
        let first = bits_nan_as_one(got)
            .iter()
            .zip(bits_nan_as_one(want))
            .position(|(g, w)| *g != w);
        if let Some(e) = first {
            panic!(
                "{what}: element {e} is {:#010x}, the per-head path's {:#010x}",
                got.as_slice()[e].to_bits(),
                want.as_slice()[e].to_bits()
            );
        }
    }

    /// Head `h` of sequence `b`'s `[seq, seq]` weights from the layer's
    /// lane-layout cache.
    fn weights(a: &MultiHeadSelfAttention, b: usize, h: usize) -> Tensor {
        let g = a.geometry;
        let (ln, l) = (g.lanes(), b * g.heads + h);
        let w: Vec<f32> = (0..g.seq * g.seq)
            .map(|e| a.attn.as_slice()[e * ln + l])
            .collect();
        Tensor::from_vec(w, [g.seq, g.seq])
    }

    /// The (batch, heads, seq, head_dim) the oracle tests run: the
    /// TransformerMini training and eval shapes (16 and 32 lanes), a
    /// ragged last vector, one lane, and three heads over seven tokens.
    const SHAPES: [(usize, usize, usize, usize); 5] = [
        (8, 2, 12, 8),
        (16, 2, 12, 8),
        (3, 2, 5, 8),
        (1, 1, 1, 4),
        (5, 3, 7, 4),
    ];

    /// Rows `[batch*seq, heads*hd]` of seeded normals, salted per lane
    /// `l = b·heads + h` with one non-finite kind, `l % 4`: NaN, +∞, −∞
    /// or none, at a position that `which` (one per tensor) moves; and
    /// every lane some −0.0.
    fn salted(g: Heads, which: usize, rng: &mut StdRng) -> Tensor {
        let dim = g.heads * g.head_dim;
        let mut t = init::randn([g.batch * g.seq, dim], 1.0, rng);
        for b in 0..g.batch {
            for h in 0..g.heads {
                let l = b * g.heads + h;
                let row = t.row_mut(b * g.seq + (l + which) % g.seq);
                let d = h * g.head_dim + (l + which) % g.head_dim;
                row[d] = match l % 4 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => row[d],
                };
                let z = h * g.head_dim + (l + which + 1) % g.head_dim;
                if z != d {
                    row[z] = -0.0;
                }
            }
        }
        t
    }

    #[test]
    fn lane_kernel_matches_per_head_oracle_on_salted_inputs() {
        let mut rng = StdRng::seed_from_u64(11);
        for (batch, heads, seq, head_dim) in SHAPES {
            for causal in [true, false] {
                let g = Heads {
                    batch,
                    heads,
                    seq,
                    head_dim,
                };
                let what = format!("{g:?} causal={causal}");
                let [q, k, v, dctx] = [0, 1, 2, 3].map(|w| salted(g, w, &mut rng));
                let (ctx_o, mut attn_o) = per_head_forward(g, causal, &q, &k, &v);

                let lanes = |rows: &Tensor| {
                    let mut t = vec![f32::NAN; g.qkv_len()];
                    attention::to_lanes(g, rows.as_slice(), &mut t);
                    t
                };
                let rows = |lanes: &[f32]| {
                    let mut t = Tensor::zeros([batch * seq, heads * head_dim]);
                    attention::from_lanes(g, lanes, t.as_mut_slice());
                    t
                };
                let (ql, kl, vl) = (lanes(&q), lanes(&k), lanes(&v));
                let mut attn = vec![f32::NAN; g.weights_len()];
                let mut ctx = vec![f32::NAN; g.qkv_len()];
                attention::forward(g, causal, &ql, &kl, &vl, &mut attn, &mut ctx);
                assert_bits(&rows(&ctx), &ctx_o, &format!("ctx, {what}"));
                let ln = g.lanes();
                for (l, a) in attn_o.iter().enumerate() {
                    let got: Vec<f32> = (0..seq * seq).map(|e| attn[e * ln + l]).collect();
                    let got = Tensor::from_vec(got, [seq, seq]);
                    assert_bits(&got, a, &format!("weights of lane {l}, {what}"));
                }

                // a weight row of +0.0 against a dA row of negatives:
                // every product of the backward's dot is −0.0, so the dot
                // is its sum's neutral element
                let (i, l) = (seq - 1, batch * heads - 1);
                attn_o[l].row_mut(i).fill(0.0);
                for j in 0..seq {
                    attn[(i * seq + j) * ln + l] = 0.0;
                }
                let mut dctx = dctx;
                let (b, h) = (l / heads, l % heads);
                dctx.row_mut(b * seq + i)[h * head_dim..(h + 1) * head_dim].fill(-1.0);
                let mut v = v;
                for t in 0..seq {
                    for x in &mut v.row_mut(b * seq + t)[h * head_dim..(h + 1) * head_dim] {
                        *x = if x.is_finite() { x.abs().max(0.5) } else { 1.0 };
                    }
                }
                let vl = lanes(&v);

                let (dq_o, dk_o, dv_o) = per_head_backward(g, &q, &k, &v, &attn_o, &dctx);
                let dctxl = lanes(&dctx);
                let [mut dq, mut dk, mut dv] = [0; 3].map(|_| vec![f32::NAN; g.qkv_len()]);
                attention::backward(g, &ql, &kl, &vl, &attn, &dctxl, &mut dq, &mut dk, &mut dv);
                assert_bits(&rows(&dq), &dq_o, &format!("dq, {what}"));
                assert_bits(&rows(&dk), &dk_o, &format!("dk, {what}"));
                assert_bits(&rows(&dv), &dv_o, &format!("dv, {what}"));
            }
        }
    }

    #[test]
    fn iterator_sum_starts_from_negative_zero() {
        // the backward's dot starts from −0.0 because the per-head
        // path's `Iterator::sum` does on this toolchain
        let products = [-0.0f32, -0.0];
        let dot: f32 = products.iter().sum();
        assert_eq!(dot.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn layer_matches_per_head_layer_across_an_eval_forward() {
        for (batch, heads, seq, head_dim) in SHAPES {
            for causal in [true, false] {
                let what = format!("({batch}, {heads}, {seq}, {head_dim}) causal={causal}");
                let dim = heads * head_dim;
                let mut rng = StdRng::seed_from_u64(batch as u64 * 31 + seq as u64);
                let mut a = MultiHeadSelfAttention::new("a", dim, heads, &mut rng);
                let mut o = PerHeadLayer::of(&a);
                let mut ws = Workspace::new();
                for step in 0..2 {
                    let x = init::randn([batch * seq, dim], 1.0, &mut rng);
                    let dy = init::randn([batch * seq, dim], 1.0, &mut rng);
                    let y = a.forward_seq(&x, batch, seq, causal, &mut ws);
                    assert_eq!(
                        bits(&y),
                        bits(&o.forward(&x, batch, seq, causal)),
                        "y, {what}"
                    );
                    let attn_o = &o.cache.as_ref().expect("forward ran").2;
                    for (l, w) in attn_o.iter().enumerate() {
                        let got = weights(&a, l / heads, l % heads);
                        assert_eq!(bits(&got), bits(w), "weights, {what}");
                    }
                    a.zero_grad();
                    o.zero_grad();
                    let dx = a.backward_seq(&dy, &mut ws);
                    assert_eq!(bits(&dx), bits(&o.backward(&dy)), "dx, {what}, step {step}");
                    let mut grads = Vec::new();
                    a.visit_params(&mut |p| grads.push(bits(&p.grad)));
                    assert_eq!(grads, o.grads(), "parameter gradients, {what}");
                    ws.give(y);
                    ws.give(dx);
                    // an eval forward of another batch between the steps
                    let eval = init::randn([(batch + 1) * seq, dim], 1.0, &mut rng);
                    let ye = a.forward_seq(&eval, batch + 1, seq, causal, &mut ws);
                    assert_eq!(bits(&ye), bits(&o.forward(&eval, batch + 1, seq, causal)));
                    ws.give(ye);
                    // the next step's forward is the one its backward follows
                }
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = MultiHeadSelfAttention::new("a", 8, 2, &mut rng);
        let x = init::randn([4, 8], 1.0, &mut rng); // batch 1, seq 4
        let _ = a.forward_seq(&x, 1, 4, true, &mut Workspace::new());
        for h in 0..2 {
            let attn = weights(&a, 0, h);
            for i in 0..4 {
                for j in i + 1..4 {
                    assert_eq!(attn.at(&[i, j]), 0.0, "future attention must be zero");
                }
            }
        }
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = MultiHeadSelfAttention::new("a", 8, 2, &mut rng);
        let x = init::randn([6, 8], 1.0, &mut rng); // batch 2, seq 3
        let _ = a.forward_seq(&x, 2, 3, false, &mut Workspace::new());
        for (b, h) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let attn = weights(&a, b, h);
            for i in 0..3 {
                let s: f32 = attn.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }
    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = MultiHeadSelfAttention::new("a", 16, 4, &mut rng);
        let x = init::randn([8, 16], 1.0, &mut rng);
        let y = a.forward_seq(&x, 2, 4, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[8, 16]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = MultiHeadSelfAttention::new("a", 4, 2, &mut rng);
        let x = init::randn([4, 4], 0.5, &mut rng); // batch 2, seq 2
        let wts: Vec<f32> = (0..16).map(|i| ((i * 7) as f32 * 0.13).sin()).collect();
        let obj = |a: &mut MultiHeadSelfAttention, x: &Tensor| -> f32 {
            a.forward_seq(x, 2, 2, true, &mut Workspace::new())
                .as_slice()
                .iter()
                .zip(&wts)
                .map(|(p, q)| p * q)
                .sum()
        };
        let base = obj(&mut a, &x);
        a.zero_grad();
        let dy = Tensor::from_vec(wts.clone(), [4, 4]);
        let dx = a.backward_seq(&dy, &mut Workspace::new());
        let eps = 1e-2;
        for &i in &[0usize, 5, 11, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fd = (obj(&mut a, &xp) - base) / eps;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 0.05 * fd.abs().max(1.0),
                "dx[{i}] = {} vs fd {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = MultiHeadSelfAttention::new("a", 8, 2, &mut rng);
        // wq/wk/wv: 64 each (no bias), wo: 64 + 8 bias
        assert_eq!(a.num_params(), 64 * 4 + 8);
    }
}
