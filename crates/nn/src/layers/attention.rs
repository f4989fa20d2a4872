//! Multi-head self-attention (scaled dot-product), the core of the
//! Transformer-mini workload.

use crate::layers::linear::Linear;
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use selsync_tensor::{ops, Tensor};

/// Multi-head self-attention over batch-major `[batch*seq, dim]`
/// activations (row `b*seq + t` is token `t` of sequence `b`).
///
/// Like [`crate::layers::Embedding`], this is not a plain
/// tensor→tensor `Module` because it needs the `(batch, seq)` layout and
/// a causality flag; it exposes `forward_seq` / `backward_seq`, which
/// take the workspace like [`Module::forward`] / [`Module::backward`].
#[derive(Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    head_dim: usize,
    // caches
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Vec<Tensor>, // softmax weights per (batch, head), each [seq, seq]
    batch: usize,
    seq: usize,
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
            heads,
            dim,
            head_dim: dim / heads,
            q: Tensor::zeros([0]),
            k: Tensor::zeros([0]),
            v: Tensor::zeros([0]),
            attn: Vec::new(),
            batch: 0,
            seq: 0,
        }
    }

    /// Forward pass over `[batch*seq, dim]` activations. Every temporary
    /// and the result come from `ws`; the q/k/v and attention-weight
    /// caches persist in the layer and are recycled in place across steps.
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
        self.batch = batch;
        self.seq = seq;
        let q = self.wq.forward(x, true, ws);
        ws.give(std::mem::replace(&mut self.q, q));
        let k = self.wk.forward(x, true, ws);
        ws.give(std::mem::replace(&mut self.k, k));
        let v = self.wv.forward(x, true, ws);
        ws.give(std::mem::replace(&mut self.v, v));
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let hd = self.head_dim;
        let mut ctx = ws.take([batch * seq, self.dim]);
        // Recycle attention-weight buffers when the batch shape changes.
        while self.attn.len() > batch * self.heads {
            let t = self.attn.pop().expect("length checked above");
            ws.give(t);
        }
        while self.attn.len() < batch * self.heads {
            self.attn.push(Tensor::zeros([0]));
        }
        let mut qh = ws.take([seq, hd]);
        let mut kh = ws.take([seq, hd]);
        let mut vh = ws.take([seq, hd]);
        let mut out = ws.take([seq, hd]);
        for b in 0..batch {
            for h in 0..self.heads {
                slice_head_into(&self.q, b, h, seq, hd, &mut qh);
                slice_head_into(&self.k, b, h, seq, hd, &mut kh);
                slice_head_into(&self.v, b, h, seq, hd, &mut vh);
                let scores = &mut self.attn[b * self.heads + h];
                scores.ensure_shape([seq, seq]);
                selsync_tensor::matmul::matmul_nt_into(&qh, &kh, scores);
                ops::scale_assign(scores, scale);
                for i in 0..seq {
                    let row = scores.row_mut(i);
                    if causal {
                        for v in row.iter_mut().skip(i + 1) {
                            *v = f32::NEG_INFINITY;
                        }
                    }
                    softmax_in_place(row);
                }
                selsync_tensor::matmul::matmul_into(scores, &vh, &mut out);
                write_head_into(&mut ctx, &out, b, h, seq, hd);
            }
        }
        ws.give(qh);
        ws.give(kh);
        ws.give(vh);
        ws.give(out);
        let y = self.wo.forward(&ctx, true, ws);
        ws.give(ctx);
        y
    }

    /// Backward pass; returns the gradient w.r.t. the input activations,
    /// drawn from `ws` like every temporary.
    pub fn backward_seq(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let (batch, seq) = (self.batch, self.seq);
        let (hd, heads) = (self.head_dim, self.heads);
        let scale = 1.0 / (hd as f32).sqrt();
        let dctx = self.wo.backward(dy, ws);
        let mut dq = ws.take([batch * seq, self.dim]);
        let mut dk = ws.take([batch * seq, self.dim]);
        let mut dv = ws.take([batch * seq, self.dim]);
        let mut dctx_h = ws.take([seq, hd]);
        let mut vh = ws.take([seq, hd]);
        let mut qh = ws.take([seq, hd]);
        let mut kh = ws.take([seq, hd]);
        let mut dvh = ws.take([seq, hd]);
        let mut dqh = ws.take([seq, hd]);
        let mut dkh = ws.take([seq, hd]);
        let mut da = ws.take([seq, seq]);
        for b in 0..batch {
            for h in 0..heads {
                let a = &self.attn[b * heads + h];
                slice_head_into(&dctx, b, h, seq, hd, &mut dctx_h);
                slice_head_into(&self.v, b, h, seq, hd, &mut vh);
                slice_head_into(&self.q, b, h, seq, hd, &mut qh);
                slice_head_into(&self.k, b, h, seq, hd, &mut kh);
                // dV = Aᵀ · dctx, dA = dctx · Vᵀ
                selsync_tensor::matmul::matmul_tn_into(a, &dctx_h, &mut dvh);
                selsync_tensor::matmul::matmul_nt_into(&dctx_h, &vh, &mut da);
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
                selsync_tensor::matmul::matmul_into(&da, &kh, &mut dqh);
                selsync_tensor::matmul::matmul_tn_into(&da, &qh, &mut dkh);
                write_head_into(&mut dq, &dqh, b, h, seq, hd);
                write_head_into(&mut dk, &dkh, b, h, seq, hd);
                write_head_into(&mut dv, &dvh, b, h, seq, hd);
            }
        }
        ws.give(dctx_h);
        ws.give(vh);
        ws.give(qh);
        ws.give(kh);
        ws.give(dvh);
        ws.give(dqh);
        ws.give(dkh);
        ws.give(da);
        ws.give(dctx);
        let mut dx = self.wq.backward(&dq, ws);
        let dxk = self.wk.backward(&dk, ws);
        ops::add_assign(&mut dx, &dxk);
        ws.give(dxk);
        let dxv = self.wv.backward(&dv, ws);
        ops::add_assign(&mut dx, &dxv);
        ws.give(dxv);
        ws.give(dq);
        ws.give(dk);
        ws.give(dv);
        dx
    }
}

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

/// Numerically-stable in-place softmax of a row.
pub fn softmax_in_place(row: &mut [f32]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use selsync_tensor::init;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut row);
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = MultiHeadSelfAttention::new("a", 8, 2, &mut rng);
        let x = init::randn([4, 8], 1.0, &mut rng); // batch 1, seq 4
        let _ = a.forward_seq(&x, 1, 4, true, &mut Workspace::new());
        for attn in &a.attn {
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
        for attn in &a.attn {
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
