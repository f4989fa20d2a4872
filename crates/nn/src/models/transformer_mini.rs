//! `TransformerMini` — the language-model workload standing in for the
//! paper's 2-layer Transformer encoder on WikiText-103 (§IV-A).
//!
//! Post-norm encoder layers (matching the paper's
//! `transformer_encoder_layers_0_norm1_weight` naming):
//! `x → attn → (+x) → norm1 → ffn → (+) → norm2`, with causal masking so
//! the model is trained on next-token prediction; logits share no weights
//! with the embedding (untied, like `nn.Transformer` reference code).

use crate::batch::Input;
use crate::layers::embedding::PositionalEncoding;
use crate::layers::{Embedding, Gelu, LayerNorm, Linear, MultiHeadSelfAttention};
use crate::models::sequential::{Sequential, Stage};
use crate::models::Model;
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_tensor::{ops, Tensor};

/// One post-norm Transformer encoder layer.
#[derive(Clone)]
pub(crate) struct EncoderLayer {
    attn: MultiHeadSelfAttention,
    norm1: LayerNorm,
    ff1: Linear,
    act: Gelu,
    ff2: Linear,
    norm2: LayerNorm,
    /// Tokens per sequence in the `[batch*seq, dim]` rows of the next
    /// forward: the one thing attention needs that a tensor→tensor
    /// signature cannot carry, so the model sets it before each pass.
    seq: usize,
}

impl EncoderLayer {
    fn new(name: &str, dim: usize, heads: usize, ff_dim: usize, rng: &mut StdRng) -> Self {
        EncoderLayer {
            attn: MultiHeadSelfAttention::new(&format!("{name}.self_attn"), dim, heads, rng),
            norm1: LayerNorm::new(&format!("{name}.norm1"), dim),
            ff1: Linear::new(&format!("{name}.linear1"), dim, ff_dim, rng),
            act: Gelu::new(),
            ff2: Linear::new(&format!("{name}.linear2"), ff_dim, dim, rng),
            norm2: LayerNorm::new(&format!("{name}.norm2"), dim),
            seq: 0,
        }
    }
}

impl ParamVisitor for EncoderLayer {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.attn.visit_params(f);
        self.norm1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.norm2.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params_mut(f);
        self.norm1.visit_params_mut(f);
        self.ff1.visit_params_mut(f);
        self.ff2.visit_params_mut(f);
        self.norm2.visit_params_mut(f);
    }
}

impl Module for EncoderLayer {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let batch = x.shape().dim(0) / self.seq;
        let mut a = self.attn.forward_seq(x, batch, self.seq, true, ws);
        ops::add_assign(&mut a, x);
        let h = self.norm1.forward(&a, train, ws);
        ws.give(a);
        let f1 = self.ff1.forward(&h, train, ws);
        let f = self.act.forward(&f1, train, ws);
        ws.give(f1);
        let mut f2 = self.ff2.forward(&f, train, ws);
        ws.give(f);
        ops::add_assign(&mut f2, &h);
        ws.give(h);
        let out = self.norm2.forward(&f2, train, ws);
        ws.give(f2);
        out
    }

    /// All five parameterised members finalize before this returns, so
    /// the enclosing list may announce the whole layer at once.
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let dsum2 = self.norm2.backward(dy, ws);
        // ffn branch
        let g2 = self.ff2.backward(&dsum2, ws);
        let ga = self.act.backward(&g2, ws);
        ws.give(g2);
        let mut g = self.ff1.backward(&ga, ws);
        ws.give(ga);
        // + residual into norm1 output
        ops::add_assign(&mut g, &dsum2);
        ws.give(dsum2);
        let dsum1 = self.norm1.backward(&g, ws);
        ws.give(g);
        // attention branch + residual into layer input
        let mut dx = self.attn.backward_seq(&dsum1, ws);
        ops::add_assign(&mut dx, &dsum1);
        ws.give(dsum1);
        dx
    }
}

/// The Transformer-style mini language model (see module docs).
#[derive(Clone)]
pub struct TransformerMini {
    /// The token embedding, then the encoder layers and the decoder head.
    net: Sequential,
    pos: PositionalEncoding,
    vocab: usize,
    /// The batch's token ids, flattened batch-major; kept across steps.
    ids: Vec<usize>,
    /// Scratch-buffer arena recycled across steps (`Clone` yields a fresh
    /// empty arena, so cloned models never share buffers).
    ws: Workspace,
}

impl TransformerMini {
    /// Embedding width (the paper uses 200; scaled down with the vocab).
    pub const DIM: usize = 16;
    /// Attention heads (the paper uses 2).
    pub const HEADS: usize = 2;
    /// Feed-forward width.
    pub const FF_DIM: usize = 32;
    /// Encoder layers (the paper uses 2).
    pub const LAYERS: usize = 2;
    /// Maximum sequence length supported (paper bptt = 35).
    pub const MAX_SEQ: usize = 64;

    /// Build with `vocab` output classes from a seed.
    pub fn new(vocab: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // the seeded RNG is consumed encoder layers, embedding, head —
        // not the visit order, which puts the embedding first
        let mut stages: Vec<Stage> = (0..Self::LAYERS)
            .map(|i| {
                Stage::Encoder(Box::new(EncoderLayer::new(
                    &format!("transformer_encoder.layers.{i}"),
                    Self::DIM,
                    Self::HEADS,
                    Self::FF_DIM,
                    &mut rng,
                )))
            })
            .collect();
        let embed = Embedding::new("embedding", vocab, Self::DIM, &mut rng);
        stages.push(Stage::Linear(Linear::new(
            "decoder",
            Self::DIM,
            vocab,
            &mut rng,
        )));
        TransformerMini {
            net: Sequential {
                embed: Some(embed),
                stages,
            },
            pos: PositionalEncoding::new(Self::MAX_SEQ, Self::DIM),
            vocab,
            ids: Vec::new(),
            ws: Workspace::new(),
        }
    }
}

impl ParamVisitor for TransformerMini {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.net.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params_mut(f);
    }
}

impl Model for TransformerMini {
    fn forward(&mut self, input: &Input, train: bool) -> Tensor {
        let seqs = input.tokens();
        let seq = seqs[0].len();
        assert!(seqs.iter().all(|s| s.len() == seq), "ragged batch");
        assert!(seq <= Self::MAX_SEQ, "sequence too long");
        self.ids.clear();
        self.ids.extend(seqs.iter().flatten());
        for stage in &mut self.net.stages {
            if let Stage::Encoder(layer) = stage {
                layer.seq = seq;
            }
        }
        let embed = self.net.embed.as_mut().expect("built with an embedding");
        let mut emb = embed.forward_tokens(&self.ids, &mut self.ws);
        self.pos.add_to(&mut emb, seq);
        let logits = self.net.forward(&emb, train, &mut self.ws, true);
        self.ws.give(emb);
        logits
    }

    fn backward(&mut self, dlogits: &Tensor) {
        self.backward_hooked(dlogits, &mut |_, _| {});
    }

    fn backward_hooked(
        &mut self,
        dlogits: &Tensor,
        hook: &mut dyn FnMut(usize, &dyn ParamVisitor),
    ) {
        // the stage walk stops at the embedding's parameter count; the
        // embedding is untied from the decoder head, so scattering its
        // gradient last keeps the finalized region a clean suffix
        let g = self.net.backward(dlogits, &mut self.ws, hook);
        let embed = self.net.embed.as_mut().expect("built with an embedding");
        embed.backward_tokens(&g);
        self.ws.give(g);
        hook(0, &self.net);
    }

    fn num_classes(&self) -> usize {
        self.vocab
    }

    fn name(&self) -> &'static str {
        "transformer_mini"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::flat::{flat_grads, flat_params, set_flat_params};
    use crate::loss::softmax_cross_entropy;

    fn batch() -> Batch {
        // two sequences of length 4 over a vocab of 16
        Batch::tokens(
            vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
            vec![2, 3, 4, 5, 6, 7, 8, 9],
        )
    }

    #[test]
    fn forward_shape_is_positions_by_vocab() {
        let mut m = TransformerMini::new(16, 0);
        let y = m.forward(&batch().input, true);
        assert_eq!(y.shape().dims(), &[8, 16]);
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past_logits() {
        let mut m = TransformerMini::new(16, 1);
        let a = m.forward(&Input::Tokens(vec![vec![1, 2, 3, 4]]), false);
        let b = m.forward(&Input::Tokens(vec![vec![1, 2, 9, 10]]), false);
        // logits at positions 0 and 1 must be identical (only tokens ≥ 2 differ)
        assert_eq!(a.row(0), b.row(0));
        assert_eq!(a.row(1), b.row(1));
        assert_ne!(a.row(2), b.row(2));
    }

    #[test]
    fn paper_layer_names_present() {
        let m = TransformerMini::new(16, 2);
        let mut names = Vec::new();
        m.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(names
            .iter()
            .any(|n| n == "transformer_encoder.layers.0.norm1.weight"));
        assert!(names.iter().any(|n| n == "decoder.weight"));
    }

    #[test]
    fn gradient_check_spot_samples() {
        let mut m = TransformerMini::new(8, 3);
        let b = Batch::tokens(vec![vec![1, 2, 3]], vec![2, 3, 4]);
        let logits = m.forward(&b.input, true);
        let (base, dl) = softmax_cross_entropy(&logits, &b.targets);
        m.zero_grad();
        m.backward(&dl);
        let grads = flat_grads(&m);
        let params = flat_params(&m);
        let eps = 1e-2;
        let n = params.len();
        // embedding row of token 1, an attention weight, an ffn weight,
        // and a decoder weight
        for &i in &[16usize, 200, n / 2, n - 3] {
            let mut p2 = params.clone();
            p2[i] += eps;
            let mut m2 = m.clone();
            set_flat_params(&mut m2, &p2);
            let l2 = m2.forward(&b.input, true);
            let (pert, _) = softmax_cross_entropy(&l2, &b.targets);
            let fd = (pert - base) / eps;
            assert!(
                (grads[i] - fd).abs() < 0.05 * fd.abs().max(0.2),
                "param {i}: analytic {} vs fd {fd}",
                grads[i]
            );
        }
    }

    #[test]
    fn training_reduces_perplexity_on_repetitive_sequence() {
        use crate::optim::{Optimizer, Sgd};
        let mut m = TransformerMini::new(8, 4);
        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        // cyclic language: 0 1 2 3 0 1 2 3 ... is fully predictable
        let seqs = vec![vec![0, 1, 2, 3, 0, 1, 2, 3]];
        let targets = vec![1, 2, 3, 0, 1, 2, 3, 0];
        let b = Batch::tokens(seqs, targets);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..80 {
            let logits = m.forward(&b.input, true);
            let (loss, dl) = softmax_cross_entropy(&logits, &b.targets);
            if step == 0 {
                first = loss;
            }
            last = loss;
            m.zero_grad();
            m.backward(&dl);
            opt.step(&mut m);
        }
        assert!(last < first * 0.7, "loss {first} → {last}");
    }
}
