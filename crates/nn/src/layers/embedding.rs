//! Token embedding table (and sinusoidal positional encoding).
//!
//! `Embedding` is not a tensor→tensor [`crate::module::Module`] — its
//! input is token ids — so it exposes explicit `forward_tokens` /
//! `backward_tokens` methods and participates in parameter visits through
//! [`ParamVisitor`].

use crate::module::{Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use selsync_tensor::{init, Tensor};

/// A learned lookup table `[vocab, dim]` mapping token ids to vectors.
#[derive(Clone)]
pub struct Embedding {
    /// Embedding matrix parameter `[vocab, dim]`.
    pub w: Param,
    vocab: usize,
    dim: usize,
    cache_ids: Vec<usize>,
}

impl Embedding {
    /// A fresh embedding table with N(0, 0.02) init.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        Embedding {
            w: Param::new(
                format!("{name}.weight"),
                init::randn([vocab, dim], 0.02, rng),
            ),
            vocab,
            dim,
            cache_ids: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Look up a flat list of token ids → `[ids.len(), dim]`, drawn from
    /// `ws` like any layer output.
    pub fn forward_tokens(&mut self, ids: &[usize], ws: &mut Workspace) -> Tensor {
        self.cache_ids.clear();
        self.cache_ids.extend_from_slice(ids);
        let mut out = ws.take([ids.len(), self.dim]);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "token id {id} out of vocab {}", self.vocab);
            out.row_mut(r).copy_from_slice(self.w.value.row(id));
        }
        out
    }

    /// Accumulate gradients for the rows used by the last forward.
    pub fn backward_tokens(&mut self, dy: &Tensor) {
        assert_eq!(
            dy.shape().dim(0),
            self.cache_ids.len(),
            "backward before forward"
        );
        for (r, &id) in self.cache_ids.iter().enumerate() {
            for (gv, dv) in self.w.grad.row_mut(id).iter_mut().zip(dy.row(r)) {
                *gv += dv;
            }
        }
    }
}

impl ParamVisitor for Embedding {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
    }
}

/// Fixed sinusoidal positional encoding added to token embeddings
/// (Vaswani et al., 2017). No learnable state.
#[derive(Clone)]
pub struct PositionalEncoding {
    table: Tensor,
    max_len: usize,
    dim: usize,
}

impl PositionalEncoding {
    /// Precompute encodings for positions `0..max_len`.
    pub fn new(max_len: usize, dim: usize) -> Self {
        let mut table = Tensor::zeros([max_len, dim]);
        for pos in 0..max_len {
            let row = table.row_mut(pos);
            for (i, v) in row.iter_mut().enumerate() {
                // lint:allow(libm-call): set-up only, the table is built once per model
                let angle = pos as f32 / (10000.0f32).powf((2 * (i / 2)) as f32 / dim as f32);
                // lint:allow(libm-call): set-up only, as above
                *v = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            }
        }
        PositionalEncoding {
            table,
            max_len,
            dim,
        }
    }

    /// Add position encodings in place to `[batch*seq, dim]` activations
    /// laid out batch-major (rows `b*seq + t`).
    pub fn add_to(&self, x: &mut Tensor, seq_len: usize) {
        assert!(seq_len <= self.max_len, "sequence longer than table");
        assert_eq!(x.shape().dim(1), self.dim, "dim mismatch");
        let rows = x.shape().dim(0);
        assert!(
            rows.is_multiple_of(seq_len),
            "rows must be a multiple of seq_len"
        );
        for r in 0..rows {
            for (xv, ev) in x.row_mut(r).iter_mut().zip(self.table.row(r % seq_len)) {
                *xv += ev;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new("e", 10, 4, &mut rng);
        let y = e.forward_tokens(&[3, 3, 7], &mut Workspace::new());
        assert_eq!(y.row(0), e.w.value.row(3));
        assert_eq!(y.row(1), e.w.value.row(3));
        assert_eq!(y.row(2), e.w.value.row(7));
    }

    #[test]
    fn backward_accumulates_repeated_ids() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Embedding::new("e", 5, 2, &mut rng);
        let _ = e.forward_tokens(&[2, 2], &mut Workspace::new());
        e.zero_grad();
        e.backward_tokens(&Tensor::ones([2, 2]));
        assert_eq!(e.w.grad.row(2), &[2.0, 2.0], "two uses accumulate");
        assert_eq!(e.w.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_vocab_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        Embedding::new("e", 4, 2, &mut rng).forward_tokens(&[4], &mut Workspace::new());
    }

    #[test]
    fn positional_encoding_is_bounded_and_position_dependent() {
        let pe = PositionalEncoding::new(16, 8);
        let mut x = Tensor::zeros([16, 8]);
        pe.add_to(&mut x, 16);
        assert!(x.as_slice().iter().all(|v| v.abs() <= 1.0));
        assert_ne!(x.row(0), x.row(1), "distinct positions get distinct codes");
    }

    #[test]
    fn positional_encoding_repeats_across_batch() {
        let pe = PositionalEncoding::new(4, 6);
        let mut x = Tensor::zeros([8, 6]); // batch 2, seq 4
        pe.add_to(&mut x, 4);
        assert_eq!(x.row(0), x.row(4), "same position in each sequence");
    }
}
