//! Inverted dropout.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selsync_tensor::Tensor;

/// Inverted dropout: at train time each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation
/// is the identity.
pub struct Dropout {
    p: f32,
    seed: u64,
    rng: StdRng,
    mask: Vec<f32>,
}

impl Clone for Dropout {
    /// Cloning restarts the dropout RNG stream from the original seed:
    /// worker replicas cloned from a template intentionally share the
    /// same mask sequence only if they also share the seed.
    fn clone(&self) -> Self {
        Dropout {
            p: self.p,
            seed: self.seed,
            rng: StdRng::seed_from_u64(self.seed),
            mask: self.mask.clone(),
        }
    }
}

impl Dropout {
    /// Dropout with drop probability `p` and a dedicated seeded RNG.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
        Dropout {
            p,
            seed,
            rng: StdRng::seed_from_u64(seed),
            mask: Vec::new(),
        }
    }

    /// The configured drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl ParamVisitor for Dropout {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.mask.resize(x.numel(), 0.0);
        let mut y = ws.take(x.shape().clone());
        if !train || self.p == 0.0 {
            self.mask.fill(1.0);
            y.copy_from(x);
            return y;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for ((y, m), &v) in y
            .as_mut_slice()
            .iter_mut()
            .zip(&mut self.mask)
            .zip(x.as_slice())
        {
            *m = if self.rng.random::<f32>() < keep {
                scale
            } else {
                0.0
            };
            *y = v * *m;
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.mask.len(), "backward before forward");
        let mut dx = ws.take(dy.shape().clone());
        for ((d, &m), &g) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(&self.mask)
            .zip(dy.as_slice())
        {
            *d = g * m;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(
            d.forward(&x, false, &mut Workspace::new()).as_slice(),
            x.as_slice()
        );
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 1);
        let x = Tensor::ones([20000]);
        let y = d.forward(&x, true, &mut Workspace::new());
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 20000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} should stay near 1");
    }

    #[test]
    fn survivors_are_scaled() {
        let mut d = Dropout::new(0.5, 2);
        let y = d.forward(&Tensor::ones([100]), true, &mut Workspace::new());
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let y = d.forward(&Tensor::ones([64]), true, &mut Workspace::new());
        let dx = d.backward(&Tensor::ones([64]), &mut Workspace::new());
        assert_eq!(y.as_slice(), dx.as_slice(), "identical masking of ones");
    }

    #[test]
    fn p_zero_never_drops() {
        let mut d = Dropout::new(0.0, 4);
        let y = d.forward(&Tensor::ones([32]), true, &mut Workspace::new());
        assert_eq!(y.as_slice(), &[1.0; 32]);
    }
}
