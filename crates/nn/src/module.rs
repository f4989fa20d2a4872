//! The [`Module`] trait and [`Param`] — the contract every layer and
//! model in the workspace satisfies.

use crate::workspace::Workspace;
use selsync_tensor::Tensor;

/// A learnable parameter: its value and the gradient accumulated by the
/// most recent backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Stable, unique, hierarchical name (e.g. `block1.conv1.weight`),
    /// mirroring the layer names the paper plots in Fig. 3/11.
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value` from the last backward pass.
    pub grad: Tensor,
    /// Whether weight decay applies (disabled for biases and norm params,
    /// matching standard practice).
    pub decay: bool,
}

impl Param {
    /// A fresh parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
            decay: true,
        }
    }

    /// A parameter exempt from weight decay (bias / normalization).
    pub fn new_no_decay(name: impl Into<String>, value: Tensor) -> Self {
        let mut p = Self::new(name, value);
        p.decay = false;
        p
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// Anything that exposes an ordered collection of parameters.
///
/// Both tensor-level [`Module`]s and batch-level models (see
/// `models::Model`) implement this; the flattening helpers in
/// [`crate::flat`] and the optimizers operate on this trait alone.
pub trait ParamVisitor {
    /// Visit every parameter immutably, in a deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Param));

    /// Visit every parameter mutably, in the same order as
    /// [`ParamVisitor::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zero every parameter gradient, keeping allocations.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.grad.fill_zero());
    }

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }
}

/// A differentiable tensor-to-tensor computation with learnable state.
///
/// The contract: `forward` caches what `backward` needs in buffers the
/// layer keeps (resized in place, never drawn from `ws`); `backward`
/// *accumulates* into each `Param::grad` (callers zero grads between
/// steps) and returns the gradient w.r.t. the module input. Every
/// temporary, and the returned tensor itself, comes from `ws`: the
/// caller hands the result back with [`Workspace::give`] once consumed,
/// so a steady-state step allocates nothing (DESIGN.md §7).
pub trait Module: ParamVisitor + Send {
    /// Forward pass. `train` toggles training-time behaviour
    /// (dropout, batch-norm statistics).
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor;

    /// Backward pass given the gradient w.r.t. the forward output.
    /// Must be called after `forward`; returns the gradient w.r.t. the
    /// forward input.
    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// [`Module::backward`] for a module whose input needs no gradient
    /// (a dense model's first stage): accumulates every `Param::grad`
    /// with the same bits and computes no input gradient. The default
    /// runs `backward` and gives its result back; a layer whose input
    /// gradient is a product of its own overrides it to skip that work.
    fn backward_params(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let dx = self.backward(grad_out, ws);
        ws.give(dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        w: Param,
    }

    impl ParamVisitor for Dummy {
        fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
            f(&self.w);
        }
        fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    impl Module for Dummy {
        fn forward(&mut self, x: &Tensor, _train: bool, _ws: &mut Workspace) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor, _ws: &mut Workspace) -> Tensor {
            g.clone()
        }
    }

    #[test]
    fn param_constructors() {
        let p = Param::new("w", Tensor::ones([2, 2]));
        assert!(p.decay);
        assert_eq!(p.grad.as_slice(), &[0.0; 4]);
        let b = Param::new_no_decay("b", Tensor::ones([2]));
        assert!(!b.decay);
    }

    #[test]
    fn zero_grad_and_count() {
        let mut d = Dummy {
            w: Param::new("w", Tensor::ones([3])),
        };
        d.w.grad.fill(5.0);
        d.zero_grad();
        assert_eq!(d.w.grad.as_slice(), &[0.0; 3]);
        assert_eq!(d.num_params(), 3);
    }
}
