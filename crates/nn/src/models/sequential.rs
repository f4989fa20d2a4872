//! The one model driver: an ordered list of stages, run forward,
//! backward and visited in the same order for every model in the zoo.

use crate::layers::{
    BatchNorm, Conv2d, Dropout, Embedding, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use crate::models::resnet_mini::ResBlock;
use crate::models::transformer_mini::EncoderLayer;
use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use selsync_tensor::Tensor;

/// Every kind of stage a model lists. A closed enum rather than
/// `Box<dyn Module>` so a model stays `Clone + Send` without a cloning
/// hook on the public trait, and so `TransformerMini` can reach its
/// encoder layers to tell them the sequence length.
#[derive(Clone)]
pub(crate) enum Stage {
    Conv2d(Conv2d),
    BatchNorm(BatchNorm),
    Relu(Relu),
    MaxPool2d(MaxPool2d),
    GlobalAvgPool(GlobalAvgPool),
    Dropout(Dropout),
    Linear(Linear),
    ResBlock(ResBlock),
    Encoder(Box<EncoderLayer>),
}

impl Stage {
    fn module(&self) -> &dyn Module {
        match self {
            Stage::Conv2d(m) => m,
            Stage::BatchNorm(m) => m,
            Stage::Relu(m) => m,
            Stage::MaxPool2d(m) => m,
            Stage::GlobalAvgPool(m) => m,
            Stage::Dropout(m) => m,
            Stage::Linear(m) => m,
            Stage::ResBlock(m) => m,
            Stage::Encoder(m) => m.as_ref(),
        }
    }

    fn module_mut(&mut self) -> &mut dyn Module {
        match self {
            Stage::Conv2d(m) => m,
            Stage::BatchNorm(m) => m,
            Stage::Relu(m) => m,
            Stage::MaxPool2d(m) => m,
            Stage::GlobalAvgPool(m) => m,
            Stage::Dropout(m) => m,
            Stage::Linear(m) => m,
            Stage::ResBlock(m) => m,
            Stage::Encoder(m) => m.as_mut(),
        }
    }
}

/// An ordered list of stages: the parameter visit order, the forward
/// order and the reverse of the backward order are all the list order.
#[derive(Clone)]
pub(crate) struct Sequential {
    /// A language model's token embedding. Its input is token ids, not a
    /// tensor, so the model runs it itself on either side of the stage
    /// walks; it is kept here because its rows lead the flat parameter
    /// vector and the backward hook must see the whole model.
    pub(crate) embed: Option<Embedding>,
    pub(crate) stages: Vec<Stage>,
}

impl ParamVisitor for Sequential {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        if let Some(e) = &self.embed {
            e.visit_params(f);
        }
        for s in &self.stages {
            s.module().visit_params(f);
        }
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some(e) = &mut self.embed {
            e.visit_params_mut(f);
        }
        for s in &mut self.stages {
            s.module_mut().visit_params_mut(f);
        }
    }
}

impl Sequential {
    /// A dense-input model: `stages` and no token embedding.
    pub(crate) fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "a model needs at least one stage");
        Sequential {
            embed: None,
            stages,
        }
    }

    /// Run every stage in order, handing each intermediate back to `ws`
    /// as soon as the next stage has consumed it.
    ///
    /// With `escapes` set the caller keeps the result (a model's
    /// logits), so the last stage draws from a throwaway arena: taken
    /// from `ws`, a tensor that never comes back would drain one buffer
    /// per step and the arena would never reach its fixed point
    /// (DESIGN.md §7 rule 3). Unset, the result is `ws`'s like any
    /// layer output and the caller gives it back.
    pub(crate) fn forward(
        &mut self,
        x: &Tensor,
        train: bool,
        ws: &mut Workspace,
        escapes: bool,
    ) -> Tensor {
        let last = self.stages.len() - 1;
        let mut throwaway = Workspace::new();
        let mut h: Option<Tensor> = None;
        for (i, stage) in self.stages.iter_mut().enumerate() {
            let arena = if escapes && i == last {
                &mut throwaway
            } else {
                &mut *ws
            };
            let next = stage
                .module_mut()
                .forward(h.as_ref().unwrap_or(x), train, arena);
            if let Some(prev) = h.replace(next) {
                ws.give(prev);
            }
        }
        h.expect("the list is non-empty")
    }

    /// Run every stage in reverse and return the gradient w.r.t. the
    /// list's input (the caller gives it back to `ws`).
    ///
    /// The walk is the reverse of the visit order, so the finalized
    /// gradients are always a suffix of the flat vector: after each
    /// parameterised stage — a composite one finalizes all its members
    /// before it returns — `hook` gets the new watermark and the whole
    /// list. Watermarks strictly decrease and end at the number of
    /// embedding parameters ahead of the stages: 0 for a dense model.
    pub(crate) fn backward(
        &mut self,
        dy: &Tensor,
        ws: &mut Workspace,
        hook: &mut dyn FnMut(usize, &dyn ParamVisitor),
    ) -> Tensor {
        let mut watermark = self.num_params();
        let mut g: Option<Tensor> = None;
        for i in (0..self.stages.len()).rev() {
            let stage = self.stages[i].module_mut();
            let next = stage.backward(g.as_ref().unwrap_or(dy), ws);
            let finalized = stage.num_params();
            if let Some(prev) = g.replace(next) {
                ws.give(prev);
            }
            if finalized > 0 {
                watermark -= finalized;
                hook(watermark, &*self);
            }
        }
        debug_assert_eq!(watermark, self.embed.as_ref().map_or(0, |e| e.num_params()));
        g.expect("the list is non-empty")
    }
}
