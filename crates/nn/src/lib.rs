//! Layers, parameters and optimizers on top of `xfraud-tensor`.
//!
//! The split mirrors PyTorch's, because the paper's training loop
//! (AdamW + gradient clipping at 0.25, dropout 0.2, layer norm — Appendix C
//! hyper-parameters) is easiest to replicate with the same moving parts:
//!
//! * [`ParamStore`] — owns parameter tensors and their Adam moments across
//!   steps; parameters are addressed by [`ParamId`].
//! * [`Session`] — one forward/backward pass: wraps a fresh `Tape` and
//!   remembers which tape leaf each parameter was bound to, so gradients can
//!   be pulled back out after `backward`.
//! * [`Linear`], [`LayerNorm`], [`Embedding`], [`Ffn`] — the layer zoo the
//!   detector and baselines are assembled from.
//! * [`AdamW`] — decoupled weight decay Adam with global-norm clipping.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::allow_attributes_without_reason
    )
)]

mod layers;
mod optim;
mod param;

pub use layers::{Embedding, Ffn, Layer, LayerNorm, Linear};
pub use optim::AdamW;
pub use param::{ParamId, ParamStore, Session};
