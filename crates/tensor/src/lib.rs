//! Dense 2-D `f32` tensors and a reverse-mode automatic-differentiation tape.
//!
//! This crate is the numerical substrate of the xFraud reproduction. The
//! paper's detector (a heterogeneous graph transformer), its baselines (GAT,
//! GEM) and the GNNExplainer all train by gradient descent; since no mature
//! Rust autodiff stack supports the segment operations heterogeneous GNNs
//! need, we implement one from scratch:
//!
//! * [`Tensor`] — a row-major `(rows, cols)` matrix of `f32`.
//! * [`Tape`] — a Wengert list. Every differentiable operation appends a node
//!   recording its inputs; [`Tape::backward`] walks the list in reverse and
//!   accumulates gradients.
//! * GNN-specific primitives: [`Tape::gather_rows`] (edge endpoint lookup),
//!   [`Tape::segment_softmax`] (per-target attention normalisation, eq. 9 of
//!   the paper) and [`Tape::segment_sum`] (message aggregation, eq. 1).
//!
//! Gradients of every op are validated against central finite differences in
//! the unit and property tests.
//!
//! # Example
//!
//! ```
//! use xfraud_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), true);
//! let w = tape.leaf(Tensor::from_rows(&[&[0.5], &[-0.5]]), true);
//! let y = tape.matmul(x, w);
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! let gw = tape.grad(w).unwrap();
//! assert_eq!(gw.get(0, 0), 4.0); // d(sum)/dw0 = x00 + x10
//! ```

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

mod error;
pub mod kernels;
mod ops;
mod tape;
mod tensor;

pub use error::TensorError;
pub use ops::softmax_rows;
pub use tape::{Tape, Var};
pub use tensor::Tensor;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;
