//! Deterministic kernels, parameter storage and the worker pool for DeepRest.
//!
//! The DeepRest estimator (mask + GRU + cross-component attention + quantile
//! heads, Eqs. 1-6 of the paper) is trained by gradient descent on
//! hand-derived gradients. This crate holds what that model runs on:
//!
//! * [`kernel`] — lane-blocked GEMV/GEMM kernels over flat slices, and the
//!   GRU's σ and tanh, whose results carry the same bits on every ISA and
//!   dispatch path; the packed forward and the analytic backward in
//!   `deeprest-nn` are built on them.
//! * [`Tensor`] — a dense rank-2 `f32` parameter (column vectors are
//!   `(n, 1)`) with the in-place updates optimizers apply.
//! * [`ParamStore`] — owns trainable parameters and their accumulated
//!   gradients; optimizers update it in place.
//! * [`Pool`] — persistent chunk-claiming workers for data-parallel
//!   fan-outs (defined in `deeprest-fault`, re-exported here); [`BufferPool`] — recycled scratch buffers that keep warm
//!   steps allocation-free.
//! * [`linalg`] — small dense linear-algebra utilities (Jacobi eigensolver,
//!   Gram-trick PCA) used to reproduce the paper's Fig. 21 expert-parameter
//!   analysis.
//!
//! There is no tensor algebra and no autodiff here: gradients are
//! hand-derived in `deeprest_nn::AnalyticTrainer`, and the reverse-mode tape
//! they are checked against, with the algebra it needs, is the dev-only
//! `deeprest-tape` crate.
//!
//! # Examples
//!
//! ```
//! use deeprest_tensor::{kernel, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(1, 2, vec![0.5, -1.0]));
//! let x = [2.0, 3.0];
//!
//! // Forward: y = w·x = 0.5*2 - 1*3, on the GEMV kernel.
//! let mut y = [0.0];
//! kernel::gemv_into(&mut y, store.value(w).data(), 1, 2, &x);
//! assert_eq!(y, [-2.0]);
//!
//! // A trainer writes dL/dw into the store; the optimizer reads it back.
//! store.grad_mut(w).data_mut().copy_from_slice(&x); // d(w·x)/dw = x^T
//! assert_eq!(store.grad(w).data(), &[2.0, 3.0]);
//! ```

// `deny` rather than `forbid`: `kernel` carries scoped
// `#[allow(unsafe_code)]`s (the runtime-detected AVX2 paths of the
// contractions and of the activations, and their dispatch sites). Each
// `unsafe` there has its `// SAFETY:` argument beside it.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod kernel;
pub mod linalg;
mod param;
pub use deeprest_fault::pool;
pub(crate) mod scratch;
mod tensor;

pub use param::{ParamId, ParamStore};
pub use pool::Pool;
pub use scratch::BufferPool;
pub use tensor::Tensor;
