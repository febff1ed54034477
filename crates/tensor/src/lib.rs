//! Dense tensors, deterministic kernels and the worker pool for DeepRest.
//!
//! The DeepRest estimator (mask + GRU + cross-component attention + quantile
//! heads, Eqs. 1-6 of the paper) is trained with gradient descent. The Rust
//! deep-learning ecosystem is thin, so this crate provides the minimal
//! substrate the paper's PyTorch implementation relied on:
//!
//! * [`Tensor`] — a rank-2 dense `f32` tensor (column vectors are `(n, 1)`),
//!   with the usual construction, elementwise and linear-algebra helpers.
//! * [`kernel`] — lane-blocked GEMV/GEMM kernels over flat slices whose
//!   results carry the same bits on every ISA and dispatch path; the packed
//!   forward and the analytic backward in `deeprest-nn` are built on them.
//! * [`ParamStore`] — owns trainable parameters and their accumulated
//!   gradients; optimizers update it in place.
//! * [`Pool`] — persistent chunk-claiming workers for data-parallel
//!   fan-outs; [`BufferPool`] — recycled scratch buffers that keep warm
//!   steps allocation-free.
//! * [`linalg`] — small dense linear-algebra utilities (Jacobi eigensolver,
//!   Gram-trick PCA) used to reproduce the paper's Fig. 21 expert-parameter
//!   analysis.
//!
//! There is no autodiff here: gradients are hand-derived in
//! `deeprest_nn::AnalyticTrainer`, and the reverse-mode tape they are
//! checked against is the dev-only `deeprest-tape` crate.
//!
//! # Examples
//!
//! ```
//! use deeprest_tensor::{ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(1, 2, vec![0.5, -1.0]));
//! let x = Tensor::vector(vec![2.0, 3.0]);
//!
//! // Forward: y = w·x = 0.5*2 - 1*3.
//! let y = store.value(w).matmul(&x);
//! assert_eq!(y.data(), &[-2.0]);
//!
//! // A trainer writes dL/dw into the store; the optimizer reads it back.
//! store.grad_add_slice(w, x.data()); // d(w·x)/dw = x^T
//! assert_eq!(store.grad(w).data(), &[2.0, 3.0]);
//! ```

// `deny` rather than `forbid`: two places carry scoped
// `#[allow(unsafe_code)]`s — `kernel` (the runtime-detected AVX2 path and
// its dispatch sites) and `pool::engine` (handing a stack-borrowed job to
// the persistent helper threads). Each `unsafe` there has its `// SAFETY:`
// argument beside it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod linalg;
mod param;
pub mod pool;
pub mod scratch;
mod tensor;

pub use param::{ParamId, ParamStore};
pub use pool::Pool;
pub use scratch::BufferPool;
pub use tensor::Tensor;
