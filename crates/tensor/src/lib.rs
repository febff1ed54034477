//! Dense tensors and reverse-mode automatic differentiation for DeepRest.
//!
//! The DeepRest estimator (mask + GRU + cross-component attention + quantile
//! heads, Eqs. 1-6 of the paper) is trained with gradient descent. The Rust
//! deep-learning ecosystem is thin, so this crate provides the minimal
//! substrate the paper's PyTorch implementation relied on:
//!
//! * [`Tensor`] — a rank-2 dense `f32` tensor (column vectors are `(n, 1)`),
//!   with the usual construction, elementwise and linear-algebra helpers.
//! * [`Graph`] — a tape-based reverse-mode autodiff arena. Operations record
//!   nodes; [`Graph::backward`] accumulates gradients into a [`ParamStore`],
//!   which owns trainable parameters across many unrolled graphs (truncated
//!   back-propagation through time builds one `Graph` per subsequence).
//! * [`linalg`] — small dense linear-algebra utilities (Jacobi eigensolver,
//!   Gram-trick PCA) used to reproduce the paper's Fig. 21 expert-parameter
//!   analysis.
//!
//! # Examples
//!
//! ```
//! use deeprest_tensor::{Graph, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(1, 2, vec![0.5, -1.0]));
//!
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::vector(vec![2.0, 3.0]));
//! let wv = g.param(&store, w);
//! let y = g.matmul(wv, x); // (1,1) scalar: 0.5*2 - 1*3 = -2
//! let loss = g.sum_all(y);
//! g.backward(loss, &mut store);
//!
//! assert_eq!(g.value(y).data(), &[-2.0]);
//! assert_eq!(store.grad(w).data(), &[2.0, 3.0]); // dL/dw = x^T
//! ```

// `deny` rather than `forbid`: two places carry scoped
// `#[allow(unsafe_code)]`s — `kernel` (the runtime-detected AVX2 path and
// its dispatch sites) and `pool::engine` (handing a stack-borrowed job to
// the persistent helper threads). Each `unsafe` there has its `// SAFETY:`
// argument beside it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod kernel;
pub mod linalg;
mod param;
pub mod pool;
pub mod scratch;
mod tensor;

pub use graph::{Graph, Var};
pub use param::{GradBuffer, ParamId, ParamStore};
pub use pool::Pool;
pub use scratch::BufferPool;
pub use tensor::Tensor;
