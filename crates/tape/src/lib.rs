//! Reverse-mode automatic differentiation on a tape — the reference
//! implementation, for tests only.
//!
//! The paper trains its estimator with PyTorch autograd. This repository
//! ships a hand-derived replacement instead: one packed forward
//! (`deeprest_nn::ExpertSlab`) and one analytic backward
//! (`deeprest_nn::AnalyticTrainer`). This crate keeps the straightforward
//! formulation those were derived from — every op of Eqs. 1–6 recorded as a
//! node, gradients by one reverse sweep — so that test suites can prove the
//! shipped engine agrees with it bit for bit. It is a `[dev-dependencies]`
//! entry of `deeprest-nn` and `deeprest-core` and of nothing else; no
//! release build compiles it, and it is written for legibility, not speed:
//! every node owns a freshly allocated value, every graph is built once and
//! dropped.
//!
//! * [`Graph`] records operations as nodes ([`Var`] handles);
//!   [`Graph::backward`] accumulates gradients into the
//!   [`deeprest_tensor::ParamStore`] the parameters were read from, or
//!   [`Graph::backward_into`] into a detached [`GradBuffer`].
//! * [`BoundGruCell`] and [`BoundLinear`] are the estimator's layers on the
//!   tape; [`Graph::pinball_fill`] is its Eq. 6 loss term.
//!
//! The ops themselves are this crate's own: `deeprest_tensor::Tensor` is a
//! parameter container, so elementwise ops, concatenation, reductions and
//! transposes are written here, and [`Graph::matmul`] calls
//! `deeprest_tensor::kernel`'s `gemv_into` (column right operand) or
//! `gemm_into`. Its backward multiplies by materialised transposes,
//! `g · bᵀ` and `aᵀ · g`; both kernels give every element the bits of the
//! lane-blocked contract dot, so the transpose's layout cannot show in them.
//!
//! What the suites rely on, beyond correct gradients, is *order*: matrix
//! products run on the same lane-blocked contract as the packed forward,
//! the fused gate ops associate exactly like `ExpertSlab::step_range`, and
//! a gradient slot receives its contributions highest consumer first — the
//! sequence the analytic backward replays.
//!
//! # Examples
//!
//! ```
//! use deeprest_tape::Graph;
//! use deeprest_tensor::{ParamStore, Tensor};
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod layers;

pub use graph::{GradBuffer, Graph, Var};
pub use layers::{BoundGruCell, BoundLinear};
