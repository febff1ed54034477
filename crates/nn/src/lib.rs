//! Neural-network building blocks for the DeepRest estimator.
//!
//! Provides exactly what the paper's PyTorch prototype used, built on
//! [`deeprest_tensor`]:
//!
//! * [`Linear`] — fully connected layer (the paper's `V^{c,r}` head, Eq. 4).
//! * [`GruCell`] — gated recurrent unit following Eq. 2 verbatim.
//! * [`Sgd`] / [`Adam`] — optimizers ([`Sgd`] with lr 0.001 matches §5.1).
//! * [`init`] — Xavier/Glorot initialization with explicit seeding.
//! * [`loss`] — quantile-regression helpers for Eqs. 5-6.
//!
//! Layers store [`deeprest_tensor::ParamId`]s, not tensors. To run a forward
//! pass, *bind* the layer into a [`deeprest_tensor::Graph`] once (inserting
//! each parameter as a single leaf) and reuse the bound handles across all
//! unrolled time steps — gradient fan-in over time then falls out of the
//! reverse sweep.
//!
//! # Examples
//!
//! ```
//! use deeprest_nn::{GruCell, Linear};
//! use deeprest_tensor::{Graph, ParamStore, Tensor};
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let gru = GruCell::new(&mut store, "gru", 4, 8, &mut rng);
//! let head = Linear::new(&mut store, "head", 8, 3, &mut rng);
//!
//! let mut g = Graph::new();
//! let gru_b = gru.bind(&mut g, &store);
//! let head_b = head.bind(&mut g, &store);
//! let mut h = g.constant(Tensor::zeros(8, 1));
//! for _ in 0..5 {
//!     let x = g.constant(Tensor::vector(vec![1.0, 0.0, 2.0, 0.5]));
//!     h = gru_b.step(&mut g, x, h);
//! }
//! let y = head_b.forward(&mut g, h);
//! assert_eq!(g.value(y).shape(), (3, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gru;
pub mod init;
mod linear;
pub mod loss;
mod optim;
pub mod slab;
pub mod train;

pub use gru::{BoundGruCell, GruCell};
pub use linear::{BoundLinear, Linear};
pub use optim::{Adam, Sgd};
pub use slab::{ExpertSlab, ExpertSpec};
pub use train::{AnalyticTrainer, SlotStats, TrainerConfig};
