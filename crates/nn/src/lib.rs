//! Neural-network building blocks for the DeepRest estimator.
//!
//! Provides exactly what the paper's PyTorch prototype used, built on
//! [`deeprest_tensor`]:
//!
//! * [`Linear`] — fully connected layer (the paper's `V^{c,r}` head, Eq. 4).
//! * [`GruCell`] — gated recurrent unit parameters for Eq. 2.
//! * [`Sgd`] / [`Adam`] — optimizers ([`Sgd`] with lr 0.001 matches §5.1).
//! * [`init`] — Xavier/Glorot initialization with explicit seeding.
//! * [`loss`] — quantile-regression helpers for Eqs. 5-6.
//! * [`ExpertSlab`] — the packed forward of Eqs. 1–4 over a whole swarm of
//!   experts, the one serving and training both step.
//! * [`AnalyticTrainer`] — hand-derived truncated BPTT over the slab under
//!   the pinball loss of Eq. 6.
//!
//! Layers store [`deeprest_tensor::ParamId`]s, not tensors: the values live
//! in a [`deeprest_tensor::ParamStore`]. To run a forward pass, describe
//! each expert with an [`ExpertSpec`] and *pack* the swarm into an
//! [`ExpertSlab`] — one value copy laid out for the batched kernels, kept
//! next to the store and repacked wherever the store is written — then step
//! it over caller-owned slices; to train, hand the same slab to an
//! [`AnalyticTrainer`], which accumulates gradients into the store for an
//! optimizer to apply. The reverse-mode tape both are proven bit-identical
//! to lives in the dev-only `deeprest-tape` crate.
//!
//! # Examples
//!
//! One expert (no mask, no attention), one training step, then a forward
//! through the repacked slab:
//!
//! ```
//! use deeprest_nn::loss::quantiles_for;
//! use deeprest_nn::{Adam, AnalyticTrainer, ExpertSlab, ExpertSpec, GruCell, Linear, TrainerConfig};
//! use deeprest_tensor::kernel::Support;
//! use deeprest_tensor::{BufferPool, ParamStore, Pool, Tensor};
//! use rand::SeedableRng;
//!
//! let (d, h) = (4, 8);
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let spec = ExpertSpec {
//!     mask: store.add("mask", Tensor::zeros(d, 1)),
//!     cell: GruCell::new(&mut store, "gru", d, h, &mut rng),
//!     alpha: store.add("alpha", Tensor::zeros(1, 1)),
//!     head: Linear::new(&mut store, "head", 2 * h, 3, &mut rng),
//!     skip: None,
//! };
//!
//! // Five windows of features and one target series per expert.
//! let xs = vec![vec![1.0, 0.0, 2.0, 0.5]; 5];
//! let targets = vec![vec![0.3; 5]];
//! let config = TrainerConfig {
//!     input_dim: d,
//!     hidden_dim: h,
//!     max_steps: 5,
//!     batch_slots: 1,
//!     api_mask: false,
//!     attention: false,
//!     penalty: None,
//!     quantiles: quantiles_for(0.90),
//!     modulation: [1.0; 3],
//! };
//! let pool = Pool::with_threads(1);
//! let mut slab = ExpertSlab::pack(&store, &[spec], false, false, pool.threads());
//! let mut trainer = AnalyticTrainer::new(&slab, config);
//! let stats = trainer.run_batch(&slab, &mut store, &pool, &xs, &targets, &[0]);
//! assert_eq!(stats[0].n_terms, 5);
//! Adam::new(0.01).step(&mut store);
//! slab.repack(&store);
//!
//! // Forward: one GRU step, then the three quantile outputs.
//! let (mut hidden, mut cat, mut y) = (vec![0.0; h], vec![0.0; 2 * h], [0.0; 3]);
//! let mut scratch = BufferPool::new();
//! let mut support = Support::with_capacity(d); // where this window is non-zero
//! support.fill(&xs[0]);
//! slab.step_range(0..1, &xs[0], &support, &mut hidden, &mut scratch, None);
//! let hmat = hidden.clone(); // one expert: H_t is its own hidden column
//! slab.heads(0, &hmat, &hidden, &xs[0], &support, &mut cat, &mut y, &mut scratch);
//! assert!(y.iter().all(|v| v.is_finite()));
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

pub use gru::GruCell;
pub use linear::Linear;
pub use optim::{Adam, Sgd};
pub use slab::{ExpertSlab, ExpertSpec};
pub use train::{AnalyticTrainer, SlotStats, TrainerConfig};
