//! DeepRest online continual learning: a `deeprest-serve` pipeline
//! driver that owns its model and adapts it after each window.
//!
//! The paper's estimator is trained once and then served frozen; under
//! workload drift its intervals go stale — coverage degrades, the sanity
//! check starts firing on healthy traffic, and the only remedy is a full
//! offline retrain. This crate closes the loop **online**, deterministically,
//! as four cooperating stages around an owned, mutable model:
//!
//! * **observe** — [`Adapter`] is a [`deeprest_serve::Driver`], so an
//!   [`AdaptivePipeline`] is the one [`deeprest_serve::Pipeline`] with its
//!   shared stages (windowing, the healed O(1) incremental step,
//!   quarantine, causal sanity alerts, sink delivery); it seals every
//!   `SEGMENT_LEN` served-and-observed windows into a `(features,
//!   targets)` training segment from the observations the scoring stage
//!   scored (increments of a cumulative resource, as the experts learn
//!   them);
//! * **detect** — a per-expert CUSUM on raw δ-interval coverage misses
//!   (`DriftDetector`) flags drifting experts windows before the sanity
//!   check would alert;
//! * **adapt** — on a segment-counted cadence (escalated under drift
//!   watch) a fresh segment plus a seeded deterministic replay sample
//!   ([`ReplayBuffer`]) is folded into the live model through the analytic
//!   training engine ([`deeprest_core::train::OnlineUpdater`]) — one
//!   momentum-free SGD step, bit-identical across thread counts, rolled
//!   back bit-for-bit on any fault;
//! * **recalibrate** — an online conformal scaler (`Calibrator`) widens
//!   each expert's intervals by the order statistic of its recent
//!   nonconformity scores, and per-tail miss rates modulate the pinball
//!   gradients of subsequent updates (arXiv 2508.01635), so adaptation
//!   optimizes *calibration*, not just point accuracy.
//!
//! An [`AdaptiveCheckpoint`] is one serde tree: the serve crate's
//! [`Checkpoint`](deeprest_serve::Checkpoint) for the shared stages, the
//! adapted model and the [`AdapterState`] nest as values, so
//! `CheckpointStore`'s framed, CRC-checked persistence writes it once, and
//! a mid-adaptation restore continues bit-identically to the uninterrupted
//! run.
//!
//! The same model and state are the adapter's
//! [`Driver::checkpoint`](deeprest_serve::Driver::checkpoint) tree, so a
//! `TenantRegistry` holding an adaptive tenant
//! (`add_pipeline(Pipeline::from(adaptive), ..)`) checkpoints and resumes it
//! bit-exactly too, and suspends its updates at overload rung 2.
//!
//! With [`AdaptConfig::enabled`] off a window runs the shared stages and
//! nothing else: the pipeline serves what a frozen one does over an owned
//! model, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must fail with typed errors, not unwrap-panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod calibrate;
mod config;
pub(crate) mod drift;
mod pipeline;
pub(crate) mod replay;

pub use calibrate::CalibrationState;
pub use config::AdaptConfig;
pub use drift::{DriftConfig, DriftState};
pub use pipeline::{
    Adapter, AdapterState, AdaptiveCheckpoint, AdaptivePipeline, Staging, UpdateOutcome,
};
pub use replay::{ReplayBuffer, Segment};
