//! DeepRest online continual learning: the `deeprest-serve` streaming
//! stages over an owned, mutable model, plus an adapt step after each
//! window.
//!
//! The paper's estimator is trained once and then served frozen; under
//! workload drift its intervals go stale — coverage degrades, the sanity
//! check starts firing on healthy traffic, and the only remedy is a full
//! offline retrain. This crate closes the loop **online**, deterministically,
//! as four cooperating stages around an owned, mutable model:
//!
//! * **observe** — [`AdaptivePipeline`] drives the very
//!   [`deeprest_serve::WindowStages`] a [`deeprest_serve::Pipeline`] drives
//!   (windowing, the healed O(1) incremental step — via `detach`/`attach`
//!   of the packed predictor state — quarantine, causal sanity alerts,
//!   sink delivery), and seals every `segment_len` served-and-observed
//!   windows into a `(features, targets)` training segment from the
//!   observations the scoring stage looked up;
//! * **detect** — a per-expert CUSUM on raw δ-interval coverage misses
//!   ([`DriftDetector`]) flags drifting experts windows before the sanity
//!   check would alert;
//! * **adapt** — on a segment-counted cadence (escalated under drift
//!   watch) a fresh segment plus a seeded deterministic replay sample
//!   ([`ReplayBuffer`]) is folded into the live model through the analytic
//!   training engine ([`deeprest_core::adapt::OnlineUpdater`]) — one
//!   momentum-free SGD step, bit-identical across thread counts, rolled
//!   back bit-for-bit on any fault;
//! * **recalibrate** — an online conformal scaler ([`Calibrator`]) widens
//!   each expert's intervals by the order statistic of its recent
//!   nonconformity scores, and per-tail miss rates modulate the pinball
//!   gradients of subsequent updates (arXiv 2508.01635), so adaptation
//!   optimizes *calibration*, not just point accuracy.
//!
//! Checkpoints reuse the serve crate's [`Checkpoint`](deeprest_serve::Checkpoint)
//! (and therefore `CheckpointStore`'s framed, CRC-checked persistence):
//! the adaptation trajectory — adapted model included — travels in the
//! `adapter` envelope, and a mid-adaptation restore continues
//! bit-identically to the uninterrupted run.
//!
//! With [`AdaptConfig::enabled`] off a window runs the shared stages and
//! nothing else: the pipeline is a plain serving pipeline over an owned
//! model, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must fail with typed errors, not unwrap-panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calibrate;
mod config;
pub mod drift;
mod error;
mod pipeline;
pub mod replay;

pub use calibrate::{CalibrationConfig, CalibrationState, Calibrator};
pub use config::AdaptConfig;
pub use drift::{DriftConfig, DriftDetector, DriftState};
pub use error::{AdaptError, UpdateOutcome};
pub use pipeline::{AdapterState, AdaptivePipeline};
pub use replay::{ReplayBuffer, Segment};
