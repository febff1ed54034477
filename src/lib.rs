//! DeepRest — deep resource estimation for interactive microservices.
//!
//! This is the facade crate of the DeepRest reproduction (EuroSys '22,
//! Chow et al.). It re-exports every workspace crate under one namespace so
//! examples and downstream users need a single dependency:
//!
//! * [`tensor`] — dense tensors, deterministic kernels, the worker pool.
//! * [`nn`] — layers (Linear, GRU), the packed expert forward and its
//!   analytic trainer, optimizers, losses.
//! * [`trace`] — distributed-tracing data model (spans, topologies, paths).
//! * [`metrics`] — resource telemetry time-series and evaluation metrics.
//! * [`workload`] — API traffic generation (scales, mixes, shapes).
//! * [`sim`] — the microservice application simulator (DeathStarBench
//!   substitute) with the Social Network and Hotel Reservation apps.
//! * [`core`] — DeepRest itself: feature extraction, trace synthesis, the
//!   API-aware deep resource estimator, sanity checks, interpretation.
//! * [`serve`] — online serving: streaming window assembly, incremental
//!   inference, live sanity alerts, checkpoint/restore.
//! * [`baselines`] — resource-aware DL, simple scaling, component-aware
//!   scaling comparison estimators.
//! * [`scale`] — closed-loop proactive autoscaling: what-if-driven replica
//!   planning against a reactive threshold baseline, with deterministic
//!   scenario replay.
//! * [`adapt`] — online continual learning: replay-buffered incremental
//!   updates, coverage-drift detection, conformal interval calibration,
//!   bit-exact mid-adaptation checkpoint/resume.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

#![forbid(unsafe_code)]

pub use deeprest_adapt as adapt;
pub use deeprest_baselines as baselines;
pub use deeprest_core as core;
pub use deeprest_metrics as metrics;
pub use deeprest_nn as nn;
pub use deeprest_scale as scale;
pub use deeprest_serve as serve;
pub use deeprest_sim as sim;
pub use deeprest_tensor as tensor;
pub use deeprest_trace as trace;
pub use deeprest_workload as workload;
