//! DeepRest online serving: the streaming counterpart of the batch
//! estimation pipeline.
//!
//! DeepRest is framed as a production observability tool — it learns from
//! live Jaeger/Prometheus streams, and its sanity check (§6) is only
//! useful if it fires *while* an anomaly is happening. This crate turns
//! the trained batch estimator into a long-running, bounded-memory stream
//! processor:
//!
//! * [`queue`] — bounded ingest queues decoupling collectors from the
//!   pipeline, with blocking or drop-oldest backpressure and typed
//!   accept/reject pushes: the plain [`BoundedQueue`], and the
//!   [`IngestQueue`] that shares one with a producer thread. Single-tenant
//!   embedders use one shared queue in front of one [`Pipeline`]; the
//!   multi-tenant front end owns a plain one per tenant.
//! * [`tenant`] — the multi-tenant front end: a
//!   [`TenantRegistry`] with per-tenant bounded queues, priority classes
//!   and per-round byte/window quotas, drained by the deterministic
//!   deficit-round-robin [`sched::FairScheduler`] and protected by the
//!   [`overload`] degradation ladder (counted shedding → frozen
//!   adaptation → per-tenant circuit breakers).
//! * [`WindowStages`] — the serving loop's stages, each written once:
//!   watermark-based window sealing (via
//!   [`deeprest_trace::stream::WindowAssembler`]), per-window feature
//!   extraction, stateful O(1)-per-window inference (via
//!   [`deeprest_core::stream::StreamPredictor`]) with rollback-retry, the
//!   causal sanity check with alert delivery, the control-tick cadence.
//!   [`Pipeline`] drives them over a borrowed model; `deeprest-adapt`'s
//!   `AdaptivePipeline` drives the same stages over an owned, mutable one.
//! * [`sanity`] — the causal (online) re-derivation of the batch
//!   δ-interval sanity score.
//! * [`Alert`] / [`AlertSink`] — structured live alerts (component,
//!   resource, window, score, contributing APIs) with pluggable delivery.
//! * [`Checkpoint`] / [`CheckpointStore`] — checkpoint/restore of the full
//!   streaming state (one pipeline's, or the registry's
//!   [`MultiTenantCheckpoint`]: the store is generic over the payload) for
//!   crash recovery, framed with a version header and
//!   CRC32 and written atomically (temp file + rename) with latest/prev
//!   rotation, so a crash mid-write is a typed [`CheckpointError`] and a
//!   one-checkpoint fallback, never garbage state.
//! * [`ServeError`] — the typed failure surface of the pipeline: ingest
//!   faults (arrival retryable), parked-window step failures, poisoned
//!   predictor state, checkpoint defects.
//! * [`replay`] — loading recorded Jaeger documents/JSONL as arrival
//!   streams.
//!
//! The stages are *self-healing*: contained step panics and transient
//! numeric poison roll back to the pre-step snapshot and retry
//! bit-identically, persistently failing windows are parked and resumed in
//! order once the fault clears, non-finite outputs quarantine single
//! experts while the rest keep serving, and sink failures degrade (retry
//! with capped backoff, then a counted drop) without ever failing a
//! window. The `chaos_replay` integration test drives the golden replay
//! fixture under every injected fault class (`deeprest-fault` crate) and
//! asserts bit-identical recovery or a typed error — never a panic.
//!
//! The hard correctness contract: for the same sealed windows, streaming
//! estimates are **bit-identical** to the batch
//! [`DeepRest::estimate_from_traces`](deeprest_core::DeepRest::estimate_from_traces)
//! path — [`batch_reference`] re-derives the expected outputs for
//! cross-checking, and `crates/serve/tests/golden_replay.rs` enforces the
//! contract on the checked-in fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must fail with typed errors, not unwrap-panics; the few
// justified sites carry a scoped allow with the invariant spelled out.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod alert;
pub mod checkpoint;
mod config;
mod error;
pub mod overload;
mod pipeline;
pub mod queue;
pub mod replay;
pub mod sanity;
pub mod sched;
pub mod tenant;

pub use alert::{Alert, AlertSink, CollectSink, JsonLineSink, SinkError};
pub use checkpoint::{CheckpointError, CheckpointStore};
pub use config::ServeConfig;
pub use error::ServeError;
pub use overload::{OverloadConfig, OverloadController, OverloadLevel};
pub use pipeline::{
    batch_reference, contributing_apis, Checkpoint, ControlTick, ObservationSource, Pipeline,
    WindowOutput, WindowStages,
};
pub use queue::{Accepted, BoundedQueue, IngestQueue, OverflowPolicy, PushRejected};
pub use sched::{FairScheduler, SchedConfig};
pub use tenant::{
    AdmitRejected, MultiTenantCheckpoint, PriorityClass, TenantConfig, TenantId, TenantRegistry,
};
