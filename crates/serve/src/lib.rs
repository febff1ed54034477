//! DeepRest online serving: the streaming counterpart of the batch
//! estimation pipeline.
//!
//! DeepRest is framed as a production observability tool — it learns from
//! live Jaeger/Prometheus streams, and its sanity check (§6) is only
//! useful if it fires *while* an anomaly is happening. This crate turns
//! the trained batch estimator into a long-running, bounded-memory stream
//! processor:
//!
//! * `queue` — the `BoundedQueue` each tenant of the multi-tenant
//!   front end owns: hand-back or drop-oldest backpressure and typed
//!   accept/reject pushes. A single [`Pipeline`] needs no queue; its
//!   caller ingests arrivals in order.
//! * [`tenant`] — the multi-tenant front end: a
//!   [`TenantRegistry`] with per-tenant bounded queues, priority classes
//!   and per-round byte/window quotas, drained by the deterministic
//!   deficit-round-robin [`sched::FairScheduler`] and protected by the
//!   [`overload`] degradation ladder (counted shedding → frozen
//!   adaptation → per-tenant circuit breakers).
//! * [`Pipeline`] — the one serving pipeline: [`WindowStages`], the
//!   stream's state and the serving loop's stages, each written once
//!   (watermark-based window sealing via
//!   [`deeprest_trace::stream::WindowAssembler`], per-window feature
//!   extraction, stateful O(1)-per-window inference on the stream's
//!   [`CarriedState`](deeprest_core::stream::CarriedState) with
//!   rollback-retry, the causal sanity check with alert delivery), around a
//!   [`Driver`] that owns the model. [`Frozen`] serves a borrowed model as
//!   trained; `deeprest-adapt`'s `Adapter` owns one and adapts it. A
//!   [`TenantRegistry`] holds either. An autoscaler forks its what-if
//!   queries off [`Pipeline::snapshot`] on its own cadence.
//! * [`sanity`] — `deeprest_core::sanity`, re-exported: its
//!   [`OnlineSanity`](sanity::OnlineSanity) is the one δ-interval scorer,
//!   the same one the batch check runs. The pipeline starts it from empty
//!   interval spans ([`OnlineSanity::new`](sanity::OnlineSanity::new)).
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
//! * [`replay`] — loading recorded JSONL streams of Jaeger documents as
//!   arrival streams (one document is
//!   [`deeprest_trace::jaeger::import_timestamped`]).
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
#![warn(unreachable_pub)]
// Library code must fail with typed errors, not unwrap-panics; the few
// justified sites carry a scoped allow with the invariant spelled out.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod alert;
pub mod checkpoint;
mod config;
mod error;
pub mod overload;
mod pipeline;
pub(crate) mod queue;
pub mod replay;
pub mod sched;
pub mod tenant;

pub use alert::{Alert, AlertSink, CollectSink, SinkError};
pub use checkpoint::{CheckpointError, CheckpointStore};
pub use config::ServeConfig;
pub use deeprest_core::sanity;
pub use error::ServeError;
pub use overload::{OverloadConfig, OverloadLevel};
pub use pipeline::{
    batch_reference, contributing_apis, Checkpoint, Driver, Frozen, ObservationSource, Pipeline,
    WindowOutput, WindowStages,
};
pub use queue::{Accepted, OverflowPolicy};
pub use sched::{FairScheduler, SchedConfig};
pub use tenant::{
    AdmitRejected, MultiTenantCheckpoint, PriorityClass, TenantConfig, TenantRegistry,
};
