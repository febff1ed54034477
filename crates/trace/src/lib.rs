//! Distributed-tracing data model for DeepRest.
//!
//! The paper consumes traces in the format produced by off-the-shelf tracing
//! tools (Jaeger): each API request yields a *trace*, a tree of *spans*, each
//! span tagged with a `(component, operation)` pair (Fig. 3). This crate
//! provides that data model plus the derived structures DeepRest's feature
//! engineering needs:
//!
//! * [`Interner`] / [`Sym`] — cheap interned names for components,
//!   operations and API endpoints.
//! * [`SpanNode`] / [`Trace`] — the span tree of one API request.
//! * [`hashing`] — privacy-preserving name hashing: component/operation/API
//!   names are replaced with opaque digests before DeepRest ingests them, as
//!   required by the paper's privacy-preserving design principle (§3).
//! * [`window`] — partitioning of timestamped traces into the fixed scrape
//!   windows resource metrics are aggregated over (§4.1).
//! * [`stream`] — watermark-based streaming window assembly for the online
//!   serving path: out-of-order arrivals are buffered until the event-time
//!   watermark passes a window's end, then sealed bit-identically to the
//!   batch partition.
//! * [`jaeger`] — import/export of Jaeger-API-shaped JSON, the ingestion
//!   path for traces dumped from a real tracing deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must fail typed, not panic: ingestion feeds the online
// serving loop, where one malformed span must cost one trace, not the
// process. Invariant-documenting exceptions carry a scoped allow.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod hashing;
mod interner;
pub mod jaeger;
mod span;
pub mod stream;
pub mod window;

pub use interner::{Interner, Sym};
pub use span::{SpanNode, Trace};
