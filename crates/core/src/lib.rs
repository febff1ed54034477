//! DeepRest — API-aware deep resource estimation for interactive
//! microservices (EuroSys '22).
//!
//! DeepRest estimates, for every `(component, resource)` pair of a
//! microservice application, the utilization time-series implied by a stream
//! of API traffic. It learns the causality between user activity and
//! resource consumption directly from production telemetry — distributed
//! traces plus resource metrics — with no application knowledge.
//!
//! The crate mirrors the paper's architecture:
//!
//! * [`FeatureSpace`] — the distributed-tracing feature extractor (§4.1,
//!   Algorithms 1 and 2): every root-prefix invocation path in the execution
//!   topology is a feature; a window of traces becomes a path-count vector.
//! * [`TraceSynthesizer`] — learns `Prob(trace shape | API)` during
//!   application learning and samples synthetic traces for hypothetical
//!   query traffic (§4.4).
//! * [`DeepRest`] — the API-aware deep resource estimator (§4.2): one expert
//!   per resource, each an API-aware sigmoid mask over path features, a GRU
//!   recurrent core, cross-component attention over the other experts'
//!   hidden states, and a three-quantile head trained with pinball loss
//!   (§4.3, δ-confidence intervals). Cumulative resources (disk usage) are
//!   learned and estimated as per-window increments.
//! * [`train`] — every writer of the parameters: [`DeepRest::fit`],
//!   [`DeepRest::fit_transferred`], [`DeepRest::fit_incremental`] and the
//!   online update step [`train::OnlineUpdater`] that the continual-learning
//!   loop (`deeprest-adapt`) drives. One batch step and one target encoding
//!   serve them all.
//! * The queries — [`DeepRest::estimate_from_traces`] (Mode 2),
//!   [`DeepRest::estimate_traffic`] (Mode 1) and
//!   [`DeepRest::estimate_what_if`] — return [`Estimates`].
//! * [`stream`] — stepwise (streaming) inference: a [`stream::StreamPredictor`]
//!   carries per-expert GRU hidden state across windows so online serving
//!   costs one GRU step + attention + head per window. It is the crate's
//!   only inference implementation: the batch `estimate_*` queries step a
//!   fresh predictor over their rows.
//! * [`sanity`] — application sanity checks (§5.4): per-window deviation
//!   from the expected interval, ensembled across resources, turned into
//!   interpretable alerts; detects ransomware and cryptojacking. Its one
//!   scorer, [`sanity::OnlineSanity`], is causal: the batch
//!   [`sanity::check`] feeds each series through it, and `deeprest-serve`
//!   feeds it live.
//! * [`interpret`] — model interpretation (§6): learned API-aware masks
//!   reveal API→resource dependencies (Fig. 22); PCA over the GRU's
//!   application-independent parameters clusters experts (Fig. 21).
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for the full
//! learn → query → sanity-check walkthrough against the simulated social
//! network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
#[cfg(test)]
mod estimator;
mod features;
pub mod interpret;
mod model;
#[cfg(test)]
mod oracle;
mod query;
pub mod sanity;
pub mod stream;
mod synthesizer;
pub mod train;

pub use config::{DeepRestConfig, OptimizerKind};
pub use features::FeatureSpace;
pub use model::{DeepRest, ExpertKey};
pub use query::{Estimates, PredictedSeries};
pub use synthesizer::TraceSynthesizer;
pub use train::{PhaseSeconds, TrainReport};
