//! Resource telemetry and evaluation metrics for DeepRest.
//!
//! Stands in for the paper's Prometheus/cAdvisor telemetry stack: windowed
//! utilization time-series per `(component, resource)` pair, plus the
//! evaluation machinery the paper's §5 uses — mean absolute percentage error
//! for estimation quality (Fig. 12, 14-17), interval coverage and the
//! L2-outside-interval anomaly scores of the sanity checks (Fig. 19-20).
//!
//! The five resource types match the paper's prototype exactly: CPU and
//! memory for every component, plus write IOps, write throughput and disk
//! usage for stateful components (§5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod eval;
mod registry;
mod resource;
mod scaler;
mod series;

pub use registry::{MetricKey, MetricsRegistry};
pub use resource::{increment, increments, ResourceKind};
pub use scaler::MinMaxScaler;
pub use series::TimeSeries;
