//! API traffic generation for DeepRest experiments.
//!
//! Substitutes the paper's Locust-based workload generator (§5.1): it
//! produces the *expected requests per window per API endpoint* that drive
//! the application simulator, with the three workload characteristics the
//! paper's business scenarios vary:
//!
//! * **scale** — the number of concurrent application users (Fig. 13a/14),
//! * **API composition** — the mix of endpoints invoked (Fig. 13b/15),
//! * **traffic shape** — two peak-hours per day vs flat, etc. (Fig. 13c/16),
//!
//! plus day-to-day jitter and per-window noise "to mimic non-deterministic
//! properties in practice".
//!
//! The [`content`] module stands in for the real-world datasets the paper
//! imports (a Facebook social graph and INRIA photos): a synthetic Zipf
//! social graph and payload-size distributions with the same role — driving
//! per-request cost variation in the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod content;
mod shape;
mod spec;
mod traffic;

pub use shape::TrafficShape;
pub use spec::WorkloadSpec;
pub use traffic::ApiTraffic;
