//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5-§6).
//!
//! Each figure/table is an id of `deeprest experiment <id>` (the table in
//! [`experiments`]; see DESIGN.md's per-experiment index). All experiments
//! share this harness: it builds the
//! simulated application, generates the 7-day application-learning workload
//! (Fig. 9), trains DeepRest and the three baselines, runs queries through
//! all four estimators uniformly, and prints paper-style rows plus ASCII
//! sparkline "figures". Every id accepts:
//!
//! ```text
//! --seed N             master seed                        (default 17)
//! --users N            learning-phase concurrent users    (default 120)
//! --days N             learning days                      (default 7)
//! --windows-per-day N  scrape windows per day             (default 96)
//! --hidden N           GRU hidden units                   (default 32)
//! --epochs N           training epochs                    (default 30)
//! --full               full expert swarm (all resources, slower)
//! --paper-sgd          the paper's SGD optimizer instead of Adam
//! --threads N          worker threads (default DEEPREST_THREADS / all cores;
//!                      results are bit-identical at any setting)
//! --telemetry SPEC     telemetry sink: off | memory | jsonl | jsonl:<path>
//!                      (bare "jsonl"/"on"/"1" writes <out>/telemetry.jsonl;
//!                      default: the DEEPREST_TELEMETRY env var)
//! --out PATH           JSON result dump directory (default target/experiments)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod harness;
pub mod report;

pub use args::Args;
pub use harness::{filter_metrics, focus_scope, EstimatorSet, ExpCtx};
