//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5-§6).
//!
//! Each figure/table is an id of `deeprest experiment <id>`, and
//! [`experiments`] holds the table of ids. An experiment module exposes one
//! entry function that returns its record's results; the one runner
//! ([`experiments::run`]) builds the learning phase the entry names (the
//! simulated application, its learning days and the four trained
//! estimators of an `ExpCtx`), prints the banner and writes
//! `<out>/<id>.json`. `all` runs every id and also writes
//! `<out>/EXPERIMENTS.json`, the record CI checks the committed copy
//! against. Every id accepts:
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
#![warn(unreachable_pub)]

pub(crate) mod args;
pub mod experiments;
pub(crate) mod harness;
pub(crate) mod report;

pub use args::Args;
pub(crate) use harness::{filter_metrics, focus_scope, ExpCtx, Phase};
