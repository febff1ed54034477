//! The estimator's end-to-end unit tests: fit, query, the JSON form, and
//! the pack after every writer of the parameters — `model`, `query` and
//! `train` together.

mod tests;
