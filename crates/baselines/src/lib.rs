//! The paper's three comparison baselines (§5.1):
//!
//! * [`ResourceAwareDl`] — "resrc-aware DL": a neural network per
//!   `(component, resource)` trained on *historical utilization only*,
//!   taking the previous day's utilization to predict the next day. It
//!   represents prior resource-forecasting work and is blind to API
//!   traffic.
//! * [`SimpleScaling`] — scales every resource of every component by the
//!   same factor: how many more or fewer API requests arrive relative to
//!   the past. API-volume-aware but flow-blind.
//! * [`ComponentAwareScaling`] — uses distributed traces to learn how often
//!   each *component* is invoked and scales all of a component's resources
//!   by its own invocation ratio. Flow-aware but resource-blind: it cannot
//!   tell that /readTimeline drives a store's CPU without driving its write
//!   IOps.
//!
//! All three implement [`BaselineEstimator`] over a shared
//! [`LearnData`]/[`QueryData`] interface so the experiment binaries can run
//! the four estimators (the baselines plus DeepRest) uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! A fourth, non-estimating baseline rides along for the closed-loop
//! autoscaling comparison: [`ReactiveConfig`] tunes the HPA-style
//! threshold policy (`deeprest_scale::ReactiveBaseline`) that reacts to
//! observed utilization with no traffic foresight — the policy
//! `deeprest-scale`'s proactive loop is measured against.

mod component_aware;
mod interface;
mod reactive;
mod resource_aware;
mod simple_scaling;

pub use component_aware::ComponentAwareScaling;
pub use interface::{day_profile, BaselineEstimator, LearnData, QueryData};
pub use reactive::ReactiveConfig;
pub use resource_aware::ResourceAwareDl;
pub use simple_scaling::SimpleScaling;
