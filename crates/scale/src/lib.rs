//! Closed-loop proactive autoscaling on top of DeepRest estimates.
//!
//! DeepRest's headline interface (§3) answers hypothetical traffic
//! questions: *"what resources would this workload need?"*. This crate
//! closes the loop on that answer. A [`ScaleLoop`] couples three existing
//! subsystems:
//!
//! * the replica-aware simulator ([`deeprest_sim::SimStepper`]) plays the
//!   role of the cluster — it serves each traffic window on the current
//!   deployment, with container start-up lag on scale-ups;
//! * the serving pipeline ([`deeprest_serve::Pipeline`]) ingests the live
//!   trace stream; the loop reads only its
//!   [`position`](deeprest_serve::Pipeline::position) and, every
//!   [`CONTROL_INTERVAL`] sealed windows (a cadence the loop keeps itself:
//!   the last decision's window is the last tick), its read-only
//!   [`snapshot`](deeprest_serve::Pipeline::snapshot);
//! * [`DeepRest::estimate_what_if`](deeprest_core::DeepRest::estimate_what_if)
//!   forks the upcoming *announced* traffic (calibrated by the live
//!   observed/announced volume ratio) off that snapshot, predicting each
//!   component's CPU in 1-replica terms.
//!
//! The [`TargetUtilizationPolicy`] then sizes each component to keep
//! predicted per-replica utilization at target — *before* the traffic
//! arrives, covering the scale-up lag. The `ReactiveBaseline` is the
//! comparison: the same actuation discipline ([`ScaleController`]:
//! bounds, cooldown, scale-down hysteresis) but driven by observed
//! saturation only, so it pays every surge with violation windows during
//! the reaction lag and with congestion-amplified overshoot afterwards.
//!
//! Everything is seeded and deterministic: the same
//! `(scenario, policy)` pair produces a bit-identical
//! [`DecisionRecord`] sequence at any `DEEPREST_THREADS` setting, and a
//! [`ScaleCheckpoint`] — one serde tree, the serving pipeline's
//! [`deeprest_serve::Checkpoint`] nested in it as a value — resumes
//! mid-scenario without perturbing a single decision. The scenario-test harness (`tests/scenarios.rs`) pins the
//! traces as golden fixtures and asserts the headline claim: proactive
//! beats reactive on SLO-violation windows at equal or lower provisioned
//! cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod closed_loop;
mod controller;
mod policy;
mod scenario;

pub use closed_loop::{DecisionRecord, ScaleCheckpoint, ScaleLoop, ScaleReport, CONTROL_INTERVAL};
pub use controller::{ControllerConfig, ControllerState, ScaleController};
pub use policy::PolicyContext;
pub(crate) use policy::ReactiveBaseline;
pub use policy::{ScalePolicy, TargetUtilizationPolicy};
pub use scenario::{demo_app, Scenario, ScenarioKind};

use deeprest_core::DeepRest;

/// The proactive policy's per-replica utilization target. Planning on a
/// forecast lets it run hot: capacity is in place *before* demand arrives,
/// so the target only needs to absorb forecast error, not reaction lag.
pub(crate) const PROACTIVE_TARGET_UTILIZATION: f64 = 0.6;

/// The reactive baseline's per-replica utilization target — the canonical
/// ~50% threshold-autoscaler operating point. Without foresight, standing
/// headroom is the only defense against reaction lag, and that headroom is
/// exactly what the proactive policy's cost advantage comes from.
pub(crate) const REACTIVE_TARGET_UTILIZATION: f64 = 0.5;

/// Runs `scenario` under the proactive utilization-target policy.
///
/// # Errors
///
/// Propagates loop failures (see [`ScaleLoop::step`]).
pub fn run_proactive(model: &DeepRest, scenario: &Scenario) -> Result<ScaleReport, String> {
    ScaleLoop::new(model, scenario, TargetUtilizationPolicy).run_to_end()
}

/// Runs `scenario` under the reactive threshold baseline.
///
/// # Errors
///
/// Propagates loop failures (see [`ScaleLoop::step`]).
pub fn run_reactive(model: &DeepRest, scenario: &Scenario) -> Result<ScaleReport, String> {
    let policy = ReactiveBaseline::new(REACTIVE_TARGET_UTILIZATION);
    ScaleLoop::new(model, scenario, policy).run_to_end()
}
