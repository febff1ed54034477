//! Tuning of the reactive threshold autoscaler — the `deeprest-scale`
//! comparison baseline.
//!
//! Classic HPA-style control: observe the *current* per-replica
//! utilization and multiply the replica count by `observed / target`,
//! holding inside a deadband. No model, no traffic foresight — it reacts to
//! load it can already see, which is exactly why it pays for surges with
//! SLO-violation windows (the scale-up only starts once utilization has
//! already blown past the target, and new replicas arrive a start-up lag
//! later) and then bleeds the extra capacity off slowly. The policy itself
//! is `deeprest_scale::ReactiveBaseline`, run under the same controller
//! (bounds, cooldown, hysteresis) as the proactive policy.

use serde::{Deserialize, Serialize};

/// Target and deadband of the reactive threshold autoscaler.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ReactiveConfig {
    /// Per-replica utilization the controller steers toward (fraction of
    /// capacity, e.g. `0.65`).
    pub target_utilization: f64,
    /// Relative deadband around the target inside which no decision is
    /// made (e.g. `0.1` holds while utilization is within ±10% of target).
    pub deadband: f64,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        Self {
            target_utilization: 0.65,
            deadband: 0.1,
        }
    }
}
