//! Scaling policies: how a control tick turns evidence into desired
//! replica counts.
//!
//! A policy is deliberately *stateless* and unclamped — it proposes a raw
//! desired replica count per component from whatever evidence it consumes
//! (model estimates for the proactive policy, observed utilization for the
//! reactive baseline), and the [`ScaleController`](crate::ScaleController)
//! applies bounds, cooldown and scale-down hysteresis identically for
//! every policy. That split keeps the proactive-vs-reactive comparison
//! fair: both run through the same actuation discipline, they differ only
//! in foresight.

use deeprest_baselines::ReactiveConfig;
use deeprest_core::Estimates;
use deeprest_metrics::ResourceKind;
use deeprest_sim::{AppSpec, ComponentRow};

/// Everything a policy may look at when deciding, for one control tick.
pub struct PolicyContext<'a> {
    /// The application being scaled (component order defines the decision
    /// vector order).
    pub app: &'a AppSpec,
    /// Window index of the control tick.
    pub window: usize,
    /// Currently applied replica targets, component order.
    pub current: &'a [u32],
    /// The most recent stepped window's per-component observations.
    pub observed: &'a [ComponentRow],
    /// What-if estimates for the upcoming horizon, in **1-replica terms**
    /// (the deployment the model was trained on). `None` when the estimate
    /// failed or the policy declared it does not need one.
    pub estimates: Option<&'a Estimates>,
}

/// A replica-count policy: proposes raw desired replicas per component.
pub trait ScalePolicy {
    /// Short policy name for traces and reports.
    fn name(&self) -> &'static str;

    /// Whether the control loop should run a what-if estimate for this
    /// policy's ticks. Reactive policies return `false` and skip the model
    /// entirely.
    fn needs_estimates(&self) -> bool;

    /// Proposes a desired replica count per component (component
    /// declaration order). Values are *raw*: the controller clamps,
    /// rate-limits and applies hysteresis.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<u32>;
}

/// The proactive utilization-target policy: sizes each component so the
/// *predicted* per-replica CPU utilization over the upcoming horizon stays
/// at `target_utilization`.
///
/// The model predicts CPU in 1-replica percent (the deployment it was
/// trained on); spreading that demand over `r` replicas divides it by `r`,
/// so the smallest sufficient deployment is
/// `ceil(peak_predicted_pct / (100 × target_utilization))`. The peak is
/// taken over the horizon's *median* (expected) series — the δ-interval's
/// upper band is deliberately wide (it feeds the sanity check, not
/// capacity planning) and sizing on it over-provisions several-fold; the
/// utilization target itself carries the safety headroom.
#[derive(Clone, Copy, Debug)]
pub struct TargetUtilizationPolicy {
    /// Per-replica CPU utilization the policy provisions for (fraction,
    /// e.g. `0.35`).
    pub target_utilization: f64,
}

impl Default for TargetUtilizationPolicy {
    fn default() -> Self {
        Self {
            target_utilization: 0.5,
        }
    }
}

impl ScalePolicy for TargetUtilizationPolicy {
    fn name(&self) -> &'static str {
        "proactive-target-utilization"
    }

    fn needs_estimates(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<u32> {
        let Some(estimates) = ctx.estimates else {
            // No estimate: hold the current deployment.
            return ctx.current.to_vec();
        };
        let target_pct = (self.target_utilization.max(1e-6)) * 100.0;
        ctx.app
            .components
            .iter()
            .zip(ctx.current)
            .map(|(comp, &current)| {
                let Some(series) = estimates.get_parts(&comp.name, ResourceKind::Cpu) else {
                    return current;
                };
                let peak = series
                    .expected
                    .values()
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                if !peak.is_finite() {
                    // Quarantined or poisoned expert: hold.
                    return current;
                }
                (peak.max(0.0) / target_pct).ceil().max(1.0) as u32
            })
            .collect()
    }
}

/// The reactive threshold baseline: classic HPA control on *observed*
/// per-replica utilization, with no traffic foresight.
///
/// The decision formula is the one
/// [`deeprest_baselines::ReactiveScaling`] implements and unit-tests —
/// `ceil(current × observed / target)` inside a relative deadband — reused
/// here in the controller-owned actuation discipline (the standalone
/// baseline carries its own cooldown; under the [`crate::ScaleController`] the
/// cooldown is applied once, centrally, so both policies face identical
/// rate limits).
#[derive(Clone, Copy, Debug)]
pub struct ReactiveBaseline {
    /// Target/deadband tuning, shared with the standalone baseline.
    pub config: ReactiveConfig,
}

impl ReactiveBaseline {
    /// A baseline steering toward the given per-replica utilization.
    pub fn new(target_utilization: f64) -> Self {
        Self {
            config: ReactiveConfig {
                target_utilization,
                ..ReactiveConfig::default()
            },
        }
    }
}

impl ScalePolicy for ReactiveBaseline {
    fn name(&self) -> &'static str {
        "reactive-threshold"
    }

    fn needs_estimates(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<u32> {
        let tgt = self.config.target_utilization.max(1e-9);
        ctx.observed
            .iter()
            .zip(ctx.current)
            .map(|(row, &current)| {
                let utilization = row.saturation;
                if (utilization - tgt).abs() <= self.config.deadband * tgt {
                    return current;
                }
                (f64::from(current) * utilization / tgt).ceil().max(1.0) as u32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_sim::{ApiSpec, CallNode, ComponentSpec, OperationCost};

    fn app() -> AppSpec {
        let mut app = AppSpec::new("t");
        app.add_component(ComponentSpec::stateless("A"));
        app.add_component(ComponentSpec::stateless("B"));
        app.set_cost("A", "op", OperationCost::cpu(1.0));
        app.set_cost("B", "op", OperationCost::cpu(1.0));
        app.add_api(ApiSpec::new(
            "/x",
            1.0,
            CallNode::new("A", "op").child(CallNode::new("B", "op")),
        ));
        app
    }

    fn row(saturation: f64) -> ComponentRow {
        ComponentRow {
            saturation,
            ..ComponentRow::default()
        }
    }

    #[test]
    fn proactive_holds_without_estimates() {
        let app = app();
        let mut p = TargetUtilizationPolicy::default();
        let ctx = PolicyContext {
            app: &app,
            window: 4,
            current: &[2, 3],
            observed: &[row(0.2), row(0.2)],
            estimates: None,
        };
        assert_eq!(p.decide(&ctx), vec![2, 3]);
    }

    #[test]
    fn reactive_scales_on_observed_saturation() {
        let app = app();
        let mut p = ReactiveBaseline::new(0.5);
        let ctx = PolicyContext {
            app: &app,
            window: 4,
            current: &[1, 2],
            // A overloaded at 1.5, B comfortably inside the deadband.
            observed: &[row(1.5), row(0.5)],
            estimates: None,
        };
        assert_eq!(p.decide(&ctx), vec![3, 2]);
    }
}
