//! The actuation discipline shared by every policy: bounds, cooldown and
//! scale-down hysteresis.

use serde::{Deserialize, Serialize};

use deeprest_sim::AppSpec;

/// Controller tuning.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Lower replica bound for every component (clamped to at least 1).
    pub min_replicas: u32,
    /// Control ticks after an applied change during which further changes
    /// to that component are suppressed (values below 1 behave as 1: the
    /// very next tick may act again).
    pub cooldown_ticks: usize,
    /// Consecutive ticks a *lower* desire must persist before a scale-down
    /// is applied. Scale-ups always apply immediately — under-provisioning
    /// costs SLO violations, over-provisioning only money.
    pub down_stable_ticks: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            cooldown_ticks: 1,
            down_stable_ticks: 2,
        }
    }
}

/// Serializable per-component controller state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Applied replica target per component.
    pub targets: Vec<u32>,
    /// Tick index (not window index) at which each component may change
    /// again.
    pub cooldown_until: Vec<usize>,
    /// Consecutive ticks each component has desired fewer replicas.
    pub down_streak: Vec<usize>,
    /// Ticks processed so far.
    pub ticks: usize,
}

/// Applies a policy's raw desires to the deployment: per-component clamping
/// to `[min, spec.max_replicas]`, a per-component cooldown between applied
/// changes, and scale-down hysteresis. Decisions are a pure function of the
/// desire sequence — no clock, no randomness — so a decision trace replays
/// bit-identically.
#[derive(Clone, Debug)]
pub struct ScaleController {
    config: ControllerConfig,
    maxes: Vec<u32>,
    state: ControllerState,
}

impl ScaleController {
    /// A controller for `app` with every component starting at the lower
    /// bound.
    pub fn new(app: &AppSpec, config: ControllerConfig) -> Self {
        let n = app.components.len();
        let maxes: Vec<u32> = app
            .components
            .iter()
            .map(|c| c.max_replicas.max(1))
            .collect();
        let start: Vec<u32> = maxes
            .iter()
            .map(|&m| config.min_replicas.clamp(1, m))
            .collect();
        Self {
            config,
            maxes,
            state: ControllerState {
                targets: start,
                cooldown_until: vec![0; n],
                down_streak: vec![0; n],
                ticks: 0,
            },
        }
    }

    /// Currently applied replica targets.
    pub fn targets(&self) -> &[u32] {
        &self.state.targets
    }

    /// Snapshot of the dynamic state for checkpointing.
    pub(crate) fn state(&self) -> ControllerState {
        self.state.clone()
    }

    /// Restores the dynamic state captured by [`state`](Self::state).
    ///
    /// # Errors
    ///
    /// Returns a message when the state's component count disagrees.
    pub(crate) fn restore_state(&mut self, state: ControllerState) -> Result<(), String> {
        let n = self.maxes.len();
        if state.targets.len() != n
            || state.cooldown_until.len() != n
            || state.down_streak.len() != n
        {
            return Err(format!(
                "ScaleController: state has {} components, app has {n}",
                state.targets.len()
            ));
        }
        self.state = state;
        Ok(())
    }

    /// Processes one tick of raw policy desires, returning the applied
    /// replica targets (component order).
    ///
    /// # Panics
    ///
    /// Panics if `desired` length differs from the component count.
    pub fn apply(&mut self, desired: &[u32]) -> Vec<u32> {
        assert_eq!(
            desired.len(),
            self.maxes.len(),
            "ScaleController: desired length must match the component count"
        );
        let tick = self.state.ticks;
        self.state.ticks += 1;
        for (i, &want) in desired.iter().enumerate() {
            let clamped = want.clamp(self.config.min_replicas.max(1), self.maxes[i]);
            let current = self.state.targets[i];
            // Hysteresis bookkeeping runs every tick, including cooldown
            // ticks: a scale-down must be *continuously* desired.
            if clamped < current {
                self.state.down_streak[i] += 1;
            } else {
                self.state.down_streak[i] = 0;
            }
            if tick < self.state.cooldown_until[i] || clamped == current {
                continue;
            }
            if clamped < current && self.state.down_streak[i] < self.config.down_stable_ticks {
                continue;
            }
            self.state.targets[i] = clamped;
            self.state.cooldown_until[i] = tick + self.config.cooldown_ticks.max(1);
            self.state.down_streak[i] = 0;
        }
        self.state.targets.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_sim::{ApiSpec, CallNode, ComponentSpec, OperationCost};

    fn app() -> AppSpec {
        let mut app = AppSpec::new("t");
        app.add_component(ComponentSpec::stateless("A").with_max_replicas(4));
        app.set_cost("A", "op", OperationCost::cpu(1.0));
        app.add_api(ApiSpec::new("/x", 1.0, CallNode::new("A", "op")));
        app
    }

    fn controller(config: ControllerConfig) -> ScaleController {
        ScaleController::new(&app(), config)
    }

    #[test]
    fn scale_up_applies_immediately_and_clamps() {
        let mut c = controller(ControllerConfig::default());
        assert_eq!(c.apply(&[9]), vec![4], "clamped to the spec ceiling");
    }

    #[test]
    fn cooldown_spaces_out_changes() {
        let mut c = controller(ControllerConfig {
            cooldown_ticks: 2,
            ..ControllerConfig::default()
        });
        assert_eq!(c.apply(&[3]), vec![3]);
        assert_eq!(c.apply(&[4]), vec![3], "inside cooldown");
        assert_eq!(c.apply(&[4]), vec![4]);
    }

    #[test]
    fn scale_down_needs_a_stable_streak() {
        let mut c = controller(ControllerConfig {
            cooldown_ticks: 1,
            down_stable_ticks: 2,
            ..ControllerConfig::default()
        });
        assert_eq!(c.apply(&[4]), vec![4]);
        assert_eq!(c.apply(&[1]), vec![4], "first lower desire only arms");
        assert_eq!(c.apply(&[1]), vec![1], "second consecutive applies");
    }

    #[test]
    fn an_up_desire_resets_the_down_streak() {
        let mut c = controller(ControllerConfig {
            cooldown_ticks: 1,
            down_stable_ticks: 2,
            ..ControllerConfig::default()
        });
        assert_eq!(c.apply(&[4]), vec![4]);
        assert_eq!(c.apply(&[1]), vec![4]);
        assert_eq!(c.apply(&[4]), vec![4], "streak broken");
        assert_eq!(c.apply(&[1]), vec![4], "must re-arm from scratch");
        assert_eq!(c.apply(&[1]), vec![1]);
    }

    #[test]
    fn state_round_trips() {
        let mut c = controller(ControllerConfig::default());
        c.apply(&[3]);
        c.apply(&[2]);
        let state = c.state();
        let mut restored = controller(ControllerConfig::default());
        restored.restore_state(state.clone()).unwrap();
        assert_eq!(restored.state(), state);
        assert_eq!(restored.apply(&[2]), c.apply(&[2]));
    }
}
