//! The closed control loop: simulate a window, stream its traces through
//! the serving pipeline, and on each control tick fork a what-if query off
//! the live predictor to decide the next deployment.

use deeprest_core::{DeepRest, Estimates};
use deeprest_fault as fault;
use deeprest_serve::{Checkpoint, Pipeline, ServeConfig};
use deeprest_sim::{ProvisionCost, SimStepper, SimStepperState};
use deeprest_telemetry as telemetry;
use deeprest_trace::window::TimestampedTrace;
use serde::{Deserialize, Serialize};

use crate::controller::{ControllerConfig, ControllerState, ScaleController};
use crate::policy::{PolicyContext, ScalePolicy};
use crate::scenario::Scenario;

/// Control-loop tuning.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScaleLoopConfig {
    /// Windows between control ticks.
    pub control_interval: usize,
    /// Announced-traffic windows each what-if query looks ahead. Must
    /// cover `control_interval + scale_lag` or a surge can land inside the
    /// blind spot between ticks.
    pub horizon: usize,
    /// Seed for what-if trace sampling (combined with the tick window, so
    /// every tick draws a fresh but reproducible stream).
    pub what_if_seed: u64,
    /// Per-replica saturation above which a window counts as an SLO
    /// violation.
    pub slo_saturation: f64,
    /// EWMA weight of the newest observed/announced volume ratio in the
    /// forecast calibration.
    pub calibration_alpha: f64,
    /// Watermark lateness of the embedded serving pipeline, seconds.
    pub lateness_secs: f64,
    /// Provisioned-capacity pricing for the cost objective.
    pub provision: ProvisionCost,
    /// Actuation discipline (bounds, cooldown, hysteresis).
    pub controller: ControllerConfig,
}

impl Default for ScaleLoopConfig {
    fn default() -> Self {
        Self {
            control_interval: 4,
            horizon: 8,
            what_if_seed: 11,
            slo_saturation: 0.9,
            calibration_alpha: 0.4,
            lateness_secs: 1.0,
            provision: ProvisionCost::default(),
            controller: ControllerConfig::default(),
        }
    }
}

/// One control decision, as recorded in the decision trace (and the golden
/// fixtures).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Window index of the control tick.
    pub window: usize,
    /// The policy's raw desires, component order.
    pub desired: Vec<u32>,
    /// What the controller actually applied.
    pub applied: Vec<u32>,
    /// `true` when the what-if estimate failed (fault-injected or
    /// poisoned) and the loop held the last deployment.
    pub held: bool,
}

/// Aggregate outcome of a completed run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Policy name.
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Windows simulated.
    pub windows: usize,
    /// Windows in which any component's per-replica saturation exceeded
    /// the SLO threshold.
    pub slo_violation_windows: usize,
    /// Total provisioned cost over the run (cost units).
    pub provisioned_cost: f64,
    /// Mean replicas per component over the run, component order.
    pub mean_replicas: Vec<f64>,
    /// What-if estimates that failed and degraded to hold-last-decision.
    pub estimate_errors: u64,
    /// The full decision trace.
    pub decisions: Vec<DecisionRecord>,
}

/// Resumable state of a [`ScaleLoop`]: everything dynamic, serializable to
/// JSON. Together with the (model, scenario, policy, config) used at
/// construction this resumes bit-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleCheckpoint {
    /// Next window index.
    pub window: usize,
    /// Simulator state.
    pub sim: SimStepperState,
    /// Serving-pipeline checkpoint, JSON-framed.
    pub serve: String,
    /// Controller state.
    pub controller: ControllerState,
    /// Forecast calibration EWMA.
    pub calibration: f64,
    /// SLO violation windows so far.
    pub violations: usize,
    /// Provisioned cost so far.
    pub cost: f64,
    /// Replica-window sums per component (for mean replicas).
    pub replica_windows: Vec<u64>,
    /// Failed what-if estimates so far.
    pub estimate_errors: u64,
    /// Decision trace so far.
    pub decisions: Vec<DecisionRecord>,
}

/// The closed loop for one `(scenario, policy)` pair.
///
/// Each [`step`](Self::step) simulates one traffic window on the current
/// deployment, ingests the produced traces into the embedded serving
/// pipeline, and — when the pipeline yields a control tick — runs the
/// policy: the proactive policy forks a [what-if
/// query](DeepRest::estimate_what_if) off the tick's predictor snapshot
/// against the calibrated announced forecast; the reactive baseline looks
/// only at observed saturation. The controller's applied targets feed back
/// into the simulator, whose scale-up lag models container start-up.
///
/// Scaling decisions never consume simulator RNG draws, so the sampled
/// request stream is identical for every policy — the comparison measures
/// policies, not luck. Everything downstream is seeded: the same
/// `(scenario, policy, config)` triple yields a bit-identical
/// [`DecisionRecord`] sequence at any thread count.
pub struct ScaleLoop<'m, P: ScalePolicy> {
    model: &'m DeepRest,
    scenario: &'m Scenario,
    config: ScaleLoopConfig,
    policy: P,
    stepper: SimStepper,
    pipeline: Pipeline<'m>,
    controller: ScaleController,
    window: usize,
    calibration: f64,
    violations: usize,
    cost: f64,
    replica_windows: Vec<u64>,
    estimate_errors: u64,
    decisions: Vec<DecisionRecord>,
}

impl<'m, P: ScalePolicy> ScaleLoop<'m, P> {
    /// Builds the loop at window 0 with every component at the lower
    /// replica bound.
    pub fn new(
        model: &'m DeepRest,
        scenario: &'m Scenario,
        policy: P,
        config: ScaleLoopConfig,
    ) -> Self {
        let apis: Vec<String> = scenario
            .actual
            .apis()
            .iter()
            .map(|a| a.to_string())
            .collect();
        let stepper = SimStepper::new(&scenario.app, &apis, &scenario.sim);
        let serve_config = ServeConfig::default()
            .with_window_secs(scenario.sim.window_secs)
            .with_lateness_secs(config.lateness_secs)
            .with_control_interval(config.control_interval);
        // The stepper pre-interns every app name deterministically, so its
        // interner is the pipeline's source symbol space.
        let pipeline = Pipeline::new(model, stepper.interner(), serve_config);
        let controller = ScaleController::new(&scenario.app, config.controller);
        let n = scenario.app.components.len();
        Self {
            model,
            scenario,
            config,
            policy,
            stepper,
            pipeline,
            controller,
            window: 0,
            calibration: 1.0,
            violations: 0,
            cost: 0.0,
            replica_windows: vec![0; n],
            estimate_errors: 0,
            decisions: Vec::new(),
        }
    }

    /// The decision trace so far.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Next window index.
    pub fn position(&self) -> usize {
        self.window
    }

    /// Captures the full dynamic state for bit-identical resume.
    ///
    /// # Errors
    ///
    /// Returns a message when the serving checkpoint fails to serialize.
    pub fn checkpoint(&self) -> Result<ScaleCheckpoint, String> {
        let serve = self
            .pipeline
            .checkpoint()
            .to_json()
            .map_err(|e| format!("scale checkpoint: serve state: {e}"))?;
        Ok(ScaleCheckpoint {
            window: self.window,
            sim: self.stepper.checkpoint(),
            serve,
            controller: self.controller.state(),
            calibration: self.calibration,
            violations: self.violations,
            cost: self.cost,
            replica_windows: self.replica_windows.clone(),
            estimate_errors: self.estimate_errors,
            decisions: self.decisions.clone(),
        })
    }

    /// Rebuilds a loop from a [`checkpoint`](Self::checkpoint);
    /// `model`, `scenario`, `policy` and `config` must match the original
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns a message when any sub-state fails to restore.
    pub fn restore(
        model: &'m DeepRest,
        scenario: &'m Scenario,
        policy: P,
        config: ScaleLoopConfig,
        ckpt: ScaleCheckpoint,
    ) -> Result<Self, String> {
        let mut this = Self::new(model, scenario, policy, config);
        let apis: Vec<String> = scenario
            .actual
            .apis()
            .iter()
            .map(|a| a.to_string())
            .collect();
        this.stepper = SimStepper::restore(&scenario.app, &apis, &scenario.sim, ckpt.sim)?;
        let serve = Checkpoint::from_json(&ckpt.serve)
            .map_err(|e| format!("scale restore: serve state: {e}"))?;
        let serve_config = ServeConfig::default()
            .with_window_secs(scenario.sim.window_secs)
            .with_lateness_secs(config.lateness_secs)
            .with_control_interval(config.control_interval);
        this.pipeline = Pipeline::restore(model, this.stepper.interner(), serve_config, serve)
            .map_err(|e| format!("scale restore: pipeline: {e}"))?;
        this.controller.restore_state(ckpt.controller)?;
        this.window = ckpt.window;
        this.calibration = ckpt.calibration;
        this.violations = ckpt.violations;
        this.cost = ckpt.cost;
        this.replica_windows = ckpt.replica_windows;
        this.estimate_errors = ckpt.estimate_errors;
        this.decisions = ckpt.decisions;
        Ok(this)
    }

    /// Advances one window. Returns `false` when the scenario is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns a message when the serving pipeline fails terminally (it
    /// retries and parks transient faults internally).
    pub fn step(&mut self) -> Result<bool, String> {
        let t = self.window;
        let actual = &self.scenario.actual;
        if t >= actual.window_count() {
            return Ok(false);
        }
        let obs = self.stepper.step(actual.window(t), &[]);

        // SLO and cost accounting on what actually served the window.
        let window_secs = self.scenario.sim.window_secs;
        let mut violated = false;
        for (i, row) in obs.rows.iter().enumerate() {
            let spec = &self.scenario.app.components[i];
            self.cost += self
                .config
                .provision
                .window_cost(spec, row.replicas, window_secs);
            self.replica_windows[i] += u64::from(row.replicas);
            if row.saturation > self.config.slo_saturation {
                violated = true;
            }
        }
        if violated {
            self.violations += 1;
            if telemetry::enabled() {
                telemetry::counter("scale.slo.violation", 1);
            }
        }

        // Forecast calibration: how hot is reality running vs the
        // announcement?
        let announced_total = self.scenario.announced.total_at(t);
        let actual_total: f64 = actual.window(t).iter().sum();
        if announced_total > 1e-9 {
            let sample = actual_total / announced_total;
            let a = self.config.calibration_alpha.clamp(0.0, 1.0);
            self.calibration = a * sample + (1.0 - a) * self.calibration;
        }

        // Stream the window's traces into the serving pipeline, spread
        // evenly inside the window.
        let n = obs.traces.len().max(1) as f64;
        for (j, trace) in obs.traces.into_iter().enumerate() {
            let at_secs = (t as f64 + (j as f64 + 0.5) / n) * window_secs;
            self.pipeline
                .ingest(TimestampedTrace { at_secs, trace })
                .map_err(|e| format!("scale loop: ingest at window {t}: {e}"))?;
        }

        if let Some(tick) = self.pipeline.poll_control() {
            let _span = telemetry::span("scale.control_tick");
            let estimates = if self.policy.needs_estimates() {
                self.what_if(tick.window, &tick.predictor)
            } else {
                None
            };
            let held = self.policy.needs_estimates() && estimates.is_none();
            let ctx = PolicyContext {
                app: &self.scenario.app,
                window: tick.window,
                current: self.controller.targets(),
                observed: &obs.rows,
                estimates: estimates.as_ref(),
            };
            let desired = self.policy.decide(&ctx);
            let applied = self.controller.apply(&desired);
            for (i, &r) in applied.iter().enumerate() {
                self.stepper.set_target_replicas(i, r);
            }
            if telemetry::enabled() {
                telemetry::counter("scale.tick", 1);
                telemetry::gauge(
                    "scale.replicas.total",
                    applied.iter().map(|&r| f64::from(r)).sum(),
                );
            }
            self.decisions.push(DecisionRecord {
                window: tick.window,
                desired,
                applied,
                held,
            });
        }

        self.window += 1;
        Ok(true)
    }

    /// Runs to the end of the scenario and summarizes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](Self::step) error.
    pub fn run_to_end(mut self) -> Result<ScaleReport, String> {
        while self.step()? {}
        Ok(self.report())
    }

    /// Summarizes the run so far.
    pub fn report(&self) -> ScaleReport {
        let windows = self.window;
        let mean_replicas = self
            .replica_windows
            .iter()
            .map(|&sum| sum as f64 / windows.max(1) as f64)
            .collect();
        ScaleReport {
            policy: self.policy.name().to_string(),
            scenario: self.scenario.kind.name().to_string(),
            windows,
            slo_violation_windows: self.violations,
            provisioned_cost: self.cost,
            mean_replicas,
            estimate_errors: self.estimate_errors,
            decisions: self.decisions.clone(),
        }
    }

    /// Runs one what-if query against the calibrated announced forecast.
    /// Any failure — injected via the `scale.estimate` fault probe, a
    /// mismatched snapshot, or non-finite output — degrades to `None`
    /// (hold the last decision); it never panics and never disturbs the
    /// live pipeline.
    fn what_if(
        &mut self,
        window: usize,
        snap: &deeprest_core::stream::StreamSnapshot,
    ) -> Option<Estimates> {
        let announced = &self.scenario.announced;
        if fault::fail_point("scale.estimate") {
            self.estimate_error();
            return None;
        }
        let end = (window + self.config.horizon).min(announced.window_count());
        if window >= end {
            return None;
        }
        let horizon = announced.slice(window..end);
        // Clamp the calibration so a corrupt ratio cannot explode the
        // query into territory the model never saw.
        let scaled = horizon.scale(self.calibration.clamp(0.25, 4.0));
        let seed = self.config.what_if_seed ^ (window as u64).wrapping_mul(0x9e37_79b9);
        match self.model.estimate_what_if(snap, &scaled, seed) {
            Ok(estimates) => Some(estimates),
            Err(_) => {
                self.estimate_error();
                None
            }
        }
    }

    fn estimate_error(&mut self) {
        self.estimate_errors += 1;
        if telemetry::enabled() {
            telemetry::counter("scale.estimate.error", 1);
        }
    }
}
