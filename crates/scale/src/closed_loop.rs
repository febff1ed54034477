//! The closed control loop: simulate a window, stream its traces through
//! the serving pipeline, and on each control tick fork a what-if query off
//! the live predictor to decide the next deployment. The loop keeps its own
//! cadence: a tick fires once the pipeline's position is
//! [`CONTROL_INTERVAL`] windows past the last decision's, so the decision
//! trace is also the tick record. A [`ScaleCheckpoint`] holds the
//! pipeline's [`Checkpoint`] as a value, so the loop's state is one serde
//! tree, written once.

use deeprest_core::{DeepRest, Estimates};
use deeprest_fault as fault;
use deeprest_serve::{Checkpoint, Frozen, Pipeline, ServeConfig};
use deeprest_sim::{window_cost, SimStepper, SimStepperState};
use deeprest_telemetry as telemetry;
use deeprest_trace::window::stamp;
use serde::{Deserialize, Serialize};

use crate::controller::{ControllerConfig, ControllerState, ScaleController};
use crate::policy::{PolicyContext, ScalePolicy};
use crate::scenario::Scenario;

/// Sealed windows between control ticks.
pub const CONTROL_INTERVAL: usize = 4;

/// Announced-traffic windows each what-if query looks ahead. Must cover
/// `CONTROL_INTERVAL + scale_lag` or a surge can land inside the blind spot
/// between ticks.
const HORIZON: usize = 8;

/// Seed for what-if trace sampling (combined with the tick window, so every
/// tick draws a fresh but reproducible stream).
const WHAT_IF_SEED: u64 = 11;

/// Per-replica saturation above which a window counts as an SLO violation.
const SLO_SATURATION: f64 = 0.9;

/// EWMA weight of the newest observed/announced volume ratio in the
/// forecast calibration.
const CALIBRATION_ALPHA: f64 = 0.4;

/// Watermark lateness of the embedded serving pipeline, seconds.
const LATENESS_SECS: f64 = 1.0;

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
/// JSON. Together with the (model, scenario, policy) used at construction
/// this resumes bit-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleCheckpoint {
    /// Next window index.
    pub window: usize,
    /// Simulator state.
    pub sim: SimStepperState,
    /// Serving-pipeline checkpoint.
    pub serve: Checkpoint,
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
/// pipeline, and — when a control tick is due — runs the policy: the
/// proactive policy forks a [what-if query](DeepRest::estimate_what_if)
/// off the pipeline's [snapshot](Pipeline::snapshot) against the
/// calibrated announced forecast; the reactive baseline looks only at
/// observed saturation. The controller's applied targets feed back
/// into the simulator, whose scale-up lag models container start-up.
///
/// Scaling decisions never consume simulator RNG draws, so the sampled
/// request stream is identical for every policy — the comparison measures
/// policies, not luck. Everything downstream is seeded: the same
/// `(scenario, policy)` pair yields a bit-identical
/// [`DecisionRecord`] sequence at any thread count.
pub struct ScaleLoop<'m, P: ScalePolicy> {
    model: &'m DeepRest,
    scenario: &'m Scenario,
    policy: P,
    stepper: SimStepper,
    pipeline: Pipeline<Frozen<'m>>,
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
    pub fn new(model: &'m DeepRest, scenario: &'m Scenario, policy: P) -> Self {
        let stepper = SimStepper::new(&scenario.app, &api_names(scenario), &scenario.sim);
        let serve_config = ServeConfig::default()
            .with_window_secs(scenario.sim.window_secs)
            .with_lateness_secs(LATENESS_SECS);
        // The stepper pre-interns every app name deterministically, so its
        // interner is the pipeline's source symbol space.
        let pipeline = Pipeline::new(model, stepper.interner(), serve_config);
        let controller = ScaleController::new(&scenario.app, ControllerConfig::default());
        let n = scenario.app.components.len();
        Self {
            model,
            scenario,
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

    /// Next window index.
    pub fn position(&self) -> usize {
        self.window
    }

    /// Captures the full dynamic state for bit-identical resume.
    pub fn checkpoint(&self) -> ScaleCheckpoint {
        ScaleCheckpoint {
            window: self.window,
            sim: self.stepper.checkpoint(),
            serve: self.pipeline.checkpoint(),
            controller: self.controller.state(),
            calibration: self.calibration,
            violations: self.violations,
            cost: self.cost,
            replica_windows: self.replica_windows.clone(),
            estimate_errors: self.estimate_errors,
            decisions: self.decisions.clone(),
        }
    }

    /// Rebuilds a loop from a [`checkpoint`](Self::checkpoint);
    /// `model`, `scenario` and `policy` must match the original
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns a message when any sub-state fails to restore or does not
    /// fit the scenario's components.
    pub fn restore(
        model: &'m DeepRest,
        scenario: &'m Scenario,
        policy: P,
        ckpt: ScaleCheckpoint,
    ) -> Result<Self, String> {
        let mut this = Self::new(model, scenario, policy);
        if ckpt.replica_windows.len() != this.replica_windows.len() {
            return Err(format!(
                "scale restore: replica_windows holds {} components, the scenario has {}",
                ckpt.replica_windows.len(),
                this.replica_windows.len()
            ));
        }
        let apis = api_names(scenario);
        this.stepper = SimStepper::restore(&scenario.app, &apis, &scenario.sim, ckpt.sim)?;
        this.pipeline
            .load(ckpt.serve, None)
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
            self.cost += window_cost(spec, row.replicas, window_secs);
            self.replica_windows[i] += u64::from(row.replicas);
            if row.saturation > SLO_SATURATION {
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
            self.calibration =
                CALIBRATION_ALPHA * sample + (1.0 - CALIBRATION_ALPHA) * self.calibration;
        }

        // Stream the window's traces into the serving pipeline, spread
        // evenly inside the window.
        for arrival in stamp(t, obs.traces, window_secs) {
            self.pipeline
                .ingest(arrival)
                .map_err(|e| format!("scale loop: ingest at window {t}: {e}"))?;
        }

        // One tick per decision: the last decision's window is the last
        // tick's position. At most one is due per window even if the
        // pipeline sealed several: the controller acts on the current
        // state.
        let position = self.pipeline.position();
        let last = self.decisions.last().map_or(0, |d| d.window);
        if position >= last + CONTROL_INTERVAL {
            let _span = telemetry::span("scale.control_tick");
            let estimates = if self.policy.needs_estimates() {
                self.what_if(position, &self.pipeline.snapshot())
            } else {
                None
            };
            let held = self.policy.needs_estimates() && estimates.is_none();
            let ctx = PolicyContext {
                app: &self.scenario.app,
                window: position,
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
                window: position,
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
        let end = (window + HORIZON).min(announced.window_count());
        if window >= end {
            return None;
        }
        let horizon = announced.slice(window..end);
        // Clamp the calibration so a corrupt ratio cannot explode the
        // query into territory the model never saw.
        let scaled = horizon.scale(self.calibration.clamp(0.25, 4.0));
        let seed = WHAT_IF_SEED ^ (window as u64).wrapping_mul(0x9e37_79b9);
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

/// The scenario's API endpoints, in traffic column order.
fn api_names(scenario: &Scenario) -> Vec<String> {
    scenario
        .actual
        .apis()
        .iter()
        .map(|a| a.to_string())
        .collect()
}
