//! The online estimation pipeline: watermark windowing → incremental
//! inference → causal sanity alerts, with JSON checkpoint/restore.
//!
//! Every per-window stage is written once, on [`WindowStages`], and takes
//! the model and the stream's [`CarriedState`] as arguments: [`Pipeline`]
//! drives one with a borrowed model, `deeprest-adapt`'s `AdaptivePipeline`
//! with an owned, mutable model — frozen, nothing else.
//!
//! # Self-healing
//!
//! The stages treat their own failures the way they treat anomalies: detect,
//! contain, keep serving. Each sealed window is processed against a pre-step
//! snapshot of the predictor state (the in-process last-known-good):
//!
//! * a **contained panic** in the inference step (a poisoned kernel job, an
//!   injected `pool.worker` fault) rolls the predictor back to the snapshot
//!   and retries; because [`CarriedState::step`] is pure given (state,
//!   features), a retry after a transient fault is bit-identical to a run
//!   that never faulted;
//! * **non-finite hidden state** after a step (persistent numeric poison)
//!   also rolls back; when retries are exhausted the sealed window is
//!   *parked* — kept in the queue — and a typed
//!   [`ServeError::PoisonedState`] is returned. Once the fault clears, the
//!   next ingest drains the parked windows in order, bit-identically;
//! * **non-finite outputs with finite hidden state** quarantine just the
//!   affected (component, resource) expert: its estimate reads `NaN` and it
//!   is excluded from sanity scoring for that window (feeding `NaN` into the
//!   scorer would poison its running scale), while every other expert keeps
//!   serving untouched;
//! * **sink failures** are degradation, not pipeline failure: delivery is
//!   retried with capped exponential backoff inside a wall-clock budget,
//!   then the alert is counted dropped (`serve.sink.dropped`) and serving
//!   continues. Estimates and scores never depend on sink health.
//!
//! Outputs are never lost to an error return: windows processed before a
//! failure stay buffered and are handed back on the next successful call.
//! Arrivals beyond the lateness bound are counted (`serve.late_dropped`).

use std::panic::AssertUnwindSafe;

use deeprest_core::stream::{panic_message, CarriedState, PointEstimate, StreamSnapshot};
use deeprest_core::{interpret, DeepRest, ExpertKey};
use deeprest_fault as fault;
use deeprest_metrics::MetricsRegistry;
use deeprest_telemetry as telemetry;
use deeprest_trace::stream::{SealedWindow, WindowAssembler};
use deeprest_trace::window::{TimestampedTrace, WindowedTraces};
use deeprest_trace::{Interner, Sym, Trace};
use serde::{Deserialize, Serialize};

use crate::alert::{Alert, AlertSink, SinkError};
use crate::error::ServeError;
use crate::sanity::{OnlineSanity, SanityState};
use crate::ServeConfig;

/// Supplies the *observed* utilization the sanity check compares against
/// the model's interval: one value per `(resource, window)`. Return `None`
/// when no measurement exists for that resource — it is then excluded from
/// scoring (its score reads as `NAN` in [`WindowOutput::scores`]).
pub trait ObservationSource {
    /// The observed value of `key` in window `window`.
    fn observe(&mut self, key: &ExpertKey, window: usize) -> Option<f64>;
}

impl ObservationSource for MetricsRegistry {
    fn observe(&mut self, key: &ExpertKey, window: usize) -> Option<f64> {
        self.get(key)
            .filter(|s| window < s.len())
            .map(|s| s.get(window))
    }
}

/// Everything the pipeline produced for one sealed window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowOutput {
    /// Window index since the start of the stream.
    pub window: usize,
    /// Number of traces sealed into the window.
    pub trace_count: usize,
    /// Per-expert estimates, in [`DeepRest::expert_keys`] order.
    pub estimates: Vec<PointEstimate>,
    /// Per-expert smoothed anomaly scores (same order); empty when the
    /// pipeline has no observation source, `NAN` entries where the source
    /// had no measurement.
    pub scores: Vec<f64>,
    /// Alerts fired in this window.
    pub alerts: Vec<Alert>,
}

/// One firing of the control-loop hook: everything an autoscaling
/// controller needs to run what-if queries against the live stream at this
/// point — the window the tick fired at and a fork-safe snapshot of the
/// predictor's carried state (feed it to
/// [`DeepRest::estimate_what_if`](deeprest_core::DeepRest::estimate_what_if)).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlTick {
    /// Stream position (sealed-window count) when the tick fired.
    pub window: usize,
    /// Snapshot of the live predictor state at that position; read-only
    /// fork point — what-if queries leave the pipeline untouched.
    pub predictor: StreamSnapshot,
}

/// Serializable pipeline state: together with the model JSON this is
/// everything needed to resume a stream after a crash with bit-identical
/// continuation (buffered unsealed arrivals included).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Windowing state, including not-yet-sealed arrivals.
    pub assembler: WindowAssembler,
    /// Carried GRU hidden state and stream position.
    pub predictor: StreamSnapshot,
    /// Causal sanity-scoring state.
    pub sanity: SanityState,
    /// Sealed windows parked by a step failure, oldest first (empty in a
    /// healthy pipeline). Absent in pre-hardening checkpoints.
    #[serde(default)]
    pub pending: Vec<SealedWindow>,
    /// Outputs produced but not yet handed to the caller (an error return
    /// intervened). Absent in pre-hardening checkpoints.
    #[serde(default)]
    pub ready: Vec<WindowOutput>,
    /// Stream position of the last control tick. Absent in pre-autoscaling
    /// checkpoints.
    #[serde(default)]
    pub last_control: usize,
    /// Opaque continual-learning adapter state attached by an embedding
    /// `deeprest-adapt` pipeline (serialized envelope: adapted model JSON
    /// plus replay/drift/calibration state). `None` for plain serving
    /// checkpoints, and omitted from the JSON so pre-adaptation
    /// checkpoints round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub adapter: Option<String>,
}

impl Checkpoint {
    /// Serializes the checkpoint to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a checkpoint from [`Checkpoint::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The model-independent streaming state and the stages that advance it:
/// what [`Pipeline`] and `deeprest-adapt`'s `AdaptivePipeline` both drive.
pub struct WindowStages {
    /// The name table incoming traces were produced with (symbols are
    /// translated into the model's space per window).
    source: Interner,
    assembler: WindowAssembler,
    sanity: OnlineSanity,
    keys: Vec<ExpertKey>,
    is_delta: Vec<bool>,
    /// Per-expert contributing APIs (mask attribution), computed once.
    contributing: Vec<Vec<String>>,
    observations: Option<Box<dyn ObservationSource>>,
    sinks: Vec<Box<dyn AlertSink>>,
    config: ServeConfig,
    /// Sealed windows awaiting (re-)processing, oldest first; outlive a
    /// call only while a step failure parks them.
    pending: Vec<SealedWindow>,
    /// Outputs produced but not yet returned to the caller.
    ready: Vec<WindowOutput>,
    /// Stream position at the last control tick.
    last_control: usize,
    /// Experts currently quarantined for non-finite outputs; cleared
    /// automatically when an expert's outputs are finite again.
    quarantined: Vec<bool>,
    /// What the scoring stage looked up for the last scored window.
    observed: Vec<Option<f64>>,
}

impl WindowStages {
    /// Fresh stages for a stream into `model`. `source` is the name table
    /// the incoming traces use, cloned as it is now: a trace carrying a
    /// name interned later is refused by [`push`](Self::push). To serve a
    /// table that has grown, take a [`checkpoint`](Self::checkpoint) and
    /// [`restore`](Self::restore) it against the grown table.
    pub fn new(model: &DeepRest, source: &Interner, config: ServeConfig) -> Self {
        let keys = model.expert_keys();
        Self {
            source: source.clone(),
            assembler: WindowAssembler::new(config.window_secs, config.lateness_secs),
            sanity: OnlineSanity::new(config.sanity, keys.len()),
            is_delta: keys
                .iter()
                .map(|k| model.expert_is_delta(k).unwrap_or(false))
                .collect(),
            contributing: contributing_apis(model, &keys, config.api_threshold),
            observations: None,
            sinks: Vec::new(),
            config,
            pending: Vec::new(),
            ready: Vec::new(),
            last_control: 0,
            quarantined: vec![false; keys.len()],
            observed: vec![None; keys.len()],
            keys,
        }
    }

    /// Rebuilds the stages from a [`checkpoint`](Self::checkpoint); its
    /// predictor snapshot and adapter envelope are the caller's to restore.
    ///
    /// # Errors
    ///
    /// Returns a message when the sanity state disagrees with the model.
    pub fn restore(
        model: &DeepRest,
        source: &Interner,
        config: ServeConfig,
        checkpoint: &Checkpoint,
    ) -> Result<Self, String> {
        let mut stages = Self::new(model, source, config);
        stages.sanity =
            OnlineSanity::restore(config.sanity, checkpoint.sanity.clone(), stages.keys.len())?;
        stages.assembler = checkpoint.assembler.clone();
        stages.pending = checkpoint.pending.clone();
        stages.ready = checkpoint.ready.clone();
        stages.last_control = checkpoint.last_control;
        Ok(stages)
    }

    /// Sets the observed-utilization source the sanity check scores
    /// against. Without one the stages only predict (no scores, no alerts).
    pub fn set_observations(&mut self, obs: impl ObservationSource + 'static) {
        self.observations = Some(Box::new(obs));
    }

    /// Adds an alert sink; every fired [`Alert`] is delivered to every sink
    /// (and also returned in [`WindowOutput::alerts`]).
    pub fn add_sink(&mut self, sink: impl AlertSink + 'static) {
        self.sinks.push(Box::new(sink));
    }

    /// Expert keys, in the order `estimates`/`scores` are reported.
    pub fn keys(&self) -> &[ExpertKey] {
        &self.keys
    }

    /// Per-expert flags (in [`keys`](Self::keys) order): whether the expert
    /// estimates a cumulative resource as per-window increments.
    pub fn is_delta(&self) -> &[bool] {
        &self.is_delta
    }

    /// How many traces arrived beyond the lateness bound.
    pub fn late_dropped(&self) -> u64 {
        self.assembler.late_dropped()
    }

    /// Number of sealed windows parked behind a step failure.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Per expert, what [`score`](Self::score) observed for the last window;
    /// `None` where it scored nothing (quarantined, no measurement, no source).
    pub fn observed(&self) -> &[Option<f64>] {
        &self.observed
    }

    /// Queues one arrival: every window the advancing watermark seals
    /// becomes pending; a late arrival is counted and dropped.
    ///
    /// # Errors
    ///
    /// Either way the arrival was **not** consumed. [`ServeError::Ingest`]
    /// is the injected transient fault: offer the arrival again.
    /// [`ServeError::UnknownSymbol`] is a trace naming a symbol the stages'
    /// name table does not hold (see [`new`](Self::new)), counted as
    /// `serve.ingest.unknown_symbol`: offering it again refuses it again.
    pub fn push(&mut self, t: TimestampedTrace) -> Result<(), ServeError> {
        // Fault probe: `serve.ingest` fails the arrival before any state
        // changes, so the caller can retry it verbatim.
        if fault::fail_point("serve.ingest") {
            return Err(ServeError::Ingest(
                "deeprest-fault: injected ingest failure".to_owned(),
            ));
        }
        // Feature extraction resolves every symbol through `source`, after
        // the window has left `pending` and outside the step's panic
        // containment: an out-of-table symbol has to stop here.
        if let Some(sym) = unknown_symbol(&t.trace, self.source.len()) {
            telemetry::counter("serve.ingest.unknown_symbol", 1);
            return Err(ServeError::UnknownSymbol(format!(
                "trace names symbol #{} but the pipeline's name table holds {} names (interned \
                 after the pipeline was built?); checkpoint() and restore() against the grown \
                 table to serve it",
                sym.index(),
                self.source.len()
            )));
        }
        if telemetry::enabled() {
            telemetry::counter("serve.ingest.spans", t.trace.span_count() as u64);
        }
        let late_before = self.assembler.late_dropped();
        let sealed = self.assembler.push(t);
        let late = self.assembler.late_dropped() - late_before;
        if late > 0 && telemetry::enabled() {
            telemetry::counter("serve.late_dropped", late);
        }
        self.pending.extend(sealed);
        Ok(())
    }

    /// Seals everything still buffered (end of stream) into pending.
    pub fn seal_all(&mut self) {
        self.pending.extend(self.assembler.flush());
    }

    /// Runs `process` over the pending windows in order and hands back every
    /// output produced so far, including any an earlier error return buffered.
    ///
    /// # Errors
    ///
    /// The first error `process` returns; the failing window goes back to
    /// the front, so a later call retries it bit-identically.
    pub fn drain<E>(
        &mut self,
        mut process: impl FnMut(&mut Self, &SealedWindow) -> Result<WindowOutput, E>,
    ) -> Result<Vec<WindowOutput>, E> {
        while !self.pending.is_empty() {
            let w = self.pending.remove(0);
            let _span = telemetry::span("serve.predict");
            if telemetry::enabled() {
                telemetry::counter("serve.window.sealed", 1);
            }
            match process(self, &w) {
                Ok(out) => self.ready.push(out),
                Err(err) => {
                    self.pending.insert(0, w);
                    return Err(err);
                }
            }
        }
        Ok(std::mem::take(&mut self.ready))
    }

    /// Extracts the window's features and runs the inference step with
    /// panic containment and rollback-retry from the pre-step snapshot.
    /// Returns the features with the raw estimates; on error `carried` is
    /// back at its pre-step state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Step`] / [`ServeError::PoisonedState`] when the step
    /// kept failing through [`ServeConfig::step_retries`] retries.
    pub fn step(
        &self,
        model: &DeepRest,
        carried: &mut CarriedState,
        w: &SealedWindow,
    ) -> Result<(Vec<f32>, Vec<PointEstimate>), ServeError> {
        let x = model.window_features(&w.traces, &self.source);
        // The pre-step snapshot *is* the last-known-good state at window
        // granularity: `step` is pure given (state, features), so retrying
        // from it after a transient fault is bit-identical to never having
        // faulted.
        let snapshot = carried.snapshot();
        let mut attempt = 0;
        loop {
            let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| carried.step(model, &x)));
            let failure = match stepped {
                Ok(estimates) if carried.hidden_is_finite() => return Ok((x, estimates)),
                // Persistent numeric poison in the carried state: every
                // future step would be garbage. Roll back and retry — the
                // poison may have been transient (injected fault, cosmic-ray
                // bitflip); if it persists, park the window.
                Ok(_) => ServeError::PoisonedState {
                    window: w.index,
                    experts: carried.hidden_nonfinite_experts(),
                },
                Err(payload) => ServeError::Step {
                    window: w.index,
                    message: panic_message(payload.as_ref()),
                },
            };
            telemetry::counter("serve.step.rolled_back", 1);
            *carried = CarriedState::restore(model, &snapshot).map_err(ServeError::Restore)?;
            if attempt == self.config.step_retries {
                return Err(failure);
            }
            attempt += 1;
            telemetry::counter("serve.step.retried", 1);
        }
    }

    /// Turns one window's estimates into its [`WindowOutput`]: quarantine
    /// guard, causal sanity scoring against the observation source, alert
    /// construction and sink delivery.
    pub fn score(&mut self, w: &SealedWindow, mut estimates: Vec<PointEstimate>) -> WindowOutput {
        // Fault probe: `serve.step.output` corrupts the *outputs* of one
        // expert (payload = expert index) or all, with healthy hidden
        // state — the case quarantine exists for.
        if let Some(payload) = fault::armed("serve.step.output") {
            for (e, est) in estimates.iter_mut().enumerate() {
                if payload == fault::PAYLOAD_ALL || payload == e as u64 {
                    *est = PointEstimate {
                        expected: f64::NAN,
                        lower: f64::NAN,
                        upper: f64::NAN,
                    };
                }
            }
        }

        // Quarantine guard: an expert with non-finite outputs is excluded
        // from scoring (a NaN observation would permanently poison the
        // scorer's running scale) but every other expert keeps serving.
        for (e, est) in estimates.iter().enumerate() {
            let finite = est.expected.is_finite() && est.lower.is_finite() && est.upper.is_finite();
            if !finite && !self.quarantined[e] {
                self.quarantined[e] = true;
                telemetry::counter("serve.quarantined", 1);
            } else if finite && self.quarantined[e] {
                self.quarantined[e] = false;
                telemetry::counter("serve.quarantine_cleared", 1);
            }
        }

        let mut scores = Vec::new();
        let mut alerts = Vec::new();
        if let Some(obs) = &mut self.observations {
            scores.reserve(self.keys.len());
            for (e, key) in self.keys.iter().enumerate() {
                self.observed[e] = if self.quarantined[e] {
                    None
                } else {
                    obs.observe(key, w.index)
                };
                let Some(actual) = self.observed[e] else {
                    scores.push(f64::NAN);
                    continue;
                };
                let outcome = self
                    .sanity
                    .observe(e, actual, &estimates[e], self.is_delta[e]);
                scores.push(outcome.score);
                if outcome.alerting {
                    let alert = Alert {
                        component: key.component.clone(),
                        resource: key.resource,
                        window: w.index,
                        score: outcome.score,
                        deviation_pct: outcome.deviation_pct,
                        contributing_apis: self.contributing[e].clone(),
                    };
                    for sink in &mut self.sinks {
                        deliver_with_retry(&self.config, sink.as_mut(), &alert);
                    }
                    if telemetry::enabled() {
                        telemetry::counter("serve.alerts", 1);
                    }
                    alerts.push(alert);
                }
            }
        }
        WindowOutput {
            window: w.index,
            trace_count: w.traces.len(),
            estimates,
            scores,
            alerts,
        }
    }

    /// The control-loop cadence: yields a [`ControlTick`] carrying
    /// `carried`'s snapshot when at least [`ServeConfig::control_interval`]
    /// (if non-zero) windows have been sealed since the previous tick.
    pub fn poll_control(&mut self, carried: &CarriedState) -> Option<ControlTick> {
        let (interval, position) = (self.config.control_interval, carried.position());
        if interval == 0 || position < self.last_control + interval {
            return None;
        }
        self.last_control = position;
        if telemetry::enabled() {
            telemetry::counter("serve.control.tick", 1);
        }
        Some(ControlTick {
            window: position,
            predictor: carried.snapshot(),
        })
    }

    /// Assembles a [`Checkpoint`] around the caller's carried state and
    /// adapter envelope — parked windows and undelivered outputs included,
    /// so a restore loses nothing.
    pub fn checkpoint(&self, carried: &CarriedState, adapter: Option<String>) -> Checkpoint {
        Checkpoint {
            assembler: self.assembler.clone(),
            predictor: carried.snapshot(),
            sanity: self.sanity.state().clone(),
            pending: self.pending.clone(),
            ready: self.ready.clone(),
            last_control: self.last_control,
            adapter,
        }
    }
}

/// The online serving pipeline around one trained model.
///
/// Feed timestamped traces with [`ingest`](Pipeline::ingest); each sealed
/// window costs one incremental inference step (O(1) in stream history,
/// allocation-free after warm-up) and yields a [`WindowOutput`]. For the
/// same sealed windows the estimates are bit-identical to the batch
/// [`DeepRest::estimate_from_traces`] path — [`batch_reference`] re-derives
/// the full expected output sequence for cross-checking.
pub struct Pipeline<'m> {
    model: &'m DeepRest,
    carried: CarriedState,
    stages: WindowStages,
}

impl<'m> Pipeline<'m> {
    /// Creates a pipeline streaming into `model`. `source` is the name
    /// table the incoming traces use, cloned as it is now; to serve names
    /// interned later, [`checkpoint`](Self::checkpoint) and
    /// [`restore`](Self::restore) against the grown table.
    pub fn new(model: &'m DeepRest, source: &Interner, config: ServeConfig) -> Self {
        Self {
            model,
            carried: CarriedState::new(model),
            stages: WindowStages::new(model, source, config),
        }
    }

    /// Attaches the observed-utilization source the sanity check scores
    /// against. Without one the pipeline only predicts (no alerts).
    #[must_use]
    pub fn with_observations(mut self, obs: impl ObservationSource + 'static) -> Self {
        self.stages.set_observations(obs);
        self
    }

    /// Attaches an alert sink; every fired [`Alert`] is delivered to every
    /// sink (and also returned in [`WindowOutput::alerts`]).
    #[must_use]
    pub fn with_sink(mut self, sink: impl AlertSink + 'static) -> Self {
        self.stages.add_sink(sink);
        self
    }

    /// Expert keys, in the order `estimates`/`scores` are reported.
    pub fn keys(&self) -> &[ExpertKey] {
        self.stages.keys()
    }

    /// Number of windows sealed and estimated so far.
    pub fn position(&self) -> usize {
        self.carried.position()
    }

    /// How many traces arrived beyond the lateness bound (counted, never
    /// silently lost).
    pub fn late_dropped(&self) -> u64 {
        self.stages.late_dropped()
    }

    /// Feeds one arrival; returns the outputs of every window the
    /// advancing watermark sealed (often none, sometimes several),
    /// including any outputs buffered by an earlier error return.
    ///
    /// # Errors
    ///
    /// [`ServeError::Ingest`] and [`ServeError::UnknownSymbol`] mean the
    /// arrival was **not** consumed: an injected fault (retry it verbatim),
    /// or a trace naming a symbol interned after the pipeline's name table
    /// was taken (retrying cannot help; restore against the grown table
    /// first). Step errors
    /// ([`ServeError::Step`]/[`ServeError::PoisonedState`]) mean the
    /// arrival *was* consumed: the failing sealed window is parked and
    /// retried on the next call, so no window is lost or reordered.
    pub fn ingest(&mut self, t: TimestampedTrace) -> Result<Vec<WindowOutput>, ServeError> {
        self.stages.push(t)?;
        self.drain()
    }

    /// Seals and processes everything still buffered (end of stream).
    ///
    /// # Errors
    ///
    /// Same step-error semantics as [`ingest`](Self::ingest): the failing
    /// window stays parked and is retried on the next call.
    pub fn flush(&mut self) -> Result<Vec<WindowOutput>, ServeError> {
        self.stages.seal_all();
        self.drain()
    }

    fn drain(&mut self) -> Result<Vec<WindowOutput>, ServeError> {
        self.stages.drain(|stages, w| {
            let (_, estimates) = stages.step(self.model, &mut self.carried, w)?;
            Ok(stages.score(w, estimates))
        })
    }

    /// Number of sealed windows parked behind a step failure.
    pub fn pending_windows(&self) -> usize {
        self.stages.pending_windows()
    }

    /// Per-expert quarantine flags (in [`keys`](Self::keys) order): `true`
    /// while an expert's last outputs were non-finite and it is excluded
    /// from sanity scoring. Flags clear automatically when outputs are
    /// finite again.
    pub fn quarantined(&self) -> &[bool] {
        &self.stages.quarantined
    }

    /// Polls the control-loop hook: yields a [`ControlTick`] when at least
    /// [`ServeConfig::control_interval`] windows have been sealed since the
    /// previous tick (and the interval is non-zero). Call after every
    /// [`ingest`](Self::ingest)/[`flush`](Self::flush); at most one tick is
    /// due per call even if several intervals elapsed at once — the
    /// controller acts on the *current* state, stale intermediate ticks
    /// would only re-decide with older information.
    pub fn poll_control(&mut self) -> Option<ControlTick> {
        self.stages.poll_control(&self.carried)
    }

    /// Captures the pipeline's full streaming state for crash recovery —
    /// including windows parked by a step failure and outputs not yet
    /// handed to the caller, so a restore loses nothing.
    pub fn checkpoint(&self) -> Checkpoint {
        self.stages.checkpoint(&self.carried, None)
    }

    /// Rebuilds a pipeline from a [`checkpoint`](Self::checkpoint),
    /// resuming exactly where it left off (buffered arrivals included).
    /// Observation sources and alert sinks are not part of the checkpoint —
    /// re-attach them with the `with_*` builders.
    ///
    /// # Errors
    ///
    /// Returns a message when the checkpoint's shape disagrees with the
    /// model (it was taken against a different model).
    pub fn restore(
        model: &'m DeepRest,
        source: &Interner,
        config: ServeConfig,
        checkpoint: Checkpoint,
    ) -> Result<Self, String> {
        Ok(Self {
            model,
            carried: CarriedState::restore(model, &checkpoint.predictor)?,
            stages: WindowStages::restore(model, source, config, &checkpoint)?,
        })
    }

    /// The configuration the pipeline runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.stages.config
    }
}

/// The highest symbol `trace` names, if a table of `names` entries does
/// not cover it.
fn unknown_symbol(trace: &Trace, names: usize) -> Option<Sym> {
    let mut highest = trace.api;
    trace
        .root
        .visit(&mut |span| highest = highest.max(span.component).max(span.operation));
    (highest.index() >= names).then_some(highest)
}

/// Delivers one alert to one sink with capped exponential backoff inside a
/// wall-clock budget. Delivery failure degrades (counted drop), it never
/// fails the window: the alert is still returned in [`WindowOutput::alerts`].
fn deliver_with_retry(config: &ServeConfig, sink: &mut dyn AlertSink, alert: &Alert) {
    let attempts = config.sink_attempts.max(1);
    let budget = std::time::Duration::from_millis(config.sink_timeout_ms);
    let started = std::time::Instant::now();
    let mut backoff_ms = config.sink_backoff_ms.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            if started.elapsed() >= budget {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(
                backoff_ms.min(config.sink_timeout_ms.max(1)),
            ));
            backoff_ms = backoff_ms.saturating_mul(2);
            telemetry::counter("serve.sink.retry", 1);
        }
        // Fault probes: `serve.sink.delay` stalls the sink (payload =
        // milliseconds), `serve.sink.emit` fails the delivery attempt.
        fault::delay_point("serve.sink.delay");
        let attempt_result: Result<(), SinkError> = if fault::fail_point("serve.sink.emit") {
            Err(SinkError::new("deeprest-fault: injected sink failure"))
        } else {
            sink.emit(alert)
        };
        if attempt_result.is_ok() {
            if attempt > 0 {
                telemetry::counter("serve.sink.recovered", 1);
            }
            return;
        }
    }
    telemetry::counter("serve.sink.dropped", 1);
}

/// Per-expert contributing APIs (mask attribution above `threshold`), in
/// `keys` order — the `contributing_apis` field every [`Alert`] for that
/// expert carries.
pub fn contributing_apis(model: &DeepRest, keys: &[ExpertKey], threshold: f64) -> Vec<Vec<String>> {
    keys.iter()
        .map(|key| {
            interpret::api_attribution(model, key)
                .map(|a| {
                    a.influential(threshold)
                        .into_iter()
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect()
}

/// Re-derives, via the batch path, exactly what the streaming pipeline
/// should output for `sealed` windows: batch
/// [`DeepRest::estimate_from_traces`] estimates plus the same causal
/// sanity scoring over them. Because streaming estimates are bit-identical
/// to batch estimates, every field of the result must match the streamed
/// [`WindowOutput`]s bit for bit — the golden cross-check the replay tests
/// and the `deeprest_serve --assert-batch` flag rely on.
pub fn batch_reference(
    model: &DeepRest,
    sealed: &[SealedWindow],
    source: &Interner,
    observations: Option<&MetricsRegistry>,
    config: &ServeConfig,
) -> Vec<WindowOutput> {
    let count = sealed.iter().map(|w| w.index + 1).max().unwrap_or(0);
    let mut windowed = WindowedTraces::with_windows(config.window_secs, count);
    for w in sealed {
        windowed.windows[w.index] = w.traces.clone();
    }
    let estimates = model.estimate_from_traces(&windowed, source);

    let keys = model.expert_keys();
    let is_delta: Vec<bool> = keys
        .iter()
        .map(|k| model.expert_is_delta(k).unwrap_or(false))
        .collect();
    let contributing = contributing_apis(model, &keys, config.api_threshold);
    let mut sanity = OnlineSanity::new(config.sanity, keys.len());

    sealed
        .iter()
        .map(|w| {
            let points: Vec<PointEstimate> = keys
                .iter()
                .map(|key| {
                    // Invariant: `estimate_from_traces` returns one series per
                    // expert key of the same model, so the lookup cannot miss.
                    #[allow(clippy::expect_used)]
                    let p = estimates.get(key).expect("expert series");
                    PointEstimate {
                        expected: p.expected.get(w.index),
                        lower: p.lower.get(w.index),
                        upper: p.upper.get(w.index),
                    }
                })
                .collect();
            let mut scores = Vec::new();
            let mut alerts = Vec::new();
            if let Some(registry) = observations {
                for (e, key) in keys.iter().enumerate() {
                    let actual = registry
                        .get(key)
                        .filter(|s| w.index < s.len())
                        .map(|s| s.get(w.index));
                    let Some(actual) = actual else {
                        scores.push(f64::NAN);
                        continue;
                    };
                    let outcome = sanity.observe(e, actual, &points[e], is_delta[e]);
                    scores.push(outcome.score);
                    if outcome.alerting {
                        alerts.push(Alert {
                            component: key.component.clone(),
                            resource: key.resource,
                            window: w.index,
                            score: outcome.score,
                            deviation_pct: outcome.deviation_pct,
                            contributing_apis: contributing[e].clone(),
                        });
                    }
                }
            }
            WindowOutput {
                window: w.index,
                trace_count: w.traces.len(),
                estimates: points,
                scores,
                alerts,
            }
        })
        .collect()
}
