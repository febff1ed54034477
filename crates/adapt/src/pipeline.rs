//! The adaptive serving pipeline: observe → detect → adapt → recalibrate.
//!
//! [`AdaptivePipeline`] runs the very stages [`deeprest_serve::Pipeline`]
//! runs — one [`WindowStages`] does the windowing, healed inference step,
//! quarantine, sanity scoring and alert delivery for both — around a model
//! that is **owned and mutable**. The stream's
//! [`CarriedState`] sits beside the model, by value, across the pipeline's
//! own updates: it holds hidden vectors and no weights, the model repacks
//! its slab inside every update, and each window's step is handed the model
//! as it is then. This module adds only what is adaptive:
//! it widens the raw intervals by the conformal scale before scoring, feeds
//! drift and calibration statistics and stages `(features, targets)`
//! segments from what the scoring stage observed, and on a fixed cadence
//! folds them (mixed with deterministic replay samples) back into the
//! model through [`OnlineUpdater`].
//!
//! # Determinism
//!
//! Every source of nondeterminism is pinned:
//!
//! * inference and the analytic update are bit-identical across
//!   `DEEPREST_THREADS` by construction (fixed fold orders);
//! * replay sampling is a pure function of `(seed, draw counter, buffer
//!   length)` — no RNG state beyond the checkpointed counter;
//! * the update cadence counts sealed segments, not wall-clock;
//! * interval calibration is serial `f64` arithmetic over checkpointed
//!   rings.
//!
//! A [`checkpoint`](AdaptivePipeline::checkpoint) therefore captures the
//! *entire* adaptation trajectory — adapted parameters (the momentum-free
//! SGD's only state), replay buffer, drift statistics, calibration rings
//! and counters — and a [`restore`](AdaptivePipeline::restore)d pipeline
//! continues bit-identically to the uninterrupted run, even mid-segment
//! between two updates.
//!
//! # Fail-safety
//!
//! Serving failures are the shared stages': a contained step panic rolls
//! back and retries, a persistently failing window is parked behind
//! [`AdaptError::Serve`] with nothing adaptive touched. Update failures
//! never reach serving: an injected `adapt.update` fault rejects the step
//! before any mutation, and a poisoned parameter after the step
//! (`adapt.update.poison`, or a genuine numeric blow-up) rolls the store
//! and its pack back bit-for-bit. Either way the pipeline keeps serving
//! from the pre-update parameters; the outcome is recorded in
//! [`last_update`](AdaptivePipeline::last_update), not thrown.
//!
//! # Frozen mode
//!
//! With [`AdaptConfig::enabled`] off a window runs the shared stages and
//! returns: the pipeline *is* a plain [`deeprest_serve::Pipeline`] over an
//! owned model.

use deeprest_core::adapt::{OnlineUpdater, TrainSegment};
use deeprest_core::stream::{CarriedState, PointEstimate};
use deeprest_core::{DeepRest, ExpertKey};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::{AlertSink, Checkpoint, ControlTick, WindowOutput, WindowStages};
use deeprest_telemetry as telemetry;
use deeprest_trace::stream::SealedWindow;
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;
use serde::{Deserialize, Serialize};

use crate::calibrate::{CalibrationState, Calibrator};
use crate::config::AdaptConfig;
use crate::drift::{DriftDetector, DriftState};
use crate::error::{AdaptError, UpdateOutcome};
use crate::replay::{ReplayBuffer, Segment};

/// The serializable adaptation state carried inside a serve
/// [`Checkpoint`]'s `adapter` field, alongside the adapted model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdapterState {
    /// Replay-buffer segments, oldest first.
    pub replay: Vec<Segment>,
    /// Drift-detector state.
    pub drift: DriftState,
    /// Conformal-calibrator state.
    pub calibration: CalibrationState,
    /// Features of the partially-filled current segment
    /// (`cur_len × feature_dim`, window-major; trailing slots stale).
    pub cur_xs: Vec<f32>,
    /// Targets of the current segment (`experts × segment_len`,
    /// expert-major; columns ≥ `cur_len` stale).
    pub cur_targets: Vec<f32>,
    /// Windows accumulated into the current segment.
    pub cur_len: usize,
    /// Stream index of the current segment's first window.
    pub cur_start: usize,
    /// Whether every expert was observed in every window of the current
    /// segment so far (incomplete segments are dropped, not trained on).
    pub cur_observed: bool,
    /// Last raw observation per expert (delta-encoding base); `None`
    /// until first observed.
    pub prev_actual: Vec<Option<f64>>,
    /// Total segments sealed (complete or dropped).
    pub segments_sealed: u64,
    /// Complete segments sealed since the last update attempt.
    pub segments_since_update: u64,
    /// Successful updates applied.
    pub updates_run: u64,
    /// Update attempts rejected or rolled back.
    pub updates_failed: u64,
    /// Whether model updates are suspended (overload rung 2); serving
    /// continues frozen.
    #[serde(default)]
    pub updates_suspended: bool,
    /// Cadence firings skipped while suspended.
    #[serde(default)]
    pub updates_skipped_suspended: u64,
}

/// The envelope serialized into [`Checkpoint::adapter`]: the adapted
/// model (its parameters are the optimizer state — momentum-free SGD)
/// plus the adaptation trajectory.
#[derive(Serialize, Deserialize)]
struct AdapterEnvelope {
    /// Adapted model JSON ([`DeepRest::to_json`], bit-exact round-trip).
    model: String,
    /// Everything else.
    state: AdapterState,
}

/// The owned model and everything that adapts it — all of the pipeline
/// that is not the shared serving stages.
struct Adapter {
    model: DeepRest,
    config: AdaptConfig,
    /// The stream's hidden state and position, stepped against `model`.
    carried: CarriedState,
    updater: OnlineUpdater,
    replay: ReplayBuffer,
    drift: DriftDetector,
    calib: Calibrator,
    /// Current-segment staging arenas (fixed size, reused).
    cur_xs: Vec<f32>,
    cur_targets: Vec<f32>,
    cur_len: usize,
    cur_start: usize,
    cur_observed: bool,
    prev_actual: Vec<Option<f64>>,
    segments_sealed: u64,
    segments_since_update: u64,
    updates_run: u64,
    updates_failed: u64,
    updates_suspended: bool,
    updates_skipped_suspended: u64,
    last_update: Option<UpdateOutcome>,
    /// Replay-sampling arenas (capacity `replay_capacity`, reused).
    sample_scratch: Vec<usize>,
    sample_out: Vec<usize>,
}

/// Owning, self-adapting counterpart of [`deeprest_serve::Pipeline`] —
/// see the module docs.
pub struct AdaptivePipeline {
    stages: WindowStages,
    adapter: Adapter,
}

impl AdaptivePipeline {
    /// Creates an adaptive pipeline owning `model`. `source` is the name
    /// table incoming traces use, cloned as it is now (to serve names
    /// interned later, [`checkpoint`](Self::checkpoint) and
    /// [`restore`](Self::restore) against the grown table); `observations`
    /// supplies both the sanity check's ground truth and the
    /// online-training targets.
    pub fn new(
        model: DeepRest,
        source: &Interner,
        observations: MetricsRegistry,
        config: AdaptConfig,
    ) -> Self {
        let mut stages = WindowStages::new(&model, source, config.serve);
        stages.set_observations(observations);
        Self {
            stages,
            adapter: Adapter::new(model, config),
        }
    }

    /// Attaches an alert sink; every fired alert is delivered to every
    /// sink (and also returned in [`WindowOutput::alerts`]).
    #[must_use]
    pub fn with_sink(mut self, sink: impl AlertSink + 'static) -> Self {
        self.stages.add_sink(sink);
        self
    }

    /// The live (possibly adapted) model — read-only; feed its
    /// [`estimate_what_if`](DeepRest::estimate_what_if) with
    /// [`poll_control`](Self::poll_control) snapshots for what-if queries
    /// that reflect everything learned so far.
    pub fn model(&self) -> &DeepRest {
        &self.adapter.model
    }

    /// Expert keys, in the order estimates and scores are reported.
    pub fn keys(&self) -> &[ExpertKey] {
        self.stages.keys()
    }

    /// Number of windows sealed and served so far.
    pub fn position(&self) -> usize {
        self.adapter.carried.position()
    }

    /// How many traces arrived beyond the lateness bound (counted, never
    /// silently lost).
    pub fn late_dropped(&self) -> u64 {
        self.stages.late_dropped()
    }

    /// Number of sealed windows parked behind a step failure.
    pub fn pending_windows(&self) -> usize {
        self.stages.pending_windows()
    }

    /// The configuration the pipeline runs with.
    pub fn config(&self) -> &AdaptConfig {
        &self.adapter.config
    }

    /// Per-expert drift watch flags (in [`keys`](Self::keys) order).
    pub fn drift_watching(&self) -> &[bool] {
        &self.adapter.drift.state().watching
    }

    /// Empirical raw-interval coverage over everything observed, if any.
    pub fn raw_coverage(&self) -> Option<f64> {
        self.adapter.calib.raw_coverage()
    }

    /// Outcome of the most recent update attempt (`None` before the first
    /// cadence firing). Failures here never interrupt serving.
    pub fn last_update(&self) -> Option<&UpdateOutcome> {
        self.adapter.last_update.as_ref()
    }

    /// Successful updates applied so far.
    pub fn updates_run(&self) -> u64 {
        self.adapter.updates_run
    }

    /// Update attempts rejected by a fault or rolled back.
    pub fn updates_failed(&self) -> u64 {
        self.adapter.updates_failed
    }

    /// Suspends model updates (the overload ladder's rung 2). Serving
    /// continues with the model frozen — bit-exact, like
    /// [`AdaptConfig::frozen`](crate::AdaptConfig) — while segment
    /// staging, replay-buffer growth and cadence due-pressure keep
    /// accumulating; due firings are skipped and counted
    /// (`adapt.update.suspended`). Idempotent.
    pub fn suspend_updates(&mut self) {
        if !self.adapter.updates_suspended {
            self.adapter.updates_suspended = true;
            if telemetry::enabled() {
                telemetry::counter("adapt.updates.suspend", 1);
            }
        }
    }

    /// Resumes model updates after [`suspend_updates`](Self::suspend_updates).
    /// A deferred due update runs at the next segment seal, not here, so
    /// resuming is cheap and never blocks the caller. Idempotent.
    pub fn resume_updates(&mut self) {
        if self.adapter.updates_suspended {
            self.adapter.updates_suspended = false;
            if telemetry::enabled() {
                telemetry::counter("adapt.updates.resume", 1);
            }
        }
    }

    /// Whether model updates are currently suspended.
    pub fn updates_suspended(&self) -> bool {
        self.adapter.updates_suspended
    }

    /// Cadence firings skipped while suspended (typed counter, mirrored
    /// on `adapt.update.suspended`).
    pub fn updates_skipped_suspended(&self) -> u64 {
        self.adapter.updates_skipped_suspended
    }

    /// Replay segments currently buffered.
    pub fn replay_len(&self) -> usize {
        self.adapter.replay.len()
    }

    /// Feeds one arrival; returns the outputs of every window the
    /// advancing watermark sealed, same contract as
    /// [`deeprest_serve::Pipeline::ingest`].
    ///
    /// # Errors
    ///
    /// [`AdaptError::Serve`] with exactly the plain pipeline's semantics:
    /// an ingest fault leaves the arrival unconsumed, a step failure parks
    /// the window for the next call. Update failures are contained (see
    /// [`last_update`](Self::last_update)).
    pub fn ingest(&mut self, t: TimestampedTrace) -> Result<Vec<WindowOutput>, AdaptError> {
        self.stages.push(t)?;
        self.drain()
    }

    /// Seals and processes everything still buffered (end of stream).
    ///
    /// # Errors
    ///
    /// Same as [`ingest`](Self::ingest).
    pub fn flush(&mut self) -> Result<Vec<WindowOutput>, AdaptError> {
        self.stages.seal_all();
        self.drain()
    }

    fn drain(&mut self) -> Result<Vec<WindowOutput>, AdaptError> {
        self.stages
            .drain(|stages, w| self.adapter.window(stages, w))
    }

    /// Polls the control-loop hook — same cadence semantics as
    /// [`deeprest_serve::Pipeline::poll_control`], but the snapshot forks
    /// the *adapted* model's live state.
    pub fn poll_control(&mut self) -> Option<ControlTick> {
        self.stages.poll_control(&self.adapter.carried)
    }

    /// Captures the full adaptive state as a standard serve
    /// [`Checkpoint`]: the serving half in the regular fields (so
    /// [`deeprest_serve::CheckpointStore`]'s framed, CRC-checked,
    /// atomically-rotated persistence works unchanged) and the adaptation
    /// half — adapted model included — in the `adapter` envelope.
    ///
    /// # Errors
    ///
    /// [`AdaptError::Codec`] when serialization fails.
    pub fn checkpoint(&self) -> Result<Checkpoint, AdaptError> {
        let a = &self.adapter;
        let envelope = AdapterEnvelope {
            model: a
                .model
                .to_json()
                .map_err(|e| AdaptError::Codec(e.to_string()))?,
            state: AdapterState {
                replay: a.replay.segments().to_vec(),
                drift: a.drift.state().clone(),
                calibration: a.calib.state().clone(),
                cur_xs: a.cur_xs.clone(),
                cur_targets: a.cur_targets.clone(),
                cur_len: a.cur_len,
                cur_start: a.cur_start,
                cur_observed: a.cur_observed,
                prev_actual: a.prev_actual.clone(),
                segments_sealed: a.segments_sealed,
                segments_since_update: a.segments_since_update,
                updates_run: a.updates_run,
                updates_failed: a.updates_failed,
                updates_suspended: a.updates_suspended,
                updates_skipped_suspended: a.updates_skipped_suspended,
            },
        };
        let adapter =
            serde_json::to_string(&envelope).map_err(|e| AdaptError::Codec(e.to_string()))?;
        Ok(self.stages.checkpoint(&a.carried, Some(adapter)))
    }

    /// Rebuilds an adaptive pipeline from a [`checkpoint`](Self::checkpoint),
    /// resuming bit-identically — mid-segment, between updates, with the
    /// replay and calibration trajectory intact. The observation source is
    /// not part of the checkpoint; pass it again.
    ///
    /// # Errors
    ///
    /// [`AdaptError::MissingAdapterState`] for plain serve checkpoints;
    /// [`AdaptError::Codec`]/[`AdaptError::Predictor`]/
    /// [`AdaptError::Sanity`]/[`AdaptError::Adapter`] when any piece of
    /// state disagrees with the model geometry.
    pub fn restore(
        source: &Interner,
        observations: MetricsRegistry,
        config: AdaptConfig,
        checkpoint: &Checkpoint,
    ) -> Result<Self, AdaptError> {
        let envelope = checkpoint
            .adapter
            .as_deref()
            .ok_or(AdaptError::MissingAdapterState)?;
        let envelope: AdapterEnvelope =
            serde_json::from_str(envelope).map_err(|e| AdaptError::Codec(e.to_string()))?;
        let model =
            DeepRest::from_json(&envelope.model).map_err(|e| AdaptError::Codec(e.to_string()))?;
        let mut stages = WindowStages::restore(&model, source, config.serve, checkpoint)
            .map_err(AdaptError::Sanity)?;
        stages.set_observations(observations);

        let mut adapter = Adapter::new(model, config);
        let st = envelope.state;
        let got = (st.cur_xs.len(), st.cur_targets.len(), st.prev_actual.len());
        let a = &adapter;
        let want = (a.cur_xs.len(), a.cur_targets.len(), a.prev_actual.len());
        if got != want {
            return Err(AdaptError::Adapter(format!(
                "segment arenas (xs, targets, prev) = {got:?} do not match geometry {want:?}"
            )));
        }
        let experts = adapter.prev_actual.len();
        let nominal = f64::from(adapter.model.config().delta);
        adapter.carried = CarriedState::restore(&adapter.model, &checkpoint.predictor)
            .map_err(AdaptError::Predictor)?;
        adapter.drift = DriftDetector::restore(nominal, config.drift, st.drift, experts)
            .map_err(AdaptError::Adapter)?;
        adapter.calib = Calibrator::restore(nominal, config.calibration, st.calibration, experts)
            .map_err(AdaptError::Adapter)?;
        adapter.replay = ReplayBuffer::restore(config.replay_capacity.max(1), st.replay);
        adapter.cur_xs = st.cur_xs;
        adapter.cur_targets = st.cur_targets;
        adapter.cur_len = st.cur_len;
        adapter.cur_start = st.cur_start;
        adapter.cur_observed = st.cur_observed;
        adapter.prev_actual = st.prev_actual;
        adapter.segments_sealed = st.segments_sealed;
        adapter.segments_since_update = st.segments_since_update;
        adapter.updates_run = st.updates_run;
        adapter.updates_failed = st.updates_failed;
        adapter.updates_suspended = st.updates_suspended;
        adapter.updates_skipped_suspended = st.updates_skipped_suspended;
        Ok(Self { stages, adapter })
    }
}

impl Adapter {
    fn new(model: DeepRest, config: AdaptConfig) -> Self {
        let experts = model.expert_count();
        let nominal = f64::from(model.config().delta);
        let seg_len = config.update.segment_len;
        let dim = model.feature_space().dim();
        let capacity = config.replay_capacity.max(1);
        Self {
            carried: CarriedState::new(&model),
            updater: OnlineUpdater::new(&model, config.update),
            replay: ReplayBuffer::new(capacity),
            drift: DriftDetector::new(nominal, config.drift, experts),
            calib: Calibrator::new(nominal, config.calibration, experts),
            cur_xs: vec![0.0; seg_len * dim],
            cur_targets: vec![0.0; experts * seg_len],
            cur_len: 0,
            cur_start: 0,
            cur_observed: true,
            prev_actual: vec![None; experts],
            segments_sealed: 0,
            segments_since_update: 0,
            updates_run: 0,
            updates_failed: 0,
            updates_suspended: false,
            updates_skipped_suspended: 0,
            last_update: None,
            sample_scratch: Vec::with_capacity(capacity),
            sample_out: Vec::with_capacity(capacity),
            config,
            model,
        }
    }

    /// One sealed window: the shared serving stages, then — only when
    /// adaptation is enabled — recalibration before scoring and the
    /// observe/seal/update step after it.
    fn window(
        &mut self,
        stages: &mut WindowStages,
        w: &SealedWindow,
    ) -> Result<WindowOutput, AdaptError> {
        let (x, raw) = stages.step(&self.model, &mut self.carried, w)?;
        if !self.config.enabled {
            return Ok(stages.score(w, raw));
        }

        // Recalibrate: widen each expert's interval by its conformal
        // scale (computed from *past* windows only — causal). Scale 1.0
        // is a bitwise no-op, so a cold pipeline reproduces the raw
        // estimates exactly.
        let estimates: Vec<PointEstimate> = (0..raw.len())
            .map(|e| {
                let s = self.calib.scale(e, self.drift.watching(e));
                Calibrator::apply(&raw[e], s)
            })
            .collect();
        let out = stages.score(w, estimates);

        // Observe: feed the drift CUSUM and calibration rings from the
        // raw intervals, and stage training targets for the current
        // segment, from what the scoring stage looked up.
        let seg_len = self.config.update.segment_len;
        let dim = self.model.feature_space().dim();
        if self.cur_len < seg_len {
            self.cur_xs[self.cur_len * dim..(self.cur_len + 1) * dim].copy_from_slice(&x);
        }
        for (e, observed) in stages.observed().iter().enumerate() {
            let Some(actual) = *observed else {
                self.cur_observed = false;
                continue;
            };
            // Cumulative resources are estimated as increments: put the
            // observation into the experts' output space before scoring
            // interval coverage (mirrors the sanity scorer's encoding).
            let prev = self.prev_actual[e].unwrap_or(actual);
            let in_space = if stages.is_delta()[e] {
                (actual - prev).max(0.0)
            } else {
                actual
            };
            let covered = self.calib.observe_raw(e, in_space, &raw[e]);
            let was = self.drift.watching(e);
            let watching = self.drift.observe(e, covered);
            if watching && !was && telemetry::enabled() {
                telemetry::counter("adapt.drift.watch", 1);
            }
            let t = self.cur_len.min(seg_len - 1);
            self.cur_targets[e * seg_len + t] = self.model.normalize_target(e, actual, prev);
            self.prev_actual[e] = Some(actual);
        }

        // Adapt: seal the segment when full; on the cadence, fold replay
        // plus the fresh segment back into the model.
        self.cur_len += 1;
        if self.cur_len == seg_len {
            self.seal_segment(w.index + 1);
        }
        Ok(out)
    }

    /// Seals the staged segment (window `next_start` begins the next one)
    /// and runs the update when the cadence is due.
    fn seal_segment(&mut self, next_start: usize) {
        self.segments_sealed += 1;
        if self.cur_observed {
            self.segments_since_update += 1;
            let due = self.segments_since_update
                >= self
                    .config
                    .effective_update_every(self.drift.any_watching());
            if due && self.updates_suspended {
                // Overload rung 2: the cadence firing is skipped (counted,
                // never silent) and the due-pressure is kept, so the first
                // seal after resume runs the deferred update.
                self.updates_skipped_suspended += 1;
                if telemetry::enabled() {
                    telemetry::counter("adapt.update.suspended", 1);
                }
            } else if due {
                self.run_update();
                self.segments_since_update = 0;
            }
            // The fresh segment enters the replay buffer *after* the
            // update sampled from it, so one update never stages the same
            // windows twice.
            self.replay
                .push_copy(self.cur_start, &self.cur_xs, &self.cur_targets);
        } else if telemetry::enabled() {
            telemetry::counter("adapt.segment.dropped", 1);
        }
        self.cur_len = 0;
        self.cur_start = next_start;
        self.cur_observed = true;
    }

    /// One cadence firing: deterministic replay sample + the fresh
    /// segment → one analytic update step, with calibration-aware
    /// gradient modulation. Failures leave the model bit-identical to the
    /// pre-update state and are recorded, never thrown.
    fn run_update(&mut self) {
        let draw = self.updates_run + self.updates_failed;
        self.replay.sample_into(
            self.config.sample_seed,
            draw,
            self.config.update.replay_slots,
            &mut self.sample_scratch,
            &mut self.sample_out,
        );
        let segment = |xs, targets| TrainSegment { xs, targets };
        let sampled = self.sample_out.iter().map(|&i| &self.replay.segments()[i]);
        let segments: Vec<TrainSegment<'_>> = sampled
            .map(|s| segment(&s.xs, &s.targets))
            .chain([segment(&self.cur_xs, &self.cur_targets)])
            .collect();

        self.updater
            .set_modulation(self.calib.gradient_modulation());
        let outcome = self.updater.update(&mut self.model, &segments);
        if outcome.is_ok() {
            self.updates_run += 1;
        } else {
            // Rejected before mutation or rolled back bit-for-bit, pack
            // included: the next window serves the pre-update model.
            self.updates_failed += 1;
            if telemetry::enabled() {
                telemetry::counter("adapt.update.failed", 1);
            }
        }
        self.last_update = Some(outcome);
    }
}
