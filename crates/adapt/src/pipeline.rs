//! The adaptive driver: observe → detect → adapt → recalibrate.
//!
//! [`Adapter`] is a [`Driver`] of `deeprest-serve`'s one [`Pipeline`]: the
//! pipeline's [`WindowStages`] do the windowing, healed inference step,
//! quarantine, sanity scoring and alert delivery exactly as they do for a
//! frozen model, around a model the adapter **owns and mutates**. The
//! stream's [`CarriedState`] sits beside the model, by value, across the
//! adapter's own updates: it holds hidden vectors and no weights, the model
//! repacks its slab inside every update, and each window's step is handed
//! the model as it is then. The adapter adds only what is adaptive: it
//! widens the raw intervals by the conformal scale before scoring, feeds
//! each raw interval's coverage to its tracker and stages `(features,
//! targets)` segments from what the scoring stage scored (already in the
//! experts' output space: [`WindowStages::observed`]), and on a fixed
//! cadence folds them (mixed with deterministic replay samples) back into
//! the model through `deeprest_core::train`'s [`OnlineUpdater`].
//!
//! [`AdaptivePipeline`] is a `Pipeline<Adapter>` with the constructor that
//! hands it the model, the typed [`AdaptiveCheckpoint`], and three
//! counters; everything else is the pipeline's, through `Deref`, and the
//! adapter's own accessors are on [`Pipeline::driver`]. To serve it as one
//! tenant among others, pass `Pipeline::from(adaptive)` to
//! `TenantRegistry::add_pipeline`.
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
//! *entire* adaptation trajectory as one [`AdaptiveCheckpoint`] value — the
//! serving stages' [`Checkpoint`], the adapted model (its parameters are
//! the momentum-free SGD's only state) and the [`AdapterState`]: replay
//! buffer, drift statistics, calibration rings, the current segment and
//! the cadence's counters — and a [`restore`](AdaptivePipeline::restore)d
//! pipeline continues bit-identically to the uninterrupted run, even
//! mid-segment between two updates or with updates suspended. In a
//! registry checkpoint the same model and state are the tenant's
//! [`Driver::checkpoint`] tree.
//!
//! # Fail-safety
//!
//! Serving failures are the shared stages': a contained step panic rolls
//! back and retries, a persistently failing window is parked behind a
//! [`ServeError`] with nothing adaptive touched. Update failures never
//! reach serving: an injected `adapt.update` fault rejects the step before
//! any mutation, and a poisoned parameter after the step
//! (`adapt.update.poison`, or a genuine numeric blow-up) rolls the store
//! and its pack back bit-for-bit. Either way the pipeline keeps serving
//! from the pre-update parameters; the outcome is recorded in
//! [`Adapter::last_update`], not thrown.
//!
//! # Suspension and frozen mode
//!
//! [`Driver::suspend`] is overload rung 2: serving continues with the model
//! held still — bit-exact, like [`AdaptConfig::frozen`] — while segment
//! staging, replay-buffer growth and cadence due-pressure keep
//! accumulating; due firings are skipped and counted
//! (`adapt.update.suspended`), and the first seal after resuming runs the
//! deferred update. With [`AdaptConfig::enabled`] off a window runs the
//! shared stages and returns: the pipeline serves exactly what a frozen
//! one does, over an owned model.

use std::ops::{Deref, DerefMut};

use deeprest_core::stream::{CarriedState, PointEstimate, StreamSnapshot};
use deeprest_core::train::{
    OnlineUpdater, TrainSegment, UpdateError, UpdateStats, REPLAY_SLOTS, SEGMENT_LEN,
};
use deeprest_core::DeepRest;
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::{Checkpoint, Driver, Pipeline, ServeError, WindowOutput, WindowStages};
use deeprest_telemetry as telemetry;
use deeprest_trace::stream::SealedWindow;
use deeprest_trace::Interner;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::config::AdaptConfig;
use crate::coverage::{CalibrationState, Coverage, DriftState};
use crate::replay::{ReplayBuffer, Segment};

/// Replay-buffer capacity in segments.
const REPLAY_CAPACITY: usize = 16;

/// The outcome recorded after each cadence firing. Update failures are
/// deliberately not part of ingest's error surface: a failed or poisoned
/// update rolls the model back and serving continues on the pre-update
/// parameters.
pub type UpdateOutcome = Result<UpdateStats, UpdateError>;

/// Everything an [`AdaptivePipeline`] resumes from, as one serde tree:
/// persist it with [`deeprest_serve::CheckpointStore`] or
/// [`to_json`](Self::to_json), and every part is written once.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveCheckpoint {
    /// The shared serving stages and the stream's carried state.
    pub serve: Checkpoint,
    /// The adapted model; its parameters are the optimizer's whole state
    /// (momentum-free SGD). Loading it checks and packs it.
    pub model: DeepRest,
    /// The adaptation trajectory.
    pub adapter: AdapterState,
}

impl AdaptiveCheckpoint {
    /// Serializes the checkpoint to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a checkpoint from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input,
    /// including a model that does not fit its own feature space.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The adaptation trajectory: replay buffer, drift and calibration
/// statistics, and the current segment with the update cadence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdapterState {
    /// Replay-buffer segments, oldest first.
    pub replay: Vec<Segment>,
    /// The coverage tracker's drift-watch half: CUSUM and watch flags.
    pub drift: DriftState,
    /// The coverage tracker's calibration half: score rings and counts.
    pub calibration: CalibrationState,
    /// The current segment and the update cadence's counters.
    pub staging: Staging,
}

/// The partially-filled current segment and the update cadence's
/// counters: the part of [`AdapterState`] the pipeline keeps as it is
/// checkpointed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Staging {
    /// Features of the partially-filled current segment
    /// (`cur_len × feature_dim`, window-major; trailing slots stale).
    pub cur_xs: Vec<f32>,
    /// Targets of the current segment (`experts × SEGMENT_LEN`,
    /// expert-major; columns ≥ `cur_len` stale).
    pub cur_targets: Vec<f32>,
    /// Windows accumulated into the current segment.
    pub cur_len: usize,
    /// Stream index of the current segment's first window.
    pub cur_start: usize,
    /// Whether every expert was observed in every window of the current
    /// segment so far (incomplete segments are dropped, not trained on).
    pub cur_observed: bool,
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
    pub updates_suspended: bool,
    /// Cadence firings skipped while suspended.
    pub updates_skipped_suspended: u64,
}

impl Staging {
    /// An empty segment of [`SEGMENT_LEN`] windows over `dim` features and
    /// `experts` experts; arenas are fixed size and reused.
    fn new(dim: usize, experts: usize) -> Self {
        Self {
            cur_xs: vec![0.0; SEGMENT_LEN * dim],
            cur_targets: vec![0.0; experts * SEGMENT_LEN],
            cur_len: 0,
            cur_start: 0,
            cur_observed: true,
            segments_sealed: 0,
            segments_since_update: 0,
            updates_run: 0,
            updates_failed: 0,
            updates_suspended: false,
            updates_skipped_suspended: 0,
        }
    }
}

/// The adaptive [`Driver`]: an owned model and everything that adapts it
/// — all of an adaptive pipeline that is not the shared serving stages.
pub struct Adapter {
    model: DeepRest,
    config: AdaptConfig,
    /// The stream's hidden state and position, stepped against `model`.
    carried: CarriedState,
    updater: OnlineUpdater,
    replay: ReplayBuffer,
    coverage: Coverage,
    staging: Staging,
    last_update: Option<UpdateOutcome>,
    /// Replay-sampling arenas (capacity [`REPLAY_CAPACITY`], reused).
    sample_scratch: Vec<usize>,
    sample_out: Vec<usize>,
}

/// [`Adapter`]'s [`Driver::checkpoint`] tree, as it is read back.
#[derive(Deserialize)]
struct AdapterTree {
    model: DeepRest,
    adapter: AdapterState,
}

/// A [`Pipeline`] over an [`Adapter`] that owns its model — see the module
/// docs.
pub struct AdaptivePipeline(Pipeline<Adapter>);

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
        let adapter = Adapter::new(model, config);
        Self(Pipeline::with_driver(adapter, source, config.serve).with_observations(observations))
    }

    /// Successful updates applied so far.
    pub fn updates_run(&self) -> u64 {
        self.driver().updates_run()
    }

    /// Update attempts rejected by a fault or rolled back.
    pub fn updates_failed(&self) -> u64 {
        self.driver().updates_failed()
    }

    /// Per-expert drift watch flags (in [`Pipeline::keys`] order).
    pub fn drift_watching(&self) -> &[bool] {
        self.driver().drift_watching()
    }

    /// Captures the full adaptive state: the shared stages' serve
    /// [`Checkpoint`], the adapted model and the adaptation trajectory,
    /// ready for [`deeprest_serve::CheckpointStore`]'s framed, CRC-checked,
    /// atomically-rotated persistence.
    pub fn checkpoint(&self) -> AdaptiveCheckpoint {
        let adapter = self.driver();
        AdaptiveCheckpoint {
            serve: self.0.checkpoint(),
            model: adapter.model.clone(),
            adapter: adapter.state(),
        }
    }

    /// Rebuilds an adaptive pipeline from a [`checkpoint`](Self::checkpoint)
    /// — [`new`](Self::new) over the checkpointed model, then the state
    /// loaded into it — resuming bit-identically: mid-segment, between
    /// updates, with the replay and calibration trajectory intact. The
    /// observation source is not part of the checkpoint; pass it again.
    ///
    /// # Errors
    ///
    /// A message when any piece of state disagrees with the model geometry
    /// — a staged or replayed segment of the wrong shape included.
    pub fn restore(
        source: &Interner,
        observations: MetricsRegistry,
        config: AdaptConfig,
        checkpoint: AdaptiveCheckpoint,
    ) -> Result<Self, String> {
        let mut pipeline = Self::new(checkpoint.model, source, observations, config);
        pipeline.driver_mut().restore(checkpoint.adapter)?;
        pipeline.0.load(checkpoint.serve, None)?;
        Ok(pipeline)
    }
}

impl Deref for AdaptivePipeline {
    type Target = Pipeline<Adapter>;

    fn deref(&self) -> &Pipeline<Adapter> {
        &self.0
    }
}

impl DerefMut for AdaptivePipeline {
    fn deref_mut(&mut self) -> &mut Pipeline<Adapter> {
        &mut self.0
    }
}

impl From<AdaptivePipeline> for Pipeline<Adapter> {
    fn from(pipeline: AdaptivePipeline) -> Self {
        pipeline.0
    }
}

impl Adapter {
    fn new(model: DeepRest, config: AdaptConfig) -> Self {
        let experts = model.expert_count();
        let nominal = f64::from(model.config().delta);
        let dim = model.feature_space().dim();
        Self {
            carried: CarriedState::new(&model),
            updater: OnlineUpdater::new(&model),
            replay: ReplayBuffer::new(REPLAY_CAPACITY),
            coverage: Coverage::new(nominal, config.drift, experts),
            staging: Staging::new(dim, experts),
            last_update: None,
            sample_scratch: Vec::with_capacity(REPLAY_CAPACITY),
            sample_out: Vec::with_capacity(REPLAY_CAPACITY),
            config,
            model,
        }
    }

    /// Per-expert drift watch flags (in [`Pipeline::keys`] order).
    pub fn drift_watching(&self) -> &[bool] {
        self.coverage.watching()
    }

    /// Outcome of the most recent update attempt (`None` before the first
    /// cadence firing). Failures here never interrupt serving.
    pub fn last_update(&self) -> Option<&UpdateOutcome> {
        self.last_update.as_ref()
    }

    /// Successful updates applied so far.
    pub fn updates_run(&self) -> u64 {
        self.staging.updates_run
    }

    /// Update attempts rejected by a fault or rolled back.
    pub fn updates_failed(&self) -> u64 {
        self.staging.updates_failed
    }

    /// Whether model updates are suspended ([`Driver::suspend`]).
    pub fn updates_suspended(&self) -> bool {
        self.staging.updates_suspended
    }

    /// Cadence firings skipped while suspended (typed counter, mirrored
    /// on `adapt.update.suspended`).
    pub fn updates_skipped_suspended(&self) -> u64 {
        self.staging.updates_skipped_suspended
    }

    /// Replay segments currently buffered.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// The adaptation trajectory, as checkpointed.
    fn state(&self) -> AdapterState {
        let (drift, calibration) = self.coverage.state();
        AdapterState {
            replay: self.replay.segments().to_vec(),
            drift,
            calibration,
            staging: self.staging.clone(),
        }
    }

    /// Moves a checkpointed trajectory into a fresh adapter, refusing any
    /// piece whose shape disagrees with the model — a staged or replayed
    /// segment included.
    fn restore(&mut self, state: AdapterState) -> Result<(), String> {
        let shape = |xs: &[f32], targets: &[f32]| (xs.len(), targets.len());
        let segment = shape(&self.staging.cur_xs, &self.staging.cur_targets);
        let got = shape(&state.staging.cur_xs, &state.staging.cur_targets);
        if got != segment || state.staging.cur_len >= SEGMENT_LEN {
            return Err(format!(
                "current segment (xs, targets) = {got:?} at {} windows does not match \
                 geometry {segment:?} of {SEGMENT_LEN}-window segments",
                state.staging.cur_len
            ));
        }
        if state.replay.len() > REPLAY_CAPACITY {
            return Err(format!(
                "replay holds {} segments, capacity is {REPLAY_CAPACITY}",
                state.replay.len()
            ));
        }
        for (i, s) in state.replay.iter().enumerate() {
            let got = shape(&s.xs, &s.targets);
            if got != segment {
                return Err(format!(
                    "replay segment {i} (xs, targets) = {got:?} does not match geometry {segment:?}"
                ));
            }
        }
        self.coverage.restore(state.drift, state.calibration)?;
        self.replay = ReplayBuffer::restore(REPLAY_CAPACITY, state.replay);
        self.staging = state.staging;
        Ok(())
    }

    /// Seals the staged segment (window `next_start` begins the next one)
    /// and runs the update when the cadence is due.
    fn seal_segment(&mut self, next_start: usize) {
        self.staging.segments_sealed += 1;
        if self.staging.cur_observed {
            self.staging.segments_since_update += 1;
            let due = self.staging.segments_since_update
                >= self
                    .config
                    .effective_update_every(self.coverage.watching().iter().any(|&w| w));
            if due && self.staging.updates_suspended {
                // Overload rung 2: the cadence firing is skipped (counted,
                // never silent) and the due-pressure is kept, so the first
                // seal after resume runs the deferred update.
                self.staging.updates_skipped_suspended += 1;
                if telemetry::enabled() {
                    telemetry::counter("adapt.update.suspended", 1);
                }
            } else if due {
                self.run_update();
                self.staging.segments_since_update = 0;
            }
            // The fresh segment enters the replay buffer *after* the
            // update sampled from it, so one update never stages the same
            // windows twice.
            let st = &self.staging;
            self.replay
                .push_copy(st.cur_start, &st.cur_xs, &st.cur_targets);
        } else if telemetry::enabled() {
            telemetry::counter("adapt.segment.dropped", 1);
        }
        let st = &mut self.staging;
        st.cur_len = 0;
        st.cur_start = next_start;
        st.cur_observed = true;
    }

    /// One cadence firing: deterministic replay sample + the fresh
    /// segment → one analytic update step, with calibration-aware
    /// gradient modulation. Failures leave the model bit-identical to the
    /// pre-update state and are recorded, never thrown.
    fn run_update(&mut self) {
        let draw = self.staging.updates_run + self.staging.updates_failed;
        self.replay.sample_into(
            self.config.sample_seed,
            draw,
            REPLAY_SLOTS,
            &mut self.sample_scratch,
            &mut self.sample_out,
        );
        let segment = |xs, targets| TrainSegment { xs, targets };
        let sampled = self.sample_out.iter().map(|&i| &self.replay.segments()[i]);
        let segments: Vec<TrainSegment<'_>> = sampled
            .map(|s| segment(&s.xs, &s.targets))
            .chain([segment(&self.staging.cur_xs, &self.staging.cur_targets)])
            .collect();

        self.updater
            .set_modulation(self.coverage.gradient_modulation());
        let outcome = self.updater.update(&mut self.model, &segments);
        if outcome.is_ok() {
            self.staging.updates_run += 1;
        } else {
            // Rejected before mutation or rolled back bit-for-bit, pack
            // included: the next window serves the pre-update model.
            self.staging.updates_failed += 1;
            if telemetry::enabled() {
                telemetry::counter("adapt.update.failed", 1);
            }
        }
        self.last_update = Some(outcome);
    }
}

impl Driver for Adapter {
    fn model(&self) -> &DeepRest {
        &self.model
    }

    fn carried(&self) -> &CarriedState {
        &self.carried
    }

    /// One sealed window: the shared serving stages, then — only when
    /// adaptation is enabled — recalibration before scoring and the
    /// observe/seal/update step after it.
    fn window(
        &mut self,
        stages: &mut WindowStages,
        w: &SealedWindow,
    ) -> Result<WindowOutput, ServeError> {
        let (x, raw) = stages.step(&self.model, &mut self.carried, w)?;
        if !self.config.enabled {
            return Ok(stages.score(w, raw));
        }

        // Recalibrate: widen each expert's interval by its conformal
        // scale (computed from *past* windows only — causal). Scale 1.0
        // is a bitwise no-op, so a cold pipeline reproduces the raw
        // estimates exactly.
        let estimates: Vec<PointEstimate> = (0..raw.len())
            .map(|e| Coverage::apply(&raw[e], self.coverage.scale(e)))
            .collect();
        let out = stages.score(w, estimates);

        // Observe: score each raw interval's coverage (the conformal ring,
        // the tail misses and the drift CUSUM), and stage training targets
        // for the current segment, from what the scoring stage looked up.
        let dim = self.model.feature_space().dim();
        let st = &mut self.staging;
        if st.cur_len < SEGMENT_LEN {
            st.cur_xs[st.cur_len * dim..(st.cur_len + 1) * dim].copy_from_slice(&x);
        }
        // The scorer's observations are in the experts' output space
        // already (increments of a cumulative resource).
        for (e, observed) in stages.observed().iter().enumerate() {
            let Some(observed) = *observed else {
                st.cur_observed = false;
                continue;
            };
            if self.coverage.observe(e, observed, &raw[e]) && telemetry::enabled() {
                telemetry::counter("adapt.drift.watch", 1);
            }
            let t = st.cur_len.min(SEGMENT_LEN - 1);
            st.cur_targets[e * SEGMENT_LEN + t] = self.model.encode_target(e, observed);
        }

        // Adapt: seal the segment when full; on the cadence, fold replay
        // plus the fresh segment back into the model.
        st.cur_len += 1;
        if st.cur_len == SEGMENT_LEN {
            self.seal_segment(w.index + 1);
        }
        Ok(out)
    }

    /// Suspends model updates (`true`) or resumes them (`false`). A
    /// deferred due update runs at the next segment seal, not here, so
    /// resuming is cheap and never blocks the caller.
    fn suspend(&mut self, frozen: bool) {
        if self.staging.updates_suspended != frozen {
            self.staging.updates_suspended = frozen;
            if telemetry::enabled() {
                let name = if frozen {
                    "adapt.updates.suspend"
                } else {
                    "adapt.updates.resume"
                };
                telemetry::counter(name, 1);
            }
        }
    }

    /// The adapted model and the [`AdapterState`].
    fn checkpoint(&self) -> Option<Value> {
        Some(serde_json::json!({ "model": self.model, "adapter": self.state() }))
    }

    fn load(&mut self, predictor: &StreamSnapshot, state: Option<Value>) -> Result<(), String> {
        if let Some(tree) = state {
            let AdapterTree { model, adapter } =
                AdapterTree::from_value(&tree).map_err(|e| e.to_string())?;
            *self = Self::new(model, self.config);
            self.restore(adapter)?;
        }
        self.carried = CarriedState::restore(&self.model, predictor)?;
        Ok(())
    }
}
