//! Online incremental update engine for the continual-learning loop.
//!
//! [`OnlineUpdater`] keeps a persistent [`AnalyticTrainer`] (arenas sized
//! for the live expert swarm) and applies micro-batches of sealed serving
//! windows to the model between windows — the `deeprest-adapt` crate drives
//! it from the streaming pipeline (observe → detect → adapt → recalibrate).
//! It trains on the model's own packed slab and repacks it before it
//! returns, so whoever steps the model next reads the updated (or rolled
//! back) parameters.
//!
//! Design constraints, matching the rest of the system:
//!
//! * **Bit-determinism** — one update is a single `zero_grads → run_batch →
//!   clip → SGD step → repack` round on the analytic engine, which is
//!   bit-identical across `DEEPREST_THREADS` by construction. The optimizer
//!   is plain SGD with zero momentum, so the *only* mutable training state
//!   is the parameter values themselves — checkpointing the model params
//!   checkpoints the optimizer, making mid-adaptation resume trivially
//!   bit-exact.
//! * **Zero warm allocations** — the feature/target staging arenas, the
//!   batch-start list and the rollback snapshot are all preallocated at
//!   construction; a warm [`OnlineUpdater::update`] performs no kernel or
//!   host allocations (held by `deeprest-adapt`'s zero-alloc test).
//! * **Fail-safe mutation** — parameters are snapshotted before the step;
//!   an injected `adapt.update` fault or a non-finite parameter after the
//!   step (e.g. the `adapt.update.poison` probe) rolls the store back to
//!   the snapshot bit-for-bit, repacks, and surfaces a typed
//!   [`UpdateError`].

use deeprest_fault as fault;
use deeprest_nn::{AnalyticTrainer, Sgd};
use deeprest_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::estimator::DeepRest;

/// Tuning of the online update step.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UpdateConfig {
    /// Windows per training subsequence — also the replay-buffer segment
    /// length. Each staged segment gets a fresh hidden state, matching the
    /// truncated-BPTT regime of offline training.
    pub segment_len: usize,
    /// Replay segments folded into each update alongside the fresh
    /// segment, so `segment_slots() = replay_slots + 1`.
    pub replay_slots: usize,
    /// SGD learning rate (momentum is fixed at zero — see the module docs
    /// for why statelessness matters).
    pub lr: f32,
    /// Global gradient-norm clip applied before the step.
    pub grad_clip: f32,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            segment_len: 8,
            replay_slots: 3,
            lr: 0.002,
            grad_clip: 5.0,
        }
    }
}

impl UpdateConfig {
    /// Total subsequence slots per update (replay + fresh).
    pub(crate) fn segment_slots(&self) -> usize {
        self.replay_slots + 1
    }
}

/// One staged training subsequence: `segment_len` windows of features and
/// per-expert normalized targets, both flat.
#[derive(Clone, Copy, Debug)]
pub struct TrainSegment<'a> {
    /// Features, `segment_len × feature_dim`, window-major.
    pub xs: &'a [f32],
    /// Normalized targets, `experts × segment_len`, expert-major.
    pub targets: &'a [f32],
}

/// Outcome of one successful update step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean pinball loss over the staged pinball terms.
    pub loss: f32,
    /// Number of pinball terms (`windows × experts`).
    pub terms: usize,
    /// Segments staged (replay + fresh).
    pub segments: usize,
}

/// Typed failure of one update step. Every variant leaves the model
/// exactly as it was before the step (rolled back where mutation had
/// already begun), so serving can continue from the pre-update parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The `adapt.update` fault probe fired before any mutation.
    Injected,
    /// A parameter was non-finite after the step (blow-up or the
    /// `adapt.update.poison` probe); the store was rolled back bit-for-bit
    /// to the pre-update snapshot.
    PoisonedRolledBack {
        /// Number of parameter tensors that contained non-finite values.
        tensors: usize,
    },
    /// A staged segment did not match the configured shape.
    SegmentShape {
        /// Index of the offending segment.
        segment: usize,
        /// What was wrong, human-readable.
        detail: String,
    },
    /// More segments staged than the updater has slots for.
    TooManySegments {
        /// Segments handed in.
        got: usize,
        /// Configured `segment_slots()`.
        slots: usize,
    },
}

impl core::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Injected => write!(f, "update rejected by the adapt.update fault probe"),
            Self::PoisonedRolledBack { tensors } => write!(
                f,
                "{tensors} parameter tensor(s) non-finite after the step; rolled back"
            ),
            Self::SegmentShape { segment, detail } => {
                write!(f, "segment {segment} has the wrong shape: {detail}")
            }
            Self::TooManySegments { got, slots } => {
                write!(f, "staged {got} segments but only {slots} slots")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Persistent incremental trainer over a [`DeepRest`] model's expert swarm.
///
/// Construct once against the model, then call
/// [`update`](OnlineUpdater::update) with staged segments whenever the
/// adaptation cadence fires. The updater never holds a borrow of the model
/// between calls — parameter handles are `Copy` — so the caller is free to
/// serve from the model (or checkpoint it) between updates.
pub struct OnlineUpdater {
    trainer: AnalyticTrainer,
    sgd: Sgd,
    cfg: UpdateConfig,
    experts: usize,
    dim: usize,
    /// Staging arena: one `dim`-sized row per window across all slots.
    xs: Vec<Vec<f32>>,
    /// Staging arena: per expert, targets over all staged windows.
    targets: Vec<Vec<f32>>,
    /// Subsequence starts of the staged batch.
    batch: Vec<usize>,
    /// Pre-step parameter snapshot for bit-exact rollback.
    backup: Vec<Vec<f32>>,
    /// Parameter ids, collected once (iterating `store.ids()` holds an
    /// immutable borrow that would conflict with in-place mutation).
    ids: Vec<deeprest_tensor::ParamId>,
}

impl OnlineUpdater {
    /// Builds the updater against `model`'s current expert swarm.
    ///
    /// The trainer configuration mirrors the model's own (`api_mask`,
    /// `attention`, mask-L1 penalty, δ-quantiles); only the optimizer and
    /// batch geometry come from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.segment_len` is zero or the model has no experts.
    pub fn new(model: &DeepRest, cfg: UpdateConfig) -> Self {
        assert!(
            cfg.segment_len > 0,
            "OnlineUpdater: segment_len must be > 0"
        );
        let experts = model.experts.len();
        assert!(experts > 0, "OnlineUpdater: model has no experts");
        let dim = model.features.dim();
        let slots = cfg.segment_slots();
        let total = slots * cfg.segment_len;
        let ids: Vec<deeprest_tensor::ParamId> = model.store.ids().collect();
        let backup = ids
            .iter()
            .map(|&id| vec![0.0f32; model.store.value(id).data().len()])
            .collect();
        Self {
            trainer: model.trainer(cfg.segment_len, slots),
            sgd: Sgd::new(cfg.lr, 0.0),
            cfg,
            experts,
            dim,
            xs: vec![vec![0.0; dim]; total],
            targets: vec![vec![0.0; total]; experts],
            batch: Vec::with_capacity(slots),
            backup,
            ids,
        }
    }

    /// Replaces the per-quantile gradient modulation used by subsequent
    /// updates (`[1.0; 3]` restores the exact unmodulated backward).
    pub fn set_modulation(&mut self, modulation: [f32; 3]) {
        self.trainer.set_modulation(modulation);
    }

    /// Applies one incremental optimizer step on `segments` (replay +
    /// fresh, in the caller's deterministic order).
    ///
    /// On any error the model's parameters are bit-identical to the state
    /// before the call. A warm call performs no allocations.
    ///
    /// # Errors
    ///
    /// See [`UpdateError`].
    pub fn update(
        &mut self,
        model: &mut DeepRest,
        segments: &[TrainSegment<'_>],
    ) -> Result<UpdateStats, UpdateError> {
        let _span = telemetry::span("adapt.update");
        let slots = self.cfg.segment_slots();
        if segments.len() > slots {
            return Err(UpdateError::TooManySegments {
                got: segments.len(),
                slots,
            });
        }
        let seg_len = self.cfg.segment_len;
        for (s, seg) in segments.iter().enumerate() {
            if seg.xs.len() != seg_len * self.dim {
                return Err(UpdateError::SegmentShape {
                    segment: s,
                    detail: format!(
                        "xs has {} floats, expected {} ({} windows × {} features)",
                        seg.xs.len(),
                        seg_len * self.dim,
                        seg_len,
                        self.dim
                    ),
                });
            }
            if seg.targets.len() != self.experts * seg_len {
                return Err(UpdateError::SegmentShape {
                    segment: s,
                    detail: format!(
                        "targets has {} floats, expected {} ({} experts × {} windows)",
                        seg.targets.len(),
                        self.experts * seg_len,
                        self.experts,
                        seg_len
                    ),
                });
            }
        }
        if fault::fail_point("adapt.update") {
            telemetry::counter("adapt.update.injected", 1);
            return Err(UpdateError::Injected);
        }
        if segments.is_empty() {
            return Ok(UpdateStats::default());
        }

        // Stage the arenas (plain memcpy into preallocated rows).
        for (s, seg) in segments.iter().enumerate() {
            for t in 0..seg_len {
                self.xs[s * seg_len + t].copy_from_slice(&seg.xs[t * self.dim..(t + 1) * self.dim]);
            }
            for e in 0..self.experts {
                self.targets[e][s * seg_len..(s + 1) * seg_len]
                    .copy_from_slice(&seg.targets[e * seg_len..(e + 1) * seg_len]);
            }
        }
        self.batch.clear();
        self.batch.extend((0..segments.len()).map(|s| s * seg_len));

        // Pre-step snapshot: rollback target for poisoned updates.
        for (buf, &id) in self.backup.iter_mut().zip(self.ids.iter()) {
            buf.copy_from_slice(model.store.value(id).data());
        }

        model.store.zero_grads();
        let pool = model.pool();
        let staged = segments.len() * seg_len;
        let (mut loss_sum, mut terms) = (0.0f32, 0usize);
        {
            let stats = self.trainer.run_batch(
                &model.slab,
                &mut model.store,
                &pool,
                &self.xs[..staged],
                &self.targets,
                &self.batch,
            );
            for slot in stats {
                loss_sum += slot.loss_sum;
                terms += slot.n_terms;
            }
        }
        model.store.clip_grad_norm(self.cfg.grad_clip);
        self.sgd.step_with(&mut model.store, &pool);

        // Post-step validation: an injected parameter poison (or a numeric
        // blow-up that slipped past the optimizer's gradient sanitizer)
        // must never reach serving. Roll back bit-for-bit.
        let mut poisoned = 0usize;
        for &id in &self.ids {
            let data = model.store.value_mut(id).data_mut();
            fault::poison_f32s("adapt.update.poison", data);
            if data.iter().any(|v| !v.is_finite()) {
                poisoned += 1;
            }
        }
        if poisoned > 0 {
            for (buf, &id) in self.backup.iter().zip(self.ids.iter()) {
                model.store.value_mut(id).data_mut().copy_from_slice(buf);
            }
        }
        // The store was written: stepped, or stepped and rolled back. The
        // pack follows it either way.
        model.slab.repack(&model.store);
        if poisoned > 0 {
            telemetry::counter("adapt.rollback", 1);
            return Err(UpdateError::PoisonedRolledBack { tensors: poisoned });
        }

        if telemetry::enabled() {
            telemetry::counter("adapt.update.steps", 1);
            telemetry::gauge(
                "adapt.update.loss",
                f64::from(loss_sum / terms.max(1) as f32),
            );
        }
        Ok(UpdateStats {
            loss: loss_sum / terms.max(1) as f32,
            terms,
            segments: segments.len(),
        })
    }
}

impl DeepRest {
    /// Normalizes one observed raw metric value into the training-target
    /// space of expert `expert` (index into [`DeepRest::expert_keys`]):
    /// cumulative resources are delta-encoded against `prev` first, then
    /// passed through the scaler fitted during application learning.
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range.
    pub fn normalize_target(&self, expert: usize, value: f64, prev: f64) -> f32 {
        let ex = &self.experts[expert];
        // Mirrors the offline `delta_encode` (counter resets clamp to 0).
        let raw = if ex.is_delta {
            (value - prev).max(0.0)
        } else {
            value
        };
        ex.scaler.transform(raw) as f32
    }

    /// Number of experts in the swarm.
    pub fn expert_count(&self) -> usize {
        self.experts.len()
    }
}
