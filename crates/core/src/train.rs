//! Every writer of a model's parameters: application learning
//! ([`DeepRest::fit`], [`DeepRest::fit_transferred`]), continued training
//! ([`DeepRest::fit_incremental`]) and the online update step
//! ([`OnlineUpdater`]) that `deeprest-adapt` drives from the streaming
//! pipeline (observe → detect → adapt → recalibrate).
//!
//! They share two decisions, each made once here:
//!
//! * **One batch step.** Every optimizer step is
//!   `DeepRest::train_batch`: `zero_grads → run_batch → clip → step →
//!   repack` on the tape-free [`AnalyticTrainer`] over the model's own
//!   packed slab, so whoever steps the model next reads the parameters as
//!   they are (the updater repacks once more when it rolls back).
//!   Gradients fold in subsequence order, so training is bit-identical at
//!   any thread count, and every arena is preallocated.
//! * **One target encoding.** A measurement becomes a training target in the
//!   expert's output space — per-window increments of a cumulative resource
//!   ([`deeprest_metrics::increments`]), the value itself otherwise — scaled
//!   by the expert's scaler fitted during application learning. Offline
//!   series and online windows both go through `Expert::encode`.
//!
//! The online updater adds:
//!
//! * **Statelessness** — its optimizer is plain SGD with zero momentum, so
//!   the *only* mutable training state is the parameter values themselves:
//!   checkpointing the model checkpoints the optimizer, and resuming
//!   mid-adaptation is bit-exact.
//! * **Zero warm allocations** — the feature/target staging arenas, the
//!   batch-start list and the rollback snapshot are all preallocated at
//!   construction; a warm [`OnlineUpdater::update`] performs no kernel or
//!   host allocations (held by `deeprest-adapt`'s zero-alloc test).
//! * **Fail-safe mutation** — parameters are snapshotted before the step;
//!   an injected `adapt.update` fault or a non-finite parameter after the
//!   step (e.g. the `adapt.update.poison` probe) rolls the store back to
//!   the snapshot bit-for-bit, repacks, and surfaces a typed
//!   [`UpdateError`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use deeprest_fault as fault;
use deeprest_metrics::{increments, MetricsRegistry, MinMaxScaler, TimeSeries};
use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{Adam, AnalyticTrainer, GruCell, Linear, Sgd, SlotStats, TrainerConfig};
use deeprest_telemetry as telemetry;
use deeprest_tensor::{ParamId, ParamStore, Pool, Tensor};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::Interner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::model::{Expert, ModelParts};
use crate::{DeepRest, DeepRestConfig, ExpertKey, FeatureSpace, OptimizerKind, TraceSynthesizer};

/// Wall-clock seconds spent in each phase of [`DeepRest::fit`], in
/// pipeline order: Alg. 1+2 feature-space construction → trace-synthesizer
/// learning → per-window feature extraction → expert registration →
/// joint truncated-BPTT training (which includes the attention and output
/// heads of Eq. 3–4).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PhaseSeconds {
    /// Feature-space construction over the learning traces (Alg. 1).
    pub feature_space: f64,
    /// Trace-synthesizer learning (§4.1).
    pub synthesis: f64,
    /// Per-window count-vector extraction + normalization (Alg. 2).
    pub feature_extraction: f64,
    /// Parameter registration and optional transfer warm start.
    pub expert_init: f64,
    /// Joint quantile-regression training (Eq. 6, truncated BPTT).
    pub training: f64,
}

/// What `fit` reports about a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch (should be non-increasing overall).
    pub epoch_losses: Vec<f32>,
    /// Mean training loss per epoch split by expert, keyed by the expert's
    /// `component/resource` display name. Every value has
    /// `epoch_losses.len()` entries.
    #[serde(default)]
    pub expert_losses: BTreeMap<String, Vec<f32>>,
    /// Number of experts trained.
    pub expert_count: usize,
    /// Feature-space dimensionality.
    pub feature_dim: usize,
    /// Number of learning windows.
    pub windows: usize,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Per-phase wall-clock breakdown of `train_seconds`.
    #[serde(default)]
    pub phase_seconds: PhaseSeconds,
}

/// Per-epoch mean losses and their per-expert split, as
/// [`TrainReport::epoch_losses`] / [`TrainReport::expert_losses`] hold them.
pub(crate) type Losses = (Vec<f32>, BTreeMap<String, Vec<f32>>);

/// The optimizer a training run steps with.
pub(crate) enum Optimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl Optimizer {
    pub(crate) fn new(kind: OptimizerKind) -> Self {
        match kind {
            OptimizerKind::Sgd { lr, momentum } => Self::Sgd(Sgd::new(lr, momentum)),
            OptimizerKind::Adam { lr } => Self::Adam(Adam::new(lr)),
        }
    }

    pub(crate) fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        match self {
            Self::Sgd(o) => o.step_with(store, pool),
            Self::Adam(o) => o.step_with(store, pool),
        }
    }
}

impl Expert {
    /// One observation in this expert's output space (an increment for a
    /// cumulative resource) as a training target, scaled by the scaler
    /// fitted during application learning.
    fn encode(&self, observed: f64) -> f32 {
        self.scaler.transform(observed) as f32
    }
}

/// A measured series as an expert's outputs read it: per-window increments
/// of a cumulative resource, the values themselves otherwise.
fn output_space(cumulative: bool, series: &TimeSeries) -> Cow<'_, [f64]> {
    match cumulative {
        true => Cow::Owned(increments(series.values())),
        false => Cow::Borrowed(series.values()),
    }
}

/// Every expert's normalized training targets over `metrics`.
///
/// # Panics
///
/// Panics if `metrics` has no series for one of the experts.
fn targets_of(experts: &[Expert], metrics: &MetricsRegistry) -> Vec<Vec<f32>> {
    let target = |ex: &Expert| {
        let series = metrics
            .get(&ex.key)
            .unwrap_or_else(|| panic!("no metric series for expert {}", ex.key));
        let observed = output_space(ex.is_delta, series);
        observed.iter().map(|&v| ex.encode(v)).collect()
    };
    experts.iter().map(target).collect()
}

impl DeepRest {
    /// Application learning: builds the feature space and trace synthesizer
    /// from `traces`, creates one expert per metric series (or per
    /// `config.scope` entry), and trains all experts jointly against
    /// `metrics`.
    ///
    /// `interner` is the name table the traces were produced with; the model
    /// keeps a copy so later queries can resolve API endpoint names.
    ///
    /// # Panics
    ///
    /// Panics if `traces` and `metrics` disagree on window count, or the
    /// scope references unknown metrics.
    pub fn fit(
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        config: DeepRestConfig,
    ) -> (Self, TrainReport) {
        Self::fit_inner(traces, metrics, interner, config, None)
    }

    /// Transfer learning (§6): like [`DeepRest::fit`], but initializes each
    /// expert's *application-independent* GRU parameters (`U_*`, `b_*`) from
    /// a `source` model trained on another application (or an earlier
    /// version of this one), averaging the source experts that estimate the
    /// same [`deeprest_metrics::ResourceKind`]. The paper observes that
    /// experts for similar resources learn to remember/forget similarly
    /// (Fig. 21) and proposes exactly this warm start to accelerate
    /// convergence.
    ///
    /// # Panics
    ///
    /// Panics if `source` was trained with a different `hidden_dim`.
    pub fn fit_transferred(
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        config: DeepRestConfig,
        source: &DeepRest,
    ) -> (Self, TrainReport) {
        assert_eq!(
            source.config.hidden_dim, config.hidden_dim,
            "fit_transferred: hidden_dim mismatch with the source model"
        );
        Self::fit_inner(traces, metrics, interner, config, Some(source))
    }

    fn fit_inner(
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        config: DeepRestConfig,
        source: Option<&DeepRest>,
    ) -> (Self, TrainReport) {
        let t_start = Instant::now();
        let windows = traces.len();
        assert_eq!(
            Some(windows),
            metrics.window_count(),
            "fit: traces and metrics must cover the same windows"
        );

        // The walk that learns the feature space also counts every window.
        let ((features, counts), feature_space_secs) =
            telemetry::timed("fit.feature_space", || {
                FeatureSpace::construct_counted(traces)
            });
        let (synthesizer, synthesis_secs) =
            telemetry::timed("fit.synthesis", || TraceSynthesizer::learn(traces));
        let (xs, feature_extraction_secs) = telemetry::timed("fit.feature_extraction", || {
            counts
                .into_iter()
                .map(|x| features.normalize(x))
                .collect::<Vec<_>>()
        });
        let dim = features.dim();

        let ((expert_count, targets, experts, store), expert_init_secs) =
            telemetry::timed("fit.expert_init", || {
                // Select expert keys.
                let keys: Vec<ExpertKey> = match &config.scope {
                    Some(scope) => scope.clone(),
                    None => metrics.keys().cloned().collect(),
                };
                let expert_count = keys.len();
                assert!(expert_count > 0, "fit: no experts to train");

                // Register parameters; each expert's scaler is fitted on its
                // series in the expert's output space.
                let mut rng = StdRng::seed_from_u64(config.seed);
                let mut store = ParamStore::new();
                let mut experts: Vec<Expert> = keys
                    .iter()
                    .map(|key| {
                        let series = metrics
                            .get(key)
                            .unwrap_or_else(|| panic!("fit: no metric series for {key}"));
                        let is_delta = key.resource.cumulative();
                        let scaler = MinMaxScaler::fit(&output_space(is_delta, series));
                        let name = format!("{key}");
                        let mask = store.add(
                            format!("{name}.mask"),
                            deeprest_nn::init::mask_logits(dim, &mut rng),
                        );
                        let gru = GruCell::new(&mut store, &name, dim, config.hidden_dim, &mut rng);
                        let alpha = store.add(
                            format!("{name}.alpha"),
                            Tensor::rand_uniform(expert_count, 1, 0.0, 0.02, &mut rng),
                        );
                        let head = Linear::new(
                            &mut store,
                            &format!("{name}.head"),
                            2 * config.hidden_dim,
                            3,
                            &mut rng,
                        );
                        let skip = config.linear_skip.then(|| {
                            Linear::new(&mut store, &format!("{name}.skip"), dim, 3, &mut rng)
                        });
                        let gru_init = gru
                            .application_independent_params()
                            .iter()
                            .flat_map(|&p| store.value(p).data().iter().copied())
                            .collect();
                        Expert {
                            key: key.clone(),
                            mask,
                            gru,
                            alpha,
                            head,
                            skip,
                            gru_init,
                            scaler,
                            is_delta,
                        }
                    })
                    .collect();

                // Warm start: copy averaged application-independent GRU
                // parameters from the source model's same-resource experts.
                if let Some(source) = source {
                    for expert in &mut experts {
                        let donors: Vec<Vec<f32>> = source
                            .experts
                            .iter()
                            .filter(|se| se.key.resource == expert.key.resource)
                            .filter_map(|se| source.gru_independent_params(&se.key))
                            .collect();
                        if donors.is_empty() {
                            continue;
                        }
                        let len = donors[0].len();
                        let mut avg = vec![0.0f32; len];
                        for d in &donors {
                            for (a, v) in avg.iter_mut().zip(d.iter()) {
                                *a += v;
                            }
                        }
                        for a in &mut avg {
                            *a /= donors.len() as f32;
                        }
                        let mut offset = 0;
                        for id in expert.gru.application_independent_params() {
                            let t = store.value_mut(id);
                            let n = t.len();
                            t.data_mut().copy_from_slice(&avg[offset..offset + n]);
                            offset += n;
                        }
                        // Re-snapshot so the Fig. 21 analysis measures the
                        // update relative to the transferred starting point.
                        expert.gru_init = avg;
                    }
                }
                let targets = targets_of(&experts, metrics);
                (expert_count, targets, experts, store)
            });

        let mut model = Self::assemble(ModelParts {
            config,
            features,
            synthesizer,
            interner: interner.clone(),
            experts,
            store,
        })
        .unwrap_or_else(|why| {
            panic!("DeepRest::fit: experts it just registered do not pack: {why}")
        });
        let ((epoch_losses, expert_losses), training_secs) = telemetry::timed("fit.train", || {
            model.train_epochs(&xs, &targets, model.config.epochs)
        });

        let report = TrainReport {
            epoch_losses,
            expert_losses,
            expert_count,
            feature_dim: dim,
            windows,
            train_seconds: t_start.elapsed().as_secs_f64(),
            phase_seconds: PhaseSeconds {
                feature_space: feature_space_secs,
                synthesis: synthesis_secs,
                feature_extraction: feature_extraction_secs,
                expert_init: expert_init_secs,
                training: training_secs,
            },
        };
        (model, report)
    }

    /// An [`AnalyticTrainer`] for this model's slab. The model contributes
    /// the architecture (`api_mask`, `attention`, mask-L1 penalty,
    /// δ-quantiles); the caller only the batch geometry.
    fn trainer(&self, max_steps: usize, batch_slots: usize) -> AnalyticTrainer {
        let dim = self.features.dim();
        let config = TrainerConfig {
            input_dim: dim,
            hidden_dim: self.config.hidden_dim,
            max_steps,
            batch_slots,
            api_mask: self.config.api_mask,
            attention: self.config.attention,
            penalty: (self.config.mask_l1 > 0.0 && self.config.api_mask)
                .then(|| self.config.mask_l1 / (dim.max(1) * self.experts.len()) as f32),
            quantiles: quantiles_for(self.config.delta),
            modulation: [1.0; 3],
        };
        AnalyticTrainer::new(&self.slab, config)
    }

    /// One optimizer step on one batch of subsequences (the starts in
    /// `batch` into `xs`/`targets`), the step every writer of the
    /// parameters trains through: zero the gradients, run the batch's
    /// forward and backward on `trainer`, clip the global gradient norm at
    /// [`GRAD_CLIP`], step `opt`, and repack the slab from the written store.
    /// Returns the batch's per-subsequence loss statistics.
    fn train_batch<'t>(
        &mut self,
        trainer: &'t mut AnalyticTrainer,
        opt: &mut Optimizer,
        xs: &[Vec<f32>],
        targets: &[Vec<f32>],
        batch: &[usize],
    ) -> &'t [SlotStats] {
        let pool = self.pool();
        self.store.zero_grads();
        let stats = trainer.run_batch(&self.slab, &mut self.store, &pool, xs, targets, batch);
        self.store.clip_grad_norm(GRAD_CLIP);
        opt.step_with(&mut self.store, &pool);
        self.slab.repack(&self.store);
        stats
    }

    /// Joint training over all experts (quantile loss, Eq. 6): `epochs`
    /// optimizer epochs of tape-free truncated BPTT over the packed expert
    /// slab ([`AnalyticTrainer`]), batching gate GEMMs across experts and
    /// sharding expert ranges over the pool.
    ///
    /// Returns the per-epoch mean loss plus the same series split by expert
    /// (keyed by the expert's display name). The test-only autodiff tape in
    /// `oracle.rs` shuffles, batches, folds, clips and steps identically;
    /// its unit tests prove the trained parameters bit-for-bit equal.
    fn train_epochs(&mut self, xs: &[Vec<f32>], targets: &[Vec<f32>], epochs: usize) -> Losses {
        let t = xs.len();
        let len = self.config.subseq_len.max(2);
        let starts: Vec<usize> = (0..t).step_by(len).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9);
        let mut opt = Optimizer::new(self.config.optimizer);

        let e_count = self.experts.len();
        let expert_names: Vec<String> = self.experts.iter().map(|e| format!("{}", e.key)).collect();
        let batch_slots = self.config.batch_size.max(1).min(starts.len());
        let mut trainer = self.trainer(len, batch_slots);

        let mut epoch_losses = Vec::with_capacity(epochs);
        let mut expert_epoch_losses: Vec<Vec<f32>> = vec![Vec::with_capacity(epochs); e_count];
        let mut order = Vec::with_capacity(starts.len());
        for _epoch in 0..epochs {
            order.clear();
            order.extend_from_slice(&starts);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut epoch_terms = 0usize;
            let mut epoch_expert_sums = vec![0.0f32; e_count];

            for batch in order.chunks(self.config.batch_size.max(1)) {
                let stats = self.train_batch(&mut trainer, &mut opt, xs, targets, batch);
                for slot in stats {
                    epoch_loss += slot.loss_sum;
                    epoch_terms += slot.n_terms;
                    for (acc, s) in epoch_expert_sums.iter_mut().zip(slot.expert_sums.iter()) {
                        *acc += s;
                    }
                }
            }
            epoch_losses.push(epoch_loss / epoch_terms.max(1) as f32);
            let per_expert_terms = (epoch_terms / e_count.max(1)).max(1) as f32;
            for (e, sum) in epoch_expert_sums.iter().enumerate() {
                expert_epoch_losses[e].push(sum / per_expert_terms);
            }
            if telemetry::enabled() {
                telemetry::counter("train.epochs", 1);
                telemetry::gauge("train.epoch_loss", f64::from(*epoch_losses.last().unwrap()));
                for (name, series) in expert_names.iter().zip(expert_epoch_losses.iter()) {
                    telemetry::gauge(
                        format!("train.loss.{name}"),
                        f64::from(*series.last().unwrap()),
                    );
                }
            }
        }
        let expert_losses = expert_names.into_iter().zip(expert_epoch_losses).collect();
        (epoch_losses, expert_losses)
    }

    /// Continued training on freshly collected data: runs `epochs` extra
    /// optimizer epochs against `traces`/`metrics` without rebuilding the
    /// model. The existing feature space, expert swarm and per-expert
    /// target scalers are reused (targets are normalized with the scalers
    /// fitted during application learning, so the loss stays on the
    /// original scale), and cumulative resources are trained on increments
    /// exactly as in [`DeepRest::fit`]. Query traces may come from any
    /// producer: `interner` is the table that names them.
    ///
    /// This drives the periodic-retraining loop (§6): keep serving from
    /// the model while folding in the latest windows, paying only the
    /// incremental training cost — the step reuses the same packed slab
    /// machinery as a full fit.
    ///
    /// Returns the per-epoch mean losses and the per-expert split, like
    /// [`TrainReport::epoch_losses`] / [`TrainReport::expert_losses`].
    ///
    /// # Panics
    ///
    /// Panics if `traces` and `metrics` disagree on window count, or a
    /// metric series for one of the model's experts is missing.
    pub fn fit_incremental(
        &mut self,
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        epochs: usize,
    ) -> Losses {
        assert_eq!(
            Some(traces.len()),
            metrics.window_count(),
            "fit_incremental: traces and metrics must cover the same windows"
        );
        let _span = telemetry::span("fit.incremental");
        let (xs, targets) = self.training_inputs(traces, metrics, interner);
        self.train_epochs(&xs, &targets, epochs)
    }

    /// Normalized features and per-expert targets for training this model
    /// on `traces`/`metrics`, symbols read through `interner`.
    pub(crate) fn training_inputs(
        &self,
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let xs = self.feature_rows(traces, interner);
        (xs, targets_of(&self.experts, metrics))
    }

    /// One window's observation of expert `expert`'s resource (index into
    /// [`DeepRest::expert_keys`]) as an online training target: `observed`
    /// is in the expert's output space — the increment for a cumulative
    /// resource ([`deeprest_metrics::increment`]), the raw value otherwise —
    /// and is scaled exactly as the offline targets are.
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range.
    pub fn encode_target(&self, expert: usize, observed: f64) -> f32 {
        self.experts[expert].encode(observed)
    }
}

/// Global gradient-norm clip applied before every optimizer step, offline
/// and online alike.
pub(crate) const GRAD_CLIP: f32 = 5.0;

/// Windows per online training subsequence — also the replay-buffer
/// segment length. Each staged segment gets a fresh hidden state, matching
/// the truncated-BPTT regime of offline training.
pub const SEGMENT_LEN: usize = 8;

/// Replay segments folded into each online update alongside the fresh
/// segment.
pub const REPLAY_SLOTS: usize = 3;

/// Total subsequence slots per online update (replay + fresh).
const SEGMENT_SLOTS: usize = REPLAY_SLOTS + 1;

/// SGD learning rate of the online update (momentum is fixed at zero — see
/// the module docs for why statelessness matters).
const UPDATE_LR: f32 = 0.002;

/// One staged training subsequence: `SEGMENT_LEN` windows of features and
/// per-expert normalized targets, both flat.
#[derive(Clone, Copy, Debug)]
pub struct TrainSegment<'a> {
    /// Features, `SEGMENT_LEN × feature_dim`, window-major.
    pub xs: &'a [f32],
    /// Normalized targets, `experts × SEGMENT_LEN`, expert-major.
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
        /// Slots per update: [`REPLAY_SLOTS`] + 1.
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
    /// Plain SGD with zero momentum: stateless.
    opt: Optimizer,
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
    ids: Vec<ParamId>,
}

impl OnlineUpdater {
    /// Builds the updater against `model`'s current expert swarm.
    ///
    /// The trainer configuration mirrors the model's own (`api_mask`,
    /// `attention`, mask-L1 penalty, δ-quantiles); the optimizer and batch
    /// geometry are the online constants ([`SEGMENT_LEN`], [`REPLAY_SLOTS`]).
    ///
    /// # Panics
    ///
    /// Panics if the model has no experts.
    pub fn new(model: &DeepRest) -> Self {
        let experts = model.experts.len();
        assert!(experts > 0, "OnlineUpdater: model has no experts");
        let dim = model.features.dim();
        let total = SEGMENT_SLOTS * SEGMENT_LEN;
        let ids: Vec<ParamId> = model.store.ids().collect();
        let backup = ids
            .iter()
            .map(|&id| vec![0.0f32; model.store.value(id).data().len()])
            .collect();
        Self {
            trainer: model.trainer(SEGMENT_LEN, SEGMENT_SLOTS),
            opt: Optimizer::Sgd(Sgd::new(UPDATE_LR, 0.0)),
            experts,
            dim,
            xs: vec![vec![0.0; dim]; total],
            targets: vec![vec![0.0; total]; experts],
            batch: Vec::with_capacity(SEGMENT_SLOTS),
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
        if segments.len() > SEGMENT_SLOTS {
            return Err(UpdateError::TooManySegments {
                got: segments.len(),
                slots: SEGMENT_SLOTS,
            });
        }
        for (s, seg) in segments.iter().enumerate() {
            if seg.xs.len() != SEGMENT_LEN * self.dim {
                return Err(UpdateError::SegmentShape {
                    segment: s,
                    detail: format!(
                        "xs has {} floats, expected {} ({} windows × {} features)",
                        seg.xs.len(),
                        SEGMENT_LEN * self.dim,
                        SEGMENT_LEN,
                        self.dim
                    ),
                });
            }
            if seg.targets.len() != self.experts * SEGMENT_LEN {
                return Err(UpdateError::SegmentShape {
                    segment: s,
                    detail: format!(
                        "targets has {} floats, expected {} ({} experts × {} windows)",
                        seg.targets.len(),
                        self.experts * SEGMENT_LEN,
                        self.experts,
                        SEGMENT_LEN
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
            for t in 0..SEGMENT_LEN {
                self.xs[s * SEGMENT_LEN + t]
                    .copy_from_slice(&seg.xs[t * self.dim..(t + 1) * self.dim]);
            }
            for e in 0..self.experts {
                self.targets[e][s * SEGMENT_LEN..(s + 1) * SEGMENT_LEN]
                    .copy_from_slice(&seg.targets[e * SEGMENT_LEN..(e + 1) * SEGMENT_LEN]);
            }
        }
        self.batch.clear();
        self.batch
            .extend((0..segments.len()).map(|s| s * SEGMENT_LEN));

        // Pre-step snapshot: rollback target for poisoned updates.
        for (buf, &id) in self.backup.iter_mut().zip(self.ids.iter()) {
            buf.copy_from_slice(model.store.value(id).data());
        }

        let staged = segments.len() * SEGMENT_LEN;
        let (mut loss_sum, mut terms) = (0.0f32, 0usize);
        let stats = model.train_batch(
            &mut self.trainer,
            &mut self.opt,
            &self.xs[..staged],
            &self.targets,
            &self.batch,
        );
        for slot in stats {
            loss_sum += slot.loss_sum;
            terms += slot.n_terms;
        }

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
            // Back to the snapshot, and the pack follows the store.
            for (buf, &id) in self.backup.iter().zip(self.ids.iter()) {
                model.store.value_mut(id).data_mut().copy_from_slice(buf);
            }
            model.slab.repack(&model.store);
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
