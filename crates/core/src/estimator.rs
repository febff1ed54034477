//! The API-aware deep resource estimator (§4.2-4.3).
//!
//! One DNN expert per `(component, resource)` pair. Each expert applies a
//! learnable sigmoid mask over the invocation-path features (Eq. 1), runs a
//! GRU over time (Eq. 2), attends over the *other* experts' hidden states
//! with trainable scalar weights (Eq. 3), and emits `(expected, lower,
//! upper)` through a fully connected head (Eq. 4). All experts train
//! jointly with the quantile-regression objective of Eq. 6.

use std::collections::BTreeMap;
use std::time::Instant;

use deeprest_metrics::{MetricKey, MetricsRegistry, MinMaxScaler, TimeSeries};
use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{
    Adam, AnalyticTrainer, ExpertSlab, ExpertSpec, GruCell, Linear, Sgd, TrainerConfig,
};
use deeprest_telemetry as telemetry;
use deeprest_tensor::{kernel, ParamId, ParamStore, Pool, Tensor};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::Interner;
use deeprest_workload::ApiTraffic;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::stream::{StreamPredictor, StreamSnapshot};
use crate::{DeepRestConfig, FeatureSpace, OptimizerKind, TraceSynthesizer};

/// The identity of one expert: the `(component, resource)` it estimates.
pub type ExpertKey = MetricKey;

/// One DNN expert (parameter handles only; values live in the shared
/// [`ParamStore`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Expert {
    pub(crate) key: ExpertKey,
    /// API-aware mask logits `m^{c,r}` (Eq. 1), shape `(feature_dim, 1)`.
    pub(crate) mask: ParamId,
    /// Recurrent core (Eq. 2).
    pub(crate) gru: GruCell,
    /// Cross-component attention weights `α^{c,r}` over all experts
    /// (Eq. 3), shape `(expert_count, 1)`; the self entry is masked out.
    pub(crate) alpha: ParamId,
    /// Output head `V^{c,r}` mapping `(a_t || h_t)` to the three quantile
    /// outputs (Eq. 4).
    pub(crate) head: Linear,
    /// Optional linear skip path from the masked features to the outputs
    /// (see [`DeepRestConfig::linear_skip`]).
    pub(crate) skip: Option<Linear>,
    /// Snapshot of the application-independent GRU parameters at
    /// initialization, enabling the Fig. 21 analysis on the *learned
    /// update* `θ - θ₀` (raw parameters are dominated by the random
    /// initialization on short CPU-scale training runs).
    gru_init: Vec<f32>,
    /// Target normalization fitted on learning data.
    pub(crate) scaler: MinMaxScaler,
    /// Cumulative resources (disk usage) are modeled as per-window deltas.
    pub(crate) is_delta: bool,
}

/// Estimation for one resource: expected value plus the δ-confidence
/// interval, per window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PredictedSeries {
    /// Median (expected) utilization.
    pub expected: TimeSeries,
    /// Lower confidence limit.
    pub lower: TimeSeries,
    /// Upper confidence limit.
    pub upper: TimeSeries,
    /// When `true` the series are per-window *increments* of a cumulative
    /// resource (disk usage); see [`PredictedSeries::integrated`].
    pub is_delta: bool,
}

impl PredictedSeries {
    /// For delta series: integrates increments from `initial`, producing the
    /// cumulative series the raw metric reports. Identity for level series.
    pub fn integrated(&self, initial: f64) -> PredictedSeries {
        if !self.is_delta {
            return self.clone();
        }
        let integrate = |s: &TimeSeries| {
            let mut acc = initial;
            s.values()
                .iter()
                .map(|&d| {
                    acc += d.max(0.0);
                    acc
                })
                .collect::<TimeSeries>()
        };
        PredictedSeries {
            expected: integrate(&self.expected),
            lower: integrate(&self.lower),
            upper: integrate(&self.upper),
            is_delta: false,
        }
    }
}

/// Predictions for all experts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Estimates {
    pub(crate) map: BTreeMap<ExpertKey, PredictedSeries>,
}

impl Estimates {
    /// Prediction for one resource.
    pub fn get(&self, key: &ExpertKey) -> Option<&PredictedSeries> {
        self.map.get(key)
    }

    /// Prediction by component name and resource.
    pub fn get_parts(
        &self,
        component: &str,
        resource: deeprest_metrics::ResourceKind,
    ) -> Option<&PredictedSeries> {
        self.map.get(&MetricKey::new(component, resource))
    }

    /// Iterates in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&ExpertKey, &PredictedSeries)> {
        self.map.iter()
    }

    /// Number of estimated resources.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

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

/// The trained DeepRest model: feature space, trace synthesizer and the
/// expert swarm with its shared parameter store.
#[derive(Clone, Debug, Serialize)]
pub struct DeepRest {
    pub(crate) config: DeepRestConfig,
    pub(crate) features: FeatureSpace,
    synthesizer: TraceSynthesizer,
    pub(crate) interner: Interner,
    pub(crate) experts: Vec<Expert>,
    pub(crate) store: ParamStore,
    /// The one packed copy of `store`'s values, sharded for
    /// [`pool`](Self::pool): what every predictor, what-if fork and trainer
    /// of this model steps. Derived, so it is never written out; it is
    /// packed where the model is put together and repacked wherever `store`
    /// is written (`train_epochs`, `OnlineUpdater::update`), so it always
    /// is the parameters.
    #[serde(skip)]
    pub(crate) slab: ExpertSlab,
}

/// What a [`DeepRest`] is made of and written out as: everything but the
/// pack.
#[derive(Deserialize)]
struct ModelParts {
    config: DeepRestConfig,
    features: FeatureSpace,
    synthesizer: TraceSynthesizer,
    interner: Interner,
    experts: Vec<Expert>,
    store: ParamStore,
}

impl Deserialize for DeepRest {
    /// Reads the serialised parts and packs them. Expert handles that do
    /// not fit the store or the feature space are an error here, not an
    /// out-of-bounds read at the first step.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let parts = ModelParts::from_value(value)?;
        let refuse = |why: String| serde::Error::custom(format!("DeepRest: {why}"));
        // The slab takes its shape from the first expert and `try_pack`
        // holds every other expert to it; streams take theirs from here.
        let shape = (parts.features.dim(), parts.config.hidden_dim);
        let first = parts.experts.first().map(|ex| &ex.gru);
        if first.map(|cell| (cell.input_dim(), cell.hidden_dim())) != Some(shape) {
            return Err(refuse(format!(
                "the first expert is not shaped (features, hidden_dim) = {shape:?}"
            )));
        }
        Self::assemble(parts).map_err(refuse)
    }
}

/// The swarm's parameter handles in expert order — what the slab is packed
/// from.
fn expert_specs(experts: &[Expert]) -> Vec<ExpertSpec> {
    experts
        .iter()
        .map(|ex| ExpertSpec {
            mask: ex.mask,
            cell: ex.gru,
            alpha: ex.alpha,
            head: ex.head,
            skip: ex.skip,
        })
        .collect()
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

                // Build normalized targets (delta-encode cumulative resources).
                let mut targets: Vec<Vec<f32>> = Vec::with_capacity(expert_count);
                let mut scalers = Vec::with_capacity(expert_count);
                let mut deltas = Vec::with_capacity(expert_count);
                for key in &keys {
                    let series = metrics
                        .get(key)
                        .unwrap_or_else(|| panic!("fit: no metric series for {key}"));
                    let is_delta = key.resource.cumulative();
                    let raw: Vec<f64> = if is_delta {
                        delta_encode(series.values())
                    } else {
                        series.values().to_vec()
                    };
                    let scaler = MinMaxScaler::fit(&raw);
                    targets.push(raw.iter().map(|&v| scaler.transform(v) as f32).collect());
                    scalers.push(scaler);
                    deltas.push(is_delta);
                }

                // Register parameters.
                let mut rng = StdRng::seed_from_u64(config.seed);
                let mut store = ParamStore::new();
                let mut experts: Vec<Expert> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, key)| {
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
                            scaler: scalers[i],
                            is_delta: deltas[i],
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

    /// Puts a model together from its parts — fitted or read back — and
    /// packs its slab: the one place a model comes into being, so a model
    /// that exists has its pack.
    ///
    /// # Errors
    ///
    /// Returns [`ExpertSlab::try_pack`]'s message when the experts' handles
    /// do not fit the store (parts read from a file can disagree).
    fn assemble(parts: ModelParts) -> Result<Self, String> {
        let slab = ExpertSlab::try_pack(
            &parts.store,
            &expert_specs(&parts.experts),
            parts.config.api_mask,
            parts.config.attention,
            pool_of(&parts.config).threads(),
        )?;
        Ok(Self {
            config: parts.config,
            features: parts.features,
            synthesizer: parts.synthesizer,
            interner: parts.interner,
            experts: parts.experts,
            store: parts.store,
            slab,
        })
    }

    /// The worker pool this model fans training and prediction out over:
    /// [`DeepRestConfig::threads`] when set, the process-wide pool otherwise.
    pub(crate) fn pool(&self) -> Pool {
        pool_of(&self.config)
    }

    /// An [`AnalyticTrainer`] for this model's slab. The model contributes
    /// the architecture (`api_mask`, `attention`, mask-L1 penalty,
    /// δ-quantiles); the caller only the batch geometry.
    pub(crate) fn trainer(&self, max_steps: usize, batch_slots: usize) -> AnalyticTrainer {
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

    /// Joint training over all experts (quantile loss, Eq. 6): `epochs`
    /// optimizer epochs of tape-free truncated BPTT over the packed expert
    /// slab ([`AnalyticTrainer`]), batching gate GEMMs across experts and
    /// sharding expert ranges over the pool. Gradients fold in subsequence
    /// order, so training is bit-identical at any thread count, and every
    /// arena is preallocated — a warm step performs zero allocations.
    ///
    /// Returns the per-epoch mean loss plus the same series split by expert
    /// (keyed by the expert's display name). The test-only autodiff tape in
    /// `oracle.rs` shuffles, batches, folds, clips and steps identically;
    /// its unit tests prove the trained parameters bit-for-bit equal.
    fn train_epochs(
        &mut self,
        xs: &[Vec<f32>],
        targets: &[Vec<f32>],
        epochs: usize,
    ) -> (Vec<f32>, BTreeMap<String, Vec<f32>>) {
        let t = xs.len();
        let len = self.config.subseq_len.max(2);
        let starts: Vec<usize> = (0..t).step_by(len).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9);

        let mut sgd;
        let mut adam;
        enum Opt<'a> {
            S(&'a mut Sgd),
            A(&'a mut Adam),
        }
        let mut opt = match self.config.optimizer {
            OptimizerKind::Sgd { lr, momentum } => {
                sgd = Sgd::new(lr, momentum);
                Opt::S(&mut sgd)
            }
            OptimizerKind::Adam { lr } => {
                adam = Adam::new(lr);
                Opt::A(&mut adam)
            }
        };

        let e_count = self.experts.len();
        let expert_names: Vec<String> = self.experts.iter().map(|e| format!("{}", e.key)).collect();
        let batch_slots = self.config.batch_size.max(1).min(starts.len());
        let (mut trainer, pool) = (self.trainer(len, batch_slots), self.pool());

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
                self.store.zero_grads();
                let stats =
                    trainer.run_batch(&self.slab, &mut self.store, &pool, xs, targets, batch);
                for slot in stats {
                    epoch_loss += slot.loss_sum;
                    epoch_terms += slot.n_terms;
                    for (acc, s) in epoch_expert_sums.iter_mut().zip(slot.expert_sums.iter()) {
                        *acc += s;
                    }
                }
                self.store.clip_grad_norm(self.config.grad_clip);
                match &mut opt {
                    Opt::S(o) => o.step_with(&mut self.store, &pool),
                    Opt::A(o) => o.step_with(&mut self.store, &pool),
                }
                self.slab.repack(&self.store);
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
    /// original scale), and cumulative resources are delta-encoded exactly
    /// as in [`DeepRest::fit`]. Query traces may come from any producer:
    /// `interner` is the table that names them.
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
    ) -> (Vec<f32>, BTreeMap<String, Vec<f32>>) {
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
    /// on `traces`/`metrics`: symbols read through `interner`, cumulative
    /// resources delta-encoded, targets normalized with the scalers fitted
    /// during application learning.
    pub(crate) fn training_inputs(
        &self,
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let xs = self.feature_rows(traces, interner);
        let targets = self
            .experts
            .iter()
            .map(|ex| {
                let series = metrics
                    .get(&ex.key)
                    .unwrap_or_else(|| panic!("fit_incremental: no metric series for {}", ex.key));
                let raw: Vec<f64> = if ex.is_delta {
                    delta_encode(series.values())
                } else {
                    series.values().to_vec()
                };
                raw.iter().map(|&v| ex.scaler.transform(v) as f32).collect()
            })
            .collect();
        (xs, targets)
    }

    /// Mode 2 (§3, Fig. 4): estimates expected utilization for *real* traces
    /// collected from the production environment (the sanity-check input).
    ///
    /// `interner` is the name table the query traces were produced with;
    /// feature extraction reads their symbols through it, so traces from
    /// any producer (or any simulator run) are accepted as they are. Names
    /// never observed during application learning match no path and simply
    /// contribute no features.
    ///
    /// Like every `estimate_*` query this steps a
    /// [`StreamPredictor`] over the windows, so the `stream.*` telemetry and
    /// the `stream.step` / `stream.hidden` fault probes apply. A query is
    /// not a healed serve step: an injected panic unwinds to the caller.
    pub fn estimate_from_traces(&self, traces: &WindowedTraces, interner: &Interner) -> Estimates {
        self.predict(&self.feature_rows(traces, interner))
    }

    /// Mode 1 (§3, Fig. 4): estimates the resources needed to serve
    /// *hypothetical* API traffic. The traffic is first converted to
    /// synthetic traces by the trace synthesizer.
    ///
    /// # Panics
    ///
    /// Panics if the traffic references an endpoint never observed during
    /// application learning.
    pub fn estimate_traffic(&self, traffic: &ApiTraffic, seed: u64) -> Estimates {
        let synthetic = self.synthesizer.synthesize(traffic, &self.interner, seed);
        // Synthetic traces are already in the model's numbering.
        let xs = self.features.extract_all_normalized(&synthetic);
        self.predict(&xs)
    }

    /// What-if continuation of a live stream: estimates the resources the
    /// next `traffic.window_count()` windows would consume *if* they carried
    /// `traffic`, continuing every expert's GRU state from `snap` (a
    /// [`crate::stream::StreamPredictor::snapshot`] of the live serving
    /// stream) instead of cold zero state.
    ///
    /// This is the autoscaler's query primitive: [`estimate_traffic`]
    /// (Mode 1) answers "what would this traffic cost from a standing
    /// start", while this answers "what would it cost *now*, given
    /// everything the live stream has already seen". The snapshot is only
    /// read — forking many hypotheses off one live stream is cheap and
    /// leaves serving untouched. Synthetic trace sampling is seeded by
    /// `seed`, so the same `(snapshot, traffic, seed)` triple reproduces the
    /// estimate bit-identically at any thread count.
    ///
    /// # Errors
    ///
    /// Returns a message when `snap` does not match this model's shape.
    ///
    /// # Panics
    ///
    /// Panics if the traffic references an endpoint never observed during
    /// application learning.
    ///
    /// [`estimate_traffic`]: Self::estimate_traffic
    pub fn estimate_what_if(
        &self,
        snap: &StreamSnapshot,
        traffic: &ApiTraffic,
        seed: u64,
    ) -> Result<Estimates, String> {
        let _span = telemetry::span("estimate.what_if");
        let predictor = StreamPredictor::restore(self, snap)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let api_syms = TraceSynthesizer::resolve_endpoints(traffic, &self.interner);
        let rows = (0..traffic.window_count()).map(|w| {
            let traces = self
                .synthesizer
                .synthesize_window(traffic.window(w), &api_syms, &mut rng);
            self.features.extract_normalized(&traces)
        });
        Ok(self.run_stream(predictor, rows))
    }

    /// [`window_features`](Self::window_features) of every window: the batch
    /// queries and training read traces exactly as serving does.
    fn feature_rows(&self, traces: &WindowedTraces, from: &Interner) -> Vec<Vec<f32>> {
        let windows = traces.windows.iter();
        windows.map(|w| self.window_features(w, from)).collect()
    }

    /// Runs the forward pass (no gradients) over normalized features from
    /// a cold start: a fresh [`StreamPredictor`] stepped over the rows. The
    /// predictor resets its hidden state every `subseq_len.max(2)` windows
    /// — the regime the model was trained under — so batch estimation *is*
    /// streaming from position 0.
    fn predict(&self, xs: &[Vec<f32>]) -> Estimates {
        let _span = telemetry::span("estimate.predict");
        self.run_stream(self.stream_predictor(), xs.iter())
    }

    /// Steps `predictor` once per feature row and collects every expert's
    /// points into its series — the one stepping loop behind all three
    /// `estimate_*` entry points.
    fn run_stream<X: AsRef<[f32]>>(
        &self,
        mut predictor: StreamPredictor<'_>,
        rows: impl ExactSizeIterator<Item = X>,
    ) -> Estimates {
        let t = rows.len();
        let mut series: Vec<[Vec<f64>; 3]> = (0..self.experts.len())
            .map(|_| std::array::from_fn(|_| Vec::with_capacity(t)))
            .collect();
        for x in rows {
            for ([expected, lower, upper], point) in
                series.iter_mut().zip(predictor.step(x.as_ref()))
            {
                expected.push(point.expected);
                lower.push(point.lower);
                upper.push(point.upper);
            }
        }
        let map = self
            .experts
            .iter()
            .zip(series)
            .map(|(expert, [expected, lower, upper])| {
                let predicted = PredictedSeries {
                    expected: TimeSeries::from_values(expected),
                    lower: TimeSeries::from_values(lower),
                    upper: TimeSeries::from_values(upper),
                    is_delta: expert.is_delta,
                };
                (expert.key.clone(), predicted)
            })
            .collect();
        Estimates { map }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &DeepRestConfig {
        &self.config
    }

    /// The feature space (Alg. 1 map).
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.features
    }

    /// The trace synthesizer.
    pub fn synthesizer(&self) -> &TraceSynthesizer {
        &self.synthesizer
    }

    /// The name table used by the model's traces.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Keys of all experts, in training order.
    pub fn expert_keys(&self) -> Vec<ExpertKey> {
        self.experts.iter().map(|e| e.key.clone()).collect()
    }

    /// Whether an expert models its (cumulative) resource as per-window
    /// deltas; see [`PredictedSeries::is_delta`]. `None` for unknown keys.
    pub fn expert_is_delta(&self, key: &ExpertKey) -> Option<bool> {
        self.expert(key).map(|e| e.is_delta)
    }

    /// The learned API-aware mask of one expert, after the sigmoid
    /// (values in `(0, 1)`; Eq. 1 / Fig. 22).
    pub fn mask_weights(&self, key: &ExpertKey) -> Option<Vec<f32>> {
        self.expert(key).map(|e| {
            self.store
                .value(e.mask)
                .data()
                .iter()
                .map(|&m| kernel::sigmoid(m))
                .collect()
        })
    }

    /// The application-independent GRU parameters (`U_*`, `b_*`) of one
    /// expert, flattened.
    pub fn gru_independent_params(&self, key: &ExpertKey) -> Option<Vec<f32>> {
        self.expert(key).map(|e| {
            e.gru
                .application_independent_params()
                .iter()
                .flat_map(|&p| self.store.value(p).data().iter().copied())
                .collect()
        })
    }

    /// The *learned update* of the application-independent GRU parameters
    /// (`θ - θ₀`) — the vectors the Fig. 21 PCA projects. Subtracting the
    /// random initialization isolates what training taught each expert;
    /// experts that learned to remember/forget similarly end up close.
    pub fn gru_learned_update(&self, key: &ExpertKey) -> Option<Vec<f32>> {
        let expert = self.expert(key)?;
        let current = self.gru_independent_params(key)?;
        Some(
            current
                .iter()
                .zip(expert.gru_init.iter())
                .map(|(c, i)| c - i)
                .collect(),
        )
    }

    /// The learned attention weights of one expert over the others
    /// (Eq. 3), as `(source expert, |α|)` pairs; the self entry is omitted.
    pub fn attention_weights(&self, key: &ExpertKey) -> Option<Vec<(ExpertKey, f32)>> {
        let idx = self.experts.iter().position(|e| &e.key == key)?;
        let alpha = self.store.value(self.experts[idx].alpha);
        Some(
            self.experts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(i, e)| (e.key.clone(), alpha.data()[i]))
                .collect(),
        )
    }

    /// Total trainable scalar parameters across all experts.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// All trainable parameters as `(name, values)` pairs in registration
    /// order — lets tests and diagnostics compare two models exactly.
    pub fn parameters(&self) -> Vec<(&str, &[f32])> {
        self.store
            .ids()
            .map(|id| (self.store.name(id), self.store.value(id).data()))
            .collect()
    }

    /// Approximate in-memory model size in bytes (f32 parameters), the §6
    /// "each DeepRest expert has a size of 801.5 kB" accounting.
    pub fn model_size_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f32>()
    }

    /// Serializes the model to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a model from [`DeepRest::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input,
    /// including a feature or name table that cannot be indexed (see
    /// [`FeatureSpace`]'s and [`Interner`]'s `Deserialize`).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    fn expert(&self, key: &ExpertKey) -> Option<&Expert> {
        self.experts.iter().find(|e| &e.key == key)
    }
}

/// The pool a model configured with `config` runs on.
fn pool_of(config: &DeepRestConfig) -> Pool {
    match config.threads {
        Some(n) => Pool::with_threads(n),
        None => Pool::global(),
    }
}

fn delta_encode(values: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len());
    let mut prev = values.first().copied().unwrap_or(0.0);
    for &v in values {
        out.push((v - prev).max(0.0));
        prev = v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_metrics::ResourceKind;
    use deeprest_trace::{SpanNode, Trace};

    /// A miniature "application": one API whose per-window request count
    /// directly drives one component's CPU. The expert must learn the linear
    /// map count → cpu.
    fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
        let mut i = Interner::new();
        let f = i.intern("Frontend");
        let read = i.intern("read");
        let api = i.intern("/read");
        let mut traces = WindowedTraces::with_windows(1.0, windows);
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        for t in 0..windows {
            // Deterministic "two peak" count pattern.
            let count = 3 + ((t % 16) as i32 - 8).unsigned_abs() as usize;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
            }
            cpu.push(2.0 + 1.5 * count as f64);
            mem.push(64.0 + 0.5 * count as f64);
        }
        let mut metrics = MetricsRegistry::new();
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
        (i, traces, metrics)
    }

    /// The first `len` learning windows as one flat update segment
    /// (`TrainSegment`'s `xs`, `targets`).
    fn first_segment(
        model: &DeepRest,
        (i, traces, metrics): &(Interner, WindowedTraces, MetricsRegistry),
        len: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let (xs, targets) = model.training_inputs(traces, metrics, i);
        let targets = targets.iter().flat_map(|t| t[..len].iter().copied());
        (xs[..len].concat(), targets.collect())
    }

    fn quick_config() -> DeepRestConfig {
        DeepRestConfig {
            hidden_dim: 12,
            epochs: 60,
            subseq_len: 16,
            batch_size: 4,
            ..DeepRestConfig::default()
        }
    }

    #[test]
    fn fit_learns_linear_count_to_cpu_map() {
        let (i, traces, metrics) = tiny_dataset(128);
        let (model, report) = DeepRest::fit(&traces, &metrics, &i, quick_config());
        assert_eq!(report.expert_count, 2);
        assert_eq!(report.feature_dim, 1);
        // Loss decreases over training.
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first * 0.6, "loss {first} -> {last}");

        // In-sample estimation is accurate.
        let est = model.estimate_from_traces(&traces, &i);
        let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        let actual = metrics.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        let mape = deeprest_metrics::eval::mape(actual, &pred.expected);
        assert!(mape < 15.0, "in-sample MAPE {mape:.1}%");
    }

    #[test]
    fn interval_is_ordered_and_mostly_covers() {
        let (i, traces, metrics) = tiny_dataset(128);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config());
        let est = model.estimate_from_traces(&traces, &i);
        let p = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        for t in 0..p.expected.len() {
            assert!(p.lower.get(t) <= p.expected.get(t) + 1e-6);
            assert!(p.expected.get(t) <= p.upper.get(t) + 1e-6);
        }
        let actual = metrics.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        let cov = deeprest_metrics::eval::interval_coverage(actual, &p.lower, &p.upper);
        assert!(cov > 0.5, "coverage {cov}");
    }

    #[test]
    fn generalizes_to_double_traffic() {
        let (i, traces, metrics) = tiny_dataset(128);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config());

        // Build a query with twice the request counts.
        let mut query = WindowedTraces::with_windows(1.0, 32);
        let mut expected_cpu = Vec::new();
        for t in 0..32 {
            let mut w = traces.window(t).to_vec();
            w.extend(traces.window(t).to_vec());
            let count = w.len();
            query.windows[t] = w;
            expected_cpu.push(2.0 + 1.5 * count as f64);
        }
        let est = model.estimate_from_traces(&query, &i);
        let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        let actual = TimeSeries::from_values(expected_cpu);
        let mape = deeprest_metrics::eval::mape(&actual, &pred.expected);
        assert!(mape < 30.0, "2x extrapolation MAPE {mape:.1}%");
    }

    #[test]
    fn estimate_traffic_uses_synthesizer() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));
        let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 16]);
        let est = model.estimate_traffic(&traffic, 3);
        let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
        assert_eq!(pred.expected.len(), 16);
        assert!(pred.expected.mean() > 0.0);
    }

    #[test]
    fn what_if_from_cold_snapshot_equals_estimate_traffic() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));
        let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 16]);

        let batch = model.estimate_traffic(&traffic, 3);
        let cold = model.stream_predictor().snapshot();
        let what_if = model.estimate_what_if(&cold, &traffic, 3).unwrap();
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        let (a, b) = (batch.get(&k).unwrap(), what_if.get(&k).unwrap());
        for t in 0..16 {
            assert_eq!(
                a.expected.get(t).to_bits(),
                b.expected.get(t).to_bits(),
                "window {t}"
            );
            assert_eq!(a.lower.get(t).to_bits(), b.lower.get(t).to_bits());
            assert_eq!(a.upper.get(t).to_bits(), b.upper.get(t).to_bits());
        }
    }

    #[test]
    fn what_if_forks_do_not_disturb_the_live_stream() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));

        // Advance a "live" stream a few windows, snapshot it mid-chunk.
        let mut live = model.stream_predictor();
        for w in 0..7 {
            let x = model.window_features(traces.window(w), &i);
            live.step(&x);
        }
        let snap = live.snapshot();

        // Two identical what-if forks are bit-identical; a different
        // hypothesis differs; the live snapshot is unchanged throughout.
        let traffic_hi = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![9.0]; 8]);
        let traffic_lo = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![2.0]; 8]);
        let a = model.estimate_what_if(&snap, &traffic_hi, 11).unwrap();
        let b = model.estimate_what_if(&snap, &traffic_hi, 11).unwrap();
        let c = model.estimate_what_if(&snap, &traffic_lo, 11).unwrap();
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        assert_eq!(
            a.get(&k).unwrap().expected.values(),
            b.get(&k).unwrap().expected.values()
        );
        assert!(a.get(&k).unwrap().expected.mean() > c.get(&k).unwrap().expected.mean());
        assert_eq!(live.snapshot(), snap);

        // What-if answers continue from the live hidden state: they differ
        // from the same query asked from a cold start.
        let cold = model.stream_predictor().snapshot();
        let d = model.estimate_what_if(&cold, &traffic_hi, 11).unwrap();
        assert_ne!(
            a.get(&k).unwrap().expected.values(),
            d.get(&k).unwrap().expected.values()
        );
    }

    #[test]
    fn what_if_rejects_mismatched_snapshot() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(2));
        let bad = crate::stream::StreamSnapshot {
            position: 0,
            hidden: vec![vec![0.0; 5]],
        };
        let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 4]);
        assert!(model.estimate_what_if(&bad, &traffic, 0).is_err());
    }

    #[test]
    fn scope_restricts_experts() {
        let (i, traces, metrics) = tiny_dataset(64);
        let cfg = quick_config()
            .with_epochs(2)
            .with_scope(vec![MetricKey::new("Frontend", ResourceKind::Cpu)]);
        let (model, report) = DeepRest::fit(&traces, &metrics, &i, cfg);
        assert_eq!(report.expert_count, 1);
        let est = model.estimate_from_traces(&traces, &i);
        assert_eq!(est.len(), 1);
        assert!(est.get_parts("Frontend", ResourceKind::Memory).is_none());
    }

    #[test]
    fn fit_is_deterministic() {
        let (i, traces, metrics) = tiny_dataset(64);
        let cfg = quick_config().with_epochs(3);
        let (m1, r1) = DeepRest::fit(&traces, &metrics, &i, cfg.clone());
        let (m2, r2) = DeepRest::fit(&traces, &metrics, &i, cfg);
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        let e1 = m1.estimate_from_traces(&traces, &i);
        let e2 = m2.estimate_from_traces(&traces, &i);
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        assert_eq!(
            e1.get(&k).unwrap().expected.values(),
            e2.get(&k).unwrap().expected.values()
        );
    }

    #[test]
    fn model_survives_json_round_trip() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(3));
        let json = model.to_json().unwrap();
        let back = DeepRest::from_json(&json).unwrap();
        let e1 = model.estimate_from_traces(&traces, &i);
        let e2 = back.estimate_from_traces(&traces, &i);
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        assert_eq!(
            e1.get(&k).unwrap().expected.values(),
            e2.get(&k).unwrap().expected.values()
        );
        assert!(back.parameter_count() > 0);
        assert_eq!(back.to_json().unwrap(), json);

        // The loaded model is complete as it is: the same traces from a
        // producer that numbers the names differently (and knows one more)
        // give the same bits as on the model that was saved.
        let mut other = Interner::new();
        let (ghost, api) = (other.intern("Ghost"), other.intern("/read"));
        let (read, f) = (other.intern("read"), other.intern("Frontend"));
        let mut query = WindowedTraces::with_windows(1.0, 24);
        for t in 0..24 {
            for _ in 0..traces.window(t).len() {
                query.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
            }
            query.windows[t].push(Trace::new(api, SpanNode::leaf(ghost, read)));
            let (x1, x2) = (
                model.window_features(query.window(t), &other),
                back.window_features(query.window(t), &other),
            );
            assert_eq!(x1, model.window_features(traces.window(t), &i));
            assert_eq!(x1[0].to_bits(), x2[0].to_bits());
        }
        let e3 = back.estimate_from_traces(&query, &other);
        for (key, series) in model.estimate_from_traces(&query, &other).iter() {
            let loaded = e3.get(key).unwrap();
            assert_eq!(series.expected.values(), loaded.expected.values());
            assert_eq!(series.lower.values(), loaded.lower.values());
            assert_eq!(series.upper.values(), loaded.upper.values());
        }
    }

    #[test]
    fn from_json_refuses_tables_it_cannot_index() {
        let (i, traces, metrics) = tiny_dataset(16);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
        let json = model.to_json().unwrap();
        for (good, bad, expect) in [
            (r#""paths":[[1]]"#, r#""paths":[[]]"#, "path 0 is empty"),
            (
                r#""paths":[[1]]"#,
                r#""paths":[[1,1]]"#,
                "has no parent path",
            ),
            (
                r#""paths":[[1]]"#,
                r#""paths":[[1],[1]]"#,
                "scale differ in length",
            ),
            (
                r#"["Frontend","read","/read"]"#,
                r#"["read","read","/read"]"#,
                "appears twice",
            ),
        ] {
            assert!(json.contains(good), "{good} not in {json}");
            let err = DeepRest::from_json(&json.replace(good, bad)).expect_err(bad);
            assert!(err.to_string().contains(expect), "{bad}: {err}");
        }
    }

    /// A parameter whose data does not fill its shape, and a store whose
    /// names and values differ in count, are errors out of `from_json`, not
    /// a short read at the pack or an index out of bounds later.
    #[test]
    fn from_json_refuses_parameters_that_do_not_fit() {
        let (i, traces, metrics) = tiny_dataset(16);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
        let json = model.to_json().unwrap();
        let first = model.store.ids().next().unwrap();
        let (rows, cols) = model.store.value(first).shape();
        let last = model.store.name(model.store.ids().last().unwrap());
        for (good, bad, expect) in [
            (
                format!(r#""values":[{{"rows":{rows},"cols":{cols},"#),
                format!(r#""values":[{{"rows":{},"cols":{cols},"#, rows + 1),
                "do not fill shape",
            ),
            (format!(r#","{last}"]"#), "]".to_string(), "values but"),
        ] {
            assert!(json.contains(&good), "{good} not in {json}");
            let err = DeepRest::from_json(&json.replace(&good, &bad)).expect_err(&bad);
            assert!(err.to_string().contains(expect), "{bad}: {err}");
        }
    }

    /// A file from before the store stopped writing gradients carries a
    /// `grads` list beside `values`. It is skipped, so even a list one
    /// short — which the next training step used to index out of bounds —
    /// loads a model that estimates as the file's values do and trains.
    #[test]
    fn from_json_skips_the_gradients_an_older_file_carries() {
        let (i, traces, metrics) = tiny_dataset(16);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
        let json = model.to_json().unwrap();
        assert!(!json.contains(r#""grads""#), "gradients are not written");
        let mut root: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = &mut root else {
            panic!("a model is an object")
        };
        let store = fields.get("store").and_then(serde::Value::as_object);
        let mut older = store.unwrap().clone();
        let values = older.get("values").and_then(serde::Value::as_array);
        let short = values.unwrap()[1..].to_vec();
        older.insert("grads", serde::Value::Array(short));
        fields.insert("store", serde::Value::Object(older));

        let mut loaded = DeepRest::from_json(&serde_json::to_string(&root).unwrap()).unwrap();
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        let (e1, e2) = (
            model.estimate_from_traces(&traces, &i),
            loaded.estimate_from_traces(&traces, &i),
        );
        assert_eq!(
            e1.get(&k).unwrap().expected.values(),
            e2.get(&k).unwrap().expected.values()
        );
        loaded.fit_incremental(&traces, &metrics, &i, 1);
    }

    /// Model JSON is outside input: expert handles the store cannot serve
    /// are an error out of `from_json`, which packs, not a panic.
    #[test]
    fn from_json_refuses_experts_it_cannot_pack() {
        let (i, traces, metrics) = tiny_dataset(16);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
        let corrupt = |damage: &dyn Fn(&mut DeepRest)| {
            let mut broken = model.clone();
            damage(&mut broken);
            let err = DeepRest::from_json(&broken.to_json().unwrap()).expect_err("must refuse");
            err.to_string()
        };
        let err = corrupt(&|m| m.config.hidden_dim += 1);
        assert!(err.contains("the first expert is not shaped"), "{err}");
        let err = corrupt(&|m| m.experts[1].head.w = m.experts[1].head.b);
        assert!(err.contains("expert 1: parameter"), "{err}");
        let err = corrupt(&|m| m.store = ParamStore::new());
        assert!(err.contains("expert 0") && err.contains("None"), "{err}");
        let err = corrupt(&|m| m.experts[0].skip = None);
        assert!(err.contains("skip path must be uniform"), "{err}");
    }

    /// "The pack is θ, always": after everything that writes or copies the
    /// parameters, the model's slab equals a fresh pack of its store, bit
    /// for bit.
    #[test]
    fn the_pack_is_the_parameters_after_every_writer() {
        use crate::adapt::{OnlineUpdater, TrainSegment, UpdateConfig, UpdateError};
        use deeprest_fault::{self as fault, FaultPlan};
        use std::sync::Arc;

        let data = tiny_dataset(64);
        let (i, traces, metrics) = &data;
        let fit = || DeepRest::fit(traces, metrics, i, quick_config().with_epochs(2)).0;
        // One online update over the first segment of the learning data,
        // with `poison` armed or not.
        let update = |poison: bool| {
            let mut model = fit();
            let cfg = UpdateConfig::default();
            let (xs, targets) = first_segment(&model, &data, cfg.segment_len);
            let segments = [TrainSegment {
                xs: &xs,
                targets: &targets,
            }];
            let mut updater = OnlineUpdater::new(&model, cfg);
            let plan = FaultPlan::new(3).once("adapt.update.poison", 0);
            let outcome = match poison {
                true => fault::with_plan(Arc::new(plan), || updater.update(&mut model, &segments)),
                false => updater.update(&mut model, &segments),
            };
            let rolled_back = matches!(outcome, Err(UpdateError::PoisonedRolledBack { .. }));
            assert_eq!(rolled_back, poison, "{outcome:?}");
            model
        };
        let writers: [(&str, &dyn Fn() -> DeepRest); 7] = [
            ("fit", &fit),
            ("fit_transferred", &|| {
                let cfg = quick_config().with_epochs(2).with_seed(5);
                DeepRest::fit_transferred(traces, metrics, i, cfg, &fit()).0
            }),
            ("fit_incremental", &|| {
                let mut model = fit();
                model.fit_incremental(traces, metrics, i, 1);
                model
            }),
            ("update", &|| update(false)),
            ("update rolled back", &|| update(true)),
            ("from_json(to_json)", &|| {
                DeepRest::from_json(&update(false).to_json().unwrap()).unwrap()
            }),
            ("clone", &|| update(false).clone()),
        ];
        let as_fitted = format!("{:?}", fit().slab);
        for (writer, build) in writers {
            let model = build();
            let fresh = ExpertSlab::pack(
                &model.store,
                model.slab.specs(),
                model.config.api_mask,
                model.config.attention,
                model.pool().threads(),
            );
            let packed = format!("{:?}", model.slab);
            assert_eq!(packed, format!("{fresh:?}"), "after {writer}");
            // The writers that train leave other parameters than `fit` did,
            // so an equal pack is not a pack nobody touched.
            let moved = !matches!(writer, "fit" | "update rolled back");
            assert_eq!(packed != as_fitted, moved, "after {writer}");
        }
    }

    /// A stream carried across an online update steps the updated
    /// parameters: it agrees bit for bit with a what-if forked from its
    /// snapshot right after the update — asked of a copy of the model read
    /// back from JSON, whose pack was made from the written parameters and
    /// has seen no update.
    #[test]
    fn state_carried_across_an_update_agrees_with_a_fork_taken_after_it() {
        use crate::adapt::{OnlineUpdater, TrainSegment, UpdateConfig};
        use crate::stream::CarriedState;

        let data = tiny_dataset(64);
        let (i, traces, metrics) = &data;
        let (mut model, _) = DeepRest::fit(traces, metrics, i, quick_config().with_epochs(2));
        let cfg = UpdateConfig::default();
        let (xs, targets) = first_segment(&model, &data, cfg.segment_len);
        let mut carried = CarriedState::new(&model);
        for x in xs.chunks(model.features.dim()) {
            carried.step(&model, x);
        }
        let before = model.to_json().unwrap();
        let segment = TrainSegment {
            xs: &xs,
            targets: &targets,
        };
        OnlineUpdater::new(&model, cfg)
            .update(&mut model, &[segment])
            .expect("update");
        assert_ne!(model.to_json().unwrap(), before, "the update must move θ");

        let (traffic, seed) = (
            ApiTraffic::new(vec!["/read".into()], 8, vec![vec![6.0]; 5]),
            11,
        );
        let reread = DeepRest::from_json(&model.to_json().unwrap()).unwrap();
        let fork = reread
            .estimate_what_if(&carried.snapshot(), &traffic, seed)
            .unwrap();
        // The rows `estimate_what_if` synthesizes, stepped on the carried
        // state itself.
        let mut rng = StdRng::seed_from_u64(seed);
        let apis = TraceSynthesizer::resolve_endpoints(&traffic, &model.interner);
        for w in 0..traffic.window_count() {
            let window = model
                .synthesizer
                .synthesize_window(traffic.window(w), &apis, &mut rng);
            let x = model.features.extract_normalized(&window);
            for (point, key) in carried.step(&model, &x).iter().zip(model.expert_keys()) {
                let forked = fork.get(&key).unwrap();
                assert_eq!(
                    [point.expected, point.lower, point.upper].map(f64::to_bits),
                    [&forked.expected, &forked.lower, &forked.upper].map(|s| s.get(w).to_bits()),
                    "window {w}, {key}"
                );
            }
        }
    }

    #[test]
    fn mask_and_attention_accessors_work() {
        let (i, traces, metrics) = tiny_dataset(64);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(2));
        let k = MetricKey::new("Frontend", ResourceKind::Cpu);
        let mask = model.mask_weights(&k).unwrap();
        assert_eq!(mask.len(), model.feature_space().dim());
        assert!(mask.iter().all(|&w| (0.0..=1.0).contains(&w)));

        let att = model.attention_weights(&k).unwrap();
        assert_eq!(att.len(), 1); // The other expert.
        assert_eq!(att[0].0, MetricKey::new("Frontend", ResourceKind::Memory));

        let gru = model.gru_independent_params(&k).unwrap();
        assert_eq!(gru.len(), 3 * 12 * 12 + 3 * 12);

        assert!(model
            .mask_weights(&MetricKey::new("Ghost", ResourceKind::Cpu))
            .is_none());
    }

    #[test]
    fn delta_encoding_for_cumulative_resources() {
        let (i, traces, mut metrics) = tiny_dataset(64);
        // Add a stateful-style cumulative disk series driven by counts.
        let mut disk = TimeSeries::zeros(0);
        let mut acc = 100.0;
        for t in 0..64 {
            acc += traces.window(t).len() as f64 * 0.1;
            disk.push(acc);
        }
        metrics.insert(
            MetricKey::new("Frontend", ResourceKind::DiskUsage),
            disk.clone(),
        );
        let cfg = quick_config()
            .with_epochs(40)
            .with_scope(vec![MetricKey::new("Frontend", ResourceKind::DiskUsage)]);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
        let est = model.estimate_from_traces(&traces, &i);
        let p = est.get_parts("Frontend", ResourceKind::DiskUsage).unwrap();
        assert!(p.is_delta);
        let integrated = p.integrated(100.0);
        assert!(!integrated.is_delta);
        // Integrated estimate tracks the actual cumulative curve.
        let mape = deeprest_metrics::eval::mape(&disk, &integrated.expected);
        assert!(mape < 10.0, "disk MAPE {mape:.1}%");
        // Monotone by construction.
        assert!(integrated
            .expected
            .values()
            .windows(2)
            .all(|w| w[1] >= w[0]));
    }
}
