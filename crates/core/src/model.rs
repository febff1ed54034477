//! The API-aware deep resource estimator (§4.2-4.3): what a trained model
//! is made of.
//!
//! One DNN expert per `(component, resource)` pair. Each expert applies a
//! learnable sigmoid mask over the invocation-path features (Eq. 1), runs a
//! GRU over time (Eq. 2), attends over the *other* experts' hidden states
//! with trainable scalar weights (Eq. 3), and emits `(expected, lower,
//! upper)` through a fully connected head (Eq. 4). All experts train
//! jointly with the quantile-regression objective of Eq. 6 (`train.rs`);
//! the queries step the model's one forward (`query.rs`, `stream.rs`).
//!
//! This module holds the [`DeepRest`] type itself: [`DeepRest::assemble`],
//! the one place a model comes into being, its JSON form and its
//! accessors.

use deeprest_metrics::{MetricKey, MinMaxScaler};
use deeprest_nn::{ExpertSlab, ExpertSpec, GruCell, Linear};
use deeprest_tensor::{kernel, ParamId, ParamStore, Pool};
use deeprest_trace::Interner;
use serde::{Deserialize, Serialize};

use crate::synthesizer::CountTable;
use crate::{DeepRestConfig, FeatureSpace, TraceSynthesizer};

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
    pub(crate) gru_init: Vec<f32>,
    /// Target normalization fitted on learning data.
    pub(crate) scaler: MinMaxScaler,
    /// Cumulative resources (disk usage) are modeled as per-window
    /// increments ([`deeprest_metrics::increments`]).
    pub(crate) is_delta: bool,
}

/// The trained DeepRest model: feature space, trace synthesizer and the
/// expert swarm with its shared parameter store.
#[derive(Clone, Debug, Serialize)]
pub struct DeepRest {
    pub(crate) config: DeepRestConfig,
    pub(crate) features: FeatureSpace,
    pub(crate) synthesizer: TraceSynthesizer,
    pub(crate) interner: Interner,
    pub(crate) experts: Vec<Expert>,
    pub(crate) store: ParamStore,
    /// The one packed copy of `store`'s values, sharded for
    /// [`pool`](Self::pool): what every predictor, what-if fork and trainer
    /// of this model steps. Derived, so it is never written out; it is
    /// packed where the model is put together and repacked wherever `store`
    /// is written (`train_batch`, and `OnlineUpdater::update`'s rollback),
    /// so it always is the parameters.
    #[serde(skip)]
    pub(crate) slab: ExpertSlab,
    /// Every learned tree's feature counts, which the estimation queries
    /// add up instead of counting synthetic traces. Derived from
    /// `synthesizer` and `features`, which nothing writes after assembly,
    /// so it is never written out.
    #[serde(skip)]
    pub(crate) counts: CountTable,
}

/// What a [`DeepRest`] is made of and written out as: everything but the
/// pack.
#[derive(Deserialize)]
pub(crate) struct ModelParts {
    pub(crate) config: DeepRestConfig,
    pub(crate) features: FeatureSpace,
    pub(crate) synthesizer: TraceSynthesizer,
    pub(crate) interner: Interner,
    pub(crate) experts: Vec<Expert>,
    pub(crate) store: ParamStore,
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
    /// Puts a model together from its parts — fitted or read back — packs
    /// its slab and counts its synthesizer's trees: the one place a model
    /// comes into being, so a model that exists has both.
    ///
    /// # Errors
    ///
    /// Returns [`ExpertSlab::try_pack`]'s message when the experts' handles
    /// do not fit the store (parts read from a file can disagree), and
    /// [`TraceSynthesizer::count_table`]'s when the synthesizer cannot be
    /// drawn from.
    pub(crate) fn assemble(parts: ModelParts) -> Result<Self, String> {
        let counts = parts
            .synthesizer
            .count_table(&parts.features, &parts.interner)?;
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
            counts,
        })
    }

    /// The worker pool this model fans training and prediction out over:
    /// [`DeepRestConfig::threads`] when set, the process-wide pool otherwise.
    pub(crate) fn pool(&self) -> Pool {
        pool_of(&self.config)
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

    /// Number of experts in the swarm.
    pub fn expert_count(&self) -> usize {
        self.experts.len()
    }

    /// Whether an expert models its (cumulative) resource as per-window
    /// increments; see [`PredictedSeries::is_delta`](crate::PredictedSeries::is_delta).
    /// `None` for unknown keys.
    pub fn expert_is_delta(&self, key: &ExpertKey) -> Option<bool> {
        self.expert(key).map(|e| e.is_delta)
    }

    /// The learned API-aware mask of one expert, after the sigmoid
    /// (values in `(0, 1)`; Eq. 1 / Fig. 22).
    pub(crate) fn mask_weights(&self, key: &ExpertKey) -> Option<Vec<f32>> {
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
    pub(crate) fn gru_independent_params(&self, key: &ExpertKey) -> Option<Vec<f32>> {
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
    pub(crate) fn gru_learned_update(&self, key: &ExpertKey) -> Option<Vec<f32>> {
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

    /// Total trainable scalar parameters across all experts.
    pub(crate) fn parameter_count(&self) -> usize {
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
    /// [`FeatureSpace`]'s and [`Interner`]'s `Deserialize`) and a
    /// synthesizer that cannot be drawn from (an empty API distribution,
    /// tree counts that do not sum to their total, or a malformed tree key).
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

#[cfg(test)]
impl DeepRest {
    /// A pack made afresh from the store as it is now: what the model's
    /// slab must equal after every writer of the parameters.
    pub(crate) fn fresh_pack(&self) -> ExpertSlab {
        let config = &self.config;
        let threads = self.pool().threads();
        ExpertSlab::pack(
            &self.store,
            self.slab.specs(),
            config.api_mask,
            config.attention,
            threads,
        )
    }
}
