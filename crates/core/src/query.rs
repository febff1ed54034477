//! The three estimation queries (§3, Fig. 4) and what they return.
//!
//! Every `estimate_*` steps a [`StreamPredictor`] over its feature rows
//! through one loop, [`DeepRest::run_stream`]: batch estimation *is*
//! streaming from a given hidden state.

use std::collections::BTreeMap;

use deeprest_metrics::{MetricKey, TimeSeries};
use deeprest_telemetry as telemetry;
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::Interner;
use deeprest_workload::ApiTraffic;
use serde::{Deserialize, Serialize};

use crate::stream::{StreamPredictor, StreamSnapshot};
use crate::{DeepRest, ExpertKey};

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

impl DeepRest {
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
    /// *hypothetical* API traffic. The trace synthesizer draws the traffic's
    /// requests, and each window's features are the drawn trees' counts.
    ///
    /// # Panics
    ///
    /// Panics if the traffic references an endpoint never observed during
    /// application learning.
    pub fn estimate_traffic(&self, traffic: &ApiTraffic, seed: u64) -> Estimates {
        self.predict(&self.synthesized_rows(traffic, seed))
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
    /// leaves serving untouched. Synthetic request sampling is seeded by
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
        let rows = self.synthesized_rows(traffic, seed);
        Ok(self.run_stream(predictor, rows.iter()))
    }

    /// The normalized feature rows of hypothetical traffic: the synthesizer's
    /// draws for `seed`, added up from the model's count table (see
    /// `synthesizer.rs`), so no synthetic trace is built.
    fn synthesized_rows(&self, traffic: &ApiTraffic, seed: u64) -> Vec<Vec<f32>> {
        let _span = telemetry::span("estimate.synthesize");
        let rows = self
            .synthesizer
            .count_rows(&self.counts, traffic, &self.interner, seed);
        rows.into_iter()
            .map(|x| self.features.normalize(x))
            .collect()
    }

    /// [`window_features`](Self::window_features) of every window: the batch
    /// queries and training read traces exactly as serving does.
    pub(crate) fn feature_rows(&self, traces: &WindowedTraces, from: &Interner) -> Vec<Vec<f32>> {
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
}
