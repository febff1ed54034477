//! Application sanity checks (§5.4).
//!
//! Given the *real* API traffic (traces) an application served and the
//! *actual* resource metrics it reported, DeepRest estimates what the
//! utilization *should* have been and scores each window by how far the
//! measurement falls outside the δ-confidence interval. Scores are
//! ensembled across resources and components "to boost the accuracy", and
//! contiguous anomalous ranges become interpretable alerts listing how much
//! each resource deviated — the Fig. 19c event format.
//!
//! There is one scorer, [`OnlineSanity`], and it is causal: each window is
//! normalised by the interval span seen so far (the running maximum upper
//! bound minus the running minimum lower bound) and smoothed by a trailing
//! mean of the last three raw scores. The batch [`check`] feeds whole
//! series through it, window by window, from spans that start at each
//! expert's trained output range ([`OnlineSanity::for_model`]); a live
//! pipeline feeds it as windows seal, from empty spans
//! ([`OnlineSanity::new`]).

use std::collections::BTreeMap;

use deeprest_metrics::eval::anomalous_ranges;
use deeprest_metrics::{increment, MetricKey, MetricsRegistry, TimeSeries};
use deeprest_trace::window::WindowedTraces;
use serde::{Deserialize, Serialize};

use crate::stream::PointEstimate;
use crate::{DeepRest, Estimates};

/// Sanity-check thresholds.
#[derive(Clone, Copy, Debug)]
pub struct SanityConfig {
    /// Overall anomaly-score threshold above which a window is anomalous.
    pub score_threshold: f64,
    /// Minimum run length (windows) for an event (debounces noise).
    pub min_event_windows: usize,
}

impl Default for SanityConfig {
    fn default() -> Self {
        Self {
            score_threshold: 0.01,
            min_event_windows: 3,
        }
    }
}

/// One line of an alert: a resource whose consumption during the event was
/// not justified by the API traffic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Finding {
    /// Component name.
    pub component: String,
    /// Resource type.
    pub resource: deeprest_metrics::ResourceKind,
    /// Percent deviation of the actual mean from the expected mean over the
    /// event (positive: higher than expected).
    pub deviation_pct: f64,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = if self.deviation_pct >= 0.0 {
            "higher"
        } else {
            "lower"
        };
        write!(
            f,
            "{} {}: {:.1}% {} than expected",
            self.component,
            self.resource,
            self.deviation_pct.abs(),
            dir
        )
    }
}

/// An interpretable alert: a contiguous anomalous range and its per-resource
/// findings, sorted most-severe first.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnomalousEvent {
    /// First anomalous window (inclusive).
    pub start_window: usize,
    /// One past the last anomalous window.
    pub end_window: usize,
    /// Peak overall anomaly score inside the range.
    pub peak_score: f64,
    /// Per-resource deviations exceeding the finding threshold.
    pub findings: Vec<Finding>,
}

/// The output of one sanity check.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SanityReport {
    /// Per-resource anomaly-score series (the paper's 1-D heatmaps).
    pub per_resource: BTreeMap<MetricKey, TimeSeries>,
    /// Per-component ensemble scores (mean over the component's resources).
    pub component_scores: BTreeMap<String, TimeSeries>,
    /// Overall ensemble score (mean over all resources).
    pub overall: TimeSeries,
    /// Extracted interpretable alerts.
    pub events: Vec<AnomalousEvent>,
    /// The model's expected-utilization estimates (kept for plotting).
    pub estimates: Estimates,
}

/// Only deviations at least this large (percent, absolute value) are listed
/// as findings in a [`check`] event.
const FINDING_THRESHOLD_PCT: f64 = 15.0;

/// Runs an application sanity check: estimates expected utilization from the
/// real `traces` and feeds each expert's series, window by window, through
/// an [`OnlineSanity::for_model`] scorer against the `actual` metrics.
///
/// # Panics
///
/// Panics if `actual` lacks a series for one of the model's experts or the
/// window counts disagree.
pub fn check(
    model: &DeepRest,
    traces: &WindowedTraces,
    interner: &deeprest_trace::Interner,
    actual: &MetricsRegistry,
    config: &SanityConfig,
) -> SanityReport {
    let estimates = model.estimate_from_traces(traces, interner);
    let mut scorer = OnlineSanity::for_model(*config, model);
    let mut per_resource = BTreeMap::new();
    // The observations as scored, for the findings' means.
    let mut observed: BTreeMap<MetricKey, TimeSeries> = BTreeMap::new();
    for (e, expert) in model.experts.iter().enumerate() {
        let key = &expert.key;
        let pred = &estimates.map[key];
        let series = actual
            .get(key)
            .unwrap_or_else(|| panic!("sanity check: no actual series for {key}"));
        assert_eq!(
            series.len(),
            pred.expected.len(),
            "sanity check: window count mismatch for {key}"
        );
        let (mut score, mut obs) = (TimeSeries::default(), TimeSeries::default());
        for (t, &a) in series.values().iter().enumerate() {
            let point = PointEstimate {
                expected: pred.expected.get(t),
                lower: pred.lower.get(t),
                upper: pred.upper.get(t),
            };
            let out = scorer.observe(e, a, &point, pred.is_delta);
            score.push(out.score);
            obs.push(out.observed);
        }
        per_resource.insert(key.clone(), score);
        observed.insert(key.clone(), obs);
    }

    let windows = traces.len();
    let mut overall = TimeSeries::zeros(windows);
    let mut comp_acc: BTreeMap<String, (TimeSeries, usize)> = BTreeMap::new();
    for (key, score) in &per_resource {
        overall = overall.add(score);
        let entry = comp_acc
            .entry(key.component.clone())
            .or_insert_with(|| (TimeSeries::zeros(windows), 0));
        entry.0 = entry.0.add(score);
        entry.1 += 1;
    }
    let overall = overall.scale(1.0 / per_resource.len().max(1) as f64);
    let component_scores: BTreeMap<String, TimeSeries> = comp_acc
        .into_iter()
        .map(|(c, (sum, n))| (c, sum.scale(1.0 / n.max(1) as f64)))
        .collect();

    let events = anomalous_ranges(&overall, config.score_threshold, config.min_event_windows)
        .into_iter()
        .map(|range| {
            let mut findings: Vec<Finding> = observed
                .iter()
                .filter_map(|(key, obs)| {
                    let exp = &estimates.map[key].expected;
                    let obs_mean = obs.slice(range.start..range.end).mean();
                    let exp_mean = exp.slice(range.start..range.end).mean();
                    if exp_mean.abs() < 1e-9 {
                        return None;
                    }
                    let pct = 100.0 * (obs_mean - exp_mean) / exp_mean;
                    (pct.abs() >= FINDING_THRESHOLD_PCT).then(|| Finding {
                        component: key.component.clone(),
                        resource: key.resource,
                        deviation_pct: pct,
                    })
                })
                .collect();
            findings.sort_by(|a, b| {
                b.deviation_pct
                    .abs()
                    .partial_cmp(&a.deviation_pct.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let peak = overall.slice(range.start..range.end).max();
            AnomalousEvent {
                start_window: range.start,
                end_window: range.end,
                peak_score: peak,
                findings,
            }
        })
        .collect();

    SanityReport {
        per_resource,
        component_scores,
        overall,
        events,
        estimates,
    }
}

/// How many trailing raw scores the scorer's smoother averages.
const SMOOTH_WINDOW: usize = 3;

/// Per-resource causal scoring state; serializable for checkpointing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct KeyState {
    /// Previous raw observation (cumulative resources are scored on
    /// per-window increments; the first increment is zero).
    prev_actual: Option<f64>,
    /// Running maximum of the predicted upper bound.
    max_upper: Option<f64>,
    /// Running minimum of the predicted lower bound.
    min_lower: Option<f64>,
    /// Last `SMOOTH_WINDOW` raw scores, oldest first.
    recent: Vec<f64>,
    /// Consecutive windows with smoothed score above threshold.
    streak: usize,
}

/// Serializable snapshot of an [`OnlineSanity`] scorer (one entry per
/// expert, in model expert order).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SanityState {
    keys: Vec<KeyState>,
}

/// One window's scoring outcome for one resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreOutcome {
    /// Smoothed anomaly score (trailing mean of squared normalized
    /// interval deviations).
    pub score: f64,
    /// Whether the score has been above threshold for at least the
    /// configured minimum run length — the "fire an alert now" signal.
    pub alerting: bool,
    /// Percent deviation of [`observed`](Self::observed) from the
    /// expected value in this window; `0.0` when the expected value is
    /// numerically zero.
    pub deviation_pct: f64,
    /// The observation in the expert's output space, as it was scored: the
    /// per-window increment ([`deeprest_metrics::increment`]) of a
    /// cumulative resource, the raw value otherwise.
    pub observed: f64,
}

/// The causal per-resource anomaly scorer: the one sanity score, used by
/// [`check`] over whole series and by a live pipeline window by window.
#[derive(Clone, Debug)]
pub struct OnlineSanity {
    config: SanityConfig,
    state: SanityState,
}

impl OnlineSanity {
    /// Creates a scorer for `expert_count` resources whose running spans
    /// start empty: at window 0 an expert's scale is that window's
    /// interval width.
    pub fn new(config: SanityConfig, expert_count: usize) -> Self {
        Self::with_start_spans(config, vec![None; expert_count])
    }

    /// Creates a scorer for `model`'s experts whose running spans start at
    /// each expert's trained output range (the scaler fitted on the
    /// learning data, in the space the expert scores in), so the first
    /// windows are normalised like the rest.
    pub fn for_model(config: SanityConfig, model: &DeepRest) -> Self {
        Self::with_start_spans(
            config,
            model
                .experts
                .iter()
                .map(|e| Some(e.scaler.range()))
                .collect(),
        )
    }

    fn with_start_spans(config: SanityConfig, spans: Vec<Option<(f64, f64)>>) -> Self {
        let keys = spans
            .into_iter()
            .map(|span| KeyState {
                min_lower: span.map(|(lo, _)| lo),
                max_upper: span.map(|(_, hi)| hi),
                ..KeyState::default()
            })
            .collect();
        Self {
            config,
            state: SanityState { keys },
        }
    }

    /// Scores one resource's window: `actual` is the raw observed value,
    /// `point` the streaming estimate, `is_delta` whether the resource is
    /// cumulative (scored on increments).
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range.
    pub fn observe(
        &mut self,
        expert: usize,
        actual: f64,
        point: &PointEstimate,
        is_delta: bool,
    ) -> ScoreOutcome {
        let st = &mut self.state.keys[expert];

        // Cumulative resources: compare per-window increments, where
        // anomalies show up without integration drift.
        let a = if is_delta {
            increment(&mut st.prev_actual, actual)
        } else {
            actual
        };

        // Causal normalization scale: the interval span observed so far.
        let max_upper = st.max_upper.map_or(point.upper, |m| m.max(point.upper));
        st.max_upper = Some(max_upper);
        let min_lower = st.min_lower.map_or(point.lower, |m| m.min(point.lower));
        st.min_lower = Some(min_lower);
        let scale = (max_upper - min_lower).abs().max(1e-9);

        // Inside the interval the score is zero; outside it is the squared
        // distance to the nearest edge, normalised by the span so scores
        // compare across resources (the paper's L2 distance, Fig. 19b).
        let d = if a < point.lower {
            (point.lower - a) / scale
        } else if a > point.upper {
            (a - point.upper) / scale
        } else {
            0.0
        };
        let raw = d * d;

        // Smooth before alerting: real anomalies persist over several
        // windows, while single-window spikes are measurement noise.
        st.recent.push(raw);
        if st.recent.len() > SMOOTH_WINDOW {
            st.recent.remove(0);
        }
        let score = st.recent.iter().sum::<f64>() / st.recent.len() as f64;

        if score > self.config.score_threshold {
            st.streak += 1;
        } else {
            st.streak = 0;
        }
        let alerting = st.streak >= self.config.min_event_windows.max(1);

        let deviation_pct = if point.expected.abs() < 1e-9 {
            0.0
        } else {
            100.0 * (a - point.expected) / point.expected
        };

        ScoreOutcome {
            score,
            alerting,
            deviation_pct,
            observed: a,
        }
    }

    /// The scorer's serializable state (for checkpoints).
    pub fn state(&self) -> &SanityState {
        &self.state
    }

    /// Rebuilds a scorer from a checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state's resource count disagrees with
    /// `expert_count`.
    pub fn restore(
        config: SanityConfig,
        state: SanityState,
        expert_count: usize,
    ) -> Result<Self, String> {
        if state.keys.len() != expert_count {
            return Err(format!(
                "sanity state covers {} resources, model has {expert_count} experts",
                state.keys.len()
            ));
        }
        Ok(Self { config, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_reasonable() {
        let c = SanityConfig::default();
        assert!(c.score_threshold > 0.0);
        assert!(c.min_event_windows >= 1);
    }

    #[test]
    fn finding_display_format() {
        let f = Finding {
            component: "PostStorageMongoDB".into(),
            resource: deeprest_metrics::ResourceKind::WriteThroughput,
            deviation_pct: 210.2,
        };
        assert_eq!(
            f.to_string(),
            "PostStorageMongoDB write_throughput: 210.2% higher than expected"
        );
        let f = Finding {
            component: "FrontendNGINX".into(),
            resource: deeprest_metrics::ResourceKind::Cpu,
            deviation_pct: -21.1,
        };
        assert_eq!(
            f.to_string(),
            "FrontendNGINX cpu: 21.1% lower than expected"
        );
    }

    fn point(lower: f64, expected: f64, upper: f64) -> PointEstimate {
        PointEstimate {
            expected,
            lower,
            upper,
        }
    }

    fn config() -> SanityConfig {
        SanityConfig {
            score_threshold: 0.01,
            min_event_windows: 2,
        }
    }

    #[test]
    fn in_interval_observations_never_alert() {
        let mut s = OnlineSanity::new(config(), 1);
        for _ in 0..50 {
            let out = s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
            assert_eq!(out.score, 0.0);
            assert!(!out.alerting);
        }
    }

    #[test]
    fn sustained_excursions_alert_after_min_run() {
        let mut s = OnlineSanity::new(config(), 1);
        // Establish the scale with a few normal windows.
        for _ in 0..5 {
            s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
        }
        let o1 = s.observe(0, 12.0, &point(4.0, 5.0, 6.0), false);
        assert!(!o1.alerting, "one window must not alert (min run 2)");
        let o2 = s.observe(0, 12.0, &point(4.0, 5.0, 6.0), false);
        assert!(o2.alerting);
        assert!(o2.score > config().score_threshold);
        assert!(o2.deviation_pct > 100.0);
        // Recovery clears the streak (smoothing tail may keep the score up
        // briefly, so give it the full smoother length).
        let mut last = o2;
        for _ in 0..SMOOTH_WINDOW + 1 {
            last = s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
        }
        assert!(!last.alerting);
    }

    #[test]
    fn delta_resources_score_increments() {
        let mut s = OnlineSanity::new(config(), 1);
        // Cumulative counter growing by 1.0/window, predicted increment
        // 1.0. The first increment is zero by definition (below the band);
        // from there on the increments sit inside the interval and the
        // smoothed score decays back to zero.
        let mut acc = 100.0;
        let mut last = 1.0;
        for _ in 0..10 {
            acc += 1.0;
            last = s.observe(0, acc, &point(0.5, 1.0, 1.5), true).score;
        }
        assert_eq!(last, 0.0);
        // A 50-unit jump in one window is far outside the increment band.
        acc += 50.0;
        let out = s.observe(0, acc, &point(0.5, 1.0, 1.5), true);
        assert!(out.score > 0.0);
    }

    #[test]
    fn state_round_trips_and_validates() {
        let mut s = OnlineSanity::new(config(), 2);
        s.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        s.observe(1, 5.0, &point(4.0, 5.0, 6.0), false);
        let json = serde_json::to_string(s.state()).unwrap();
        let state: SanityState = serde_json::from_str(&json).unwrap();
        assert_eq!(&state, s.state());

        let mut restored = OnlineSanity::restore(config(), state, 2).unwrap();
        // Same next observation produces the same outcome.
        let a = s.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        let b = restored.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        assert_eq!(a, b);

        assert!(OnlineSanity::restore(config(), SanityState::default(), 2).is_err());
    }

    #[test]
    fn the_start_span_normalises_the_first_window() {
        // 0.2 above a (4.9, 5.1) interval at window 0: from the trained
        // range (0, 10) the scale is 10, from an empty span it is 0.2.
        let excess = 5.3 - 5.1;
        let seeded = OnlineSanity::with_start_spans(config(), vec![Some((0.0, 10.0))]).observe(
            0,
            5.3,
            &point(4.9, 5.0, 5.1),
            false,
        );
        assert_eq!(seeded.score, (excess / 10.0) * (excess / 10.0));
        let unseeded = OnlineSanity::new(config(), 1).observe(0, 5.3, &point(4.9, 5.0, 5.1), false);
        let width = 5.1 - 4.9;
        assert_eq!(unseeded.score, (excess / width) * (excess / width));
    }

    #[test]
    fn the_scorer_state_json_is_pinned() {
        // Checkpoints carry this JSON, so its bytes are a format: older
        // checkpoints must keep loading and resuming bit for bit.
        let mut s = OnlineSanity::new(config(), 1);
        assert_eq!(
            serde_json::to_string(s.state()).unwrap(),
            r#"{"keys":[{"prev_actual":null,"max_upper":null,"min_lower":null,"recent":[],"streak":0}]}"#
        );
        // A first increment of zero, 4.0 under a span-2.0 interval: (4/2)².
        s.observe(0, 9.0, &point(4.0, 5.0, 6.0), true);
        assert_eq!(
            serde_json::to_string(s.state()).unwrap(),
            r#"{"keys":[{"prev_actual":9.0,"max_upper":6.0,"min_lower":4.0,"recent":[4.0],"streak":1}]}"#
        );
    }
}
