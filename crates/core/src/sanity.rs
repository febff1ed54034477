//! Application sanity checks (§5.4).
//!
//! Given the *real* API traffic (traces) an application served and the
//! *actual* resource metrics it reported, DeepRest estimates what the
//! utilization *should* have been and scores each window by how far the
//! measurement falls outside the δ-confidence interval. Scores are
//! ensembled across resources and components "to boost the accuracy", and
//! contiguous anomalous ranges become interpretable alerts listing how much
//! each resource deviated — the Fig. 19c event format.

use std::collections::BTreeMap;

use deeprest_metrics::eval::{anomalous_ranges, interval_deviation};
use deeprest_metrics::{increments, MetricKey, MetricsRegistry, TimeSeries};
use deeprest_trace::window::WindowedTraces;
use serde::{Deserialize, Serialize};

use crate::{DeepRest, Estimates};

/// Sanity-check thresholds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SanityConfig {
    /// Overall anomaly-score threshold above which a window is anomalous.
    pub score_threshold: f64,
    /// Minimum run length (windows) for an event (debounces noise).
    pub min_event_windows: usize,
    /// Only deviations at least this large (percent, absolute value) are
    /// listed as findings in an alert.
    pub finding_threshold_pct: f64,
}

impl Default for SanityConfig {
    fn default() -> Self {
        Self {
            score_threshold: 0.01,
            min_event_windows: 3,
            finding_threshold_pct: 15.0,
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

/// Runs an application sanity check: estimates expected utilization from the
/// real `traces` and compares against the `actual` metrics.
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
    let mut per_resource = BTreeMap::new();
    let mut comp_acc: BTreeMap<String, (TimeSeries, usize)> = BTreeMap::new();
    let mut overall_acc: Option<TimeSeries> = None;
    let mut resource_count = 0usize;

    // For the findings we also need actual/expected means per event window.
    let mut actual_eval: BTreeMap<MetricKey, TimeSeries> = BTreeMap::new();
    let mut expected_eval: BTreeMap<MetricKey, TimeSeries> = BTreeMap::new();

    for (key, pred) in estimates.iter() {
        let series = actual
            .get(key)
            .unwrap_or_else(|| panic!("sanity check: no actual series for {key}"));
        assert_eq!(
            series.len(),
            pred.expected.len(),
            "sanity check: window count mismatch for {key}"
        );
        // Cumulative resources are compared on per-window increments, where
        // anomalies show up without integration drift.
        let observed: TimeSeries = if pred.is_delta {
            TimeSeries::from_values(increments(series.values()))
        } else {
            series.clone()
        };
        let dev = interval_deviation(&observed, &pred.lower, &pred.upper);

        merge(&mut overall_acc, &dev);
        let entry = comp_acc
            .entry(key.component.clone())
            .or_insert_with(|| (TimeSeries::zeros(dev.len()), 0));
        entry.0 = entry.0.add(&dev);
        entry.1 += 1;
        resource_count += 1;

        actual_eval.insert(key.clone(), observed);
        expected_eval.insert(key.clone(), pred.expected.clone());
        per_resource.insert(key.clone(), dev);
    }

    let overall = overall_acc
        .map(|s| s.scale(1.0 / resource_count.max(1) as f64))
        .unwrap_or_default();
    let component_scores: BTreeMap<String, TimeSeries> = comp_acc
        .into_iter()
        .map(|(c, (sum, n))| (c, sum.scale(1.0 / n.max(1) as f64)))
        .collect();

    // Smooth before extracting events: real anomalies persist over several
    // windows, while single-window spikes are measurement noise.
    let smoothed = overall.moving_average(3);
    let events = anomalous_ranges(&smoothed, config.score_threshold, config.min_event_windows)
        .into_iter()
        .map(|range| {
            let mut findings: Vec<Finding> = actual_eval
                .iter()
                .filter_map(|(key, obs)| {
                    let exp = &expected_eval[key];
                    let obs_mean = obs.slice(range.start..range.end).mean();
                    let exp_mean = exp.slice(range.start..range.end).mean();
                    if exp_mean.abs() < 1e-9 {
                        return None;
                    }
                    let pct = 100.0 * (obs_mean - exp_mean) / exp_mean;
                    (pct.abs() >= config.finding_threshold_pct).then(|| Finding {
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
            let peak = overall
                .slice(range.start..range.end)
                .values()
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
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

fn merge(acc: &mut Option<TimeSeries>, dev: &TimeSeries) {
    match acc {
        Some(s) => *s = s.add(dev),
        None => *acc = Some(dev.clone()),
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
}
