//! The golden gradual-drift scenario: the workload's traffic pattern never
//! changes, but the resource cost per request slowly drifts away from what
//! the model was trained on. The frozen model's intervals go stale — its
//! coverage collapses and the sanity check false-alerts on healthy traffic
//! — while the adaptive pipeline detects the drift, recalibrates its
//! intervals and folds the new regime into the model: coverage stays
//! within ±5 points of the nominal δ with **zero** false alerts.
//!
//! The scenario summary is pinned as a golden fixture; regenerate with
//!
//! ```text
//! DEEPREST_UPDATE_GOLDEN=1 cargo test -p deeprest-adapt --test golden_drift
//! ```

mod common;

use std::fs;
use std::path::PathBuf;

use common::{adapt_config, clone_model, dataset_with_drift, run_adaptive, stream_of};
use deeprest_adapt::AdaptConfig;
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::eval::interval_calibration;
use deeprest_metrics::TimeSeries;
use deeprest_serve::WindowOutput;
use serde::{Deserialize, Serialize};

/// Serving windows of the drift stream.
const WINDOWS: usize = 192;
/// Window where the per-request resource cost starts drifting.
const DRIFT_START: usize = 48;
/// Windows over which the drift ramps to full strength.
const DRIFT_RAMP: usize = 64;
/// Full-strength drift: +50% CPU cost per request (+25% memory).
const DRIFT: f64 = 0.5;
/// Coverage is scored after the calibrator has seen one full ring so the
/// cold-start windows (identical for both pipelines) don't mask the gap.
const SCORE_FROM: usize = 32;

/// Fixed-point coverage (1e-4 points) so the golden fixture compares
/// exactly without trusting float round-tripping through JSON.
fn fixed(coverage: f64) -> i64 {
    (coverage * 10_000.0).round() as i64
}

/// One pipeline's scenario summary, fixture-comparable.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct RunSummary {
    alerts: usize,
    /// Pooled empirical coverage over both experts, in 1e-4 points.
    coverage_fp: i64,
    /// Per-expert coverage, in 1e-4 points.
    per_expert_fp: Vec<i64>,
    updates_run: u64,
    updates_failed: u64,
    drift_watch_fired: bool,
}

/// The golden drift-scenario fixture.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenDrift {
    nominal_fp: i64,
    frozen: RunSummary,
    adaptive: RunSummary,
}

/// Empirical δ-interval coverage of `outputs` against the observed series,
/// pooled and per expert, over windows `from..`. Cumulative resources are
/// estimated as per-window increments, so their observations are
/// delta-encoded before comparison (first increment zero) — the same
/// output-space encoding the sanity scorer and the calibrator use.
fn coverage(
    outputs: &[WindowOutput],
    metrics: &deeprest_metrics::MetricsRegistry,
    keys: &[deeprest_core::ExpertKey],
    is_delta: &[bool],
    nominal: f64,
    from: usize,
) -> (f64, Vec<f64>) {
    let mut pooled = (
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
    );
    let mut per_expert = Vec::new();
    for (e, key) in keys.iter().enumerate() {
        let series = metrics.get(key).expect("observed series");
        let in_space = |w: usize| {
            let v = series.get(w);
            if is_delta[e] {
                if w == 0 {
                    0.0
                } else {
                    (v - series.get(w - 1)).max(0.0)
                }
            } else {
                v
            }
        };
        let mut actual = TimeSeries::zeros(0);
        let mut lower = TimeSeries::zeros(0);
        let mut upper = TimeSeries::zeros(0);
        for out in outputs.iter().filter(|o| o.window >= from) {
            let est = &out.estimates[e];
            if !est.lower.is_finite() || !est.upper.is_finite() {
                continue;
            }
            actual.push(in_space(out.window));
            lower.push(est.lower);
            upper.push(est.upper);
            pooled.0.push(in_space(out.window));
            pooled.1.push(est.lower);
            pooled.2.push(est.upper);
        }
        per_expert.push(interval_calibration(&actual, &lower, &upper, nominal).coverage);
    }
    let overall = interval_calibration(&pooled.0, &pooled.1, &pooled.2, nominal).coverage;
    (overall, per_expert)
}

fn summarize(
    pipeline: &deeprest_adapt::AdaptivePipeline,
    outputs: &[WindowOutput],
    metrics: &deeprest_metrics::MetricsRegistry,
    nominal: f64,
) -> RunSummary {
    let is_delta: Vec<bool> = pipeline
        .keys()
        .iter()
        .map(|k| pipeline.model().expert_is_delta(k).unwrap_or(false))
        .collect();
    let (overall, per_expert) = coverage(
        outputs,
        metrics,
        pipeline.keys(),
        &is_delta,
        nominal,
        SCORE_FROM,
    );
    RunSummary {
        alerts: outputs.iter().map(|o| o.alerts.len()).sum(),
        coverage_fp: fixed(overall),
        per_expert_fp: per_expert.iter().map(|&c| fixed(c)).collect(),
        updates_run: pipeline.updates_run(),
        updates_failed: pipeline.updates_failed(),
        drift_watch_fired: pipeline.drift_watching().iter().any(|&w| w),
    }
}

/// The scenario's pipeline configuration: defaults, except events must
/// outlast one full smoothing window (`SMOOTH_WINDOW = 3`) plus one — an
/// isolated load-peak miss keeps the smoothed score elevated for exactly
/// three windows, so a 3-window event rule alerts on every rare peak while
/// a 4-window rule only fires on *sustained* miscalibration, which is the
/// drift signature this scenario discriminates on.
fn scenario_config() -> AdaptConfig {
    let mut config = adapt_config();
    config.serve.sanity.min_event_windows = 4;
    config
}

#[test]
fn gradual_drift_frozen_degrades_adaptive_stays_calibrated() {
    // Train on the stable regime only — long enough (30 epochs) for the
    // quantile heads to spread into genuinely calibrated intervals; the
    // quick 3-epoch fixture underfits and both pipelines would just be
    // uniformly miscalibrated.
    let (interner, clean_traces, clean_metrics) = dataset_with_drift(64, 64, 1, 0.0);
    let train = DeepRestConfig {
        hidden_dim: 12,
        epochs: 30,
        subseq_len: 16,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
    .with_seed(7);
    let (model, _) = DeepRest::fit(&clean_traces, &clean_metrics, &interner, train);
    let nominal = f64::from(model.config().delta);

    // Serve the long drifting stream (same traffic, drifting costs).
    let (_, drift_traces, drift_metrics) =
        dataset_with_drift(WINDOWS, DRIFT_START, DRIFT_RAMP, DRIFT);
    let stream = stream_of(&drift_traces);

    let (frozen_pipe, frozen_out) = run_adaptive(
        clone_model(&model),
        &interner,
        &drift_metrics,
        &stream,
        scenario_config().frozen(),
    );
    let (adaptive_pipe, adaptive_out) = run_adaptive(
        clone_model(&model),
        &interner,
        &drift_metrics,
        &stream,
        scenario_config(),
    );

    let frozen = summarize(&frozen_pipe, &frozen_out, &drift_metrics, nominal);
    let adaptive = summarize(&adaptive_pipe, &adaptive_out, &drift_metrics, nominal);
    let got = GoldenDrift {
        nominal_fp: fixed(nominal),
        frozen,
        adaptive,
    };

    // The headline acceptance contract, independent of the pinned fixture.
    assert!(
        got.frozen.alerts > 0,
        "the frozen model must false-alert on healthy drifted traffic: {got:?}"
    );
    assert_eq!(
        got.adaptive.alerts, 0,
        "the adaptive model must not alert on healthy traffic: {got:?}"
    );
    let gap = (got.adaptive.coverage_fp - got.nominal_fp).abs();
    assert!(
        gap <= 500,
        "adaptive coverage must stay within ±5 points of nominal, gap {} points: {got:?}",
        gap as f64 / 100.0
    );
    let frozen_gap = (got.frozen.coverage_fp - got.nominal_fp).abs();
    assert!(
        frozen_gap > gap,
        "the frozen model must be measurably worse calibrated: {got:?}"
    );
    assert!(
        got.adaptive.updates_run >= 4,
        "the drift stream must drive repeated updates: {got:?}"
    );
    assert!(
        got.adaptive.drift_watch_fired || got.adaptive.coverage_fp >= got.nominal_fp - 500,
        "either the drift watch fired or calibration alone held coverage: {got:?}"
    );

    // Pin the whole summary: any bit drift in the trajectory shows up here
    // (CI's smoke command table re-runs this at 1, 2 and 4 worker threads).
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_drift.json");
    if std::env::var_os("DEEPREST_UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&got).expect("serialize golden drift");
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        fs::write(&path, json + "\n").expect("write golden fixture");
        return;
    }
    let raw = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             DEEPREST_UPDATE_GOLDEN=1 cargo test -p deeprest-adapt --test golden_drift",
            path.display()
        )
    });
    let want: GoldenDrift = serde_json::from_str(&raw).expect("parse golden fixture");
    assert_eq!(got, want, "drift-scenario trajectory diverged from golden");
}
