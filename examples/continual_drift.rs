//! Online continual learning under concept drift (§10 of DESIGN.md).
//!
//! The traffic stays healthy — the same periodic request load all day —
//! but the resource cost *per request* slowly drifts away from the regime
//! the model was trained on. A frozen model's intervals go stale: its
//! coverage collapses and the sanity check cries wolf on perfectly
//! healthy traffic. The adaptive pipeline instead watches its own
//! interval-coverage misses, widens the intervals conformally, and folds
//! the new regime into the model with replay-buffered incremental
//! updates — coverage stays near the nominal δ with zero false alerts.
//!
//! Run with: `cargo run --release --example continual_drift`

use deeprest::adapt::{AdaptConfig, AdaptivePipeline};
use deeprest::core::sanity::SanityConfig;
use deeprest::core::{DeepRest, DeepRestConfig};
use deeprest::metrics::eval::interval_calibration;
use deeprest::metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest::serve::{ServeConfig, WindowOutput};
use deeprest::trace::window::{stamp, TimestampedTrace, WindowedTraces};
use deeprest::trace::{Interner, SpanNode, Trace};

/// Periodic request load of window `t` — the traffic never changes.
fn load(t: usize) -> usize {
    (3 + ((t % 16) as i32 - 8).unsigned_abs()) as usize
}

/// One component, one API, CPU + memory. Before `drift_start` the cost
/// per request is the trained one; afterwards it ramps up by `drift`
/// (full strength after `ramp` windows). Concept drift, not an anomaly:
/// the workload is healthy, the trained relationship is stale.
fn dataset(
    windows: usize,
    drift_start: usize,
    ramp: usize,
    drift: f64,
) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut interner = Interner::new();
    let frontend = interner.intern("Frontend");
    let read = interner.intern("read");
    let api = interner.intern("/read");
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        let count = load(t);
        for _ in 0..count {
            traces.windows[t].push(Trace::new(api, SpanNode::leaf(frontend, read)));
        }
        let factor = if t < drift_start {
            1.0
        } else {
            1.0 + drift * (((t - drift_start) as f64 / ramp as f64).min(1.0))
        };
        cpu.push(2.0 + 1.5 * count as f64 * factor);
        mem.push(64.0 + 0.5 * count as f64 * (1.0 + (factor - 1.0) * 0.5));
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
    (interner, traces, metrics)
}

/// Flattens windowed traces into the arrival stream a collector delivers.
fn as_stream(w: &WindowedTraces) -> Vec<TimestampedTrace> {
    w.windows
        .iter()
        .enumerate()
        .flat_map(|(t, traces)| stamp(t, traces.iter().cloned(), w.window_secs))
        .collect()
}

/// Streams every arrival through one pipeline and returns it with its
/// window outputs.
fn run(
    model: DeepRest,
    interner: &Interner,
    metrics: &MetricsRegistry,
    stream: &[TimestampedTrace],
    config: AdaptConfig,
) -> (AdaptivePipeline, Vec<WindowOutput>) {
    let mut pipeline = AdaptivePipeline::new(model, interner, metrics.clone(), config);
    let mut outputs = Vec::new();
    for arrival in stream {
        outputs.extend(pipeline.ingest(arrival.clone()).expect("adaptive ingest"));
    }
    outputs.extend(pipeline.flush().expect("adaptive flush"));
    (pipeline, outputs)
}

/// Pooled empirical interval coverage over both experts, scored from
/// window `from` on. CPU and memory are instantaneous metrics here, so
/// the observed values are already in the experts' output space.
fn coverage(
    outputs: &[WindowOutput],
    pipeline: &AdaptivePipeline,
    metrics: &MetricsRegistry,
    nominal: f64,
    from: usize,
) -> (f64, f64) {
    let (mut actual, mut lower, mut upper) = (
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
    );
    for out in outputs.iter().filter(|o| o.window >= from) {
        for (e, key) in pipeline.keys().iter().enumerate() {
            let est = &out.estimates[e];
            if est.lower.is_finite() && est.upper.is_finite() {
                actual.push(metrics.get(key).expect("series").get(out.window));
                lower.push(est.lower);
                upper.push(est.upper);
            }
        }
    }
    let report = interval_calibration(&actual, &lower, &upper, nominal);
    (report.coverage, report.mean_width)
}

fn main() {
    // Learn the stable regime only — long enough for the quantile heads
    // to spread into genuinely calibrated intervals.
    let (interner, clean_traces, clean_metrics) = dataset(64, 64, 1, 0.0);
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

    // The day being served: identical traffic, but from window 48 the CPU
    // cost per request ramps +50% over 64 windows (+25% for memory).
    let (_, drift_traces, drift_metrics) = dataset(192, 48, 64, 0.5);
    let stream = as_stream(&drift_traces);

    // Isolated load-peak misses keep the smoothed anomaly score elevated
    // for exactly three windows, so a four-window event rule only fires on
    // *sustained* miscalibration — the drift signature.
    let config = AdaptConfig {
        serve: ServeConfig::default()
            .with_window_secs(drift_traces.window_secs)
            .with_sanity(SanityConfig {
                min_event_windows: 4,
                ..SanityConfig::default()
            }),
        ..AdaptConfig::default()
    };

    let clone =
        |m: &DeepRest| DeepRest::from_json(&m.to_json().expect("serialize")).expect("round-trip");
    println!("serving 192 drifting windows (drift ramps from window 48)…\n");
    let (frozen_pipe, frozen_out) = run(
        clone(&model),
        &interner,
        &drift_metrics,
        &stream,
        config.frozen(),
    );
    let (adaptive_pipe, adaptive_out) =
        run(clone(&model), &interner, &drift_metrics, &stream, config);

    // Score calibration after the cold-start windows (identical for both).
    let (frozen_cov, frozen_width) =
        coverage(&frozen_out, &frozen_pipe, &drift_metrics, nominal, 32);
    let (adaptive_cov, adaptive_width) =
        coverage(&adaptive_out, &adaptive_pipe, &drift_metrics, nominal, 32);
    let alerts =
        |outputs: &[WindowOutput]| -> usize { outputs.iter().map(|o| o.alerts.len()).sum() };

    println!("                          frozen     adaptive");
    println!(
        "  interval coverage      {frozen_cov:>7.3}      {adaptive_cov:>7.3}   (nominal {nominal:.2})"
    );
    println!("  mean interval width    {frozen_width:>7.2}      {adaptive_width:>7.2}");
    println!(
        "  false alerts           {:>7}      {:>7}",
        alerts(&frozen_out),
        alerts(&adaptive_out)
    );
    println!(
        "  incremental updates    {:>7}      {:>7}",
        frozen_pipe.updates_run(),
        adaptive_pipe.updates_run()
    );
    println!(
        "  drift watch fired      {:>7}      {:>7}",
        frozen_pipe.drift_watching().iter().any(|&w| w),
        adaptive_pipe.drift_watching().iter().any(|&w| w)
    );

    assert!(
        (adaptive_cov - nominal).abs() < (frozen_cov - nominal).abs(),
        "adaptation must close the calibration gap"
    );
    println!(
        "\nthe frozen model drifted {:.1} coverage points off nominal; \
         adaptation held the gap to {:.1}",
        100.0 * (frozen_cov - nominal).abs(),
        100.0 * (adaptive_cov - nominal).abs()
    );
}
