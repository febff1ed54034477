//! Shared fixtures for the continual-learning integration tests: a small
//! trained model, replay streams (optionally with injected concept drift),
//! and bitwise output comparison — mirroring the serve crate's fixtures so
//! frozen-mode equivalence can be asserted bit for bit.

#![allow(dead_code)]

use deeprest_adapt::{AdaptConfig, AdaptivePipeline};
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_serve::{ServeConfig, WindowOutput};
use deeprest_trace::window::{stamp, TimestampedTrace, WindowedTraces};
use deeprest_trace::{Interner, SpanNode, Trace};

/// Scrape-window length of the shared dataset.
pub const WINDOW_SECS: f64 = 1.0;

/// Period-16 request load of window `t` (same shape as the serve fixtures).
pub fn load(t: usize) -> usize {
    (3 + ((t % 16) as i32 - 8).unsigned_abs()) as usize
}

/// Multiplicative drift factor of window `t`: 1.0 before `start`, ramping
/// linearly to `1.0 + drift` over `ramp` windows, then holding.
pub fn drift_factor(t: usize, start: usize, ramp: usize, drift: f64) -> f64 {
    if t < start {
        1.0
    } else {
        let progress = ((t - start) as f64 / ramp.max(1) as f64).min(1.0);
        1.0 + drift * progress
    }
}

/// One API driving CPU and memory on one component. The *traffic* is the
/// same periodic pattern throughout; after `drift_start` the resource cost
/// per request gradually drifts by up to `drift` (concept drift: the
/// workload is healthy, the trained relationship is stale).
pub fn dataset_with_drift(
    windows: usize,
    drift_start: usize,
    ramp: usize,
    drift: f64,
) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let read = i.intern("read");
    let api = i.intern("/read");
    let mut traces = WindowedTraces::with_windows(WINDOW_SECS, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        let count = load(t);
        for _ in 0..count {
            traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
        }
        let factor = drift_factor(t, drift_start, ramp, drift);
        // Concept drift on the *per-request* cost: the constant baselines
        // stay put, the marginal cost of serving one request drifts.
        cpu.push(2.0 + 1.5 * count as f64 * factor);
        // Memory drifts at half strength — per-expert drift detection must
        // cope with heterogeneous drift magnitudes.
        mem.push(64.0 + 0.5 * count as f64 * (1.0 + (factor - 1.0) * 0.5));
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
    (i, traces, metrics)
}

/// The drift-free dataset (identical to the serve fixtures).
pub fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    dataset_with_drift(windows, windows, 1, 0.0)
}

/// The training configuration shared by every fixture model.
pub fn train_config() -> DeepRestConfig {
    DeepRestConfig {
        hidden_dim: 12,
        epochs: 3,
        subseq_len: 16,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
    .with_seed(7)
}

/// Fits a small model on [`tiny_dataset`].
pub fn trained(windows: usize) -> (DeepRest, Interner, WindowedTraces, MetricsRegistry) {
    let (i, traces, metrics) = tiny_dataset(windows);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, train_config());
    (model, i, traces, metrics)
}

/// Bit-exact model copy via the JSON codec (round-trip is bit-identical;
/// `AdaptivePipeline` takes ownership of its model, the fixtures don't).
pub fn clone_model(model: &DeepRest) -> DeepRest {
    DeepRest::from_json(&model.to_json().expect("serialize model")).expect("round-trip model")
}

/// Flattens windowed traces into an in-order arrival stream, spacing the
/// traces of window `t` evenly inside `[t, t+1) * window_secs`.
pub fn stream_of(windowed: &WindowedTraces) -> Vec<TimestampedTrace> {
    windowed
        .windows
        .iter()
        .enumerate()
        .flat_map(|(t, traces)| stamp(t, traces.iter().cloned(), windowed.window_secs))
        .collect()
}

/// The serving half every adapt test runs with.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0)
}

/// Default adaptive configuration over [`serve_config`].
pub fn adapt_config() -> AdaptConfig {
    AdaptConfig {
        serve: serve_config(),
        ..AdaptConfig::default()
    }
}

/// Streams every arrival through a fresh adaptive pipeline and returns the
/// pipeline (for state assertions) plus all window outputs.
pub fn run_adaptive(
    model: DeepRest,
    interner: &Interner,
    metrics: &MetricsRegistry,
    stream: &[TimestampedTrace],
    config: AdaptConfig,
) -> (AdaptivePipeline, Vec<WindowOutput>) {
    let mut pipeline = AdaptivePipeline::new(model, interner, metrics.clone(), config);
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("adaptive ingest"));
    }
    outputs.extend(pipeline.flush().expect("adaptive flush"));
    (pipeline, outputs)
}

/// Owned copy of a model's parameter values (the functional state — the
/// serialized store also carries transient gradient scratch, which an
/// aborted update legitimately dirties).
pub fn parameter_values(model: &DeepRest) -> Vec<(String, Vec<f32>)> {
    model
        .parameters()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v.to_vec()))
        .collect()
}

/// Asserts two parameter snapshots are bit-identical, tensor by tensor.
pub fn assert_params_bitwise_equal(got: &[(String, Vec<f32>)], want: &[(String, Vec<f32>)]) {
    assert_eq!(got.len(), want.len(), "parameter count");
    for ((ng, vg), (nw, vw)) in got.iter().zip(want.iter()) {
        assert_eq!(ng, nw);
        assert_eq!(
            vg.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parameter {ng} diverged"
        );
    }
}

/// Bitwise equality of two output sequences: every float is compared via
/// `to_bits`, so `NAN` score slots compare equal and any rounding drift
/// fails the test.
pub fn assert_outputs_bitwise_equal(streamed: &[WindowOutput], reference: &[WindowOutput]) {
    assert_eq!(streamed.len(), reference.len(), "window count");
    for (s, r) in streamed.iter().zip(reference) {
        assert_eq!(s.window, r.window);
        assert_eq!(s.trace_count, r.trace_count, "window {}", s.window);
        assert_eq!(s.estimates.len(), r.estimates.len());
        for (a, b) in s.estimates.iter().zip(&r.estimates) {
            assert_eq!(
                a.expected.to_bits(),
                b.expected.to_bits(),
                "expected drifted in window {}",
                s.window
            );
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        }
        assert_eq!(s.scores.len(), r.scores.len());
        for (a, b) in s.scores.iter().zip(&r.scores) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "score drifted in window {}",
                s.window
            );
        }
        assert_eq!(s.alerts, r.alerts, "alerts in window {}", s.window);
    }
}
