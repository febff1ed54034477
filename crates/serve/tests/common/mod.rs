//! Shared fixtures for the serving integration tests: a small trained
//! model, a timestamped replay stream derived from its training windows,
//! and bitwise output comparison.

#![allow(dead_code)]

use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_serve::WindowOutput;
use deeprest_trace::window::{stamp, TimestampedTrace, WindowedTraces};
use deeprest_trace::{Interner, SpanNode, Trace};

/// Scrape-window length of the shared dataset.
pub const WINDOW_SECS: f64 = 1.0;

/// One API driving CPU and memory on one component, with a period-16 load
/// pattern so chunked prediction crosses several subsequence boundaries.
pub fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let read = i.intern("read");
    let api = i.intern("/read");
    let mut traces = WindowedTraces::with_windows(WINDOW_SECS, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        let count = (3 + ((t % 16) as i32 - 8).unsigned_abs()) as usize;
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

/// Fits a small model on [`tiny_dataset`] (subsequence length 16, so a
/// stream of 2–3 chunks exercises the hidden-state resets).
pub fn trained(windows: usize) -> (DeepRest, Interner, WindowedTraces, MetricsRegistry) {
    let (i, traces, metrics) = tiny_dataset(windows);
    let config = DeepRestConfig {
        hidden_dim: 12,
        epochs: 3,
        subseq_len: 16,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
    .with_seed(7);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, config);
    (model, i, traces, metrics)
}

/// Fits a model wide enough to be served in two shards at two threads:
/// `components` services, each driven by its own API at its own phase,
/// giving `2 * components` experts (the predictor shards at 8 per shard).
pub fn trained_wide(
    windows: usize,
    components: usize,
    threads: usize,
) -> (DeepRest, Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let mut traces = WindowedTraces::with_windows(WINDOW_SECS, windows);
    let mut metrics = MetricsRegistry::new();
    for c in 0..components {
        let name = format!("Svc{c}");
        let svc = i.intern(&name);
        let op = i.intern(&format!("op{c}"));
        let api = i.intern(&format!("/api{c}"));
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        for t in 0..windows {
            let count = 2 + (t * (c + 3)) % 9;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(svc, op)));
            }
            cpu.push(1.5 + (0.8 + 0.2 * c as f64) * count as f64);
            mem.push(48.0 + 0.4 * count as f64);
        }
        metrics.insert(MetricKey::new(&name, ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new(&name, ResourceKind::Memory), mem);
    }
    let config = DeepRestConfig {
        hidden_dim: 8,
        epochs: 1,
        subseq_len: 12,
        batch_size: 3,
        ..DeepRestConfig::default()
    }
    .with_seed(7)
    .with_threads(threads);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, config);
    (model, i, traces, metrics)
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

/// A component deployed mid-stream: its names enter a copy of the
/// producer's table only now, and one trace that calls it is spliced into
/// the middle of `stream`. Returns the grown table and the trace's position.
pub fn deploy_mid_stream(
    interner: &Interner,
    stream: &mut Vec<TimestampedTrace>,
) -> (Interner, usize) {
    let mut grown = interner.clone();
    let deployed = SpanNode::leaf(grown.intern("Deployed"), grown.intern("warmUp"));
    let at = stream.len() / 2;
    let TimestampedTrace { at_secs, trace } = &stream[at];
    let root = SpanNode::with_children(trace.root.component, trace.root.operation, vec![deployed]);
    let newcomer = TimestampedTrace {
        at_secs: *at_secs,
        trace: Trace::new(trace.api, root),
    };
    stream.insert(at, newcomer);
    (grown, at)
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
