//! The steady-state allocation invariants of training and batch estimation.
//!
//! Training draws every tensor — node values, gradients, constant payloads,
//! loss targets — from per-slot recycled buffer pools. The kernel layer
//! counts every pool miss (`kernel.alloc`: a fresh allocation or a regrow of
//! an undersized recycled buffer) and every hit (`kernel.scratch_reuse`).
//! After the first epoch has warmed the pools, additional epochs must
//! perform **zero** kernel allocations: a 3-epoch fit allocates exactly as
//! often as a 1-epoch fit of the same configuration.

use std::sync::Arc;

use deeprest_core::{DeepRest, DeepRestConfig, OptimizerKind};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};

/// One API driving two metric series on one component. 64 windows at
/// `subseq_len = 8` gives every slot four same-shaped passes per epoch, so
/// the buffer pools settle well inside epoch one.
fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let read = i.intern("read");
    let api = i.intern("/read");
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        let count = 2 + ((t % 12) as i32 - 6).unsigned_abs() as usize;
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

fn config(epochs: usize, threads: usize) -> DeepRestConfig {
    DeepRestConfig {
        hidden_dim: 8,
        epochs,
        subseq_len: 8,
        batch_size: 2,
        ..DeepRestConfig::default()
    }
    .with_optimizer(OptimizerKind::Sgd {
        lr: 0.01,
        momentum: 0.9,
    })
    .with_threads(threads)
}

/// Runs a full fit and returns `(kernel.alloc, kernel.scratch_reuse)`.
fn fit_alloc_counts(epochs: usize, threads: usize) -> (u64, u64) {
    let (i, traces, metrics) = tiny_dataset(64);
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let _ = DeepRest::fit(&traces, &metrics, &i, config(epochs, threads));
    });
    (
        sink.counter("kernel.alloc"),
        sink.counter("kernel.scratch_reuse"),
    )
}

#[test]
fn steady_state_training_epochs_allocate_nothing() {
    for threads in [1, 2] {
        let (allocs_one_epoch, _) = fit_alloc_counts(1, threads);
        let (allocs_three_epochs, reuses) = fit_alloc_counts(3, threads);
        assert!(
            allocs_one_epoch > 0,
            "warm-up must allocate at least once (threads = {threads})"
        );
        assert_eq!(
            allocs_three_epochs, allocs_one_epoch,
            "epochs after warm-up must perform zero kernel allocations \
             (threads = {threads})"
        );
        assert!(
            reuses > allocs_three_epochs,
            "steady state must be dominated by scratch reuse \
             (threads = {threads}: {reuses} reuses, {allocs_three_epochs} allocs)"
        );
    }
}

/// Batch estimation steps one `StreamPredictor` over the rows: its shard
/// arenas fill on the first window and are reused for every later one, so
/// the kernel allocation count is independent of the query length.
#[test]
fn batch_prediction_allocations_do_not_grow_with_windows() {
    let (i, long, metrics) = tiny_dataset(128);
    let mut short = WindowedTraces::with_windows(1.0, 32);
    short.windows.clone_from_slice(&long.windows[..32]);
    for threads in [1, 2] {
        let (model, _) = DeepRest::fit(&long, &metrics, &i, config(1, threads));
        let kernel_allocs = |traces: &WindowedTraces| {
            let sink = Arc::new(MemorySink::new());
            telemetry::with_sink(sink.clone(), || {
                let _ = model.estimate_from_traces(traces, &i);
            });
            assert_eq!(sink.counter("stream.steps"), traces.len() as u64);
            sink.counter("kernel.alloc")
        };
        let allocs_short = kernel_allocs(&short);
        assert!(
            allocs_short > 0,
            "the first window fills the arenas (threads = {threads})"
        );
        assert_eq!(
            kernel_allocs(&long),
            allocs_short,
            "a 128-window query must allocate exactly as often as a 32-window one \
             (threads = {threads})"
        );
    }
}
