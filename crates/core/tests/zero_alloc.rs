//! The steady-state allocation invariants of training and batch estimation.
//!
//! Training draws every tensor — node values, gradients, constant payloads,
//! loss targets — from per-slot recycled buffer pools. The kernel layer
//! counts every pool miss (`kernel.alloc`: a fresh allocation or a regrow of
//! an undersized recycled buffer) and every hit (`kernel.scratch_reuse`).
//! After the first epoch has warmed the pools, additional epochs must
//! perform **zero** kernel allocations: a 3-epoch fit allocates exactly as
//! often as a 1-epoch fit of the same configuration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use deeprest_core::{DeepRest, DeepRestConfig, OptimizerKind};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};

/// Keeps each thread's balance of bytes allocated minus bytes freed, for the
/// one invariant `kernel.alloc` cannot see: a buffer outside the scratch
/// arenas (the window's support) growing on a warm step.
struct CountingAlloc;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    HELD.with(|held| held.set(held.get() + bytes));
}

// SAFETY: defers every request to `System` unchanged; the balance is a
// side effect only, a `Cell<isize>` in a const-initialised thread-local
// with no destructor, so touching it neither allocates nor can fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the bytes it left allocated on the calling thread.
fn left_allocated<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = HELD.with(Cell::get);
    let out = f();
    (out, HELD.with(Cell::get) - before)
}

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

/// A model over `paths` invocation paths (one leaf operation each), so a
/// window's support can be anything from empty to all of them.
fn wide_model(paths: usize, threads: usize) -> DeepRest {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let api = i.intern("/read");
    let ops: Vec<_> = (0..paths).map(|p| i.intern(&format!("op{p}"))).collect();
    let mut traces = WindowedTraces::with_windows(1.0, 32);
    let mut cpu = TimeSeries::zeros(0);
    for t in 0..32 {
        for (p, &op) in ops.iter().enumerate() {
            for _ in 0..(t + p) % 3 {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, op)));
            }
        }
        cpu.push(2.0 + traces.windows[t].len() as f64);
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
    DeepRest::fit(&traces, &metrics, &i, config(1, threads)).0
}

/// The support a step walks is refilled in place every window: windows that
/// exercise no path, one path, some and all of them — each wider than any
/// before it at some point — take nothing from the allocator once the first
/// step has warmed the arenas, and leave no byte behind on the stepping
/// thread beyond the estimates they return.
#[test]
fn warm_steps_allocate_nothing_as_the_support_changes() {
    let paths = 20;
    for threads in [1, 2] {
        let model = wide_model(paths, threads);
        let window = |live: &dyn Fn(usize) -> bool| -> Vec<f32> {
            (0..paths)
                .map(|p| if live(p) { 0.5 } else { 0.0 })
                .collect()
        };
        let windows = [
            window(&|_| false),
            window(&|p| p == 7),
            window(&|p| p % 3 == 0),
            window(&|_| true),
            window(&|p| p == 19),
        ];
        // Warm-up on the empty window: the narrowest support there is.
        let mut stream = model.stream_predictor();
        stream.step(&windows[0]);
        for x in &windows {
            let (estimates, left) = left_allocated(|| stream.step(x));
            let returned = std::mem::size_of_val(&estimates[..]) as isize;
            assert_eq!(left, returned, "threads = {threads}, window {x:?}");
        }
        // The same again under a sink (whose own records allocate, hence
        // the separate pass): no arena miss after the first step.
        let sink = Arc::new(MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            let mut stream = model.stream_predictor();
            stream.step(&windows[0]);
            let warm = sink.counter("kernel.alloc");
            for x in &windows {
                stream.step(x);
            }
            assert_eq!(sink.counter("kernel.alloc"), warm, "threads = {threads}");
            assert_eq!(
                sink.gauges("stream.step.nnz"),
                [0.0, 0.0, 1.0, 7.0, 20.0, 1.0],
                "the recorded density is the support's length"
            );
        });
    }
}
