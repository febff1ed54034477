//! Serving-loop observability and cost invariants:
//!
//! * the pipeline emits the documented counters, gauges, and spans, and
//!   counts a window sealed once however often a step failure retries it;
//! * steady-state serving performs **zero** kernel allocations after
//!   warm-up (the PR-3 training/prediction invariant, extended online);
//! * per-window inference is O(1) in stream history — the batched step
//!   runs the same fixed kernel schedule for window 10 and window 10,000.

mod common;

use std::sync::Arc;

use common::{stream_of, trained, WINDOW_SECS};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_serve::{Pipeline, ServeConfig};
use deeprest_telemetry::{self as telemetry, MemorySink};

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0)
}

#[test]
fn serving_emits_documented_telemetry() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let total_spans: u64 = stream.iter().map(|t| t.trace.span_count() as u64).sum();

    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
        for t in &stream {
            pipeline.ingest(t.clone()).unwrap();
        }
        pipeline.flush().unwrap();

        // A straggler far behind the watermark is surfaced as a counter.
        pipeline.ingest(stream[0].clone()).unwrap();
    });

    assert_eq!(sink.counter("serve.ingest.spans"), total_spans + 1);
    assert_eq!(sink.counter("serve.window.sealed"), traces.len() as u64);
    assert_eq!(sink.counter("serve.late_dropped"), 1);
    assert_eq!(sink.span_count("serve.predict"), traces.len() as u64);
    // One gauge sample per window step; every sample the same kernel count.
    assert_eq!(sink.gauges("stream.step.kernel_ops").len(), traces.len());
    // The batched step also reports its shard fan-out every window.
    assert_eq!(sink.gauges("stream.batch.shards").len(), traces.len());
    assert_eq!(sink.gauges("stream.batch.experts").len(), traces.len());
}

/// Windows parked behind step failures are retried on later ingests:
/// `serve.predict` spans every attempt, `serve.window.sealed` every window
/// once.
#[test]
fn a_retried_window_is_sealed_once() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let (armed, lifted) = stream.split_at(stream.len() / 2);

    let sink = Arc::new(MemorySink::new());
    let (outputs, failed) = telemetry::with_sink(sink.clone(), || {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
        let (mut outputs, mut failed) = (Vec::new(), 0);
        let plan = Arc::new(FaultPlan::new(17).window("stream.step", 0, 40));
        fault::with_plan(plan, || {
            for t in armed {
                match pipeline.ingest(t.clone()) {
                    Ok(out) => outputs.extend(out),
                    Err(_) => failed += 1,
                }
            }
        });
        for t in lifted {
            outputs.extend(pipeline.ingest(t.clone()).unwrap());
        }
        outputs.extend(pipeline.flush().unwrap());
        (outputs, failed)
    });

    assert!(failed > 0, "the fault must park windows");
    assert_eq!(outputs.len(), traces.len());
    assert_eq!(sink.counter("serve.window.sealed"), traces.len() as u64);
    assert!(sink.span_count("serve.predict") > traces.len() as u64);
}

#[test]
fn steady_state_serving_allocates_nothing() {
    let (model, interner, traces, metrics) = trained(96);
    let stream = stream_of(&traces);
    // Split arrivals at a window boundary: the first few windows warm the
    // graph's buffer pools, everything after must run allocation-free.
    let warm_cut = stream
        .iter()
        .position(|t| t.at_secs >= 10.0)
        .expect("stream spans more than 10 windows");

    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
        for t in &stream[..warm_cut] {
            pipeline.ingest(t.clone()).unwrap();
        }
        let warm_allocs = sink.counter("kernel.alloc");
        let warm_steps = sink.counter("stream.steps");
        assert!(warm_allocs > 0, "warm-up must allocate at least once");
        assert!(warm_steps >= 7, "warm-up must have sealed windows");

        for t in &stream[warm_cut..] {
            pipeline.ingest(t.clone()).unwrap();
        }
        pipeline.flush().unwrap();

        let steady_steps = sink.counter("stream.steps") - warm_steps;
        assert!(steady_steps > 80, "steady phase must serve many windows");
        assert_eq!(
            sink.counter("kernel.alloc"),
            warm_allocs,
            "steady-state serving must perform zero kernel allocations"
        );
        assert!(
            sink.counter("kernel.scratch_reuse") > warm_allocs,
            "steady state must be dominated by scratch reuse"
        );
    });
}

#[test]
fn per_window_kernel_schedule_is_constant() {
    let (model, interner, traces, _) = trained(96);
    let stream = stream_of(&traces);

    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let mut pipeline = Pipeline::new(&model, &interner, serve_config());
        for t in &stream {
            pipeline.ingest(t.clone()).unwrap();
        }
        pipeline.flush().unwrap();
    });

    let ops = sink.gauges("stream.step.kernel_ops");
    assert_eq!(ops.len(), traces.len());
    let first = ops[0];
    assert!(first > 0.0);
    for (w, &size) in ops.iter().enumerate() {
        assert_eq!(
            size.to_bits(),
            first.to_bits(),
            "window {w} ran a different kernel schedule — inference is not O(1)"
        );
    }
}
