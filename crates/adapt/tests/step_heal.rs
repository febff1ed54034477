//! Adaptive windows are healed and parked exactly like plain ones: the
//! inference step of an [`AdaptivePipeline`] is the shared serving stage,
//! so a contained step panic rolls back and retries bit-identically with
//! adaptation running, and a persistent one parks the window behind a
//! typed error instead of losing the packed predictor.
//!
//! Alone in its binary, one test function: an armed `FaultPlan` is
//! process-wide and would strike any other test that trains or serves
//! meanwhile.

mod common;
/// The serve crate's fixtures, for the model wide enough to step in two
/// shards.
#[path = "../../serve/tests/common/mod.rs"]
mod serve_common;

use std::sync::Arc;

use common::{
    adapt_config, assert_outputs_bitwise_equal, assert_params_bitwise_equal, clone_model,
    parameter_values, run_adaptive, stream_of, trained,
};
use deeprest_adapt::{AdaptError, AdaptivePipeline};
use deeprest_core::DeepRest;
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::{ServeError, WindowOutput};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;

/// A transient fault at `site` must leave outputs, update count and final
/// parameters bit-identical to the unfaulted adaptive run, which is returned.
fn assert_heals(
    model: &DeepRest,
    interner: &Interner,
    metrics: &MetricsRegistry,
    stream: &[TimestampedTrace],
    site: &str,
    hit: u64,
) -> (AdaptivePipeline, Vec<WindowOutput>) {
    let (reference, expected) = run_adaptive(
        clone_model(model),
        interner,
        metrics,
        stream,
        adapt_config(),
    );
    assert_eq!(expected.len(), 48);
    assert!(reference.updates_run() >= 2, "the fixture must adapt");

    let plan = Arc::new(FaultPlan::new(11).once(site, hit));
    let sink = Arc::new(MemorySink::new());
    let (pipeline, outputs) = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            run_adaptive(
                clone_model(model),
                interner,
                metrics,
                stream,
                adapt_config(),
            )
        })
    });
    assert!(
        sink.counter("serve.step.rolled_back") >= 1,
        "the {site} fault never struck a step"
    );
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_eq!(pipeline.updates_run(), reference.updates_run());
    assert_eq!(pipeline.updates_failed(), 0);
    assert_params_bitwise_equal(
        &parameter_values(pipeline.model()),
        &parameter_values(reference.model()),
    );
    (reference, expected)
}

#[test]
fn adaptive_windows_heal_and_park_like_plain_ones() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let (reference, expected) =
        assert_heals(&model, &interner, &metrics, &stream, "stream.step", 5);

    // 10 experts at 2 threads: the step fans out over two shards, four
    // `pool.worker` probe hits per window, so hit 5 is raised inside a
    // chunk of the second window's step.
    let (wide, wide_interner, wide_traces, wide_metrics) = serve_common::trained_wide(48, 5, 2);
    assert_eq!(clone_model(&wide).stream_predictor().shard_count(), 2);
    let wide_stream = stream_of(&wide_traces);
    assert_heals(
        &wide,
        &wide_interner,
        &wide_metrics,
        &wide_stream,
        "pool.worker",
        5,
    );

    // A persistent fault parks the window behind a typed error carrying
    // the probe's own message; once lifted, the next ingest drains it.
    let mut pipeline = AdaptivePipeline::new(
        clone_model(&model),
        &interner,
        metrics.clone(),
        adapt_config(),
    );
    let plan = Arc::new(FaultPlan::new(11).always("stream.step"));
    let struck = fault::with_plan(plan, || {
        stream
            .iter()
            .position(|t| match pipeline.ingest(t.clone()) {
                Ok(outputs) => {
                    assert!(outputs.is_empty(), "no window can step under the fault");
                    false
                }
                Err(AdaptError::Serve(ServeError::Step { window, message })) => {
                    assert_eq!(window, 0);
                    assert_eq!(message, "deeprest-fault: injected panic at stream.step");
                    true
                }
                Err(other) => panic!("unexpected error: {other}"),
            })
            .expect("a persistent step fault must surface as AdaptError::Serve")
    });
    assert_eq!(
        pipeline.pending_windows(),
        1,
        "the failing window is parked"
    );
    assert_eq!(pipeline.position(), 0);

    let mut outputs = Vec::new();
    for t in &stream[struck + 1..] {
        outputs.extend(pipeline.ingest(t.clone()).expect("fault lifted"));
    }
    outputs.extend(pipeline.flush().expect("flush"));
    assert_eq!(pipeline.pending_windows(), 0);
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_eq!(pipeline.updates_run(), reference.updates_run());
    assert_params_bitwise_equal(
        &parameter_values(pipeline.model()),
        &parameter_values(reference.model()),
    );
}
