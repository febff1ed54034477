//! Chaos for the adaptation loop: the `adapt.update` fail and
//! `adapt.update.poison` probes, asserting the hardening contract — a
//! faulted update never reaches serving. The model is rolled back (or
//! never mutated) bit-for-bit, the serving trajectory is exactly the one
//! of a pipeline whose updates never apply, and once the fault clears
//! adaptation resumes.
//!
//! Adaptive windows are also healed and parked exactly like plain ones: the
//! inference step of an [`AdaptivePipeline`] is the shared serving stage,
//! so a contained step panic rolls back and retries bit-identically with
//! adaptation running, and a persistent one parks the window behind a
//! typed error instead of losing the packed predictor.
//!
//! Every plan and sink here is scoped to the test's own thread (and the
//! chunks it fans out), so the cases run side by side.

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
use deeprest_adapt::AdaptivePipeline;
use deeprest_core::train::UpdateError;
use deeprest_core::DeepRest;
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::{ServeError, WindowOutput};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;

#[test]
fn injected_update_fault_never_corrupts_serving() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);

    let sink = Arc::new(MemorySink::new());
    let plan = Arc::new(FaultPlan::new(11).always("adapt.update"));
    let (pipeline, outputs) = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            run_adaptive(
                clone_model(&model),
                &interner,
                &metrics,
                &stream,
                adapt_config(),
            )
        })
    });

    assert_eq!(pipeline.updates_run(), 0);
    assert!(pipeline.updates_failed() >= 2, "the cadence kept firing");
    assert!(matches!(
        pipeline.driver().last_update(),
        Some(Err(UpdateError::Injected))
    ));
    assert!(sink.counter("adapt.update.injected") >= 2);
    assert_eq!(
        sink.counter("adapt.update.failed"),
        pipeline.updates_failed()
    );

    // The probe fires before any mutation: parameters are bit-identical to
    // the trained model.
    assert_eq!(
        pipeline.model().to_json().expect("model"),
        model.to_json().expect("trained"),
        "a rejected update must leave the parameters untouched"
    );

    // And serving saw exactly the trajectory of a pipeline whose updates
    // never land: same calibration, same alerts, same estimates.
    assert_eq!(outputs.len(), 48, "no window may be lost under the fault");
}

#[test]
fn poisoned_update_rolls_back_bit_identical_to_pre_update_state() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);

    // Reference: every update rejected up front (model provably never
    // mutated). A poisoned-then-rolled-back run must serve bit-identically
    // to this — rollback means *rollback*, not "close".
    let rejected = Arc::new(FaultPlan::new(11).always("adapt.update"));
    let (_, expected) = fault::with_plan(rejected, || {
        run_adaptive(
            clone_model(&model),
            &interner,
            &metrics,
            &stream,
            adapt_config(),
        )
    });

    let sink = Arc::new(MemorySink::new());
    let plan = Arc::new(FaultPlan::new(11).always("adapt.update.poison"));
    let (pipeline, outputs) = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            run_adaptive(
                clone_model(&model),
                &interner,
                &metrics,
                &stream,
                adapt_config(),
            )
        })
    });

    assert_eq!(pipeline.updates_run(), 0);
    assert!(pipeline.updates_failed() >= 2);
    match pipeline.driver().last_update() {
        Some(Err(UpdateError::PoisonedRolledBack { tensors })) => {
            assert!(*tensors > 0, "PAYLOAD_ALL must poison parameter tensors")
        }
        other => panic!("expected a rolled-back poison, got {other:?}"),
    }
    assert!(sink.counter("adapt.rollback") >= 2);

    // Bit-exact rollback of the parameters (the gradient scratch buffers
    // legitimately carry the aborted backward pass — they never influence
    // serving or the next update, which zeroes them first)...
    assert_params_bitwise_equal(
        &parameter_values(pipeline.model()),
        &parameter_values(&model),
    );
    // ...and of the serving trajectory.
    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn adaptation_resumes_after_a_transient_update_fault() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);

    // Only the first update attempt is rejected; later cadence firings
    // must adapt normally.
    let plan = Arc::new(FaultPlan::new(11).once("adapt.update", 0));
    let (pipeline, outputs) = fault::with_plan(plan, || {
        run_adaptive(
            clone_model(&model),
            &interner,
            &metrics,
            &stream,
            adapt_config(),
        )
    });

    assert_eq!(pipeline.updates_failed(), 1);
    assert!(
        pipeline.updates_run() >= 1,
        "updates must resume once the fault clears"
    );
    assert!(matches!(pipeline.driver().last_update(), Some(Ok(_))));
    assert_eq!(outputs.len(), 48);
    assert_ne!(
        pipeline.model().to_json().expect("model"),
        model.to_json().expect("trained"),
        "post-fault updates must move the parameters again"
    );
}

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
                Err(ServeError::Step { window, message }) => {
                    assert_eq!(window, 0);
                    assert_eq!(message, "deeprest-fault: injected panic at stream.step");
                    true
                }
                Err(other) => panic!("unexpected error: {other}"),
            })
            .expect("a persistent step fault must surface as ServeError::Step")
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

/// The adaptive pipeline drives the same ingest stage: a trace naming a
/// component deployed after the pipeline cloned the name table is a typed,
/// counted, unconsumed arrival, and a restore against the grown table
/// resumes — updates included — as if it had been built against it.
#[test]
fn name_interned_after_the_pipeline_was_built_is_typed_and_restorable() {
    let (model, interner, traces, metrics) = trained(48);
    let mut stream = stream_of(&traces);
    let (grown, at) = serve_common::deploy_mid_stream(&interner, &mut stream);
    let (reference, expected) = run_adaptive(
        clone_model(&model),
        &grown,
        &metrics,
        &stream,
        adapt_config(),
    );
    assert!(reference.updates_run() >= 2, "the fixture must adapt");

    let sink = Arc::new(MemorySink::new());
    let (pipeline, outputs) = telemetry::with_sink(sink.clone(), || {
        let mut pipeline = AdaptivePipeline::new(
            clone_model(&model),
            &interner,
            metrics.clone(),
            adapt_config(),
        );
        let mut outputs = Vec::new();
        for t in &stream[..at] {
            outputs.extend(pipeline.ingest(t.clone()).expect("known names"));
        }
        let before = pipeline.checkpoint();
        match pipeline.ingest(stream[at].clone()) {
            Err(ServeError::UnknownSymbol(msg)) => {
                assert!(msg.contains("symbol #4"), "{msg}");
                assert!(msg.contains("holds 3 names"), "{msg}");
            }
            Err(other) => panic!("expected a typed ingest error, got {other}"),
            Ok(_) => panic!("an unknown symbol must not be ingested"),
        }
        let after = pipeline.checkpoint();
        assert_eq!(
            after.to_json().expect("json"),
            before.to_json().expect("json"),
            "a refused arrival must leave the pipeline untouched"
        );

        let mut pipeline =
            AdaptivePipeline::restore(&grown, metrics.clone(), adapt_config(), after)
                .expect("restore against the grown table");
        for t in &stream[at..] {
            outputs.extend(pipeline.ingest(t.clone()).expect("grown table"));
        }
        outputs.extend(pipeline.flush().expect("flush"));
        (pipeline, outputs)
    });
    assert_eq!(sink.counter("serve.ingest.unknown_symbol"), 1);
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_eq!(pipeline.updates_run(), reference.updates_run());
    assert_params_bitwise_equal(
        &parameter_values(pipeline.model()),
        &parameter_values(reference.model()),
    );
}
