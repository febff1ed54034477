//! Chaos replay: the golden replay fixture driven under every injected
//! fault class, asserting the hardening contract — after a transient fault
//! clears, outputs are **bit-identical** to a run that never faulted;
//! persistent faults surface as **typed errors** with no lost windows;
//! nothing ever panics out of the pipeline.
//!
//! Fault schedules come from the `deeprest-fault` crate and are fully
//! deterministic, and each is armed on its test's own thread (and the
//! chunks that thread fans out), so the cases run side by side. The CI
//! chaos-smoke job re-runs this suite under a seed matrix via
//! `DEEPREST_CHAOS_SEED`.

mod common;

use std::sync::Arc;

use common::{
    assert_outputs_bitwise_equal, deploy_mid_stream, stream_of, trained, trained_wide, WINDOW_SECS,
};
use deeprest_core::ExpertKey;
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::{
    Checkpoint, CheckpointError, CheckpointStore, CollectSink, ObservationSource, Pipeline,
    ServeConfig, ServeError, WindowOutput,
};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;

/// Seed of the fault schedules; the CI chaos-smoke job sweeps a small
/// matrix through `DEEPREST_CHAOS_SEED`.
fn chaos_seed() -> u64 {
    std::env::var("DEEPREST_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(17)
}

fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0);
    config.sink_backoff_ms = 1;
    config.sink_timeout_ms = 50;
    config
}

/// Runs the whole stream through a fresh pipeline with no faults armed and
/// returns the outputs — the bit-exactness reference for every chaos case.
fn baseline(
    model: &deeprest_core::DeepRest,
    interner: &deeprest_trace::Interner,
    metrics: &MetricsRegistry,
    stream: &[TimestampedTrace],
) -> Vec<WindowOutput> {
    let mut pipeline =
        Pipeline::new(model, interner, serve_config()).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("baseline ingest"));
    }
    outputs.extend(pipeline.flush().expect("baseline flush"));
    outputs
}

#[test]
fn transient_worker_panic_heals_bit_identical() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    let plan = Arc::new(FaultPlan::new(chaos_seed()).once("stream.step", 5));
    let sink = Arc::new(MemorySink::new());
    let outputs = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            let mut pipeline =
                Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
            let mut outputs = Vec::new();
            for t in &stream {
                outputs.extend(pipeline.ingest(t.clone()).expect("must heal via retry"));
            }
            outputs.extend(pipeline.flush().expect("flush"));
            outputs
        })
    });

    assert!(
        sink.counter("fault.injected.stream.step") >= 1,
        "the step fault never fired — the probe is not on the hot path"
    );
    assert!(
        sink.counter("serve.step.retried") >= 1,
        "healing must have gone through the rollback-retry path"
    );
    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn transient_hidden_poison_heals_bit_identical() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    let plan = Arc::new(FaultPlan::new(chaos_seed()).once("stream.hidden", 0));
    let sink = Arc::new(MemorySink::new());
    let outputs = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            let mut pipeline =
                Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
            let mut outputs = Vec::new();
            for t in &stream {
                outputs.extend(pipeline.ingest(t.clone()).expect("must heal via retry"));
            }
            outputs.extend(pipeline.flush().expect("flush"));
            outputs
        })
    });

    assert!(sink.counter("fault.injected.stream.hidden") >= 1);
    assert!(sink.counter("serve.step.rolled_back") >= 1);
    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn persistent_poison_parks_windows_then_drains_bit_identical() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    let mut pipeline =
        Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    let mut poisoned_errors = 0usize;

    let plan = Arc::new(FaultPlan::new(chaos_seed()).always("stream.hidden"));
    fault::with_plan(plan, || {
        for t in &stream {
            match pipeline.ingest(t.clone()) {
                Ok(outs) => outputs.extend(outs),
                Err(ServeError::PoisonedState { experts, .. }) => {
                    poisoned_errors += 1;
                    assert_eq!(
                        experts,
                        vec![0, 1],
                        "PAYLOAD_ALL must poison every expert's hidden state"
                    );
                }
                Err(other) => panic!("unexpected error under hidden poison: {other}"),
            }
        }
    });
    assert!(poisoned_errors > 0, "the persistent fault never fired");
    assert!(
        pipeline.pending_windows() > 0,
        "failed windows must be parked, not dropped"
    );

    // Fault cleared: the next call drains every parked window in order and
    // the stream continues as if nothing happened.
    outputs.extend(pipeline.flush().expect("drain after fault clears"));
    assert_eq!(pipeline.pending_windows(), 0);
    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn output_poison_quarantines_one_expert_and_serves_the_rest() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    // Split the arrivals: poisoned first phase, clean second phase.
    let cut = stream.len() / 2;
    let mut pipeline =
        Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
    let mut faulted = Vec::new();
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .always("serve.step.output")
            .payload(0),
    );
    fault::with_plan(plan, || {
        for t in &stream[..cut] {
            faulted.extend(
                pipeline
                    .ingest(t.clone())
                    .expect("quarantine must not error"),
            );
        }
    });
    assert!(!faulted.is_empty());
    assert!(pipeline.quarantined()[0], "expert 0 must be quarantined");
    assert!(!pipeline.quarantined()[1], "expert 1 must keep serving");

    // While poisoned: expert 0 reads NaN and is excluded from scoring;
    // every other expert is bit-identical to the healthy run.
    for out in &faulted {
        let reference = &expected[out.window];
        assert!(out.estimates[0].expected.is_nan());
        assert!(out.scores[0].is_nan());
        for e in 1..out.estimates.len() {
            assert_eq!(
                out.estimates[e].expected.to_bits(),
                reference.estimates[e].expected.to_bits(),
                "healthy expert {e} drifted in window {}",
                out.window
            );
            assert_eq!(out.scores[e].to_bits(), reference.scores[e].to_bits());
        }
    }

    // Fault cleared: outputs are finite again, the quarantine self-clears,
    // and — because output poison never touched the carried state — the
    // estimates match the healthy run bit for bit.
    let mut healed = Vec::new();
    for t in &stream[cut..] {
        healed.extend(pipeline.ingest(t.clone()).expect("clean ingest"));
    }
    healed.extend(pipeline.flush().expect("clean flush"));
    assert!(!healed.is_empty());
    assert!(!pipeline.quarantined()[0], "quarantine must auto-clear");
    for out in &healed {
        let reference = &expected[out.window];
        for e in 0..out.estimates.len() {
            assert_eq!(
                out.estimates[e].expected.to_bits(),
                reference.estimates[e].expected.to_bits()
            );
            assert_eq!(
                out.estimates[e].lower.to_bits(),
                reference.estimates[e].lower.to_bits()
            );
            assert_eq!(
                out.estimates[e].upper.to_bits(),
                reference.estimates[e].upper.to_bits()
            );
        }
    }
}

/// Observations scaled far outside the trained band, so the sanity check
/// fires alerts — the only path that exercises sink delivery.
struct ScaledObservations {
    registry: MetricsRegistry,
    factor: f64,
}

impl ObservationSource for ScaledObservations {
    fn observe(&mut self, key: &ExpertKey, window: usize) -> Option<f64> {
        self.registry
            .get(key)
            .filter(|s| window < s.len())
            .map(|s| s.get(window) * self.factor)
    }
}

fn alerting_run(
    model: &deeprest_core::DeepRest,
    interner: &deeprest_trace::Interner,
    metrics: &MetricsRegistry,
    stream: &[TimestampedTrace],
) -> (Vec<WindowOutput>, Vec<deeprest_serve::Alert>) {
    let obs = ScaledObservations {
        registry: metrics.clone(),
        factor: 10.0,
    };
    let collect = CollectSink::new();
    let mut pipeline = Pipeline::new(model, interner, serve_config())
        .with_observations(obs)
        .with_sink(collect.clone());
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    outputs.extend(pipeline.flush().expect("flush"));
    (outputs, collect.take())
}

#[test]
fn sink_failures_degrade_without_touching_outputs() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let (expected, delivered) = alerting_run(&model, &interner, &metrics, &stream);
    assert!(
        !delivered.is_empty(),
        "the scaled observations must fire alerts, or this test checks nothing"
    );

    // Every delivery attempt fails: alerts are dropped (counted), but the
    // outputs — alerts lists included — stay bit-identical.
    let sink = Arc::new(MemorySink::new());
    let plan = Arc::new(FaultPlan::new(chaos_seed()).always("serve.sink.emit"));
    let (outputs, collected) = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || alerting_run(&model, &interner, &metrics, &stream))
    });
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert!(collected.is_empty(), "failing sink must not receive alerts");
    assert_eq!(sink.counter("serve.sink.dropped"), delivered.len() as u64);
    assert!(sink.counter("serve.sink.retry") >= delivered.len() as u64);

    // A slow sink (injected delay) still delivers inside the budget.
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .window("serve.sink.delay", 0, 3)
            .payload(2),
    );
    let (outputs, collected) =
        fault::with_plan(plan, || alerting_run(&model, &interner, &metrics, &stream));
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_eq!(collected, delivered, "a slow sink must still deliver");
}

#[test]
fn ingest_fault_is_typed_and_retryable() {
    let (model, interner, traces, metrics) = trained(24);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    let plan = Arc::new(FaultPlan::new(chaos_seed()).once("serve.ingest", 0));
    let outputs = fault::with_plan(plan, || {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
        let mut outputs = Vec::new();
        let mut retried = 0usize;
        for t in &stream {
            loop {
                match pipeline.ingest(t.clone()) {
                    Ok(outs) => {
                        outputs.extend(outs);
                        break;
                    }
                    Err(ServeError::Ingest(msg)) => {
                        // The arrival was not consumed — retrying the same
                        // trace verbatim is the documented contract.
                        assert!(msg.contains("injected"));
                        retried += 1;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
        }
        outputs.extend(pipeline.flush().expect("flush"));
        assert_eq!(retried, 1, "the once-fault must fire exactly once");
        outputs
    });
    assert_outputs_bitwise_equal(&outputs, &expected);
}

/// A trace naming a component deployed after the pipeline cloned the
/// producer's name table is refused with a typed,
/// counted error before any state changes, nothing sealed so far is lost,
/// and a restore against the grown table carries on as if the pipeline had
/// been built against it.
#[test]
fn name_interned_after_the_pipeline_was_built_is_typed_and_restorable() {
    let (model, interner, traces, metrics) = trained(24);
    let mut stream = stream_of(&traces);
    let (grown, at) = deploy_mid_stream(&interner, &mut stream);
    let expected = baseline(&model, &grown, &metrics, &stream);

    let sink = Arc::new(MemorySink::new());
    let outputs = telemetry::with_sink(sink.clone(), || {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
        let mut outputs = Vec::new();
        for t in &stream[..at] {
            outputs.extend(pipeline.ingest(t.clone()).expect("known names"));
        }
        let before = pipeline.checkpoint().to_json().expect("checkpoint");
        match pipeline.ingest(stream[at].clone()) {
            Err(ServeError::UnknownSymbol(msg)) => {
                assert!(msg.contains("symbol #4"), "{msg}");
                assert!(msg.contains("holds 3 names"), "{msg}");
                assert!(msg.contains("restore()"), "{msg}");
            }
            other => panic!("expected a typed ingest error, got {other:?}"),
        }
        assert_eq!(
            pipeline.checkpoint().to_json().expect("checkpoint"),
            before,
            "a refused arrival must leave the pipeline untouched"
        );

        let mut pipeline = Pipeline::restore(&model, &grown, serve_config(), pipeline.checkpoint())
            .expect("restore against the grown table")
            .with_observations(metrics.clone());
        for t in &stream[at..] {
            outputs.extend(pipeline.ingest(t.clone()).expect("grown table"));
        }
        outputs.extend(pipeline.flush().expect("flush"));
        outputs
    });
    assert_eq!(sink.counter("serve.ingest.unknown_symbol"), 1);
    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn replay_parse_fault_is_a_typed_error() {
    let mut i = deeprest_trace::Interner::new();
    let c = i.intern("C");
    let o = i.intern("op");
    let api = i.intern("/x");
    let t = deeprest_trace::Trace::new(api, deeprest_trace::SpanNode::leaf(c, o));
    let json = deeprest_trace::jaeger::export(&[t], &i);

    let plan = Arc::new(FaultPlan::new(chaos_seed()).once("trace.parse", 0));
    fault::with_plan(plan, || {
        let mut fresh = deeprest_trace::Interner::new();
        let err = deeprest_serve::replay::load_document(&json, &mut fresh)
            .expect_err("injected parse fault must be a typed error");
        assert_eq!(err.kind(), "json");
        // And with the fault spent, the same document loads fine.
        let traces = deeprest_serve::replay::load_document(&json, &mut fresh)
            .expect("fault is spent, document is valid");
        assert_eq!(traces.len(), 1);
    });
}

#[test]
fn truncated_checkpoint_falls_back_to_previous_good_and_resumes_bit_exact() {
    let (model, interner, traces, metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    let dir = std::env::temp_dir().join(format!("deeprest-chaos-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);

    // Phase 1: serve the first third, checkpoint (good), serve the second
    // third, checkpoint again — but with the write fault truncating the
    // frame mid-stream, as if the process died during the write.
    let cut1 = stream.len() / 3;
    let cut2 = 2 * stream.len() / 3;
    let mut pipeline =
        Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    for t in &stream[..cut1] {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    store.save(&pipeline.checkpoint()).expect("good checkpoint");
    let good_at = outputs.len();

    for t in &stream[cut1..cut2] {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .once("serve.ckpt.write", 0)
            .payload(40),
    );
    fault::with_plan(plan, || {
        store
            .save(&pipeline.checkpoint())
            .expect("the truncation happens after the write succeeds logically");
    });

    // The newest file is corrupt — and is refused with a typed error, at
    // whatever offset the truncation landed.
    let err = deeprest_serve::checkpoint::load_file::<Checkpoint>(&store.latest_path())
        .expect_err("truncated checkpoint must be refused");
    assert!(
        matches!(
            err,
            CheckpointError::TooShort { .. } | CheckpointError::LengthMismatch { .. }
        ),
        "unexpected rejection: {err:?}"
    );

    // load_latest falls back to the previous good checkpoint; resuming
    // from it and replaying the arrivals since then reproduces the
    // uninterrupted run bit for bit.
    let checkpoint = store.load_latest().expect("prev.drck must still validate");
    let mut resumed = Pipeline::restore(&model, &interner, serve_config(), checkpoint)
        .expect("restore")
        .with_observations(metrics.clone());
    let mut resumed_outputs = Vec::new();
    for t in &stream[cut1..] {
        resumed_outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
    }
    resumed_outputs.extend(resumed.flush().expect("resumed flush"));

    let mut combined = expected[..good_at].to_vec();
    combined.extend(resumed_outputs);
    assert_outputs_bitwise_equal(&combined, &expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_round_trip_survives_parked_windows() {
    let (model, interner, traces, metrics) = trained(24);
    let stream = stream_of(&traces);
    let expected = baseline(&model, &interner, &metrics, &stream);

    // Park windows behind a persistent poison, checkpoint the wounded
    // pipeline, restore it, clear the fault — nothing is lost.
    let mut pipeline =
        Pipeline::new(&model, &interner, serve_config()).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    let plan = Arc::new(FaultPlan::new(chaos_seed()).window("stream.hidden", 2, u64::MAX));
    fault::with_plan(plan, || {
        for t in &stream {
            match pipeline.ingest(t.clone()) {
                Ok(outs) => outputs.extend(outs),
                Err(ServeError::PoisonedState { .. } | ServeError::Step { .. }) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    });
    assert!(
        pipeline.pending_windows() > 0,
        "fault must have parked windows"
    );

    let checkpoint = pipeline.checkpoint();
    let mut restored = Pipeline::restore(&model, &interner, serve_config(), checkpoint)
        .expect("restore")
        .with_observations(metrics.clone());
    assert_eq!(restored.pending_windows(), pipeline.pending_windows());
    outputs.extend(
        restored
            .flush()
            .expect("drain parked windows after restore"),
    );
    assert_outputs_bitwise_equal(&outputs, &expected);
}

/// A panic raised inside a sharded step reaches [`ServeError::Step`] with
/// its own message, whichever pool thread ran the chunk that raised it —
/// and reaches the caller of a batch query, which steps the same predictor
/// without the pipeline's healing, as that same panic.
#[test]
fn persistent_step_panic_surfaces_its_own_message_at_two_threads() {
    // 10 experts at 2 threads: the step fans out over two shards, so a
    // `pool.worker` panic is raised inside a chunk, not on the way in.
    let (model, interner, traces, _) = trained_wide(24, 5, 2);
    assert_eq!(model.stream_predictor().shard_count(), 2);
    let stream = stream_of(&traces);
    let config = ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0);
    for site in ["pool.worker", "stream.step"] {
        let plan = Arc::new(FaultPlan::new(17).always(site));
        let message = fault::with_plan(plan, || {
            let mut pipeline = Pipeline::new(&model, &interner, config);
            stream
                .iter()
                .find_map(|t| match pipeline.ingest(t.clone()) {
                    Err(ServeError::Step { message, .. }) => Some(message),
                    Ok(_) => None,
                    Err(other) => panic!("unexpected error: {other}"),
                })
                .expect("a persistent step fault must surface as ServeError::Step")
        });
        assert_eq!(message, format!("deeprest-fault: injected panic at {site}"));
    }

    // A batch estimate is a query, not a healed serve step: nothing catches
    // or retries, so even a one-shot fault unwinds out of it unchanged.
    let plan = Arc::new(FaultPlan::new(17).once("stream.step", 3));
    let payload = fault::with_plan(plan, || {
        std::panic::catch_unwind(|| model.estimate_from_traces(&traces, &interner))
    })
    .expect_err("the fourth window's step probe must unwind out of the query");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("deeprest-fault: injected panic at stream.step")
    );
}
