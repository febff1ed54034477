//! Frozen-mode contract: with adaptation disabled the adaptive pipeline is
//! a drop-in for `deeprest_serve::Pipeline` — same outputs, bit for bit,
//! and the model never changes. This is what makes every existing golden
//! replay/chaos/scale fixture remain valid under the new subsystem.

mod common;

use common::{
    adapt_config, assert_outputs_bitwise_equal, clone_model, run_adaptive, serve_config, stream_of,
    trained,
};
use deeprest_serve::{Pipeline, WindowOutput};

fn serve_baseline(
    model: &deeprest_core::DeepRest,
    interner: &deeprest_trace::Interner,
    metrics: &deeprest_metrics::MetricsRegistry,
    stream: &[deeprest_trace::window::TimestampedTrace],
) -> Vec<WindowOutput> {
    let mut pipeline =
        Pipeline::new(model, interner, serve_config()).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("serve ingest"));
    }
    outputs.extend(pipeline.flush().expect("serve flush"));
    outputs
}

#[test]
fn frozen_pipeline_matches_serve_bitwise() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let expected = serve_baseline(&model, &interner, &metrics, &stream);
    assert!(!expected.is_empty());

    let (pipeline, outputs) = run_adaptive(
        clone_model(&model),
        &interner,
        &metrics,
        &stream,
        adapt_config().frozen(),
    );
    assert_outputs_bitwise_equal(&outputs, &expected);

    // Frozen means frozen: no updates, no drift tracking, and the model's
    // parameters are bit-identical to the trained ones.
    assert_eq!(pipeline.updates_run(), 0);
    assert_eq!(pipeline.updates_failed(), 0);
    assert_eq!(pipeline.driver().replay_len(), 0);
    assert!(pipeline
        .checkpoint()
        .adapter
        .calibration
        .observed
        .iter()
        .all(|&n| n == 0));
    assert_eq!(
        pipeline.model().to_json().expect("adapted model"),
        model.to_json().expect("trained model"),
        "frozen serving must never touch the parameters"
    );
}

#[test]
fn adaptation_changes_the_model_but_serves_every_window() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let expected = serve_baseline(&model, &interner, &metrics, &stream);

    let (pipeline, outputs) = run_adaptive(
        clone_model(&model),
        &interner,
        &metrics,
        &stream,
        adapt_config(),
    );
    assert_eq!(outputs.len(), expected.len(), "no window may be lost");
    assert!(
        pipeline.updates_run() >= 2,
        "48 windows at segment_len 8 / cadence 2 must fire ≥ 2 updates, got {}",
        pipeline.updates_run()
    );
    assert_eq!(pipeline.updates_failed(), 0);
    assert!(
        pipeline.driver().replay_len() >= 4,
        "complete segments enter replay"
    );
    assert_ne!(
        pipeline.model().to_json().expect("adapted model"),
        model.to_json().expect("trained model"),
        "successful updates must move the parameters"
    );
}
