//! Golden replay: streaming the same windows through the serving pipeline
//! must reproduce the batch path bit for bit — features, predictions,
//! anomaly scores, and alerts — both on the checked-in Jaeger fixture and
//! on a longer synthetic stream, and a checkpoint/restore cycle must
//! resume without perturbing a single bit.

mod common;

use std::collections::BTreeMap;

use common::{assert_outputs_bitwise_equal, stream_of, trained, WINDOW_SECS};
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_serve::replay::spread_evenly;
use deeprest_serve::{batch_reference, Checkpoint, CollectSink, Pipeline, ServeConfig};
use deeprest_trace::stream::{SealedWindow, WindowAssembler};
use deeprest_trace::window::{partition, TimestampedTrace, WindowedTraces};
use deeprest_trace::{jaeger, Interner};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../core/tests/fixtures/mini_jaeger.json"
);

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0)
}

/// Seals the whole stream through a fresh assembler (the sealed windows the
/// pipeline under test must have seen).
fn seal_all(stream: &[TimestampedTrace], config: &ServeConfig) -> Vec<SealedWindow> {
    let mut assembler = WindowAssembler::new(config.window_secs, config.lateness_secs);
    let mut sealed = Vec::new();
    for t in stream {
        sealed.extend(assembler.push(t.clone()));
    }
    sealed.extend(assembler.flush());
    sealed
}

/// Per-component synthetic CPU (1.0 + 0.5 · span count) so fixture replays
/// have something to train and score against.
fn synthetic_metrics(windows: &WindowedTraces, interner: &Interner) -> MetricsRegistry {
    let mut counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (t, window) in windows.windows.iter().enumerate() {
        for trace in window {
            trace.root.visit(&mut |s| {
                counts
                    .entry(interner.resolve(s.component).to_owned())
                    .or_insert_with(|| vec![0.0; windows.len()])[t] += 1.0;
            });
        }
    }
    let mut metrics = MetricsRegistry::new();
    for (component, series) in counts {
        let cpu: TimeSeries = series.iter().map(|c| 1.0 + 0.5 * c).collect();
        metrics.insert(MetricKey::new(component, ResourceKind::Cpu), cpu);
    }
    metrics
}

#[test]
fn jaeger_fixture_replay_matches_batch_bitwise() {
    let json = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let mut interner = Interner::new();
    let traces = jaeger::import_timestamped(&json, &mut interner).expect("fixture imports");
    let stream = spread_evenly(traces, 0.4);

    let config = serve_config();
    let last = stream.iter().map(|t| t.at_secs).fold(0.0f64, f64::max);
    let count = (last / config.window_secs) as usize + 1;
    let windowed = partition(stream.iter().cloned(), config.window_secs, count);
    let metrics = synthetic_metrics(&windowed, &interner);
    let train = DeepRestConfig {
        hidden_dim: 8,
        epochs: 2,
        ..DeepRestConfig::default()
    }
    .with_seed(11);
    let (model, _) = DeepRest::fit(&windowed, &metrics, &interner, train);

    let mut pipeline = Pipeline::new(&model, &interner, config).with_observations(metrics.clone());
    let mut streamed = Vec::new();
    for t in &stream {
        streamed.extend(pipeline.ingest(t.clone()).unwrap());
    }
    streamed.extend(pipeline.flush().unwrap());

    let sealed = seal_all(&stream, &config);
    assert!(!sealed.is_empty(), "fixture must seal at least one window");

    // Features bit-identical: the sealed windows hold exactly the traces
    // the batch partition put in the same slots.
    for w in &sealed {
        let from_stream = model.window_features(&w.traces, &interner);
        let from_batch = model.window_features(&windowed.windows[w.index], &interner);
        assert_eq!(from_stream.len(), from_batch.len());
        for (a, b) in from_stream.iter().zip(&from_batch) {
            assert_eq!(a.to_bits(), b.to_bits(), "feature drifted");
        }
    }

    let reference = batch_reference(&model, &sealed, &interner, Some(&metrics), &config);
    assert_outputs_bitwise_equal(&streamed, &reference);
}

#[test]
fn long_stream_with_observations_matches_batch_bitwise() {
    let (model, interner, traces, metrics) = trained(96);
    let stream = stream_of(&traces);
    let config = serve_config();

    let sink = CollectSink::new();
    let mut pipeline = Pipeline::new(&model, &interner, config)
        .with_observations(metrics.clone())
        .with_sink(sink.clone());
    let mut streamed = Vec::new();
    for t in &stream {
        streamed.extend(pipeline.ingest(t.clone()).unwrap());
    }
    streamed.extend(pipeline.flush().unwrap());
    assert_eq!(streamed.len(), traces.len(), "every window sealed");
    assert_eq!(pipeline.late_dropped(), 0);

    let reference = batch_reference(
        &model,
        &seal_all(&stream, &config),
        &interner,
        Some(&metrics),
        &config,
    );
    assert_outputs_bitwise_equal(&streamed, &reference);

    // Sinks saw exactly the alerts the outputs report.
    let from_outputs: Vec<_> = streamed.iter().flat_map(|o| o.alerts.clone()).collect();
    assert_eq!(sink.snapshot(), from_outputs);
}

#[test]
fn pipeline_checkpoint_restore_resumes_bitwise() {
    let (model, interner, traces, metrics) = trained(64);
    let stream = stream_of(&traces);
    let config = serve_config();
    // Cut mid-stream, away from any window boundary in arrival order.
    let cut = stream.len() / 2 + 3;

    let mut uninterrupted =
        Pipeline::new(&model, &interner, config).with_observations(metrics.clone());
    let mut expected = Vec::new();
    for t in &stream {
        expected.extend(uninterrupted.ingest(t.clone()).unwrap());
    }
    expected.extend(uninterrupted.flush().unwrap());

    let mut first = Pipeline::new(&model, &interner, config).with_observations(metrics.clone());
    let mut outputs = Vec::new();
    for t in &stream[..cut] {
        outputs.extend(first.ingest(t.clone()).unwrap());
    }
    // Round-trip the checkpoint through its JSON wire format.
    let json = first.checkpoint().to_json().expect("checkpoint serializes");
    drop(first);
    let checkpoint = Checkpoint::from_json(&json).expect("checkpoint parses");
    let mut resumed = Pipeline::restore(&model, &interner, config, checkpoint)
        .expect("checkpoint matches model")
        .with_observations(metrics.clone());
    for t in &stream[cut..] {
        outputs.extend(resumed.ingest(t.clone()).unwrap());
    }
    outputs.extend(resumed.flush().unwrap());

    assert_outputs_bitwise_equal(&outputs, &expected);
}

#[test]
fn restore_rejects_checkpoint_from_other_model() {
    let (model, interner, traces, _) = trained(32);
    let stream = stream_of(&traces);
    let config = serve_config();
    let mut pipeline = Pipeline::new(&model, &interner, config);
    for t in &stream[..8] {
        pipeline.ingest(t.clone()).unwrap();
    }
    let checkpoint = pipeline.checkpoint();

    let (other, other_interner, _, _) = {
        let (i, traces, metrics) = common::tiny_dataset(32);
        let cfg = DeepRestConfig {
            hidden_dim: 5, // different hidden width than the checkpoint
            epochs: 1,
            ..DeepRestConfig::default()
        };
        let (m, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
        (m, i, (), ())
    };
    assert!(Pipeline::restore(&other, &other_interner, config, checkpoint).is_err());
}
