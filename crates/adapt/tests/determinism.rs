//! Determinism contracts of the adaptation loop:
//!
//! * the whole trajectory — serving outputs *and* adapted parameters — is
//!   bit-identical across worker thread counts;
//! * a mid-adaptation checkpoint/restore (mid-segment between updates, or
//!   right behind one) resumes bit-identically to the uninterrupted run;
//! * the adapter envelope survives `CheckpointStore`'s framed, CRC-checked
//!   persistence unchanged.

mod common;

use common::{
    adapt_config, assert_outputs_bitwise_equal, clone_model, dataset_with_drift, run_adaptive,
    stream_of, train_config, trained,
};
use deeprest_adapt::AdaptivePipeline;
use deeprest_core::DeepRest;
use deeprest_serve::{Checkpoint, CheckpointStore};

#[test]
fn adaptation_is_bit_identical_across_thread_counts() {
    // Fit the same model under explicit 1-thread and 4-thread pools, then
    // adapt both over a drifting stream: training, inference and the
    // online update must all be invariant to the pool width.
    let (interner, traces, metrics) = dataset_with_drift(64, 24, 24, 0.4);
    let stream = stream_of(&traces);
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let (model, _) = DeepRest::fit(
            &traces,
            &metrics,
            &interner,
            train_config().with_threads(threads),
        );
        let (pipeline, outputs) = run_adaptive(model, &interner, &metrics, &stream, adapt_config());
        assert!(
            pipeline.updates_run() >= 2,
            "the drifting stream must trigger updates (threads = {threads})"
        );
        let params: Vec<(String, Vec<f32>)> = pipeline
            .model()
            .parameters()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v.to_vec()))
            .collect();
        runs.push((outputs, params, pipeline.updates_run()));
    }
    let (ref out1, ref params1, updates1) = runs[0];
    let (ref out4, ref params4, updates4) = runs[1];
    assert_outputs_bitwise_equal(out4, out1);
    assert_eq!(
        updates4, updates1,
        "update schedule must not depend on threads"
    );
    // The serialized config differs (it records the pool width), so compare
    // the adapted parameters themselves — every tensor, every bit.
    assert_eq!(params4.len(), params1.len());
    for ((n4, v4), (n1, v1)) in params4.iter().zip(params1.iter()) {
        assert_eq!(n4, n1);
        assert_eq!(
            v4, v1,
            "adapted parameter {n1} diverged across thread counts"
        );
    }
}

#[test]
fn mid_adaptation_checkpoint_resume_is_bit_identical() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let config = adapt_config();

    // Uninterrupted reference run.
    let (reference, expected) =
        run_adaptive(clone_model(&model), &interner, &metrics, &stream, config);
    assert!(
        reference.updates_run() >= 2,
        "needs real updates to be a test"
    );

    // Two cuts. Mid-stream: after the first update has adapted the model,
    // inside a partially-staged segment. And right behind an update: the
    // arrival whose window ran one is the last before the checkpoint, so
    // the first window after the restore is the first to step the updated
    // parameters.
    let mut probe = AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
    let behind_update = stream
        .iter()
        .position(|t| {
            probe.ingest(t.clone()).expect("probe ingest");
            probe.updates_run() == 1
        })
        .expect("needs an update to cut behind")
        + 1;
    for cut in [stream.len() / 2 + 3, behind_update] {
        // Interrupted run: checkpoint at the cut, then restore from the
        // serialized bytes and continue.
        let mut first =
            AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
        let mut outputs = Vec::new();
        for t in &stream[..cut] {
            outputs.extend(first.ingest(t.clone()).expect("ingest"));
        }
        assert!(
            first.updates_run() >= 1,
            "the cut must land after at least one applied update"
        );
        let checkpoint = first.checkpoint().expect("checkpoint");
        let json = checkpoint.to_json().expect("serialize checkpoint");
        drop(first);

        let restored_ckpt = Checkpoint::from_json(&json).expect("parse checkpoint");
        let mut resumed =
            AdaptivePipeline::restore(&interner, metrics.clone(), config, &restored_ckpt)
                .expect("restore");
        for t in &stream[cut..] {
            outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
        }
        outputs.extend(resumed.flush().expect("resumed flush"));

        assert_outputs_bitwise_equal(&outputs, &expected);
        assert_eq!(resumed.updates_run(), reference.updates_run());
        assert_eq!(resumed.updates_failed(), reference.updates_failed());
        assert_eq!(resumed.replay_len(), reference.replay_len());
        assert_eq!(
            resumed.model().to_json().expect("resumed model"),
            reference.model().to_json().expect("reference model"),
            "the resumed trajectory must land on bit-identical parameters"
        );
    }
}

#[test]
fn adapter_checkpoints_survive_the_framed_store() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let config = adapt_config();
    let (_, expected) = run_adaptive(clone_model(&model), &interner, &metrics, &stream, config);

    let dir = std::env::temp_dir().join(format!("deeprest-adapt-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);

    let cut = stream.len() / 3;
    let mut first = AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
    let mut outputs = Vec::new();
    for t in &stream[..cut] {
        outputs.extend(first.ingest(t.clone()).expect("ingest"));
    }
    store
        .save(&first.checkpoint().expect("checkpoint"))
        .expect("save adaptive checkpoint");
    drop(first);

    let loaded = store.load_latest().expect("load adaptive checkpoint");
    let mut resumed = AdaptivePipeline::restore(&interner, metrics.clone(), config, &loaded)
        .expect("restore from store");
    for t in &stream[cut..] {
        outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
    }
    outputs.extend(resumed.flush().expect("resumed flush"));
    assert_outputs_bitwise_equal(&outputs, &expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restoring_a_plain_serve_checkpoint_is_a_typed_error() {
    let (model, interner, traces, metrics) = trained(24);
    let stream = stream_of(&traces);
    let mut serve = deeprest_serve::Pipeline::new(&model, &interner, common::serve_config())
        .with_observations(metrics.clone());
    for t in &stream {
        serve.ingest(t.clone()).expect("ingest");
    }
    let plain = serve.checkpoint();
    match AdaptivePipeline::restore(&interner, metrics, adapt_config(), &plain) {
        Ok(_) => panic!("plain serve checkpoints carry no adapter state"),
        Err(err) => assert!(matches!(
            err,
            deeprest_adapt::AdaptError::MissingAdapterState
        )),
    }
}

#[test]
fn late_arrival_is_counted_and_changes_nothing() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let config = adapt_config();
    let (_, expected) = run_adaptive(clone_model(&model), &interner, &metrics, &stream, config);

    // Halfway through, replay the very first arrival: it is far older than
    // the 2 s lateness bound, so it must be dropped — counted, not served.
    let cut = stream.len() / 2;
    let mut pipeline =
        AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
    let mut outputs = Vec::new();
    for t in &stream[..cut] {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    assert_eq!(pipeline.late_dropped(), 0);
    let late = pipeline.ingest(stream[0].clone()).expect("late ingest");
    assert!(late.is_empty(), "a late arrival seals nothing");
    assert_eq!(pipeline.late_dropped(), 1);
    for t in &stream[cut..] {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    outputs.extend(pipeline.flush().expect("flush"));
    assert_eq!(pipeline.late_dropped(), 1);
    assert_outputs_bitwise_equal(&outputs, &expected);
}
