//! Determinism contracts of the adaptation loop:
//!
//! * the whole trajectory — serving outputs *and* adapted parameters — is
//!   bit-identical across worker thread counts;
//! * a mid-adaptation checkpoint/restore (mid-segment between updates, or
//!   right behind one) resumes bit-identically to the uninterrupted run;
//! * an adaptive checkpoint survives `CheckpointStore`'s framed,
//!   CRC-checked persistence unchanged, and one with a retired key loads.

mod common;

use common::{
    adapt_config, assert_outputs_bitwise_equal, assert_params_bitwise_equal, clone_model,
    dataset_with_drift, load, parameter_values, run_adaptive, stream_of, train_config, trained,
};
use deeprest_adapt::{AdaptiveCheckpoint, AdaptivePipeline};
use deeprest_core::train::SEGMENT_LEN;
use deeprest_core::DeepRest;
use deeprest_metrics::{MetricKey, ResourceKind, TimeSeries};
use deeprest_serve::{CheckpointStore, Driver};

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
        let checkpoint = first.checkpoint();
        let json = checkpoint.to_json().expect("serialize checkpoint");
        drop(first);

        let restored_ckpt = AdaptiveCheckpoint::from_json(&json).expect("parse checkpoint");
        let mut resumed =
            AdaptivePipeline::restore(&interner, metrics.clone(), config, restored_ckpt)
                .expect("restore");
        for t in &stream[cut..] {
            outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
        }
        outputs.extend(resumed.flush().expect("resumed flush"));

        assert_outputs_bitwise_equal(&outputs, &expected);
        assert_eq!(resumed.updates_run(), reference.updates_run());
        assert_eq!(resumed.updates_failed(), reference.updates_failed());
        assert_eq!(
            resumed.driver().replay_len(),
            reference.driver().replay_len()
        );
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
        .save(&first.checkpoint())
        .expect("save adaptive checkpoint");
    drop(first);

    let loaded = store.load_latest().expect("load adaptive checkpoint");
    let mut resumed = AdaptivePipeline::restore(&interner, metrics.clone(), config, loaded)
        .expect("restore from store");
    for t in &stream[cut..] {
        outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
    }
    outputs.extend(resumed.flush().expect("resumed flush"));
    assert_outputs_bitwise_equal(&outputs, &expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misshapen_segments_are_refused_at_restore() {
    let (model, interner, traces, metrics) = trained(24);
    let stream = stream_of(&traces);
    let config = adapt_config();
    let (pipeline, _) = run_adaptive(model, &interner, &metrics, &stream, config);
    let intact = pipeline.checkpoint();
    assert!(
        !intact.adapter.replay.is_empty(),
        "needs a replay segment to shrink"
    );
    AdaptivePipeline::restore(&interner, metrics.clone(), config, intact.clone())
        .expect("the intact checkpoint restores");

    // Loaded, a short replay segment would fail every update that samples
    // it, and a full current segment would never seal again; only
    // `updates_failed`, or nothing, would say so.
    let refused = |checkpoint: AdaptiveCheckpoint, expect: &str| {
        let restored = AdaptivePipeline::restore(&interner, metrics.clone(), config, checkpoint);
        match restored {
            Err(msg) => assert!(msg.contains(expect), "{msg}"),
            Ok(_) => panic!("a misshapen {expect} must not restore"),
        }
    };
    let mut short = intact.clone();
    short.adapter.replay[0].xs.pop();
    refused(short, "replay segment 0");
    let mut full = intact;
    full.adapter.staging.cur_len = SEGMENT_LEN;
    refused(full, "current segment");
}

/// Before the adapter read its observations from the scoring stage, its
/// checkpoints carried a second copy of every expert's last raw observation
/// as `staging.prev_actual`, and before the gradient clip was a constant
/// the model's config carried it as `grad_clip`. Such a checkpoint still
/// loads, resumes to the outputs and parameters of the uninterrupted run,
/// and is written back without either key.
#[test]
fn checkpoints_with_the_retired_prev_actual_key_still_load() {
    let windows = 48;
    let (interner, traces, mut metrics) = dataset_with_drift(windows, 16, 16, 0.4);
    // A cumulative resource, trained and scored on its increments: the
    // series the retired key was the base of. It drops once (a reset).
    let mut disk = 100.0;
    let disk = (0..windows).map(|t| {
        disk += if t == 30 { -5.0 } else { 0.1 * load(t) as f64 };
        disk
    });
    let key = MetricKey::new("Frontend", ResourceKind::DiskUsage);
    metrics.insert(key, disk.collect::<TimeSeries>());
    let (model, _) = DeepRest::fit(&traces, &metrics, &interner, train_config());
    let stream = stream_of(&traces);
    let config = adapt_config();
    let (reference, expected) =
        run_adaptive(clone_model(&model), &interner, &metrics, &stream, config);

    let cut = stream.len() * 2 / 3;
    let mut first = AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
    let mut outputs = Vec::new();
    for t in &stream[..cut] {
        outputs.extend(first.ingest(t.clone()).expect("ingest"));
    }
    assert!(
        first.updates_run() >= 1,
        "the cut must land after an update"
    );
    let json = first.checkpoint().to_json().expect("serialize checkpoint");

    // What the previous release wrote: the last scored window's raw
    // observation per expert, between `cur_observed` and `segments_sealed`.
    let last = outputs.last().expect("scored windows").window;
    let observed: Vec<String> = first
        .keys()
        .iter()
        .map(|k| serde_json::to_string(&metrics.get(k).expect("series").get(last)).unwrap())
        .collect();
    let retired = format!(r#""prev_actual":[{}],"#, observed.join(","));
    assert_eq!(json.matches(r#","segments_sealed":"#).count(), 1);
    assert_eq!(json.matches(r#","api_mask":"#).count(), 1);
    let old = json
        .replace(
            r#","segments_sealed":"#,
            &format!(r#",{retired}"segments_sealed":"#),
        )
        .replace(r#","api_mask":"#, r#","grad_clip":5.0,"api_mask":"#);
    let loaded = AdaptiveCheckpoint::from_json(&old).expect("the retired key is ignored");
    assert_eq!(loaded.to_json().expect("re-serialize"), json);
    drop(first);

    let mut resumed =
        AdaptivePipeline::restore(&interner, metrics.clone(), config, loaded).expect("restore");
    for t in &stream[cut..] {
        outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
    }
    outputs.extend(resumed.flush().expect("resumed flush"));
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_params_bitwise_equal(
        &parameter_values(resumed.model()),
        &parameter_values(reference.model()),
    );
}

/// Overload rung 2 across a checkpoint: updates are suspended through at
/// least one due cadence firing, the pipeline is checkpointed and restored
/// while still suspended, and after resume the deferred update runs at the
/// first segment seal — exactly as in the uninterrupted run.
#[test]
fn suspended_updates_survive_a_checkpoint_and_run_deferred_after_resume() {
    const SUSPEND_AT: usize = 18;
    const CUT_AT: usize = 34;
    const RESUME_AT: usize = 36;
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    // Drift watch off keeps the cadence at every second segment: updates
    // fall due at windows 16, 32 and 48, so the freeze skips the one at 32
    // and only its kept due-pressure makes the seal at 40 run an update.
    let mut config = adapt_config();
    config.drift.watch = f64::MAX;

    let run = |cut: bool| {
        let mut pipeline =
            AdaptivePipeline::new(clone_model(&model), &interner, metrics.clone(), config);
        let mut outputs = Vec::new();
        let (mut pending_cut, mut resumed_with, mut deferred_ran) = (cut, None, false);
        for t in &stream {
            let position = pipeline.position();
            if (SUSPEND_AT..RESUME_AT).contains(&position) {
                pipeline.driver_mut().suspend(true);
            }
            if pending_cut && position >= CUT_AT {
                assert!(
                    pipeline.driver().updates_suspended()
                        && pipeline.driver().updates_skipped_suspended() >= 1
                );
                let json = pipeline.checkpoint().to_json().expect("serialize");
                let checkpoint = AdaptiveCheckpoint::from_json(&json).expect("parse");
                pipeline =
                    AdaptivePipeline::restore(&interner, metrics.clone(), config, checkpoint)
                        .expect("restore while suspended");
                assert!(
                    pipeline.driver().updates_suspended(),
                    "suspension is checkpointed"
                );
                pending_cut = false;
            }
            if position >= RESUME_AT && pipeline.driver().updates_suspended() {
                pipeline.driver_mut().suspend(false);
                resumed_with = Some(pipeline.updates_run());
            }
            outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
            let sealed = pipeline.position() / SEGMENT_LEN > position / SEGMENT_LEN;
            if let (Some(before), true, false) = (resumed_with, sealed, deferred_ran) {
                assert_eq!(
                    pipeline.updates_run(),
                    before + 1,
                    "the deferred update runs at the first seal after resume"
                );
                deferred_ran = true;
            }
        }
        outputs.extend(pipeline.flush().expect("flush"));
        assert!(!pending_cut, "the stream must reach the cut");
        assert!(deferred_ran, "the stream must seal a segment after resume");
        assert!(!pipeline.driver().updates_suspended());
        assert_eq!(pipeline.updates_failed(), 0);
        let stats = (
            pipeline.updates_run(),
            pipeline.driver().updates_skipped_suspended(),
        );
        (outputs, stats, parameter_values(pipeline.model()))
    };
    let (expected, stats, params) = run(false);
    assert!(stats.1 >= 1, "suspension must span a due update");
    let (outputs, resumed_stats, resumed_params) = run(true);
    assert_outputs_bitwise_equal(&outputs, &expected);
    assert_eq!(resumed_stats, stats);
    assert_params_bitwise_equal(&resumed_params, &params);
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
