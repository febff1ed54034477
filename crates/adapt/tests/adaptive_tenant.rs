//! An adaptive tenant in the multi-tenant registry, beside two frozen ones:
//!
//! * unloaded, every tenant — the adaptive one's final parameters included —
//!   is bit-identical to its solo pipeline;
//! * flooded to overload rung 2, the frozen tenants still equal their solo
//!   runs, the adaptive tenant skips its due updates while the ladder is
//!   frozen and resumes once it recovers;
//! * checkpointed at rung 2 through the framed store and loaded into a
//!   registry built the same way, the run continues bit-identically to the
//!   uninterrupted one, the resume included.
//!
//! CI's smoke command table runs this suite at `DEEPREST_THREADS` 1 and 4.

mod common;

use std::sync::Arc;

use common::{
    adapt_config, assert_outputs_bitwise_equal, assert_params_bitwise_equal, clone_model,
    parameter_values, run_adaptive, serve_config, stream_of, trained,
};
use deeprest_adapt::{AdapterState, AdaptivePipeline};
use deeprest_core::DeepRest;
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::tenant::TenantOutput;
use deeprest_serve::{
    CheckpointStore, MultiTenantCheckpoint, OverloadConfig, OverloadLevel, Pipeline, SchedConfig,
    TenantConfig, TenantRegistry, WindowOutput,
};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;
use serde::Deserialize;

/// Tenant 0 adapts; tenants 1 and 2 serve the same model frozen.
const TENANTS: usize = 3;
const ADAPTIVE: usize = 0;
/// Arrivals submitted to every tenant per scheduling round.
const CHUNK: usize = 8;
/// Rounds the adaptive tenant is flooded for: long enough for the update
/// due at its 16th window to fall inside the freeze.
const FLOOD_ROUNDS: u64 = 24;

/// Ladder thresholds above the 24 arrivals three tenants queue per round,
/// and below what the flooded tenant's 80-arrival queue adds to them.
fn tight_overload() -> OverloadConfig {
    OverloadConfig {
        shed_depth: 48,
        freeze_depth: 64,
        ..OverloadConfig::default()
    }
}

fn registry<'m>(
    model: &'m DeepRest,
    interner: &Interner,
    metrics: &MetricsRegistry,
    overload: OverloadConfig,
) -> TenantRegistry<'m> {
    let mut registry = TenantRegistry::new(SchedConfig::default(), overload);
    let adaptive = AdaptivePipeline::new(
        clone_model(model),
        interner,
        metrics.clone(),
        adapt_config(),
    );
    registry.add_pipeline(
        Pipeline::from(adaptive),
        TenantConfig::new("adaptive").with_queue_capacity(80),
    );
    for name in ["frozen1", "frozen2"] {
        let config = TenantConfig::new(name).with_queue_capacity(512);
        registry.add_tenant(model, interner, serve_config(), config);
    }
    registry
}

/// Runs up to `rounds` rounds, each submitting the next [`CHUNK`] arrivals
/// of `stream` to every tenant; returns the outputs and each round's rung.
fn run_rounds(
    registry: &mut TenantRegistry<'_>,
    stream: &[TimestampedTrace],
    cursor: &mut usize,
    rounds: u64,
) -> (Vec<TenantOutput>, Vec<OverloadLevel>) {
    let (mut outputs, mut levels) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        if *cursor == stream.len() {
            break;
        }
        let upto = (*cursor + CHUNK).min(stream.len());
        for arrival in &stream[*cursor..upto] {
            for t in 0..TENANTS {
                let _ = registry.submit(t, arrival.clone());
            }
        }
        *cursor = upto;
        let round = registry.run_round();
        assert!(round.errors.is_empty(), "pipelines must not error");
        outputs.extend(round.outputs);
        levels.push(round.level);
    }
    (outputs, levels)
}

/// Runs the rest of `stream`, then flushes.
fn finish(
    registry: &mut TenantRegistry<'_>,
    stream: &[TimestampedTrace],
    cursor: &mut usize,
) -> (Vec<TenantOutput>, Vec<OverloadLevel>) {
    let (mut outputs, levels) = run_rounds(registry, stream, cursor, u64::MAX);
    let flushed = registry.flush();
    assert!(flushed.errors.is_empty(), "flush must not error");
    outputs.extend(flushed.outputs);
    (outputs, levels)
}

fn outputs_of(all: &[TenantOutput], t: usize) -> Vec<WindowOutput> {
    all.iter()
        .filter(|o| o.tenant == t)
        .map(|o| o.output.clone())
        .collect()
}

/// The adaptive tenant's model and adapter state, as its checkpoint
/// carries them.
fn adaptive_state(registry: &TenantRegistry<'_>) -> (DeepRest, AdapterState) {
    let checkpoint = registry.checkpoint();
    let tree = checkpoint.tenants[ADAPTIVE]
        .driver
        .as_ref()
        .expect("the adaptive tenant checkpoints its driver");
    let field = |key| tree.as_object().and_then(|m| m.get(key)).expect(key);
    (
        DeepRest::from_value(field("model")).expect("model"),
        AdapterState::from_value(field("adapter")).expect("adapter state"),
    )
}

fn frozen_solo(
    model: &DeepRest,
    interner: &Interner,
    stream: &[TimestampedTrace],
) -> Vec<WindowOutput> {
    let mut pipeline = Pipeline::new(model, interner, serve_config());
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("solo ingest"));
    }
    outputs.extend(pipeline.flush().expect("solo flush"));
    outputs
}

/// Floods the adaptive tenant for [`FLOOD_ROUNDS`] rounds.
fn flood_plan() -> Arc<FaultPlan> {
    let submits = FLOOD_ROUNDS * (TENANTS * CHUNK) as u64;
    Arc::new(
        FaultPlan::new(17)
            .window("tenant.flood", 0, submits)
            .payload(ADAPTIVE as u64),
    )
}

#[test]
fn unloaded_tenants_equal_their_solo_pipelines() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let (solo, adaptive_expected) = run_adaptive(
        clone_model(&model),
        &interner,
        &metrics,
        &stream,
        adapt_config(),
    );
    assert!(solo.updates_run() >= 2, "the fixture must adapt");
    let frozen_expected = frozen_solo(&model, &interner, &stream);

    let mut registry = registry(&model, &interner, &metrics, OverloadConfig::default());
    let (outputs, levels) = finish(&mut registry, &stream, &mut 0);
    assert!(levels.iter().all(|&l| l == OverloadLevel::Normal));

    assert_outputs_bitwise_equal(&outputs_of(&outputs, ADAPTIVE), &adaptive_expected);
    for t in 1..TENANTS {
        assert_outputs_bitwise_equal(&outputs_of(&outputs, t), &frozen_expected);
    }
    let (adapted, state) = adaptive_state(&registry);
    assert_params_bitwise_equal(&parameter_values(&adapted), &parameter_values(solo.model()));
    assert_eq!(state.staging.updates_run, solo.updates_run());
}

#[test]
fn flooded_to_rung_two_suspends_adaptation_and_resumes_it() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);
    let frozen_expected = frozen_solo(&model, &interner, &stream);

    let mut registry = registry(&model, &interner, &metrics, tight_overload());
    let sink = Arc::new(MemorySink::new());
    let outputs = telemetry::with_sink(sink.clone(), || {
        let mut cursor = 0;
        let (mut outputs, levels) = fault::with_plan(flood_plan(), || {
            run_rounds(&mut registry, &stream, &mut cursor, FLOOD_ROUNDS)
        });
        assert!(levels.iter().all(|&l| l == OverloadLevel::Frozen));
        assert!(
            sink.counter("adapt.update.suspended") >= 1,
            "a due update must fall inside the freeze"
        );
        assert_eq!(sink.counter("adapt.updates.suspend"), 1);
        assert_eq!(sink.counter("adapt.updates.resume"), 0);

        let (rest, levels) = finish(&mut registry, &stream, &mut cursor);
        assert_eq!(levels[0], OverloadLevel::Normal, "the ladder recovers");
        outputs.extend(rest);
        outputs
    });
    assert!(sink.counter("fault.injected.tenant.flood") >= 1);
    assert_eq!(sink.counter("adapt.updates.resume"), 1);
    assert!(registry.stats(ADAPTIVE).shed > 0, "the flood is shed");

    for t in 1..TENANTS {
        assert_outputs_bitwise_equal(&outputs_of(&outputs, t), &frozen_expected);
        assert_eq!(registry.stats(t).shed, 0, "innocent tenant {t} was shed");
    }
    let (_, state) = adaptive_state(&registry);
    assert!(!state.staging.updates_suspended);
    assert!(state.staging.updates_run >= 1, "the deferred update ran");
}

#[test]
fn registry_checkpointed_at_rung_two_resumes_the_adaptive_tenant() {
    let (model, interner, traces, metrics) = trained(48);
    let stream = stream_of(&traces);

    let mut original = registry(&model, &interner, &metrics, tight_overload());
    let mut cursor = 0;
    fault::with_plan(flood_plan(), || {
        run_rounds(&mut original, &stream, &mut cursor, FLOOD_ROUNDS)
    });
    assert_eq!(original.overload_level(), OverloadLevel::Frozen);
    let (_, suspended) = adaptive_state(&original);
    assert!(suspended.staging.updates_suspended);
    assert!(suspended.staging.updates_skipped_suspended >= 1);

    let dir = std::env::temp_dir().join(format!("deeprest-adaptive-tenant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);
    let checkpoint = original.checkpoint();
    assert!(checkpoint.tenants[1..].iter().all(|t| t.driver.is_none()));
    store.save(&checkpoint).expect("save");
    let loaded: MultiTenantCheckpoint = store.load_latest().expect("load");
    assert_eq!(
        serde_json::to_string(&loaded).expect("loaded json"),
        serde_json::to_string(&checkpoint).expect("saved json"),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut restored = registry(&model, &interner, &metrics, tight_overload());
    restored
        .load(loaded)
        .expect("load into a registry built the same way");
    assert_eq!(restored.overload_level(), OverloadLevel::Frozen);

    let continued = |registry: &mut TenantRegistry<'_>| {
        let sink = Arc::new(MemorySink::new());
        let mut cursor = cursor;
        let (outputs, _) =
            telemetry::with_sink(sink.clone(), || finish(registry, &stream, &mut cursor));
        assert_eq!(sink.counter("adapt.updates.resume"), 1);
        outputs
    };
    let expected = continued(&mut original);
    let outputs = continued(&mut restored);

    assert_eq!(outputs.len(), expected.len());
    for (a, b) in outputs.iter().zip(&expected) {
        assert_eq!(a.tenant, b.tenant, "drain order");
    }
    for t in 0..TENANTS {
        assert_outputs_bitwise_equal(&outputs_of(&outputs, t), &outputs_of(&expected, t));
    }
    let (adapted, state) = adaptive_state(&restored);
    let (reference, reference_state) = adaptive_state(&original);
    assert_params_bitwise_equal(&parameter_values(&adapted), &parameter_values(&reference));
    assert!(state.staging.updates_run > suspended.staging.updates_run);
    assert_eq!(
        serde_json::to_string(&state).expect("state json"),
        serde_json::to_string(&reference_state).expect("reference json"),
    );
    assert_eq!(
        serde_json::to_string(&restored.checkpoint()).expect("restored json"),
        serde_json::to_string(&original.checkpoint()).expect("original json"),
        "the whole registry resumes bit-exactly"
    );
}
