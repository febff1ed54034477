//! Chaos tests for the multi-tenant front end: with one tenant flooded
//! at 10× through the `tenant.flood` probe, every *other* tenant's
//! per-window estimates must be **bit-identical** to a flood-free run,
//! every shed/suspension/rejection must surface as a typed counter
//! (never silent), and a mid-overload checkpoint must resume bit-exactly
//! through the CRC-framed store.
//!
//! The CI overload-smoke job re-runs this suite under a seed matrix via
//! `DEEPREST_CHAOS_SEED` (the flood/stall schedules here use
//! deterministic windows, so every seed must pass identically).

mod common;

use std::sync::{Arc, Mutex};

use common::{assert_outputs_bitwise_equal, deploy_mid_stream, stream_of, trained, WINDOW_SECS};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_serve::overload::{BreakerConfig, BreakerPhase};
use deeprest_serve::tenant::TenantOutput;
use deeprest_serve::{
    CheckpointStore, MultiTenantCheckpoint, OverloadConfig, OverloadLevel, Pipeline, PriorityClass,
    SchedConfig, ServeConfig, ServeError, TenantConfig, TenantRegistry, WindowOutput,
};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;

/// Seed of the fault schedules; the CI overload-smoke job sweeps a small
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

/// Arrivals submitted per tenant per scheduling round by [`drive`].
const CHUNK: usize = 8;

/// The bit-exactness reference: the same stream through a solo
/// single-tenant pipeline with nothing else on the box.
fn solo_baseline(
    model: &deeprest_core::DeepRest,
    interner: &deeprest_trace::Interner,
    stream: &[TimestampedTrace],
) -> Vec<WindowOutput> {
    let mut pipeline = Pipeline::new(model, interner, serve_config());
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("baseline ingest"));
    }
    outputs.extend(pipeline.flush().expect("baseline flush"));
    outputs
}

/// What a full multi-tenant run observed, round by round.
#[derive(Default)]
struct RunLog {
    outputs: Vec<TenantOutput>,
    levels: Vec<OverloadLevel>,
    watched_phases: Vec<BreakerPhase>,
    stalled_rounds: usize,
}

/// Feeds every tenant its stream in [`CHUNK`]-sized slices, one slice per
/// scheduling round (ticks), then flushes. `watched` selects the tenant
/// whose breaker phase is sampled after every round.
fn drive(
    registry: &mut TenantRegistry<'_>,
    streams: &[&[TimestampedTrace]],
    watched: usize,
) -> RunLog {
    let mut log = RunLog::default();
    let mut cursors = vec![0usize; streams.len()];
    while cursors.iter().zip(streams).any(|(&c, s)| c < s.len()) {
        submit_tick(registry, streams, &mut cursors);
        let round = registry.run_round();
        assert!(round.errors.is_empty(), "pipelines must not error");
        log.outputs.extend(round.outputs);
        log.levels.push(round.level);
        log.watched_phases.push(registry.breaker_phase(watched));
        if round.stalled {
            log.stalled_rounds += 1;
        }
    }
    let flushed = registry.flush();
    assert!(flushed.errors.is_empty(), "flush must not error");
    log.outputs.extend(flushed.outputs);
    log
}

/// Submits the next [`CHUNK`] arrivals of every tenant's stream.
/// Rejections are the registry's business (counted there); the driver
/// models a client that does not retry.
fn submit_tick(
    registry: &mut TenantRegistry<'_>,
    streams: &[&[TimestampedTrace]],
    cursors: &mut [usize],
) {
    for (t, stream) in streams.iter().enumerate() {
        let upto = (cursors[t] + CHUNK).min(stream.len());
        for arrival in &stream[cursors[t]..upto] {
            let _ = registry.submit(t, arrival.clone());
        }
        cursors[t] = upto;
    }
}

/// Projects one tenant's windows out of a mixed output stream.
fn outputs_of(all: &[TenantOutput], t: usize) -> Vec<WindowOutput> {
    all.iter()
        .filter(|o| o.tenant == t)
        .map(|o| o.output.clone())
        .collect()
}

fn assert_tenant_streams_equal(a: &[TenantOutput], b: &[TenantOutput], tenants: usize) {
    assert_eq!(a.len(), b.len(), "output count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.tenant, y.tenant, "producing-tenant order");
    }
    for t in 0..tenants {
        assert_outputs_bitwise_equal(&outputs_of(a, t), &outputs_of(b, t));
    }
}

fn sched_config() -> SchedConfig {
    SchedConfig {
        quantum: 4,
        round_budget: 0,
        deficit_cap: 64,
    }
}

/// Ladder thresholds sized to the [`drive`] workload so a flooded tenant
/// actually walks the rungs inside the test.
fn tight_overload(breaker: BreakerConfig) -> OverloadConfig {
    OverloadConfig {
        shed_depth: 24,
        freeze_depth: 32,
        shed_watermark: 0.5,
        recover_fraction: 0.5,
        breaker,
    }
}

#[test]
fn multi_tenant_outputs_match_solo_pipelines_bitwise() {
    let (model, interner, traces, _metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = solo_baseline(&model, &interner, &stream);

    let mut registry = TenantRegistry::new(sched_config(), OverloadConfig::default());
    for (name, priority) in [
        ("alpha", PriorityClass::Critical),
        ("bravo", PriorityClass::Standard),
        ("charlie", PriorityClass::BestEffort),
    ] {
        registry.add_tenant(
            &model,
            &interner,
            serve_config(),
            TenantConfig::new(name)
                .with_priority(priority)
                .with_queue_capacity(512),
        );
    }

    let streams = [stream.as_slice(), stream.as_slice(), stream.as_slice()];
    let log = drive(&mut registry, &streams, 0);

    for t in 0..3 {
        assert_outputs_bitwise_equal(&outputs_of(&log.outputs, t), &expected);
        let stats = registry.stats(t);
        assert_eq!(stats.admitted, stream.len() as u64, "tenant {t} admitted");
        assert_eq!(stats.shed, 0);
        assert_eq!(
            stats.rejected_window_quota
                + stats.rejected_byte_quota
                + stats.rejected_breaker
                + stats.rejected_queue,
            0,
            "an unloaded run must reject nothing"
        );
    }
    assert!(log.levels.iter().all(|&l| l == OverloadLevel::Normal));
}

#[test]
fn flooded_tenant_is_isolated_and_degradation_is_counted() {
    let (model, interner, traces, _metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = solo_baseline(&model, &interner, &stream);

    let breaker = BreakerConfig {
        trip_rounds: 3,
        backoff_rounds: 4,
        backoff_cap: 64,
    };
    let mut registry = TenantRegistry::new(sched_config(), tight_overload(breaker));
    registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("alpha")
            .with_priority(PriorityClass::Critical)
            .with_queue_capacity(512),
    );
    let flooded = registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("bravo")
            .with_priority(PriorityClass::BestEffort)
            .with_queue_capacity(40)
            .with_window_quota(12),
    );
    registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("charlie")
            .with_priority(PriorityClass::Standard)
            .with_queue_capacity(512),
    );

    let ladder = Arc::new(Mutex::new(Vec::new()));
    let ladder_log = Arc::clone(&ladder);
    registry.set_overload_hook(move |level| {
        ladder_log.lock().expect("hook lock").push(level);
    });

    // Flood tenant `bravo` for the first 10 rounds (24 submissions per
    // round across the three tenants).
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .window("tenant.flood", 0, 240)
            .payload(flooded as u64),
    );
    let sink = Arc::new(MemorySink::new());
    let streams = [stream.as_slice(), stream.as_slice(), stream.as_slice()];
    let log = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || drive(&mut registry, &streams, flooded))
    });

    assert!(
        sink.counter("fault.injected.tenant.flood") >= 1,
        "the flood probe never fired"
    );
    assert!(sink.counter("serve.tenant.flood.injected") >= 1);

    // The isolation contract: both non-flooded tenants are bit-identical
    // to the unloaded solo run.
    assert_outputs_bitwise_equal(&outputs_of(&log.outputs, 0), &expected);
    assert_outputs_bitwise_equal(&outputs_of(&log.outputs, 2), &expected);
    for t in [0usize, 2] {
        let stats = registry.stats(t);
        assert_eq!(stats.shed, 0, "innocent tenant {t} was shed");
        assert_eq!(
            stats.rejected_window_quota
                + stats.rejected_byte_quota
                + stats.rejected_breaker
                + stats.rejected_queue,
            0,
            "innocent tenant {t} was rejected"
        );
    }

    // The flooded tenant pays for its own flood — and every consequence
    // is a typed counter, never silent.
    let stats = *registry.stats(flooded);
    assert!(stats.rejected_window_quota > 0, "quota must have rejected");
    assert!(stats.rejected_breaker > 0, "breaker must have rejected");
    assert!(stats.shed > 0, "the ladder must have shed");
    assert_eq!(
        sink.counter("serve.tenant.rejected.window_quota"),
        stats.rejected_window_quota
    );
    assert_eq!(
        sink.counter("serve.tenant.rejected.breaker"),
        stats.rejected_breaker
    );
    assert_eq!(sink.counter("serve.overload.shed"), stats.shed);
    assert_eq!(sink.counter("serve.tenant.bravo.shed"), stats.shed);

    // The ladder walked both rungs, recovered at least once, and the
    // hook (the adapt suspend/resume integration point) saw the freeze
    // and the recovery from it.
    assert!(log.levels.contains(&OverloadLevel::Shed));
    assert!(log.levels.contains(&OverloadLevel::Frozen));
    assert!(sink.counter("serve.overload.entered.shed") >= 1);
    assert!(sink.counter("serve.overload.entered.frozen") >= 1);
    assert!(sink.counter("serve.overload.recovered") >= 1);
    let ladder = ladder.lock().expect("ladder lock").clone();
    let frozen_at = ladder
        .iter()
        .position(|&l| l == OverloadLevel::Frozen)
        .expect("hook must see Frozen");
    assert!(
        ladder[frozen_at..]
            .iter()
            .any(|&l| l < OverloadLevel::Frozen),
        "hook must see the recovery that resumes adaptation"
    );

    // The breaker opened (twice: the probe re-admission failed mid-flood
    // and re-opened with doubled backoff), then closed once clean.
    assert!(sink.counter("serve.tenant.breaker.open") >= 2);
    assert!(sink.counter("serve.tenant.breaker.half_open") >= 1);
    assert!(sink.counter("serve.tenant.breaker.closed") >= 1);
    let opened_at = log
        .watched_phases
        .iter()
        .position(|&p| p == BreakerPhase::Open)
        .expect("breaker must open");
    assert!(
        log.watched_phases[opened_at..].contains(&BreakerPhase::Closed),
        "breaker must close again after the flood ends"
    );
}

#[test]
fn sched_stall_delays_but_never_changes_outputs() {
    let (model, interner, traces, _metrics) = trained(32);
    let stream = stream_of(&traces);
    let expected = solo_baseline(&model, &interner, &stream);

    let mut registry = TenantRegistry::new(sched_config(), OverloadConfig::default());
    for name in ["alpha", "bravo"] {
        registry.add_tenant(
            &model,
            &interner,
            serve_config(),
            TenantConfig::new(name).with_queue_capacity(512),
        );
    }

    // Rounds 1–4 get a zero processing budget: nothing drains, the
    // backlog is conserved, and the stall is counted — outputs are
    // delayed, bit-identical, and complete.
    let plan = Arc::new(FaultPlan::new(chaos_seed()).window("sched.stall", 1, 5));
    let sink = Arc::new(MemorySink::new());
    let streams = [stream.as_slice(), stream.as_slice()];
    let log = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || drive(&mut registry, &streams, 0))
    });

    assert!(sink.counter("fault.injected.sched.stall") >= 1);
    assert!(sink.counter("serve.sched.stalled") >= 1);
    assert!(log.stalled_rounds >= 1, "stalled rounds must be reported");
    for t in 0..2 {
        assert_outputs_bitwise_equal(&outputs_of(&log.outputs, t), &expected);
        assert_eq!(registry.stats(t).shed, 0);
    }
}

/// One tenant is sent a trace naming a component deployed after the
/// registry took its name table. Its pipeline refuses the trace every time
/// it is offered, so the registry has to consume it: drained and counted
/// once (`serve.ingest.unknown_symbol`, one [`TenantError`]), the tenant's
/// queue moving again by the next round, everything else it was sent served,
/// the other tenant untouched — with a fault plan armed (when the registry
/// keeps retry copies) and without.
///
/// [`TenantError`]: deeprest_serve::tenant::TenantError
#[test]
fn refused_arrival_is_drained_once_and_holds_nobody_up() {
    let (model, interner, traces, _metrics) = trained(32);
    let clean = stream_of(&traces);
    let expected = solo_baseline(&model, &interner, &clean);
    let mut dirty = clean.clone();
    deploy_mid_stream(&interner, &mut dirty);
    let streams = [clean.as_slice(), dirty.as_slice()];

    for armed in [false, true] {
        let mut registry = TenantRegistry::new(sched_config(), OverloadConfig::default());
        for name in ["alpha", "bravo"] {
            registry.add_tenant(
                &model,
                &interner,
                serve_config(),
                TenantConfig::new(name).with_queue_capacity(512),
            );
        }
        let sink = Arc::new(MemorySink::new());
        let mut run = || {
            let mut cursors = vec![0usize; streams.len()];
            let (mut outputs, mut errors, mut drained) = (Vec::new(), Vec::new(), 0);
            // Whether the refusal was reported in the previous round.
            let mut just_refused = false;
            // Rounds until everything submitted has been drained, so that
            // `drained` below counts every arrival.
            while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len())
                || registry.queue_depth(0) + registry.queue_depth(1) > 0
            {
                submit_tick(&mut registry, &streams, &mut cursors);
                let queued = registry.queue_depth(1);
                let round = registry.run_round();
                if just_refused {
                    assert!(round.errors.is_empty(), "the refusal was reported again");
                    assert!(
                        registry.queue_depth(1) < queued,
                        "the queue is still held up"
                    );
                }
                just_refused = !round.errors.is_empty();
                drained += round.drained;
                outputs.extend(round.outputs);
                errors.extend(round.errors);
            }
            let flushed = registry.flush();
            assert!(flushed.errors.is_empty(), "flush must not error");
            outputs.extend(flushed.outputs);
            (outputs, errors, drained)
        };
        // A probe nothing on this path reaches: the plan is armed, it never
        // fires.
        let plan = Arc::new(FaultPlan::new(chaos_seed()).once("test.unreached", 0));
        let (outputs, errors, drained) = telemetry::with_sink(sink.clone(), || match armed {
            true => fault::with_plan(plan, run),
            false => run(),
        });

        assert_eq!(errors.len(), 1, "armed={armed}: one refusal, reported once");
        assert_eq!(errors[0].tenant, 1);
        assert!(
            matches!(errors[0].error, ServeError::UnknownSymbol(_)),
            "armed={armed}: {:?}",
            errors[0].error
        );
        assert_eq!(sink.counter("serve.ingest.unknown_symbol"), 1);
        assert_eq!(
            drained,
            (clean.len() + dirty.len()) as u64,
            "armed={armed}: every arrival drained, the refused one included"
        );
        for t in 0..2 {
            assert_outputs_bitwise_equal(&outputs_of(&outputs, t), &expected);
        }
    }
}

#[test]
fn mid_overload_checkpoint_resume_is_bit_exact() {
    let (model, interner, traces, _metrics) = trained(32);
    let stream = stream_of(&traces);

    let breaker = BreakerConfig {
        trip_rounds: 3,
        backoff_rounds: 16,
        backoff_cap: 64,
    };
    let mut registry = TenantRegistry::new(sched_config(), tight_overload(breaker));
    registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("alpha")
            .with_priority(PriorityClass::Critical)
            .with_queue_capacity(512),
    );
    registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("bravo")
            .with_priority(PriorityClass::BestEffort)
            .with_queue_capacity(40)
            .with_byte_quota(12 * deeprest_serve::tenant::EST_SPAN_BYTES),
    );
    registry.add_tenant(
        &model,
        &interner,
        serve_config(),
        TenantConfig::new("charlie")
            .with_priority(PriorityClass::Standard)
            .with_queue_capacity(512),
    );

    // Phase 1: flood tenant 1 for 4 rounds (96 submissions), keep running
    // to round 8 so the flood window is fully spent, then stop with the
    // breaker still open and the ladder still elevated — checkpointing
    // *mid-overload*, with round 8's arrivals still queued.
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .window("tenant.flood", 0, 96)
            .payload(1),
    );
    let streams = [stream.as_slice(), stream.as_slice(), stream.as_slice()];
    let mut cursors = vec![0usize; streams.len()];
    fault::with_plan(plan, || {
        for _ in 0..8 {
            submit_tick(&mut registry, &streams, &mut cursors);
            let round = registry.run_round();
            assert!(round.errors.is_empty());
        }
        submit_tick(&mut registry, &streams, &mut cursors);
    });
    assert_eq!(
        registry.breaker_phase(1),
        BreakerPhase::Open,
        "the checkpoint must capture an open breaker"
    );
    assert!(
        registry.overload_level() >= OverloadLevel::Shed,
        "the checkpoint must capture an elevated ladder rung"
    );
    assert!(registry.queue_depth(0) > 0, "arrivals must still be queued");

    // Persist through the CRC-framed store and restore a second registry.
    let dir = std::env::temp_dir().join(format!("deeprest-tenant-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);
    let checkpoint = registry.checkpoint();
    store.save(&checkpoint).expect("save");
    let loaded: MultiTenantCheckpoint = store.load_latest().expect("load");
    assert_eq!(
        loaded.to_json().expect("loaded json"),
        checkpoint.to_json().expect("saved json"),
        "the store must round-trip the checkpoint byte-exactly"
    );
    let mut restored = TenantRegistry::restore(
        vec![(&model, &interner); 3],
        sched_config(),
        tight_overload(breaker),
        loaded,
    )
    .expect("restore");
    assert_eq!(restored.round(), registry.round());
    assert_eq!(restored.breaker_phase(1), BreakerPhase::Open);
    assert_eq!(restored.overload_level(), registry.overload_level());

    // Phase 2: continue both registries through the rest of the stream
    // (no faults — the flood window is spent) and compare everything.
    let mut cursors_b = cursors.clone();
    let log_a = {
        let mut log = RunLog::default();
        loop {
            let round = registry.run_round();
            assert!(round.errors.is_empty());
            log.outputs.extend(round.outputs);
            if cursors.iter().zip(&streams).all(|(&c, s)| c >= s.len()) {
                break;
            }
            submit_tick(&mut registry, &streams, &mut cursors);
        }
        log.outputs.extend(registry.flush().outputs);
        log
    };
    let log_b = {
        let mut log = RunLog::default();
        loop {
            let round = restored.run_round();
            assert!(round.errors.is_empty());
            log.outputs.extend(round.outputs);
            if cursors_b.iter().zip(&streams).all(|(&c, s)| c >= s.len()) {
                break;
            }
            submit_tick(&mut restored, &streams, &mut cursors_b);
        }
        log.outputs.extend(restored.flush().outputs);
        log
    };

    assert_tenant_streams_equal(&log_a.outputs, &log_b.outputs, 3);
    for t in 0..3 {
        assert_eq!(
            registry.stats(t),
            restored.stats(t),
            "tenant {t} accounting diverged after resume"
        );
        assert_eq!(registry.breaker_phase(t), restored.breaker_phase(t));
    }
    assert_eq!(registry.round(), restored.round());
    assert_eq!(registry.overload_level(), restored.overload_level());

    let _ = std::fs::remove_dir_all(&dir);
}
