//! Tier-1 sight of the invariants every chaos, isolation and
//! zero-allocation suite rests on: a `MemorySink` or a `FaultPlan` belongs
//! to the thread that scoped it and to the chunks that thread fans out, so
//! any number of scoped runs and an unscoped one share a process without
//! seeing each other. One concurrent stress test, then one smoke per
//! contract; the exhaustive versions live beside the crates
//! (`crates/serve/tests/{chaos_replay,chaos_tenant}.rs`,
//! `crates/core/tests/batched_stream.rs`).

/// The serve crate's fixtures: the tiny model, the model wide enough to
/// step in two shards, arrival streams and bitwise output comparison.
#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use common::{assert_outputs_bitwise_equal, stream_of, tiny_dataset, trained, trained_wide};
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_serve::overload::BreakerConfig;
use deeprest_serve::{
    OverloadConfig, Pipeline, PriorityClass, SchedConfig, ServeConfig, ServeError, TenantConfig,
    TenantRegistry, WindowOutput,
};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(common::WINDOW_SECS)
        .with_lateness_secs(2.0)
}

fn serve(
    config: ServeConfig,
    model: &DeepRest,
    interner: &Interner,
    stream: &[TimestampedTrace],
) -> Vec<WindowOutput> {
    let mut pipeline = Pipeline::new(model, interner, config);
    let mut outputs = Vec::new();
    for t in stream {
        outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
    }
    outputs.extend(pipeline.flush().expect("flush"));
    outputs
}

/// Everything a scoped run can tell about what happened inside its scope.
#[derive(Debug, PartialEq)]
struct Seen {
    /// Every output float as bits, in window order.
    outputs: Vec<Vec<u64>>,
    /// The typed errors the run met, in order.
    errors: Vec<String>,
    /// The plan's hit schedule: the arrival at which each injection fired.
    struck_at: Vec<usize>,
    /// The sink's counters that do not depend on which pool thread claimed
    /// a chunk (`pool.chunks.{caller,helper}` are folded into their sum).
    counters: BTreeMap<String, u64>,
}

/// Worker `k`'s plan: its own seed and schedule over every probe the wide
/// pipeline passes (and `optim.grad`, which only a trainer passes: the
/// unscoped thread is the one that would feel it).
fn plan_of(k: usize) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(100 + k as u64)
            .prob("pool.worker", 0.05)
            .prob("stream.step", 0.15)
            .prob("stream.hidden", 0.1)
            .prob("optim.grad", 0.5)
            .once("serve.ingest", 40 + 7 * k as u64),
    )
}

/// Drives the sharded pipeline over `stream` under worker `k`'s own sink
/// and plan, healing, parking and retrying as a supervisor would.
fn scoped_run(
    k: usize,
    model: &DeepRest,
    interner: &Interner,
    stream: &[TimestampedTrace],
) -> Seen {
    let sink = Arc::new(MemorySink::new());
    let (outputs, errors, struck_at) = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan_of(k), || {
            let mut pipeline = Pipeline::new(model, interner, serve_config());
            let (mut outputs, mut errors, mut struck_at) = (Vec::new(), Vec::new(), Vec::new());
            let mut injected = 0;
            for (at, t) in stream.iter().enumerate() {
                loop {
                    match pipeline.ingest(t.clone()) {
                        Ok(outs) => outputs.extend(outs),
                        Err(err @ ServeError::Ingest(_)) => {
                            errors.push(err.to_string());
                            continue;
                        }
                        // The arrival was consumed, the window is parked
                        // and the next ingest retries it.
                        Err(err) => errors.push(err.to_string()),
                    }
                    break;
                }
                let now = sink.counter("fault.injected");
                struck_at.extend((injected..now).map(|_| at));
                injected = now;
            }
            loop {
                match pipeline.flush() {
                    Ok(outs) => break outputs.extend(outs),
                    Err(err) => errors.push(err.to_string()),
                }
            }
            (outputs, errors, struck_at)
        })
    });

    // A scope that panics leaves the thread clean: nothing armed, and
    // nothing more recorded into the sink that was scoped.
    let scratch = Arc::new(MemorySink::new());
    let boom = Arc::new(FaultPlan::new(0).always("scope.boom"));
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        telemetry::with_sink(scratch.clone(), || {
            fault::with_plan(boom, || fault::maybe_panic("scope.boom"))
        })
    }))
    .expect_err("the armed probe panics out of both scopes");
    let recorded = scratch.event_count();
    assert!(recorded > 0, "the strike was counted inside the scope");
    fault::maybe_panic("scope.boom");
    telemetry::counter("scope.after", 1);
    assert_eq!(scratch.event_count(), recorded);

    let mut counters = sink.counters();
    let chunks = ["pool.chunks.caller", "pool.chunks.helper"]
        .iter()
        .filter_map(|name| counters.remove(*name))
        .sum();
    counters.insert("pool.chunks".to_owned(), chunks);
    counters.remove("pool.helpers_spawned");
    Seen {
        outputs: outputs
            .iter()
            .map(|o| {
                o.estimates
                    .iter()
                    .flat_map(|e| [e.expected, e.lower, e.upper])
                    .map(f64::to_bits)
                    .collect()
            })
            .collect(),
        errors,
        struck_at,
        counters,
    }
}

/// N scoped threads, each under its own sink and plan and each driving a
/// pipeline that fans out to the shared pool helpers, beside one unscoped
/// thread that trains and serves: every scoped thread sees exactly its solo
/// run, and the unscoped one is never struck and lands in nobody's sink.
#[test]
fn concurrent_scopes_see_exactly_their_solo_runs() {
    const SCOPED: usize = 4;
    let (wide, wide_interner, wide_traces, _) = trained_wide(24, 5, 2);
    let wide_stream = stream_of(&wide_traces);
    assert_eq!(wide.stream_predictor().shard_count(), 2);
    let solo: Vec<Seen> = (0..SCOPED)
        .map(|k| scoped_run(k, &wide, &wide_interner, &wide_stream))
        .collect();
    for (k, seen) in solo.iter().enumerate() {
        assert_eq!(seen.outputs.len(), 24, "worker {k} lost a window");
        // Every window stepped; a step whose state was then poisoned again.
        assert!(seen.counters["stream.steps"] >= 24, "worker {k}");
        assert!(seen.counters["kernel.alloc"] > 0, "worker {k}");
        assert!(
            seen.counters["fault.injected.pool.worker"] > 0,
            "worker {k}"
        );
        assert!(
            seen.counters["fault.injected.stream.step"] > 0,
            "worker {k}"
        );
        assert_eq!(
            seen.counters["fault.injected.serve.ingest"], 1,
            "worker {k}"
        );
        assert!(
            !seen.counters.contains_key("optim.steps"),
            "worker {k} trains nothing"
        );
    }
    assert_ne!(solo[0].struck_at, solo[1].struck_at, "plans must differ");

    // What the unscoped thread must keep producing, bit for bit: a model
    // trained at two threads and a pipeline with no retry to hide behind.
    let (interner, traces, metrics) = tiny_dataset(24);
    let train = || {
        let config = DeepRestConfig {
            hidden_dim: 8,
            epochs: 2,
            subseq_len: 12,
            batch_size: 3,
            ..DeepRestConfig::default()
        }
        .with_seed(7)
        .with_threads(2);
        DeepRest::fit(&traces, &metrics, &interner, config).0
    };
    let unscoped_model = train().to_json().expect("model");
    let mut without_retry = serve_config();
    without_retry.step_retries = 0;
    let serve_wide = || serve(without_retry, &wide, &wide_interner, &wide_stream);
    let unscoped_outputs = serve_wide();

    let start = Barrier::new(SCOPED + 1);
    let scoped_done = AtomicBool::new(false);
    let concurrent: Vec<Seen> = std::thread::scope(|threads| {
        let unscoped = threads.spawn(|| {
            start.wait();
            let mut laps = 0;
            while laps == 0 || !scoped_done.load(Ordering::Acquire) {
                assert!(!fault::enabled(), "no plan reaches an unscoped thread");
                assert_eq!(train().to_json().expect("model"), unscoped_model);
                assert_outputs_bitwise_equal(&serve_wide(), &unscoped_outputs);
                laps += 1;
            }
        });
        let workers: Vec<_> = (0..SCOPED)
            .map(|k| {
                let (wide, wide_interner, wide_stream, start) =
                    (&wide, &wide_interner, &wide_stream, &start);
                threads.spawn(move || {
                    start.wait();
                    // Twice, so scopes also open and close beside live ones.
                    let first = scoped_run(k, wide, wide_interner, wide_stream);
                    let second = scoped_run(k, wide, wide_interner, wide_stream);
                    assert_eq!(first, second, "worker {k} is not repeatable");
                    first
                })
            })
            .collect();
        let seen = workers
            .into_iter()
            .map(|w| w.join().expect("scoped worker"))
            .collect();
        scoped_done.store(true, Ordering::Release);
        unscoped.join().expect("unscoped thread");
        seen
    });
    for (k, (together, alone)) in concurrent.iter().zip(&solo).enumerate() {
        assert_eq!(
            together, alone,
            "worker {k} saw more or less than its own run"
        );
    }
}

/// Heal and park (`chaos_replay`): a transient step fault heals
/// bit-identically, a persistent one parks the window behind a typed error
/// and drains once lifted.
#[test]
fn step_faults_heal_or_park_and_lose_nothing() {
    let (model, interner, traces, _) = trained(24);
    let stream = stream_of(&traces);
    let expected = serve(serve_config(), &model, &interner, &stream);

    let once = Arc::new(FaultPlan::new(17).once("stream.step", 5));
    let healed = fault::with_plan(once, || serve(serve_config(), &model, &interner, &stream));
    assert_outputs_bitwise_equal(&healed, &expected);

    let mut pipeline = Pipeline::new(&model, &interner, serve_config());
    let always = Arc::new(FaultPlan::new(17).always("stream.step"));
    let parked_at = fault::with_plan(always, || {
        stream
            .iter()
            .position(|t| match pipeline.ingest(t.clone()) {
                Ok(outputs) => {
                    assert!(outputs.is_empty());
                    false
                }
                Err(ServeError::Step { window: 0, .. }) => true,
                Err(other) => panic!("unexpected error: {other}"),
            })
            .expect("a persistent step fault must surface as ServeError::Step")
    });
    assert_eq!(pipeline.pending_windows(), 1);
    let mut outputs = Vec::new();
    for t in &stream[parked_at + 1..] {
        outputs.extend(pipeline.ingest(t.clone()).expect("fault lifted"));
    }
    outputs.extend(pipeline.flush().expect("flush"));
    assert_outputs_bitwise_equal(&outputs, &expected);
}

/// Zero warm allocations (`batched_stream`): after the first window a
/// two-shard step draws every buffer from its arenas.
#[test]
fn warm_sharded_steps_allocate_nothing() {
    let (model, interner, traces, _) = trained_wide(24, 5, 2);
    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| model.window_features(w, &interner))
        .collect();
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let mut predictor = model.stream_predictor();
        assert_eq!(predictor.shard_count(), 2);
        predictor.step(&xs[0]);
        let warm = sink.counter("kernel.alloc");
        assert!(warm > 0, "the first window fills the arenas");
        for x in &xs[1..] {
            predictor.step(x);
        }
        assert_eq!(sink.counter("kernel.alloc"), warm);
        assert_eq!(sink.counter("stream.steps"), xs.len() as u64);
    });
}

/// Tenant isolation (`chaos_tenant`): with its neighbour flooded at 10×, a
/// within-quota tenant's outputs are its solo run's, bit for bit.
#[test]
fn within_quota_tenant_equals_its_solo_run_under_a_flood() {
    let (model, interner, traces, _) = trained(32);
    let stream = stream_of(&traces);
    let expected = serve(serve_config(), &model, &interner, &stream);

    let sched = SchedConfig {
        quantum: 4,
        round_budget: 0,
        deficit_cap: 64,
    };
    let overload = OverloadConfig {
        shed_depth: 24,
        freeze_depth: 32,
        shed_watermark: 0.5,
        recover_fraction: 0.5,
        breaker: BreakerConfig {
            trip_rounds: 3,
            backoff_rounds: 4,
            backoff_cap: 64,
        },
    };
    let mut registry = TenantRegistry::new(sched, overload);
    let innocent = registry.add_tenant(
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

    let plan = Arc::new(
        FaultPlan::new(17)
            .window("tenant.flood", 0, 160)
            .payload(flooded as u64),
    );
    let sink = Arc::new(MemorySink::new());
    let outputs = telemetry::with_sink(sink.clone(), || {
        fault::with_plan(plan, || {
            let mut outputs = Vec::new();
            for arrivals in stream.chunks(8) {
                for tenant in [innocent, flooded] {
                    for arrival in arrivals {
                        let _ = registry.submit(tenant, arrival.clone());
                    }
                }
                let round = registry.run_round();
                assert!(round.errors.is_empty());
                outputs.extend(round.outputs);
            }
            let flushed = registry.flush();
            assert!(flushed.errors.is_empty());
            outputs.extend(flushed.outputs);
            outputs
        })
    });
    assert!(sink.counter("fault.injected.tenant.flood") >= 1);
    assert!(registry.stats(flooded).rejected_window_quota > 0);
    assert_eq!(registry.stats(innocent).shed, 0);
    let innocent_outputs: Vec<WindowOutput> = outputs
        .into_iter()
        .filter(|o| o.tenant == innocent)
        .map(|o| o.output)
        .collect();
    assert_outputs_bitwise_equal(&innocent_outputs, &expected);
}
