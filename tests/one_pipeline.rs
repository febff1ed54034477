//! Tier-1 smoke of the serving contract: the plain and the adaptive
//! pipeline run the same per-window stages, both resume from a checkpoint
//! bit-identically, and a batch estimate is a what-if from a cold stream.
//! The exhaustive versions live beside the crates
//! (`crates/adapt/tests/{frozen_equivalence,determinism}.rs`,
//! `crates/core/src/oracle.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deeprest::adapt::{AdaptConfig, Adapter, AdaptiveCheckpoint, AdaptivePipeline};
use deeprest::core::{DeepRest, DeepRestConfig};
use deeprest::metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest::serve::{
    Checkpoint, CollectSink, OverloadConfig, Pipeline, SchedConfig, ServeConfig, TenantConfig,
    TenantRegistry, WindowOutput,
};
use deeprest::trace::window::{TimestampedTrace, WindowedTraces};
use deeprest::trace::{Interner, SpanNode, Trace};
use deeprest::workload::ApiTraffic;

const WINDOWS: usize = 48;

/// Keeps each thread's balance of bytes allocated minus bytes freed, so a
/// test can size what a call left resident while the other tests of this
/// binary run beside it.
struct CountingAlloc;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    HELD.with(|held| held.set(held.get() + bytes));
}

// SAFETY: defers every request to `System` unchanged; the balance is a
// side effect only, a `Cell<isize>` in a const-initialised thread-local
// with no destructor, so touching it neither allocates nor can fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the bytes it left allocated on the calling thread.
fn left_allocated<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = HELD.with(Cell::get);
    let out = f();
    (out, HELD.with(Cell::get) - before)
}

struct Fixture {
    model: DeepRest,
    interner: Interner,
    /// What the pipelines score against: the training series with a CPU
    /// spike over windows 30..34, so the sanity check has something to say.
    observed: MetricsRegistry,
    stream: Vec<TimestampedTrace>,
}

/// One API driving CPU and memory on one component with a period-16 load.
fn fixture() -> Fixture {
    let mut interner = Interner::new();
    let frontend = interner.intern("Frontend");
    let read = interner.intern("read");
    let api = interner.intern("/read");
    let mut traces = WindowedTraces::with_windows(1.0, WINDOWS);
    let (mut cpu, mut mem, mut spiked) = (
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
        TimeSeries::zeros(0),
    );
    let mut stream = Vec::new();
    for t in 0..WINDOWS {
        let count = (3 + ((t % 16) as i32 - 8).unsigned_abs()) as usize;
        for j in 0..count {
            let trace = Trace::new(api, SpanNode::leaf(frontend, read));
            traces.windows[t].push(trace.clone());
            stream.push(TimestampedTrace {
                at_secs: t as f64 + (j as f64 + 0.5) / count as f64,
                trace,
            });
        }
        let usage = 2.0 + 1.5 * count as f64;
        cpu.push(usage);
        spiked.push(if (30..34).contains(&t) {
            usage * 4.0
        } else {
            usage
        });
        mem.push(64.0 + 0.5 * count as f64);
    }
    let cpu_key = MetricKey::new("Frontend", ResourceKind::Cpu);
    let mut metrics = MetricsRegistry::new();
    metrics.insert(cpu_key.clone(), cpu);
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
    let config = DeepRestConfig {
        hidden_dim: 12,
        epochs: 3,
        subseq_len: 16,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
    .with_seed(7);
    let (model, _) = DeepRest::fit(&traces, &metrics, &interner, config);
    let mut observed = metrics;
    observed.insert(cpu_key, spiked);
    Fixture {
        model,
        interner,
        observed,
        stream,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(1.0)
        .with_lateness_secs(2.0)
}

fn adapt_config() -> AdaptConfig {
    AdaptConfig {
        serve: serve_config(),
        ..AdaptConfig::default()
    }
}

fn owned(model: &DeepRest) -> DeepRest {
    DeepRest::from_json(&model.to_json().expect("serialize model")).expect("round-trip model")
}

/// Every float of every output as its bit pattern, alerts included.
fn bits(outputs: &[WindowOutput]) -> Vec<(usize, usize, Vec<u64>, String)> {
    outputs
        .iter()
        .map(|o| {
            let floats = o
                .estimates
                .iter()
                .flat_map(|e| [e.expected, e.lower, e.upper])
                .chain(o.scores.iter().copied())
                .chain(o.alerts.iter().flat_map(|a| [a.score, a.deviation_pct]))
                .map(f64::to_bits)
                .collect();
            (o.window, o.trace_count, floats, format!("{:?}", o.alerts))
        })
        .collect()
}

#[test]
fn frozen_adaptive_pipeline_is_the_plain_pipeline() {
    let f = fixture();
    let (plain_sink, frozen_sink) = (CollectSink::new(), CollectSink::new());
    let mut plain = Pipeline::new(&f.model, &f.interner, serve_config())
        .with_observations(f.observed.clone())
        .with_sink(plain_sink.clone());
    let mut frozen = Pipeline::<Adapter>::from(AdaptivePipeline::new(
        owned(&f.model),
        &f.interner,
        f.observed.clone(),
        adapt_config().frozen(),
    ))
    .with_sink(frozen_sink.clone());
    let (mut expected, mut outputs) = (Vec::new(), Vec::new());
    for t in &f.stream {
        expected.extend(plain.ingest(t.clone()).expect("plain ingest"));
        outputs.extend(frozen.ingest(t.clone()).expect("frozen ingest"));
    }
    expected.extend(plain.flush().expect("plain flush"));
    outputs.extend(frozen.flush().expect("frozen flush"));

    assert_eq!(expected.len(), WINDOWS);
    assert!(
        expected.iter().any(|o| !o.alerts.is_empty()),
        "the spike must alert, or alert equality is vacuous"
    );
    assert_eq!(bits(&outputs), bits(&expected));
    assert_eq!(frozen_sink.snapshot(), plain_sink.snapshot());
    assert_eq!(frozen.driver().updates_run(), 0);
}

#[test]
fn adaptive_checkpoint_between_updates_resumes_bit_identically() {
    let f = fixture();
    let config = adapt_config();
    let run = |cut: Option<usize>| {
        let mut pipeline =
            AdaptivePipeline::new(owned(&f.model), &f.interner, f.observed.clone(), config);
        let (mut outputs, mut mid_segment_after_first_update) = (Vec::new(), None);
        for (i, t) in f.stream.iter().enumerate() {
            if pipeline.updates_run() == 1 && pipeline.position() % 8 == 3 {
                mid_segment_after_first_update.get_or_insert(i);
            }
            if cut == Some(i) {
                let json = pipeline
                    .checkpoint()
                    .to_json()
                    .expect("serialize checkpoint");
                let checkpoint = AdaptiveCheckpoint::from_json(&json).expect("parse checkpoint");
                pipeline =
                    AdaptivePipeline::restore(&f.interner, f.observed.clone(), config, checkpoint)
                        .expect("restore");
            }
            outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
        }
        outputs.extend(pipeline.flush().expect("flush"));
        let model = pipeline.model().to_json().expect("adapted model");
        (
            outputs,
            pipeline.updates_run(),
            model,
            mid_segment_after_first_update,
        )
    };
    let (expected, updates, model, cut) = run(None);
    assert!(updates >= 2, "the stream must adapt");
    assert!(
        cut.is_some(),
        "no arrival falls mid-segment between updates"
    );
    let (outputs, resumed_updates, resumed_model, _) = run(cut);
    assert_eq!(bits(&outputs), bits(&expected));
    assert_eq!(resumed_updates, updates);
    assert_eq!(resumed_model, model);
}

#[test]
fn plain_checkpoint_resumes_bit_identically() {
    let f = fixture();
    let run = |cut: Option<usize>| {
        let mut pipeline = Pipeline::new(&f.model, &f.interner, serve_config())
            .with_observations(f.observed.clone());
        let mut outputs = Vec::new();
        for (i, t) in f.stream.iter().enumerate() {
            if cut == Some(i) {
                let json = pipeline.checkpoint().to_json().expect("serialize");
                assert!(!json.contains("adapter"));
                let checkpoint = Checkpoint::from_json(&json).expect("parse");
                pipeline = Pipeline::restore(&f.model, &f.interner, serve_config(), checkpoint)
                    .expect("restore")
                    .with_observations(f.observed.clone());
            }
            outputs.extend(pipeline.ingest(t.clone()).expect("ingest"));
        }
        outputs.extend(pipeline.flush().expect("flush"));
        outputs
    };
    assert_eq!(bits(&run(Some(f.stream.len() / 2))), bits(&run(None)));
}

/// `estimate_traffic` and `estimate_what_if` step the same predictor over
/// the same rows, so a what-if continued from a position-0 snapshot is the
/// batch estimate — across a chunk-boundary reset (40 windows, subseq 16).
#[test]
fn estimate_traffic_is_a_what_if_from_a_cold_snapshot() {
    let f = fixture();
    let rates = (0..40).map(|w| vec![3.0 + (w % 7) as f64]).collect();
    let traffic = ApiTraffic::new(vec!["/read".into()], 8, rates);
    let batch = f.model.estimate_traffic(&traffic, 5);
    let cold = f.model.stream_predictor().snapshot();
    assert_eq!(cold.position, 0);
    let what_if = f
        .model
        .estimate_what_if(&cold, &traffic, 5)
        .expect("cold snapshot fits its own model");
    assert_eq!(batch.len(), 2);
    assert_eq!(what_if.len(), batch.len());
    let series_bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for ((key, a), (what_if_key, b)) in batch.iter().zip(what_if.iter()) {
        assert_eq!(key, what_if_key);
        assert_eq!(a.is_delta, b.is_delta);
        for (sa, sb) in [
            (&a.expected, &b.expected),
            (&a.lower, &b.lower),
            (&a.upper, &b.upper),
        ] {
            assert_eq!(sa.len(), 40);
            assert_eq!(series_bits(sa), series_bits(sb), "{key}");
        }
    }
}

/// Training and serving read one packed swarm, so a stale or mis-ranged
/// pack would show up as a float that depends on the thread count (the
/// shard plan) or on whether the model was reloaded between training and
/// serving. Ten experts split into two shards on four threads.
#[test]
fn one_pack_trains_and_serves_identically_across_threads_and_reload() {
    const COMPONENTS: usize = 5;
    let mut interner = Interner::new();
    let mut traces = WindowedTraces::with_windows(1.0, WINDOWS);
    let mut metrics = MetricsRegistry::new();
    for c in 0..COMPONENTS {
        let name = format!("Svc{c}");
        let (svc, op) = (interner.intern(&name), interner.intern(&format!("op{c}")));
        let api = interner.intern(&format!("/api{c}"));
        let (mut cpu, mut mem) = (TimeSeries::zeros(0), TimeSeries::zeros(0));
        for t in 0..WINDOWS {
            let count = 2 + (t * (c + 3)) % 9;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(svc, op)));
            }
            cpu.push(1.5 + (0.8 + 0.2 * c as f64) * count as f64);
            mem.push(48.0 + 0.4 * count as f64);
        }
        metrics.insert(MetricKey::new(&name, ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new(&name, ResourceKind::Memory), mem);
    }

    let fit = |threads: usize, hidden_dim: usize| {
        let config = DeepRestConfig {
            hidden_dim,
            epochs: 1,
            subseq_len: 12,
            batch_size: 3,
            ..DeepRestConfig::default()
        }
        .with_seed(7)
        .with_threads(threads);
        DeepRest::fit(&traces, &metrics, &interner, config).0
    };
    let run = |threads: usize, reload: bool| {
        let mut model = fit(threads, 8);
        model.fit_incremental(&traces, &metrics, &interner, 1);
        if reload {
            model = owned(&model);
        }
        assert_eq!(model.stream_predictor().shard_count(), threads.min(2));
        let estimates = model.estimate_from_traces(&traces, &interner);
        assert_eq!(estimates.len(), 2 * COMPONENTS);
        estimates
            .iter()
            .flat_map(|(_, s)| [&s.expected, &s.lower, &s.upper])
            .flat_map(|s| s.values().iter().map(|v| v.to_bits()))
            .collect::<Vec<u64>>()
    };
    let reference = run(1, false);
    assert_eq!(run(4, false), reference, "threads 1 vs 4");
    assert_eq!(
        run(4, true),
        reference,
        "model reloaded between fit and estimate"
    );

    // One pack per model: a further stream of the same model — a second
    // predictor, every tenant of a registry — holds its own carried state
    // and its pipeline, and nothing the size of the pack (at 32 hidden
    // units the pack is what `state_bytes` mostly counts).
    let model = fit(4, 32);
    let budget = model.stream_predictor().state_bytes() as isize / 4;
    let (second, bytes) = left_allocated(|| model.stream_predictor());
    assert!(
        bytes < budget,
        "a second predictor holds {bytes} B of a {budget} B budget"
    );
    assert_eq!(second.position(), 0);
    let mut registry = TenantRegistry::new(SchedConfig::default(), OverloadConfig::default());
    for t in 0..8 {
        let config = TenantConfig::new(format!("tenant{t}")).with_queue_capacity(1);
        let (_, bytes) =
            left_allocated(|| registry.add_tenant(&model, &interner, serve_config(), config));
        assert!(
            bytes < budget,
            "tenant {t} holds {bytes} B of a {budget} B budget"
        );
    }
    assert_eq!(registry.tenant_count(), 8);
}
