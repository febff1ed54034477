//! The batched serving contract, end to end:
//!
//! * the shard plan (worker-pool thread count) never changes a bit of
//!   [`StreamPredictor`]'s output — its bit-identity to the autodiff tape
//!   across expert counts is proven in-crate (`crates/core/src/oracle.rs`);
//! * sharding is state-isolating: poisoning one expert's hidden state
//!   never leaks into its shard neighbors, and the chunk-boundary reset
//!   heals the stream bit-exactly;
//! * snapshots are portable across shard plans — a 1-thread checkpoint
//!   resumes bit-identically under a multi-shard predictor;
//! * warm multi-shard serving performs zero kernel allocations and runs a
//!   constant kernel schedule per window (the O(1) telemetry invariant).

use std::sync::Arc;

use deeprest_core::stream::{PointEstimate, StreamPredictor};
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};

/// A synthetic application with `components` services, each driven by its
/// own API at its own phase, yielding `2 * components` experts (CPU +
/// memory per component) — or one fewer when `drop_last_mem` trims the
/// last component to CPU only (this is how the single-expert case is
/// built).
fn dataset(
    windows: usize,
    components: usize,
    drop_last_mem: bool,
) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut metrics = MetricsRegistry::new();
    for c in 0..components {
        let svc_name = format!("Svc{c}");
        let svc = i.intern(&svc_name);
        let op = i.intern(&format!("op{c}"));
        let api = i.intern(&format!("/api{c}"));
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        for t in 0..windows {
            let count = 2 + (t * (c + 3)) % 9;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(svc, op)));
            }
            cpu.push(1.5 + (0.8 + 0.2 * c as f64) * count as f64);
            mem.push(48.0 + 0.4 * count as f64);
        }
        metrics.insert(MetricKey::new(&svc_name, ResourceKind::Cpu), cpu);
        if !(drop_last_mem && c == components - 1) {
            metrics.insert(MetricKey::new(&svc_name, ResourceKind::Memory), mem);
        }
    }
    (i, traces, metrics)
}

fn config(seed: u64, threads: usize) -> DeepRestConfig {
    DeepRestConfig {
        hidden_dim: 8,
        epochs: 2,
        subseq_len: 12,
        batch_size: 3,
        ..DeepRestConfig::default()
    }
    .with_seed(seed)
    .with_threads(threads)
}

fn assert_points_bitwise(a: &[PointEstimate], b: &[PointEstimate], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: expert count");
    for (e, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            pa.expected.to_bits(),
            pb.expected.to_bits(),
            "{ctx}: expected diverged at expert {e} ({} vs {})",
            pa.expected,
            pb.expected
        );
        assert_eq!(pa.lower.to_bits(), pb.lower.to_bits(), "{ctx}: expert {e}");
        assert_eq!(pa.upper.to_bits(), pb.upper.to_bits(), "{ctx}: expert {e}");
    }
}

/// A 1-thread fit and a 4-thread fit are bit-identical (the training
/// determinism contract), and so are their streaming predictors — even
/// though one runs single-sharded and the other splits its 10 experts
/// into 2 shards. Snapshots cross between the two shard plans bitwise.
#[test]
fn shard_plan_never_changes_bits_and_snapshots_are_portable() {
    let (i, traces, metrics) = dataset(64, 5, false);
    let (serial, _) = DeepRest::fit(&traces, &metrics, &i, config(7, 1));
    let (sharded, _) = DeepRest::fit(&traces, &metrics, &i, config(7, 4));

    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| serial.window_features(w, &i))
        .collect();

    let mut one = serial.stream_predictor();
    let mut many = sharded.stream_predictor();
    assert_eq!(one.shard_count(), 1);
    assert_eq!(many.shard_count(), 2, "10 experts over 4 threads");

    let reference: Vec<_> = xs.iter().map(|x| one.step(x)).collect();
    for (t, x) in xs.iter().enumerate() {
        assert_points_bitwise(&many.step(x), &reference[t], &format!("window {t}"));
    }

    // Checkpoint under the single-shard plan, resume under the
    // multi-shard plan: continuation stays bitwise on the reference run.
    let mut source = serial.stream_predictor();
    for x in &xs[..23] {
        source.step(x);
    }
    let snap = source.snapshot();
    let mut resumed = StreamPredictor::restore(&sharded, &snap).unwrap();
    assert_eq!(resumed.shard_count(), 2);
    for (t, x) in xs.iter().enumerate().skip(23) {
        assert_points_bitwise(
            &resumed.step(x),
            &reference[t],
            &format!("resumed window {t}"),
        );
    }
}

/// Poison one expert's hidden state mid-batch: the damage must stay
/// confined to that expert's carried state (its shard neighbors keep
/// serving bit-identical numbers), and the next chunk-boundary reset
/// heals the whole stream back to the clean run.
#[test]
fn poisoned_expert_stays_isolated_inside_its_shard() {
    let (i, traces, metrics) = dataset(48, 5, false);
    // Attention off so output isolation is exact: with cross-expert
    // attention, one expert's NaN state deliberately taints every output
    // (that contamination is the serve layer's quarantine trigger and is
    // covered by its chaos suite).
    let cfg = DeepRestConfig {
        attention: false,
        ..config(11, 4)
    };
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
    let e_count = model.expert_keys().len();
    assert_eq!(e_count, 10);
    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| model.window_features(w, &i))
        .collect();

    let mut clean = model.stream_predictor();
    let reference: Vec<_> = xs.iter().map(|x| clean.step(x)).collect();

    // Poison expert 3 (inside the first shard of two) on window 5. The
    // subseq length is 12, so the reset at window 12 discards the poison.
    let victim = 3usize;
    let plan = Arc::new(
        FaultPlan::new(0)
            .once("stream.hidden", 5)
            .payload(victim as u64),
    );
    fault::with_plan(plan, || {
        let mut faulted = model.stream_predictor();
        assert_eq!(faulted.shard_count(), 2);
        for (t, x) in xs.iter().enumerate() {
            let got = faulted.step(x);
            if t < 6 {
                // Poison lands *after* window 5's outputs are computed.
                assert_points_bitwise(&got, &reference[t], &format!("window {t}"));
            }
            if (6..12).contains(&t) {
                assert_eq!(
                    faulted.hidden_nonfinite_experts(),
                    vec![victim],
                    "window {t}: poison must stay confined to the victim"
                );
                assert!(!faulted.hidden_is_finite());
                // Every *other* expert still serves the clean bits.
                for e in (0..e_count).filter(|&e| e != victim) {
                    assert_eq!(
                        got[e].expected.to_bits(),
                        reference[t][e].expected.to_bits(),
                        "window {t}: neighbor expert {e} contaminated"
                    );
                }
            }
            if t >= 12 {
                // Chunk reset zeroed the poisoned state: fully healed.
                assert!(faulted.hidden_is_finite());
                assert_points_bitwise(&got, &reference[t], &format!("healed window {t}"));
            }
        }
    });
}

/// Warm multi-shard serving allocates nothing and runs a constant batched
/// kernel schedule: `kernel.alloc` is flat after the first window at any
/// shard count, scratch reuse dominates, and the `stream.step.kernel_ops`
/// / `stream.batch.*` gauges are window-invariant.
#[test]
fn warm_multi_shard_steps_are_allocation_free_and_o1() {
    let (i, traces, metrics) = dataset(48, 5, false);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, config(3, 4));
    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| model.window_features(w, &i))
        .collect();

    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let mut predictor = model.stream_predictor();
        assert_eq!(predictor.shard_count(), 2);
        assert!(predictor.state_bytes() > 0);
        predictor.step(&xs[0]);
        let warm_allocs = sink.counter("kernel.alloc");
        assert!(warm_allocs > 0, "first window must fill the arenas");
        for x in &xs[1..] {
            predictor.step(x);
        }
        assert_eq!(
            sink.counter("kernel.alloc"),
            warm_allocs,
            "warm batched steps must perform zero kernel allocations"
        );
        assert!(
            sink.counter("kernel.scratch_reuse") > warm_allocs,
            "steady state must be dominated by scratch reuse"
        );
        assert_eq!(sink.counter("stream.steps"), xs.len() as u64);
    });

    let ops = sink.gauges("stream.step.kernel_ops");
    assert_eq!(ops.len(), xs.len());
    assert!(ops[0] > 0.0);
    assert!(
        ops.iter().all(|v| v.to_bits() == ops[0].to_bits()),
        "kernel schedule must be window-invariant"
    );
    let shards = sink.gauges("stream.batch.shards");
    assert!(shards.iter().all(|&v| v == 2.0));
    let experts = sink.gauges("stream.batch.experts");
    assert!(experts.iter().all(|&v| v == 10.0));
}
