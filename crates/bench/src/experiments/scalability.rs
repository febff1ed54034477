//! §6 scalability: per-expert model size, training time and inference time,
//! and how inference cost scales with the feature-space dimensionality.
//!
//! The paper reports 801.5 kB per expert, 5.4 s training per expert,
//! 1.589 ms inference per expert per day, and sublinear scaling in the
//! input dimensionality (10x -> 1.08x, 100x -> 1.21x) thanks to GPU
//! parallelism. Our backend is scalar CPU code, so the *absolute* numbers
//! and the dimensionality scaling differ (CPU mat-vec is linear in the
//! dimension); the per-expert size and the millisecond-scale inference
//! shape hold.

use std::time::Instant;

use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};

use crate::{report, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    report::banner(
        "scalability",
        "model size, training and inference cost (§6)",
    );

    // Synthetic single-component dataset with a controllable feature count:
    // `dim` distinct operations = `dim` invocation paths.
    let build = |dim: usize, windows: usize| -> (Interner, WindowedTraces, MetricsRegistry) {
        let mut interner = Interner::new();
        let comp = interner.intern("Svc");
        let api = interner.intern("/api");
        let ops: Vec<_> = (0..dim)
            .map(|i| interner.intern(&format!("op{i}")))
            .collect();
        let mut traces = WindowedTraces::with_windows(1.0, windows);
        let mut cpu = TimeSeries::zeros(0);
        for t in 0..windows {
            let mut load = 0.0;
            for (i, &op) in ops.iter().enumerate() {
                // Each path fires on a simple deterministic schedule.
                let count = ((t + i) % 5) as f64;
                for _ in 0..count as usize {
                    traces.windows[t].push(Trace::new(api, SpanNode::leaf(comp, op)));
                }
                load += count;
            }
            cpu.push(2.0 + 0.3 * load);
        }
        let mut metrics = MetricsRegistry::new();
        metrics.insert(MetricKey::new("Svc", ResourceKind::Cpu), cpu);
        (interner, traces, metrics)
    };

    // One-expert baseline at the benchmark's typical dimensionality.
    let base_dim = 64;
    let windows = args.windows_per_day; // One day.
    let config = DeepRestConfig::default()
        .with_hidden(args.hidden)
        .with_epochs(args.epochs)
        .with_seed(args.seed);
    let (interner, traces, metrics) = build(base_dim, windows * 2);
    let (model, rep) = DeepRest::fit(&traces, &metrics, &interner, config.clone());

    println!(
        "  per-expert accounting (hidden={} dim={base_dim}):",
        args.hidden
    );
    println!(
        "    model size            {:>10.1} kB   (paper: 801.5 kB at hidden=128)",
        model.model_size_bytes() as f64 / rep.expert_count as f64 / 1000.0
    );
    println!(
        "    training time         {:>10.2} s    (paper: 5.4 s)",
        rep.train_seconds / rep.expert_count as f64
    );

    let one_day = traces.slice(0..windows);
    let t0 = Instant::now();
    let _ = model.estimate_from_traces(&one_day, &interner);
    let infer_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "    inference (1 day)      {:>10.3} ms   (paper: 1.589 ms on GPU)",
        infer_ms / rep.expert_count as f64
    );

    // Dimensionality scaling: 1x, 10x, 100x the base feature count.
    println!(
        "\n  inference time vs feature dimensionality (paper: 10x -> 1.08x, 100x -> 1.21x on GPU):"
    );
    let mut json_dims = Vec::new();
    let mut base_time = None;
    for factor in [1usize, 10, 100] {
        let dim = base_dim * factor;
        let (i2, t2, m2) = build(dim, windows);
        let quick = config.clone().with_epochs(1);
        let (m, _) = DeepRest::fit(&t2, &m2, &i2, quick);
        // Warm up once, then measure.
        let _ = m.estimate_from_traces(&t2, &i2);
        let t0 = Instant::now();
        let _ = m.estimate_from_traces(&t2, &i2);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ratio = match base_time {
            None => {
                base_time = Some(ms);
                1.0
            }
            Some(b) => ms / b,
        };
        println!("    dim {dim:>6} ({factor:>3}x): {ms:>9.2} ms  ({ratio:5.2}x)");
        json_dims.push(serde_json::json!({ "dim": dim, "ms": ms, "ratio": ratio }));
    }
    println!(
        "    (scalar CPU backend: cost grows with dim; the paper's sublinearity is a GPU effect)"
    );

    report::dump_json(
        &args.out,
        "scalability",
        "model size / training / inference scaling",
        &serde_json::json!({
            "per_expert_kb": model.model_size_bytes() as f64 / rep.expert_count as f64 / 1000.0,
            "train_seconds_per_expert": rep.train_seconds / rep.expert_count as f64,
            "inference_ms_per_expert_day": infer_ms / rep.expert_count as f64,
            "dim_scaling": json_dims,
        }),
    );
}
