//! Criterion micro/macro benchmarks backing the paper's §6 scalability
//! discussion: feature extraction, trace synthesis, expert training and
//! inference cost, and the kernels underneath.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deeprest_adapt::{AdaptConfig, AdaptivePipeline};
use deeprest_core::adapt::{OnlineUpdater, TrainSegment, UpdateConfig};
use deeprest_core::{DeepRest, DeepRestConfig, FeatureSpace, TraceSynthesizer};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{AnalyticTrainer, ExpertSlab, ExpertSpec, GruCell, Linear, TrainerConfig};
use deeprest_scale::{
    ScaleLoop, ScaleLoopConfig, Scenario, ScenarioKind, TargetUtilizationPolicy,
    PROACTIVE_TARGET_UTILIZATION,
};
use deeprest_serve::{
    OverloadConfig, Pipeline, SchedConfig, ServeConfig, TenantConfig, TenantRegistry,
};
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, SimConfig};
use deeprest_tensor::{kernel, linalg, ParamStore, Pool, Tensor};
use deeprest_trace::window::{TimestampedTrace, WindowedTraces};
use deeprest_trace::{jaeger, Interner, SpanNode, Trace};
use deeprest_workload::{ApiTraffic, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a synthetic one-component dataset with `dim` invocation paths.
fn synthetic(dim: usize, windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
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
            let count = (t + i) % 4;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(comp, op)));
            }
            load += count as f64;
        }
        cpu.push(2.0 + 0.3 * load);
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Svc", ResourceKind::Cpu), cpu);
    (interner, traces, metrics)
}

fn quick_config() -> DeepRestConfig {
    DeepRestConfig::default().with_hidden(32).with_epochs(2)
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(20);
    for dim in [16usize, 64, 256] {
        let (interner, traces, metrics) = synthetic(dim, 32);
        let space = FeatureSpace::construct(&traces);
        group.bench_with_input(BenchmarkId::new("window", dim), &dim, |b, _| {
            b.iter(|| space.extract(traces.window(7)));
        });
        // The path serving runs: the same window as a producer that interned
        // the same names back to front wrote it, read through the per-call
        // symbol memo. Next to `window/*` it shows what translation costs.
        let config = DeepRestConfig::default().with_hidden(4).with_epochs(1);
        let (model, _) = DeepRest::fit(&traces, &metrics, &interner, config);
        let names: Vec<&str> = interner.iter().map(|(_, name)| name).collect();
        let mut source = Interner::new();
        for name in names.iter().rev() {
            source.intern(name);
        }
        let document = jaeger::export(traces.window(7), &interner);
        let window = jaeger::import(&document, &mut source).expect("exported document imports");
        assert_eq!(
            model.window_features(&window, &source),
            model.window_features(traces.window(7), &interner)
        );
        group.bench_with_input(BenchmarkId::new("translated", dim), &dim, |b, _| {
            b.iter(|| model.window_features(black_box(&window), &source));
        });
    }
    group.finish();
}

fn bench_trace_synthesis(c: &mut Criterion) {
    let (interner, traces, _) = synthetic(32, 32);
    let synth = TraceSynthesizer::learn(&traces);
    let api = interner.get("/api").expect("interned");
    let mut group = c.benchmark_group("trace_synthesis");
    group.sample_size(20);
    for n in [100u64, 1_000] {
        group.bench_with_input(BenchmarkId::new("requests", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| synth.synthesize_api(api, n, &mut rng));
        });
    }
    group.finish();
}

fn bench_expert_training_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_training");
    group.sample_size(10);
    let (interner, traces, metrics) = synthetic(64, 96);
    group.bench_function("fit_2_epochs_dim64", |b| {
        b.iter(|| DeepRest::fit(&traces, &metrics, &interner, quick_config()));
    });
    group.finish();
}

fn bench_expert_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_inference");
    group.sample_size(20);
    for dim in [64usize, 256] {
        let (interner, traces, metrics) = synthetic(dim, 96);
        let (model, _) = DeepRest::fit(&traces, &metrics, &interner, quick_config());
        group.bench_with_input(BenchmarkId::new("one_day", dim), &dim, |b, _| {
            b.iter(|| model.estimate_from_traces(&traces, &interner));
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    // Row-major products into a preallocated output: GEMV (`n = 1`) at a
    // gate-stack and a square shape, GEMM at two square ones — the entries
    // the attention product and the tape's `matmul` run.
    for &(m, k, n) in &[
        (32usize, 64usize, 1usize),
        (128, 128, 1),
        (64, 64, 64),
        (128, 128, 128),
    ] {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
        let b_mat = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let id = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("nn", &id), &id, |bench, _| {
            bench.iter(|| {
                if n == 1 {
                    kernel::gemv_into(&mut out, a.data(), m, k, b_mat.data());
                } else {
                    kernel::gemm_into(&mut out, a.data(), m, k, b_mat.data(), n);
                }
                out[0]
            });
        });
    }
    // The forward's input-side product `[W_z; W_k; W_h]·x̃` for a whole swarm
    // (hidden 16, so 48 outputs) at the two shapes the end-to-end benchmark
    // serves — 256 experts over 128 paths, 76 over 67 — on the input-major
    // pack: over a window that exercises 8 paths, and over one that
    // exercises all of them. `gemv_row_major` is the product the row-major
    // pack ran at the same shape, whatever the window.
    for &(k, batch) in &[(128usize, 256usize), (67, 76)] {
        let m = 48usize;
        let mut rng = StdRng::seed_from_u64(10);
        let a = Tensor::rand_uniform(batch * k, m, -1.0, 1.0, &mut rng);
        let dense = Tensor::rand_uniform(batch * k, 1, 0.1, 1.0, &mut rng);
        let mut out = vec![0.0f32; batch * m];
        for (name, live) in [("8", 8usize), ("full", k)] {
            // `live` evenly spread paths exercised, the same in every item.
            let exercised = |kk: usize| (kk * live) % k < live;
            let x: Vec<f32> = (0..batch * k)
                .map(|i| {
                    if exercised(i % k) {
                        dense.data()[i]
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut support = kernel::Support::with_capacity(k);
            support.fill(&x[..k]);
            assert_eq!(support.nnz(), live);
            let id = format!("{k}x{m}/{name}");
            group.bench_with_input(BenchmarkId::new("gemv_t_support", &id), &id, |bench, _| {
                bench.iter(|| {
                    kernel::gemv_t_batch_into(&mut out, a.data(), k, m, &x, Some(&support), batch);
                    out[0]
                });
            });
        }
        let id = format!("{m}x{k}");
        group.bench_with_input(BenchmarkId::new("gemv_row_major", &id), &id, |bench, _| {
            bench.iter(|| {
                kernel::gemv_batch_into(&mut out, a.data(), m, k, dense.data(), batch);
                out[0]
            });
        });
    }
    // The trainer's weight-gradient updates at hidden 32 over 67 paths, one
    // 16-step subsequence each: `[d_z; d_k; d_h̃] ⊗ x̃` (96 × 67), `[d_z; d_k]
    // ⊗ h_{t-1}` (64 × 32, a column range of the 96-wide `d_t` rows) and
    // `d_h̃ ⊗ (k⊙h_{t-1})` (32 × 32).
    let steps = 16usize;
    for &(m, n, col) in &[(96usize, 67usize, 0usize), (64, 32, 0), (32, 32, 64)] {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Tensor::rand_uniform(steps, 96, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(steps, n, -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let id = format!("{m}x{n}/t{steps}");
        group.bench_with_input(BenchmarkId::new("outer_acc_steps", &id), &id, |bench, _| {
            bench.iter(|| {
                kernel::outer_acc_steps_into(&mut out, &a.data()[col..], 96, b.data(), steps);
                out[0]
            });
        });
    }
    group.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemv");
    group.sample_size(30);
    // The row-major GEMV (under the forward's head product) across square
    // shapes, into a preallocated output.
    for &n in &[32usize, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::rand_uniform(n, n, -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(n, 1, -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; n];
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |bench, _| {
            bench.iter(|| {
                kernel::gemv_into(&mut out, a.data(), n, n, x.data());
                out[0]
            });
        });
    }
    group.finish();
}

fn bench_activations(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(30);
    // The GRU's activations over 4,096 pre-activations spread across the
    // gates' working range: the scalar ports one call at a time, then the
    // fused gate entry with `-0.0` addends, which is the AVX2+FMA twin
    // where the CPU has both and the scalar loop elsewhere.
    let x: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin() * 6.0).collect();
    let zeros = vec![-0.0f32; x.len()];
    let mut out = vec![0.0f32; x.len()];
    type Gate = fn(&mut [f32], &[f32], &[f32], &[f32]);
    for (name, scalar, gate) in [
        (
            "sigmoid",
            kernel::sigmoid as fn(f32) -> f32,
            kernel::gate_sigmoid_into as Gate,
        ),
        ("tanh", kernel::tanh, kernel::gate_tanh_into),
    ] {
        group.bench_function(&format!("act/{name}/scalar"), |b| {
            b.iter(|| {
                for (o, &v) in out.iter_mut().zip(black_box(&x)) {
                    *o = scalar(v);
                }
                out[0]
            });
        });
        group.bench_function(&format!("act/{name}/gate"), |b| {
            b.iter(|| {
                gate(&mut out, black_box(&x), &zeros, &zeros);
                out[0]
            });
        });
    }
    group.finish();
}

fn bench_joint_training_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("joint_training_epoch");
    group.sample_size(10);
    let (interner, traces, metrics) = synthetic(64, 96);
    for threads in [1usize, 2, 4] {
        let config = quick_config().with_epochs(1).with_threads(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| DeepRest::fit(&traces, &metrics, &interner, config.clone()));
        });
    }
    group.finish();
}

fn bench_streaming_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    // Per-window cost of the online path: one StreamPredictor::step per
    // sealed scrape window (feature extraction measured separately above).
    for dim in [64usize, 256] {
        let (interner, traces, metrics) = synthetic(dim, 96);
        let (model, _) = DeepRest::fit(&traces, &metrics, &interner, quick_config());
        let x = model.window_features(traces.window(7), &interner);
        group.bench_with_input(BenchmarkId::new("window_step", dim), &dim, |b, _| {
            let mut predictor = model.stream_predictor();
            b.iter(|| predictor.step(&x));
        });
        // The same step with a fault plan installed, armed on a site the
        // step never probes: every probe on the path takes the slow
        // armed() lookup without firing — the worst case a fault-enabled
        // run pays. With no plan installed (the `window_step` case above)
        // each probe is a single relaxed atomic load.
        group.bench_with_input(BenchmarkId::new("window_step_faulty", dim), &dim, |b, _| {
            let plan = Arc::new(FaultPlan::new(11).once("bench.unreached", 0));
            fault::with_plan(plan, || {
                let mut predictor = model.stream_predictor();
                b.iter(|| predictor.step(&x));
            });
        });
        // What a further stream of the same model costs to start (a tenant,
        // a restored pipeline), and what a controller pays per hypothesis:
        // fork the live stream's state, run four synthetic windows on it.
        group.bench_with_input(BenchmarkId::new("predictor_new", dim), &dim, |b, _| {
            b.iter(|| model.stream_predictor().position());
        });
        group.bench_with_input(BenchmarkId::new("what_if_fork", dim), &dim, |b, _| {
            let mut live = model.stream_predictor();
            live.step(&x);
            let traffic = ApiTraffic::new(vec!["/api".into()], 4, vec![vec![8.0]; 4]);
            b.iter(|| {
                let fork = model.estimate_what_if(&live.snapshot(), &traffic, 3);
                fork.expect("snapshot of this model").len()
            });
        });
    }
    group.finish();
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.sample_size(30);
    // Dispatch latency of a fan-out whose chunks do nothing: publish the
    // job, claim every chunk, wait for the helpers. This is the floor
    // under every `batched_step` figure below. Read the mean: the min is
    // the case where the caller claimed every chunk before a helper looked.
    for threads in [2usize, 4] {
        let pool = Pool::with_threads(threads);
        let mut items = vec![0u8; threads];
        let id = format!("{threads}t");
        group.bench_with_input(BenchmarkId::new("fan_out_empty", &id), &id, |b, _| {
            b.iter(|| {
                pool.for_each_mut(&mut items, |_, v| {
                    black_box(v);
                })
            });
        });
    }
    group.finish();
}

/// Synthetic application with `ceil(experts / 2)` components (CPU + memory
/// series each) — the expert-count axis for the batched serving benches,
/// matching the `deeprest capacity` tool's workload.
fn multi_expert(experts: usize, windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    let components = experts.div_ceil(2);
    let mut interner = Interner::new();
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut metrics = MetricsRegistry::new();
    for comp in 0..components {
        let svc_name = format!("Svc{comp}");
        let svc = interner.intern(&svc_name);
        let op = interner.intern(&format!("op{comp}"));
        let api = interner.intern(&format!("/api{comp}"));
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        for t in 0..windows {
            let count = 2 + (t * (comp + 3)) % 9;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(svc, op)));
            }
            cpu.push(1.5 + 0.8 * count as f64);
            mem.push(48.0 + 0.4 * count as f64);
        }
        metrics.insert(MetricKey::new(&svc_name, ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new(&svc_name, ResourceKind::Memory), mem);
    }
    (interner, traces, metrics)
}

fn bench_batched_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    // The batched multi-expert step across the expert-count axis.
    for experts in [16usize, 64, 256] {
        let (interner, traces, metrics) = multi_expert(experts, 48);
        let cfg = DeepRestConfig {
            hidden_dim: 16,
            epochs: 1,
            subseq_len: 12,
            batch_size: 4,
            ..DeepRestConfig::default()
        }
        .with_seed(17);
        let (model, _) = DeepRest::fit(&traces, &metrics, &interner, cfg);
        let x = model.window_features(traces.window(7), &interner);
        let id = format!("{experts}e");
        group.bench_with_input(BenchmarkId::new("batched_step", &id), &id, |b, _| {
            let mut predictor = model.stream_predictor();
            b.iter(|| predictor.step(&x));
        });
        // The same step on a window that exercises 8 of the application's
        // paths (every window of `multi_expert` exercises all of them): the
        // input-side gate product visits 8 rows per expert, not `dim`.
        if experts >= 64 {
            let every = x.len() / 8;
            let sparse: Vec<f32> = (0..x.len())
                .map(|i| {
                    if i % every == 1 && i / every < 8 {
                        x[i]
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_eq!(sparse.iter().filter(|&&v| v != 0.0).count(), 8);
            group.bench_with_input(BenchmarkId::new("batched_step_sparse", &id), &id, |b, _| {
                let mut predictor = model.stream_predictor();
                b.iter(|| predictor.step(&sparse));
            });
        }
    }
    group.finish();
}

fn bench_gemm_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_batch");
    group.sample_size(30);
    // The batched row-major GEMV under the forward's head product, at a
    // gate-stack shape (3·hidden rows by input dim, hidden 32): `batch`
    // dispatches from packed storage.
    let (rows, cols) = (96usize, 32usize);
    for &batch in &[16usize, 64] {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::rand_uniform(batch * rows, cols, -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(batch * cols, 1, -1.0, 1.0, &mut rng);
        let id = format!("{batch}x{rows}x{cols}");
        group.bench_with_input(BenchmarkId::new("gemv", &id), &id, |bench, _| {
            let mut out = vec![0.0f32; batch * rows];
            bench.iter(|| {
                kernel::gemv_batch_into(&mut out, a.data(), rows, cols, x.data(), batch);
                out[0]
            });
        });
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("autodiff");
    group.sample_size(20);
    // The unit of training work: one 48-step truncated-BPTT subsequence
    // (forward + backward) for a 64-feature, 64-hidden expert — the full
    // estimator step (mask → GRU → head → pinball) through
    // `AnalyticTrainer`.
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let mask = store.add("e.mask", Tensor::rand_uniform(64, 1, -1.0, 1.0, &mut rng));
    let cell = GruCell::new(&mut store, "g", 64, 64, &mut rng);
    let alpha = store.add("e.alpha", Tensor::rand_uniform(1, 1, 0.0, 0.02, &mut rng));
    let head = Linear::new(&mut store, "e.head", 128, 3, &mut rng);
    let xs: Vec<Vec<f32>> = (0..48).map(|t| vec![t as f32 / 48.0; 64]).collect();
    let targets = vec![(0..48).map(|t| 0.3 + 0.01 * t as f32).collect::<Vec<f32>>()];
    group.bench_function("gru48_forward_backward", |b| {
        let spec = ExpertSpec {
            mask,
            cell,
            alpha,
            head,
            skip: None,
        };
        let cfg = TrainerConfig {
            input_dim: 64,
            hidden_dim: 64,
            max_steps: 48,
            batch_slots: 1,
            api_mask: true,
            attention: true,
            penalty: None,
            quantiles: quantiles_for(0.90),
            modulation: [1.0; 3],
        };
        let pool = Pool::with_threads(1);
        let mut store = store.clone();
        let slab = ExpertSlab::pack(&store, &[spec], true, true, pool.threads());
        let mut trainer = AnalyticTrainer::new(&slab, cfg);
        b.iter(|| {
            store.zero_grads();
            let stats = trainer.run_batch(&slab, &mut store, &pool, &xs, &targets, &[0]);
            stats[0].loss_sum
        });
    });
    group.finish();
}

/// The expert-sharded analytic epoch across the worker pool at paper-ish
/// swarm scale: 64 experts (32 components × CPU+memory), hidden 32 — four
/// threads get sixteen-expert shards with enough work per dispatch to
/// amortize the hand-off to the pool's persistent helpers. This is the
/// multi-core scaling axis of training, measured on a
/// training-dominated fit.
fn bench_analytic_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    let (interner, traces, metrics) = multi_expert(64, 96);
    for threads in [1usize, 4] {
        let cfg = DeepRestConfig {
            hidden_dim: 32,
            epochs: 1,
            subseq_len: 24,
            batch_size: 4,
            ..DeepRestConfig::default()
        }
        .with_seed(17)
        .with_threads(threads);
        let id = format!("{threads}t");
        group.bench_with_input(BenchmarkId::new("analytic_epoch", &id), &id, |b, _| {
            b.iter(|| DeepRest::fit(&traces, &metrics, &interner, cfg.clone()));
        });
    }
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    group.sample_size(20);
    let samples: Vec<Vec<f32>> = (0..76)
        .map(|i| (0..12_000).map(|j| ((i * j) % 17) as f32 / 17.0).collect())
        .collect();
    group.bench_function("pca_76_experts_12k_params", |b| {
        b.iter(|| linalg::pca(&samples, 2));
    });
    group.finish();
}

/// One full proactive control interval of the closed autoscaling loop:
/// `control_interval` simulated windows, their trace ingests into the
/// serving pipeline, and the control tick's what-if estimate + decision.
/// This is the recurring per-interval cost an operator pays to run the
/// autoscaler.
/// Online-adaptation benches: the warm incremental-update step, plus the
/// frozen adaptive pipeline's steady-state per-window cost next to the
/// plain serving pipeline it wraps. Pinning both window entries in
/// `BENCH_perf.json` makes bench_guard hold the disabled-adaptation
/// overhead inside the serving noise floor on every CI run, instead of
/// trusting a one-off measurement.
fn bench_adapt(c: &mut Criterion) {
    let mut group = c.benchmark_group("adapt");
    group.sample_size(20);

    let (interner, traces, metrics) = synthetic(64, 96);
    let (mut model, _) = DeepRest::fit(&traces, &metrics, &interner, quick_config());

    // One warm `OnlineUpdater::update` over a fresh + replay segment pair —
    // the extra cost an adaptation window pays over a plain serving window.
    // Steady state performs zero kernel allocations (the adapt crate's
    // zero_alloc test), so this measures pure compute.
    let cfg = UpdateConfig::default();
    let mut updater = OnlineUpdater::new(&model, cfg);
    let dim = model.feature_space().dim();
    let experts = model.expert_count();
    let stage = |salt: f32| {
        let xs: Vec<f32> = (0..cfg.segment_len * dim)
            .map(|i| (i as f32 * 0.01 + salt).sin() * 0.5)
            .collect();
        let targets: Vec<f32> = (0..experts * cfg.segment_len)
            .map(|i| (i as f32 * 0.07 + salt).cos() * 0.3 + 0.5)
            .collect();
        (xs, targets)
    };
    let (fresh_xs, fresh_targets) = stage(0.1);
    let (replay_xs, replay_targets) = stage(0.9);
    group.bench_function("update_step", |b| {
        let segments = [
            TrainSegment {
                xs: &fresh_xs,
                targets: &fresh_targets,
            },
            TrainSegment {
                xs: &replay_xs,
                targets: &replay_targets,
            },
        ];
        updater
            .update(&mut model, &segments)
            .expect("warm-up update");
        b.iter(|| updater.update(&mut model, &segments).expect("update step"));
    });

    // Steady-state per-window cost through a long-lived pipeline: each
    // iteration feeds one window's arrivals at ever-advancing timestamps,
    // sealing (roughly) one window per call — assembly, estimation and
    // sanity scoring included, unlike `serving/window_step`, which times
    // the bare predictor step.
    let serve_cfg = ServeConfig::default()
        .with_window_secs(1.0)
        .with_lateness_secs(2.0);
    group.bench_function("window_step_serve", |b| {
        let mut pipeline =
            Pipeline::new(&model, &interner, serve_cfg).with_observations(metrics.clone());
        let mut t = 0usize;
        b.iter(|| {
            let window = &traces.windows[t % traces.windows.len()];
            let n = window.len().max(1) as f64;
            let mut sealed = 0usize;
            for (j, trace) in window.iter().enumerate() {
                let at_secs = t as f64 + (j as f64 + 0.5) / n;
                sealed += pipeline
                    .ingest(TimestampedTrace {
                        at_secs,
                        trace: trace.clone(),
                    })
                    .expect("serve ingest")
                    .len();
            }
            t += 1;
            sealed
        });
    });
    // The same per-window stream through the *frozen* adaptive pipeline:
    // the full continual-learning wrapper with the master switch off. Its
    // delta over `window_step_serve` is the disabled-adaptation overhead.
    group.bench_function("window_step_frozen", |b| {
        let frozen = DeepRest::from_json(&model.to_json().expect("serialize model"))
            .expect("round-trip model");
        let config = AdaptConfig {
            serve: serve_cfg,
            ..AdaptConfig::default()
        }
        .frozen();
        let mut pipeline = AdaptivePipeline::new(frozen, &interner, metrics.clone(), config);
        let mut t = 0usize;
        b.iter(|| {
            let window = &traces.windows[t % traces.windows.len()];
            let n = window.len().max(1) as f64;
            let mut sealed = 0usize;
            for (j, trace) in window.iter().enumerate() {
                let at_secs = t as f64 + (j as f64 + 0.5) / n;
                sealed += pipeline
                    .ingest(TimestampedTrace {
                        at_secs,
                        trace: trace.clone(),
                    })
                    .expect("frozen ingest")
                    .len();
            }
            t += 1;
            sealed
        });
    });
    group.finish();
}

/// Per-round cost of the multi-tenant front end: each iteration submits
/// one window's arrivals to every tenant (admission control: breaker,
/// quotas, bounded queue) and runs one DRR scheduling round that drains
/// them all into the per-tenant pipelines. `1t` next to the committed
/// `adapt/window_step_serve` baseline pins the front-end overhead over a
/// bare pipeline; `4t`/`16t` pin the scaling of co-resident tenants
/// sharing one model's weights.
fn bench_multi_tenant_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    let (interner, traces, metrics) = synthetic(64, 96);
    let (model, _) = DeepRest::fit(&traces, &metrics, &interner, quick_config());
    let serve_cfg = ServeConfig::default()
        .with_window_secs(1.0)
        .with_lateness_secs(2.0);
    for tenants in [1usize, 4, 16] {
        let id = format!("{tenants}t");
        group.bench_with_input(BenchmarkId::new("multi_tenant_step", &id), &id, |b, _| {
            let mut registry =
                TenantRegistry::new(SchedConfig::default(), OverloadConfig::default());
            for i in 0..tenants {
                registry.add_tenant(
                    &model,
                    &interner,
                    serve_cfg,
                    TenantConfig::new(format!("t{i}")).with_queue_capacity(1024),
                );
            }
            let mut t = 0usize;
            b.iter(|| {
                let window = &traces.windows[t % traces.windows.len()];
                let n = window.len().max(1) as f64;
                for (j, trace) in window.iter().enumerate() {
                    let at_secs = t as f64 + (j as f64 + 0.5) / n;
                    let arrival = TimestampedTrace {
                        at_secs,
                        trace: trace.clone(),
                    };
                    // Clone per extra tenant only: the last submit moves
                    // the arrival, so `1t` pays exactly one clone per
                    // trace — the same as `window_step_serve`.
                    for tenant in 1..tenants {
                        registry
                            .submit(tenant, arrival.clone())
                            .expect("unloaded admission");
                    }
                    registry.submit(0, arrival).expect("unloaded admission");
                }
                t += 1;
                registry.run_round().drained
            });
        });
    }
    group.finish();
}

/// `jaeger::import_timestamped_counted` into a warm name table, on the two
/// document shapes of the end-to-end replays: one scrape window of the social
/// network at its daily peak (several hundred multi-span traces, ~3 MB), and
/// eight single-span traces (~6 KB).
fn bench_jaeger_import(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(20);
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(480.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(96)
        .with_seed(17)
        .generate();
    let sim = simulate(&app, &traffic, &SimConfig::default().with_seed(17));
    let peak = sim
        .traces
        .windows
        .iter()
        .max_by_key(|w| w.len())
        .expect("a simulated day has windows");
    let dense = jaeger::export(peak, &sim.interner);
    // Four single-span services called twice each.
    let (wide_names, wide_traces, _) = multi_expert(8, 1);
    let wide = jaeger::export(&wide_traces.windows[0], &wide_names);
    for (name, doc) in [("dense", &dense), ("wide", &wide)] {
        let mut names = Interner::new();
        jaeger::import(doc, &mut names).expect("exported document imports");
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_function(&format!("jaeger_import/{name}"), |b| {
            b.iter(|| {
                let stats = jaeger::import_timestamped_counted(black_box(doc), &mut names)
                    .expect("exported document imports");
                stats.traces.len() + stats.malformed_dropped
            });
        });
    }
    group.finish();
}

fn bench_scale_control_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(20);
    let scenario = Scenario::new(ScenarioKind::Surge);
    let model = scenario.train();
    let config = ScaleLoopConfig::default();
    let policy = TargetUtilizationPolicy {
        target_utilization: PROACTIVE_TARGET_UTILIZATION,
    };
    group.bench_function("control_interval", |b| {
        let mut lp = ScaleLoop::new(&model, &scenario, policy, config);
        b.iter(|| {
            for _ in 0..config.control_interval {
                if !lp.step().expect("scale step") {
                    // Scenario exhausted: restart the loop and keep going.
                    lp = ScaleLoop::new(&model, &scenario, policy, config);
                    lp.step().expect("scale step after restart");
                }
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_feature_extraction,
    bench_trace_synthesis,
    bench_matmul,
    bench_gemv,
    bench_activations,
    bench_expert_training_epoch,
    bench_joint_training_epoch,
    bench_expert_inference,
    bench_streaming_step,
    bench_pool_dispatch,
    bench_batched_serving,
    bench_gemm_batch,
    bench_backward,
    bench_analytic_training,
    bench_pca,
    bench_adapt,
    bench_multi_tenant_step,
    bench_jaeger_import,
    bench_scale_control_interval
);
criterion_main!(benches);
