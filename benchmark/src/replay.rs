//! `replay_dense` and `replay_wide`: Jaeger bytes → import → window assembly
//! → features → step → sanity → sink, one document per op.
//!
//! Both run the same code; they differ in the generated application. The
//! dense one replays social-network days (≈300 traces, ≈1.1 MB per document,
//! 76 experts), so `trace.jaeger` does most of the work. The wide one
//! replays a 128-component app with 8 two-span traces per document (≈6 KB,
//! 256 experts), so the O(E²) `core.stream` step does.

use std::collections::BTreeMap;
use std::time::Instant;

use deeprest::core::stream::{PointEstimate, StreamPredictor};
use deeprest::core::{DeepRest, ExpertKey};
use deeprest::metrics::MetricsRegistry;
use deeprest::serve::sanity::OnlineSanity;
use deeprest::serve::{
    batch_reference, contributing_apis, Alert, AlertSink, CheckpointStore, CollectSink,
    ObservationSource, Pipeline, ServeConfig, WindowOutput,
};
use deeprest::trace::stream::{SealedWindow, WindowAssembler};
use deeprest::trace::window::{TimestampedTrace, WindowedTraces};
use deeprest::trace::{jaeger, Interner};

use crate::inputs::{self, timed, SetupTimes};
use crate::report::{peak_rss_mb, repeat_setup, Check, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, op_metrics, Digest, OpLog};

/// Ops of a nominal 10 s run on the reference box (2 cores): 5 passes over
/// the 96 dense documents, 45 over the 192 wide ones.
const DENSE_OPS_PER_10S: usize = 480;
const WIDE_OPS_PER_10S: usize = 8640;
/// The batch reference costs about what streaming does, so at most this
/// many leading windows are compared bit for bit; the digest covers the rest.
const CHECK_WINDOWS: usize = 2400;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Dense,
    Wide,
}

/// Everything the replay needs, made once per set-up.
struct Inputs {
    model: DeepRest,
    /// The traces the documents were exported from, with their name table:
    /// what the batch reference reads, so the check also covers the
    /// export/import round trip.
    traces: WindowedTraces,
    interner: Interner,
    docs: Vec<String>,
    /// Name table warmed by importing the documents once.
    names: Interner,
    /// Observed metrics of the distinct documents (one window each).
    observed: MetricsRegistry,
    config: ServeConfig,
    times: SetupTimes,
}

fn setup(shape: Shape, ctx: &Ctx) -> Inputs {
    let mut times = SetupTimes::default();
    let (model, traces, interner, docs, names, observed, config) = match shape {
        Shape::Dense => {
            let ((_, sim), sim_s) =
                timed(|| inputs::social_days(ctx.seed, inputs::DENSE_USERS, inputs::DENSE_DAYS));
            let ((model, _), fit_s) = timed(|| inputs::serving_model(&sim, ctx.seed, ctx.threads));
            let (docs, export_s) = timed(|| inputs::export_docs(&sim.traces, &sim.interner));
            let (names, import_s) = timed(|| inputs::warm_names(&docs[..inputs::DENSE_WARM_DOCS]));
            times = SetupTimes {
                sim_s,
                fit_s,
                export_s,
                import_s,
                other_s: 0.0,
            };
            let config = ServeConfig::default().with_window_secs(sim.traces.window_secs);
            (
                model,
                sim.traces,
                sim.interner,
                docs,
                names,
                sim.metrics,
                config,
            )
        }
        Shape::Wide => {
            let ((interner, traces, metrics), sim_s) =
                timed(|| inputs::wide_app(ctx.seed, inputs::WIDE_COMPONENTS, inputs::WIDE_WINDOWS));
            let ((model, _), fit_s) =
                timed(|| inputs::wide_model(&traces, &metrics, &interner, ctx.seed, ctx.threads));
            let (docs, export_s) = timed(|| inputs::export_docs(&traces, &interner));
            let (names, import_s) = timed(|| inputs::warm_names(&docs));
            times = SetupTimes {
                sim_s,
                fit_s,
                export_s,
                import_s,
                ..times
            };
            // Lateness a quarter window: the third of eight arrivals seals
            // the previous window.
            let config = ServeConfig::default()
                .with_window_secs(traces.window_secs)
                .with_lateness_secs(0.25 * traces.window_secs);
            (model, traces, interner, docs, names, metrics, config)
        }
    };
    // Building the serving object is set-up too: work a later change moves
    // out of the op (packing, attribution) must show here.
    let ((), other_s) = timed(|| drop(Pipeline::new(&model, &names, config)));
    times.other_s = other_s;
    Inputs {
        model,
        traces,
        interner,
        docs,
        names,
        observed,
        config,
        times,
    }
}

/// Counters of one pass over the documents.
#[derive(Clone, Copy, Debug, Default)]
struct PassCounts {
    arrivals: u64,
    bytes: u64,
    spans: u64,
    malformed: u64,
    ingest_errors: u64,
}

struct Pass {
    log: OpLog,
    /// The leading outputs kept for the bit-for-bit checks; every output,
    /// kept or not, is folded into `digest`.
    outputs: Vec<WindowOutput>,
    digest: Digest,
    emitted: u64,
    alerts_fired: usize,
    counts: PassCounts,
    late_dropped: u64,
    alerts_delivered: usize,
    names_grew: bool,
}

/// Drives `ops` documents through import and the real `Pipeline`, keeping
/// the first `keep` outputs.
fn run_pass(
    inp: &Inputs,
    observed: &MetricsRegistry,
    ops: usize,
    keep: usize,
    tr: &mut Tracer,
) -> Pass {
    let ws = inp.config.window_secs;
    let mut names = inp.names.clone();
    let warm = names.len();
    let sink = CollectSink::new();
    let mut pipeline = Pipeline::new(&inp.model, &inp.names, inp.config)
        .with_observations(observed.clone())
        .with_sink(sink.clone());

    let mut log = OpLog::with_capacity(ops);
    let mut kept = Vec::with_capacity(keep.min(ops + 1));
    let (mut digest, mut emitted, mut alerts_fired) = (Digest::default(), 0u64, 0usize);
    let mut alerts_delivered = 0usize;
    // Folds an op's outputs into the digest, after the op's clock stopped.
    let mut absorb = |outs: &mut Vec<WindowOutput>| {
        // Count and let go of what the sink collected, so the harness's
        // copy of the alerts does not grow into `peak_rss_mb`.
        alerts_delivered += sink.take().len();
        for out in outs.drain(..) {
            digest.fold_output(&out);
            emitted += 1;
            alerts_fired += out.alerts.len();
            if kept.len() < keep {
                kept.push(out);
            }
        }
    };
    let mut outputs = Vec::new();
    let mut counts = PassCounts::default();
    for op in 0..ops {
        let doc = &inp.docs[op % inp.docs.len()];
        let t0 = Instant::now();
        let op_span = tr.begin("op", op);
        let s = tr.begin("trace.jaeger.import", op);
        let imported =
            jaeger::import_timestamped_counted(doc, &mut names).expect("exported document imports");
        tr.end(s);
        let s = tr.begin("serve.pipeline.ingest", op);
        let n = imported.traces.len();
        let mut spans = 0u64;
        for (j, mut arrival) in imported.traces.into_iter().enumerate() {
            arrival.at_secs = inputs::arrival_secs(op, j, n, ws);
            spans += arrival.trace.span_count() as u64;
            match pipeline.ingest(arrival) {
                Ok(outs) => outputs.extend(outs),
                Err(_) => counts.ingest_errors += 1,
            }
        }
        tr.end(s);
        tr.end(op_span);
        log.push(t0.elapsed().as_nanos() as u64, outputs.len());
        absorb(&mut outputs);
        counts.arrivals += n as u64;
        counts.bytes += doc.len() as u64;
        counts.spans += spans;
        counts.malformed += imported.malformed_dropped as u64;
    }
    outputs.extend(pipeline.flush().expect("flush of a healthy pipeline"));
    absorb(&mut outputs);
    Pass {
        log,
        outputs: kept,
        digest,
        emitted,
        alerts_fired,
        counts,
        late_dropped: pipeline.late_dropped(),
        alerts_delivered,
        names_grew: names.len() != warm,
    }
}

/// Drives the same `ops` documents through the stage chain, a span around
/// each stage. A pass of its own: run beside the pipeline op by op, the two
/// predictors evict each other's packed weights (8 MiB each on the wide
/// model) and every stage reads 40-50 % slower than it is.
fn run_chain(
    inp: &Inputs,
    observed: &MetricsRegistry,
    ops: usize,
    tr: &mut Tracer,
) -> Vec<WindowOutput> {
    let ws = inp.config.window_secs;
    let mut names = inp.names.clone();
    let mut chain = Chain::new(&inp.model, &inp.names, inp.config, observed.clone());
    let mut out = Vec::with_capacity(ops + 1);
    for op in 0..ops {
        let arrivals = jaeger::import_timestamped(&inp.docs[op % inp.docs.len()], &mut names)
            .expect("exported document imports");
        let n = arrivals.len();
        let root = tr.begin("chain", op);
        for (j, mut arrival) in arrivals.into_iter().enumerate() {
            arrival.at_secs = inputs::arrival_secs(op, j, n, ws);
            chain.push(arrival, tr, op, &mut out);
        }
        tr.end(root);
    }
    chain.flush(tr, ops, &mut out);
    out
}

/// The pipeline's stages assembled from the library's public pieces, in the
/// order `Pipeline::process_window` runs them, with a span around each. Its
/// outputs must be bit-identical to the pipeline's.
struct Chain<'m> {
    model: &'m DeepRest,
    source: Interner,
    assembler: WindowAssembler,
    predictor: StreamPredictor<'m>,
    sanity: OnlineSanity,
    keys: Vec<ExpertKey>,
    is_delta: Vec<bool>,
    contributing: Vec<Vec<String>>,
    observed: MetricsRegistry,
    sink: CollectSink,
}

impl<'m> Chain<'m> {
    fn new(
        model: &'m DeepRest,
        source: &Interner,
        config: ServeConfig,
        observed: MetricsRegistry,
    ) -> Self {
        let keys = model.expert_keys();
        Self {
            model,
            source: source.clone(),
            assembler: WindowAssembler::new(config.window_secs, config.lateness_secs),
            predictor: model.stream_predictor(),
            sanity: OnlineSanity::new(config.sanity, keys.len()),
            is_delta: keys
                .iter()
                .map(|k| model.expert_is_delta(k).unwrap_or(false))
                .collect(),
            contributing: contributing_apis(model, &keys, config.api_threshold),
            keys,
            observed,
            sink: CollectSink::new(),
        }
    }

    fn push(
        &mut self,
        arrival: TimestampedTrace,
        tr: &mut Tracer,
        op: usize,
        out: &mut Vec<WindowOutput>,
    ) {
        let s = tr.begin("trace.stream.assemble", op);
        let sealed = self.assembler.push(arrival);
        tr.end(s);
        for w in &sealed {
            out.push(self.window(w, tr, op));
        }
    }

    fn flush(&mut self, tr: &mut Tracer, op: usize, out: &mut Vec<WindowOutput>) {
        for w in &self.assembler.flush() {
            out.push(self.window(w, tr, op));
        }
    }

    fn window(&mut self, w: &SealedWindow, tr: &mut Tracer, op: usize) -> WindowOutput {
        let s = tr.begin("core.features.extract", op);
        let x = self.model.window_features(&w.traces, &self.source);
        tr.end(s);
        // The pipeline snapshots before every step (its rollback point).
        let s = tr.begin("core.stream.snapshot", op);
        std::hint::black_box(self.predictor.snapshot());
        tr.end(s);
        let s = tr.begin("core.stream.step", op);
        let estimates: Vec<PointEstimate> = self.predictor.step(&x);
        tr.end(s);

        let s = tr.begin("serve.sanity.observe", op);
        let mut scores = Vec::with_capacity(self.keys.len());
        let mut alerts = Vec::new();
        for (e, key) in self.keys.iter().enumerate() {
            let Some(actual) = self.observed.observe(key, w.index) else {
                scores.push(f64::NAN);
                continue;
            };
            let outcome = self
                .sanity
                .observe(e, actual, &estimates[e], self.is_delta[e]);
            scores.push(outcome.score);
            if outcome.alerting {
                alerts.push(Alert {
                    component: key.component.clone(),
                    resource: key.resource,
                    window: w.index,
                    score: outcome.score,
                    deviation_pct: outcome.deviation_pct,
                    contributing_apis: self.contributing[e].clone(),
                });
            }
        }
        tr.end(s);
        let s = tr.begin("serve.alert.deliver", op);
        for alert in &alerts {
            self.sink.emit(alert).expect("CollectSink never fails");
        }
        tr.end(s);
        WindowOutput {
            window: w.index,
            trace_count: w.traces.len(),
            estimates,
            scores,
            alerts,
        }
    }
}

/// What the batch path makes of the first `ops` windows, from the traces
/// the documents were exported from.
fn reference(inp: &Inputs, observed: &MetricsRegistry, ops: usize) -> Vec<WindowOutput> {
    let sealed: Vec<SealedWindow> = (0..ops)
        .map(|op| SealedWindow {
            index: op,
            traces: inp.traces.windows[op % inp.docs.len()].clone(),
        })
        .collect();
    batch_reference(
        &inp.model,
        &sealed,
        &inp.interner,
        Some(observed),
        &inp.config,
    )
}

/// Flips the lowest mantissa bit of one estimate: the smallest corruption a
/// bit-identity check must catch.
pub fn corrupt(outputs: &mut [WindowOutput]) {
    if let Some(p) = outputs
        .get_mut(outputs.len() / 2)
        .and_then(|o| o.estimates.first_mut())
    {
        p.expected = f64::from_bits(p.expected.to_bits() ^ 1);
    }
}

pub fn run(shape: Shape, ctx: &Ctx) -> Outcome {
    let (inp, setup_s) = repeat_setup(ctx.setup_reps(3), || {
        let inp = setup(shape, ctx);
        let secs = inp.times.total();
        (inp, secs)
    });

    let distinct = inp.docs.len();
    let ops = match shape {
        Shape::Dense => ctx.ops(DENSE_OPS_PER_10S, distinct),
        Shape::Wide => ctx.ops(WIDE_OPS_PER_10S, distinct),
    };
    // One observed window per op, plus the one the final flush seals.
    let observed = inputs::tile_metrics(&inp.observed, distinct, ops + 1, |_| 1.0);

    let check_ops = ops.min(CHECK_WINDOWS);
    let mut pass = run_pass(&inp, &observed, ops, check_ops, &mut Tracer::new(false));
    let rss = peak_rss_mb();

    let mut layers = BTreeMap::new();
    let mut tracer = None;
    let mut checks = Vec::new();
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let traced = run_pass(&inp, &observed, ops, usize::MAX, &mut tr);
        let chain_out = run_chain(&inp, &observed, ops, &mut tr);
        checks.push(Check::bit_equal(
            "stage_chain_bit_equals_pipeline",
            &chain_out,
            &traced.outputs,
            format!("{} windows", chain_out.len()),
        ));
        checks.push(Check::new(
            "traced_pass_repeats_untraced",
            traced.digest == pass.digest,
            "same inputs, same digest",
        ));
        layers = layer_metrics(shape, ctx, &inp, &observed, &pass, &traced, &tr);
        tracer = Some(tr);
    }

    if ctx.corrupt {
        corrupt(&mut pass.outputs);
    }
    let expected = reference(&inp, &observed, check_ops);
    checks.push(Check::bit_equal(
        "outputs_bit_equal_batch_reference",
        &pass.outputs,
        &expected,
        format!(
            "first {} of {} windows compared",
            expected.len(),
            pass.emitted
        ),
    ));
    checks.push(Check::new(
        "every_alert_reached_the_sink",
        pass.alerts_fired == pass.alerts_delivered,
        format!(
            "{} fired, {} delivered",
            pass.alerts_fired, pass.alerts_delivered
        ),
    ));
    checks.push(Check::new(
        "name_table_was_warm",
        !pass.names_grew,
        "no name first seen during the timed run",
    ));

    // One window per op is expected once the stream is flushed.
    let expected_windows = ops as u64;
    let missing = expected_windows.saturating_sub(pass.emitted);
    let lost = pass.late_dropped + pass.counts.malformed + pass.counts.ingest_errors;
    layers.insert("failed.arrivals", lost as f64);
    layers.insert("failed.windows", missing as f64);
    Outcome {
        attempted: pass.counts.arrivals + expected_windows,
        failed: lost + missing,
        checks,
        digest: pass.digest,
        e2e: op_metrics(&pass.log, distinct).to_vec(),
        setup_s,
        peak_rss_mb: rss,
        layers,
        tracer,
    }
}

/// Floating-point operations of one `StreamPredictor::step`, computed from
/// the model's geometry (not measured): per expert the mask (`d`), three
/// input GEMVs (`6hd`), three recurrent GEMVs (`6h²`), the head (`12h`) and
/// the skip (`6d`); plus the attention GEMM over all experts (`2hE²`).
pub fn step_flops(experts: usize, hidden: usize, dim: usize) -> f64 {
    let (e, h, d) = (experts as f64, hidden as f64, dim as f64);
    e * (d + 6.0 * h * d + 6.0 * h * h + 12.0 * h + 6.0 * d) + 2.0 * h * e * e
}

/// Mean seconds per `step` of `model` over the given feature vectors.
fn step_secs(model: &DeepRest, xs: &[Vec<f32>], steps: usize) -> f64 {
    let mut p = model.stream_predictor();
    for x in xs.iter().cycle().take(16) {
        std::hint::black_box(p.step(x));
    }
    let t = Instant::now();
    for x in xs.iter().cycle().take(steps) {
        std::hint::black_box(p.step(x));
    }
    t.elapsed().as_secs_f64() / steps as f64
}

fn layer_metrics(
    shape: Shape,
    ctx: &Ctx,
    inp: &Inputs,
    observed: &MetricsRegistry,
    base: &Pass,
    traced: &Pass,
    tr: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let ops = traced.log.ops.len();
    let layers = tr.layers();
    let per_op = |name: &str| tr.median_self_us(name, ops);
    let import_us = per_op("trace.jaeger.import");
    let ingest_us = per_op("serve.pipeline.ingest");
    let stages = [
        ("trace.stream.assemble_us", per_op("trace.stream.assemble")),
        ("core.features.extract_us", per_op("core.features.extract")),
        ("core.stream.snapshot_us", per_op("core.stream.snapshot")),
        ("core.stream.step_us", per_op("core.stream.step")),
        ("serve.sanity.observe_us", per_op("serve.sanity.observe")),
        ("serve.alert.deliver_us", per_op("serve.alert.deliver")),
    ];
    let stage_sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let op_total = layers.get("op").map_or(0.0, |l| l.total_ns as f64);
    let op_self = layers.get("op").map_or(0.0, |l| l.self_ns as f64);
    let op_us = import_us + ingest_us;
    let import_secs = layers
        .get("trace.jaeger.import")
        .map_or(0.0, |l| l.total_ns as f64 / 1e9);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.extend(stages);
    m.insert("trace.jaeger.import_us", import_us);
    m.insert(
        "trace.jaeger.import_mb_per_s",
        traced.counts.bytes as f64 / 1e6 / import_secs.max(1e-12),
    );
    m.insert(
        "trace.jaeger.bytes_per_op",
        traced.counts.bytes as f64 / ops as f64,
    );
    m.insert(
        "trace.jaeger.spans_per_op",
        traced.counts.spans as f64 / ops as f64,
    );
    m.insert("trace.jaeger.malformed", traced.counts.malformed as f64);
    m.insert("trace.stream.late_dropped", traced.late_dropped as f64);
    m.insert("serve.pipeline.ingest_us", ingest_us);
    // Ingest minus the stages above: rollback bookkeeping, the finiteness
    // and quarantine scans, sink retry wrapper, allocation.
    m.insert("serve.pipeline.overhead_us", ingest_us - stage_sum);
    m.insert(
        "serve.pipeline.stage_sum_ratio",
        (op_total - op_self) / op_total.max(1.0),
    );
    m.insert("serve.alert.count", traced.alerts_delivered as f64);
    m.insert("share.import_pct", 100.0 * import_us / op_us.max(1e-12));
    m.insert(
        "share.step_pct",
        100.0 * per_op("core.stream.step") / op_us.max(1e-12),
    );
    m.insert(
        "trace_overhead_pct",
        100.0 * (traced.log.pooled_us(0.5) / base.log.pooled_us(0.5).max(1e-12) - 1.0),
    );
    m.insert("tail.op_p99_us", base.log.pooled_us(0.99));
    m.insert("tail.op_count", base.log.ops.len() as f64);

    let predictor = inp.model.stream_predictor();
    let experts = inp.model.expert_keys().len();
    let dim = inp.model.feature_space().dim();
    m.insert("core.features.dim", dim as f64);
    m.insert("core.stream.experts", experts as f64);
    m.insert("core.stream.shards", predictor.shard_count() as f64);
    m.insert("core.stream.state_bytes", predictor.state_bytes() as f64);
    m.insert(
        "core.stream.step_flops",
        step_flops(experts, inp.model.config().hidden_dim, dim),
    );

    m.insert("setup.sim_s", inp.times.sim_s);
    m.insert("setup.fit_s", inp.times.fit_s);
    m.insert("setup.export_s", inp.times.export_s);
    m.insert("setup.import_s", inp.times.import_s);

    m.extend(checkpoint_metrics(ctx, inp, observed));
    if shape == Shape::Wide {
        m.insert("tensor.pool.step_speedup_t2", step_speedup(ctx, inp));
    }
    m
}

/// State size and snapshot time of a pipeline mid-stream: checkpoint to the
/// framed on-disk store, load it back, rebuild the pipeline.
fn checkpoint_metrics(
    ctx: &Ctx,
    inp: &Inputs,
    observed: &MetricsRegistry,
) -> [(&'static str, f64); 3] {
    let ws = inp.config.window_secs;
    let mut names = inp.names.clone();
    let mut pipeline =
        Pipeline::new(&inp.model, &inp.names, inp.config).with_observations(observed.clone());
    for op in 0..inp.docs.len().min(24) {
        let arrivals = jaeger::import_timestamped(&inp.docs[op], &mut names)
            .expect("exported document imports");
        let n = arrivals.len();
        for (j, mut a) in arrivals.into_iter().enumerate() {
            a.at_secs = inputs::arrival_secs(op, j, n, ws);
            pipeline.ingest(a).expect("healthy pipeline");
        }
    }
    let store = CheckpointStore::new(ctx.out_dir.join("checkpoint"));
    let (mut save, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let ((), s) = timed(|| {
            store
                .save(&pipeline.checkpoint())
                .expect("checkpoint saves")
        });
        save.push(s * 1e3);
        let (_, s) = timed(|| {
            let ck = store.load_latest().expect("checkpoint loads");
            Pipeline::restore(&inp.model, &inp.names, inp.config, ck).expect("restores")
        });
        restore.push(s * 1e3);
    }
    let bytes = std::fs::metadata(store.latest_path()).map_or(0, |m| m.len());
    [
        ("serve.checkpoint.save_ms", stats::median(&save)),
        ("serve.checkpoint.restore_ms", stats::median(&restore)),
        ("serve.checkpoint.bytes", bytes as f64),
    ]
}

/// Step time at one thread over step time at two: the same model (fits are
/// bit-identical at any thread count) refitted with its pool pinned to 1.
fn step_speedup(ctx: &Ctx, inp: &Inputs) -> f64 {
    if ctx.threads < 2 {
        return 1.0;
    }
    let (interner, traces, metrics) =
        inputs::wide_app(ctx.seed, inputs::WIDE_COMPONENTS, inputs::WIDE_WINDOWS);
    let (serial, _) = inputs::wide_model(&traces, &metrics, &interner, ctx.seed, 1);
    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| serial.window_features(w, &interner))
        .collect();
    let steps = if ctx.smoke { 64 } else { 768 };
    step_secs(&serial, &xs, steps) / step_secs(&inp.model, &xs, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::first_divergence;

    #[test]
    fn step_flops_grow_quadratically_in_experts() {
        let small = step_flops(64, 16, 128);
        let big = step_flops(256, 16, 128);
        // 4x the experts: the linear terms give 4x, the attention term 16x.
        assert!(big > 4.0 * small && big < 16.0 * small);
        let attention_only =
            step_flops(256, 16, 128) - 256.0 * step_flops(1, 16, 128) + 256.0 * 2.0 * 16.0;
        assert_eq!(attention_only, 2.0 * 16.0 * 256.0 * 256.0);
    }

    #[test]
    fn corruption_is_one_bit_in_one_estimate() {
        let out = |v: f64| WindowOutput {
            window: 0,
            trace_count: 1,
            estimates: vec![PointEstimate {
                expected: v,
                lower: v,
                upper: v,
            }],
            scores: Vec::new(),
            alerts: Vec::new(),
        };
        let clean = vec![out(1.0), out(2.0), out(3.0)];
        let mut dirty = clean.clone();
        corrupt(&mut dirty);
        assert_eq!(first_divergence(&clean, &dirty), Some(1));
        assert_eq!(
            dirty[1].estimates[0].expected.to_bits() ^ clean[1].estimates[0].expected.to_bits(),
            1
        );
    }
}
