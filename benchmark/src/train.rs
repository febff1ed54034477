//! `train_query`: the paper's offline use — learn an application, then ask
//! it questions.
//!
//! Each of the five segments is one `DeepRest::fit` on seven simulated days
//! (hidden 32) followed by query patterns on that model: four
//! `estimate_what_if` over an 8-window horizon forked from a live
//! `StreamSnapshot` (the `ScaleLoop` primitive), then one `estimate_traffic`
//! of a one-day, 2x-users query. Serving does no work here.
//!
//! How the shared end-to-end names read on this workload:
//! `windows_per_s` is training throughput (windows x epochs per second of
//! `fit`); the query ops are timed individually, and because one op in five
//! is the ~20x slower `estimate_traffic`, `op_p50_us` is the median what-if
//! and `op_p90_us` the median `estimate_traffic`.

use std::collections::BTreeMap;
use std::time::Instant;

use deeprest::core::stream::StreamSnapshot;
use deeprest::core::{DeepRest, DeepRestConfig, Estimates, TrainReport};
use deeprest::sim::engine::SimOutput;
use deeprest::workload::ApiTraffic;

use crate::inputs::{self, timed};
use crate::report::{peak_rss_mb, repeat_setup, Check, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, percentile, Digest, Stat, SEGMENTS};

const FIT_DAYS: usize = 7;
const HIDDEN: usize = 32;
/// The issue's prototype trained 8 epochs inside a 20 s budget; the run cap
/// of the benchmark contract leaves room for 3.
const EPOCHS: usize = 3;
/// Query patterns per segment of a nominal 10 s run.
const PATTERNS_PER_SEGMENT: usize = 10;
const WHAT_IFS_PER_PATTERN: usize = 4;
const HORIZON: usize = 8;
/// Windows the live stream has seen when the what-if forks from it.
const LIVE_WINDOWS: usize = 20;

struct Inputs {
    sim: SimOutput,
    /// One day at twice the users.
    query: ApiTraffic,
    /// The announced traffic of the horizon after the fork point.
    horizon: ApiTraffic,
    epochs: usize,
    sim_s: f64,
}

fn setup(ctx: &Ctx) -> Inputs {
    let (days, epochs) = if ctx.smoke {
        (2, 1)
    } else {
        (FIT_DAYS, EPOCHS)
    };
    let ((traffic, sim), sim_s) = timed(|| inputs::social_days(ctx.seed, inputs::USERS, days));
    let query = traffic.slice(0..inputs::WINDOWS_PER_DAY).scale(2.0);
    let horizon = traffic.slice(LIVE_WINDOWS..LIVE_WINDOWS + HORIZON);
    Inputs {
        sim,
        query,
        horizon,
        epochs,
        sim_s,
    }
}

fn fit(inp: &Inputs, ctx: &Ctx, threads: usize) -> (DeepRest, TrainReport, f64) {
    let cfg = DeepRestConfig::default()
        .with_hidden(HIDDEN)
        .with_epochs(inp.epochs)
        .with_seed(ctx.seed)
        .with_threads(threads);
    let ((model, report), secs) =
        timed(|| DeepRest::fit(&inp.sim.traces, &inp.sim.metrics, &inp.sim.interner, cfg));
    (model, report, secs)
}

/// The state of a stream that has served [`LIVE_WINDOWS`] windows.
fn live_snapshot(model: &DeepRest, sim: &SimOutput) -> StreamSnapshot {
    let mut predictor = model.stream_predictor();
    for w in &sim.traces.windows[..LIVE_WINDOWS] {
        predictor.step(&model.window_features(w, &sim.interner));
    }
    predictor.snapshot()
}

fn fold_estimates(digest: &mut Digest, est: &Estimates) {
    for (_, series) in est.iter() {
        digest.fold_bits(
            series
                .expected
                .values()
                .iter()
                .chain(series.lower.values())
                .chain(series.upper.values())
                .map(|v| v.to_bits()),
        );
    }
}

fn estimates_bit_equal(a: &Estimates, b: &Estimates) -> bool {
    let (mut da, mut db) = (Digest::default(), Digest::default());
    fold_estimates(&mut da, a);
    fold_estimates(&mut db, b);
    a.len() == b.len() && da == db
}

/// Wall times of one segment's queries, in microseconds.
#[derive(Default)]
struct Queries {
    what_if_us: Vec<f64>,
    traffic_us: Vec<f64>,
    errors: u64,
}

impl Queries {
    /// Median and 90th percentile over both kinds of query.
    fn p50_p90(&self) -> (f64, f64) {
        let mut us = self.all_us();
        us.sort_by(f64::total_cmp);
        (percentile(&us, 0.50), percentile(&us, 0.90))
    }

    fn all_us(&self) -> Vec<f64> {
        self.what_if_us
            .iter()
            .chain(&self.traffic_us)
            .copied()
            .collect()
    }
}

/// Element `k` of the result is the smallest element `k` of any row.
fn best_by_position<'a>(rows: impl Iterator<Item = &'a [f64]> + Clone) -> Vec<f64> {
    let len = rows.clone().map(<[f64]>::len).min().unwrap_or(0);
    (0..len)
        .map(|k| rows.clone().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Runs `patterns` query patterns. Seeds advance per query so no two
/// queries are the same work; the first of each kind is folded into the
/// digest.
fn run_patterns(
    inp: &Inputs,
    model: &DeepRest,
    snap: &StreamSnapshot,
    patterns: usize,
    seed0: u64,
    digest: Option<&mut Digest>,
    tr: &mut Tracer,
) -> Queries {
    let mut q = Queries::default();
    let mut digest = digest;
    for p in 0..patterns {
        for k in 0..WHAT_IFS_PER_PATTERN {
            let seed = seed0 ^ ((p * WHAT_IFS_PER_PATTERN + k) as u64).wrapping_mul(0x9e37_79b9);
            let t0 = Instant::now();
            let s = tr.begin("core.estimator.estimate_what_if", p);
            let est = model.estimate_what_if(snap, &inp.horizon, seed);
            tr.end(s);
            q.what_if_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            match est {
                Ok(est) if p == 0 && k == 0 => {
                    if let Some(d) = digest.as_deref_mut() {
                        fold_estimates(d, &est);
                    }
                }
                Ok(est) => drop(std::hint::black_box(est)),
                Err(_) => q.errors += 1,
            }
        }
        let seed = seed0 ^ (p as u64).wrapping_mul(0x85eb_ca6b);
        let t0 = Instant::now();
        let s = tr.begin("core.estimator.estimate_traffic", p);
        let est = model.estimate_traffic(&inp.query, seed);
        tr.end(s);
        q.traffic_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if p == 0 {
            if let Some(d) = digest.as_deref_mut() {
                fold_estimates(d, &est);
            }
        }
        std::hint::black_box(est);
    }
    q
}

pub fn run(ctx: &Ctx) -> Outcome {
    // Set-up here is only the simulation (0.06 s): short enough to need
    // many repetitions for a steady median, and to afford them.
    let (inp, setup_s) = repeat_setup(ctx.setup_reps(9), || {
        let inp = setup(ctx);
        let secs = inp.sim_s;
        (inp, secs)
    });

    // (fits, query patterns after each): one segment per fit.
    let (fits, patterns) = if ctx.smoke {
        (1, 1)
    } else if ctx.trace {
        (1, PATTERNS_PER_SEGMENT)
    } else {
        let scaled = PATTERNS_PER_SEGMENT as f64 * ctx.scale();
        (SEGMENTS, scaled.round().max(1.0) as usize)
    };
    let trained_windows = (inp.sim.traces.len() * inp.epochs) as f64;

    let mut digest = Digest::default();
    let mut fit_secs = Vec::new();
    let mut reports = Vec::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut segments: Vec<Queries> = Vec::new();
    let mut last = None;
    for seg in 0..fits {
        let (model, report, secs) = fit(&inp, ctx, ctx.threads);
        fit_secs.push(secs);
        let snap = live_snapshot(&model, &inp.sim);
        // Every segment asks the same questions of the same model (fits are
        // bit-identical), so query k of every segment is the same work.
        let q = run_patterns(
            &inp,
            &model,
            &snap,
            patterns,
            ctx.seed,
            (seg == 0).then_some(&mut digest),
            &mut Tracer::new(false),
        );
        let (p50, p90) = q.p50_p90();
        p50s.push(p50);
        p90s.push(p90);
        segments.push(q);
        reports.push(report);
        last = Some((model, snap));
    }
    // As on the serving workloads: per query, the fastest of the segments.
    let all = Queries {
        what_if_us: best_by_position(segments.iter().map(|q| q.what_if_us.as_slice())),
        traffic_us: best_by_position(segments.iter().map(|q| q.traffic_us.as_slice())),
        errors: segments.iter().map(|q| q.errors).sum(),
    };
    let (p50, p90) = all.p50_p90();
    let rss = peak_rss_mb();
    let (model, snap) = last.expect("at least one fit");

    // Correctness, outside the timed region.
    let mut checks = Vec::new();
    let again = model.estimate_traffic(&inp.query, ctx.seed);
    let mut once = model.estimate_traffic(&inp.query, ctx.seed);
    if ctx.corrupt {
        once = model.estimate_traffic(&inp.query, ctx.seed ^ 1);
    }
    checks.push(Check::new(
        "estimate_traffic_repeats_per_seed",
        estimates_bit_equal(&once, &again),
        format!("{} series", again.len()),
    ));
    let w1 = model.estimate_what_if(&snap, &inp.horizon, ctx.seed);
    let w2 = model.estimate_what_if(&snap, &inp.horizon, ctx.seed);
    checks.push(Check::new(
        "estimate_what_if_repeats_per_seed",
        matches!((&w1, &w2), (Ok(a), Ok(b)) if estimates_bit_equal(a, b)),
        format!("{HORIZON}-window horizon"),
    ));
    let losses_finite = reports
        .iter()
        .all(|r| !r.epoch_losses.is_empty() && r.epoch_losses.iter().all(|l| l.is_finite()));
    checks.push(Check::new(
        "epoch_losses_finite",
        losses_finite,
        format!("{} fits x {} epochs", reports.len(), inp.epochs),
    ));
    for r in &reports {
        digest.fold_bits(r.epoch_losses.iter().map(|l| u64::from(l.to_bits())));
    }

    let mut layers = BTreeMap::new();
    let mut tracer = None;
    if ctx.trace {
        let mut tr = Tracer::new(true);
        layers = layer_metrics(
            ctx, &inp, &model, &snap, &reports, &fit_secs, &all, patterns, &mut tr,
        );
        tracer = Some(tr);
    }

    let queries = (fits * patterns * (WHAT_IFS_PER_PATTERN + 1)) as u64;
    let rates: Vec<f64> = fit_secs.iter().map(|s| trained_windows / s).collect();
    Outcome {
        attempted: fits as u64 + queries,
        failed: all.errors,
        checks,
        digest,
        e2e: vec![
            (
                "windows_per_s",
                Stat {
                    value: rates.iter().copied().fold(0.0, f64::max),
                    ..Stat::of(&rates)
                },
            ),
            (
                "op_p50_us",
                Stat {
                    value: p50,
                    ..Stat::of(&p50s)
                },
            ),
            (
                "op_p90_us",
                Stat {
                    value: p90,
                    ..Stat::of(&p90s)
                },
            ),
        ],
        setup_s,
        peak_rss_mb: rss,
        layers,
        tracer,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    inp: &Inputs,
    model: &DeepRest,
    snap: &StreamSnapshot,
    reports: &[TrainReport],
    fit_secs: &[f64],
    base: &Queries,
    patterns: usize,
    tr: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let med =
        |f: fn(&TrainReport) -> f64| stats::median(&reports.iter().map(f).collect::<Vec<_>>());

    // The queries again, traced; then `estimate_traffic` taken apart into
    // the public pieces it is made of. What the two leave is `predict`.
    let traced = run_patterns(inp, model, snap, patterns, ctx.seed, None, tr);
    let (mut synth_ms, mut extract_ms) = (Vec::new(), Vec::new());
    for p in 0..patterns.min(8) {
        let s = tr.begin("core.synthesizer.synthesize", p);
        let (synthetic, secs) = timed(|| {
            model
                .synthesizer()
                .synthesize(&inp.query, model.interner(), ctx.seed ^ p as u64)
        });
        tr.end(s);
        synth_ms.push(secs * 1e3);
        let s = tr.begin("core.features.extract_all", p);
        let (xs, secs) = timed(|| model.feature_space().extract_all_normalized(&synthetic));
        tr.end(s);
        extract_ms.push(secs * 1e3);
        std::hint::black_box(xs);
    }
    let query_ms = stats::median(&base.traffic_us) / 1e3;
    let (synth_ms, extract_ms) = (stats::median(&synth_ms), stats::median(&extract_ms));

    // One step of this model, for reading `whatif_p50_ms` (8 steps a query).
    let xs: Vec<Vec<f32>> = inp.sim.traces.windows
        [..inputs::WINDOWS_PER_DAY.min(inp.sim.traces.len())]
        .iter()
        .map(|w| model.window_features(w, &inp.sim.interner))
        .collect();
    let mut predictor = model.stream_predictor();
    let t0 = Instant::now();
    for (i, x) in xs.iter().enumerate() {
        let s = tr.begin("core.stream.step", i);
        std::hint::black_box(predictor.step(x));
        tr.end(s);
    }
    let step_us = t0.elapsed().as_nanos() as f64 / 1e3 / xs.len() as f64;

    let fit_speedup = if ctx.threads < 2 {
        1.0
    } else {
        let (_, _, serial) = fit(inp, ctx, 1);
        serial / stats::median(fit_secs)
    };
    let p50 = |q: &Queries| stats::median(&q.what_if_us);
    let experts = model.expert_keys().len();
    let dim = model.feature_space().dim();
    BTreeMap::from([
        ("core.estimator.fit_s", stats::median(fit_secs)),
        (
            "core.estimator.fit_phase.feature_space_s",
            med(|r| r.phase_seconds.feature_space),
        ),
        (
            "core.estimator.fit_phase.synthesis_s",
            med(|r| r.phase_seconds.synthesis),
        ),
        (
            "core.estimator.fit_phase.feature_extraction_s",
            med(|r| r.phase_seconds.feature_extraction),
        ),
        (
            "core.estimator.fit_phase.expert_init_s",
            med(|r| r.phase_seconds.expert_init),
        ),
        (
            "core.estimator.fit_phase.training_s",
            med(|r| r.phase_seconds.training),
        ),
        ("core.estimator.query_p50_ms", query_ms),
        (
            "core.estimator.whatif_p50_ms",
            stats::median(&base.what_if_us) / 1e3,
        ),
        (
            "core.estimator.predict_ms",
            query_ms - synth_ms - extract_ms,
        ),
        ("core.synthesizer.synthesize_ms", synth_ms),
        ("core.features.extract_all_ms", extract_ms),
        ("core.features.dim", dim as f64),
        ("core.stream.step_us", step_us),
        ("core.stream.experts", experts as f64),
        ("core.stream.shards", predictor.shard_count() as f64),
        ("core.stream.state_bytes", predictor.state_bytes() as f64),
        (
            "core.stream.step_flops",
            crate::replay::step_flops(experts, HIDDEN, dim),
        ),
        ("tensor.pool.fit_speedup_t2", fit_speedup),
        (
            "trace_overhead_pct",
            100.0 * (p50(&traced) / p50(base).max(1e-9) - 1.0),
        ),
        ("tail.op_p99_us", {
            let mut us = base.all_us();
            us.sort_by(f64::total_cmp);
            percentile(&us, 0.99)
        }),
        (
            "tail.op_count",
            (base.what_if_us.len() + base.traffic_us.len()) as f64,
        ),
        ("setup.sim_s", inp.sim_s),
    ])
}
