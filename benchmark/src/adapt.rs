//! `adapt_drift`: the `AdaptivePipeline` serving while it retrains.
//!
//! The same pre-imported days as `tenants_flood`, but the observed series
//! are multiplied by a saw-tooth that climbs from 1.0 to 1.5 over each
//! 4-day cycle and drops back, so the CUSUM drift detector enters and
//! leaves watch and the update cadence doubles and relaxes. The op is one
//! scrape window of arrivals through `ingest`; about one op in eight also
//! runs an `AnalyticTrainer` update on the slab the forward pass uses.

use std::collections::BTreeMap;
use std::time::Instant;

use deeprest::adapt::{AdaptConfig, AdaptivePipeline};
use deeprest::core::DeepRest;
use deeprest::metrics::MetricsRegistry;
use deeprest::serve::{Pipeline, ServeConfig, WindowOutput};
use deeprest::sim::engine::SimOutput;

use crate::inputs::{self, timed, SetupTimes};
use crate::report::{peak_rss_mb, repeat_setup, Check, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, op_metrics, Digest, OpLog};

/// Scrape windows of a nominal 10 s run on the reference box: 10 four-day
/// cycles.
const WINDOWS_PER_10S: usize = 3840;
/// Windows per drift cycle (four days).
const CYCLE: usize = inputs::SERVE_DAYS * inputs::WINDOWS_PER_DAY;
/// Observed utilisation at the top of the saw-tooth, relative to the model's
/// training data.
const DRIFT_PEAK: f64 = 1.5;

struct Inputs {
    model: DeepRest,
    sim: SimOutput,
    config: AdaptConfig,
    times: SetupTimes,
}

fn setup(ctx: &Ctx) -> Inputs {
    let ((_, sim), sim_s) =
        timed(|| inputs::social_days(ctx.seed, inputs::USERS, inputs::SERVE_DAYS));
    let ((model, _), fit_s) = timed(|| inputs::serving_model(&sim, ctx.seed, ctx.threads));
    let config = AdaptConfig {
        serve: ServeConfig::default().with_window_secs(sim.traces.window_secs),
        ..AdaptConfig::default()
    };
    let ((), other_s) = timed(|| {
        drop(AdaptivePipeline::new(
            model.clone(),
            &sim.interner,
            MetricsRegistry::new(),
            config,
        ));
    });
    Inputs {
        model,
        sim,
        config,
        times: SetupTimes {
            sim_s,
            fit_s,
            other_s,
            ..SetupTimes::default()
        },
    }
}

/// Observed metrics for `windows` windows under the saw-tooth.
fn drifting(inp: &Inputs, windows: usize) -> MetricsRegistry {
    inputs::tile_metrics(&inp.sim.metrics, CYCLE, windows, |w| {
        1.0 + (DRIFT_PEAK - 1.0) * (w % CYCLE) as f64 / CYCLE as f64
    })
}

struct Pass {
    log: OpLog,
    outputs: Vec<WindowOutput>,
    /// Per op: did `updates_run` advance during it.
    updated: Vec<bool>,
    arrivals: u64,
    errors: u64,
    updates_run: u64,
    updates_failed: u64,
    watch_windows: u64,
}

fn run_pass(
    inp: &Inputs,
    config: AdaptConfig,
    observed: &MetricsRegistry,
    ops: usize,
    tr: &mut Tracer,
) -> Pass {
    let ws = inp.sim.traces.window_secs;
    let mut pipeline = AdaptivePipeline::new(
        inp.model.clone(),
        &inp.sim.interner,
        observed.clone(),
        config,
    );
    let mut log = OpLog::with_capacity(ops);
    let mut outputs = Vec::with_capacity(ops + 1);
    let mut updated = Vec::with_capacity(ops);
    let (mut arrivals, mut errors, mut watch_windows) = (0u64, 0u64, 0u64);
    for op in 0..ops {
        let batch = inputs::stamp_window(&inp.sim.traces.windows[op % CYCLE], op, ws);
        arrivals += batch.len() as u64;
        let before = (outputs.len(), pipeline.updates_run());
        let t0 = Instant::now();
        let s = tr.begin("adapt.pipeline.ingest", op);
        for arrival in batch {
            match pipeline.ingest(arrival) {
                Ok(outs) => outputs.extend(outs),
                Err(_) => errors += 1,
            }
        }
        let did_update = pipeline.updates_run() > before.1;
        if did_update {
            tr.rename(s, "adapt.pipeline.ingest_with_update");
        }
        tr.end(s);
        log.push(t0.elapsed().as_nanos() as u64, outputs.len() - before.0);
        updated.push(did_update);
        watch_windows += u64::from(pipeline.drift_watching().iter().any(|&w| w));
    }
    outputs.extend(pipeline.flush().expect("healthy pipeline"));
    Pass {
        log,
        outputs,
        updated,
        arrivals,
        errors,
        updates_run: pipeline.updates_run(),
        updates_failed: pipeline.updates_failed(),
        watch_windows,
    }
}

/// Plain `Pipeline` over the same windows: the frozen twin's reference.
fn plain(inp: &Inputs, observed: &MetricsRegistry, ops: usize) -> (Vec<WindowOutput>, OpLog) {
    let ws = inp.sim.traces.window_secs;
    let mut pipeline = Pipeline::new(&inp.model, &inp.sim.interner, inp.config.serve)
        .with_observations(observed.clone());
    let mut outputs = Vec::new();
    let mut log = OpLog::with_capacity(ops);
    for op in 0..ops {
        let batch = inputs::stamp_window(&inp.sim.traces.windows[op % CYCLE], op, ws);
        let before = outputs.len();
        let t0 = Instant::now();
        for arrival in batch {
            outputs.extend(pipeline.ingest(arrival).expect("healthy pipeline"));
        }
        log.push(t0.elapsed().as_nanos() as u64, outputs.len() - before);
    }
    outputs.extend(pipeline.flush().expect("healthy pipeline"));
    (outputs, log)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (inp, setup_s) = repeat_setup(ctx.setup_reps(5), || {
        let inp = setup(ctx);
        let secs = inp.times.total();
        (inp, secs)
    });
    let ops = ctx.ops(WINDOWS_PER_10S, CYCLE);
    let observed = drifting(&inp, ops + 1);

    let pass = run_pass(&inp, inp.config, &observed, ops, &mut Tracer::new(false));
    let rss = peak_rss_mb();

    // The frozen twin and the plain pipeline see one cycle at most.
    let twin_ops = ops.min(CYCLE);
    let mut frozen = run_pass(
        &inp,
        inp.config.frozen(),
        &observed,
        twin_ops,
        &mut Tracer::new(false),
    );
    let (reference, plain_log) = plain(&inp, &observed, twin_ops);

    let mut layers = BTreeMap::new();
    let mut tracer = None;
    let mut checks = Vec::new();
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let traced = run_pass(&inp, inp.config, &observed, ops, &mut tr);
        checks.push(Check::new(
            "traced_pass_repeats_untraced",
            Digest::of(&traced.outputs) == Digest::of(&pass.outputs),
            "same inputs, same digest",
        ));
        layers = layer_metrics(&inp, &pass, &traced, &frozen, &plain_log);
        tracer = Some(tr);
    }

    if ctx.corrupt {
        crate::replay::corrupt(&mut frozen.outputs);
    }
    checks.push(Check::new(
        "no_update_failed",
        pass.updates_failed == 0,
        format!("{} run, {} failed", pass.updates_run, pass.updates_failed),
    ));
    checks.push(Check::new(
        "updates_ran",
        pass.updates_run > 0,
        "the model was written while it was read",
    ));
    checks.push(Check::bit_equal(
        "frozen_twin_bit_equals_pipeline",
        &frozen.outputs,
        &reference,
        format!("{} windows", reference.len()),
    ));

    let missing = (ops as u64).saturating_sub(pass.outputs.len() as u64);
    layers.insert("failed.arrivals", pass.errors as f64);
    layers.insert("failed.windows", missing as f64);
    Outcome {
        attempted: pass.arrivals + ops as u64,
        failed: pass.errors + missing,
        checks,
        digest: Digest::of(&pass.outputs),
        e2e: op_metrics(&pass.log, CYCLE).to_vec(),
        setup_s,
        peak_rss_mb: rss,
        layers,
        tracer,
    }
}

/// Splits op wall times by whether an update ran inside the op.
fn split_us(pass: &Pass) -> (Vec<f64>, Vec<f64>) {
    let (mut quiet, mut updating) = (Vec::new(), Vec::new());
    for (op, &upd) in pass.log.ops.iter().zip(&pass.updated) {
        let us = op.nanos as f64 / 1e3;
        if upd {
            updating.push(us);
        } else {
            quiet.push(us);
        }
    }
    (quiet, updating)
}

fn layer_metrics(
    inp: &Inputs,
    base: &Pass,
    traced: &Pass,
    frozen: &Pass,
    plain: &OpLog,
) -> BTreeMap<&'static str, f64> {
    let plain_us = plain.pooled_us(0.5);
    let (quiet, updating) = split_us(traced);
    let quiet_us = if quiet.is_empty() {
        0.0
    } else {
        stats::median(&quiet)
    };
    // What the updates add: each updating op's time beyond a quiet op.
    let extra_us: f64 = updating.iter().map(|us| (us - quiet_us).max(0.0)).sum();
    let total_us = traced.log.wall_secs() * 1e6;
    BTreeMap::from([
        ("adapt.pipeline.ingest_us", quiet_us),
        (
            "adapt.pipeline.update_ms",
            extra_us / 1e3 / updating.len().max(1) as f64,
        ),
        ("adapt.pipeline.updates_run", traced.updates_run as f64),
        (
            "adapt.pipeline.updates_failed",
            traced.updates_failed as f64,
        ),
        ("adapt.pipeline.watch_windows", traced.watch_windows as f64),
        (
            "adapt.pipeline.frozen_ratio",
            frozen.log.pooled_us(0.5) / plain_us.max(1e-9),
        ),
        ("share.update_pct", 100.0 * extra_us / total_us.max(1e-9)),
        ("serve.pipeline.ingest_us", plain_us),
        (
            "trace_overhead_pct",
            100.0 * (traced.log.pooled_us(0.5) / base.log.pooled_us(0.5).max(1e-9) - 1.0),
        ),
        ("core.stream.experts", inp.model.expert_keys().len() as f64),
        ("core.features.dim", inp.model.feature_space().dim() as f64),
        ("tail.op_p99_us", base.log.pooled_us(0.99)),
        ("tail.op_count", base.log.ops.len() as f64),
        ("setup.sim_s", inp.times.sim_s),
        ("setup.fit_s", inp.times.fit_s),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_share_is_the_time_beyond_a_quiet_op() {
        let mut log = OpLog::default();
        let mut updated = Vec::new();
        for i in 0..16 {
            let upd = i % 8 == 7;
            log.push(if upd { 9_000_000 } else { 1_000_000 }, 1);
            updated.push(upd);
        }
        let pass = Pass {
            log,
            outputs: Vec::new(),
            updated,
            arrivals: 0,
            errors: 0,
            updates_run: 2,
            updates_failed: 0,
            watch_windows: 0,
        };
        let (quiet, updating) = split_us(&pass);
        assert_eq!(quiet.len(), 14);
        assert_eq!(updating, vec![9000.0, 9000.0]);
        assert_eq!(stats::median(&quiet), 1000.0);
    }
}
