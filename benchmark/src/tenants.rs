//! `tenants_flood`: eight tenants behind one `TenantRegistry`, tenant 0
//! submitting every arrival ten times.
//!
//! Arrivals are pre-imported, so `trace.jaeger` does nothing here; what
//! works is admission (`serve.tenant`), the DRR scheduler (`serve.sched`),
//! the overload ladder (`serve.overload`) and eight pipelines stepped one
//! after another. The flood is made by the load generator (what the
//! `tenant.flood` probe does, without arming `deeprest-fault`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use deeprest::core::DeepRest;
use deeprest::serve::tenant::{TenantOutput, FLOOD_AMPLIFICATION};
use deeprest::serve::{
    Accepted, OverloadConfig, Pipeline, PriorityClass, SchedConfig, ServeConfig, TenantConfig,
    TenantRegistry, WindowOutput,
};
use deeprest::sim::engine::SimOutput;
use deeprest::trace::window::TimestampedTrace;
use deeprest_telemetry::MemorySink;

use crate::inputs::{self, timed, SetupTimes};
use crate::report::{peak_rss_mb, repeat_setup, Check, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{first_divergence, op_metrics, Digest, OpLog};

/// Scrape windows of a nominal 10 s run on the reference box: 10 passes.
const WINDOWS_PER_10S: usize = 1920;
/// Windows replayed before the arrivals repeat: the first two of the four
/// simulated days, so a run makes ten passes and every input has ten
/// chances of a quiet moment on the host.
const CYCLE: usize = 2 * inputs::WINDOWS_PER_DAY;
pub const TENANTS: usize = 8;
/// Arrivals each tenant receives per round (the `deeprest_serve` drive
/// pattern).
const CHUNK: usize = 8;
const FLOODED: usize = 0;

struct Inputs {
    model: DeepRest,
    sim: SimOutput,
    config: ServeConfig,
    times: SetupTimes,
}

/// Aggregate backlog at which the ladder starts shedding. The default
/// (1024) is never reached here: the flooded tenant's own queue holds 256
/// and the others drain every round, so the ladder is sized to this drive
/// pattern (as `chaos_tenant` sizes it to its own) to make it work.
const SHED_DEPTH: usize = 128;

fn registry<'m>(inp: &'m Inputs, tenants: usize) -> TenantRegistry<'m> {
    let overload = OverloadConfig {
        shed_depth: SHED_DEPTH,
        ..OverloadConfig::default()
    };
    let mut registry = TenantRegistry::new(SchedConfig::default(), overload);
    for t in 0..tenants {
        let priority = match t {
            0 => PriorityClass::BestEffort,
            1 => PriorityClass::Critical,
            _ => PriorityClass::Standard,
        };
        registry.add_tenant(
            &inp.model,
            &inp.sim.interner,
            inp.config,
            TenantConfig::new(format!("tenant{t}")).with_priority(priority),
        );
    }
    registry
}

fn setup(ctx: &Ctx) -> Inputs {
    let ((_, sim), sim_s) =
        timed(|| inputs::social_days(ctx.seed, inputs::USERS, inputs::SERVE_DAYS));
    let ((model, _), fit_s) = timed(|| inputs::serving_model(&sim, ctx.seed, ctx.threads));
    let config = ServeConfig::default().with_window_secs(sim.traces.window_secs);
    let mut inp = Inputs {
        model,
        sim,
        config,
        times: SetupTimes {
            sim_s,
            fit_s,
            ..SetupTimes::default()
        },
    };
    let ((), other_s) = timed(|| drop(registry(&inp, TENANTS)));
    inp.times.other_s = other_s;
    inp
}

/// Per-tenant admission tallies kept by the load generator.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    submitted: u64,
    rejected: u64,
    displaced: u64,
}

struct Pass {
    log: OpLog,
    /// Outputs per tenant, in emission order.
    outputs: Vec<Vec<WindowOutput>>,
    tally: Vec<Tally>,
    admitted: u64,
    shed: Vec<u64>,
    errors: u64,
    backlog_max: usize,
    transitions: u64,
    rounds: u64,
}

/// Drives `ops` scrape windows through the registry. One op is the rounds
/// that carry one window of arrivals: per round every tenant is submitted
/// the next [`CHUNK`] arrivals (the flooded tenant each of them ten times),
/// then `run_round` drains. Timed per op are the submits and the rounds;
/// making the arrival copies is the load generator's work and stays out.
fn run_pass(inp: &Inputs, tenants: usize, flood: bool, ops: usize, tr: &mut Tracer) -> Pass {
    let ws = inp.sim.traces.window_secs;
    let period = CYCLE;
    let mut registry = registry(inp, tenants);
    let mut log = OpLog::with_capacity(ops);
    let mut outputs = vec![Vec::new(); tenants];
    let mut tally = vec![Tally::default(); tenants];
    let (mut errors, mut backlog_max, mut transitions) = (0u64, 0usize, 0u64);
    let mut level = registry.overload_level();

    let absorb = |outs: Vec<TenantOutput>, outputs: &mut Vec<Vec<WindowOutput>>| {
        let n = outs.len();
        for o in outs {
            outputs[o.tenant].push(o.output);
        }
        n
    };

    for op in 0..ops {
        let arrivals = inputs::stamp_window(&inp.sim.traces.windows[op % period], op, ws);
        let rounds: Vec<Vec<(usize, TimestampedTrace)>> = arrivals
            .chunks(CHUNK)
            .map(|chunk| {
                let mut batch = Vec::new();
                for arrival in chunk {
                    for t in 0..tenants {
                        let copies = if flood && t == FLOODED {
                            FLOOD_AMPLIFICATION
                        } else {
                            1
                        };
                        batch.extend((0..copies).map(|_| (t, arrival.clone())));
                    }
                }
                batch
            })
            .collect();

        let mut emitted = 0;
        let t0 = Instant::now();
        let op_span = tr.begin("op", op);
        for batch in rounds {
            let s = tr.begin("serve.tenant.submit", op);
            for (t, arrival) in batch {
                tally[t].submitted += 1;
                match registry.submit(t, arrival) {
                    Ok(Accepted::Displaced { evicted }) => tally[t].displaced += evicted,
                    Ok(_) => {}
                    Err(_) => tally[t].rejected += 1,
                }
            }
            tr.end(s);
            if tr.enabled() {
                let depth: usize = (0..tenants).map(|t| registry.queue_depth(t)).sum();
                backlog_max = backlog_max.max(depth);
            }
            let s = tr.begin("serve.sched.run_round", op);
            let outcome = registry.run_round();
            tr.end(s);
            errors += outcome.errors.len() as u64;
            if outcome.level != level {
                level = outcome.level;
                transitions += 1;
            }
            emitted += absorb(outcome.outputs, &mut outputs);
        }
        tr.end(op_span);
        log.push(t0.elapsed().as_nanos() as u64, emitted);
    }
    let flushed = registry.flush();
    errors += flushed.errors.len() as u64;
    absorb(flushed.outputs, &mut outputs);

    Pass {
        log,
        outputs,
        tally,
        admitted: (0..tenants).map(|t| registry.stats(t).admitted).sum(),
        shed: (0..tenants).map(|t| registry.stats(t).shed).collect(),
        errors,
        backlog_max,
        transitions,
        rounds: registry.round(),
    }
}

/// What an unshared `Pipeline` makes of the same arrivals, and what each
/// window cost it, for the registry's overhead.
fn solo(inp: &Inputs, ops: usize) -> (Vec<WindowOutput>, OpLog) {
    let ws = inp.sim.traces.window_secs;
    let period = CYCLE;
    let mut pipeline = Pipeline::new(&inp.model, &inp.sim.interner, inp.config);
    let mut outputs = Vec::new();
    let mut log = OpLog::with_capacity(ops);
    for op in 0..ops {
        let arrivals = inputs::stamp_window(&inp.sim.traces.windows[op % period], op, ws);
        let before = outputs.len();
        let t0 = Instant::now();
        for arrival in arrivals {
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
    let period = CYCLE;
    let ops = ctx.ops(WINDOWS_PER_10S, period);

    let mut pass = run_pass(&inp, TENANTS, true, ops, &mut Tracer::new(false));
    let rss = peak_rss_mb();

    let mut layers = BTreeMap::new();
    let mut tracer = None;
    let mut checks = Vec::new();
    let (expected, solo_log) = solo(&inp, ops);
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let traced = run_pass(&inp, TENANTS, true, ops, &mut tr);
        checks.push(Check::new(
            "traced_pass_repeats_untraced",
            Digest::of(traced.outputs.iter().flatten())
                == Digest::of(pass.outputs.iter().flatten()),
            "same inputs, same digest",
        ));
        layers = layer_metrics(&inp, ops, &pass, &traced, &tr, &solo_log);
        tracer = Some(tr);
    }

    if ctx.corrupt {
        crate::replay::corrupt(&mut pass.outputs[TENANTS - 1]);
    }
    let mut diverged = Vec::new();
    for t in (0..TENANTS).filter(|&t| t != FLOODED) {
        if let Some(i) = first_divergence(&pass.outputs[t], &expected) {
            diverged.push(format!("tenant {t} at output {i}"));
        }
    }
    checks.push(Check::new(
        "protected_tenants_bit_equal_solo_pipeline",
        diverged.is_empty(),
        if diverged.is_empty() {
            format!("{} tenants x {} windows", TENANTS - 1, expected.len())
        } else {
            diverged.join(", ")
        },
    ));
    checks.push(Check::new(
        "flood_was_shed_not_served",
        pass.shed[FLOODED] + pass.tally[FLOODED].displaced + pass.tally[FLOODED].rejected > 0,
        format!(
            "tenant {FLOODED}: {} shed, {} displaced, {} rejected of {} submitted",
            pass.shed[FLOODED],
            pass.tally[FLOODED].displaced,
            pass.tally[FLOODED].rejected,
            pass.tally[FLOODED].submitted
        ),
    ));

    // Failures are counted on the seven protected tenants: the flood's own
    // copies are the adversarial load, and shedding them is the design.
    let protected = (0..TENANTS).filter(|&t| t != FLOODED);
    let mut arrivals = 0u64;
    let mut lost = pass.errors;
    let mut missing = 0u64;
    for t in protected {
        arrivals += pass.tally[t].submitted;
        lost += pass.tally[t].rejected + pass.tally[t].displaced + pass.shed[t];
        missing += (expected.len() as u64).saturating_sub(pass.outputs[t].len() as u64);
    }
    let windows = (TENANTS - 1) as u64 * expected.len() as u64;
    layers.insert("failed.arrivals", lost as f64);
    layers.insert("failed.windows", missing as f64);
    Outcome {
        attempted: arrivals + windows,
        failed: lost + missing,
        checks,
        digest: Digest::of(pass.outputs.iter().flatten()),
        e2e: op_metrics(&pass.log, period).to_vec(),
        setup_s,
        peak_rss_mb: rss,
        layers,
        tracer,
    }
}

fn layer_metrics(
    inp: &Inputs,
    ops: usize,
    base: &Pass,
    traced: &Pass,
    tr: &Tracer,
    solo: &OpLog,
) -> BTreeMap<&'static str, f64> {
    // Medians, not sums: one slow phase of the host in one of the passes
    // would otherwise read as a 40 % overhead of whatever ran in it.
    let p50 = |log: &OpLog| log.pooled_us(0.5);
    let solo_us = p50(solo);
    let layers = tr.layers();
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    let submitted: u64 = traced.tally.iter().map(|t| t.submitted).sum();
    let rejected: u64 = traced.tally.iter().map(|t| t.rejected).sum();
    let displaced: u64 = traced.tally.iter().map(|t| t.displaced).sum();
    let round_us = self_ns("serve.sched.run_round") / 1e3 / traced.rounds.max(1) as f64;
    let op_total = layers.get("op").map_or(0.0, |l| l.total_ns as f64);

    // One tenant, no flood, same windows: what an op costs without company.
    let alone = run_pass(inp, 1, false, ops, &mut Tracer::new(false));
    // The untraced pass again with the in-memory telemetry sink installed.
    let with_sink = deeprest_telemetry::with_sink(Arc::new(MemorySink::new()), || {
        run_pass(inp, TENANTS, true, ops, &mut Tracer::new(false))
    });

    BTreeMap::from([
        (
            "serve.tenant.submit_ns",
            self_ns("serve.tenant.submit") / submitted.max(1) as f64,
        ),
        ("serve.tenant.round_us", round_us),
        (
            "serve.tenant.overhead_us_per_window",
            p50(&base.log) / TENANTS as f64 - solo_us,
        ),
        (
            "serve.tenant.scaling_ratio",
            p50(&base.log) / p50(&alone.log).max(1e-9),
        ),
        ("serve.tenant.submitted", submitted as f64),
        ("serve.tenant.admitted", traced.admitted as f64),
        ("serve.tenant.rejected", rejected as f64),
        ("serve.tenant.shed", traced.shed.iter().sum::<u64>() as f64),
        ("serve.tenant.displaced", displaced as f64),
        ("serve.tenant.backlog_max", traced.backlog_max as f64),
        ("serve.sched.rounds", traced.rounds as f64),
        ("serve.overload.transitions", traced.transitions as f64),
        ("serve.pipeline.ingest_us", solo_us),
        (
            "serve.pipeline.stage_sum_ratio",
            (op_total - self_ns("op")) / op_total.max(1.0),
        ),
        (
            "telemetry.memory_sink_overhead_pct",
            100.0 * (p50(&with_sink.log) / p50(&base.log).max(1e-9) - 1.0),
        ),
        (
            "trace_overhead_pct",
            100.0 * (p50(&traced.log) / p50(&base.log).max(1e-9) - 1.0),
        ),
        ("core.stream.experts", inp.model.expert_keys().len() as f64),
        ("core.features.dim", inp.model.feature_space().dim() as f64),
        ("tail.op_p99_us", base.log.pooled_us(0.99)),
        ("tail.op_count", base.log.ops.len() as f64),
        ("setup.sim_s", inp.times.sim_s),
        ("setup.fit_s", inp.times.fit_s),
    ])
}
