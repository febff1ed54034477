//! `deeprest_serve` — online serving driver.
//!
//! Replays a recorded Jaeger document (or JSONL stream of documents), or a
//! live `deeprest-sim` feed, in event order through the streaming
//! estimation pipeline: watermark window sealing → O(1)-per-window
//! inference → live sanity alerts. Prints one line per sealed window plus
//! every alert, and can cross-check the streamed outputs bit-for-bit
//! against the batch path (`--assert-batch`).
//!
//! Replay mode (the CI smoke path):
//!
//! ```text
//! deeprest_serve --replay crates/core/tests/fixtures/mini_jaeger.json \
//!     --spread 0.4 --window-secs 1 --assert-batch
//! ```
//!
//! Fixtures carry zero timestamps, so `--spread` assigns an even arrival
//! schedule. Without `--model`, a small model is trained on the replayed
//! windows against synthetic per-component CPU series (deterministic, so
//! the run is reproducible).
//!
//! Live-sim mode:
//!
//! ```text
//! deeprest_serve --sim --speed 0 --epochs 8
//! ```
//!
//! trains on one simulated day of the social network, then streams a
//! second day with a cryptojacking attack planted halfway — the sanity
//! alerts fire while the mining runs.
//!
//! Multi-tenant replay (`--tenants N`) replays the same stream as `N`
//! tenant applications through the `TenantRegistry` front end (per-tenant
//! bounded queues of `--queue` arrivals that reject when full, or evict
//! their oldest under `--drop-oldest`; DRR fair scheduling; overload
//! ladder). `--flood T` arms the `tenant.flood` probe against tenant `T`
//! (10× amplification) and, combined with `--assert-batch`, proves
//! isolation: every non-flooded tenant must still be bit-identical to the
//! batch path.
//!
//! A single-tenant run counts what it could not serve instead of stopping
//! at it: an arrival the pipeline refused transiently is offered again, one
//! naming an unknown symbol is skipped, and a window whose step failed stays
//! parked and is retried by the next call. The count goes to stderr, and
//! the exit status is 3 when anything went unserved (0 otherwise).

use std::collections::BTreeMap;
use std::sync::Arc;

use deeprest_bench::Flags;
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_metrics::{increments, MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_serve::{
    batch_reference, replay, CheckpointStore, Driver, Frozen, OverflowPolicy, OverloadConfig,
    Pipeline, SchedConfig, ServeConfig, ServeError, TenantConfig, TenantRegistry, WindowOutput,
};
use deeprest_sim::anomaly::CryptojackingAttack;
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, simulate_with, SimConfig};
use deeprest_trace::stream::WindowAssembler;
use deeprest_trace::window::{partition, stamp, TimestampedTrace, WindowedTraces};
use deeprest_trace::{jaeger, Interner};
use deeprest_workload::WorkloadSpec;

struct ServeArgs {
    replay: Option<String>,
    sim: bool,
    model: Option<String>,
    spread: Option<f64>,
    speed: f64,
    window_secs: f64,
    lateness_secs: f64,
    queue: usize,
    drop_oldest: bool,
    epochs: usize,
    hidden: usize,
    seed: u64,
    assert_batch: bool,
    checkpoint: Option<String>,
    quiet: bool,
    tenants: usize,
    flood: Option<usize>,
    window_quota: u32,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            replay: None,
            sim: false,
            model: None,
            spread: None,
            speed: 0.0,
            window_secs: 30.0,
            lateness_secs: 5.0,
            queue: 1024,
            drop_oldest: false,
            epochs: 8,
            hidden: 16,
            seed: 17,
            assert_batch: false,
            checkpoint: None,
            quiet: false,
            tenants: 1,
            flood: None,
            window_quota: 0,
        }
    }
}

impl ServeArgs {
    fn parse() -> Self {
        let mut out = Self::default();
        let mut flags = Flags::new(std::env::args().skip(1));
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--replay" => out.replay = Some(flags.value("--replay")),
                "--sim" => out.sim = true,
                "--model" => out.model = Some(flags.value("--model")),
                "--spread" => out.spread = Some(flags.parse("--spread", "f64")),
                "--speed" => out.speed = flags.parse("--speed", "f64"),
                "--window-secs" => out.window_secs = flags.parse("--window-secs", "f64"),
                "--lateness-secs" => out.lateness_secs = flags.parse("--lateness-secs", "f64"),
                "--queue" => out.queue = flags.parse("--queue", "usize"),
                "--drop-oldest" => out.drop_oldest = true,
                "--epochs" => out.epochs = flags.parse("--epochs", "usize"),
                "--hidden" => out.hidden = flags.parse("--hidden", "usize"),
                "--seed" => out.seed = flags.parse("--seed", "u64"),
                "--assert-batch" => out.assert_batch = true,
                "--checkpoint" => out.checkpoint = Some(flags.value("--checkpoint")),
                "--quiet" => out.quiet = true,
                "--tenants" => out.tenants = flags.parse("--tenants", "usize"),
                "--flood" => out.flood = Some(flags.parse("--flood", "usize")),
                "--window-quota" => out.window_quota = flags.parse("--window-quota", "u32"),
                other => panic!("unknown flag {other}; see `deeprest_serve` docs for usage"),
            }
        }
        out
    }
}

/// Everything one serving session needs: a model, the incoming traces'
/// name table, the arrival stream, and (optionally) observed metrics for
/// the sanity check.
struct Session {
    model: DeepRest,
    source: Interner,
    stream: Vec<TimestampedTrace>,
    observations: Option<MetricsRegistry>,
    /// Scrape-window length the stream was produced with (the sim fixes
    /// it; replay takes `--window-secs`).
    window_secs: f64,
}

fn main() {
    let args = ServeArgs::parse();
    let session = if args.sim {
        sim_session(&args)
    } else if args.replay.is_some() {
        replay_session(&args)
    } else {
        eprintln!("deeprest_serve: pass --replay <file> or --sim");
        std::process::exit(2);
    };

    let config = ServeConfig::default()
        .with_window_secs(session.window_secs)
        .with_lateness_secs(args.lateness_secs);

    if args.tenants > 1 {
        run_multi_tenant(&session, config, &args);
        return;
    }

    let mut pipeline = Pipeline::new(&session.model, &session.source, config);
    if let Some(obs) = session.observations.clone() {
        pipeline = pipeline.with_observations(obs);
    }

    // Ingest in event order, pacing by event time when --speed > 0 (e.g.
    // 2.0 = twice real time; 0 = max speed).
    let mut outputs: Vec<WindowOutput> = Vec::new();
    let mut unserved = Unserved::default();
    let mut prev = 0.0f64;
    for t in session.stream.iter().cloned() {
        if args.speed > 0.0 {
            let gap = (t.at_secs - prev).max(0.0) / args.speed;
            if gap > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(gap));
            }
            prev = t.at_secs;
        }
        for out in offer(&mut pipeline, t, &mut unserved) {
            print_window(&pipeline, &out, args.quiet);
            outputs.push(out);
        }
    }
    for out in drain(&mut pipeline, &mut unserved) {
        print_window(&pipeline, &out, args.quiet);
        outputs.push(out);
    }

    let alert_total: usize = outputs.iter().map(|o| o.alerts.len()).sum();
    println!(
        "serve: {} windows, {} traces, {} late-dropped, {} alerts",
        outputs.len(),
        outputs.iter().map(|o| o.trace_count).sum::<usize>(),
        pipeline.late_dropped(),
        alert_total
    );

    if session.observations.is_some() {
        print_calibration(&session, &outputs);
    }

    if let Some(dir) = &args.checkpoint {
        write_checkpoint(dir, &pipeline.checkpoint());
    }

    if args.assert_batch {
        assert_against_batch(&session, &config, &outputs);
    }
    eprintln!(
        "deeprest_serve: {} windows unserved, {} arrivals skipped, {} step failures retried",
        unserved.windows, unserved.arrivals, unserved.step_failures
    );
    if unserved.windows + unserved.arrivals > 0 {
        std::process::exit(3);
    }
}

/// How many times an arrival the pipeline refused transiently is offered,
/// and how many times the end-of-stream flush is attempted, before what
/// they carry is counted as unserved.
const ATTEMPTS: usize = 16;

/// What a single-tenant run could not serve, and the step failures it
/// retried past.
#[derive(Default)]
struct Unserved {
    /// Windows still parked behind a failing step at the end.
    windows: usize,
    /// Arrivals skipped: an unknown symbol, or refused `ATTEMPTS` times.
    arrivals: usize,
    /// Step errors met (each parked a window that a later call retried).
    step_failures: usize,
}

/// Offers one arrival and returns the outputs the call yielded. An
/// [`ServeError::Ingest`] did not consume the arrival, so it is offered
/// again; an unknown symbol can never be accepted, so the arrival is
/// skipped; a step error consumed it and parked its window, which the next
/// call retries.
fn offer<D: Driver>(
    pipeline: &mut Pipeline<D>,
    t: TimestampedTrace,
    unserved: &mut Unserved,
) -> Vec<WindowOutput> {
    let mut next = Some(t);
    for _ in 0..ATTEMPTS {
        let Some(t) = next.take() else { break };
        // Only an injected fault fails an ingest without consuming the
        // arrival; keep a copy to offer again only while a plan is armed.
        let backup = fault::enabled().then(|| t.clone());
        match pipeline.ingest(t) {
            Ok(outputs) => return outputs,
            Err(ServeError::Ingest(_)) => next = backup,
            Err(ServeError::UnknownSymbol(_)) => break,
            Err(ServeError::Step { .. } | ServeError::PoisonedState { .. }) => {
                unserved.step_failures += 1;
                return Vec::new();
            }
            Err(other) => panic!("serving failed: {other}"),
        }
    }
    unserved.arrivals += 1;
    Vec::new()
}

/// Seals and serves what is still buffered at the end of the stream,
/// retrying a flush whose step failed; windows still parked after
/// `ATTEMPTS` flushes are counted as unserved.
fn drain<D: Driver>(pipeline: &mut Pipeline<D>, unserved: &mut Unserved) -> Vec<WindowOutput> {
    let mut outputs = Vec::new();
    for _ in 0..ATTEMPTS {
        match pipeline.flush() {
            Ok(drained) => {
                outputs.extend(drained);
                break;
            }
            Err(ServeError::Step { .. } | ServeError::PoisonedState { .. }) => {
                unserved.step_failures += 1;
            }
            Err(other) => panic!("serving flush failed: {other}"),
        }
    }
    unserved.windows = pipeline.pending_windows();
    outputs
}

/// Persists `checkpoint` through the CRC-framed store under `dir` and
/// prints where it landed.
fn write_checkpoint<T: serde::Serialize>(dir: &str, checkpoint: &T) {
    let store = CheckpointStore::new(dir);
    store.save(checkpoint).expect("write checkpoint");
    println!(
        "serve: checkpoint written to {}",
        store.latest_path().display()
    );
}

/// Multi-tenant replay: the same stream as `--tenants N` tenant
/// applications through the registry front end, each behind a queue of
/// `--queue` arrivals (`--drop-oldest` evicts instead of rejecting when
/// full). With `--flood T` the `tenant.flood` probe amplifies tenant `T`'s
/// submissions 10×; with `--assert-batch` every non-flooded tenant is
/// cross-checked bit-for-bit against the batch path — the isolation
/// contract, live.
fn run_multi_tenant(session: &Session, config: ServeConfig, args: &ServeArgs) {
    let overflow = if args.drop_oldest {
        OverflowPolicy::DropOldest
    } else {
        OverflowPolicy::Block
    };
    let mut registry = TenantRegistry::new(SchedConfig::default(), OverloadConfig::default());
    for i in 0..args.tenants {
        registry.add_tenant(
            &session.model,
            &session.source,
            config,
            TenantConfig::new(format!("tenant{i}"))
                .with_queue_capacity(args.queue)
                .with_overflow(overflow)
                .with_window_quota(args.window_quota),
        );
    }

    let outputs = match args.flood {
        Some(flooded) => {
            let plan = Arc::new(
                FaultPlan::new(args.seed)
                    .window("tenant.flood", 0, u64::MAX)
                    .payload(flooded as u64),
            );
            fault::with_plan(plan, || drive_registry(&mut registry, &session.stream))
        }
        None => drive_registry(&mut registry, &session.stream),
    };

    for t in 0..args.tenants {
        let stats = registry.stats(t);
        let windows = outputs.iter().filter(|o| o.tenant == t).count();
        println!(
            "tenant {t}: {windows} windows | admitted {} | shed {} | rejected {} (quota {} / breaker {} / queue {})",
            stats.admitted,
            stats.shed,
            stats.rejected_window_quota
                + stats.rejected_byte_quota
                + stats.rejected_breaker
                + stats.rejected_queue,
            stats.rejected_window_quota + stats.rejected_byte_quota,
            stats.rejected_breaker,
            stats.rejected_queue,
        );
    }
    println!(
        "serve: {} tenants, {} rounds, overload level {:?}",
        args.tenants,
        registry.round(),
        registry.overload_level()
    );

    if let Some(dir) = &args.checkpoint {
        write_checkpoint(dir, &registry.checkpoint());
    }

    if args.assert_batch {
        for t in 0..args.tenants {
            if args.flood == Some(t) {
                continue;
            }
            let mine: Vec<WindowOutput> = outputs
                .iter()
                .filter(|o| o.tenant == t)
                .map(|o| o.output.clone())
                .collect();
            assert_against_batch(session, &config, &mine);
        }
    }
}

/// Feeds every tenant the stream in 8-arrival slices, one slice per
/// scheduling round, then flushes.
fn drive_registry(
    registry: &mut TenantRegistry<'_>,
    stream: &[TimestampedTrace],
) -> Vec<deeprest_serve::tenant::TenantOutput> {
    const CHUNK: usize = 8;
    let tenants = registry.tenant_count();
    let mut outputs = Vec::new();
    let mut cursor = 0usize;
    while cursor < stream.len() {
        let upto = (cursor + CHUNK).min(stream.len());
        for arrival in &stream[cursor..upto] {
            for t in 0..tenants {
                let _ = registry.submit(t, arrival.clone());
            }
        }
        cursor = upto;
        let round = registry.run_round();
        for err in &round.errors {
            eprintln!("tenant {} error: {}", err.tenant, err.error);
        }
        outputs.extend(round.outputs);
    }
    let flushed = registry.flush();
    for err in &flushed.errors {
        eprintln!("tenant {} error: {}", err.tenant, err.error);
    }
    outputs.extend(flushed.outputs);
    outputs
}

/// Reports δ-interval calibration (PICP + mean width) of the replayed
/// estimates against the observed utilization, per expert and pooled.
fn print_calibration(session: &Session, outputs: &[WindowOutput]) {
    let Some(registry) = session.observations.as_ref() else {
        return;
    };
    let nominal = f64::from(session.model.config().delta);
    let keys = session.model.expert_keys();
    let (mut actual, mut lower, mut upper) = (Vec::new(), Vec::new(), Vec::new());
    for (e, key) in keys.iter().enumerate() {
        // Cumulative resources are estimated as per-window increments, so
        // their observations are compared as increments (first increment
        // zero) — the output-space encoding the scorer uses.
        let Some(series) = registry.get(key) else {
            continue;
        };
        let observed = match session.model.expert_is_delta(key).unwrap_or(false) {
            true => increments(series.values()),
            false => series.values().to_vec(),
        };
        let (mut a, mut lo, mut up) = (Vec::new(), Vec::new(), Vec::new());
        for out in outputs {
            let Some(&v) = observed.get(out.window) else {
                continue;
            };
            let p = &out.estimates[e];
            if !(p.lower.is_finite() && p.upper.is_finite()) {
                continue;
            }
            a.push(v);
            lo.push(p.lower);
            up.push(p.upper);
        }
        if !a.is_empty() {
            let report = deeprest_metrics::eval::interval_calibration(
                &TimeSeries::from_values(a.clone()),
                &TimeSeries::from_values(lo.clone()),
                &TimeSeries::from_values(up.clone()),
                nominal,
            );
            println!("calibration: {key} {report}");
        }
        actual.extend_from_slice(&a);
        lower.extend_from_slice(&lo);
        upper.extend_from_slice(&up);
    }
    if !actual.is_empty() {
        let report = deeprest_metrics::eval::interval_calibration(
            &TimeSeries::from_values(actual),
            &TimeSeries::from_values(lower),
            &TimeSeries::from_values(upper),
            nominal,
        );
        println!("calibration: overall {report}");
    }
}

fn print_window(pipeline: &Pipeline<Frozen<'_>>, out: &WindowOutput, quiet: bool) {
    if !quiet {
        let est: Vec<String> = pipeline
            .keys()
            .iter()
            .zip(out.estimates.iter())
            .map(|(k, p)| format!("{k} {:.2} [{:.2}, {:.2}]", p.expected, p.lower, p.upper))
            .collect();
        println!(
            "window {:>4} | {:>4} traces | {}",
            out.window,
            out.trace_count,
            est.join(" | ")
        );
    }
    for alert in &out.alerts {
        println!("  ALERT {alert}");
    }
}

/// Re-derives the expected outputs through the batch path and compares
/// every float bit-for-bit; exits non-zero on any mismatch.
fn assert_against_batch(session: &Session, config: &ServeConfig, streamed: &[WindowOutput]) {
    let mut assembler = WindowAssembler::new(config.window_secs, config.lateness_secs);
    let mut sealed = Vec::new();
    for t in session.stream.iter().cloned() {
        sealed.extend(assembler.push(t));
    }
    sealed.extend(assembler.flush());

    let expected = batch_reference(
        &session.model,
        &sealed,
        &session.source,
        session.observations.as_ref(),
        config,
    );
    if expected.len() != streamed.len() {
        eprintln!(
            "assert-batch: FAIL — streamed {} windows, batch expected {}",
            streamed.len(),
            expected.len()
        );
        std::process::exit(1);
    }
    for (a, b) in streamed.iter().zip(expected.iter()) {
        if !outputs_equal(a, b) {
            eprintln!(
                "assert-batch: FAIL — window {} diverges from batch",
                a.window
            );
            eprintln!("  streamed: {a:?}");
            eprintln!("  batch:    {b:?}");
            std::process::exit(1);
        }
    }
    println!(
        "assert-batch: PASS — {} windows bit-identical to the batch path",
        streamed.len()
    );
}

fn outputs_equal(a: &WindowOutput, b: &WindowOutput) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.window == b.window
        && a.trace_count == b.trace_count
        && a.estimates.len() == b.estimates.len()
        && a.estimates.iter().zip(&b.estimates).all(|(x, y)| {
            bits(x.expected, y.expected) && bits(x.lower, y.lower) && bits(x.upper, y.upper)
        })
        && a.scores.len() == b.scores.len()
        && a.scores.iter().zip(&b.scores).all(|(x, y)| bits(*x, *y))
        && a.alerts.len() == b.alerts.len()
}

/// Replay mode: load the document/JSONL, optionally respace arrivals, and
/// either load a model or train one on the replayed windows against
/// synthetic per-component CPU series.
fn replay_session(args: &ServeArgs) -> Session {
    let path = args.replay.as_deref().expect("--replay");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("deeprest_serve: cannot read {path}: {e}"));
    let mut interner = Interner::new();
    let loaded = if path.ends_with(".jsonl") {
        replay::load_jsonl(&text, &mut interner)
    } else {
        jaeger::import_timestamped(&text, &mut interner)
    }
    .unwrap_or_else(|e| panic!("deeprest_serve: cannot import {path}: {e}"));
    let stream = match args.spread {
        Some(spacing) => replay::spread_evenly(loaded, spacing),
        None => loaded,
    };

    let model = match &args.model {
        Some(mpath) => {
            let json = std::fs::read_to_string(mpath)
                .unwrap_or_else(|e| panic!("deeprest_serve: cannot read {mpath}: {e}"));
            DeepRest::from_json(&json).expect("model JSON")
        }
        None => {
            // Train on the replayed windows: synthetic CPU series derived
            // from per-component span counts make the run self-contained.
            let last = stream.iter().map(|t| t.at_secs).fold(0.0f64, f64::max);
            let count = (last / args.window_secs) as usize + 1;
            let windows = partition(stream.iter().cloned(), args.window_secs, count);
            let metrics = synthetic_metrics(&windows, &interner);
            let cfg = DeepRestConfig::default()
                .with_epochs(args.epochs)
                .with_hidden(args.hidden)
                .with_seed(args.seed);
            let (model, _) = DeepRest::fit(&windows, &metrics, &interner, cfg);
            model
        }
    };
    Session {
        model,
        source: interner,
        stream,
        observations: None,
        window_secs: args.window_secs,
    }
}

/// One CPU series per component: `1.0 + 0.5 · span count in the window`.
/// Deterministic, so replay runs (and their batch cross-check) are
/// reproducible without a metrics file.
fn synthetic_metrics(windows: &WindowedTraces, interner: &Interner) -> MetricsRegistry {
    let mut counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (t, window) in windows.windows.iter().enumerate() {
        for trace in window {
            trace.root.visit(&mut |s| {
                counts
                    .entry(interner.resolve(s.component).to_owned())
                    .or_insert_with(|| vec![0.0; windows.len()])[t] += 1.0;
            });
        }
    }
    let mut metrics = MetricsRegistry::new();
    for (component, series) in counts {
        let cpu: TimeSeries = series.iter().map(|c| 1.0 + 0.5 * c).collect();
        metrics.insert(MetricKey::new(component, ResourceKind::Cpu), cpu);
    }
    metrics
}

/// Live-sim mode: learn one simulated day of the social network, then
/// stream a second day with a cryptojacking attack planted halfway.
fn sim_session(args: &ServeArgs) -> Session {
    let app = apps::social_network();
    let wpd = 96;
    let learn_traffic = WorkloadSpec::new(120.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(wpd)
        .generate();
    let learn = simulate(
        &app,
        &learn_traffic,
        &SimConfig::default().with_seed(args.seed),
    );

    let scope = vec![
        MetricKey::new("PostStorageMongoDB", ResourceKind::Cpu),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops),
        MetricKey::new("FrontendNGINX", ResourceKind::Cpu),
    ];
    let mut metrics = MetricsRegistry::new();
    for key in &scope {
        metrics.insert(key.clone(), learn.metrics.get(key).unwrap().clone());
    }
    let cfg = DeepRestConfig::default()
        .with_epochs(args.epochs)
        .with_hidden(args.hidden)
        .with_seed(args.seed)
        .with_scope(scope);
    let (model, _) = DeepRest::fit(&learn.traces, &metrics, &learn.interner, cfg);

    let check_traffic = WorkloadSpec::new(140.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(wpd)
        .with_seed(args.seed ^ 0x505)
        .generate();
    let attack = CryptojackingAttack::new("PostStorageMongoDB", wpd / 2, 6.0);
    let truth = simulate_with(
        &app,
        &check_traffic,
        &SimConfig::default().with_seed(args.seed ^ 0x71),
        &[&attack],
    );

    let window_secs = truth.traces.window_secs;
    Session {
        model,
        source: truth.interner.clone(),
        stream: windowed_to_stream(&truth.traces),
        observations: Some(truth.metrics),
        window_secs,
    }
}

/// Spreads each window's traces evenly inside the window, producing an
/// in-order arrival stream whose batch partition equals the input.
fn windowed_to_stream(w: &WindowedTraces) -> Vec<TimestampedTrace> {
    w.windows
        .iter()
        .enumerate()
        .flat_map(|(t, traces)| stamp(t, traces.iter().cloned(), w.window_secs))
        .collect()
}
