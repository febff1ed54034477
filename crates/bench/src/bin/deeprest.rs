//! `deeprest` — the experiment runner and operator-facing sizing and
//! diagnostics CLI.
//!
//! # `deeprest experiment`
//!
//! Reproduces one table/figure of the paper, or all of them in the order
//! of the experiment table; prints paper-style rows and dumps JSON into
//! `--out` (flags: see the `deeprest_bench` crate docs):
//!
//! ```text
//! deeprest experiment fig12 --seed 17 --out target/experiments
//! deeprest experiment all                 # everything, plus EXPERIMENTS.json
//! ```
//!
//! # `deeprest capacity`
//!
//! Answers the provisioning question for online serving: *how many experts
//! can one box advance at the scrape-window rate?* For each expert count it
//! trains a synthetic multi-component model, then times the batched
//! [`StreamPredictor`](deeprest_core::stream::StreamPredictor) step on its
//! window features:
//!
//! ```text
//! deeprest capacity                       # full sweep: 16, 64, 256 experts
//! deeprest capacity --quick               # CI smoke: 64 experts, tiny model
//! deeprest capacity --experts 32,128     # custom sweep
//! deeprest capacity --json                # machine-readable rows
//! ```
//!
//! Reported per expert count:
//!
//! * `windows/s` — full-model window steps per second;
//! * `experts/core` — experts one core sustains at the scrape-window rate:
//!   `experts × window_secs / (step_secs × threads)`;
//! * `KiB/expert` — resident packed weights + carried state per expert
//!   (gate slab, attention/head/skip packs, hidden vectors);
//! * `nnz/d` — mean share of the feature vector that is non-zero over the
//!   windows stepped: the step's input-side cost is proportional to it, so
//!   a `windows/s` figure holds for traffic of that density.
//!
//! # `deeprest scale`
//!
//! Replays the closed-loop autoscaling scenarios, reporting SLO-violation
//! windows and provisioned cost for the proactive what-if policy against
//! the reactive threshold baseline:
//!
//! ```text
//! deeprest scale                              # all four scenarios
//! deeprest scale --scenario surge             # one scenario
//! deeprest scale --quick                      # surge + flash-crowd (CI smoke)
//! deeprest scale --assert-better-than-reactive  # exit 1 unless proactive wins
//! deeprest scale --json                       # machine-readable rows
//! ```
//!
//! The assertion is the repo's headline autoscaling claim: on the
//! announced surge and the flash crowd the proactive policy must have
//! strictly fewer violation windows at equal-or-lower cost; on the
//! remaining scenarios it must never violate more.

use std::time::Instant;

use deeprest_bench::experiments;
use deeprest_bench::Args;
use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_scale::{
    run_proactive, run_reactive, ScaleLoopConfig, ScaleReport, Scenario, ScenarioKind,
};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};

struct CapacityArgs {
    /// Expert counts to sweep.
    experts: Vec<usize>,
    /// Tiny model + short timing loops (the CI smoke configuration).
    quick: bool,
    /// Emit one JSON object per row instead of the table.
    json: bool,
    /// Worker threads (defaults to `DEEPREST_THREADS` / available cores).
    threads: Option<usize>,
    /// Scrape-window length used for the experts/core figure.
    window_secs: f64,
    /// Co-resident tenants to size for: times a multi-tenant round (every
    /// tenant's predictor advancing one window over shared weights) and
    /// reports how many tenants one core sustains at the window rate.
    tenants: usize,
    seed: u64,
}

impl Default for CapacityArgs {
    fn default() -> Self {
        Self {
            experts: vec![16, 64, 256],
            quick: false,
            json: false,
            threads: None,
            window_secs: 30.0,
            tenants: 1,
            seed: 17,
        }
    }
}

impl CapacityArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut experts_given = false;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--experts" => {
                    experts_given = true;
                    out.experts = value("--experts")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--experts comma-separated usize"))
                        .collect();
                }
                "--quick" => out.quick = true,
                "--json" => out.json = true,
                "--threads" => {
                    out.threads = Some(value("--threads").parse().expect("--threads usize"));
                }
                "--window-secs" => {
                    out.window_secs = value("--window-secs").parse().expect("--window-secs f64");
                }
                "--tenants" => out.tenants = value("--tenants").parse().expect("--tenants usize"),
                "--seed" => out.seed = value("--seed").parse().expect("--seed u64"),
                other => panic!("unknown flag {other}; see `deeprest` docs for usage"),
            }
        }
        if out.quick && !experts_given {
            out.experts = vec![64];
        }
        out
    }
}

/// Synthetic application with `ceil(experts / 2)` components, two metric
/// series (CPU + memory) per component — the last trimmed to CPU only for
/// odd expert counts. Deterministic, so capacity runs are reproducible.
fn dataset(windows: usize, experts: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    let components = experts.div_ceil(2);
    let drop_last_mem = experts % 2 == 1;
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
            cpu.push(1.5 + (0.8 + 0.02 * c as f64) * count as f64);
            mem.push(48.0 + 0.4 * count as f64);
        }
        metrics.insert(MetricKey::new(&svc_name, ResourceKind::Cpu), cpu);
        if !(drop_last_mem && c == components - 1) {
            metrics.insert(MetricKey::new(&svc_name, ResourceKind::Memory), mem);
        }
    }
    (i, traces, metrics)
}

/// Steps `f` over the feature windows (cycling) `steps` times after
/// `warm` warm-up calls; returns achieved window steps per second.
fn windows_per_sec(xs: &[Vec<f32>], warm: usize, steps: usize, mut f: impl FnMut(&[f32])) -> f64 {
    for k in 0..warm {
        f(&xs[k % xs.len()]);
    }
    let start = Instant::now();
    for k in 0..steps {
        f(&xs[k % xs.len()]);
    }
    steps as f64 / start.elapsed().as_secs_f64()
}

struct Row {
    experts: usize,
    shards: usize,
    windows_per_sec: f64,
    /// The model's packed weights: resident once, whatever the number of
    /// streams stepping it.
    pack_bytes: usize,
    /// What each stream of the model holds for itself: hidden state,
    /// masked inputs and the gathered hidden matrix.
    stream_bytes: usize,
    experts_per_core: f64,
    /// Mean `nnz/d` of the windows the timed steps ran on.
    density: f64,
    /// Multi-tenant sizing (only with `--tenants N`, N > 1): rounds/sec
    /// where one round advances every tenant's predictor by one window,
    /// and the tenants one core sustains at the window rate.
    tenant_rounds_per_sec: Option<f64>,
    tenants_per_core: Option<f64>,
}

fn capacity_row(args: &CapacityArgs, experts: usize) -> Row {
    let windows = if args.quick { 32 } else { 48 };
    let (i, traces, metrics) = dataset(windows, experts);
    let cfg = DeepRestConfig {
        hidden_dim: if args.quick { 8 } else { 16 },
        epochs: 1,
        subseq_len: 12,
        batch_size: 4,
        threads: args.threads,
        ..DeepRestConfig::default()
    }
    .with_seed(args.seed);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
    assert_eq!(
        model.expert_keys().len(),
        experts,
        "dataset yields the sweep's expert count"
    );
    let xs: Vec<Vec<f32>> = traces
        .windows
        .iter()
        .map(|w| model.window_features(w, &i))
        .collect();

    let (warm, steps) = if args.quick { (8, 40) } else { (16, 200) };
    let mut batched = model.stream_predictor();
    let shards = batched.shard_count();
    // `state_bytes` is the pack plus this stream's own f32s: per expert one
    // hidden vector, one masked input vector and one column of `H_t`.
    let (hidden, dim) = (model.config().hidden_dim, model.feature_space().dim());
    let stream_bytes = experts * (2 * hidden + dim) * std::mem::size_of::<f32>();
    let pack_bytes = batched.state_bytes() - stream_bytes;
    let wps = windows_per_sec(&xs, warm, steps, |x| {
        batched.step(x);
    });
    let stepped = (0..steps).map(|k| &xs[k % xs.len()]);
    let nonzero: usize = stepped
        .map(|x| x.iter().filter(|&&v| v != 0.0).count())
        .sum();
    let density = nonzero as f64 / (steps * dim) as f64;

    let threads = model_threads(args);
    let step_secs = 1.0 / wps;

    // Multi-tenant sizing: N co-resident tenants share the model's pack
    // and carry independent hidden state; one round steps them all by one
    // window (the registry's drain pattern).
    let (tenant_rounds_per_sec, tenants_per_core) = if args.tenants > 1 {
        let mut predictors: Vec<_> = (0..args.tenants)
            .map(|_| model.stream_predictor())
            .collect();
        let rps = windows_per_sec(
            &xs,
            warm.div_ceil(args.tenants),
            steps.div_ceil(args.tenants),
            |x| {
                for p in &mut predictors {
                    p.step(x);
                }
            },
        );
        let per_core = rps * args.tenants as f64 * args.window_secs / threads as f64;
        (Some(rps), Some(per_core))
    } else {
        (None, None)
    };

    Row {
        experts,
        shards,
        windows_per_sec: wps,
        pack_bytes,
        stream_bytes,
        experts_per_core: experts as f64 * args.window_secs / (step_secs * threads as f64),
        density,
        tenant_rounds_per_sec,
        tenants_per_core,
    }
}

/// Worker threads the run is using: the flag, the env var, or all cores —
/// the same resolution order as the tensor pool.
fn model_threads(args: &CapacityArgs) -> usize {
    if let Some(n) = args.threads {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("DEEPREST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn run_capacity(raw: Vec<String>) {
    let args = CapacityArgs::parse(raw);
    let mut rows = Vec::new();
    for &e in &args.experts {
        rows.push(capacity_row(&args, e));
    }

    if args.json {
        for r in &rows {
            let tenant_fields = match (r.tenant_rounds_per_sec, r.tenants_per_core) {
                (Some(rps), Some(per_core)) => format!(
                    ",\"tenants\":{},\"tenant_rounds_per_sec\":{rps:.1},\
                     \"tenants_per_core\":{per_core:.1}",
                    args.tenants
                ),
                _ => String::new(),
            };
            let (pack, stream) = (r.pack_bytes, r.stream_bytes);
            println!(
                "{{\"experts\":{},\"shards\":{},\"batched_windows_per_sec\":{:.1},\
                 \"experts_per_core\":{:.1},\"pack_bytes\":{pack},\"stream_bytes\":{stream},\
                 \"nnz_per_d\":{:.3}{tenant_fields}}}",
                r.experts, r.shards, r.windows_per_sec, r.experts_per_core, r.density
            );
        }
    } else {
        println!(
            "deeprest capacity — batched serving throughput ({} threads, {}s windows)",
            model_threads(&args),
            args.window_secs
        );
        println!(
            "{:>8}  {:>6}  {:>12}  {:>12}  {:>10}  {:>10}  {:>6}",
            "experts", "shards", "windows/s", "experts/core", "pack KiB", "KiB/stream", "nnz/d"
        );
        for r in &rows {
            let kib = |bytes: usize| bytes as f64 / 1024.0;
            let (pack, stream) = (kib(r.pack_bytes), kib(r.stream_bytes));
            println!(
                "{:>8}  {:>6}  {:>12.1}  {:>12.3e}  {pack:>10.1}  {stream:>10.1}  {:>6.3}",
                r.experts, r.shards, r.windows_per_sec, r.experts_per_core, r.density
            );
            if let (Some(rps), Some(per_core)) = (r.tenant_rounds_per_sec, r.tenants_per_core) {
                let resident = kib(r.pack_bytes + args.tenants * r.stream_bytes);
                println!(
                    "{:>8}  {} tenants: {rps:.1} rounds/s, {per_core:.3e} tenants/core, \
                     {resident:.1} KiB resident",
                    "", args.tenants
                );
            }
        }
    }
}

struct ScaleArgs {
    /// Scenarios to replay.
    scenarios: Vec<ScenarioKind>,
    /// Exit non-zero unless proactive beats reactive (strict on surge and
    /// flash-crowd, never-worse elsewhere).
    assert_better: bool,
    /// Emit one JSON object per (scenario, policy) row.
    json: bool,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        Self {
            scenarios: ScenarioKind::all().to_vec(),
            assert_better: false,
            json: false,
        }
    }
}

impl ScaleArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--scenario" => {
                    let name = iter
                        .next()
                        .unwrap_or_else(|| panic!("missing value for --scenario"));
                    if name == "all" {
                        out.scenarios = ScenarioKind::all().to_vec();
                    } else {
                        out.scenarios = vec![ScenarioKind::from_name(&name).unwrap_or_else(|| {
                            panic!(
                                "unknown scenario `{name}` (surge|flash-crowd|diurnal|drift|all)"
                            )
                        })];
                    }
                }
                "--quick" => {
                    // The CI smoke pair: the two scenarios under the
                    // strict better-than-reactive guarantee.
                    out.scenarios = vec![ScenarioKind::Surge, ScenarioKind::FlashCrowd];
                }
                "--assert-better-than-reactive" => out.assert_better = true,
                "--json" => out.json = true,
                other => panic!("unknown flag {other}; see `deeprest` docs for usage"),
            }
        }
        out
    }
}

fn scale_row(args: &ScaleArgs, kind: ScenarioKind, report: &ScaleReport) {
    if args.json {
        let means: Vec<String> = report
            .mean_replicas
            .iter()
            .map(|m| format!("{m:.4}"))
            .collect();
        println!(
            "{{\"scenario\":\"{}\",\"policy\":\"{}\",\"slo_violation_windows\":{},\
             \"provisioned_cost\":{:.6},\"mean_replicas\":[{}],\"estimate_errors\":{}}}",
            kind.name(),
            report.policy,
            report.slo_violation_windows,
            report.provisioned_cost,
            means.join(","),
            report.estimate_errors
        );
    } else {
        let means: Vec<String> = report
            .mean_replicas
            .iter()
            .map(|m| format!("{m:.2}"))
            .collect();
        println!(
            "{:<12}  {:<28}  {:>11}  {:>9.4}  [{}]",
            kind.name(),
            report.policy,
            report.slo_violation_windows,
            report.provisioned_cost,
            means.join(", ")
        );
    }
}

fn run_scale(raw: Vec<String>) {
    let args = ScaleArgs::parse(raw);
    // Every scenario shares the same app and training sweep; train once.
    let model = Scenario::new(ScenarioKind::Surge).train();
    let config = ScaleLoopConfig::default();
    if !args.json {
        println!("deeprest scale — closed-loop proactive vs reactive replay");
        println!(
            "{:<12}  {:<28}  {:>11}  {:>9}  mean replicas",
            "scenario", "policy", "slo windows", "cost"
        );
    }
    let mut failures = Vec::new();
    for &kind in &args.scenarios {
        let scenario = Scenario::new(kind);
        let proactive = run_proactive(&model, &scenario, config)
            .unwrap_or_else(|e| panic!("{}: proactive run failed: {e}", kind.name()));
        let reactive = run_reactive(&model, &scenario, config)
            .unwrap_or_else(|e| panic!("{}: reactive run failed: {e}", kind.name()));
        scale_row(&args, kind, &proactive);
        scale_row(&args, kind, &reactive);
        if args.assert_better {
            let strict = matches!(kind, ScenarioKind::Surge | ScenarioKind::FlashCrowd);
            if strict {
                if proactive.slo_violation_windows >= reactive.slo_violation_windows {
                    failures.push(format!(
                        "{}: proactive {} vs reactive {} violation windows (need strictly fewer)",
                        kind.name(),
                        proactive.slo_violation_windows,
                        reactive.slo_violation_windows
                    ));
                }
                if proactive.provisioned_cost > reactive.provisioned_cost {
                    failures.push(format!(
                        "{}: proactive cost {:.4} vs reactive {:.4} (need equal or lower)",
                        kind.name(),
                        proactive.provisioned_cost,
                        reactive.provisioned_cost
                    ));
                }
            } else if proactive.slo_violation_windows > reactive.slo_violation_windows {
                failures.push(format!(
                    "{}: proactive {} vs reactive {} violation windows (must never be worse)",
                    kind.name(),
                    proactive.slo_violation_windows,
                    reactive.slo_violation_windows
                ));
            }
        }
    }
    if args.assert_better {
        if failures.is_empty() {
            println!("scale: PASS — proactive beats reactive on every replayed scenario");
        } else {
            for f in &failures {
                eprintln!("scale: FAIL — {f}");
            }
            std::process::exit(1);
        }
    }
}

fn run_experiment(mut args: impl Iterator<Item = String>) {
    let id = args.next().unwrap_or_default();
    let ids = experiments::ids();
    if !ids.contains(&id.as_str()) {
        eprintln!(
            "deeprest experiment: unknown id `{id}`; valid ids: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let args = Args::parse_from(args);
    args.install_telemetry();
    experiments::run(&id, &args);
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("experiment") => run_experiment(args),
        Some("capacity") => run_capacity(args.collect()),
        Some("scale") => run_scale(args.collect()),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("usage: deeprest experiment <id|all> [--seed N] [--out DIR] ...");
            eprintln!("       deeprest capacity [--quick] [--experts N,N,..] [--threads N]");
            eprintln!("                         [--window-secs S] [--json]");
            eprintln!("       deeprest scale    [--quick] [--scenario NAME|all] [--json]");
            eprintln!("                         [--assert-better-than-reactive]");
            std::process::exit(if std::env::args().len() > 1 { 0 } else { 2 });
        }
        Some(other) => {
            eprintln!("deeprest: unknown subcommand `{other}` (try `deeprest experiment`, `deeprest capacity` or `deeprest scale`)");
            std::process::exit(2);
        }
    }
}
