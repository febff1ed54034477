//! The repo's end-to-end benchmark: Jaeger bytes → alerts, five workloads,
//! a per-layer budget. See `README.md` for the glossary and
//! `../BENCHMARK.json` for the contract the driver reads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--append <file>]
//! benchmark                      every workload, each as its own process
//! benchmark compare A.jsonl B.jsonl
//! benchmark describe             prints BENCHMARK.json from the tables
//! ```
//!
//! A closed loop with one client: a single load-generator thread calls the
//! library directly and waits for each reply, as callers of
//! `Pipeline::ingest` and `TenantRegistry::submit` do. Library threads are
//! pinned to `min(nproc, 2)`. `deeprest-fault` and `deeprest-telemetry` are
//! disarmed whatever the environment says.

mod adapt;
mod compare;
mod inputs;
mod metrics;
mod replay;
mod report;
mod spans;
mod stats;
mod tenants;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{json, Value};

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use report::{Ctx, Outcome};

/// The default `--seed` and the driver's `run_seconds`.
const DEFAULT_SEED: u64 = 17;
const RUN_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    append: Option<PathBuf>,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        corrupt: false,
        append: None,
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--corrupt-output" => args.corrupt = true,
            "--append" => args.append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "replay_dense" => replay::run(replay::Shape::Dense, ctx),
        "replay_wide" => replay::run(replay::Shape::Wide, ctx),
        "tenants_flood" => tenants::run(ctx),
        "adapt_drift" => adapt::run(ctx),
        "train_query" => train::run(ctx),
        _ => return None,
    })
}

/// `BENCHMARK.json`, generated from the tables the program prints from.
fn describe() -> String {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let e2e: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound }))
        .collect();
    let layers: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    let doc = json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": e2e,
        "per_layer": layers,
    });
    serde_json::to_string_pretty(&doc).expect("plain JSON serializes")
}

/// Runs every workload as its own process (so peak memory and warm-up are
/// each workload's own), forwarding the flags.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(raw)
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Caps glibc malloc at one arena per thread that can be live at once (the
/// client plus the pinned library threads). The library spawns its workers
/// per fan-out, and which arena a new worker lands in is a race: left alone,
/// `peak_rss_mb` of the same run read 155 or 195 MiB on `train_query`. With
/// the cap it repeats within 2 % and no timing moved (one arena for all
/// threads, by contrast, made `estimate_traffic` 4x slower).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas(arenas: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's own tuning call, takes two plain ints and
    // touches only allocator parameters; it is called once at the top of
    // `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, arenas as i32);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas(_arenas: usize) {}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = raw.as_slice() else {
                eprintln!("usage: benchmark compare A.jsonl B.jsonl");
                return ExitCode::from(2);
            };
            return match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("describe") => {
            println!("{}", describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        return run_all(&raw);
    };

    // Pin the library's threads and disarm its probes before it runs.
    let threads = report::nproc().min(2);
    std::env::set_var("DEEPREST_THREADS", threads.to_string());
    pin_malloc_arenas(threads + 1);
    deeprest_telemetry::set_sink(None);
    deeprest_fault::set_plan(None);

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        corrupt: args.corrupt,
        threads,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let Some(outcome) = run_workload(&workload, &ctx) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "benchmark: unknown workload {workload} (one of {})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    report::print_human(&ctx, &workload, &outcome);
    if ctx.trace {
        match report::write_trace(&ctx, &workload, &outcome) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write trace: {e}"),
        }
    }
    if let Some(path) = &args.append {
        if let Err(e) = report::append_record(path, &ctx, &workload, &outcome) {
            eprintln!("benchmark: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report::result_line(&ctx, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
