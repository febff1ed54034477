//! Compares two `BENCH_perf.json` snapshots and fails on regressions.
//!
//! CI runs the Criterion kernel sweeps in quick mode (`BENCH_FILTER`
//! restricted to the kernel groups, `BENCH_PERF_OUT` pointed at a scratch
//! file) and then invokes this guard against the committed baseline:
//!
//! ```text
//! bench_guard <baseline.json> <current.json> [--threshold PCT] [--filter SUB]...
//! ```
//!
//! Only benchmark ids present in **both** files are compared; an id the
//! filters select that is present only in the baseline (a quick-mode run
//! measures a subset; a bench may have been retired) is listed as a note,
//! never a failure. A benchmark regresses
//! when its current time exceeds the baseline by more than `--threshold`
//! percent (default 25). `--stat mean|min` picks the compared statistic;
//! the default is `min_ns` — the minimum over samples is what the kernel
//! can do when the machine isn't interfering, so it is far less flappy on
//! shared CI runners than the mean. `--filter` restricts the comparison
//! to ids containing one of the given substrings; repeat the flag for
//! several groups. Exit code 1 on any regression, 2 on usage/parse errors.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

/// `id -> <stat>_ns` for every benchmark in a `BENCH_perf.json` document.
fn load(path: &str, stat: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let benches = doc
        .as_object()
        .and_then(|m| m.get("benchmarks"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"benchmarks\" array"))?;
    let mut out = BTreeMap::new();
    for entry in benches {
        let entry = entry
            .as_object()
            .ok_or_else(|| format!("{path}: non-object benchmark entry"))?;
        let id = entry
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: benchmark without string \"id\""))?;
        let field = format!("{stat}_ns");
        let ns = entry
            .get(&field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: {id} lacks numeric \"{field}\""))?;
        out.insert(id.to_string(), ns);
    }
    Ok(out)
}

struct Args {
    baseline: String,
    current: String,
    threshold_pct: f64,
    stat: String,
    filters: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold_pct = 25.0;
    let mut stat = "min".to_string();
    let mut filters = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = argv.next().ok_or("--threshold needs a value")?;
                threshold_pct = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --threshold {v}"))?;
            }
            "--stat" => {
                let v = argv.next().ok_or("--stat needs a value")?;
                if v != "mean" && v != "min" {
                    return Err(format!("bad --stat {v} (expected mean or min)"));
                }
                stat = v;
            }
            "--filter" => filters.push(argv.next().ok_or("--filter needs a value")?),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err("usage: bench_guard <baseline.json> <current.json> \
             [--threshold PCT] [--stat mean|min] [--filter SUB]..."
            .into());
    }
    let mut it = positional.into_iter();
    Ok(Args {
        baseline: it.next().unwrap(),
        current: it.next().unwrap(),
        threshold_pct,
        stat,
        filters,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (
        load(&args.baseline, &args.stat),
        load(&args.current, &args.stat),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };

    let wanted =
        |id: &str| args.filters.is_empty() || args.filters.iter().any(|f| id.contains(f.as_str()));
    let mut compared = 0usize;
    let mut regressions = 0usize;
    for (id, &base) in baseline.iter().filter(|(id, _)| wanted(id)) {
        let Some(&cur) = current.get(id) else {
            println!("{:>9}  {id:<44} only in the baseline, not compared", "note");
            continue;
        };
        compared += 1;
        let delta_pct = (cur - base) / base * 100.0;
        let status = if delta_pct > args.threshold_pct {
            regressions += 1;
            "REGRESSED"
        } else if delta_pct < -args.threshold_pct {
            "improved"
        } else {
            "ok"
        };
        println!("{status:>9}  {id:<44} {base:>12.1} ns -> {cur:>12.1} ns  ({delta_pct:+.1}%)");
    }
    if compared == 0 {
        eprintln!("bench_guard: no overlapping benchmark ids to compare");
        return ExitCode::from(2);
    }
    if regressions > 0 {
        eprintln!(
            "bench_guard: {regressions}/{compared} benchmarks regressed beyond {:.0}%",
            args.threshold_pct
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_guard: {compared} benchmarks within {:.0}%",
        args.threshold_pct
    );
    ExitCode::SUCCESS
}
