//! Compares two `BENCH_perf.json` snapshots and fails on regressions, and
//! counts the workspace's non-test lines.
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
//!
//! ```text
//! bench_guard loc [ROOT]
//! ```
//!
//! prints the non-test line count of every crate under `ROOT/crates/*/src`
//! (default `ROOT` is `.`) and their total: the one figure "net non-test
//! LOC" means. A line counts when it is not blank and does not start with
//! `//` (after indentation). A file stops counting at its first line that
//! starts with `#[cfg(test)]`, except when that attribute gates a `use`
//! import or a `mod name;` declaration: the file then keeps counting, and
//! for `mod name;` the whole named file (and anything under its module
//! directory) is test code.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

/// Counts one file's non-test lines and returns the files of the
/// `#[cfg(test)] mod name;` declarations it makes.
fn count_file(path: &Path, text: &str) -> (usize, Vec<PathBuf>) {
    let mut count = 0;
    let mut test_mods = Vec::new();
    let mut lines = text.lines().map(str::trim_start).peekable();
    while let Some(line) = lines.next() {
        if !line.starts_with("#[cfg(test)]") {
            count += usize::from(!line.is_empty() && !line.starts_with("//"));
            continue;
        }
        let next = lines.peek().copied().unwrap_or("");
        if let Some(name) = next.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            test_mods.push(module_dir(path).join(name));
            lines.next();
        } else if next.starts_with("use ") {
            // A gated import: skip through the line that ends it.
            while lines.next().is_some_and(|l| !l.trim_end().ends_with(';')) {}
        } else {
            break;
        }
    }
    (count, test_mods)
}

/// The directory a file's `mod name;` declarations resolve under.
fn module_dir(path: &Path) -> PathBuf {
    let dir = path.parent().unwrap_or(Path::new(""));
    match path.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") | None => dir.to_path_buf(),
        Some(stem) => dir.join(stem),
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `crate directory name -> non-test lines` for every `ROOT/crates/*/src`.
fn count_loc(root: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if !dir.join("src").is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files)?;
        let mut counts = Vec::new();
        let mut test_mods = Vec::new();
        for file in files {
            let (n, mods) = count_file(&file, &std::fs::read_to_string(&file)?);
            test_mods.extend(mods);
            counts.push((file, n));
        }
        let is_test = |f: &Path| {
            test_mods
                .iter()
                .any(|m| f == m.with_extension("rs") || f.starts_with(m))
        };
        let total = counts
            .iter()
            .filter(|(f, _)| !is_test(f))
            .map(|(_, n)| n)
            .sum();
        out.insert(
            dir.file_name().unwrap_or_default().to_string_lossy().into(),
            total,
        );
    }
    Ok(out)
}

fn loc(root: &Path) -> ExitCode {
    let counts = match count_loc(root) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!(
                "bench_guard: cannot count lines under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    for (name, n) in &counts {
        println!("{name:<12} {n:>7}");
    }
    println!("{:<12} {:>7}", "total", counts.values().sum::<usize>());
    ExitCode::SUCCESS
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
    if std::env::args().nth(1).as_deref() == Some("loc") {
        return loc(Path::new(
            &std::env::args().nth(2).unwrap_or_else(|| ".".into()),
        ));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn write(root: &Path, rel: &str, text: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn loc_counts_shipped_lines_only() {
        let root = std::env::temp_dir().join(format!("bench_guard_loc_{}", std::process::id()));
        let lib = "\
//! Crate docs are comments.
pub mod m;

    // An indented comment.
#[cfg(test)]
use std::fmt;
#[cfg(test)]
use std::{
    collections::HashMap,
    io,
};
#[cfg(test)]
mod oracle;
fn shipped() {}
#[cfg(test)]
mod tests {
    fn unit() {}
}
fn after_the_tests() {}
";
        write(&root, "crates/a/src/lib.rs", lib);
        write(
            &root,
            "crates/a/src/m.rs",
            "fn m() {}\n#[cfg(test)]\nfn helper() {}\nfn hidden() {}\n",
        );
        write(&root, "crates/a/src/oracle.rs", "fn oracle() {}\n");
        write(&root, "crates/a/src/oracle/deep.rs", "fn deep() {}\n");
        write(&root, "crates/b/src/main.rs", "fn main() {}\n// done\n");
        write(&root, "crates/b/src/bin/tool.rs", "fn main() {}\n");
        write(&root, "crates/c/README.md", "no src\n");
        let counts = count_loc(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let counts = counts.unwrap();
        // a: `pub mod m;` and `fn shipped() {}` in lib.rs, `fn m() {}` in m.rs.
        assert_eq!(counts.get("a"), Some(&3));
        assert_eq!(counts.get("b"), Some(&2));
        assert_eq!(counts.get("c"), None);
    }
}
