//! What a workload hands back, and how a run is printed and recorded.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use deeprest::serve::WindowOutput;
use serde_json::{json, Map, Value};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{first_divergence, Digest, Stat, SEGMENTS};

/// How one invocation was asked to run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: the timed work is sized for about this long on the
    /// reference box (op counts are fixed per second, so counts repeat).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Test hook: flip one bit of the outputs before they are checked.
    pub corrupt: bool,
    /// Library threads: `min(nproc, 2)`, pinned and recorded.
    pub threads: usize,
    /// Where trace files and scratch checkpoints go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Length factor relative to the nominal 10 s run; smoke runs 1/50.
    pub fn scale(&self) -> f64 {
        let s = self.seconds / 10.0;
        if self.smoke {
            s / 50.0
        } else {
            s
        }
    }

    /// Ops for this run given the op count of a nominal 10 s run and the
    /// length of the input cycle. A full run does a whole number of cycles
    /// per segment, so op `k` of every segment is the same input; a smoke or
    /// traced run (a fiftieth, a quarter) only keeps the segments equal. The
    /// traced run is shorter because it drives each op through the stage
    /// chain as well and measures an untraced baseline next to it.
    pub fn ops(&self, per_10s: usize, cycle: usize) -> usize {
        let mut want = per_10s as f64 * self.scale();
        let mut unit = SEGMENTS * cycle;
        if self.trace {
            want /= 4.0;
        }
        if self.trace || self.smoke {
            unit = SEGMENTS;
        }
        (want / unit as f64).round().max(1.0) as usize * unit
    }

    /// Set-up repetitions: `full` on a timed run (the reported `setup_s` is
    /// their median; the cheaper the set-up, the more it can afford), one on
    /// a smoke or traced run.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            full
        }
    }
}

/// Sets up `reps` times, keeping the last; the reported `setup_s` is the
/// median. Each set-up is dropped before the next is built, so peak memory
/// is one set-up's.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> (T, f64)) -> (T, Stat) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (value, s) = setup();
        secs.push(s);
        last = Some(value);
    }
    (last.expect("at least one set-up ran"), Stat::of(&secs))
}

/// One named correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            pass,
            detail: detail.into(),
        }
    }

    /// Passes when the two output streams are bit-identical; `same` is the
    /// detail to print then, the first divergence is printed otherwise.
    pub fn bit_equal(
        name: &'static str,
        got: &[WindowOutput],
        expected: &[WindowOutput],
        same: String,
    ) -> Self {
        match first_divergence(got, expected) {
            None => Self::new(name, true, same),
            Some(i) => Self::new(name, false, format!("first divergence at output {i}")),
        }
    }
}

/// Everything a workload reports.
pub struct Outcome {
    /// Operations attempted: arrivals submitted plus windows expected (for
    /// `train_query`, fits and queries).
    pub attempted: u64,
    /// Of those, how many were lost: rejected, shed, late- or
    /// malformed-dropped arrivals, windows expected but not emitted.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub digest: Digest,
    /// `windows_per_s`, `op_p50_us`, `op_p90_us` (untraced run).
    pub e2e: Vec<(&'static str, Stat)>,
    pub setup_s: Stat,
    /// `VmHWM` right after the timed phase, before the correctness checks
    /// build their reference copies.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced run); names missing here read 0.
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// A failed correctness check fails every op of its workload.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not there.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The end-to-end figures of an untraced run, in table order.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, &'static str, Stat)> {
    END_TO_END
        .iter()
        .map(|m| {
            let stat = match m.name {
                "setup_s" => outcome.setup_s,
                "peak_rss_mb" => Stat::single(outcome.peak_rss_mb),
                name => outcome
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(Stat::single(0.0), |(_, s)| *s),
            };
            (m.name, m.unit, stat)
        })
        .collect()
}

/// The run's metrics as a JSON object in table order: per-layer values on a
/// traced run (a layer the workload bypasses reads 0), else the end-to-end
/// figures, with the quartiles they were taken from when `spread` is set.
fn metrics_json(ctx: &Ctx, outcome: &Outcome, spread: bool) -> Value {
    let mut metrics = Map::new();
    if ctx.trace {
        for m in &PER_LAYER {
            let v = outcome.layers.get(m.name).copied().unwrap_or(0.0);
            metrics.insert(m.name, json!({ "value": finite(v), "unit": m.unit }));
        }
    } else {
        for (name, unit, s) in end_to_end(outcome) {
            let mut m = Map::new();
            m.insert("value", json!(finite(s.value)));
            m.insert("unit", json!(unit));
            if spread {
                m.insert("q1", json!(finite(s.q1)));
                m.insert("q3", json!(finite(s.q3)));
                m.insert("n", json!(s.n));
            }
            metrics.insert(name, Value::Object(m));
        }
    }
    Value::Object(metrics)
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end on an untraced run, per-layer on a traced one).
pub fn result_line(ctx: &Ctx, outcome: &Outcome) -> String {
    let line = json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed_ops(),
        "metrics": metrics_json(ctx, outcome, false),
    });
    serde_json::to_string(&line).expect("plain JSON serializes")
}

/// Every metric by name and unit, for a person.
pub fn print_human(ctx: &Ctx, workload: &str, outcome: &Outcome) {
    println!(
        "== {workload}  seed {}  seconds {}  trace {}  threads {}  nproc {}  isa {}{}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads,
        nproc(),
        isa_path(),
        if ctx.smoke {
            "  (smoke, 1/50 length)"
        } else {
            ""
        },
    );
    if ctx.trace {
        for m in &PER_LAYER {
            let v = outcome.layers.get(m.name).copied().unwrap_or(0.0);
            println!("{:<48} {:>16.4} {}", m.name, v, m.unit);
        }
    } else {
        for (name, unit, s) in end_to_end(outcome) {
            let what = if name == "setup_s" {
                "set-ups"
            } else {
                "segments"
            };
            let spread = if s.n > 1 {
                format!("[quartiles {:.4} .. {:.4} of {} {what}]", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            println!("{name:<16} {:>14.4} {unit:<5} {spread}", s.value);
        }
    }
    for c in &outcome.checks {
        println!(
            "check {:<34} {}  {}",
            c.name,
            if c.pass { "PASS" } else { "FAIL" },
            c.detail
        );
    }
    let attempted = outcome.attempted.max(1);
    println!(
        "attempted {}  failed {}  failed_share {:.6}",
        outcome.attempted,
        outcome.failed_ops(),
        outcome.failed_ops() as f64 / attempted as f64
    );
    println!("outputs_digest {:08x}", outcome.digest.0);
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Which kernel path the tensor crate takes on this CPU.
pub fn isa_path() -> &'static str {
    if deeprest::tensor::kernel::dot_avx2(&[1.0; 8], &[1.0; 8]).is_some() {
        "avx2"
    } else {
        "portable"
    }
}

/// The commit being measured: `BENCH_COMMIT` if set, else `git rev-parse`,
/// else `unknown` (the driver's checkout is not a git repository).
fn commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// One self-describing JSON line per run, appended to `path`: the record
/// `compare` reads and a later history file can keep.
pub fn append_record(
    path: &Path,
    ctx: &Ctx,
    workload: &str,
    outcome: &Outcome,
) -> std::io::Result<()> {
    use std::io::Write;
    let record = json!({
        "commit": commit(),
        "nproc": nproc(),
        "isa": isa_path(),
        "threads": ctx.threads,
        "seed": ctx.seed,
        "workload": workload,
        "seconds": ctx.seconds,
        "segments": SEGMENTS,
        "trace": ctx.trace,
        "smoke": ctx.smoke,
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed_ops(),
        "outputs_digest": format!("{:08x}", outcome.digest.0),
        "metrics": metrics_json(ctx, outcome, true),
    });
    let mut line = serde_json::to_string(&record).expect("plain JSON serializes");
    line.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}

/// Writes the traced run's spans and per-layer values to
/// `<out_dir>/<workload>.trace.json`.
pub fn write_trace(ctx: &Ctx, workload: &str, outcome: &Outcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let path = ctx.out_dir.join(format!("{workload}.trace.json"));
    let doc = json!({
        "workload": workload,
        "seed": ctx.seed,
        "threads": ctx.threads,
        "nproc": nproc(),
        "per_layer": metrics_json(ctx, outcome, false),
        "trace": outcome.tracer.as_ref().map_or(Value::Null, Tracer::to_json),
    });
    std::fs::write(
        &path,
        serde_json::to_string(&doc).expect("plain JSON serializes"),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seconds: f64, trace: bool, smoke: bool) -> Ctx {
        Ctx {
            seed: 17,
            seconds,
            trace,
            smoke,
            corrupt: false,
            threads: 2,
            out_dir: PathBuf::from("out"),
        }
    }

    #[test]
    fn op_counts_scale_with_seconds_and_keep_whole_units() {
        assert_eq!(ctx(10.0, false, false).ops(1920, 384), 1920);
        assert_eq!(ctx(5.0, false, false).ops(1920, 384), 1920);
        assert_eq!(ctx(10.0, false, false).ops(480, 96), 480);
        assert_eq!(ctx(10.0, false, false).ops(8640, 192), 8640);
        assert_eq!(ctx(5.0, false, false).ops(8640, 192), 4800);
        assert_eq!(ctx(10.0, true, false).ops(1920, 384), 480);
        assert_eq!(ctx(10.0, false, true).ops(1920, 384), 40);
        assert_eq!(ctx(1.0, false, true).ops(1920, 384), 5);
    }

    fn outcome(pass: bool) -> Outcome {
        Outcome {
            attempted: 100,
            failed: 0,
            checks: vec![Check::new("reference", pass, "")],
            digest: Digest(7),
            e2e: vec![
                ("windows_per_s", Stat::single(10.5)),
                ("op_p50_us", Stat::single(3.25)),
                ("op_p90_us", Stat::single(4.5)),
            ],
            setup_s: Stat::single(0.5),
            peak_rss_mb: 12.0,
            layers: BTreeMap::from([("core.stream.step_us", 42.0)]),
            tracer: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&ctx(10.0, false, false), &outcome(true));
        let v: Value = serde_json::from_str(&line).unwrap();
        let o = v.as_object().unwrap();
        let keys: Vec<&str> = o.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = o.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in &END_TO_END {
            let got = metrics.get(m.name).unwrap().as_object().unwrap();
            assert_eq!(got.get("unit").unwrap().as_str(), Some(m.unit));
            assert!(got.get("value").unwrap().as_f64().unwrap() > 0.0);
        }
        let traced = result_line(&ctx(10.0, true, false), &outcome(true));
        let v: Value = serde_json::from_str(&traced).unwrap();
        let metrics = v.as_object().unwrap().get("metrics").unwrap();
        let metrics = metrics.as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let step = metrics
            .get("core.stream.step_us")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(step.get("value").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn a_failed_check_fails_every_op() {
        let bad = outcome(false);
        assert!(!bad.correct());
        assert_eq!(bad.failed_ops(), bad.attempted);
        let line = result_line(&ctx(10.0, false, false), &bad);
        let v: Value = serde_json::from_str(&line).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(o.get("failed").unwrap().as_u64(), Some(100));
    }
}
