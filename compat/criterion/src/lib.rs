//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal wall-clock benchmark harness with criterion's
//! spelling: [`Criterion`], [`BenchmarkId`], benchmark groups with
//! `sample_size` / `throughput` / `bench_function` / `bench_with_input` /
//! `finish`,
//! [`Bencher::iter`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Every measurement is printed to stdout and appended to a summary
//! written as `BENCH_perf.json` (override the path with the
//! `BENCH_PERF_OUT` environment variable) when `criterion_main!` exits,
//! so the perf trajectory is machine-trackable across PRs.
//!
//! Setting `BENCH_FILTER` to a comma-separated list of substrings runs
//! only the benchmarks whose id contains one of them (e.g.
//! `BENCH_FILTER=matmul,gemv` for a CI kernel smoke run).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity; prevents dead-code elimination of
/// benchmark results.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

#[derive(Clone, Debug)]
struct Measurement {
    id: String,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

static RESULTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Identifies one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayed parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

/// How much input one iteration of a group's benchmarks processes; printed
/// as a rate beside the times.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes per iteration, reported as MB/s (10^6 bytes) of the mean time.
    Bytes(u64),
}

/// The benchmark driver handed to `criterion_group!` targets.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name.to_string(), self.sample_size, None, f);
        self
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the input size of the benchmarks that follow in this group.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(
            format!("{}/{}", self.name, name),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(
            format!("{}/{}", self.name, id.id),
            self.sample_size,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (upstream emits summary statistics here; the
    /// stand-in reports per-benchmark as it goes).
    pub fn finish(self) {}
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    iters_per_sample: u64,
    sample_ns: Vec<f64>,
    target_samples: usize,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and size the per-sample iteration count so one sample
        // costs at least ~2ms (or a single call if the routine is slow).
        let warmup = Instant::now();
        black_box(routine());
        let once = warmup.elapsed();
        let iters = if once >= Duration::from_millis(2) {
            1
        } else {
            let per_iter_ns = once.as_nanos().max(1) as u64;
            (2_000_000 / per_iter_ns).clamp(1, 1 << 20)
        };
        self.iters_per_sample = iters;

        let budget = Duration::from_secs(3);
        let started = Instant::now();
        for sample in 0..self.target_samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            self.sample_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
            // Keep slow benchmarks bounded: stop after the time budget
            // once a minimum number of samples is in.
            if started.elapsed() > budget && sample >= 2 {
                break;
            }
        }
    }
}

/// Returns `true` when `id` passes the `BENCH_FILTER` environment variable:
/// unset runs everything; otherwise the id must contain one of the
/// comma-separated substrings. Lets CI smoke runs restrict a bench binary
/// to its fast kernel groups without a recompile.
fn passes_filter(id: &str) -> bool {
    match std::env::var("BENCH_FILTER") {
        Ok(filter) if !filter.trim().is_empty() => filter
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .any(|p| id.contains(p)),
        _ => true,
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if !passes_filter(&id) {
        return;
    }
    let mut bencher = Bencher {
        iters_per_sample: 1,
        sample_ns: Vec::new(),
        target_samples: sample_size.max(3),
    };
    f(&mut bencher);
    if bencher.sample_ns.is_empty() {
        return;
    }
    let samples = bencher.sample_ns.len();
    let mean_ns = bencher.sample_ns.iter().sum::<f64>() / samples as f64;
    let min_ns = bencher
        .sample_ns
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let rate = match throughput {
        // bytes / ns = GB/s.
        Some(Throughput::Bytes(bytes)) => format!("  {:.1} MB/s", bytes as f64 / mean_ns * 1e3),
        None => String::new(),
    };
    println!(
        "bench {id:<56} mean {:>12}  min {:>12}  ({samples} samples x {} iters){rate}",
        format_ns(mean_ns),
        format_ns(min_ns),
        bencher.iters_per_sample,
    );
    RESULTS.lock().unwrap().push(Measurement {
        id,
        mean_ns,
        min_ns,
        samples,
        iters_per_sample: bencher.iters_per_sample,
    });
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Writes the collected measurements as JSON. Called by
/// [`criterion_main!`] after all groups run.
#[doc(hidden)]
pub fn __write_summary() {
    let results = RESULTS.lock().unwrap();
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
            m.id.replace('"', "\\\""),
            m.mean_ns,
            m.min_ns,
            m.samples,
            m.iters_per_sample
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("BENCH_PERF_OUT").unwrap_or_else(|_| "BENCH_perf.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path} ({} benchmarks)", results.len()),
        Err(e) => eprintln!("criterion compat: failed to write {path}: {e}"),
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running every group and then
/// writing the JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes flags (e.g. `--bench`); the stand-in
            // runs everything unconditionally.
            $($group();)+
            $crate::__write_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(5);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        group.finish();
        let results = RESULTS.lock().unwrap();
        assert!(results.iter().any(|m| m.id == "smoke/sum"));
        assert!(results.iter().any(|m| m.id == "smoke/param/4"));
    }
}
