//! Seeded input generation. Everything a workload feeds the library is made
//! here from `--seed`; the library only ever receives the generated inputs.

use std::time::Instant;

use deeprest::core::{DeepRest, DeepRestConfig, TrainReport};
use deeprest::metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest::sim::apps;
use deeprest::sim::engine::{simulate, SimConfig, SimOutput};
use deeprest::trace::window::{TimestampedTrace, WindowedTraces};
use deeprest::trace::{jaeger, Interner, SpanNode, Trace};
use deeprest::workload::{ApiTraffic, WorkloadSpec};

/// Scrape windows per simulated day.
pub const WINDOWS_PER_DAY: usize = 96;
/// Simulated users of the social network.
pub const USERS: f64 = 120.0;
/// Days of social-network traffic `tenants_flood` and `adapt_drift` replay.
pub const SERVE_DAYS: usize = 4;
/// `replay_dense` replays one day at four times the users: the same bytes
/// in all, but ≈300 traces (≈1.1 MB) a document. At 120 users the model's
/// step, most of it the per-fan-out worker spawns, was 16-23 % of the op
/// (more whenever the host was busy); the workload exists to be the one
/// `trace.jaeger` dominates (import ≥60 %, step ≤15 %).
pub const DENSE_USERS: f64 = 480.0;
pub const DENSE_DAYS: usize = 1;
/// Documents imported once in set-up to warm the name table: a sixth of a
/// day already holds every component, operation and endpoint name, and the
/// run checks that none was first seen later.
pub const DENSE_WARM_DOCS: usize = 16;

/// Wall time of the set-up stages, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub sim_s: f64,
    pub fit_s: f64,
    pub export_s: f64,
    pub import_s: f64,
    /// Everything else inside set-up (building the serving object once).
    pub other_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.sim_s + self.fit_s + self.export_s + self.import_s + self.other_s
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `days` of the social network at `users` users: traffic, traces, metrics.
pub fn social_days(seed: u64, users: f64, days: usize) -> (ApiTraffic, SimOutput) {
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(users, app.default_mix())
        .with_days(days)
        .with_windows_per_day(WINDOWS_PER_DAY)
        .with_seed(seed)
        .generate();
    let sim = simulate(&app, &traffic, &SimConfig::default().with_seed(seed));
    (traffic, sim)
}

/// The serving workloads' model: every one of the 76 experts, hidden 16,
/// 4 epochs, learnt from the first simulated day.
pub fn serving_model(sim: &SimOutput, seed: u64, threads: usize) -> (DeepRest, TrainReport) {
    let cfg = DeepRestConfig::default()
        .with_hidden(16)
        .with_epochs(4)
        .with_seed(seed)
        .with_threads(threads);
    DeepRest::fit(
        &sim.traces.slice(0..WINDOWS_PER_DAY),
        &sim.metrics.slice(0..WINDOWS_PER_DAY),
        &sim.interner,
        cfg,
    )
}

/// One Jaeger document per scrape window.
pub fn export_docs(traces: &WindowedTraces, interner: &Interner) -> Vec<String> {
    traces
        .windows
        .iter()
        .map(|w| jaeger::export(w, interner))
        .collect()
}

/// Imports `docs` into a fresh name table, so the table handed to
/// `Pipeline::new` already knows every name the replay will meet.
pub fn warm_names(docs: &[String]) -> Interner {
    let mut names = Interner::new();
    for doc in docs {
        jaeger::import_timestamped(doc, &mut names).expect("exported document imports");
    }
    names
}

/// Event time of arrival `j` of `n` in scrape window `window`: arrivals are
/// spread evenly inside their window, so event time advances with every op.
pub fn arrival_secs(window: usize, j: usize, n: usize, window_secs: f64) -> f64 {
    (window as f64 + (j as f64 + 0.5) / n.max(1) as f64) * window_secs
}

/// The arrivals of one already-imported window, stamped for `window`.
pub fn stamp_window(traces: &[Trace], window: usize, window_secs: f64) -> Vec<TimestampedTrace> {
    traces
        .iter()
        .enumerate()
        .map(|(j, trace)| TimestampedTrace {
            at_secs: arrival_secs(window, j, traces.len(), window_secs),
            trace: trace.clone(),
        })
        .collect()
}

/// Observed metrics for a replay that cycles `base` (`period` windows long)
/// out to `total` windows, window `w` scaled by `factor(w)`.
pub fn tile_metrics(
    base: &MetricsRegistry,
    period: usize,
    total: usize,
    factor: impl Fn(usize) -> f64,
) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for (key, series) in base.iter() {
        let values = (0..total)
            .map(|w| series.get(w % period) * factor(w))
            .collect();
        out.insert(key.clone(), TimeSeries::from_values(values));
    }
    out
}

/// SplitMix64: the harness's own generator for the synthetic wide app.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Components of the wide app (two experts each: CPU and memory).
pub const WIDE_COMPONENTS: usize = 128;
/// Distinct documents the wide replay cycles through.
pub const WIDE_WINDOWS: usize = 192;
/// Traces per wide window: few, so documents stay small and import cheap.
pub const WIDE_TRACES_PER_WINDOW: usize = 8;

/// The `deeprest capacity` shape: `components` single-span services, each
/// with its own API, CPU and memory linear in the calls it served. Which
/// services are called in a window is drawn from `seed`.
pub fn wide_app(
    seed: u64,
    components: usize,
    windows: usize,
) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut interner = Interner::new();
    let syms: Vec<_> = (0..components)
        .map(|c| {
            (
                interner.intern(&format!("Svc{c}")),
                interner.intern(&format!("op{c}")),
                interner.intern(&format!("/api{c}")),
            )
        })
        .collect();
    let mut rng = SplitMix64(seed);
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut calls = vec![vec![0.0f64; windows]; components];
    for (t, window) in traces.windows.iter_mut().enumerate() {
        for _ in 0..WIDE_TRACES_PER_WINDOW {
            let c = rng.below(components);
            let (svc, op, api) = syms[c];
            window.push(Trace::new(api, SpanNode::leaf(svc, op)));
            calls[c][t] += 1.0;
        }
    }
    let mut metrics = MetricsRegistry::new();
    for (c, series) in calls.iter().enumerate() {
        let cpu = series
            .iter()
            .map(|n| 1.5 + (0.8 + 0.02 * c as f64) * n)
            .collect();
        let mem = series.iter().map(|n| 48.0 + 0.4 * n).collect();
        let name = format!("Svc{c}");
        metrics.insert(MetricKey::new(&name, ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new(&name, ResourceKind::Memory), mem);
    }
    (interner, traces, metrics)
}

/// The wide model: hidden 16 and the `deeprest capacity` batching, but three
/// epochs, not one. After one epoch the masks are still near 0.5, so every
/// expert lists all 128 APIs as contributing and fires most windows: twelve
/// alerts a window, each cloning 128 names, which made the alert path (and
/// 2 GiB of retained alerts) the workload. Three epochs leave about two
/// alerts a window, as on the dense replay.
pub fn wide_model(
    traces: &WindowedTraces,
    metrics: &MetricsRegistry,
    interner: &Interner,
    seed: u64,
    threads: usize,
) -> (DeepRest, TrainReport) {
    let cfg = DeepRestConfig {
        hidden_dim: 16,
        epochs: 3,
        subseq_len: 12,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
    .with_seed(seed)
    .with_threads(threads);
    DeepRest::fit(traces, metrics, interner, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (_, a, _) = wide_app(17, 16, 8);
        let (_, b, _) = wide_app(17, 16, 8);
        let (_, c, _) = wide_app(23, 16, 8);
        assert_eq!(a.windows, b.windows);
        assert_ne!(a.windows, c.windows);
        assert!(a.windows.iter().all(|w| w.len() == WIDE_TRACES_PER_WINDOW));
    }

    #[test]
    fn arrivals_stay_inside_their_window_and_advance() {
        let ws = 30.0;
        let mut last = -1.0;
        for w in 0..3 {
            for j in 0..5 {
                let at = arrival_secs(w, j, 5, ws);
                assert!(at > last);
                assert_eq!((at / ws) as usize, w);
                last = at;
            }
        }
    }

    #[test]
    fn tiled_metrics_cycle_and_scale() {
        let mut base = MetricsRegistry::new();
        base.insert(
            MetricKey::new("A", ResourceKind::Cpu),
            TimeSeries::from_values(vec![1.0, 2.0]),
        );
        let tiled = tile_metrics(&base, 2, 5, |w| if w >= 2 { 10.0 } else { 1.0 });
        let s = tiled.get(&MetricKey::new("A", ResourceKind::Cpu)).unwrap();
        assert_eq!(s.values(), &[1.0, 2.0, 10.0, 20.0, 10.0]);
    }
}
