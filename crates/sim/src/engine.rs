//! The simulation engine: drives API traffic through an application,
//! producing distributed traces and windowed resource metrics.

use std::collections::HashMap;

use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};
use deeprest_workload::content::{PayloadModel, SocialGraph};
use deeprest_workload::ApiTraffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::anomaly::Injector;
use crate::cost::Payload;
use crate::{AppSpec, CallNode, Condition, Repeat};

/// CPU utilization fraction where queueing effects kick in.
const QUEUE_KNEE: f64 = 0.50;

/// Strength of the superlinear CPU amplification beyond the knee.
const QUEUE_GAIN: f64 = 1.4;

/// EWMA weight of the *current* window for CPU (the remainder carries over
/// from the previous window — queued work finishing late).
const SMOOTHING: f64 = 0.75;

/// Per-window decay of each component's cache working set.
const CACHE_DECAY: f64 = 0.985;

/// Fraction of per-request transient memory visible in the window average.
const TRANSIENT_MEM_FACTOR: f64 = 0.35;

/// Number of simulated application users backing the social graph.
const GRAPH_USERS: usize = 2_000;

/// Simulation knobs. Defaults, with the constants above, reproduce the
/// dynamics the paper's estimation problem depends on: queueing
/// amplification near saturation (so doubling traffic can more-than-double
/// CPU), temporal carryover (so utilization depends on past windows),
/// cache-driven memory (the paper's noted hard case) and measurement noise.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scrape window length in seconds.
    pub window_secs: f64,
    /// RNG seed (controls request sampling, payloads and noise).
    pub seed: u64,
    /// Multiplicative measurement-noise magnitude.
    pub noise: f64,
    /// Windows a replica *increase* takes to become effective (container
    /// pull + start + warm-up). Decreases apply immediately. Only exercised
    /// through [`SimStepper::set_target_replicas`].
    pub scale_lag_windows: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            window_secs: 30.0,
            seed: 42,
            noise: 0.02,
            scale_lag_windows: 2,
        }
    }
}

impl SimConfig {
    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything one simulation run produces: the Jaeger-substitute traces, the
/// Prometheus-substitute metrics, and the name table resolving the interned
/// symbols inside the traces.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Per-window distributed traces.
    pub traces: WindowedTraces,
    /// Per-(component, resource) utilization time-series.
    pub metrics: MetricsRegistry,
    /// Name table for the trace symbols.
    pub interner: Interner,
}

/// Runs `traffic` through `app` with no anomaly injection.
pub fn simulate(app: &AppSpec, traffic: &ApiTraffic, config: &SimConfig) -> SimOutput {
    simulate_with(app, traffic, config, &[])
}

/// Runs `traffic` through `app`, post-processing each metric window through
/// the given anomaly `injectors` (the API traffic and traces are untouched —
/// attacks consume resources without corresponding user activity, which is
/// exactly the signal DeepRest's sanity check hunts for).
///
/// # Panics
///
/// Panics if the app fails validation (call [`AppSpec::validate`] first for
/// a descriptive error) or traffic references an unknown endpoint.
pub fn simulate_with(
    app: &AppSpec,
    traffic: &ApiTraffic,
    config: &SimConfig,
    injectors: &[&dyn Injector],
) -> SimOutput {
    let mut stepper = SimStepper::new(app, traffic.apis(), config);

    let window_count = traffic.window_count();
    let mut traces = WindowedTraces::with_windows(config.window_secs, window_count);

    // Output series.
    let mut series: HashMap<MetricKey, TimeSeries> = HashMap::new();
    for c in &stepper.app.components {
        for &r in ResourceKind::for_component(c.stateful) {
            series.insert(MetricKey::new(&c.name, r), TimeSeries::zeros(0));
        }
    }

    for t in 0..window_count {
        let obs = stepper.step(traffic.window(t), injectors);
        traces.windows[t] = obs.traces;
        for (i, comp) in stepper.app.components.iter().enumerate() {
            let row = &obs.rows[i];
            push(&mut series, &comp.name, ResourceKind::Cpu, row.cpu_pct);
            push(&mut series, &comp.name, ResourceKind::Memory, row.mem_mib);
            if comp.stateful {
                push(
                    &mut series,
                    &comp.name,
                    ResourceKind::WriteIops,
                    row.write_iops,
                );
                push(
                    &mut series,
                    &comp.name,
                    ResourceKind::WriteThroughput,
                    row.write_throughput,
                );
                push(
                    &mut series,
                    &comp.name,
                    ResourceKind::DiskUsage,
                    row.disk_mib,
                );
            }
        }
    }

    let mut metrics = MetricsRegistry::new();
    for (k, s) in series {
        metrics.insert(k, s);
    }
    SimOutput {
        traces,
        metrics,
        interner: stepper.into_interner(),
    }
}

/// Everything one component reported for one stepped window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComponentRow {
    /// Per-replica average CPU utilization, percent (post-noise, clamped).
    pub cpu_pct: f64,
    /// Resident memory across replicas, MiB (post-noise).
    pub mem_mib: f64,
    /// Write operations per second (post-noise; meaningful for stateful
    /// components, zero otherwise).
    pub write_iops: f64,
    /// KiB written per second (post-noise; stateful only).
    pub write_throughput: f64,
    /// On-disk data size, MiB (stateful only).
    pub disk_mib: f64,
    /// Pre-noise CPU *demand* fraction per replica: `(baseline + busy) /
    /// 100` before queue amplification, clamping and noise. Values above
    /// the queueing knee mean latency-inflating congestion — the
    /// closed-loop autoscaler's SLO signal.
    pub saturation: f64,
    /// Replicas that actually served this window (scale-up lag applied).
    pub replicas: u32,
}

/// One stepped window: the traces it produced and one row per component,
/// in app component-declaration order.
#[derive(Clone, Debug, Default)]
pub struct StepObservation {
    /// Window index (0-based since stepper construction).
    pub window: usize,
    /// Distributed traces of every request served in this window.
    pub traces: Vec<Trace>,
    /// Per-component metrics, `app.components` order.
    pub rows: Vec<ComponentRow>,
}

/// Serializable dynamic state of a [`SimStepper`]: together with the
/// `(AppSpec, api order, SimConfig)` used at construction this is
/// everything needed to resume a simulation bit-identically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimStepperState {
    /// xoshiro256++ RNG state.
    pub rng: [u64; 4],
    /// Next window index.
    pub window: usize,
    /// Smoothed CPU carry-over, per component.
    pub cpu_prev: Vec<f64>,
    /// Cache working set, per component, MiB.
    pub cache_state: Vec<f64>,
    /// On-disk data size, per component, MiB.
    pub disk_state: Vec<f64>,
    /// Currently effective replica counts.
    pub replicas: Vec<u32>,
    /// Scheduled replica targets.
    pub target_replicas: Vec<u32>,
    /// Window at which each pending target becomes effective.
    pub ready_at: Vec<usize>,
}

/// Interactive, replica-aware variant of the simulation engine: the same
/// dynamics as [`simulate_with`] (which is implemented on top of it), but
/// advanced one window at a time so a controller can *act between windows*
/// — the observe → estimate → scale → observe loop of the `deeprest-scale`
/// subsystem.
///
/// Replicas divide each component's CPU work across `cores × replicas`
/// capacity and multiply its memory footprint; replica *increases* take
/// [`SimConfig::scale_lag_windows`] windows to become effective (container
/// start-up lag), decreases apply immediately. With every component at one
/// replica the engine is bit-identical to the batch [`simulate_with`]
/// path, and scaling decisions never consume RNG draws, so the sampled
/// request stream is invariant across scaling policies — the property the
/// scenario harness's proactive-vs-reactive comparison rests on.
pub struct SimStepper {
    app: AppSpec,
    config: SimConfig,
    rng: StdRng,
    interner: Interner,
    /// Indices into `app.apis`, in traffic column order.
    api_order: Vec<usize>,
    api_syms: Vec<deeprest_trace::Sym>,
    cpu_prev: Vec<f64>,
    cache_state: Vec<f64>,
    disk_state: Vec<f64>,
    replicas: Vec<u32>,
    target_replicas: Vec<u32>,
    ready_at: Vec<usize>,
    window: usize,
    acc: Vec<WindowAccum>,
    graph: SocialGraph,
    payload_model: PayloadModel,
}

impl SimStepper {
    /// Builds a stepper for `app` serving the given API endpoints (the
    /// column order every later [`step`](Self::step) call uses). All
    /// components start at one replica.
    ///
    /// # Panics
    ///
    /// Panics if the app fails validation or an endpoint is unknown —
    /// same contract as [`simulate_with`].
    pub fn new(app: &AppSpec, apis: &[String], config: &SimConfig) -> Self {
        app.validate().expect("simulate: invalid AppSpec");
        let rng = StdRng::seed_from_u64(config.seed);

        // Pre-intern every name in app-declaration order so the interner is
        // a pure function of the application: traces from different runs
        // (learning vs query) of the same app share one symbol space.
        let mut interner = Interner::new();
        for api in &app.apis {
            interner.intern(&api.endpoint);
            api.root.visit(&mut |n: &CallNode| {
                interner.intern(&n.component);
                interner.intern(&n.operation);
            });
        }

        // Resolve API endpoints in traffic column order.
        let api_order: Vec<usize> = apis
            .iter()
            .map(|endpoint| {
                app.apis
                    .iter()
                    .position(|a| &a.endpoint == endpoint)
                    .unwrap_or_else(|| panic!("simulate: unknown API endpoint {endpoint}"))
            })
            .collect();
        let api_syms: Vec<_> = apis.iter().map(|e| interner.intern(e)).collect();

        let n = app.components.len();
        Self {
            config: config.clone(),
            rng,
            interner,
            api_order,
            api_syms,
            graph: SocialGraph::generate(GRAPH_USERS, config.seed ^ 0x5f5f),
            payload_model: PayloadModel::default(),
            cpu_prev: vec![0.0; n],
            cache_state: vec![0.0; n],
            disk_state: app.components.iter().map(|c| c.disk_initial_mib).collect(),
            replicas: vec![1; n],
            target_replicas: vec![1; n],
            ready_at: vec![0; n],
            window: 0,
            acc: vec![WindowAccum::default(); n],
            app: app.clone(),
        }
    }

    /// The name table for produced trace symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Consumes the stepper, returning the interner (batch-run exit path).
    fn into_interner(self) -> Interner {
        self.interner
    }

    /// Schedules a replica-count change for component `i`. Scale-*downs*
    /// apply at the next step; scale-*ups* become effective
    /// [`SimConfig::scale_lag_windows`] windows later (start-up lag).
    /// Values are clamped to `1..=max_replicas` of the component spec.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_target_replicas(&mut self, i: usize, target: u32) {
        let spec = &self.app.components[i];
        let target = target.clamp(1, spec.max_replicas.max(1));
        if target == self.target_replicas[i] {
            return;
        }
        self.target_replicas[i] = target;
        self.ready_at[i] = if target > self.replicas[i] {
            self.window + self.config.scale_lag_windows
        } else {
            self.window // Tear-down is immediate.
        };
    }

    /// Captures the dynamic state for bit-identical resume via
    /// [`restore`](Self::restore).
    pub fn checkpoint(&self) -> SimStepperState {
        SimStepperState {
            rng: self.rng.state(),
            window: self.window,
            cpu_prev: self.cpu_prev.clone(),
            cache_state: self.cache_state.clone(),
            disk_state: self.disk_state.clone(),
            replicas: self.replicas.clone(),
            target_replicas: self.target_replicas.clone(),
            ready_at: self.ready_at.clone(),
        }
    }

    /// Rebuilds a stepper from [`checkpoint`](Self::checkpoint) output;
    /// `app`, `apis` and `config` must match the original construction.
    ///
    /// # Errors
    ///
    /// Returns a message when the state's shape disagrees with the app.
    pub fn restore(
        app: &AppSpec,
        apis: &[String],
        config: &SimConfig,
        state: SimStepperState,
    ) -> Result<Self, String> {
        let mut s = Self::new(app, apis, config);
        let n = s.app.components.len();
        if state.cpu_prev.len() != n
            || state.cache_state.len() != n
            || state.disk_state.len() != n
            || state.replicas.len() != n
            || state.target_replicas.len() != n
            || state.ready_at.len() != n
        {
            return Err(format!(
                "SimStepper::restore: state has {} components, app has {n}",
                state.cpu_prev.len()
            ));
        }
        s.rng = StdRng::from_state(state.rng);
        s.window = state.window;
        s.cpu_prev = state.cpu_prev;
        s.cache_state = state.cache_state;
        s.disk_state = state.disk_state;
        s.replicas = state.replicas;
        s.target_replicas = state.target_replicas;
        s.ready_at = state.ready_at;
        Ok(s)
    }

    /// Advances one window: serves `window_requests` expected requests per
    /// API (traffic column order from construction) on the current
    /// deployment, applying any due replica changes first.
    ///
    /// # Panics
    ///
    /// Panics if `window_requests` length differs from the API count.
    pub fn step(
        &mut self,
        window_requests: &[f64],
        injectors: &[&dyn Injector],
    ) -> StepObservation {
        assert_eq!(
            window_requests.len(),
            self.api_order.len(),
            "step: request vector length must match the API count"
        );
        // Apply due replica changes before serving.
        for i in 0..self.replicas.len() {
            if self.target_replicas[i] != self.replicas[i] && self.window >= self.ready_at[i] {
                self.replicas[i] = self.target_replicas[i];
            }
        }

        let t = self.window;
        let config = &self.config;
        for a in &mut self.acc {
            *a = WindowAccum::default();
        }

        // Sample and execute requests.
        let mut traces = Vec::new();
        let comp_index: HashMap<&str, usize> = self
            .app
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        for (col, &api_idx) in self.api_order.iter().enumerate() {
            let spec = &self.app.apis[api_idx];
            let expected = window_requests[col];
            let count = sample_poisson(&mut self.rng, expected);
            for _ in 0..count {
                let payload = sample_payload(spec, &self.payload_model, &self.graph, &mut self.rng);
                let root = execute(
                    &spec.root,
                    &self.app,
                    &comp_index,
                    &payload,
                    &mut self.acc,
                    &mut self.interner,
                    &mut self.rng,
                );
                traces.push(Trace::new(self.api_syms[col], root));
            }
        }

        // Turn accumulated work into utilization metrics.
        let mut rows = vec![ComponentRow::default(); self.app.components.len()];
        for (i, comp) in self.app.components.iter().enumerate() {
            let a = &self.acc[i];
            let r = f64::from(self.replicas[i]);

            // CPU: busy time over *replicated* capacity, queue-amplified
            // and smoothed. Reported utilization is the per-replica average.
            let busy_pct = 100.0 * a.cpu_ms / (config.window_secs * 1_000.0 * comp.cores * r);
            let raw = comp.cpu_baseline_pct + busy_pct;
            let rho = (raw / 100.0).min(1.5);
            let amplified = raw * (1.0 + QUEUE_GAIN * (rho - QUEUE_KNEE).max(0.0));
            let smoothed = SMOOTHING * amplified + (1.0 - SMOOTHING) * self.cpu_prev[i];
            self.cpu_prev[i] = smoothed;
            let mut cpu = (smoothed * noise_factor(&mut self.rng, config.noise)).clamp(0.0, 100.0);

            // Memory: per-replica baseline + decaying cache working set
            // (capacity scales with replicas) + transients.
            self.cache_state[i] =
                (self.cache_state[i] * CACHE_DECAY + a.cache_mib).min(comp.mem_cache_max_mib * r);
            let mut mem = (comp.mem_baseline_mib * r
                + self.cache_state[i]
                + TRANSIENT_MEM_FACTOR * a.mem_mib)
                * noise_factor(&mut self.rng, config.noise);

            let mut iops = a.write_ops / config.window_secs;
            let mut throughput = a.write_kib / config.window_secs;

            for injector in injectors {
                cpu = injector.adjust(t, &comp.name, ResourceKind::Cpu, cpu);
                mem = injector.adjust(t, &comp.name, ResourceKind::Memory, mem);
                if comp.stateful {
                    iops = injector.adjust(t, &comp.name, ResourceKind::WriteIops, iops);
                    throughput =
                        injector.adjust(t, &comp.name, ResourceKind::WriteThroughput, throughput);
                }
            }
            cpu = cpu.clamp(0.0, 100.0);

            let row = &mut rows[i];
            row.cpu_pct = cpu;
            row.mem_mib = mem;
            row.saturation = raw / 100.0;
            row.replicas = self.replicas[i];
            if comp.stateful {
                let iops_noisy = iops * noise_factor(&mut self.rng, config.noise);
                let thr_noisy = throughput * noise_factor(&mut self.rng, config.noise);
                // Disk grows by what was actually written (post-injection:
                // e.g. ransomware re-encrypting data does churn the disk).
                self.disk_state[i] += thr_noisy * config.window_secs / 1024.0;
                row.write_iops = iops_noisy;
                row.write_throughput = thr_noisy;
                row.disk_mib = self.disk_state[i];
            }
        }

        self.window += 1;
        StepObservation {
            window: t,
            traces,
            rows,
        }
    }
}

/// Per-window, per-component work accumulator.
#[derive(Clone, Copy, Debug, Default)]
struct WindowAccum {
    cpu_ms: f64,
    write_ops: f64,
    write_kib: f64,
    cache_mib: f64,
    mem_mib: f64,
}

fn push(
    series: &mut HashMap<MetricKey, TimeSeries>,
    component: &str,
    resource: ResourceKind,
    value: f64,
) {
    series
        .get_mut(&MetricKey::new(component, resource))
        .expect("series pre-registered")
        .push(value);
}

fn sample_payload(
    spec: &crate::ApiSpec,
    model: &PayloadModel,
    graph: &SocialGraph,
    rng: &mut StdRng,
) -> SampledPayload {
    let media_kib = if spec.carries_media {
        model.sample_media_kib(rng)
    } else {
        0.0
    };
    let text_chars = if spec.carries_text {
        model.sample_text_chars(rng)
    } else {
        0.0
    };
    let fanout = if spec.uses_fanout {
        f64::from(graph.sample_fanout(rng))
    } else {
        0.0
    };
    SampledPayload {
        payload: Payload {
            media_kib,
            text_chars,
            fanout,
        },
        has_url: spec.carries_text && model.sample_has_url(rng),
        has_mention: spec.carries_text && model.sample_has_mention(rng),
        has_media: spec.carries_media && media_kib > 0.0,
    }
}

struct SampledPayload {
    payload: Payload,
    has_url: bool,
    has_mention: bool,
    has_media: bool,
}

/// Walks one request through the invocation tree: accumulates costs and
/// builds the span tree.
fn execute(
    node: &CallNode,
    app: &AppSpec,
    comp_index: &HashMap<&str, usize>,
    sampled: &SampledPayload,
    acc: &mut [WindowAccum],
    interner: &mut Interner,
    rng: &mut StdRng,
) -> SpanNode {
    let idx = comp_index[node.component.as_str()];
    let cost = app
        .cost(&node.component, &node.operation)
        .expect("validated cost")
        .sample(&sampled.payload);
    let a = &mut acc[idx];
    a.cpu_ms += cost.cpu_ms;
    a.write_ops += cost.write_ops;
    a.write_kib += cost.write_kib;
    a.cache_mib += cost.cache_mib;
    a.mem_mib += cost.mem_mib;

    let comp_sym = interner.intern(&node.component);
    let op_sym = interner.intern(&node.operation);
    let mut span = SpanNode::leaf(comp_sym, op_sym);

    for edge in &node.children {
        let fire = match edge.condition {
            Condition::Always => true,
            Condition::Prob(p) => rng.gen_bool(p.clamp(0.0, 1.0)),
            Condition::HasUrl => sampled.has_url,
            Condition::HasMention => sampled.has_mention,
            Condition::HasMedia => sampled.has_media,
        };
        if !fire {
            continue;
        }
        let times = match edge.repeat {
            Repeat::Once => 1,
            Repeat::Fixed(k) => k,
            Repeat::PerFanout { scale, max } => {
                ((sampled.payload.fanout * scale).ceil() as u32).clamp(1, max)
            }
        };
        for _ in 0..times {
            span.children.push(execute(
                &edge.node, app, comp_index, sampled, acc, interner, rng,
            ));
        }
    }
    span
}

/// Poisson sampling: Knuth's method for small rates, a rounded normal
/// approximation for large ones.
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation N(λ, λ).
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (lambda + lambda.sqrt() * z).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn noise_factor(rng: &mut StdRng, magnitude: f64) -> f64 {
    if magnitude <= 0.0 {
        1.0
    } else {
        1.0 + rng.gen_range(-magnitude..magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApiSpec, ComponentSpec, OperationCost};
    use deeprest_workload::WorkloadSpec;

    fn tiny_app() -> AppSpec {
        let mut app = AppSpec::new("tiny");
        for mut c in [
            ComponentSpec::stateless("Frontend"),
            ComponentSpec::stateful("Store"),
        ] {
            c.cpu_baseline_pct = 0.5;
            app.add_component(c);
        }
        app.set_cost("Frontend", "read", OperationCost::cpu(4.0));
        app.set_cost("Frontend", "write", OperationCost::cpu(6.0));
        app.set_cost(
            "Store",
            "insert",
            OperationCost::cpu(3.0)
                .with_writes(2.0, 16.0)
                .with_cache(0.02),
        );
        app.set_cost("Store", "find", OperationCost::cpu(2.0).with_cache(0.05));
        app.add_api(ApiSpec::new(
            "/read",
            0.7,
            CallNode::new("Frontend", "read")
                .child_if(Condition::Prob(0.5), CallNode::new("Store", "find")),
        ));
        app.add_api(ApiSpec::new(
            "/write",
            0.3,
            CallNode::new("Frontend", "write").child(CallNode::new("Store", "insert")),
        ));
        app
    }

    fn tiny_traffic(days: usize) -> ApiTraffic {
        WorkloadSpec::new(120.0, vec![("/read".into(), 0.7), ("/write".into(), 0.3)])
            .with_days(days)
            .with_windows_per_day(24)
            .generate()
    }

    #[test]
    fn produces_aligned_traces_and_metrics() {
        let out = simulate(&tiny_app(), &tiny_traffic(1), &SimConfig::default());
        assert_eq!(out.traces.len(), 24);
        assert_eq!(out.metrics.window_count(), Some(24));
        // 1 stateless (2 resources) + 1 stateful (5) = 7 series.
        assert_eq!(out.metrics.len(), 7);
        assert!(out.traces.trace_count() > 100);
    }

    #[test]
    fn determinism_per_seed() {
        let a = simulate(&tiny_app(), &tiny_traffic(1), &SimConfig::default());
        let b = simulate(&tiny_app(), &tiny_traffic(1), &SimConfig::default());
        assert_eq!(
            a.metrics
                .get_parts("Store", ResourceKind::Cpu)
                .unwrap()
                .values(),
            b.metrics
                .get_parts("Store", ResourceKind::Cpu)
                .unwrap()
                .values()
        );
        assert_eq!(a.traces.trace_count(), b.traces.trace_count());
        let c = simulate(
            &tiny_app(),
            &tiny_traffic(1),
            &SimConfig::default().with_seed(7),
        );
        assert_ne!(
            a.metrics
                .get_parts("Store", ResourceKind::Cpu)
                .unwrap()
                .values(),
            c.metrics
                .get_parts("Store", ResourceKind::Cpu)
                .unwrap()
                .values()
        );
    }

    #[test]
    fn cpu_tracks_traffic_intensity() {
        let out = simulate(&tiny_app(), &tiny_traffic(1), &SimConfig::default());
        let cpu = out
            .metrics
            .get_parts("Frontend", ResourceKind::Cpu)
            .unwrap();
        let traffic = tiny_traffic(1).total_series();
        // Peak window CPU should exceed trough CPU substantially.
        let peak_w = (0..24)
            .max_by(|&a, &b| traffic.get(a).partial_cmp(&traffic.get(b)).unwrap())
            .unwrap();
        let trough_w = (0..24)
            .min_by(|&a, &b| traffic.get(a).partial_cmp(&traffic.get(b)).unwrap())
            .unwrap();
        assert!(cpu.get(peak_w) > 1.5 * cpu.get(trough_w));
    }

    #[test]
    fn disk_usage_is_monotone() {
        let out = simulate(&tiny_app(), &tiny_traffic(2), &SimConfig::default());
        let disk = out
            .metrics
            .get_parts("Store", ResourceKind::DiskUsage)
            .unwrap();
        assert!(disk.values().windows(2).all(|w| w[1] >= w[0]));
        assert!(disk.get(disk.len() - 1) > disk.get(0));
    }

    #[test]
    fn only_write_api_drives_store_writes() {
        // Traffic with zero /write requests → (almost) no IOps on the store.
        let read_only = WorkloadSpec::new(120.0, vec![("/read".into(), 1.0)])
            .with_days(1)
            .with_windows_per_day(24)
            .generate();
        let out = simulate(&tiny_app(), &read_only, &SimConfig::default());
        let iops = out
            .metrics
            .get_parts("Store", ResourceKind::WriteIops)
            .unwrap();
        assert!(iops.max() < 1e-9, "read-only traffic must not write");
    }

    #[test]
    fn traces_reflect_invocation_structure() {
        let out = simulate(&tiny_app(), &tiny_traffic(1), &SimConfig::default());
        let mut write_traces = 0;
        for tr in out.traces.iter_all() {
            let api = out.interner.resolve(tr.api);
            if api == "/write" {
                write_traces += 1;
                // /write always has exactly the 2-node chain.
                assert_eq!(tr.span_count(), 2);
            } else {
                assert!(tr.span_count() <= 2);
            }
        }
        assert!(write_traces > 0);
    }

    #[test]
    fn superlinear_cpu_under_heavy_load() {
        let app = tiny_app();
        let base = tiny_traffic(1);
        let heavy = base.scale(6.0);
        let cfg = SimConfig::default();
        let out1 = simulate(&app, &base, &cfg);
        let out6 = simulate(&app, &heavy, &cfg);
        let cpu1 = out1
            .metrics
            .get_parts("Frontend", ResourceKind::Cpu)
            .unwrap()
            .mean();
        let cpu6 = out6
            .metrics
            .get_parts("Frontend", ResourceKind::Cpu)
            .unwrap()
            .mean();
        // Queueing amplification: 6x traffic → clearly more than 6x CPU
        // above baseline would exceed 100%, so check the amplified ratio on
        // the un-clamped region instead: mean CPU grows more than linearly
        // relative to the busy fraction at low load.
        let busy1 = cpu1 - 1.5;
        let busy6 = cpu6 - 1.5;
        assert!(busy6 > 6.0 * busy1 * 0.9, "busy1={busy1} busy6={busy6}");
    }

    #[test]
    fn stepper_matches_batch_simulation_at_one_replica() {
        let app = tiny_app();
        let traffic = tiny_traffic(1);
        let cfg = SimConfig::default();
        let batch = simulate(&app, &traffic, &cfg);

        let mut stepper = SimStepper::new(&app, traffic.apis(), &cfg);
        let mut cpu = Vec::new();
        let mut trace_count = 0usize;
        for t in 0..traffic.window_count() {
            let obs = stepper.step(traffic.window(t), &[]);
            cpu.push(obs.rows[1].cpu_pct);
            trace_count += obs.traces.len();
        }
        assert_eq!(
            cpu,
            batch
                .metrics
                .get_parts("Store", ResourceKind::Cpu)
                .unwrap()
                .values()
        );
        assert_eq!(trace_count, batch.traces.trace_count());
    }

    #[test]
    fn replicas_spread_cpu_and_multiply_memory() {
        let app = tiny_app();
        let traffic = tiny_traffic(1);
        // Noise off so the capacity arithmetic is exact.
        let cfg = SimConfig {
            noise: 0.0,
            scale_lag_windows: 0,
            ..SimConfig::default()
        };

        let run = |replicas: u32| {
            let mut s = SimStepper::new(&app, traffic.apis(), &cfg);
            s.set_target_replicas(0, replicas);
            let mut rows = Vec::new();
            for t in 0..traffic.window_count() {
                rows.push(obs_row(&mut s.step(traffic.window(t), &[]), 0));
            }
            rows
        };
        let one = run(1);
        let three = run(3);
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(b.replicas, 3);
            // Same sampled work (RNG invariance) spread over 3x capacity.
            assert!(b.saturation < a.saturation);
            // Memory baseline is provisioned per replica.
            assert!(b.mem_mib > a.mem_mib);
        }
    }

    #[test]
    fn scale_up_lags_and_scale_down_is_immediate() {
        let app = tiny_app();
        let traffic = tiny_traffic(1);
        let cfg = SimConfig {
            scale_lag_windows: 2,
            ..SimConfig::default()
        };
        let mut s = SimStepper::new(&app, traffic.apis(), &cfg);

        s.set_target_replicas(0, 4);
        let r0 = s.step(traffic.window(0), &[]).rows[0].replicas;
        let r1 = s.step(traffic.window(1), &[]).rows[0].replicas;
        let r2 = s.step(traffic.window(2), &[]).rows[0].replicas;
        assert_eq!((r0, r1, r2), (1, 1, 4), "scale-up waits out the lag");

        s.set_target_replicas(0, 2);
        let r3 = s.step(traffic.window(3), &[]).rows[0].replicas;
        assert_eq!(r3, 2, "scale-down applies at the next step");
    }

    #[test]
    fn replica_targets_are_clamped_to_spec_bounds() {
        let app = tiny_app(); // Stateless max 8, stateful max 3.
        let traffic = tiny_traffic(1);
        let mut s = SimStepper::new(&app, traffic.apis(), &SimConfig::default());
        s.set_target_replicas(0, 100);
        s.set_target_replicas(1, 100);
        assert_eq!(s.target_replicas, [8, 3]);
        s.set_target_replicas(0, 0);
        assert_eq!(s.target_replicas[0], 1);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let app = tiny_app();
        let traffic = tiny_traffic(1);
        let cfg = SimConfig::default();

        let mut full = SimStepper::new(&app, traffic.apis(), &cfg);
        full.set_target_replicas(0, 2);
        let mut expected = Vec::new();
        for t in 0..24 {
            let obs = full.step(traffic.window(t), &[]);
            expected.push((obs.rows[0].cpu_pct, obs.rows[1].disk_mib, obs.traces.len()));
        }

        let mut first = SimStepper::new(&app, traffic.apis(), &cfg);
        first.set_target_replicas(0, 2);
        for t in 0..12 {
            first.step(traffic.window(t), &[]);
        }
        let state = first.checkpoint();
        // Round-trip through serialization like a real checkpoint file.
        let json = serde_json::to_string(&state).unwrap();
        let state: SimStepperState = serde_json::from_str(&json).unwrap();
        let mut resumed = SimStepper::restore(&app, traffic.apis(), &cfg, state).unwrap();
        assert_eq!(resumed.window, 12);
        for (t, want) in expected.iter().enumerate().skip(12) {
            let obs = resumed.step(traffic.window(t), &[]);
            assert_eq!(
                (obs.rows[0].cpu_pct, obs.rows[1].disk_mib, obs.traces.len()),
                *want,
                "window {t} diverged after restore"
            );
        }
    }

    #[test]
    fn scaling_decisions_do_not_perturb_the_request_stream() {
        let app = tiny_app();
        let traffic = tiny_traffic(1);
        let cfg = SimConfig::default();

        let mut plain = SimStepper::new(&app, traffic.apis(), &cfg);
        let mut scaled = SimStepper::new(&app, traffic.apis(), &cfg);
        for t in 0..24 {
            // Aggressively flap replicas on one stepper only.
            scaled.set_target_replicas(0, 1 + (t as u32 % 4));
            let a = plain.step(traffic.window(t), &[]);
            let b = scaled.step(traffic.window(t), &[]);
            assert_eq!(
                a.traces.len(),
                b.traces.len(),
                "replica changes must not consume RNG draws"
            );
        }
    }

    fn obs_row(obs: &mut StepObservation, i: usize) -> ComponentRow {
        obs.rows[i]
    }

    #[test]
    fn provision_cost_scales_with_replicas() {
        let spec = ComponentSpec::stateless("Svc").with_cores(2.0);
        let one = crate::window_cost(&spec, 1, 3600.0);
        let four = crate::window_cost(&spec, 4, 3600.0);
        assert!(one > 0.0);
        assert!((four - 4.0 * one).abs() < 1e-12);
    }

    #[test]
    fn poisson_sampler_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(1);
        for &lambda in &[0.5, 5.0, 50.0] {
            let n = 4_000;
            let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda {lambda} mean {mean}"
            );
        }
    }
}
