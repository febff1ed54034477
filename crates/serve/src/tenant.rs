//! Multi-tenant admission control and serving.
//!
//! A [`TenantRegistry`] fronts one serving process for many tenant
//! applications. Each tenant gets its own [`BoundedQueue`], a
//! [`PriorityClass`], and per-round admission quotas (arrivals and
//! estimated bytes); a deterministic deficit-round-robin
//! [`FairScheduler`] drains the queues into
//! the per-tenant pipelines in a reproducible order, and an
//! [`OverloadController`] walks the degradation ladder when the aggregate
//! backlog grows (see [`crate::overload`] for the ladder).
//!
//! # Isolation guarantee
//!
//! A tenant that stays within its quotas is *isolated* from every other
//! tenant's behavior: its arrivals enter its own FIFO queue, the DRR
//! scheduler guarantees it service every round regardless of other
//! tenants' backlogs, shedding only ever touches tenants above their own
//! watermark, and windows seal on each pipeline's *event-time* watermark —
//! so delayed draining (a stalled or budget-truncated round) delays
//! outputs but never changes a single bit of them. The `chaos_tenant`
//! suite proves this end to end: with one tenant flooded at 10× through
//! the `tenant.flood` fault probe, every other tenant's per-window
//! estimates are bit-identical to a flood-free run.
//!
//! # Fault probes
//!
//! * `tenant.flood` — amplifies a submission 10×; the payload selects the
//!   flooded tenant index ([`deeprest_fault::PAYLOAD_ALL`] floods all).
//! * `sched.stall` — caps one round's processing budget at the payload
//!   (0 items under `PAYLOAD_ALL`), modeling budget exhaustion; work is
//!   conserved and drained on later rounds.

use deeprest_core::DeepRest;
use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;
use serde::{Deserialize, Serialize};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::overload::{
    BreakerPhase, BreakerState, CircuitBreaker, OverloadConfig, OverloadController, OverloadLevel,
};
use crate::pipeline::{Checkpoint, Pipeline, WindowOutput};
use crate::queue::{Accepted, BoundedQueue, OverflowPolicy, PushRejected, QueueSnapshot};
use crate::sched::{FairScheduler, RoundPlan, SchedConfig, SchedState};

/// Index of a tenant within its registry (assigned by
/// [`TenantRegistry::add_tenant`], dense from 0).
pub type TenantId = usize;

/// How many copies of each submission the `tenant.flood` probe injects
/// (the flooded tenant arrives at this multiple of its real rate).
pub const FLOOD_AMPLIFICATION: u64 = 10;

/// Rough serialized size of one span, used to convert span counts into
/// the byte quota's units without serializing every arrival.
pub const EST_SPAN_BYTES: u64 = 96;

/// Scheduling cost of one arrival, in cost units (spans, minimum 1).
pub fn arrival_cost(arrival: &TimestampedTrace) -> u64 {
    (arrival.trace.span_count() as u64).max(1)
}

/// Estimated wire size of one arrival, for the byte quota.
pub fn arrival_bytes(arrival: &TimestampedTrace) -> u64 {
    arrival_cost(arrival) * EST_SPAN_BYTES
}

/// Scheduling priority of a tenant. Higher classes get proportionally
/// more DRR quantum and are shed last.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityClass {
    /// Interactive, user-facing: 4× quantum, shed last.
    Critical,
    /// The default: 2× quantum.
    #[default]
    Standard,
    /// Batch/backfill: 1× quantum, shed first.
    BestEffort,
}

impl PriorityClass {
    /// DRR quantum multiplier.
    pub fn weight(self) -> u64 {
        match self {
            PriorityClass::Critical => 4,
            PriorityClass::Standard => 2,
            PriorityClass::BestEffort => 1,
        }
    }

    /// Shed order: lower ranks are shed first.
    pub fn shed_rank(self) -> u8 {
        match self {
            PriorityClass::BestEffort => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Critical => 2,
        }
    }
}

/// Per-tenant admission configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Tenant name (used in telemetry counter names).
    pub name: String,
    /// Scheduling priority.
    pub priority: PriorityClass,
    /// Capacity of the tenant's bounded ingest queue.
    pub queue_capacity: usize,
    /// Queue overflow policy. The default is [`OverflowPolicy::DropOldest`]:
    /// under overload a tenant's own oldest (latest-arriving-window) items
    /// are displaced, counted, never another tenant's.
    pub overflow: OverflowPolicy,
    /// Max arrivals admitted per scheduling round; `0` means unlimited.
    pub window_quota: u32,
    /// Max estimated bytes ([`arrival_bytes`]) admitted per scheduling
    /// round; `0` means unlimited.
    pub byte_quota: u64,
}

impl TenantConfig {
    /// A standard-priority tenant with a 256-arrival queue and no quotas.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            priority: PriorityClass::Standard,
            queue_capacity: 256,
            overflow: OverflowPolicy::DropOldest,
            window_quota: 0,
            byte_quota: 0,
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the ingest-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the queue overflow policy.
    #[must_use]
    pub fn with_overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Sets the per-round arrival quota (`0` = unlimited).
    #[must_use]
    pub fn with_window_quota(mut self, arrivals: u32) -> Self {
        self.window_quota = arrivals;
        self
    }

    /// Sets the per-round byte quota (`0` = unlimited).
    #[must_use]
    pub fn with_byte_quota(mut self, bytes: u64) -> Self {
        self.byte_quota = bytes;
        self
    }
}

/// Why a submission was rejected. The arrival is handed back in every
/// variant — admission control never silently consumes work.
#[derive(Debug)]
pub enum AdmitRejected {
    /// The tenant's per-round arrival quota is exhausted
    /// (`serve.tenant.rejected.window_quota`).
    WindowQuota(TimestampedTrace),
    /// The tenant's per-round byte quota is exhausted
    /// (`serve.tenant.rejected.byte_quota`).
    ByteQuota(TimestampedTrace),
    /// The tenant's circuit breaker is open
    /// (`serve.tenant.rejected.breaker`).
    Breaker {
        /// The rejected arrival.
        trace: TimestampedTrace,
        /// Scheduling round at which the breaker starts probing again.
        reopen_round: u64,
    },
    /// The tenant's queue is full under [`OverflowPolicy::Block`]
    /// (admission is non-blocking; this is backpressure, not a drop).
    QueueFull(TimestampedTrace),
    /// The tenant's queue has been closed.
    QueueClosed(TimestampedTrace),
}

impl AdmitRejected {
    /// Recovers the rejected arrival.
    pub fn into_trace(self) -> TimestampedTrace {
        match self {
            AdmitRejected::WindowQuota(t)
            | AdmitRejected::ByteQuota(t)
            | AdmitRejected::QueueFull(t)
            | AdmitRejected::QueueClosed(t)
            | AdmitRejected::Breaker { trace: t, .. } => t,
        }
    }

    /// Short reason tag (the telemetry suffix).
    pub fn reason(&self) -> &'static str {
        match self {
            AdmitRejected::WindowQuota(_) => "window_quota",
            AdmitRejected::ByteQuota(_) => "byte_quota",
            AdmitRejected::Breaker { .. } => "breaker",
            AdmitRejected::QueueFull(_) => "queue_full",
            AdmitRejected::QueueClosed(_) => "queue_closed",
        }
    }
}

/// Cumulative per-tenant accounting; every admission outcome and every
/// shed is counted here (and mirrored to telemetry), never silent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Arrivals admitted into the queue.
    pub admitted: u64,
    /// Rejections: per-round arrival quota.
    pub rejected_window_quota: u64,
    /// Rejections: per-round byte quota.
    pub rejected_byte_quota: u64,
    /// Rejections: open circuit breaker.
    pub rejected_breaker: u64,
    /// Rejections: queue full (Block policy) or closed.
    pub rejected_queue: u64,
    /// Arrivals shed by the overload ladder's rung 1.
    pub shed: u64,
    /// Windows emitted by this tenant's pipeline.
    pub windows: u64,
}

/// One window of output, tagged with the tenant that produced it.
#[derive(Clone, Debug)]
pub struct TenantOutput {
    /// Producing tenant.
    pub tenant: TenantId,
    /// The window's estimates/scores/alerts.
    pub output: WindowOutput,
}

/// A pipeline failure contained to one tenant (the round keeps serving
/// the others).
#[derive(Clone, Debug)]
pub struct TenantError {
    /// Failing tenant.
    pub tenant: TenantId,
    /// The contained failure.
    pub error: ServeError,
}

/// What one scheduling round did.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Index of the round that ran.
    pub round: u64,
    /// Ladder rung in effect during the round.
    pub level: OverloadLevel,
    /// Window outputs in drain order.
    pub outputs: Vec<TenantOutput>,
    /// Arrivals drained into pipelines.
    pub drained: u64,
    /// Arrivals shed by rung 1 this round.
    pub shed: u64,
    /// Whether the processing budget ran out with arrivals still queued.
    pub stalled: bool,
    /// Failures contained to single tenants.
    pub errors: Vec<TenantError>,
}

/// End-of-stream drain result.
#[derive(Debug, Default)]
pub struct FlushOutcome {
    /// Window outputs (queue drain rounds, then per-tenant flush in
    /// tenant-id order).
    pub outputs: Vec<TenantOutput>,
    /// Failures contained to single tenants.
    pub errors: Vec<TenantError>,
}

/// A queued arrival with its scheduling cost, computed once at admission
/// so the per-round cost snapshot never re-walks a buffered span tree.
struct Queued {
    arrival: TimestampedTrace,
    cost: u64,
}

struct Tenant<'m> {
    config: TenantConfig,
    /// Owned exclusively by the registry: no lock, no condvar.
    queue: BoundedQueue<Queued>,
    pipeline: Pipeline<'m>,
    breaker: CircuitBreaker,
    stats: TenantStats,
    /// An arrival whose ingest failed transiently without being consumed
    /// ([`ServeError::Ingest`]); retried before the queue next round.
    retry: Option<TimestampedTrace>,
    round_arrivals: u32,
    round_bytes: u64,
    round_over_quota: bool,
}

impl Tenant<'_> {
    fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.retry.is_some())
    }
}

/// Serializable state of one tenant inside a [`MultiTenantCheckpoint`].
#[derive(Serialize, Deserialize)]
pub struct TenantCheckpoint {
    /// Admission configuration.
    pub config: TenantConfig,
    /// The tenant pipeline's serving configuration.
    pub serve: ServeConfig,
    /// The tenant pipeline's full streaming state.
    pub pipeline: Checkpoint,
    /// Queued arrivals and drop counters.
    pub queue: QueueSnapshot<TimestampedTrace>,
    /// Pending ingest retry, if any.
    #[serde(default)]
    pub retry: Option<TimestampedTrace>,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Cumulative accounting.
    pub stats: TenantStats,
    /// Arrivals admitted in the current (not yet run) round.
    pub round_arrivals: u32,
    /// Bytes admitted in the current round.
    pub round_bytes: u64,
    /// Whether the current round has seen a quota rejection.
    pub round_over_quota: bool,
}

/// The full multi-tenant front-end state: every tenant (pipeline, queue,
/// breaker, stats) plus scheduler deficits and the ladder rung. Persisted
/// bit-exactly through the CRC-framed [`crate::CheckpointStore`].
#[derive(Serialize, Deserialize)]
pub struct MultiTenantCheckpoint {
    /// Per-tenant state, in tenant-id order.
    pub tenants: Vec<TenantCheckpoint>,
    /// Scheduler deficits and round counter.
    pub sched: SchedState,
    /// Current degradation-ladder rung.
    pub level: OverloadLevel,
}

impl MultiTenantCheckpoint {
    /// Serializes to JSON (the payload the CRC-framed store persists).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failure (practically impossible for this
    /// type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse failure when `json` is not a serialized
    /// [`MultiTenantCheckpoint`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Multi-tenant serving front end: per-tenant bounded queues and quotas,
/// deterministic DRR fair scheduling, and graceful degradation under
/// overload (see the module docs).
///
/// The registry is single-consumer by construction: [`submit`] feeds
/// queues (cheap, callable from ingest threads via external
/// synchronization), and [`run_round`] — the only method that touches
/// pipelines — drains them in DRR order. All scheduling state advances in
/// round counters, so a run replays bit-identically at any thread count.
///
/// [`submit`]: TenantRegistry::submit
/// [`run_round`]: TenantRegistry::run_round
pub struct TenantRegistry<'m> {
    tenants: Vec<Tenant<'m>>,
    sched: FairScheduler,
    overload: OverloadController,
    hook: Option<Box<dyn FnMut(OverloadLevel) + Send>>,
    /// DRR weights in tenant-id order (priority classes are fixed at
    /// registration, so this is computed once, not per round).
    weights: Vec<u64>,
    /// Per-round cost snapshot buffers, reused across rounds so the hot
    /// path performs no steady-state allocation.
    cost_scratch: Vec<Vec<u64>>,
    /// Reused round-plan buffers (same motivation as `cost_scratch`).
    plan_scratch: RoundPlan,
    /// Reused per-tenant skip flags for the drain loop.
    skip_scratch: Vec<bool>,
}

impl<'m> TenantRegistry<'m> {
    /// Creates an empty registry.
    pub fn new(sched: SchedConfig, overload: OverloadConfig) -> Self {
        Self {
            tenants: Vec::new(),
            sched: FairScheduler::new(sched),
            overload: OverloadController::new(overload),
            hook: None,
            weights: Vec::new(),
            cost_scratch: Vec::new(),
            plan_scratch: RoundPlan::default(),
            skip_scratch: Vec::new(),
        }
    }

    /// Registers a tenant application backed by its own trained `model`
    /// and name table, returning its dense [`TenantId`].
    pub fn add_tenant(
        &mut self,
        model: &'m DeepRest,
        source: &Interner,
        serve: ServeConfig,
        config: TenantConfig,
    ) -> TenantId {
        let id = self.sched.register_tenant();
        self.weights.push(config.priority.weight());
        self.tenants.push(Tenant {
            queue: BoundedQueue::new(config.queue_capacity.max(1), config.overflow),
            pipeline: Pipeline::new(model, source, serve),
            breaker: CircuitBreaker::new(self.overload.config().breaker),
            stats: TenantStats::default(),
            retry: None,
            round_arrivals: 0,
            round_bytes: 0,
            round_over_quota: false,
            config,
        });
        id
    }

    /// Registers a hook fired on every degradation-ladder transition —
    /// the integration point for suspending/resuming `AdaptivePipeline`
    /// updates (rung 2): suspend at [`OverloadLevel::Frozen`], resume
    /// below it.
    pub fn set_overload_hook(&mut self, hook: impl FnMut(OverloadLevel) + Send + 'static) {
        self.hook = Some(Box::new(hook));
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The current degradation-ladder rung.
    pub fn overload_level(&self) -> OverloadLevel {
        self.overload.level()
    }

    /// Index of the upcoming scheduling round.
    pub fn round(&self) -> u64 {
        self.sched.round()
    }

    /// Cumulative accounting for tenant `t`.
    pub fn stats(&self, t: TenantId) -> &TenantStats {
        &self.tenants[t].stats
    }

    /// Tenant `t`'s circuit-breaker phase.
    pub fn breaker_phase(&self, t: TenantId) -> BreakerPhase {
        self.tenants[t].breaker.phase()
    }

    /// Tenant `t`'s current queue depth (including a pending retry).
    pub fn queue_depth(&self, t: TenantId) -> usize {
        self.tenants[t].depth()
    }

    /// Tenant `t`'s serving pipeline (read-only).
    pub fn pipeline(&self, t: TenantId) -> &Pipeline<'m> {
        &self.tenants[t].pipeline
    }

    /// Tenant `t`'s admission configuration.
    pub fn tenant_config(&self, t: TenantId) -> &TenantConfig {
        &self.tenants[t].config
    }

    /// Submits one arrival for tenant `t`, applying admission control:
    /// circuit breaker, per-round quotas, then the tenant's bounded queue.
    /// Rejections hand the arrival back and are always counted.
    ///
    /// The `tenant.flood` fault probe amplifies the submission
    /// [`FLOOD_AMPLIFICATION`]× when armed for this tenant (chaos testing
    /// of the overload ladder).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a registered tenant.
    pub fn submit(
        &mut self,
        t: TenantId,
        arrival: TimestampedTrace,
    ) -> Result<Accepted, AdmitRejected> {
        let flood = fault::armed("tenant.flood")
            .filter(|&p| p == fault::PAYLOAD_ALL || p == t as u64)
            .map(|_| arrival.clone());
        let result = self.admit(t, arrival);
        if let Some(copy) = flood {
            if telemetry::enabled() {
                telemetry::counter("serve.tenant.flood.injected", FLOOD_AMPLIFICATION - 1);
            }
            for _ in 1..FLOOD_AMPLIFICATION {
                let _ = self.admit(t, copy.clone());
            }
        }
        result
    }

    fn admit(&mut self, t: TenantId, arrival: TimestampedTrace) -> Result<Accepted, AdmitRejected> {
        let round = self.sched.round();
        let tenant = &mut self.tenants[t];
        if !tenant.breaker.admits(round, &tenant.config.name) {
            tenant.stats.rejected_breaker += 1;
            count_rejection(&tenant.config.name, "breaker");
            return Err(AdmitRejected::Breaker {
                trace: arrival,
                reopen_round: tenant.breaker.reopen_round(),
            });
        }
        if tenant.config.window_quota > 0 && tenant.round_arrivals >= tenant.config.window_quota {
            tenant.stats.rejected_window_quota += 1;
            tenant.round_over_quota = true;
            count_rejection(&tenant.config.name, "window_quota");
            return Err(AdmitRejected::WindowQuota(arrival));
        }
        let cost = arrival_cost(&arrival);
        let bytes = cost * EST_SPAN_BYTES;
        if tenant.config.byte_quota > 0 && tenant.round_bytes + bytes > tenant.config.byte_quota {
            tenant.stats.rejected_byte_quota += 1;
            tenant.round_over_quota = true;
            count_rejection(&tenant.config.name, "byte_quota");
            return Err(AdmitRejected::ByteQuota(arrival));
        }
        match tenant.queue.try_push(Queued { arrival, cost }) {
            Ok(accepted) => {
                tenant.round_arrivals += 1;
                tenant.round_bytes += bytes;
                tenant.stats.admitted += 1;
                if telemetry::enabled() {
                    telemetry::counter("serve.tenant.admitted", 1);
                    telemetry::counter(format!("serve.tenant.{}.admitted", tenant.config.name), 1);
                }
                Ok(accepted)
            }
            Err(PushRejected::Full(back)) => {
                tenant.stats.rejected_queue += 1;
                count_rejection(&tenant.config.name, "queue_full");
                Err(AdmitRejected::QueueFull(back.arrival))
            }
            Err(PushRejected::Closed(back)) => {
                tenant.stats.rejected_queue += 1;
                count_rejection(&tenant.config.name, "queue_closed");
                Err(AdmitRejected::QueueClosed(back.arrival))
            }
        }
    }

    /// Runs one scheduling round: re-evaluates the overload ladder, sheds
    /// over-watermark tenants if at rung 1+, then drains queues in DRR
    /// order into the per-tenant pipelines. Pipeline failures are
    /// contained to their tenant and reported in the outcome; the round
    /// keeps serving everyone else.
    pub fn run_round(&mut self) -> RoundOutcome {
        let round = self.sched.round();
        let mut outcome = RoundOutcome {
            round,
            ..RoundOutcome::default()
        };

        // 1. Ladder.
        let depth: usize = self.tenants.iter().map(Tenant::depth).sum();
        let previous = self.overload.level();
        let level = self.overload.observe(depth);
        if level != previous {
            if let Some(hook) = &mut self.hook {
                hook(level);
            }
        }
        outcome.level = level;

        // 2. Rung 1: shed over-watermark tenants, lowest priority first.
        if level >= OverloadLevel::Shed {
            outcome.shed = self.shed();
        }

        // 3. Processing budget, possibly shrunk by the stall probe.
        let mut budget = None;
        if let Some(payload) = fault::armed("sched.stall") {
            let cap = if payload == fault::PAYLOAD_ALL {
                0
            } else {
                payload
            };
            let configured = self.sched.config().round_budget;
            budget = Some(if configured > 0 {
                configured.min(cap)
            } else {
                cap
            });
        }

        // 4. Plan the round from a snapshot of queued costs (into buffers
        // reused across rounds).
        let mut costs = std::mem::take(&mut self.cost_scratch);
        costs.resize_with(self.tenants.len(), Vec::new);
        for (c, tenant) in costs.iter_mut().zip(self.tenants.iter()) {
            c.clear();
            if let Some(r) = &tenant.retry {
                c.push(arrival_cost(r));
            }
            c.extend(tenant.queue.iter().map(|q| q.cost));
        }
        let mut plan = std::mem::take(&mut self.plan_scratch);
        self.sched
            .plan_round_into(&costs, &self.weights, budget, &mut plan);
        self.cost_scratch = costs;
        outcome.stalled = plan.stalled;

        // 5. Execute the plan in order. A failing tenant is skipped for
        // the rest of the round (its remaining arrivals stay queued).
        let mut skipped = std::mem::take(&mut self.skip_scratch);
        skipped.clear();
        skipped.resize(self.tenants.len(), false);
        for &t in &plan.order {
            if skipped[t] {
                continue;
            }
            let tenant = &mut self.tenants[t];
            let retry = tenant.retry.take();
            let Some(arrival) = retry.or_else(|| tenant.queue.try_pop().map(|q| q.arrival)) else {
                continue;
            };
            // Under fault injection an ingest can fail without consuming
            // the arrival; keep a copy to retry it verbatim. Without a
            // fault plan installed this clone never happens.
            let backup = fault::enabled().then(|| arrival.clone());
            match tenant.pipeline.ingest(arrival) {
                Ok(outputs) => {
                    outcome.drained += 1;
                    tenant.stats.windows += outputs.len() as u64;
                    outcome.outputs.extend(
                        outputs
                            .into_iter()
                            .map(|output| TenantOutput { tenant: t, output }),
                    );
                }
                Err(error) => {
                    // Only the transient fault leaves an arrival worth
                    // offering again. A refused one
                    // (`ServeError::UnknownSymbol`) would be refused every
                    // round, so it is drained like one whose window parked.
                    if matches!(error, ServeError::Ingest(_)) {
                        tenant.retry = backup;
                    } else {
                        outcome.drained += 1;
                    }
                    skipped[t] = true;
                    outcome.errors.push(TenantError { tenant: t, error });
                }
            }
        }

        // 6. End of round: breaker verdicts, per-round quota reset,
        // per-tenant gauges.
        for tenant in &mut self.tenants {
            tenant
                .breaker
                .note_round(round, tenant.round_over_quota, &tenant.config.name);
            tenant.round_arrivals = 0;
            tenant.round_bytes = 0;
            tenant.round_over_quota = false;
            if telemetry::enabled() {
                telemetry::gauge(
                    format!("serve.tenant.{}.depth", tenant.config.name),
                    tenant.depth() as f64,
                );
            }
        }
        if telemetry::enabled() {
            telemetry::counter("serve.sched.rounds", 1);
            if outcome.stalled {
                telemetry::counter("serve.sched.stalled", 1);
            }
        }
        self.plan_scratch = plan;
        self.skip_scratch = skipped;
        outcome
    }

    fn shed(&mut self) -> u64 {
        let watermark = self.overload.config().shed_watermark;
        let mut order: Vec<TenantId> = (0..self.tenants.len()).collect();
        order.sort_by_key(|&t| (self.tenants[t].config.priority.shed_rank(), t));
        let mut shed = 0u64;
        for t in order {
            let tenant = &mut self.tenants[t];
            let keep = ((tenant.config.queue_capacity as f64) * watermark).floor() as usize;
            while tenant.queue.len() > keep {
                if tenant.queue.try_pop().is_none() {
                    break;
                }
                tenant.stats.shed += 1;
                shed += 1;
                if telemetry::enabled() {
                    telemetry::counter("serve.overload.shed", 1);
                    telemetry::counter(format!("serve.tenant.{}.shed", tenant.config.name), 1);
                }
            }
        }
        shed
    }

    /// Drains every queue (respecting DRR order and active fault probes),
    /// then flushes every pipeline in tenant-id order. Ends the stream:
    /// call once, at the end of input.
    pub fn flush(&mut self) -> FlushOutcome {
        let mut outcome = FlushOutcome::default();
        loop {
            let queued: usize = self.tenants.iter().map(Tenant::depth).sum();
            if queued == 0 {
                break;
            }
            let round = self.run_round();
            let progressed = round.drained > 0 || round.shed > 0;
            outcome.outputs.extend(round.outputs);
            outcome.errors.extend(round.errors);
            if !progressed {
                // A permanently stalled round (persistent fault) must not
                // spin; the backlog stays queued and checkpointable.
                break;
            }
        }
        for t in 0..self.tenants.len() {
            let tenant = &mut self.tenants[t];
            match tenant.pipeline.flush() {
                Ok(outputs) => {
                    tenant.stats.windows += outputs.len() as u64;
                    outcome.outputs.extend(
                        outputs
                            .into_iter()
                            .map(|output| TenantOutput { tenant: t, output }),
                    );
                }
                Err(error) => outcome.errors.push(TenantError { tenant: t, error }),
            }
        }
        outcome
    }

    /// Captures the full front-end state — every tenant's pipeline, queued
    /// arrivals, breaker and stats, plus scheduler deficits and the ladder
    /// rung — for bit-exact resume via [`TenantRegistry::restore`].
    pub fn checkpoint(&self) -> MultiTenantCheckpoint {
        MultiTenantCheckpoint {
            tenants: self
                .tenants
                .iter()
                .map(|tenant| TenantCheckpoint {
                    config: tenant.config.clone(),
                    serve: *tenant.pipeline.config(),
                    pipeline: tenant.pipeline.checkpoint(),
                    queue: tenant.queue.snapshot_with(|q| q.arrival.clone()),
                    retry: tenant.retry.clone(),
                    breaker: tenant.breaker.state(),
                    stats: tenant.stats,
                    round_arrivals: tenant.round_arrivals,
                    round_bytes: tenant.round_bytes,
                    round_over_quota: tenant.round_over_quota,
                })
                .collect(),
            sched: self.sched.state(),
            level: self.overload.level(),
        }
    }

    /// Rebuilds a registry from a checkpoint. `models` supplies each
    /// tenant's trained model and name table in tenant-id order (models
    /// are not part of the checkpoint, mirroring
    /// [`Pipeline::restore`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Restore`] when `models` disagrees with the
    /// checkpoint's tenant count or any pipeline state disagrees with its
    /// model.
    pub fn restore(
        models: Vec<(&'m DeepRest, &Interner)>,
        sched: SchedConfig,
        overload: OverloadConfig,
        checkpoint: MultiTenantCheckpoint,
    ) -> Result<Self, ServeError> {
        if models.len() != checkpoint.tenants.len() {
            return Err(ServeError::Restore(format!(
                "checkpoint has {} tenants but {} models were supplied",
                checkpoint.tenants.len(),
                models.len()
            )));
        }
        if checkpoint.sched.deficits.len() != checkpoint.tenants.len() {
            return Err(ServeError::Restore(format!(
                "checkpoint has {} tenants but {} scheduler deficits",
                checkpoint.tenants.len(),
                checkpoint.sched.deficits.len()
            )));
        }
        let breaker_config = overload.breaker;
        let mut tenants = Vec::with_capacity(checkpoint.tenants.len());
        for ((model, source), tc) in models.into_iter().zip(checkpoint.tenants) {
            let pipeline = Pipeline::restore(model, source, tc.serve, tc.pipeline)
                .map_err(ServeError::Restore)?;
            // Costs are derived state: recomputed from the restored arrivals
            // rather than persisted.
            let queue = BoundedQueue::from_snapshot_with(
                tc.config.queue_capacity.max(1),
                tc.config.overflow,
                tc.queue,
                |arrival| Queued {
                    cost: arrival_cost(&arrival),
                    arrival,
                },
            );
            tenants.push(Tenant {
                queue,
                pipeline,
                breaker: CircuitBreaker::restore(breaker_config, tc.breaker),
                stats: tc.stats,
                retry: tc.retry,
                round_arrivals: tc.round_arrivals,
                round_bytes: tc.round_bytes,
                round_over_quota: tc.round_over_quota,
                config: tc.config,
            });
        }
        let weights: Vec<u64> = tenants
            .iter()
            .map(|tenant| tenant.config.priority.weight())
            .collect();
        Ok(Self {
            tenants,
            sched: FairScheduler::restore(sched, checkpoint.sched),
            overload: OverloadController::restore(overload, checkpoint.level),
            hook: None,
            weights,
            cost_scratch: Vec::new(),
            plan_scratch: RoundPlan::default(),
            skip_scratch: Vec::new(),
        })
    }
}

fn count_rejection(tenant: &str, reason: &str) {
    if telemetry::enabled() {
        telemetry::counter(format!("serve.tenant.rejected.{reason}"), 1);
        telemetry::counter(format!("serve.tenant.{tenant}.rejected.{reason}"), 1);
    }
}
