//! Deterministic deficit-round-robin (DRR) fair scheduling.
//!
//! The multi-tenant front end ([`crate::tenant::TenantRegistry`]) drains
//! many per-tenant ingest queues into one inference path. This module
//! decides *in which order*: a classic deficit-round-robin scheduler whose
//! every decision is a pure function of (queue contents, deficit state,
//! round counter, config) — no clocks, no thread identity, no randomness.
//! The drain order is therefore bit-identical at any `DEEPREST_THREADS`
//! setting: the scheduler itself is serial, and the parallelism lives
//! inside the batched `StreamPredictor` step, which is already
//! bit-identical across thread counts (fixed-tree reductions).
//!
//! # Fairness and starvation-freedom
//!
//! Each round every tenant's deficit is topped up by
//! `weight × quantum` cost units and the tenant may drain queued arrivals
//! while their cost fits the deficit (costs are clamped to
//! [`SchedConfig::deficit_cap`], so a single oversized arrival can never
//! wedge its queue). The visit order rotates by one tenant per round, so
//! when a round budget truncates the round, the tenant that went last is
//! near the front next round — every non-empty queue receives service at
//! least once every `tenant_count` rounds, which bounds the rounds any
//! backlog needs to drain (the `prop_sched` suite proves this property for
//! arbitrary priority/quota assignments).

use serde::{Deserialize, Serialize};

/// Fair-scheduler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Base deficit top-up per round, in cost units (spans); a tenant's
    /// actual top-up is `weight × quantum`. Values below 1 behave as 1.
    pub quantum: u64,
    /// Total cost units the scheduler may drain per round across all
    /// tenants; `0` means unlimited. A round that exhausts this budget
    /// with arrivals still queued is reported as stalled (the backlog is
    /// conserved and drained in later rounds).
    pub round_budget: u64,
    /// Maximum deficit a tenant can bank, and the clamp applied to a
    /// single arrival's cost; caps the burst an idle-then-active tenant
    /// can claim in one round.
    pub deficit_cap: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            quantum: 64,
            round_budget: 0,
            deficit_cap: 4096,
        }
    }
}

/// Serializable scheduler state, persisted in the multi-tenant checkpoint
/// so a resumed registry continues with bit-identical drain decisions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedState {
    /// Banked deficit per tenant, in cost units.
    pub deficits: Vec<u64>,
    /// Rounds completed since the scheduler was created.
    pub round: u64,
}

/// One round's drain decisions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Tenant index per drained arrival, in drain order (an arrival is
    /// the tenant's oldest not yet planned this round).
    pub order: Vec<usize>,
    /// Total cost units the plan drains.
    pub drained_cost: u64,
    /// `true` when the round budget ran out with arrivals still queued.
    pub stalled: bool,
}

/// Deterministic deficit-round-robin scheduler over tenant queues.
///
/// The scheduler never touches the queues itself: callers snapshot each
/// tenant's queued arrival costs, ask for a [`RoundPlan`], and pop in the
/// planned order. That keeps the decision pure and testable.
pub struct FairScheduler {
    config: SchedConfig,
    deficits: Vec<u64>,
    round: u64,
    /// Per-tenant drain cursor, reused across rounds (scratch only —
    /// never part of the scheduler's decision state).
    cursor: Vec<usize>,
}

impl FairScheduler {
    /// Creates a scheduler with no tenants registered yet.
    pub fn new(config: SchedConfig) -> Self {
        Self {
            config,
            deficits: Vec::new(),
            round: 0,
            cursor: Vec::new(),
        }
    }

    /// The scheduler's tuning.
    pub(crate) fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Index of the upcoming round (0-based; incremented by
    /// [`plan_round`](Self::plan_round)).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Banked deficits, one per registered tenant.
    pub fn deficits(&self) -> &[u64] {
        &self.deficits
    }

    /// Registers one more tenant (deficit starts at zero) and returns its
    /// index.
    pub fn register_tenant(&mut self) -> usize {
        self.deficits.push(0);
        self.deficits.len() - 1
    }

    /// Serializable state for checkpointing.
    pub(crate) fn state(&self) -> SchedState {
        SchedState {
            deficits: self.deficits.clone(),
            round: self.round,
        }
    }

    /// Rebuilds a scheduler from checkpointed state.
    pub(crate) fn restore(config: SchedConfig, state: SchedState) -> Self {
        Self {
            config,
            deficits: state.deficits,
            round: state.round,
            cursor: Vec::new(),
        }
    }

    /// Plans one DRR round over `costs` (per tenant: the cost of each
    /// queued arrival, oldest first) and advances the round counter.
    ///
    /// `weights[t]` scales tenant `t`'s deficit top-up (priority classes
    /// map to weights). `budget_override`, when `Some`, replaces the
    /// configured round budget — the overload controller and the
    /// `sched.stall` fault probe use it to model a shrunken processing
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `costs` and `weights` disagree in length or with the
    /// registered tenant count.
    pub fn plan_round(
        &mut self,
        costs: &[Vec<u64>],
        weights: &[u64],
        budget_override: Option<u64>,
    ) -> RoundPlan {
        let mut plan = RoundPlan::default();
        self.plan_round_into(costs, weights, budget_override, &mut plan);
        plan
    }

    /// [`plan_round`](Self::plan_round) into a caller-owned plan whose
    /// buffers are reused — the registry's hot path plans every round
    /// without allocating. The plan is cleared first; the decisions are
    /// identical to `plan_round`.
    ///
    /// # Panics
    ///
    /// As [`plan_round`](Self::plan_round).
    pub(crate) fn plan_round_into(
        &mut self,
        costs: &[Vec<u64>],
        weights: &[u64],
        budget_override: Option<u64>,
        plan: &mut RoundPlan,
    ) {
        assert_eq!(costs.len(), weights.len(), "costs/weights length mismatch");
        assert_eq!(
            costs.len(),
            self.deficits.len(),
            "tenant count disagrees with registered tenants"
        );
        plan.order.clear();
        plan.drained_cost = 0;
        plan.stalled = false;
        let n = costs.len();
        let quantum = self.config.quantum.max(1);
        let cap = self.config.deficit_cap.max(quantum);
        let mut remaining = match budget_override {
            Some(b) => Some(b),
            None if self.config.round_budget > 0 => Some(self.config.round_budget),
            None => None,
        };
        if n == 0 {
            self.round += 1;
            return;
        }
        let start = usize::try_from(self.round % n as u64).unwrap_or(0);
        self.cursor.clear();
        self.cursor.resize(n, 0);
        'round: for i in 0..n {
            let t = (start + i) % n;
            self.deficits[t] = (self.deficits[t] + weights[t].max(1) * quantum).min(cap);
            while self.cursor[t] < costs[t].len() {
                // Clamp so one oversized arrival can never exceed any
                // bankable deficit and wedge its queue forever.
                let c = costs[t][self.cursor[t]].clamp(1, cap);
                if self.deficits[t] < c {
                    break;
                }
                if let Some(rem) = remaining {
                    if rem < c {
                        plan.stalled = true;
                        break 'round;
                    }
                    remaining = Some(rem - c);
                }
                self.deficits[t] -= c;
                self.cursor[t] += 1;
                plan.order.push(t);
                plan.drained_cost += c;
            }
            if self.cursor[t] >= costs[t].len() {
                // Classic DRR: an emptied queue forfeits banked credit, so
                // an idle tenant cannot hoard a burst allowance.
                self.deficits[t] = 0;
            }
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(sched: &mut FairScheduler, mut queues: Vec<Vec<u64>>, weights: &[u64]) -> u64 {
        let mut rounds = 0;
        while queues.iter().any(|q| !q.is_empty()) {
            let plan = sched.plan_round(&queues, weights, None);
            for &t in &plan.order {
                queues[t].remove(0);
            }
            rounds += 1;
            assert!(rounds < 10_000, "scheduler failed to drain");
        }
        rounds
    }

    #[test]
    fn equal_weights_drain_round_robin() {
        let mut sched = FairScheduler::new(SchedConfig {
            quantum: 1,
            round_budget: 0,
            deficit_cap: 4,
        });
        sched.register_tenant();
        sched.register_tenant();
        let queues = vec![vec![1, 1], vec![1, 1]];
        let plan = sched.plan_round(&queues, &[1, 1], None);
        assert_eq!(plan.order, vec![0, 1]);
        let plan = sched.plan_round(&queues, &[1, 1], None);
        // Rotation: tenant 1 goes first on the next round.
        assert_eq!(plan.order, vec![1, 0]);
    }

    #[test]
    fn weights_skew_throughput_but_not_progress() {
        let mut sched = FairScheduler::new(SchedConfig {
            quantum: 1,
            round_budget: 0,
            deficit_cap: 8,
        });
        sched.register_tenant();
        sched.register_tenant();
        let queues = vec![vec![1; 8], vec![1; 8]];
        let plan = sched.plan_round(&queues, &[4, 1], None);
        let heavy = plan.order.iter().filter(|&&t| t == 0).count();
        let light = plan.order.iter().filter(|&&t| t == 1).count();
        assert_eq!(heavy, 4);
        assert_eq!(light, 1);
    }

    #[test]
    fn budget_truncates_round_and_reports_stall() {
        let mut sched = FairScheduler::new(SchedConfig {
            quantum: 4,
            round_budget: 2,
            deficit_cap: 16,
        });
        sched.register_tenant();
        sched.register_tenant();
        let queues = vec![vec![1, 1, 1], vec![1, 1, 1]];
        let plan = sched.plan_round(&queues, &[1, 1], None);
        assert_eq!(plan.order.len(), 2, "budget of 2 cost units drains 2 items");
        assert!(plan.stalled);
    }

    #[test]
    fn rotation_prevents_budget_starvation() {
        // Budget admits only one cost-1 item per round; rotation must
        // still serve every tenant within n rounds.
        let mut sched = FairScheduler::new(SchedConfig {
            quantum: 1,
            round_budget: 1,
            deficit_cap: 4,
        });
        for _ in 0..3 {
            sched.register_tenant();
        }
        let queues = vec![vec![1; 3]; 3];
        let rounds = drain_all(&mut sched, queues, &[1, 1, 1]);
        assert_eq!(rounds, 9, "one item per round, 9 items total");
    }

    #[test]
    fn oversized_arrival_is_clamped_not_wedged() {
        let mut sched = FairScheduler::new(SchedConfig {
            quantum: 1,
            round_budget: 0,
            deficit_cap: 4,
        });
        sched.register_tenant();
        // Cost 1000 far exceeds the deficit cap; the clamp lets it drain
        // once the full cap is banked instead of starving forever.
        let rounds = drain_all(&mut sched, vec![vec![1000]], &[1]);
        assert!(
            rounds <= 4,
            "clamped arrival drains within cap/quantum rounds"
        );
    }

    #[test]
    fn state_round_trip_preserves_decisions() {
        let cfg = SchedConfig {
            quantum: 2,
            round_budget: 3,
            deficit_cap: 8,
        };
        let mut a = FairScheduler::new(cfg);
        a.register_tenant();
        a.register_tenant();
        let queues = vec![vec![1, 2, 1, 2], vec![2, 1, 2, 1]];
        let _ = a.plan_round(&queues, &[1, 2], None);
        let mut b = FairScheduler::restore(cfg, a.state());
        let next_a = a.plan_round(&queues, &[1, 2], None);
        let next_b = b.plan_round(&queues, &[1, 2], None);
        assert_eq!(next_a, next_b);
    }
}
