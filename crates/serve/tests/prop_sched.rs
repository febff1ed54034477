//! Property tests for the deficit-round-robin fair scheduler:
//!
//! * **starvation-freedom** — for arbitrary tenant counts, weights, queue
//!   fills, costs, quanta, and (sufficient) budgets, every queue drains
//!   within an analytic round bound: banked deficit grows by at least
//!   `weight × quantum` per visited round, so a tenant's head arrival is
//!   affordable after at most `⌈cap / top-up⌉` rounds of pure banking;
//! * **purity** — a plan is a function of (queue contents, deficits,
//!   round counter, config) and nothing else: two schedulers fed the same
//!   inputs emit identical plans forever. This is the determinism
//!   argument for `DEEPREST_THREADS` independence — CI's smoke command
//!   table re-runs this suite under a thread matrix, and the pinned golden
//!   drain order below must come out identical under every setting;
//! * **work conservation** — a plan never drains more than the budget,
//!   never plans an arrival twice, and a stalled round conserves the
//!   backlog for later rounds.

mod common;

use deeprest_serve::sched::RoundPlan;
use deeprest_serve::{FairScheduler, SchedConfig};
use proptest::prelude::*;

/// Splits a proptest seed into a deterministic parameter tuple
/// (splitmix64, same generator as `prop_stream`).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One generated scheduling scenario.
struct Scenario {
    config: SchedConfig,
    weights: Vec<u64>,
    queues: Vec<Vec<u64>>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix(seed);
    let n = 1 + rng.below(5) as usize;
    let quantum = 1 + rng.below(8);
    let deficit_cap = quantum + rng.below(64);
    let cap = deficit_cap.max(quantum);
    // A budget below the cost clamp could starve a too-expensive head
    // arrival forever; the registry never configures one (the clamp is
    // `deficit_cap`), so generated budgets are either unlimited or >= cap.
    let round_budget = if rng.below(2) == 0 {
        0
    } else {
        cap + rng.below(3 * cap + 1)
    };
    let weights: Vec<u64> = (0..n).map(|_| 1 + rng.below(4)).collect();
    let queues: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            let len = rng.below(30) as usize;
            (0..len).map(|_| 1 + rng.below(10)).collect()
        })
        .collect();
    Scenario {
        config: SchedConfig {
            quantum,
            round_budget,
            deficit_cap,
        },
        weights,
        queues,
    }
}

/// Plans rounds until every queue is empty, removing planned arrivals,
/// and returns the number of rounds taken.
fn drain(sched: &mut FairScheduler, queues: &mut [Vec<u64>], weights: &[u64], bound: u64) -> u64 {
    let mut rounds = 0;
    while queues.iter().any(|q| !q.is_empty()) {
        let snapshot: Vec<Vec<u64>> = queues.to_vec();
        let plan = sched.plan_round(&snapshot, weights, None);
        for &t in &plan.order {
            assert!(!queues[t].is_empty(), "planned an arrival twice");
            queues[t].remove(0);
        }
        rounds += 1;
        assert!(
            rounds <= bound,
            "starvation: {} arrivals still queued after {rounds} rounds",
            queues.iter().map(Vec::len).sum::<usize>()
        );
    }
    rounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated scenario drains completely within the analytic
    /// bound — no tenant mix, cost mix, or budget can starve a queue.
    #[test]
    fn arbitrary_scenarios_drain_within_bound(seed in any::<u64>()) {
        let Scenario { config, weights, mut queues } = scenario(seed);
        let total: usize = queues.iter().map(Vec::len).sum();
        let n = queues.len() as u64;
        let cap = config.deficit_cap.max(config.quantum);
        let min_topup = config.quantum.max(1); // weights are >= 1
        // At most ceil(cap/top-up) banking rounds between two successful
        // drains, and at least one arrival drains per non-banking round.
        let bound = (cap / min_topup + 2) * (total as u64 + n + 1);
        let mut sched = FairScheduler::new(config);
        for _ in 0..queues.len() {
            sched.register_tenant();
        }
        drain(&mut sched, &mut queues, &weights, bound);
    }

    /// The plan sequence is a pure function of scheduler state: two
    /// schedulers with the same config, fed the same queues, produce
    /// bit-identical plans and deficits at every round.
    #[test]
    fn plans_are_pure_functions_of_state(seed in any::<u64>()) {
        let Scenario { config, weights, mut queues } = scenario(seed);
        let mut a = FairScheduler::new(config);
        let mut b = FairScheduler::new(config);
        for _ in 0..queues.len() {
            a.register_tenant();
            b.register_tenant();
        }
        let mut rounds = 0u32;
        while queues.iter().any(|q| !q.is_empty()) && rounds < 500 {
            let snapshot: Vec<Vec<u64>> = queues.clone();
            let pa = a.plan_round(&snapshot, &weights, None);
            let pb = b.plan_round(&snapshot, &weights, None);
            prop_assert_eq!(&pa, &pb, "plans diverged at round {}", rounds);
            prop_assert_eq!(a.deficits(), b.deficits());
            prop_assert_eq!(a.round(), b.round());
            for &t in &pa.order {
                queues[t].remove(0);
            }
            rounds += 1;
        }
    }

    /// A budgeted plan never drains past its budget, and a stalled round
    /// conserves the backlog: unplanned arrivals are all still queued.
    #[test]
    fn budget_is_respected_and_stalls_conserve_work(seed in any::<u64>()) {
        let Scenario { config, weights, queues } = scenario(seed);
        let cap = config.deficit_cap.max(config.quantum);
        let total: usize = queues.iter().map(Vec::len).sum();
        let mut sched = FairScheduler::new(config);
        for _ in 0..queues.len() {
            sched.register_tenant();
        }
        // A deliberately tight (but >= cap) budget override.
        let budget = cap;
        let plan = sched.plan_round(&queues, &weights, Some(budget));
        prop_assert!(plan.drained_cost <= budget);
        prop_assert!(plan.order.len() <= total);
        if plan.stalled {
            prop_assert!(
                plan.order.len() < total,
                "a stalled plan must leave work queued"
            );
        }
    }
}

/// The pinned golden drain order. CI's smoke command table re-runs this
/// exact test under `DEEPREST_THREADS=1` and `=4`; the scheduler never
/// consults the thread count (or any ambient state), so the order must be
/// this constant under every setting.
#[test]
fn golden_drain_order_is_pinned() {
    let mut sched = FairScheduler::new(SchedConfig {
        quantum: 2,
        round_budget: 0,
        deficit_cap: 4,
    });
    sched.register_tenant();
    sched.register_tenant();
    let weights = [2, 1];

    let mut queues = vec![vec![1u64, 1, 1], vec![1u64, 1, 1, 1]];
    let mut orders = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let snapshot: Vec<Vec<u64>> = queues.clone();
        let plan: RoundPlan = sched.plan_round(&snapshot, &weights, None);
        for &t in &plan.order {
            queues[t].remove(0);
        }
        orders.push(plan.order);
    }
    assert_eq!(orders, vec![vec![0, 0, 0, 1, 1], vec![1, 1]]);
    assert_eq!(sched.deficits(), &[0, 0]);
}
