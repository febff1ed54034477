//! Property tests for the autoscaling control loop:
//!
//! * controller invariants — applied targets always inside
//!   `[min, spec.max_replicas]`, applied changes spaced by the cooldown
//!   (so no A→B→A flip inside one cooldown window), and scale-down
//!   hysteresis swallowing alternating up/down desires;
//! * degradation — fault-injected what-if estimate failures hold the last
//!   decision and never panic, at any failure probability.

use std::sync::{Arc, OnceLock};

use deeprest_core::DeepRest;
use deeprest_fault::FaultPlan;
use deeprest_scale::{
    demo_app, ControllerConfig, ScaleController, ScaleLoop, Scenario, ScenarioKind,
    TargetUtilizationPolicy,
};
use proptest::prelude::*;

fn controller_config() -> impl Strategy<Value = ControllerConfig> {
    (1u32..3, 1usize..4, 1usize..4).prop_map(|(min_replicas, cooldown_ticks, down_stable_ticks)| {
        ControllerConfig {
            min_replicas,
            cooldown_ticks,
            down_stable_ticks,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whatever a policy desires, applied targets stay inside the
    /// per-component `[min, max]` band, and a component that changed may
    /// not change again until its cooldown has elapsed — which also rules
    /// out an A→B→A round trip inside one cooldown window.
    #[test]
    fn controller_respects_bounds_and_cooldown(
        config in controller_config(),
        desires in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 3),
            1..40,
        ),
    ) {
        let app = demo_app();
        let maxes: Vec<u32> = app.components.iter().map(|c| c.max_replicas).collect();
        let mut controller = ScaleController::new(&app, config);
        let mut last_change: Vec<Option<usize>> = vec![None; maxes.len()];
        let mut previous = controller.targets().to_vec();
        for (tick, desired) in desires.iter().enumerate() {
            let applied = controller.apply(desired);
            for i in 0..maxes.len() {
                let lo = config.min_replicas.max(1).min(maxes[i]);
                prop_assert!(
                    (lo..=maxes[i]).contains(&applied[i]),
                    "tick {tick} comp {i}: applied {} outside [{lo}, {}]",
                    applied[i], maxes[i]
                );
                if applied[i] != previous[i] {
                    if let Some(at) = last_change[i] {
                        prop_assert!(
                            tick - at >= config.cooldown_ticks,
                            "comp {i} changed at {at} and again at {tick} \
                             inside cooldown {}",
                            config.cooldown_ticks
                        );
                    }
                    last_change[i] = Some(tick);
                }
            }
            previous = applied;
        }
    }

    /// Scale-down hysteresis: desires that alternate high/low every tick
    /// never produce a scale-down — a lower desire must persist for
    /// `down_stable_ticks` consecutive ticks to be believed.
    #[test]
    fn alternating_desires_never_scale_down(
        hi in 3u32..7,
        lo in 1u32..3,
        reps in 1usize..12,
    ) {
        let app = demo_app();
        let config = ControllerConfig {
            min_replicas: 1,
            cooldown_ticks: 1,
            down_stable_ticks: 2,
        };
        let mut controller = ScaleController::new(&app, config);
        let first = controller.apply(&[hi; 3]);
        let reached = first[0];
        for _ in 0..reps {
            let a = controller.apply(&[lo; 3]);
            prop_assert_eq!(a[0], reached, "single low desire applied");
            let b = controller.apply(&[hi; 3]);
            prop_assert_eq!(b[0], reached, "alternation moved the target");
        }
    }
}

/// One model for every fault case in this binary (training dominates).
fn model() -> &'static DeepRest {
    static MODEL: OnceLock<DeepRest> = OnceLock::new();
    MODEL.get_or_init(|| Scenario::new(ScenarioKind::Surge).train())
}

/// A decision as `(desired, applied, held)`.
type Decision = (Vec<u32>, Vec<u32>, bool);

/// Runs the proactive loop for `windows` windows under a fault plan and
/// returns `(decisions, estimate_errors)`.
fn run_under_plan(plan: FaultPlan, windows: usize) -> (Vec<Decision>, u64) {
    let scenario = Scenario::new(ScenarioKind::Surge);
    let policy = TargetUtilizationPolicy;
    deeprest_fault::with_plan(Arc::new(plan), || {
        let mut lp = ScaleLoop::new(model(), &scenario, policy);
        while lp.position() < windows {
            assert!(lp.step().expect("step must not fail under estimate faults"));
        }
        let report = lp.report();
        (
            report
                .decisions
                .iter()
                .map(|d| (d.desired.clone(), d.applied.clone(), d.held))
                .collect(),
            report.estimate_errors,
        )
    })
}

/// With the estimator failing on every tick, the loop degrades to
/// hold-last-decision: every tick is marked held, the deployment never
/// moves off its initial state, and nothing panics.
#[test]
fn total_estimator_failure_holds_initial_deployment() {
    let (decisions, errors) = run_under_plan(FaultPlan::new(9).always("scale.estimate"), 40);
    assert!(!decisions.is_empty(), "control ticks must still fire");
    assert_eq!(errors, decisions.len() as u64, "every tick counts an error");
    for (desired, applied, held) in &decisions {
        assert!(*held, "every decision is a hold");
        assert_eq!(desired, &vec![1, 1, 1], "hold desires the current targets");
        assert_eq!(applied, &vec![1, 1, 1], "deployment never moves");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// At any intermittent failure probability, a held tick re-desires
    /// exactly the targets that were in effect — fault-injected estimate
    /// errors degrade to hold-last-decision, never to a panic or a wild
    /// decision.
    #[test]
    fn intermittent_estimator_failure_degrades_to_hold(
        seed in any::<u64>(),
        p in 0.3f64..0.95,
    ) {
        let (decisions, errors) =
            run_under_plan(FaultPlan::new(seed).prob("scale.estimate", p), 40);
        prop_assert!(!decisions.is_empty());
        let mut current = vec![1u32, 1, 1];
        let mut held_count = 0u64;
        for (desired, applied, held) in &decisions {
            if *held {
                held_count += 1;
                prop_assert_eq!(
                    desired, &current,
                    "a held tick must re-desire the in-effect targets"
                );
            }
            current = applied.clone();
        }
        prop_assert_eq!(held_count, errors, "held ticks and errors agree");
    }
}
