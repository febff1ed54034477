//! The scenario-test harness: golden decision traces for the four
//! autoscaling scenarios, the headline proactive-vs-reactive comparison,
//! and mid-scenario checkpoint/resume bit-exactness.
//!
//! Every run is a pure function of `(scenario, policy, config)`, so the
//! decision traces are pinned as JSON fixtures in `tests/fixtures/`. A
//! mismatch means the closed loop's behavior changed — inspect the diff,
//! and if intentional regenerate with:
//!
//! ```text
//! DEEPREST_UPDATE_GOLDEN=1 cargo test -p deeprest-scale --test scenarios
//! ```
//!
//! The fixtures also carry the cross-process determinism claim: CI runs
//! this suite under `DEEPREST_THREADS=1` and `DEEPREST_THREADS=4`, and the
//! same committed fixture must match both — decisions, violation counts
//! and cost microunits are bit-derived, with no tolerance.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use deeprest_core::DeepRest;
use deeprest_scale::{
    run_proactive, run_reactive, DecisionRecord, ScaleCheckpoint, ScaleLoop, ScaleReport, Scenario,
    ScenarioKind, TargetUtilizationPolicy,
};
use serde::{Deserialize, Serialize};

/// One policy's pinned outcome. Cost is stored in integer microunits so
/// the fixture is diff-friendly and the comparison is exact.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct PolicyTrace {
    slo_violation_windows: usize,
    cost_microunits: i64,
    estimate_errors: u64,
    decisions: Vec<DecisionRecord>,
}

/// The golden fixture for one scenario.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenTrace {
    scenario: String,
    proactive: PolicyTrace,
    reactive: PolicyTrace,
}

fn microunits(cost: f64) -> i64 {
    (cost * 1e6).round() as i64
}

fn policy_trace(report: &ScaleReport) -> PolicyTrace {
    PolicyTrace {
        slo_violation_windows: report.slo_violation_windows,
        cost_microunits: microunits(report.provisioned_cost),
        estimate_errors: report.estimate_errors,
        decisions: report.decisions.clone(),
    }
}

/// All four scenarios share one app, training sweep and sim tuning, so
/// one trained model serves the whole binary.
fn model() -> &'static DeepRest {
    static MODEL: OnceLock<DeepRest> = OnceLock::new();
    MODEL.get_or_init(|| Scenario::new(ScenarioKind::Surge).train())
}

/// Closed-loop runs are the expensive part; cache one (proactive,
/// reactive) report pair per scenario for every test in this binary.
fn reports(kind: ScenarioKind) -> &'static (ScaleReport, ScaleReport) {
    static REPORTS: [OnceLock<(ScaleReport, ScaleReport)>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let idx = ScenarioKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("kind is one of all()");
    REPORTS[idx].get_or_init(|| {
        let scenario = Scenario::new(kind);
        let proactive = run_proactive(model(), &scenario).expect("proactive run");
        let reactive = run_reactive(model(), &scenario).expect("reactive run");
        (proactive, reactive)
    })
}

fn fixture_path(kind: ScenarioKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}.json", kind.name()))
}

fn check_golden(kind: ScenarioKind) {
    let (proactive, reactive) = reports(kind);
    let got = GoldenTrace {
        scenario: kind.name().to_string(),
        proactive: policy_trace(proactive),
        reactive: policy_trace(reactive),
    };
    let path = fixture_path(kind);
    if std::env::var_os("DEEPREST_UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&got).expect("serialize golden trace");
        fs::write(&path, json + "\n").expect("write golden fixture");
        return;
    }
    let raw = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             DEEPREST_UPDATE_GOLDEN=1 cargo test -p deeprest-scale --test scenarios",
            path.display()
        )
    });
    let want: GoldenTrace = serde_json::from_str(&raw).expect("parse golden fixture");
    assert_eq!(
        want,
        got,
        "{}: decision trace diverged from the golden fixture; if the change \
         is intentional, regenerate with DEEPREST_UPDATE_GOLDEN=1",
        kind.name()
    );
}

#[test]
fn golden_surge() {
    check_golden(ScenarioKind::Surge);
}

#[test]
fn golden_flash_crowd() {
    check_golden(ScenarioKind::FlashCrowd);
}

#[test]
fn golden_diurnal() {
    check_golden(ScenarioKind::Diurnal);
}

#[test]
fn golden_drift() {
    check_golden(ScenarioKind::Drift);
}

/// The headline claim, strict form: on the announced surge the proactive
/// policy has strictly fewer SLO-violation windows at equal-or-lower
/// provisioned cost.
#[test]
fn surge_proactive_beats_reactive_strictly() {
    let (p, r) = reports(ScenarioKind::Surge);
    assert!(
        p.slo_violation_windows < r.slo_violation_windows,
        "surge: proactive {} vs reactive {} violation windows",
        p.slo_violation_windows,
        r.slo_violation_windows
    );
    assert!(
        p.provisioned_cost <= r.provisioned_cost,
        "surge: proactive cost {} vs reactive {}",
        p.provisioned_cost,
        r.provisioned_cost
    );
    assert_eq!(p.estimate_errors, 0, "no estimate failures on a clean run");
}

#[test]
fn flash_crowd_proactive_beats_reactive_strictly() {
    let (p, r) = reports(ScenarioKind::FlashCrowd);
    assert!(
        p.slo_violation_windows < r.slo_violation_windows,
        "flash-crowd: proactive {} vs reactive {} violation windows",
        p.slo_violation_windows,
        r.slo_violation_windows
    );
    assert!(
        p.provisioned_cost <= r.provisioned_cost,
        "flash-crowd: proactive cost {} vs reactive {}",
        p.provisioned_cost,
        r.provisioned_cost
    );
    assert_eq!(p.estimate_errors, 0, "no estimate failures on a clean run");
}

/// Diurnal and drift are regression guards, not headline wins: proactive
/// must never violate *more* than reactive (it buys its zero-violation
/// record with bounded extra capacity).
#[test]
fn diurnal_and_drift_proactive_never_worse_on_slo() {
    for kind in [ScenarioKind::Diurnal, ScenarioKind::Drift] {
        let (p, r) = reports(kind);
        assert!(
            p.slo_violation_windows <= r.slo_violation_windows,
            "{}: proactive {} vs reactive {} violation windows",
            kind.name(),
            p.slo_violation_windows,
            r.slo_violation_windows
        );
    }
}

/// A checkpoint taken mid-scenario — live pipeline state, simulator RNG,
/// controller hysteresis, calibration EWMA and all — must resume into the
/// exact run the uninterrupted loop produces, bit for bit.
#[test]
fn checkpoint_resume_is_bit_exact() {
    let scenario = Scenario::new(ScenarioKind::Surge);
    let policy = TargetUtilizationPolicy;

    // The uninterrupted reference run.
    let reference = ScaleLoop::new(model(), &scenario, policy)
        .run_to_end()
        .expect("reference run");

    // Interrupted run: checkpoint mid-surge (window 38 is inside the
    // hold, between control ticks), round-trip through JSON, resume.
    let mut first = ScaleLoop::new(model(), &scenario, policy);
    while first.position() < 38 {
        assert!(first.step().expect("step before checkpoint"));
    }
    let ckpt = first.checkpoint();
    let json = serde_json::to_string(&ckpt).expect("serialize checkpoint");
    drop(first);

    // A key this build no longer knows (`adapter`, written by older builds)
    // is ignored, not an error: the resume below stays bit-exact.
    let json = json.replacen('{', r#"{"adapter":"stale","#, 1);
    let restored: ScaleCheckpoint = serde_json::from_str(&json).expect("parse checkpoint");
    let resumed = ScaleLoop::restore(model(), &scenario, policy, restored)
        .expect("restore")
        .run_to_end()
        .expect("resumed run");

    assert_eq!(reference.decisions, resumed.decisions, "decision traces");
    assert_eq!(
        reference.slo_violation_windows, resumed.slo_violation_windows,
        "violation windows"
    );
    assert_eq!(
        reference.provisioned_cost.to_bits(),
        resumed.provisioned_cost.to_bits(),
        "provisioned cost must match bitwise"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&reference.mean_replicas),
        bits(&resumed.mean_replicas),
        "mean replicas must match bitwise"
    );
    assert_eq!(reference.estimate_errors, resumed.estimate_errors);
}

/// A checkpoint whose per-component replica sums do not cover the
/// scenario's components is refused at restore, not by a panic at the next
/// step's accounting.
#[test]
fn restore_refuses_misshapen_replica_windows() {
    let scenario = Scenario::new(ScenarioKind::Surge);
    let mut lp = ScaleLoop::new(model(), &scenario, TargetUtilizationPolicy);
    while lp.position() < 38 {
        assert!(lp.step().expect("step before checkpoint"));
    }
    let mut ckpt = lp.checkpoint();
    ckpt.replica_windows.pop();
    let err = ScaleLoop::restore(model(), &scenario, TargetUtilizationPolicy, ckpt)
        .err()
        .expect("a short replica_windows is refused");
    assert!(err.contains("replica_windows"), "{err}");
}
