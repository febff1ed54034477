//! Cross-crate integration tests: the full learn → query → check pipeline
//! through the facade crate, plus the paper's headline comparative claims
//! on a small-but-real configuration.

use deeprest::baselines::{
    BaselineEstimator, ComponentAwareScaling, LearnData, QueryData, ResourceAwareDl, SimpleScaling,
};
use deeprest::core::sanity::{self, SanityConfig};
use deeprest::core::{interpret, DeepRest, DeepRestConfig};
use deeprest::metrics::eval::mape;
use deeprest::metrics::{MetricKey, MetricsRegistry, ResourceKind};
use deeprest::sim::anomaly::RansomwareAttack;
use deeprest::sim::apps;
use deeprest::sim::engine::{simulate, simulate_with, SimConfig};
use deeprest::workload::WorkloadSpec;

fn scope() -> Vec<MetricKey> {
    vec![
        MetricKey::new("FrontendNGINX", ResourceKind::Cpu),
        MetricKey::new("ComposePostService", ResourceKind::Cpu),
        MetricKey::new("UserTimelineService", ResourceKind::Cpu),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteThroughput),
    ]
}

struct Fixture {
    app: deeprest::sim::AppSpec,
    learn: deeprest::sim::SimOutput,
    learn_traffic: deeprest::workload::ApiTraffic,
    metrics: MetricsRegistry,
    model: DeepRest,
}

fn fixture() -> Fixture {
    let app = apps::social_network();
    let learn_traffic = WorkloadSpec::new(120.0, app.default_mix())
        .with_days(5)
        .with_windows_per_day(96)
        .generate();
    let learn = simulate(&app, &learn_traffic, &SimConfig::default());
    let mut metrics = MetricsRegistry::new();
    for key in scope() {
        metrics.insert(key.clone(), learn.metrics.get(&key).unwrap().clone());
    }
    let (model, report) = DeepRest::fit(
        &learn.traces,
        &metrics,
        &learn.interner,
        DeepRestConfig::default()
            .with_epochs(25)
            .with_scope(scope()),
    );
    assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
    Fixture {
        app,
        learn,
        learn_traffic,
        metrics,
        model,
    }
}

#[test]
fn deeprest_beats_flow_blind_baselines_on_composition_shift() {
    let f = fixture();

    // Unseen composition: read-dominated traffic at 1.5x volume.
    let mut mix: Vec<(String, f64)> = f
        .app
        .default_mix()
        .into_iter()
        .map(|(api, w)| {
            let w = match api.as_str() {
                "/readUserTimeline" => 0.70,
                "/composePost" => 0.05,
                _ => w * 0.25,
            };
            (api, w)
        })
        .collect();
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    for (_, w) in &mut mix {
        *w /= total;
    }
    let query = WorkloadSpec::new(180.0, mix)
        .with_days(1)
        .with_windows_per_day(96)
        .with_seed(404)
        .generate();
    let truth = simulate(&f.app, &query, &SimConfig::default().with_seed(405));

    // DeepRest, mode 1.
    let deeprest_est = f.model.estimate_traffic(&query, 7);

    // The baselines.
    let learn_data = LearnData {
        traffic: &f.learn_traffic,
        traces: &f.learn.traces,
        metrics: &f.metrics,
        interner: &f.learn.interner,
    };
    let mut simple = SimpleScaling::new();
    simple.fit(&learn_data);
    let mut comp_aware = ComponentAwareScaling::new();
    comp_aware.fit(&learn_data);
    let mut resrc_dl = ResourceAwareDl::new();
    resrc_dl.fit(&learn_data);
    let q = QueryData {
        traffic: &query,
        traces: None,
        interner: None,
    };
    let simple_est = simple.estimate(&q);
    let comp_est = comp_aware.estimate(&q);
    let resrc_est = resrc_dl.estimate(&q);

    // The paper's Fig. 11 story on the write path: reads must not inflate
    // write IOps. Simple scaling is flow-blind and overestimates; DeepRest
    // is close to truth.
    let iops = MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops);
    let actual = truth.metrics.get(&iops).unwrap();
    let m_deeprest = mape(actual, &deeprest_est.get(&iops).unwrap().expected);
    let m_simple = mape(actual, &simple_est[&iops]);
    assert!(
        m_deeprest < m_simple,
        "DeepRest {m_deeprest:.1}% must beat simple scaling {m_simple:.1}% on write IOps"
    );

    // Component-aware gets the ComposePostService CPU roughly right (the
    // flow part) but still overestimates the store's write IOps more than
    // DeepRest (the resource part).
    let m_comp = mape(actual, &comp_est[&iops]);
    assert!(
        m_deeprest < m_comp,
        "DeepRest {m_deeprest:.1}% must beat component-aware {m_comp:.1}% on write IOps"
    );

    // The history-only forecaster never sees the query: it keeps
    // forecasting the learning days' write rate under read-dominated
    // traffic.
    let m_resrc = mape(actual, &resrc_est[&iops]);
    assert!(
        m_deeprest < m_resrc,
        "DeepRest {m_deeprest:.1}% must beat resrc-aware DL {m_resrc:.1}% on write IOps"
    );
}

#[test]
fn sanity_check_pinpoints_ransomware_window() {
    let f = fixture();
    let check = WorkloadSpec::new(120.0, f.app.default_mix())
        .with_days(2)
        .with_windows_per_day(96)
        .with_seed(606)
        .generate();
    let attack = RansomwareAttack::new("PostStorageMongoDB", 120, 132);
    let observed = simulate_with(
        &f.app,
        &check,
        &SimConfig::default().with_seed(607),
        &[&attack],
    );
    let report = sanity::check(
        &f.model,
        &observed.traces,
        &observed.interner,
        &observed.metrics,
        &SanityConfig::default(),
    );
    assert!(!report.events.is_empty(), "attack must raise an event");
    let event = report
        .events
        .iter()
        .max_by(|a, b| a.peak_score.partial_cmp(&b.peak_score).unwrap())
        .unwrap();
    // Event overlaps the attack interval.
    assert!(
        event.start_window < 132 && event.end_window > 120,
        "event {}..{} misses attack 120..132",
        event.start_window,
        event.end_window
    );
    // The throughput finding dominates, as in Fig. 19c.
    let top = &event.findings[0];
    assert_eq!(top.component, "PostStorageMongoDB");
    assert!(top.deviation_pct > 50.0);
    // The benign first day stays quiet.
    let early = report.overall.slice(0..96);
    let cfg = SanityConfig::default();
    let noisy = early
        .values()
        .iter()
        .filter(|&&s| s > cfg.score_threshold)
        .count();
    assert!(noisy <= 4, "benign day has {noisy} anomalous windows");
}

#[test]
fn masks_recover_api_resource_dependencies() {
    let f = fixture();
    // PostStorageMongoDB write IOps must be attributed to /composePost.
    let key = MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops);
    let attribution = interpret::api_attribution(&f.model, &key).unwrap();
    assert_eq!(attribution.top(), Some("/composePost"));
}

#[test]
fn model_round_trips_through_json() {
    let f = fixture();
    let json = f.model.to_json().unwrap();
    let restored = DeepRest::from_json(&json).unwrap();
    let query = f.learn_traffic.slice(0..48);
    let a = f.model.estimate_traffic(&query, 3);
    let b = restored.estimate_traffic(&query, 3);
    let key = MetricKey::new("FrontendNGINX", ResourceKind::Cpu);
    for (x, y) in a
        .get(&key)
        .unwrap()
        .expected
        .values()
        .iter()
        .zip(b.get(&key).unwrap().expected.values())
    {
        // JSON round-trips f32 parameters exactly; tiny f64 differences can
        // still arise downstream of the (de)serialized scalers.
        assert!((x - y).abs() < 1e-9, "round-trip drift: {x} vs {y}");
    }
}

#[test]
fn privacy_hashed_traces_train_equally_well() {
    // The paper's privacy-preserving mode: component/operation/API names
    // are hashed before DeepRest ingests them. Estimation quality must be
    // unaffected because only name equality matters.
    let app = apps::social_network();
    let learn_traffic = WorkloadSpec::new(120.0, app.default_mix())
        .with_days(3)
        .with_windows_per_day(96)
        .generate();
    let learn = simulate(&app, &learn_traffic, &SimConfig::default());

    // Hash every trace into an opaque namespace.
    let salt = 0xfeed;
    let mut hashed_interner = deeprest::trace::Interner::new();
    let mut hashed = deeprest::trace::window::WindowedTraces::with_windows(
        learn.traces.window_secs,
        learn.traces.len(),
    );
    for (t, window) in learn.traces.windows.iter().enumerate() {
        hashed.windows[t] = window
            .iter()
            .map(|tr| {
                deeprest::trace::hashing::anonymize_trace(
                    tr,
                    &learn.interner,
                    &mut hashed_interner,
                    salt,
                )
            })
            .collect();
    }
    // Metrics keys also hashed.
    let hash_name = |name: &str| deeprest::trace::hashing::opaque_name(name, salt);
    let key_plain = MetricKey::new("FrontendNGINX", ResourceKind::Cpu);
    let key_hashed = MetricKey::new(hash_name("FrontendNGINX"), ResourceKind::Cpu);
    let mut metrics = MetricsRegistry::new();
    metrics.insert(
        key_hashed.clone(),
        learn.metrics.get(&key_plain).unwrap().clone(),
    );

    let (model, _) = DeepRest::fit(
        &hashed,
        &metrics,
        &hashed_interner,
        DeepRestConfig::default()
            .with_epochs(20)
            .with_scope(vec![key_hashed.clone()]),
    );
    let est = model.estimate_from_traces(&hashed, &hashed_interner);
    let m = mape(
        learn.metrics.get(&key_plain).unwrap(),
        &est.get(&key_hashed).unwrap().expected,
    );
    assert!(m < 15.0, "hashed-mode in-sample MAPE {m:.1}%");
    // No plain-text component names leak into the model's interner.
    for (_, name) in model.interner().iter() {
        assert!(!name.contains("NGINX"), "leaked name {name}");
    }
}

/// The closed autoscaling loop through the facade: on the announced surge
/// the proactive what-if-driven policy strictly beats the reactive
/// threshold baseline on SLO-violation windows at equal-or-lower
/// provisioned cost, and a rerun reproduces the decision trace bit for
/// bit.
#[test]
fn proactive_autoscaler_beats_reactive_through_facade() {
    use deeprest::scale::{run_proactive, run_reactive, ScaleLoopConfig, Scenario, ScenarioKind};

    let scenario = Scenario::new(ScenarioKind::Surge);
    let model = scenario.train();
    let config = ScaleLoopConfig::default();
    let proactive = run_proactive(&model, &scenario, config).unwrap();
    let reactive = run_reactive(&model, &scenario, config).unwrap();

    assert!(
        proactive.slo_violation_windows < reactive.slo_violation_windows,
        "surge: proactive {} vs reactive {} violation windows",
        proactive.slo_violation_windows,
        reactive.slo_violation_windows
    );
    assert!(
        proactive.provisioned_cost <= reactive.provisioned_cost,
        "surge: proactive cost {} vs reactive {}",
        proactive.provisioned_cost,
        reactive.provisioned_cost
    );
    assert_eq!(proactive.estimate_errors, 0);

    let rerun = run_proactive(&model, &scenario, config).unwrap();
    assert_eq!(
        proactive.decisions, rerun.decisions,
        "decision trace replays"
    );
    assert_eq!(
        proactive.provisioned_cost.to_bits(),
        rerun.provisioned_cost.to_bits(),
        "provisioned cost replays bitwise"
    );
}
