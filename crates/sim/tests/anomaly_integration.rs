//! Anomaly injectors exercised through the full simulation engine: attacks
//! must distort the metrics exactly where configured while leaving the API
//! traffic and traces untouched.

use deeprest_metrics::ResourceKind;
use deeprest_sim::anomaly::{CryptojackingAttack, RansomwareAttack};
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, simulate_with, SimConfig};
use deeprest_workload::WorkloadSpec;

fn setup() -> (
    deeprest_sim::AppSpec,
    deeprest_workload::ApiTraffic,
    SimConfig,
) {
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(120.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(48)
        .generate();
    (app, traffic, SimConfig::default())
}

#[test]
fn ransomware_distorts_only_the_configured_interval_and_components() {
    let (app, traffic, cfg) = setup();
    let clean = simulate(&app, &traffic, &cfg);
    let attack =
        RansomwareAttack::new("PostStorageMongoDB", 20, 26).with_degraded_frontend("FrontendNGINX");
    let attacked = simulate_with(&app, &traffic, &cfg, &[&attack]);

    let clean_thr = clean
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::WriteThroughput)
        .unwrap();
    let hit_thr = attacked
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::WriteThroughput)
        .unwrap();
    // Inside the attack window the throughput is ~3.1x; outside it matches
    // up to the engine's measurement noise (different RNG draw order).
    for t in 20..26 {
        assert!(
            hit_thr.get(t) > 2.0 * clean_thr.get(t),
            "window {t}: {} vs clean {}",
            hit_thr.get(t),
            clean_thr.get(t)
        );
    }
    let pre_ratio = hit_thr.slice(0..20).mean() / clean_thr.slice(0..20).mean();
    assert!(
        (0.8..1.2).contains(&pre_ratio),
        "pre-attack ratio {pre_ratio}"
    );

    // Frontend CPU degrades during the attack.
    let clean_cpu = clean
        .metrics
        .get_parts("FrontendNGINX", ResourceKind::Cpu)
        .unwrap();
    let hit_cpu = attacked
        .metrics
        .get_parts("FrontendNGINX", ResourceKind::Cpu)
        .unwrap();
    assert!(hit_cpu.slice(20..26).mean() < 0.95 * clean_cpu.slice(20..26).mean());

    // Uninvolved components stay statistically identical.
    let clean_media = clean
        .metrics
        .get_parts("MediaMongoDB", ResourceKind::Cpu)
        .unwrap();
    let hit_media = attacked
        .metrics
        .get_parts("MediaMongoDB", ResourceKind::Cpu)
        .unwrap();
    let ratio = hit_media.mean() / clean_media.mean();
    assert!((0.9..1.1).contains(&ratio), "bystander ratio {ratio}");

    // Attacks never touch the application layer: identical trace counts.
    assert_eq!(clean.traces.trace_count(), attacked.traces.trace_count());
}

#[test]
fn cryptojacking_raises_cpu_persistently_from_start() {
    let (app, traffic, cfg) = setup();
    let clean = simulate(&app, &traffic, &cfg);
    let attack = CryptojackingAttack::new("PostStorageMongoDB", 24, 15.0);
    let attacked = simulate_with(&app, &traffic, &cfg, &[&attack]);

    let clean_cpu = clean
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::Cpu)
        .unwrap();
    let hit_cpu = attacked
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::Cpu)
        .unwrap();
    for t in 24..48 {
        let delta = hit_cpu.get(t) - clean_cpu.get(t);
        assert!(
            (10.0..20.0).contains(&delta),
            "window {t}: CPU delta {delta} should be ~15"
        );
    }
    // IOps untouched: mining only burns CPU.
    let clean_iops = clean
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::WriteIops)
        .unwrap();
    let hit_iops = attacked
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::WriteIops)
        .unwrap();
    let ratio = hit_iops.mean() / clean_iops.mean();
    assert!((0.9..1.1).contains(&ratio), "IOps ratio {ratio}");
}

#[test]
fn multiple_injectors_compose() {
    let (app, traffic, cfg) = setup();
    let crypto = CryptojackingAttack::new("PostStorageMongoDB", 0, 10.0);
    let ransomware = RansomwareAttack::new("PostStorageMongoDB", 0, 48);
    let out = simulate_with(&app, &traffic, &cfg, &[&crypto, &ransomware]);
    let clean = simulate(&app, &traffic, &cfg);
    let dc = out
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::Cpu)
        .unwrap()
        .mean()
        - clean
            .metrics
            .get_parts("PostStorageMongoDB", ResourceKind::Cpu)
            .unwrap()
            .mean();
    let dm = out
        .metrics
        .get_parts("PostStorageMongoDB", ResourceKind::Memory)
        .unwrap()
        .mean()
        - clean
            .metrics
            .get_parts("PostStorageMongoDB", ResourceKind::Memory)
            .unwrap()
            .mean();
    assert!(dc > 8.0, "CPU delta {dc}");
    assert!(dm > 15.0, "memory delta {dm}");
}
