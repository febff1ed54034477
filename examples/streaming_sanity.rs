//! Online serving: live sanity alerts over a streaming trace feed (§9 of
//! DESIGN.md).
//!
//! The batch `sanity_check` example scores a finished day after the fact.
//! Here the same cryptojacking attack is caught *while the day streams*:
//! traces arrive one by one, the watermark seals scrape windows, each
//! window costs one incremental inference step, and alerts fire as soon
//! as the causal anomaly score has been high for a few windows.
//!
//! Run with: `cargo run --release --example streaming_sanity`

use deeprest::core::sanity::SanityConfig;
use deeprest::core::{DeepRest, DeepRestConfig};
use deeprest::metrics::{MetricKey, MetricsRegistry, ResourceKind};
use deeprest::serve::{Pipeline, ServeConfig};
use deeprest::sim::anomaly::CryptojackingAttack;
use deeprest::sim::apps;
use deeprest::sim::engine::{simulate, simulate_with, SimConfig};
use deeprest::trace::window::{stamp, TimestampedTrace, WindowedTraces};
use deeprest::workload::WorkloadSpec;

/// Flattens a finished simulated day into the arrival stream a collector
/// would have delivered: each window's traces spaced evenly inside it.
fn as_stream(w: &WindowedTraces) -> Vec<TimestampedTrace> {
    w.windows
        .iter()
        .enumerate()
        .flat_map(|(t, traces)| stamp(t, traces.iter().cloned(), w.window_secs))
        .collect()
}

fn main() {
    // Learn one clean day of the social network.
    let app = apps::social_network();
    let learn_traffic = WorkloadSpec::new(120.0, app.default_mix())
        .with_days(2)
        .with_windows_per_day(96)
        .generate();
    let learn = simulate(&app, &learn_traffic, &SimConfig::default());

    let scope = vec![
        MetricKey::new("PostStorageMongoDB", ResourceKind::Cpu),
        MetricKey::new("FrontendNGINX", ResourceKind::Cpu),
    ];
    let mut metrics = MetricsRegistry::new();
    for key in &scope {
        metrics.insert(key.clone(), learn.metrics.get(key).unwrap().clone());
    }
    let (model, _) = DeepRest::fit(
        &learn.traces,
        &metrics,
        &learn.interner,
        DeepRestConfig::default().with_epochs(15).with_scope(scope),
    );

    // The day being served: more users than ever (benign) plus a mining
    // process planted on the post store from window 48 onward.
    let check_traffic = WorkloadSpec::new(150.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(96)
        .with_seed(505)
        .generate();
    let attack = CryptojackingAttack::new("PostStorageMongoDB", 48, 6.0);
    let observed = simulate_with(
        &app,
        &check_traffic,
        &SimConfig::default().with_seed(71),
        &[&attack],
    );

    // The causal scorer's normalization scale converges over the first few
    // windows; a longer minimum run length keeps that warm-up quiet.
    let config = ServeConfig::default()
        .with_window_secs(observed.traces.window_secs)
        .with_sanity(SanityConfig {
            min_event_windows: 5,
            ..SanityConfig::default()
        });
    let mut pipeline = Pipeline::new(&model, &observed.interner, config)
        .with_observations(observed.metrics.clone());

    println!("streaming the attacked day (mining starts at window 48)…\n");
    let mut first_alert = None;
    let mut outputs = Vec::new();
    for arrival in as_stream(&observed.traces) {
        outputs.extend(pipeline.ingest(arrival).expect("serving step failed"));
    }
    outputs.extend(pipeline.flush().expect("serving flush failed"));

    for out in &outputs {
        for alert in &out.alerts {
            if first_alert.is_none() {
                first_alert = Some(alert.window);
            }
            println!("  {alert}");
        }
    }

    println!(
        "\n{} windows served, {} late-dropped, {} alert windows",
        outputs.len(),
        pipeline.late_dropped(),
        outputs.iter().filter(|o| !o.alerts.is_empty()).count()
    );
    match first_alert {
        Some(w) => println!(
            "first alert at window {w} — {} windows after the miner started",
            w.saturating_sub(48)
        ),
        None => println!("no alert fired — unexpected; the miner should be caught"),
    }
}
