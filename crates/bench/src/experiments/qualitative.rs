//! Shared driver for the qualitative curve experiments (Figs. 10, 11, 18):
//! one query traffic pattern, two spotlight resources, four estimators.

use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_workload::{ApiTraffic, TrafficShape};

use crate::{report, ExpCtx};

/// The two spotlight resources of Figs. 10/11/18.
pub(crate) fn spotlight_keys() -> [MetricKey; 2] {
    [
        MetricKey::new("ComposePostService", ResourceKind::Cpu),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops),
    ]
}

/// Runs one qualitative comparison: prints the query traffic, then per
/// spotlight resource the actual curve, each estimator's curve, and the
/// MAPE table; returns everything as the record's results.
pub(crate) fn run_query(ctx: &ExpCtx, traffic: &ApiTraffic) -> serde_json::Value {
    println!("  query traffic ({} windows):", traffic.window_count());
    for api in ["/composePost", "/readUserTimeline", "/uploadMedia"] {
        if traffic.api_index(api).is_some() {
            report::curve(api, &traffic.api_series(api), 96);
        }
    }
    report::curve("total", &traffic.total_series(), 96);

    let truth = ctx.ground_truth(traffic);
    let initials = ctx.initials_from(&truth);
    let estimates = ctx
        .estimators
        .estimate_traffic(traffic, &initials, ctx.args.seed ^ 0x51);

    let mut json = serde_json::Map::new();
    for key in spotlight_keys() {
        println!("\n  {key}:");
        let actual = truth.metrics.get(&key).expect("spotlight key simulated");
        report::curve("actual", actual, 96);
        for (name, map) in &estimates {
            report::curve(name, &map[&key], 96);
        }
        let rows = ctx.mape_table(&estimates, &truth, &key);
        report::mape_rows(&format!("{key} estimation error"), &rows);

        json.insert(
            key.to_string(),
            serde_json::json!({
                "actual": actual.values(),
                "estimates": estimates
                    .iter()
                    .map(|(n, m)| (n.clone(), m[&key].values().to_vec()))
                    .collect::<std::collections::BTreeMap<_, _>>(),
                "mape": rows,
            }),
        );
    }
    serde_json::Value::Object(json)
}

/// Builds a one-day query with the given mix/scale/shape on top of the
/// context's workload defaults.
pub(crate) fn one_day_query(
    ctx: &ExpCtx,
    mix: Vec<(String, f64)>,
    user_scale: f64,
    shape: TrafficShape,
) -> ApiTraffic {
    ctx.query_workload()
        .with_mix(mix)
        .with_users(ctx.args.users * user_scale)
        .with_shape(shape)
        .generate()
}
