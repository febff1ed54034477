//! Fig. 17: the hotel reservation application — estimating FrontendService
//! CPU for 3x more users than ever, where the scaling baselines magnify
//! their small per-request errors into large overestimates.

use deeprest_metrics::{MetricKey, ResourceKind, TimeSeries};

use crate::{report, Args, ExpCtx};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::hotel(args);
    run_with(args, &ctx);
}

/// Runs against a prepared hotel context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    report::banner(
        "fig17",
        "hotel reservation: FrontendService CPU with 3x more users than ever",
    );
    let traffic = ctx
        .query_workload()
        .with_users(args.users * 3.0)
        .with_seed(args.seed ^ 0x1700)
        .generate();
    let truth = ctx.ground_truth(&traffic);
    let initials = ctx.initials_from(&truth);
    let estimates = ctx
        .estimators
        .estimate_traffic(&traffic, &initials, args.seed ^ 0x1701);

    let key = MetricKey::new("FrontendService", ResourceKind::Cpu);
    let actual = truth.metrics.get(&key).expect("frontend simulated");

    println!("  (a) estimated vs actual CPU:");
    report::curve("actual", actual, 96);
    for (name, map) in &estimates {
        report::curve(name, &map[&key], 96);
    }

    println!("\n  (b) absolute percentage error over the day:");
    for (name, map) in &estimates {
        let ape: TimeSeries = actual
            .values()
            .iter()
            .zip(map[&key].values().iter())
            .map(|(a, e)| 100.0 * (a - e).abs() / a.abs().max(1e-9))
            .collect();
        report::curve(name, &ape, 96);
    }
    let rows = ctx.mape_table(&estimates, &truth, &key);
    report::mape_rows("FrontendService CPU", &rows);

    report::dump_json(
        &args.out,
        "fig17",
        "hotel reservation 3x users",
        &serde_json::json!({
            "actual": actual.values(),
            "estimates": estimates
                .iter()
                .map(|(n, m)| (n.clone(), m[&key].values().to_vec()))
                .collect::<std::collections::BTreeMap<_, _>>(),
            "mape": rows,
        }),
    );
}
