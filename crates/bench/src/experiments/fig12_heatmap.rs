//! Fig. 12: estimation-quality heatmaps — four components x five resource
//! types x four estimators, under a mixed unseen query (volume growth plus
//! composition shift). IOps/throughput/disk rows only exist on stateful
//! components; the memory row is DeepRest's known weak spot (cache
//! dynamics, §6 future work).

use std::collections::BTreeMap;

use deeprest_metrics::{MetricKey, ResourceKind};

use super::mix_with;
use crate::{report, Args, ExpCtx};

const COMPONENTS: [&str; 4] = [
    "FrontendNGINX",
    "ComposePostService",
    "UserTimelineService",
    "PostStorageMongoDB",
];

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::social(args);
    run_with(args, &ctx);
}

/// Runs against a prepared context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    report::banner(
        "fig12",
        "estimation quality heatmaps (4 components x 5 resources x 4 estimators)",
    );
    // Mixed unseen query: 1.5x volume with a composition shift.
    let mix = mix_with(
        &ctx.app,
        &[("/composePost", 0.35), ("/readUserTimeline", 0.40)],
    );
    let traffic = ctx
        .query_workload()
        .with_users(args.users * 1.5)
        .with_mix(mix)
        .with_seed(args.seed ^ 0x1200)
        .generate();
    let truth = ctx.ground_truth(&traffic);
    let initials = ctx.initials_from(&truth);
    let estimates = ctx
        .estimators
        .estimate_traffic(&traffic, &initials, args.seed ^ 0x1201);

    let resources = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::WriteIops,
        ResourceKind::WriteThroughput,
        ResourceKind::DiskUsage,
    ];
    let resource_labels: Vec<&str> = resources.iter().map(|r| r.label()).collect();

    let mut json = BTreeMap::new();
    for (name, map) in &estimates {
        let mut cells: BTreeMap<(String, String), f64> = BTreeMap::new();
        for comp in COMPONENTS {
            let stateful = ctx.app.component(comp).expect("known component").stateful;
            for &resource in &resources {
                if resource.stateful_only() && !stateful {
                    continue;
                }
                let key = MetricKey::new(comp, resource);
                let actual = truth.metrics.get(&key).expect("simulated");
                let mape = deeprest_metrics::eval::mape(actual, &map[&key]);
                cells.insert((comp.to_owned(), resource.label().to_owned()), mape);
            }
        }
        println!();
        report::heatmap(
            &format!("{name} (MAPE per cell)"),
            &COMPONENTS,
            &resource_labels,
            &cells,
        );
        json.insert(
            name.clone(),
            cells
                .into_iter()
                .map(|((c, r), m)| (format!("{c}/{r}"), m))
                .collect::<BTreeMap<String, f64>>(),
        );
    }
    report::dump_json(&args.out, "fig12", "estimation quality heatmaps", &json);
}
