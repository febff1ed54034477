//! Shared driver for the quantitative allocation sweeps (Figs. 14-16):
//! several query settings, repeated with minor variations, worst-case CPU
//! MAPE per estimator per component.

use std::collections::BTreeMap;

use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_workload::ApiTraffic;

use crate::{report, ExpCtx};

/// The four components of Figs. 14-16.
pub(crate) const SWEEP_COMPONENTS: [&str; 4] = [
    "FrontendNGINX",
    "ComposePostService",
    "UserTimelineService",
    "PostStorageMongoDB",
];

/// Number of repetitions per setting, matching the paper's nine queries
/// with minor variations. Repeats evaluate concurrently (the worst-case
/// fold is order-insensitive and each repeat is seeded independently), so
/// the full paper count stays minutes-scale on a multi-core machine.
pub(crate) const REPEATS: usize = 9;

/// One sweep setting: a label and one query traffic per repeat.
pub(crate) struct Setting {
    pub label: String,
    pub queries: Vec<ApiTraffic>,
}

/// Runs a sweep (possibly against a context trained on a non-default shape),
/// prints worst-case CPU MAPE tables and returns them.
pub(crate) fn run_cpu_sweep(ctx: &ExpCtx, settings: &[Setting]) -> serde_json::Value {
    let mut json = Vec::new();

    for setting in settings {
        println!("\n  setting: {}", setting.label);
        // Each repeat (simulate ground truth + estimate + score) is
        // independent; fan them out and fold in repeat order.
        let per_rep: Vec<Vec<(String, String, f64)>> =
            ctx.pool().map(setting.queries.len(), |rep| {
                let traffic = &setting.queries[rep];
                let truth = ctx.ground_truth(traffic);
                let initials = ctx.initials_from(&truth);
                let estimates = ctx.estimators.estimate_traffic(
                    traffic,
                    &initials,
                    ctx.args.seed ^ (rep as u64 + 0x1400),
                );
                let mut rows = Vec::new();
                for comp in SWEEP_COMPONENTS {
                    let key = MetricKey::new(comp, ResourceKind::Cpu);
                    for (name, mape) in ctx.mape_table(&estimates, &truth, &key) {
                        rows.push((name, comp.to_owned(), mape));
                    }
                }
                rows
            });
        // worst[estimator][component] = max MAPE across repeats.
        let mut worst: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for rows in per_rep {
            for (name, comp, mape) in rows {
                let slot = worst.entry(name).or_default().entry(comp).or_insert(0.0);
                *slot = slot.max(mape);
            }
        }
        for comp in SWEEP_COMPONENTS {
            let rows: Vec<(String, f64)> = worst
                .iter()
                .map(|(name, by_comp)| (name.clone(), by_comp[comp]))
                .collect();
            report::mape_rows(&format!("{comp} CPU, worst of {REPEATS} repeats"), &rows);
        }
        json.push(serde_json::json!({
            "setting": setting.label,
            "worst_case_cpu_mape": worst,
        }));
    }
    serde_json::Value::Array(json)
}
