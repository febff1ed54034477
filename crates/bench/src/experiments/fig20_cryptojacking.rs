//! Fig. 20: application sanity check identifying a cryptojacking attack —
//! a mining process steals CPU on the PostStorageMongoDB from day 5 noon
//! onward; benign pattern-violating days earlier in the period must not
//! trigger alarms.

use deeprest_baselines::day_profile;
use deeprest_core::sanity::{self, SanityConfig};
use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_sim::anomaly::CryptojackingAttack;

use super::checkdays::{build_check_traffic, flagged_days, pattern_detector_flags, DayKind};
use crate::{report, Args, ExpCtx};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::social(args);
    run_with(args, &ctx);
}

/// Runs against a prepared context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    report::banner(
        "fig20",
        "sanity check: cryptojacking on PostStorageMongoDB (mining from day 5 noon)",
    );
    let wpd = args.windows_per_day;
    let days = [
        DayKind::Normal,     // day 0
        DayKind::Normal,     // day 1
        DayKind::FlatHigh,   // day 2 (benign, the paper's 07/15 suspicion)
        DayKind::SinglePeak, // day 3 (benign, 07/16 suspicion)
        DayKind::Normal,     // day 4
        DayKind::Normal,     // day 5: mining starts at noon (07/18)
        DayKind::Normal,     // day 6
        DayKind::Normal,     // day 7
        DayKind::Normal,     // day 8
    ];
    let traffic = build_check_traffic(ctx, &days, 0x2000);

    let mining_start = 5 * wpd + wpd / 2;
    let attack = CryptojackingAttack::new("PostStorageMongoDB", mining_start, 8.0);
    let truth = ctx.ground_truth_with(&traffic, &[&attack]);

    let config = SanityConfig::default();
    let sanity = sanity::check(
        &ctx.estimators.deeprest,
        &truth.traces,
        &truth.interner,
        &truth.metrics,
        &config,
    );

    let cpu_key = MetricKey::new("PostStorageMongoDB", ResourceKind::Cpu);
    println!("  PostStorageMongoDB CPU (actual vs DeepRest-expected interval):");
    report::curve("actual", truth.metrics.get(&cpu_key).unwrap(), 108);
    let est = sanity.estimates.get(&cpu_key).unwrap();
    report::curve("expected (median)", &est.expected, 108);
    report::curve("expected (upper)", &est.upper, 108);
    println!("\n  CPU anomaly score (1-D heatmap):");
    report::curve("deviation score", &sanity.per_resource[&cpu_key], 108);

    let deeprest_days = flagged_days(&sanity, wpd);
    let learned_profile = day_profile(
        ctx.learn
            .metrics
            .get(&cpu_key)
            .expect("learning metrics")
            .values(),
        wpd,
    );
    let pattern_days = pattern_detector_flags(
        truth.metrics.get(&cpu_key).unwrap(),
        &learned_profile,
        wpd,
        1.8,
    );
    println!(
        "\n  pattern-based detection flags days: {pattern_days:?} (pattern violations only; cannot tell benign shape changes from mining or localize its start)"
    );
    println!(
        "  DeepRest flags days:                {deeprest_days:?} (ground truth: mining runs from day 5 onward)"
    );

    println!("\n  interpretable alerts:");
    for event in &sanity.events {
        println!(
            "    Anomalous event: windows {}..{} (from day {}), peak score {:.2}",
            event.start_window,
            event.end_window,
            event.start_window / wpd,
            event.peak_score
        );
        for finding in event.findings.iter().take(6) {
            println!("      {finding}");
        }
    }

    report::dump_json(
        &args.out,
        "fig20",
        "cryptojacking sanity check",
        &serde_json::json!({
            "mining_start_window": mining_start,
            "deeprest_flagged_days": deeprest_days,
            "pattern_detector_flagged_days": pattern_days,
            "overall_score": sanity.overall.values(),
            "events": sanity.events,
        }),
    );
}
