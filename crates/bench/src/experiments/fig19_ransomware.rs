//! Fig. 19: application sanity check identifying a ransomware attack. The
//! 9-day check period contains two benign-but-unusual days (a constantly
//! high day and a single-peak day) that fool pattern-based detection, plus
//! the real attack on day 6 (the paper's 07/19, 12:00-13:30). DeepRest
//! flags only the attack and emits an interpretable alert (Fig. 19c).

use deeprest_baselines::day_profile;
use deeprest_core::sanity::{self, SanityConfig};
use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_sim::anomaly::RansomwareAttack;

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
        "fig19",
        "sanity check: ransomware on PostStorageMongoDB (attack on day 6, 12:00-13:30)",
    );
    let wpd = args.windows_per_day;
    let days = [
        DayKind::Normal,     // day 0 (the paper's 07/13)
        DayKind::FlatHigh,   // day 1 (07/14): "constantly high utilization"
        DayKind::Normal,     // day 2
        DayKind::SinglePeak, // day 3 (07/16): "only one peak-hour"
        DayKind::Normal,     // day 4
        DayKind::Normal,     // day 5
        DayKind::SinglePeak, // day 6 (07/19): one peak + THE ATTACK
        DayKind::Normal,     // day 7
        DayKind::Normal,     // day 8
    ];
    let traffic = build_check_traffic(ctx, &days, 0x1900);

    // Ransomware encrypts the post store over 1.5 hours around noon, day 6.
    let attack_start = 6 * wpd + wpd / 2;
    let attack_end = attack_start + (3 * wpd) / 48; // ~1.5h of a 24h day.
    let attack = RansomwareAttack::new("PostStorageMongoDB", attack_start, attack_end)
        .with_degraded_frontend("FrontendNGINX");
    let truth = ctx.ground_truth_with(&traffic, &[&attack]);

    let config = SanityConfig::default();
    let sanity = sanity::check(
        &ctx.estimators.deeprest,
        &truth.traces,
        &truth.interner,
        &truth.metrics,
        &config,
    );

    println!("  check-period API traffic (9 days):");
    report::curve("total requests", &traffic.total_series(), 108);

    let cpu_key = MetricKey::new("PostStorageMongoDB", ResourceKind::Cpu);
    let thr_key = MetricKey::new("PostStorageMongoDB", ResourceKind::WriteThroughput);
    println!("\n  PostStorageMongoDB CPU (actual vs DeepRest-expected interval):");
    report::curve("actual", truth.metrics.get(&cpu_key).unwrap(), 108);
    let est = sanity.estimates.get(&cpu_key).unwrap();
    report::curve("expected (median)", &est.expected, 108);
    report::curve("expected (upper)", &est.upper, 108);
    println!("\n  PostStorageMongoDB write throughput anomaly score (1-D heatmap):");
    report::curve("deviation score", &sanity.per_resource[&thr_key], 108);
    println!("\n  overall ensemble anomaly score:");
    report::curve("overall score", &sanity.overall, 108);

    // DeepRest's verdict vs the pattern-based detector's.
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
        "\n  pattern-based detection flags days: {pattern_days:?} (days 1 and 3 are benign shape changes -> false alarms)"
    );
    println!("  DeepRest flags days:                {deeprest_days:?} (ground truth: attack on day 6 only)");

    println!("\n  interpretable alerts:");
    for event in &sanity.events {
        println!(
            "    Anomalous event: windows {}..{} (day {}), peak score {:.2}",
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
        "fig19",
        "ransomware sanity check",
        &serde_json::json!({
            "attack_windows": [attack_start, attack_end],
            "deeprest_flagged_days": deeprest_days,
            "pattern_detector_flagged_days": pattern_days,
            "overall_score": sanity.overall.values(),
            "events": sanity.events,
        }),
    );
}
