//! Fig. 13: example one-day query API traffic for the three business
//! scenarios — unseen user scales, unseen API composition, unseen traffic
//! shape. Workload-only; no training involved.

use deeprest_sim::apps;
use deeprest_workload::{TrafficShape, WorkloadSpec};

use super::mix_with;
use crate::{report, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    report::banner("fig13", "example query traffic for the three scenarios");
    let app = apps::social_network();
    let base = |users: f64| {
        WorkloadSpec::new(users, app.default_mix())
            .with_days(1)
            .with_windows_per_day(args.windows_per_day)
            .with_seed(args.seed ^ 0x13)
    };

    println!("  (a) unseen scales of application users:");
    for scale in [1.0, 2.0, 3.0] {
        let t = base(args.users * scale).generate();
        report::curve(&format!("{scale:.0}x users"), &t.total_series(), 96);
    }

    println!("\n  (b) unseen API composition (10% compose / 85% read / 5% upload):");
    let seen = base(args.users).generate();
    report::curve("seen mix: total", &seen.total_series(), 96);
    let unseen_mix = mix_with(
        &app,
        &[
            ("/composePost", 0.10),
            ("/readUserTimeline", 0.85),
            ("/uploadMedia", 0.05),
        ],
    );
    let unseen = base(args.users).with_mix(unseen_mix).generate();
    for api in apps::REPRESENTATIVE_APIS {
        report::curve(&format!("unseen mix: {api}"), &unseen.api_series(api), 96);
    }

    println!("\n  (c) unseen traffic shape (flat vs the learned two peaks):");
    let flat = base(args.users).with_shape(TrafficShape::Flat).generate();
    report::curve("two-peak (learned)", &seen.total_series(), 96);
    report::curve("flat (query)", &flat.total_series(), 96);

    report::dump_json(
        &args.out,
        "fig13",
        "example query traffic",
        &serde_json::json!({
            "scales": [1.0, 2.0, 3.0],
            "seen_total": seen.total_series().values(),
            "flat_total": flat.total_series().values(),
            "unseen_mix_composition": unseen.composition(),
        }),
    );
}
