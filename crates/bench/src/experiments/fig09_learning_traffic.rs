//! Fig. 9: the 7-day API traffic of the application-learning phase — two
//! peak-hours per day, three representative APIs highlighted.

use deeprest_sim::apps;
use deeprest_workload::WorkloadSpec;

use crate::{report, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    report::banner(
        "fig09",
        "7-day application-learning API traffic (two peaks per day)",
    );
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(args.users, app.default_mix())
        .with_days(args.days)
        .with_windows_per_day(args.windows_per_day)
        .with_seed(args.seed)
        .generate();

    println!(
        "  {} days x {} windows/day, {} users, {:.0} total requests",
        args.days,
        args.windows_per_day,
        args.users,
        traffic.grand_total()
    );
    for api in apps::REPRESENTATIVE_APIS {
        report::curve(api, &traffic.api_series(api), 96);
    }
    report::curve("total (all 11 APIs)", &traffic.total_series(), 96);

    let composition: Vec<(String, f64)> = traffic.composition();
    println!("  composition over the period:");
    for (api, frac) in &composition {
        println!("    {api:<20} {:5.1}%", frac * 100.0);
    }

    report::dump_json(
        &args.out,
        "fig09",
        "application-learning traffic",
        &serde_json::json!({
            "total": traffic.total_series().values(),
            "composition": composition,
        }),
    );
}
