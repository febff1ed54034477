//! §6 transfer learning: warm-starting a new application's experts from a
//! model trained on a different application. The paper's Fig. 21 analysis
//! motivates this ("convergence can be accelerated from strategically
//! selected initial parameters"); here we train the hotel reservation
//! system from scratch vs warm-started from the social network and compare
//! learning curves.

use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, SimConfig};
use deeprest_workload::WorkloadSpec;

use crate::{filter_metrics, focus_scope, report, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    report::banner(
        "transfer",
        "transfer learning: social network -> hotel reservation warm start",
    );

    // Source: social network focus model.
    let social = apps::social_network();
    let social_traffic = WorkloadSpec::new(args.users, social.default_mix())
        .with_days(args.days)
        .with_windows_per_day(args.windows_per_day)
        .with_seed(args.seed)
        .generate();
    let social_learn = simulate(
        &social,
        &social_traffic,
        &SimConfig::default().with_seed(args.seed ^ 0xa5a5),
    );
    let social_scope = focus_scope(&social);
    let config = DeepRestConfig::default()
        .with_hidden(args.hidden)
        .with_epochs(args.epochs)
        .with_seed(args.seed);
    let (source, src_rep) = DeepRest::fit(
        &social_learn.traces,
        &filter_metrics(&social_learn.metrics, &social_scope),
        &social_learn.interner,
        config.clone().with_scope(social_scope),
    );
    println!(
        "  source model: {} social-network experts, final loss {:.4}",
        src_rep.expert_count,
        src_rep.epoch_losses.last().unwrap()
    );

    // Target: hotel reservation with a *short* learning budget, where a
    // good initialization matters most.
    let hotel = apps::hotel_reservation();
    let hotel_traffic = WorkloadSpec::new(args.users, hotel.default_mix())
        .with_days(2)
        .with_windows_per_day(args.windows_per_day)
        .with_seed(args.seed ^ 0x7001)
        .generate();
    let hotel_learn = simulate(
        &hotel,
        &hotel_traffic,
        &SimConfig::default().with_seed(args.seed ^ 0x7002),
    );
    let hotel_scope: Vec<MetricKey> = vec![
        MetricKey::new("FrontendService", ResourceKind::Cpu),
        MetricKey::new("SearchService", ResourceKind::Cpu),
        MetricKey::new("ProfileService", ResourceKind::Cpu),
        MetricKey::new("ReserveMongoDB", ResourceKind::WriteIops),
        MetricKey::new("ReserveMongoDB", ResourceKind::WriteThroughput),
        MetricKey::new("ReserveMongoDB", ResourceKind::Cpu),
    ];
    let hotel_metrics = filter_metrics(&hotel_learn.metrics, &hotel_scope);
    let short = config
        .clone()
        .with_epochs(8)
        .with_scope(hotel_scope.clone());

    let (_, cold) = DeepRest::fit(
        &hotel_learn.traces,
        &hotel_metrics,
        &hotel_learn.interner,
        short.clone(),
    );
    let (_, warm) = DeepRest::fit_transferred(
        &hotel_learn.traces,
        &hotel_metrics,
        &hotel_learn.interner,
        short,
        &source,
    );

    println!("\n  hotel-reservation learning curves (8 epochs, 2 learning days):");
    println!("    epoch   cold-start   warm-start");
    for (e, (c, w)) in cold
        .epoch_losses
        .iter()
        .zip(warm.epoch_losses.iter())
        .enumerate()
    {
        println!("    {e:>5} {c:>12.4} {w:>12.4}");
    }
    let c_final = *cold.epoch_losses.last().unwrap();
    let w_final = *warm.epoch_losses.last().unwrap();
    println!(
        "\n  final loss: cold {c_final:.4} vs warm {w_final:.4} ({})",
        if w_final < 0.95 * c_final {
            "warm start converges faster, as §6 anticipates"
        } else {
            "difference is marginal at this budget — Adam adapts quickly from any init; see EXPERIMENTS.md"
        }
    );
    report::dump_json(
        &args.out,
        "transfer",
        "transfer learning warm start",
        &serde_json::json!({
            "cold_epoch_losses": cold.epoch_losses,
            "warm_epoch_losses": warm.epoch_losses,
        }),
    );
}
