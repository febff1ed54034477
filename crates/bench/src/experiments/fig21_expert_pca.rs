//! Fig. 21: PCA of the experts' application-independent GRU parameters.
//! Experts responsible for MongoDB components should form a cluster even
//! though they serve different roles — the paper's transfer-learning
//! motivation. We train a wider swarm (all six MongoDB stores plus six
//! services) and report both the 2-D projection and a quantitative
//! clustering measure (mean pairwise distance within MongoDB experts vs
//! across all experts).

use deeprest_core::{interpret, DeepRest, DeepRestConfig};
use deeprest_metrics::{MetricKey, ResourceKind};
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, SimConfig};
use deeprest_workload::WorkloadSpec;

use crate::{filter_metrics, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) -> serde_json::Value {
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(args.users, app.default_mix())
        .with_days(args.days)
        .with_windows_per_day(args.windows_per_day)
        .with_seed(args.seed)
        .generate();
    let sim_cfg = SimConfig::default().with_seed(args.seed ^ 0xa5a5);
    let learn = simulate(&app, &traffic, &sim_cfg);

    // A wider swarm: all resources of every MongoDB store + the CPU/memory
    // of six services.
    let mut scope: Vec<MetricKey> = Vec::new();
    for comp in app.components.iter().filter(|c| c.stateful) {
        for &r in ResourceKind::for_component(true) {
            scope.push(MetricKey::new(&comp.name, r));
        }
    }
    for comp in [
        "FrontendNGINX",
        "ComposePostService",
        "UserTimelineService",
        "HomeTimelineService",
        "SocialGraphService",
        "TextService",
    ] {
        for &r in ResourceKind::for_component(false) {
            scope.push(MetricKey::new(comp, r));
        }
    }

    let config = DeepRestConfig::default()
        .with_hidden(args.hidden)
        .with_epochs(args.epochs)
        .with_seed(args.seed)
        .with_scope(scope.clone());
    let (model, rep) = DeepRest::fit(
        &learn.traces,
        &filter_metrics(&learn.metrics, &scope),
        &learn.interner,
        config,
    );
    println!(
        "  trained {} experts in {:.1}s",
        rep.expert_count, rep.train_seconds
    );

    let pca = interpret::expert_pca(&model, 2);
    println!(
        "  explained variance: PC1 {:.1}%  PC2 {:.1}%",
        pca.explained_variance_ratio[0] * 100.0,
        pca.explained_variance_ratio[1] * 100.0
    );
    println!("\n  2-D projection (x = PC1, y = PC2):");
    for p in &pca.projections {
        let tag = if p.key.component.contains("MongoDB") {
            "M"
        } else {
            "."
        };
        println!(
            "    [{tag}] {:<42} ({:9.3}, {:9.3})",
            p.key.to_string(),
            p.coords[0],
            p.coords[1]
        );
    }

    let is_mongo = |k: &MetricKey| k.component.contains("MongoDB");
    let mongo_dist = pca.mean_pairwise_distance(is_mongo);
    let all_dist = pca.mean_pairwise_distance(|_| true);
    println!("\n  clustering (mean pairwise distance; lower = tighter):");
    println!("    all experts                {all_dist:8.3}");
    println!(
        "    MongoDB experts            {mongo_dist:8.3}  (paper's grouping; ratio {:.2})",
        mongo_dist / all_dist.max(1e-12)
    );
    let mut by_resource = Vec::new();
    for resource in ResourceKind::ALL {
        let d = pca.mean_pairwise_distance(|k| k.resource == resource);
        println!(
            "    all {:<22} {d:8.3}  (ratio {:.2})",
            format!("{resource} experts"),
            d / all_dist.max(1e-12)
        );
        by_resource.push((resource.label(), d));
    }
    println!(
        "  => experts that learned similar remember/forget dynamics cluster. In this\n     substrate the dominant grouping is the resource type (CPU experts are the\n     tightest); the paper's MongoDB grouping reflects its 5-second-window store\n     dynamics — see EXPERIMENTS.md for the discussion."
    );

    serde_json::json!({
        "explained_variance_ratio": pca.explained_variance_ratio,
        "projections": pca.projections,
        "mongo_mean_pairwise_distance": mongo_dist,
        "all_mean_pairwise_distance": all_dist,
        "by_resource_mean_pairwise_distance": by_resource,
    })
}
