//! One module per reproduced table/figure; each exposes `run(&Args)`.
//!
//! [`EXPERIMENTS`] maps the ids `deeprest experiment <id>` accepts to those
//! entry points; `all` is [`run_all`], every experiment in paper order.

pub mod ablations;
pub mod fig09_learning_traffic;
pub mod fig10_compose_dominated;
pub mod fig11_read_dominated;
pub mod fig12_heatmap;
pub mod fig13_query_traffic;
pub mod fig14_unseen_scale;
pub mod fig15_unseen_composition;
pub mod fig16_unseen_shape;
pub mod fig17_hotel_3x;
pub mod fig18_shape_examples;
pub mod fig19_ransomware;
pub mod fig20_cryptojacking;
pub mod fig21_expert_pca;
pub mod fig22_masks;
pub mod scalability;
pub mod table1_synthesizer;
pub mod transfer;

mod checkdays;
mod qualitative;
mod sweeps;

use deeprest_sim::AppSpec;
use deeprest_telemetry as telemetry;
use deeprest_tensor::Pool;
use deeprest_workload::TrafficShape;

use crate::{Args, ExpCtx};

/// An experiment's entry point.
pub type Run = fn(&Args);

/// Every id `deeprest experiment <id>` accepts with its entry point, in
/// paper order; the last, `all`, regenerates everything behind
/// EXPERIMENTS.md in one run.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig09", fig09_learning_traffic::run),
    ("fig10", fig10_compose_dominated::run),
    ("fig11", fig11_read_dominated::run),
    ("fig12", fig12_heatmap::run),
    ("fig13", fig13_query_traffic::run),
    ("table1", table1_synthesizer::run),
    ("fig14", fig14_unseen_scale::run),
    ("fig15", fig15_unseen_composition::run),
    ("fig16", fig16_unseen_shape::run),
    ("fig17", fig17_hotel_3x::run),
    ("fig18", fig18_shape_examples::run),
    ("fig19", fig19_ransomware::run),
    ("fig20", fig20_cryptojacking::run),
    ("fig21", fig21_expert_pca::run),
    ("fig22", fig22_masks::run),
    ("ablations", ablations::run),
    ("transfer", transfer::run),
    ("scalability", scalability::run),
    ("all", run_all),
];

/// Runs one experiment under a `bench.<id>` span, so an enabled JSONL sink
/// yields a per-figure wall-clock manifest.
fn spanned(id: &str, f: impl FnOnce()) {
    let _span = telemetry::span(format!("bench.{id}"));
    f();
}

/// Runs every experiment in paper order, reusing trained contexts where the
/// experiments share a learning phase.
pub fn run_all(args: &Args) {
    let started = std::time::Instant::now();
    let threads = args.threads.unwrap_or_else(|| Pool::global().threads());

    // Workload-only figures need no training.
    spanned("fig09", || fig09_learning_traffic::run(args));
    spanned("fig13", || fig13_query_traffic::run(args));
    spanned("table1", || table1_synthesizer::run(args));

    // The three learning phases (social two-peak, social flat for fig16b,
    // hotel for fig17) are independent, so they train concurrently; the
    // experiments themselves still run — and print — in paper order, and
    // every context is bit-identical to a serial run.
    std::thread::scope(|scope| {
        let (flat_task, hotel_task) = if threads > 1 {
            (
                Some(scope.spawn(|| ExpCtx::social_shaped(args, TrafficShape::Flat))),
                Some(scope.spawn(|| ExpCtx::hotel(args))),
            )
        } else {
            (None, None)
        };

        // One social-network context serves most experiments.
        println!("\n[training the social-network estimators ...]");
        let ctx = ExpCtx::social(args);
        println!(
            "[DeepRest: {} experts, feature dim {}, {:.1}s training]",
            ctx.estimators.report.expert_count,
            ctx.estimators.report.feature_dim,
            ctx.estimators.report.train_seconds
        );
        spanned("fig10", || fig10_compose_dominated::run_with(args, &ctx));
        spanned("fig11", || fig11_read_dominated::run_with(args, &ctx));
        spanned("fig12", || fig12_heatmap::run_with(args, &ctx));
        spanned("fig14", || fig14_unseen_scale::run_with(args, &ctx));
        spanned("fig15", || fig15_unseen_composition::run_with(args, &ctx));
        spanned("fig16", || fig16_unseen_shape::run_with(args, &ctx));
        spanned("fig18", || fig18_shape_examples::run_with(args, &ctx));
        spanned("fig19", || fig19_ransomware::run_with(args, &ctx));
        spanned("fig20", || fig20_cryptojacking::run_with(args, &ctx));
        spanned("fig22", || fig22_masks::run_with(args, &ctx));
        spanned("ablations", || ablations::run_with(args, &ctx));

        // The flat-learning direction of Fig. 16 needs its own context.
        let flat_ctx = match flat_task {
            Some(task) => task.join().expect("flat-context training panicked"),
            None => {
                println!("\n[training the flat-learning context for fig16b ...]");
                ExpCtx::social_shaped(args, TrafficShape::Flat)
            }
        };
        spanned("fig16b", || {
            fig16_unseen_shape::run_reverse_with(args, &flat_ctx);
        });

        // Hotel reservation (Fig. 17).
        let hotel_ctx = match hotel_task {
            Some(task) => task.join().expect("hotel-context training panicked"),
            None => {
                println!("\n[training the hotel-reservation estimators ...]");
                ExpCtx::hotel(args)
            }
        };
        spanned("fig17", || fig17_hotel_3x::run_with(args, &hotel_ctx));
    });

    // Wider-swarm, transfer and synthetic-dimension studies train their own
    // models.
    spanned("fig21", || fig21_expert_pca::run(args));
    spanned("transfer", || transfer::run(args));
    spanned("scalability", || scalability::run(args));

    // Drain buffered telemetry (the JSONL sink) before reporting completion.
    telemetry::flush();

    println!(
        "\nall experiments completed in {:.1} minutes; JSON dumps in {}",
        started.elapsed().as_secs_f64() / 60.0,
        args.out
    );
}

/// Builds a query API mix: the named endpoints get the given absolute
/// shares; every other endpoint splits the remaining mass proportionally to
/// its default weight.
///
/// # Panics
///
/// Panics if the overrides exceed mass 1.0 or name unknown endpoints.
pub fn mix_with(app: &AppSpec, overrides: &[(&str, f64)]) -> Vec<(String, f64)> {
    let override_mass: f64 = overrides.iter().map(|(_, w)| w).sum();
    assert!(
        override_mass <= 1.0 + 1e-9,
        "mix_with: overrides exceed total mass"
    );
    for (api, _) in overrides {
        assert!(app.api(api).is_some(), "mix_with: unknown endpoint {api}");
    }
    let rest: Vec<(String, f64)> = app
        .default_mix()
        .into_iter()
        .filter(|(api, _)| !overrides.iter().any(|(o, _)| o == api))
        .collect();
    let rest_mass: f64 = rest.iter().map(|(_, w)| w).sum();
    let remaining = (1.0 - override_mass).max(0.0);

    let mut mix: Vec<(String, f64)> = overrides
        .iter()
        .map(|(api, w)| ((*api).to_owned(), *w))
        .collect();
    for (api, w) in rest {
        mix.push((api, w / rest_mass.max(1e-12) * remaining));
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_sim::apps;

    #[test]
    fn mix_with_preserves_total_mass() {
        let app = apps::social_network();
        let mix = mix_with(&app, &[("/composePost", 0.55)]);
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(mix[0], ("/composePost".to_owned(), 0.55));
        assert_eq!(mix.len(), app.apis.len());
    }

    #[test]
    fn mix_with_multiple_overrides() {
        let app = apps::social_network();
        let mix = mix_with(
            &app,
            &[
                ("/composePost", 0.10),
                ("/readUserTimeline", 0.85),
                ("/uploadMedia", 0.05),
            ],
        );
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Everything else gets zero mass.
        for (api, w) in &mix[3..] {
            assert!(*w < 1e-9, "{api} got mass {w}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn mix_with_rejects_unknown_api() {
        let app = apps::social_network();
        let _ = mix_with(&app, &[("/ghost", 0.5)]);
    }
}
