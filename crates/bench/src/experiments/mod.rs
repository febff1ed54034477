//! One module per reproduced table/figure; each exposes one entry
//! function that returns its record's results.
//!
//! The `EXPERIMENTS` table is the only list of ids. [`run`] does what every
//! experiment shares: it builds each learning phase an entry names at most
//! once, opens the `bench.<id>` span, prints the banner and writes
//! `<out>/<id>.json`; after `all`, it also writes `<out>/EXPERIMENTS.json`,
//! the record CI checks the paper tables against.

pub(crate) mod ablations;
pub(crate) mod fig09_learning_traffic;
pub(crate) mod fig10_compose_dominated;
pub(crate) mod fig11_read_dominated;
pub(crate) mod fig12_heatmap;
pub(crate) mod fig13_query_traffic;
pub(crate) mod fig14_unseen_scale;
pub(crate) mod fig15_unseen_composition;
pub(crate) mod fig16_unseen_shape;
pub(crate) mod fig17_hotel_3x;
pub(crate) mod fig18_shape_examples;
pub(crate) mod fig19_ransomware;
pub(crate) mod fig20_cryptojacking;
pub(crate) mod fig21_expert_pca;
pub(crate) mod fig22_masks;
pub(crate) mod scalability;
pub(crate) mod table1_synthesizer;
pub(crate) mod transfer;

mod checkdays;
mod qualitative;
mod sweeps;

use std::thread::ScopedJoinHandle;
use std::time::Instant;

use deeprest_sim::AppSpec;
use deeprest_telemetry as telemetry;
use deeprest_tensor::Pool;
use serde_json::Value;

use crate::{report, Args, ExpCtx, Phase};

/// What an experiment reads, and its entry function.
enum Entry {
    /// Builds what it needs, if anything, from the options.
    Own(fn(&Args) -> Value),
    /// Reads the trained context of one learning phase.
    Trained(Phase, fn(&ExpCtx) -> Value),
    /// Like [`Entry::Own`], but its record holds wall-clock time, so it
    /// stays out of `EXPERIMENTS.json`.
    Timed(fn(&Args) -> Value),
}

/// `(id, title, entry)` for every id `deeprest experiment <id>` accepts,
/// in the order `all` runs them: the workload-only figures, then those on
/// the social network's two-peak phase, then the other two phases, then
/// the studies that train their own models.
const EXPERIMENTS: &[(&str, &str, Entry)] = &[
    (
        "fig09",
        "application-learning traffic",
        Entry::Own(fig09_learning_traffic::run),
    ),
    (
        "fig13",
        "example query traffic",
        Entry::Own(fig13_query_traffic::run),
    ),
    (
        "table1",
        "trace synthesizer quality",
        Entry::Own(table1_synthesizer::run),
    ),
    (
        "fig10",
        "/composePost-dominated query (2x volume, growth on composePost)",
        Entry::Trained(Phase::Social, fig10_compose_dominated::run),
    ),
    (
        "fig11",
        "/readTimeline-dominated query (2x volume, growth on readTimeline)",
        Entry::Trained(Phase::Social, fig11_read_dominated::run),
    ),
    (
        "fig12",
        "estimation quality heatmaps",
        Entry::Trained(Phase::Social, fig12_heatmap::run),
    ),
    (
        "fig14",
        "CPU estimation with unseen scales of application users",
        Entry::Trained(Phase::Social, fig14_unseen_scale::run),
    ),
    (
        "fig15",
        "CPU estimation with unseen API compositions",
        Entry::Trained(Phase::Social, fig15_unseen_composition::run),
    ),
    (
        "fig16a",
        "CPU estimation with unseen traffic shape (2-peak -> flat)",
        Entry::Trained(Phase::Social, fig16_unseen_shape::run),
    ),
    (
        "fig18",
        "2-peak/day -> flat query traffic (same daily volume, flat shape)",
        Entry::Trained(Phase::Social, fig18_shape_examples::run),
    ),
    (
        "fig19",
        "ransomware sanity check",
        Entry::Trained(Phase::Social, fig19_ransomware::run),
    ),
    (
        "fig20",
        "cryptojacking sanity check",
        Entry::Trained(Phase::Social, fig20_cryptojacking::run),
    ),
    (
        "fig22",
        "API-aware mask interpretation",
        Entry::Trained(Phase::Social, fig22_masks::run),
    ),
    (
        "ablations",
        "architecture ablations",
        Entry::Trained(Phase::Social, ablations::run),
    ),
    (
        "fig16b",
        "CPU estimation with unseen traffic shape (flat -> 2-peak)",
        Entry::Trained(Phase::SocialFlat, fig16_unseen_shape::run),
    ),
    (
        "fig17",
        "hotel reservation 3x users",
        Entry::Trained(Phase::Hotel, fig17_hotel_3x::run),
    ),
    ("fig21", "expert PCA", Entry::Own(fig21_expert_pca::run)),
    (
        "transfer",
        "transfer learning warm start",
        Entry::Own(transfer::run),
    ),
    (
        "scalability",
        "model size / training / inference scaling",
        Entry::Timed(scalability::run),
    ),
];

/// The ids `deeprest experiment` accepts, in the order `all` runs them,
/// then `all`.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .map(|(id, _, _)| *id)
        .chain(["all"])
        .collect()
}

/// Runs the experiment `id`, or every experiment when `id` is `all`, and
/// writes each record to `<args.out>/<id>.json`. `all` also writes every
/// record without wall-clock time, one per line in table order, to
/// `<args.out>/EXPERIMENTS.json`.
///
/// # Panics
///
/// Panics on an id [`ids`] does not list.
pub fn run(id: &str, args: &Args) {
    let started = Instant::now();
    let selected = if id == "all" {
        EXPERIMENTS
    } else {
        let at = EXPERIMENTS
            .iter()
            .position(|(known, _, _)| *known == id)
            .unwrap_or_else(|| panic!("unknown experiment id `{id}`"));
        &EXPERIMENTS[at..=at]
    };
    let records = run_in_order(args, selected);
    if id == "all" {
        report::write(
            &args.out,
            "EXPERIMENTS.json",
            &format!("[\n{}\n]\n", records.join(",\n")),
        );
    }
    // Drain buffered telemetry (the JSONL sink) before reporting completion.
    telemetry::flush();
    if id == "all" {
        println!(
            "\nall experiments completed in {:.1} s; JSON dumps in {}",
            started.elapsed().as_secs_f64(),
            args.out
        );
    }
}

/// Runs `selected` in order and returns the one-line records of those
/// without wall-clock time.
fn run_in_order(args: &Args, selected: &[(&str, &str, Entry)]) -> Vec<String> {
    let mut phases: Vec<Phase> = Vec::new();
    for (_, _, entry) in selected {
        if let Entry::Trained(phase, _) = entry {
            if !phases.contains(phase) {
                phases.push(*phase);
            }
        }
    }
    let threads = args.threads.unwrap_or_else(|| Pool::global().threads());
    std::thread::scope(|scope| {
        // With threads to spare, every phase after the first trains
        // alongside it; the experiments still run, and print, in table
        // order, and each context is bit-identical to a serial build.
        let mut training: Vec<(Phase, ScopedJoinHandle<'_, ExpCtx>)> = if threads > 1 {
            phases
                .iter()
                .skip(1)
                .map(|&phase| (phase, scope.spawn(move || ExpCtx::new(phase, args))))
                .collect()
        } else {
            Vec::new()
        };
        let mut trained: Vec<ExpCtx> = Vec::new();
        let mut records = Vec::new();
        for (id, title, entry) in selected {
            if let Entry::Trained(phase, _) = entry {
                if !trained.iter().any(|ctx| ctx.phase == *phase) {
                    let ctx = match training.iter().position(|(p, _)| p == phase) {
                        Some(at) => training
                            .swap_remove(at)
                            .1
                            .join()
                            .expect("training panicked"),
                        None => {
                            println!("\n[training the {phase:?} estimators ...]");
                            ExpCtx::new(*phase, args)
                        }
                    };
                    trained.push(ctx);
                }
            }
            let _span = telemetry::span(format!("bench.{id}"));
            report::banner(id, title);
            let results = match entry {
                Entry::Own(run) | Entry::Timed(run) => run(args),
                Entry::Trained(phase, run) => run(trained
                    .iter()
                    .find(|ctx| ctx.phase == *phase)
                    .expect("trained above")),
            };
            let record = report::dump_json(&args.out, id, title, &results);
            if !matches!(entry, Entry::Timed(_)) {
                records.push(record);
            }
        }
        records
    })
}

/// Builds a query API mix: the named endpoints get the given absolute
/// shares; every other endpoint splits the remaining mass proportionally to
/// its default weight.
///
/// # Panics
///
/// Panics if the overrides exceed mass 1.0 or name unknown endpoints.
pub(crate) fn mix_with(app: &AppSpec, overrides: &[(&str, f64)]) -> Vec<(String, f64)> {
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
