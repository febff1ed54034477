//! Table 1: trace-synthesizer quality across the six query settings. The
//! synthesized traces are compared against the ground-truth traces captured
//! by actually running each query, as per-window path-count vectors
//! aggregated to two-hour buckets (aggregation removes the Poisson arrival
//! noise that neither side can predict; the synthesizer only owes the
//! operator the right *distribution*).

use deeprest_core::{FeatureSpace, TraceSynthesizer};
use deeprest_metrics::eval::count_vector_accuracy;
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, SimConfig};
use deeprest_workload::{ApiTraffic, TrafficShape, WorkloadSpec};

use super::mix_with;
use crate::{report, Args};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    report::banner("table1", "trace synthesizer quality (six query settings)");
    let app = apps::social_network();
    let sim_cfg = SimConfig::default().with_seed(args.seed ^ 0xa5a5);

    let learn = |shape: TrafficShape| {
        let traffic = WorkloadSpec::new(args.users, app.default_mix())
            .with_days(args.days)
            .with_windows_per_day(args.windows_per_day)
            .with_seed(args.seed)
            .with_shape(shape)
            .generate();
        simulate(&app, &traffic, &sim_cfg)
    };
    let learn_two_peak = learn(TrafficShape::TwoPeak);
    let learn_flat = learn(TrafficShape::Flat);

    let query = |users: f64, mix: Vec<(String, f64)>, shape: TrafficShape, salt: u64| {
        WorkloadSpec::new(users, mix)
            .with_days(1)
            .with_windows_per_day(args.windows_per_day)
            .with_seed(args.seed ^ salt)
            .with_shape(shape)
            .generate()
    };
    let unseen_mix = mix_with(
        &app,
        &[
            ("/composePost", 0.10),
            ("/readUserTimeline", 0.85),
            ("/uploadMedia", 0.05),
        ],
    );

    // (scenario label, learning phase, query traffic).
    let settings: Vec<(&str, &deeprest_sim::engine::SimOutput, ApiTraffic)> = vec![
        (
            "unseen scale 1x",
            &learn_two_peak,
            query(args.users, app.default_mix(), TrafficShape::TwoPeak, 0x1a),
        ),
        (
            "unseen scale 2x",
            &learn_two_peak,
            query(
                args.users * 2.0,
                app.default_mix(),
                TrafficShape::TwoPeak,
                0x1b,
            ),
        ),
        (
            "unseen scale 3x",
            &learn_two_peak,
            query(
                args.users * 3.0,
                app.default_mix(),
                TrafficShape::TwoPeak,
                0x1c,
            ),
        ),
        (
            "unseen API composition",
            &learn_two_peak,
            query(args.users, unseen_mix, TrafficShape::TwoPeak, 0x1d),
        ),
        (
            "2-peak/day -> flat",
            &learn_two_peak,
            query(args.users, app.default_mix(), TrafficShape::Flat, 0x1e),
        ),
        (
            "flat -> 2-peak/day",
            &learn_flat,
            query(args.users, app.default_mix(), TrafficShape::TwoPeak, 0x1f),
        ),
    ];

    let bucket = (args.windows_per_day / 12).max(1); // Two-hour buckets.
    let mut json = Vec::new();
    println!("  {:<28} {:>14}", "query scenario", "synthesis qual.");
    for (label, learn_out, traffic) in settings {
        let space = FeatureSpace::construct(&learn_out.traces);
        let synth = TraceSynthesizer::learn(&learn_out.traces);

        // Ground truth: actually run the query.
        let truth = simulate(
            &app,
            &traffic,
            &sim_cfg.clone().with_seed(sim_cfg.seed ^ 0x77),
        );
        let synthetic = synth.synthesize(&traffic, &learn_out.interner, args.seed ^ 0x42);

        let actual_features = bucketize(&space.extract_all(&truth.traces), bucket);
        let synth_features = bucketize(&space.extract_all(&synthetic), bucket);
        let accuracy = count_vector_accuracy(&actual_features, &synth_features);
        println!("  {label:<28} {accuracy:13.2}%");
        json.push(serde_json::json!({ "scenario": label, "accuracy_pct": accuracy }));
    }
    report::dump_json(&args.out, "table1", "trace synthesizer quality", &json);
}

/// Sums consecutive `bucket`-sized groups of per-window count vectors.
fn bucketize(windows: &[Vec<f32>], bucket: usize) -> Vec<Vec<f64>> {
    windows
        .chunks(bucket)
        .map(|chunk| {
            let dim = chunk.first().map_or(0, Vec::len);
            let mut acc = vec![0.0f64; dim];
            for w in chunk {
                for (a, &v) in acc.iter_mut().zip(w.iter()) {
                    *a += f64::from(v);
                }
            }
            acc
        })
        .collect()
}
