//! Fig. 16: CPU estimation under unseen traffic shapes, both directions —
//! an application that learned two-peak days queried with flat traffic, and
//! an application that learned flat days queried with two-peak traffic.

use deeprest_workload::TrafficShape;

use super::sweeps::{run_cpu_sweep, Setting, REPEATS};
use crate::{Args, ExpCtx};

/// Runs the experiment (trains a second, flat-learning context for the
/// reverse direction).
pub(crate) fn run(args: &Args) {
    let two_peak_ctx = ExpCtx::social(args);
    run_with(args, &two_peak_ctx);

    let flat_ctx = ExpCtx::social_shaped(args, TrafficShape::Flat);
    run_reverse_with(args, &flat_ctx);
}

/// The "2-peak/day -> flat" direction against a two-peak-trained context.
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    let settings = [Setting {
        label: "2-peak/day -> flat".to_owned(),
        queries: (0..REPEATS)
            .map(|rep| {
                ctx.query_workload()
                    .with_shape(TrafficShape::Flat)
                    .with_seed(args.seed ^ (0x1600 + rep as u64))
                    .generate()
            })
            .collect(),
    }];
    run_cpu_sweep(
        args,
        ctx,
        "fig16a",
        "CPU estimation with unseen traffic shape (2-peak -> flat)",
        &settings,
    );
}

/// The "flat -> 2-peak/day" direction against a flat-trained context.
pub(crate) fn run_reverse_with(args: &Args, flat_ctx: &ExpCtx) {
    let settings = [Setting {
        label: "flat -> 2-peak/day".to_owned(),
        queries: (0..REPEATS)
            .map(|rep| {
                flat_ctx
                    .query_workload()
                    .with_shape(TrafficShape::TwoPeak)
                    .with_seed(args.seed ^ (0x1610 + rep as u64))
                    .generate()
            })
            .collect(),
    }];
    run_cpu_sweep(
        args,
        flat_ctx,
        "fig16b",
        "CPU estimation with unseen traffic shape (flat -> 2-peak)",
        &settings,
    );
}
