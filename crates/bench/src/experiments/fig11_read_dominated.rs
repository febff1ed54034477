//! Fig. 11: estimation under /readTimeline-dominated query traffic. The
//! total volume matches Fig. 10, but reads do not touch the
//! ComposePostService at all and issue no writes on the PostStorageMongoDB:
//! simple scaling overestimates both, component-aware scaling fixes the CPU
//! but still overestimates the write IOps, and only DeepRest gets both
//! right.

use deeprest_workload::TrafficShape;

use super::{mix_with, qualitative};
use crate::{Args, ExpCtx};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::social(args);
    run_with(args, &ctx);
}

/// Runs against a prepared context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    let mix = mix_with(
        &ctx.app,
        &[("/readUserTimeline", 0.70), ("/composePost", 0.05)],
    );
    let traffic = qualitative::one_day_query(ctx, mix, 2.0, TrafficShape::TwoPeak);
    qualitative::run_query(
        args,
        ctx,
        "fig11",
        "/readTimeline-dominated query (2x volume, growth on readTimeline)",
        &traffic,
    );
}
