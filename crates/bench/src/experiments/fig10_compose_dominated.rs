//! Fig. 10: estimation under /composePost-dominated query traffic — twice
//! the historical volume, the growth concentrated on /composePost. CPU of
//! the ComposePostService and write IOps of the PostStorageMongoDB should
//! surge, and every traffic-aware estimator should see it coming;
//! resrc-aware DL cannot.

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
    let mix = mix_with(&ctx.app, &[("/composePost", 0.55)]);
    let traffic = qualitative::one_day_query(ctx, mix, 2.0, TrafficShape::TwoPeak);
    qualitative::run_query(
        args,
        ctx,
        "fig10",
        "/composePost-dominated query (2x volume, growth on composePost)",
        &traffic,
    );
}
