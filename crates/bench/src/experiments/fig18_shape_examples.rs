//! Fig. 18: the "2-peak/day → flat" shape change in detail. resrc-aware DL
//! keeps forecasting two peaks because that is all its history contains;
//! the traffic-connected estimators produce flat curves, and DeepRest also
//! gets the magnitude right.

use deeprest_workload::TrafficShape;

use super::qualitative;
use crate::{Args, ExpCtx};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::social(args);
    run_with(args, &ctx);
}

/// Runs against a prepared context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    let traffic = qualitative::one_day_query(ctx, ctx.app.default_mix(), 1.0, TrafficShape::Flat);
    qualitative::run_query(
        args,
        ctx,
        "fig18",
        "2-peak/day -> flat query traffic (same daily volume, flat shape)",
        &traffic,
    );
}
