//! Fig. 18: the "2-peak/day → flat" shape change in detail. resrc-aware DL
//! keeps forecasting two peaks because that is all its history contains;
//! the traffic-connected estimators produce flat curves, and DeepRest also
//! gets the magnitude right.

use deeprest_workload::TrafficShape;

use super::qualitative;
use crate::ExpCtx;

/// Runs the experiment.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let traffic = qualitative::one_day_query(ctx, ctx.app.default_mix(), 1.0, TrafficShape::Flat);
    qualitative::run_query(ctx, &traffic)
}
