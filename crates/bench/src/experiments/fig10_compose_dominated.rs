//! Fig. 10: estimation under /composePost-dominated query traffic — twice
//! the historical volume, the growth concentrated on /composePost. CPU of
//! the ComposePostService and write IOps of the PostStorageMongoDB should
//! surge, and every traffic-aware estimator should see it coming;
//! resrc-aware DL cannot.

use deeprest_workload::TrafficShape;

use super::{mix_with, qualitative};
use crate::ExpCtx;

/// Runs the experiment.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let mix = mix_with(&ctx.app, &[("/composePost", 0.55)]);
    let traffic = qualitative::one_day_query(ctx, mix, 2.0, TrafficShape::TwoPeak);
    qualitative::run_query(ctx, &traffic)
}
