//! Fig. 16: CPU estimation under unseen traffic shapes, both directions —
//! an application that learned two-peak days queried with flat traffic
//! (`fig16a`), and an application that learned flat days queried with
//! two-peak traffic (`fig16b`).

use deeprest_workload::TrafficShape;

use super::sweeps::{run_cpu_sweep, Setting, REPEATS};
use crate::{ExpCtx, Phase};

/// Runs the experiment: queries the context with the shape it did not
/// learn.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let (label, shape, salt) = match ctx.phase {
        Phase::SocialFlat => ("flat -> 2-peak/day", TrafficShape::TwoPeak, 0x1610),
        Phase::Social | Phase::Hotel => ("2-peak/day -> flat", TrafficShape::Flat, 0x1600),
    };
    let settings = [Setting {
        label: label.to_owned(),
        queries: (0..REPEATS)
            .map(|rep| {
                ctx.query_workload()
                    .with_shape(shape.clone())
                    .with_seed(ctx.args.seed ^ (salt + rep as u64))
                    .generate()
            })
            .collect(),
    }];
    run_cpu_sweep(ctx, &settings)
}
