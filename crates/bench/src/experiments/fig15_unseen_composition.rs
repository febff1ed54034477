//! Fig. 15: CPU estimation under seen vs unseen API compositions (e.g. a
//! holiday shifting users from posting to reading).

use super::mix_with;
use super::sweeps::{run_cpu_sweep, Setting, REPEATS};
use crate::ExpCtx;

/// Runs the experiment.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let args = &ctx.args;
    // Seen: the learning mix. Unseen: the paper's example of 10% compose /
    // 85% read / 5% upload, with small per-repeat perturbations.
    let seen = Setting {
        label: "seen composition (learning mix)".to_owned(),
        queries: (0..REPEATS)
            .map(|rep| {
                ctx.query_workload()
                    .with_seed(args.seed ^ (0x1500 + rep as u64))
                    .generate()
            })
            .collect(),
    };
    let unseen = Setting {
        label: "unseen composition (10% compose / 85% read / 5% upload)".to_owned(),
        queries: (0..REPEATS)
            .map(|rep| {
                let shift = 0.03 * (rep as f64 - 1.0);
                let mix = mix_with(
                    &ctx.app,
                    &[
                        ("/composePost", 0.10 + shift),
                        ("/readUserTimeline", 0.85 - shift),
                        ("/uploadMedia", 0.05),
                    ],
                );
                ctx.query_workload()
                    .with_mix(mix)
                    .with_seed(args.seed ^ (0x1510 + rep as u64))
                    .generate()
            })
            .collect(),
    };
    run_cpu_sweep(ctx, &[seen, unseen])
}
