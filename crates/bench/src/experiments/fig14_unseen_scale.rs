//! Fig. 14: CPU estimation under unseen scales of application users
//! (1x / 2x / 3x the learning-phase user base), worst case over repeated
//! queries with minor variations.

use super::sweeps::{run_cpu_sweep, Setting, REPEATS};
use crate::{Args, ExpCtx};

/// Runs the experiment.
pub(crate) fn run(args: &Args) {
    let ctx = ExpCtx::social(args);
    run_with(args, &ctx);
}

/// Runs against a prepared context (shared with `run_all`).
pub(crate) fn run_with(args: &Args, ctx: &ExpCtx) {
    let settings: Vec<Setting> = [1.0, 2.0, 3.0]
        .iter()
        .map(|&scale| Setting {
            label: format!("{scale:.0}x users"),
            queries: (0..REPEATS)
                .map(|rep| {
                    // Minor variations: jitter the user count and the seed.
                    let jitter = 1.0 + 0.08 * (rep as f64 - 1.0);
                    ctx.query_workload()
                        .with_users(args.users * scale * jitter)
                        .with_seed(args.seed ^ (0x1400 + rep as u64))
                        .generate()
                })
                .collect(),
        })
        .collect();
    run_cpu_sweep(
        args,
        ctx,
        "fig14",
        "CPU estimation with unseen scales of application users",
        &settings,
    );
}
