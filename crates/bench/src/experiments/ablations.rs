//! Ablations of the design choices DESIGN.md calls out: the API-aware mask
//! (Eq. 1), the cross-component attention (Eq. 3), the linear skip path
//! (our documented architectural addition), and the mask L1 regularizer.
//! Each variant is trained identically and evaluated on an unseen
//! composition-shift query at 2x scale.

use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_metrics::eval::{interval_coverage, mape};
use deeprest_metrics::{MetricKey, ResourceKind};

use super::mix_with;
use crate::{filter_metrics, focus_scope, ExpCtx};

/// Runs the ablation study on the context's learning data; each variant
/// trains its own model.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let args = &ctx.args;
    let scope = focus_scope(&ctx.app);
    let metrics = filter_metrics(&ctx.learn.metrics, &scope);

    let base = DeepRestConfig::default()
        .with_hidden(args.hidden)
        .with_epochs(args.epochs)
        .with_seed(args.seed)
        .with_scope(scope.clone());
    let variants: Vec<(&str, DeepRestConfig)> = vec![
        ("full model", base.clone()),
        ("- API-aware mask", {
            let mut c = base.clone();
            c.api_mask = false;
            c
        }),
        ("- cross-component attention", {
            let mut c = base.clone();
            c.attention = false;
            c
        }),
        ("- linear skip path", {
            let mut c = base.clone();
            c.linear_skip = false;
            c
        }),
        ("- mask L1 regularizer", {
            let mut c = base.clone();
            c.mask_l1 = 0.0;
            c
        }),
    ];

    // Three evaluation queries: an unseen same-scale day (where interval
    // calibration is meaningful), a composition shift, and a 3x scale
    // stress (where extrapolation machinery matters).
    let q_same = ctx
        .query_workload()
        .with_seed(args.seed ^ 0xab10)
        .generate();
    let mix = mix_with(
        &ctx.app,
        &[("/readUserTimeline", 0.70), ("/composePost", 0.08)],
    );
    let q_mix = ctx
        .query_workload()
        .with_users(args.users * 2.0)
        .with_mix(mix)
        .with_seed(args.seed ^ 0xab1a)
        .generate();
    let q_scale = ctx
        .query_workload()
        .with_users(args.users * 3.0)
        .with_seed(args.seed ^ 0xab1b)
        .generate();
    let t_same = ctx.ground_truth(&q_same);
    let t_mix = ctx.ground_truth(&q_mix);
    let t_scale = ctx.ground_truth(&q_scale);

    let eval_keys = [
        MetricKey::new("FrontendNGINX", ResourceKind::Cpu),
        MetricKey::new("ComposePostService", ResourceKind::Cpu),
        MetricKey::new("UserTimelineService", ResourceKind::Cpu),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops),
    ];
    let score = |model: &DeepRest, truth: &deeprest_sim::SimOutput| -> (f64, f64) {
        let est = model.estimate_from_traces(&truth.traces, &truth.interner);
        let mut mape_sum = 0.0;
        let mut cov_sum = 0.0;
        for key in &eval_keys {
            let actual = truth.metrics.get(key).expect("simulated");
            let pred = est.get(key).expect("in scope");
            mape_sum += mape(actual, &pred.expected);
            cov_sum += interval_coverage(actual, &pred.lower, &pred.upper);
        }
        (
            mape_sum / eval_keys.len() as f64,
            cov_sum / eval_keys.len() as f64,
        )
    };

    let mut json = Vec::new();
    println!(
        "  {:<28} {:>9} {:>9} {:>9} {:>9}   (MAPE / coverage over {} resources)",
        "variant",
        "1x MAPE",
        "1x cov",
        "mix MAPE",
        "3x MAPE",
        eval_keys.len()
    );
    for (label, config) in variants {
        let (model, rep) = DeepRest::fit(&ctx.learn.traces, &metrics, &ctx.learn.interner, config);
        let (m_same, cov_same) = score(&model, &t_same);
        let (m_mix, _) = score(&model, &t_mix);
        let (m_scale, _) = score(&model, &t_scale);
        println!(
            "  {label:<28} {m_same:8.2}% {:>8.0}% {m_mix:8.2}% {m_scale:8.2}%   (trained {:.0}s)",
            cov_same * 100.0,
            rep.train_seconds
        );
        json.push(serde_json::json!({
            "variant": label,
            "same_scale_mape": m_same,
            "same_scale_coverage": cov_same,
            "composition_shift_mape": m_mix,
            "scale_3x_mape": m_scale,
        }));
    }
    println!("  coverage target: the delta=0.90 interval should cover ~90% of windows on the in-scale day");
    serde_json::Value::Array(json)
}
