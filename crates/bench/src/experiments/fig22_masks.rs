//! Fig. 22: interpreting the learned API-aware masks — which API endpoints
//! influence which resources. The paper's four examples: MediaMongoDB
//! memory (only /uploadMedia), ComposePostService CPU and
//! PostStorageMongoDB write IOps (only /composePost), and
//! PostStorageMongoDB CPU (/composePost *and* the timeline reads).

use deeprest_core::interpret;
use deeprest_metrics::{MetricKey, ResourceKind};

use crate::ExpCtx;

/// Runs the experiment.
pub(crate) fn run(ctx: &ExpCtx) -> serde_json::Value {
    let model = &ctx.estimators.deeprest;

    let targets = [
        MetricKey::new("MediaMongoDB", ResourceKind::Memory),
        MetricKey::new("ComposePostService", ResourceKind::Cpu),
        MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops),
        MetricKey::new("PostStorageMongoDB", ResourceKind::Cpu),
    ];

    let mut json = Vec::new();
    for key in &targets {
        let attribution = interpret::api_attribution(model, key).expect("expert in scope");
        println!("\n  {key}: normalized API influence");
        for (api, weight) in attribution.weights.iter().take(6) {
            let bar: String = "#".repeat((weight * 30.0).round() as usize);
            println!("    {api:<20} {weight:5.2} {bar}");
        }
        println!("    top invocation paths by mask weight:");
        for (path, w) in interpret::top_paths(model, key, 3).expect("expert in scope") {
            println!("      ({w:.2}) {path}");
        }
        json.push(serde_json::json!({
            "resource": key.to_string(),
            "weights": attribution.weights,
        }));
    }
    serde_json::Value::Array(json)
}
