//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root states the same tables; a unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "replay_dense",
        why: "Jaeger documents of a social-network day (~290 KB each) through import then Pipeline::ingest: the ROADMAP's named path, trace layers do most of the work",
    },
    Workload {
        name: "replay_wide",
        why: "same path on a 128-component, 256-expert app with 6 KB documents: O(E^2) core.stream dominates, import is small; an import gain must not show here",
    },
    Workload {
        name: "tenants_flood",
        why: "8 tenants behind TenantRegistry, tenant 0 submitting 10x: bypasses import, so admission, DRR scheduling, shedding and serial tenant stepping dominate",
    },
    Workload {
        name: "adapt_drift",
        why: "AdaptivePipeline under saw-tooth drift: the model is written while it is read, so a serving gain bought at the updater's cost shows",
    },
    Workload {
        name: "train_query",
        why: "the paper's offline use: DeepRest::fit on 7 days, then estimate_traffic and estimate_what_if queries; training and synthesis work, serving does none",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload on an untraced run. What an op and a window
/// are per workload is in the README's glossary. The timing bounds are the
/// contract's ceiling: on the 2-vCPU reference box the same binary drifts by
/// 10-15 % between runs minutes apart (README, "Noise"), and a bound inside
/// that would reject changes that changed nothing. Effects smaller than the
/// bound are what `compare` over ten alternating pairs is for.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "windows_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every workload on a traced run; a layer a workload bypasses
/// reads 0. Stage times are the median over ops of the layer's self time
/// within the op.
pub const PER_LAYER: [PerLayer; 68] = [
    layer("trace.jaeger.import_us", "us", Lower),
    layer("trace.jaeger.import_mb_per_s", "MB/s", Higher),
    layer("trace.jaeger.bytes_per_op", "bytes", Lower),
    layer("trace.jaeger.spans_per_op", "count", Lower),
    layer("trace.jaeger.malformed", "count", Lower),
    layer("trace.stream.assemble_us", "us", Lower),
    layer("trace.stream.late_dropped", "count", Lower),
    layer("core.features.extract_us", "us", Lower),
    layer("core.features.dim", "count", Lower),
    layer("core.features.extract_all_ms", "ms", Lower),
    layer("core.stream.step_us", "us", Lower),
    layer("core.stream.snapshot_us", "us", Lower),
    layer("core.stream.experts", "count", Lower),
    layer("core.stream.shards", "count", Higher),
    layer("core.stream.state_bytes", "bytes", Lower),
    layer("core.stream.step_flops", "flops", Lower),
    layer("serve.sanity.observe_us", "us", Lower),
    layer("serve.alert.deliver_us", "us", Lower),
    layer("serve.alert.count", "count", Lower),
    layer("serve.pipeline.ingest_us", "us", Lower),
    layer("serve.pipeline.overhead_us", "us", Lower),
    layer("serve.pipeline.stage_sum_ratio", "ratio", Higher),
    layer("serve.checkpoint.save_ms", "ms", Lower),
    layer("serve.checkpoint.restore_ms", "ms", Lower),
    layer("serve.checkpoint.bytes", "bytes", Lower),
    layer("serve.tenant.submit_ns", "ns", Lower),
    layer("serve.tenant.round_us", "us", Lower),
    layer("serve.tenant.overhead_us_per_window", "us", Lower),
    layer("serve.tenant.scaling_ratio", "ratio", Lower),
    layer("serve.tenant.submitted", "count", Higher),
    layer("serve.tenant.admitted", "count", Higher),
    layer("serve.tenant.rejected", "count", Lower),
    layer("serve.tenant.shed", "count", Lower),
    layer("serve.tenant.displaced", "count", Lower),
    layer("serve.tenant.backlog_max", "count", Lower),
    layer("serve.sched.rounds", "count", Lower),
    layer("serve.overload.transitions", "count", Lower),
    layer("adapt.pipeline.ingest_us", "us", Lower),
    layer("adapt.pipeline.update_ms", "ms", Lower),
    layer("adapt.pipeline.updates_run", "count", Higher),
    layer("adapt.pipeline.updates_failed", "count", Lower),
    layer("adapt.pipeline.watch_windows", "count", Lower),
    layer("adapt.pipeline.frozen_ratio", "ratio", Lower),
    layer("core.estimator.fit_s", "s", Lower),
    layer("core.estimator.fit_phase.feature_space_s", "s", Lower),
    layer("core.estimator.fit_phase.synthesis_s", "s", Lower),
    layer("core.estimator.fit_phase.feature_extraction_s", "s", Lower),
    layer("core.estimator.fit_phase.expert_init_s", "s", Lower),
    layer("core.estimator.fit_phase.training_s", "s", Lower),
    layer("core.estimator.query_p50_ms", "ms", Lower),
    layer("core.estimator.whatif_p50_ms", "ms", Lower),
    layer("core.estimator.predict_ms", "ms", Lower),
    layer("core.synthesizer.synthesize_ms", "ms", Lower),
    layer("tensor.pool.step_speedup_t2", "ratio", Higher),
    layer("tensor.pool.fit_speedup_t2", "ratio", Higher),
    layer("telemetry.memory_sink_overhead_pct", "%", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("share.import_pct", "%", Lower),
    layer("share.step_pct", "%", Lower),
    layer("share.update_pct", "%", Lower),
    layer("tail.op_p99_us", "us", Lower),
    layer("tail.op_count", "count", Higher),
    layer("setup.sim_s", "s", Lower),
    layer("setup.fit_s", "s", Lower),
    layer("setup.export_s", "s", Lower),
    layer("setup.import_s", "s", Lower),
    layer("failed.arrivals", "count", Lower),
    layer("failed.windows", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let doc = doc.as_object().expect("object");
        let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let rows = |key: &str| -> Vec<Vec<(String, String)>> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|row| {
                    row.as_object()
                        .expect("row object")
                        .iter()
                        .map(|(k, v)| {
                            let v = v
                                .as_str()
                                .map(str::to_owned)
                                .or_else(|| v.as_f64().map(|f| f.to_string()))
                                .expect("string or number");
                            (k.clone(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let pair = |k: &str, v: &str| (k.to_owned(), v.to_owned());
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| vec![pair("name", w.name), pair("why", w.why)])
            .collect();
        assert_eq!(rows("workloads"), workloads);
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    pair("name", m.name),
                    pair("unit", m.unit),
                    pair("better", m.better.as_str()),
                    pair("bound", &m.bound.to_string()),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    pair("name", m.name),
                    pair("unit", m.unit),
                    pair("better", m.better.as_str()),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), layers);
        assert_eq!(
            doc.get("paths").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
    }
}
