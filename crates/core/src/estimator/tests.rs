use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_tensor::ParamStore;
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};
use deeprest_workload::ApiTraffic;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{DeepRest, DeepRestConfig, TraceSynthesizer};

/// A miniature "application": one API whose per-window request count
/// directly drives one component's CPU. The expert must learn the linear
/// map count → cpu.
fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let read = i.intern("read");
    let api = i.intern("/read");
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        // Deterministic "two peak" count pattern.
        let count = 3 + ((t % 16) as i32 - 8).unsigned_abs() as usize;
        for _ in 0..count {
            traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
        }
        cpu.push(2.0 + 1.5 * count as f64);
        mem.push(64.0 + 0.5 * count as f64);
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
    (i, traces, metrics)
}

/// The first `len` learning windows as one flat update segment
/// (`TrainSegment`'s `xs`, `targets`).
fn first_segment(
    model: &DeepRest,
    (i, traces, metrics): &(Interner, WindowedTraces, MetricsRegistry),
    len: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (xs, targets) = model.training_inputs(traces, metrics, i);
    let targets = targets.iter().flat_map(|t| t[..len].iter().copied());
    (xs[..len].concat(), targets.collect())
}

fn quick_config() -> DeepRestConfig {
    DeepRestConfig {
        hidden_dim: 12,
        epochs: 60,
        subseq_len: 16,
        batch_size: 4,
        ..DeepRestConfig::default()
    }
}

#[test]
fn fit_learns_linear_count_to_cpu_map() {
    let (i, traces, metrics) = tiny_dataset(128);
    let (model, report) = DeepRest::fit(&traces, &metrics, &i, quick_config());
    assert_eq!(report.expert_count, 2);
    assert_eq!(report.feature_dim, 1);
    // Loss decreases over training.
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(last < first * 0.6, "loss {first} -> {last}");

    // In-sample estimation is accurate.
    let est = model.estimate_from_traces(&traces, &i);
    let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    let actual = metrics.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    let mape = deeprest_metrics::eval::mape(actual, &pred.expected);
    assert!(mape < 15.0, "in-sample MAPE {mape:.1}%");
}

#[test]
fn interval_is_ordered_and_mostly_covers() {
    let (i, traces, metrics) = tiny_dataset(128);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config());
    let est = model.estimate_from_traces(&traces, &i);
    let p = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    for t in 0..p.expected.len() {
        assert!(p.lower.get(t) <= p.expected.get(t) + 1e-6);
        assert!(p.expected.get(t) <= p.upper.get(t) + 1e-6);
    }
    let actual = metrics.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    let cov = deeprest_metrics::eval::interval_coverage(actual, &p.lower, &p.upper);
    assert!(cov > 0.5, "coverage {cov}");
}

#[test]
fn generalizes_to_double_traffic() {
    let (i, traces, metrics) = tiny_dataset(128);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config());

    // Build a query with twice the request counts.
    let mut query = WindowedTraces::with_windows(1.0, 32);
    let mut expected_cpu = Vec::new();
    for t in 0..32 {
        let mut w = traces.window(t).to_vec();
        w.extend(traces.window(t).to_vec());
        let count = w.len();
        query.windows[t] = w;
        expected_cpu.push(2.0 + 1.5 * count as f64);
    }
    let est = model.estimate_from_traces(&query, &i);
    let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    let actual = TimeSeries::from_values(expected_cpu);
    let mape = deeprest_metrics::eval::mape(&actual, &pred.expected);
    assert!(mape < 30.0, "2x extrapolation MAPE {mape:.1}%");
}

#[test]
fn estimate_traffic_uses_synthesizer() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));
    let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 16]);
    let est = model.estimate_traffic(&traffic, 3);
    let pred = est.get_parts("Frontend", ResourceKind::Cpu).unwrap();
    assert_eq!(pred.expected.len(), 16);
    assert!(pred.expected.mean() > 0.0);
}

#[test]
fn what_if_from_cold_snapshot_equals_estimate_traffic() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));
    let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 16]);

    let batch = model.estimate_traffic(&traffic, 3);
    let cold = model.stream_predictor().snapshot();
    let what_if = model.estimate_what_if(&cold, &traffic, 3).unwrap();
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    let (a, b) = (batch.get(&k).unwrap(), what_if.get(&k).unwrap());
    for t in 0..16 {
        assert_eq!(
            a.expected.get(t).to_bits(),
            b.expected.get(t).to_bits(),
            "window {t}"
        );
        assert_eq!(a.lower.get(t).to_bits(), b.lower.get(t).to_bits());
        assert_eq!(a.upper.get(t).to_bits(), b.upper.get(t).to_bits());
    }
}

#[test]
fn what_if_forks_do_not_disturb_the_live_stream() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(5));

    // Advance a "live" stream a few windows, snapshot it mid-chunk.
    let mut live = model.stream_predictor();
    for w in 0..7 {
        let x = model.window_features(traces.window(w), &i);
        live.step(&x);
    }
    let snap = live.snapshot();

    // Two identical what-if forks are bit-identical; a different
    // hypothesis differs; the live snapshot is unchanged throughout.
    let traffic_hi = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![9.0]; 8]);
    let traffic_lo = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![2.0]; 8]);
    let a = model.estimate_what_if(&snap, &traffic_hi, 11).unwrap();
    let b = model.estimate_what_if(&snap, &traffic_hi, 11).unwrap();
    let c = model.estimate_what_if(&snap, &traffic_lo, 11).unwrap();
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    assert_eq!(
        a.get(&k).unwrap().expected.values(),
        b.get(&k).unwrap().expected.values()
    );
    assert!(a.get(&k).unwrap().expected.mean() > c.get(&k).unwrap().expected.mean());
    assert_eq!(live.snapshot(), snap);

    // What-if answers continue from the live hidden state: they differ
    // from the same query asked from a cold start.
    let cold = model.stream_predictor().snapshot();
    let d = model.estimate_what_if(&cold, &traffic_hi, 11).unwrap();
    assert_ne!(
        a.get(&k).unwrap().expected.values(),
        d.get(&k).unwrap().expected.values()
    );
}

#[test]
fn what_if_rejects_mismatched_snapshot() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(2));
    let bad = crate::stream::StreamSnapshot {
        position: 0,
        hidden: vec![vec![0.0; 5]],
    };
    let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 4]);
    assert!(model.estimate_what_if(&bad, &traffic, 0).is_err());
}

#[test]
fn scope_restricts_experts() {
    let (i, traces, metrics) = tiny_dataset(64);
    let cfg = quick_config()
        .with_epochs(2)
        .with_scope(vec![MetricKey::new("Frontend", ResourceKind::Cpu)]);
    let (model, report) = DeepRest::fit(&traces, &metrics, &i, cfg);
    assert_eq!(report.expert_count, 1);
    let est = model.estimate_from_traces(&traces, &i);
    assert_eq!(est.len(), 1);
    assert!(est.get_parts("Frontend", ResourceKind::Memory).is_none());
}

#[test]
fn fit_is_deterministic() {
    let (i, traces, metrics) = tiny_dataset(64);
    let cfg = quick_config().with_epochs(3);
    let (m1, r1) = DeepRest::fit(&traces, &metrics, &i, cfg.clone());
    let (m2, r2) = DeepRest::fit(&traces, &metrics, &i, cfg);
    assert_eq!(r1.epoch_losses, r2.epoch_losses);
    let e1 = m1.estimate_from_traces(&traces, &i);
    let e2 = m2.estimate_from_traces(&traces, &i);
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    assert_eq!(
        e1.get(&k).unwrap().expected.values(),
        e2.get(&k).unwrap().expected.values()
    );
}

#[test]
fn model_survives_json_round_trip() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(3));
    let json = model.to_json().unwrap();
    let back = DeepRest::from_json(&json).unwrap();
    let e1 = model.estimate_from_traces(&traces, &i);
    let e2 = back.estimate_from_traces(&traces, &i);
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    assert_eq!(
        e1.get(&k).unwrap().expected.values(),
        e2.get(&k).unwrap().expected.values()
    );
    assert!(back.parameter_count() > 0);
    assert_eq!(back.to_json().unwrap(), json);

    // The loaded model is complete as it is: the same traces from a
    // producer that numbers the names differently (and knows one more)
    // give the same bits as on the model that was saved.
    let mut other = Interner::new();
    let (ghost, api) = (other.intern("Ghost"), other.intern("/read"));
    let (read, f) = (other.intern("read"), other.intern("Frontend"));
    let mut query = WindowedTraces::with_windows(1.0, 24);
    for t in 0..24 {
        for _ in 0..traces.window(t).len() {
            query.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
        }
        query.windows[t].push(Trace::new(api, SpanNode::leaf(ghost, read)));
        let (x1, x2) = (
            model.window_features(query.window(t), &other),
            back.window_features(query.window(t), &other),
        );
        assert_eq!(x1, model.window_features(traces.window(t), &i));
        assert_eq!(x1[0].to_bits(), x2[0].to_bits());
    }
    let e3 = back.estimate_from_traces(&query, &other);
    for (key, series) in model.estimate_from_traces(&query, &other).iter() {
        let loaded = e3.get(key).unwrap();
        assert_eq!(series.expected.values(), loaded.expected.values());
        assert_eq!(series.lower.values(), loaded.lower.values());
        assert_eq!(series.upper.values(), loaded.upper.values());
    }
}

#[test]
fn from_json_refuses_tables_it_cannot_index() {
    let (i, traces, metrics) = tiny_dataset(16);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
    let json = model.to_json().unwrap();
    for (good, bad, expect) in [
        (r#""paths":[[1]]"#, r#""paths":[[]]"#, "path 0 is empty"),
        (
            r#""paths":[[1]]"#,
            r#""paths":[[1,1]]"#,
            "has no parent path",
        ),
        (
            r#""paths":[[1]]"#,
            r#""paths":[[1],[1]]"#,
            "scale differ in length",
        ),
        (
            r#"["Frontend","read","/read"]"#,
            r#"["read","read","/read"]"#,
            "appears twice",
        ),
    ] {
        assert!(json.contains(good), "{good} not in {json}");
        let err = DeepRest::from_json(&json.replace(good, bad)).expect_err(bad);
        assert!(err.to_string().contains(expect), "{bad}: {err}");
    }
}

/// A parameter whose data does not fill its shape, and a store whose
/// names and values differ in count, are errors out of `from_json`, not
/// a short read at the pack or an index out of bounds later.
#[test]
fn from_json_refuses_parameters_that_do_not_fit() {
    let (i, traces, metrics) = tiny_dataset(16);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
    let json = model.to_json().unwrap();
    let first = model.store.ids().next().unwrap();
    let (rows, cols) = model.store.value(first).shape();
    let last = model.store.name(model.store.ids().last().unwrap());
    for (good, bad, expect) in [
        (
            format!(r#""values":[{{"rows":{rows},"cols":{cols},"#),
            format!(r#""values":[{{"rows":{},"cols":{cols},"#, rows + 1),
            "do not fill shape",
        ),
        (format!(r#","{last}"]"#), "]".to_string(), "values but"),
    ] {
        assert!(json.contains(&good), "{good} not in {json}");
        let err = DeepRest::from_json(&json.replace(&good, &bad)).expect_err(&bad);
        assert!(err.to_string().contains(expect), "{bad}: {err}");
    }
}

/// A file from before the store stopped writing gradients carries a
/// `grads` list beside `values`. It is skipped, so even a list one
/// short — which the next training step used to index out of bounds —
/// loads a model that estimates as the file's values do and trains.
#[test]
fn from_json_skips_the_gradients_an_older_file_carries() {
    let (i, traces, metrics) = tiny_dataset(16);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
    let json = model.to_json().unwrap();
    assert!(!json.contains(r#""grads""#), "gradients are not written");
    let mut root: serde::Value = serde_json::from_str(&json).unwrap();
    let serde::Value::Object(fields) = &mut root else {
        panic!("a model is an object")
    };
    let store = fields.get("store").and_then(serde::Value::as_object);
    let mut older = store.unwrap().clone();
    let values = older.get("values").and_then(serde::Value::as_array);
    let short = values.unwrap()[1..].to_vec();
    older.insert("grads", serde::Value::Array(short));
    fields.insert("store", serde::Value::Object(older));

    let mut loaded = DeepRest::from_json(&serde_json::to_string(&root).unwrap()).unwrap();
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    let (e1, e2) = (
        model.estimate_from_traces(&traces, &i),
        loaded.estimate_from_traces(&traces, &i),
    );
    assert_eq!(
        e1.get(&k).unwrap().expected.values(),
        e2.get(&k).unwrap().expected.values()
    );
    loaded.fit_incremental(&traces, &metrics, &i, 1);
}

/// Model JSON is outside input: expert handles the store cannot serve
/// are an error out of `from_json`, which packs, not a panic.
#[test]
fn from_json_refuses_experts_it_cannot_pack() {
    let (i, traces, metrics) = tiny_dataset(16);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(1));
    let corrupt = |damage: &dyn Fn(&mut DeepRest)| {
        let mut broken = model.clone();
        damage(&mut broken);
        let err = DeepRest::from_json(&broken.to_json().unwrap()).expect_err("must refuse");
        err.to_string()
    };
    let err = corrupt(&|m| m.config.hidden_dim += 1);
    assert!(err.contains("the first expert is not shaped"), "{err}");
    let err = corrupt(&|m| m.experts[1].head.w = m.experts[1].head.b);
    assert!(err.contains("expert 1: parameter"), "{err}");
    let err = corrupt(&|m| m.store = ParamStore::new());
    assert!(err.contains("expert 0") && err.contains("None"), "{err}");
    let err = corrupt(&|m| m.experts[0].skip = None);
    assert!(err.contains("skip path must be uniform"), "{err}");
}

/// "The pack is θ, always": after everything that writes or copies the
/// parameters, the model's slab equals a fresh pack of its store, bit
/// for bit.
#[test]
fn the_pack_is_the_parameters_after_every_writer() {
    use crate::train::{OnlineUpdater, TrainSegment, UpdateError, SEGMENT_LEN};
    use deeprest_fault::{self as fault, FaultPlan};
    use std::sync::Arc;

    let data = tiny_dataset(64);
    let (i, traces, metrics) = &data;
    let fit = || DeepRest::fit(traces, metrics, i, quick_config().with_epochs(2)).0;
    // One online update over the first segment of the learning data,
    // with `poison` armed or not.
    let update = |poison: bool| {
        let mut model = fit();
        let (xs, targets) = first_segment(&model, &data, SEGMENT_LEN);
        let segments = [TrainSegment {
            xs: &xs,
            targets: &targets,
        }];
        let mut updater = OnlineUpdater::new(&model);
        let plan = FaultPlan::new(3).once("adapt.update.poison", 0);
        let outcome = match poison {
            true => fault::with_plan(Arc::new(plan), || updater.update(&mut model, &segments)),
            false => updater.update(&mut model, &segments),
        };
        let rolled_back = matches!(outcome, Err(UpdateError::PoisonedRolledBack { .. }));
        assert_eq!(rolled_back, poison, "{outcome:?}");
        model
    };
    let writers: [(&str, &dyn Fn() -> DeepRest); 7] = [
        ("fit", &fit),
        ("fit_transferred", &|| {
            let cfg = quick_config().with_epochs(2).with_seed(5);
            DeepRest::fit_transferred(traces, metrics, i, cfg, &fit()).0
        }),
        ("fit_incremental", &|| {
            let mut model = fit();
            model.fit_incremental(traces, metrics, i, 1);
            model
        }),
        ("update", &|| update(false)),
        ("update rolled back", &|| update(true)),
        ("from_json(to_json)", &|| {
            DeepRest::from_json(&update(false).to_json().unwrap()).unwrap()
        }),
        ("clone", &|| update(false).clone()),
    ];
    let as_fitted = format!("{:?}", fit().slab);
    for (writer, build) in writers {
        let model = build();
        let packed = format!("{:?}", model.slab);
        assert_eq!(
            packed,
            format!("{:?}", model.fresh_pack()),
            "after {writer}"
        );
        // The writers that train leave other parameters than `fit` did,
        // so an equal pack is not a pack nobody touched.
        let moved = !matches!(writer, "fit" | "update rolled back");
        assert_eq!(packed != as_fitted, moved, "after {writer}");
    }
}

/// A stream carried across an online update steps the updated
/// parameters: it agrees bit for bit with a what-if forked from its
/// snapshot right after the update — asked of a copy of the model read
/// back from JSON, whose pack was made from the written parameters and
/// has seen no update.
#[test]
fn state_carried_across_an_update_agrees_with_a_fork_taken_after_it() {
    use crate::stream::CarriedState;
    use crate::train::{OnlineUpdater, TrainSegment, SEGMENT_LEN};

    let data = tiny_dataset(64);
    let (i, traces, metrics) = &data;
    let (mut model, _) = DeepRest::fit(traces, metrics, i, quick_config().with_epochs(2));
    let (xs, targets) = first_segment(&model, &data, SEGMENT_LEN);
    let mut carried = CarriedState::new(&model);
    for x in xs.chunks(model.features.dim()) {
        carried.step(&model, x);
    }
    let before = model.to_json().unwrap();
    let segment = TrainSegment {
        xs: &xs,
        targets: &targets,
    };
    OnlineUpdater::new(&model)
        .update(&mut model, &[segment])
        .expect("update");
    assert_ne!(model.to_json().unwrap(), before, "the update must move θ");

    let (traffic, seed) = (
        ApiTraffic::new(vec!["/read".into()], 8, vec![vec![6.0]; 5]),
        11,
    );
    let reread = DeepRest::from_json(&model.to_json().unwrap()).unwrap();
    let fork = reread
        .estimate_what_if(&carried.snapshot(), &traffic, seed)
        .unwrap();
    // The rows `estimate_what_if` synthesizes, stepped on the carried
    // state itself.
    let mut rng = StdRng::seed_from_u64(seed);
    let apis = TraceSynthesizer::resolve_endpoints(&traffic, &model.interner);
    for w in 0..traffic.window_count() {
        let window = model
            .synthesizer
            .synthesize_window(traffic.window(w), &apis, &mut rng);
        let x = model.features.extract_normalized(&window);
        for (point, key) in carried.step(&model, &x).iter().zip(model.expert_keys()) {
            let forked = fork.get(&key).unwrap();
            assert_eq!(
                [point.expected, point.lower, point.upper].map(f64::to_bits),
                [&forked.expected, &forked.lower, &forked.upper].map(|s| s.get(w).to_bits()),
                "window {w}, {key}"
            );
        }
    }
}

#[test]
fn mask_and_gru_accessors_work() {
    let (i, traces, metrics) = tiny_dataset(64);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, quick_config().with_epochs(2));
    let k = MetricKey::new("Frontend", ResourceKind::Cpu);
    let mask = model.mask_weights(&k).unwrap();
    assert_eq!(mask.len(), model.feature_space().dim());
    assert!(mask.iter().all(|&w| (0.0..=1.0).contains(&w)));

    let gru = model.gru_independent_params(&k).unwrap();
    assert_eq!(gru.len(), 3 * 12 * 12 + 3 * 12);

    assert!(model
        .mask_weights(&MetricKey::new("Ghost", ResourceKind::Cpu))
        .is_none());
}

#[test]
fn delta_encoding_for_cumulative_resources() {
    let (i, traces, mut metrics) = tiny_dataset(64);
    // Add a stateful-style cumulative disk series driven by counts.
    let mut disk = TimeSeries::zeros(0);
    let mut acc = 100.0;
    for t in 0..64 {
        acc += traces.window(t).len() as f64 * 0.1;
        disk.push(acc);
    }
    metrics.insert(
        MetricKey::new("Frontend", ResourceKind::DiskUsage),
        disk.clone(),
    );
    let cfg = quick_config()
        .with_epochs(40)
        .with_scope(vec![MetricKey::new("Frontend", ResourceKind::DiskUsage)]);
    let (model, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
    let est = model.estimate_from_traces(&traces, &i);
    let p = est.get_parts("Frontend", ResourceKind::DiskUsage).unwrap();
    assert!(p.is_delta);
    let integrated = p.integrated(100.0);
    assert!(!integrated.is_delta);
    // Integrated estimate tracks the actual cumulative curve.
    let mape = deeprest_metrics::eval::mape(&disk, &integrated.expected);
    assert!(mape < 10.0, "disk MAPE {mape:.1}%");
    // Monotone by construction.
    assert!(integrated
        .expected
        .values()
        .windows(2)
        .all(|w| w[1] >= w[0]));
}
