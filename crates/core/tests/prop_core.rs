//! Property-based tests for the DeepRest core pipeline: feature extraction
//! (Alg. 1-2), the trace synthesizer, and model serialization.

use deeprest_core::{DeepRest, DeepRestConfig, FeatureSpace, OptimizerKind, TraceSynthesizer};
use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};
use deeprest_workload::ApiTraffic;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a small alphabet interner and a family of trace shapes over it.
fn shapes(i: &mut Interner) -> Vec<Trace> {
    let f = i.intern("Frontend");
    let s1 = i.intern("SvcA");
    let s2 = i.intern("SvcB");
    let m = i.intern("Mongo");
    let op = i.intern("op");
    let api_a = i.intern("/a");
    let api_b = i.intern("/b");
    vec![
        Trace::new(api_a, SpanNode::leaf(f, op)),
        Trace::new(
            api_a,
            SpanNode::with_children(f, op, vec![SpanNode::leaf(s1, op)]),
        ),
        Trace::new(
            api_b,
            SpanNode::with_children(
                f,
                op,
                vec![
                    SpanNode::leaf(s2, op),
                    SpanNode::with_children(s1, op, vec![SpanNode::leaf(m, op)]),
                ],
            ),
        ),
        Trace::new(
            api_b,
            SpanNode::with_children(f, op, vec![SpanNode::leaf(m, op)]),
        ),
    ]
}

fn windows_from(choices: &[usize], per_window: usize) -> (Interner, WindowedTraces) {
    let mut i = Interner::new();
    let family = shapes(&mut i);
    let count = choices.len() / per_window.max(1) + 1;
    let mut w = WindowedTraces::with_windows(1.0, count);
    for (k, &c) in choices.iter().enumerate() {
        w.windows[k / per_window.max(1)].push(family[c % family.len()].clone());
    }
    (i, w)
}

/// Fits a miniature one-API model (one component, CPU + memory metrics).
fn tiny_fit(hidden: usize, epochs: usize, seed: u64, adam: bool) -> DeepRest {
    let mut i = Interner::new();
    let f = i.intern("Frontend");
    let read = i.intern("read");
    let api = i.intern("/read");
    let windows = 24;
    let mut traces = WindowedTraces::with_windows(1.0, windows);
    let mut cpu = TimeSeries::zeros(0);
    let mut mem = TimeSeries::zeros(0);
    for t in 0..windows {
        let count = 2 + ((t % 8) as i32 - 4).unsigned_abs() as usize;
        for _ in 0..count {
            traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
        }
        cpu.push(2.0 + 1.5 * count as f64);
        mem.push(64.0 + 0.5 * count as f64);
    }
    let mut metrics = MetricsRegistry::new();
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
    metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
    let config = DeepRestConfig {
        hidden_dim: hidden,
        epochs,
        subseq_len: 8,
        batch_size: 2,
        ..DeepRestConfig::default()
    }
    .with_seed(seed)
    .with_optimizer(if adam {
        OptimizerKind::Adam { lr: 0.005 }
    } else {
        OptimizerKind::Sgd {
            lr: 0.01,
            momentum: 0.9,
        }
    });
    DeepRest::fit(&traces, &metrics, &i, config).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn json_round_trip_preserves_the_model_bit_for_bit(
        hidden in 2usize..6,
        epochs in 1usize..4,
        seed in 0u64..1000,
        adam in any::<bool>(),
    ) {
        let model = tiny_fit(hidden, epochs, seed, adam);
        let json = model.to_json().expect("serialize");
        let restored = DeepRest::from_json(&json).expect("deserialize");

        // Every parameter tensor survives the round trip bitwise.
        let before = model.parameters();
        let after = restored.parameters();
        prop_assert_eq!(before.len(), after.len());
        for ((bn, bv), (an, av)) in before.iter().zip(after.iter()) {
            prop_assert_eq!(bn, an);
            prop_assert_eq!(bv.len(), av.len(), "parameter {} changed shape", bn);
            for (x, y) in bv.iter().zip(av.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "parameter {} bit-diverged", bn);
            }
        }

        // And the restored model answers what-if queries identically.
        let traffic = ApiTraffic::new(
            vec!["/read".into()],
            6,
            (0..6).map(|t| vec![2.0 + f64::from(t)]).collect(),
        );
        let es = model.estimate_traffic(&traffic, 7);
        let er = restored.estimate_traffic(&traffic, 7);
        prop_assert_eq!(es.len(), er.len());
        for ((ks, ps), (kr, pr)) in es.iter().zip(er.iter()) {
            prop_assert_eq!(ks, kr);
            prop_assert_eq!(ps.expected.values(), pr.expected.values());
            prop_assert_eq!(ps.lower.values(), pr.lower.values());
            prop_assert_eq!(ps.upper.values(), pr.upper.values());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extraction_is_additive_over_trace_multisets(
        choices in proptest::collection::vec(0usize..4, 1..40),
    ) {
        let (_, traces) = windows_from(&choices, 8);
        let space = FeatureSpace::construct(&traces);
        // Extracting the union equals the sum of extracting each window.
        let all: Vec<Trace> = traces.iter_all().cloned().collect();
        let whole = space.extract(&all);
        let mut summed = vec![0.0f32; space.dim()];
        for t in 0..traces.len() {
            for (acc, v) in summed.iter_mut().zip(space.extract(traces.window(t))) {
                *acc += v;
            }
        }
        prop_assert_eq!(whole, summed);
    }

    #[test]
    fn total_feature_mass_equals_total_span_count(
        choices in proptest::collection::vec(0usize..4, 1..40),
    ) {
        // Every span contributes exactly one root-prefix path occurrence.
        let (_, traces) = windows_from(&choices, 8);
        let space = FeatureSpace::construct(&traces);
        let spans: usize = traces.iter_all().map(Trace::span_count).sum();
        let mass: f32 = (0..traces.len())
            .map(|t| space.extract(traces.window(t)).iter().sum::<f32>())
            .sum();
        prop_assert_eq!(mass as usize, spans);
    }

    #[test]
    fn feature_dim_counts_distinct_prefix_paths(
        choices in proptest::collection::vec(0usize..4, 4..40),
    ) {
        let (_, traces) = windows_from(&choices, 8);
        let space = FeatureSpace::construct(&traces);
        // The family of 4 shapes has at most 7 distinct root prefixes.
        prop_assert!(space.dim() <= 7);
        prop_assert!(space.dim() >= 1);
    }

    #[test]
    fn synthesizer_preserves_per_api_shape_support(
        choices in proptest::collection::vec(0usize..4, 8..60),
        seed in any::<u64>(),
    ) {
        let (i, traces) = windows_from(&choices, 8);
        let synth = TraceSynthesizer::learn(&traces);
        let mut rng = StdRng::seed_from_u64(seed);
        let apis: std::collections::BTreeSet<_> = traces.iter_all().map(|t| t.api).collect();
        for api in apis {
            let learned: std::collections::HashSet<Vec<u64>> = traces
                .iter_all()
                .filter(|t| t.api == api)
                .map(Trace::canonical_key)
                .collect();
            let sampled = synth.synthesize_api(api, 64, &mut rng);
            for t in sampled {
                prop_assert_eq!(t.api, api);
                prop_assert!(
                    learned.contains(&t.canonical_key()),
                    "synthesized a shape never observed for {}",
                    i.resolve(api)
                );
            }
        }
    }

    #[test]
    fn synthesized_volume_matches_query_expectations(
        volumes in proptest::collection::vec(0.0f64..30.0, 1..12),
        seed in any::<u64>(),
    ) {
        let (i, traces) = windows_from(&[0, 1, 2, 3, 0, 1, 2, 3], 8);
        let synth = TraceSynthesizer::learn(&traces);
        let traffic = deeprest_workload::ApiTraffic::new(
            vec!["/a".into()],
            volumes.len(),
            volumes.iter().map(|&v| vec![v]).collect(),
        );
        let out = synth.synthesize(&traffic, &i, seed);
        for (t, &expected) in volumes.iter().enumerate() {
            let n = out.window(t).len() as f64;
            // Stochastic rounding keeps counts within 1 of the expectation.
            prop_assert!((n - expected).abs() <= 1.0, "window {}: {} vs {}", t, n, expected);
        }
    }
}
