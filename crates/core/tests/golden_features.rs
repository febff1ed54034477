//! Golden-file test for the trace-ingestion front half of the pipeline: a
//! checked-in miniature Jaeger document (two APIs of a mini social network)
//! with its expected path-to-feature map and per-window count vectors.
//! Guards `trace::jaeger` + `core::features` against silent drift — if
//! path enumeration order, dedup, or count semantics change, these
//! assertions name exactly what moved.

use deeprest_core::FeatureSpace;
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{jaeger, Interner, Trace};
use serde::Deserialize;

const DOC: &str = include_str!("fixtures/mini_jaeger.json");
const EXPECTED: &str = include_str!("fixtures/mini_jaeger_expected.json");

#[derive(Deserialize)]
struct Expected {
    window_sizes: Vec<usize>,
    apis: Vec<String>,
    features: Vec<ExpectedFeature>,
}

#[derive(Deserialize)]
struct ExpectedFeature {
    path: String,
    apis: Vec<String>,
    counts: Vec<f32>,
}

fn load() -> (Interner, Vec<Trace>, Expected) {
    let mut interner = Interner::new();
    let traces = jaeger::import(DOC, &mut interner).expect("golden Jaeger fixture imports");
    let expected: Expected = serde_json::from_str(EXPECTED).expect("expected fixture parses");
    (interner, traces, expected)
}

/// Distributes the imported traces into windows of the expected sizes.
fn windowed(traces: &[Trace], sizes: &[usize]) -> WindowedTraces {
    assert_eq!(traces.len(), sizes.iter().sum::<usize>());
    let mut w = WindowedTraces::with_windows(1.0, sizes.len());
    let mut next = traces.iter();
    for (t, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            w.windows[t].push(next.next().unwrap().clone());
        }
    }
    w
}

#[test]
fn fixture_imports_with_the_expected_api_set() {
    let (interner, traces, expected) = load();
    assert_eq!(traces.len(), 5);
    let mut apis: Vec<String> = traces
        .iter()
        .map(|t| interner.resolve(t.api).to_owned())
        .collect();
    apis.sort();
    apis.dedup();
    assert_eq!(apis, expected.apis);
}

#[test]
fn feature_space_matches_the_golden_path_map() {
    let (interner, traces, expected) = load();
    let windows = windowed(&traces, &expected.window_sizes);
    let space = FeatureSpace::construct(&windows);
    assert_eq!(
        space.dim(),
        expected.features.len(),
        "Algorithm 1 enumerated a different number of root-prefix paths"
    );

    let counts: Vec<Vec<f32>> = (0..windows.len())
        .map(|t| space.extract(windows.window(t)))
        .collect();
    for want in &expected.features {
        let idx = (0..space.dim())
            .find(|&idx| space.describe(idx, &interner) == want.path)
            .unwrap_or_else(|| panic!("missing feature path {:?}", want.path));
        let got: Vec<f32> = counts.iter().map(|x| x[idx]).collect();
        assert_eq!(got, want.counts, "count vector drifted for {:?}", want.path);

        let apis: Vec<String> = space
            .apis_for(idx)
            .keys()
            .map(|&api| interner.resolve(api).to_owned())
            .collect();
        assert_eq!(
            apis, want.apis,
            "API attribution drifted for {:?}",
            want.path
        );
    }
}
