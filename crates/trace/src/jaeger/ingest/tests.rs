//! The split import against the serial one: at every pool width a document
//! imports to the same traces, drops the same traces with the same errors,
//! interns the same names in the same order and fails with the same text.

use std::sync::Arc;

use deeprest_fault::{pool::Pool, FaultPlan};
use proptest::prelude::*;

use super::{import_on_pool, parse, Arena, MIN_RUN_BYTES};
use crate::jaeger::export;
use crate::{Interner, Trace};

/// Names the table holds before every import.
const KNOWN: [&str; 4] = ["Frontend", "Backend", "read", "write"];

/// Names the documents use, as JSON spells them: the known ones, names the
/// table lacks, and names with escapes.
const NAMES: [&str; 8] = [
    "Frontend",
    "Backend",
    "read",
    "write",
    "Cache",
    "evict",
    r"café",
    r#"say \"hi\""#,
];

/// What an import yields, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    traces: Vec<(u64, Trace)>,
    dropped: Vec<String>,
    names: Vec<String>,
    error: Option<String>,
}

fn import_at(json: &str, width: usize) -> Outcome {
    let mut names = Interner::new();
    for name in KNOWN {
        names.intern(name);
    }
    let mut dropped = Vec::new();
    let result = import_on_pool(json, &mut names, Pool::with_threads(width), |err| {
        dropped.push(err.to_string());
    });
    let (traces, error) = match result {
        Ok(traces) => (
            traces
                .into_iter()
                .map(|t| (t.at_secs.to_bits(), t.trace))
                .collect(),
            None,
        ),
        Err(err) => (Vec::new(), Some(err.to_string())),
    };
    Outcome {
        traces,
        dropped,
        names: names.iter().map(|(_, name)| name.to_owned()).collect(),
        error,
    }
}

/// How many runs hold the last `data` list of `json` at `width`.
fn runs_at(json: &str, width: usize) -> usize {
    parse(
        json,
        &mut Arena::default(),
        &mut Vec::new(),
        Pool::with_threads(width),
    )
    .expect("the document parses")
}

/// Imports `json` at widths 1 to 4 and asserts they all agree; returns the
/// serial outcome.
fn same_at_every_width(json: &str) -> Outcome {
    let serial = import_at(json, 1);
    for width in 2..=4 {
        assert_eq!(import_at(json, width), serial, "width {width}");
    }
    serial
}

/// A linear congruential generator: the documents are a function of a seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = (self.0)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % n.max(1)
    }

    fn name(&mut self) -> &'static str {
        NAMES[self.below(NAMES.len())]
    }
}

/// Trace `idx`: a random tree of one to six spans over two processes,
/// carrying `extra` as an unread field of its first span. One in sixteen
/// has a dangling parent and one in sixteen names an unknown process.
fn trace_text(idx: usize, rng: &mut Lcg, extra: &str) -> String {
    let defect = rng.below(16);
    let spans = 1 + rng.below(6);
    let mut out = Vec::with_capacity(spans);
    for s in 0..spans {
        let parent = match (s, defect) {
            (0, _) => None,
            (_, 0) => Some("nowhere".to_owned()),
            _ => Some(format!("t{idx}s{}", rng.below(s))),
        };
        let refs = parent.map_or(String::new(), |p| {
            format!(r#""references":[{{"refType":"CHILD_OF","spanID":"{p}"}}],"#)
        });
        let process = if defect == 1 { 7 } else { rng.below(2) };
        let extra = if s == 0 { extra } else { "" };
        out.push(format!(
            r#"{{"traceID":"t{idx}","spanID":"t{idx}s{s}","operationName":"{}",{refs}"processID":"p{process}",{extra}"startTime":{},"duration":0}}"#,
            rng.name(),
            1_000_000 + 7 * idx + s
        ));
    }
    format!(
        r#"{{"traceID":"t{idx}","spans":[{}],"processes":{{"p0":{{"serviceName":"{}"}},"p1":{{"serviceName":"{}"}}}}}}"#,
        out.join(","),
        rng.name(),
        rng.name()
    )
}

/// The elements of a `data` list of at least `bytes` bytes, with `extra`
/// in the first span of element `special`.
fn elements(rng: &mut Lcg, bytes: usize, special: usize, extra: &str) -> Vec<String> {
    let (mut out, mut len) = (Vec::new(), 0);
    while len < bytes || out.len() <= special {
        let idx = out.len();
        let text = trace_text(idx, rng, if idx == special { extra } else { "" });
        len += text.len();
        out.push(text);
    }
    out
}

/// `elements` as a `data` list indented as an exported document's.
fn list(elements: &[String]) -> String {
    format!("[\n    {}\n  ]", elements.join(",\n    "))
}

/// The edge a document is built to exercise.
#[derive(Clone, Copy, Debug)]
enum Edge {
    /// None: every run lands.
    Plain,
    /// The separator pattern inside a string (a raw line break, which the
    /// grammar tolerates).
    NeedleInString,
    /// The separator pattern inside a nested array.
    NeedleInArray,
    /// Text that is not JSON.
    Error,
    /// Nesting past the limit.
    TooDeep,
    /// A required field with the wrong type.
    Misshapen,
    /// A second `data` key after the list.
    SecondData,
    /// The list ends long before the last cut.
    ShortList,
}

const EDGES: [Edge; 8] = [
    Edge::Plain,
    Edge::NeedleInString,
    Edge::NeedleInArray,
    Edge::Error,
    Edge::TooDeep,
    Edge::Misshapen,
    Edge::SecondData,
    Edge::ShortList,
];

/// A document of about `4.5 *` [`MIN_RUN_BYTES`] with `edge` placed at
/// fraction `at` of its `data` list.
fn document(seed: u64, edge: Edge, at: f64) -> String {
    let mut rng = Lcg(seed);
    let bytes = MIN_RUN_BYTES * 9 / 2;
    // Elements average a little under 700 bytes.
    let special = (at * (bytes / 700) as f64) as usize;
    let deep = format!(r#""tags":{}{},"#, "[".repeat(130), "]".repeat(130));
    let extra = match edge {
        Edge::Plain | Edge::SecondData | Edge::ShortList => "",
        Edge::NeedleInString => "\"note\":\"x,\n    {y\",",
        Edge::NeedleInArray => "\"tags\":[1,\n    {\"k\":1}],",
        Edge::Error => r#""tags":tru,"#,
        Edge::TooDeep => &deep,
        Edge::Misshapen => r#""traceID":7,"#,
    };
    match edge {
        Edge::SecondData => {
            let first = elements(&mut rng, bytes, 0, "");
            let second = elements(&mut rng, bytes / 2, 0, "");
            format!(
                "{{\n  \"data\": {},\n  \"data\": {}\n}}",
                list(&first),
                list(&second)
            )
        }
        Edge::ShortList => {
            let few = elements(&mut rng, 2_000, 0, "");
            let pad: Vec<String> = (0..bytes / 12).map(|i| format!("{{\"a\":{i}}}")).collect();
            format!(
                "{{\n  \"data\": {},\n  \"pad\": {}\n}}",
                list(&few),
                list(&pad)
            )
        }
        _ => format!(
            "{{\n  \"data\": {}\n}}",
            list(&elements(&mut rng, bytes, special, extra))
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every width imports what one thread does, whatever the document holds
    /// and wherever it holds it.
    #[test]
    fn every_width_imports_what_one_thread_does(
        seed in any::<u64>(),
        edge in 0..EDGES.len(),
        at in 0.0f64..1.0,
    ) {
        same_at_every_width(&document(seed, EDGES[edge], at));
    }
}

/// The edges, each at the start, the middle and the end of the list, with
/// what they must come to.
#[test]
fn each_edge_at_every_width() {
    for edge in EDGES {
        for at in [0.1, 0.5, 0.95] {
            let json = document(17, edge, at);
            let serial = same_at_every_width(&json);
            let failed = matches!(edge, Edge::Error | Edge::TooDeep | Edge::Misshapen);
            assert_eq!(serial.error.is_some(), failed, "{edge:?} at {at}");
            if failed {
                continue;
            }
            assert!(!serial.traces.is_empty() && !serial.dropped.is_empty());
            // Names the table lacked were met in more than one run.
            assert!(serial.names.len() > KNOWN.len(), "{edge:?} at {at}");
            let split = runs_at(&json, 4);
            match edge {
                Edge::Plain => assert_eq!(split, 4, "{edge:?} at {at}"),
                // The second list is half as long: two runs of it.
                Edge::SecondData => assert_eq!(split, 2, "{edge:?} at {at}"),
                Edge::NeedleInString | Edge::NeedleInArray => assert!(split >= 1),
                _ => assert_eq!(split, 1, "{edge:?} at {at}"),
            }
        }
    }
}

/// A cut inside a string or a nested array is passed over: the run before
/// it parses on to the list's end, and nothing after it counts.
#[test]
fn a_cut_that_begins_no_element_falls_back_to_one_run() {
    // Elements of similar size put the second of two cuts near the middle.
    for edge in [Edge::NeedleInString, Edge::NeedleInArray] {
        let mut found = false;
        for at in (1..100).map(|i| f64::from(i) / 100.0) {
            let json = document(23, edge, at);
            found |= runs_at(&json, 2) == 1;
            same_at_every_width(&json);
        }
        assert!(found, "{edge:?}: no cut fell on the planted pattern");
    }
}

/// Exported documents split into as many runs as the pool is wide, every
/// run landing, and import to the traces exported.
#[test]
fn exported_documents_split_and_round_trip() {
    for seed in [17, 23, 101] {
        let mut names = Interner::new();
        let json = document(seed, Edge::Plain, 0.0);
        let mut dropped = 0;
        let traces: Vec<Trace> =
            import_on_pool(&json, &mut names, Pool::with_threads(1), |_| dropped += 1)
                .expect("the document imports")
                .into_iter()
                .map(|t| t.trace)
                .collect();
        assert!(dropped > 0);
        let exported = export(&traces, &names);
        assert!(exported.len() > 4 * MIN_RUN_BYTES);
        for width in 1..=4 {
            assert_eq!(runs_at(&exported, width), width);
        }
        let serial = same_at_every_width(&exported);
        assert!(serial.dropped.is_empty());
        // The same trees by name: they export to the same text.
        let mut table = Interner::new();
        for name in &serial.names {
            table.intern(name);
        }
        let back: Vec<Trace> = serial.traces.into_iter().map(|(_, t)| t).collect();
        assert_eq!(export(&back, &table), exported);
    }
}

/// Compact text never splits: the separator pattern also joins spans.
#[test]
fn compact_text_is_one_run() {
    let json = document(17, Edge::Plain, 0.0)
        .replace("\n    ", "")
        .replace("\n  ", "");
    assert_eq!(runs_at(&json, 4), 1);
    same_at_every_width(&json);
}

/// An armed plan keeps the import on the calling thread: a large document
/// imports under an always-firing `pool.worker` plan as it does without one.
#[test]
fn an_armed_plan_imports_on_one_thread() {
    let json = document(101, Edge::Plain, 0.0);
    let serial = import_at(&json, 1);
    let plan = Arc::new(FaultPlan::new(0).always("pool.worker"));
    let faulted = deeprest_fault::with_plan(plan, || import_at(&json, 4));
    assert_eq!(faulted, serial);
    assert!(serial.error.is_none());
}
