//! Jaeger-compatible JSON import/export.
//!
//! The paper's deployment collects traces from a Jaeger server (§3). This
//! module speaks the JSON shape of Jaeger's HTTP API (`/api/traces`):
//! traces as flat span lists with `CHILD_OF` references and a `processes`
//! table mapping process ids to service names. It gives the library a real
//! ingestion path — dump traces from an actual Jaeger deployment and feed
//! them to [`crate::Trace`]-based tooling — and doubles as a serialization
//! format for simulator output.
//!
//! Only the fields DeepRest consumes are read on import: service name,
//! operation name, parent-child structure and `startTime` (a trace arrives
//! at its earliest span start). Durations, tags, logs and anything else are
//! validated as JSON and skipped. [`export`] writes zeros for both times.
//!
//! The two directions are built differently. [`export`] serializes the
//! `JaegerDoc` structs through serde. Import is the serving path's first
//! stage and runs on every scrape window, so it has its own single-pass
//! parser (the `ingest` submodule) that never builds a document tree; the
//! serde derive of the same structs survives under `cfg(test)` as the oracle
//! the parser is differenced against.

use std::collections::HashMap;

use deeprest_telemetry as telemetry;
#[cfg(test)]
use serde::Deserialize;
use serde::Serialize;

use crate::window::TimestampedTrace;
use crate::{Interner, SpanNode, Sym, Trace};

mod ingest;
#[cfg(test)]
mod oracle;

/// Maximum span-tree depth accepted on import. Real microservice call
/// trees are a few dozen levels at most; anything deeper is either a
/// reference cycle routed through duplicate span ids or an adversarial
/// document, and would otherwise risk unbounded recursion in the tree build.
const MAX_SPAN_DEPTH: usize = 512;

/// Top-level Jaeger API response shape.
#[derive(Debug, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
struct JaegerDoc {
    data: Vec<JaegerTrace>,
}

#[derive(Debug, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
struct JaegerTrace {
    #[serde(rename = "traceID")]
    trace_id: String,
    spans: Vec<JaegerSpan>,
    processes: HashMap<String, JaegerProcess>,
}

#[derive(Debug, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
struct JaegerSpan {
    #[serde(rename = "traceID")]
    trace_id: String,
    #[serde(rename = "spanID")]
    span_id: String,
    #[serde(rename = "operationName")]
    operation_name: String,
    #[serde(default)]
    references: Vec<JaegerRef>,
    #[serde(rename = "processID")]
    process_id: String,
    #[serde(rename = "startTime", default)]
    start_time: u64,
    #[serde(default)]
    duration: u64,
}

#[derive(Debug, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
struct JaegerRef {
    #[serde(rename = "refType")]
    ref_type: String,
    #[serde(rename = "spanID")]
    span_id: String,
}

#[derive(Debug, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
struct JaegerProcess {
    #[serde(rename = "serviceName")]
    service_name: String,
}

/// An error importing Jaeger JSON.
///
/// Only a document-level failure ([`ImportError::Json`]) aborts an import:
/// the document has no recoverable structure. Every per-trace defect
/// (dangling parents, unknown processes, rootless or cyclic traces,
/// depth/size blow-ups from duplicate ids) drops that one trace, counts it
/// on the `trace.malformed_dropped` telemetry counter, and keeps importing
/// — the remaining variants describe *why* a trace was dropped and are
/// observable through [`import_timestamped_counted`].
#[derive(Debug)]
pub enum ImportError {
    /// Malformed JSON.
    Json(serde_json::Error),
    /// A span references an unknown process id.
    UnknownProcess(String),
    /// A span's parent reference points nowhere.
    DanglingParent(String),
    /// A trace has no root span (or a reference cycle).
    NoRoot(String),
    /// A span tree exceeds `MAX_SPAN_DEPTH` (cycle through duplicate ids
    /// or an adversarial document).
    TooDeep(String),
    /// Duplicate span ids inflate the tree beyond the trace's span count.
    Oversized(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Json(e) => write!(f, "malformed Jaeger JSON: {e}"),
            ImportError::UnknownProcess(id) => write!(f, "span references unknown process {id}"),
            ImportError::DanglingParent(id) => write!(f, "span {id} has a dangling parent"),
            ImportError::NoRoot(id) => write!(f, "trace {id} has no root span"),
            ImportError::TooDeep(id) => {
                write!(
                    f,
                    "trace {id} exceeds the span depth bound {MAX_SPAN_DEPTH}"
                )
            }
            ImportError::Oversized(id) => {
                write!(
                    f,
                    "trace {id} expands beyond its own span count (duplicate span ids)"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// The result of a counted import: the traces that parsed cleanly plus how
/// many were dropped as malformed.
#[derive(Debug)]
pub struct ImportStats {
    /// Traces that imported cleanly, in document order.
    pub traces: Vec<TimestampedTrace>,
    /// Number of traces dropped as malformed (also published on the
    /// `trace.malformed_dropped` telemetry counter).
    pub malformed_dropped: usize,
}

/// Exports traces as a Jaeger-API-shaped JSON document.
///
/// A trace's API endpoint has no field of its own in the Jaeger shape, so a
/// synthetic parent span `(service "__api__", operation = endpoint)` wraps
/// each real root: the import side recovers the endpoint from it without a
/// side channel, and span names are left unaltered.
pub fn export(traces: &[Trace], interner: &Interner) -> String {
    let mut doc = JaegerDoc { data: Vec::new() };
    for (ti, trace) in traces.iter().enumerate() {
        let trace_id = format!("t{ti:08x}");
        let mut spans = Vec::new();
        let mut processes = HashMap::new();
        let api_pid = "p0".to_owned();
        processes.insert(
            api_pid.clone(),
            JaegerProcess {
                service_name: "__api__".to_owned(),
            },
        );
        let api_span_id = format!("{trace_id}.s0");
        spans.push(JaegerSpan {
            trace_id: trace_id.clone(),
            span_id: api_span_id.clone(),
            operation_name: interner.resolve(trace.api).to_owned(),
            references: Vec::new(),
            process_id: api_pid,
            start_time: 0,
            duration: 0,
        });

        let mut proc_ids: HashMap<Sym, String> = HashMap::new();
        let mut counter = 1usize;
        flatten(
            &trace.root,
            &api_span_id,
            &trace_id,
            interner,
            &mut counter,
            &mut proc_ids,
            &mut processes,
            &mut spans,
        );
        doc.data.push(JaegerTrace {
            trace_id,
            spans,
            processes,
        });
    }
    // Serializing our own plain structs cannot fail; the expect documents
    // that invariant rather than guarding a runtime condition.
    #[allow(clippy::expect_used)]
    serde_json::to_string_pretty(&doc).expect("JaegerDoc is plain data and always serializes")
}

#[allow(clippy::too_many_arguments)]
fn flatten(
    node: &SpanNode,
    parent_span_id: &str,
    trace_id: &str,
    interner: &Interner,
    counter: &mut usize,
    proc_ids: &mut HashMap<Sym, String>,
    processes: &mut HashMap<String, JaegerProcess>,
    spans: &mut Vec<JaegerSpan>,
) {
    let span_id = format!("{trace_id}.s{counter}");
    *counter += 1;
    let next_pid = proc_ids.len() + 1;
    let pid = proc_ids
        .entry(node.component)
        .or_insert_with(|| {
            let pid = format!("p{next_pid}");
            processes.insert(
                pid.clone(),
                JaegerProcess {
                    service_name: interner.resolve(node.component).to_owned(),
                },
            );
            pid
        })
        .clone();
    spans.push(JaegerSpan {
        trace_id: trace_id.to_owned(),
        span_id: span_id.clone(),
        operation_name: interner.resolve(node.operation).to_owned(),
        references: vec![JaegerRef {
            ref_type: "CHILD_OF".to_owned(),
            span_id: parent_span_id.to_owned(),
        }],
        process_id: pid,
        start_time: 0,
        duration: 0,
    });
    for child in &node.children {
        flatten(
            child, &span_id, trace_id, interner, counter, proc_ids, processes, spans,
        );
    }
}

/// Imports a Jaeger-API-shaped JSON document. Spans are re-linked through
/// their `CHILD_OF` references; names are interned into `interner`.
///
/// Two endpoint conventions are accepted: a synthetic `__api__` root span
/// (as produced by [`export`]) whose operation is the endpoint, or — for
/// documents straight from a Jaeger server — the root span itself, whose
/// operation name is used as the endpoint.
///
/// Malformed traces within a well-formed document are dropped and counted,
/// never panicked on; see [`import_timestamped_counted`].
///
/// # Errors
///
/// Returns [`ImportError::Json`] when the document itself cannot be parsed.
pub fn import(json: &str, interner: &mut Interner) -> Result<Vec<Trace>, ImportError> {
    Ok(import_timestamped(json, interner)?
        .into_iter()
        .map(|t| t.trace)
        .collect())
}

/// Like [`import`], but keeps each trace's arrival time: the earliest
/// `startTime` (microseconds) across the trace's spans, converted to
/// seconds. Documents without timestamps (all zeros, as [`export`]
/// produces) import with `at_secs` 0.0 — callers replaying such fixtures
/// can synthesize a schedule afterwards.
///
/// # Errors
///
/// Returns [`ImportError::Json`] when the document itself cannot be parsed.
pub fn import_timestamped(
    json: &str,
    interner: &mut Interner,
) -> Result<Vec<TimestampedTrace>, ImportError> {
    Ok(import_timestamped_counted(json, interner)?.traces)
}

/// The counted variant of [`import_timestamped`]: imports every trace that
/// parses cleanly and reports how many were dropped as malformed.
///
/// A malformed *document* (unparseable JSON) is the only hard error — there
/// is no structure left to salvage. A malformed *trace* inside a good
/// document (dangling parent, unknown process, no root, depth or size
/// blow-up from duplicate span ids) drops exactly that trace: the drop is
/// counted in the returned [`ImportStats`] and on the
/// `trace.malformed_dropped` telemetry counter, and the import continues.
/// One corrupt trace from a flaky collector must not take down ingestion.
///
/// # Errors
///
/// Returns [`ImportError::Json`] when the document itself cannot be parsed.
pub fn import_timestamped_counted(
    json: &str,
    interner: &mut Interner,
) -> Result<ImportStats, ImportError> {
    let mut malformed_dropped = 0usize;
    let traces = ingest::import_doc(json, interner, |err| {
        malformed_dropped += 1;
        telemetry::counter("trace.malformed_dropped", 1);
        telemetry::counter(err.counter_name(), 1);
    })?;
    Ok(ImportStats {
        traces,
        malformed_dropped,
    })
}

/// Prefix of the per-kind drop counters.
const DROP_COUNTER_PREFIX: &str = "trace.malformed_dropped.";

impl ImportError {
    /// A short stable label for the error class — the suffix of the
    /// `trace.malformed_dropped.*` telemetry counter and stable for matching
    /// in tests and supervisors.
    pub fn kind(&self) -> &'static str {
        &self.counter_name()[DROP_COUNTER_PREFIX.len()..]
    }

    /// `trace.malformed_dropped.<kind>`, spelled out so that counting a
    /// dropped trace never formats a name.
    fn counter_name(&self) -> &'static str {
        match self {
            ImportError::Json(_) => "trace.malformed_dropped.json",
            ImportError::UnknownProcess(_) => "trace.malformed_dropped.unknown_process",
            ImportError::DanglingParent(_) => "trace.malformed_dropped.dangling_parent",
            ImportError::NoRoot(_) => "trace.malformed_dropped.no_root",
            ImportError::TooDeep(_) => "trace.malformed_dropped.too_deep",
            ImportError::Oversized(_) => "trace.malformed_dropped.oversized",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Interner, Vec<Trace>) {
        let mut i = Interner::new();
        let f = i.intern("FrontendNGINX");
        let u = i.intern("UserTimelineService");
        let m = i.intern("UserTimelineMongoDB");
        let read = i.intern("readTimeline");
        let find = i.intern("find");
        let api = i.intern("/readTimeline");
        let t = Trace::new(
            api,
            SpanNode::with_children(
                f,
                read,
                vec![SpanNode::with_children(
                    u,
                    read,
                    vec![SpanNode::leaf(m, find)],
                )],
            ),
        );
        (i, vec![t.clone(), t])
    }

    #[test]
    fn export_import_round_trips() {
        let (i, traces) = sample();
        let json = export(&traces, &i);
        let mut i2 = Interner::new();
        let back = import(&json, &mut i2).expect("valid document");
        assert_eq!(back.len(), 2);
        for (orig, re) in traces.iter().zip(back.iter()) {
            assert_eq!(re.span_count(), orig.span_count());
            assert_eq!(i2.resolve(re.api), i.resolve(orig.api));
            // Structural equality through canonical keys after re-interning.
            let names = |t: &Trace, i: &Interner| {
                let mut v = Vec::new();
                t.root.visit(&mut |s| {
                    v.push(format!(
                        "{}:{}",
                        i.resolve(s.component),
                        i.resolve(s.operation)
                    ));
                });
                v
            };
            assert_eq!(names(orig, &i), names(re, &i2));
        }
    }

    #[test]
    fn export_produces_jaeger_shapes() {
        let (i, traces) = sample();
        let json = export(&traces, &i);
        assert!(json.contains("\"traceID\""));
        assert!(json.contains("\"CHILD_OF\""));
        assert!(json.contains("\"serviceName\": \"FrontendNGINX\""));
        assert!(json.contains("\"operationName\": \"/readTimeline\""));
    }

    #[test]
    fn import_accepts_plain_jaeger_documents() {
        // A minimal hand-written Jaeger response without the __api__ span.
        let json = r#"{"data":[{"traceID":"abc","spans":[
            {"traceID":"abc","spanID":"1","operationName":"readTimeline","processID":"p1"},
            {"traceID":"abc","spanID":"2","operationName":"find","processID":"p2",
             "references":[{"refType":"CHILD_OF","spanID":"1"}]}
        ],"processes":{
            "p1":{"serviceName":"Frontend"},
            "p2":{"serviceName":"Mongo"}
        }}]}"#;
        let mut i = Interner::new();
        let traces = import(json, &mut i).expect("valid");
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].span_count(), 2);
        assert_eq!(i.resolve(traces[0].api), "readTimeline");
    }

    #[test]
    fn import_timestamped_reads_earliest_start_time() {
        let json = r#"{"data":[{"traceID":"abc","spans":[
            {"traceID":"abc","spanID":"1","operationName":"readTimeline","processID":"p1",
             "startTime":2500000},
            {"traceID":"abc","spanID":"2","operationName":"find","processID":"p2",
             "startTime":2400000,
             "references":[{"refType":"CHILD_OF","spanID":"1"}]}
        ],"processes":{
            "p1":{"serviceName":"Frontend"},
            "p2":{"serviceName":"Mongo"}
        }}]}"#;
        let mut i = Interner::new();
        let traces = import_timestamped(json, &mut i).expect("valid");
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].at_secs, 2.4);
        assert_eq!(traces[0].trace.span_count(), 2);
        // Exported documents carry zero timestamps and import at 0.0.
        let json = export(&[traces[0].trace.clone()], &i);
        let back = import_timestamped(&json, &mut Interner::new()).expect("valid");
        assert_eq!(back[0].at_secs, 0.0);
    }

    #[test]
    fn import_drops_and_counts_dangling_parent() {
        // One malformed trace (dangling parent) next to one good trace: the
        // good trace imports, the bad one is dropped and counted.
        let json = r#"{"data":[
          {"traceID":"bad","spans":[
            {"traceID":"bad","spanID":"2","operationName":"find","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"ghost"}]}
          ],"processes":{"p1":{"serviceName":"Mongo"}}},
          {"traceID":"good","spans":[
            {"traceID":"good","spanID":"1","operationName":"read","processID":"p1"}
          ],"processes":{"p1":{"serviceName":"Frontend"}}}
        ]}"#;
        let mut i = Interner::new();
        let stats = import_timestamped_counted(json, &mut i).expect("document parses");
        assert_eq!(stats.traces.len(), 1);
        assert_eq!(stats.malformed_dropped, 1);
        assert_eq!(i.resolve(stats.traces[0].trace.api), "read");
    }

    #[test]
    fn import_drops_unknown_process_and_rootless_traces() {
        let json = r#"{"data":[
          {"traceID":"noproc","spans":[
            {"traceID":"noproc","spanID":"1","operationName":"x","processID":"ghost"}
          ],"processes":{}},
          {"traceID":"cycle","spans":[
            {"traceID":"cycle","spanID":"1","operationName":"x","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"2"}]},
            {"traceID":"cycle","spanID":"2","operationName":"y","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"1"}]}
          ],"processes":{"p1":{"serviceName":"S"}}}
        ]}"#;
        let stats =
            import_timestamped_counted(json, &mut Interner::new()).expect("document parses");
        assert!(stats.traces.is_empty());
        assert_eq!(stats.malformed_dropped, 2);
    }

    #[test]
    fn import_bounds_duplicate_id_expansion() {
        // Two spans share the id "dup"; each lookup of children["dup"]
        // duplicates the subtree, so an unchecked import would build more
        // nodes than the document has spans. The budget drops the trace.
        let json = r#"{"data":[{"traceID":"dup","spans":[
            {"traceID":"dup","spanID":"r","operationName":"root","processID":"p1"},
            {"traceID":"dup","spanID":"dup","operationName":"a","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"r"}]},
            {"traceID":"dup","spanID":"dup","operationName":"b","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"r"}]},
            {"traceID":"dup","spanID":"leaf","operationName":"c","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"dup"}]},
            {"traceID":"dup","spanID":"leaf","operationName":"d","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"dup"}]}
        ],"processes":{"p1":{"serviceName":"S"}}}]}"#;
        let stats =
            import_timestamped_counted(json, &mut Interner::new()).expect("document parses");
        assert_eq!(stats.traces.len() + stats.malformed_dropped, 1);
        // Either the expansion fit the budget (fine) or it was dropped —
        // but with 2×2 duplication over 5 spans the budget must trip.
        assert_eq!(stats.malformed_dropped, 1);
    }

    #[test]
    fn dropped_traces_count_under_static_names() {
        for (err, kind) in [
            (ImportError::Json(serde_json::Error::custom("x")), "json"),
            (
                ImportError::UnknownProcess(String::new()),
                "unknown_process",
            ),
            (
                ImportError::DanglingParent(String::new()),
                "dangling_parent",
            ),
            (ImportError::NoRoot(String::new()), "no_root"),
            (ImportError::TooDeep(String::new()), "too_deep"),
            (ImportError::Oversized(String::new()), "oversized"),
        ] {
            assert_eq!(err.kind(), kind);
            assert_eq!(err.counter_name(), format!("{DROP_COUNTER_PREFIX}{kind}"));
        }
        let json = r#"{"data":[{"traceID":"bad","spans":[
            {"traceID":"bad","spanID":"2","operationName":"find","processID":"p1",
             "references":[{"refType":"CHILD_OF","spanID":"ghost"}]}
        ],"processes":{"p1":{"serviceName":"Mongo"}}}]}"#;
        let sink = std::sync::Arc::new(telemetry::MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            let stats = import_timestamped_counted(json, &mut Interner::new()).expect("parses");
            assert_eq!(stats.malformed_dropped, 1);
        });
        assert_eq!(sink.counter("trace.malformed_dropped"), 1);
        assert_eq!(sink.counter("trace.malformed_dropped.dangling_parent"), 1);
    }

    #[test]
    fn import_rejects_garbage() {
        let mut i = Interner::new();
        assert!(matches!(
            import("not json", &mut i),
            Err(ImportError::Json(_))
        ));
    }

    #[test]
    fn injected_parse_fault_is_a_typed_error() {
        let (i, traces) = sample();
        let json = export(&traces, &i);
        let plan = std::sync::Arc::new(deeprest_fault::FaultPlan::new(0).once("trace.parse", 0));
        deeprest_fault::with_plan(plan, || {
            let mut i2 = Interner::new();
            assert!(matches!(import(&json, &mut i2), Err(ImportError::Json(_))));
            // Fault window passed: the same document imports cleanly.
            assert_eq!(import(&json, &mut i2).expect("valid").len(), 2);
        });
    }

    #[test]
    fn injected_span_fault_drops_one_trace() {
        let (i, traces) = sample();
        let json = export(&traces, &i);
        let plan = std::sync::Arc::new(deeprest_fault::FaultPlan::new(0).once("trace.span", 0));
        deeprest_fault::with_plan(plan, || {
            let mut i2 = Interner::new();
            let stats = import_timestamped_counted(&json, &mut i2).expect("document parses");
            assert_eq!(stats.traces.len(), 1, "second trace survives");
            assert_eq!(stats.malformed_dropped, 1);
        });
    }
}
