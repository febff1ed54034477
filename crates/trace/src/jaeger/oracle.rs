//! The serde shapes this crate shipped before its own reader and writer,
//! kept as their oracles. Test-only.
//!
//! The import oracle is the serde import the pull parser replaced:
//! `serde_json::from_str` into the owned `JaegerDoc`, then one hash map of
//! child lists per trace, without the fault probes and the telemetry (the
//! differenced properties arm neither). One input is refused here that the
//! old import took: the stand-in serde also reads a map from an array of
//! `[key, value]` pairs, a `processes` encoding Jaeger never writes and the
//! parser does not accept.
//!
//! The export oracle is the serde export the one-pass writer replaced: the
//! same structs built per span and written by `serde_json::to_string_pretty`.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};
use serde_json::{Error, Value};

use super::ImportError;
use crate::window::TimestampedTrace;
use crate::{Interner, SpanNode, Sym, Trace};

/// Top-level Jaeger API response shape.
#[derive(Debug, Serialize, Deserialize)]
struct JaegerDoc {
    data: Vec<JaegerTrace>,
}

#[derive(Debug, Serialize, Deserialize)]
struct JaegerTrace {
    #[serde(rename = "traceID")]
    trace_id: String,
    spans: Vec<JaegerSpan>,
    processes: HashMap<String, JaegerProcess>,
}

#[derive(Debug, Serialize, Deserialize)]
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

#[derive(Debug, Serialize, Deserialize)]
struct JaegerRef {
    #[serde(rename = "refType")]
    ref_type: String,
    #[serde(rename = "spanID")]
    span_id: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct JaegerProcess {
    #[serde(rename = "serviceName")]
    service_name: String,
}

/// Every trace of the document in order, imported or with the reason it was
/// dropped.
pub(super) fn import(
    json: &str,
    interner: &mut Interner,
) -> Result<Vec<Result<TimestampedTrace, ImportError>>, ImportError> {
    let value: Value = serde_json::from_str(json).map_err(ImportError::Json)?;
    let traces = value
        .as_object()
        .and_then(|doc| doc.get("data")?.as_array());
    for trace in traces.into_iter().flatten() {
        let processes = trace.as_object().and_then(|t| t.get("processes"));
        if processes.is_some_and(|p| p.as_array().is_some()) {
            return Err(ImportError::Json(Error::custom(
                "processes: expected object",
            )));
        }
    }
    let doc = JaegerDoc::from_value(&value).map_err(ImportError::Json)?;
    Ok(doc.data.iter().map(|jt| import_one(jt, interner)).collect())
}

fn import_one(jt: &JaegerTrace, interner: &mut Interner) -> Result<TimestampedTrace, ImportError> {
    // Resolve span table and child lists.
    let mut children: HashMap<&str, Vec<&JaegerSpan>> = HashMap::new();
    let mut roots: Vec<&JaegerSpan> = Vec::new();
    let ids: HashSet<&str> = jt.spans.iter().map(|s| s.span_id.as_str()).collect();
    for span in &jt.spans {
        match span.references.iter().find(|r| r.ref_type == "CHILD_OF") {
            Some(parent) => {
                if !ids.contains(parent.span_id.as_str()) {
                    return Err(ImportError::DanglingParent(span.span_id.clone()));
                }
                children
                    .entry(parent.span_id.as_str())
                    .or_default()
                    .push(span);
            }
            None => roots.push(span),
        }
    }
    let root = roots
        .first()
        .ok_or_else(|| ImportError::NoRoot(jt.trace_id.clone()))?;

    let service = |span: &JaegerSpan| -> Result<String, ImportError> {
        jt.processes
            .get(&span.process_id)
            .map(|p| p.service_name.clone())
            .ok_or_else(|| ImportError::UnknownProcess(span.process_id.clone()))
    };

    // Endpoint convention: synthetic __api__ root or the root itself.
    let (api_name, real_roots): (String, Vec<&JaegerSpan>) = if service(root)? == "__api__" {
        let kids = children
            .get(root.span_id.as_str())
            .cloned()
            .unwrap_or_default();
        (root.operation_name.clone(), kids)
    } else {
        (root.operation_name.clone(), vec![root])
    };
    let api = interner.intern(&api_name);

    let real_root = real_roots
        .first()
        .ok_or_else(|| ImportError::NoRoot(jt.trace_id.clone()))?;
    let mut budget = jt.spans.len();
    let tree = build(real_root, &children, jt, interner, 0, &mut budget)?;
    let start_micros = jt.spans.iter().map(|s| s.start_time).min().unwrap_or(0);
    Ok(TimestampedTrace {
        at_secs: start_micros as f64 / 1e6,
        trace: Trace::new(api, tree),
    })
}

fn build(
    span: &JaegerSpan,
    children: &HashMap<&str, Vec<&JaegerSpan>>,
    jt: &JaegerTrace,
    interner: &mut Interner,
    depth: usize,
    budget: &mut usize,
) -> Result<SpanNode, ImportError> {
    if depth >= SpanNode::MAX_DEPTH {
        return Err(ImportError::TooDeep(jt.trace_id.clone()));
    }
    if *budget == 0 {
        return Err(ImportError::Oversized(jt.trace_id.clone()));
    }
    *budget -= 1;
    let process = jt
        .processes
        .get(&span.process_id)
        .ok_or_else(|| ImportError::UnknownProcess(span.process_id.clone()))?;
    let component = interner.intern(&process.service_name);
    let operation = interner.intern(&span.operation_name);
    let mut node = SpanNode::leaf(component, operation);
    if let Some(kids) = children.get(span.span_id.as_str()) {
        for kid in kids {
            node.children
                .push(build(kid, children, jt, interner, depth + 1, budget)?);
        }
    }
    Ok(node)
}

/// The document as the serde export wrote it: one `JaegerSpan` per span
/// (the `__api__` span first), processes keyed by id in a hash map, and
/// the whole tree pretty-printed.
pub(super) fn export(traces: &[Trace], interner: &Interner) -> String {
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

/// SplitMix64: the generator both test modules draw documents from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True once in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The pull parser differenced against the oracle above: generated
/// documents, mutated, must import to the same traces, the same drops for
/// the same reasons, and the same name table — or fail alike.
mod differential {
    use proptest::prelude::*;

    use super::super::{export, import, ingest};
    use super::*;
    use crate::Sym;

    /// What an import yields, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// `Err` is the document-level error's kind.
        traces: Result<Vec<(u64, Trace)>, &'static str>,
        dropped: Vec<&'static str>,
        names: Vec<(Sym, String)>,
    }

    fn seeded() -> Interner {
        let mut names = Interner::new();
        names.intern("seeded-before-the-import");
        names.intern("FrontendNGINX");
        names
    }

    fn outcome(
        names: Interner,
        result: Result<Vec<Result<TimestampedTrace, ImportError>>, ImportError>,
    ) -> Outcome {
        let mut dropped = Vec::new();
        let traces = result.map_err(|e| e.kind()).map(|all| {
            all.into_iter()
                .filter_map(|t| match t {
                    Ok(t) => Some((t.at_secs.to_bits(), t.trace)),
                    Err(e) => {
                        dropped.push(e.kind());
                        None
                    }
                })
                .collect()
        });
        Outcome {
            traces,
            dropped,
            names: names.iter().map(|(s, n)| (s, n.to_owned())).collect(),
        }
    }

    fn oracle_outcome(json: &str) -> Outcome {
        let mut names = seeded();
        let result = super::import(json, &mut names);
        outcome(names, result)
    }

    fn parser_outcome(json: &str) -> Outcome {
        let mut names = seeded();
        let mut dropped = Vec::new();
        let result = ingest::import_doc(json, &mut names, |e| dropped.push(Err(e)));
        let result = result.map(|traces| traces.into_iter().map(Ok).chain(dropped).collect());
        outcome(names, result)
    }

    /// Both paths on `json`; returns the (agreed) outcome.
    fn assert_same(json: &str) -> Outcome {
        let (old, new) = (oracle_outcome(json), parser_outcome(json));
        assert_eq!(
            old, new,
            "oracle (left) and parser (right) differ on:\n{json}"
        );
        if new.traces.is_err() {
            assert_eq!(new.names.len(), seeded().len(), "failed import interned");
        }
        new
    }

    // -- generation -----------------------------------------------------------

    const SERVICES: &[&str] = &[
        "FrontendNGINX",
        "Média \"Service\"",
        "a/b",
        "Mongo\\DB",
        "π",
    ];
    const OPERATIONS: &[&str] = &["read", "/compose/post", "say \"hi\"", "tab\there", "日本"];

    fn random_tree(rng: &mut Rng, names: &mut Interner, depth: usize) -> SpanNode {
        let component = names.intern(rng.pick(SERVICES));
        let operation = names.intern(rng.pick(OPERATIONS));
        let fanout = if depth >= 4 { 0 } else { rng.below(3) };
        let children = (0..fanout)
            .map(|_| random_tree(rng, names, depth + 1))
            .collect();
        SpanNode::with_children(component, operation, children)
    }

    /// An exported document of up to three random traces.
    fn exported(rng: &mut Rng) -> String {
        let mut names = Interner::new();
        let traces: Vec<Trace> = (0..rng.below(4))
            .map(|_| {
                let api = names.intern(rng.pick(OPERATIONS));
                Trace::new(api, random_tree(rng, &mut names, 0))
            })
            .collect();
        export(&traces, &names)
    }

    /// JSON that, unlike [`Value`], can hold a key twice and remembers how
    /// each number was spelled.
    #[derive(Clone, Debug)]
    enum Json {
        Raw(&'static str),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    fn from_value(v: &Value) -> Json {
        match v {
            Value::Null => Json::Raw("null"),
            Value::Bool(true) => Json::Raw("true"),
            Value::Bool(false) => Json::Raw("false"),
            // Exported documents hold no number but the zero times.
            Value::Number(_) => Json::Raw("0"),
            Value::String(s) => Json::Str(s.clone()),
            Value::Array(items) => Json::Arr(items.iter().map(from_value).collect()),
            Value::Object(o) => {
                Json::Obj(o.iter().map(|(k, v)| (k.clone(), from_value(v))).collect())
            }
        }
    }

    /// Values no Jaeger field expects where it finds them, or that the
    /// importer must skip: every JSON type, nested shapes, odd numbers.
    const JUNK: &[&str] = &[
        "null",
        "true",
        "7",
        "-1",
        "1.5",
        "\"text\"",
        "[]",
        "{}",
        "[[\"k\", {\"serviceName\": \"pair\"}]]",
        "[{\"key\":\"http.url\",\"type\":\"string\",\"value\":\"a\\/b\\\\c \\\"q\\\" \\u00e9\\ud83d\\ude00\"}]",
        "[{\"timestamp\":1e3,\"fields\":[{\"key\":\"event\",\"value\":[1,[2,[3,{\"x\":null}]]]}]}]",
        "{\"spans\":[{\"spanID\":5}],\"data\":{\"data\":[false]}}",
    ];
    /// Spellings of `startTime` / `duration`: in and out of `u64`.
    const TIMES: &[&str] = &[
        "0",
        "2400000",
        "007",
        "-0",
        "1e3",
        "1.",
        "2.5",
        "-3",
        "18446744073709551615",
        "18446744073709551616",
        "1E400",
        "\"12\"",
        "null",
    ];
    const EXTRA_KEYS: &[&str] = &["tags", "logs", "warnings", "flags", "data", "spans", "x"];

    /// Rewrites `json` in place, each kind of damage with its own small
    /// probability, so most documents take a few hits and some none.
    fn mutate(json: &mut Json, rng: &mut Rng, ids: &mut Vec<String>) {
        match json {
            Json::Raw(_) | Json::Str(_) => {}
            Json::Arr(items) => {
                for item in items.iter_mut() {
                    mutate(item, rng, ids);
                }
                if !items.is_empty() && rng.one_in(40) {
                    items.push(Json::Raw(rng.pick(JUNK)));
                }
            }
            Json::Obj(entries) => {
                for (key, value) in entries.iter_mut() {
                    mutate(value, rng, ids);
                    match (key.as_str(), &mut *value) {
                        // Duplicate ids, dangling parents, self references.
                        ("spanID", Json::Str(id)) => {
                            if rng.one_in(25) {
                                *id = "ghost".to_owned();
                            } else if rng.one_in(15) && !ids.is_empty() {
                                *id = ids[rng.below(ids.len())].clone();
                            }
                            ids.push(id.clone());
                        }
                        ("processID", Json::Str(id)) if rng.one_in(30) => {
                            *id = rng.pick(&["ghost", "p0", "p1"]).to_owned();
                        }
                        ("refType", Json::Str(t)) if rng.one_in(15) => {
                            *t = "FOLLOWS_FROM".to_owned();
                        }
                        ("serviceName", Json::Str(s)) if rng.one_in(30) => {
                            *s = "__api__".to_owned();
                        }
                        ("startTime" | "duration", v) if rng.one_in(4) => {
                            *v = Json::Raw(rng.pick(TIMES));
                        }
                        // A span whose first reference is not its parent.
                        ("references", Json::Arr(refs)) if rng.one_in(10) => {
                            let extra = Json::Obj(vec![
                                ("refType".to_owned(), Json::Str("FOLLOWS_FROM".to_owned())),
                                ("spanID".to_owned(), Json::Str("elsewhere".to_owned())),
                            ]);
                            refs.insert(0, extra);
                        }
                        // Type swaps.
                        (_, v) if rng.one_in(120) => *v = Json::Raw(rng.pick(JUNK)),
                        _ => {}
                    }
                }
                // Missing fields.
                if !entries.is_empty() && rng.one_in(60) {
                    entries.remove(rng.below(entries.len()));
                }
                // Fields the importer skips, in shapes it must still validate.
                while rng.one_in(4) {
                    let at = rng.below(entries.len() + 1);
                    let extra = (rng.pick(EXTRA_KEYS).to_owned(), Json::Raw(rng.pick(JUNK)));
                    entries.insert(at, extra);
                }
                // A key twice: junk first (the later value rescues it), junk
                // last (it wins), or the value twice.
                if !entries.is_empty() && rng.one_in(12) {
                    let (key, value) = entries[rng.below(entries.len())].clone();
                    match rng.below(3) {
                        0 => entries.insert(0, (key, Json::Raw(rng.pick(JUNK)))),
                        1 => entries.push((key, Json::Raw(rng.pick(JUNK)))),
                        _ => entries.push((key, value)),
                    }
                }
                // Key order.
                if rng.one_in(2) {
                    for i in (1..entries.len()).rev() {
                        entries.swap(i, rng.below(i + 1));
                    }
                }
            }
        }
    }

    fn render_string(out: &mut String, s: &str, rng: &mut Rng) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '/' if rng.one_in(2) => out.push_str("\\/"),
                c if rng.one_in(12) => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The whitespace `render` puts between tokens.
    #[derive(Clone, Copy)]
    enum Gaps {
        /// At most three characters: what the mutation property renders.
        Short,
        /// Runs of 0–40 spaces, tabs, CRs and LFs in any mix.
        Long,
        /// None anywhere: minified.
        None,
        /// A pretty-printer's layout in other spellings: a newline and
        /// `depth` units of indent before each entry and closing bracket, a
        /// space after each `:`, nothing else.
        Indent(&'static str, &'static str),
    }

    fn gap(out: &mut String, rng: &mut Rng, gaps: Gaps, depth: usize) {
        match gaps {
            Gaps::Short => out.push_str(rng.pick(&["", "", " ", "\n\t", "\r\n  "])),
            Gaps::Long => {
                for _ in 0..rng.below(41) {
                    out.push([' ', ' ', ' ', '\t', '\r', '\n'][rng.below(6)]);
                }
            }
            Gaps::None => {}
            Gaps::Indent(newline, unit) => {
                out.push_str(newline);
                (0..depth).for_each(|_| out.push_str(unit));
            }
        }
    }

    fn render(out: &mut String, json: &Json, rng: &mut Rng, gaps: Gaps, depth: usize) {
        let indent = matches!(gaps, Gaps::Indent(..) | Gaps::None);
        match json {
            Json::Raw(text) => out.push_str(text),
            Json::Str(s) => render_string(out, s, rng),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, rng, gaps, depth + 1);
                    render(out, item, rng, gaps, depth + 1);
                }
                if !items.is_empty() || !indent {
                    gap(out, rng, gaps, depth);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, rng, gaps, depth + 1);
                    render_string(out, key, rng);
                    if !indent {
                        gap(out, rng, gaps, depth + 1);
                    }
                    out.push(':');
                    match gaps {
                        Gaps::Indent(..) => out.push(' '),
                        _ => gap(out, rng, gaps, depth + 1),
                    }
                    render(out, value, rng, gaps, depth + 1);
                }
                if !entries.is_empty() || !indent {
                    gap(out, rng, gaps, depth);
                }
                out.push('}');
            }
        }
    }

    /// An exported document, damaged and re-spelled from `seed`.
    fn mutated(seed: u64) -> String {
        mutated_with(seed, Gaps::Short)
    }

    fn mutated_with(seed: u64, gaps: Gaps) -> String {
        let mut rng = Rng(seed);
        let value: Value = serde_json::from_str(&exported(&mut rng)).expect("export is JSON");
        let mut json = from_value(&value);
        mutate(&mut json, &mut rng, &mut Vec::new());
        let mut out = String::new();
        render(&mut out, &json, &mut rng, gaps, 0);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn mutated_exports_import_alike(seed in any::<u64>()) {
            assert_same(&mutated(seed));
        }
    }

    /// The generator must reach both verdicts and every drop reason it aims
    /// at, or the property above proves less than it claims.
    #[test]
    fn mutations_reach_every_outcome() {
        let (mut ok, mut err) = (0, 0);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..3000 {
            let outcome = parser_outcome(&mutated(seed));
            match outcome.traces {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
            kinds.extend(outcome.dropped);
        }
        assert!(
            ok > 300 && err > 300,
            "{ok} documents imported, {err} failed"
        );
        for kind in ["unknown_process", "dangling_parent", "no_root", "oversized"] {
            assert!(
                kinds.contains(kind),
                "no trace dropped as {kind}: {kinds:?}"
            );
        }
    }

    #[test]
    fn every_prefix_of_a_document_fails_alike() {
        let mut rng = Rng(5);
        let json = loop {
            let json = mutated(rng.next());
            if json.len() < 4_000 && matches!(&parser_outcome(&json).traces, Ok(t) if !t.is_empty())
            {
                break json;
            }
        };
        assert!(!json.is_ascii(), "the names include non-ASCII text");
        for cut in (0..json.len()).filter(|&c| json.is_char_boundary(c)) {
            let outcome = assert_same(&json[..cut]);
            assert_eq!(
                outcome.traces,
                Err("json"),
                "prefix of {cut} bytes imported"
            );
        }
    }

    #[test]
    fn nesting_bound_is_the_same_at_every_level() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let mut seen = std::collections::BTreeSet::new();
        for depth in [
            1, 100, 119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 500,
        ] {
            let x = nested(depth);
            for json in [
                format!(r#"{{"x":{x},"data":[]}}"#),
                format!(r#"{{"data":[{{"traceID":"t","x":{x},"spans":[],"processes":{{}}}}]}}"#),
                format!(
                    r#"{{"data":[{{"traceID":"t","processes":{{"p":{{"serviceName":"S","x":{x}}}}},"spans":[
                    {{"traceID":"t","spanID":"1","operationName":"o","processID":"p","references":[
                    {{"refType":"CHILD_OF","spanID":"1","x":{x}}}]}}]}}]}}"#
                ),
            ] {
                seen.insert(assert_same(&json).traces.is_ok());
            }
        }
        assert_eq!(seen.len(), 2, "the depths straddle the bound");
    }

    #[test]
    fn hand_written_edge_documents_import_alike() {
        for json in [
            // Nothing, and non-documents.
            "",
            " ",
            "null",
            "[]",
            "{}",
            r#"{"data":null}"#,
            r#"{"data":{}}"#,
            r#"{"data":[]}"#,
            r#"{"data":[]} x"#,
            r#"{"data":[null]}"#,
            // An escaped key is the key.
            r#"{"data":[]}"#,
            r#"{"data":5}"#,
            // The last `data` wins, whatever the earlier one held.
            r#"{"data":[{"traceID":7}],"data":[]}"#,
            r#"{"data":[],"data":[{"traceID":7}]}"#,
            // The array encoding of a map is not Jaeger's.
            r#"{"data":[{"traceID":"t","spans":[],"processes":[]}]}"#,
            // Escapes: every short form, surrogate pairs, lone surrogates.
            r#"{"data":[],"x":"\"\\\/\b\f\n\r\té😀"}"#,
            r#"{"data":[],"x":"\ud800A"}"#,
            r#"{"data":[],"x":"\ud800"}"#,
            r#"{"data":[],"x":"\udc00"}"#,
            r#"{"data":[],"x":"\u+041"}"#,
            r#"{"data":[],"x":"\u00é"}"#,
            r#"{"data":[],"x":"\q"}"#,
            "{\"data\":[],\"x\":\"raw\ncontrol\"}",
            // Numbers the lenient grammar takes and refuses.
            r#"{"data":[],"x":[01,1.,-.5,1e+2,-0,1E400]}"#,
            r#"{"data":[],"x":-}"#,
            r#"{"data":[],"x":1-2}"#,
            r#"{"data":[],"x":+1}"#,
            r#"{"data":[],"x":.5}"#,
            r#"{"data":[],"x":nul}"#,
            r#"{"data":[],"x":truefalse}"#,
            // An empty trace has no root.
            r#"{"data":[{"traceID":"t","spans":[],"processes":{}}]}"#,
            // `__api__` root without a child; root process unknown; the
            // last of a repeated process id counts.
            r#"{"data":[{"traceID":"t","spans":[
                {"traceID":"t","spanID":"1","operationName":"/api","processID":"p"}
            ],"processes":{"p":{"serviceName":"__api__"}}}]}"#,
            r#"{"data":[{"traceID":"t","spans":[
                {"traceID":"t","spanID":"1","operationName":"/api","processID":"q"}
            ],"processes":{"p":{"serviceName":"S"}}}]}"#,
            r#"{"data":[{"traceID":"t","spans":[
                {"traceID":"t","spanID":"1","operationName":"o","processID":"p"}
            ],"processes":{"p":{"serviceName":"First"},"q":{"serviceName":"Q"},"p":{"serviceName":"Last"}}}]}"#,
            // A child listed before its parent; two roots (the first counts).
            r#"{"data":[{"traceID":"t","spans":[
                {"traceID":"t","spanID":"c","operationName":"child","processID":"p",
                 "references":[{"refType":"CHILD_OF","spanID":"r"}]},
                {"traceID":"t","spanID":"r","operationName":"root","processID":"p"},
                {"traceID":"t","spanID":"r2","operationName":"other","processID":"p"},
                {"traceID":"t","spanID":"c2","operationName":"child2","processID":"p",
                 "references":[{"refType":"CHILD_OF","spanID":"r"}],"startTime":5}
            ],"processes":{"p":{"serviceName":"S"}}}]}"#,
        ] {
            assert_same(json);
        }
    }

    #[test]
    fn a_chain_deeper_than_the_span_bound_is_too_deep_for_both() {
        let spans: Vec<String> = (0..SpanNode::MAX_DEPTH + 2)
            .map(|s| {
                let parent = if s == 0 {
                    String::new()
                } else {
                    format!(r#","references":[{{"refType":"CHILD_OF","spanID":"s{}"}}]"#, s - 1)
                };
                format!(r#"{{"traceID":"t","spanID":"s{s}","operationName":"o","processID":"p"{parent}}}"#)
            })
            .collect();
        let json = format!(
            r#"{{"data":[{{"traceID":"t","spans":[{}],"processes":{{"p":{{"serviceName":"S"}}}}}}]}}"#,
            spans.join(",")
        );
        assert_eq!(assert_same(&json).dropped, ["too_deep"]);
    }

    #[test]
    fn a_failed_import_leaves_the_name_table_alone() {
        // The first trace is sound and full of new names; the document is
        // not, and only its last byte says so.
        let json = r#"{"data":[{"traceID":"t","spans":[
            {"traceID":"t","spanID":"1","operationName":"brand-new-op","processID":"p"}
        ],"processes":{"p":{"serviceName":"BrandNewService"}}},
        {"traceID":"u","spans":[
            {"traceID":"u","spanID":"1","operationName":5,"processID":"p"}
        ],"processes":{}}]}"#;
        for doc in [json, &json[..json.len() - 1]] {
            let mut names = seeded();
            assert!(matches!(import(doc, &mut names), Err(ImportError::Json(_))));
            assert_eq!(names.len(), seeded().len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Whitespace runs of every length up to 40, spaces mixed with tabs,
        /// CRs and LFs, between every two tokens.
        #[test]
        fn long_whitespace_runs_import_alike(seed in any::<u64>()) {
            assert_same(&mutated_with(seed, Gaps::Long));
        }
    }

    /// The exporter's documents as it writes them, minified, and re-indented
    /// with tabs, CRLFs and indents that take several words to skip.
    #[test]
    fn exports_minified_and_reindented_import_alike() {
        for seed in 0..300 {
            let mut rng = Rng(seed);
            let pretty = exported(&mut rng);
            let expected = assert_same(&pretty);
            let json = from_value(&serde_json::from_str(&pretty).expect("export is JSON"));
            for gaps in [
                Gaps::None,
                Gaps::Indent("\n", "\t"),
                Gaps::Indent("\r\n", "    "),
                Gaps::Indent("\n", "          "),
            ] {
                let mut out = String::new();
                render(&mut out, &json, &mut rng, gaps, 0);
                assert_eq!(assert_same(&out), expected, "{out}");
            }
        }
    }

    /// A `"` or `\` at every offset of a string, the string starting at
    /// every offset of a word, as a kept name, a skipped key and the last
    /// value of the document (whose closing quote is two bytes from the
    /// end); and every cut through that last value.
    #[test]
    fn quotes_and_backslashes_at_every_offset_import_alike() {
        for pad in 0..16 {
            let pad = " ".repeat(pad);
            for len in 0..34 {
                for at in 0..=len + 1 {
                    let mut name: String =
                        (0..len).map(|i| char::from(b'a' + i as u8 % 26)).collect();
                    if at <= len {
                        name.insert_str(at, if at % 2 == 0 { "\\\"" } else { "\\\\" });
                    }
                    let json = format!(
                        r#"{{"data":[{{"traceID":"t","spans":[{{"traceID":"t","spanID":"s","operationName":"{name}","processID":"p","{name}":0}}],"processes":{{"p":{{"serviceName":"S"}}}}}}]{pad},"x":{pad}"{name}"}}"#
                    );
                    assert!(assert_same(&json).traces.is_ok(), "{json}");
                    if pad.is_empty() {
                        for cut in json.len() - name.len() - 3..json.len() {
                            assert_same(&json[..cut]);
                        }
                    }
                }
            }
        }
    }

    /// Ids and names that tie on the link's integer key — one length, the
    /// same first and last bytes, different bytes between — beside ids short
    /// enough to fit it whole, the empty id, ids past 255 bytes, duplicate
    /// span ids and process ids listed twice.
    #[test]
    fn ids_that_tie_on_the_key_import_alike() {
        let tied = |middle: &str| format!("abcdefgh{middle}12345678");
        let pool = [
            tied("X"),
            tied("Y"),
            tied("XY"),
            tied("YX"),
            tied("XX"),
            "abcdefg_12345678".to_owned(),
            "abcdefgX12345678".to_owned(),
            "x".repeat(300),
            format!("{}y{}", "x".repeat(150), "x".repeat(149)),
            String::new(),
            "a".to_owned(),
            "p".to_owned(),
            "p1".to_owned(),
            "abcdefg".to_owned(),
        ];
        let mut rng = Rng(11);
        let pick = |rng: &mut Rng| pool[rng.below(pool.len())].as_str();
        let mut linked = 0;
        for _ in 0..3000 {
            let processes: Vec<&str> = (0..1 + rng.below(4)).map(|_| pick(&mut rng)).collect();
            let table: Vec<String> = processes
                .iter()
                .map(|&id| format!(r#""{id}":{{"serviceName":"{}"}}"#, pick(&mut rng)))
                .collect();
            let n = 1 + rng.below(8);
            let ids: Vec<&str> = (0..n).map(|_| pick(&mut rng)).collect();
            let spans: Vec<String> = (0..n)
                .map(|s| {
                    let parent = match rng.below(5) {
                        0 => String::new(),
                        1 => pick(&mut rng).to_owned(),
                        _ => ids[rng.below(n)].to_owned(),
                    };
                    let references = match parent.is_empty() && s % 2 == 0 {
                        true => String::new(),
                        false => format!(r#","references":[{{"refType":"CHILD_OF","spanID":"{parent}"}}]"#),
                    };
                    let process = processes[rng.below(processes.len())];
                    let operation = pick(&mut rng);
                    format!(
                        r#"{{"traceID":"t","spanID":"{}","operationName":"{operation}","processID":"{process}"{references}}}"#,
                        ids[s]
                    )
                })
                .collect();
            let json = format!(
                r#"{{"data":[{{"traceID":"t","spans":[{}],"processes":{{{}}}}}]}}"#,
                spans.join(","),
                table.join(",")
            );
            linked += assert_same(&json).traces.map_or(0, |t| t.len());
        }
        assert!(linked > 500, "only {linked} of 3000 traces linked");
    }

    /// `startTime` and `duration` at and past the edges of `u64`, and in
    /// the lenient spellings the vendored grammar takes: the arrival time's
    /// bits and the verdict match.
    #[test]
    fn times_at_the_edges_of_u64_import_alike() {
        for start in [
            "18446744073709551615",
            "18446744073709551616",
            "18446744073709551614",
            "9999999999999999999",
            "10000000000000000000",
            "99999999999999999999",
            "000000000000000000000001",
            "-0",
            "01",
            "1.",
            "0",
            "-1",
            "1e19",
            "2.5e6",
        ] {
            for duration in ["0", "18446744073709551616", "-0", "1."] {
                let json = format!(
                    r#"{{"data":[{{"traceID":"t","spans":[
                    {{"traceID":"t","spanID":"1","operationName":"o","processID":"p","startTime":{start},"duration":{duration}}},
                    {{"traceID":"t","spanID":"2","operationName":"o","processID":"p","startTime":7,
                      "references":[{{"refType":"CHILD_OF","spanID":"1"}}]}}
                    ],"processes":{{"p":{{"serviceName":"S"}}}}}}]}}"#
                );
                assert_same(&json);
            }
        }
    }
}

/// The one-pass writer differenced against the serde export above: every
/// document must come out byte for byte as serde wrote it.
mod writer {
    use proptest::prelude::*;

    use super::super::{export as write, in_string_order};
    use super::*;

    /// Names that take each of the writer's escapes, none, or `__api__`.
    const NAMES: &[&str] = &[
        "FrontendNGINX",
        "/compose/post",
        "say \"hi\"",
        "back\\slash",
        "\t\n\r\u{8}\u{c}",
        "\u{0}\u{1}\u{1b}\u{1f} ",
        "del\u{7f}",
        "Média \"Service\"",
        "日本",
        "π/ρ😀",
        "__api__",
        "",
    ];

    fn name(rng: &mut Rng, names: &mut Interner) -> Sym {
        match rng.below(NAMES.len() + 6) {
            k if k < NAMES.len() => names.intern(NAMES[k]),
            k => names.intern(&format!("Svc{k}")),
        }
    }

    fn random_tree(rng: &mut Rng, names: &mut Interner, depth: usize) -> SpanNode {
        let component = name(rng, names);
        let operation = name(rng, names);
        let fanout = if depth >= 4 { 0 } else { rng.below(4) };
        let children = (0..fanout)
            .map(|_| random_tree(rng, names, depth + 1))
            .collect();
        SpanNode::with_children(component, operation, children)
    }

    /// Up to five random traces (zero is the empty document), named by a
    /// table that also holds names no trace uses.
    fn traces(seed: u64) -> (Interner, Vec<Trace>) {
        let mut rng = Rng(seed);
        let mut names = Interner::new();
        names.intern("unused");
        let traces = (0..rng.below(6))
            .map(|_| {
                let api = name(&mut rng, &mut names);
                Trace::new(api, random_tree(&mut rng, &mut names, 0))
            })
            .collect();
        (names, traces)
    }

    fn assert_same(traces: &[Trace], names: &Interner) -> String {
        let (old, new) = (export(traces, names), write(traces, names));
        assert_eq!(old, new, "serde (left) and writer (right) differ");
        new
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn random_documents_write_as_serde_wrote_them(seed in any::<u64>()) {
            let (names, traces) = traces(seed);
            assert_same(&traces, &names);
        }
    }

    /// The generator reaches what the property is for: the empty document,
    /// traces of eleven components and more, and a component named like
    /// the synthetic span's.
    #[test]
    fn the_generator_reaches_every_case() {
        let (mut empty, mut wide, mut api_named) = (false, false, false);
        for seed in 0..400 {
            let (names, traces) = traces(seed);
            empty |= traces.is_empty();
            for trace in &traces {
                let mut components = std::collections::HashSet::new();
                trace.root.visit(&mut |s| {
                    components.insert(s.component);
                    api_named |= names.resolve(s.component) == "__api__";
                });
                wide |= components.len() >= 11;
            }
        }
        assert!(empty && wide && api_named, "{empty} {wide} {api_named}");
    }

    #[test]
    fn edge_documents_write_as_serde_wrote_them() {
        let mut names = Interner::new();
        assert_eq!(assert_same(&[], &names), "{\n  \"data\": []\n}");
        // Every character below U+0020, U+007F and non-ASCII, in one name.
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain(['\u{7f}', 'é', '😀'])
            .collect();
        let odd = names.intern(&all);
        let api = names.intern("__api__");
        // A chain through fourteen components, and back through the first.
        let mut node = SpanNode::leaf(api, odd);
        for k in 0..13 {
            let component = names.intern(&format!("C{k}"));
            node = SpanNode::with_children(component, odd, vec![node]);
        }
        let first = node.component;
        let chain = Trace::new(odd, SpanNode::with_children(first, api, vec![node]));
        let leaf = Trace::new(api, SpanNode::leaf(odd, odd));
        let json = assert_same(&[chain.clone(), leaf, chain], &names);
        assert!(json.contains("\"p14\": {") && json.ends_with("\n  ]\n}"));
    }

    #[test]
    fn process_ids_list_in_string_order() {
        for count in 1..1200 {
            let mut ids: Vec<usize> = (0..count).collect();
            ids.sort_by_key(usize::to_string);
            let mut order = vec![0];
            in_string_order(0, count, &mut |k| order.push(k));
            assert_eq!(order, ids, "{count}");
        }
    }

    /// The writer sizes its text once: no document of names without
    /// escapes outgrows it (growing would double it), and none is sized a
    /// third larger than it came out (a few bytes, for the empty one).
    #[test]
    fn the_text_is_sized_once() {
        for seed in 0..200 {
            let (names, traces) = traces(seed);
            let mut plain = Interner::new();
            for k in 0..names.len() {
                plain.intern(&format!("Name{k}"));
            }
            let json = write(&traces, &plain);
            let slack = if traces.is_empty() { 4 } else { json.len() / 3 };
            assert!(json.capacity() <= json.len() + slack, "{seed}");
        }
    }
}
