//! The serde import this crate shipped before the pull parser, kept as the
//! oracle: `serde_json::from_str` into the owned `JaegerDoc`, then one hash
//! map of child lists per trace. Test-only, and without the fault probes and
//! the telemetry (the differenced properties arm neither).
//!
//! One input is refused here that the old import took: the stand-in serde
//! also reads a map from an array of `[key, value]` pairs, a `processes`
//! encoding Jaeger never writes and the parser does not accept.

use std::collections::{HashMap, HashSet};

use serde::Deserialize;
use serde_json::{Error, Value};

use super::{ImportError, JaegerDoc, JaegerSpan, JaegerTrace, MAX_SPAN_DEPTH};
use crate::window::TimestampedTrace;
use crate::{Interner, SpanNode, Trace};

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
    if depth >= MAX_SPAN_DEPTH {
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

    fn render(out: &mut String, json: &Json, rng: &mut Rng) {
        let gap = |out: &mut String, rng: &mut Rng| {
            out.push_str(rng.pick(&["", "", " ", "\n\t", "\r\n  "]))
        };
        match json {
            Json::Raw(text) => out.push_str(text),
            Json::Str(s) => render_string(out, s, rng),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, rng);
                    render(out, item, rng);
                }
                gap(out, rng);
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, rng);
                    render_string(out, key, rng);
                    gap(out, rng);
                    out.push(':');
                    gap(out, rng);
                    render(out, value, rng);
                }
                gap(out, rng);
                out.push('}');
            }
        }
    }

    /// An exported document, damaged and re-spelled from `seed`.
    fn mutated(seed: u64) -> String {
        let mut rng = Rng(seed);
        let value: Value = serde_json::from_str(&exported(&mut rng)).expect("export is JSON");
        let mut json = from_value(&value);
        mutate(&mut json, &mut rng, &mut Vec::new());
        let mut out = String::new();
        render(&mut out, &json, &mut rng);
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
        let spans: Vec<String> = (0..MAX_SPAN_DEPTH + 2)
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
}
