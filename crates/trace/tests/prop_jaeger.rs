//! Adversarial property tests for the Jaeger importer: documents mixing
//! valid traces with deliberately corrupt ones (unknown processes,
//! dangling parents, parent cycles, duplicate span ids, absurd
//! timestamps) and documents truncated at arbitrary byte offsets.
//!
//! The contract under attack: the importer **never panics**, a malformed
//! *document* is a typed [`ImportError`], and a malformed *trace* inside a
//! good document drops exactly that trace — the valid subset is conserved,
//! imported completely and counted exactly.

use deeprest_trace::jaeger::{import_timestamped_counted, ImportError};
use deeprest_trace::Interner;
use proptest::prelude::*;

/// `import_timestamped_counted` on a document whose one trace carries
/// `extra` as an unread field of its span.
fn import_with_span_field(extra: &str) -> Result<usize, ImportError> {
    let json = format!(
        r#"{{"data":[{{"traceID":"t","spans":[{{"traceID":"t","spanID":"1","operationName":"op","processID":"p","tags":{extra}}}],"processes":{{"p":{{"serviceName":"S"}}}}}}]}}"#
    );
    import_timestamped_counted(&json, &mut Interner::new()).map(|stats| stats.traces.len())
}

/// Nesting deep enough to overflow the stack of a parser that recurses per
/// level without a bound: a typed error, in a skipped field as anywhere.
#[test]
fn absurd_nesting_is_a_typed_error_not_a_stack_overflow() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let bomb = format!(r#"{{"data":[],"x":{}}}"#, nested(200_000));
    let result = import_timestamped_counted(&bomb, &mut Interner::new());
    assert!(matches!(result, Err(ImportError::Json(_))));
    assert!(matches!(
        import_with_span_field(&nested(200_000)),
        Err(ImportError::Json(_))
    ));
    // Real tag values nest a few levels and are skipped.
    assert_eq!(import_with_span_field(&nested(100)).expect("imports"), 1);
}

/// A `\u` escape naming half a surrogate pair is not text: a typed error
/// wherever the string sits (this used to panic in debug builds and decode
/// to a garbage scalar in release ones).
#[test]
fn unpaired_surrogates_are_typed_errors() {
    for bad in [
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\udfff\ud800""#,
    ] {
        assert!(
            matches!(import_with_span_field(bad), Err(ImportError::Json(_))),
            "{bad} in a skipped field"
        );
        let json = format!(
            r#"{{"data":[{{"traceID":"t","spans":[{{"traceID":"t","spanID":"1","operationName":{bad},"processID":"p"}}],"processes":{{"p":{{"serviceName":"S"}}}}}}]}}"#
        );
        let result = import_timestamped_counted(&json, &mut Interner::new());
        assert!(
            matches!(result, Err(ImportError::Json(_))),
            "{bad} as a name"
        );
    }
    assert_eq!(
        import_with_span_field(r#""\ud83d\ude00""#).expect("a whole pair"),
        1
    );
}

/// One syntactically valid Jaeger trace: a parent chain of `spans` spans
/// across two known processes, with arbitrary (possibly absurd) start
/// times. Always imports to exactly one trace.
fn valid_trace(idx: usize, spans: usize, start_time: u64) -> String {
    let spans = spans.max(1);
    let mut out = Vec::with_capacity(spans);
    for s in 0..spans {
        let refs = if s == 0 {
            String::new()
        } else {
            format!(
                r#""references":[{{"refType":"CHILD_OF","spanID":"t{idx}s{}"}}],"#,
                s - 1
            )
        };
        out.push(format!(
            r#"{{"traceID":"t{idx}","spanID":"t{idx}s{s}","operationName":"op{}",{refs}"processID":"p{}","startTime":{},"duration":0}}"#,
            s % 3,
            s % 2,
            start_time.wrapping_add(s as u64)
        ));
    }
    format!(
        r#"{{"traceID":"t{idx}","spans":[{}],"processes":{{"p0":{{"serviceName":"Alpha"}},"p1":{{"serviceName":"Beta"}}}}}}"#,
        out.join(",")
    )
}

/// One trace guaranteed to be dropped, by corruption kind:
/// 0 — a span naming an unknown process id;
/// 1 — a span whose parent reference points nowhere;
/// 2 — a two-span parent cycle (no root);
/// 3 — a span that is its own parent via a duplicate-id self reference.
fn malformed_trace(idx: usize, kind: u8) -> String {
    let procs = r#""processes":{"p0":{"serviceName":"Alpha"}}"#;
    match kind % 4 {
        0 => format!(
            r#"{{"traceID":"m{idx}","spans":[{{"traceID":"m{idx}","spanID":"m{idx}s0","operationName":"op0","processID":"ghost","startTime":1,"duration":0}}],{procs}}}"#
        ),
        1 => format!(
            r#"{{"traceID":"m{idx}","spans":[{{"traceID":"m{idx}","spanID":"m{idx}s0","operationName":"op0","references":[{{"refType":"CHILD_OF","spanID":"nowhere"}}],"processID":"p0","startTime":1,"duration":0}}],{procs}}}"#
        ),
        2 => format!(
            r#"{{"traceID":"m{idx}","spans":[{{"traceID":"m{idx}","spanID":"m{idx}s0","operationName":"op0","references":[{{"refType":"CHILD_OF","spanID":"m{idx}s1"}}],"processID":"p0","startTime":1,"duration":0}},{{"traceID":"m{idx}","spanID":"m{idx}s1","operationName":"op1","references":[{{"refType":"CHILD_OF","spanID":"m{idx}s0"}}],"processID":"p0","startTime":1,"duration":0}}],{procs}}}"#
        ),
        _ => format!(
            r#"{{"traceID":"m{idx}","spans":[{{"traceID":"m{idx}","spanID":"m{idx}s0","operationName":"op0","references":[{{"refType":"CHILD_OF","spanID":"m{idx}s0"}}],"processID":"p0","startTime":1,"duration":0}}],{procs}}}"#
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid and malformed traces interleaved arbitrarily: the valid
    /// subset imports completely, the corrupt subset is dropped and
    /// counted — exactly, and without panicking.
    #[test]
    fn valid_subset_is_conserved_and_drops_are_counted(
        valid_sizes in proptest::collection::vec((1usize..6, any::<u64>()), 0..6),
        malformed_kinds in proptest::collection::vec(0u8..4, 0..6),
        interleave in any::<u64>(),
    ) {
        // Deterministic interleave: walk both lists, picking sides by the
        // seed's bits, so corrupt traces land at arbitrary positions.
        let mut entries = Vec::new();
        let (mut v, mut m, mut bits) = (0usize, 0usize, interleave);
        while v < valid_sizes.len() || m < malformed_kinds.len() {
            let take_valid = m >= malformed_kinds.len()
                || (v < valid_sizes.len() && bits & 1 == 0);
            if take_valid {
                let (spans, start) = valid_sizes[v];
                entries.push(valid_trace(v, spans, start));
                v += 1;
            } else {
                entries.push(malformed_trace(m, malformed_kinds[m]));
                m += 1;
            }
            bits = bits.rotate_right(1);
        }
        let json = format!(r#"{{"data":[{}]}}"#, entries.join(","));

        let mut interner = Interner::new();
        let stats = import_timestamped_counted(&json, &mut interner)
            .expect("document-level JSON is well-formed");
        prop_assert_eq!(stats.traces.len(), valid_sizes.len());
        prop_assert_eq!(stats.malformed_dropped, malformed_kinds.len());
        // Span counts of the survivors match what was emitted, in order.
        for (t, (spans, _)) in stats.traces.iter().zip(&valid_sizes) {
            prop_assert_eq!(t.trace.span_count(), *spans);
            prop_assert!(t.at_secs.is_finite());
        }
    }

    /// A document truncated at any byte offset is a typed error or a valid
    /// prefix — never a panic. (The generated JSON is pure ASCII, so every
    /// byte offset is a char boundary.)
    #[test]
    fn truncated_documents_are_typed_errors_not_panics(
        spans in 1usize..5,
        start in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let json = format!(r#"{{"data":[{}]}}"#, valid_trace(0, spans, start));
        let cut = ((json.len() as f64) * frac) as usize;
        let mut interner = Interner::new();
        let result = import_timestamped_counted(&json[..cut], &mut interner);
        // Any prefix short of the full document must fail as typed JSON
        // error; only emptiness of the result matters, not panicking.
        prop_assert!(result.is_err() || cut == json.len());
    }

    /// Absurd timestamps (any u64 microseconds, including u64::MAX) are
    /// data, not defects: the trace imports and its arrival time is a
    /// finite f64.
    #[test]
    fn absurd_timestamps_import_finite(start in any::<u64>()) {
        let json = format!(r#"{{"data":[{}]}}"#, valid_trace(0, 3, start));
        let mut interner = Interner::new();
        let stats = import_timestamped_counted(&json, &mut interner).expect("valid");
        prop_assert_eq!(stats.traces.len(), 1);
        prop_assert!(stats.traces[0].at_secs.is_finite());
        prop_assert!(stats.traces[0].at_secs >= 0.0);
    }

    /// Duplicate span ids — shared between roots and children in the same
    /// trace — either import within the span-count budget or are dropped;
    /// they never panic and never blow up the tree.
    #[test]
    fn duplicate_span_ids_never_panic(copies in 2usize..8) {
        let mut spans = Vec::new();
        for c in 0..copies {
            // Every span shares one id and references it as parent — a
            // maximally ambiguous self-referential knot.
            spans.push(format!(
                r#"{{"traceID":"d","spanID":"dup","operationName":"op{c}","references":[{{"refType":"CHILD_OF","spanID":"dup"}}],"processID":"p0","startTime":1,"duration":0}}"#
            ));
        }
        let json = format!(
            r#"{{"data":[{{"traceID":"d","spans":[{}],"processes":{{"p0":{{"serviceName":"Alpha"}}}}}}]}}"#,
            spans.join(",")
        );
        let mut interner = Interner::new();
        let stats = import_timestamped_counted(&json, &mut interner).expect("well-formed JSON");
        for t in &stats.traces {
            prop_assert!(t.trace.span_count() <= copies);
        }
    }
}
