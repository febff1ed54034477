//! Replay helpers: turn recorded JSONL streams of Jaeger documents into the
//! timestamped arrival stream the pipeline ingests, and re-time arrivals.
//! One document is [`jaeger::import_timestamped`].

use deeprest_trace::jaeger::{self, ImportError};
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;

/// Loads a JSONL stream: each non-empty line is one Jaeger document (the
/// natural shape of a `/api/traces` poller appending batches to a log).
/// Traces concatenate in line order.
///
/// # Errors
///
/// Returns the first [`ImportError`] encountered.
pub fn load_jsonl(
    text: &str,
    interner: &mut Interner,
) -> Result<Vec<TimestampedTrace>, ImportError> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.extend(jaeger::import_timestamped(line, interner)?);
    }
    Ok(out)
}

/// Reassigns arrival times on an even schedule: trace `i` arrives at
/// `i * spacing_secs`. Fixtures exported by [`jaeger::export`] carry zero
/// timestamps; spreading them turns such a document into a meaningful
/// stream (e.g. `spacing = window_secs / per_window` replays a batch
/// fixture at `per_window` traces per window).
///
/// # Panics
///
/// Panics if `spacing_secs` is not positive.
pub fn spread_evenly(
    mut traces: Vec<TimestampedTrace>,
    spacing_secs: f64,
) -> Vec<TimestampedTrace> {
    assert!(
        spacing_secs > 0.0,
        "spread_evenly: spacing_secs must be positive"
    );
    for (i, t) in traces.iter_mut().enumerate() {
        t.at_secs = i as f64 * spacing_secs;
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_trace::{SpanNode, Trace};

    fn doc() -> (Interner, String) {
        let mut i = Interner::new();
        let c = i.intern("C");
        let o = i.intern("o");
        let api = i.intern("/x");
        let t = Trace::new(api, SpanNode::leaf(c, o));
        let json = jaeger::export(&[t.clone(), t], &i);
        (i, json)
    }

    #[test]
    fn jsonl_concatenates_lines() {
        let (_, json) = doc();
        let line = json.replace('\n', " ");
        let text = format!("{line}\n\n{line}\n");
        let mut i = Interner::new();
        let traces = load_jsonl(&text, &mut i).expect("valid JSONL");
        assert_eq!(traces.len(), 4);
    }

    #[test]
    fn spread_assigns_even_schedule() {
        let (_, json) = doc();
        let mut i = Interner::new();
        let traces = jaeger::import_timestamped(&json, &mut i).expect("valid");
        let spread = spread_evenly(traces, 2.5);
        let at: Vec<f64> = spread.iter().map(|t| t.at_secs).collect();
        assert_eq!(at, vec![0.0, 2.5]);
    }
}
