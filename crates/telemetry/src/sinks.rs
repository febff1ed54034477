//! Concrete [`Sink`](crate::Sink) implementations: in-memory aggregation
//! for tests and a JSONL file writer for offline analysis.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::{Event, Sink};

/// Aggregated view of one span name in a [`MemorySink`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of times the scope completed.
    pub count: u64,
    /// Total wall-clock microseconds across all completions.
    pub total_micros: u64,
}

#[derive(Default)]
struct MemoryState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<f64>>,
    spans: BTreeMap<String, SpanStats>,
    events: u64,
}

/// Aggregates events in memory. The workhorse of telemetry-backed
/// invariant tests: install one via [`crate::with_sink`], run the code
/// under test, then assert on [`MemorySink::counter`] and friends.
#[derive(Default)]
pub struct MemorySink {
    state: Mutex<MemoryState>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().counters.clone()
    }

    /// Every value a gauge has taken, in record order.
    pub fn gauges(&self, name: &str) -> Vec<f64> {
        self.lock().gauges.get(name).cloned().unwrap_or_default()
    }

    /// Completion count of a span name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.lock().spans.get(name).map_or(0, |s| s.count)
    }

    /// Aggregated stats of a span name.
    pub fn span_stats(&self, name: &str) -> SpanStats {
        self.lock().spans.get(name).copied().unwrap_or_default()
    }

    /// Total events delivered.
    pub fn event_count(&self) -> u64 {
        self.lock().events
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        let mut state = self.lock();
        state.events += 1;
        match event {
            Event::Counter { name, delta } => {
                *state.counters.entry(name.into_owned()).or_insert(0) += delta;
            }
            Event::Gauge { name, value } => {
                state
                    .gauges
                    .entry(name.into_owned())
                    .or_default()
                    .push(value);
            }
            Event::Span { name, micros } => {
                let stats = state.spans.entry(name.into_owned()).or_default();
                stats.count += 1;
                stats.total_micros += micros;
            }
        }
    }
}

/// Appends one JSON object per event to a file — the machine-readable
/// `telemetry.jsonl` the bench harness emits next to its result dumps.
///
/// Line shapes (a `seq` field gives a stable total order):
///
/// ```text
/// {"seq":0,"type":"span","name":"fit.train","micros":152340}
/// {"seq":1,"type":"counter","name":"pool.tasks","delta":8}
/// {"seq":2,"type":"gauge","name":"train.epoch_loss","value":0.0314}
/// ```
///
/// Each event is emitted as one `write_all` of a complete line, so every
/// recorded event is durable and parseable even when the process exits
/// without dropping the sink (the globally installed sink never drops) —
/// a buffered writer would lose its tail and could split a line across
/// flush boundaries.
pub(crate) struct JsonlSink {
    writer: Mutex<Numbered>,
}

struct Numbered {
    out: std::fs::File,
    seq: u64,
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`, creating parent directories
    /// as needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the path is not writable.
    pub(crate) fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(Self {
            writer: Mutex::new(Numbered { out: file, seq: 0 }),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: Event) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = w.seq;
        w.seq += 1;
        let line = match event {
            Event::Span { name, micros } => format!(
                "{{\"seq\":{seq},\"type\":\"span\",\"name\":\"{}\",\"micros\":{micros}}}\n",
                escape(&name)
            ),
            Event::Counter { name, delta } => format!(
                "{{\"seq\":{seq},\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}\n",
                escape(&name)
            ),
            Event::Gauge { name, value } => format!(
                "{{\"seq\":{seq},\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}\n",
                escape(&name),
                json_f64(value)
            ),
        };
        // Failures are swallowed: telemetry must never abort the pipeline.
        let _ = w.out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.out.flush();
    }
}

/// Escapes a name for embedding in a JSON string literal. Names are dotted
/// identifier paths in practice, but expert keys may carry arbitrary
/// component names, so quote/backslash/control characters are handled.
fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a valid JSON number (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a decimal point; that is
        // still a valid JSON number, so keep it.
        s
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn memory_sink_aggregates_by_kind() {
        let sink = MemorySink::new();
        sink.record(Event::Counter {
            name: Cow::Borrowed("c"),
            delta: 4,
        });
        sink.record(Event::Counter {
            name: Cow::Borrowed("c"),
            delta: 1,
        });
        sink.record(Event::Gauge {
            name: Cow::Borrowed("g"),
            value: 2.0,
        });
        sink.record(Event::Gauge {
            name: Cow::Borrowed("g"),
            value: 3.0,
        });
        sink.record(Event::Span {
            name: Cow::Borrowed("s"),
            micros: 10,
        });
        sink.record(Event::Span {
            name: Cow::Borrowed("s"),
            micros: 5,
        });
        assert_eq!(sink.counter("c"), 5);
        assert_eq!(sink.gauges("g"), vec![2.0, 3.0]);
        assert_eq!(
            sink.span_stats("s"),
            SpanStats {
                count: 2,
                total_micros: 15
            }
        );
        assert_eq!(sink.event_count(), 6);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("deeprest-telemetry-test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(Event::Span {
                name: Cow::Borrowed("fit.train"),
                micros: 123,
            });
            sink.record(Event::Counter {
                name: Cow::Borrowed("pool.tasks"),
                delta: 8,
            });
            sink.record(Event::Gauge {
                name: Cow::Borrowed("loss \"q\""),
                value: 0.5,
            });
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(lines[0].contains("\"micros\":123"));
        assert!(lines[1].contains("\"delta\":8"));
        assert!(lines[2].contains("\\\"q\\\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn nonfinite_gauges_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3");
    }
}
