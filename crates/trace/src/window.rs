//! Partitioning timestamped traces into fixed scrape windows.
//!
//! Resource utilization is measured as the average consumption over a time
//! window (§4.1); DeepRest partitions the collected traces with the same
//! boundaries so feature vector `x_t` and utilization `y_t` align.

use serde::{Deserialize, Serialize};

use crate::Trace;

/// A trace together with the time (in seconds since the observation start)
/// at which its root request was received.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimestampedTrace {
    /// Arrival time, seconds since the start of the observation period.
    pub at_secs: f64,
    /// The trace.
    pub trace: Trace,
}

/// Traces grouped by scrape window: `windows[t]` holds every trace whose
/// arrival fell in `[t·window_secs, (t+1)·window_secs)`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WindowedTraces {
    /// Window length in seconds.
    pub window_secs: f64,
    /// Per-window traces.
    pub windows: Vec<Vec<Trace>>,
}

impl WindowedTraces {
    /// Creates an empty container with `count` windows.
    pub fn with_windows(window_secs: f64, count: usize) -> Self {
        Self {
            window_secs,
            windows: vec![Vec::new(); count],
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Returns `true` when there are no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total number of traces across all windows.
    pub fn trace_count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Traces in window `t`.
    pub fn window(&self, t: usize) -> &[Trace] {
        &self.windows[t]
    }

    /// Iterates over all traces in window order.
    pub fn iter_all(&self) -> impl Iterator<Item = &Trace> {
        self.windows.iter().flatten()
    }

    /// Keeps only the windows in `range`, renumbering from zero. Used to
    /// split an observation period into application-learning and query/check
    /// segments.
    pub fn slice(&self, range: std::ops::Range<usize>) -> WindowedTraces {
        WindowedTraces {
            window_secs: self.window_secs,
            windows: self.windows[range].to_vec(),
        }
    }

    /// Concatenates another windowed collection after this one.
    ///
    /// # Panics
    ///
    /// Panics if the window lengths differ.
    pub fn extend(&mut self, other: WindowedTraces) {
        assert_eq!(
            self.window_secs, other.window_secs,
            "WindowedTraces::extend: window length mismatch"
        );
        self.windows.extend(other.windows);
    }
}

/// The index of the window that covers an arrival stamped `at_secs`, or
/// `None` for a stamp no window covers (NaN, ±∞, negative). The batch
/// [`partition`] and the streaming assembler both place arrivals with this.
pub(crate) fn window_index(at_secs: f64, window_secs: f64) -> Option<usize> {
    (at_secs.is_finite() && at_secs >= 0.0).then(|| (at_secs / window_secs) as usize)
}

/// Partitions timestamped traces into windows of `window_secs`, producing
/// exactly `window_count` windows; traces falling outside are discarded.
///
/// # Panics
///
/// Panics if `window_secs` is not positive.
pub fn partition(
    traces: impl IntoIterator<Item = TimestampedTrace>,
    window_secs: f64,
    window_count: usize,
) -> WindowedTraces {
    assert!(window_secs > 0.0, "partition: window_secs must be positive");
    let mut out = WindowedTraces::with_windows(window_secs, window_count);
    for t in traces {
        match window_index(t.at_secs, window_secs) {
            Some(idx) if idx < window_count => out.windows[idx].push(t.trace),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interner, SpanNode};

    fn trace(i: &mut Interner) -> Trace {
        let c = i.intern("C");
        let o = i.intern("o");
        Trace::new(i.intern("/x"), SpanNode::leaf(c, o))
    }

    #[test]
    fn partitions_by_arrival_time() {
        let mut i = Interner::new();
        let t = trace(&mut i);
        let stamped = vec![
            TimestampedTrace {
                at_secs: 0.0,
                trace: t.clone(),
            },
            TimestampedTrace {
                at_secs: 4.9,
                trace: t.clone(),
            },
            TimestampedTrace {
                at_secs: 5.0,
                trace: t.clone(),
            },
            TimestampedTrace {
                at_secs: 14.9,
                trace: t.clone(),
            },
            TimestampedTrace {
                at_secs: 15.0,
                trace: t.clone(),
            }, // out of range
            TimestampedTrace {
                at_secs: -1.0,
                trace: t,
            }, // invalid
        ];
        let w = partition(stamped, 5.0, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.window(0).len(), 2);
        assert_eq!(w.window(1).len(), 1);
        assert_eq!(w.window(2).len(), 1);
        assert_eq!(w.trace_count(), 4);
    }

    #[test]
    fn slice_renumbers_windows() {
        let mut i = Interner::new();
        let t = trace(&mut i);
        let stamped: Vec<_> = (0..10)
            .map(|k| TimestampedTrace {
                at_secs: k as f64,
                trace: t.clone(),
            })
            .collect();
        let w = partition(stamped, 1.0, 10);
        let tail = w.slice(7..10);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.trace_count(), 3);
    }

    #[test]
    fn extend_appends_windows() {
        let mut a = WindowedTraces::with_windows(5.0, 2);
        let b = WindowedTraces::with_windows(5.0, 3);
        a.extend(b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn extend_rejects_mismatched_windows() {
        let mut a = WindowedTraces::with_windows(5.0, 1);
        a.extend(WindowedTraces::with_windows(10.0, 1));
    }
}
