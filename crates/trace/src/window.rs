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

/// Stamps window `t`'s traces with arrival times spread evenly inside it:
/// the `j`-th of `n` arrives at `(t + (j + 0.5) / n) · window_secs`. The
/// inverse of [`partition`]: partitioning every window's stamped arrivals
/// gives the windows back, in order.
pub fn stamp<I>(t: usize, traces: I, window_secs: f64) -> impl Iterator<Item = TimestampedTrace>
where
    I: IntoIterator<Item = Trace>,
    I::IntoIter: ExactSizeIterator,
{
    let traces = traces.into_iter();
    let n = traces.len().max(1) as f64;
    traces.enumerate().map(move |(j, trace)| TimestampedTrace {
        at_secs: (t as f64 + (j as f64 + 0.5) / n) * window_secs,
        trace,
    })
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
    fn partition_of_stamped_windows_gives_them_back() {
        let mut i = Interner::new();
        let api = i.intern("/x");
        let c = i.intern("C");
        let mut distinct = (0..).map(|k| {
            let op = i.intern(&format!("op{k}"));
            Trace::new(api, SpanNode::leaf(c, op))
        });
        let window_secs = 0.3;
        let counts = [3, 0, 1, 0, 0, 7, 2, 0];
        let windows: Vec<Vec<Trace>> = counts
            .iter()
            .map(|&n| distinct.by_ref().take(n).collect())
            .collect();
        let stamped: Vec<_> = windows
            .iter()
            .enumerate()
            .flat_map(|(t, w)| stamp(t, w.iter().cloned(), window_secs))
            .collect();
        assert!(stamped.windows(2).all(|p| p[0].at_secs < p[1].at_secs));
        let back = partition(stamped, window_secs, counts.len());
        assert_eq!(back.window_secs, window_secs);
        assert_eq!(back.windows, windows);
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
}
