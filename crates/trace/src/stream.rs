//! Watermark-based streaming window assembly.
//!
//! The batch pipeline ([`crate::window::partition`]) requires every
//! timestamped trace up front. A live deployment instead observes traces as
//! an unbounded, mildly out-of-order stream: spans from concurrent
//! collectors arrive interleaved, and stragglers show up seconds after their
//! window has elapsed. The [`WindowAssembler`] buffers arrivals and *seals*
//! a scrape window only once the event-time watermark — the maximum
//! observed arrival time minus a configurable lateness bound — has passed
//! the window's end. Sealed windows are bit-identical to what
//! [`crate::window::partition`] would produce from the same traces, so a
//! streaming consumer and a batch consumer of the same data agree exactly.
//!
//! Arrivals whose window has already been sealed are *counted*, never
//! silently discarded: [`WindowAssembler::late_dropped`] reports how many
//! traces exceeded the lateness bound.

use serde::{Deserialize, Serialize};

use crate::window::{window_index, TimestampedTrace};
use crate::Trace;

/// One window the assembler has sealed: its index in the stream (window `t`
/// covers `[t·window_secs, (t+1)·window_secs)`) and every trace that
/// arrived for it, in deterministic order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SealedWindow {
    /// Window index since the start of the stream.
    pub index: usize,
    /// The window's traces, sorted by `(arrival time, canonical key)` so the
    /// sealed contents are independent of arrival order.
    pub traces: Vec<Trace>,
}

/// A window still accepting arrivals.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct OpenWindow {
    index: usize,
    entries: Vec<TimestampedTrace>,
}

/// Assembles an out-of-order stream of timestamped traces into sealed
/// scrape windows using an event-time watermark.
///
/// Windows seal strictly in index order, including empty ones, so a
/// downstream consumer sees the same gapless window sequence the batch
/// [`crate::window::partition`] produces. The whole assembler is
/// serializable; checkpointing it alongside downstream state makes the
/// stream position crash-recoverable.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowAssembler {
    window_secs: f64,
    lateness_secs: f64,
    /// Index of the next window to seal; everything below is immutable.
    next_seal: usize,
    /// High-water mark of observed arrival times.
    max_event_secs: Option<f64>,
    /// Windows not yet sealed, ordered by index.
    open: Vec<OpenWindow>,
    /// Traces that arrived after their window sealed (or carried an invalid
    /// timestamp) — counted, never silently lost.
    late_dropped: u64,
}

impl WindowAssembler {
    /// Creates an assembler for `window_secs`-long windows tolerating
    /// arrivals up to `lateness_secs` behind the newest observed event.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive or `lateness_secs` is
    /// negative.
    pub fn new(window_secs: f64, lateness_secs: f64) -> Self {
        assert!(
            window_secs > 0.0,
            "WindowAssembler: window_secs must be positive"
        );
        assert!(
            lateness_secs >= 0.0,
            "WindowAssembler: lateness_secs must be non-negative"
        );
        Self {
            window_secs,
            lateness_secs,
            next_seal: 0,
            max_event_secs: None,
            open: Vec::new(),
            late_dropped: 0,
        }
    }

    /// The current event-time watermark: the maximum observed arrival time
    /// minus the lateness bound. Windows ending at or before the watermark
    /// are sealed. `None` before the first arrival.
    pub(crate) fn watermark_secs(&self) -> Option<f64> {
        self.max_event_secs.map(|m| m - self.lateness_secs)
    }

    /// How many traces arrived too late (or with invalid timestamps) and
    /// were dropped.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Feeds one arrival. Returns every window the advancing watermark
    /// sealed, in index order (possibly empty windows in between).
    pub fn push(&mut self, t: TimestampedTrace) -> Vec<SealedWindow> {
        let t_at = t.at_secs;
        let idx = match window_index(t_at, self.window_secs) {
            Some(idx) if idx >= self.next_seal => idx,
            _ => {
                self.late_dropped += 1;
                return Vec::new();
            }
        };
        match self.open.binary_search_by_key(&idx, |w| w.index) {
            Ok(pos) => self.open[pos].entries.push(t),
            Err(pos) => self.open.insert(
                pos,
                OpenWindow {
                    index: idx,
                    entries: vec![t],
                },
            ),
        }
        let newest = match self.max_event_secs {
            Some(m) => m.max(t_at),
            None => t_at,
        };
        self.max_event_secs = Some(newest);
        self.seal_ready()
    }

    /// Seals every window the current watermark has passed.
    fn seal_ready(&mut self) -> Vec<SealedWindow> {
        let Some(watermark) = self.watermark_secs() else {
            return Vec::new();
        };
        if watermark <= 0.0 {
            return Vec::new();
        }
        // Window w is final once its end `(w+1)·window_secs` is at or below
        // the watermark, i.e. for all w < ⌊watermark / window_secs⌋.
        let sealed_below = (watermark / self.window_secs) as usize;
        self.seal_until(sealed_below)
    }

    /// Seals windows `next_seal..below`, emitting empties for gaps.
    fn seal_until(&mut self, below: usize) -> Vec<SealedWindow> {
        let mut out = Vec::new();
        while self.next_seal < below {
            let index = self.next_seal;
            let mut entries = match self.open.first() {
                Some(w) if w.index == index => self.open.remove(0).entries,
                _ => Vec::new(),
            };
            // Deterministic contents regardless of arrival order. Stamps
            // are finite and `>= 0.0`, which admits `-0.0`: adding `+0.0`
            // turns it into `+0.0` and leaves every other stamp alone, and
            // for non-negative finite floats the bit pattern sorts as the
            // value does.
            entries.sort_by_cached_key(|e| ((e.at_secs + 0.0).to_bits(), e.trace.canonical_key()));
            out.push(SealedWindow {
                index,
                traces: entries.into_iter().map(|e| e.trace).collect(),
            });
            self.next_seal += 1;
        }
        out
    }

    /// Seals everything still buffered (end of stream): every window up to
    /// and including the last one holding data. The assembler remains
    /// usable; further arrivals for flushed windows count as late.
    pub fn flush(&mut self) -> Vec<SealedWindow> {
        match self.open.last() {
            Some(w) => {
                let below = w.index + 1;
                self.seal_until(below)
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::partition;
    use crate::{Interner, SpanNode};

    fn mk(i: &mut Interner, api: &str) -> Trace {
        let c = i.intern("C");
        let o = i.intern("o");
        let a = i.intern(api);
        Trace::new(a, SpanNode::leaf(c, o))
    }

    fn at(at_secs: f64, trace: &Trace) -> TimestampedTrace {
        TimestampedTrace {
            at_secs,
            trace: trace.clone(),
        }
    }

    #[test]
    fn seals_in_order_with_empty_gaps() {
        let mut i = Interner::new();
        let t = mk(&mut i, "/x");
        let mut asm = WindowAssembler::new(5.0, 2.0);
        assert!(asm.push(at(1.0, &t)).is_empty());
        // Watermark 18: windows 0, 1 and 2 seal (1 and 2 empty); window 3
        // ends at 20 > 18 and stays open.
        let sealed = asm.push(at(20.0, &t));
        assert_eq!(sealed.len(), 3);
        assert_eq!(sealed[0].traces.len(), 1);
        assert!(sealed[1].traces.is_empty());
        assert!(sealed[2].traces.is_empty());
        assert_eq!(asm.next_seal, 3);
    }

    #[test]
    fn tolerates_reordering_within_lateness_bound() {
        let mut i = Interner::new();
        let t = mk(&mut i, "/x");
        let mut asm = WindowAssembler::new(5.0, 3.0);
        // 6.0 arrives before 4.0: watermark after 6.0 is 3.0 < 5.0, so
        // window 0 is still open and the straggler is accepted.
        assert!(asm.push(at(6.0, &t)).is_empty());
        assert!(asm.push(at(4.0, &t)).is_empty());
        let sealed = asm.push(at(11.0, &t));
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].traces.len(), 1);
        assert_eq!(asm.late_dropped(), 0);
    }

    #[test]
    fn drops_and_counts_beyond_lateness_bound() {
        let mut i = Interner::new();
        let t = mk(&mut i, "/x");
        let mut asm = WindowAssembler::new(5.0, 1.0);
        asm.push(at(20.0, &t)); // Watermark 19: windows 0..3 sealed.
        assert!(asm.push(at(2.0, &t)).is_empty());
        assert_eq!(asm.late_dropped(), 1);
        // Invalid timestamps count too.
        asm.push(at(-1.0, &t));
        asm.push(at(f64::NAN, &t));
        assert_eq!(asm.late_dropped(), 3);
    }

    #[test]
    fn matches_batch_partition() {
        let mut i = Interner::new();
        let a = mk(&mut i, "/a");
        let b = mk(&mut i, "/b");
        // Stamps no window covers sit between the valid ones: both sides
        // must leave them out (the assembler counts them). `-0.0` is a
        // stamp window 0 covers, and its first.
        let stamped = vec![
            at(f64::NAN, &b),
            at(-0.0, &b),
            at(0.5, &a),
            at(4.9, &b),
            at(f64::NEG_INFINITY, &a),
            at(5.0, &a),
            at(-2.5, &a),
            at(12.0, &b),
            at(f64::INFINITY, &b),
            at(14.9, &a),
        ];
        let batch = partition(stamped.clone(), 5.0, 3);
        assert_eq!(batch.trace_count(), 6);
        let mut asm = WindowAssembler::new(5.0, 0.0);
        let mut sealed = Vec::new();
        for s in stamped {
            sealed.extend(asm.push(s));
        }
        sealed.extend(asm.flush());
        assert_eq!(sealed.len(), 3);
        // The traces themselves, API included: `a` and `b` are one tree
        // under two APIs, so their canonical keys could not tell an order.
        for w in &sealed {
            assert_eq!(batch.window(w.index), w.traces, "window {}", w.index);
        }
        assert_eq!(asm.late_dropped(), 4);
    }

    #[test]
    fn sealed_contents_independent_of_arrival_order() {
        let mut i = Interner::new();
        let a = mk(&mut i, "/a");
        let b = mk(&mut i, "/b");
        let events = [at(1.0, &a), at(2.0, &b), at(3.0, &a), at(4.0, &b)];
        let run = |order: &[usize]| {
            let mut asm = WindowAssembler::new(5.0, 4.0);
            let mut sealed = Vec::new();
            for &k in order {
                sealed.extend(asm.push(events[k].clone()));
            }
            sealed.extend(asm.flush());
            (sealed, asm.late_dropped())
        };
        let (base, d0) = run(&[0, 1, 2, 3]);
        let (perm, d1) = run(&[3, 1, 0, 2]);
        assert_eq!(d0, 0);
        assert_eq!(d1, 0);
        assert_eq!(base.len(), perm.len());
        for (x, y) in base.iter().zip(perm.iter()) {
            assert_eq!(x.index, y.index);
            let kx: Vec<_> = x.traces.iter().map(Trace::canonical_key).collect();
            let ky: Vec<_> = y.traces.iter().map(Trace::canonical_key).collect();
            assert_eq!(kx, ky);
        }
    }

    fn buffered(asm: &WindowAssembler) -> usize {
        asm.open.iter().map(|w| w.entries.len()).sum()
    }

    #[test]
    fn flush_seals_buffered_windows() {
        let mut i = Interner::new();
        let t = mk(&mut i, "/x");
        let mut asm = WindowAssembler::new(5.0, 10.0);
        asm.push(at(1.0, &t));
        asm.push(at(7.0, &t));
        assert_eq!(buffered(&asm), 2);
        let sealed = asm.flush();
        assert_eq!(sealed.len(), 2);
        assert_eq!(buffered(&asm), 0);
        // A post-flush arrival into a flushed window is late.
        asm.push(at(1.5, &t));
        assert_eq!(asm.late_dropped(), 1);
    }

    #[test]
    fn survives_serde_round_trip() {
        let mut i = Interner::new();
        let t = mk(&mut i, "/x");
        let mut asm = WindowAssembler::new(5.0, 2.0);
        asm.push(at(1.0, &t));
        asm.push(at(9.0, &t));
        let json = serde_json::to_string(&asm).unwrap();
        let mut back: WindowAssembler = serde_json::from_str(&json).unwrap();
        let s1 = asm.push(at(30.0, &t));
        let s2 = back.push(at(30.0, &t));
        assert_eq!(s1.len(), s2.len());
        for (x, y) in s1.iter().zip(s2.iter()) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.traces.len(), y.traces.len());
        }
    }
}
