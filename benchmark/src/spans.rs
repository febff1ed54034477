//! In-memory span recorder for the traced run.
//!
//! The harness records a span (name, start, end, parent, op id) around each
//! call it makes into a layer; spans stay in memory and are written out once
//! at exit. A layer's *self time* is its span's duration minus the part its
//! child spans cover. A disabled tracer records nothing and reads no clock,
//! so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (spans of one op share it).
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// Aggregate of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: usize) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: op as u32,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else {
            return;
        };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Renames an open span: what an op turned out to be is sometimes only
    /// known once it has run.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(id) = id.0 {
            self.spans[id as usize].name = name;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self/total time and count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.self_ns += own;
            e.total_ns += s.end_ns - s.start_ns;
            e.count += 1;
        }
        out
    }

    /// Median over ops of layer `name`'s self time within the op, in
    /// microseconds; an op the layer did not run in counts as 0. The median,
    /// not the mean: the library spawns its workers per fan-out, and on a
    /// busy host a single spawn can cost milliseconds.
    pub fn median_self_us(&self, name: &str, ops: usize) -> f64 {
        let mut per_op = vec![0.0f64; ops.max(1)];
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                if let Some(slot) = per_op.get_mut(s.op as usize) {
                    *slot += own as f64 / 1e3;
                }
            }
        }
        crate::stats::median(&per_op)
    }

    /// The whole recording as JSON: the spans plus the per-layer summary.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(-1i64, i64::from),
                    "op": s.op,
                })
            })
            .collect();
        let layers: Vec<Value> = self
            .layers()
            .iter()
            .map(|(name, l)| {
                json!({
                    "name": *name,
                    "self_ns": l.self_ns,
                    "total_ns": l.total_ns,
                    "count": l.count,
                })
            })
            .collect();
        json!({ "layers": layers, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut tr = Tracer::new(true);
        let op = tr.begin("op", 7);
        let a = tr.begin("a", 7);
        spin(200_000);
        tr.end(a);
        let b = tr.begin("b", 7);
        let c = tr.begin("c", 7);
        spin(100_000);
        tr.end(c);
        tr.end(b);
        tr.end(op);

        let layers = tr.layers();
        let total = layers["op"].total_ns;
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert!(layers["a"].self_ns >= 200_000);
        assert!(layers["b"].self_ns < layers["c"].self_ns);
        assert_eq!(tr.spans()[3].parent, Some(2));
        assert!(tr.spans().iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x", 0);
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert!(tr.layers().is_empty());
    }
}
