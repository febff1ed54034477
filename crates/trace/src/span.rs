//! Span trees: the lifetime of one API request.

use serde::{Deserialize, Serialize};

use crate::Sym;

/// Sentinel token separating sibling subtrees in canonical keys.
const KEY_UP: u64 = u64::MAX;

/// One operation performed while serving an API request (Fig. 3).
///
/// A span is identified by its `(component, operation)` pair; child spans are
/// the operations it triggered, in execution order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanNode {
    /// The component that executed the operation (e.g. `UserTimelineService`).
    pub component: Sym,
    /// The operation name (e.g. `readTimeline`).
    pub operation: Sym,
    /// Child spans spawned to serve this span, in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Creates a leaf span.
    pub fn leaf(component: Sym, operation: Sym) -> Self {
        Self {
            component,
            operation,
            children: Vec::new(),
        }
    }

    /// Creates a span with children.
    pub fn with_children(component: Sym, operation: Sym, children: Vec<SpanNode>) -> Self {
        Self {
            component,
            operation,
            children,
        }
    }

    /// The `(component, operation)` identity packed into one `u64`.
    pub fn packed_id(&self) -> u64 {
        Sym::pack(self.component, self.operation)
    }

    /// Total number of spans in this subtree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Pre-order traversal visiting every span.
    pub fn visit(&self, f: &mut impl FnMut(&SpanNode)) {
        f(self);
        for child in &self.children {
            child.visit(f);
        }
    }

    /// Serializes the tree structure into a canonical token sequence:
    /// pre-order packed `(component, operation)` ids with an explicit
    /// "ascend" sentinel after each subtree. Two span trees are structurally
    /// identical iff their canonical keys are equal, which is what the trace
    /// synthesizer's `Prob(path | API)` distribution is keyed on.
    pub fn canonical_key(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(self.span_count() * 2);
        self.write_key(&mut key);
        key
    }

    fn write_key(&self, out: &mut Vec<u64>) {
        out.push(self.packed_id());
        for child in &self.children {
            child.write_key(out);
        }
        out.push(KEY_UP);
    }

    /// Reconstructs a span tree from a canonical key.
    ///
    /// Returns `None` when the key is malformed (not produced by
    /// [`SpanNode::canonical_key`]).
    pub fn from_canonical_key(key: &[u64]) -> Option<SpanNode> {
        let mut pos = 0;
        let root = Self::parse_key(key, &mut pos)?;
        if pos == key.len() {
            Some(root)
        } else {
            None
        }
    }

    fn parse_key(key: &[u64], pos: &mut usize) -> Option<SpanNode> {
        let packed = *key.get(*pos)?;
        if packed == KEY_UP {
            return None;
        }
        *pos += 1;
        let (component, operation) = Sym::unpack(packed);
        let mut children = Vec::new();
        loop {
            match key.get(*pos)? {
                &KEY_UP => {
                    *pos += 1;
                    return Some(SpanNode {
                        component,
                        operation,
                        children,
                    });
                }
                _ => children.push(Self::parse_key(key, pos)?),
            }
        }
    }
}

/// A complete trace: the span tree recorded for one API request.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// The API endpoint that was invoked (e.g. `/composePost`).
    pub api: Sym,
    /// Root span (the entry component, e.g. the frontend web server).
    pub root: SpanNode,
}

impl Trace {
    /// Creates a trace.
    pub fn new(api: Sym, root: SpanNode) -> Self {
        Self { api, root }
    }

    /// Total number of spans.
    pub fn span_count(&self) -> usize {
        self.root.span_count()
    }

    /// Canonical key of the trace's span tree (API is *not* included; two
    /// APIs mapping to identical trees share a key on purpose — the
    /// synthesizer conditions on the API separately).
    pub fn canonical_key(&self) -> Vec<u64> {
        self.root.canonical_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interner;

    fn syms(i: &mut Interner, names: &[&str]) -> Vec<Sym> {
        names.iter().map(|n| i.intern(n)).collect()
    }

    /// Builds the paper's Fig. 3 trace:
    /// FrontendNGINX:readTimeline → UserTimelineService:readTimeline →
    /// {UserTimelineMongoDB:find, PostStorageService:getPosts →
    /// PostStorageMongoDB:find}.
    fn fig3_trace(i: &mut Interner) -> Trace {
        let s = syms(
            i,
            &[
                "FrontendNGINX",
                "UserTimelineService",
                "UserTimelineMongoDB",
                "PostStorageService",
                "PostStorageMongoDB",
                "readTimeline",
                "find",
                "getPosts",
                "/readTimeline",
            ],
        );
        let tree = SpanNode::with_children(
            s[0],
            s[5],
            vec![SpanNode::with_children(
                s[1],
                s[5],
                vec![
                    SpanNode::leaf(s[2], s[6]),
                    SpanNode::with_children(s[3], s[7], vec![SpanNode::leaf(s[4], s[6])]),
                ],
            )],
        );
        Trace::new(s[8], tree)
    }

    #[test]
    fn span_count_counts_every_span() {
        let mut i = Interner::new();
        let t = fig3_trace(&mut i);
        assert_eq!(t.span_count(), 5);
    }

    #[test]
    fn visit_is_preorder() {
        let mut i = Interner::new();
        let t = fig3_trace(&mut i);
        let mut seen = Vec::new();
        t.root
            .visit(&mut |s| seen.push(i.resolve(s.component).to_owned()));
        assert_eq!(
            seen,
            vec![
                "FrontendNGINX",
                "UserTimelineService",
                "UserTimelineMongoDB",
                "PostStorageService",
                "PostStorageMongoDB",
            ]
        );
    }

    #[test]
    fn canonical_key_round_trips() {
        let mut i = Interner::new();
        let t = fig3_trace(&mut i);
        let key = t.canonical_key();
        let rebuilt = SpanNode::from_canonical_key(&key).expect("valid key");
        assert_eq!(rebuilt, t.root);
    }

    #[test]
    fn canonical_key_distinguishes_structure() {
        let mut i = Interner::new();
        let a = i.intern("A");
        let b = i.intern("B");
        let c = i.intern("C");
        let op = i.intern("op");
        // A → {B, C} vs A → B → C: same node multiset, different structure.
        let wide =
            SpanNode::with_children(a, op, vec![SpanNode::leaf(b, op), SpanNode::leaf(c, op)]);
        let deep = SpanNode::with_children(
            a,
            op,
            vec![SpanNode::with_children(b, op, vec![SpanNode::leaf(c, op)])],
        );
        assert_ne!(wide.canonical_key(), deep.canonical_key());
    }

    #[test]
    fn malformed_keys_are_rejected() {
        assert!(SpanNode::from_canonical_key(&[]).is_none());
        assert!(SpanNode::from_canonical_key(&[KEY_UP]).is_none());
        // Truncated: missing the final ascend token.
        let mut i = Interner::new();
        let t = fig3_trace(&mut i);
        let mut key = t.canonical_key();
        key.pop();
        assert!(SpanNode::from_canonical_key(&key).is_none());
        // Trailing garbage after a complete tree.
        let mut key = t.canonical_key();
        key.push(Sym::pack(Sym(0), Sym(0)));
        assert!(SpanNode::from_canonical_key(&key).is_none());
    }
}
