//! The distributed-tracing feature extractor (§4.1, Algorithms 1 and 2).
//!
//! Every invocation path from a trace root to any span is a feature; the
//! feature value at window `t` is how many times that path occurred in the
//! window's traces. The DNN experts then discover which paths matter for
//! each resource — e.g. `Root → MediaNGINX:uploadMedia → MediaMongoDB:store`
//! drives MediaMongoDB disk usage while `… → MediaMongoDB:find` does not.
//!
//! # One walk from trace to `x_t`
//!
//! The path-to-feature map is kept as a **path trie**: `(parent feature,
//! packed (component, operation)) → feature`, with [`ROOT`] standing in as
//! the parent of depth-1 paths. Counting a window is one pre-order walk of
//! each trace as it arrived, one probe per span: the probe's key is the
//! feature the parent span just hit plus the span's own packed id. A miss
//! prunes the whole subtree, and that loses nothing: Algorithm 1 makes a
//! feature of *every* root prefix it sees, so every prefix of a feature path
//! is itself a feature and nothing below an unknown path can be one
//! (`Deserialize` refuses a path table for which that does not hold).
//!
//! Query traces may come from any producer, whose [`Interner`] numbers the
//! same names differently. The walker therefore reads each span's symbols
//! through a **symbol map** `source symbol → model symbol`: the identity for
//! traces already in the model's numbering (learning traces, synthesized
//! ones), [`translating`] otherwise, which asks the model's table for a
//! name the first time it meets the symbol and remembers the answer. No
//! trace is copied or rewritten on the way to its counts.

use std::collections::{BTreeMap, HashMap};

use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Sym, Trace};
use serde::{Deserialize, Serialize};

/// The trie's parent slot for a depth-1 path: the trace root has no parent
/// feature. No feature takes this index.
const ROOT: u32 = u32::MAX;

/// What a [`FeatureSpace`] is written out as: feature-indexed tables.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct PathTable {
    /// Feature index → path (each element is a packed `(component,
    /// operation)` id; index 0 is the trace root).
    paths: Vec<Vec<u64>>,
    /// Feature index → how often each API produced this path during
    /// learning.
    api_counts: Vec<BTreeMap<Sym, u64>>,
    /// Per-feature normalization divisor (max count seen during learning).
    scale: Vec<f32>,
}

/// The path-to-feature map `M` of Algorithm 1, plus per-path API attribution
/// used by the interpretation module.
#[derive(Clone, Debug)]
pub struct FeatureSpace {
    table: PathTable,
    /// The path trie, `(parent feature | ROOT, packed id) → feature`:
    /// `table.paths` indexed for the walk. Derived, so it is never written
    /// out; `construct` and `Deserialize` both fill it.
    trie: HashMap<(u32, u64), u32>,
}

impl Serialize for FeatureSpace {
    fn to_value(&self) -> serde::Value {
        self.table.to_value()
    }
}

impl Deserialize for FeatureSpace {
    /// Reads the serialised table and indexes it. A table the trie cannot
    /// represent is an error here, not a wrong count later.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let table = PathTable::from_value(value)?;
        let refuse = |why: String| serde::Error::custom(format!("FeatureSpace: {why}"));
        let paths = &table.paths;
        if table.api_counts.len() != paths.len() || table.scale.len() != paths.len() {
            return Err(refuse("paths, api_counts, scale differ in length".into()));
        }
        // Any order is accepted (`construct` writes parents first), so the
        // parent of a path is found by its whole prefix, once, here.
        let by_path: HashMap<&[u64], u32> = paths.iter().map(Vec::as_slice).zip(0..).collect();
        let mut trie = HashMap::with_capacity(paths.len());
        for (path, idx) in paths.iter().zip(0..) {
            let Some((&packed, prefix)) = path.split_last() else {
                return Err(refuse(format!("path {idx} is empty")));
            };
            let parent = if prefix.is_empty() {
                ROOT
            } else {
                let parent = by_path.get(prefix);
                *parent.ok_or_else(|| refuse(format!("path {idx} has no parent path")))?
            };
            if trie.insert((parent, packed), idx).is_some() {
                return Err(refuse(format!("path {idx} appears twice")));
            }
        }
        Ok(Self { table, trie })
    }
}

/// The symbol map for traces of another producer: carries a symbol of
/// `from` into `to`'s numbering, asking `to` for the name the first time a
/// symbol is met and remembering the answer, so a walk costs one name
/// lookup per distinct symbol. A name `to` never saw maps to
/// [`Sym::UNKNOWN`].
///
/// The map panics on a symbol `from` does not cover: whoever hands over
/// traces hands over the table that names them.
pub(crate) fn translating<'a>(to: &'a Interner, from: &'a Interner) -> impl FnMut(Sym) -> Sym + 'a {
    let mut memo: Vec<Option<Sym>> = vec![None; from.len()];
    move |sym| {
        let Some(seen) = memo.get_mut(sym.index()) else {
            panic!(
                "feature extraction: symbol {} is outside the source table of {} names",
                sym.index(),
                from.len()
            );
        };
        *seen.get_or_insert_with(|| to.translate(from, sym))
    }
}

impl FeatureSpace {
    /// Algorithm 1: constructs the feature space from the application-
    /// learning traces, one feature per distinct root-prefix invocation
    /// path. Also fits the per-feature normalization scale used by
    /// `FeatureSpace::extract_normalized`.
    pub fn construct(traces: &WindowedTraces) -> Self {
        Self::construct_counted(traces).0
    }

    /// [`construct`](Self::construct) and the raw count vector of every
    /// learning window (what [`extract_all`](Self::extract_all) would return
    /// for `traces`) from the one walk that learns the trie: each span of a
    /// window adds `1.0` to its feature in the same pre-order the
    /// extraction walks, so the counts are the extraction's to the bit.
    pub(crate) fn construct_counted(traces: &WindowedTraces) -> (Self, Vec<Vec<f32>>) {
        let mut space = Self {
            table: PathTable::default(),
            trie: HashMap::new(),
        };
        let mut counts: Vec<Vec<f32>> = (0..traces.len())
            .map(|w| {
                let mut x = Vec::new();
                for trace in traces.window(w) {
                    space.learn(&trace.root, ROOT, trace.api, &mut x);
                }
                x
            })
            .collect();
        // Fit normalization: max per-window count per feature.
        let mut scale = vec![0.0f32; space.dim()];
        for x in &mut counts {
            x.resize(space.dim(), 0.0);
            for (s, v) in scale.iter_mut().zip(x.iter()) {
                *s = s.max(*v);
            }
        }
        space.table.scale = scale.into_iter().map(|s| s.max(1.0)).collect();
        (space, counts)
    }

    /// Enumerates the subtree under `node`, whose parent span is feature
    /// `parent`: a path not in the trie yet becomes the next feature. Each
    /// span counts once toward its feature in `x`, which grows to the
    /// features learned so far.
    fn learn(&mut self, node: &SpanNode, parent: u32, api: Sym, x: &mut Vec<f32>) {
        let packed = node.packed_id();
        let idx = match self.trie.get(&(parent, packed)) {
            Some(&idx) => idx,
            None => {
                // Indices stay below `ROOT`: four billion paths are out of
                // scope by construction.
                let idx = u32::try_from(self.table.paths.len()).expect("feature index overflow");
                let mut path = match parent {
                    ROOT => Vec::new(),
                    _ => self.table.paths[parent as usize].clone(),
                };
                path.push(packed);
                self.trie.insert((parent, packed), idx);
                self.table.paths.push(path);
                self.table.api_counts.push(BTreeMap::new());
                idx
            }
        };
        *self.table.api_counts[idx as usize].entry(api).or_insert(0) += 1;
        if x.len() < self.dim() {
            x.resize(self.dim(), 0.0);
        }
        x[idx as usize] += 1.0;
        for child in &node.children {
            self.learn(child, idx, api, x);
        }
    }

    /// Feature-space dimensionality (the number of entries in `M`).
    pub fn dim(&self) -> usize {
        self.table.paths.len()
    }

    /// Algorithm 2 for the subtree under `node`, whose parent span hit
    /// feature `parent`; `sym` is the symbol map the tree is read through
    /// (see the [module docs](self)).
    fn count<F: FnMut(Sym) -> Sym>(
        &self,
        node: &SpanNode,
        parent: u32,
        sym: &mut F,
        x: &mut [f32],
    ) {
        let packed = Sym::pack(sym(node.component), sym(node.operation));
        if let Some(&idx) = self.trie.get(&(parent, packed)) {
            x[idx as usize] += 1.0;
            for child in &node.children {
                self.count(child, idx, sym, x);
            }
        }
    }

    /// Algorithm 2 on traces read through the symbol map `sym`: the raw
    /// count vector `x_t` of one window.
    pub(crate) fn extract_with<F: FnMut(Sym) -> Sym>(
        &self,
        window: &[Trace],
        sym: &mut F,
    ) -> Vec<f32> {
        let mut x = vec![0.0f32; self.dim()];
        for trace in window {
            self.count(&trace.root, ROOT, sym, &mut x);
        }
        x
    }

    /// Divides raw counts by the per-feature learning-time maximum (queries
    /// with more users than ever produce values above 1, which the experts
    /// extrapolate over).
    pub(crate) fn normalize(&self, mut x: Vec<f32>) -> Vec<f32> {
        for (v, s) in x.iter_mut().zip(self.table.scale.iter()) {
            *v /= s;
        }
        x
    }

    /// Algorithm 2: turns one window of traces into the raw count vector
    /// `x_t`. Paths never seen during learning are ignored — the feature
    /// space is fixed after application learning. The traces must be in the
    /// numbering the space was constructed from.
    pub fn extract(&self, window: &[Trace]) -> Vec<f32> {
        self.extract_with(window, &mut |sym| sym)
    }

    /// Extracts and normalizes one window (see [`FeatureSpace::extract`]).
    pub(crate) fn extract_normalized(&self, window: &[Trace]) -> Vec<f32> {
        self.normalize(self.extract(window))
    }

    /// Extracts the whole windowed series as raw count vectors.
    pub fn extract_all(&self, traces: &WindowedTraces) -> Vec<Vec<f32>> {
        (0..traces.len())
            .map(|w| self.extract(traces.window(w)))
            .collect()
    }

    /// Extracts the whole windowed series as normalized vectors.
    pub fn extract_all_normalized(&self, traces: &WindowedTraces) -> Vec<Vec<f32>> {
        (0..traces.len())
            .map(|w| self.extract_normalized(traces.window(w)))
            .collect()
    }

    /// The APIs that produced feature `idx` during learning, with counts.
    pub fn apis_for(&self, idx: usize) -> &BTreeMap<Sym, u64> {
        &self.table.api_counts[idx]
    }

    /// Human-readable rendering of feature `idx` for reports.
    pub fn describe(&self, idx: usize, interner: &Interner) -> String {
        let mut parts = vec!["Root".to_owned()];
        for &packed in &self.table.paths[idx] {
            let (c, o) = Sym::unpack(packed);
            parts.push(format!("{}:{}", interner.resolve(c), interner.resolve(o)));
        }
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two APIs sharing the MediaMongoDB component with different paths,
    /// mirroring the paper's §4.1 disk-usage example.
    fn media_traces() -> (Interner, WindowedTraces) {
        let mut i = Interner::new();
        let nginx = i.intern("MediaNGINX");
        let mongo = i.intern("MediaMongoDB");
        let upload = i.intern("uploadMedia");
        let get = i.intern("getMedia");
        let store = i.intern("store");
        let find = i.intern("find");
        let api_up = i.intern("/uploadMedia");
        let api_get = i.intern("/getMedia");

        let upload_trace = Trace::new(
            api_up,
            SpanNode::with_children(nginx, upload, vec![SpanNode::leaf(mongo, store)]),
        );
        let get_trace = Trace::new(
            api_get,
            SpanNode::with_children(nginx, get, vec![SpanNode::leaf(mongo, find)]),
        );

        let mut w = WindowedTraces::with_windows(5.0, 3);
        w.windows[0] = vec![upload_trace.clone(), get_trace.clone()];
        w.windows[1] = vec![
            upload_trace.clone(),
            upload_trace.clone(),
            get_trace.clone(),
        ];
        w.windows[2] = vec![get_trace];
        (i, w)
    }

    #[test]
    fn construct_enumerates_root_prefix_paths() {
        let (_, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        // Paths: [upload], [upload, store], [get], [get, find] = 4 features.
        assert_eq!(space.dim(), 4);
    }

    #[test]
    fn extract_counts_path_occurrences() {
        let (_, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        let x0 = space.extract(traces.window(0));
        let x1 = space.extract(traces.window(1));
        let x2 = space.extract(traces.window(2));
        assert_eq!(x0.iter().sum::<f32>(), 4.0); // 2 traces x 2 spans.
        assert_eq!(x1.iter().sum::<f32>(), 6.0);
        assert_eq!(x2.iter().sum::<f32>(), 2.0);
        // The store path occurs twice in window 1.
        assert!(x1.contains(&2.0));
    }

    #[test]
    fn unseen_paths_are_ignored_at_query_time() {
        let (mut i, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        // A brand-new path through an unseen component.
        let ghost = i.intern("GhostService");
        let op = i.intern("spook");
        let unseen = Trace::new(i.intern("/ghost"), SpanNode::leaf(ghost, op));
        let x = space.extract(&[unseen]);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn api_attribution_links_paths_to_their_apis() {
        let (i, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        let api_up = i.get("/uploadMedia").unwrap();
        let api_get = i.get("/getMedia").unwrap();
        // Find the store path (depth 2, attributed to /uploadMedia only).
        let mongo = i.get("MediaMongoDB").unwrap();
        let store_paths: Vec<usize> = (0..space.dim())
            .filter(|&idx| {
                let path = &space.table.paths[idx];
                path.len() == 2 && path.iter().any(|&p| Sym::unpack(p).0 == mongo)
            })
            .collect();
        assert_eq!(store_paths.len(), 2);
        for idx in store_paths {
            let apis = space.apis_for(idx);
            assert_eq!(apis.len(), 1);
            assert!(apis.contains_key(&api_up) || apis.contains_key(&api_get));
        }
    }

    #[test]
    fn normalization_divides_by_learning_max() {
        let (_, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        let x1 = space.extract_normalized(traces.window(1));
        // Max normalized value in the max window is 1.0.
        assert!((x1.iter().cloned().fold(0.0f32, f32::max) - 1.0).abs() < 1e-6);
        // A window with double the learning max extrapolates above 1.
        let mut big = traces.window(1).to_vec();
        big.extend(traces.window(1).to_vec());
        let xb = space.extract_normalized(&big);
        assert!(xb.iter().cloned().fold(0.0f32, f32::max) > 1.5);
    }

    #[test]
    fn describe_renders_path() {
        let (i, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        let all: Vec<String> = (0..space.dim())
            .map(|idx| space.describe(idx, &i))
            .collect();
        assert!(all
            .iter()
            .any(|d| d == "Root -> MediaNGINX:uploadMedia -> MediaMongoDB:store"));
    }

    #[test]
    fn lookup_survives_serde_round_trip() {
        let (_, traces) = media_traces();
        let space = FeatureSpace::construct(&traces);
        let json = serde_json::to_string(&space).unwrap();
        let back: FeatureSpace = serde_json::from_str(&json).unwrap();
        let x_orig = space.extract(traces.window(1));
        let x_back = back.extract(traces.window(1));
        assert_eq!(x_orig, x_back);
    }

    #[test]
    fn tables_the_trie_cannot_represent_are_errors() {
        let table = |paths: &str, entries: usize| {
            let (counts, scale) = (vec!["{}"; entries], vec!["2.0"; entries]);
            let (counts, scale) = (counts.join(","), scale.join(","));
            format!(r#"{{"paths":{paths},"api_counts":[{counts}],"scale":[{scale}]}}"#)
        };
        for (paths, entries, expect) in [
            ("[[1],[2]]", 1, "paths, api_counts, scale differ in length"),
            ("[[1],[2,3]]", 2, "path 1 has no parent path"),
            ("[[1],[]]", 2, "path 1 is empty"),
            ("[[1],[1,2],[1]]", 3, "path 2 appears twice"),
            ("[[1],[-2]]", 2, ""),
        ] {
            let json = table(paths, entries);
            let err = serde_json::from_str::<FeatureSpace>(&json).expect_err(&json);
            assert!(err.to_string().contains(expect), "{json}: {err}");
        }
        // A child listed before its parent is still one tree.
        let json = table("[[1,2],[1]]", 2);
        let space: FeatureSpace = serde_json::from_str(&json).unwrap();
        let node = |packed: u64, children| {
            let (component, operation) = Sym::unpack(packed);
            SpanNode::with_children(component, operation, children)
        };
        let trace = Trace::new(Sym::UNKNOWN, node(1, vec![node(2, Vec::new())]));
        assert_eq!(space.extract_normalized(&[trace]), [0.5, 0.5]);
        assert_eq!(serde_json::to_string(&space).unwrap(), json);
    }

    #[test]
    #[should_panic(expected = "symbol 7 is outside the source table of 2 names")]
    fn a_symbol_outside_the_source_table_is_named() {
        let mut from = Interner::new();
        let (c, o) = (from.intern("C"), from.intern("o"));
        let stray = Sym::unpack(7).1;
        let mut sym = translating(&from, &from);
        assert_eq!((sym(c), sym(o)), (c, o));
        sym(stray);
    }

    // The extraction this module replaced — copy every tree into the
    // model's numbering, then hash the whole root prefix of every span —
    // kept as the reference the one-walk extraction is proven against.

    fn reference_copy(span: &SpanNode, to: &Interner, from: &Interner) -> SpanNode {
        SpanNode {
            component: to.translate(from, span.component),
            operation: to.translate(from, span.operation),
            children: span
                .children
                .iter()
                .map(|c| reference_copy(c, to, from))
                .collect(),
        }
    }

    fn reference_count(
        node: &SpanNode,
        prefix: &mut Vec<u64>,
        lookup: &HashMap<Vec<u64>, usize>,
        x: &mut [f32],
    ) {
        prefix.push(node.packed_id());
        if let Some(&idx) = lookup.get(prefix.as_slice()) {
            x[idx] += 1.0;
        }
        for child in &node.children {
            reference_count(child, prefix, lookup, x);
        }
        prefix.pop();
    }

    fn reference_extract(
        space: &FeatureSpace,
        to: &Interner,
        from: &Interner,
        window: &[Trace],
    ) -> Vec<f32> {
        let lookup: HashMap<Vec<u64>, usize> = space.table.paths.iter().cloned().zip(0..).collect();
        let mut x = vec![0.0f32; space.dim()];
        for trace in window {
            let copy = reference_copy(&trace.root, to, from);
            reference_count(&copy, &mut Vec::new(), &lookup, &mut x);
        }
        x
    }

    /// The model learns the first `SEEN` names; the rest only a query's
    /// producer knows.
    const NAMES: [&str; 6] = ["Front", "Svc", "Mongo", "op", "Ghost", "spook"];
    const SEEN: usize = 4;

    /// A span tree over indices into `NAMES`, so one shape can be written in
    /// any table's numbering.
    #[derive(Clone, Debug)]
    struct Shape {
        component: usize,
        operation: usize,
        children: Vec<Shape>,
    }

    impl Shape {
        fn in_numbering(&self, syms: &[Sym]) -> SpanNode {
            SpanNode {
                component: syms[self.component],
                operation: syms[self.operation],
                children: self.children.iter().map(|c| c.in_numbering(syms)).collect(),
            }
        }
    }

    /// Random shapes over the first `names` names; an inner node may list
    /// its children twice, so repeated sibling subtrees are common.
    fn arb_shape(names: usize) -> BoxedStrategy<Shape> {
        let leaf = (0..names, 0..names).prop_map(|(component, operation)| Shape {
            component,
            operation,
            children: Vec::new(),
        });
        leaf.prop_recursive(3, 16, 3, move |inner| {
            let children = proptest::collection::vec(inner, 0..3);
            (0..names, 0..names, children, any::<bool>()).prop_map(
                |(component, operation, mut children, twice)| {
                    if twice {
                        children.extend(children.clone());
                    }
                    Shape {
                        component,
                        operation,
                        children,
                    }
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_walk_counts_what_translate_then_prefix_hash_counted(
            learned in proptest::collection::vec(arb_shape(SEEN), 1..6),
            queried in proptest::collection::vec(
                proptest::collection::vec(arb_shape(NAMES.len()), 0..5),
                0..4,
            ),
            rotate in 0..NAMES.len(),
        ) {
            let mut model = Interner::new();
            let model_syms: Vec<Sym> = NAMES[..SEEN].iter().map(|n| model.intern(n)).collect();
            let api = model.intern("/api");
            let mut learning = WindowedTraces::with_windows(1.0, 2);
            for (k, shape) in learned.iter().enumerate() {
                learning.windows[k % 2].push(Trace::new(api, shape.in_numbering(&model_syms)));
            }
            let space = FeatureSpace::construct(&learning);

            // The producer's table: a name the model never uses first, then
            // all of NAMES back to front from a random start.
            let mut source = Interner::new();
            let source_api = source.intern("/elsewhere");
            let mut source_syms = vec![Sym::UNKNOWN; NAMES.len()];
            for k in (0..NAMES.len()).rev() {
                let name = (k + rotate) % NAMES.len();
                source_syms[name] = source.intern(NAMES[name]);
            }
            prop_assert!(source_syms[..SEEN] != model_syms[..]);

            // Window 0: every learned tree as it was (all hits) and again
            // under a root the model never saw (a seen-looking subtree below
            // an unseen node). Then the random windows, then an empty one.
            let ghost = |below: &Shape| Shape {
                component: SEEN,
                operation: SEEN + 1,
                children: vec![below.clone()],
            };
            let mut windows = vec![learned.iter().cloned().chain(learned.iter().map(ghost)).collect()];
            windows.extend(queried);
            windows.push(Vec::new());
            let windows: Vec<Vec<Trace>> = windows
                .iter()
                .map(|w: &Vec<Shape>| {
                    w.iter().map(|s| Trace::new(source_api, s.in_numbering(&source_syms))).collect()
                })
                .collect();

            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut sym = translating(&model, &source);
            for window in &windows {
                let want = reference_extract(&space, &model, &source, window);
                prop_assert_eq!(bits(&space.extract_with(window, &mut sym)), bits(&want));
            }
            let learned_spans: usize = learning.iter_all().map(Trace::span_count).sum();
            let hits: f32 = space.extract_with(&windows[0], &mut sym).iter().sum();
            prop_assert!(hits as usize >= learned_spans);
            prop_assert!(space.extract_with(&windows[windows.len() - 1], &mut sym).iter().all(|&v| v == 0.0));

            // Same-numbering traces take the identity map to the same place,
            // and the learning walk counted each window to the same bits.
            let counted = FeatureSpace::construct_counted(&learning).1;
            prop_assert_eq!(counted.len(), learning.len());
            for (w, x) in counted.iter().enumerate() {
                let want = reference_extract(&space, &model, &model, learning.window(w));
                prop_assert_eq!(bits(&space.extract(learning.window(w))), bits(&want));
                prop_assert_eq!(bits(x), bits(&want));
            }
        }
    }
}
