//! The trace synthesizer (§4.4).
//!
//! Hypothetical query traffic has not been served yet, so no traces exist
//! for it. During application learning the synthesizer estimates, for each
//! API, the empirical distribution of invocation-path trees `Prob(P | API)`;
//! at query time it samples that distribution once per expected request.
//!
//! # Draws
//!
//! A query walks its windows in order and, per window, the traffic's APIs
//! in order. Each API's expected request count `e` becomes `⌊e⌋` requests
//! plus one more with probability `e − ⌊e⌋` (one `gen_bool`), and each
//! request draws its tree with one `gen_range(0..total)` over the learned
//! occurrence counts. [`TraceSynthesizer::synthesize`] makes these draws
//! from one seeded RNG and builds a trace per request, for whatever reads
//! structure (Table 1's fidelity check).
//!
//! # Counts without trees
//!
//! The estimation queries need only a window's feature counts, and Alg. 2
//! is a sum: a window's `x_t` is the sum of its traces' path counts. A
//! model therefore keeps a [`CountTable`] — per learned API and distinct
//! tree, the tree's sparse `(feature, count)` list from the feature trie's
//! walk, so paths the trie prunes stay pruned — built where the model is
//! assembled. A query makes exactly the draws above, adds up how many times
//! each tree was drawn, and adds `multiplicity × count` into a `u64` row:
//! no trace is built to be counted and dropped. Counting trees span by
//! span adds `1.0` to an `f32`, which is exact for every integer below
//! 2²⁴; the `u64` row holds the same integers, so below that bound its
//! conversion to `f32` is the tree path's count to the bit. A window
//! counting 2²⁴ spans on one path is far beyond any learned or queried
//! volume, and debug builds assert it.

use std::collections::HashMap;

use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Sym, Trace};
use deeprest_workload::ApiTraffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::FeatureSpace;

/// The bound below which a per-window feature count is exact in `f32`
/// (see the [module docs](self)).
const F32_EXACT: u64 = 1 << 24;

/// The empirical trace-shape distribution of one API.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ApiDistribution {
    /// Distinct canonical trace keys.
    keys: Vec<Vec<u64>>,
    /// Occurrence count per key.
    counts: Vec<u64>,
    /// Total observations.
    total: u64,
}

impl ApiDistribution {
    /// Draws one tree: its index into `keys`, with probability
    /// `counts[k] / total`, from one `gen_range(0..total)`.
    ///
    /// # Panics
    ///
    /// Panics when `total` is zero or the counts do not sum to it; a model
    /// refuses such a synthesizer when it is assembled.
    fn pick(&self, rng: &mut StdRng) -> usize {
        let mut pick = rng.gen_range(0..self.total);
        for (k, &count) in self.counts.iter().enumerate() {
            if pick < count {
                return k;
            }
            pick -= count;
        }
        panic!("synthesize: tree counts sum to less than their total");
    }

    /// Why this distribution cannot be drawn from, if it cannot.
    fn fault(&self) -> Option<&'static str> {
        if self.keys.len() != self.counts.len() {
            Some("keys and counts differ in length")
        } else if self.keys.is_empty() || self.total == 0 {
            Some("the distribution is empty")
        } else if self
            .counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
            != Some(self.total)
        {
            Some("the counts do not sum to total")
        } else {
            None
        }
    }
}

/// A request count drawn for an expected count `expected`: its floor, plus
/// one with the probability of its fraction.
fn requests(expected: f64, rng: &mut StdRng) -> u64 {
    let base = expected.floor();
    base as u64 + u64::from(rng.gen_bool((expected - base).clamp(0.0, 1.0)))
}

/// Per learned API and distinct tree, the tree's feature counts: what the
/// estimation queries add up instead of counting synthetic traces (see the
/// [module docs](self)). Derived from a synthesizer and a feature space by
/// [`TraceSynthesizer::count_table`].
#[derive(Clone, Debug)]
pub(crate) struct CountTable {
    /// Per API in the synthesizer's order, the index of its first tree in
    /// `trees`.
    first: Vec<usize>,
    /// Per tree, in each API's `keys` order: `(feature, spans counted)`
    /// for every feature the tree's spans hit, in feature order.
    trees: Vec<Vec<(u32, u64)>>,
    /// The feature space's dimension: the length of a row.
    dim: usize,
}

/// Learns `Prob(P | API)` from application-learning traces and samples
/// synthetic traces for query traffic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceSynthesizer {
    per_api: Vec<(Sym, ApiDistribution)>,
}

impl TraceSynthesizer {
    /// Estimates the per-API distribution of invocation-path trees from the
    /// traces captured during application learning.
    pub fn learn(traces: &WindowedTraces) -> Self {
        let mut builders: HashMap<Sym, HashMap<Vec<u64>, u64>> = HashMap::new();
        for trace in traces.iter_all() {
            *builders
                .entry(trace.api)
                .or_default()
                .entry(trace.canonical_key())
                .or_insert(0) += 1;
        }
        let mut per_api: Vec<(Sym, ApiDistribution)> = builders
            .into_iter()
            .map(|(api, shapes)| {
                let mut keys = Vec::with_capacity(shapes.len());
                let mut counts = Vec::with_capacity(shapes.len());
                let mut shapes: Vec<_> = shapes.into_iter().collect();
                shapes.sort(); // Deterministic order.
                let mut total = 0;
                for (key, count) in shapes {
                    total += count;
                    keys.push(key);
                    counts.push(count);
                }
                (
                    api,
                    ApiDistribution {
                        keys,
                        counts,
                        total,
                    },
                )
            })
            .collect();
        per_api.sort_by_key(|(api, _)| *api);
        Self { per_api }
    }

    fn distribution(&self, api: Sym) -> Option<&ApiDistribution> {
        self.slot(api).map(|k| &self.per_api[k].1)
    }

    /// The position of `api` in `per_api`, if it was learned.
    fn slot(&self, api: Sym) -> Option<usize> {
        self.per_api.iter().position(|(a, _)| *a == api)
    }

    /// Counts every learned tree through `features`' trie, for
    /// [`count_rows`](Self::count_rows).
    ///
    /// # Errors
    ///
    /// Names the API when one of its distributions cannot be drawn from
    /// (empty, or counts that do not sum to `total`) or holds a key that is
    /// not a canonical tree key of at most [`SpanNode::MAX_DEPTH`] levels.
    /// A model read from a file is refused here, not at its first query.
    pub(crate) fn count_table(
        &self,
        features: &FeatureSpace,
        interner: &Interner,
    ) -> Result<CountTable, String> {
        let mut table = CountTable {
            first: Vec::with_capacity(self.per_api.len()),
            trees: Vec::new(),
            dim: features.dim(),
        };
        let mut dense = vec![0u64; table.dim];
        for (api, dist) in &self.per_api {
            let refuse = |why: &str| {
                let name = interner.iter().nth(api.index()).map_or("?", |(_, n)| n);
                format!("synthesizer: API {name} (symbol {}): {why}", api.index())
            };
            if let Some(why) = dist.fault() {
                return Err(refuse(why));
            }
            table.first.push(table.trees.len());
            for (k, key) in dist.keys.iter().enumerate() {
                let walked = features.count_key(key, &mut |f| dense[f as usize] += 1);
                walked.ok_or_else(|| {
                    refuse(&format!(
                        "key {k} is not a canonical tree key of at most {} levels",
                        SpanNode::MAX_DEPTH
                    ))
                })?;
                let hit = (0..).zip(&mut dense).filter(|(_, count)| **count > 0);
                table
                    .trees
                    .push(hit.map(|(f, count)| (f, std::mem::take(count))).collect());
            }
        }
        Ok(table)
    }

    /// Samples `n` synthetic traces for one API.
    ///
    /// # Panics
    ///
    /// Panics if the API was never observed during learning — hypothetical
    /// traffic can change the *composition* of APIs but cannot invent
    /// endpoints the application does not expose.
    pub fn synthesize_api(&self, api: Sym, n: u64, rng: &mut StdRng) -> Vec<Trace> {
        let dist = self
            .distribution(api)
            .unwrap_or_else(|| panic!("synthesize: API {api:?} unseen during learning"));
        (0..n)
            .map(|_| {
                let key = &dist.keys[dist.pick(rng)];
                let root = SpanNode::from_canonical_key(key).expect("learned keys are valid");
                Trace::new(api, root)
            })
            .collect()
    }

    /// Converts query API traffic into per-window synthetic traces: for each
    /// window and API, draws `Poisson`-free rounded expected request counts
    /// and samples that many trace shapes.
    ///
    /// `interner` must be the application-learning interner (it resolves the
    /// traffic's endpoint strings to the trace symbols).
    ///
    /// # Panics
    ///
    /// Panics if a traffic endpoint is unknown to the interner or the
    /// synthesizer.
    pub fn synthesize(
        &self,
        traffic: &ApiTraffic,
        interner: &Interner,
        seed: u64,
    ) -> WindowedTraces {
        let mut rng = StdRng::seed_from_u64(seed);
        let api_syms = Self::resolve_endpoints(traffic, interner);
        let mut out = WindowedTraces::with_windows(1.0, traffic.window_count());
        for t in 0..traffic.window_count() {
            out.windows[t] = self.synthesize_window(traffic.window(t), &api_syms, &mut rng);
        }
        out
    }

    /// Resolves a traffic matrix's endpoint strings to trace symbols for
    /// [`synthesize_window`](Self::synthesize_window) — do this once per
    /// query, not once per window.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is unknown to the interner.
    pub(crate) fn resolve_endpoints(traffic: &ApiTraffic, interner: &Interner) -> Vec<Sym> {
        traffic
            .apis()
            .iter()
            .map(|endpoint| {
                interner
                    .get(endpoint)
                    .unwrap_or_else(|| panic!("synthesize: endpoint {endpoint} not in interner"))
            })
            .collect()
    }

    /// Synthesizes the traces of a single traffic window: one expected
    /// request count per API in `api_syms` order, rounded stochastically so
    /// fractional expectations are preserved on average.
    ///
    /// [`synthesize`](Self::synthesize) is this in a loop with one seeded
    /// RNG carried across the windows.
    ///
    /// # Panics
    ///
    /// Panics if an API was never observed during learning.
    pub(crate) fn synthesize_window(
        &self,
        window_requests: &[f64],
        api_syms: &[Sym],
        rng: &mut StdRng,
    ) -> Vec<Trace> {
        let mut out = Vec::new();
        for (&expected, &api) in window_requests.iter().zip(api_syms) {
            let n = requests(expected, rng);
            out.extend(self.synthesize_api(api, n, rng));
        }
        out
    }

    /// The raw feature rows of query traffic: per window, what
    /// [`FeatureSpace::extract`] counts in the window
    /// [`synthesize`](Self::synthesize) would return for the same
    /// arguments, bit for bit, from the same draws and without building a
    /// trace. `table` is this synthesizer's
    /// [`count_table`](Self::count_table).
    ///
    /// # Panics
    ///
    /// Panics where [`synthesize`](Self::synthesize) does: on an endpoint
    /// unknown to the interner or the synthesizer.
    pub(crate) fn count_rows(
        &self,
        table: &CountTable,
        traffic: &ApiTraffic,
        interner: &Interner,
        seed: u64,
    ) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let apis = Self::resolve_endpoints(traffic, interner);
        let slots: Vec<Option<usize>> = apis.iter().map(|&api| self.slot(api)).collect();
        let mut drawn = vec![0u64; table.trees.len()];
        let mut row = vec![0u64; table.dim];
        let rows = (0..traffic.window_count()).map(|t| {
            drawn.fill(0);
            for ((&expected, &api), slot) in traffic.window(t).iter().zip(&apis).zip(&slots) {
                let n = requests(expected, &mut rng);
                let slot = slot
                    .unwrap_or_else(|| panic!("synthesize: API {api:?} unseen during learning"));
                let (dist, first) = (&self.per_api[slot].1, table.first[slot]);
                for _ in 0..n {
                    drawn[first + dist.pick(&mut rng)] += 1;
                }
            }
            row.fill(0);
            for (tree, &times) in table.trees.iter().zip(&drawn) {
                if times > 0 {
                    for &(feature, count) in tree {
                        row[feature as usize] += times * count;
                    }
                }
            }
            let exact = |&v: &u64| {
                debug_assert!(v < F32_EXACT, "a window counts {v} spans on one path");
                v as f32
            };
            row.iter().map(exact).collect()
        });
        rows.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn learning_traces() -> (Interner, WindowedTraces) {
        let mut i = Interner::new();
        let f = i.intern("Frontend");
        let m = i.intern("Mongo");
        let read = i.intern("read");
        let find = i.intern("find");
        let api = i.intern("/read");

        // 75% of /read traces hit the store, 25% are cache hits.
        let with_store = Trace::new(
            api,
            SpanNode::with_children(f, read, vec![SpanNode::leaf(m, find)]),
        );
        let cache_hit = Trace::new(api, SpanNode::leaf(f, read));
        let mut w = WindowedTraces::with_windows(1.0, 1);
        w.windows[0] = vec![
            with_store.clone(),
            with_store.clone(),
            with_store,
            cache_hit,
        ];
        (i, w)
    }

    #[test]
    fn learns_shape_distribution() {
        let (i, traces) = learning_traces();
        let synth = TraceSynthesizer::learn(&traces);
        let api = i.get("/read").unwrap();
        assert_eq!(
            synth.per_api.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            vec![api]
        );
        assert_eq!(synth.distribution(api).map(|d| d.keys.len()), Some(2));
    }

    #[test]
    fn samples_match_learned_proportions() {
        let (i, traces) = learning_traces();
        let synth = TraceSynthesizer::learn(&traces);
        let api = i.get("/read").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = synth.synthesize_api(api, 4_000, &mut rng);
        let with_store = samples.iter().filter(|t| t.span_count() == 2).count();
        let frac = with_store as f64 / samples.len() as f64;
        assert!((frac - 0.75).abs() < 0.04, "store fraction {frac}");
    }

    #[test]
    fn synthesize_traffic_produces_windowed_traces() {
        let (i, traces) = learning_traces();
        let synth = TraceSynthesizer::learn(&traces);
        let traffic = ApiTraffic::new(
            vec!["/read".into()],
            2,
            vec![vec![10.0], vec![0.0], vec![2.5], vec![7.0]],
        );
        let out = synth.synthesize(&traffic, &i, 3);
        assert_eq!(out.len(), 4);
        assert_eq!(out.window(0).len(), 10);
        assert_eq!(out.window(1).len(), 0);
        // Fractional expectation rounds to 2 or 3.
        assert!((2..=3).contains(&out.window(2).len()));
        assert_eq!(out.window(3).len(), 7);
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let (i, traces) = learning_traces();
        let synth = TraceSynthesizer::learn(&traces);
        let traffic = ApiTraffic::new(vec!["/read".into()], 1, vec![vec![20.0]]);
        let a = synth.synthesize(&traffic, &i, 5);
        let b = synth.synthesize(&traffic, &i, 5);
        assert_eq!(a.window(0), b.window(0));
    }

    #[test]
    #[should_panic(expected = "unseen during learning")]
    fn unknown_api_is_rejected() {
        let (mut i, traces) = learning_traces();
        let synth = TraceSynthesizer::learn(&traces);
        let ghost = i.intern("/ghost");
        let mut rng = StdRng::seed_from_u64(0);
        let _ = synth.synthesize_api(ghost, 1, &mut rng);
    }
}
