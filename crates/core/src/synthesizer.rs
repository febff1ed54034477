//! The trace synthesizer (§4.4).
//!
//! Hypothetical query traffic has not been served yet, so no traces exist
//! for it. During application learning the synthesizer estimates, for each
//! API, the empirical distribution of invocation-path trees `Prob(P | API)`;
//! at query time it samples that distribution once per expected request,
//! converting query API traffic into synthetic traces for the feature
//! extractor.

use std::collections::HashMap;

use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Sym, Trace};
use deeprest_workload::ApiTraffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

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
    fn sample(&self, rng: &mut StdRng) -> &[u64] {
        let mut pick = rng.gen_range(0..self.total);
        for (key, &count) in self.keys.iter().zip(self.counts.iter()) {
            if pick < count {
                return key;
            }
            pick -= count;
        }
        // Unreachable when counts sum to total; defensive fallback.
        self.keys.last().expect("non-empty distribution")
    }
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
        self.per_api.iter().find(|(a, _)| *a == api).map(|(_, d)| d)
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
                let key = dist.sample(rng);
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
    /// [`synthesize`](Self::synthesize) is this in a loop with a fresh
    /// seeded RNG; incremental callers (the autoscaler's rolling what-if
    /// queries) instead carry `rng` across calls to keep the sampled shape
    /// stream deterministic per control session.
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
        for (a, &api) in api_syms.iter().enumerate() {
            let expected = window_requests[a];
            let base = expected.floor();
            let n = base as u64 + u64::from(rng.gen_bool((expected - base).clamp(0.0, 1.0)));
            out.extend(self.synthesize_api(api, n, rng));
        }
        out
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
