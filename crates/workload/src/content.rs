//! Synthetic content models replacing the paper's real-world datasets.
//!
//! The paper seeds its social network with a Facebook graph (for realistic
//! user interactions) and the INRIA Person photos (for media payloads).
//! Those datasets only influence *per-request work*: how many followees a
//! timeline read fans out over, how large an uploaded photo is, how long a
//! post is. This module generates synthetic equivalents with matching
//! statistical character — a Zipf-like degree distribution for the social
//! graph and long-tailed payload sizes — so the simulator exercises the same
//! cost-variation code paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A synthetic social graph with a heavy-tailed follower distribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SocialGraph {
    /// `followees[u]` is the number of accounts user `u` follows.
    followees: Vec<u32>,
}

impl SocialGraph {
    /// Generates a graph of `users` accounts whose followee counts follow a
    /// truncated Zipf distribution (exponent ≈ 1.6), the shape observed in
    /// real social networks.
    pub fn generate(users: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let followees = (0..users.max(1))
            .map(|_| sample_zipf(&mut rng, 1.6, 500) as u32)
            .collect();
        Self { followees }
    }

    /// Samples a random user's followee count (the fan-out a home-timeline
    /// read or a post fan-out write touches).
    pub fn sample_fanout<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.followees[rng.gen_range(0..self.followees.len())]
    }
}

/// Payload-size distributions standing in for real post/photo content.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PayloadModel {
    /// Median photo size in KiB.
    pub media_kib_median: f64,
    /// Lognormal sigma of photo sizes.
    pub media_sigma: f64,
    /// Mean post length in characters.
    pub text_chars_mean: f64,
    /// Probability a post embeds a URL (triggering URL shortening).
    pub url_probability: f64,
    /// Probability a post mentions another user.
    pub mention_probability: f64,
}

impl Default for PayloadModel {
    fn default() -> Self {
        Self {
            // INRIA Person photos: "pictures of people with various
            // resolutions" — a long-tailed size distribution around ~100 KiB.
            media_kib_median: 120.0,
            media_sigma: 0.8,
            text_chars_mean: 140.0,
            url_probability: 0.25,
            mention_probability: 0.35,
        }
    }
}

impl PayloadModel {
    /// Samples a photo size in KiB (lognormal).
    pub fn sample_media_kib<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        self.media_kib_median * (self.media_sigma * z).exp()
    }

    /// Samples a post length in characters (exponential, min 1).
    pub fn sample_text_chars<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(1e-9..1.0);
        (self.text_chars_mean * -u.ln()).max(1.0)
    }

    /// Whether this post includes a URL.
    pub fn sample_has_url<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.url_probability)
    }

    /// Whether this post mentions another user.
    pub fn sample_has_mention<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.mention_probability)
    }
}

/// Samples from a Zipf distribution over `1..=max` with the given exponent
/// via inverse-CDF on a precomputed-free rejection-ish loop (max is small).
fn sample_zipf<R: Rng + ?Sized>(rng: &mut R, exponent: f64, max: usize) -> usize {
    // Direct inverse-transform on the discrete CDF would need a table; a
    // simple approach for small `max`: sample continuous Pareto and clamp.
    let u: f64 = rng.gen_range(1e-12..1.0);
    let x = (1.0 - u).powf(-1.0 / (exponent - 1.0));
    (x.round() as usize).clamp(1, max)
}

/// Box-Muller standard normal.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_generation_is_deterministic() {
        let a = SocialGraph::generate(100, 5);
        let b = SocialGraph::generate(100, 5);
        assert_eq!(a.followees, b.followees);
    }

    #[test]
    fn graph_is_heavy_tailed() {
        let g = SocialGraph::generate(5_000, 1);
        let mean = g.followees.iter().map(|&f| f64::from(f)).sum::<f64>() / 5_000.0;
        let max = g.followees.iter().copied().max().unwrap();
        // Heavy tail: max dwarfs the mean.
        assert!(f64::from(max) > 10.0 * mean, "max {max} mean {mean}");
        assert!(mean >= 1.0);
    }

    #[test]
    fn fanout_samples_are_valid_counts() {
        let g = SocialGraph::generate(50, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let f = g.sample_fanout(&mut rng);
            assert!((1..=500).contains(&f));
        }
    }

    #[test]
    fn media_sizes_are_long_tailed_positive() {
        let m = PayloadModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..2_000).map(|_| m.sample_media_kib(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let median = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        // Lognormal: mean exceeds median.
        assert!(mean > median);
        assert!((median - 120.0).abs() < 30.0, "median {median}");
    }

    #[test]
    fn text_lengths_positive_with_expected_mean() {
        let m = PayloadModel::default();
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f64> = (0..5_000).map(|_| m.sample_text_chars(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 140.0).abs() < 15.0, "mean {mean}");
    }
}
