//! Workload specification and traffic generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{ApiTraffic, TrafficShape};

/// A declarative workload: who (scale), what (API mix), when (shape), for
/// how long, with how much stochastic variation.
///
/// `generate()` returns the expected requests per window per API. Determinism
/// is seeded: the same spec always yields the same traffic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of concurrent application users.
    pub users: f64,
    /// Expected requests each user issues per window at intensity 1.0.
    pub requests_per_user_per_window: f64,
    /// API endpoint mix: `(endpoint, weight)`; weights are normalized.
    pub mix: Vec<(String, f64)>,
    /// Intra-day traffic shape.
    pub shape: TrafficShape,
    /// Number of simulated days.
    pub days: usize,
    /// Scrape windows per day.
    pub windows_per_day: usize,
    /// Multiplicative day-to-day lognormal-ish jitter magnitude (0 disables;
    /// 0.05 means days vary by roughly ±5%).
    pub day_jitter: f64,
    /// Multiplicative per-window noise magnitude.
    pub window_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with the paper's defaults: two peak-hours per day, mild
    /// day-to-day variation, and the given API mix.
    pub fn new(users: f64, mix: Vec<(String, f64)>) -> Self {
        Self {
            users,
            requests_per_user_per_window: 0.6,
            mix,
            shape: TrafficShape::TwoPeak,
            days: 7,
            windows_per_day: 96,
            day_jitter: 0.06,
            window_noise: 0.05,
            seed: 17,
        }
    }

    /// Builder: sets the traffic shape.
    pub fn with_shape(mut self, shape: TrafficShape) -> Self {
        self.shape = shape;
        self
    }

    /// Builder: sets the duration in days.
    pub fn with_days(mut self, days: usize) -> Self {
        self.days = days;
        self
    }

    /// Builder: sets the windows per day.
    pub fn with_windows_per_day(mut self, windows_per_day: usize) -> Self {
        self.windows_per_day = windows_per_day;
        self
    }

    /// Builder: sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the user scale.
    pub fn with_users(mut self, users: f64) -> Self {
        self.users = users;
        self
    }

    /// Builder: replaces the API mix.
    pub fn with_mix(mut self, mix: Vec<(String, f64)>) -> Self {
        self.mix = mix;
        self
    }

    /// Generates the expected API traffic.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or has non-positive total weight, or if
    /// `days`/`windows_per_day` is zero.
    pub fn generate(&self) -> ApiTraffic {
        assert!(!self.mix.is_empty(), "WorkloadSpec: empty API mix");
        assert!(self.days > 0, "WorkloadSpec: days must be > 0");
        assert!(
            self.windows_per_day > 0,
            "WorkloadSpec: windows_per_day must be > 0"
        );
        let weight_total: f64 = self.mix.iter().map(|(_, w)| w).sum();
        assert!(
            weight_total > 0.0,
            "WorkloadSpec: mix weights must sum to a positive value"
        );

        let mut rng = StdRng::seed_from_u64(self.seed);
        let profile = self.shape.profile(self.windows_per_day);
        let apis: Vec<String> = self.mix.iter().map(|(a, _)| a.clone()).collect();
        let fractions: Vec<f64> = self.mix.iter().map(|(_, w)| w / weight_total).collect();
        let base = self.users * self.requests_per_user_per_window;

        let mut requests = Vec::with_capacity(self.days * self.windows_per_day);
        for _day in 0..self.days {
            let day_factor = jitter(&mut rng, self.day_jitter);
            // Mild per-day mix drift: users favor slightly different APIs on
            // different days, another "non-deterministic property".
            let day_mix: Vec<f64> = fractions
                .iter()
                .map(|&f| f * jitter(&mut rng, self.day_jitter * 0.5))
                .collect();
            let day_mix_total: f64 = day_mix.iter().sum();
            for &intensity in &profile {
                let total = base * intensity * day_factor;
                let row: Vec<f64> = day_mix
                    .iter()
                    .map(|&f| {
                        let expected = total * f / day_mix_total;
                        (expected * jitter(&mut rng, self.window_noise)).max(0.0)
                    })
                    .collect();
                requests.push(row);
            }
        }
        ApiTraffic::new(apis, self.windows_per_day, requests)
    }
}

/// A multiplicative jitter factor centered on 1.0.
fn jitter<R: Rng + ?Sized>(rng: &mut R, magnitude: f64) -> f64 {
    if magnitude <= 0.0 {
        return 1.0;
    }
    1.0 + rng.gen_range(-magnitude..magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(
            100.0,
            vec![
                ("/composePost".into(), 0.3),
                ("/readTimeline".into(), 0.6),
                ("/uploadMedia".into(), 0.1),
            ],
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate();
        let b = spec().generate();
        assert_eq!(a.total_series().values(), b.total_series().values());
        let c = spec().with_seed(99).generate();
        assert_ne!(a.total_series().values(), c.total_series().values());
    }

    #[test]
    fn volume_scales_with_users() {
        let base = spec().generate().grand_total();
        let double = spec().with_users(200.0).generate().grand_total();
        let ratio = double / base;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn composition_tracks_mix() {
        let t = spec().generate();
        let comp = t.composition();
        let read = comp
            .iter()
            .find(|(a, _)| a == "/readTimeline")
            .map(|(_, f)| *f)
            .unwrap();
        assert!((read - 0.6).abs() < 0.05, "read fraction {read}");
    }

    #[test]
    fn two_peak_traffic_has_intra_day_structure() {
        let t = spec().with_days(1).generate();
        let total = t.total_series();
        // Peak at least twice the trough.
        assert!(total.max() > 2.0 * total.min().max(1e-9));
    }

    #[test]
    fn flat_traffic_is_flatter_than_two_peak() {
        let flat = spec().with_shape(TrafficShape::Flat).generate();
        let peaky = spec().generate();
        let flat_cv = flat.total_series().std_dev() / flat.total_series().mean();
        let peaky_cv = peaky.total_series().std_dev() / peaky.total_series().mean();
        assert!(
            flat_cv < 0.5 * peaky_cv,
            "flat {flat_cv} vs peaky {peaky_cv}"
        );
    }

    #[test]
    fn window_and_day_counts() {
        let t = spec().with_days(3).with_windows_per_day(48).generate();
        assert_eq!(t.window_count(), 144);
        assert_eq!(t.windows_per_day(), 48);
    }

    #[test]
    fn requests_are_non_negative() {
        let t = spec().with_seed(5).generate();
        for w in 0..t.window_count() {
            assert!(t.window(w).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "empty API mix")]
    fn rejects_empty_mix() {
        let _ = WorkloadSpec::new(10.0, vec![]).generate();
    }
}
