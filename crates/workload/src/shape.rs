//! Intra-day traffic shapes.

use serde::{Deserialize, Serialize};

/// The intra-day shape of API traffic intensity.
///
/// Profiles are normalized to mean 1.0 over a day, so the workload's `users`
/// scale controls total volume independently of shape — exactly the
/// separation the paper's "unseen traffic shape" scenario (Fig. 16) relies
/// on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TrafficShape {
    /// Two peak-hours per day (e.g. lunchtime and late evening), the paper's
    /// default matching real-world social-network behavior (Fig. 9).
    TwoPeak,
    /// Flat traffic, e.g. a user base spread across many time zones
    /// (Fig. 13c).
    Flat,
    /// A single peak, e.g. an evening-only audience.
    SinglePeak,
    /// Arbitrary non-negative intensity profile, resampled to the window
    /// count and normalized to mean 1.0.
    Custom(Vec<f64>),
}

impl TrafficShape {
    /// The intensity profile over one day, sampled at `windows_per_day`
    /// points and normalized to mean 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `windows_per_day` is zero, or for
    /// [`TrafficShape::Custom`] profiles that are empty or not
    /// non-negative with positive mass.
    pub fn profile(&self, windows_per_day: usize) -> Vec<f64> {
        assert!(windows_per_day > 0, "profile: windows_per_day must be > 0");
        let raw: Vec<f64> = match self {
            TrafficShape::Flat => vec![1.0; windows_per_day],
            TrafficShape::TwoPeak => (0..windows_per_day)
                .map(|w| {
                    let t = w as f64 / windows_per_day as f64;
                    // Base load + lunchtime and late-evening peaks.
                    0.35 + 1.0 * gaussian(t, 0.50, 0.055) + 0.85 * gaussian(t, 0.82, 0.05)
                })
                .collect(),
            TrafficShape::SinglePeak => (0..windows_per_day)
                .map(|w| {
                    let t = w as f64 / windows_per_day as f64;
                    0.30 + 1.2 * gaussian(t, 0.65, 0.09)
                })
                .collect(),
            TrafficShape::Custom(profile) => {
                assert!(!profile.is_empty(), "profile: custom shape is empty");
                assert!(
                    profile.iter().all(|&v| v >= 0.0),
                    "profile: custom shape must be non-negative"
                );
                assert!(
                    profile.iter().sum::<f64>() > 0.0,
                    "profile: custom shape must have positive mass"
                );
                resample(profile, windows_per_day)
            }
        };
        normalize_mean(raw)
    }
}

fn gaussian(t: f64, center: f64, width: f64) -> f64 {
    let d = (t - center) / width;
    (-0.5 * d * d).exp()
}

fn resample(profile: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let pos = i as f64 * profile.len() as f64 / n as f64;
            profile[(pos as usize).min(profile.len() - 1)]
        })
        .collect()
}

fn normalize_mean(values: Vec<f64>) -> Vec<f64> {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.into_iter().map(|v| v / mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_mean_one() {
        for shape in [
            TrafficShape::TwoPeak,
            TrafficShape::Flat,
            TrafficShape::SinglePeak,
            TrafficShape::Custom(vec![1.0, 5.0, 2.0]),
        ] {
            let p = shape.profile(96);
            let mean = p.iter().sum::<f64>() / p.len() as f64;
            assert!((mean - 1.0).abs() < 1e-9, "{shape:?} mean {mean}");
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    /// Number of local maxima above 1.2 in a day profile.
    fn peak_count(shape: &TrafficShape, windows_per_day: usize) -> usize {
        let p = shape.profile(windows_per_day);
        (1..p.len().saturating_sub(1))
            .filter(|&w| p[w] > p[w - 1] && p[w] > p[w + 1] && p[w] > 1.2)
            .count()
    }

    #[test]
    fn two_peak_has_two_peaks_and_flat_has_none() {
        assert_eq!(peak_count(&TrafficShape::TwoPeak, 96), 2);
        assert_eq!(peak_count(&TrafficShape::Flat, 96), 0);
        assert_eq!(peak_count(&TrafficShape::SinglePeak, 96), 1);
    }

    #[test]
    fn flat_profile_is_constant() {
        let p = TrafficShape::Flat.profile(10);
        assert!(p.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn custom_profile_resamples() {
        let p = TrafficShape::Custom(vec![0.0, 2.0]).profile(4);
        assert_eq!(p.len(), 4);
        // First half low, second half high.
        assert!(p[0] < p[3]);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn custom_rejects_negative_values() {
        let _ = TrafficShape::Custom(vec![1.0, -1.0]).profile(4);
    }
}
