//! Min-max normalization for training targets and features.

use serde::{Deserialize, Serialize};

/// A min-max scaler mapping a raw range onto `[0, 1]`.
///
/// DeepRest trains one hyperparameter setting across resources with wildly
/// different units (CPU %, MiB, IOps); normalizing each target series makes
/// that possible. The scaler is fitted on application-learning data and
/// stored in the model so query-time predictions can be mapped back.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    min: f64,
    max: f64,
}

impl MinMaxScaler {
    /// Fits a scaler on `values`. A constant (or empty) series degenerates
    /// to the identity around its value, avoiding division by zero.
    pub fn fit(values: &[f64]) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            return Self { min: 0.0, max: 1.0 };
        }
        if (max - min).abs() < 1e-12 {
            // Degenerate range: scale as identity offset by min.
            return Self {
                min,
                max: min + 1.0,
            };
        }
        Self { min, max }
    }

    /// Maps a raw value into normalized space.
    pub fn transform(&self, v: f64) -> f64 {
        (v - self.min) / (self.max - self.min)
    }

    /// Maps a normalized value back to raw space.
    pub fn inverse(&self, v: f64) -> f64 {
        v * (self.max - self.min) + self.min
    }

    /// The fitted raw range, `(min, max)`.
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let s = MinMaxScaler::fit(&[10.0, 20.0, 30.0]);
        assert_eq!(s.transform(10.0), 0.0);
        assert_eq!(s.transform(30.0), 1.0);
        assert_eq!(s.transform(20.0), 0.5);
        for v in [10.0, 17.3, 30.0, 45.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = MinMaxScaler::fit(&[5.0, 5.0, 5.0]);
        let t = s.transform(5.0);
        assert!(t.is_finite());
        assert!((s.inverse(t) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn range_is_the_fitted_span() {
        assert_eq!(MinMaxScaler::fit(&[20.0, 10.0, 30.0]).range(), (10.0, 30.0));
        // Degenerate fits report the range they scale by.
        assert_eq!(MinMaxScaler::fit(&[5.0, 5.0]).range(), (5.0, 6.0));
        assert_eq!(MinMaxScaler::fit(&[]).range(), (0.0, 1.0));
    }

    #[test]
    fn empty_series_defaults_to_unit_range() {
        let s = MinMaxScaler::fit(&[]);
        assert_eq!(s.transform(0.5), 0.5);
    }

    #[test]
    fn extrapolates_beyond_fitted_range() {
        // Queries with 3x more users than ever push raw values beyond the
        // fitted max; the scaler must extrapolate linearly, not clamp.
        let s = MinMaxScaler::fit(&[0.0, 10.0]);
        assert_eq!(s.transform(30.0), 3.0);
        assert_eq!(s.inverse(3.0), 30.0);
    }
}
