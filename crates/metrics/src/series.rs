//! Windowed utilization time-series.

use serde::{Deserialize, Serialize};

/// A fixed-window utilization time-series: `values[t]` is the average
/// utilization over window `t`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from raw values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Creates a zero-filled series of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the series has no windows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable access to the values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at window `t`.
    pub fn get(&self, t: usize) -> f64 {
        self.values[t]
    }

    /// Appends a value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Sub-series over a window range, renumbered from zero.
    pub fn slice(&self, range: std::ops::Range<usize>) -> TimeSeries {
        TimeSeries {
            values: self.values[range].to_vec(),
        }
    }

    /// Mean over all windows (zero for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest value (negative infinity for an empty series).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest value (positive infinity for an empty series).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Elementwise sum with another series.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add(&self, other: &TimeSeries) -> TimeSeries {
        assert_eq!(self.len(), other.len(), "TimeSeries::add: length mismatch");
        TimeSeries {
            values: self
                .values
                .iter()
                .zip(other.values.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Scales every value by `factor`.
    pub fn scale(&self, factor: f64) -> TimeSeries {
        TimeSeries {
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Centered moving average with an odd window of `width` (clamped at the
    /// edges). Used to stabilize anomaly scores before event extraction.
    pub fn moving_average(&self, width: usize) -> TimeSeries {
        let half = width.max(1) / 2;
        let n = self.values.len();
        (0..n)
            .map(|t| {
                let lo = t.saturating_sub(half);
                let hi = (t + half + 1).min(n);
                self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// ASCII sparkline for terminal reports (one char per window, resampled
    /// to at most `width` chars).
    pub fn sparkline(&self, width: usize) -> String {
        const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.values.is_empty() || width == 0 {
            return String::new();
        }
        let lo = self.min();
        let hi = self.max();
        let span = (hi - lo).max(1e-12);
        let n = self.values.len().min(width);
        let mut out = String::with_capacity(n * 3);
        for i in 0..n {
            // Average the bucket of windows this char covers.
            let start = i * self.values.len() / n;
            let end = ((i + 1) * self.values.len() / n).max(start + 1);
            let avg = self.values[start..end].iter().sum::<f64>() / (end - start) as f64;
            let tick = (((avg - lo) / span) * 7.0).round() as usize;
            out.push(TICKS[tick.min(7)]);
        }
        out
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.min(), 1.0);
        assert!((s.std_dev() - 1.118_033_988).abs() < 1e-6);
    }

    #[test]
    fn slice_and_push() {
        let mut s = TimeSeries::zeros(3);
        s.push(5.0);
        assert_eq!(s.len(), 4);
        let tail = s.slice(2..4);
        assert_eq!(tail.values(), &[0.0, 5.0]);
    }

    #[test]
    fn add_and_scale() {
        let a = TimeSeries::from_values(vec![1.0, 2.0]);
        let b = TimeSeries::from_values(vec![10.0, 20.0]);
        assert_eq!(a.add(&b).values(), &[11.0, 22.0]);
        assert_eq!(a.scale(3.0).values(), &[3.0, 6.0]);
    }

    #[test]
    fn moving_average_smooths_and_preserves_length() {
        let s = TimeSeries::from_values(vec![0.0, 9.0, 0.0, 0.0, 9.0, 0.0]);
        let m = s.moving_average(3);
        assert_eq!(m.len(), 6);
        assert_eq!(m.values()[1], 3.0);
        assert_eq!(m.values()[0], 4.5); // Edge window is clamped to 2 values.
        assert!((m.mean() - s.mean()).abs() < 1.0);
    }

    #[test]
    fn sparkline_has_requested_width() {
        let s: TimeSeries = (0..100).map(|i| i as f64).collect();
        let line = s.sparkline(20);
        assert_eq!(line.chars().count(), 20);
        // Monotone data → monotone sparkline endpoints.
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
    }

    #[test]
    fn sparkline_of_flat_series_does_not_panic() {
        let s = TimeSeries::from_values(vec![5.0; 10]);
        let line = s.sparkline(5);
        assert_eq!(line.chars().count(), 5);
    }
}
