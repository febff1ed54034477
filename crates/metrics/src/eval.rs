//! Evaluation metrics used throughout the paper's §5.

use crate::TimeSeries;

/// Mean absolute percentage error (in percent) between `actual` and
/// `estimated`, the paper's headline estimation-quality metric (Fig. 12).
///
/// Windows where the actual value is (near) zero are evaluated against a
/// small floor instead of dividing by zero, matching the usual MAPE
/// convention for utilization data where idle windows would otherwise
/// dominate the score.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn mape(actual: &TimeSeries, estimated: &TimeSeries) -> f64 {
    assert_eq!(actual.len(), estimated.len(), "mape: length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    // Floor at 1% of the series' dynamic range so near-idle windows do not
    // blow the percentage up.
    let floor = (actual.max().abs().max(1e-9)) * 0.01;
    let mut total = 0.0;
    for (a, e) in actual.values().iter().zip(estimated.values().iter()) {
        let denom = a.abs().max(floor);
        total += (a - e).abs() / denom;
    }
    100.0 * total / actual.len() as f64
}

/// Fraction of windows whose actual value lies inside `[lower, upper]`.
///
/// A well-calibrated δ-confidence interval should cover ≈ δ of benign
/// windows (§5.4 uses δ = 0.90).
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn interval_coverage(actual: &TimeSeries, lower: &TimeSeries, upper: &TimeSeries) -> f64 {
    assert_eq!(
        actual.len(),
        lower.len(),
        "interval_coverage: length mismatch"
    );
    assert_eq!(
        actual.len(),
        upper.len(),
        "interval_coverage: length mismatch"
    );
    if actual.is_empty() {
        return 1.0;
    }
    let inside = actual
        .values()
        .iter()
        .zip(lower.values().iter().zip(upper.values().iter()))
        .filter(|(a, (l, u))| **a >= **l && **a <= **u)
        .count();
    inside as f64 / actual.len() as f64
}

/// Mean width of the `[lower, upper]` interval, in the series' own units.
///
/// Coverage alone is gameable — an infinitely wide interval covers
/// everything — so calibration is always reported as the (coverage, width)
/// pair: a well-adapted model holds coverage near nominal *without*
/// inflating the width.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub(crate) fn mean_interval_width(lower: &TimeSeries, upper: &TimeSeries) -> f64 {
    assert_eq!(
        lower.len(),
        upper.len(),
        "mean_interval_width: length mismatch"
    );
    if lower.is_empty() {
        return 0.0;
    }
    let sum: f64 = lower
        .values()
        .iter()
        .zip(upper.values().iter())
        .map(|(l, u)| u - l)
        .sum();
    sum / lower.len() as f64
}

/// Interval-calibration summary: empirical coverage (PICP) against the
/// nominal confidence level, plus the mean interval width that coverage
/// was bought with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationReport {
    /// Nominal confidence level δ the intervals were trained for.
    pub nominal: f64,
    /// Prediction-interval coverage probability: the fraction of windows
    /// whose actual value fell inside `[lower, upper]`.
    pub coverage: f64,
    /// Mean `upper - lower` over the evaluated windows.
    pub mean_width: f64,
}

impl CalibrationReport {
    /// Signed calibration gap in coverage points: positive when the
    /// interval over-covers, negative when it under-covers.
    pub(crate) fn gap_points(&self) -> f64 {
        100.0 * (self.coverage - self.nominal)
    }
}

impl core::fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "coverage {:.1}% (nominal {:.1}%, gap {:+.1}pt), mean width {:.3}",
            100.0 * self.coverage,
            100.0 * self.nominal,
            self.gap_points(),
            self.mean_width
        )
    }
}

/// Computes the [`CalibrationReport`] of a δ-interval series: empirical
/// coverage via [`interval_coverage`] and the width it cost via
/// `mean_interval_width`.
///
/// # Panics
///
/// Panics if the series lengths differ or `nominal` is outside `(0, 1)`.
pub fn interval_calibration(
    actual: &TimeSeries,
    lower: &TimeSeries,
    upper: &TimeSeries,
    nominal: f64,
) -> CalibrationReport {
    assert!(
        nominal > 0.0 && nominal < 1.0,
        "interval_calibration: nominal must be in (0, 1), got {nominal}"
    );
    CalibrationReport {
        nominal,
        coverage: interval_coverage(actual, lower, upper),
        mean_width: mean_interval_width(lower, upper),
    }
}

/// A contiguous run of windows whose anomaly score exceeds a threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnomalousRange {
    /// First window of the run (inclusive).
    pub start: usize,
    /// One past the last window of the run.
    pub end: usize,
}

/// Extracts contiguous runs where `scores` exceeds `threshold`; runs shorter
/// than `min_len` windows are dropped (debouncing isolated noisy windows).
pub fn anomalous_ranges(
    scores: &TimeSeries,
    threshold: f64,
    min_len: usize,
) -> Vec<AnomalousRange> {
    let mut out = Vec::new();
    let mut start = None::<usize>;
    for (t, &s) in scores.values().iter().enumerate() {
        if s > threshold {
            start.get_or_insert(t);
        } else if let Some(st) = start.take() {
            if t - st >= min_len {
                out.push(AnomalousRange { start: st, end: t });
            }
        }
    }
    if let Some(st) = start {
        if scores.len() - st >= min_len {
            out.push(AnomalousRange {
                start: st,
                end: scores.len(),
            });
        }
    }
    out
}

/// Percentage accuracy used for Table 1's trace-synthesis quality: compares
/// two per-window count vectors (synthesized vs ground truth features) as
/// `100·(1 - Σ|a-b| / max(Σ|a|, Σ|b|))`, averaged over windows, clamped to
/// `[0, 100]`.
pub fn count_vector_accuracy(actual: &[Vec<f64>], synthesized: &[Vec<f64>]) -> f64 {
    assert_eq!(
        actual.len(),
        synthesized.len(),
        "count_vector_accuracy: window count mismatch"
    );
    if actual.is_empty() {
        return 100.0;
    }
    let mut total = 0.0;
    for (a, s) in actual.iter().zip(synthesized.iter()) {
        assert_eq!(a.len(), s.len(), "count_vector_accuracy: dim mismatch");
        let l1_diff: f64 = a.iter().zip(s.iter()).map(|(x, y)| (x - y).abs()).sum();
        let mass = a
            .iter()
            .map(|v| v.abs())
            .sum::<f64>()
            .max(s.iter().map(|v| v.abs()).sum::<f64>());
        let acc = if mass < 1e-12 {
            1.0
        } else {
            (1.0 - l1_diff / mass).max(0.0)
        };
        total += acc;
    }
    100.0 * total / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::from_values(v.to_vec())
    }

    #[test]
    fn mape_of_perfect_estimate_is_zero() {
        let a = ts(&[10.0, 20.0, 30.0]);
        assert_eq!(mape(&a, &a), 0.0);
    }

    #[test]
    fn mape_scales_with_error() {
        let a = ts(&[100.0, 100.0]);
        let e = ts(&[110.0, 90.0]);
        assert!((mape(&a, &e) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mape_survives_zero_actuals() {
        let a = ts(&[0.0, 100.0]);
        let e = ts(&[1.0, 100.0]);
        let m = mape(&a, &e);
        assert!(m.is_finite());
        assert!(m > 0.0);
    }

    #[test]
    fn coverage_counts_inside_windows() {
        let a = ts(&[1.0, 5.0, 9.0, 20.0]);
        let lo = ts(&[0.0; 4]);
        let hi = ts(&[10.0; 4]);
        assert_eq!(interval_coverage(&a, &lo, &hi), 0.75);
    }

    #[test]
    fn mean_width_known_value() {
        let lo = ts(&[0.0, 1.0, 2.0]);
        let hi = ts(&[1.0, 4.0, 5.0]);
        assert!((mean_interval_width(&lo, &hi) - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean_interval_width(&ts(&[]), &ts(&[])), 0.0);
    }

    #[test]
    fn calibration_report_combines_coverage_and_width() {
        let a = ts(&[1.0, 5.0, 9.0, 20.0]);
        let lo = ts(&[0.0; 4]);
        let hi = ts(&[10.0; 4]);
        let r = interval_calibration(&a, &lo, &hi, 0.90);
        assert_eq!(r.coverage, 0.75);
        assert_eq!(r.mean_width, 10.0);
        assert!((r.gap_points() + 15.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_report_at_nominal_is_within_zero() {
        // 9 of 10 windows inside a δ=0.90 interval: gap is exactly 0.
        let a = ts(&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.0]);
        let lo = ts(&[0.0; 10]);
        let hi = ts(&[1.0; 10]);
        let r = interval_calibration(&a, &lo, &hi, 0.90);
        assert!(r.gap_points().abs() <= 1e-9, "gap {}", r.gap_points());
    }

    #[test]
    #[should_panic(expected = "nominal must be in (0, 1)")]
    fn calibration_rejects_bad_nominal() {
        let a = ts(&[1.0]);
        let _ = interval_calibration(&a, &a, &a, 1.0);
    }

    #[test]
    fn anomalous_ranges_debounce() {
        let s = ts(&[0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]);
        let runs = anomalous_ranges(&s, 0.5, 2);
        assert_eq!(runs, vec![AnomalousRange { start: 3, end: 6 }]);
        // Trailing open run is kept when long enough.
        let runs = anomalous_ranges(&s, 0.5, 1);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2], AnomalousRange { start: 7, end: 8 });
    }

    #[test]
    fn count_vector_accuracy_perfect_and_half() {
        let a = vec![vec![2.0, 2.0]];
        assert_eq!(count_vector_accuracy(&a, &a), 100.0);
        let s = vec![vec![2.0, 0.0]];
        assert!((count_vector_accuracy(&a, &s) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn count_vector_accuracy_empty_windows_are_perfect() {
        let a = vec![vec![0.0, 0.0]];
        assert_eq!(count_vector_accuracy(&a, &a), 100.0);
    }
}
