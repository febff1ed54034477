//! Property-based tests for the evaluation metrics and scalers.

use deeprest_metrics::eval::{
    anomalous_ranges, count_vector_accuracy, interval_coverage, interval_deviation, mape,
};
use deeprest_metrics::{MinMaxScaler, TimeSeries};
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = TimeSeries> {
    proptest::collection::vec(0.0f64..100.0, len).prop_map(TimeSeries::from_values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn error_metrics_are_zero_iff_perfect(s in series(1..50)) {
        prop_assert_eq!(mape(&s, &s), 0.0);
    }

    #[test]
    fn error_metrics_are_non_negative(
        pair in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..50),
    ) {
        let a: TimeSeries = pair.iter().map(|&(x, _)| x).collect();
        let e: TimeSeries = pair.iter().map(|&(_, y)| y).collect();
        prop_assert!(mape(&a, &e) >= 0.0);
    }

    #[test]
    fn coverage_is_a_fraction_and_complete_interval_covers(s in series(1..50)) {
        let lo: TimeSeries = s.values().iter().map(|v| v - 1.0).collect();
        let hi: TimeSeries = s.values().iter().map(|v| v + 1.0).collect();
        prop_assert_eq!(interval_coverage(&s, &lo, &hi), 1.0);
        let cov = interval_coverage(&s, &hi, &hi);
        prop_assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn deviation_is_zero_exactly_inside(s in series(2..50)) {
        let lo: TimeSeries = s.values().iter().map(|v| v - 0.5).collect();
        let hi: TimeSeries = s.values().iter().map(|v| v + 0.5).collect();
        let dev = interval_deviation(&s, &lo, &hi);
        prop_assert!(dev.values().iter().all(|&d| d == 0.0));

        // Pushing the actual above the interval produces positive scores.
        let bumped: TimeSeries = s.values().iter().map(|v| v + 10.0).collect();
        let dev = interval_deviation(&bumped, &lo, &hi);
        prop_assert!(dev.values().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn anomalous_ranges_are_sorted_disjoint_and_above_threshold(
        scores in proptest::collection::vec(0.0f64..1.0, 1..80),
        threshold in 0.1f64..0.9,
        min_len in 1usize..4,
    ) {
        let s = TimeSeries::from_values(scores.clone());
        let ranges = anomalous_ranges(&s, threshold, min_len);
        let mut prev_end = 0;
        for r in &ranges {
            prop_assert!(r.start >= prev_end, "ranges must be sorted/disjoint");
            prop_assert!(r.end - r.start >= min_len);
            for &score in &scores[r.start..r.end] {
                prop_assert!(score > threshold);
            }
            prev_end = r.end;
        }
        // Completeness: every qualifying run is reported.
        let flagged: usize = ranges.iter().map(|r| r.end - r.start).sum();
        let above = scores.iter().filter(|&&v| v > threshold).count();
        prop_assert!(flagged <= above);
    }

    #[test]
    fn scaler_round_trips_and_is_monotone(
        values in proptest::collection::vec(-50.0f64..50.0, 2..40),
        probe in -100.0f64..100.0,
    ) {
        let s = MinMaxScaler::fit(&values);
        prop_assert!((s.inverse(s.transform(probe)) - probe).abs() < 1e-9);
        // Monotone: transform preserves order.
        prop_assert!(s.transform(probe) <= s.transform(probe + 1.0));
    }

    #[test]
    fn count_vector_accuracy_is_bounded_and_identity_perfect(
        windows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..20.0, 4),
            1..10,
        ),
    ) {
        prop_assert_eq!(count_vector_accuracy(&windows, &windows), 100.0);
        let zeros: Vec<Vec<f64>> = windows.iter().map(|w| vec![0.0; w.len()]).collect();
        let acc = count_vector_accuracy(&windows, &zeros);
        prop_assert!((0.0..=100.0).contains(&acc));
    }

    #[test]
    fn moving_average_stays_within_min_max(s in series(1..60)) {
        let m = s.moving_average(5);
        prop_assert_eq!(m.len(), s.len());
        for &v in m.values() {
            prop_assert!(v >= s.min() - 1e-9 && v <= s.max() + 1e-9);
        }
    }

    #[test]
    fn sparkline_never_panics_and_has_bounded_width(
        s in series(0..100),
        width in 0usize..50,
    ) {
        let line = s.sparkline(width);
        prop_assert!(line.chars().count() <= width);
    }
}
