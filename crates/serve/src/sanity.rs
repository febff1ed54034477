//! Causal (online) δ-interval sanity scoring.
//!
//! The batch sanity check ([`deeprest_core::sanity::check`]) normalizes
//! each window's interval deviation by the *whole series'* interval span
//! and smooths with a centered moving average — both non-causal. A live
//! pipeline only knows the past, so this module re-derives the same score
//! with strictly causal statistics:
//!
//! * the normalization scale is the *running* span — the maximum upper
//!   bound minus the minimum lower bound observed so far (converging to
//!   the batch scale as the stream covers the series' range);
//! * smoothing is a trailing mean over the last three raw scores instead
//!   of the centered 3-window average.
//!
//! Everything else matches the batch path bit for bit: cumulative
//! resources scored on their increments, the squared normalized
//! deviation, and the score-threshold / minimum-run-length event rule.
//! DESIGN.md's serving section documents the deviation from batch
//! semantics.

use deeprest_core::sanity::SanityConfig;
use deeprest_core::stream::PointEstimate;
use deeprest_metrics::increment;
use serde::{Deserialize, Serialize};

/// How many trailing raw scores the causal smoother averages — the online
/// stand-in for the batch check's centered `moving_average(3)`.
const SMOOTH_WINDOW: usize = 3;

/// Per-resource causal scoring state; serializable for checkpointing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct KeyState {
    /// Previous raw observation (cumulative resources are scored on
    /// per-window increments; first increment is zero, as in batch).
    prev_actual: Option<f64>,
    /// Running maximum of the predicted upper bound.
    max_upper: Option<f64>,
    /// Running minimum of the predicted lower bound.
    min_lower: Option<f64>,
    /// Last `SMOOTH_WINDOW` raw scores, oldest first.
    recent: Vec<f64>,
    /// Consecutive windows with smoothed score above threshold.
    streak: usize,
}

/// Serializable snapshot of an [`OnlineSanity`] scorer (one entry per
/// expert, in model expert order).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SanityState {
    keys: Vec<KeyState>,
}

/// One window's scoring outcome for one resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreOutcome {
    /// Smoothed anomaly score (trailing mean of squared normalized
    /// interval deviations).
    pub score: f64,
    /// Whether the score has been above threshold for at least the
    /// configured minimum run length — the "fire an alert now" signal.
    pub alerting: bool,
    /// Percent deviation of [`observed`](Self::observed) from the
    /// expected value in this window; `0.0` when the expected value is
    /// numerically zero.
    pub deviation_pct: f64,
    /// The observation in the expert's output space, as it was scored: the
    /// per-window increment ([`deeprest_metrics::increment`]) of a
    /// cumulative resource, the raw value otherwise.
    pub observed: f64,
}

/// Causal per-resource anomaly scorer.
#[derive(Clone, Debug)]
pub struct OnlineSanity {
    config: SanityConfig,
    state: SanityState,
}

impl OnlineSanity {
    /// Creates a scorer for `expert_count` resources.
    pub fn new(config: SanityConfig, expert_count: usize) -> Self {
        Self {
            config,
            state: SanityState {
                keys: vec![KeyState::default(); expert_count],
            },
        }
    }

    /// Scores one resource's window: `actual` is the raw observed value,
    /// `point` the streaming estimate, `is_delta` whether the resource is
    /// cumulative (scored on increments).
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range.
    pub fn observe(
        &mut self,
        expert: usize,
        actual: f64,
        point: &PointEstimate,
        is_delta: bool,
    ) -> ScoreOutcome {
        let st = &mut self.state.keys[expert];

        // Cumulative resources: compare per-window increments, exactly as
        // the batch check does (first increment is zero).
        let a = if is_delta {
            increment(&mut st.prev_actual, actual)
        } else {
            actual
        };

        // Causal normalization scale: the interval span observed so far.
        let max_upper = st.max_upper.map_or(point.upper, |m| m.max(point.upper));
        st.max_upper = Some(max_upper);
        let min_lower = st.min_lower.map_or(point.lower, |m| m.min(point.lower));
        st.min_lower = Some(min_lower);
        let scale = (max_upper - min_lower).abs().max(1e-9);

        let d = if a < point.lower {
            (point.lower - a) / scale
        } else if a > point.upper {
            (a - point.upper) / scale
        } else {
            0.0
        };
        let raw = d * d;

        st.recent.push(raw);
        if st.recent.len() > SMOOTH_WINDOW {
            st.recent.remove(0);
        }
        let score = st.recent.iter().sum::<f64>() / st.recent.len() as f64;

        if score > self.config.score_threshold {
            st.streak += 1;
        } else {
            st.streak = 0;
        }
        let alerting = st.streak >= self.config.min_event_windows.max(1);

        let deviation_pct = if point.expected.abs() < 1e-9 {
            0.0
        } else {
            100.0 * (a - point.expected) / point.expected
        };

        ScoreOutcome {
            score,
            alerting,
            deviation_pct,
            observed: a,
        }
    }

    /// The scorer's serializable state (for checkpoints).
    pub(crate) fn state(&self) -> &SanityState {
        &self.state
    }

    /// Rebuilds a scorer from a checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state's resource count disagrees with
    /// `expert_count`.
    pub(crate) fn restore(
        config: SanityConfig,
        state: SanityState,
        expert_count: usize,
    ) -> Result<Self, String> {
        if state.keys.len() != expert_count {
            return Err(format!(
                "sanity state covers {} resources, model has {expert_count} experts",
                state.keys.len()
            ));
        }
        Ok(Self { config, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(lower: f64, expected: f64, upper: f64) -> PointEstimate {
        PointEstimate {
            expected,
            lower,
            upper,
        }
    }

    fn config() -> SanityConfig {
        SanityConfig {
            score_threshold: 0.01,
            min_event_windows: 2,
            finding_threshold_pct: 15.0,
        }
    }

    #[test]
    fn in_interval_observations_never_alert() {
        let mut s = OnlineSanity::new(config(), 1);
        for _ in 0..50 {
            let out = s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
            assert_eq!(out.score, 0.0);
            assert!(!out.alerting);
        }
    }

    #[test]
    fn sustained_excursions_alert_after_min_run() {
        let mut s = OnlineSanity::new(config(), 1);
        // Establish the scale with a few normal windows.
        for _ in 0..5 {
            s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
        }
        let o1 = s.observe(0, 12.0, &point(4.0, 5.0, 6.0), false);
        assert!(!o1.alerting, "one window must not alert (min run 2)");
        let o2 = s.observe(0, 12.0, &point(4.0, 5.0, 6.0), false);
        assert!(o2.alerting);
        assert!(o2.score > config().score_threshold);
        assert!(o2.deviation_pct > 100.0);
        // Recovery clears the streak (smoothing tail may keep the score up
        // briefly, so give it the full smoother length).
        let mut last = o2;
        for _ in 0..SMOOTH_WINDOW + 1 {
            last = s.observe(0, 5.0, &point(4.0, 5.0, 6.0), false);
        }
        assert!(!last.alerting);
    }

    #[test]
    fn delta_resources_score_increments() {
        let mut s = OnlineSanity::new(config(), 1);
        // Cumulative counter growing by 1.0/window, predicted increment
        // 1.0. The first increment is zero by definition (below the band);
        // from there on the increments sit inside the interval and the
        // smoothed score decays back to zero.
        let mut acc = 100.0;
        let mut last = 1.0;
        for _ in 0..10 {
            acc += 1.0;
            last = s.observe(0, acc, &point(0.5, 1.0, 1.5), true).score;
        }
        assert_eq!(last, 0.0);
        // A 50-unit jump in one window is far outside the increment band.
        acc += 50.0;
        let out = s.observe(0, acc, &point(0.5, 1.0, 1.5), true);
        assert!(out.score > 0.0);
    }

    #[test]
    fn state_round_trips_and_validates() {
        let mut s = OnlineSanity::new(config(), 2);
        s.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        s.observe(1, 5.0, &point(4.0, 5.0, 6.0), false);
        let json = serde_json::to_string(s.state()).unwrap();
        let state: SanityState = serde_json::from_str(&json).unwrap();
        assert_eq!(&state, s.state());

        let mut restored = OnlineSanity::restore(config(), state, 2).unwrap();
        // Same next observation produces the same outcome.
        let a = s.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        let b = restored.observe(0, 9.0, &point(4.0, 5.0, 6.0), false);
        assert_eq!(a, b);

        assert!(OnlineSanity::restore(config(), SanityState::default(), 2).is_err());
    }
}
