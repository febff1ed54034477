//! Online conformal-style calibration of the quantile heads' δ-intervals.
//!
//! The model emits `(expected, lower, upper)` per expert per window. When
//! the heads are miscalibrated (too narrow under drift, too wide after
//! over-fitting), the *shape* of the interval is still informative — only
//! its scale is off. The calibrator keeps, per expert, a bounded ring of
//! normalized nonconformity scores
//!
//! ```text
//! r_t = max(lower_t − y_t, y_t − upper_t) / halfwidth_t
//! ```
//!
//! (`r ≤ 0` inside the interval, `r = 1` a full half-width outside) and
//! widens the *current* interval by the conformal order statistic of past
//! scores: `scale = 1 + max(0, Q_δ(r))`, clamped to `MAX_SCALE`, applied
//! asymmetrically around the expected value:
//!
//! ```text
//! lower' = expected − scale · (expected − lower)
//! upper' = expected + scale · (upper − expected)
//! ```
//!
//! so an empirically-δ fraction of future observations falls inside the
//! widened interval — the split-conformal guarantee, applied causally
//! (window `t`'s scale uses only scores from windows `< t`).
//!
//! **Bitwise-identity contract**: while the ring holds fewer than
//! `MIN_SAMPLES` scores, and whenever the computed scale is exactly `1.0`,
//! [`Calibrator::apply`] returns its input untouched — no arithmetic — so
//! a disabled or freshly-started adaptive pipeline reproduces the frozen
//! model's outputs bit for bit.
//!
//! The calibrator also tracks per-tail miss counts and turns them into the
//! per-quantile **gradient modulation** for the pinball loss (the
//! calibration-aware quantile-training trick of arXiv 2508.01635): a tail
//! that misses more often than its nominal rate gets its gradient boosted,
//! an over-covered tail gets it damped, steering subsequent online updates
//! toward calibrated heads rather than just accurate medians.

use deeprest_core::stream::PointEstimate;
use serde::{Deserialize, Serialize};

/// Ring capacity: how many recent nonconformity scores per expert the
/// order statistic is computed over.
const WINDOW: usize = 64;

/// Minimum ring occupancy before any widening is applied (below this the
/// scale is identically `1.0`).
const MIN_SAMPLES: usize = 16;

/// Upper clamp on the widening factor.
const MAX_SCALE: f64 = 3.0;

/// Extra multiplicative widening while the expert's drift detector is in
/// the watch state (the "widen first, adapt second" response).
const WATCH_BOOST: f64 = 1.25;

/// Clamp on the per-quantile gradient modulation factors.
const MAX_MODULATION: f32 = 2.0;

/// Serializable calibrator state.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CalibrationState {
    /// Per-expert nonconformity rings (fixed capacity, insertion order).
    pub scores: Vec<Vec<f64>>,
    /// Per-expert ring write cursor.
    pub cursor: Vec<usize>,
    /// Windows where the observation fell below the raw lower limit.
    pub lower_miss: Vec<u64>,
    /// Windows where the observation fell above the raw upper limit.
    pub upper_miss: Vec<u64>,
    /// Windows observed per expert.
    pub observed: Vec<u64>,
}

/// Per-expert online conformal interval scaler.
#[derive(Clone, Debug)]
pub(crate) struct Calibrator {
    nominal: f64,
    state: CalibrationState,
    /// Sort arena for the order statistic (capacity [`WINDOW`], reused).
    scratch: Vec<f64>,
}

impl Calibrator {
    /// A fresh calibrator for `experts` experts at nominal coverage
    /// `nominal` (the model's δ).
    ///
    /// # Panics
    ///
    /// Panics unless `nominal ∈ (0, 1)`.
    pub(crate) fn new(nominal: f64, experts: usize) -> Self {
        assert!(
            nominal > 0.0 && nominal < 1.0,
            "Calibrator: nominal coverage must be in (0, 1), got {nominal}"
        );
        Self {
            nominal,
            state: CalibrationState {
                scores: (0..experts).map(|_| Vec::with_capacity(WINDOW)).collect(),
                cursor: vec![0; experts],
                lower_miss: vec![0; experts],
                upper_miss: vec![0; experts],
                observed: vec![0; experts],
            },
            scratch: Vec::with_capacity(WINDOW),
        }
    }

    /// Rebuilds a calibrator from checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state's shape disagrees with `experts`
    /// or the ring capacity [`WINDOW`].
    pub(crate) fn restore(
        nominal: f64,
        state: CalibrationState,
        experts: usize,
    ) -> Result<Self, String> {
        if state.scores.len() != experts
            || state.cursor.len() != experts
            || state.lower_miss.len() != experts
            || state.upper_miss.len() != experts
            || state.observed.len() != experts
        {
            return Err(format!(
                "calibration state covers {} experts, model has {experts}",
                state.scores.len()
            ));
        }
        for (e, ring) in state.scores.iter().enumerate() {
            if ring.len() > WINDOW {
                return Err(format!(
                    "expert {e} ring holds {} scores, capacity is {WINDOW}",
                    ring.len()
                ));
            }
        }
        let mut c = Self::new(nominal, experts);
        c.state = state;
        Ok(c)
    }

    /// The widening factor for expert `e`'s *next* interval: `1.0` until
    /// [`MIN_SAMPLES`] scores accumulated, otherwise the conformal order
    /// statistic of the ring, boosted by [`WATCH_BOOST`] while `watching`,
    /// clamped to `[1, MAX_SCALE]`.
    pub(crate) fn scale(&mut self, e: usize, watching: bool) -> f64 {
        let ring = &self.state.scores[e];
        if ring.len() < MIN_SAMPLES {
            // Identity until evidence: keeps the cold pipeline bitwise
            // equal to the frozen model.
            return if watching { WATCH_BOOST } else { 1.0 };
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(ring);
        self.scratch.sort_unstable_by(f64::total_cmp);
        // Split-conformal rank: ⌈(n+1)·δ⌉ of the sorted scores, clamped.
        let n = self.scratch.len();
        let rank = (((n + 1) as f64) * self.nominal).ceil() as usize;
        let q = self.scratch[rank.min(n) - 1];
        let mut scale = 1.0 + q.max(0.0);
        if watching {
            scale *= WATCH_BOOST;
        }
        scale.clamp(1.0, MAX_SCALE)
    }

    /// Applies a widening factor to one interval. `scale == 1.0` returns
    /// the input bit-for-bit (no arithmetic).
    pub(crate) fn apply(est: &PointEstimate, scale: f64) -> PointEstimate {
        if scale == 1.0 {
            return *est;
        }
        PointEstimate {
            expected: est.expected,
            lower: est.expected - scale * (est.expected - est.lower),
            upper: est.expected + scale * (est.upper - est.expected),
        }
    }

    /// Records window `t`'s outcome for expert `e` against the **raw**
    /// (uncalibrated) interval — must be called *after*
    /// [`scale`](Self::scale) for the same window so the statistic stays
    /// causal. Returns whether the observation fell inside the raw
    /// interval (the drift detector's input).
    pub(crate) fn observe_raw(&mut self, e: usize, actual: f64, est: &PointEstimate) -> bool {
        let halfwidth = ((est.upper - est.lower) * 0.5).max(f64::EPSILON);
        let r = (est.lower - actual).max(actual - est.upper) / halfwidth;
        let ring = &mut self.state.scores[e];
        if ring.len() < WINDOW {
            ring.push(r);
        } else {
            ring[self.state.cursor[e]] = r;
        }
        self.state.cursor[e] = (self.state.cursor[e] + 1) % WINDOW;
        self.state.observed[e] += 1;
        if actual < est.lower {
            self.state.lower_miss[e] += 1;
        } else if actual > est.upper {
            self.state.upper_miss[e] += 1;
        }
        actual >= est.lower && actual <= est.upper
    }

    /// The per-quantile gradient modulation `[median, lower, upper]` for
    /// the next online update (the order of
    /// `deeprest_nn::loss::quantiles_for`): each tail's factor is its
    /// empirical miss rate over the nominal tail mass `(1 − δ)/2`,
    /// clamped to `[1/MAX_MODULATION, MAX_MODULATION]`; the median is
    /// never modulated. With no observations every factor is exactly
    /// `1.0`, which the analytic backward treats as a bitwise no-op.
    pub(crate) fn gradient_modulation(&self) -> [f32; 3] {
        let total: u64 = self.state.observed.iter().sum();
        if total == 0 {
            return [1.0; 3];
        }
        let tail = (1.0 - self.nominal) * 0.5;
        let lo_rate = self.state.lower_miss.iter().sum::<u64>() as f64 / total as f64;
        let hi_rate = self.state.upper_miss.iter().sum::<u64>() as f64 / total as f64;
        let max = f64::from(MAX_MODULATION);
        let clamp = |rate: f64| -> f32 { ((rate / tail).clamp(1.0 / max, max)) as f32 };
        [1.0, clamp(lo_rate), clamp(hi_rate)]
    }

    /// The checkpointable state.
    pub(crate) fn state(&self) -> &CalibrationState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(lower: f64, expected: f64, upper: f64) -> PointEstimate {
        PointEstimate {
            expected,
            lower,
            upper,
        }
    }

    #[test]
    fn identity_until_min_samples() {
        let mut c = Calibrator::new(0.9, 1);
        for _ in 0..MIN_SAMPLES - 1 {
            c.observe_raw(0, 5.0, &est(0.0, 5.0, 10.0));
        }
        assert_eq!(c.scale(0, false), 1.0);
        let e = est(1.0, 2.0, 3.0);
        let out = Calibrator::apply(&e, 1.0);
        assert_eq!(e, out, "scale 1.0 must be bitwise identity");
    }

    #[test]
    fn persistent_misses_widen_then_cover() {
        let mut c = Calibrator::new(0.9, 1);
        // Raw interval [4, 6], truth at 8: one full halfwidth outside.
        for _ in 0..32 {
            let inside = c.observe_raw(0, 8.0, &est(4.0, 5.0, 6.0));
            assert!(!inside);
        }
        let s = c.scale(0, false);
        assert!(s > 2.9, "r = 3 everywhere should push scale to the clamp");
        let widened = Calibrator::apply(&est(4.0, 5.0, 6.0), s);
        assert!(
            widened.lower <= 8.0 - (8.0 - 5.0) * 0.0 && widened.upper >= 8.0 || s == 3.0,
            "widened interval should chase the truth (or hit the clamp)"
        );
        assert!(widened.upper > 6.0 && widened.lower < 4.0);
    }

    #[test]
    fn modulation_boosts_missed_tail_only() {
        let mut c = Calibrator::new(0.9, 1);
        for _ in 0..20 {
            // Always above the upper limit.
            c.observe_raw(0, 9.0, &est(4.0, 5.0, 6.0));
        }
        let m = c.gradient_modulation();
        assert_eq!(m[0], 1.0, "median never modulated");
        assert!(m[1] < 1.0, "unmissed lower tail is damped");
        assert_eq!(m[2], 2.0, "missed upper tail clamps at max");
    }

    #[test]
    fn no_observations_is_exact_unit_modulation() {
        let c = Calibrator::new(0.9, 2);
        assert_eq!(c.gradient_modulation(), [1.0; 3]);
    }

    #[test]
    fn restore_rejects_overfull_ring() {
        let mut state = Calibrator::new(0.9, 1).state.clone();
        state.scores[0] = vec![0.0; WINDOW + 1];
        assert!(Calibrator::restore(0.9, state, 1).is_err());
    }
}
