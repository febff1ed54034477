//! Per-expert coverage of the quantile heads' δ-intervals: one tracker
//! behind the adaptive driver's two responses to a stale interval.
//!
//! The model emits `(expected, lower, upper)` per expert per window. Each
//! window, [`Coverage::observe`] scores the observation against the
//! **raw** (uncalibrated) interval once, as the normalized nonconformity
//!
//! ```text
//! r_t = max(lower_t − y_t, y_t − upper_t) / halfwidth_t
//! ```
//!
//! (`r ≤ 0` inside the interval, `r = 1` a full half-width outside), and
//! that one score feeds three statistics:
//!
//! * **Recalibration.** A bounded ring of scores per expert widens the
//!   *next* interval by the conformal order statistic of past scores:
//!   `scale = 1 + max(0, Q_δ(r))`, clamped to `MAX_SCALE`, applied
//!   asymmetrically around the expected value
//!
//!   ```text
//!   lower' = expected − scale · (expected − lower)
//!   upper' = expected + scale · (upper − expected)
//!   ```
//!
//!   so an empirically-δ fraction of future observations falls inside the
//!   widened interval — the split-conformal guarantee, applied causally
//!   (window `t`'s scale uses only scores from windows `< t`).
//! * **Gradient modulation.** Per-tail miss counts become the per-quantile
//!   factors of the pinball loss (the calibration-aware quantile-training
//!   trick of arXiv 2508.01635): a tail that misses more often than its
//!   nominal rate gets its gradient boosted, an over-covered tail gets it
//!   damped, steering online updates toward calibrated heads rather than
//!   just accurate medians.
//! * **Drift watch.** A well-calibrated δ-interval misses with probability
//!   `1 − δ`; under drift the miss rate rises. Each expert runs a one-sided
//!   CUSUM on the centered miss excess,
//!
//!   ```text
//!   s ← max(0, s + miss − (1 − δ) − SLACK)
//!   ```
//!
//!   which stays near zero at nominal coverage (`SLACK` absorbs sampling
//!   noise) and ramps once the miss rate exceeds `1 − δ + SLACK`. Crossing
//!   `watch` puts the expert in the **watch** state — its intervals widen
//!   by `WATCH_BOOST` and the update cadence escalates — and decaying back
//!   below `CLEAR` releases it. This is the early-warning tier: it reacts
//!   to a run of misses windows before the deviation is large enough for
//!   the sanity check to alert.
//!
//! **Bitwise-identity contract**: while the ring holds fewer than
//! `MIN_SAMPLES` scores and the expert is not watched, and whenever the
//! computed scale is exactly `1.0`, [`Coverage::apply`] returns its input
//! untouched — no arithmetic — so a freshly-started adaptive pipeline
//! reproduces the frozen model's outputs bit for bit.

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

/// Extra multiplicative widening while the expert is in the watch state
/// (the "widen first, adapt second" response).
const WATCH_BOOST: f64 = 1.25;

/// Clamp on the per-quantile gradient modulation factors.
const MAX_MODULATION: f32 = 2.0;

/// Tolerated miss-rate excess over the nominal `1 − δ` before the CUSUM
/// accumulates (absorbs sampling noise).
const SLACK: f64 = 0.05;

/// CUSUM level (below `watch`) that leaves the watch state again.
const CLEAR: f64 = 0.5;

/// Threshold of the coverage CUSUM.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// CUSUM level that enters the watch state. With each missed window
    /// contributing `≈ δ − SLACK` to the statistic, a run of roughly
    /// `watch / δ` consecutive misses trips it.
    pub watch: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self { watch: 2.0 }
    }
}

/// Serializable drift-watch state, per expert.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftState {
    /// CUSUM statistic per expert.
    pub cusum: Vec<f64>,
    /// Watch flag per expert.
    pub watching: Vec<bool>,
}

/// Serializable calibration state, per expert.
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

/// Per-expert raw-interval coverage: conformal scale, tail misses and
/// drift watch.
#[derive(Clone, Debug)]
pub(crate) struct Coverage {
    nominal: f64,
    cfg: DriftConfig,
    drift: DriftState,
    calibration: CalibrationState,
    /// Sort arena for the order statistic (capacity [`WINDOW`], reused).
    scratch: Vec<f64>,
}

impl Coverage {
    /// A calm tracker for `experts` experts at nominal coverage `nominal`
    /// (the model's δ).
    ///
    /// # Panics
    ///
    /// Panics unless `nominal ∈ (0, 1)`.
    pub(crate) fn new(nominal: f64, cfg: DriftConfig, experts: usize) -> Self {
        assert!(
            nominal > 0.0 && nominal < 1.0,
            "Coverage: nominal coverage must be in (0, 1), got {nominal}"
        );
        Self {
            nominal,
            cfg,
            drift: DriftState {
                cusum: vec![0.0; experts],
                watching: vec![false; experts],
            },
            calibration: CalibrationState {
                scores: (0..experts).map(|_| Vec::with_capacity(WINDOW)).collect(),
                cursor: vec![0; experts],
                lower_miss: vec![0; experts],
                upper_miss: vec![0; experts],
                observed: vec![0; experts],
            },
            scratch: Vec::with_capacity(WINDOW),
        }
    }

    /// Moves checkpointed state into this tracker.
    ///
    /// # Errors
    ///
    /// Returns a message, and leaves the tracker as it was, when a
    /// per-expert vector's length disagrees with the tracker's expert
    /// count, or a ring or its cursor exceeds the capacity [`WINDOW`].
    pub(crate) fn restore(
        &mut self,
        drift: DriftState,
        calibration: CalibrationState,
    ) -> Result<(), String> {
        let experts = self.drift.cusum.len();
        let c = &calibration;
        let lens = [
            drift.cusum.len(),
            drift.watching.len(),
            c.scores.len(),
            c.cursor.len(),
            c.lower_miss.len(),
            c.upper_miss.len(),
            c.observed.len(),
        ];
        if lens.iter().any(|&len| len != experts) {
            return Err(format!(
                "coverage state covers {lens:?} experts (cusum, watching, scores, cursor, \
                 lower_miss, upper_miss, observed), model has {experts}"
            ));
        }
        for (e, (ring, cursor)) in c.scores.iter().zip(&c.cursor).enumerate() {
            if ring.len() > WINDOW || *cursor >= WINDOW {
                return Err(format!(
                    "expert {e} ring holds {} scores with its cursor at {cursor}, \
                     capacity is {WINDOW}",
                    ring.len()
                ));
            }
        }
        self.drift = drift;
        self.calibration = calibration;
        Ok(())
    }

    /// The widening factor for expert `e`'s *next* interval: `1.0` until
    /// [`MIN_SAMPLES`] scores accumulated, otherwise the conformal order
    /// statistic of the ring; boosted by [`WATCH_BOOST`] while the expert
    /// is watched, clamped to `[1, MAX_SCALE]`.
    pub(crate) fn scale(&mut self, e: usize) -> f64 {
        let boost = if self.drift.watching[e] {
            WATCH_BOOST
        } else {
            1.0
        };
        let ring = &self.calibration.scores[e];
        if ring.len() < MIN_SAMPLES {
            // Identity until evidence: keeps the cold pipeline bitwise
            // equal to the frozen model.
            return boost;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(ring);
        self.scratch.sort_unstable_by(f64::total_cmp);
        // Split-conformal rank: ⌈(n+1)·δ⌉ of the sorted scores, clamped.
        let n = self.scratch.len();
        let rank = (((n + 1) as f64) * self.nominal).ceil() as usize;
        let q = self.scratch[rank.min(n) - 1];
        // `x · 1.0` is exactly `x`: an unwatched expert's bits are the
        // unboosted scale's.
        ((1.0 + q.max(0.0)) * boost).clamp(1.0, MAX_SCALE)
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
    /// (uncalibrated) interval — called *after* [`scale`](Self::scale) for
    /// the same window so the statistics stay causal: the score enters the
    /// ring, the miss counts and the CUSUM. Returns whether the expert
    /// entered the watch state on this window.
    pub(crate) fn observe(&mut self, e: usize, actual: f64, raw: &PointEstimate) -> bool {
        let halfwidth = ((raw.upper - raw.lower) * 0.5).max(f64::EPSILON);
        let r = (raw.lower - actual).max(actual - raw.upper) / halfwidth;
        let c = &mut self.calibration;
        let ring = &mut c.scores[e];
        if ring.len() < WINDOW {
            ring.push(r);
        } else {
            ring[c.cursor[e]] = r;
        }
        c.cursor[e] = (c.cursor[e] + 1) % WINDOW;
        c.observed[e] += 1;
        if actual < raw.lower {
            c.lower_miss[e] += 1;
        } else if actual > raw.upper {
            c.upper_miss[e] += 1;
        }

        let covered = actual >= raw.lower && actual <= raw.upper;
        let miss = if covered { 0.0 } else { 1.0 };
        // Two roundings, in this order: the excess first, then its sum
        // with the statistic.
        let excess = miss - (1.0 - self.nominal) - SLACK;
        let s = (self.drift.cusum[e] + excess).max(0.0);
        self.drift.cusum[e] = s;
        let watching = &mut self.drift.watching[e];
        let was = *watching;
        if !was && s >= self.cfg.watch {
            *watching = true;
        } else if was && s <= CLEAR {
            *watching = false;
        }
        *watching && !was
    }

    /// Per-expert watch flags.
    pub(crate) fn watching(&self) -> &[bool] {
        &self.drift.watching
    }

    /// The per-quantile gradient modulation `[median, lower, upper]` for
    /// the next online update (the order of
    /// `deeprest_nn::loss::quantiles_for`): each tail's factor is its
    /// empirical miss rate over the nominal tail mass `(1 − δ)/2`,
    /// clamped to `[1/MAX_MODULATION, MAX_MODULATION]`; the median is
    /// never modulated. With no observations every factor is exactly
    /// `1.0`, which the analytic backward treats as a bitwise no-op.
    pub(crate) fn gradient_modulation(&self) -> [f32; 3] {
        let c = &self.calibration;
        let total: u64 = c.observed.iter().sum();
        if total == 0 {
            return [1.0; 3];
        }
        let tail = (1.0 - self.nominal) * 0.5;
        let lo_rate = c.lower_miss.iter().sum::<u64>() as f64 / total as f64;
        let hi_rate = c.upper_miss.iter().sum::<u64>() as f64 / total as f64;
        let max = f64::from(MAX_MODULATION);
        let clamp = |rate: f64| -> f32 { ((rate / tail).clamp(1.0 / max, max)) as f32 };
        [1.0, clamp(lo_rate), clamp(hi_rate)]
    }

    /// The checkpointable state.
    pub(crate) fn state(&self) -> (DriftState, CalibrationState) {
        (self.drift.clone(), self.calibration.clone())
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

    fn tracker(experts: usize) -> Coverage {
        Coverage::new(0.9, DriftConfig::default(), experts)
    }

    /// An observation inside (`true`) or above (`false`) the interval
    /// `[4, 6]`.
    fn observe(c: &mut Coverage, covered: bool) -> bool {
        let actual = if covered { 5.0 } else { 9.0 };
        c.observe(0, actual, &est(4.0, 5.0, 6.0))
    }

    #[test]
    fn identity_until_min_samples() {
        let mut c = tracker(1);
        for _ in 0..MIN_SAMPLES - 1 {
            c.observe(0, 5.0, &est(0.0, 5.0, 10.0));
        }
        assert_eq!(c.scale(0), 1.0);
        let e = est(1.0, 2.0, 3.0);
        let out = Coverage::apply(&e, 1.0);
        assert_eq!(e, out, "scale 1.0 must be bitwise identity");
    }

    #[test]
    fn persistent_misses_widen_then_cover() {
        // A watch that never trips keeps the scale the ring's alone.
        let mut c = Coverage::new(0.9, DriftConfig { watch: f64::MAX }, 1);
        // Raw interval [4, 6], truth at 8: one full halfwidth outside.
        for _ in 0..32 {
            c.observe(0, 8.0, &est(4.0, 5.0, 6.0));
        }
        assert_eq!(c.state().1.upper_miss[0], 32);
        let s = c.scale(0);
        assert!(s > 2.9, "r = 3 everywhere should push scale to the clamp");
        let widened = Coverage::apply(&est(4.0, 5.0, 6.0), s);
        assert!(
            widened.lower <= 8.0 - (8.0 - 5.0) * 0.0 && widened.upper >= 8.0 || s == 3.0,
            "widened interval should chase the truth (or hit the clamp)"
        );
        assert!(widened.upper > 6.0 && widened.lower < 4.0);
    }

    #[test]
    fn modulation_boosts_missed_tail_only() {
        let mut c = tracker(1);
        for _ in 0..20 {
            // Always above the upper limit.
            c.observe(0, 9.0, &est(4.0, 5.0, 6.0));
        }
        let m = c.gradient_modulation();
        assert_eq!(m[0], 1.0, "median never modulated");
        assert!(m[1] < 1.0, "unmissed lower tail is damped");
        assert_eq!(m[2], 2.0, "missed upper tail clamps at max");
    }

    #[test]
    fn no_observations_is_exact_unit_modulation() {
        let c = tracker(2);
        assert_eq!(c.gradient_modulation(), [1.0; 3]);
    }

    #[test]
    fn restore_rejects_overfull_ring() {
        let mut c = tracker(1);
        let (drift, mut calibration) = c.state();
        calibration.scores[0] = vec![0.0; WINDOW + 1];
        assert!(c.restore(drift, calibration).is_err());
    }

    /// A full ring is written at its cursor, so a cursor past the ring
    /// would index out of bounds at the next window.
    #[test]
    fn restore_rejects_a_cursor_past_the_ring() {
        let mut c = tracker(1);
        let (drift, mut calibration) = c.state();
        calibration.cursor[0] = WINDOW;
        assert!(c.restore(drift, calibration).is_err());
    }

    #[test]
    fn calm_under_nominal_coverage() {
        let mut c = tracker(1);
        // 1-in-10 misses is exactly nominal for δ=0.9; slack keeps s at 0.
        for i in 0..100 {
            observe(&mut c, i % 10 != 0);
        }
        assert!(!c.watching()[0]);
        assert!(c.state().0.cusum[0] < 0.5);
    }

    #[test]
    fn run_of_misses_trips_watch_then_clears() {
        let mut c = tracker(1);
        let mut tripped = None;
        for i in 0..10 {
            if observe(&mut c, false) && tripped.is_none() {
                tripped = Some(i);
            }
        }
        let tripped = tripped.expect("a run of misses must enter watch");
        // watch=2.0, each miss adds δ−slack=0.85 → third miss trips.
        assert_eq!(tripped, 2);
        // Each covered window decays the statistic by (1−δ)+slack = 0.15;
        // from 8.5 it takes ~54 covered windows to fall below clear=0.5.
        for _ in 0..60 {
            observe(&mut c, true);
        }
        assert!(!c.watching()[0], "covered windows decay the statistic");
    }

    #[test]
    fn restore_rejects_wrong_expert_count() {
        let (drift, calibration) = tracker(2).state();
        assert!(tracker(3).restore(drift, calibration).is_err());
    }
}
