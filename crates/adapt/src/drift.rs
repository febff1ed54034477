//! Per-expert distribution-drift detection on interval coverage.
//!
//! A well-calibrated δ-interval contains the observation with probability
//! δ, so the *miss* indicator has mean `1 − δ`. Under drift the model's
//! intervals go stale and the miss rate rises. Each expert runs a one-sided
//! CUSUM on the centered miss excess:
//!
//! ```text
//! s ← max(0, s + miss − (1 − δ) − SLACK)
//! ```
//!
//! `s` stays near zero while coverage is nominal (the `SLACK` absorbs
//! sampling noise) and ramps linearly once the miss rate exceeds
//! `1 − δ + SLACK`. Crossing `watch` puts the expert in the **watch**
//! state — the adaptive pipeline widens its intervals and escalates the
//! update cadence — and decaying back below `CLEAR` releases it. This is
//! the early-warning tier: it reacts to a run of interval misses windows
//! before the deviation is large enough for `OnlineSanity` to alert.

use serde::{Deserialize, Serialize};

/// Tolerated miss-rate excess over the nominal `1 − δ` before the
/// statistic accumulates (absorbs sampling noise).
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

/// Serializable drift-detector state, per expert.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftState {
    /// CUSUM statistic per expert.
    pub cusum: Vec<f64>,
    /// Watch flag per expert.
    pub watching: Vec<bool>,
    /// Windows observed per expert.
    pub observed: Vec<u64>,
    /// Interval misses per expert.
    pub misses: Vec<u64>,
}

/// Running interval-coverage CUSUM over every expert.
#[derive(Clone, Debug)]
pub(crate) struct DriftDetector {
    nominal: f64,
    cfg: DriftConfig,
    state: DriftState,
}

impl DriftDetector {
    /// A calm detector for `experts` experts at nominal coverage
    /// `nominal` (the model's δ).
    ///
    /// # Panics
    ///
    /// Panics unless `nominal` is in `(0, 1)`.
    pub(crate) fn new(nominal: f64, cfg: DriftConfig, experts: usize) -> Self {
        assert!(
            nominal > 0.0 && nominal < 1.0,
            "DriftDetector: nominal coverage must be in (0, 1), got {nominal}"
        );
        Self {
            nominal,
            cfg,
            state: DriftState {
                cusum: vec![0.0; experts],
                watching: vec![false; experts],
                observed: vec![0; experts],
                misses: vec![0; experts],
            },
        }
    }

    /// Rebuilds a detector from checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state's expert count disagrees.
    pub(crate) fn restore(
        nominal: f64,
        cfg: DriftConfig,
        state: DriftState,
        experts: usize,
    ) -> Result<Self, String> {
        if state.cusum.len() != experts
            || state.watching.len() != experts
            || state.observed.len() != experts
            || state.misses.len() != experts
        {
            return Err(format!(
                "drift state covers {} experts, model has {experts}",
                state.cusum.len()
            ));
        }
        let mut d = Self::new(nominal, cfg, experts);
        d.state = state;
        Ok(d)
    }

    /// Feeds one window's coverage outcome for expert `e` (`covered` =
    /// the observation fell inside the *raw, uncalibrated* interval) and
    /// returns whether the expert is in the watch state afterwards.
    pub(crate) fn observe(&mut self, e: usize, covered: bool) -> bool {
        let miss = if covered { 0.0 } else { 1.0 };
        self.state.observed[e] += 1;
        if !covered {
            self.state.misses[e] += 1;
        }
        let drift = miss - (1.0 - self.nominal) - SLACK;
        let s = (self.state.cusum[e] + drift).max(0.0);
        self.state.cusum[e] = s;
        let was = self.state.watching[e];
        if !was && s >= self.cfg.watch {
            self.state.watching[e] = true;
        } else if was && s <= CLEAR {
            self.state.watching[e] = false;
        }
        self.state.watching[e]
    }

    /// Whether expert `e` is currently in the watch state.
    pub(crate) fn watching(&self, e: usize) -> bool {
        self.state.watching[e]
    }

    /// Whether any expert is in the watch state.
    pub(crate) fn any_watching(&self) -> bool {
        self.state.watching.iter().any(|&w| w)
    }

    /// The checkpointable state.
    pub(crate) fn state(&self) -> &DriftState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_under_nominal_coverage() {
        let mut d = DriftDetector::new(0.9, DriftConfig::default(), 1);
        // 1-in-10 misses is exactly nominal for δ=0.9; slack keeps s at 0.
        for i in 0..100 {
            d.observe(0, i % 10 != 0);
        }
        assert!(!d.watching(0));
        assert!(d.state().cusum[0] < 0.5);
        assert_eq!((d.state.observed[0], d.state.misses[0]), (100, 10));
    }

    #[test]
    fn run_of_misses_trips_watch_then_clears() {
        let mut d = DriftDetector::new(0.9, DriftConfig::default(), 1);
        let mut tripped = None;
        for i in 0..10 {
            if d.observe(0, false) && tripped.is_none() {
                tripped = Some(i);
            }
        }
        let tripped = tripped.expect("a run of misses must enter watch");
        // watch=2.0, each miss adds δ−slack=0.85 → third miss trips.
        assert_eq!(tripped, 2);
        // Each covered window decays the statistic by (1−δ)+slack = 0.15;
        // from 8.5 it takes ~54 covered windows to fall below clear=0.5.
        for _ in 0..60 {
            d.observe(0, true);
        }
        assert!(!d.watching(0), "covered windows decay the statistic");
    }

    #[test]
    fn restore_rejects_wrong_expert_count() {
        let d = DriftDetector::new(0.9, DriftConfig::default(), 2);
        let err = DriftDetector::restore(0.9, DriftConfig::default(), d.state().clone(), 3);
        assert!(err.is_err());
    }
}
