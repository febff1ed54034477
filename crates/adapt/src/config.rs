//! Adaptive-pipeline configuration.

use deeprest_serve::ServeConfig;

use crate::coverage::DriftConfig;

/// Configuration of the online continual-learning pipeline: the serving
/// half (windowing, sanity, step retries) plus the adaptation half
/// (cadence, replay sampling, drift threshold).
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Serving configuration (windowing, sanity thresholds, step retries)
    /// of the shared `deeprest-serve` stages.
    pub serve: ServeConfig,
    /// Master switch. `false` freezes the model: no updates, no interval
    /// calibration, no drift tracking — the pipeline reproduces the
    /// frozen model's serving outputs bit for bit.
    pub enabled: bool,
    /// Calm-state cadence: run one update every this many sealed
    /// segments. While any expert's drift detector is in the watch state
    /// the effective cadence halves (never below every segment).
    pub update_every: usize,
    /// Seed of the deterministic replay-sampling schedule.
    pub sample_seed: u64,
    /// Drift-detector threshold.
    pub drift: DriftConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            enabled: true,
            update_every: 2,
            sample_seed: 0x5eed_ad47,
            drift: DriftConfig::default(),
        }
    }
}

impl AdaptConfig {
    /// The effective segments-per-update cadence given the current drift
    /// state: halved (floor 1) while any expert is under watch.
    pub(crate) fn effective_update_every(&self, any_watching: bool) -> u64 {
        let base = self.update_every.max(1) as u64;
        if any_watching {
            (base / 2).max(1)
        } else {
            base
        }
    }

    /// Disables adaptation (frozen-model serving).
    #[must_use]
    pub fn frozen(mut self) -> Self {
        self.enabled = false;
        self
    }
}
