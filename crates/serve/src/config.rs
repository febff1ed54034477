//! Serving-pipeline configuration.

use deeprest_core::sanity::SanityConfig;

/// Configuration of the online serving pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Scrape-window length in seconds; must match the windows the model
    /// was trained on for the estimates to be meaningful.
    pub window_secs: f64,
    /// Watermark lateness bound: arrivals more than this far behind the
    /// newest observed event are counted in `serve.late_dropped`.
    pub lateness_secs: f64,
    /// Thresholds of the online δ-interval sanity check.
    pub sanity: SanityConfig,
    /// Minimum normalized mask weight for an API to be listed as
    /// contributing in an [`crate::Alert`] (see
    /// [`deeprest_core::interpret::ApiAttribution::influential`]).
    pub api_threshold: f64,
    /// How many times a failed inference step (contained panic or
    /// transient state poison) is retried from the pre-step snapshot
    /// before the window is parked and a typed error returned.
    pub step_retries: u32,
    /// How many delivery attempts each alert gets per sink (first try
    /// included) before the alert is counted dropped for that sink;
    /// values below 1 behave as 1.
    pub sink_attempts: u32,
    /// Base backoff between sink delivery attempts, in milliseconds;
    /// doubles per attempt, capped at what is left of
    /// [`ServeConfig::sink_timeout_ms`].
    pub sink_backoff_ms: u64,
    /// Total wall-clock budget for delivering one alert to one sink
    /// (attempts plus backoffs), in milliseconds. A sink that stalls past
    /// this budget loses the alert (counted), never the window.
    pub sink_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            window_secs: 30.0,
            lateness_secs: 5.0,
            sanity: SanityConfig::default(),
            api_threshold: 0.25,
            step_retries: 1,
            sink_attempts: 3,
            sink_backoff_ms: 1,
            sink_timeout_ms: 250,
        }
    }
}

impl ServeConfig {
    /// Sets the scrape-window length.
    #[must_use]
    pub fn with_window_secs(mut self, secs: f64) -> Self {
        self.window_secs = secs;
        self
    }

    /// Sets the watermark lateness bound.
    #[must_use]
    pub fn with_lateness_secs(mut self, secs: f64) -> Self {
        self.lateness_secs = secs;
        self
    }

    /// Sets the sanity-check thresholds.
    #[must_use]
    pub fn with_sanity(mut self, sanity: SanityConfig) -> Self {
        self.sanity = sanity;
        self
    }
}
