//! Structured sanity alerts and pluggable delivery sinks.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use deeprest_metrics::ResourceKind;
use serde::{Deserialize, Serialize};

/// An alert could not be delivered to a sink.
///
/// Delivery failures are *degradation*, not pipeline failure: the
/// pipeline retries with capped exponential backoff inside a time budget
/// (see `ServeConfig`), then counts the loss on `serve.sink.dropped` and
/// keeps serving — estimates and scores are unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkError {
    /// What went wrong (I/O error text, injected-fault marker, ...).
    pub message: String,
}

impl SinkError {
    /// Creates a sink error from any message.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "alert delivery failed: {}", self.message)
    }
}

impl std::error::Error for SinkError {}

/// One live sanity alert: a resource whose observed consumption fell
/// outside the model's δ-confidence interval for long enough to count as
/// an anomaly (the streaming counterpart of one
/// [`deeprest_core::sanity::AnomalousEvent`] finding, emitted while the
/// event is still in progress).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Component whose resource is anomalous.
    pub component: String,
    /// The anomalous resource.
    pub resource: ResourceKind,
    /// Window index the alert fired in.
    pub window: usize,
    /// Smoothed anomaly score at that window (squared normalized interval
    /// deviation, trailing-mean smoothed).
    pub score: f64,
    /// Percent deviation of the observed value from the expected value in
    /// this window (positive: higher than expected).
    pub deviation_pct: f64,
    /// API endpoints the model's learned mask attributes this resource to —
    /// the "which user activity should have justified this" hint.
    pub contributing_apis: Vec<String>,
}

impl std::fmt::Display for Alert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = if self.deviation_pct >= 0.0 {
            "higher"
        } else {
            "lower"
        };
        write!(
            f,
            "window {}: {} {} score {:.4} ({:.1}% {} than expected; APIs: {})",
            self.window,
            self.component,
            self.resource,
            self.score,
            self.deviation_pct.abs(),
            dir,
            if self.contributing_apis.is_empty() {
                "none".to_owned()
            } else {
                self.contributing_apis.join(", ")
            }
        )
    }
}

/// Where the pipeline delivers alerts. Implementations must tolerate being
/// called once per anomalous `(window, resource)` — events spanning many
/// windows fire one alert per window while they last. A returned
/// [`SinkError`] asks the pipeline to retry (with backoff, inside its
/// delivery budget); implementations should not retry internally.
pub trait AlertSink {
    /// Delivers one alert.
    ///
    /// # Errors
    ///
    /// Returns a [`SinkError`] when this delivery attempt failed and the
    /// pipeline may retry it.
    fn emit(&mut self, alert: &Alert) -> Result<(), SinkError>;
}

/// Collects alerts in memory behind a shared handle — keep a clone to
/// inspect what the pipeline emitted (tests, dashboards).
#[derive(Clone, Default)]
pub struct CollectSink {
    alerts: Arc<Mutex<Vec<Alert>>>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the alert buffer, recovering from a poisoned lock (pushing a
    /// clone never leaves the Vec inconsistent, so the contents survive a
    /// panicking holder).
    fn lock(&self) -> MutexGuard<'_, Vec<Alert>> {
        self.alerts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of every alert emitted so far.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.lock().clone()
    }

    /// Removes and returns every alert emitted so far.
    pub fn take(&self) -> Vec<Alert> {
        std::mem::take(&mut *self.lock())
    }
}

impl AlertSink for CollectSink {
    fn emit(&mut self, alert: &Alert) -> Result<(), SinkError> {
        self.lock().push(alert.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Alert {
        Alert {
            component: "PostStorageMongoDB".into(),
            resource: ResourceKind::Cpu,
            window: 7,
            score: 0.042,
            deviation_pct: 63.0,
            contributing_apis: vec!["/composePost".into()],
        }
    }

    #[test]
    fn display_is_readable() {
        let s = sample().to_string();
        assert!(s.contains("window 7"), "{s}");
        assert!(s.contains("PostStorageMongoDB"), "{s}");
        assert!(s.contains("/composePost"), "{s}");
        assert!(s.contains("higher"), "{s}");
    }

    #[test]
    fn collect_sink_accumulates() {
        let sink = CollectSink::new();
        let mut handle = sink.clone();
        handle.emit(&sample()).unwrap();
        handle.emit(&sample()).unwrap();
        assert_eq!(sink.lock().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.lock().is_empty());
    }

    #[test]
    fn collect_sink_survives_poisoned_lock() {
        let sink = CollectSink::new();
        sink.clone().emit(&sample()).unwrap();
        let arm = sink.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = arm.alerts.lock().unwrap();
            panic!("injected poison");
        });
        assert!(poisoner.join().is_err());
        assert!(sink.alerts.is_poisoned());
        assert_eq!(sink.lock().len(), 1, "contents survive the poisoned lock");
        sink.clone().emit(&sample()).unwrap();
        assert_eq!(sink.take().len(), 2);
    }
}
