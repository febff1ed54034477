//! The telemetry registry: one time-series per `(component, resource)`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{ResourceKind, TimeSeries};

/// Key of one metric stream.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MetricKey {
    /// Component name (or its hashed opaque form when privacy mode is on).
    pub component: String,
    /// Resource type.
    pub resource: ResourceKind,
}

impl MetricKey {
    /// Creates a key.
    pub fn new(component: impl Into<String>, resource: ResourceKind) -> Self {
        Self {
            component: component.into(),
            resource,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.component, self.resource)
    }
}

/// A deterministic-iteration collection of utilization time-series, the
/// DeepRest-side stand-in for a Prometheus server's scrape database.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    series: BTreeMap<MetricKey, TimeSeries>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a series.
    pub fn insert(&mut self, key: MetricKey, series: TimeSeries) {
        self.series.insert(key, series);
    }

    /// Looks up a series.
    pub fn get(&self, key: &MetricKey) -> Option<&TimeSeries> {
        self.series.get(key)
    }

    /// Looks up a series by parts.
    pub fn get_parts(&self, component: &str, resource: ResourceKind) -> Option<&TimeSeries> {
        self.series.get(&MetricKey::new(component, resource))
    }

    /// Number of metric streams.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns `true` when no streams are registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Iterates over `(key, series)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &TimeSeries)> {
        self.series.iter()
    }

    /// All keys in deterministic order.
    pub fn keys(&self) -> impl Iterator<Item = &MetricKey> {
        self.series.keys()
    }

    /// Restricts every series to a window range, renumbering from zero.
    pub fn slice(&self, range: std::ops::Range<usize>) -> MetricsRegistry {
        MetricsRegistry {
            series: self
                .series
                .iter()
                .map(|(k, s)| (k.clone(), s.slice(range.clone())))
                .collect(),
        }
    }

    /// Length of the series (they are kept aligned); `None` when empty.
    pub fn window_count(&self) -> Option<usize> {
        self.series.values().next().map(TimeSeries::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut r = MetricsRegistry::new();
        let key = MetricKey::new("PostStorageMongoDB", ResourceKind::WriteIops);
        r.insert(key.clone(), TimeSeries::from_values(vec![1.0, 2.0]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&key).unwrap().values(), &[1.0, 2.0]);
        assert!(r
            .get_parts("PostStorageMongoDB", ResourceKind::WriteIops)
            .is_some());
        assert!(r
            .get_parts("PostStorageMongoDB", ResourceKind::Cpu)
            .is_none());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut r = MetricsRegistry::new();
        r.insert(MetricKey::new("b", ResourceKind::Cpu), TimeSeries::zeros(1));
        r.insert(MetricKey::new("a", ResourceKind::Cpu), TimeSeries::zeros(1));
        r.insert(
            MetricKey::new("a", ResourceKind::Memory),
            TimeSeries::zeros(1),
        );
        let keys: Vec<String> = r.keys().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec!["a/cpu", "a/memory", "b/cpu"]);
    }

    #[test]
    fn slice_applies_to_all_series() {
        let mut r = MetricsRegistry::new();
        r.insert(
            MetricKey::new("a", ResourceKind::Cpu),
            TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]),
        );
        let sliced = r.slice(1..3);
        assert_eq!(
            sliced.get_parts("a", ResourceKind::Cpu).unwrap().values(),
            &[2.0, 3.0]
        );
        assert_eq!(sliced.window_count(), Some(2));
    }
}
