//! Component (container/pod) specifications.

use serde::{Deserialize, Serialize};

/// A deployable component of a microservice application — one container or
/// pod in the paper's Kubernetes deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Component name, e.g. `PostStorageMongoDB`.
    pub name: String,
    /// Stateful components (MongoDB stores) additionally track write IOps,
    /// write throughput and disk usage.
    pub stateful: bool,
    /// CPU cores allocated to the container.
    pub cores: f64,
    /// Idle CPU overhead in percent (health checks, runtime threads).
    pub cpu_baseline_pct: f64,
    /// Resident memory of the idle process, MiB.
    pub mem_baseline_mib: f64,
    /// Maximum memory the component's cache/working set may grow to, MiB.
    pub mem_cache_max_mib: f64,
    /// Initial on-disk data size, MiB (stateful only; pre-seeded datasets).
    pub disk_initial_mib: f64,
    /// Horizontal-scaling ceiling: the autoscaler may run up to this many
    /// replicas of the component. Stateful stores default to a lower bound
    /// than stateless services (sharding a store is not a scheduler
    /// decision). A value of 0 (e.g. deserialized from a pre-autoscaling
    /// spec) is treated as 1 everywhere it is consumed.
    #[serde(default)]
    pub max_replicas: u32,
}

impl ComponentSpec {
    /// A stateless service or cache with sensible defaults.
    pub fn stateless(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stateful: false,
            cores: 1.0,
            cpu_baseline_pct: 1.5,
            mem_baseline_mib: 64.0,
            mem_cache_max_mib: 96.0,
            disk_initial_mib: 0.0,
            max_replicas: 8,
        }
    }

    /// A stateful store (MongoDB-like) with sensible defaults.
    pub fn stateful(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stateful: true,
            cores: 1.0,
            cpu_baseline_pct: 2.0,
            mem_baseline_mib: 128.0,
            mem_cache_max_mib: 256.0,
            disk_initial_mib: 512.0,
            max_replicas: 3,
        }
    }

    /// Builder: CPU cores.
    pub(crate) fn with_cores(mut self, cores: f64) -> Self {
        self.cores = cores;
        self
    }

    /// Builder: baseline and max-cache memory (MiB).
    pub fn with_memory(mut self, baseline_mib: f64, cache_max_mib: f64) -> Self {
        self.mem_baseline_mib = baseline_mib;
        self.mem_cache_max_mib = cache_max_mib;
        self
    }

    /// Builder: initial disk size (MiB).
    pub(crate) fn with_disk(mut self, initial_mib: f64) -> Self {
        self.disk_initial_mib = initial_mib;
        self
    }

    /// Builder: horizontal-scaling ceiling (clamped to at least 1).
    pub fn with_max_replicas(mut self, max: u32) -> Self {
        self.max_replicas = max.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_and_stateful_defaults() {
        let s = ComponentSpec::stateless("TextService");
        assert!(!s.stateful);
        assert_eq!(s.disk_initial_mib, 0.0);
        let m = ComponentSpec::stateful("PostStorageMongoDB");
        assert!(m.stateful);
        assert!(m.disk_initial_mib > 0.0);
        assert!(m.mem_baseline_mib > s.mem_baseline_mib);
    }

    #[test]
    fn builders_apply() {
        let c = ComponentSpec::stateless("FrontendNGINX")
            .with_cores(2.0)
            .with_memory(32.0, 48.0);
        assert_eq!(c.cores, 2.0);
        assert_eq!(c.mem_baseline_mib, 32.0);
        assert_eq!(c.mem_cache_max_mib, 48.0);
    }
}
