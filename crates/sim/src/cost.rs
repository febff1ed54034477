//! Per-operation resource cost models.

use serde::{Deserialize, Serialize};

/// What a cost term scales with.
///
/// An API can "exhibit different consumption based on external factors, such
/// as the content of a request" (§1); drivers tie operation costs to the
/// sampled request payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CostDriver {
    /// Fixed cost per invocation.
    Constant,
    /// Scales with the media payload size (per KiB).
    MediaKib,
    /// Scales with the post text length (per 100 characters).
    TextHectochars,
    /// Scales with the social fan-out (per follower touched).
    Fanout,
}

/// One additive cost contribution: `driver_value × coefficients`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct CostTerm {
    /// What this term scales with.
    pub driver: CostDriver,
    /// CPU milliseconds.
    pub cpu_ms: f64,
    /// Write operations issued to disk.
    pub write_ops: f64,
    /// Bytes written, KiB.
    pub write_kib: f64,
    /// Cache/working-set growth, MiB (decays over time).
    pub cache_mib: f64,
    /// Transient request memory, MiB.
    pub mem_mib: f64,
}

impl CostTerm {
    /// A zeroed term for the given driver.
    pub(crate) fn zero(driver: CostDriver) -> Self {
        Self {
            driver,
            cpu_ms: 0.0,
            write_ops: 0.0,
            write_kib: 0.0,
            cache_mib: 0.0,
            mem_mib: 0.0,
        }
    }
}

/// The cost model of one `(component, operation)` pair: a sum of driver-
/// scaled terms evaluated against each request's sampled payload.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OperationCost {
    terms: Vec<CostTerm>,
}

/// The totals of one operation invocation under a concrete payload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct CostSample {
    /// CPU milliseconds consumed.
    pub cpu_ms: f64,
    /// Write operations issued.
    pub write_ops: f64,
    /// KiB written.
    pub write_kib: f64,
    /// Cache growth, MiB.
    pub cache_mib: f64,
    /// Transient memory, MiB.
    pub mem_mib: f64,
}

/// Cost units per core-hour of allocated CPU. Roughly cloud-VM-shaped
/// relative pricing: a core costs about 8x a GiB of memory.
const CORE_HOUR: f64 = 0.04;

/// Cost units per GiB-hour of allocated memory (baseline + cache cap).
const MEM_GIB_HOUR: f64 = 0.005;

/// Provisioned-capacity cost of running `replicas` copies of `spec` for one
/// window of `window_secs` seconds: what a replica costs to keep running,
/// regardless of utilization. The autoscaler's cost objective charges for
/// what is *provisioned*, not what is used — over-provisioning is exactly
/// the waste DeepRest's estimates are meant to avoid.
pub fn window_cost(spec: &crate::ComponentSpec, replicas: u32, window_secs: f64) -> f64 {
    let hours = window_secs / 3600.0;
    let mem_gib = (spec.mem_baseline_mib + spec.mem_cache_max_mib) / 1024.0;
    let per_replica = spec.cores * CORE_HOUR * hours + mem_gib * MEM_GIB_HOUR * hours;
    per_replica * f64::from(replicas)
}

/// The payload attributes of one request, produced by the engine from the
/// content models.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Payload {
    /// Media size, KiB (0 when the request carries no media).
    pub media_kib: f64,
    /// Post text length, characters.
    pub text_chars: f64,
    /// Social fan-out (follower/followee count relevant to the request).
    pub fanout: f64,
}

impl OperationCost {
    /// A pure-CPU operation with fixed `cpu_ms` per invocation.
    pub fn cpu(cpu_ms: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::Constant);
        t.cpu_ms = cpu_ms;
        t.mem_mib = cpu_ms * 0.02; // Small transient footprint by default.
        Self { terms: vec![t] }
    }

    /// Builder: adds fixed write costs (`ops` write operations, `kib` bytes)
    /// per invocation.
    pub fn with_writes(mut self, ops: f64, kib: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::Constant);
        t.write_ops = ops;
        t.write_kib = kib;
        self.terms.push(t);
        self
    }

    /// Builder: adds fixed cache growth per invocation (MiB).
    pub fn with_cache(mut self, mib: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::Constant);
        t.cache_mib = mib;
        self.terms.push(t);
        self
    }

    /// Builder: adds a fully custom term.
    pub(crate) fn with_term(mut self, term: CostTerm) -> Self {
        self.terms.push(term);
        self
    }

    /// Builder: adds media-size-scaled costs (per KiB of media).
    pub(crate) fn per_media_kib(mut self, cpu_ms: f64, write_kib: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::MediaKib);
        t.cpu_ms = cpu_ms;
        t.write_kib = write_kib;
        t.write_ops = if write_kib > 0.0 { 1.0 / 64.0 } else { 0.0 }; // 64 KiB blocks.
        self.terms.push(t);
        self
    }

    /// Builder: adds text-length-scaled CPU (per 100 characters).
    pub(crate) fn per_text(mut self, cpu_ms: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::TextHectochars);
        t.cpu_ms = cpu_ms;
        self.terms.push(t);
        self
    }

    /// Builder: adds fan-out-scaled costs (per follower).
    pub(crate) fn per_fanout(mut self, cpu_ms: f64, write_ops: f64, write_kib: f64) -> Self {
        let mut t = CostTerm::zero(CostDriver::Fanout);
        t.cpu_ms = cpu_ms;
        t.write_ops = write_ops;
        t.write_kib = write_kib;
        self.terms.push(t);
        self
    }

    /// Evaluates the model against a payload.
    pub(crate) fn sample(&self, payload: &Payload) -> CostSample {
        let mut out = CostSample::default();
        for t in &self.terms {
            let scale = match t.driver {
                CostDriver::Constant => 1.0,
                CostDriver::MediaKib => payload.media_kib,
                CostDriver::TextHectochars => payload.text_chars / 100.0,
                CostDriver::Fanout => payload.fanout,
            };
            out.cpu_ms += t.cpu_ms * scale;
            out.write_ops += t.write_ops * scale;
            out.write_kib += t.write_kib * scale;
            out.cache_mib += t.cache_mib * scale;
            out.mem_mib += t.mem_mib * scale;
        }
        out
    }

    /// Returns `true` when any term can produce disk writes.
    pub(crate) fn has_writes(&self) -> bool {
        self.terms
            .iter()
            .any(|t| t.write_ops > 0.0 || t.write_kib > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_cost() {
        let c = OperationCost::cpu(2.5);
        let s = c.sample(&Payload::default());
        assert_eq!(s.cpu_ms, 2.5);
        assert_eq!(s.write_ops, 0.0);
        assert!(!c.has_writes());
    }

    #[test]
    fn writes_and_cache() {
        let c = OperationCost::cpu(1.0)
            .with_writes(2.0, 8.0)
            .with_cache(0.5);
        let s = c.sample(&Payload::default());
        assert_eq!(s.write_ops, 2.0);
        assert_eq!(s.write_kib, 8.0);
        assert_eq!(s.cache_mib, 0.5);
        assert!(c.has_writes());
    }

    #[test]
    fn media_scaling() {
        let c = OperationCost::cpu(1.0).per_media_kib(0.01, 1.0);
        let small = c.sample(&Payload {
            media_kib: 10.0,
            ..Default::default()
        });
        let large = c.sample(&Payload {
            media_kib: 1000.0,
            ..Default::default()
        });
        assert!(large.cpu_ms > small.cpu_ms);
        assert_eq!(large.write_kib, 1000.0);
        assert!((large.write_ops - 1000.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_scaling() {
        let c = OperationCost::cpu(0.2).per_fanout(0.05, 0.1, 0.2);
        let s = c.sample(&Payload {
            fanout: 40.0,
            ..Default::default()
        });
        assert!((s.cpu_ms - (0.2 + 2.0)).abs() < 1e-9);
        assert!((s.write_ops - 4.0).abs() < 1e-9);
        assert!((s.write_kib - 8.0).abs() < 1e-9);
    }

    #[test]
    fn text_scaling_uses_hectochars() {
        let c = OperationCost::cpu(0.0).per_text(1.0);
        let s = c.sample(&Payload {
            text_chars: 250.0,
            ..Default::default()
        });
        assert!((s.cpu_ms - 2.5).abs() < 1e-9);
    }
}
