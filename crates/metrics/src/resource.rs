//! The resource types DeepRest estimates.

use serde::{Deserialize, Serialize};

/// A resource type tracked per component.
///
/// The paper's prototype "considers CPU and memory utilization in all
/// components, and also write IOps, write throughput, and disk usage in
/// stateful components" (§5.1), giving 76 resources over 29 components for
/// the social network and 54 over 18 for the hotel reservation app.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU utilization, percent of the component's allocation.
    Cpu,
    /// Memory usage, MiB.
    Memory,
    /// Write operations per second (stateful components only).
    WriteIops,
    /// Write throughput, KiB per second (stateful components only).
    WriteThroughput,
    /// Cumulative disk usage, MiB (stateful components only).
    DiskUsage,
}

impl ResourceKind {
    /// All resource kinds, in display order (matches the rows of Fig. 12).
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::WriteIops,
        ResourceKind::WriteThroughput,
        ResourceKind::DiskUsage,
    ];

    /// The kinds tracked for every component.
    pub(crate) const STATELESS: [ResourceKind; 2] = [ResourceKind::Cpu, ResourceKind::Memory];

    /// Returns `true` when this resource only exists on stateful components
    /// (marked black in Fig. 12 for stateless ones).
    pub fn stateful_only(self) -> bool {
        matches!(
            self,
            ResourceKind::WriteIops | ResourceKind::WriteThroughput | ResourceKind::DiskUsage
        )
    }

    /// Returns `true` when the series is cumulative (monotone
    /// non-decreasing), like disk usage.
    pub fn cumulative(self) -> bool {
        matches!(self, ResourceKind::DiskUsage)
    }

    /// Short lowercase label used in reports and file names.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::WriteIops => "write_iops",
            ResourceKind::WriteThroughput => "write_throughput",
            ResourceKind::DiskUsage => "disk_usage",
        }
    }

    /// Unit string for display.
    pub fn unit(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "%",
            ResourceKind::Memory => "MiB",
            ResourceKind::WriteIops => "ops/s",
            ResourceKind::WriteThroughput => "KiB/s",
            ResourceKind::DiskUsage => "MiB",
        }
    }

    /// The kinds tracked for a component with the given statefulness.
    pub fn for_component(stateful: bool) -> &'static [ResourceKind] {
        if stateful {
            &Self::ALL
        } else {
            &Self::STATELESS
        }
    }
}

/// The increment of a cumulative resource's `value` over the last value
/// seen, which `last` then becomes: the online form of [`increments`].
/// Disk usage only grows, so its experts learn and are scored on
/// per-window increments. A drop (a counter reset) counts as 0, and so does
/// the first window (`last` is `None`).
pub fn increment(last: &mut Option<f64>, value: f64) -> f64 {
    let prev = last.replace(value).unwrap_or(value);
    (value - prev).max(0.0)
}

/// The per-window increments of a cumulative series: [`increment`] stepped
/// over `values` from a first window with no predecessor.
pub fn increments(values: &[f64]) -> Vec<f64> {
    let mut last = None;
    values.iter().map(|&v| increment(&mut last, v)).collect()
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateful_only_classification() {
        assert!(!ResourceKind::Cpu.stateful_only());
        assert!(!ResourceKind::Memory.stateful_only());
        assert!(ResourceKind::WriteIops.stateful_only());
        assert!(ResourceKind::WriteThroughput.stateful_only());
        assert!(ResourceKind::DiskUsage.stateful_only());
    }

    #[test]
    fn for_component_matches_paper_counts() {
        // Social network: 23 stateless + 6 stateful = 23*2 + 6*5 = 76.
        let total = 23 * ResourceKind::for_component(false).len()
            + 6 * ResourceKind::for_component(true).len();
        assert_eq!(total, 76);
        // Hotel reservation: 12 stateless + 6 stateful = 54.
        let total = 12 * ResourceKind::for_component(false).len()
            + 6 * ResourceKind::for_component(true).len();
        assert_eq!(total, 54);
    }

    #[test]
    fn only_disk_usage_is_cumulative() {
        for kind in ResourceKind::ALL {
            assert_eq!(kind.cumulative(), kind == ResourceKind::DiskUsage);
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Pins the rule the estimator, the batch and online sanity checks, the
    /// adapter and the serving CLI each wrote out before: window `t`'s
    /// increment is `max(v[t] - v[t - 1], 0)`, and window 0's is
    /// `max(v[0] - v[0], 0)`. `f64::max` may return either zero for a
    /// `-0.0` difference, so the reference applies the same operations in
    /// their indexed form rather than expecting literal bits.
    #[test]
    fn increments_follow_the_indexed_rule_bit_for_bit() {
        let indexed = |values: &[f64]| -> Vec<f64> {
            let diff = |t: usize| values[t] - values[t.saturating_sub(1)];
            (0..values.len()).map(|t| f64::max(diff(t), 0.0)).collect()
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let cases: [&[f64]; 9] = [
            &[],
            &[7.5],
            &[-3.0],
            &[1.0, 4.0, 2.5, 2.5, 9.0],
            &[10.0, 12.0, 0.0, 1.0],
            &[0.0, -0.0, 0.0, -0.0, -0.0],
            &[-0.0, 1.0, nan, 2.0, nan, nan],
            &[nan, 3.0, 5.0],
            &[inf, inf, -inf, 1.0, -inf, inf, 2.0],
        ];
        for values in cases {
            let series = increments(values);
            assert_eq!(bits(&series), bits(&indexed(values)), "{values:?}");
            let mut last = None;
            let stepped: Vec<f64> = values.iter().map(|&v| increment(&mut last, v)).collect();
            assert_eq!(bits(&stepped), bits(&series), "{values:?}");
            assert_eq!(last.map(f64::to_bits), values.last().map(|v| v.to_bits()));
        }
        // A counter reset counts as no growth; the first window has none.
        assert_eq!(increments(&[10.0, 12.0, 0.0, 1.0]), [0.0, 2.0, 0.0, 1.0]);
        assert_eq!(increments(&[f64::NAN, 3.0, 5.0]), [0.0, 0.0, 2.0]);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            ResourceKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ResourceKind::ALL.len());
    }
}
