//! Anomaly injection: resource consumption with no corresponding user
//! activity.
//!
//! The paper's §5.4 launches two real attacks against its testbed —
//! ransomware encrypting the PostStorageMongoDB contents and a cryptomining
//! process stealing CPU. In the simulator, attacks are injectors that modify
//! the *metrics* a component reports during an attack interval while leaving
//! the API traffic and traces untouched. That asymmetry — utilization not
//! justified by user activity — is precisely what DeepRest's application
//! sanity check detects.

use deeprest_metrics::ResourceKind;

/// Adjusts a single metric window. Implementations must be pure functions of
/// their inputs (the engine may call them in any order).
pub trait Injector {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Returns the adjusted value of `resource` on `component` at `window`.
    fn adjust(&self, window: usize, component: &str, resource: ResourceKind, value: f64) -> f64;
}

/// A ransomware attack on a stateful component: the attacker reads, encrypts
/// and rewrites the stored data, burning CPU and write bandwidth on the
/// victim while the application's own throughput degrades slightly.
///
/// Default magnitudes mirror the paper's Fig. 19c alert: throughput ≈ +210%,
/// CPU ≈ +163%, IOps ≈ +32%, memory ≈ +22% on the victim and ≈ −21% CPU on
/// the entry component.
#[derive(Clone, Debug)]
pub struct RansomwareAttack {
    /// The attacked stateful component.
    pub victim: String,
    /// The entry component whose serving capacity degrades (optional).
    pub degraded_frontend: Option<String>,
    /// First attack window (inclusive).
    pub start_window: usize,
    /// One past the last attack window.
    pub end_window: usize,
    /// Multiplier on the victim's write throughput.
    pub throughput_factor: f64,
    /// Multiplier on the victim's CPU.
    pub cpu_factor: f64,
    /// Multiplier on the victim's write IOps.
    pub iops_factor: f64,
    /// Multiplier on the victim's memory.
    pub memory_factor: f64,
    /// Multiplier on the degraded frontend's CPU.
    pub frontend_cpu_factor: f64,
}

impl RansomwareAttack {
    /// An attack with the paper's Fig. 19c magnitudes.
    pub fn new(victim: impl Into<String>, start_window: usize, end_window: usize) -> Self {
        Self {
            victim: victim.into(),
            degraded_frontend: None,
            start_window,
            end_window,
            throughput_factor: 3.10,
            cpu_factor: 2.63,
            iops_factor: 1.32,
            memory_factor: 1.22,
            frontend_cpu_factor: 0.79,
        }
    }

    /// Builder: marks an entry component as degraded during the attack.
    pub fn with_degraded_frontend(mut self, frontend: impl Into<String>) -> Self {
        self.degraded_frontend = Some(frontend.into());
        self
    }

    fn active(&self, window: usize) -> bool {
        (self.start_window..self.end_window).contains(&window)
    }
}

impl Injector for RansomwareAttack {
    fn name(&self) -> &str {
        "ransomware"
    }

    fn adjust(&self, window: usize, component: &str, resource: ResourceKind, value: f64) -> f64 {
        if !self.active(window) {
            return value;
        }
        if component == self.victim {
            let factor = match resource {
                ResourceKind::Cpu => self.cpu_factor,
                ResourceKind::Memory => self.memory_factor,
                ResourceKind::WriteIops => self.iops_factor,
                ResourceKind::WriteThroughput => self.throughput_factor,
                ResourceKind::DiskUsage => 1.0,
            };
            return value * factor;
        }
        if Some(component) == self.degraded_frontend.as_deref() && resource == ResourceKind::Cpu {
            return value * self.frontend_cpu_factor;
        }
        value
    }
}

/// A cryptojacking attack: a mining process pinned to a component's
/// container steals a fixed amount of CPU from an attack window onward
/// (§5.4 starts mining on 07/18 and never stops).
#[derive(Clone, Debug)]
pub struct CryptojackingAttack {
    /// The component hosting the miner.
    pub victim: String,
    /// First mining window; mining continues to the end of the run.
    pub start_window: usize,
    /// CPU percentage points the miner burns.
    pub cpu_add_pct: f64,
}

impl CryptojackingAttack {
    /// A miner stealing `cpu_add_pct` CPU points from `start_window` on.
    pub fn new(victim: impl Into<String>, start_window: usize, cpu_add_pct: f64) -> Self {
        Self {
            victim: victim.into(),
            start_window,
            cpu_add_pct,
        }
    }
}

impl Injector for CryptojackingAttack {
    fn name(&self) -> &str {
        "cryptojacking"
    }

    fn adjust(&self, window: usize, component: &str, resource: ResourceKind, value: f64) -> f64 {
        if window >= self.start_window && component == self.victim && resource == ResourceKind::Cpu
        {
            value + self.cpu_add_pct
        } else {
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ransomware_hits_victim_only_during_attack() {
        let attack = RansomwareAttack::new("Store", 10, 20).with_degraded_frontend("Frontend");
        // Before the attack: untouched.
        assert_eq!(attack.adjust(9, "Store", ResourceKind::Cpu, 10.0), 10.0);
        // During: amplified on the victim.
        assert!((attack.adjust(10, "Store", ResourceKind::Cpu, 10.0) - 26.3).abs() < 1e-9);
        assert!(
            (attack.adjust(15, "Store", ResourceKind::WriteThroughput, 100.0) - 310.0).abs() < 1e-9
        );
        // Frontend degrades.
        assert!(attack.adjust(15, "Frontend", ResourceKind::Cpu, 10.0) < 10.0);
        // Other components untouched.
        assert_eq!(attack.adjust(15, "Other", ResourceKind::Cpu, 10.0), 10.0);
        // After: untouched.
        assert_eq!(attack.adjust(20, "Store", ResourceKind::Cpu, 10.0), 10.0);
        // Disk usage is not directly multiplied.
        assert_eq!(
            attack.adjust(15, "Store", ResourceKind::DiskUsage, 10.0),
            10.0
        );
    }

    #[test]
    fn cryptojacking_is_cpu_only_and_open_ended() {
        let attack = CryptojackingAttack::new("Store", 5, 30.0);
        assert_eq!(attack.adjust(4, "Store", ResourceKind::Cpu, 10.0), 10.0);
        assert_eq!(attack.adjust(5, "Store", ResourceKind::Cpu, 10.0), 40.0);
        assert_eq!(attack.adjust(1_000, "Store", ResourceKind::Cpu, 10.0), 40.0);
        assert_eq!(attack.adjust(5, "Store", ResourceKind::Memory, 10.0), 10.0);
        assert_eq!(attack.adjust(5, "Other", ResourceKind::Cpu, 10.0), 10.0);
    }
}
