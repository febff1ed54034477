//! Overload detection, the degradation ladder, and per-tenant circuit
//! breakers.
//!
//! Under sustained overload the multi-tenant front end walks an explicit
//! ladder instead of falling over:
//!
//! 1. **Shed** ([`OverloadLevel::Shed`]) — queued arrivals of tenants
//!    *above their own shed watermark* are dropped oldest-first, lowest
//!    priority class first, every drop counted (`serve.overload.shed`).
//!    A tenant below its watermark — i.e. one the scheduler is keeping up
//!    with — is never shed, which is what keeps non-flooding tenants'
//!    outputs bit-identical to an unloaded run.
//! 2. **Freeze** ([`OverloadLevel::Frozen`]) — adaptive model updates are
//!    suspended (the registry fires its overload hook; see
//!    `AdaptivePipeline::suspend_updates`) and serving continues on the
//!    same [`WindowStages`](crate::WindowStages) with the model held
//!    still, so it stays bit-exact.
//! 3. **Circuit breaker** (per tenant, [`CircuitBreaker`]) — a tenant
//!    that stays over its admission quotas for
//!    [`BreakerConfig::trip_rounds`] consecutive rounds is quarantined:
//!    all its arrivals are rejected for a capped-exponential backoff,
//!    then a half-open probe round re-admits it; another over-quota
//!    probe doubles the backoff (capped), a clean probe closes the
//!    breaker.
//!
//! Every decision is driven by queue depths and *scheduling-round counts*,
//! never wall-clock time, so the whole ladder replays deterministically
//! and checkpoints bit-exactly.

use deeprest_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Rung of the degradation ladder (ordering: `Normal < Shed < Frozen`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OverloadLevel {
    /// No overload: full service, adaptation enabled.
    #[default]
    Normal,
    /// Rung 1: over-watermark tenants have late arrivals shed (counted).
    Shed,
    /// Rung 2: adaptation suspended, serving continues frozen.
    Frozen,
}

impl OverloadLevel {
    /// Numeric rung for the `serve.overload.level` gauge.
    pub fn rung(self) -> u8 {
        match self {
            OverloadLevel::Normal => 0,
            OverloadLevel::Shed => 1,
            OverloadLevel::Frozen => 2,
        }
    }
}

/// Per-tenant circuit-breaker tuning.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive over-quota rounds before the breaker opens; `0`
    /// disables the breaker.
    pub trip_rounds: u32,
    /// Quarantine length of the first trip, in scheduling rounds.
    pub backoff_rounds: u64,
    /// Upper bound for the exponential backoff, in scheduling rounds.
    pub backoff_cap: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_rounds: 3,
            backoff_rounds: 4,
            backoff_cap: 64,
        }
    }
}

/// Overload-controller tuning.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Aggregate queued arrivals (all tenants) at/above which the ladder
    /// enters [`OverloadLevel::Shed`]; `0` disables shedding.
    pub shed_depth: usize,
    /// Aggregate queued arrivals at/above which the ladder enters
    /// [`OverloadLevel::Frozen`]; `0` disables freezing.
    pub freeze_depth: usize,
    /// Fraction of a tenant's queue capacity above which the tenant is
    /// sheddable while the ladder is at `Shed` or higher.
    pub shed_watermark: f64,
    /// Hysteresis: a rung is left only when the aggregate depth falls to
    /// `recover_fraction × ` that rung's entry threshold, so the ladder
    /// does not flap at the boundary.
    pub recover_fraction: f64,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            shed_depth: 1024,
            freeze_depth: 4096,
            shed_watermark: 0.5,
            recover_fraction: 0.5,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Walks the degradation ladder from aggregate queue depth.
///
/// Pure state machine: one [`observe`](OverloadController::observe) call
/// per scheduling round, no clocks.
pub struct OverloadController {
    config: OverloadConfig,
    level: OverloadLevel,
}

impl OverloadController {
    /// Creates a controller at [`OverloadLevel::Normal`].
    pub fn new(config: OverloadConfig) -> Self {
        Self {
            config,
            level: OverloadLevel::Normal,
        }
    }

    /// The controller's tuning.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Current rung.
    pub fn level(&self) -> OverloadLevel {
        self.level
    }

    /// Restores a checkpointed rung.
    pub fn restore(config: OverloadConfig, level: OverloadLevel) -> Self {
        Self { config, level }
    }

    /// Re-evaluates the ladder for this round's aggregate queue `depth`
    /// and returns the (possibly new) rung. Escalation is immediate;
    /// de-escalation needs the depth to fall to
    /// [`OverloadConfig::recover_fraction`] of the rung's entry threshold.
    pub fn observe(&mut self, depth: usize) -> OverloadLevel {
        let enter = |threshold: usize| threshold > 0 && depth >= threshold;
        let recover = |threshold: usize| {
            let floor = (threshold as f64 * self.config.recover_fraction) as usize;
            depth <= floor
        };
        let next = if enter(self.config.freeze_depth) {
            OverloadLevel::Frozen
        } else if enter(self.config.shed_depth) {
            // Holding Frozen until its recovery floor, even though the
            // depth is back under freeze_depth, is the hysteresis.
            if self.level == OverloadLevel::Frozen && !recover(self.config.freeze_depth) {
                OverloadLevel::Frozen
            } else {
                OverloadLevel::Shed
            }
        } else if self.level == OverloadLevel::Frozen && !recover(self.config.freeze_depth) {
            OverloadLevel::Frozen
        } else if self.level >= OverloadLevel::Shed && !recover(self.config.shed_depth) {
            OverloadLevel::Shed
        } else {
            OverloadLevel::Normal
        };
        if next != self.level && telemetry::enabled() {
            telemetry::counter(
                match (self.level < next, next) {
                    (true, OverloadLevel::Shed) => "serve.overload.entered.shed",
                    (true, OverloadLevel::Frozen) => "serve.overload.entered.frozen",
                    (true, OverloadLevel::Normal) => "serve.overload.recovered", // unreachable
                    (false, _) => "serve.overload.recovered",
                },
                1,
            );
        }
        self.level = next;
        if telemetry::enabled() {
            telemetry::gauge("serve.overload.level", f64::from(next.rung()));
        }
        next
    }
}

/// Circuit-breaker phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerPhase {
    /// Admitting normally.
    #[default]
    Closed,
    /// Quarantined: every arrival is rejected until the backoff elapses.
    Open,
    /// Probing: arrivals re-admitted this round; the round's quota verdict
    /// decides between closing and re-opening with doubled backoff.
    HalfOpen,
}

/// Serializable breaker state, persisted per tenant in the multi-tenant
/// checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerState {
    /// Current phase.
    pub phase: BreakerPhase,
    /// Consecutive over-quota rounds observed while `Closed`.
    pub bad_rounds: u32,
    /// Current backoff, in scheduling rounds (doubles per failed probe,
    /// capped at [`BreakerConfig::backoff_cap`]).
    pub backoff: u64,
    /// Round at which an `Open` breaker transitions to `HalfOpen`.
    pub reopen_round: u64,
    /// How many times the breaker has opened.
    pub trips: u64,
}

/// Per-tenant circuit breaker driven by scheduling-round counts.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState {
                backoff: config.backoff_rounds.max(1),
                ..BreakerState::default()
            },
        }
    }

    /// Restores a checkpointed breaker.
    pub fn restore(config: BreakerConfig, state: BreakerState) -> Self {
        Self { config, state }
    }

    /// Serializable state for checkpointing.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Current phase.
    pub fn phase(&self) -> BreakerPhase {
        self.state.phase
    }

    /// Round at which an open breaker starts probing (meaningful only
    /// while [`BreakerPhase::Open`]).
    pub fn reopen_round(&self) -> u64 {
        self.state.reopen_round
    }

    /// Whether an arrival is admitted during `round`. An `Open` breaker
    /// whose backoff has elapsed flips to `HalfOpen` here (the probe).
    pub fn admits(&mut self, round: u64, tenant: &str) -> bool {
        match self.state.phase {
            BreakerPhase::Closed | BreakerPhase::HalfOpen => true,
            BreakerPhase::Open => {
                if round >= self.state.reopen_round {
                    self.state.phase = BreakerPhase::HalfOpen;
                    if telemetry::enabled() {
                        telemetry::counter("serve.tenant.breaker.half_open", 1);
                        telemetry::counter(format!("serve.tenant.{tenant}.breaker.half_open"), 1);
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    /// End-of-round bookkeeping: `over_quota` says whether the tenant hit
    /// any admission-quota rejection this round.
    pub fn note_round(&mut self, round: u64, over_quota: bool, tenant: &str) {
        if self.config.trip_rounds == 0 {
            return;
        }
        match self.state.phase {
            BreakerPhase::Closed => {
                if over_quota {
                    self.state.bad_rounds += 1;
                    if self.state.bad_rounds >= self.config.trip_rounds {
                        self.open(round, tenant);
                    }
                } else {
                    self.state.bad_rounds = 0;
                }
            }
            BreakerPhase::HalfOpen => {
                if over_quota {
                    // Failed probe: double the quarantine, capped.
                    self.state.backoff =
                        (self.state.backoff * 2).min(self.config.backoff_cap.max(1));
                    self.open(round, tenant);
                } else {
                    self.state.phase = BreakerPhase::Closed;
                    self.state.bad_rounds = 0;
                    self.state.backoff = self.config.backoff_rounds.max(1);
                    if telemetry::enabled() {
                        telemetry::counter("serve.tenant.breaker.closed", 1);
                        telemetry::counter(format!("serve.tenant.{tenant}.breaker.closed"), 1);
                    }
                }
            }
            BreakerPhase::Open => {}
        }
    }

    fn open(&mut self, round: u64, tenant: &str) {
        self.state.phase = BreakerPhase::Open;
        self.state.reopen_round = round + self.state.backoff;
        self.state.trips += 1;
        self.state.bad_rounds = 0;
        if telemetry::enabled() {
            telemetry::counter("serve.tenant.breaker.open", 1);
            telemetry::counter(format!("serve.tenant.{tenant}.breaker.open"), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_and_recovers_with_hysteresis() {
        let mut c = OverloadController::new(OverloadConfig {
            shed_depth: 10,
            freeze_depth: 20,
            recover_fraction: 0.5,
            ..OverloadConfig::default()
        });
        assert_eq!(c.observe(5), OverloadLevel::Normal);
        assert_eq!(c.observe(10), OverloadLevel::Shed);
        assert_eq!(c.observe(25), OverloadLevel::Frozen);
        // Below freeze_depth but above its recovery floor: stay frozen.
        assert_eq!(c.observe(15), OverloadLevel::Frozen);
        // At the freeze recovery floor but still >= shed_depth: shed.
        assert_eq!(c.observe(10), OverloadLevel::Shed);
        // Above the shed recovery floor: stay shedding.
        assert_eq!(c.observe(7), OverloadLevel::Shed);
        assert_eq!(c.observe(5), OverloadLevel::Normal);
    }

    #[test]
    fn zero_thresholds_disable_rungs() {
        let mut c = OverloadController::new(OverloadConfig {
            shed_depth: 0,
            freeze_depth: 0,
            ..OverloadConfig::default()
        });
        assert_eq!(c.observe(usize::MAX), OverloadLevel::Normal);
    }

    #[test]
    fn breaker_trips_after_consecutive_bad_rounds() {
        let cfg = BreakerConfig {
            trip_rounds: 3,
            backoff_rounds: 4,
            backoff_cap: 16,
        };
        let mut b = CircuitBreaker::new(cfg);
        for round in 0..2 {
            b.note_round(round, true, "t");
            assert_eq!(b.phase(), BreakerPhase::Closed);
        }
        // A clean round resets the streak.
        b.note_round(2, false, "t");
        for round in 3..5 {
            b.note_round(round, true, "t");
            assert_eq!(b.phase(), BreakerPhase::Closed);
        }
        b.note_round(5, true, "t");
        assert_eq!(b.phase(), BreakerPhase::Open);
        assert_eq!(b.reopen_round(), 9, "round 5 + backoff 4");
        assert!(!b.admits(8, "t"));
        assert!(b.admits(9, "t"), "backoff elapsed: half-open probe");
        assert_eq!(b.phase(), BreakerPhase::HalfOpen);
    }

    #[test]
    fn failed_probe_doubles_backoff_capped() {
        let cfg = BreakerConfig {
            trip_rounds: 1,
            backoff_rounds: 4,
            backoff_cap: 8,
        };
        let mut b = CircuitBreaker::new(cfg);
        b.note_round(0, true, "t");
        assert_eq!(b.reopen_round(), 4);
        assert!(b.admits(4, "t"));
        b.note_round(4, true, "t"); // failed probe: backoff 4 -> 8
        assert_eq!(b.phase(), BreakerPhase::Open);
        assert_eq!(b.reopen_round(), 12);
        assert!(b.admits(12, "t"));
        b.note_round(12, true, "t"); // failed probe: backoff capped at 8
        assert_eq!(b.reopen_round(), 20);
        assert!(b.admits(20, "t"));
        b.note_round(20, false, "t"); // clean probe closes and resets
        assert_eq!(b.phase(), BreakerPhase::Closed);
        b.note_round(21, true, "t");
        assert_eq!(b.reopen_round(), 25, "backoff reset to the initial 4");
        assert_eq!(b.state().trips, 4);
    }

    #[test]
    fn breaker_state_round_trips() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(cfg);
        for round in 0..3 {
            b.note_round(round, true, "t");
        }
        assert_eq!(b.phase(), BreakerPhase::Open);
        let restored = CircuitBreaker::restore(cfg, b.state());
        assert_eq!(restored.state(), b.state());
    }
}
