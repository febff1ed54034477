//! Deterministic fault injection for DeepRest chaos testing.
//!
//! The serving pipeline claims to survive corrupt traces, stalled sinks,
//! worker panics and poisoned numeric state. This crate is how those claims
//! are *tested*: named injection points ("probes") sit on the ingest,
//! kernel-pool, optimizer, checkpoint and alert-sink paths, and a
//! [`FaultPlan`] arms a subset of them with a seeded, deterministic
//! schedule. The `chaos_replay` integration test drives the golden replay
//! fixture under every fault in the matrix and asserts each run either
//! recovers to bit-identical output once the fault clears or terminates
//! with a typed error — never a panic, never silent divergence.
//!
//! # Scopes
//!
//! [`with_plan`] arms a plan on the *calling thread* for the duration of a
//! closure — the exact pattern `deeprest-telemetry` uses for sinks: no
//! lock, no process-wide state, so tests at default parallelism each run
//! under their own plan and an unscoped thread beside them is never
//! struck. A scope covers the thread that opened it and the chunks it fans
//! out over this crate's [`pool`], which hands the publishing thread's
//! scope to its helpers with [`capture`] / [`Scope::enter`]; the caller and
//! its helpers share one set of hit counters, fresh per `with_plan`. A
//! thread spawned by hand inside a scope does **not** inherit it. A probe
//! on an unscoped thread consults the process-wide plan ([`set_plan`],
//! `DEEPREST_FAULTS`), which is what the binaries use.
//!
//! # Overhead budget
//!
//! Probes sit on real hot paths, so the disabled path must be nearly free:
//! every probe starts with [`enabled`], a single relaxed atomic load plus a
//! branch when no plan is armed anywhere. No string is compared, no
//! thread-local is touched, no lock is taken and no hash is computed. The
//! `serving/window_step_faulty` Criterion bench pins the
//! armed-but-not-firing overhead; the disabled overhead is held under the
//! 5% regression gate of `serving/window_step`.
//!
//! # Schedules
//!
//! A `FaultSpec` arms one probe site for a *hit window*: the probe's
//! `from_hit..until_hit` invocations (per-site hit counters start at 0 when
//! the plan is armed). Within the window an optional probability `p`
//! (seeded, hash-based, deterministic for a given `(seed, site, hit)`)
//! decides each firing. With single-threaded serving the probe sequence is
//! deterministic, so a plan replays identically run after run; concurrent
//! probes still see a deterministic *set* of decisions per hit number, but
//! the assignment of hits to threads follows the scheduler.
//!
//! # Spec strings
//!
//! `DEEPREST_FAULTS` (consulted on the first probe, like
//! `DEEPREST_TELEMETRY`) and `parse_plan` accept a `;`-separated list of
//! `site=FROM..UNTIL[~PROB][@PAYLOAD]` clauses:
//!
//! | spec                          | meaning                                      |
//! |-------------------------------|----------------------------------------------|
//! | `stream.hidden=5..6`          | fire on exactly the 6th probe hit            |
//! | `serve.sink.emit=0..`         | fire on every hit                            |
//! | `pool.worker=0..~0.01`        | fire each hit with probability 1%            |
//! | `serve.ckpt.write=0..@40`     | fire on every hit with payload 40            |
//!
//! The payload is site-specific: a truncation byte offset for checkpoint
//! writes, a delay in milliseconds for sink latency, an expert index for
//! output corruption (`u64::MAX`, the default, means "all"). The
//! multi-tenant front end adds two sites: `tenant.flood` amplifies a
//! tenant's submissions 10× (payload selects the tenant index; the
//! default floods all) and `sched.stall` caps one scheduling round's
//! processing budget at the payload (0 items under the default),
//! modeling budget exhaustion — see `deeprest_serve::tenant`.
//!
//! # The worker pool
//!
//! [`pool`] is the workspace's deterministic persistent thread pool. It
//! lives here, the lowest crate that both the kernels (`deeprest-tensor`,
//! which re-exports it as `deeprest_tensor::pool`) and the Jaeger import
//! (`deeprest-trace`) depend on, and beside the scopes it hands to its
//! helpers.

// `deny` rather than `forbid`: the pool's private `engine` module carries
// the crate's one scoped `#[allow(unsafe_code)]` (handing a stack-borrowed
// job to the persistent helper threads), with a `// SAFETY:` argument
// beside each use.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, PoisonError, RwLock};

use deeprest_telemetry as telemetry;

pub mod pool;

/// Payload value meaning "applies to every index" (the default).
pub const PAYLOAD_ALL: u64 = u64::MAX;

/// One armed injection point: a probe site, a hit window, an optional
/// firing probability and a site-specific payload.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FaultSpec {
    /// Probe site this spec arms (e.g. `stream.hidden`, `pool.worker`).
    pub site: String,
    /// First probe hit (0-based) the spec fires on.
    pub from_hit: u64,
    /// First probe hit the spec no longer fires on (`u64::MAX` = forever).
    pub until_hit: u64,
    /// Firing probability within the hit window; `>= 1.0` fires always.
    pub prob: f64,
    /// Site-specific payload (truncation offset, delay ms, expert index).
    pub payload: u64,
}

/// A seeded, deterministic set of `FaultSpec`s. Build with the
/// fluent methods ([`once`](Self::once), [`always`](Self::always),
/// [`window`](Self::window), [`prob`](Self::prob)), then arm it on the
/// calling thread over a closure with [`with_plan`], or process-wide with
/// [`set_plan`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Creates an empty plan with the given probability seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    /// Arms `site` for exactly probe hit `hit`.
    #[must_use]
    pub fn once(self, site: &str, hit: u64) -> Self {
        self.window(site, hit, hit.saturating_add(1))
    }

    /// Arms `site` for every probe hit.
    #[must_use]
    pub fn always(self, site: &str) -> Self {
        self.window(site, 0, u64::MAX)
    }

    /// Arms `site` for probe hits `from..until`.
    #[must_use]
    pub fn window(mut self, site: &str, from: u64, until: u64) -> Self {
        self.specs.push(FaultSpec {
            site: site.to_owned(),
            from_hit: from,
            until_hit: until,
            prob: 1.0,
            payload: PAYLOAD_ALL,
        });
        self
    }

    /// Arms `site` on every hit with probability `p` (seeded, deterministic
    /// per `(seed, site, hit)`).
    #[must_use]
    pub fn prob(mut self, site: &str, p: f64) -> Self {
        self.specs.push(FaultSpec {
            site: site.to_owned(),
            from_hit: 0,
            until_hit: u64::MAX,
            prob: p,
            payload: PAYLOAD_ALL,
        });
        self
    }

    /// Sets the payload of the most recently added spec.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no specs yet (a builder-misuse bug, not a
    /// runtime condition).
    #[must_use]
    pub fn payload(mut self, payload: u64) -> Self {
        let last = self
            .specs
            .last_mut()
            .expect("FaultPlan::payload called before any spec was added");
        last.payload = payload;
        self
    }
}

/// Parses a `DEEPREST_FAULTS`-style spec string (see the [module
/// docs](self)) into a plan seeded with `seed`.
///
/// # Errors
///
/// Returns a description of the first malformed clause.
pub(crate) fn parse_plan(spec: &str, seed: u64) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new(seed);
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, rest) = clause
            .split_once('=')
            .ok_or_else(|| format!("fault clause {clause:?} is missing `=`"))?;
        let (rest, payload) = match rest.split_once('@') {
            Some((r, p)) => (
                r,
                p.parse::<u64>()
                    .map_err(|_| format!("bad payload in {clause:?}"))?,
            ),
            None => (rest, PAYLOAD_ALL),
        };
        let (range, prob) = match rest.split_once('~') {
            Some((r, p)) => (
                r,
                p.parse::<f64>()
                    .map_err(|_| format!("bad probability in {clause:?}"))?,
            ),
            None => (rest, 1.0),
        };
        let (from, until) = range
            .split_once("..")
            .ok_or_else(|| format!("fault clause {clause:?} is missing `..` in its hit range"))?;
        let from: u64 = if from.is_empty() {
            0
        } else {
            from.parse()
                .map_err(|_| format!("bad hit range start in {clause:?}"))?
        };
        let until: u64 = if until.is_empty() {
            u64::MAX
        } else {
            until
                .parse()
                .map_err(|_| format!("bad hit range end in {clause:?}"))?
        };
        plan.specs.push(FaultSpec {
            site: site.trim().to_owned(),
            from_hit: from,
            until_hit: until,
            prob,
            payload,
        });
    }
    Ok(plan)
}

/// An armed plan plus its per-spec hit counters.
struct Armed {
    plan: Arc<FaultPlan>,
    hits: Vec<AtomicU64>,
}

impl Armed {
    fn new(plan: Arc<FaultPlan>) -> Arc<Self> {
        let hits = plan.specs.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(Self { plan, hits })
    }
}

/// Everything a probe needs to decide "could anything fire" in one word:
/// [`ENV_PENDING`] | [`GLOBAL`] | [`SCOPE`] × (scopes live on any thread).
/// Zero means the environment was consulted, no process-wide plan is armed
/// and no scope is live, which is what the fast path tests for. The word
/// publishes no data (plans travel through `ARMED`'s lock and through
/// thread-locals), so every access is `Relaxed`.
static STATE: AtomicUsize = AtomicUsize::new(ENV_PENDING);
static ENV_INIT: Once = Once::new();
/// The process-wide plan.
static ARMED: RwLock<Option<Arc<Armed>>> = RwLock::new(None);

thread_local! {
    /// The plan armed on this thread, innermost scope only: each
    /// [`Scope::enter`] keeps the one it displaced on its own stack frame.
    static SCOPED: RefCell<Option<Arc<Armed>>> = const { RefCell::new(None) };
}

/// `DEEPREST_FAULTS` has not been consulted yet.
const ENV_PENDING: usize = 1;
/// A process-wide plan is armed.
const GLOBAL: usize = 2;
/// One live scope; the bits from here up count them.
const SCOPE: usize = 4;

/// Whether a probe on this thread could fire. This is the fast path every
/// probe takes: one relaxed atomic load and a branch when no plan is armed
/// anywhere.
#[inline]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0 && enabled_slow()
}

/// The process-wide plan (consulting the environment if that is still
/// pending), or a scope on this thread.
fn enabled_slow() -> bool {
    init_from_env()
        || (STATE.load(Ordering::Relaxed) >= SCOPE && SCOPED.with(|s| s.borrow().is_some()))
}

/// Consults `DEEPREST_FAULTS` once and arms the parsed plan process-wide.
/// Called lazily by the first probe; calling it eagerly is harmless.
/// Returns whether a process-wide plan is armed.
pub(crate) fn init_from_env() -> bool {
    ENV_INIT.call_once(|| {
        if STATE.load(Ordering::Relaxed) & ENV_PENDING == 0 {
            return;
        }
        let spec = std::env::var("DEEPREST_FAULTS").unwrap_or_default();
        if spec.trim().is_empty() {
            set_plan(None);
            return;
        }
        let seed = std::env::var("DEEPREST_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        match parse_plan(&spec, seed) {
            Ok(plan) => set_plan(Some(Arc::new(plan))),
            Err(err) => {
                eprintln!("[deeprest-fault] ignoring DEEPREST_FAULTS={spec:?}: {err}");
                set_plan(None);
            }
        }
    });
    STATE.load(Ordering::Relaxed) & GLOBAL != 0
}

/// Arms `plan` process-wide (`None` disarms), with every hit counter at
/// zero. Threads inside a [`with_plan`] scope keep their own plan.
pub fn set_plan(plan: Option<Arc<FaultPlan>>) {
    let global = if plan.is_some() { GLOBAL } else { 0 };
    *ARMED.write().unwrap_or_else(PoisonError::into_inner) = plan.map(Armed::new);
    // Clearing ENV_PENDING makes an explicit choice stick (see
    // `init_from_env`); ENV_INIT itself must stay untouched, set_plan runs
    // inside its closure.
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |state| {
        Some(state & !(ENV_PENDING | GLOBAL) | global)
    });
}

/// Runs `f` with `plan` armed on the calling thread, hit counters at zero:
/// every probe on this thread, and in every chunk it fans out over the
/// kernel pool, consults `plan` until `f` returns or unwinds. Other threads
/// are unaffected and nothing is locked, so concurrently running tests
/// using this helper neither wait for nor strike each other. Scopes nest;
/// the innermost wins.
pub fn with_plan<T>(plan: Arc<FaultPlan>, f: impl FnOnce() -> T) -> T {
    Scope(Some(Armed::new(plan))).enter(f)
}

/// A thread's armed plan, detached so another thread can run part of the
/// same work under it and advance the same hit counters: [`capture`] on the
/// thread that owns the work, [`Scope::enter`] on the thread that helps.
/// The kernel pool does this for every fan-out; code that spawns its own
/// threads inside a [`with_plan`] must do the same, because a new thread
/// starts unscoped.
pub struct Scope(Option<Arc<Armed>>);

/// The calling thread's scope (empty when it is in none). With no scope
/// live on any thread this is one relaxed load and reads no thread-local.
#[inline]
pub fn capture() -> Scope {
    if STATE.load(Ordering::Relaxed) < SCOPE {
        return Scope(None);
    }
    Scope(SCOPED.with(|s| s.borrow().clone()))
}

impl Scope {
    /// Runs `f` inside this scope on the calling thread, restoring what the
    /// thread had before when `f` returns or unwinds. Entering an empty
    /// scope runs `f` with the thread as it is.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(armed) = &self.0 else { return f() };
        // Restores on unwind too: a pool helper outlives every scope it
        // ever entered, and must leave each one clean.
        struct Restore(Option<Arc<Armed>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                STATE.fetch_sub(SCOPE, Ordering::Relaxed);
                SCOPED.with(|s| s.replace(self.0.take()));
            }
        }
        let _restore = Restore(SCOPED.with(|s| s.replace(Some(Arc::clone(armed)))));
        STATE.fetch_add(SCOPE, Ordering::Relaxed);
        f()
    }
}

/// SplitMix64: the deterministic per-hit probability hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a; only has to decorrelate sites under splitmix.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The general probe: when a spec matching `site` is armed for this hit,
/// returns its payload. Each call advances every matching spec's hit
/// counter by one. The slow path only runs when a plan is armed.
pub fn armed(site: &str) -> Option<u64> {
    if !enabled() {
        return None;
    }
    armed_slow(site)
}

/// Consults the plan armed on this thread (read without a lock), else the
/// process-wide one.
#[cold]
fn armed_slow(site: &str) -> Option<u64> {
    let state = capture()
        .0
        .or_else(|| ARMED.read().unwrap_or_else(PoisonError::into_inner).clone())?;
    let mut fired = None;
    for (i, spec) in state.plan.specs.iter().enumerate() {
        if spec.site != site {
            continue;
        }
        let hit = state.hits[i].fetch_add(1, Ordering::Relaxed);
        if hit < spec.from_hit || hit >= spec.until_hit {
            continue;
        }
        let fires = spec.prob >= 1.0 || {
            let z = splitmix64(state.plan.seed ^ site_hash(site) ^ (i as u64) << 32 ^ hit);
            (z >> 11) as f64 / ((1u64 << 53) as f64) < spec.prob
        };
        if fires && fired.is_none() {
            fired = Some(spec.payload);
        }
    }
    if fired.is_some() {
        telemetry::counter("fault.injected", 1);
        telemetry::counter(format!("fault.injected.{site}"), 1);
    }
    fired
}

/// Boolean probe: should this operation fail now?
#[inline]
pub fn fail_point(site: &str) -> bool {
    armed(site).is_some()
}

/// Panic probe: panics with a recognizable message when armed. Callers
/// that claim panic isolation (the kernel pool, the serving step) must
/// contain this panic.
#[inline]
pub fn maybe_panic(site: &str) {
    if enabled() && armed_slow(site).is_some() {
        panic!("deeprest-fault: injected panic at {site}");
    }
}

/// Latency probe: sleeps for the spec's payload in milliseconds (default
/// 10ms when the payload is [`PAYLOAD_ALL`]) when armed.
#[inline]
pub fn delay_point(site: &str) {
    if !enabled() {
        return;
    }
    if let Some(payload) = armed_slow(site) {
        let ms = if payload == PAYLOAD_ALL { 10 } else { payload };
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Truncation probe: when armed, returns the injected prefix length
/// (`min(payload, len)`); otherwise `len` unchanged.
#[inline]
pub fn truncate_point(site: &str, len: usize) -> usize {
    if !enabled() {
        return len;
    }
    match armed_slow(site) {
        Some(payload) => len.min(usize::try_from(payload).unwrap_or(len)),
        None => len,
    }
}

/// Numeric-poison probe: when armed, overwrites `values[payload]` (or all
/// entries when the payload is [`PAYLOAD_ALL`]) with `NaN`.
#[inline]
pub fn poison_f32s(site: &str, values: &mut [f32]) {
    if !enabled() {
        return;
    }
    if let Some(payload) = armed_slow(site) {
        if payload == PAYLOAD_ALL {
            values.fill(f32::NAN);
        } else if let Some(v) = values.get_mut(payload as usize) {
            *v = f32::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_never_fire() {
        // Unscoped, beside siblings that each arm a plan of their own.
        assert!(!fail_point("x"));
        assert_eq!(armed("x"), None);
        assert_eq!(truncate_point("x", 10), 10);
        let mut v = [1.0f32];
        poison_f32s("x", &mut v);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn a_scope_belongs_to_its_thread_and_shares_hits_with_whoever_enters_it() {
        let plan = Arc::new(FaultPlan::new(0).window("site", 1, 3));
        with_plan(plan, || {
            assert!(!fail_point("site"), "hit 0");
            let scope = capture();
            std::thread::scope(|threads| {
                threads.spawn(|| {
                    // A thread spawned by hand starts unscoped...
                    assert!(!fail_point("site"));
                    // ...and inside the captured scope advances the
                    // owner's hit counters, not a copy.
                    assert!(scope.enter(|| fail_point("site")), "hit 1");
                    assert!(!fail_point("site"));
                });
            });
            assert!(fail_point("site"), "hit 2");
            assert!(!fail_point("site"), "hit 3");
        });
    }

    #[test]
    fn a_panicking_scope_leaves_the_thread_clean() {
        let plan = Arc::new(FaultPlan::new(0).always("boom"));
        let caught = std::panic::catch_unwind(|| with_plan(plan, || maybe_panic("boom")));
        assert!(caught.is_err());
        assert!(capture().0.is_none());
        maybe_panic("boom");
    }

    #[test]
    fn hit_window_fires_deterministically() {
        let plan = Arc::new(FaultPlan::new(0).window("site", 2, 4));
        with_plan(plan, || {
            let fired: Vec<bool> = (0..6).map(|_| fail_point("site")).collect();
            assert_eq!(fired, [false, false, true, true, false, false]);
        });
    }

    #[test]
    fn payload_reaches_the_probe() {
        let plan = Arc::new(FaultPlan::new(0).always("t").payload(7));
        with_plan(plan, || {
            assert_eq!(armed("t"), Some(7));
            assert_eq!(truncate_point("t", 100), 7);
        });
    }

    #[test]
    fn other_sites_are_untouched() {
        let plan = Arc::new(FaultPlan::new(0).always("a"));
        with_plan(plan, || {
            assert!(fail_point("a"));
            assert!(!fail_point("b"));
        });
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed| {
            let plan = Arc::new(FaultPlan::new(seed).prob("p", 0.5));
            with_plan(plan, || {
                (0..64).map(|_| fail_point("p")).collect::<Vec<_>>()
            })
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
        assert_ne!(run(1), run(2), "different seeds diverge");
        let fires = run(3).iter().filter(|f| **f).count();
        assert!(fires > 10 && fires < 54, "p=0.5 should fire ~half: {fires}");
    }

    #[test]
    fn poison_targets_one_index_or_all() {
        let plan = Arc::new(FaultPlan::new(0).always("n").payload(1));
        with_plan(plan, || {
            let mut v = [1.0f32, 2.0, 3.0];
            poison_f32s("n", &mut v);
            assert!(v[0].is_finite() && v[1].is_nan() && v[2].is_finite());
        });
        let plan = Arc::new(FaultPlan::new(0).always("n"));
        with_plan(plan, || {
            let mut v = [1.0f32, 2.0];
            poison_f32s("n", &mut v);
            assert!(v.iter().all(|x| x.is_nan()));
        });
    }

    #[test]
    fn injected_panic_is_catchable() {
        let plan = Arc::new(FaultPlan::new(0).once("boom", 0));
        with_plan(plan, || {
            let err = std::panic::catch_unwind(|| maybe_panic("boom"))
                .expect_err("armed probe must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("injected panic at boom"), "{msg}");
            // Next hit is past the window: no panic.
            maybe_panic("boom");
        });
    }

    #[test]
    fn spec_string_round_trip() {
        let plan = parse_plan("a=2..4; b=0..~0.25; c=5..6@40; d=..", 9).expect("valid spec");
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(plan.specs[0].from_hit, 2);
        assert_eq!(plan.specs[0].until_hit, 4);
        assert_eq!(plan.specs[1].prob, 0.25);
        assert_eq!(plan.specs[2].payload, 40);
        assert_eq!(plan.specs[3].from_hit, 0);
        assert_eq!(plan.specs[3].until_hit, u64::MAX);

        assert!(parse_plan("nonsense", 0).is_err());
        assert!(parse_plan("a=1..2~zzz", 0).is_err());
        assert!(parse_plan("a=1..2@x", 0).is_err());
    }

    #[test]
    fn set_plan_resets_hit_counters() {
        let plan = Arc::new(FaultPlan::new(0).once("r", 0));
        with_plan(plan.clone(), || {
            assert!(fail_point("r"));
            assert!(!fail_point("r"));
        });
        with_plan(plan, || {
            assert!(fail_point("r"), "fresh install must reset hits");
        });
    }
}
