//! Zero-cost-when-disabled telemetry for the DeepRest training and
//! inference pipeline.
//!
//! DeepRest is itself an observability system — it learns from traces and
//! metrics — yet its own hot loops (the packed per-window step, the
//! trainer's shard fan-out, optimizer steps) would otherwise be a black
//! box. This crate is the event substrate the rest of the workspace
//! instruments itself with:
//!
//! * **Events** — three shapes cover everything the pipeline emits:
//!   [`Event::Span`] (a named scope with wall-clock duration),
//!   [`Event::Counter`] (a monotonic increment) and [`Event::Gauge`]
//!   (a point-in-time measurement).
//! * **Sinks** — a pluggable [`Sink`] receives events: the implicit no-op
//!   sink (telemetry disabled, the default), [`MemorySink`] (aggregates
//!   in memory; powers invariant tests like "a warm slab step draws every
//!   buffer from the pool"), and [`JsonlSink`] (appends one JSON object per event to
//!   a file — the `telemetry.jsonl` the bench harness emits).
//! * **Selection** — a probe delivers to the sink scoped on its thread by
//!   [`with_sink`], and otherwise to the process-wide default, which comes
//!   from the `DEEPREST_TELEMETRY` environment variable on first use or
//!   from an explicit [`install`]/[`set_sink`] call (the `--telemetry` flag
//!   of the binaries routes there).
//!
//! # Scopes
//!
//! [`with_sink`] installs a sink on the *calling thread* for the duration
//! of a closure: no lock, no process-wide state, so any number of threads
//! (tests at default parallelism) each measure under their own sink while
//! unscoped threads beside them keep the process-wide default. A scope
//! covers the thread that opened it and the chunks it fans out over
//! `deeprest_tensor::pool`, which hands the publishing thread's scope to
//! its helpers with [`capture`] / [`Scope::enter`] for exactly the chunks
//! of that fan-out (nested fan-outs included). A thread spawned by hand
//! inside a scope does **not** inherit it; capture and enter explicitly.
//!
//! # Overhead budget
//!
//! Instrumentation sits on real hot paths (the scratch-buffer take, the
//! pool dispatch), so the disabled path must be nearly free: every probe
//! starts with [`enabled`], a single relaxed atomic load plus a branch
//! when nothing is installed anywhere. No clock is read, no string is
//! formatted, no thread-local is touched and no lock is taken. The
//! Criterion benches (`joint_training_epoch`, `expert_inference`) hold
//! the disabled-mode regression under 2%.
//!
//! # Spec strings
//!
//! `DEEPREST_TELEMETRY` and `--telemetry` accept the same spec:
//!
//! | spec                        | sink                                  |
//! |-----------------------------|---------------------------------------|
//! | unset, ``, `0`, `off`, `none` | disabled (no-op)                    |
//! | `memory`                    | in-memory aggregation ([`MemorySink`]) |
//! | `1`, `on`, `jsonl`          | JSONL file at `telemetry.jsonl`       |
//! | `jsonl:<path>`              | JSONL file at `<path>`                |
//!
//! # Example
//!
//! ```
//! use deeprest_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! let sink = Arc::new(telemetry::MemorySink::new());
//! telemetry::with_sink(sink.clone(), || {
//!     let _guard = telemetry::span("work");
//!     telemetry::counter("items", 3);
//!     telemetry::gauge("loss", 0.25);
//! });
//! assert_eq!(sink.counter("items"), 3);
//! assert_eq!(sink.span_count("work"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sinks;

pub use sinks::{JsonlSink, MemorySink};

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once, PoisonError, RwLock};
use std::time::Instant;

/// A telemetry event name: a dotted lowercase path such as
/// `pool.worker_busy` or `train.loss.Frontend:cpu`. Static names avoid
/// allocation; dynamic names (per-expert series) pass owned strings.
pub type Name = Cow<'static, str>;

/// One telemetry event, delivered to the installed [`Sink`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A named scope finished after `micros` microseconds of wall clock.
    Span {
        /// Scope name.
        name: Name,
        /// Elapsed wall-clock microseconds.
        micros: u64,
    },
    /// A monotonic counter advanced by `delta`.
    Counter {
        /// Counter name.
        name: Name,
        /// Increment (counters never decrease).
        delta: u64,
    },
    /// A point-in-time measurement.
    Gauge {
        /// Gauge name.
        name: Name,
        /// Observed value.
        value: f64,
    },
}

impl Event {
    /// The event's name, regardless of kind.
    pub fn name(&self) -> &str {
        match self {
            Event::Span { name, .. } | Event::Counter { name, .. } | Event::Gauge { name, .. } => {
                name
            }
        }
    }
}

/// Receives telemetry events. Implementations must be cheap and
/// thread-safe: events arrive concurrently from pool worker threads.
pub trait Sink: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: Event);
    /// Flushes any pending output to durable storage. Default: no-op.
    fn flush(&self) {}
}

/// Everything a probe needs to decide "is anyone listening" in one word:
/// [`ENV_PENDING`] | [`GLOBAL`] | [`SCOPE`] × (scopes live on any thread).
/// Zero means the environment was consulted, no process-wide sink is
/// installed and no scope is live, which is what the fast path tests for.
/// The word publishes no data (the sinks travel through `SINK`'s lock and
/// through thread-locals), so every access is `Relaxed`.
static STATE: AtomicUsize = AtomicUsize::new(ENV_PENDING);
static ENV_INIT: Once = Once::new();
/// The process-wide default sink.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

thread_local! {
    /// The sink scoped on this thread, innermost scope only: each
    /// [`Scope::enter`] keeps the one it displaced on its own stack frame.
    static SCOPED: RefCell<Option<Arc<dyn Sink>>> = const { RefCell::new(None) };
}

/// `DEEPREST_TELEMETRY` has not been consulted yet.
const ENV_PENDING: usize = 1;
/// A process-wide sink is installed.
const GLOBAL: usize = 2;
/// One live scope; the bits from here up count them.
const SCOPE: usize = 4;

/// Whether an event emitted here and now would reach a sink. This is the
/// fast path every probe takes: one relaxed atomic load and a branch when
/// nothing is installed anywhere.
#[inline]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0 && enabled_slow()
}

/// The process-wide sink (consulting the environment if that is still
/// pending), or a scope on this thread.
fn enabled_slow() -> bool {
    init_from_env()
        || (STATE.load(Ordering::Relaxed) >= SCOPE && SCOPED.with(|s| s.borrow().is_some()))
}

/// Consults `DEEPREST_TELEMETRY` once and installs the selected sink as
/// the process-wide default. Called lazily by the first probe; calling it
/// eagerly is harmless. Returns whether a process-wide sink is installed.
pub fn init_from_env() -> bool {
    ENV_INIT.call_once(|| {
        // An explicit set_sink/install may have raced ahead of the first
        // probe; never override it.
        if STATE.load(Ordering::Relaxed) & ENV_PENDING == 0 {
            return;
        }
        let spec = std::env::var("DEEPREST_TELEMETRY").unwrap_or_default();
        if let Err(err) = install(&spec) {
            eprintln!("[deeprest-telemetry] ignoring DEEPREST_TELEMETRY={spec:?}: {err}");
            set_sink(None);
        }
    });
    STATE.load(Ordering::Relaxed) & GLOBAL != 0
}

/// Installs `sink` as the process-wide default event receiver (`None`
/// removes it). Replaces any previously installed default; threads inside
/// a [`with_sink`] scope keep delivering to their scope.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    let global = if sink.is_some() { GLOBAL } else { 0 };
    *SINK.write().unwrap_or_else(PoisonError::into_inner) = sink;
    // Clearing ENV_PENDING is what makes an explicit choice stick: the
    // env-init closure refuses to override it. Must not touch ENV_INIT
    // here: set_sink runs inside its closure via install(), and a
    // re-entrant Once::call_once deadlocks.
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |state| {
        Some(state & !(ENV_PENDING | GLOBAL) | global)
    });
}

/// The sink an event emitted on this thread reaches: the thread's scope if
/// it is in one (read without a lock), the process-wide default otherwise.
pub fn current_sink() -> Option<Arc<dyn Sink>> {
    capture()
        .0
        .or_else(|| SINK.read().unwrap_or_else(PoisonError::into_inner).clone())
}

/// Parses a spec string (see the [module docs](self)) and installs the
/// matching sink.
///
/// # Errors
///
/// Returns a description of the problem on an unknown spec or an
/// unwritable JSONL path; the previous sink is left untouched.
pub fn install(spec: &str) -> Result<(), String> {
    match spec.trim() {
        "" | "0" | "off" | "none" | "false" => {
            set_sink(None);
            Ok(())
        }
        "memory" => {
            set_sink(Some(Arc::new(MemorySink::new())));
            Ok(())
        }
        "1" | "on" | "true" | "jsonl" => {
            let sink = JsonlSink::create("telemetry.jsonl").map_err(|e| e.to_string())?;
            set_sink(Some(Arc::new(sink)));
            Ok(())
        }
        other => match other.strip_prefix("jsonl:") {
            Some(path) => {
                let sink = JsonlSink::create(path).map_err(|e| e.to_string())?;
                set_sink(Some(Arc::new(sink)));
                Ok(())
            }
            None => Err(format!(
                "unknown telemetry spec {other:?} (expected off|memory|jsonl|jsonl:<path>)"
            )),
        },
    }
}

/// Runs `f` with `sink` scoped on the calling thread: every probe on this
/// thread, and in every chunk it fans out over the kernel pool, delivers to
/// `sink` until `f` returns or unwinds. Other threads are unaffected and
/// nothing is locked, so concurrently running tests using this helper
/// neither wait for nor see each other. Scopes nest; the innermost wins.
pub fn with_sink<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    Scope(Some(sink)).enter(f)
}

/// A thread's telemetry scope, detached so another thread can run part of
/// the same work inside it: [`capture`] on the thread that owns the work,
/// [`Scope::enter`] on the thread that helps. The kernel pool does this for
/// every fan-out; code that spawns its own threads inside a [`with_sink`]
/// must do the same, because a new thread starts unscoped.
pub struct Scope(Option<Arc<dyn Sink>>);

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
        let Some(sink) = &self.0 else { return f() };
        // Restores on unwind too: a pool helper outlives every scope it
        // ever entered, and must leave each one clean.
        struct Restore(Option<Arc<dyn Sink>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                STATE.fetch_sub(SCOPE, Ordering::Relaxed);
                SCOPED.with(|s| s.replace(self.0.take()));
            }
        }
        let _restore = Restore(SCOPED.with(|s| s.replace(Some(Arc::clone(sink)))));
        STATE.fetch_add(SCOPE, Ordering::Relaxed);
        f()
    }
}

/// Advances a monotonic counter.
#[inline]
pub fn counter(name: impl Into<Name>, delta: u64) {
    if enabled() {
        record(Event::Counter {
            name: name.into(),
            delta,
        });
    }
}

/// Records a point-in-time measurement.
#[inline]
pub fn gauge(name: impl Into<Name>, value: f64) {
    if enabled() {
        record(Event::Gauge {
            name: name.into(),
            value,
        });
    }
}

/// Opens a timed scope: the returned guard records an [`Event::Span`] with
/// the elapsed wall clock when dropped. When telemetry is disabled the
/// guard is inert and no clock is read.
#[inline]
pub fn span(name: impl Into<Name>) -> SpanGuard {
    SpanGuard {
        start: enabled().then(|| (name.into(), Instant::now())),
    }
}

/// Runs `f`, returning its result and the elapsed seconds, and records a
/// span event under `name` when telemetry is enabled. Unlike [`span`], the
/// clock is always read — use this where the caller needs the duration
/// itself (e.g. `TrainReport` phase timings).
pub fn timed<T>(name: impl Into<Name>, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if enabled() {
        record(Event::Span {
            name: name.into(),
            micros: elapsed.as_micros() as u64,
        });
    }
    (out, elapsed.as_secs_f64())
}

/// Flushes the installed sink.
pub fn flush() {
    if let Some(sink) = current_sink() {
        sink.flush();
    }
}

/// Guard returned by [`span`]; records the scope duration on drop.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    start: Option<(Name, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.start.take() {
            record(Event::Span {
                name,
                micros: start.elapsed().as_micros() as u64,
            });
        }
    }
}

fn record(event: Event) {
    if let Some(sink) = current_sink() {
        sink.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sink_reports_zeroes() {
        let sink = MemorySink::new();
        assert_eq!(sink.counter("never"), 0);
        assert_eq!(sink.span_count("never"), 0);
        assert!(sink.gauges("never").is_empty());
        assert_eq!(sink.event_count(), 0);
    }

    #[test]
    fn counter_gauge_span_reach_the_sink() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            counter("c", 2);
            counter("c", 3);
            gauge("g", 1.5);
            let _s = span("s");
        });
        assert_eq!(sink.counter("c"), 5);
        assert_eq!(sink.gauges("g"), vec![1.5]);
        assert_eq!(sink.span_count("s"), 1);
    }

    #[test]
    fn with_sink_restores_previous_sink() {
        let outer = Arc::new(MemorySink::new());
        with_sink(outer.clone(), || {
            let inner = Arc::new(MemorySink::new());
            with_sink(inner.clone(), || counter("x", 1));
            assert_eq!(inner.counter("x"), 1);
            counter("y", 1);
        });
        assert_eq!(outer.counter("x"), 0);
        assert_eq!(outer.counter("y"), 1);
    }

    #[test]
    fn install_rejects_unknown_specs() {
        assert!(install("quantum").is_err());
    }

    #[test]
    fn install_spec_variants() {
        // The one test here that touches the process-wide default; its
        // siblings are scoped (and shadow it) or assert nothing about it.
        install("memory").unwrap();
        assert!(enabled());
        install("off").unwrap();
        assert!(!enabled());
    }

    #[test]
    fn a_scope_belongs_to_its_thread_and_to_whoever_enters_it() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let scope = capture();
            std::thread::scope(|threads| {
                // A thread spawned by hand starts unscoped...
                threads.spawn(|| {
                    counter("unscoped", 1);
                    // ...until it enters the captured scope, for that long.
                    scope.enter(|| counter("entered", 1));
                    counter("unscoped", 1);
                });
            });
            counter("owner", 1);
        });
        assert_eq!(sink.counter("unscoped"), 0);
        assert_eq!(sink.counter("entered"), 1);
        assert_eq!(sink.counter("owner"), 1);
        assert_eq!(sink.event_count(), 2);
    }

    #[test]
    fn a_panicking_scope_leaves_the_thread_clean() {
        let sink = Arc::new(MemorySink::new());
        let caught = std::panic::catch_unwind(|| with_sink(sink.clone(), || panic!("boom")));
        assert!(caught.is_err());
        assert!(capture().0.is_none());
        counter("after", 1);
        assert_eq!(sink.event_count(), 0);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (out, secs) = timed("t", || 41 + 1);
        assert_eq!(out, 42);
        assert!(secs >= 0.0);
    }
}
