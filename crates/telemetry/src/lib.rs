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
//! * **Selection** — the process-wide sink comes from the
//!   `DEEPREST_TELEMETRY` environment variable on first use, or from an
//!   explicit [`install`]/[`set_sink`] call (the `--telemetry` flag of the
//!   experiment binaries and `DeepRestConfig::telemetry` route here).
//!
//! # Overhead budget
//!
//! Instrumentation sits on real hot paths (the scratch-buffer take, the
//! pool dispatch), so the disabled path must be nearly free: every probe
//! starts with [`enabled`], a single relaxed atomic load plus a branch.
//! No clock is read, no string is formatted and no lock is taken unless a
//! sink is installed. The Criterion benches (`joint_training_epoch`,
//! `expert_inference`) hold the disabled-mode regression under 2%.
//!
//! # Spec strings
//!
//! `DEEPREST_TELEMETRY`, `--telemetry` and `DeepRestConfig::telemetry` all
//! accept the same spec:
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
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError, RwLock};
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

/// Global telemetry state: 0 = uninitialized (env not yet consulted),
/// 1 = disabled, 2 = enabled (a sink is installed).
static STATE: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: Once = Once::new();
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
/// Serializes [`with_sink`] scopes so concurrently running tests cannot
/// observe each other's events.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Nesting depth of [`with_sink`] on this thread. Only the outermost
    /// scope takes [`SCOPE_LOCK`]; nested scopes ride on the already-held
    /// lock (a plain `Mutex` is not re-entrant).
    static SCOPE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

const UNINIT: u8 = 0;
const DISABLED: u8 = 1;
const ENABLED: u8 = 2;

/// Whether a sink is installed. This is the fast path every probe takes:
/// one relaxed atomic load and a branch when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        DISABLED => false,
        ENABLED => true,
        _ => init_from_env(),
    }
}

/// Consults `DEEPREST_TELEMETRY` once and installs the selected sink.
/// Called lazily by the first probe; calling it eagerly is harmless.
/// Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    ENV_INIT.call_once(|| {
        // An explicit set_sink/install may have raced ahead of the first
        // probe; never override it.
        if STATE.load(Ordering::Relaxed) != UNINIT {
            return;
        }
        let spec = std::env::var("DEEPREST_TELEMETRY").unwrap_or_default();
        if let Err(err) = install(&spec) {
            eprintln!("[deeprest-telemetry] ignoring DEEPREST_TELEMETRY={spec:?}: {err}");
            set_sink(None);
        }
    });
    STATE.load(Ordering::Relaxed) == ENABLED
}

/// Installs `sink` as the process-wide event receiver (`None` disables
/// telemetry). Replaces any previously installed sink.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    let state = if sink.is_some() { ENABLED } else { DISABLED };
    *lock_write() = sink;
    // Leaving UNINIT is what makes an explicit choice stick: the env-init
    // closure refuses to override a non-UNINIT state. Must not touch
    // ENV_INIT here — set_sink runs inside its closure via install(), and
    // a re-entrant Once::call_once deadlocks.
    STATE.store(state, Ordering::Relaxed);
}

/// The currently installed sink, if any.
pub fn current_sink() -> Option<Arc<dyn Sink>> {
    lock_read().clone()
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

/// Runs `f` with `sink` installed, restoring the previous sink afterwards.
/// Scopes are serialized process-wide, so concurrently running tests using
/// this helper cannot pollute each other's measurements.
pub fn with_sink<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    let outermost = SCOPE_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth == 0
    });
    let _guard = outermost.then(|| SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner));
    let previous = current_sink();
    set_sink(Some(sink));
    // Restore on unwind too, so one panicking test cannot leave its sink
    // installed for the rest of the process. Declared after `_guard` so it
    // runs (restore + depth decrement) before the lock releases.
    struct Restore(Option<Arc<dyn Sink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_sink(self.0.take());
            SCOPE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _restore = Restore(previous);
    f()
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
    if let Some(sink) = lock_read().as_ref() {
        sink.record(event);
    }
}

fn lock_read() -> std::sync::RwLockReadGuard<'static, Option<Arc<dyn Sink>>> {
    SINK.read().unwrap_or_else(PoisonError::into_inner)
}

fn lock_write() -> std::sync::RwLockWriteGuard<'static, Option<Arc<dyn Sink>>> {
    SINK.write().unwrap_or_else(PoisonError::into_inner)
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
        let _guard = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = current_sink();
        install("memory").unwrap();
        assert!(enabled());
        install("off").unwrap();
        assert!(!enabled());
        set_sink(previous);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (out, secs) = timed("t", || 41 + 1);
        assert_eq!(out, 42);
        assert!(secs >= 0.0);
    }
}
