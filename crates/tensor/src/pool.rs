//! A deterministic persistent thread pool for data-parallel workloads.
//!
//! Training and inference fan work out over independent items (truncated-BPTT
//! subsequences, expert shards, benchmark repeats). This module provides the
//! one primitive all of them share: [`Pool::map`], which runs a
//! pure-per-index function over `0..n` across a fixed number of threads and
//! returns the results **in index order**.
//!
//! Determinism is by construction, not by luck:
//!
//! * the index range is split into contiguous chunks with a fixed rule
//!   (`ceil(n / threads)`), so which indices share a chunk depends only on
//!   `n` and the thread count — never on scheduling;
//! * each chunk writes its own results, and the chunks are concatenated in
//!   chunk order after every chunk finished;
//! * callers that reduce (e.g. gradient accumulation) therefore see operands
//!   in exactly the same order as a serial loop, so floating-point results
//!   are bit-for-bit identical at any thread count.
//!
//! Chunk *membership* is fixed; the chunk *executor* is not. A fan-out
//! publishes one job descriptor (on the caller's stack) and the caller and
//! the pool's helper threads claim chunk indices from one atomic counter.
//! The caller always participates and returns only when every chunk has
//! finished, so a fan-out whose helpers are slow to wake degrades to serial
//! time instead of blocking, and a fan-out issued from inside a chunk (or
//! from many threads at once) cannot deadlock: every waiter waits only for
//! chunks some thread is already running. Because chunks never read state
//! belonging to the thread that runs them, results do not depend on who
//! claimed what. What a chunk does inherit is the publishing thread's
//! telemetry and fault-injection scopes (`telemetry::with_sink`,
//! `fault::with_plan`): the job descriptor carries them and a helper enters
//! them for the duration of each chunk it runs, so a scope covers exactly
//! the work its thread fans out, nested fan-outs included, and nothing else
//! a helper does before or after.
//!
//! Helpers are process-lifetime threads shared by every [`Pool`] value,
//! spawned lazily up to the largest `threads − 1` any fan-out has needed and
//! never joined (they hold no resources; process exit reaps them). An idle
//! helper spins for a few tens of microseconds — long enough to catch the
//! second fan-out of a serving step without a wake-up — and then parks on a
//! condition variable. Borrowed data (parameter stores, feature matrices)
//! can still be captured by reference with no `'static` bound: the one
//! lifetime erasure that makes this possible lives in the private `engine`
//! module, next to the argument for why it is sound.
//!
//! The global pool size comes from the `DEEPREST_THREADS` environment
//! variable when set (a positive integer; `1` forces serial execution),
//! falling back to [`std::thread::available_parallelism`].

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock, PoisonError};

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;

use engine::{fan_out, fan_out_mut, lock, ChunkPanic};

/// A worker job died instead of returning results.
///
/// Produced by [`Pool::try_map`], which contains each chunk's panic with
/// `catch_unwind` so one poisoned job fails that call, not the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolError {
    /// First index (inclusive) of the chunk whose worker panicked.
    pub lo: usize,
    /// Last index (exclusive) of the chunk whose worker panicked.
    pub hi: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool worker for indices {}..{} panicked: {}",
            self.lo, self.hi, self.message
        )
    }
}

impl std::error::Error for PoolError {}

/// Extracts the human-readable payload from a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A fixed-width view of the process's helper threads. See the
/// [module docs](self).
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool: `DEEPREST_THREADS` when set, otherwise the
    /// number of available hardware threads.
    pub fn global() -> Pool {
        *GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// A pool that splits work `threads` ways (`0` is treated as `1`).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Number of threads (the caller included) a fan-out is split across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Records one fan-out: how many chunks were published and the width
    /// they each own. Telemetry-gated so the disabled path costs a single
    /// atomic load.
    fn record_dispatch(workers: usize, chunk: usize) {
        if telemetry::enabled() {
            telemetry::counter("pool.tasks", workers as u64);
            telemetry::gauge("pool.chunk_size", chunk as f64);
        }
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. `f` must depend only on its index argument (and captured
    /// shared state); under that contract the output — including the
    /// floating-point bit patterns of any caller-side ordered reduction —
    /// is identical at every thread count.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_map(n, f) {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Panic-isolating [`Pool::map`]: each chunk runs under `catch_unwind`,
    /// so a panic in `f` (or an injected `pool.worker` fault) surfaces as a
    /// typed [`PoolError`] naming the failed chunk instead of unwinding
    /// through the caller. Every chunk has still finished before this
    /// returns; on success the results are identical to [`Pool::map`].
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-chunk) panic as a [`PoolError`].
    pub fn try_map<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return std::panic::catch_unwind(AssertUnwindSafe(|| {
                fault::maybe_panic("pool.worker");
                (0..n).map(&f).collect::<Vec<T>>()
            }))
            .map_err(|payload| PoolError {
                lo: 0,
                hi: n,
                message: panic_message(payload.as_ref()),
            });
        }
        let chunk = n.div_ceil(workers);
        collect_chunks(n, workers, chunk, |lo, hi| (lo..hi).map(&f).collect()).map_err(|failed| {
            PoolError {
                lo: failed.chunk * chunk,
                hi: ((failed.chunk + 1) * chunk).min(n),
                message: panic_message(failed.payload.as_ref()),
            }
        })
    }

    /// Like [`Pool::map`] for side-effecting jobs with no result.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.map(n, f);
    }

    /// Like [`Pool::map`], but each chunk first builds a reusable scratch
    /// state with `init` (e.g. a tape arena) and threads it through every
    /// index it owns. `f` must produce the same result for an index
    /// regardless of the state's history — reset scratch state at the top
    /// of `f` — so results stay thread-count invariant.
    pub fn map_reuse<T, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            fault::maybe_panic("pool.worker");
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let chunk = n.div_ceil(workers);
        collect_chunks(n, workers, chunk, |lo, hi| {
            let mut state = init();
            (lo..hi).map(|i| f(&mut state, i)).collect()
        })
        // Re-raise with the original payload so callers that do contain
        // panics (serve's step isolation) see the real message.
        .unwrap_or_else(|failed| std::panic::resume_unwind(failed.payload))
    }

    /// Applies `f` to every element of `items` in place, splitting the slice
    /// into contiguous chunks across the pool. Each element is visited
    /// exactly once with its global index; since elements are disjoint, the
    /// result is identical at any thread count. A warm call allocates
    /// nothing.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            fault::maybe_panic("pool.worker");
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = n.div_ceil(workers);
        Self::record_dispatch(n.div_ceil(chunk), chunk);
        let done = fan_out_mut(items, chunk, &|c, slice| {
            for (j, item) in slice.iter_mut().enumerate() {
                f(c * chunk + j, item);
            }
        });
        if let Err(failed) = done {
            // Same contract as `map_reuse`: the lowest failed chunk's own
            // payload, not a generic "a worker panicked".
            std::panic::resume_unwind(failed.payload);
        }
    }
}

fn default_threads() -> usize {
    match std::env::var("DEEPREST_THREADS") {
        Ok(v) => parse_threads(&v).unwrap_or_else(available),
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse_threads(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Runs `per_chunk(lo, hi)` once for each of `workers` fixed-width chunks of
/// `0..n` and concatenates the results in chunk order. Trailing chunks may
/// be empty when `chunk` does not divide `n`; they are still published so
/// the `pool.tasks` count and the `pool.worker` probe schedule depend only
/// on `(n, threads)`.
fn collect_chunks<T, G>(
    n: usize,
    workers: usize,
    chunk: usize,
    per_chunk: G,
) -> Result<Vec<T>, ChunkPanic>
where
    T: Send,
    G: Fn(usize, usize) -> Vec<T> + Sync,
{
    Pool::record_dispatch(workers, chunk);
    let slots: Vec<Mutex<Vec<T>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    fan_out(workers, &|c| {
        let filled = per_chunk(c * chunk, ((c + 1) * chunk).min(n));
        // Each slot is written by exactly one chunk; the lock is only what
        // makes that shareable without `unsafe`.
        *lock(&slots[c]) = filled;
    })?;
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    Ok(out)
}

/// The persistent helpers and the job hand-off: everything in this crate's
/// pool that needs `unsafe`.
#[allow(unsafe_code)]
mod engine {
    use std::any::Any;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
    use std::thread::Thread;
    use std::time::{Duration, Instant};

    use deeprest_fault as fault;
    use deeprest_telemetry as telemetry;

    /// How long an idle helper (and a caller waiting for its last chunks)
    /// polls before parking. Long enough to bridge the serial gap between
    /// the two fan-outs of a serving step, short enough that an idle
    /// process burns no measurable CPU.
    const SPIN: Duration = Duration::from_micros(50);

    /// A chunk panicked: which one, and the payload it raised.
    pub(super) struct ChunkPanic {
        pub(super) chunk: usize,
        pub(super) payload: Box<dyn Any + Send>,
    }

    /// One fan-out. Lives on the publishing caller's stack for exactly the
    /// duration of [`fan_out`].
    struct Job {
        /// The chunk body, with its borrow lifetime erased (see `fan_out`).
        body: *const (dyn Fn(usize) + Sync),
        n_chunks: usize,
        /// Next unclaimed chunk index. Claims are `Relaxed`: an index
        /// publishes no data, it only has to be unique.
        next: AtomicUsize,
        /// Chunks not yet finished. Decremented with `Release` after a
        /// chunk's side effects, read with `Acquire` by the caller before
        /// it returns, so everything a chunk wrote is visible to it.
        pending: AtomicUsize,
        /// The publishing thread, unparked by whoever finishes last.
        caller: Thread,
        /// The lowest-indexed chunk that panicked, if any.
        failed: Mutex<Option<ChunkPanic>>,
        /// The publishing thread's telemetry and fault scopes (empty, and
        /// captured without reading a thread-local, when no scope is live).
        sink: telemetry::Scope,
        plan: fault::Scope,
    }

    impl Job {
        /// Runs chunk `c` to completion. Never unwinds: the body, the
        /// fault probe and the telemetry around them are all contained.
        fn run(&self, c: usize, on_helper: bool) {
            // SAFETY: `body` points at the closure borrowed by the
            // `fan_out` call that owns this job, and that call does not
            // return while any chunk is unfinished (see `fan_out`).
            let body = unsafe { &*self.body };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // One relaxed load when telemetry is off.
                let _busy = telemetry::enabled().then(|| {
                    let who = if on_helper {
                        "pool.chunks.helper"
                    } else {
                        "pool.chunks.caller"
                    };
                    telemetry::counter(who, 1);
                    telemetry::span("pool.worker_busy")
                });
                fault::maybe_panic("pool.worker");
                body(c);
            }));
            if let Err(payload) = outcome {
                let mut first = lock(&self.failed);
                if first.as_ref().is_none_or(|p| c < p.chunk) {
                    *first = Some(ChunkPanic { chunk: c, payload });
                }
            }
        }

        /// Blocks the publishing thread until helpers have finished the
        /// chunks they claimed: polls for [`SPIN`], then parks until the
        /// last finisher unparks it.
        #[cold]
        fn wait_for_helpers(&self) {
            let deadline = Instant::now() + SPIN;
            while self.pending.load(Ordering::Acquire) != 0 {
                if Instant::now() < deadline {
                    std::hint::spin_loop();
                } else {
                    // A stale token from an earlier fan-out only costs one
                    // extra trip round this loop.
                    std::thread::park();
                }
            }
        }
    }

    /// A published job as the registry holds it.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct JobRef(*const Job);

    // SAFETY: a `JobRef` is only dereferenced while its job is published or
    // has a claimed, unfinished chunk, both of which `fan_out` outlives.
    // Every field of `Job` reached through it is `Sync`: atomics, a mutex,
    // a `Thread` handle, two scopes (`Arc`s of `Sync` data), and a pointer
    // to a `Sync` closure.
    unsafe impl Send for JobRef {}

    /// The two fields above whose `Sync` is another crate's to keep.
    const _: fn() = || {
        fn sync<T: Sync>() {}
        sync::<telemetry::Scope>();
        sync::<fault::Scope>();
    };

    struct Registry {
        /// Jobs that may still have unclaimed chunks.
        jobs: Vec<JobRef>,
        /// Helper threads spawned so far.
        helpers: usize,
        /// Helpers currently parked on `WAKE`.
        sleepers: usize,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        jobs: Vec::new(),
        helpers: 0,
        sleepers: 0,
    });
    /// Parked helpers wait here, paired with `REGISTRY`.
    static WAKE: Condvar = Condvar::new();
    /// Bumped (under the `REGISTRY` lock) on every publish. Helpers poll it
    /// lock-free to learn that a scan is worthwhile; it is a hint and
    /// publishes no data — job contents travel through the mutex — so
    /// `Relaxed` suffices.
    static EPOCH: AtomicUsize = AtomicUsize::new(0);
    /// Helpers that have entered [`helper_main`], so are past their thread
    /// start-up — which allocates (std keeps a copy of the thread's name for
    /// its stack-overflow handler) on the new thread, whenever the OS first
    /// schedules it. Bumped with `Release` as a helper's first act and read
    /// with `Acquire` by the fan-out that spawned it, so that start-up
    /// happens-before the fan-out returns.
    static STARTED: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // Nothing panics while holding the pool's locks (chunk bodies run
        // outside them), so a poisoned flag carries no broken invariant.
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Aborts if dropped during a panic: `fan_out` must not unwind while
    /// helpers can still reach its stack frame.
    struct AbortOnUnwind;

    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            if std::thread::panicking() {
                std::process::abort();
            }
        }
    }

    /// Calls `body(c)` exactly once for every `c` in `0..n_chunks`, on the
    /// calling thread and on whichever helpers pick chunks up, and returns
    /// once all of them have finished. A panicking chunk does not stop the
    /// others; the lowest-indexed panic is returned.
    pub(super) fn fan_out(
        n_chunks: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<(), ChunkPanic> {
        // SAFETY (lifetime erasure): the transmute only widens the borrow's
        // lifetime so the pointer can sit in a `static` registry. It is
        // dereferenced solely by `Job::run`, and every `run` happens-before
        // this function returns:
        //  * helpers find the job only through `REGISTRY`, claim their
        //    first chunk under its lock, and the job is removed under the
        //    same lock before the wait below — so after `unpublish` no new
        //    thread can reach it;
        //  * a helper holding a claimed chunk keeps `pending > 0` until
        //    that chunk is done, and claims its next chunk *before*
        //    completing the current one, so it never touches the job with
        //    no unfinished chunk to its name (`help`);
        //  * this function leaves only after reading `pending == 0`
        //    (`Acquire`), and cannot leave early by unwinding
        //    (`AbortOnUnwind`; `Job::run` contains every panic anyway).
        let body: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        let job = Job {
            body,
            n_chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            caller: std::thread::current(),
            failed: Mutex::new(None),
            sink: telemetry::capture(),
            plan: fault::capture(),
        };
        let bomb = AbortOnUnwind;
        publish(&job);
        let mut ran = 0;
        loop {
            let c = job.next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            job.run(c, false);
            ran += 1;
        }
        unpublish(&job);
        // `AcqRel`: release this thread's chunks like any other finisher,
        // and if that was the last decrement, acquire the helpers'.
        if job.pending.fetch_sub(ran, Ordering::AcqRel) != ran {
            job.wait_for_helpers();
        }
        // Not `drop`: a fan-out issued while the thread is already
        // unwinding (from a destructor) is a normal return, not an escape.
        std::mem::forget(bomb);
        match job
            .failed
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            None => Ok(()),
            Some(failed) => Err(failed),
        }
    }

    /// Makes `job` claimable: grows the helper set to `n_chunks − 1` if it
    /// never was that large, lists the job, wakes as many parked helpers as
    /// there are chunks for them, and returns once every helper it spawned
    /// is running.
    fn publish(job: &Job) {
        let mut reg = lock(&REGISTRY);
        let had = reg.helpers;
        while reg.helpers < job.n_chunks - 1 {
            let name = format!("deeprest-pool-{}", reg.helpers);
            // Helpers are an optimisation: if the OS refuses a thread the
            // caller simply runs more of the chunks itself.
            if std::thread::Builder::new()
                .name(name)
                .spawn(helper_main)
                .is_err()
            {
                break;
            }
            reg.helpers += 1;
        }
        let (helpers, spawned) = (reg.helpers, reg.helpers - had);
        reg.jobs.push(JobRef(job));
        EPOCH.fetch_add(1, Ordering::Relaxed);
        let wake = reg.sleepers.min(job.n_chunks - 1);
        drop(reg);
        for _ in 0..wake {
            WAKE.notify_one();
        }
        if spawned > 0 {
            // A helper the OS has not scheduled yet would run its start-up
            // during some later, warm fan-out; the growing one waits it out
            // instead, so a warm pool allocates nothing on any thread.
            while STARTED.load(Ordering::Acquire) < helpers {
                std::thread::yield_now();
            }
            telemetry::counter("pool.helpers_spawned", spawned as u64);
        }
    }

    fn unpublish(job: &Job) {
        let mut reg = lock(&REGISTRY);
        let me = JobRef(job);
        if let Some(at) = reg.jobs.iter().position(|j| *j == me) {
            reg.jobs.swap_remove(at);
        }
    }

    /// Claims one chunk of the first listed job that still has any.
    fn claim() -> Option<(JobRef, usize)> {
        let reg = lock(&REGISTRY);
        for &listed in &reg.jobs {
            // SAFETY: the job is listed and we hold the registry lock, so
            // its `fan_out` has not passed `unpublish` yet.
            let job = unsafe { &*listed.0 };
            if job.next.load(Ordering::Relaxed) < job.n_chunks {
                let c = job.next.fetch_add(1, Ordering::Relaxed);
                if c < job.n_chunks {
                    return Some((listed, c));
                }
            }
        }
        None
    }

    /// Runs chunk `c` of `job`, then keeps claiming from the same job until
    /// it has no chunks left.
    fn help(job: JobRef, mut c: usize) {
        // SAFETY: the caller claimed `c` under the registry lock and has
        // not completed it, so `pending > 0` and the job's `fan_out` is
        // still waiting. The loop below preserves that on every access.
        let job = unsafe { &*job.0 };
        let n_chunks = job.n_chunks;
        let caller = job.caller.clone();
        loop {
            // Inside the publisher's scopes: the chunk's probes, and any
            // fan-out it publishes in turn, see the sink and the plan (hit
            // counters included) the caller's own chunks see.
            job.sink.enter(|| job.plan.enter(|| job.run(c, true)));
            // Claim before completing: while `c` is unfinished the job is
            // certainly alive, and if the claim succeeds the new chunk
            // keeps it alive past the decrement.
            let next = job.next.fetch_add(1, Ordering::Relaxed);
            let last = job.pending.fetch_sub(1, Ordering::Release) == 1;
            if last {
                caller.unpark();
            }
            if next >= n_chunks {
                return;
            }
            c = next;
        }
    }

    fn helper_main() {
        STARTED.fetch_add(1, Ordering::Release);
        loop {
            // Read before scanning, so a publish during the scan is seen as
            // a change afterwards.
            let epoch = EPOCH.load(Ordering::Relaxed);
            match claim() {
                Some((job, c)) => help(job, c),
                None => wait_for_publish(epoch),
            }
        }
    }

    /// Returns once a job has been published after epoch `seen` (or on a
    /// spurious wake-up, which costs the caller one empty scan): polls for
    /// [`SPIN`], then parks on [`WAKE`].
    fn wait_for_publish(seen: usize) {
        let deadline = Instant::now() + SPIN;
        while EPOCH.load(Ordering::Relaxed) == seen {
            if Instant::now() < deadline {
                std::hint::spin_loop();
                continue;
            }
            let mut reg = lock(&REGISTRY);
            // Publishing bumps the epoch under this lock, so a job cannot
            // slip in between this check and the wait.
            if EPOCH.load(Ordering::Relaxed) == seen {
                reg.sleepers += 1;
                reg = WAKE.wait(reg).unwrap_or_else(PoisonError::into_inner);
                reg.sleepers -= 1;
            }
            return;
        }
    }

    /// A slice base pointer that chunk bodies on other threads may offset.
    struct SharedBase<T>(*mut T);

    // SAFETY: the pointer is only used by `fan_out_mut` to form disjoint
    // `&mut [T]` ranges, one per chunk; handing a `&mut T` to another
    // thread is what `T: Send` permits.
    unsafe impl<T: Send> Sync for SharedBase<T> {}

    impl<T> SharedBase<T> {
        fn get(&self) -> *mut T {
            self.0
        }
    }

    /// [`fan_out`] over the `chunk`-wide pieces of `items`: `body(c, piece)`
    /// runs exactly once for every piece, `piece` being
    /// `items[c * chunk..min((c + 1) * chunk, len)]`. The pieces are handed
    /// out by index arithmetic, so a call allocates nothing.
    pub(super) fn fan_out_mut<T: Send>(
        items: &mut [T],
        chunk: usize,
        body: &(dyn Fn(usize, &mut [T]) + Sync),
    ) -> Result<(), ChunkPanic> {
        let len = items.len();
        let base = SharedBase(items.as_mut_ptr());
        fan_out(len.div_ceil(chunk), &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            // SAFETY: `c < ceil(len / chunk)`, so `lo < hi <= len` and the
            // range lies inside `items`, which this function borrows
            // exclusively until `fan_out` has finished every chunk.
            // `fan_out` passes each `c` to exactly one invocation, and
            // ranges of distinct `c` do not overlap, so no two live
            // `&mut` alias.
            let piece = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            body(c, piece);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let pool = Pool::with_threads(4);
        let out = pool.map(103, |i| i * i);
        assert_eq!(out.len(), 103);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = Pool::with_threads(1).map(37, |i| (i as f32).sin());
        for threads in [2, 3, 8, 64] {
            let parallel = Pool::with_threads(threads).map(37, |i| (i as f32).sin());
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_ranges() {
        let pool = Pool::with_threads(8);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("auto"), None);
    }

    #[test]
    fn map_reuse_matches_map_at_any_width() {
        let expected: Vec<usize> = (0..50).map(|i| i * 3).collect();
        for threads in [1, 2, 7] {
            let out = Pool::with_threads(threads).map_reuse(50, Vec::<usize>::new, |scratch, i| {
                scratch.clear();
                scratch.extend(0..3);
                scratch.iter().sum::<usize>() * i
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_mut_updates_disjoint_elements() {
        let mut items: Vec<usize> = (0..101).collect();
        Pool::with_threads(4).for_each_mut(&mut items, |i, v| *v += i);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn for_each_mut_and_map_reuse_reraise_the_lowest_chunk_payload() {
        let boom = |i: usize| {
            if i % 4 == 3 {
                panic!("element {i} is poisoned");
            }
        };
        let pool = Pool::with_threads(4);
        let mut items = vec![0u8; 16];
        let from_mut = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |i, _| boom(i));
        }))
        .expect_err("every chunk panics");
        assert_eq!(panic_message(from_mut.as_ref()), "element 3 is poisoned");
        let from_reuse = std::panic::catch_unwind(|| pool.map_reuse(16, || (), |(), i| boom(i)))
            .expect_err("every chunk panics");
        assert_eq!(panic_message(from_reuse.as_ref()), "element 3 is poisoned");
    }

    #[test]
    fn try_map_matches_map_on_success() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.try_map(23, |i| i * 2), Ok(pool.map(23, |i| i * 2)));
        }
    }

    #[test]
    fn try_map_contains_worker_panics() {
        for threads in [1, 4] {
            let err = Pool::with_threads(threads)
                .try_map(16, |i| {
                    if i == 9 {
                        panic!("poisoned job {i}");
                    }
                    i
                })
                .expect_err("panicking job must surface as PoolError");
            assert!(err.message.contains("poisoned job 9"), "{err}");
            assert!((err.lo..err.hi).contains(&9), "{err}");
        }
    }

    #[test]
    fn try_map_contains_injected_worker_faults() {
        let plan = std::sync::Arc::new(deeprest_fault::FaultPlan::new(0).once("pool.worker", 0));
        deeprest_fault::with_plan(plan, || {
            let err = Pool::with_threads(1)
                .try_map(8, |i| i)
                .expect_err("armed pool.worker must fail the call");
            assert!(err.message.contains("injected panic"), "{err}");
            // The fault window has passed: the pool serves again.
            assert_eq!(Pool::with_threads(1).try_map(8, |i| i).unwrap().len(), 8);
        });
    }

    #[test]
    fn helpers_run_chunks_inside_the_callers_scopes() {
        use std::sync::Arc;
        let sink = Arc::new(deeprest_telemetry::MemorySink::new());
        // Hits 0..4 pass, every later one fires.
        let plan = Arc::new(deeprest_fault::FaultPlan::new(0).window("pool.worker", 4, u64::MAX));
        let pool = Pool::with_threads(4);
        deeprest_telemetry::with_sink(sink.clone(), || {
            deeprest_fault::with_plan(plan, || {
                // Chunks meet at the barrier two at a time, so a helper
                // runs at least one of them...
                let meet = std::sync::Barrier::new(2);
                pool.for_each(4, |_| {
                    meet.wait();
                });
                assert!(sink.counter("pool.chunks.helper") > 0);
                // ...and advanced the caller's own hit counters when it
                // did: the next fan-out starts at hit 4, so every one of
                // its chunks is struck, whichever thread runs it.
                let err = pool.try_map(4, |i| i).expect_err("hits 4..8 all fire");
                assert_eq!((err.lo, err.hi), (0, 1), "{err}");
            })
        });
        assert_eq!(sink.counter("fault.injected.pool.worker"), 4);
        assert_eq!(
            sink.counter("pool.chunks.helper") + sink.counter("pool.chunks.caller"),
            8,
            "both fan-outs counted every chunk in the caller's sink"
        );
    }

    #[test]
    fn for_each_visits_every_index() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        Pool::with_threads(3).for_each(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }
}
