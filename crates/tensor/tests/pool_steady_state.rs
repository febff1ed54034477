//! A warm pool spawns nothing and allocates nothing.
//!
//! This binary holds exactly one `#[test]`: the allocation counter below is
//! process-wide (helpers allocate on their own threads), so a second test —
//! or the harness printing its result — would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_tensor::Pool;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_fan_outs_spawn_and_allocate_nothing() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 1_000;
    let pool = Pool::with_threads(THREADS);
    let mut items = vec![0u64; 64];

    // Helper lifetimes and chunk attribution, through the in-memory sink.
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        pool.for_each_mut(&mut items, |i, v| *v += i as u64);
        assert_eq!(
            sink.counter("pool.helpers_spawned"),
            (THREADS - 1) as u64,
            "the first fan-out of the process grows the helper set once"
        );
        for _ in 0..ROUNDS {
            pool.for_each_mut(&mut items, |i, v| *v += i as u64);
        }
    });
    assert_eq!(sink.counter("pool.helpers_spawned"), (THREADS - 1) as u64);
    let chunks = ((ROUNDS + 1) * THREADS) as u64;
    assert_eq!(sink.counter("pool.tasks"), chunks);
    assert_eq!(
        sink.counter("pool.chunks.caller") + sink.counter("pool.chunks.helper"),
        chunks,
        "every chunk is run by the caller or by a helper, once"
    );

    // The same fan-out with telemetry off (whatever `DEEPREST_TELEMETRY`
    // says; this is the only test in the process): no heap traffic on any
    // thread.
    telemetry::set_sink(None);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        pool.for_each_mut(&mut items, |i, v| *v += i as u64);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "warm for_each_mut fan-outs hit the allocator");
    assert!(items
        .iter()
        .enumerate()
        .all(|(i, v)| *v == (2 * ROUNDS as u64 + 1) * i as u64));
}
