//! A warm import of a document large enough to split across the pool
//! allocates for the trees it returns, plus a constant per run, and for
//! nothing else.
//!
//! This binary holds exactly one `#[test]`: the allocation counter below is
//! process-wide (the pool's helpers link on threads of their own), so a
//! second test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use deeprest_fault::pool::Pool;
use deeprest_telemetry::{self as telemetry, Event, Sink};
use deeprest_trace::{jaeger, Interner, SpanNode, Trace};

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

/// A sink that keeps nothing it is given.
struct Discard;

impl Sink for Discard {
    fn record(&self, _: Event) {}
}

/// A chain of `depth` spans under a root with `fanout` such chains.
fn tree(names: &mut Interner, fanout: usize, depth: usize) -> SpanNode {
    let component = names.intern(&format!("Service{depth}"));
    let operation = names.intern(&format!("operation \"{fanout}\"/{depth}"));
    let children = if depth == 0 {
        Vec::new()
    } else {
        (0..fanout.max(1))
            .map(|_| tree(names, 1, depth - 1))
            .collect()
    };
    SpanNode::with_children(component, operation, children)
}

#[test]
fn a_warm_split_import_allocates_once_per_parent_span_and_a_constant_per_run() {
    let mut names = Interner::new();
    let api = names.intern("/compose");
    let traces: Vec<Trace> = (0..600)
        .map(|t| Trace::new(api, tree(&mut names, 1 + t % 5, 1 + t % 4)))
        .collect();
    let json = jaeger::export(&traces, &names);
    let spans: usize = traces.iter().map(Trace::span_count).sum();
    let mut parents = 0;
    for trace in &traces {
        trace
            .root
            .visit(&mut |s| parents += usize::from(!s.children.is_empty()));
    }
    // Long enough for four runs of the import's minimum length.
    assert!(spans > 4_000 && json.len() > 1_000_000, "{}", json.len());

    // The first imports warm the name table, this thread's scratch and the
    // pool's helpers.
    let mut warm = Interner::new();
    for _ in 0..2 {
        let first = jaeger::import(&json, &mut warm).expect("exported document imports");
        assert_eq!(first, traces);
    }

    // Under a sink that keeps nothing, so that a process-wide sink
    // (`DEEPREST_TELEMETRY=memory`) does not store the probes' records
    // inside the counted import: the probes still fire.
    let (stats, allocated) = telemetry::with_sink(Arc::new(Discard), || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = jaeger::import_timestamped_counted(&json, &mut warm)
            .expect("exported document imports");
        (stats, ALLOCATIONS.load(Ordering::Relaxed) - before)
    });
    assert_eq!(stats.traces.len(), traces.len());

    // One child vector per span that has children, plus the vector of
    // traces, plus a few per run: nothing per key, id, tag or name.
    const PER_DOCUMENT: usize = 1;
    const PER_RUN: usize = 2;
    let runs = Pool::global().threads();
    assert!(
        allocated <= parents + PER_DOCUMENT + PER_RUN * runs,
        "{allocated} allocations importing {spans} spans with {parents} parents in {runs} runs"
    );
}
