//! A warm Jaeger import allocates for the trees it returns and for nothing
//! else.
//!
//! This binary holds exactly one `#[test]`: the allocation counter below is
//! process-wide, so a second test — or the harness printing its result —
//! would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
fn a_warm_import_allocates_once_per_parent_span_and_a_constant() {
    let mut names = Interner::new();
    let api = names.intern("/compose");
    let traces: Vec<Trace> = (0..40)
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
    assert!(spans > 300 && parents > 100 && json.len() > 100_000);

    // The first import warms the name table and this thread's scratch.
    let mut warm = Interner::new();
    let first = jaeger::import(&json, &mut warm).expect("exported document imports");
    assert_eq!(first, traces);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats =
        jaeger::import_timestamped_counted(&json, &mut warm).expect("exported document imports");
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.traces.len(), traces.len());

    // One child vector per span that has children, plus the vector of
    // traces: nothing per key, id, tag or name (the document holds ~15 keys
    // and ~6 strings per span, and the names contain escapes).
    const PER_DOCUMENT: usize = 1;
    assert!(
        allocated <= parents + PER_DOCUMENT,
        "{allocated} allocations importing {spans} spans with {parents} parents"
    );
}
