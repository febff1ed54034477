//! Telemetry-backed invariants of the execution engine: behavior that used
//! to be invisible (pool fan-out) asserted through the in-memory sink.

use std::sync::Arc;

use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_tensor::Pool;

#[test]
fn pool_dispatch_counts_workers_and_chunks() {
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        // 8 items over 4 threads: 4 worker jobs of chunk 2.
        let out = Pool::with_threads(4).map(8, |i| i * 2);
        assert_eq!(out.len(), 8);
    });
    assert_eq!(sink.counter("pool.tasks"), 4);
    assert_eq!(sink.gauges("pool.chunk_size"), vec![2.0]);
    assert_eq!(sink.span_count("pool.worker_busy"), 4);
}

#[test]
fn serial_pool_dispatches_nothing() {
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let out = Pool::with_threads(1).map(8, |i| i + 1);
        assert_eq!(out.len(), 8);
    });
    // The serial fast path spawns no workers, so no fan-out events.
    assert_eq!(sink.counter("pool.tasks"), 0);
    assert_eq!(sink.span_count("pool.worker_busy"), 0);
}
