//! Telemetry-backed invariants of the execution engine: behavior that used
//! to be invisible (pool fan-out, kernel dispatch) asserted through the
//! in-memory sink.

use std::sync::Arc;

use deeprest_telemetry::{self as telemetry, MemorySink};
use deeprest_tensor::{Pool, Tensor};

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

#[test]
fn map_reuse_dispatch_matches_ceil_rule() {
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        // 12 items over 3 threads: 3 worker jobs of chunk 4.
        let out = Pool::with_threads(3).map_reuse(
            12,
            || 0usize,
            |s, i| {
                *s += 1;
                i
            },
        );
        assert_eq!(out.len(), 12);
    });
    assert_eq!(sink.counter("pool.tasks"), 3);
    assert_eq!(sink.gauges("pool.chunk_size"), vec![4.0]);
}

#[test]
fn matmul_dispatch_counters_split_gemv_from_gemm() {
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        let a = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32).collect());
        let x = Tensor::vector(vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(4, 2, (0..8).map(|i| i as f32 * 0.5).collect());
        let _ = a.matmul(&x); // (3,4)·(4,1): the GEMV fast path
        let _ = a.matmul(&b); // (3,4)·(4,2): general GEMM
        let row = Tensor::from_vec(1, 4, vec![0.5, 0.0, -0.5, 1.0]);
        let _ = a.matmul_nt(&row); // (3,4)·(1,4)^T: GEMV-shaped
        let g = Tensor::vector(vec![1.0, 0.0, -1.0]);
        let _ = a.matmul_tn(&g); // Aᵀ·g with g a column: GEMV-shaped
        let _ = g.matmul_nt(&x); // outer product (3,1)·(4,1)^T: GEMM-shaped
    });
    assert_eq!(sink.counter("kernel.gemv"), 3);
    assert_eq!(sink.counter("kernel.gemm"), 2);
}
