//! Recycled scratch buffers backing the zero-allocation steady state of
//! the hot loops.
//!
//! The packed forward (`deeprest-nn`'s `ExpertSlab::step_range`/`heads`,
//! stepped once per served window and once per training timestep) needs a
//! handful of gate and attention temporaries per call, and the optimizers
//! one moment tensor per parameter. Instead of allocating a fresh
//! `Vec<f32>` each time, callers own a [`BufferPool`], take buffers from it
//! and put them back before returning, so after the first call every take
//! is a reuse.
//!
//! The free lists are bucketed by exact length: a take is served only by a
//! recycled buffer of the requested size, never by resizing a mismatched
//! one. For a workload that repeats a fixed shape sequence (exactly what
//! stepping one packed model does) this converges after a single pass —
//! pass one allocates every distinct buffer once, and every later pass
//! finds each size in its bucket — and it makes the steady state provable
//! without reasoning about which buffer lands at which site.
//!
//! Telemetry:
//! * `kernel.alloc` — a take found no recycled buffer of the requested
//!   size and allocated. Zero in steady state; the invariant is asserted
//!   end-to-end by `crates/core/tests/zero_alloc.rs`.
//! * `kernel.scratch_reuse` — a take was served from a recycled buffer.

use std::collections::BTreeMap;

use deeprest_telemetry as telemetry;

use crate::tensor::Tensor;

/// Size-bucketed free lists of `f32` buffers. See the [module docs](self).
#[derive(Debug, Default)]
pub struct BufferPool {
    free: BTreeMap<usize, Vec<Vec<f32>>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zeroed buffer of exactly `len` elements, reusing a recycled
    /// allocation of that size when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if let Some(mut buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            if telemetry::enabled() {
                telemetry::counter("kernel.scratch_reuse", 1);
            }
            buf.fill(0.0);
            return buf;
        }
        telemetry::counter("kernel.alloc", 1);
        vec![0.0; len]
    }

    /// Takes a zeroed `(rows, cols)` tensor backed by a pooled buffer.
    pub fn take_tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Returns a buffer to the pool for reuse by takes of the same length.
    pub fn put(&mut self, buf: Vec<f32>) {
        // Zero-capacity buffers are not worth tracking.
        if buf.capacity() > 0 {
            self.free.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Number of buffers currently recycled and idle.
    pub fn idle(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_telemetry::{self as telemetry, MemorySink};
    use std::sync::Arc;

    #[test]
    fn take_zeroes_and_put_recycles() {
        let mut pool = BufferPool::new();
        let mut buf = pool.take(4);
        assert_eq!(buf, vec![0.0; 4]);
        buf[0] = 7.0;
        let ptr = buf.as_ptr();
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let again = pool.take(4);
        assert_eq!(
            again,
            vec![0.0; 4],
            "recycled buffers must come back zeroed"
        );
        assert_eq!(again.as_ptr(), ptr, "same allocation must be reused");
    }

    #[test]
    fn steady_state_reuse_is_visible_and_alloc_free() {
        let sink = Arc::new(MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            let mut pool = BufferPool::new();
            // Warm-up: one allocation.
            let t = pool.take(6);
            pool.put(t);
            // Steady state: ten reuse cycles of the same shape.
            for _ in 0..10 {
                let t = pool.take(6);
                pool.put(t);
            }
        });
        assert_eq!(sink.counter("kernel.alloc"), 1);
        assert_eq!(sink.counter("kernel.scratch_reuse"), 10);
    }

    #[test]
    fn size_mismatch_allocates_instead_of_regrowing() {
        let sink = Arc::new(MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            let mut pool = BufferPool::new();
            let t = pool.take(2);
            pool.put(t);
            // A different size misses its bucket and allocates fresh; the
            // recycled size-2 buffer is untouched and still serves its own
            // size afterwards.
            let big = pool.take_tensor(64, 64);
            assert_eq!(big.shape(), (64, 64));
            let _ = pool.take_tensor(2, 1);
        });
        assert_eq!(sink.counter("kernel.alloc"), 2);
        assert_eq!(sink.counter("kernel.scratch_reuse"), 1);
    }

    #[test]
    fn interleaved_shape_sequences_stay_alloc_free_after_one_pass() {
        let sink = Arc::new(MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            let mut pool = BufferPool::new();
            // Two passes of a mixed shape sequence; bucketing guarantees the
            // second pass is entirely reuse regardless of put order.
            for _ in 0..2 {
                let a = pool.take(8);
                let b = pool.take(1);
                let c = pool.take(8);
                let d = pool.take(64);
                pool.put(d);
                pool.put(a);
                pool.put(c);
                pool.put(b);
            }
        });
        assert_eq!(sink.counter("kernel.alloc"), 4);
        assert_eq!(sink.counter("kernel.scratch_reuse"), 4);
    }
}
