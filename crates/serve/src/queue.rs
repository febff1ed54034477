//! Bounded ingest queue with backpressure.
//!
//! [`BoundedQueue`] is a strictly bounded FIFO behind `&mut self` — memory
//! stays constant under sustained overload. The multi-tenant registry owns
//! one per tenant. A push into a full queue follows the queue's
//! [`OverflowPolicy`]: hand the item back (backpressure) or evict the
//! oldest buffered arrival (counted on `serve.queue.dropped.overflow`,
//! never silent). Every outcome is typed: [`BoundedQueue::try_push`]
//! returns `Result<Accepted, T>`, so a caller can tell a plain admission
//! from an eviction, and a rejected item comes back to its caller.

use std::collections::VecDeque;

use deeprest_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// What a push does when the queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Reject the push and hand the item back: lossless backpressure, the
    /// caller decides what to do with it.
    Block,
    /// Evict the oldest buffered item to admit the new one; evictions are
    /// counted, and the count is checkpointed with the queue.
    DropOldest,
}

/// How a push succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// The item went straight into free space.
    Enqueued,
    /// The queue was full under [`OverflowPolicy::DropOldest`]; `evicted`
    /// older items were dropped (and counted) to admit this one.
    Displaced {
        /// Number of older items evicted to make room.
        evicted: u64,
    },
}

/// A bounded FIFO with an overflow policy, typed admission outcomes and an
/// eviction counter. Never holds more than `capacity` items.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    buf: VecDeque<T>,
    capacity: usize,
    policy: OverflowPolicy,
    dropped_overflow: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "BoundedQueue: capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            policy,
            dropped_overflow: 0,
        }
    }

    /// Enqueues one item.
    ///
    /// A full [`OverflowPolicy::Block`] queue hands the item back
    /// (backpressure, not a drop); a full [`OverflowPolicy::DropOldest`]
    /// queue evicts (and counts) its oldest item.
    pub(crate) fn try_push(&mut self, item: T) -> Result<Accepted, T> {
        let mut accepted = Accepted::Enqueued;
        if self.is_full() {
            match self.policy {
                OverflowPolicy::Block => return Err(item),
                OverflowPolicy::DropOldest => {
                    self.evict_oldest();
                    accepted = Accepted::Displaced { evicted: 1 };
                }
            }
        }
        self.buf.push_back(item);
        Ok(accepted)
    }

    fn evict_oldest(&mut self) {
        self.buf.pop_front();
        self.dropped_overflow += 1;
        telemetry::counter("serve.queue.dropped.overflow", 1);
    }

    /// Dequeues the oldest item, if any.
    pub(crate) fn try_pop(&mut self) -> Option<T> {
        self.buf.pop_front()
    }

    /// Current number of buffered items.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether a push would overflow.
    pub(crate) fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// The buffered items, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Clones the buffered items (through `f`, oldest first) plus the
    /// eviction counter, for checkpointing.
    pub(crate) fn snapshot_with<U: Serialize + Deserialize>(
        &self,
        f: impl FnMut(&T) -> U,
    ) -> QueueSnapshot<U> {
        QueueSnapshot {
            items: self.buf.iter().map(f).collect(),
            dropped_overflow: self.dropped_overflow,
        }
    }

    /// Rebuilds a queue from a snapshot, restoring buffered items (through
    /// `f`, oldest first) and the eviction counter. Items beyond `capacity`
    /// are evicted oldest-first and counted, exactly as live overflow would.
    pub(crate) fn from_snapshot_with<U: Serialize + Deserialize>(
        capacity: usize,
        policy: OverflowPolicy,
        snapshot: QueueSnapshot<U>,
        mut f: impl FnMut(U) -> T,
    ) -> Self {
        let mut queue = Self::new(capacity, policy);
        queue.dropped_overflow = snapshot.dropped_overflow;
        for item in snapshot.items {
            if queue.is_full() {
                queue.evict_oldest();
            }
            queue.buf.push_back(f(item));
        }
        queue
    }
}

/// A consistent copy of a queue's buffered items and eviction counter,
/// used by the multi-tenant checkpoint to persist in-flight arrivals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot<T: Serialize + Deserialize> {
    /// Buffered items, oldest first.
    pub items: Vec<T>,
    /// Overflow-eviction count at snapshot time.
    #[serde(default)]
    pub dropped_overflow: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_fifo_bounded_and_typed() {
        // FIFO order and depth.
        let mut q = BoundedQueue::new(4, OverflowPolicy::Block);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Ok(Accepted::Enqueued));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);

        // DropOldest bounds the depth and counts every eviction.
        let mut q = BoundedQueue::new(3, OverflowPolicy::DropOldest);
        for v in 0..10 {
            let accepted = q.try_push(v).expect("DropOldest never rejects");
            if v < 3 {
                assert_eq!(accepted, Accepted::Enqueued);
            } else {
                assert_eq!(accepted, Accepted::Displaced { evicted: 1 });
            }
            assert!(q.len() <= 3, "queue exceeded its bound");
        }
        assert_eq!(q.dropped_overflow, 7);
        // The newest three survive.
        assert_eq!(
            [q.try_pop(), q.try_pop(), q.try_pop()],
            [Some(7), Some(8), Some(9)]
        );

        // A full Block queue hands the item back: backpressure, not a
        // drop, so nothing is counted.
        let mut q = BoundedQueue::new(1, OverflowPolicy::Block);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Err(2));
        assert_eq!(q.dropped_overflow, 0);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(2), Ok(Accepted::Enqueued));

        // A full DropOldest queue displaces exactly one.
        let mut q = BoundedQueue::new(1, OverflowPolicy::DropOldest);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Ok(Accepted::Displaced { evicted: 1 }));
        assert_eq!(q.dropped_overflow, 1);
        assert_eq!(q.try_pop(), Some(2));
    }

    #[test]
    fn snapshot_round_trips_contents_and_counters() {
        let mut q = BoundedQueue::new(3, OverflowPolicy::DropOldest);
        for v in 0..5 {
            q.try_push(v).unwrap();
        }
        let snap = q.snapshot_with(|&v| v);
        assert_eq!(snap.items, vec![2, 3, 4]);
        assert_eq!(snap.dropped_overflow, 2);
        let mut restored =
            BoundedQueue::from_snapshot_with(3, OverflowPolicy::DropOldest, snap, |v| v);
        assert_eq!(restored.dropped_overflow, 2);
        assert_eq!(restored.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(restored.try_pop(), Some(2));
        assert_eq!(restored.len(), 2);
    }
}
