//! Bounded ingest queue with backpressure.
//!
//! The serving pipeline decouples trace *arrival* (a collector thread, a
//! socket, a replay driver) from trace *processing* (windowing + inference)
//! through this queue. The queue is strictly bounded — memory stays
//! constant under sustained overload — and offers two overflow policies:
//! block the producer until the consumer catches up, or drop the oldest
//! buffered arrival (counted, never silent).
//!
//! Every admission outcome is typed: [`IngestQueue::push_typed`] returns
//! `Result<Accepted, PushRejected<T>>`, so a caller can tell a blocking
//! wait from an eviction from a closed-queue rejection, and rejected items
//! are handed back instead of silently discarded. Overflow evictions and
//! close-time discards are counted under distinct telemetry names
//! (`serve.queue.dropped.overflow` / `serve.queue.dropped.closed`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use deeprest_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// What a push does when the queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Block the producer until space frees up (lossless backpressure).
    Block,
    /// Evict the oldest buffered item to admit the new one; evictions are
    /// counted in [`IngestQueue::dropped_overflow`].
    DropOldest,
}

/// How a push succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// The item went straight into free space.
    Enqueued,
    /// The queue was full under [`OverflowPolicy::Block`]; the producer
    /// waited for the consumer before the item was admitted.
    EnqueuedAfterWait,
    /// The queue was full under [`OverflowPolicy::DropOldest`]; `evicted`
    /// older items were dropped (and counted) to admit this one.
    Displaced {
        /// Number of older items evicted to make room.
        evicted: u64,
    },
}

/// Why a push failed. The rejected item is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushRejected<T> {
    /// The queue was closed; counted on `serve.queue.dropped.closed` only
    /// if the caller drops the returned item.
    Closed(T),
    /// The queue was full and the call was non-blocking
    /// ([`IngestQueue::try_push`] under [`OverflowPolicy::Block`]).
    Full(T),
}

impl<T> PushRejected<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushRejected::Closed(item) | PushRejected::Full(item) => item,
        }
    }
}

struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
    dropped_overflow: u64,
    dropped_closed: u64,
    // Waiter counts, guarded by the same mutex the waiters atomically
    // release inside `Condvar::wait`: a producer/consumer increments
    // before waiting and decrements after waking, so a peer that mutates
    // `buf` under the lock sees an exact count and can skip the condvar
    // signal entirely when nobody is parked. Signalling an empty condvar
    // is far from free (a pthread call per push/pop), and the
    // single-threaded drain path never needs it.
    waiting_consumers: usize,
    waiting_producers: usize,
}

/// Locks `mutex`, recovering the contents of a poisoned lock.
///
/// Every mutation the queue performs under the lock (`push_back`,
/// `pop_front`, counter bumps, the `closed` flag) leaves `Inner` in a
/// consistent state even if the holder unwinds between statements, so a
/// poisoned mutex only means "some thread panicked while holding it" —
/// the buffered items are intact and must outlive that thread. Recoveries
/// are counted on `serve.queue.poison_recovered`.
fn lock_recovering<T>(mutex: &Mutex<Inner<T>>) -> MutexGuard<'_, Inner<T>> {
    mutex.lock().unwrap_or_else(|poisoned| {
        telemetry::counter("serve.queue.poison_recovered", 1);
        poisoned.into_inner()
    })
}

/// [`lock_recovering`], but through exclusive access: `Mutex::get_mut`
/// borrows the contents without locking, which is safe because `&mut`
/// proves no other thread can hold or wait on the mutex.
fn get_mut_recovering<T>(mutex: &mut Mutex<Inner<T>>) -> &mut Inner<T> {
    mutex.get_mut().unwrap_or_else(|poisoned| {
        telemetry::counter("serve.queue.poison_recovered", 1);
        poisoned.into_inner()
    })
}

/// A bounded MPSC-style queue (any number of producers, any number of
/// consumers) with blocking pop and a configurable overflow policy.
///
/// The queue never holds more than `capacity` items; `serve.queue_depth`
/// gauges the depth after every push.
pub struct IngestQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    policy: OverflowPolicy,
    nonempty: Condvar,
    nonfull: Condvar,
}

impl<T> IngestQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "IngestQueue: capacity must be positive");
        Self {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
                dropped_overflow: 0,
                dropped_closed: 0,
                waiting_consumers: 0,
                waiting_producers: 0,
            }),
            capacity,
            policy,
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
        }
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The queue's overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Enqueues one item, applying the overflow policy when full.
    ///
    /// Under [`OverflowPolicy::Block`] this waits for the consumer; under
    /// [`OverflowPolicy::DropOldest`] it evicts (and counts) the oldest
    /// buffered items. A closed queue rejects with
    /// [`PushRejected::Closed`], returning the item to the caller.
    pub fn push_typed(&self, item: T) -> Result<Accepted, PushRejected<T>> {
        let mut inner = lock_recovering(&self.inner);
        let mut waited = false;
        let mut evicted = 0u64;
        while inner.buf.len() >= self.capacity && !inner.closed {
            match self.policy {
                OverflowPolicy::Block => {
                    waited = true;
                    inner.waiting_producers += 1;
                    inner = self
                        .nonfull
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner.waiting_producers -= 1;
                }
                OverflowPolicy::DropOldest => {
                    inner.buf.pop_front();
                    inner.dropped_overflow += 1;
                    evicted += 1;
                    telemetry::counter("serve.queue.dropped.overflow", 1);
                }
            }
        }
        if inner.closed {
            inner.dropped_closed += 1;
            telemetry::counter("serve.queue.dropped.closed", 1);
            return Err(PushRejected::Closed(item));
        }
        inner.buf.push_back(item);
        telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
        let wake = inner.waiting_consumers > 0;
        drop(inner);
        if wake {
            self.nonempty.notify_one();
        }
        Ok(if evicted > 0 {
            Accepted::Displaced { evicted }
        } else if waited {
            Accepted::EnqueuedAfterWait
        } else {
            Accepted::Enqueued
        })
    }

    /// Enqueues one item without ever blocking.
    ///
    /// A full [`OverflowPolicy::Block`] queue rejects with
    /// [`PushRejected::Full`] instead of waiting; a full
    /// [`OverflowPolicy::DropOldest`] queue evicts exactly one item, as
    /// [`push_typed`](Self::push_typed) would.
    pub fn try_push(&self, item: T) -> Result<Accepted, PushRejected<T>> {
        let mut inner = lock_recovering(&self.inner);
        if inner.closed {
            inner.dropped_closed += 1;
            telemetry::counter("serve.queue.dropped.closed", 1);
            return Err(PushRejected::Closed(item));
        }
        let mut evicted = 0u64;
        if inner.buf.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => return Err(PushRejected::Full(item)),
                OverflowPolicy::DropOldest => {
                    inner.buf.pop_front();
                    inner.dropped_overflow += 1;
                    evicted = 1;
                    telemetry::counter("serve.queue.dropped.overflow", 1);
                }
            }
        }
        inner.buf.push_back(item);
        telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
        let wake = inner.waiting_consumers > 0;
        drop(inner);
        if wake {
            self.nonempty.notify_one();
        }
        Ok(if evicted > 0 {
            Accepted::Displaced { evicted }
        } else {
            Accepted::Enqueued
        })
    }

    /// [`try_push`](Self::try_push) through exclusive access: no lock, no
    /// condvar signalling. `&mut self` proves no other thread holds the
    /// queue, so nobody can be parked on either condvar and the mutex can
    /// be bypassed entirely (`Mutex::get_mut`). The multi-tenant registry
    /// owns its per-tenant queues exclusively and admits thousands of
    /// arrivals per round through this path.
    pub fn try_push_mut(&mut self, item: T) -> Result<Accepted, PushRejected<T>> {
        let capacity = self.capacity;
        let policy = self.policy;
        let inner = get_mut_recovering(&mut self.inner);
        if inner.closed {
            inner.dropped_closed += 1;
            telemetry::counter("serve.queue.dropped.closed", 1);
            return Err(PushRejected::Closed(item));
        }
        let mut evicted = 0u64;
        if inner.buf.len() >= capacity {
            match policy {
                OverflowPolicy::Block => return Err(PushRejected::Full(item)),
                OverflowPolicy::DropOldest => {
                    inner.buf.pop_front();
                    inner.dropped_overflow += 1;
                    evicted = 1;
                    telemetry::counter("serve.queue.dropped.overflow", 1);
                }
            }
        }
        inner.buf.push_back(item);
        telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
        Ok(if evicted > 0 {
            Accepted::Displaced { evicted }
        } else {
            Accepted::Enqueued
        })
    }

    /// [`try_pop`](Self::try_pop) through exclusive access — see
    /// [`try_push_mut`](Self::try_push_mut) for why no lock or signal is
    /// needed.
    pub fn try_pop_mut(&mut self) -> Option<T> {
        let inner = get_mut_recovering(&mut self.inner);
        let item = inner.buf.pop_front();
        if item.is_some() {
            telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
        }
        item
    }

    /// [`len`](Self::len) through exclusive access (no lock).
    pub fn len_mut(&mut self) -> usize {
        get_mut_recovering(&mut self.inner).buf.len()
    }

    /// [`peek_map`](Self::peek_map) through exclusive access (no lock).
    pub fn peek_map_mut<U>(&mut self, mut f: impl FnMut(&T) -> U) -> Vec<U> {
        get_mut_recovering(&mut self.inner)
            .buf
            .iter()
            .map(&mut f)
            .collect()
    }

    /// Dequeues the oldest item, blocking until one arrives. Returns `None`
    /// once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recovering(&self.inner);
        loop {
            if let Some(item) = inner.buf.pop_front() {
                telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
                let wake = inner.waiting_producers > 0;
                drop(inner);
                if wake {
                    self.nonfull.notify_one();
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.waiting_consumers += 1;
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting_consumers -= 1;
        }
    }

    /// Dequeues the oldest item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = lock_recovering(&self.inner);
        let item = inner.buf.pop_front();
        if item.is_some() {
            telemetry::gauge("serve.queue_depth", inner.buf.len() as f64);
            let wake = inner.waiting_producers > 0;
            drop(inner);
            if wake {
                self.nonfull.notify_one();
            }
        }
        item
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).buf.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many items the `DropOldest` policy evicted to admit newer ones
    /// (telemetry: `serve.queue.dropped.overflow`).
    pub fn dropped_overflow(&self) -> u64 {
        lock_recovering(&self.inner).dropped_overflow
    }

    /// How many pushes were rejected because the queue was already closed
    /// (telemetry: `serve.queue.dropped.closed`). Typed pushes hand the
    /// item back, so a "drop" here only becomes a real loss if the caller
    /// discards it.
    pub fn dropped_closed(&self) -> u64 {
        lock_recovering(&self.inner).dropped_closed
    }

    /// Maps `f` over the buffered items (oldest first) under the lock,
    /// without removing them. The fair scheduler uses this to snapshot
    /// per-arrival costs without cloning the arrivals.
    pub fn peek_map<U>(&self, mut f: impl FnMut(&T) -> U) -> Vec<U> {
        let inner = lock_recovering(&self.inner);
        inner.buf.iter().map(&mut f).collect()
    }

    /// Closes the queue: producers are rejected, blocked producers and
    /// consumers wake, consumers drain what remains.
    pub fn close(&self) {
        lock_recovering(&self.inner).closed = true;
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock_recovering(&self.inner).closed
    }
}

impl<T: Clone + Serialize + Deserialize> IngestQueue<T> {
    /// Clones the buffered items front-to-back plus the drop counters, for
    /// checkpointing. The snapshot observes one consistent lock-held state.
    pub fn snapshot(&self) -> QueueSnapshot<T> {
        let inner = lock_recovering(&self.inner);
        QueueSnapshot {
            items: inner.buf.iter().cloned().collect(),
            dropped_overflow: inner.dropped_overflow,
            dropped_closed: inner.dropped_closed,
        }
    }

    /// Rebuilds a queue from a snapshot, restoring buffered items (oldest
    /// first) and drop counters. Items beyond `capacity` are evicted
    /// oldest-first and counted, exactly as live overflow would.
    pub fn from_snapshot(
        capacity: usize,
        policy: OverflowPolicy,
        snapshot: QueueSnapshot<T>,
    ) -> Self {
        let queue = Self::new(capacity, policy);
        {
            let mut inner = lock_recovering(&queue.inner);
            inner.dropped_overflow = snapshot.dropped_overflow;
            inner.dropped_closed = snapshot.dropped_closed;
            for item in snapshot.items {
                if inner.buf.len() >= capacity {
                    inner.buf.pop_front();
                    inner.dropped_overflow += 1;
                    telemetry::counter("serve.queue.dropped.overflow", 1);
                }
                inner.buf.push_back(item);
            }
        }
        queue
    }
}

/// A consistent copy of a queue's buffered items and drop counters, used
/// by the multi-tenant checkpoint to persist in-flight arrivals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot<T: Serialize + Deserialize> {
    /// Buffered items, oldest first.
    pub items: Vec<T>,
    /// Overflow-eviction count at snapshot time.
    #[serde(default)]
    pub dropped_overflow: u64,
    /// Closed-rejection count at snapshot time.
    #[serde(default)]
    pub dropped_closed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_depth() {
        let q = IngestQueue::new(4, OverflowPolicy::Block);
        assert_eq!(q.push_typed(1), Ok(Accepted::Enqueued));
        assert_eq!(q.push_typed(2), Ok(Accepted::Enqueued));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn drop_oldest_bounds_depth_and_counts() {
        let q = IngestQueue::new(3, OverflowPolicy::DropOldest);
        for v in 0..10 {
            let accepted = q
                .push_typed(v)
                .expect("DropOldest never rejects while open");
            if v < 3 {
                assert_eq!(accepted, Accepted::Enqueued);
            } else {
                assert_eq!(accepted, Accepted::Displaced { evicted: 1 });
            }
            assert!(q.len() <= 3, "queue exceeded its bound");
        }
        assert_eq!(q.dropped_overflow(), 7);
        assert_eq!(q.dropped_closed(), 0);
        // The newest three survive.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), Some(9));
    }

    #[test]
    fn block_policy_waits_for_consumer() {
        let q = Arc::new(IngestQueue::new(2, OverflowPolicy::Block));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for v in 0..20 {
                    let accepted = q.push_typed(v).expect("queue not closed");
                    assert!(matches!(
                        accepted,
                        Accepted::Enqueued | Accepted::EnqueuedAfterWait
                    ));
                    assert!(q.len() <= 2, "queue exceeded its bound");
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(q.dropped_overflow(), 0);
    }

    #[test]
    fn try_push_full_block_queue_hands_item_back() {
        let q = IngestQueue::new(1, OverflowPolicy::Block);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Err(PushRejected::Full(2)));
        // The rejection is backpressure, not a drop: nothing is counted.
        assert_eq!(q.dropped_overflow(), 0);
        assert_eq!(q.dropped_closed(), 0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(2), Ok(Accepted::Enqueued));
    }

    #[test]
    fn try_push_full_drop_oldest_displaces() {
        let q = IngestQueue::new(1, OverflowPolicy::DropOldest);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Ok(Accepted::Displaced { evicted: 1 }));
        assert_eq!(q.dropped_overflow(), 1);
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn closed_rejections_are_counted_separately() {
        let q = IngestQueue::new(4, OverflowPolicy::DropOldest);
        q.push_typed(1).unwrap();
        q.close();
        assert_eq!(q.push_typed(2), Err(PushRejected::Closed(2)));
        assert_eq!(q.try_push(3), Err(PushRejected::Closed(3)));
        assert_eq!(q.dropped_closed(), 2);
        assert_eq!(q.dropped_overflow(), 0);
        // The buffered item still drains.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_round_trips_contents_and_counters() {
        let q = IngestQueue::new(3, OverflowPolicy::DropOldest);
        for v in 0..5 {
            q.push_typed(v).unwrap();
        }
        let snap = q.snapshot();
        assert_eq!(snap.items, vec![2, 3, 4]);
        assert_eq!(snap.dropped_overflow, 2);
        let restored = IngestQueue::from_snapshot(3, OverflowPolicy::DropOldest, snap);
        assert_eq!(restored.dropped_overflow(), 2);
        assert_eq!(restored.pop(), Some(2));
        assert_eq!(restored.pop(), Some(3));
        assert_eq!(restored.pop(), Some(4));
        assert!(restored.is_empty());
    }

    #[test]
    fn poisoned_mutex_keeps_queue_contents() {
        let q = Arc::new(IngestQueue::new(8, OverflowPolicy::Block));
        q.push_typed(1).unwrap();
        q.push_typed(2).unwrap();
        // Poison the inner mutex: a thread panics while holding the lock.
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock().unwrap();
                panic!("injected poison");
            })
        };
        assert!(poisoner.join().is_err(), "poisoner must have panicked");
        assert!(q.inner.is_poisoned(), "mutex must actually be poisoned");
        // Every operation recovers the contents instead of propagating.
        assert_eq!(q.len(), 2);
        assert!(q.push_typed(3).is_ok());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.dropped_overflow(), 0);
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_consumer() {
        let q = Arc::new(IngestQueue::new(2, OverflowPolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push_typed(1), Err(PushRejected::Closed(1)));
    }
}
