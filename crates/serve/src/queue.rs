//! Bounded ingest queue with backpressure.
//!
//! The serving pipeline decouples trace *arrival* (a collector thread, a
//! socket, a replay driver) from trace *processing* (windowing + inference)
//! through this queue. The queue is strictly bounded — memory stays
//! constant under sustained overload — and offers two overflow policies:
//! block the producer until the consumer catches up, or drop the oldest
//! buffered arrival (counted, never silent).
//!
//! The queue proper is [`BoundedQueue`] (`&mut self`, no synchronization);
//! [`IngestQueue`] shares one between threads and adds the blocking
//! operations.
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

/// The queue proper: a bounded FIFO with an overflow policy, typed
/// admission outcomes and drop counters, behind `&mut self`. An exclusive
/// owner (the multi-tenant registry's per-tenant queues) uses it directly;
/// [`IngestQueue`] wraps it in a mutex and condvars for a producer thread.
///
/// Never holds more than `capacity` items; `serve.queue_depth` gauges the
/// depth after every push and pop.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    buf: VecDeque<T>,
    capacity: usize,
    policy: OverflowPolicy,
    closed: bool,
    dropped_overflow: u64,
    dropped_closed: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "BoundedQueue: capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            policy,
            closed: false,
            dropped_overflow: 0,
            dropped_closed: 0,
        }
    }

    /// The queue's overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Enqueues one item without ever waiting.
    ///
    /// A closed queue rejects with [`PushRejected::Closed`]; a full
    /// [`OverflowPolicy::Block`] queue rejects with [`PushRejected::Full`]
    /// (backpressure, not a drop); a full [`OverflowPolicy::DropOldest`]
    /// queue evicts (and counts) its oldest item. Rejections hand the item
    /// back.
    pub fn try_push(&mut self, item: T) -> Result<Accepted, PushRejected<T>> {
        if self.closed {
            self.dropped_closed += 1;
            telemetry::counter("serve.queue.dropped.closed", 1);
            return Err(PushRejected::Closed(item));
        }
        let mut evicted = 0u64;
        if self.is_full() {
            match self.policy {
                OverflowPolicy::Block => return Err(PushRejected::Full(item)),
                OverflowPolicy::DropOldest => {
                    self.buf.pop_front();
                    self.dropped_overflow += 1;
                    evicted = 1;
                    telemetry::counter("serve.queue.dropped.overflow", 1);
                }
            }
        }
        self.buf.push_back(item);
        telemetry::gauge("serve.queue_depth", self.buf.len() as f64);
        Ok(if evicted > 0 {
            Accepted::Displaced { evicted }
        } else {
            Accepted::Enqueued
        })
    }

    /// Dequeues the oldest item, if any.
    pub fn try_pop(&mut self) -> Option<T> {
        let item = self.buf.pop_front();
        if item.is_some() {
            telemetry::gauge("serve.queue_depth", self.buf.len() as f64);
        }
        item
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether a push would overflow.
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// The buffered items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// How many items the `DropOldest` policy evicted to admit newer ones
    /// (telemetry: `serve.queue.dropped.overflow`).
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// How many pushes were rejected because the queue was already closed
    /// (telemetry: `serve.queue.dropped.closed`). Pushes hand the item
    /// back, so a "drop" here only becomes a real loss if the caller
    /// discards it.
    pub fn dropped_closed(&self) -> u64 {
        self.dropped_closed
    }

    /// Closes the queue: pushes are rejected, what remains still drains.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Clones the buffered items (through `f`, oldest first) plus the drop
    /// counters, for checkpointing.
    pub fn snapshot_with<U: Serialize + Deserialize>(
        &self,
        f: impl FnMut(&T) -> U,
    ) -> QueueSnapshot<U> {
        QueueSnapshot {
            items: self.buf.iter().map(f).collect(),
            dropped_overflow: self.dropped_overflow,
            dropped_closed: self.dropped_closed,
        }
    }

    /// Rebuilds a queue from a snapshot, restoring buffered items (through
    /// `f`, oldest first) and drop counters. Items beyond `capacity` are
    /// evicted oldest-first and counted, exactly as live overflow would.
    pub fn from_snapshot_with<U: Serialize + Deserialize>(
        capacity: usize,
        policy: OverflowPolicy,
        snapshot: QueueSnapshot<U>,
        mut f: impl FnMut(U) -> T,
    ) -> Self {
        let mut queue = Self::new(capacity, policy);
        queue.dropped_overflow = snapshot.dropped_overflow;
        queue.dropped_closed = snapshot.dropped_closed;
        for item in snapshot.items {
            if queue.is_full() {
                queue.buf.pop_front();
                queue.dropped_overflow += 1;
                telemetry::counter("serve.queue.dropped.overflow", 1);
            }
            queue.buf.push_back(f(item));
        }
        queue
    }
}

struct Inner<T> {
    queue: BoundedQueue<T>,
    // Waiter counts, guarded by the same mutex the waiters atomically
    // release inside `Condvar::wait`: a producer/consumer increments
    // before waiting and decrements after waking, so a peer that mutates
    // the queue under the lock sees an exact count and can skip the condvar
    // signal entirely when nobody is parked. Signalling an empty condvar
    // is far from free (a pthread call per push/pop).
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

/// A [`BoundedQueue`] shared between threads (any number of producers, any
/// number of consumers): adds blocking push and pop on top of the same
/// admission rules, counters and telemetry.
pub struct IngestQueue<T> {
    inner: Mutex<Inner<T>>,
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
        Self {
            inner: Mutex::new(Inner {
                queue: BoundedQueue::new(capacity, policy),
                waiting_consumers: 0,
                waiting_producers: 0,
            }),
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
        }
    }

    /// Enqueues one item, applying the overflow policy when full.
    ///
    /// Under [`OverflowPolicy::Block`] this waits for the consumer; under
    /// [`OverflowPolicy::DropOldest`] it evicts (and counts) the oldest
    /// buffered item. A closed queue rejects with
    /// [`PushRejected::Closed`], returning the item to the caller.
    pub fn push_typed(&self, item: T) -> Result<Accepted, PushRejected<T>> {
        let mut inner = lock_recovering(&self.inner);
        let mut waited = false;
        while inner.queue.policy() == OverflowPolicy::Block
            && inner.queue.is_full()
            && !inner.queue.is_closed()
        {
            waited = true;
            inner.waiting_producers += 1;
            inner = self
                .nonfull
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting_producers -= 1;
        }
        let accepted = self.admit(inner, item)?;
        Ok(if waited {
            Accepted::EnqueuedAfterWait
        } else {
            accepted
        })
    }

    /// Enqueues one item without ever blocking — see
    /// [`BoundedQueue::try_push`].
    pub fn try_push(&self, item: T) -> Result<Accepted, PushRejected<T>> {
        self.admit(lock_recovering(&self.inner), item)
    }

    /// Pushes under the held lock, then wakes a parked consumer.
    fn admit(
        &self,
        mut inner: MutexGuard<'_, Inner<T>>,
        item: T,
    ) -> Result<Accepted, PushRejected<T>> {
        let accepted = inner.queue.try_push(item)?;
        let wake = inner.waiting_consumers > 0;
        drop(inner);
        if wake {
            self.nonempty.notify_one();
        }
        Ok(accepted)
    }

    /// Dequeues the oldest item, blocking until one arrives. Returns `None`
    /// once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recovering(&self.inner);
        while inner.queue.is_empty() && !inner.queue.is_closed() {
            inner.waiting_consumers += 1;
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting_consumers -= 1;
        }
        self.take(inner)
    }

    /// Dequeues the oldest item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.take(lock_recovering(&self.inner))
    }

    /// Pops under the held lock, then wakes a parked producer.
    fn take(&self, mut inner: MutexGuard<'_, Inner<T>>) -> Option<T> {
        let item = inner.queue.try_pop()?;
        let wake = inner.waiting_producers > 0;
        drop(inner);
        if wake {
            self.nonfull.notify_one();
        }
        Some(item)
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).queue.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`BoundedQueue::dropped_overflow`].
    pub fn dropped_overflow(&self) -> u64 {
        lock_recovering(&self.inner).queue.dropped_overflow()
    }

    /// See [`BoundedQueue::dropped_closed`].
    pub fn dropped_closed(&self) -> u64 {
        lock_recovering(&self.inner).queue.dropped_closed()
    }

    /// Closes the queue: producers are rejected, blocked producers and
    /// consumers wake, consumers drain what remains.
    pub fn close(&self) {
        lock_recovering(&self.inner).queue.close();
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock_recovering(&self.inner).queue.is_closed()
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

    /// The non-blocking surface the plain queue and the shared wrapper
    /// must agree on.
    trait NonBlocking {
        fn with(capacity: usize, policy: OverflowPolicy) -> Self;
        /// The producer's push: `push_typed` on the wrapper (which never
        /// has to wait in the scenarios below), `try_push` on the core.
        fn push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>>;
        fn try_push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>>;
        fn try_pop(&mut self) -> Option<i32>;
        fn len(&mut self) -> usize;
        /// `(dropped_overflow, dropped_closed)`.
        fn dropped(&mut self) -> (u64, u64);
        fn close(&mut self);
    }

    impl NonBlocking for BoundedQueue<i32> {
        fn with(capacity: usize, policy: OverflowPolicy) -> Self {
            Self::new(capacity, policy)
        }
        fn push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>> {
            BoundedQueue::try_push(self, item)
        }
        fn try_push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>> {
            BoundedQueue::try_push(self, item)
        }
        fn try_pop(&mut self) -> Option<i32> {
            BoundedQueue::try_pop(self)
        }
        fn len(&mut self) -> usize {
            BoundedQueue::len(self)
        }
        fn dropped(&mut self) -> (u64, u64) {
            (self.dropped_overflow(), self.dropped_closed())
        }
        fn close(&mut self) {
            BoundedQueue::close(self);
        }
    }

    impl NonBlocking for IngestQueue<i32> {
        fn with(capacity: usize, policy: OverflowPolicy) -> Self {
            Self::new(capacity, policy)
        }
        fn push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>> {
            self.push_typed(item)
        }
        fn try_push(&mut self, item: i32) -> Result<Accepted, PushRejected<i32>> {
            IngestQueue::try_push(self, item)
        }
        fn try_pop(&mut self) -> Option<i32> {
            IngestQueue::try_pop(self)
        }
        fn len(&mut self) -> usize {
            IngestQueue::len(self)
        }
        fn dropped(&mut self) -> (u64, u64) {
            (self.dropped_overflow(), self.dropped_closed())
        }
        fn close(&mut self) {
            IngestQueue::close(self);
        }
    }

    fn nonblocking_contract<Q: NonBlocking>() {
        // FIFO order and depth.
        let mut q = Q::with(4, OverflowPolicy::Block);
        assert_eq!(q.push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.push(2), Ok(Accepted::Enqueued));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);

        // DropOldest bounds the depth and counts every eviction.
        let mut q = Q::with(3, OverflowPolicy::DropOldest);
        for v in 0..10 {
            let accepted = q.push(v).expect("DropOldest never rejects while open");
            if v < 3 {
                assert_eq!(accepted, Accepted::Enqueued);
            } else {
                assert_eq!(accepted, Accepted::Displaced { evicted: 1 });
            }
            assert!(q.len() <= 3, "queue exceeded its bound");
        }
        assert_eq!(q.dropped(), (7, 0));
        // The newest three survive.
        assert_eq!(
            [q.try_pop(), q.try_pop(), q.try_pop()],
            [Some(7), Some(8), Some(9)]
        );

        // A full Block queue hands the item back: backpressure, not a
        // drop, so nothing is counted.
        let mut q = Q::with(1, OverflowPolicy::Block);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Err(PushRejected::Full(2)));
        assert_eq!(q.dropped(), (0, 0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(2), Ok(Accepted::Enqueued));

        // A full DropOldest queue displaces exactly one.
        let mut q = Q::with(1, OverflowPolicy::DropOldest);
        assert_eq!(q.try_push(1), Ok(Accepted::Enqueued));
        assert_eq!(q.try_push(2), Ok(Accepted::Displaced { evicted: 1 }));
        assert_eq!(q.dropped(), (1, 0));
        assert_eq!(q.try_pop(), Some(2));

        // Closed rejections are counted separately; what is buffered
        // still drains.
        let mut q = Q::with(4, OverflowPolicy::DropOldest);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushRejected::Closed(2)));
        assert_eq!(q.try_push(3), Err(PushRejected::Closed(3)));
        assert_eq!(q.dropped(), (0, 2));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn plain_queue_honours_the_nonblocking_contract() {
        nonblocking_contract::<BoundedQueue<i32>>();
    }

    #[test]
    fn shared_queue_honours_the_nonblocking_contract() {
        nonblocking_contract::<IngestQueue<i32>>();
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
        assert_eq!(restored.dropped_overflow(), 2);
        assert_eq!(restored.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(restored.try_pop(), Some(2));
        assert_eq!(restored.len(), 2);
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
