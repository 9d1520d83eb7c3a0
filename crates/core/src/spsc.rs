//! Bounded SPSC rings — the sharded engine's worker transport.
//!
//! The dispatch plane ships prepared sub-batches to shard workers and
//! recycles drained buffers back over [`SpscRing`]s: fixed-capacity
//! single-producer/single-consumer queues with **backpressure** (a full
//! ring rejects the push; the dispatcher spins the message into the
//! ring when the worker frees a slot) instead of the unbounded,
//! node-allocating queueing of `std::sync::mpsc`. Steady-state traffic
//! allocates nothing: the slot array is fixed at construction and the
//! payloads it carries are recycled by the return ring.
//!
//! It is the workspace's one SPSC ring: the same type also models the
//! OVS datapath↔user-space shared-memory region in `hk-ovs`, where the
//! datapath mirrors flow IDs into it and the consumer drains them in
//! batches ([`SpscRing::pop_batch`]). It stays inside
//! `forbid(unsafe_code)`: each slot is a tiny `Mutex<Option<T>>` that
//! is uncontended under the SPSC discipline, with head/tail cursors
//! advanced only by their owning side. A close flag gives orderly
//! shutdown, and `Err`-returning pushes let a producer tell "full,
//! consumer alive → wait (or drop)" from "closed → stop".
//!
//! **SPSC contract:** at any moment at most one thread pushes and at
//! most one thread pops. The sides may be *handed over* (the engine
//! serializes all producer-side calls under its pending-buffer lock),
//! but two threads must never race the same side — the cursor updates
//! are plain load/store pairs that are only race-free under that
//! discipline.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// Every slot is occupied; the consumer must drain first. The item
    /// is handed back so the producer can retry (backpressure).
    Full(T),
    /// The ring was closed; no more items will ever be consumed.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the item that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// A bounded single-producer/single-consumer ring with a close flag.
///
/// # Examples
///
/// ```
/// use heavykeeper::spsc::SpscRing;
/// let ring: SpscRing<u64> = SpscRing::new(4);
/// assert!(ring.try_push(7).is_ok());
/// assert_eq!(ring.try_pop(), Some(7));
/// assert_eq!(ring.try_pop(), None);
/// ```
#[derive(Debug)]
pub struct SpscRing<T> {
    slots: Vec<Mutex<Option<T>>>,
    /// Consumer cursor (only the consumer advances it).
    head: AtomicUsize,
    /// Producer cursor (only the producer advances it).
    tail: AtomicUsize,
    /// Occupied slots; the producer increments after writing, the
    /// consumer decrements after taking. `SeqCst` so the emptiness
    /// check can participate in the engine's sleep/wake handshake
    /// (flag-then-recheck on the worker, push-then-check on the
    /// dispatcher) without a missed-wakeup window.
    len: AtomicUsize,
    closed: AtomicBool,
    /// Successful pushes over the ring's lifetime (observability;
    /// relaxed — statistical, never part of the handshake).
    pushes: AtomicU64,
    /// Successful pops over the ring's lifetime.
    pops: AtomicU64,
}

impl<T> SpscRing<T> {
    /// Creates a ring with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        // hk-lint: allow(panic-free-worker-paths) construction-time contract — a zero-capacity ring is a build bug, not a runtime fault
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            pushes: AtomicU64::new(0),
            pops: AtomicU64::new(0),
        }
    }

    /// Attempts to push. A refused item comes back in the error so a
    /// backpressured producer retries without cloning.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        if self.len.load(Ordering::SeqCst) == self.slots.len() {
            return Err(PushError::Full(item));
        }
        let tail = self.tail.load(Ordering::Relaxed);
        // Poison cannot tear a slot: the critical section is a plain
        // Option swap. Absorb it rather than cascade the panic.
        *self.slots[tail % self.slots.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(item);
        self.tail.store(tail.wrapping_add(1), Ordering::Relaxed);
        self.len.fetch_add(1, Ordering::SeqCst);
        self.pushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attempts to pop one item. Items enqueued before [`SpscRing::close`]
    /// remain poppable after it (drain-then-stop shutdown).
    pub fn try_pop(&self) -> Option<T> {
        if self.len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let head = self.head.load(Ordering::Relaxed);
        let item = self.slots[head % self.slots.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        debug_assert!(item.is_some(), "len > 0 implies an occupied head slot");
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
        self.len.fetch_sub(1, Ordering::SeqCst);
        self.pops.fetch_add(1, Ordering::Relaxed);
        item
    }

    /// Marks the ring closed: further pushes fail with
    /// [`PushError::Closed`]; already-queued items stay poppable.
    /// Either side may close (the engine closes from the dispatcher on
    /// drop; a consumer may close to refuse further work).
    ///
    /// `SeqCst` so close participates in the same sleep/wake handshake
    /// as pushes: close-then-wake on one side, flag-then-recheck on the
    /// other, with the total order guaranteeing one side sees the
    /// other.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// True once [`SpscRing::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// True when the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    /// Occupied slots right now.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Successful pushes over the ring's lifetime (relaxed).
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Successful pops over the ring's lifetime (relaxed).
    pub fn pops(&self) -> u64 {
        self.pops.load(Ordering::Relaxed)
    }

    /// True when every slot is occupied — the next `try_push` would
    /// return [`PushError::Full`]. Advisory on the producer side (the
    /// consumer may free a slot at any moment): a shedding dispatcher
    /// uses it to decide *before* building a message, the push result
    /// stays the source of truth.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Drains up to `max` items into `out`, returning how many were
    /// taken. This is the consumer-side batch boundary: one call's
    /// worth of items becomes one `insert_batch`.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.try_pop() {
                Some(item) => {
                    out.push(item);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_empty() {
        let ring: SpscRing<u32> = SpscRing::new(8);
        assert_eq!(ring.try_pop(), None, "fresh ring is empty");
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn push_pop_counters_track_successes_only() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert!(ring.try_push(3).is_err(), "full push must not count");
        assert_eq!(ring.pushes(), 2);
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.pops(), 1);
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), None, "empty pop must not count");
        assert_eq!((ring.pushes(), ring.pops()), (2, 2));
    }

    #[test]
    fn full_hands_item_back() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        assert!(!ring.is_full());
        ring.try_push(1).unwrap();
        assert!(!ring.is_full());
        ring.try_push(2).unwrap();
        assert!(ring.is_full(), "capacity reached");
        match ring.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3, "backpressure returns the item"),
            other => panic!("expected Full, got {other:?}"),
        }
        // One pop frees exactly one slot.
        assert_eq!(ring.try_pop(), Some(1));
        ring.try_push(3).unwrap();
        assert!(matches!(ring.try_push(4), Err(PushError::Full(4))));
    }

    #[test]
    fn wraparound_many_times_over() {
        // A tiny ring cycled far past its capacity: cursors wrap, FIFO
        // order and occupancy stay exact.
        let ring: SpscRing<u64> = SpscRing::new(3);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..10_000 {
            let burst = 1 + round % 3;
            for _ in 0..burst {
                if ring.try_push(next_in).is_ok() {
                    next_in += 1;
                }
            }
            while let Some(v) = ring.try_pop() {
                assert_eq!(v, next_out, "FIFO across wraparound");
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
        assert!(next_in > 10_000, "the ring actually cycled");
    }

    #[test]
    fn slow_consumer_backpressure_loses_nothing() {
        // Producer thread spins full pushes against a deliberately slow
        // consumer: every item arrives exactly once, in order, and the
        // occupancy never exceeds capacity.
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(4));
        let n = 50_000u64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut full_hits = 0u64;
                for i in 0..n {
                    let mut item = i;
                    loop {
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                full_hits += 1;
                                item = back;
                                std::hint::spin_loop();
                            }
                            Err(PushError::Closed(_)) => panic!("ring closed mid-stream"),
                        }
                    }
                }
                full_hits
            })
        };
        let mut expected = 0u64;
        while expected < n {
            assert!(ring.len() <= ring.capacity());
            if let Some(v) = ring.try_pop() {
                assert_eq!(v, expected, "SPSC order must hold");
                expected += 1;
                if expected.is_multiple_of(64) {
                    std::thread::yield_now(); // Let the producer hit Full.
                }
            } else {
                std::hint::spin_loop();
            }
        }
        let full_hits = producer.join().unwrap();
        assert!(
            full_hits > 0,
            "consumer was never slow enough to exercise backpressure"
        );
    }

    #[test]
    fn pop_batch_respects_max_and_order() {
        let ring: SpscRing<u32> = SpscRing::new(16);
        for i in 0..10 {
            ring.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ring.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(ring.pop_batch(&mut out, 8), 0, "empty ring drains nothing");
    }

    #[test]
    fn cross_thread_batch_drain() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(128));
        let n = 50_000u64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut item = i;
                    while let Err(PushError::Full(back)) = ring.try_push(item) {
                        item = back;
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut got = Vec::new();
        while (got.len() as u64) < n {
            if ring.pop_batch(&mut got, 256) == 0 {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        let expect: Vec<u64> = (0..n).collect();
        assert_eq!(got, expect, "batch drain preserves SPSC order");
    }

    #[test]
    fn close_refuses_pushes_but_drains_queued() {
        let ring: SpscRing<u32> = SpscRing::new(4);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        ring.close();
        assert!(ring.is_closed());
        assert!(matches!(ring.try_push(3), Err(PushError::Closed(3))));
        // Shutdown is drain-then-stop: the backlog survives the close.
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn consumer_side_close_fails_inflight_push_with_closed_not_full() {
        // The wedge-fault path: a consumer that stops consuming closes
        // the ring from its side. A producer spinning on backpressure
        // against a *full* ring must then see `Closed` (stop, poison
        // the shard), never keep getting `Full` (spin forever).
        let ring: Arc<SpscRing<u32>> = Arc::new(SpscRing::new(2));
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert!(matches!(ring.try_push(3), Err(PushError::Full(3))));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                ring.close(); // Refuse further work, drain nothing.
            })
        };
        consumer.join().unwrap();
        // The ring is still full, but Closed must win over Full:
        // backpressure on a wedged consumer is not backpressure.
        assert!(matches!(ring.try_push(3), Err(PushError::Closed(3))));
        // The wedged backlog stays poppable (drain-then-stop), so an
        // engine that wanted to salvage it still could.
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn close_races_concurrent_pops_without_losing_the_backlog() {
        // Close-during-pop: a consumer draining while the other side
        // closes must observe every queued item exactly once — close is
        // a pure push-gate, invisible to the pop path.
        for _ in 0..100 {
            let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(8));
            for i in 0..8 {
                ring.try_push(i).unwrap();
            }
            let closer = {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || ring.close())
            };
            let mut got = Vec::new();
            while got.len() < 8 {
                if let Some(v) = ring.try_pop() {
                    got.push(v);
                }
            }
            closer.join().unwrap();
            assert_eq!(got, (0..8).collect::<Vec<_>>());
            assert!(ring.is_closed());
        }
    }

    #[test]
    fn fresh_ring_after_close_carries_a_new_stream() {
        // The respawn path: a dead shard's rings are abandoned (closed,
        // possibly non-empty) and replaced wholesale. The replacement
        // must be fully independent — open, empty, and unaffected by
        // the old ring's state.
        let old: SpscRing<u32> = SpscRing::new(4);
        old.try_push(7).unwrap();
        old.close();
        let fresh: SpscRing<u32> = SpscRing::new(4);
        assert!(!fresh.is_closed());
        assert!(fresh.is_empty());
        fresh.try_push(42).unwrap();
        assert_eq!(fresh.try_pop(), Some(42));
        // And the abandoned ring still honors drain-then-stop.
        assert_eq!(old.try_pop(), Some(7));
        assert!(matches!(old.try_push(8), Err(PushError::Closed(8))));
    }

    #[test]
    fn dropping_the_ring_drops_queued_items() {
        // Worker-death semantics: when a ring goes away with items still
        // queued (the engine dropping a poisoned shard's transport), the
        // items are dropped — not leaked, not double-dropped.
        let sentinel = Arc::new(());
        {
            let ring: SpscRing<Arc<()>> = SpscRing::new(8);
            for _ in 0..5 {
                ring.try_push(Arc::clone(&sentinel)).unwrap();
            }
            assert_eq!(Arc::strong_count(&sentinel), 6);
            assert_eq!(ring.len(), 5);
        }
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "queued items must be dropped with the ring"
        );
    }
}
