//! The Stream-Summary data structure of Metwally et al. (ICDT 2005).
//!
//! Stream-Summary keeps a bounded set of `(key, count)` pairs ordered by
//! count with O(1) amortized access to the minimum, O(1) membership, and
//! O(1) amortized increment. It is the structure Space-Saving is built on
//! and the one the HeavyKeeper paper actually uses for top-k bookkeeping
//! ("in our implementation, we use Stream-Summary instead of min-heap",
//! Section III-C).
//!
//! Layout: *buckets* hold a distinct count value each and are kept in a
//! doubly-linked list sorted by ascending count; every bucket owns a
//! doubly-linked list of the items having exactly that count. Raising an
//! item that is alone in its bucket to a count strictly between its
//! neighbouring buckets' counts is one count write: the bucket keeps its
//! place. Any other count change relinks: the item detaches from its
//! bucket and attaches to the bucket for its new count, found by walking
//! from the old bucket and created there if no item has that count.

use crate::hash::FastHashMap;
use std::hash::Hash;

/// Slab index newtype for item nodes. `usize::MAX` is used as "none" in
/// the intrusive links (kept private).
const NIL: usize = usize::MAX;

/// Most entries a bounded top-k structure reserves up front; a larger
/// capacity grows on demand. A capacity can come off the wire (a
/// decoded sketch's `k`), and reserving it whole would let a few bytes
/// claiming `k = 2^32` allocate gigabytes.
pub(crate) const PREALLOC_LIMIT: usize = 1 << 16;

/// A tracked key's place in a [`StreamSummary`], from
/// [`StreamSummary::find`] or [`StreamSummary::insert_absent`]: reading
/// or setting a count through it needs no hash of the key. It stays
/// valid until its key leaves the summary; after `evict_min`, `remove`
/// or `clear` the same handle may name another key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(usize);

#[derive(Debug, Clone)]
struct ItemNode<K> {
    key: K,
    bucket: usize,
    prev: usize,
    next: usize,
}

#[derive(Debug, Clone)]
struct BucketNode {
    count: u64,
    /// Head of this bucket's item list.
    head: usize,
    prev: usize,
    next: usize,
}

/// A bounded, count-ordered summary of keys with O(1) amortized updates.
///
/// # Examples
///
/// ```
/// use hk_common::stream_summary::StreamSummary;
/// let mut ss = StreamSummary::new(2);
/// ss.insert("a", 1);
/// ss.insert("b", 5);
/// assert_eq!(ss.min_count(), Some(1));
/// // Evict the minimum to make room (Space-Saving style).
/// let (evicted, count) = ss.evict_min().unwrap();
/// assert_eq!((evicted, count), ("a", 1));
/// ```
#[derive(Debug, Clone)]
pub struct StreamSummary<K: Eq + Hash + Clone> {
    items: Vec<ItemNode<K>>,
    free_items: Vec<usize>,
    buckets: Vec<BucketNode>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count, or NIL when empty.
    min_bucket: usize,
    /// Bucket with the largest count, or NIL when empty.
    max_bucket: usize,
    index: FastHashMap<K, usize>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone> StreamSummary<K> {
    /// Creates a summary holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let reserve = capacity.min(PREALLOC_LIMIT);
        Self {
            items: Vec::with_capacity(reserve),
            free_items: Vec::new(),
            buckets: Vec::with_capacity(capacity.min(1024)),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            max_bucket: NIL,
            index: FastHashMap::with_capacity_and_hasher(reserve, Default::default()),
            capacity,
        }
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when the summary holds `capacity` keys.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// True if `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The count associated with `key`, if tracked.
    pub fn count(&self, key: &K) -> Option<u64> {
        self.find(key).map(|h| self.count_at(h))
    }

    /// Looks `key` up once: its handle if tracked.
    #[inline]
    pub fn find(&self, key: &K) -> Option<Handle> {
        self.index.get(key).map(|&i| Handle(i))
    }

    /// The count of the key at `h`.
    #[inline]
    pub fn count_at(&self, h: Handle) -> u64 {
        self.buckets[self.items[h.0].bucket].count
    }

    /// Sets the count of the key at `h` (up or down) and returns the old
    /// count. An unchanged count leaves the key where it is, so ties keep
    /// their order.
    #[inline]
    pub fn set_count_at(&mut self, h: Handle, count: u64) -> u64 {
        let old_bucket = self.items[h.0].bucket;
        let old = self.buckets[old_bucket].count;
        if old != count {
            self.move_item(h.0, old_bucket, count);
        }
        old
    }

    /// The smallest count among tracked keys (`None` when empty).
    pub fn min_count(&self) -> Option<u64> {
        if self.min_bucket == NIL {
            None
        } else {
            Some(self.buckets[self.min_bucket].count)
        }
    }

    /// The largest count among tracked keys (`None` when empty).
    pub fn max_count(&self) -> Option<u64> {
        if self.max_bucket == NIL {
            None
        } else {
            Some(self.buckets[self.max_bucket].count)
        }
    }

    fn alloc_item(&mut self, key: K, bucket: usize) -> usize {
        let node = ItemNode {
            key,
            bucket,
            prev: NIL,
            next: NIL,
        };
        if let Some(i) = self.free_items.pop() {
            self.items[i] = node;
            i
        } else {
            self.items.push(node);
            self.items.len() - 1
        }
    }

    fn alloc_bucket(&mut self, count: u64) -> usize {
        let node = BucketNode {
            count,
            head: NIL,
            prev: NIL,
            next: NIL,
        };
        if let Some(i) = self.free_buckets.pop() {
            self.buckets[i] = node;
            i
        } else {
            self.buckets.push(node);
            self.buckets.len() - 1
        }
    }

    /// Attaches item `i` at the head of bucket `b`.
    fn attach(&mut self, i: usize, b: usize) {
        let old_head = self.buckets[b].head;
        self.items[i].bucket = b;
        self.items[i].prev = NIL;
        self.items[i].next = old_head;
        if old_head != NIL {
            self.items[old_head].prev = i;
        }
        self.buckets[b].head = i;
    }

    /// Detaches item `i` from its bucket; frees the bucket if it empties.
    fn detach(&mut self, i: usize) {
        let b = self.items[i].bucket;
        let (prev, next) = (self.items[i].prev, self.items[i].next);
        if prev != NIL {
            self.items[prev].next = next;
        } else {
            self.buckets[b].head = next;
        }
        if next != NIL {
            self.items[next].prev = prev;
        }
        if self.buckets[b].head == NIL {
            self.unlink_bucket(b);
        }
        self.items[i].prev = NIL;
        self.items[i].next = NIL;
    }

    fn unlink_bucket(&mut self, b: usize) {
        let (prev, next) = (self.buckets[b].prev, self.buckets[b].next);
        if prev != NIL {
            self.buckets[prev].next = next;
        } else {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        } else {
            self.max_bucket = prev;
        }
        self.free_buckets.push(b);
    }

    /// Finds (or creates) the bucket with exactly `count`, searching from
    /// `hint` (a bucket index or NIL) in the appropriate direction.
    fn bucket_for(&mut self, count: u64, hint: usize) -> usize {
        // Establish a starting point.
        let mut cur = if hint != NIL { hint } else { self.min_bucket };
        if cur == NIL {
            // Empty structure: create the first bucket.
            let b = self.alloc_bucket(count);
            self.min_bucket = b;
            self.max_bucket = b;
            return b;
        }
        // Walk toward the target count.
        while self.buckets[cur].count < count
            && self.buckets[cur].next != NIL
            && self.buckets[self.buckets[cur].next].count <= count
        {
            cur = self.buckets[cur].next;
        }
        while self.buckets[cur].count > count
            && self.buckets[cur].prev != NIL
            && self.buckets[self.buckets[cur].prev].count >= count
        {
            cur = self.buckets[cur].prev;
        }
        if self.buckets[cur].count == count {
            return cur;
        }
        // Insert a new bucket adjacent to `cur`.
        let b = self.alloc_bucket(count);
        if self.buckets[cur].count < count {
            // Insert after cur.
            let next = self.buckets[cur].next;
            self.buckets[b].prev = cur;
            self.buckets[b].next = next;
            self.buckets[cur].next = b;
            if next != NIL {
                self.buckets[next].prev = b;
            } else {
                self.max_bucket = b;
            }
        } else {
            // Insert before cur.
            let prev = self.buckets[cur].prev;
            self.buckets[b].next = cur;
            self.buckets[b].prev = prev;
            self.buckets[cur].prev = b;
            if prev != NIL {
                self.buckets[prev].next = b;
            } else {
                self.min_bucket = b;
            }
        }
        b
    }

    /// Inserts a new key with the given count.
    ///
    /// Returns `false` (and does nothing) if the summary is full or the key
    /// is already present; use [`StreamSummary::evict_min`] or
    /// [`StreamSummary::set_count`] respectively for those cases.
    pub fn insert(&mut self, key: K, count: u64) -> bool {
        if self.is_full() || self.contains(&key) {
            return false;
        }
        self.insert_absent(key, count);
        true
    }

    /// Inserts a key the caller knows is absent, skipping the lookup
    /// [`StreamSummary::insert`] makes, and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the summary is full. Inserting a key that is already
    /// tracked breaks the index (debug builds panic).
    pub fn insert_absent(&mut self, key: K, count: u64) -> Handle {
        assert!(!self.is_full(), "insert_absent into a full summary");
        debug_assert!(!self.contains(&key), "insert_absent of a tracked key");
        let b = self.bucket_for(count, NIL);
        let i = self.alloc_item(key.clone(), b);
        self.attach(i, b);
        self.index.insert(key, i);
        Handle(i)
    }

    /// Removes every key, keeping the item slab, the bucket list and
    /// the index at their capacity: a cleared summary refills without
    /// allocating, and behaves exactly like a new one.
    pub fn clear(&mut self) {
        self.items.clear();
        self.free_items.clear();
        self.buckets.clear();
        self.free_buckets.clear();
        self.min_bucket = NIL;
        self.max_bucket = NIL;
        self.index.clear();
    }

    /// Removes and returns one key with the minimum count.
    pub fn evict_min(&mut self) -> Option<(K, u64)> {
        if self.min_bucket == NIL {
            return None;
        }
        let count = self.buckets[self.min_bucket].count;
        let i = self.buckets[self.min_bucket].head;
        debug_assert_ne!(i, NIL);
        let key = self.items[i].key.clone();
        self.detach(i);
        self.free_items.push(i);
        self.index.remove(&key);
        Some((key, count))
    }

    /// Removes a specific key, returning its count.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let i = *self.index.get(key)?;
        let count = self.buckets[self.items[i].bucket].count;
        self.detach(i);
        self.free_items.push(i);
        self.index.remove(key);
        Some(count)
    }

    /// Increments `key`'s count by `by`. Returns the new count, or `None`
    /// if the key is not tracked.
    pub fn increment(&mut self, key: &K, by: u64) -> Option<u64> {
        let i = *self.index.get(key)?;
        let old_bucket = self.items[i].bucket;
        let new_count = self.buckets[old_bucket].count + by;
        self.move_item(i, old_bucket, new_count);
        Some(new_count)
    }

    /// Sets `key`'s count to `count` (up or down). Returns the old count,
    /// or `None` if the key is not tracked.
    pub fn set_count(&mut self, key: &K, count: u64) -> Option<u64> {
        let h = self.find(key)?;
        Some(self.set_count_at(h, count))
    }

    /// Moves item `i` from `old_bucket` to the bucket for `new_count`.
    ///
    /// An item alone in its bucket whose new count lies strictly between
    /// the previous and next buckets' counts keeps its bucket, and only
    /// the count is written. The relink would end in the same state,
    /// node indices included: `detach` frees the bucket and pushes it on
    /// the free list, `bucket_for` finds no bucket with the new count
    /// between the same two neighbours and allocates one there, and the
    /// free list is LIFO, so it hands back the node just freed, which
    /// `attach` makes the item's again.
    fn move_item(&mut self, i: usize, old_bucket: usize, new_count: u64) {
        let (p, n) = (self.buckets[old_bucket].prev, self.buckets[old_bucket].next);
        let alone = self.buckets[old_bucket].head == i && self.items[i].next == NIL;
        if alone
            && (p == NIL || self.buckets[p].count < new_count)
            && (n == NIL || self.buckets[n].count > new_count)
        {
            self.buckets[old_bucket].count = new_count;
            return;
        }
        self.detach(i);
        // `detach` frees an emptied bucket, so search from a neighbour.
        let hint = match (alone, n) {
            (false, _) => old_bucket,
            (true, NIL) => p,
            (true, _) => n,
        };
        let b = self.bucket_for(new_count, hint);
        self.attach(i, b);
    }

    /// Iterates over `(key, count)` pairs in descending count order.
    pub fn iter_desc(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        DescIter {
            ss: self,
            bucket: self.max_bucket,
            item: if self.max_bucket == NIL {
                NIL
            } else {
                self.buckets[self.max_bucket].head
            },
        }
    }

    /// Returns the top `k` keys by count, descending.
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        self.iter_desc()
            .take(k)
            .map(|(key, c)| (key.clone(), c))
            .collect()
    }

    /// Exhaustively checks internal invariants; used by tests.
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    pub fn check_invariants(&self) {
        // Walk the bucket list forward: counts strictly increasing.
        let mut seen_items = 0usize;
        let mut b = self.min_bucket;
        let mut prev_b = NIL;
        let mut last_count: Option<u64> = None;
        while b != NIL {
            let bucket = &self.buckets[b];
            assert_eq!(bucket.prev, prev_b, "bucket prev link broken");
            if let Some(lc) = last_count {
                assert!(bucket.count > lc, "bucket counts not strictly ascending");
            }
            last_count = Some(bucket.count);
            assert_ne!(bucket.head, NIL, "empty bucket not freed");
            // Walk the item list.
            let mut i = bucket.head;
            let mut prev_i = NIL;
            while i != NIL {
                let item = &self.items[i];
                assert_eq!(item.bucket, b, "item bucket backpointer wrong");
                assert_eq!(item.prev, prev_i, "item prev link broken");
                assert_eq!(self.index.get(&item.key), Some(&i), "index out of sync");
                seen_items += 1;
                prev_i = i;
                i = item.next;
            }
            prev_b = b;
            b = bucket.next;
        }
        assert_eq!(prev_b, self.max_bucket, "max_bucket pointer wrong");
        assert_eq!(seen_items, self.index.len(), "item count mismatch");
        assert!(self.index.len() <= self.capacity, "over capacity");
    }
}

struct DescIter<'a, K: Eq + Hash + Clone> {
    ss: &'a StreamSummary<K>,
    bucket: usize,
    item: usize,
}

impl<'a, K: Eq + Hash + Clone> Iterator for DescIter<'a, K> {
    type Item = (&'a K, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.bucket != NIL {
            if self.item != NIL {
                let node = &self.ss.items[self.item];
                let count = self.ss.buckets[self.bucket].count;
                self.item = node.next;
                return Some((&node.key, count));
            }
            self.bucket = self.ss.buckets[self.bucket].prev;
            self.item = if self.bucket == NIL {
                NIL
            } else {
                self.ss.buckets[self.bucket].head
            };
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut ss = StreamSummary::new(4);
        assert!(ss.insert("a", 3));
        assert!(ss.insert("b", 1));
        assert!(ss.insert("c", 7));
        ss.check_invariants();
        assert_eq!(ss.count(&"a"), Some(3));
        assert_eq!(ss.min_count(), Some(1));
        assert_eq!(ss.max_count(), Some(7));
        assert_eq!(ss.len(), 3);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut ss = StreamSummary::new(4);
        assert!(ss.insert("a", 1));
        assert!(!ss.insert("a", 2));
        assert_eq!(ss.count(&"a"), Some(1));
    }

    #[test]
    fn full_insert_rejected() {
        let mut ss = StreamSummary::new(2);
        assert!(ss.insert("a", 1));
        assert!(ss.insert("b", 2));
        assert!(!ss.insert("c", 3));
        assert!(ss.is_full());
    }

    #[test]
    fn evict_min_takes_smallest() {
        let mut ss = StreamSummary::new(3);
        ss.insert("a", 5);
        ss.insert("b", 2);
        ss.insert("c", 9);
        let (k, c) = ss.evict_min().unwrap();
        assert_eq!((k, c), ("b", 2));
        ss.check_invariants();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.min_count(), Some(5));
    }

    #[test]
    fn increment_moves_between_buckets() {
        let mut ss = StreamSummary::new(3);
        ss.insert("a", 1);
        ss.insert("b", 1);
        ss.increment(&"a", 1);
        ss.check_invariants();
        assert_eq!(ss.count(&"a"), Some(2));
        assert_eq!(ss.count(&"b"), Some(1));
        assert_eq!(ss.min_count(), Some(1));
        ss.increment(&"b", 5);
        ss.check_invariants();
        assert_eq!(ss.min_count(), Some(2));
        assert_eq!(ss.max_count(), Some(6));
    }

    #[test]
    fn set_count_jumps() {
        let mut ss = StreamSummary::new(4);
        ss.insert("a", 1);
        ss.insert("b", 10);
        ss.insert("c", 100);
        ss.set_count(&"a", 50);
        ss.check_invariants();
        assert_eq!(ss.count(&"a"), Some(50));
        assert_eq!(ss.min_count(), Some(10));
        // Jump downwards too.
        ss.set_count(&"c", 5);
        ss.check_invariants();
        assert_eq!(ss.min_count(), Some(5));
    }

    #[test]
    fn iter_desc_sorted() {
        let mut ss = StreamSummary::new(8);
        for (k, c) in [("a", 3), ("b", 9), ("c", 1), ("d", 9), ("e", 4)] {
            ss.insert(k, c);
        }
        let counts: Vec<u64> = ss.iter_desc().map(|(_, c)| c).collect();
        assert_eq!(counts.len(), 5);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(counts[0], 9);
        assert_eq!(counts[4], 1);
    }

    #[test]
    fn top_k_returns_largest() {
        let mut ss = StreamSummary::new(8);
        for i in 1..=8u64 {
            ss.insert(i, i * 10);
        }
        let top3 = ss.top_k(3);
        let keys: Vec<u64> = top3.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![8, 7, 6]);
    }

    #[test]
    fn remove_specific_key() {
        let mut ss = StreamSummary::new(4);
        ss.insert("a", 1);
        ss.insert("b", 2);
        assert_eq!(ss.remove(&"a"), Some(1));
        assert_eq!(ss.remove(&"a"), None);
        ss.check_invariants();
        assert_eq!(ss.len(), 1);
        assert_eq!(ss.min_count(), Some(2));
    }

    #[test]
    fn space_saving_usage_pattern() {
        // Emulate Space-Saving: stream of keys, bounded summary.
        let mut ss = StreamSummary::new(10);
        let stream: Vec<u32> = (0..1000).map(|i| i % 37).collect();
        for key in stream {
            if ss.contains(&key) {
                ss.increment(&key, 1);
            } else if !ss.is_full() {
                ss.insert(key, 1);
            } else {
                let min = ss.min_count().unwrap();
                ss.evict_min();
                ss.insert(key, min + 1);
            }
            ss.check_invariants();
        }
        assert_eq!(ss.len(), 10);
    }

    #[test]
    fn many_random_ops_keep_invariants() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut ss: StreamSummary<u32> = StreamSummary::new(16);
        // The counts every op should leave, keyed like the summary.
        let mut model: HashMap<u32, u64> = HashMap::new();
        for _ in 0..8000 {
            let key = rng.gen_range(0..64u32);
            match rng.gen_range(0..7) {
                0 => {
                    if !ss.contains(&key) && !ss.is_full() {
                        let c = rng.gen_range(1..100);
                        assert!(ss.insert(key, c));
                        model.insert(key, c);
                    }
                }
                1 => {
                    if ss.contains(&key) {
                        let by = rng.gen_range(1..5);
                        let new = ss.increment(&key, by).unwrap();
                        *model.get_mut(&key).unwrap() += by;
                        assert_eq!(new, model[&key]);
                    }
                }
                2 => {
                    if ss.contains(&key) {
                        let c = rng.gen_range(1..200);
                        ss.set_count(&key, c);
                        model.insert(key, c);
                    }
                }
                3 => {
                    // Find, then read by handle.
                    match ss.find(&key) {
                        Some(h) => assert_eq!(ss.count_at(h), model[&key]),
                        None => assert!(!model.contains_key(&key)),
                    }
                }
                4 => {
                    // Find, then set by handle (sometimes to the same count).
                    if let Some(h) = ss.find(&key) {
                        let c = if rng.gen_bool(0.2) {
                            model[&key]
                        } else {
                            rng.gen_range(1..200)
                        };
                        assert_eq!(ss.set_count_at(h, c), model[&key]);
                        assert_eq!(ss.count_at(h), c);
                        model.insert(key, c);
                    }
                }
                5 => {
                    // The absent-key insert, then read through its handle.
                    if ss.find(&key).is_none() && !ss.is_full() {
                        let c = rng.gen_range(1..100);
                        let h = ss.insert_absent(key, c);
                        assert_eq!(ss.find(&key), Some(h));
                        assert_eq!(ss.count_at(h), c);
                        model.insert(key, c);
                    }
                }
                _ => {
                    if ss.is_full() {
                        let (k, c) = ss.evict_min().unwrap();
                        assert_eq!(model.remove(&k), Some(c));
                    }
                }
            }
            ss.check_invariants();
            assert_eq!(ss.len(), model.len());
        }
    }

    #[test]
    fn clear_keeps_capacity_and_refills_like_new() {
        // A mixed workload: inserts, raises, a drop, evictions.
        fn drive(ss: &mut StreamSummary<u32>, salt: u32) {
            for i in 0..40u32 {
                let key = (i * 7 + salt) % 23;
                match ss.find(&key) {
                    Some(h) => {
                        let c = ss.count_at(h);
                        ss.set_count_at(h, c + u64::from(i % 3));
                    }
                    None => {
                        if ss.is_full() {
                            ss.evict_min();
                        }
                        ss.insert_absent(key, u64::from(i % 5 + 1));
                    }
                }
                if i % 11 == 0 {
                    ss.set_count(&key, 1);
                }
            }
        }
        let mut reused = StreamSummary::new(8);
        drive(&mut reused, 5);
        let caps = (
            reused.items.capacity(),
            reused.buckets.capacity(),
            reused.index.capacity(),
        );
        reused.clear();
        reused.check_invariants();
        assert!(reused.is_empty());
        assert_eq!((reused.min_count(), reused.max_count()), (None, None));
        assert_eq!(
            (
                reused.items.capacity(),
                reused.buckets.capacity(),
                reused.index.capacity()
            ),
            caps,
            "clear must keep the allocations"
        );
        drive(&mut reused, 0);
        reused.check_invariants();
        let mut fresh = StreamSummary::new(8);
        drive(&mut fresh, 0);
        assert!(reused.iter_desc().eq(fresh.iter_desc()));
        assert_eq!(reused.len(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        StreamSummary::<u32>::new(0);
    }
}
