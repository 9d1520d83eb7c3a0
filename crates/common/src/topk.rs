//! An indexed min-heap top-k tracker.
//!
//! The paper explains its top-k bookkeeping in terms of a min-heap
//! (Section III-C) and implements it with Stream-Summary. This module
//! provides the min-heap variant with a position index so that
//! `update(key, count)` — needed when HeavyKeeper reports a larger size
//! for a flow already in the heap — runs in O(log k) instead of O(k).
//!
//! The workspace uses both structures and tests their observational
//! equivalence (same top-k sets under the same update sequences).

use crate::hash::FastHashMap;
use std::hash::Hash;

/// A bounded min-heap of `(key, count)` pairs with in-place updates.
///
/// # Examples
///
/// ```
/// use hk_common::topk::MinHeapTopK;
/// let mut heap = MinHeapTopK::new(2);
/// heap.offer("a", 5);
/// heap.offer("b", 3);
/// heap.offer("c", 10); // evicts "b"
/// assert!(heap.contains(&"a"));
/// assert!(!heap.contains(&"b"));
/// assert_eq!(heap.min_count(), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct MinHeapTopK<K: Eq + Hash + Clone> {
    /// Heap-ordered `(count, key)` entries; `heap[0]` is the minimum.
    heap: Vec<(u64, K)>,
    /// Key → position in `heap`.
    pos: FastHashMap<K, usize>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone> MinHeapTopK<K> {
    /// Creates a tracker keeping at most `k` keys.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let reserve = k.min(crate::stream_summary::PREALLOC_LIMIT);
        Self {
            heap: Vec::with_capacity(reserve),
            pos: FastHashMap::with_capacity_and_hasher(reserve, Default::default()),
            capacity: k,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Maximum number of tracked keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `capacity` keys are tracked.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.capacity
    }

    /// True if `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.pos.contains_key(key)
    }

    /// The count of `key`, if tracked.
    pub fn count(&self, key: &K) -> Option<u64> {
        self.pos.get(key).map(|&i| self.heap[i].0)
    }

    /// The smallest tracked count (`None` when empty).
    ///
    /// This is the paper's `n_min` when the heap is full; before that the
    /// effective `n_min` for admission purposes is 0.
    pub fn min_count(&self) -> Option<u64> {
        self.heap.first().map(|(c, _)| *c)
    }

    /// The paper's `n_min`: smallest tracked count, or 0 while not full.
    pub fn nmin(&self) -> u64 {
        if self.is_full() {
            self.min_count().unwrap_or(0)
        } else {
            0
        }
    }

    fn swap_nodes(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        *self.pos.get_mut(&self.heap[a].1).unwrap() = a;
        *self.pos.get_mut(&self.heap[b].1).unwrap() = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 < self.heap[parent].0 {
                self.swap_nodes(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].0 < self.heap[smallest].0 {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].0 < self.heap[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap_nodes(i, smallest);
            i = smallest;
        }
    }

    /// Sets the count of a tracked key (up or down), restoring heap order.
    ///
    /// Returns `false` if the key is not tracked.
    pub fn update(&mut self, key: &K, count: u64) -> bool {
        let Some(&i) = self.pos.get(key) else {
            return false;
        };
        let old = self.heap[i].0;
        self.heap[i].0 = count;
        if count < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        true
    }

    /// Inserts a new key, evicting the minimum if at capacity.
    ///
    /// Follows the paper's admission rule mechanics: the caller decides
    /// *whether* to offer (Optimization I); `offer` performs the heap
    /// surgery. Returns the evicted `(key, count)` if one was displaced.
    ///
    /// If the key is already tracked this behaves like
    /// [`MinHeapTopK::update`] with `max(old, count)` and returns `None`.
    pub fn offer(&mut self, key: K, count: u64) -> Option<(K, u64)> {
        if let Some(&i) = self.pos.get(&key) {
            let old = self.heap[i].0;
            if count > old {
                self.update(&key, count);
            }
            return None;
        }
        if !self.is_full() {
            self.heap.push((count, key.clone()));
            let i = self.heap.len() - 1;
            self.pos.insert(key, i);
            self.sift_up(i);
            return None;
        }
        // Evict the root (minimum) by swapping the newcomer in: the old
        // root moves out of the heap without being cloned.
        let (evicted_count, evicted_key) =
            std::mem::replace(&mut self.heap[0], (count, key.clone()));
        self.pos.remove(&evicted_key);
        self.pos.insert(key, 0);
        self.sift_down(0);
        Some((evicted_key, evicted_count))
    }

    /// Returns all tracked `(key, count)` pairs in descending count order.
    pub fn sorted_desc(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.heap.iter().map(|(c, k)| (k.clone(), *c)).collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Iterates over tracked pairs in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.heap.iter().map(|(c, k)| (k, *c))
    }

    /// Exhaustively checks the heap property and index consistency.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated. Used by tests.
    pub fn check_invariants(&self) {
        assert!(self.heap.len() <= self.capacity);
        assert_eq!(self.heap.len(), self.pos.len());
        for i in 0..self.heap.len() {
            assert_eq!(
                self.pos.get(&self.heap[i].1),
                Some(&i),
                "position index out of sync"
            );
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l < self.heap.len() {
                assert!(self.heap[i].0 <= self.heap[l].0, "heap property violated");
            }
            if r < self.heap.len() {
                assert!(self.heap[i].0 <= self.heap[r].0, "heap property violated");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_below_capacity_keeps_all() {
        let mut h = MinHeapTopK::new(4);
        h.offer("a", 5);
        h.offer("b", 1);
        h.offer("c", 3);
        h.check_invariants();
        assert_eq!(h.len(), 3);
        assert_eq!(h.min_count(), Some(1));
        assert_eq!(h.nmin(), 0, "nmin is 0 while not full");
    }

    #[test]
    fn offer_at_capacity_evicts_min() {
        let mut h = MinHeapTopK::new(2);
        h.offer(1u32, 10);
        h.offer(2u32, 20);
        let evicted = h.offer(3u32, 15);
        assert_eq!(evicted, Some((1, 10)));
        h.check_invariants();
        assert!(h.contains(&3) && h.contains(&2));
        assert_eq!(h.nmin(), 15);
    }

    #[test]
    fn offer_existing_takes_max() {
        let mut h = MinHeapTopK::new(2);
        h.offer("a", 10);
        h.offer("a", 5); // lower: ignored
        assert_eq!(h.count(&"a"), Some(10));
        h.offer("a", 30); // higher: updated
        assert_eq!(h.count(&"a"), Some(30));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_down_restores_order() {
        let mut h = MinHeapTopK::new(4);
        for (k, c) in [("a", 10), ("b", 20), ("c", 30), ("d", 40)] {
            h.offer(k, c);
        }
        assert!(h.update(&"d", 1));
        h.check_invariants();
        assert_eq!(h.min_count(), Some(1));
        assert!(!h.update(&"zz", 5));
    }

    #[test]
    fn sorted_desc_is_sorted() {
        let mut h = MinHeapTopK::new(8);
        for i in 0..8u64 {
            h.offer(i, (i * 7) % 13);
        }
        let v = h.sorted_desc();
        assert!(v.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn random_ops_keep_invariants() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut h: MinHeapTopK<u32> = MinHeapTopK::new(12);
        for _ in 0..5000 {
            let key = rng.gen_range(0..50u32);
            if rng.gen_bool(0.7) {
                h.offer(key, rng.gen_range(0..1000));
            } else if h.contains(&key) {
                h.update(&key, rng.gen_range(0..1000));
            }
            h.check_invariants();
        }
        assert_eq!(h.len(), 12);
    }

    #[test]
    fn matches_exact_topk_on_unique_counts() {
        // When every key has a distinct final count and we offer them in
        // arbitrary order with their exact counts, the tracker must hold
        // exactly the k largest.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut items: Vec<(u32, u64)> = (0..100u32).map(|i| (i, (i as u64 + 1) * 3)).collect();
        items.shuffle(&mut rng);
        let mut h = MinHeapTopK::new(10);
        for &(k, c) in &items {
            if h.nmin() < c || !h.is_full() {
                h.offer(k, c);
            }
        }
        let got: Vec<u32> = h.sorted_desc().into_iter().map(|(k, _)| k).collect();
        let expect: Vec<u32> = (90..100u32).rev().collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        MinHeapTopK::<u32>::new(0);
    }
}
