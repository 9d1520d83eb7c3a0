//! Top-k bookkeeping store.
//!
//! The paper describes its top-k structure as a min-heap "for better
//! understanding" but implements it with Stream-Summary because both
//! expose the same operations and Stream-Summary updates in O(1)
//! (Section III-C, Note). [`TopKStore`] is that Stream-Summary behind
//! the exact operations the HeavyKeeper variants need. The min-heap
//! ([`hk_common::topk::MinHeapTopK`]) serves only the sketch baselines.

use hk_common::key::FlowKey;
use hk_common::stream_summary::StreamSummary;

/// A bounded store of the current top-k flow IDs and estimated sizes.
#[derive(Debug, Clone)]
pub struct TopKStore<K: FlowKey>(StreamSummary<K>);

impl<K: FlowKey> TopKStore<K> {
    /// Creates a store holding at most `k` flows.
    pub fn new(k: usize) -> Self {
        Self(StreamSummary::new(k))
    }

    /// True if `key` is currently monitored (the paper's `flag`).
    pub fn contains(&self, key: &K) -> bool {
        self.0.contains(key)
    }

    /// Number of monitored flows.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no flows are monitored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `k` flows are monitored.
    pub fn is_full(&self) -> bool {
        self.0.is_full()
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// The paper's `n_min`: the smallest monitored size once full, else 0.
    pub fn nmin(&self) -> u64 {
        if !self.is_full() {
            return 0;
        }
        self.0.min_count().unwrap_or(0)
    }

    /// The monitored size of `key`, if present.
    pub fn count(&self, key: &K) -> Option<u64> {
        self.0.count(key)
    }

    /// Updates a monitored flow to `max(current, estimate)` — the
    /// paper's `min_heap[fi] ← max(HeavyK_V, min_heap[fi])`.
    ///
    /// Returns `false` if the key is not monitored.
    pub fn update_max(&mut self, key: &K, estimate: u64) -> bool {
        match self.0.count(key) {
            Some(cur) => {
                if estimate > cur {
                    self.0.set_count(key, estimate);
                }
                true
            }
            None => false,
        }
    }

    /// Admits a new flow with the given estimate, evicting one minimum
    /// flow if at capacity. Returns the evicted flow, if any.
    ///
    /// The *decision* to admit (Optimization I's `n̂ = n_min + 1` rule)
    /// belongs to the caller; this method only performs the insertion.
    pub fn admit(&mut self, key: K, estimate: u64) -> Option<(K, u64)> {
        if self.update_max(&key, estimate) {
            return None;
        }
        let evicted = if self.0.is_full() {
            self.0.evict_min()
        } else {
            None
        };
        self.0.insert(key, estimate);
        evicted
    }

    /// All monitored flows, largest first.
    pub fn sorted_desc(&self) -> Vec<(K, u64)> {
        self.0.iter_desc().map(|(k, c)| (*k, c)).collect()
    }

    /// Accounted memory: `k` entries of (flow ID + 32-bit size), matching
    /// the paper's Stream-Summary with `m = k` entries.
    pub fn memory_bytes(&self) -> usize {
        self.capacity() * (K::ENCODED_LEN + 4)
    }

    /// Keeps only the monitored flows for which `keep` returns true —
    /// the store half of a reshard's lane repartition. Counts of the
    /// survivors are preserved exactly; the store is rebuilt smallest
    /// first so no admission can evict a survivor (the kept set never
    /// exceeds capacity).
    pub fn retain(&mut self, keep: &mut dyn FnMut(&K) -> bool) {
        let mut kept = self.sorted_desc();
        kept.retain(|(k, _)| keep(k));
        let mut fresh = Self::new(self.capacity());
        for (k, c) in kept.into_iter().rev() {
            fresh.admit(k, c);
        }
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmin_zero_until_full() {
        let mut s = TopKStore::new(3);
        assert_eq!(s.nmin(), 0);
        s.admit(1u64, 10);
        s.admit(2, 20);
        assert_eq!(s.nmin(), 0, "not full yet");
        s.admit(3, 30);
        assert_eq!(s.nmin(), 10);
    }

    #[test]
    fn admit_evicts_min_when_full() {
        let mut s = TopKStore::new(2);
        s.admit(1u64, 10);
        s.admit(2, 20);
        let evicted = s.admit(3, 15);
        assert_eq!(evicted, Some((1, 10)));
        assert!(s.contains(&3) && s.contains(&2) && !s.contains(&1));
    }

    #[test]
    fn update_max_only_raises() {
        let mut s = TopKStore::new(2);
        s.admit(1u64, 10);
        assert!(s.update_max(&1, 5));
        assert_eq!(s.count(&1), Some(10));
        assert!(s.update_max(&1, 50));
        assert_eq!(s.count(&1), Some(50));
        assert!(!s.update_max(&99, 1));
    }

    #[test]
    fn sorted_desc_order() {
        let mut s = TopKStore::new(4);
        for (k, c) in [(1u64, 5), (2, 50), (3, 20), (4, 1)] {
            s.admit(k, c);
        }
        let v = s.sorted_desc();
        let counts: Vec<u64> = v.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![50, 20, 5, 1]);
    }

    #[test]
    fn memory_accounting() {
        let s = TopKStore::<u64>::new(100);
        // 100 entries x (8-byte id + 4-byte count) = 1200.
        assert_eq!(s.memory_bytes(), 1200);
    }
}
