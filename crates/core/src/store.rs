//! Top-k bookkeeping store.
//!
//! The paper describes its top-k structure as a min-heap "for better
//! understanding" but implements it with Stream-Summary because both
//! expose the same operations and Stream-Summary updates in O(1)
//! (Section III-C, Note). [`TopKStore`] is that Stream-Summary behind
//! the exact operations the HeavyKeeper variants need. The min-heap
//! ([`hk_common::topk::MinHeapTopK`]) serves only the sketch baselines.
//!
//! ## One lookup or none per packet
//!
//! Algorithm 1 reads `flag` (is the flow monitored?) before the bucket
//! walk. Here a packet hashes its key into the store at most once, and
//! only when a decision reads the answer: the walks ask through a lazy
//! `Flag` at a matching bucket whose counter exceeds `n_min`
//! (Optimization II's gate), and the store update after the walk asks
//! only if the walk did not and `HeavyK_V > n_min`. The lookup yields a
//! Stream-Summary [`Handle`], and the raise or the admission acts on it.

use crate::stats::InsertStats;
use hk_common::key::FlowKey;
use hk_common::stream_summary::{Handle, StreamSummary};

/// A bounded store of the current top-k flow IDs and estimated sizes.
#[derive(Debug, Clone)]
pub struct TopKStore<K: FlowKey>(StreamSummary<K>);

/// Algorithm 1's `flag` for one packet, looked up in the store the
/// first time a decision reads it and never again.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flag(Option<Option<Handle>>);

impl Flag {
    /// True if `key` is monitored; the first read does the lookup.
    #[inline]
    pub(crate) fn read<K: FlowKey>(&mut self, store: &TopKStore<K>, key: &K) -> bool {
        self.0.get_or_insert_with(|| store.find(key)).is_some()
    }
}

impl<K: FlowKey> TopKStore<K> {
    /// Creates a store holding at most `k` flows.
    pub fn new(k: usize) -> Self {
        Self(StreamSummary::new(k))
    }

    /// True if `key` is currently monitored (the paper's `flag`).
    pub fn contains(&self, key: &K) -> bool {
        self.0.contains(key)
    }

    /// Looks `key` up once: its handle if monitored.
    #[inline]
    pub(crate) fn find(&self, key: &K) -> Option<Handle> {
        self.0.find(key)
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

    /// The paper's `min_heap[fi] ← max(HeavyK_V, min_heap[fi])` on the
    /// monitored flow at `h`.
    #[inline]
    pub(crate) fn raise(&mut self, h: Handle, estimate: u64) {
        if estimate > self.0.count_at(h) {
            self.0.set_count_at(h, estimate);
        }
    }

    /// Updates a monitored flow to `max(current, estimate)` — the
    /// paper's `min_heap[fi] ← max(HeavyK_V, min_heap[fi])`.
    ///
    /// Returns `false` if the key is not monitored.
    pub fn update_max(&mut self, key: &K, estimate: u64) -> bool {
        match self.find(key) {
            Some(h) => {
                self.raise(h, estimate);
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
        self.admit_absent(key, estimate)
    }

    /// [`TopKStore::admit`] for a flow the caller knows is not
    /// monitored: no lookup, one minimum flow evicted if at capacity.
    pub(crate) fn admit_absent(&mut self, key: K, estimate: u64) -> Option<(K, u64)> {
        let evicted = if self.0.is_full() {
            self.0.evict_min()
        } else {
            None
        };
        self.0.insert_absent(key, estimate);
        evicted
    }

    /// Algorithm 1 lines 21–25 with Optimization I, after the walk
    /// (Algorithm 2 ends with the same rule, so the Parallel and
    /// Minimum variants share this): raise a monitored flow; admit an
    /// outside one while the store has room, or at exactly
    /// `n_min + 1` once it is full, and count any larger estimate as a
    /// rejected fingerprint collision (Theorem 1).
    ///
    /// `nmin` is the [`TopKStore::nmin`] the walk saw and `flag` what
    /// the walk learned. With `HeavyK_V ≤ n_min` the lines change
    /// nothing for either value of `flag`: a monitored flow of a full
    /// store already counts at least `n_min`, an outside flow is
    /// neither admitted nor rejected, and a store with room has
    /// `n_min = 0`, so there is nothing to raise or admit. Only past
    /// that point is the flow looked up, and only if the walk did not.
    ///
    /// Every packet calls this and a mouse returns at the first
    /// compare, so it is inlined whole: the skip costs the caller no
    /// call.
    #[inline(always)]
    pub(crate) fn update_gated(
        &mut self,
        key: &K,
        heavy_v: u64,
        nmin: u64,
        flag: Flag,
        stats: &mut InsertStats,
    ) {
        debug_assert_eq!(nmin, self.nmin());
        if heavy_v <= nmin {
            return;
        }
        match flag.0.unwrap_or_else(|| self.find(key)) {
            Some(h) => self.raise(h, heavy_v),
            None if !self.is_full() || heavy_v == nmin + 1 => {
                self.admit_absent(*key, heavy_v);
                stats.admissions += 1;
            }
            None => stats.admissions_rejected += 1,
        }
    }

    /// The store step without Optimization I (the Basic and Weighted
    /// variants): raise a monitored flow, admit an outside one whose
    /// estimate exceeds `n_min`. Like [`TopKStore::update_gated`], an
    /// estimate at or below `n_min` changes nothing and looks nothing
    /// up, and the skip is inlined into the caller.
    #[inline(always)]
    pub(crate) fn update(&mut self, key: &K, estimate: u64, nmin: u64, flag: Flag) {
        debug_assert_eq!(nmin, self.nmin());
        if estimate <= nmin {
            return;
        }
        match flag.0.unwrap_or_else(|| self.find(key)) {
            Some(h) => self.raise(h, estimate),
            None => {
                self.admit_absent(*key, estimate);
            }
        }
    }

    /// Offers a flow with an externally derived estimate (the merge and
    /// decode paths): raise it if monitored, else admit it while the
    /// store has room or when it beats `n_min`. No Optimization I gate:
    /// such estimates arrive in arbitrary steps, not +1 increments.
    pub(crate) fn offer(&mut self, key: K, estimate: u64) {
        match self.find(&key) {
            Some(h) => self.raise(h, estimate),
            None if !self.is_full() || estimate > self.nmin() => {
                self.admit_absent(key, estimate);
            }
            None => {}
        }
    }

    /// Empties the store in place, keeping its allocations: the next
    /// epoch refills it without allocating, exactly as a new store.
    pub fn clear(&mut self) {
        self.0.clear();
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
