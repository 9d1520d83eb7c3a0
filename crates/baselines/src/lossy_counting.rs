//! Lossy Counting (Manku & Motwani — VLDB 2002).
//!
//! The stream is split into windows of width `w = ⌈1/ε⌉`. Each tracked
//! flow keeps `(count, Δ)` where `Δ` is the window index at insertion —
//! an upper bound on how many packets may have been missed. At every
//! window boundary, entries with `count + Δ ≤ b_current` are pruned.
//! Reported sizes are `count + Δ` (an over-estimate, like all
//! admit-all-count-some algorithms).
//!
//! Memory bounding: classic Lossy Counting's table can transiently exceed
//! `1/ε` entries. To run under the paper's fixed memory budgets we set
//! `ε = 1/m` for an `m`-entry budget and additionally evict the smallest
//! `count + Δ` entry if an insertion would overflow the budget — the
//! same spirit as the paper's fixed-size C++ implementation.

use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::{rank_order, FlowKey};
use std::collections::HashMap;

/// Per-entry memory charge: flow ID + 32-bit count + 32-bit Δ.
pub const fn entry_bytes(id_len: usize) -> usize {
    id_len + 4 + 4
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    delta: u64,
}

/// Lossy Counting top-k.
///
/// # Examples
///
/// ```
/// use hk_baselines::LossyCountingTopK;
/// use hk_common::TopKAlgorithm;
/// let mut lc = LossyCountingTopK::<u64>::new(64, 8);
/// for _ in 0..100 { lc.insert(&1); }
/// assert!(lc.query(&1) >= 100);
/// ```
#[derive(Debug, Clone)]
pub struct LossyCountingTopK<K: FlowKey> {
    table: HashMap<K, Entry>,
    /// Window width `w = m` (ε = 1/m).
    window: u64,
    /// Current window index `b_current`.
    bucket: u64,
    /// Packets seen so far.
    n: u64,
    /// Max entries (memory budget).
    capacity: usize,
    k: usize,
}

impl<K: FlowKey> LossyCountingTopK<K> {
    /// Creates a Lossy Counting instance with an `m`-entry budget
    /// (`ε = 1/m`), reporting the top `k`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m > 0, "need at least one entry");
        assert!(k > 0, "k must be positive");
        Self {
            table: HashMap::with_capacity(m),
            window: m as u64,
            bucket: 1,
            n: 0,
            capacity: m,
            k,
        }
    }

    /// Builds from a total memory budget.
    pub fn with_memory(bytes: usize, k: usize) -> Self {
        let m = (bytes / entry_bytes(K::ENCODED_LEN)).max(1);
        Self::new(m, k)
    }

    /// Number of budgeted entries `m`.
    pub fn entries(&self) -> usize {
        self.capacity
    }

    fn prune(&mut self) {
        let b = self.bucket;
        self.table.retain(|_, e| e.count + e.delta > b);
    }

    fn evict_smallest(&mut self) {
        if let Some(victim) = self
            .table
            .iter()
            .min_by_key(|(_, e)| e.count + e.delta)
            .map(|(k, _)| *k)
        {
            self.table.remove(&victim);
        }
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for LossyCountingTopK<K> {
    fn insert(&mut self, key: &K) {
        self.n += 1;
        if let Some(e) = self.table.get_mut(key) {
            e.count += 1;
        } else {
            if self.table.len() >= self.capacity {
                self.evict_smallest();
            }
            self.table.insert(
                *key,
                Entry {
                    count: 1,
                    delta: self.bucket - 1,
                },
            );
        }
        if self.n.is_multiple_of(self.window) {
            // Prune with the window that just completed (`f + Δ <= b`),
            // *then* advance to the next window. Pruning after the
            // increment would delete entries with `f + Δ = b + 1`, which
            // breaks the classic invariant `n_i <= count + Δ` (a pruned
            // flow could return with a Δ one too small to cover it).
            self.prune();
            self.bucket += 1;
        }
    }

    fn query(&self, key: &K) -> u64 {
        self.table.get(key).map(|e| e.count + e.delta).unwrap_or(0)
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self
            .table
            .iter()
            .map(|(k, e)| (*k, e.count + e.delta))
            .collect();
        v.sort_by(rank_order);
        v.truncate(self.k);
        v
    }

    fn memory_bytes(&self) -> usize {
        self.capacity * entry_bytes(K::ENCODED_LEN)
    }

    fn name(&self) -> &'static str {
        "LossyCounting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    #[test]
    fn exact_when_flows_fit() {
        let mut lc = LossyCountingTopK::<u64>::new(100, 5);
        for f in 0..5u64 {
            for _ in 0..(f + 1) * 7 {
                lc.insert(&f);
            }
        }
        // With ample space and few windows, heavy flows are exact.
        assert_eq!(lc.top_k()[0], (4, 35));
    }

    #[test]
    fn ties_across_the_kth_place_break_on_key_bytes() {
        // Forty flows tie at 3 behind one elephant, within one window;
        // k = 5 cuts through the tie. Two instances hash their tables
        // differently, yet both report the same flows in the same order.
        let report = || {
            let mut lc = LossyCountingTopK::<u64>::new(1_000, 5);
            for _ in 0..3 {
                for f in 0..40u64 {
                    lc.insert(&f);
                }
            }
            for _ in 0..10 {
                lc.insert(&100);
            }
            lc.top_k()
        };
        let want = vec![(100, 10), (0, 3), (1, 3), (2, 3), (3, 3)];
        assert_eq!(report(), want);
        assert_eq!(report(), want);
    }

    #[test]
    fn never_underestimates_tracked_flows() {
        let mut lc = LossyCountingTopK::<u64>::new(16, 4);
        let mut truth: Map<u64, u64> = Map::new();
        let mut state = 5u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(2) {
                state % 4
            } else {
                state % 256
            };
            lc.insert(&f);
            *truth.entry(f).or_insert(0) += 1;
        }
        for (f, est) in lc.top_k() {
            assert!(est >= truth[&f], "flow {f}: {est} < {}", truth[&f]);
        }
    }

    #[test]
    fn mouse_flows_pruned_at_window_boundary() {
        let mut lc = LossyCountingTopK::<u64>::new(10, 10);
        // One elephant plus distinct mice; after several windows the
        // mice must be gone but the elephant must survive.
        for i in 0..100u64 {
            lc.insert(&0);
            lc.insert(&(1000 + i));
        }
        assert!(lc.query(&0) >= 100);
        let survivors = lc.table.len();
        assert!(survivors <= 10, "pruning failed: {survivors} entries");
        assert!(lc.table.contains_key(&0));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut lc = LossyCountingTopK::<u64>::new(8, 4);
        for i in 0..10_000u64 {
            lc.insert(&i);
            assert!(lc.table.len() <= 8);
        }
    }

    #[test]
    fn with_memory_accounting() {
        let lc = LossyCountingTopK::<u64>::with_memory(1600, 5);
        // 8 + 4 + 4 = 16 bytes → 100 entries.
        assert_eq!(lc.entries(), 100);
        assert_eq!(lc.memory_bytes(), 1600);
    }

    #[test]
    fn unknown_flow_is_zero() {
        let lc = LossyCountingTopK::<u64>::new(4, 2);
        assert_eq!(lc.query(&42), 0);
    }
}
