//! Frequent / Misra-Gries (Demaine, López-Ortiz, Munro — ESA 2002).
//!
//! `m` counters. A packet of a tracked flow increments its counter; a
//! packet of an untracked flow takes a free counter if one exists,
//! otherwise *all* counters are decremented by one (zeroed counters are
//! freed). The classic guarantee: a tracked flow's counter
//! under-estimates its true size by at most `N/(m+1)`.
//!
//! The decrement-all pass costs O(m) but can only happen once per `m`
//! increments' worth of mass, so the amortized cost per packet is O(1) —
//! the paper lists Frequent among the admit-all-count-some family whose
//! accuracy (not speed) is the problem.

use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::{rank_order, FlowKey};
use std::collections::HashMap;

/// Per-entry memory charge: flow ID + 32-bit counter.
pub const fn entry_bytes(id_len: usize) -> usize {
    id_len + 4
}

/// Frequent (Misra-Gries) top-k.
///
/// # Examples
///
/// ```
/// use hk_baselines::FrequentTopK;
/// use hk_common::TopKAlgorithm;
/// let mut fr = FrequentTopK::<u64>::new(10, 3);
/// for _ in 0..100 { fr.insert(&1); }
/// assert!(fr.query(&1) <= 100, "Misra-Gries never over-estimates");
/// ```
#[derive(Debug, Clone)]
pub struct FrequentTopK<K: FlowKey> {
    counters: HashMap<K, u64>,
    m: usize,
    k: usize,
}

impl<K: FlowKey> FrequentTopK<K> {
    /// Creates a Frequent instance with `m` counters reporting top `k`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m > 0 && k > 0, "m and k must be positive");
        Self {
            counters: HashMap::with_capacity(m),
            m,
            k,
        }
    }

    /// Builds from a total memory budget.
    pub fn with_memory(bytes: usize, k: usize) -> Self {
        let m = (bytes / entry_bytes(K::ENCODED_LEN)).max(1);
        Self::new(m, k)
    }

    /// Number of counters `m`.
    pub fn entries(&self) -> usize {
        self.m
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for FrequentTopK<K> {
    fn insert(&mut self, key: &K) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += 1;
        } else if self.counters.len() < self.m {
            self.counters.insert(*key, 1);
        } else {
            // Decrement-all; free zeroed counters.
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    fn query(&self, key: &K) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.counters.iter().map(|(k, &c)| (*k, c)).collect();
        v.sort_by(rank_order);
        v.truncate(self.k);
        v
    }

    fn memory_bytes(&self) -> usize {
        self.m * entry_bytes(K::ENCODED_LEN)
    }

    fn name(&self) -> &'static str {
        "Frequent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    #[test]
    fn exact_when_flows_fit() {
        let mut fr = FrequentTopK::<u64>::new(10, 5);
        for f in 0..5u64 {
            for _ in 0..(f + 1) * 3 {
                fr.insert(&f);
            }
        }
        assert_eq!(fr.top_k()[0], (4, 15));
    }

    #[test]
    fn ties_across_the_kth_place_break_on_key_bytes() {
        // Forty flows tie at 3 behind one elephant; k = 5 cuts through
        // the tie. Two instances hash their maps differently, yet both
        // report the same flows in the same order.
        let report = || {
            let mut fr = FrequentTopK::<u64>::new(64, 5);
            for _ in 0..3 {
                for f in 0..40u64 {
                    fr.insert(&f);
                }
            }
            for _ in 0..10 {
                fr.insert(&100);
            }
            fr.top_k()
        };
        let want = vec![(100, 10), (0, 3), (1, 3), (2, 3), (3, 3)];
        assert_eq!(report(), want);
        assert_eq!(report(), want);
    }

    #[test]
    fn never_overestimates() {
        let mut fr = FrequentTopK::<u64>::new(8, 4);
        let mut truth: Map<u64, u64> = Map::new();
        let mut state = 9u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(2) {
                state % 4
            } else {
                state % 1024
            };
            fr.insert(&f);
            *truth.entry(f).or_insert(0) += 1;
            let q = fr.query(&f);
            assert!(q <= truth[&f]);
        }
    }

    #[test]
    fn underestimate_bounded_by_n_over_m_plus_1() {
        // Classic Misra-Gries guarantee.
        let mut fr = FrequentTopK::<u64>::new(9, 4);
        let mut truth: Map<u64, u64> = Map::new();
        let mut n = 0u64;
        let mut state = 2u64;
        for _ in 0..30_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if !state.is_multiple_of(3) {
                state % 5
            } else {
                state % 4096
            };
            fr.insert(&f);
            n += 1;
            *truth.entry(f).or_insert(0) += 1;
        }
        let bound = n / 10; // m + 1 = 10
        for (&f, &t) in &truth {
            let q = fr.query(&f);
            assert!(t - q <= bound + 1, "flow {f}: {t} - {q} > {bound}");
        }
    }

    #[test]
    fn decrement_all_frees_counters() {
        let mut fr = FrequentTopK::<u64>::new(3, 3);
        fr.insert(&1);
        fr.insert(&2);
        fr.insert(&3);
        assert_eq!(fr.counters.len(), 3);
        // A new flow triggers decrement-all: all drop to 0 and are freed,
        // but the new flow itself is not inserted (classic MG).
        fr.insert(&4);
        assert_eq!(fr.counters.len(), 0);
        assert_eq!(fr.query(&4), 0);
    }

    #[test]
    fn with_memory_accounting() {
        let fr = FrequentTopK::<u64>::with_memory(1200, 5);
        assert_eq!(fr.entries(), 100);
        assert_eq!(fr.memory_bytes(), 1200);
    }
}
