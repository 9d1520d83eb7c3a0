//! Exact ground truth: per-flow counts and the true top-k.
//!
//! Experiments compare each sketch's report against the *real* top-k
//! flows and sizes (paper Section VI-B). This oracle simply counts every
//! packet in a hash map — the memory-hungry approach the sketches exist
//! to avoid, but exactly what offline evaluation needs.

use hk_common::key::{rank_order, FlowKey};
use std::collections::{HashMap, HashSet};

/// Exact per-flow packet counter.
///
/// # Examples
///
/// ```
/// use hk_traffic::oracle::ExactCounter;
/// let mut oracle = ExactCounter::new();
/// for flow in [1u64, 2, 1, 1, 3, 2] {
///     oracle.observe(&flow);
/// }
/// assert_eq!(oracle.count(&1), 3);
/// assert_eq!(oracle.top_k(2)[0], (1, 3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<K: FlowKey> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: FlowKey> ExactCounter<K> {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Counts every packet of a trace.
    pub fn from_packets<'a>(packets: impl IntoIterator<Item = &'a K>) -> Self
    where
        K: 'a,
    {
        let mut o = Self::new();
        for p in packets {
            o.observe(p);
        }
        o
    }

    /// Records one packet of flow `key`.
    #[inline]
    pub fn observe(&mut self, key: &K) {
        *self.counts.entry(*key).or_insert(0) += 1;
        self.total += 1;
    }

    /// The exact size of `key` (0 if never seen).
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total packets observed.
    pub fn total_packets(&self) -> u64 {
        self.total
    }

    /// Number of distinct flows observed.
    pub fn distinct_flows(&self) -> usize {
        self.counts.len()
    }

    /// The exact top-k flows, largest first.
    ///
    /// Ties are broken deterministically by the key's byte encoding so
    /// results are stable across runs and platforms.
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = self.counts.iter().map(|(k, &c)| (*k, c)).collect();
        all.sort_by(rank_order);
        all.truncate(k);
        all
    }

    /// The set of flows *eligible* to count as top-k hits: every flow
    /// whose size is at least the k-th largest size.
    ///
    /// When several flows tie at the k-th size, a sketch reporting any of
    /// them is correct; precision is computed against this set (see
    /// `hk-metrics`).
    pub fn top_k_eligible(&self, k: usize) -> HashSet<K> {
        if k == 0 || self.counts.is_empty() {
            return HashSet::new();
        }
        let mut sizes: Vec<u64> = self.counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let threshold = sizes[k.min(sizes.len()) - 1];
        self.counts
            .iter()
            .filter(|(_, &c)| c >= threshold)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Proportion of *mouse flows* among all flows: the `γ` parameter of
    /// the Theorem 3 error bound. A flow is counted as a mouse if its
    /// size is at most `mouse_threshold`.
    pub fn mouse_fraction(&self, mouse_threshold: u64) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let mice = self
            .counts
            .values()
            .filter(|&&c| c <= mouse_threshold)
            .count();
        mice as f64 / self.counts.len() as f64
    }

    /// Iterates over all `(flow, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let mut o = ExactCounter::new();
        for f in [1u64, 1, 2, 3, 1, 2] {
            o.observe(&f);
        }
        assert_eq!(o.count(&1), 3);
        assert_eq!(o.count(&2), 2);
        assert_eq!(o.count(&99), 0);
        assert_eq!(o.total_packets(), 6);
        assert_eq!(o.distinct_flows(), 3);
    }

    #[test]
    fn top_k_sorted_and_truncated() {
        let mut o = ExactCounter::new();
        for (f, n) in [(1u64, 5), (2, 9), (3, 1), (4, 7)] {
            for _ in 0..n {
                o.observe(&f);
            }
        }
        let top2 = o.top_k(2);
        assert_eq!(top2, vec![(2, 9), (4, 7)]);
        let all = o.top_k(100);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn top_k_tie_break_deterministic() {
        let mut o = ExactCounter::new();
        for f in [5u64, 3, 8] {
            for _ in 0..4 {
                o.observe(&f);
            }
        }
        let t = o.top_k(2);
        // All tied at 4; byte-wise (little-endian) order of 3 < 5.
        assert_eq!(t[0].0, 3);
        assert_eq!(t[1].0, 5);
    }

    #[test]
    fn eligible_includes_all_ties() {
        let mut o = ExactCounter::new();
        // Two flows at 10, three flows tied at 5, one at 1.
        for (f, n) in [(1u64, 10), (2, 10), (3, 5), (4, 5), (5, 5), (6, 1)] {
            for _ in 0..n {
                o.observe(&f);
            }
        }
        let e = o.top_k_eligible(3);
        // Threshold is the 3rd largest = 5; flows 1,2,3,4,5 all eligible.
        assert_eq!(e.len(), 5);
        assert!(!e.contains(&6));
    }

    #[test]
    fn eligible_handles_k_beyond_flows() {
        let mut o = ExactCounter::new();
        o.observe(&1u64);
        let e = o.top_k_eligible(10);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn mouse_fraction() {
        let mut o = ExactCounter::new();
        for (f, n) in [(1u64, 100), (2, 1), (3, 2), (4, 1)] {
            for _ in 0..n {
                o.observe(&f);
            }
        }
        assert!((o.mouse_fraction(2) - 0.75).abs() < 1e-12);
        assert_eq!(ExactCounter::<u64>::new().mouse_fraction(2), 0.0);
    }

    #[test]
    fn from_packets_equals_manual() {
        let pkts = vec![1u64, 2, 1];
        let a = ExactCounter::from_packets(&pkts);
        assert_eq!(a.count(&1), 2);
        assert_eq!(a.total_packets(), 3);
    }
}
