//! Weighted (byte-counting) HeavyKeeper — an extension beyond the paper.
//!
//! Section III-F lists weighted updates among HeavyKeeper's limitations:
//! the published algorithm counts *packets* (every update is +1). Many
//! deployments rank flows by **bytes**, where each packet carries a
//! weight. This module generalizes the algorithm:
//!
//! * **Case 1** (empty bucket): claim it with `C = w`.
//! * **Case 2** (fingerprint match): `C += w`, saturating.
//! * **Case 3** (held by another flow): play `w` unit-decay trials
//!   against the counter, with the probability re-evaluated after every
//!   successful decay ([`HkSketch::weighted_decay_roll`], implemented
//!   with geometric skipping so the cost is proportional to the number
//!   of *decays*, not to `w`). If the counter reaches 0 with `r` trials
//!   to spare, the new flow claims the bucket with `C = max(r, 1)`.
//!
//! With all weights equal to 1 this reduces exactly to the paper's
//! unit-update semantics (the tests pin this down distributionally).
//!
//! ## What changes for top-k admission
//!
//! Theorem 1 (`n̂ = n_min + 1` after any admission-worthy insertion) is
//! an artifact of +1 updates, so Optimization I's equality gate is no
//! longer sound: a legitimate weighted insertion can jump the estimate
//! far past `n_min`. [`WeightedTopK`] therefore admits on `n̂ > n_min`.
//! The price is exactly what the paper's Section III-D analysis warns
//! about: a fingerprint-collision mouse is no longer filtered by the
//! equality test. The no-over-estimation property (Theorem 2) is
//! unaffected — counters still only grow by the true arriving weight.

use crate::config::HkConfig;
use crate::sketch::{with_words, HkSketch};
use crate::store::{Flag, TopKStore};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;

/// HeavyKeeper with weighted updates (e.g. ranking flows by bytes).
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, WeightedTopK};
/// use hk_common::TopKAlgorithm;
///
/// let cfg = HkConfig::builder().width(256).counter_bits(32).k(4).seed(1).build();
/// let mut hk = WeightedTopK::<u64>::new(cfg);
/// for i in 0..1000u64 {
///     hk.insert_weighted(&1, 1400); // one bulk-transfer flow, big packets
///     hk.insert_weighted(&(100 + i), 40); // many tiny mice
/// }
/// let top = hk.top_k();
/// assert_eq!(top[0].0, 1);
/// assert!(top[0].1 <= 1_400_000, "no over-estimation of byte counts");
/// ```
#[derive(Debug, Clone)]
pub struct WeightedTopK<K: FlowKey> {
    sketch: HkSketch,
    store: TopKStore<K>,
    cfg: HkConfig,
}

impl<K: FlowKey> WeightedTopK<K> {
    /// Builds the algorithm from a configuration.
    ///
    /// Byte counts grow ~three orders of magnitude faster than packet
    /// counts; prefer `counter_bits(32)` over the paper's 16 when
    /// weights are packet sizes.
    pub fn new(cfg: HkConfig) -> Self {
        Self {
            sketch: HkSketch::new(&cfg),
            store: TopKStore::new(cfg.k),
            cfg,
        }
    }

    /// Constructor from a total memory budget in bytes (Section VI-A
    /// accounting), with 32-bit counters suited to byte weights.
    pub fn with_memory(bytes: usize, k: usize, seed: u64) -> Self {
        let store_bytes = k * (K::ENCODED_LEN + 4);
        let sketch_bytes = bytes.saturating_sub(store_bytes).max(12);
        let cfg = HkConfig::builder()
            .memory_bytes(sketch_bytes)
            .counter_bits(32)
            .k(k)
            .seed(seed)
            .build();
        Self::new(cfg)
    }

    /// Read access to the underlying sketch.
    pub fn sketch(&self) -> &HkSketch {
        &self.sketch
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &HkConfig {
        &self.cfg
    }

    /// Processes one packet of flow `key` carrying `weight` units
    /// (bytes, records, ...). `weight = 0` is a no-op.
    pub fn insert_weighted(&mut self, key: &K, weight: u64) {
        if weight == 0 {
            return;
        }
        let kb = key.key_bytes();
        let p = self.sketch.prepare(kb.as_slice());

        // `flag` is looked up lazily: the walk reads it only at a
        // matching bucket above n_min, the store update only past n_min.
        let nmin = self.store.nmin();
        let mut flag = Flag::default();
        let store = &self.store;

        // The weighted Cases 1-3 in every mapped bucket, on the
        // sketch's bucket word (`SketchWords::walk_weighted`).
        let heavy_v = with_words!(self.sketch, sk => {
            sk.walk_weighted(&p, weight, nmin, || flag.read(store, key))
        });

        // Admission: Theorem 1's equality gate does not survive weighted
        // updates, so admit on `n̂ > n_min` (see module docs).
        self.store.update(key, heavy_v, nmin, flag);
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for WeightedTopK<K> {
    /// Unit-weight insertion (the paper's packet-counting semantics).
    fn insert(&mut self, key: &K) {
        self.insert_weighted(key, 1);
    }

    fn query(&self, key: &K) -> u64 {
        let kb = key.key_bytes();
        self.sketch.query(kb.as_slice())
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        self.store.sorted_desc()
    }

    fn memory_bytes(&self) -> usize {
        self.sketch.memory_bytes() + self.store.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "HK-Weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_common::prng::XorShift64;
    use std::collections::HashMap;

    fn cfg(w: usize, k: usize) -> HkConfig {
        HkConfig::builder()
            .arrays(2)
            .width(w)
            .counter_bits(32)
            .k(k)
            .seed(5)
            .build()
    }

    #[test]
    fn uncontended_flow_counts_weights_exactly() {
        let mut hk = WeightedTopK::<u64>::new(cfg(64, 4));
        let mut total = 0u64;
        for i in 1..=100u64 {
            hk.insert_weighted(&7, i);
            total += i;
        }
        assert_eq!(hk.query(&7), total);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut hk = WeightedTopK::<u64>::new(cfg(64, 4));
        hk.insert_weighted(&7, 0);
        assert_eq!(hk.query(&7), 0);
        assert!(hk.top_k().is_empty());
    }

    #[test]
    fn byte_elephants_beat_packet_elephants() {
        // Flow 1: few packets, huge. Flows 2..6: many packets, tiny.
        // By bytes, flow 1 dominates; packet-counting would rank it last.
        let mut hk = WeightedTopK::<u64>::new(cfg(256, 3));
        for round in 0..200u64 {
            hk.insert_weighted(&1, 9000); // jumbo frames
            for f in 2..7u64 {
                for _ in 0..4 {
                    hk.insert_weighted(&f, 40); // ACK stream
                }
            }
            let _ = round;
        }
        let top = hk.top_k();
        assert_eq!(top[0].0, 1, "top by bytes = {top:?}");
        assert!(top[0].1 <= 200 * 9000);
    }

    #[test]
    fn no_overestimation_of_weighted_totals() {
        let mut hk = WeightedTopK::<u64>::new(cfg(128, 8));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = XorShift64::new(3);
        for _ in 0..30_000 {
            let r = rng.next_u64_raw();
            let f = if r.is_multiple_of(4) {
                r % 8
            } else {
                100 + r % 2000
            };
            let w = 40 + (r >> 32) % 1460; // realistic packet sizes
            hk.insert_weighted(&f, w);
            *truth.entry(f).or_insert(0) += w;
        }
        for (f, est) in hk.top_k() {
            assert!(est <= truth[&f], "flow {f}: {est} > {}", truth[&f]);
        }
    }

    #[test]
    fn unit_weights_match_unweighted_distributionally() {
        // With w = 1 everywhere, the weighted variant must find the same
        // elephants as ParallelTopK on the same stream (not bit-identical
        // — RNG consumption differs — but the same top set).
        use crate::parallel::ParallelTopK;
        let mut wtd = WeightedTopK::<u64>::new(cfg(256, 5));
        let mut par = ParallelTopK::<u64>::new(cfg(256, 5));
        let mut rng = XorShift64::new(11);
        for _ in 0..50_000 {
            let r = rng.next_u64_raw();
            let f = if !r.is_multiple_of(3) {
                r % 5
            } else {
                100 + r % 5000
            };
            wtd.insert_weighted(&f, 1);
            par.insert(&f);
        }
        let mut a: Vec<u64> = wtd.top_k().into_iter().map(|(k, _)| k).collect();
        let mut b: Vec<u64> = par.top_k().into_iter().map(|(k, _)| k).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same elephants under unit weights");
    }

    #[test]
    fn heavy_weight_displaces_mouse() {
        // A mouse holds a bucket with a small counter; one giant weighted
        // packet must evict it and claim the leftover weight.
        let tiny = HkConfig::builder()
            .arrays(1)
            .width(1)
            .counter_bits(32)
            .k(2)
            .seed(9)
            .build();
        let mut hk = WeightedTopK::<u64>::new(tiny);
        hk.insert_weighted(&1, 3); // mouse holds bucket with C = 3
        hk.insert_weighted(&2, 1000);
        let est = hk.query(&2);
        assert!(est > 0, "giant packet must claim the bucket");
        assert!(est <= 1000, "claimed count bounded by arriving weight");
        assert_eq!(hk.query(&1), 0, "mouse evicted");
    }

    #[test]
    fn elephant_resists_weighted_mice() {
        // An elephant with a large counter faces many small weighted
        // opponents; geometric skipping must leave it essentially intact.
        let tiny = HkConfig::builder()
            .arrays(1)
            .width(1)
            .counter_bits(32)
            .k(2)
            .seed(9)
            .build();
        let mut hk = WeightedTopK::<u64>::new(tiny);
        hk.insert_weighted(&1, 500_000);
        for m in 0..1000u64 {
            hk.insert_weighted(&(10 + m), 100);
        }
        let est = hk.query(&1);
        assert!(est > 400_000, "elephant decayed too far: {est}");
    }

    #[test]
    fn counter_saturates_at_bit_width() {
        let c = HkConfig::builder()
            .arrays(1)
            .width(4)
            .counter_bits(16)
            .k(2)
            .seed(2)
            .build();
        let mut hk = WeightedTopK::<u64>::new(c);
        hk.insert_weighted(&3, 1 << 20);
        assert_eq!(hk.query(&3), (1 << 16) - 1);
    }

    #[test]
    fn weighted_decay_roll_statistics() {
        // Against C = 1 (p ≈ 0.926 at b = 1.08), one trial should succeed
        // ~92.6% of the time.
        let mut sk = HkSketch::new(&cfg(4, 2));
        let trials = 20_000;
        let mut zeroed = 0;
        for _ in 0..trials {
            let (c, _) = sk.weighted_decay_roll(1, 1);
            if c == 0 {
                zeroed += 1;
            }
        }
        let frac = zeroed as f64 / trials as f64;
        let expect = 1.08f64.powi(-1);
        assert!(
            (frac - expect).abs() < 0.02,
            "observed {frac}, expected {expect}"
        );
    }

    #[test]
    fn weighted_decay_roll_large_counter_immovable() {
        let mut sk = HkSketch::new(&cfg(4, 2));
        // Past the decay-table cutoff the counter must not move at all,
        // regardless of the opposing weight.
        let c0 = 1000;
        let (c, rem) = sk.weighted_decay_roll(c0, u64::MAX);
        assert_eq!(c, c0);
        assert_eq!(rem, 0);
    }

    #[test]
    fn weighted_decay_roll_huge_weight_zeroes_small_counter() {
        let mut sk = HkSketch::new(&cfg(4, 2));
        let (c, rem) = sk.weighted_decay_roll(5, 1 << 30);
        assert_eq!(c, 0, "5 cheap decays against 2^30 trials");
        assert!(rem > 0, "weight must remain after zeroing");
        assert!(rem < 1 << 30);
    }

    #[test]
    fn weighted_decay_roll_invariants() {
        let mut sk = HkSketch::new(&cfg(4, 2));
        let mut rng = XorShift64::new(77);
        for _ in 0..2000 {
            let c0 = 1 + rng.next_u64_raw() % 300;
            let w0 = rng.next_u64_raw() % 10_000;
            let (c, rem) = sk.weighted_decay_roll(c0, w0);
            assert!(c <= c0, "counter may only fall");
            assert!(rem <= w0, "weight may only be consumed");
            assert!(rem == 0 || c == 0, "leftover weight only after zeroing");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut hk = WeightedTopK::<u64>::new(cfg(64, 4));
            let mut rng = XorShift64::new(4);
            for _ in 0..10_000 {
                let r = rng.next_u64_raw();
                hk.insert_weighted(&(r % 50), 1 + r % 1500);
            }
            hk.top_k()
        };
        assert_eq!(run(), run());
    }
}
