//! The Software Minimum version (Section IV, Algorithm 2).
//!
//! The Parallel version decays *every* mapped bucket that belongs to
//! another flow, which Section IV-A shows is unnecessary and harmful:
//! decaying a large counter neither evicts its elephant nor contributes
//! to any query. The Minimum version touches **at most one bucket per
//! packet**:
//!
//! 1. If some mapped bucket holds the flow's fingerprint (and the
//!    Optimization II gate allows it), increment that one bucket.
//! 2. Otherwise, if some mapped bucket is empty, claim the first one.
//! 3. Otherwise, apply the decay roll to the **first smallest** mapped
//!    counter only ("minimum decay").
//!
//! Because each flow occupies at most one bucket (no duplicates across
//! arrays), memory is used more efficiently — the paper's Figures 23–31
//! show the accuracy gain, which experiments E15–E17 reproduce.
//!
//! ## The store step
//!
//! Algorithm 2 reads `flag` (is the flow in the top-k store?) first,
//! like Algorithm 1. Here the flow is looked up at most once per packet,
//! and only where a decision reads the answer: step 2's Optimization II
//! gate at a matching bucket whose counter exceeds `n_min`, and the
//! store update only when `HeavyK_V > n_min`. At or below `n_min` the
//! update changes nothing for either value of `flag` (a full store's
//! monitored flows count at least `n_min`; a store with room has
//! `n_min = 0`). The update is the Parallel variant's, with
//! Optimization I's `n_min + 1` admission rule (see
//! [`crate::parallel`]); `crates/core/tests/differential.rs` checks
//! every bucket, store entry and [`InsertStats`] counter against a
//! transcription that reads `flag` first.

use crate::bucket::BucketWord;
use crate::config::HkConfig;
use crate::sketch::{with_words, HkSketch, PreparedKey, SketchWords};
use crate::stats::InsertStats;
use crate::store::{Flag, TopKStore};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, KeySlots, PreparedBatch};

/// Software Minimum HeavyKeeper (Algorithm 2).
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, MinimumTopK};
/// use hk_common::TopKAlgorithm;
/// let cfg = HkConfig::builder().width(256).k(8).seed(1).build();
/// let mut hk = MinimumTopK::<u64>::new(cfg);
/// for i in 0..5000u64 {
///     hk.insert(&(i % 10));
///     hk.insert(&(1000 + i));
/// }
/// let top: Vec<u64> = hk.top_k().into_iter().map(|(k, _)| k).collect();
/// assert!(top.iter().all(|&k| k < 10));
/// ```
#[derive(Debug, Clone)]
pub struct MinimumTopK<K: FlowKey> {
    sketch: HkSketch,
    store: TopKStore<K>,
    cfg: HkConfig,
    /// Reusable batch-prolog scratch of prepared keys + cached slots.
    scratch: PreparedBatch,
}

impl<K: FlowKey> MinimumTopK<K> {
    /// Builds the algorithm from a configuration.
    pub fn new(cfg: HkConfig) -> Self {
        Self {
            sketch: HkSketch::new(&cfg),
            store: TopKStore::new(cfg.k),
            cfg,
            scratch: PreparedBatch::new(),
        }
    }

    /// Constructor from a total memory budget in bytes (Section VI-A
    /// accounting).
    pub fn with_memory(bytes: usize, k: usize, seed: u64) -> Self {
        let store_bytes = k * (K::ENCODED_LEN + 4);
        let sketch_bytes = bytes.saturating_sub(store_bytes).max(8);
        let cfg = HkConfig::builder()
            .memory_bytes(sketch_bytes)
            .k(k)
            .seed(seed)
            .build();
        Self::new(cfg)
    }

    /// Read access to the underlying sketch.
    pub fn sketch(&self) -> &HkSketch {
        &self.sketch
    }

    /// Mutable access for the [`crate::merge`] machinery.
    pub(crate) fn sketch_mut(&mut self) -> &mut HkSketch {
        &mut self.sketch
    }

    /// Offers a flow with an externally derived estimate to the top-k
    /// store (collector-side path: no Optimization I gate, estimates
    /// arrive in arbitrary steps rather than +1 increments).
    pub(crate) fn offer(&mut self, key: K, estimate: u64) {
        self.store.offer(key, estimate);
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &HkConfig {
        &self.cfg
    }

    /// Insertion-outcome counters since construction or [`reset`](Self::reset).
    pub fn stats(&self) -> &InsertStats {
        self.sketch.stats()
    }

    /// Clears all measurement state for a new epoch, keeping the
    /// configuration. Used by periodic network-wide collection (paper
    /// footnote 2), where each switch reports and resets per period.
    pub fn reset(&mut self) {
        self.sketch.reset();
        self.store.clear();
    }

    /// The scalar insert: picks the bucket word for this one packet.
    fn insert_keyed<S: KeySlots>(&mut self, key: &K, s: &S) {
        with_words!(self.sketch, sk => Self::insert_words(&mut self.store, &mut sk, key, s))
    }

    /// The insert body (Algorithm 2), generic over the bucket word and
    /// over how bucket slots are obtained (on demand for the scalar
    /// path, cached for the batched path, which picks the word once
    /// per batch).
    fn insert_words<W: BucketWord, S: KeySlots>(
        store: &mut TopKStore<K>,
        sk: &mut SketchWords<'_, W>,
        key: &K,
        s: &S,
    ) {
        // Step 1: the admission floor; `flag` is looked up lazily (see
        // the module docs).
        let nmin = store.nmin();
        let mut flag = Flag::default();

        // Steps 2-4: the at-most-one-bucket walk
        // ([`SketchWords::walk_minimum`]).
        let (heavy_v, blocked) = sk.walk_minimum(s, nmin, || flag.read(store, key));
        if blocked {
            sk.stats_mut().blocked += 1;
            sk.note_blocked();
        }

        // Step 5: top-k store update (the Parallel version's rule).
        store.update_gated(key, heavy_v, nmin, flag, sk.stats_mut());
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for MinimumTopK<K> {
    fn insert(&mut self, key: &K) {
        let kb = key.key_bytes();
        let p = self.sketch.prepare(kb.as_slice());
        self.insert_prepared(key, &p);
    }

    fn insert_batch(&mut self, keys: &[K]) {
        // Prolog: hash the whole batch into the scratch buffer, then walk
        // buckets in pre-touched blocks — the shared body lives in
        // `sketch::hk_insert_batch_body`.
        crate::sketch::hk_insert_batch_body!(self, keys);
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
        "HK-Minimum"
    }
}

impl<K: FlowKey> PreparedInsert<K> for MinimumTopK<K> {
    fn hash_spec(&self) -> HashSpec {
        self.sketch.hash_spec()
    }

    fn insert_prepared(&mut self, key: &K, p: &PreparedKey) {
        self.insert_keyed(key, p);
    }

    fn insert_prepared_batch(&mut self, keys: &[K], prepared: &[PreparedKey]) {
        // Hash-once handoff: the upstream stage already prepared every
        // key; rebuild the slot table locally and go straight to the
        // pre-touched block walk.
        crate::sketch::hk_insert_prepared_batch_body!(self, keys, prepared);
    }

    fn consumes_prepared(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(w: usize, k: usize) -> HkConfig {
        HkConfig::builder().arrays(2).width(w).k(k).seed(5).build()
    }

    #[test]
    fn situation1_increments_single_bucket() {
        let mut hk = MinimumTopK::<u64>::new(cfg(32, 4));
        for _ in 0..10 {
            hk.insert(&1);
        }
        // Exactly one bucket in the whole sketch should hold the flow.
        let occupancy = hk.sketch().occupancy();
        assert_eq!(occupancy, 1, "Minimum version must not duplicate flows");
        assert_eq!(hk.query(&1), 10);
    }

    #[test]
    fn no_duplicates_across_arrays() {
        let mut hk = MinimumTopK::<u64>::new(cfg(64, 8));
        for i in 0..5000u64 {
            hk.insert(&(i % 20));
        }
        // 20 flows, each in at most one bucket: occupancy <= 20.
        assert!(hk.sketch().occupancy() <= 20);
    }

    #[test]
    fn parallel_may_duplicate_minimum_does_not() {
        use crate::parallel::ParallelTopK;
        let c = cfg(64, 8);
        let mut par = ParallelTopK::<u64>::new(c.clone());
        let mut min = MinimumTopK::<u64>::new(c);
        for i in 0..20_000u64 {
            let f = i % 10;
            par.insert(&f);
            min.insert(&f);
        }
        // Ten flows: Minimum occupies <= 10 buckets; Parallel typically
        // holds each flow in ~d buckets.
        assert!(min.sketch().occupancy() <= 10);
        assert!(par.sketch().occupancy() > min.sketch().occupancy());
    }

    #[test]
    fn elephants_found_under_tight_memory() {
        // 8 buckets total for 4 elephants + mice stream.
        let mut hk = MinimumTopK::<u64>::new(cfg(4, 4));
        for round in 0..3000u64 {
            for e in 0..4u64 {
                hk.insert(&e);
            }
            hk.insert(&(100 + round));
        }
        let top: Vec<u64> = hk.top_k().into_iter().map(|(k, _)| k).collect();
        let hits = top.iter().filter(|&&k| k < 4).count();
        assert!(hits >= 3, "top = {top:?}");
    }

    #[test]
    fn no_overestimation() {
        use std::collections::HashMap;
        let mut hk = MinimumTopK::<u64>::new(cfg(64, 8));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 7u64;
        for _ in 0..30_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                state % 8
            } else {
                100 + state % 3000
            };
            hk.insert(&f);
            *truth.entry(f).or_insert(0) += 1;
        }
        for (f, est) in hk.top_k() {
            assert!(est <= truth[&f], "flow {f}: {est} > {}", truth[&f]);
        }
    }

    #[test]
    fn minimum_decay_targets_smallest() {
        // Craft: one array pair where a flow's two buckets hold counters
        // 1 (mouse) and large (elephant). Insert a new flow repeatedly —
        // only the small bucket may ever be displaced.
        let mut hk = MinimumTopK::<u64>::new(cfg(1, 2)); // 2 arrays x 1 bucket
        for _ in 0..10_000 {
            hk.insert(&1); // Elephant takes the single bucket of array 1.
        }
        let big_before = hk
            .sketch()
            .bucket(0, 0)
            .count
            .max(hk.sketch().bucket(1, 0).count);
        assert!(big_before > 5_000);
        // A stream of distinct mice hits both buckets; minimum decay
        // must chew on the smaller one and leave the elephant's counter
        // almost intact.
        for m in 0..2000u64 {
            hk.insert(&(10 + m));
        }
        let big_after = hk
            .sketch()
            .bucket(0, 0)
            .count
            .max(hk.sketch().bucket(1, 0).count);
        assert!(
            big_after + 10 >= big_before,
            "elephant bucket decayed {big_before} -> {big_after}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut hk = MinimumTopK::<u64>::new(cfg(64, 4));
            for i in 0..10_000u64 {
                hk.insert(&(i % 50));
            }
            hk.top_k()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_touch_at_most_one_bucket_per_packet() {
        let mut hk = MinimumTopK::<u64>::new(cfg(32, 4));
        for i in 0..5000u64 {
            hk.insert(&(i % 100));
        }
        let s = *hk.stats();
        assert_eq!(s.packets, 5000);
        // The Minimum version's defining property, visible in the
        // counters: at most one bucket *write path* per packet.
        let touches = s.empty_claims + s.increments + s.decay_rolls;
        assert!(touches <= 5000, "more than one touched bucket per packet");
        assert!(s.decays <= s.decay_rolls);
        assert!(s.replacements <= s.decays);
    }
}
