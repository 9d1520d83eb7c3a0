//! The Hardware Parallel version (Section III-E, Algorithm 1).
//!
//! Adds two optimizations to the basic version:
//!
//! * **Optimization I — fingerprint-collision detection.** Theorem 1:
//!   with no fingerprint collision, a freshly inserted flow whose
//!   estimate exceeds `n_min` must satisfy `n̂ = n_min + 1` exactly. A
//!   flow outside the top-k store reporting `n̂ > n_min + 1` therefore
//!   rode someone else's bucket via a fingerprint collision, and is *not*
//!   admitted.
//! * **Optimization II — selective increment.** A flow outside the store
//!   may not grow a matching bucket whose counter is already at or above
//!   `n_min`: if it were really that large it would be in the store, so
//!   the match is a collision and incrementing only adds error.
//!
//! Each array's bucket update depends only on that array, so the `d`
//! operations can run in parallel in hardware — hence the name. (This
//! implementation runs them sequentially; the *property* matters for
//! FPGA/ASIC ports, not for the accuracy evaluation.)
//!
//! ## The store step: `flag` read only where a decision needs it
//!
//! Algorithm 1 reads `flag` (is the flow in the top-k store?) before
//! the walk. Only two decisions use it, so the flow is looked up in the
//! store at most once per packet, and only when one of them is reached:
//!
//! * Optimization II's gate reads it only at a matching bucket whose
//!   counter exceeds `n_min`; a counter at or below `n_min` increments
//!   whatever `flag` says;
//! * lines 21–25 change nothing when `HeavyK_V ≤ n_min`: once the store
//!   is full a monitored flow already counts at least `n_min`, and an
//!   outside flow is neither admitted nor rejected; before that
//!   `n_min = 0` and an estimate of 0 has nothing to raise or admit.
//!
//! The lookup yields a handle that the raise or the admission acts on.
//! `n_min` is read before the walk and the walk never touches the
//! store, so every bucket, every store entry with its tie order, and
//! every [`InsertStats`] counter come out exactly as in the paper's
//! order; `crates/core/tests/differential.rs` checks that against a
//! transcription that reads `flag` first.

use crate::bucket::BucketWord;
use crate::config::HkConfig;
use crate::sketch::{with_words, HkSketch, PreparedKey, SketchWords};
use crate::stats::InsertStats;
use crate::store::{Flag, TopKStore};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, KeySlots, PreparedBatch};

/// Hardware Parallel HeavyKeeper (Algorithm 1).
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, ParallelTopK};
/// use hk_common::TopKAlgorithm;
/// let cfg = HkConfig::builder().width(256).k(8).seed(1).build();
/// let mut hk = ParallelTopK::<u64>::new(cfg);
/// for i in 0..5000u64 {
///     hk.insert(&(i % 10)); // ten equal elephants
///     hk.insert(&(1000 + i)); // mice
/// }
/// let top: Vec<u64> = hk.top_k().into_iter().map(|(k, _)| k).collect();
/// assert!(top.iter().all(|&k| k < 10), "top-k must be the elephants");
/// ```
#[derive(Debug, Clone)]
pub struct ParallelTopK<K: FlowKey> {
    sketch: HkSketch,
    store: TopKStore<K>,
    cfg: HkConfig,
    /// Reusable batch-prolog scratch of prepared keys + cached slots.
    scratch: PreparedBatch,
}

impl<K: FlowKey> ParallelTopK<K> {
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
    /// accounting: Stream-Summary with `m = k` entries plus the sketch).
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

    /// The batch-prolog scratch: a sliding window keeps one per ring
    /// and moves it to the open epoch at each rotation.
    pub(crate) fn scratch_mut(&mut self) -> &mut PreparedBatch {
        &mut self.scratch
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

    /// Restores the instance to the exact as-constructed state of an
    /// `arrays`-array instance of its configuration — buckets zeroed,
    /// decay RNG rewound, store emptied — so it is indistinguishable
    /// from `ParallelTopK::new(cfg)` with `cfg.arrays = arrays` while
    /// keeping its (already page-resident) bucket matrix and the
    /// store's allocations ([`TopKStore::clear`]). The sliding window
    /// recycles evicted epochs through this, at its own array count
    /// ([`HkSketch::recycle`]).
    pub fn recycle(&mut self, arrays: usize) {
        self.cfg.arrays = arrays;
        self.sketch.recycle(arrays);
        self.store.clear();
    }

    /// Queries an already-prepared flow (the sliding window prepares a
    /// candidate once and queries every epoch with it).
    #[inline]
    pub fn query_prepared(&self, p: &PreparedKey) -> u64 {
        self.sketch.query_prepared(p)
    }

    /// Keeps only the monitored flows for which `keep` returns true;
    /// the sketch is untouched. This is the reshard carry: a child
    /// restored from a parent checkpoint keeps the whole (conservative,
    /// never-overestimating) sketch but reports only the flows the new
    /// lane map routes to it.
    pub fn retain_monitored(&mut self, keep: &mut dyn FnMut(&K) -> bool) {
        self.store.retain(keep);
    }

    /// The scalar insert: picks the bucket word for this one packet.
    fn insert_keyed<S: KeySlots>(&mut self, key: &K, s: &S) {
        with_words!(self.sketch, sk => Self::insert_words(&mut self.store, &mut sk, key, s))
    }

    /// The insert body (Algorithm 1), generic over the bucket word and
    /// over how bucket slots are obtained (on demand for the scalar
    /// path, cached for the batched path, which picks the word once
    /// per batch).
    fn insert_words<W: BucketWord, S: KeySlots>(
        store: &mut TopKStore<K>,
        sk: &mut SketchWords<'_, W>,
        key: &K,
        s: &S,
    ) {
        // Step 1: the admission floor. `flag` is looked up lazily (see
        // the module docs).
        let nmin = store.nmin();
        let mut flag = Flag::default();

        // Step 2: per-array bucket update (Algorithm 1 lines 4-20, the
        // word-level walk in [`SketchWords::walk_parallel`]).
        let (heavy_v, blocked) = sk.walk_parallel(s, nmin, || flag.read(store, key));
        if blocked {
            sk.stats_mut().blocked += 1;
            sk.note_blocked();
        }

        // Step 3: top-k store update (Algorithm 1 lines 21-25, with
        // Optimization I's n_min + 1 admission rule).
        store.update_gated(key, heavy_v, nmin, flag, sk.stats_mut());
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for ParallelTopK<K> {
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
        "HK-Parallel"
    }
}

impl<K: FlowKey> PreparedInsert<K> for ParallelTopK<K> {
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
    use crate::config::ExpansionPolicy;

    fn cfg(w: usize, k: usize) -> HkConfig {
        HkConfig::builder().arrays(2).width(w).k(k).seed(5).build()
    }

    #[test]
    fn elephants_beat_mice() {
        let mut hk = ParallelTopK::<u64>::new(cfg(256, 5));
        // 5 elephants with 2000 packets each, 5000 distinct mice.
        for round in 0..2000u64 {
            for e in 0..5u64 {
                hk.insert(&e);
            }
            hk.insert(&(10_000 + round * 2));
            hk.insert(&(10_001 + round * 2));
        }
        let top: Vec<u64> = hk.top_k().into_iter().map(|(k, _)| k).collect();
        assert_eq!(top.len(), 5);
        assert!(top.iter().all(|&k| k < 5), "top = {top:?}");
    }

    #[test]
    fn no_overestimation_of_reported_sizes() {
        use std::collections::HashMap;
        let mut hk = ParallelTopK::<u64>::new(cfg(128, 8));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 1u64;
        for _ in 0..30_000 {
            // Cheap xorshift for a skewed-ish stream.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = state % 64;
            let f = if f < 8 { f } else { 8 + state % 2000 };
            hk.insert(&f);
            *truth.entry(f).or_insert(0) += 1;
        }
        for (f, est) in hk.top_k() {
            assert!(
                est <= truth[&f],
                "flow {f}: estimate {est} exceeds truth {}",
                truth[&f]
            );
        }
    }

    #[test]
    fn optimization_i_rejects_collision_sizes() {
        // A flow not in the store whose estimate jumps past nmin+1 must
        // not be admitted. We simulate by filling the store with large
        // flows, then giving a newcomer a colliding (large) estimate: we
        // can't force a fingerprint collision deterministically through
        // the public API, so instead verify the admission arithmetic on
        // the store level: after the store is full, every newly admitted
        // flow entered with estimate nmin+1.
        let mut hk = ParallelTopK::<u64>::new(cfg(512, 4));
        for f in 0..4u64 {
            for _ in 0..100 {
                hk.insert(&f);
            }
        }
        assert!(hk.store.is_full());
        let nmin_before = hk.store.nmin();
        assert!(nmin_before > 50);
        // A brand-new flow cannot enter with fewer than nmin packets.
        for _ in 0..5 {
            hk.insert(&99);
        }
        assert!(!hk.store.contains(&99), "mouse must not displace elephants");
    }

    #[test]
    fn optimization_ii_freezes_foreign_buckets() {
        // Flow A grows big; its bucket counter C >= nmin. A colliding
        // non-monitored flow with the same fingerprint may not increment
        // past nmin. We approximate via direct sketch inspection: after
        // heavy traffic, insert a swarm of mice and check no bucket
        // counter exceeds the true elephant size.
        let mut hk = ParallelTopK::<u64>::new(cfg(64, 2));
        for _ in 0..5000 {
            hk.insert(&7);
        }
        let est_before = hk.query(&7);
        for m in 0..2000u64 {
            hk.insert(&(100 + m));
        }
        // The elephant's estimate may only have decayed, never grown.
        assert!(hk.query(&7) <= est_before);
    }

    #[test]
    fn expansion_gives_late_elephant_room() {
        let base = HkConfig::builder().arrays(2).width(2).k(2).seed(9);
        // Without expansion: fill both tiny arrays with giants.
        let mut hk_fixed = ParallelTopK::<u64>::new(base.clone().build());
        let mut hk_exp = ParallelTopK::<u64>::new(
            base.expansion(ExpansionPolicy {
                large_counter: 50,
                blocked_threshold: 100,
                max_arrays: 6,
            })
            .build(),
        );
        for hk in [&mut hk_fixed, &mut hk_exp] {
            for f in 0..4u64 {
                for _ in 0..2000 {
                    hk.insert(&f);
                }
            }
            // Late elephant hammers 3000 packets.
            for _ in 0..3000 {
                hk.insert(&999);
            }
        }
        assert_eq!(hk_fixed.sketch().expansions(), 0);
        assert!(
            hk_exp.sketch().expansions() >= 1,
            "expansion should have triggered"
        );
        // The expanded sketch must know the late elephant much better.
        assert!(
            hk_exp.query(&999) > hk_fixed.query(&999).saturating_add(500),
            "expanded {} vs fixed {}",
            hk_exp.query(&999),
            hk_fixed.query(&999)
        );
    }

    #[test]
    fn store_not_full_admits_any_positive_estimate() {
        let mut hk = ParallelTopK::<u64>::new(cfg(64, 10));
        hk.insert(&1);
        assert!(hk.store.contains(&1));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut hk = ParallelTopK::<u64>::new(cfg(64, 4));
            for i in 0..10_000u64 {
                hk.insert(&(i % 50));
            }
            hk.top_k()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_account_for_every_packet() {
        let mut hk = ParallelTopK::<u64>::new(cfg(32, 4));
        for i in 0..5000u64 {
            hk.insert(&(i % 100));
        }
        let s = *hk.stats();
        assert_eq!(s.packets, 5000);
        // Every packet touches d = 2 buckets; each touch is exactly one
        // of: empty claim, applied increment, gated increment, decay roll.
        let touches = s.empty_claims + s.increments + s.increments_gated + s.decay_rolls;
        assert_eq!(touches, 5000 * 2, "bucket-touch accounting leak");
        assert!(s.decays <= s.decay_rolls);
        assert!(s.replacements <= s.decays);
        // reset clears.
        hk.reset();
        assert_eq!(*hk.stats(), crate::stats::InsertStats::default());
    }

    #[test]
    fn stats_match_rate_high_when_flows_fit() {
        // 10 flows over 2x256 buckets: after warm-up every flow is held
        // and monitored, so nearly every touch is an applied increment.
        let mut hk = ParallelTopK::<u64>::new(cfg(256, 10));
        for i in 0..20_000u64 {
            hk.insert(&(i % 10));
        }
        let s = *hk.stats();
        assert!(s.match_rate() > 0.8, "match rate {}", s.match_rate());
        assert_eq!(s.admissions, 10, "each flow admitted exactly once");
    }
}
