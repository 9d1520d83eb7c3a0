//! The basic HeavyKeeper top-k finder (Section III-C).
//!
//! Per packet: insert into the sketch with the plain three-case rule
//! (decay in every mapped bucket), read back the estimate `n̂`, and update
//! the top-k store — `max`-update if the flow is already monitored,
//! otherwise admit it whenever `n̂` exceeds the current minimum.
//!
//! This version has neither Optimization I (fingerprint-collision
//! detection) nor Optimization II (selective increment); it exists as the
//! paper's baseline variant and as the subject of the appendix error
//! bound (Theorem 5), which experiment E21 validates.

use crate::bucket::BucketWord;
use crate::config::HkConfig;
use crate::sketch::{with_words, HkSketch, PreparedKey, SketchWords};
use crate::store::{Flag, TopKStore};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, KeySlots, PreparedBatch};

/// Basic HeavyKeeper + top-k store (Section III-C; a Stream-Summary, as
/// the paper implements its min-heap).
///
/// # Examples
///
/// ```
/// use heavykeeper::{BasicTopK, HkConfig};
/// use hk_common::TopKAlgorithm;
/// let cfg = HkConfig::builder().width(128).k(4).seed(2).build();
/// let mut hk = BasicTopK::<u64>::new(cfg);
/// for _ in 0..1000 { hk.insert(&1); }
/// for i in 0..100u64 { hk.insert(&(i + 10)); }
/// assert_eq!(hk.top_k()[0].0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BasicTopK<K: FlowKey> {
    sketch: HkSketch,
    store: TopKStore<K>,
    cfg: HkConfig,
    /// Reusable batch-prolog scratch of prepared keys + cached slots.
    scratch: PreparedBatch,
}

impl<K: FlowKey> BasicTopK<K> {
    /// Builds the algorithm from a configuration.
    pub fn new(cfg: HkConfig) -> Self {
        Self {
            sketch: HkSketch::new(&cfg),
            store: TopKStore::new(cfg.k),
            cfg,
            scratch: PreparedBatch::new(),
        }
    }

    /// Convenience constructor from a total memory budget (bytes): the
    /// top-k store gets its `k·(ID+4)` bytes, the sketch the remainder —
    /// the paper's Section VI-A accounting.
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

    /// Read access to the underlying sketch (diagnostics and tests).
    pub fn sketch(&self) -> &HkSketch {
        &self.sketch
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &HkConfig {
        &self.cfg
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

    /// The insert body, generic over the bucket word and over how
    /// bucket slots are obtained (on demand for the scalar path, cached
    /// for the batched path, which picks the word once per batch).
    fn insert_words<W: BucketWord, S: KeySlots>(
        store: &mut TopKStore<K>,
        sk: &mut SketchWords<'_, W>,
        key: &K,
        s: &S,
    ) {
        sk.walk_basic(s);
        let estimate = sk.query(s);
        // Raise a monitored flow, admit an outside one above n_min (0
        // while the store has room, as in the paper). No walk decision
        // reads `flag`, so only the store update may look the flow up.
        store.update(key, estimate, store.nmin(), Flag::default());
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for BasicTopK<K> {
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
        "HK-Basic"
    }
}

impl<K: FlowKey> PreparedInsert<K> for BasicTopK<K> {
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

    fn small_cfg() -> HkConfig {
        HkConfig::builder().arrays(2).width(64).k(4).seed(3).build()
    }

    #[test]
    fn finds_single_elephant() {
        let mut hk = BasicTopK::<u64>::new(small_cfg());
        for _ in 0..500 {
            hk.insert(&42);
        }
        for i in 0..200u64 {
            hk.insert(&(100 + i));
        }
        let top = hk.top_k();
        assert_eq!(top[0].0, 42);
        assert!(top[0].1 <= 500, "no over-estimation");
        assert!(
            top[0].1 > 400,
            "estimate should be near 500, got {}",
            top[0].1
        );
    }

    #[test]
    fn top_k_sorted_and_bounded() {
        let mut hk = BasicTopK::<u64>::new(small_cfg());
        for f in 1..=8u64 {
            for _ in 0..(f * 50) {
                hk.insert(&f);
            }
        }
        let top = hk.top_k();
        assert!(top.len() <= 4);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn query_mouse_flow_is_small() {
        let mut hk = BasicTopK::<u64>::new(small_cfg());
        for _ in 0..1000 {
            hk.insert(&1);
        }
        hk.insert(&999);
        // Flow 999 was inserted once; its estimate is at most 1 (or 0 if
        // its buckets are contested).
        assert!(hk.query(&999) <= 1);
    }

    #[test]
    fn memory_accounting_includes_store() {
        let hk = BasicTopK::<u64>::new(small_cfg());
        // Sketch: 2x64x4 = 512; store: 4x(8+4) = 48.
        assert_eq!(hk.memory_bytes(), 512 + 48);
    }

    #[test]
    fn with_memory_budget_respected() {
        let hk = BasicTopK::<u64>::with_memory(10 * 1024, 100, 1);
        assert!(hk.memory_bytes() <= 10 * 1024);
        // Should use most of the budget, not a token amount.
        assert!(hk.memory_bytes() > 9 * 1024);
    }

    #[test]
    fn empty_top_k_initially() {
        let hk = BasicTopK::<u64>::new(small_cfg());
        assert!(hk.top_k().is_empty());
        assert_eq!(hk.query(&1), 0);
    }
}
