//! Sliding-window top-k — an extension beyond the paper.
//!
//! The paper's deployment model is *tumbling*: every reporting period
//! the switch ships its sketch and resets (footnote 2). Operators often
//! want the complementary *sliding* view — "the top-k flows over the
//! last W periods" — which the related-work line on CSS ("heavy hitters
//! in streams and sliding windows", Ben-Basat et al.) pursues for
//! Space-Saving. [`SlidingTopK`] provides it for HeavyKeeper with the
//! standard epoch-ring construction:
//!
//! * the window is `W` epochs; each epoch is an independent
//!   [`ParallelTopK`] over only that epoch's packets;
//! * ingest feeds the newest epoch — through the full batch-first
//!   pipeline: [`SlidingTopK::insert_batch`] runs one prepared-batch
//!   prehash + slot-table prolog and a pre-touched block walk, and the
//!   window implements [`PreparedInsert`] so upstream stages that
//!   already hashed can hand prepared keys straight in;
//! * [`SlidingTopK::rotate`] closes the newest epoch and *recycles* the
//!   oldest: the evicted epoch's bucket matrix is cleared with one
//!   memset (its decay RNG rewound, its store cleared in place) and
//!   reused as the new epoch, so the eagerly-populated pages stay hot
//!   across rotations instead of being freed and page-faulted back in. One
//!   call per period boundary — the caller owns the clock, so tests and
//!   simulations stay deterministic. A recycled epoch is bit-exact with
//!   a freshly allocated one ([`ParallelTopK::recycle`]);
//! * a window query sums per-epoch estimates over the live epochs.
//!   All epochs share `cfg.seed`, so one [`PreparedKey`] is valid in
//!   every epoch: a candidate is hashed **once** and walked through all
//!   `W` epochs ([`ParallelTopK::query_prepared`]).
//!   Per-epoch estimates never over-estimate (Theorem 2), so the summed
//!   window estimate never over-estimates the flow's window count.
//!
//! The window's candidate set is the union of per-epoch top-k sets
//! (deduplicated through a hash set, not a quadratic scan). A flow that
//! is top-k over the window but never top-k within any single epoch can
//! be missed — the same within-epoch granularity limit as every
//! epoch-ring scheme; widening per-epoch `k` mitigates it.
//!
//! Memory is `W`× one sketch, the usual price of sliding windows, and
//! the ring is all the window keeps: the dirty exporter reads its
//! baseline from the ring too ([`SlidingTopK::export_dirty`]).

use std::collections::{HashSet, VecDeque};
use std::sync::{Mutex, PoisonError};

use crate::bucket::PackedLayout;
use crate::config::HkConfig;
use crate::merge::MergeError;
use crate::parallel::ParallelTopK;
use crate::sketch::MAX_ARRAYS;
use hk_common::algorithm::{EpochRotate, PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, PreparedKey};

/// The most bucket-word bytes one ring may span: 1 GiB, 256× the 4 MiB
/// rings of the ledger's `fleet-window` switches. A window frame's
/// length does not bound what its decode allocates, so
/// [`WindowFrame::decode`](crate::wire::WindowFrame::decode) refuses a
/// ring over this bound and [`SlidingTopK::new`] refuses to build one.
pub const MAX_RING_BYTES: usize = 1 << 30;

/// The most rows an epoch of a ring built from `cfg` can hold: its
/// array count, or the Section III-F cap when expansion grows past it.
pub(crate) fn max_rows(cfg: &HkConfig) -> usize {
    let cap = cfg.expansion.map_or(0, |p| p.max_arrays.min(MAX_ARRAYS));
    cfg.arrays.max(cap)
}

/// Bucket-word bytes of a `window`-epoch ring of `cfg` with every epoch
/// at [`max_rows`]; `None` past `usize`.
pub(crate) fn ring_bytes(cfg: &HkConfig, window: usize) -> Option<usize> {
    let word = PackedLayout::new(cfg.fingerprint_bits, cfg.counter_bits).word_bytes();
    window
        .checked_mul(max_rows(cfg))?
        .checked_mul(cfg.width)?
        .checked_mul(word)
}

/// Top-k flows over a sliding window of the last `W` epochs.
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, sliding::SlidingTopK};
/// use hk_common::TopKAlgorithm;
///
/// let cfg = HkConfig::builder().width(256).k(4).seed(1).build();
/// let mut win = SlidingTopK::<u64>::new(cfg, 3); // last 3 epochs
/// for epoch in 0..5u64 {
///     let period = vec![epoch; 1000]; // each epoch has its own elephant
///     win.insert_batch(&period);
///     win.rotate();
/// }
/// let top: Vec<u64> = win.top_k().into_iter().map(|(k, _)| k).collect();
/// // Epochs 0 and 1 have slid out of the window.
/// assert!(!top.contains(&0) && !top.contains(&1));
/// assert!(top.contains(&4));
/// ```
#[derive(Debug)]
pub struct SlidingTopK<K: FlowKey> {
    epochs: VecDeque<ParallelTopK<K>>,
    cfg: HkConfig,
    window: usize,
    rotations: u64,
    /// The rotation count when the ring was last rebuilt
    /// ([`SlidingTopK::from_epochs`]) or rewritten in place
    /// ([`SlidingTopK::merge_from`], [`SlidingTopK::retain_monitored`]).
    /// An epoch closed at or before it may differ from what any earlier
    /// export shipped, so it is never a dirty patch's baseline
    /// ([`SlidingTopK::patch_base`]).
    rewritten_at: u64,
    /// True while the open (newest) epoch is as-constructed: set by
    /// [`SlidingTopK::rotate`], cleared by every write. The in-place
    /// apply writes into a fresh open epoch directly and sets any other
    /// aside first ([`SlidingTopK::close_open_epoch`]).
    open_fresh: bool,
    /// Reusable scratch for [`SlidingTopK::top_k`]: the dedup set and
    /// the candidate buffer keep their capacity across queries instead
    /// of being reallocated per call (a windowed monitor polls `top_k`
    /// every few batches, and `W·k` candidates per poll add up). A
    /// `Mutex` (not `RefCell`) so the window stays `Sync` like every
    /// other algorithm here — uncontended on the single-owner path.
    topk_scratch: Mutex<TopKScratch<K>>,
}

/// The per-query allocations of `top_k`, retained across calls.
#[derive(Debug)]
struct TopKScratch<K> {
    seen: HashSet<K>,
    candidates: Vec<(K, u64)>,
}

impl<K> Default for TopKScratch<K> {
    fn default() -> Self {
        Self {
            seen: HashSet::new(),
            candidates: Vec::new(),
        }
    }
}

impl<K: FlowKey> Clone for SlidingTopK<K> {
    fn clone(&self) -> Self {
        Self {
            epochs: self.epochs.clone(),
            cfg: self.cfg.clone(),
            window: self.window,
            rotations: self.rotations,
            rewritten_at: self.rewritten_at,
            open_fresh: self.open_fresh,
            // Scratch is cheap to refill; a clone starts cold.
            topk_scratch: Mutex::new(TopKScratch::default()),
        }
    }
}

impl<K: FlowKey> SlidingTopK<K> {
    /// Creates a window of `window` epochs, each an independent
    /// HeavyKeeper built from `cfg`.
    ///
    /// All epochs share `cfg.seed`, so a flow occupies the same buckets
    /// in every epoch — this is what lets the window hash a flow once
    /// and reuse the prepared state across all live epochs.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, or if the ring would span more than
    /// [`MAX_RING_BYTES`] of bucket words with every epoch grown to its
    /// Section III-F cap.
    pub fn new(cfg: HkConfig, window: usize) -> Self {
        assert!(window > 0, "window must span at least one epoch");
        assert!(
            ring_bytes(&cfg, window).is_some_and(|n| n <= MAX_RING_BYTES),
            "a {window}-epoch ring of this config exceeds MAX_RING_BYTES"
        );
        let mut epochs = VecDeque::with_capacity(window);
        epochs.push_back(ParallelTopK::new(cfg.clone()));
        Self {
            epochs,
            cfg,
            window,
            rotations: 0,
            rewritten_at: 0,
            open_fresh: true,
            topk_scratch: Mutex::new(TopKScratch::default()),
        }
    }

    /// Constructor from a *total* memory budget in bytes: the budget is
    /// split evenly across the `window` epochs (each epoch gets the
    /// [`ParallelTopK::with_memory`] accounting of its share), so a
    /// windowed run is charged the same total memory as a steady-state
    /// run with the same `--memory` flag.
    ///
    /// # Panics
    ///
    /// Panics like [`SlidingTopK::new`].
    pub fn with_memory(bytes: usize, k: usize, seed: u64, window: usize) -> Self {
        assert!(window > 0, "window must span at least one epoch");
        let store_bytes = k * (K::ENCODED_LEN + 4);
        let sketch_bytes = (bytes / window).saturating_sub(store_bytes).max(8);
        let cfg = HkConfig::builder()
            .memory_bytes(sketch_bytes)
            .k(k)
            .seed(seed)
            .build();
        Self::new(cfg, window)
    }

    /// Number of epochs the window spans.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of epochs currently live (≤ `window`; smaller at startup).
    pub fn live_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Total period boundaries crossed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The configuration each epoch is built from.
    pub fn config(&self) -> &HkConfig {
        &self.cfg
    }

    fn newest(&self) -> &ParallelTopK<K> {
        self.epochs
            .back()
            .expect("at least one epoch is always live")
    }

    /// The open epoch, for a write: it is no longer as-constructed.
    fn newest_mut(&mut self) -> &mut ParallelTopK<K> {
        self.open_fresh = false;
        self.epochs
            .back_mut()
            .expect("at least one epoch is always live")
    }

    /// Processes one packet of flow `key` into the newest epoch.
    pub fn insert(&mut self, key: &K) {
        self.newest_mut().insert(key);
    }

    /// Processes a batch into the newest epoch through the batch-first
    /// pipeline: one prepared-batch prehash + slot-table prolog, then a
    /// pre-touched block walk ([`ParallelTopK::insert_batch`]). Only
    /// the open epoch ingests, so the ring keeps one prolog scratch,
    /// which [`SlidingTopK::rotate`] hands to each new open epoch; and
    /// a rotation clears the recycled epoch's top-k store in place, so
    /// steady-state windowed ingest refills allocations the ring
    /// already holds.
    pub fn insert_batch(&mut self, keys: &[K]) {
        self.newest_mut().insert_batch(keys);
    }

    /// Crosses a period boundary: opens a fresh epoch and, once more
    /// than `window` epochs are live, *recycles* the oldest — its
    /// bucket matrix is cleared with one memset and reused as the new
    /// epoch ([`ParallelTopK::recycle`]), keeping the matrix's
    /// eagerly-populated pages hot instead of allocating afresh.
    pub fn rotate(&mut self) {
        // Only the open epoch ingests: its batch scratch moves on to the
        // next open epoch rather than each epoch growing its own.
        let scratch = std::mem::take(self.newest_mut().scratch_mut());
        if self.epochs.len() == self.window {
            let mut evicted = self
                .epochs
                .pop_front()
                .expect("at least one epoch is always live");
            // At the ring's own array count: an epoch rebuilt from a
            // frame carries any Section III-F rows as configured ones.
            evicted.recycle(self.cfg.arrays);
            self.epochs.push_back(evicted);
        } else {
            self.epochs.push_back(ParallelTopK::new(self.cfg.clone()));
        }
        *self.newest_mut().scratch_mut() = scratch;
        self.rotations += 1;
        self.open_fresh = true;
    }

    /// Hashes a flow once; the prepared state is valid in every epoch
    /// (shared seed).
    fn prepare(&self, key: &K) -> PreparedKey {
        let kb = key.key_bytes();
        self.newest().sketch().prepare(kb.as_slice())
    }

    /// The flow's estimated size over the window: the sum of per-epoch
    /// estimates. The flow is hashed exactly once and walked through
    /// every live epoch. Never over-estimates the window count (each
    /// summand is a per-epoch lower bound, Theorem 2).
    pub fn query(&self, key: &K) -> u64 {
        let p = self.prepare(key);
        self.epochs.iter().map(|e| e.query_prepared(&p)).sum()
    }

    /// The top-k flows over the window, largest first.
    ///
    /// Candidates are the union of per-epoch top-k sets (hash-set
    /// deduplicated, epoch order preserved); each candidate is
    /// re-estimated with the window query. Ties keep first-encounter
    /// order (stable sort), matching the pre-batch implementation
    /// bit for bit.
    pub fn top_k(&self) -> Vec<(K, u64)> {
        // The scratch is cleared before use, so poisoned leftovers
        // from an earlier panic cannot leak into this query.
        let mut scratch = self
            .topk_scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let TopKScratch { seen, candidates } = &mut *scratch;
        // `clear` keeps the allocations: across polls the dedup set and
        // the candidate buffer reach a steady capacity (≤ W·k entries)
        // and stop allocating.
        seen.clear();
        candidates.clear();
        for epoch in &self.epochs {
            for (key, _) in epoch.top_k() {
                if seen.insert(key) {
                    let est = self.query(&key);
                    candidates.push((key, est));
                }
            }
        }
        candidates.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        candidates.truncate(self.cfg.k);
        // The caller owns its report; only this exact-size copy leaves.
        candidates.clone()
    }

    /// The live epochs, oldest first (the newest — still accumulating —
    /// epoch is last). Closed epochs are immutable until the next
    /// [`SlidingTopK::rotate`]; the telemetry exporter streams them onto
    /// the wire through this view.
    pub fn epoch_iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = &ParallelTopK<K>> + ExactSizeIterator {
        self.epochs.iter()
    }

    /// True while the open epoch is as-constructed: no write reached it
    /// since the ring was built or last rotated.
    pub(crate) fn open_is_fresh(&self) -> bool {
        self.open_fresh
    }

    /// The newest *closed* epoch — the one the latest rotation closed,
    /// just behind the accumulating newest. `None` before the first
    /// rotation and always for a `W = 1` window.
    pub(crate) fn newest_closed(&self) -> Option<&ParallelTopK<K>> {
        self.epochs.iter().rev().nth(1)
    }

    /// The baseline of the dirty patch for the current rotation `R`: the
    /// epoch closed by `R - 1`, two behind the newest. A collector
    /// applies rotation `R` only to a replica standing at `R - 1`, whose
    /// newest closed epoch is exactly that one. `None` — the empty
    /// baseline — when the ring no longer holds it (a `W ≤ 2` ring has
    /// already recycled it) or when the ring was rebuilt or rewritten
    /// after it closed, so the collector's copy may differ.
    pub(crate) fn patch_base(&self) -> Option<&ParallelTopK<K>> {
        let closed_by = self.rotations.checked_sub(1)?;
        if closed_by <= self.rewritten_at {
            return None;
        }
        self.epochs.iter().rev().nth(2)
    }

    /// Rebuilds a window from externally supplied epochs (oldest first)
    /// — the collector-side constructor: a decoded
    /// [`WindowFrame`](crate::wire::WindowFrame) becomes a queryable
    /// replica of the switch's ring. `rotations` restores the rotation
    /// counter so dirty-frame reassembly can continue from here; the
    /// supplied epochs are never a dirty patch's baseline, so the first
    /// dirty export after the next rotation is self-contained.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `epochs` is empty, or more epochs are
    /// supplied than the window holds.
    pub fn from_epochs(
        cfg: HkConfig,
        window: usize,
        rotations: u64,
        epochs: Vec<ParallelTopK<K>>,
    ) -> Self {
        assert!(window > 0, "window must span at least one epoch");
        assert!(
            !epochs.is_empty() && epochs.len() <= window,
            "epoch count must be in 1..=window"
        );
        Self {
            epochs: epochs.into(),
            cfg,
            window,
            rotations,
            rewritten_at: rotations,
            open_fresh: false,
            topk_scratch: Mutex::new(TopKScratch::default()),
        }
    }

    /// Closes the open epoch with the state `fill` writes into it, then
    /// crosses the period boundary exactly like [`SlidingTopK::rotate`]:
    /// the collector's in-place apply of a dirty frame
    /// ([`DirtyPatch::apply_to`](crate::wire::DirtyPatch::apply_to)).
    /// A switch that ships only its just-closed epoch per rotation keeps
    /// the replica ring bit-identical to its own.
    ///
    /// `fill` receives the open epoch as-constructed, and the newest
    /// closed epoch (the patch's baseline). An open epoch that took
    /// writes since the last rotation — a replica rebuilt from a full
    /// frame exported mid-epoch — is set aside for a fresh one first.
    /// If `fill` fails, the ring is left bit-identical: the set-aside
    /// epoch goes back, or the open one is recycled to its
    /// as-constructed state.
    pub(crate) fn close_open_epoch<E>(
        &mut self,
        fill: impl FnOnce(&mut ParallelTopK<K>, Option<&ParallelTopK<K>>) -> Result<(), E>,
    ) -> Result<(), E> {
        let set_aside = (!self.open_fresh).then(|| {
            let fresh = ParallelTopK::new(self.cfg.clone());
            std::mem::replace(self.newest_mut(), fresh)
        });
        let mut newest_first = self.epochs.iter_mut().rev();
        let open = newest_first
            .next()
            .expect("at least one epoch is always live");
        if let Err(e) = fill(open, newest_first.next().map(|e| &*e)) {
            match set_aside {
                Some(epoch) => *open = epoch,
                None => open.recycle(self.cfg.arrays),
            }
            return Err(e);
        }
        self.rotate();
        Ok(())
    }

    /// Accounted memory: `window` full instances (the epoch ring's cost).
    pub fn memory_bytes(&self) -> usize {
        let per_epoch = self
            .epochs
            .front()
            .expect("at least one epoch is always live")
            .memory_bytes();
        per_epoch * self.window
    }

    /// Merges another window (same span, same rotation phase) into this
    /// one, epoch by epoch under [`MergeMode::Sum`](crate::merge::MergeMode::Sum)
    /// semantics — the shrink half of a reshard, where two shard
    /// windows that observed disjoint sub-streams fold into one
    /// survivor. The engine rotates shards in lockstep
    /// ([`rotate_all`](crate::ShardedEngine::rotate_all)), so shard
    /// windows always share phase; anything else is a
    /// [`MergeError::WindowMismatch`].
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.window != other.window
            || self.rotations != other.rotations
            || self.epochs.len() != other.epochs.len()
        {
            return Err(MergeError::WindowMismatch);
        }
        for (mine, theirs) in self.epochs.iter_mut().zip(other.epochs.iter()) {
            mine.merge_from(theirs)?;
        }
        // Every closed epoch changed: none is a baseline any more.
        self.rewritten_at = self.rotations;
        self.open_fresh = false;
        Ok(())
    }

    /// Keeps only the monitored flows for which `keep` returns true, in
    /// every live epoch; the per-epoch sketches are untouched (see
    /// [`ParallelTopK::retain_monitored`]).
    pub fn retain_monitored(&mut self, keep: &mut dyn FnMut(&K) -> bool) {
        for epoch in self.epochs.iter_mut() {
            epoch.retain_monitored(keep);
        }
        self.rewritten_at = self.rotations;
        self.open_fresh = false;
    }
}

impl<K: FlowKey> TopKAlgorithm<K> for SlidingTopK<K> {
    fn insert(&mut self, key: &K) {
        SlidingTopK::insert(self, key);
    }

    fn insert_batch(&mut self, keys: &[K]) {
        SlidingTopK::insert_batch(self, keys);
    }

    fn query(&self, key: &K) -> u64 {
        SlidingTopK::query(self, key)
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        SlidingTopK::top_k(self)
    }

    fn memory_bytes(&self) -> usize {
        SlidingTopK::memory_bytes(self)
    }

    fn name(&self) -> &'static str {
        "HK-Sliding"
    }
}

impl<K: FlowKey> EpochRotate for SlidingTopK<K> {
    fn rotate_epoch(&mut self) {
        self.rotate();
    }
}

impl<K: FlowKey> PreparedInsert<K> for SlidingTopK<K> {
    fn hash_spec(&self) -> HashSpec {
        self.newest().hash_spec()
    }

    fn insert_prepared(&mut self, key: &K, p: &PreparedKey) {
        self.newest_mut().insert_prepared(key, p);
    }

    fn insert_prepared_batch(&mut self, keys: &[K], prepared: &[PreparedKey]) {
        // All epochs share the hash spec, so an upstream stage's
        // prepared batch lands in the newest epoch without re-hashing
        // (sharded windowed ingest rides this).
        self.newest_mut().insert_prepared_batch(keys, prepared);
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
    fn rebuilt_ring_recycles_grown_epochs_at_its_own_array_count() {
        use crate::collector::{AggregationRule, Collector};
        use crate::config::ExpansionPolicy;
        use hk_common::ShardCheckpoint;

        // Epochs grown under Section III-F expansion. A ring rebuilt
        // from a full frame — a checkpoint restore or a collector
        // replica — must drop those rows on recycle, as the switch does,
        // also when no live epoch shows the base count (W = 2).
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(2)
            .k(2)
            .seed(9)
            .expansion(ExpansionPolicy {
                large_counter: 30,
                blocked_threshold: 40,
                max_arrays: 6,
            })
            .build();
        let mice = |from: u64, n: u64| (from..from + n).collect::<Vec<u64>>();
        // Mice, or giants filling both tiny arrays and then late
        // elephants, each expanding the epoch once.
        let period = |elephants: u64| match elephants {
            0 => mice(1_000_000, 2_000),
            n => (0..4)
                .chain(1000 - n..1000)
                .flat_map(|f| [f; 2_500])
                .collect(),
        };
        let arrays = |w: &SlidingTopK<u64>| -> Vec<usize> {
            w.epoch_iter().map(|e| e.sketch().arrays()).collect()
        };
        for (window, elephants, grown) in [(3, [0, 1], [2, 3]), (2, [1, 3], [3, 4])] {
            let mut win = SlidingTopK::<u64>::new(cfg.clone(), window);
            win.insert_batch(&period(elephants[0]));
            win.rotate();
            win.insert_batch(&period(elephants[1]));
            assert_eq!(arrays(&win), grown, "expansion precondition");

            let mut restored =
                SlidingTopK::<u64>::restore_checkpoint(&win.encode_checkpoint()).unwrap();
            let mut coll = Collector::<u64>::new(2, AggregationRule::Sum);
            coll.submit_window_frame(&win.export_frame(0, 500)).unwrap();
            for round in 1..=4u64 {
                win.rotate();
                restored.rotate();
                coll.submit_window_frame(&win.export_dirty(0, 500).unwrap())
                    .unwrap();
                let m = mice(2_000_000 + round * 500, 500);
                win.insert_batch(&m);
                restored.insert_batch(&m);
                let ctx = format!("W = {window}, rotation {round}");
                assert_eq!(arrays(&restored), arrays(&win), "{ctx}");
                let replica = coll.switch_window(0).unwrap();
                assert_eq!(arrays(replica), arrays(&win), "replica, {ctx}");
            }
            assert_eq!(restored.encode_checkpoint(), win.encode_checkpoint());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RING_BYTES")]
    fn ring_over_the_decode_bound_panics() {
        // 2 epochs of 2 × 2^28 four-byte buckets, 4 GiB: refused before
        // any epoch is allocated.
        let _ = SlidingTopK::<u64>::new(cfg(1 << 28, 4), 2);
    }

    #[test]
    #[should_panic(expected = "window must span")]
    fn zero_window_panics() {
        let _ = SlidingTopK::<u64>::new(cfg(64, 4), 0);
    }

    #[test]
    fn startup_fewer_epochs_than_window() {
        let mut win = SlidingTopK::<u64>::new(cfg(64, 4), 4);
        assert_eq!(win.live_epochs(), 1);
        win.rotate();
        win.rotate();
        assert_eq!(win.live_epochs(), 3);
        assert_eq!(win.rotations(), 2);
    }

    #[test]
    fn live_epochs_capped_at_window() {
        let mut win = SlidingTopK::<u64>::new(cfg(64, 4), 3);
        for _ in 0..10 {
            win.rotate();
        }
        assert_eq!(win.live_epochs(), 3);
    }

    #[test]
    fn old_elephants_expire() {
        let mut win = SlidingTopK::<u64>::new(cfg(256, 4), 2);
        for _ in 0..5000 {
            win.insert(&1);
        }
        assert!(win.query(&1) > 0);
        win.rotate();
        assert!(win.query(&1) > 0, "still inside the 2-epoch window");
        win.rotate();
        assert_eq!(win.query(&1), 0, "expired after sliding out");
        assert!(win.top_k().iter().all(|(k, _)| *k != 1));
    }

    #[test]
    fn window_estimate_sums_epochs() {
        let mut win = SlidingTopK::<u64>::new(cfg(256, 4), 3);
        for _ in 0..100 {
            win.insert(&7);
        }
        win.rotate();
        for _ in 0..250 {
            win.insert(&7);
        }
        assert_eq!(win.query(&7), 350, "uncontended epochs sum exactly");
    }

    #[test]
    fn query_sees_newest_epoch_traffic_at_once() {
        // A repeated query must keep seeing the newest epoch's growth
        // between rotations.
        let mut win = SlidingTopK::<u64>::new(cfg(256, 4), 3);
        for _ in 0..100 {
            win.insert(&9);
        }
        win.rotate();
        assert_eq!(win.query(&9), 100);
        for _ in 0..50 {
            win.insert(&9);
        }
        assert_eq!(win.query(&9), 150, "newest-epoch traffic visible at once");
    }

    #[test]
    fn no_overestimation_over_window() {
        use std::collections::HashMap;
        // Per-epoch ground truth in a ring rotated alongside the sketch
        // window, so the assertion is against the *true live-window*
        // count — strictly tighter than the stream total once epochs
        // have slid out.
        let window = 3usize;
        let mut win = SlidingTopK::<u64>::new(cfg(128, 8), window);
        let mut truth_ring: VecDeque<HashMap<u64, u64>> = VecDeque::from([HashMap::new()]);
        let mut stream_total: HashMap<u64, u64> = HashMap::new();
        let mut state = 13u64;
        for step in 0..30_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                state % 8
            } else {
                100 + state % 2000
            };
            win.insert(&f);
            *truth_ring.back_mut().unwrap().entry(f).or_insert(0) += 1;
            *stream_total.entry(f).or_insert(0) += 1;
            if step % 5000 == 4999 {
                win.rotate();
                if truth_ring.len() == window {
                    truth_ring.pop_front();
                }
                truth_ring.push_back(HashMap::new());
            }
        }
        assert!(win.rotations() > window as u64, "window must have slid");
        let window_truth = |f: u64| -> u64 { truth_ring.iter().filter_map(|m| m.get(&f)).sum() };
        let mut tighter_than_total = false;
        for (f, est) in win.top_k() {
            let live = window_truth(f);
            assert!(est <= live, "flow {f}: {est} > live-window truth {live}");
            tighter_than_total |= live < stream_total[&f];
        }
        assert!(
            tighter_than_total,
            "ring truth should be tighter than the stream total for some flow"
        );
    }

    #[test]
    fn window_is_send_and_sync() {
        // The top-k scratch must not cost the auto-traits: shared
        // references to a window are usable across threads like every
        // other algorithm in the workspace.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SlidingTopK<u64>>();
    }

    #[test]
    fn persistent_elephant_spans_epochs() {
        let mut win = SlidingTopK::<u64>::new(cfg(256, 4), 3);
        let mut mouse = 1000u64;
        for _ in 0..3 {
            for _ in 0..2000 {
                win.insert(&42);
                win.insert(&mouse);
                mouse += 1;
            }
            win.rotate();
        }
        let top = win.top_k();
        assert_eq!(top[0].0, 42);
        assert!(
            top[0].1 > 3000,
            "window estimate spans epochs: {}",
            top[0].1
        );
        assert!(top[0].1 <= 6000);
    }

    #[test]
    fn memory_scales_with_window() {
        let one = SlidingTopK::<u64>::new(cfg(128, 4), 1);
        let four = SlidingTopK::<u64>::new(cfg(128, 4), 4);
        assert_eq!(four.memory_bytes(), 4 * one.memory_bytes());
    }

    #[test]
    fn with_memory_splits_budget_across_epochs() {
        let win = SlidingTopK::<u64>::with_memory(64 * 1024, 10, 3, 4);
        assert_eq!(win.window(), 4);
        // The whole ring is accounted roughly the given budget (rounding
        // slack from the width derivation).
        assert!(win.memory_bytes() <= 64 * 1024);
        assert!(win.memory_bytes() >= 32 * 1024);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut win = SlidingTopK::<u64>::new(cfg(64, 4), 2);
            for i in 0..20_000u64 {
                win.insert(&(i % 50));
                if i % 4000 == 3999 {
                    win.rotate();
                }
            }
            win.top_k()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_ingest_matches_scalar() {
        // Full differential coverage lives in tests/window_differential.rs;
        // this is the in-module smoke check.
        let stream: Vec<u64> = (0..12_000u64).map(|i| (i * 7) % 300).collect();
        let mut scalar = SlidingTopK::<u64>::new(cfg(128, 8), 3);
        let mut batched = SlidingTopK::<u64>::new(cfg(128, 8), 3);
        for (n, chunk) in stream.chunks(3000).enumerate() {
            for p in chunk {
                scalar.insert(p);
            }
            batched.insert_batch(chunk);
            if n % 2 == 1 {
                scalar.rotate();
                batched.rotate();
            }
        }
        assert_eq!(scalar.top_k(), batched.top_k());
        for f in 0..300u64 {
            assert_eq!(scalar.query(&f), batched.query(&f), "flow {f}");
        }
    }

    #[test]
    fn trait_surface_matches_inherent() {
        fn generic_drive<A: TopKAlgorithm<u64> + EpochRotate>(a: &mut A) -> Vec<(u64, u64)> {
            a.insert_batch(&[1, 1, 1, 2]);
            a.rotate_epoch();
            a.insert(&1);
            a.top_k()
        }
        let mut win = SlidingTopK::<u64>::new(cfg(128, 4), 2);
        let top = generic_drive(&mut win);
        assert_eq!(win.rotations(), 1);
        assert_eq!(top[0], (1, 4));
        assert_eq!(TopKAlgorithm::query(&win, &2), 1);
        assert_eq!(TopKAlgorithm::name(&win), "HK-Sliding");
    }
}
