//! Merging HeavyKeeper sketches for network-wide measurement.
//!
//! The paper's deployment model (footnote 2) has "sketches in different
//! switches ... periodically sent to a collector for timely network
//! traffic analysis". The collector must combine the per-switch sketches
//! into one network-wide view. This module provides that combination:
//!
//! * [`HkSketch::merge_from`] — bucket-wise merge of two sketches built
//!   with the *same* seed, width, array count and field widths (so a flow
//!   maps to the same buckets with the same fingerprint in both).
//! * [`ParallelTopK::merge_from`] / [`MinimumTopK::merge_from`] — merge
//!   the sketch halves and fold the other instance's top-k entries into
//!   this one's store.
//!
//! Both rest on one per-bucket rule, `merge_bucket`. The collector's
//! windowed query ([`crate::collector::Collector::window_top_k`]) uses
//! the same rule without merging any matrix: merged bucket `(j, i)` is
//! the inputs' buckets `(j, i)` folded in order, and a query reads only
//! the `d` buckets at the flow's slots, so it folds just those.
//!
//! ## Bucket merge rules
//!
//! The right way to combine two counts of the *same* flow depends on
//! what the two sketches observed ([`MergeMode`]):
//!
//! * [`MergeMode::Sum`] — the sketches saw **disjoint** packets (two
//!   halves of a stream, two non-overlapping vantage points): counts of
//!   the same flow add.
//! * [`MergeMode::Max`] — the sketches **overlap** (every switch on a
//!   flow's path counts all of its packets): summing would double-count;
//!   the maximum is the strongest valid lower bound.
//!
//! For each bucket position, with `(f₁,c₁)` here and `(f₂,c₂)` there:
//!
//! | case | `Sum` | `Max` |
//! |---|---|---|
//! | both empty | empty | empty |
//! | one empty | the non-empty one | the non-empty one |
//! | `f₁ = f₂` | `(f₁, min(c₁+c₂, max))` | `(f₁, max(c₁,c₂))` |
//! | `f₁ ≠ f₂` | winner = larger count, count = difference (tie → incumbent at 1) | keep the larger-count bucket as-is |
//!
//! The `Sum` conflict rule is the same "contest" the decay process plays
//! out one packet at a time: each loser packet *would have* decayed the
//! winner's counter with high probability had the streams been
//! interleaved into one sketch; subtracting is the deterministic limit
//! of that contest. Under `Max`, the loser's observation is simply
//! weaker evidence about the same traffic, so the winner keeps its full
//! count. Both rules preserve no-over-estimation (Theorem 2): every
//! resulting count is bounded by an input count that was itself a lower
//! bound (for `Sum`, by the sum of per-input lower bounds on disjoint
//! packet sets).
//!
//! ## What merging cannot do
//!
//! Merging is *lossy* in the conflict case, exactly like streaming both
//! inputs into one half-size sketch would be. It is associative in
//! distribution but not bit-exact under reordering (the tie rule breaks
//! symmetry); the tests pin down the properties that do hold.

use crate::bucket::{with_matrix, Bucket, BucketMatrix, BucketWord, Buckets};
use crate::minimum::MinimumTopK;
use crate::parallel::ParallelTopK;
use crate::sketch::HkSketch;
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;

/// How counts of the same flow combine across two sketches (see the
/// module docs for when each applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeMode {
    /// The sketches observed disjoint packets: counts add.
    #[default]
    Sum,
    /// The sketches observed overlapping traffic: take the maximum.
    Max,
}

/// Why two sketches cannot be merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// Different hash seeds: flows map to unrelated buckets/fingerprints.
    SeedMismatch,
    /// Different array widths.
    WidthMismatch,
    /// Different number of arrays (e.g. one side expanded, Section III-F).
    ArrayCountMismatch,
    /// Different fingerprint widths: fingerprints are not comparable.
    FingerprintMismatch,
    /// Different counter widths: saturation points disagree.
    CounterWidthMismatch,
    /// A sharded engine had no live shard left to fold (every worker
    /// died and none was recovered): there is nothing to merge.
    NoLiveShards,
    /// Two sliding windows disagree on window span, rotation count, or
    /// live epoch count: their epoch rings cannot be zipped pairwise.
    WindowMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            Self::SeedMismatch => "hash seeds differ",
            Self::WidthMismatch => "array widths differ",
            Self::ArrayCountMismatch => "array counts differ",
            Self::FingerprintMismatch => "fingerprint widths differ",
            Self::CounterWidthMismatch => "counter widths differ",
            Self::NoLiveShards => return write!(f, "no live shard to merge (all workers died)"),
            Self::WindowMismatch => "window spans or rotation phases differ",
        };
        write!(f, "sketches are not merge-compatible: {what}")
    }
}

impl std::error::Error for MergeError {}

/// Checks that `a` and `b` agree on every parameter that affects bucket
/// placement, fingerprints, or counter saturation.
pub fn check_compatible(a: &HkSketch, b: &HkSketch) -> Result<(), MergeError> {
    if a.seed() != b.seed() {
        return Err(MergeError::SeedMismatch);
    }
    if a.width() != b.width() {
        return Err(MergeError::WidthMismatch);
    }
    if a.arrays() != b.arrays() {
        return Err(MergeError::ArrayCountMismatch);
    }
    if a.fingerprint_bits() != b.fingerprint_bits() {
        return Err(MergeError::FingerprintMismatch);
    }
    if a.counter_max() != b.counter_max() {
        return Err(MergeError::CounterWidthMismatch);
    }
    Ok(())
}

impl HkSketch {
    /// Merges `other` into `self` with [`MergeMode::Sum`] semantics
    /// (disjoint observations). See [`HkSketch::merge_from_with`].
    pub fn merge_from(&mut self, other: &HkSketch) -> Result<(), MergeError> {
        self.merge_from_with(other, MergeMode::Sum)
    }

    /// Merges `other` into `self`, bucket by bucket, under the given
    /// mode (see the module docs for the rules). Returns an error and
    /// leaves `self` untouched when the two sketches are not compatible.
    pub fn merge_from_with(&mut self, other: &HkSketch, mode: MergeMode) -> Result<(), MergeError> {
        check_compatible(self, other)?;
        let max = self.counter_max();
        with_matrix!(self.buckets_mut(), ours => merge_words(ours, other.buckets(), mode, max));
        Ok(())
    }
}

/// The body of [`HkSketch::merge_from_with`], over words `W`: folds
/// every non-empty bucket of `theirs` into `ours`.
fn merge_words<W: BucketWord>(
    ours: &mut BucketMatrix<W>,
    theirs: &Buckets,
    mode: MergeMode,
    counter_max: u64,
) {
    let theirs = W::matrix(theirs).expect("compatible sketches pack the same word");
    let layout = theirs.layout();
    for j in 0..ours.rows() {
        for (i, &word) in theirs.row(j).iter().enumerate() {
            let theirs = layout.unpack(word.to_u64());
            // An empty bucket there leaves ours as it is: skip the
            // read-compute-write.
            if theirs.is_empty() {
                continue;
            }
            let merged = merge_bucket(ours.get(j, i), theirs, mode, counter_max);
            ours.set(j, i, merged);
        }
    }
}

/// The per-bucket merge rule (the table in the module docs): the bucket
/// `ours` becomes when `theirs` folds into it under `mode`, a `Sum` of
/// matching counts saturating at `counter_max`.
///
/// This is the only copy of the rule. [`HkSketch::merge_from_with`]
/// applies it to every bucket of a matrix; the collector's windowed
/// query applies it to the few buckets a candidate flow maps to, so its
/// estimate equals the one a materialised merge would give.
pub(crate) fn merge_bucket(
    ours: Bucket,
    theirs: Bucket,
    mode: MergeMode,
    counter_max: u64,
) -> Bucket {
    if theirs.is_empty() {
        return ours;
    }
    if ours.is_empty() {
        return theirs;
    }
    if ours.fp == theirs.fp {
        let count = match mode {
            MergeMode::Sum => (ours.count + theirs.count).min(counter_max),
            MergeMode::Max => ours.count.max(theirs.count),
        };
        return Bucket { fp: ours.fp, count };
    }
    match mode {
        MergeMode::Sum if theirs.count > ours.count => Bucket {
            fp: theirs.fp,
            count: theirs.count - ours.count,
        },
        MergeMode::Sum if theirs.count < ours.count => Bucket {
            fp: ours.fp,
            count: ours.count - theirs.count,
        },
        // Tie: keep our fingerprint, shrink to the floor the contest
        // would end at. Counters stay non-zero so the "held bucket is
        // never empty" invariant survives.
        MergeMode::Sum => Bucket {
            fp: ours.fp,
            count: 1,
        },
        MergeMode::Max if theirs.count > ours.count => theirs,
        MergeMode::Max => ours,
    }
}

/// Re-estimates `reported` (another instance's top-k, any order)
/// against the *merged* sketch, returning the `(flow, estimate)` pairs
/// to offer to the store.
///
/// Admission here is collector-side bookkeeping, not the per-packet
/// Algorithm 1 path, so Optimization I's `n̂ = n_min + 1` gate does not
/// apply: estimates arrive in arbitrary (not +1-increment) steps.
/// Offering never touches the sketch, so every estimate can be read off
/// it before the first offer.
fn reestimate<K: FlowKey>(reported: Vec<(K, u64)>, merged: &HkSketch) -> Vec<(K, u64)> {
    reported
        .into_iter()
        .filter_map(|(key, reported_est)| {
            // The merged sketch may know the flow better than the report
            // (fingerprint survived the merge) or have lost it (conflict
            // eviction); trust whichever evidence is stronger.
            let est = merged.query(key.key_bytes().as_slice()).max(reported_est);
            (est > 0).then_some((key, est))
        })
        .collect()
}

impl<K: FlowKey> ParallelTopK<K> {
    /// Merges another instance (same configuration) into this one with
    /// [`MergeMode::Sum`] semantics: sketches bucket-wise, then the
    /// other store's entries.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.merge_from_with(other, MergeMode::Sum)
    }

    /// [`ParallelTopK::merge_from`] under an explicit [`MergeMode`].
    pub fn merge_from_with(&mut self, other: &Self, mode: MergeMode) -> Result<(), MergeError> {
        self.sketch_mut().merge_from_with(other.sketch(), mode)?;
        for (key, est) in reestimate(other.top_k(), self.sketch()) {
            self.offer(key, est);
        }
        Ok(())
    }
}

impl<K: FlowKey> MinimumTopK<K> {
    /// Merges another instance (same configuration) into this one with
    /// [`MergeMode::Sum`] semantics: sketches bucket-wise, then the
    /// other store's entries.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.merge_from_with(other, MergeMode::Sum)
    }

    /// [`MinimumTopK::merge_from`] under an explicit [`MergeMode`].
    pub fn merge_from_with(&mut self, other: &Self, mode: MergeMode) -> Result<(), MergeError> {
        self.sketch_mut().merge_from_with(other.sketch(), mode)?;
        for (key, est) in reestimate(other.top_k(), self.sketch()) {
            self.offer(key, est);
        }
        Ok(())
    }
}

// The reshard fold/retain capability, for every checkpointable
// algorithm the sharded engine can respawn: fold = the Sum merge above
// (donor shards observed disjoint sub-streams), retain = the store
// repartition under the new lane map.

impl<K: FlowKey> hk_common::ShardReshard<K> for ParallelTopK<K> {
    fn fold_donor(&mut self, donor: &Self) -> Result<(), String> {
        self.merge_from(donor).map_err(|e| e.to_string())
    }

    fn retain_flows(&mut self, keep: &mut dyn FnMut(&K) -> bool) {
        self.retain_monitored(keep);
    }
}

impl<K: FlowKey> hk_common::ShardReshard<K> for crate::sliding::SlidingTopK<K> {
    fn fold_donor(&mut self, donor: &Self) -> Result<(), String> {
        self.merge_from(donor).map_err(|e| e.to_string())
    }

    fn retain_flows(&mut self, keep: &mut dyn FnMut(&K) -> bool) {
        self.retain_monitored(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HkConfig;

    fn cfg(seed: u64) -> HkConfig {
        HkConfig::builder()
            .arrays(2)
            .width(256)
            .k(8)
            .seed(seed)
            .build()
    }

    #[test]
    fn incompatible_seeds_rejected() {
        let a = HkSketch::new(&cfg(1));
        let b = HkSketch::new(&cfg(2));
        assert_eq!(check_compatible(&a, &b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn incompatible_widths_rejected() {
        let a = HkSketch::new(&HkConfig::builder().width(64).seed(1).build());
        let mut b = HkSketch::new(&HkConfig::builder().width(128).seed(1).build());
        assert_eq!(b.merge_from(&a), Err(MergeError::WidthMismatch));
    }

    #[test]
    fn incompatible_array_counts_rejected() {
        let a = HkSketch::new(&HkConfig::builder().arrays(2).width(64).seed(1).build());
        let mut b = HkSketch::new(&HkConfig::builder().arrays(3).width(64).seed(1).build());
        assert_eq!(b.merge_from(&a), Err(MergeError::ArrayCountMismatch));
    }

    #[test]
    fn incompatible_fp_bits_rejected() {
        let a = HkSketch::new(
            &HkConfig::builder()
                .fingerprint_bits(16)
                .width(64)
                .seed(1)
                .build(),
        );
        let mut b = HkSketch::new(
            &HkConfig::builder()
                .fingerprint_bits(12)
                .width(64)
                .seed(1)
                .build(),
        );
        assert_eq!(b.merge_from(&a), Err(MergeError::FingerprintMismatch));
    }

    #[test]
    fn incompatible_counter_bits_rejected() {
        let a = HkSketch::new(
            &HkConfig::builder()
                .counter_bits(16)
                .width(64)
                .seed(1)
                .build(),
        );
        let mut b = HkSketch::new(
            &HkConfig::builder()
                .counter_bits(32)
                .width(64)
                .seed(1)
                .build(),
        );
        assert_eq!(b.merge_from(&a), Err(MergeError::CounterWidthMismatch));
    }

    #[test]
    fn merge_sums_matching_fingerprints() {
        let (mut a, mut b) = (HkSketch::new(&cfg(7)), HkSketch::new(&cfg(7)));
        let key = 42u64.to_le_bytes();
        for _ in 0..100 {
            a.insert_basic(&key);
        }
        for _ in 0..250 {
            b.insert_basic(&key);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.query(&key), 350, "uncontended counts add exactly");
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let mut a = HkSketch::new(&cfg(3));
        for v in 0..500u64 {
            a.insert_basic(&v.to_le_bytes());
        }
        let before = a.clone();
        a.merge_from(&HkSketch::new(&cfg(3))).unwrap();
        for v in 0..500u64 {
            let key = v.to_le_bytes();
            assert_eq!(a.query(&key), before.query(&key));
        }
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = HkSketch::new(&cfg(3));
        let mut b = HkSketch::new(&cfg(3));
        for v in 0..500u64 {
            b.insert_basic(&v.to_le_bytes());
        }
        a.merge_from(&b).unwrap();
        for v in 0..500u64 {
            let key = v.to_le_bytes();
            assert_eq!(a.query(&key), b.query(&key));
        }
    }

    #[test]
    fn merge_preserves_no_overestimation() {
        // Stream disjoint halves of a skewed workload into two sketches,
        // merge, and verify no flow's estimate exceeds its true total.
        use std::collections::HashMap;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut sketches = [HkSketch::new(&cfg(11)), HkSketch::new(&cfg(11))];
        let mut state = 0x1234_5678u64;
        for n in 0..40_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(4) {
                state % 8
            } else {
                100 + state % 3000
            };
            sketches[(n % 2) as usize].insert_basic(&f.to_le_bytes());
            *truth.entry(f).or_insert(0) += 1;
        }
        let [mut a, b] = sketches;
        a.merge_from(&b).unwrap();
        for (&f, &n) in &truth {
            let est = a.query(&f.to_le_bytes());
            assert!(est <= n, "flow {f}: merged estimate {est} > truth {n}");
        }
    }

    #[test]
    fn merge_conflict_keeps_larger_flow() {
        // Force a conflict: a 1x1 sketch, two distinct flows, one big and
        // one small, in separate sketches.
        let tiny = HkConfig::builder().arrays(1).width(1).seed(5).build();
        let mut a = HkSketch::new(&tiny);
        let mut b = HkSketch::new(&tiny);
        let (big, small) = (1u64.to_le_bytes(), 2u64.to_le_bytes());
        for _ in 0..1000 {
            a.insert_basic(&big);
        }
        for _ in 0..100 {
            b.insert_basic(&small);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.query(&big), 900, "winner shrinks by the loser's count");
        assert_eq!(a.query(&small), 0, "loser is evicted");
    }

    #[test]
    fn merge_conflict_tie_leaves_held_bucket() {
        let tiny = HkConfig::builder().arrays(1).width(1).seed(5).build();
        let mut a = HkSketch::new(&tiny);
        let mut b = HkSketch::new(&tiny);
        for _ in 0..50 {
            a.insert_basic(&1u64.to_le_bytes());
            b.insert_basic(&2u64.to_le_bytes());
        }
        a.merge_from(&b).unwrap();
        let bucket = a.bucket(0, 0);
        assert!(!bucket.is_empty(), "tie must not empty a held bucket");
        assert_eq!(bucket.count, 1);
        assert_eq!(a.query(&1u64.to_le_bytes()), 1, "tie keeps the incumbent");
    }

    #[test]
    fn max_mode_takes_maximum_of_matching() {
        let (mut a, mut b) = (HkSketch::new(&cfg(7)), HkSketch::new(&cfg(7)));
        let key = 42u64.to_le_bytes();
        for _ in 0..100 {
            a.insert_basic(&key);
        }
        for _ in 0..250 {
            b.insert_basic(&key);
        }
        a.merge_from_with(&b, MergeMode::Max).unwrap();
        assert_eq!(a.query(&key), 250, "overlapping observations do not add");
    }

    #[test]
    fn max_mode_conflict_keeps_winner_intact() {
        let tiny = HkConfig::builder().arrays(1).width(1).seed(5).build();
        let mut a = HkSketch::new(&tiny);
        let mut b = HkSketch::new(&tiny);
        let (big, small) = (1u64.to_le_bytes(), 2u64.to_le_bytes());
        for _ in 0..1000 {
            a.insert_basic(&big);
        }
        for _ in 0..100 {
            b.insert_basic(&small);
        }
        a.merge_from_with(&b, MergeMode::Max).unwrap();
        assert_eq!(a.query(&big), 1000, "winner keeps its full count under Max");
        assert_eq!(a.query(&small), 0);
        // Symmetric direction: the bigger foreign bucket replaces ours.
        let mut b2 = HkSketch::new(&tiny);
        for _ in 0..100 {
            b2.insert_basic(&small);
        }
        let mut a2 = HkSketch::new(&tiny);
        for _ in 0..1000 {
            a2.insert_basic(&big);
        }
        b2.merge_from_with(&a2, MergeMode::Max).unwrap();
        assert_eq!(b2.query(&big), 1000);
    }

    #[test]
    fn max_mode_no_overestimation_overlapping_observers() {
        // Two sketches observing the SAME stream: Max-merging must not
        // exceed the single-stream truth for any flow.
        use std::collections::HashMap;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut a = HkSketch::new(&cfg(11));
        let mut b = HkSketch::new(&cfg(11));
        let mut state = 0xABCDu64;
        for _ in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(4) {
                state % 8
            } else {
                100 + state % 3000
            };
            a.insert_basic(&f.to_le_bytes());
            b.insert_basic(&f.to_le_bytes());
            *truth.entry(f).or_insert(0) += 1;
        }
        a.merge_from_with(&b, MergeMode::Max).unwrap();
        for (&f, &n) in &truth {
            let est = a.query(&f.to_le_bytes());
            assert!(est <= n, "flow {f}: Max-merged estimate {est} > truth {n}");
        }
    }

    #[test]
    fn merge_saturates_at_counter_max() {
        let cfg8 = HkConfig::builder()
            .arrays(1)
            .width(8)
            .counter_bits(8)
            .seed(2)
            .build();
        let mut a = HkSketch::new(&cfg8);
        let mut b = HkSketch::new(&cfg8);
        let key = 9u64.to_le_bytes();
        for _ in 0..200 {
            a.insert_basic(&key);
            b.insert_basic(&key);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.query(&key), 255, "8-bit counters saturate at 255");
    }

    #[test]
    fn parallel_topk_merge_finds_cross_switch_elephant() {
        // A flow that is medium at each of two switches but an elephant
        // in aggregate must surface after the merge.
        let mk = || ParallelTopK::<u64>::new(cfg(21));
        let (mut s1, mut s2) = (mk(), mk());
        // Flows 0..8: heavy at switch 1 only. Flow 100: half its traffic
        // at each switch.
        for _ in 0..400 {
            for f in 0..8u64 {
                s1.insert(&f);
            }
            s1.insert(&100);
            s2.insert(&100);
            s2.insert(&100);
        }
        s1.merge_from(&s2).unwrap();
        let top: Vec<u64> = s1.top_k().into_iter().map(|(k, _)| k).collect();
        assert!(top.contains(&100), "aggregate elephant missing: {top:?}");
        let est = s1.top_k().iter().find(|(k, _)| *k == 100).unwrap().1;
        assert!(
            est > 400,
            "merged estimate {est} should reflect both switches"
        );
        assert!(est <= 1200, "no over-estimation after merge");
    }

    #[test]
    fn minimum_topk_merge_works() {
        let mk = || MinimumTopK::<u64>::new(cfg(33));
        let (mut s1, mut s2) = (mk(), mk());
        for _ in 0..500 {
            s1.insert(&1);
            s2.insert(&2);
        }
        s1.merge_from(&s2).unwrap();
        let top: Vec<u64> = s1.top_k().into_iter().map(|(k, _)| k).collect();
        assert!(top.contains(&1) && top.contains(&2), "top = {top:?}");
    }

    #[test]
    fn merge_mismatched_config_leaves_self_untouched() {
        let mut a = ParallelTopK::<u64>::new(cfg(1));
        for _ in 0..100 {
            a.insert(&5);
        }
        let before = a.top_k();
        let b = ParallelTopK::<u64>::new(cfg(2));
        assert!(a.merge_from(&b).is_err());
        assert_eq!(a.top_k(), before);
    }
}
