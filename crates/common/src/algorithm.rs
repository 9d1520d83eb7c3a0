//! The common interface every top-k algorithm in this workspace exposes.
//!
//! The experiment harness (`hk-metrics`), the OVS pipeline (`hk-ovs`),
//! the sharded engine, and the CLI all drive HeavyKeeper and every
//! baseline through this one trait, which mirrors the operations the
//! paper's evaluation performs: insert packets, query a flow's
//! estimated size, and report the top-k flows.
//!
//! ## The batch contract
//!
//! [`TopKAlgorithm::insert_batch`] is the primary ingest entry point.
//! Implementations **must** be observation-equivalent to calling
//! [`TopKAlgorithm::insert`] once per key in order — same bucket state,
//! same RNG consumption, same top-k — for every batch size including 1;
//! the differential tests in `heavykeeper` pin this down. What batching
//! may change is *speed*: an implementation typically hashes the whole
//! batch up front into a scratch buffer (see
//! [`crate::prepared::HashSpec::prepare_batch`]) so the bucket walk runs
//! free of the per-packet hash dependency chain.

use crate::key::FlowKey;
use crate::prepared::{HashSpec, PreparedKey};

/// A streaming top-k / frequency-estimation algorithm.
pub trait TopKAlgorithm<K: FlowKey> {
    /// Processes one packet belonging to flow `key`.
    fn insert(&mut self, key: &K);

    /// Processes a batch of packets, observation-equivalent to inserting
    /// them one by one in order.
    ///
    /// The default forwards to [`TopKAlgorithm::insert`]; algorithms
    /// with a prehashed fast path override it.
    fn insert_batch(&mut self, keys: &[K]) {
        for k in keys {
            self.insert(k);
        }
    }

    /// Returns the algorithm's estimate of `key`'s size (0 if unknown).
    fn query(&self, key: &K) -> u64;

    /// Reports the current top-k flows with estimated sizes, largest
    /// first. The length may be smaller than k early in the stream.
    fn top_k(&self) -> Vec<(K, u64)>;

    /// The memory the algorithm is accounted with, in bytes, under the
    /// paper's accounting (Section VI-A): sketch arrays at their bit
    /// widths plus top-k bookkeeping.
    fn memory_bytes(&self) -> usize;

    /// A short display name for experiment output (e.g. `"HK-Parallel"`).
    fn name(&self) -> &'static str;

    /// Processes a whole slice of packets (kept as the harness-facing
    /// spelling; rides the batched path).
    fn insert_all(&mut self, keys: &[K]) {
        self.insert_batch(keys);
    }
}

impl<K: FlowKey, T: TopKAlgorithm<K> + ?Sized> TopKAlgorithm<K> for Box<T> {
    fn insert(&mut self, key: &K) {
        (**self).insert(key);
    }
    fn insert_batch(&mut self, keys: &[K]) {
        (**self).insert_batch(keys);
    }
    fn query(&self, key: &K) -> u64 {
        (**self).query(key)
    }
    fn top_k(&self) -> Vec<(K, u64)> {
        (**self).top_k()
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert_all(&mut self, keys: &[K]) {
        (**self).insert_all(keys);
    }
}

/// Capability trait for algorithms whose measurement state is organized
/// in epochs that a period clock advances.
///
/// The caller owns the clock: the ingest pipeline (CLI, throughput
/// harness, sharded engine) calls [`EpochRotate::rotate_epoch`] at every
/// period boundary, and the algorithm reinterprets its state — a sliding
/// window slides one epoch, a tumbling deployment reports and resets.
/// Keeping rotation a trait (rather than a `SlidingTopK` inherent) lets
/// the sharded engine phase-align rotation across shards and lets the
/// harness drive windowed workloads generically.
pub trait EpochRotate {
    /// Crosses one period boundary.
    fn rotate_epoch(&mut self);
}

impl<T: EpochRotate + ?Sized> EpochRotate for Box<T> {
    fn rotate_epoch(&mut self) {
        (**self).rotate_epoch();
    }
}

/// Capability trait for algorithms that can ingest precomputed hash
/// state.
///
/// An upstream stage (batch prolog, shared-ring consumer, shard router)
/// that has already paid for hashing hands the [`PreparedKey`] straight
/// to the algorithm instead of making it re-derive everything from the
/// key bytes. Prepared keys are only portable between parties whose
/// [`PreparedInsert::hash_spec`]s are equal.
pub trait PreparedInsert<K: FlowKey>: TopKAlgorithm<K> {
    /// The spec under which this algorithm prepares (and expects) keys.
    fn hash_spec(&self) -> HashSpec;

    /// Processes one packet whose hash state was computed under
    /// [`PreparedInsert::hash_spec`]. Must be observation-equivalent to
    /// [`TopKAlgorithm::insert`] of the same key.
    fn insert_prepared(&mut self, key: &K, prepared: &PreparedKey);

    /// Processes a batch whose hash state was already computed under
    /// [`PreparedInsert::hash_spec`]: `prepared[i]` is the prepared
    /// state of `keys[i]`. Must be observation-equivalent to
    /// [`TopKAlgorithm::insert_batch`] of the same keys.
    ///
    /// This is the worker half of the hash-once dispatch plane: an
    /// upstream stage (the sharded dispatcher, an RSS producer) that
    /// already hashed every key for routing ships both arrays, and the
    /// algorithm skips its own prehash prolog — per-array slot tables
    /// and bucket walks still run locally, where the sketch geometry
    /// (including mid-stream Section III-F expansion) is known.
    ///
    /// The default forwards to [`TopKAlgorithm::insert_batch`] and
    /// ignores `prepared` — correct for every implementation (prepared
    /// state is derived, never extra information), and the right
    /// behavior for algorithms that do not hash with a [`HashSpec`] at
    /// all. Algorithms with a real prehash prolog override it (and
    /// should then also override [`PreparedInsert::consumes_prepared`]).
    fn insert_prepared_batch(&mut self, keys: &[K], prepared: &[PreparedKey]) {
        debug_assert_eq!(keys.len(), prepared.len(), "misaligned prepared batch");
        let _ = prepared;
        self.insert_batch(keys);
    }

    /// True when [`PreparedInsert::insert_prepared_batch`] actually
    /// reads the shipped prepared state. An upstream stage that has
    /// hashed for routing uses this to decide whether buffering and
    /// shipping the `PreparedKey`s is worth the bandwidth — for an
    /// algorithm that would discard them (the default
    /// `insert_prepared_batch` above), routing-only is cheaper.
    ///
    /// The default is `false`, matching the default
    /// `insert_prepared_batch`; implementations that override the batch
    /// entry to consume the prepared state override this to `true`.
    fn consumes_prepared(&self) -> bool {
        false
    }
}

/// Capability trait for algorithms whose measurement state can be
/// serialized into self-contained restart bytes and rebuilt from them.
///
/// This is the restartable-state contract the sharded engine's
/// checkpoint/respawn recovery rides: a worker's algorithm is
/// periodically encoded into an in-engine checkpoint, and when the
/// worker dies the shard is respawned from the last checkpoint instead
/// of staying dark. The encoding is the algorithm's own wire format
/// (`HKSK` sketch payloads and window frames, one sparse record codec),
/// so checkpoints double as export frames and vice versa.
///
/// **Bit-exactness contract:** `restore_checkpoint(encode_checkpoint())`
/// must rebuild an instance whose recorded state — bucket words, top-k
/// store, epoch ring — is bit-exact with the original, and re-encoding
/// the restored instance must reproduce the same bytes. State the
/// encoding declares transient (e.g. the decay RNG position, which
/// re-seeds from config and only perturbs future coin flips) is exempt.
/// The recovery differential tests pin this down.
pub trait ShardCheckpoint {
    /// Serializes the full restartable state into self-contained bytes.
    fn encode_checkpoint(&self) -> Vec<u8>;

    /// Rebuilds an instance from [`ShardCheckpoint::encode_checkpoint`]
    /// bytes. `None` when the bytes do not decode (corrupt or foreign
    /// payload) — never panics.
    fn restore_checkpoint(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Capability trait for checkpointable algorithms whose state can be
/// *redistributed* across a changing shard count — the contract live
/// resharding rides on top of [`ShardCheckpoint`].
///
/// A reshard rebuilds every new shard from restored donor checkpoints:
/// shrink folds several donors into one survivor; grow restores the
/// same parent checkpoint into several children. Both directions then
/// trim the reported set to the new lane map. The two operations this
/// takes are:
///
/// * [`ShardReshard::fold_donor`] — absorb another instance's state
///   under disjoint-substream (sum) semantics. The folded estimate of
///   any flow must stay one-sided: never above the flow's true count
///   across the donors' combined sub-streams.
/// * [`ShardReshard::retain_flows`] — drop monitored flows the new
///   lane map routes elsewhere. Only the *reported* set shrinks; the
///   approximate summary may conservatively keep foreign state (a
///   sketch cannot attribute its cells to flows), which never raises
///   any surviving flow's estimate.
pub trait ShardReshard<K: FlowKey>: ShardCheckpoint {
    /// Folds `donor`'s state into `self` assuming the two observed
    /// disjoint sub-streams. `Err` (with a human-readable reason) when
    /// the instances are not fold-compatible — differing geometry,
    /// seeds, or window phase; `self` is left usable, at worst
    /// partially folded.
    fn fold_donor(&mut self, donor: &Self) -> Result<(), String>;

    /// Keeps only the monitored flows for which `keep` returns true.
    /// Sketch-like summary state is untouched (conservative carry).
    fn retain_flows(&mut self, keep: &mut dyn FnMut(&K) -> bool);
}

impl<K: FlowKey, T: PreparedInsert<K> + ?Sized> PreparedInsert<K> for Box<T> {
    fn hash_spec(&self) -> HashSpec {
        (**self).hash_spec()
    }
    fn insert_prepared(&mut self, key: &K, prepared: &PreparedKey) {
        (**self).insert_prepared(key, prepared);
    }
    fn insert_prepared_batch(&mut self, keys: &[K], prepared: &[PreparedKey]) {
        (**self).insert_prepared_batch(keys, prepared);
    }
    fn consumes_prepared(&self) -> bool {
        (**self).consumes_prepared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial exact counter to exercise the default methods.
    struct Exact {
        counts: std::collections::HashMap<u64, u64>,
    }

    impl TopKAlgorithm<u64> for Exact {
        fn insert(&mut self, key: &u64) {
            *self.counts.entry(*key).or_insert(0) += 1;
        }
        fn query(&self, key: &u64) -> u64 {
            self.counts.get(key).copied().unwrap_or(0)
        }
        fn top_k(&self) -> Vec<(u64, u64)> {
            let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v
        }
        fn memory_bytes(&self) -> usize {
            self.counts.len() * 16
        }
        fn name(&self) -> &'static str {
            "Exact"
        }
    }

    #[test]
    fn default_insert_batch_loops_insert() {
        let mut a = Exact {
            counts: Default::default(),
        };
        a.insert_batch(&[1, 1, 2]);
        a.insert_all(&[1]);
        assert_eq!(a.query(&1), 3);
        assert_eq!(a.query(&2), 1);
    }

    #[test]
    fn boxed_dispatch_preserves_batching() {
        let mut a: Box<dyn TopKAlgorithm<u64>> = Box::new(Exact {
            counts: Default::default(),
        });
        a.insert_batch(&[5, 5, 5]);
        assert_eq!(a.query(&5), 3);
        assert_eq!(a.name(), "Exact");
    }
}
