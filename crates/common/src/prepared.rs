//! Prepared-key prehashing — the shared front half of every ingest path.
//!
//! Every sketch in this workspace derives its per-packet hash state from
//! **one** 64-bit xxHash of the flow key (like the paper authors' C++
//! implementation): per-array bucket indices by the
//! Kirsch–Mitzenmacher construction `h_j = h1 + j·h2` over the two
//! 32-bit halves, and a fingerprint from an extra multiply-rotate fold
//! of the same hash so that fingerprint equality does not imply index
//! equality.
//!
//! This module is the single home of that derivation. It used to live in
//! `heavykeeper::sketch`; it moved here so that baseline sketches, the
//! sharded engine, and the batched ingest pipeline can all share one
//! [`PreparedKey`] without duplicating the hashing rules:
//!
//! * [`prepare_key`] — hash one key.
//! * [`HashSpec`] — the (seed, fingerprint-width) pair that makes two
//!   prepared keys comparable, with [`HashSpec::prepare_batch`] filling
//!   a reusable scratch buffer for a whole batch at once (the prolog of
//!   [`crate::algorithm::TopKAlgorithm::insert_batch`]).
//! * [`PreparedBatch`] — the batch scratch: prepared keys *plus a flat
//!   table of their per-array bucket indices*. The batch pipeline
//!   derives each slot exactly once in the prolog; the touch pass, the
//!   insert pass, and the post-insert query all read the cached index
//!   (via zero-copy [`SlottedKey`] views) instead of redoing the
//!   multiply-shift per array per pass. [`KeySlots`] abstracts over
//!   "computes slots on demand" ([`PreparedKey`]) and "has them
//!   cached" ([`SlottedKey`]) so one generic insert body serves both
//!   the scalar and the batched path.
//!
//! Splitting "hash the batch" from "walk the buckets" is what the
//! batch-first pipeline buys: the hash loop is branch-free and
//! vectorizes, and the subsequent bucket walk presents the CPU a window
//! of independent memory accesses to overlap instead of one
//! hash→load→update dependency chain per packet.

use crate::hash::xxhash64;
use crate::key::FlowKey;

/// The per-packet hash state: index bases and fingerprint, all derived
/// from one 64-bit hash of the flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedKey {
    h1: u32,
    h2: u32,
    /// The flow's fingerprint (never 0; 0 encodes an empty bucket).
    pub fp: u32,
}

impl PreparedKey {
    /// The bucket index for array `j` in an array of `width` buckets
    /// (Kirsch–Mitzenmacher derivation + multiply-shift reduction).
    #[inline]
    pub fn slot(&self, j: usize, width: usize) -> usize {
        let h = self.h1.wrapping_add((j as u32).wrapping_mul(self.h2));
        ((h as u64 * width as u64) >> 32) as usize
    }

    /// A well-mixed 32-bit value for partitioning flows across shards;
    /// independent of any array's [`PreparedKey::slot`] for realistic
    /// widths because it is folded once more.
    #[inline]
    pub fn lane(&self) -> u32 {
        let x = ((self.h1 as u64) << 32 | self.h2 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 32) as u32
    }
}

/// Anything that can name the bucket index a key maps to in array `j`.
///
/// Implemented by [`PreparedKey`] (derives the slot with a
/// multiply-shift on every call) and [`SlottedKey`] (reads the index
/// cached by a [`PreparedBatch`] prolog). Insert/query bodies generic
/// over this trait compile to the same machine code for the scalar
/// path and to straight gathers for the batched path.
pub trait KeySlots {
    /// The underlying prepared key (fingerprint + index bases).
    fn key(&self) -> &PreparedKey;

    /// The bucket index for array `j` in an array of `width` buckets.
    /// Must equal `self.key().slot(j, width)`.
    fn slot(&self, j: usize, width: usize) -> usize;
}

impl KeySlots for PreparedKey {
    #[inline]
    fn key(&self) -> &PreparedKey {
        self
    }

    #[inline]
    fn slot(&self, j: usize, width: usize) -> usize {
        PreparedKey::slot(self, j, width)
    }
}

/// A borrowed view of one [`PreparedBatch`] entry: the prepared key
/// plus its cached per-array bucket indices.
///
/// The cached indices are only meaningful for the `(arrays, width)`
/// geometry the batch was prepared for; arrays beyond the cache
/// (Section III-F expansion mid-batch) fall back to on-demand
/// derivation, which stays correct because the cache stores exactly
/// what [`PreparedKey::slot`] would return.
#[derive(Debug, Clone, Copy)]
pub struct SlottedKey<'a> {
    key: &'a PreparedKey,
    slots: &'a [u32],
}

impl KeySlots for SlottedKey<'_> {
    #[inline]
    fn key(&self) -> &PreparedKey {
        self.key
    }

    #[inline]
    fn slot(&self, j: usize, width: usize) -> usize {
        if let Some(&s) = self.slots.get(j) {
            debug_assert_eq!(s as usize, self.key.slot(j, width));
            s as usize
        } else {
            self.key.slot(j, width)
        }
    }
}

/// The batch-prolog scratch: prepared keys plus a flat table of their
/// per-array bucket indices, in structure-of-arrays form.
///
/// The prolog derives every slot exactly once; the touch pass, the
/// insert pass, and the post-insert query read the cached index via
/// [`PreparedBatch::entry`] instead of redoing the multiply-shift per
/// array per pass. Keeping the keys and the `u32` slot table in
/// separate flat vectors keeps the per-key footprint at
/// `12 + 4·d` bytes and both streams sequential.
#[derive(Debug, Clone, Default)]
pub struct PreparedBatch {
    keys: Vec<PreparedKey>,
    slots: Vec<u32>,
    arrays: usize,
}

impl PreparedBatch {
    /// An empty scratch; [`PreparedBatch::prepare`] fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prehashes `keys` under `spec` and caches each key's bucket index
    /// for every one of `arrays` rows of a `width`-bucket sketch.
    /// Clears previous contents; steady-state batches allocate nothing.
    pub fn prepare<K: FlowKey>(
        &mut self,
        spec: &HashSpec,
        keys: &[K],
        arrays: usize,
        width: usize,
    ) {
        spec.prepare_batch(keys, &mut self.keys);
        self.fill_slots(arrays, width);
    }

    /// Fills the scratch from **already-prepared** keys: copies them in
    /// and caches their slot tables without re-hashing anything. The
    /// worker half of the hash-once dispatch handoff — an upstream
    /// stage shipped `prepared` (one hash per key, paid once, at
    /// routing time), and this recovers the full batch-prolog state for
    /// the local `(arrays, width)` geometry with a memcpy plus the slot
    /// multiply-shifts.
    pub fn prepare_from(&mut self, prepared: &[PreparedKey], arrays: usize, width: usize) {
        self.keys.clear();
        self.keys.extend_from_slice(prepared);
        self.fill_slots(arrays, width);
    }

    /// The shared slot-table fill of the two prologs.
    fn fill_slots(&mut self, arrays: usize, width: usize) {
        // Hard assert (once per batch, not per key): slots are cached as
        // `u32`, so a wider row would silently truncate in release
        // builds and break the insert == insert_batch contract.
        assert!(
            width as u64 <= u32::MAX as u64 + 1,
            "width exceeds the u32 slot-cache range"
        );
        self.arrays = arrays;
        // Size once, then write through the slice: the fill loop is
        // branch-free (no per-push capacity checks).
        self.slots.clear();
        self.slots.resize(self.keys.len() * arrays, 0);
        for (p, out) in self
            .keys
            .iter()
            .zip(self.slots.chunks_exact_mut(arrays.max(1)))
        {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = p.slot(j, width) as u32;
            }
        }
    }

    /// Number of prepared entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no entries are prepared.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// How many arrays each entry caches a slot for.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// The `idx`-th entry as a zero-copy [`SlottedKey`] view.
    #[inline]
    pub fn entry(&self, idx: usize) -> SlottedKey<'_> {
        SlottedKey {
            key: &self.keys[idx],
            slots: &self.slots[idx * self.arrays..(idx + 1) * self.arrays],
        }
    }

    /// The prepared keys (index bases + fingerprints), batch order.
    #[inline]
    pub fn keys(&self) -> &[PreparedKey] {
        &self.keys
    }

    /// The flat slot table for a range of entries (`arrays` consecutive
    /// `u32` indices per entry) — the touch pass gathers straight over
    /// this.
    #[inline]
    pub fn slots_range(&self, range: std::ops::Range<usize>) -> &[u32] {
        &self.slots[range.start * self.arrays..range.end * self.arrays]
    }
}

/// Derives the per-packet hash state from one 64-bit hash of the key.
///
/// `fingerprint_mask` must be `(1 << bits) - 1` (or `u32::MAX` for 32
/// bits); [`HashSpec`] computes it from a bit width.
#[inline]
pub fn prepare_key(seed: u64, fingerprint_mask: u32, key_bytes: &[u8]) -> PreparedKey {
    let base = xxhash64(key_bytes, seed);
    let h1 = (base >> 32) as u32;
    // Odd step so `h1 + j*h2` walks the full 32-bit ring.
    let h2 = (base as u32) | 1;
    // Fold the hash again for the fingerprint so that fingerprint
    // equality does not imply index equality.
    let folded = (base.rotate_left(23) ^ base).wrapping_mul(0x9E37_79B1_85EB_CA87);
    let fp = ((folded >> 24) as u32) & fingerprint_mask;
    PreparedKey {
        h1,
        h2,
        fp: if fp == 0 { 1 } else { fp },
    }
}

/// Everything that determines how keys are prepared: two algorithms
/// agree on bucket placement and fingerprints iff their specs are equal
/// (the compatibility precondition for merging and for handing prepared
/// keys across algorithm boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashSpec {
    /// Master hash seed.
    pub seed: u64,
    /// Mask selecting the configured fingerprint width.
    pub fingerprint_mask: u32,
}

impl HashSpec {
    /// Builds a spec from a seed and a fingerprint width in bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= fingerprint_bits <= 32`.
    pub fn new(seed: u64, fingerprint_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&fingerprint_bits),
            "fingerprint width must be in 1..=32"
        );
        let fingerprint_mask = if fingerprint_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fingerprint_bits) - 1
        };
        Self {
            seed,
            fingerprint_mask,
        }
    }

    /// Hashes one key.
    #[inline]
    pub fn prepare(&self, key_bytes: &[u8]) -> PreparedKey {
        prepare_key(self.seed, self.fingerprint_mask, key_bytes)
    }

    /// Hashes a whole batch into `out` (cleared first). `out` is a
    /// caller-owned scratch buffer so steady-state batches allocate
    /// nothing.
    pub fn prepare_batch<K: FlowKey>(&self, keys: &[K], out: &mut Vec<PreparedKey>) {
        out.clear();
        out.reserve(keys.len());
        for key in keys {
            let kb = key.key_bytes();
            out.push(self.prepare(kb.as_slice()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preparation_is_deterministic() {
        let spec = HashSpec::new(7, 16);
        let a = spec.prepare(&1u64.to_le_bytes());
        let b = spec.prepare(&1u64.to_le_bytes());
        assert_eq!(a, b);
        assert!(a.fp > 0, "fingerprint 0 is reserved for empty buckets");
    }

    #[test]
    fn batch_matches_scalar() {
        // Optimized, the batch loop inlines the hash specialised to the
        // key's width; it must agree with an out-of-line call, which
        // the opaque function pointer forces, for every width.
        fn check<K: FlowKey>(keys: &[K]) {
            let spec = HashSpec::new(99, 16);
            let out_of_line: fn(u64, u32, &[u8]) -> PreparedKey = std::hint::black_box(prepare_key);
            let mut batch = Vec::new();
            spec.prepare_batch(keys, &mut batch);
            assert_eq!(batch.len(), keys.len());
            for (k, p) in keys.iter().zip(&batch) {
                let bytes = k.key_bytes();
                assert_eq!(*p, spec.prepare(bytes.as_slice()));
                assert_eq!(
                    *p,
                    out_of_line(spec.seed, spec.fingerprint_mask, bytes.as_slice())
                );
            }
            // Reuse must clear.
            spec.prepare_batch(&keys[..10], &mut batch);
            assert_eq!(batch.len(), 10);
        }
        check(&(0..1000u64).collect::<Vec<_>>());
        // A 13-byte key, the width of a 5-tuple.
        check(
            &(0..1000u64)
                .map(|i| {
                    let mut k = [0u8; 13];
                    k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
                    k[8..].copy_from_slice(&[6, 0x1F, 0x90, i as u8, (i >> 8) as u8]);
                    k
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn slotted_batch_matches_on_demand_slots() {
        let spec = HashSpec::new(42, 16);
        let keys: Vec<u64> = (0..500).collect();
        let (arrays, width) = (3usize, 1024usize);
        let mut batch = PreparedBatch::new();
        batch.prepare(&spec, &keys, arrays, width);
        assert_eq!(batch.len(), keys.len());
        assert_eq!(batch.arrays(), arrays);
        for (idx, k) in keys.iter().enumerate() {
            let p = spec.prepare(k.key_bytes().as_slice());
            let e = batch.entry(idx);
            assert_eq!(*e.key(), p);
            // Cached arrays and fallback arrays (past the prepared
            // geometry, e.g. after expansion) both agree with the
            // on-demand derivation.
            for j in 0..8 {
                assert_eq!(e.slot(j, width), p.slot(j, width));
            }
        }
        // Reuse must clear.
        batch.prepare(&spec, &keys[..10], arrays, width);
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
    }

    #[test]
    fn prepare_from_matches_hashing_prolog() {
        // The handoff prolog (already-prepared keys shipped in) must
        // rebuild exactly the scratch the hashing prolog would.
        let spec = HashSpec::new(42, 16);
        let keys: Vec<u64> = (0..300).collect();
        let (arrays, width) = (4usize, 512usize);
        let mut hashed = PreparedBatch::new();
        hashed.prepare(&spec, &keys, arrays, width);
        let mut handoff = PreparedBatch::new();
        handoff.prepare_from(hashed.keys(), arrays, width);
        assert_eq!(handoff.len(), hashed.len());
        assert_eq!(handoff.arrays(), hashed.arrays());
        for idx in 0..keys.len() {
            let (a, b) = (hashed.entry(idx), handoff.entry(idx));
            assert_eq!(a.key(), b.key());
            for j in 0..arrays {
                assert_eq!(a.slot(j, width), b.slot(j, width));
            }
        }
    }

    #[test]
    fn prepared_key_is_its_own_slot_source() {
        let spec = HashSpec::new(5, 16);
        let p = spec.prepare(&3u64.to_le_bytes());
        assert_eq!(KeySlots::key(&p), &p);
        assert_eq!(KeySlots::slot(&p, 1, 64), p.slot(1, 64));
    }

    #[test]
    fn mask_respected() {
        let spec = HashSpec::new(3, 8);
        for v in 0..5000u64 {
            let p = spec.prepare(&v.to_le_bytes());
            assert!(p.fp <= 0xFF && p.fp > 0);
        }
    }

    #[test]
    fn lanes_spread_uniformly() {
        let spec = HashSpec::new(11, 16);
        let shards = 8u64;
        let mut counts = vec![0usize; shards as usize];
        let n = 80_000u64;
        for v in 0..n {
            let p = spec.prepare(&v.to_le_bytes());
            counts[((p.lane() as u64 * shards) >> 32) as usize] += 1;
        }
        let expect = (n / shards) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "shard {i} holds {c} of {n}");
        }
    }

    #[test]
    #[should_panic(expected = "fingerprint width")]
    fn zero_width_rejected() {
        HashSpec::new(1, 0);
    }
}
