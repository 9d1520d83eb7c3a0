//! Packed buckets and the flat bucket matrix.
//!
//! Each HeavyKeeper bucket holds a fingerprint field `FP` and a counter
//! field `C` (Figure 1). The paper evaluates with *packed* 16+16-bit
//! buckets so that a whole row of candidate buckets fits in a couple of
//! cache lines; the runtime layout here matches that spirit: every
//! bucket is **one `u64` word** — counter in the low bits, fingerprint
//! in the high bits — so a bucket update is a single load and a single
//! store, and eight buckets share each 64-byte cache line (the old
//! padded `{fp: u32, count: u64}` struct spent 16 bytes per bucket and
//! fit only four).
//!
//! * [`PackedLayout`] is the bit split. It is derived from the
//!   *configured* field widths and defaults to 32/32 (16-bit configured
//!   fields leave headroom; the split only widens the counter side when
//!   the configuration demands more than 32 counter bits). Every
//!   configured value is representable: the counter field always holds
//!   at least `counter_bits`, the fingerprint field at least
//!   `fingerprint_bits` — debug-asserted on every pack.
//! * [`BucketMatrix`] is the storage: one contiguous, 64-byte-aligned,
//!   row-major `d × w` allocation. A bucket access is one base-pointer
//!   offset (`row * width + slot`) with no per-array indirection;
//!   `reset` is a `fill(0)` and occupancy a slice scan.
//! * [`Bucket`] remains the *value* type consumers read and write;
//!   packing and unpacking happen at the matrix boundary.
//!
//! Index computation lives in [`crate::sketch::HkSketch`] (one hash per
//! packet, Kirsch–Mitzenmacher derivation); the matrix is pure bucket
//! storage. The *accounted* memory (what experiments charge the
//! algorithm for) still uses the configured bit widths — exactly how a
//! C implementation with packed 16+16-bit buckets would be charged.

/// One `(fingerprint, counter)` bucket, as a value.
///
/// `fp == 0` encodes an empty bucket; real fingerprints are remapped away
/// from 0 by the sketch's fingerprint derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bucket {
    /// Fingerprint field (0 = empty).
    pub fp: u32,
    /// Counter field.
    pub count: u64,
}

impl Bucket {
    /// True if no flow is held here (counter 0).
    ///
    /// The paper's invariant: "as long as flows are mapped to a bucket,
    /// its counter field will never be 0", so `count == 0 ⇔ empty`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The single-word bucket bit split: counter in the low `count_bits`,
/// fingerprint in the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    count_bits: u32,
    count_mask: u64,
}

impl PackedLayout {
    /// Derives the packing for the configured field widths.
    ///
    /// The counter field gets `max(32, counter_bits)` bits (so the
    /// default 16+16 configuration packs as 32/32), shrunk only as far
    /// as needed to leave the fingerprint its configured width.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ fingerprint_bits ≤ 32`, `counter_bits ≥ 1`,
    /// and `fingerprint_bits + counter_bits ≤ 64` (the configured
    /// fields must fit one word).
    pub fn new(fingerprint_bits: u32, counter_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&fingerprint_bits),
            "fingerprint width must be in 1..=32"
        );
        assert!(counter_bits >= 1, "counter width must be positive");
        assert!(
            fingerprint_bits + counter_bits <= 64,
            "fingerprint + counter bits exceed one packed word"
        );
        let count_bits = counter_bits.max(32).min(64 - fingerprint_bits);
        Self {
            count_bits,
            count_mask: (1u64 << count_bits) - 1,
        }
    }

    /// Bits of the runtime counter field (≥ the configured width).
    #[inline]
    pub fn count_bits(&self) -> u32 {
        self.count_bits
    }

    /// Bits of the runtime fingerprint field (≥ the configured width).
    #[inline]
    pub fn fp_bits(&self) -> u32 {
        64 - self.count_bits
    }

    /// Largest counter value the runtime field can hold.
    #[inline]
    pub fn count_max(&self) -> u64 {
        self.count_mask
    }

    /// Packs a bucket into one word.
    #[inline]
    pub fn pack(&self, b: Bucket) -> u64 {
        debug_assert!(b.count <= self.count_mask, "counter overflows its field");
        debug_assert!(
            self.fp_bits() == 32 || (b.fp as u64) < (1u64 << self.fp_bits()),
            "fingerprint overflows its field"
        );
        ((b.fp as u64) << self.count_bits) | b.count
    }

    /// Unpacks a word back into a bucket.
    #[inline]
    pub fn unpack(&self, word: u64) -> Bucket {
        Bucket {
            fp: (word >> self.count_bits) as u32,
            count: word & self.count_mask,
        }
    }

    /// The counter field of a packed word.
    #[inline]
    pub fn count(&self, word: u64) -> u64 {
        word & self.count_mask
    }

    /// The fingerprint field of a packed word.
    #[inline]
    pub fn fp(&self, word: u64) -> u32 {
        (word >> self.count_bits) as u32
    }

    /// Mask selecting the fingerprint field in place (the complement of
    /// the counter mask).
    ///
    /// Hot paths compare `word & fp_mask() == packed_fp(fp)` instead of
    /// extracting the fingerprint: the shift happens once per packet in
    /// [`PackedLayout::packed_fp`], never per bucket.
    #[inline]
    pub fn fp_mask(&self) -> u64 {
        !self.count_mask
    }

    /// The fingerprint pre-shifted into field position.
    #[inline]
    pub fn packed_fp(&self, fp: u32) -> u64 {
        debug_assert!(
            self.fp_bits() == 32 || (fp as u64) < (1u64 << self.fp_bits()),
            "fingerprint overflows its field"
        );
        (fp as u64) << self.count_bits
    }

    /// True iff `word`'s fingerprint field equals the pre-shifted
    /// `packed_fp`: the xor clears the fingerprint bits exactly when
    /// they match, leaving only counter bits — one xor and one compare,
    /// no per-bucket shift or second mask.
    #[inline]
    pub fn fp_matches(&self, word: u64, packed_fp: u64) -> bool {
        (word ^ packed_fp) <= self.count_mask
    }
}

/// Words of padding allocated so the live region can start on a
/// 64-byte boundary (7 spare `u64`s cover every phase of an 8-byte
/// aligned allocation).
const ALIGN_PAD: usize = 7;

/// A contiguous, 64-byte-aligned, row-major `rows × width` matrix of
/// packed buckets.
///
/// The alignment is achieved without `unsafe`: the backing `Vec<u64>`
/// is over-allocated by `ALIGN_PAD` (7) words and the live region starts
/// at the first 64-byte boundary inside it, so every row of 8 buckets
/// begins on a cache line whenever `width` is a multiple of 8.
#[derive(Debug)]
pub struct BucketMatrix {
    words: Vec<u64>,
    /// First live word (alignment offset into `words`).
    start: usize,
    rows: usize,
    width: usize,
    layout: PackedLayout,
}

impl BucketMatrix {
    /// Creates an all-empty `rows × width` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, layout: PackedLayout) -> Self {
        assert!(rows > 0, "matrix needs at least one row");
        assert!(width > 0, "array width must be positive");
        // Zero by *storing* (resize), not via `vec![0; n]`'s calloc
        // fast path: calloc hands back lazily mapped zero pages whose
        // faults would then land inside the ingest hot loop. Writing
        // the zeros here populates every page at construction, so
        // steady-state inserts never page-fault — the behavior a
        // line-rate deployment wants, and what the padded layout did
        // implicitly (its bucket struct had no calloc specialization).
        #[allow(clippy::slow_vector_initialization)]
        let words = {
            let mut words = Vec::with_capacity(rows * width + ALIGN_PAD);
            words.resize(rows * width + ALIGN_PAD, 0u64);
            words
        };
        let off = words.as_ptr().align_offset(64);
        // `align_offset` counts in `u64` elements; for an 8-byte aligned
        // allocation it is 0..=7, but the API reserves the right to give
        // up (usize::MAX) — fall back to an unaligned start then.
        let start = if off <= ALIGN_PAD { off } else { 0 };
        Self {
            words,
            start,
            rows,
            width,
            layout,
        }
    }

    /// Number of rows (the sketch's `d`, grows under expansion).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row (the sketch's `w`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bit split buckets are packed with.
    #[inline]
    pub fn layout(&self) -> PackedLayout {
        self.layout
    }

    /// The live words, all rows contiguous.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.words[self.start..self.start + self.rows * self.width]
    }

    /// The live words, mutable — hot paths hoist this once so the
    /// slice pointer/length live in registers across the walk instead
    /// of being re-loaded from the struct after every store.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.words[self.start..self.start + self.rows * self.width]
    }

    /// One row's packed words (for merge walks and serialization).
    #[inline]
    pub fn row(&self, j: usize) -> &[u64] {
        debug_assert!(j < self.rows);
        let base = self.start + j * self.width;
        &self.words[base..base + self.width]
    }

    #[inline]
    fn index(&self, j: usize, i: usize) -> usize {
        debug_assert!(j < self.rows, "row {j} out of {}", self.rows);
        debug_assert!(i < self.width, "slot {i} out of {}", self.width);
        self.start + j * self.width + i
    }

    /// The raw packed word of bucket `(j, i)`.
    #[inline]
    pub fn word(&self, j: usize, i: usize) -> u64 {
        self.words[self.index(j, i)]
    }

    /// Overwrites the raw packed word of bucket `(j, i)`.
    #[inline]
    pub fn set_word(&mut self, j: usize, i: usize, word: u64) {
        let idx = self.index(j, i);
        self.words[idx] = word;
    }

    /// Reads bucket `(j, i)` as a value.
    #[inline]
    pub fn get(&self, j: usize, i: usize) -> Bucket {
        self.layout.unpack(self.word(j, i))
    }

    /// Writes bucket `(j, i)` from a value.
    #[inline]
    pub fn set(&mut self, j: usize, i: usize, b: Bucket) {
        let word = self.layout.pack(b);
        self.set_word(j, i, word);
    }

    /// Clears every bucket: one `fill(0)` over the contiguous words
    /// (compiles to `memset`), not a per-bucket walk.
    pub fn reset(&mut self) {
        self.data_mut().fill(0);
    }

    /// Number of non-empty buckets, as a scan of the flat words.
    pub fn occupancy(&self) -> usize {
        let mask = self.layout.count_mask;
        self.data().iter().filter(|&&w| w & mask != 0).count()
    }

    /// Appends an all-empty row (Section III-F expansion). The matrix
    /// is re-allocated so the enlarged region is again aligned and
    /// contiguous; expansion is rare, so the copy is off any hot path.
    pub fn push_row(&mut self) {
        let mut grown = Self::new(self.rows + 1, self.width, self.layout);
        let live = self.rows * self.width;
        grown.data_mut()[..live].copy_from_slice(self.data());
        *self = grown;
    }

    /// Scan-and-compares row `j` against `base` (the same row of the
    /// baseline epoch; `None` means an all-empty baseline, e.g. a row
    /// added by Section III-F expansion since the baseline), filling
    /// `bitmap` with one bit per bucket — set iff the packed words
    /// differ — and returning the changed-bucket count. `bitmap` is
    /// resized to `width.div_ceil(64)` words; trailing bits past
    /// `width` stay zero. Plain u64 compares over the packed row view:
    /// this is the dirty exporter's whole read path, and it never
    /// touches ingest. Each bitmap word is built from one branch-free
    /// compare over its 64-bucket chunk.
    pub fn diff_row_bitmap(&self, j: usize, base: Option<&[u64]>, bitmap: &mut Vec<u64>) -> usize {
        /// One bit per bucket of a chunk of at most 64, set iff it
        /// differs from the baseline word.
        fn diff_word(new: &[u64], old: &[u64]) -> u64 {
            new.iter()
                .zip(old)
                .enumerate()
                .fold(0, |bits, (i, (n, o))| bits | u64::from(n != o) << i)
        }
        const EMPTY: [u64; 64] = [0; 64];

        bitmap.clear();
        bitmap.resize(self.width.div_ceil(64), 0);
        let chunks = self.row(j).chunks(64);
        match base {
            Some(base) => {
                debug_assert_eq!(base.len(), self.width, "baseline row width");
                for (word, (new, old)) in bitmap.iter_mut().zip(chunks.zip(base.chunks(64))) {
                    *word = diff_word(new, old);
                }
            }
            None => {
                for (word, new) in bitmap.iter_mut().zip(chunks) {
                    *word = diff_word(new, &EMPTY);
                }
            }
        }
        bitmap.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the live region actually starts on a 64-byte boundary
    /// (diagnostics; `false` only if `align_offset` gave up).
    pub fn is_aligned(&self) -> bool {
        (self.words[self.start..].as_ptr() as usize).is_multiple_of(64)
    }

    /// Bytes of the live runtime allocation (8 per bucket).
    pub fn runtime_bytes(&self) -> usize {
        self.rows * self.width * std::mem::size_of::<u64>()
    }
}

impl Clone for BucketMatrix {
    /// Clones by rebuilding: the fresh allocation computes its own
    /// alignment offset instead of inheriting one that only made sense
    /// for the original base address.
    fn clone(&self) -> Self {
        let mut m = Self::new(self.rows, self.width, self.layout);
        m.data_mut().copy_from_slice(self.data());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_matrix_is_empty() {
        let m = BucketMatrix::new(2, 16, PackedLayout::new(16, 16));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.width(), 16);
        assert_eq!(m.occupancy(), 0);
        assert!(m.data().iter().all(|&w| w == 0));
    }

    #[test]
    fn bucket_roundtrip_via_matrix() {
        let mut m = BucketMatrix::new(2, 4, PackedLayout::new(16, 16));
        m.set(1, 2, Bucket { fp: 9, count: 5 });
        assert_eq!(m.get(1, 2), Bucket { fp: 9, count: 5 });
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn default_split_is_32_32() {
        let l = PackedLayout::new(16, 16);
        assert_eq!(l.count_bits(), 32);
        assert_eq!(l.fp_bits(), 32);
        assert_eq!(l.count_max(), u32::MAX as u64);
    }

    #[test]
    fn wide_counter_widens_the_field() {
        let l = PackedLayout::new(8, 40);
        assert_eq!(l.count_bits(), 40);
        assert_eq!(l.fp_bits(), 24);
        let b = Bucket {
            fp: 0xFF_FFFF,
            count: (1 << 40) - 1,
        };
        assert_eq!(l.unpack(l.pack(b)), b);
    }

    #[test]
    fn empty_means_zero_count() {
        let b = Bucket { fp: 7, count: 0 };
        assert!(b.is_empty(), "a zero counter is empty even with stale fp");
        let b = Bucket { fp: 7, count: 1 };
        assert!(!b.is_empty());
    }

    #[test]
    fn occupancy_keys_on_the_counter_field_only() {
        let mut m = BucketMatrix::new(1, 4, PackedLayout::new(16, 16));
        // A stale fingerprint with a zero counter is still empty.
        m.set(0, 0, Bucket { fp: 7, count: 0 });
        assert_eq!(m.occupancy(), 0);
        assert!(m.get(0, 0).is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = BucketMatrix::new(3, 8, PackedLayout::new(16, 16));
        for j in 0..3 {
            for i in 0..8 {
                m.set(j, i, Bucket { fp: 1, count: 1 });
            }
        }
        assert_eq!(m.occupancy(), 24);
        m.reset();
        assert_eq!(m.occupancy(), 0);
        assert!(m.data().iter().all(|&w| w == 0));
    }

    #[test]
    fn matrix_is_cache_line_aligned() {
        for width in [8usize, 64, 1024] {
            let m = BucketMatrix::new(2, width, PackedLayout::new(16, 16));
            assert!(m.is_aligned(), "width {width} not aligned");
            assert_eq!(m.data().as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn clone_preserves_contents_and_alignment() {
        let mut m = BucketMatrix::new(2, 64, PackedLayout::new(16, 16));
        m.set(1, 63, Bucket { fp: 3, count: 7 });
        let c = m.clone();
        assert_eq!(c.get(1, 63), Bucket { fp: 3, count: 7 });
        assert_eq!(c.data(), m.data());
        assert!(c.is_aligned());
    }

    #[test]
    fn push_row_keeps_contents_and_appends_empty() {
        let mut m = BucketMatrix::new(2, 4, PackedLayout::new(16, 16));
        m.set(0, 1, Bucket { fp: 5, count: 2 });
        m.set(1, 3, Bucket { fp: 6, count: 9 });
        m.push_row();
        assert_eq!(m.rows(), 3);
        assert!(m.is_aligned());
        assert_eq!(m.get(0, 1), Bucket { fp: 5, count: 2 });
        assert_eq!(m.get(1, 3), Bucket { fp: 6, count: 9 });
        assert!((0..4).all(|i| m.get(2, i).is_empty()));
    }

    #[test]
    fn row_views_cover_the_matrix() {
        let mut m = BucketMatrix::new(2, 4, PackedLayout::new(16, 16));
        m.set(1, 0, Bucket { fp: 2, count: 3 });
        assert_eq!(m.row(0).len(), 4);
        assert_eq!(m.row(1)[0], m.word(1, 0));
        let flat: Vec<u64> = m.row(0).iter().chain(m.row(1)).copied().collect();
        assert_eq!(flat, m.data());
    }

    /// The per-bucket loop `diff_row_bitmap` replaced: the reference
    /// its word-at-a-time compare must match.
    fn diff_row_reference(row: &[u64], base: Option<&[u64]>) -> Vec<u64> {
        let mut bitmap = vec![0u64; row.len().div_ceil(64)];
        for (i, &new) in row.iter().enumerate() {
            if base.map_or(0, |b| b[i]) != new {
                bitmap[i / 64] |= 1u64 << (i % 64);
            }
        }
        bitmap
    }

    #[test]
    fn diff_row_bitmap_matches_per_bucket_reference() {
        // Widths around a bitmap word's edges, plus the fleet row
        // (4 MiB over W = 4 epochs, 2 rows of 130,922 buckets).
        for width in [1, 63, 64, 65, 130, 130_922] {
            let layout = PackedLayout::new(16, 16);
            let (mut m, mut base) = (
                BucketMatrix::new(2, width, layout),
                BucketMatrix::new(2, width, layout),
            );
            let mut rng = hk_common::prng::XorShift64::new(width as u64);
            for j in 0..2 {
                for i in 0..width {
                    // About a third occupied on each side, and a third of
                    // those the same word on both, so equal, changed,
                    // emptied and newly filled buckets all occur.
                    let r = rng.next_u64_raw();
                    let word = (r >> 8) | 1;
                    if r.is_multiple_of(3) {
                        m.set_word(j, i, word);
                    }
                    match r % 9 {
                        0 | 1 => base.set_word(j, i, word),
                        3 => base.set_word(j, i, word ^ 0x100),
                        _ => {}
                    }
                }
            }
            let mut bitmap = vec![u64::MAX; 3]; // stale contents must go
            for j in 0..2 {
                for base_row in [Some(base.row(j)), None] {
                    let ctx = format!("width {width} row {j} base {}", base_row.is_some());
                    let changed = m.diff_row_bitmap(j, base_row, &mut bitmap);
                    assert_eq!(bitmap, diff_row_reference(m.row(j), base_row), "{ctx}");
                    let popcount: u32 = bitmap.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(changed, popcount as usize, "{ctx}");
                    if width % 64 != 0 {
                        let tail = bitmap.last().unwrap() >> (width % 64);
                        assert_eq!(tail, 0, "{ctx}: bits past the width");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        BucketMatrix::new(1, 0, PackedLayout::new(16, 16));
    }

    #[test]
    #[should_panic(expected = "exceed one packed word")]
    fn oversized_split_rejected() {
        PackedLayout::new(32, 33);
    }

    proptest! {
        /// Round-trip at every representable bit split: any in-range
        /// (fp, count) survives pack → unpack bit-exactly.
        #[test]
        fn pack_unpack_roundtrips_at_every_split(
            fp_bits in 1u32..=32,
            extra_count_bits in 0u32..=32,
            fp_seed in any::<u32>(),
            count_seed in any::<u64>(),
        ) {
            let count_bits = (64 - fp_bits).min(1 + extra_count_bits.min(62));
            let l = PackedLayout::new(fp_bits, count_bits);
            prop_assert!(l.count_bits() >= count_bits);
            prop_assert!(l.fp_bits() >= fp_bits);
            prop_assert_eq!(l.count_bits() + l.fp_bits(), 64);
            // Clamp the seeds into the *configured* ranges, like the
            // sketch's mask and saturation do.
            let fp = if fp_bits == 32 { fp_seed } else { fp_seed & ((1 << fp_bits) - 1) };
            let count_max = if count_bits == 64 { u64::MAX } else { (1u64 << count_bits) - 1 };
            let count = count_seed.min(count_max);
            let b = Bucket { fp, count };
            prop_assert_eq!(l.unpack(l.pack(b)), b);
            prop_assert_eq!(l.count(l.pack(b)), count);
            prop_assert_eq!(l.fp(l.pack(b)), fp);
        }

        /// The counter field saturates exactly at the configured
        /// `counter_max`: packing it is lossless, and one more would
        /// still fit the runtime field (the sketch saturates *before*
        /// the field limit, never at it).
        #[test]
        fn configured_counter_max_fits(fp_bits in 1u32..=32, count_bits in 1u32..=32) {
            prop_assume!(fp_bits + count_bits <= 64);
            let l = PackedLayout::new(fp_bits, count_bits);
            let counter_max = (1u64 << count_bits) - 1;
            prop_assert!(counter_max <= l.count_max());
            let b = Bucket { fp: 1, count: counter_max };
            prop_assert_eq!(l.unpack(l.pack(b)).count, counter_max);
        }

        /// fp = 0 with any counter, and counter = 0 with any fp, keep
        /// the empty-bucket invariant observable after packing.
        #[test]
        fn zero_fields_survive_packing(fp in any::<u32>(), count in any::<u64>()) {
            let l = PackedLayout::new(32, 32);
            let count = count & l.count_max();
            let empty_fp = Bucket { fp: 0, count };
            prop_assert_eq!(l.fp(l.pack(empty_fp)), 0);
            let empty_count = Bucket { fp, count: 0 };
            prop_assert!(l.unpack(l.pack(empty_count)).is_empty());
            // The all-zero word is the all-empty bucket — what `reset`'s
            // fill(0) relies on.
            prop_assert_eq!(l.unpack(0), Bucket::default());
        }
    }
}
