//! Packed buckets and the flat bucket matrix.
//!
//! Each HeavyKeeper bucket holds a fingerprint field `FP` and a counter
//! field `C` (Figure 1). Every bucket is **one packed word** — counter in
//! the low bits, fingerprint above it — so a bucket update is a single
//! load and a single store. The word is as wide as the configured fields
//! need, and no wider:
//!
//! * a **`u32`** when `fingerprint_bits + counter_bits ≤ 32`. The paper's
//!   16+16 buckets (Section VI-A) pack 16/16, exactly as configured, so
//!   the runtime bytes equal the accounted bytes and sixteen buckets
//!   share each 64-byte cache line;
//! * a **`u64`** otherwise (`WeightedTopK`'s 32-bit counters, the wide
//!   test configurations), eight buckets to a line.
//!
//! The configuration decides once, in [`PackedLayout::new`]; there is no
//! option and no second storage path.
//!
//! * [`PackedLayout`] is the bit split inside the word. Every configured
//!   value is representable: the counter field holds at least
//!   `counter_bits`, the fingerprint field at least `fingerprint_bits`,
//!   and [`PackedLayout::pack`] asserts it on every value write.
//! * [`BucketMatrix`] is the storage, written once over the word type
//!   ([`BucketWord`]): one contiguous, 64-byte-aligned, row-major `d × w`
//!   allocation. A bucket access is one base-pointer offset
//!   (`row * width + slot`) with no per-array indirection; `reset` is a
//!   `fill(0)` and occupancy a slice scan.
//! * [`Buckets`] holds the matrix of whichever word the layout chose.
//!   Merge and the codecs pick the word once per call (`with_matrix!`),
//!   the sketch's ingest walks once per batch or packet; only the
//!   single-bucket value accessors ([`Buckets::get`], [`Buckets::set`])
//!   pick it per bucket.
//! * [`Bucket`] remains the *value* type consumers read and write;
//!   packing and unpacking happen at the matrix boundary.
//!
//! Words move in and out of the matrix as `u64` values (a `u32` widens
//! by zero extension and narrows by truncation, both free), so the
//! layout arithmetic and the bucket walks are written once for both
//! words.
//!
//! Index computation lives in [`crate::sketch::HkSketch`] (one hash per
//! packet, Kirsch–Mitzenmacher derivation); the matrix is pure bucket
//! storage. The *accounted* memory (what experiments charge the
//! algorithm for) uses the configured bit widths — exactly how a C
//! implementation with packed 16+16-bit buckets would be charged.

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

/// The bit split of a packed bucket word: counter in the low
/// `count_bits`, fingerprint in the rest of a 32- or 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    word_bits: u32,
    count_bits: u32,
    count_mask: u64,
}

impl PackedLayout {
    /// Derives the runtime packing for the configured field widths: a
    /// 4-byte word when `fingerprint_bits + counter_bits ≤ 32`, an
    /// 8-byte word otherwise.
    ///
    /// In either word the counter field gets `max(half the word,
    /// counter_bits)` bits, shrunk only as far as needed to leave the
    /// fingerprint its configured width. The default 16+16
    /// configuration therefore packs 16/16 into a `u32`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ fingerprint_bits ≤ 32`, `counter_bits ≥ 1`,
    /// and `fingerprint_bits + counter_bits ≤ 64` (the configured
    /// fields must fit one word).
    pub fn new(fingerprint_bits: u32, counter_bits: u32) -> Self {
        let word_bits = if fingerprint_bits + counter_bits <= 32 {
            32
        } else {
            64
        };
        Self::split(word_bits, fingerprint_bits, counter_bits)
    }

    fn split(word_bits: u32, fingerprint_bits: u32, counter_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&fingerprint_bits),
            "fingerprint width must be in 1..=32"
        );
        assert!(counter_bits >= 1, "counter width must be positive");
        assert!(
            fingerprint_bits + counter_bits <= 64,
            "fingerprint + counter bits exceed one packed word"
        );
        let count_bits = counter_bits
            .max(word_bits / 2)
            .min(word_bits - fingerprint_bits);
        Self {
            word_bits,
            count_bits,
            count_mask: (1u64 << count_bits) - 1,
        }
    }

    /// Bytes of the word buckets pack into (4 or 8).
    #[inline]
    pub fn word_bytes(&self) -> usize {
        self.word_bits as usize / 8
    }

    /// Bits of the runtime counter field (≥ the configured width).
    #[inline]
    pub fn count_bits(&self) -> u32 {
        self.count_bits
    }

    /// Bits of the runtime fingerprint field (≥ the configured width).
    #[inline]
    pub fn fp_bits(&self) -> u32 {
        self.word_bits - self.count_bits
    }

    /// Largest counter value the runtime field can hold.
    #[inline]
    pub fn count_max(&self) -> u64 {
        self.count_mask
    }

    /// Packs a bucket into one word.
    ///
    /// # Panics
    ///
    /// Panics if the counter or the fingerprint does not fit its field:
    /// an oversized counter would otherwise carry into the fingerprint
    /// bits. Checked in release builds too — the hot walks write
    /// through [`BucketMatrix::set_word`] on values already bounded by
    /// the configured `counter_max`, so they never come here.
    #[inline]
    pub fn pack(&self, b: Bucket) -> u64 {
        assert!(
            b.count <= self.count_mask,
            "bucket counter {} overflows its {}-bit field",
            b.count,
            self.count_bits
        );
        assert!(
            u64::from(b.fp) >> self.fp_bits() == 0,
            "bucket fingerprint {:#x} overflows its {}-bit field",
            b.fp,
            self.fp_bits()
        );
        (u64::from(b.fp) << self.count_bits) | b.count
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

    /// The fingerprint pre-shifted into field position.
    ///
    /// Hot paths compare against this with [`PackedLayout::fp_matches`]
    /// instead of extracting each bucket's fingerprint: the shift
    /// happens once per packet, never per bucket.
    #[inline]
    pub fn packed_fp(&self, fp: u32) -> u64 {
        debug_assert!(
            u64::from(fp) >> self.fp_bits() == 0,
            "fingerprint overflows its field"
        );
        u64::from(fp) << self.count_bits
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

/// A word a [`BucketMatrix`] stores buckets in: `u32` or `u64`.
///
/// Values cross the matrix boundary as `u64`: a [`PackedLayout`] of the
/// word's width keeps every field inside the word, so narrowing a
/// packed value loses nothing.
pub trait BucketWord: Copy + Default + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Narrows a packed value into the word.
    fn from_u64(word: u64) -> Self;
    /// Widens the word into a packed value.
    fn to_u64(self) -> u64;
    /// The matrix inside `buckets`, if it stores this word. Two sketches
    /// of one configuration store the same word, so a pass over a pair
    /// of them picks the word once and reads the second through this.
    fn matrix(buckets: &Buckets) -> Option<&BucketMatrix<Self>>;
}

impl BucketWord for u32 {
    #[inline]
    fn from_u64(word: u64) -> Self {
        debug_assert!(word >> 32 == 0, "packed value exceeds a 4-byte word");
        word as u32
    }

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }

    fn matrix(buckets: &Buckets) -> Option<&BucketMatrix<Self>> {
        match buckets {
            Buckets::Narrow(m) => Some(m),
            Buckets::Wide(_) => None,
        }
    }
}

impl BucketWord for u64 {
    #[inline]
    fn from_u64(word: u64) -> Self {
        word
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    fn matrix(buckets: &Buckets) -> Option<&BucketMatrix<Self>> {
        match buckets {
            Buckets::Wide(m) => Some(m),
            Buckets::Narrow(_) => None,
        }
    }
}

/// A contiguous, 64-byte-aligned, row-major `rows × width` matrix of
/// packed buckets, stored as words `W`.
///
/// The alignment is achieved without `unsafe`: the backing `Vec<W>` is
/// over-allocated by one cache line's worth of words less one, and the
/// live region starts at the first 64-byte boundary inside it, so every
/// row begins on a cache line whenever its bytes are a multiple of 64.
#[derive(Debug)]
pub struct BucketMatrix<W: BucketWord> {
    words: Vec<W>,
    /// First live word (alignment offset into `words`).
    start: usize,
    rows: usize,
    width: usize,
    layout: PackedLayout,
}

impl<W: BucketWord> BucketMatrix<W> {
    /// Words of padding allocated so the live region can start on a
    /// 64-byte boundary: they cover every phase of a `W`-aligned
    /// allocation.
    const ALIGN_PAD: usize = 64 / std::mem::size_of::<W>() - 1;

    /// Creates an all-empty `rows × width` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `width == 0`, or `layout` packs a word of
    /// another size than `W`.
    pub fn new(rows: usize, width: usize, layout: PackedLayout) -> Self {
        assert!(rows > 0, "matrix needs at least one row");
        assert!(width > 0, "array width must be positive");
        assert_eq!(
            layout.word_bytes(),
            std::mem::size_of::<W>(),
            "layout packs a word of another size than the matrix stores"
        );
        // Zero by *storing* (resize), not via `vec![0; n]`'s calloc
        // fast path: calloc hands back lazily mapped zero pages whose
        // faults would then land inside the ingest hot loop. Writing
        // the zeros here populates every page at construction, so
        // steady-state inserts never page-fault — the behavior a
        // line-rate deployment wants.
        #[allow(clippy::slow_vector_initialization)]
        let words = {
            let mut words = Vec::with_capacity(rows * width + Self::ALIGN_PAD);
            words.resize(rows * width + Self::ALIGN_PAD, W::default());
            words
        };
        let off = words.as_ptr().align_offset(64);
        // `align_offset` counts in `W` elements; for a `W`-aligned
        // allocation it is at most `ALIGN_PAD`, but the API reserves the
        // right to give up (usize::MAX) — fall back to an unaligned
        // start then.
        let start = if off <= Self::ALIGN_PAD { off } else { 0 };
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
    pub fn data(&self) -> &[W] {
        &self.words[self.start..self.start + self.rows * self.width]
    }

    /// The live words, mutable — hot paths hoist this once so the
    /// slice pointer/length live in registers across the walk instead
    /// of being re-loaded from the struct after every store.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [W] {
        &mut self.words[self.start..self.start + self.rows * self.width]
    }

    /// One row's packed words (for merge walks and serialization).
    #[inline]
    pub fn row(&self, j: usize) -> &[W] {
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
        self.words[self.index(j, i)].to_u64()
    }

    /// Overwrites the raw packed word of bucket `(j, i)`. The caller
    /// keeps the fields inside the layout (the walks bound counters by
    /// the configured `counter_max`); value writes go through
    /// [`BucketMatrix::set`], which checks.
    #[inline]
    pub fn set_word(&mut self, j: usize, i: usize, word: u64) {
        let idx = self.index(j, i);
        self.words[idx] = W::from_u64(word);
    }

    /// Reads bucket `(j, i)` as a value.
    #[inline]
    pub fn get(&self, j: usize, i: usize) -> Bucket {
        self.layout.unpack(self.word(j, i))
    }

    /// Writes bucket `(j, i)` from a value.
    ///
    /// # Panics
    ///
    /// Panics if a field does not fit the layout ([`PackedLayout::pack`]).
    #[inline]
    pub fn set(&mut self, j: usize, i: usize, b: Bucket) {
        let word = self.layout.pack(b);
        self.set_word(j, i, word);
    }

    /// Clears every bucket: one `fill(0)` over the contiguous words
    /// (compiles to `memset`), not a per-bucket walk.
    pub fn reset(&mut self) {
        self.data_mut().fill(W::default());
    }

    /// Number of non-empty buckets, as a scan of the flat words.
    pub fn occupancy(&self) -> usize {
        let mask = self.layout.count_mask;
        self.data()
            .iter()
            .filter(|w| w.to_u64() & mask != 0)
            .count()
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
    /// `width` stay zero. Plain word compares over the packed row view:
    /// this is the dirty exporter's whole read path, and it never
    /// touches ingest. Each bitmap word is built from one branch-free
    /// compare over its 64-bucket chunk.
    pub fn diff_row_bitmap(&self, j: usize, base: Option<&[W]>, bitmap: &mut Vec<u64>) -> usize {
        /// One bit per bucket of a chunk of at most 64, set iff it
        /// differs from the baseline word. A full chunk compares into 64
        /// byte flags (a loop the compiler vectorizes), then packs each
        /// eight into one bitmap byte with one multiply: flag `i` of the
        /// little-endian `u64` sits at bit `8 i`, the multiplier moves it
        /// to bit `56 + i`, and no two partial products share a bit, so
        /// nothing carries into the top byte. The partial last chunk
        /// folds bucket by bucket.
        fn diff_word<W: BucketWord>(new: &[W], old: &[W]) -> u64 {
            if new.len() < 64 {
                return new
                    .iter()
                    .zip(old)
                    .enumerate()
                    .fold(0, |bits, (i, (n, o))| bits | u64::from(n != o) << i);
            }
            let mut flags = [0u8; 64];
            for ((flag, n), o) in flags.iter_mut().zip(new).zip(old) {
                *flag = u8::from(n != o);
            }
            flags
                .chunks_exact(8)
                .enumerate()
                .fold(0, |bits, (byte, eight)| {
                    let eight = u64::from_le_bytes(eight.try_into().expect("chunks of 8"));
                    bits | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * byte)
                })
        }
        let empty = [W::default(); 64];

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
                    *word = diff_word(new, &empty);
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

    /// Bytes of the live runtime allocation (one word per bucket).
    pub fn runtime_bytes(&self) -> usize {
        self.rows * self.width * std::mem::size_of::<W>()
    }
}

impl<W: BucketWord> Clone for BucketMatrix<W> {
    /// Clones by rebuilding: the fresh allocation computes its own
    /// alignment offset instead of inheriting one that only made sense
    /// for the original base address.
    fn clone(&self) -> Self {
        let mut m = Self::new(self.rows, self.width, self.layout);
        m.data_mut().copy_from_slice(self.data());
        m
    }
}

/// A sketch's bucket matrix, in the word [`PackedLayout::new`] chose for
/// its configuration.
#[derive(Debug, Clone)]
pub enum Buckets {
    /// 4-byte words: `fingerprint_bits + counter_bits ≤ 32`.
    Narrow(BucketMatrix<u32>),
    /// 8-byte words: wider configurations.
    Wide(BucketMatrix<u64>),
}

/// Evaluates `$body` with `$m` bound to the [`BucketMatrix`] inside a
/// [`Buckets`] expression, once per word type: a whole-matrix pass
/// (merge, encode, decode, diff) picks the word here once.
macro_rules! with_matrix {
    ($buckets:expr, $m:ident => $body:expr) => {
        match $buckets {
            $crate::bucket::Buckets::Narrow($m) => $body,
            $crate::bucket::Buckets::Wide($m) => $body,
        }
    };
}

pub(crate) use with_matrix;

impl Buckets {
    /// Allocates an all-empty `rows × width` matrix in `layout`'s word.
    ///
    /// # Panics
    ///
    /// As [`BucketMatrix::new`].
    pub fn new(rows: usize, width: usize, layout: PackedLayout) -> Self {
        match layout.word_bytes() {
            4 => Self::Narrow(BucketMatrix::new(rows, width, layout)),
            _ => Self::Wide(BucketMatrix::new(rows, width, layout)),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        with_matrix!(self, m => m.rows())
    }

    /// The bit split buckets are packed with.
    #[inline]
    pub fn layout(&self) -> PackedLayout {
        with_matrix!(self, m => m.layout())
    }

    /// Reads bucket `(j, i)` as a value.
    #[inline]
    pub fn get(&self, j: usize, i: usize) -> Bucket {
        with_matrix!(self, m => m.get(j, i))
    }

    /// Writes bucket `(j, i)` from a value ([`BucketMatrix::set`]).
    #[inline]
    pub fn set(&mut self, j: usize, i: usize, b: Bucket) {
        with_matrix!(self, m => m.set(j, i, b))
    }

    /// Clears every bucket ([`BucketMatrix::reset`]).
    pub fn reset(&mut self) {
        with_matrix!(self, m => m.reset())
    }

    /// Number of non-empty buckets.
    pub fn occupancy(&self) -> usize {
        with_matrix!(self, m => m.occupancy())
    }

    /// True if the live region starts on a 64-byte boundary.
    pub fn is_aligned(&self) -> bool {
        with_matrix!(self, m => m.is_aligned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The default 16+16 layout (4-byte words).
    fn narrow() -> PackedLayout {
        PackedLayout::new(16, 16)
    }

    /// `WeightedTopK`'s 16+32 layout (8-byte words).
    fn wide() -> PackedLayout {
        PackedLayout::new(16, 32)
    }

    #[test]
    fn new_matrix_is_empty() {
        let m = BucketMatrix::<u32>::new(2, 16, narrow());
        assert_eq!(m.rows(), 2);
        assert_eq!(m.width(), 16);
        assert_eq!(m.occupancy(), 0);
        assert!(m.data().iter().all(|&w| w == 0));
        assert_eq!(m.runtime_bytes(), 2 * 16 * 4);
    }

    #[test]
    fn bucket_roundtrip_via_matrix() {
        let mut m = BucketMatrix::<u32>::new(2, 4, narrow());
        m.set(1, 2, Bucket { fp: 9, count: 5 });
        assert_eq!(m.get(1, 2), Bucket { fp: 9, count: 5 });
        assert_eq!(m.occupancy(), 1);
        let mut m = BucketMatrix::<u64>::new(2, 4, wide());
        let big = Bucket {
            fp: 9,
            count: 1 << 31,
        };
        m.set(1, 2, big);
        assert_eq!(m.get(1, 2), big);
    }

    #[test]
    fn default_split_is_16_16_in_four_bytes() {
        // The paper's 16+16 buckets fill a 4-byte word exactly.
        let l = narrow();
        assert_eq!(l.word_bytes(), 4);
        assert_eq!(l.count_bits(), 16);
        assert_eq!(l.fp_bits(), 16);
        assert_eq!(l.count_max(), u16::MAX as u64);
        // A configuration past 32 bits takes the 32/32 8-byte split.
        let l = wide();
        assert_eq!(l.word_bytes(), 8);
        assert_eq!(l.count_bits(), 32);
        assert_eq!(l.fp_bits(), 32);
        assert_eq!(l.count_max(), u32::MAX as u64);
        // 32 bits is the boundary: one more bit takes the wide word.
        assert_eq!(PackedLayout::new(12, 20).word_bytes(), 4);
        assert_eq!(PackedLayout::new(12, 21).word_bytes(), 8);
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
    #[should_panic(expected = "bucket counter 65536 overflows its 16-bit field")]
    fn pack_rejects_oversized_counter() {
        let mut m = BucketMatrix::<u32>::new(1, 4, narrow());
        // One past the field would carry into the fingerprint bits.
        let b = Bucket {
            fp: 1,
            count: 1 << 16,
        };
        m.set(0, 0, b);
    }

    #[test]
    #[should_panic(expected = "bucket fingerprint 0x10000 overflows its 16-bit field")]
    fn pack_rejects_oversized_fingerprint() {
        let mut m = BucketMatrix::<u32>::new(1, 4, narrow());
        let b = Bucket {
            fp: 1 << 16,
            count: 1,
        };
        m.set(0, 0, b);
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
        let mut m = BucketMatrix::<u32>::new(1, 4, narrow());
        // A stale fingerprint with a zero counter is still empty.
        m.set(0, 0, Bucket { fp: 7, count: 0 });
        assert_eq!(m.occupancy(), 0);
        assert!(m.get(0, 0).is_empty());
    }

    fn fill_and_reset<W: BucketWord>(layout: PackedLayout) {
        let mut m = BucketMatrix::<W>::new(3, 8, layout);
        for j in 0..3 {
            for i in 0..8 {
                m.set(j, i, Bucket { fp: 1, count: 1 });
            }
        }
        assert_eq!(m.occupancy(), 24);
        m.reset();
        assert_eq!(m.occupancy(), 0);
        assert!(m.data().iter().all(|&w| w == W::default()));
    }

    #[test]
    fn reset_clears_everything() {
        fill_and_reset::<u32>(narrow());
        fill_and_reset::<u64>(wide());
    }

    #[test]
    fn matrix_is_cache_line_aligned() {
        for width in [8usize, 64, 1024] {
            let m = BucketMatrix::<u32>::new(2, width, narrow());
            assert!(m.is_aligned(), "width {width} not aligned");
            assert_eq!(m.data().as_ptr() as usize % 64, 0);
            let m = BucketMatrix::<u64>::new(2, width, wide());
            assert!(m.is_aligned(), "width {width} not aligned");
        }
    }

    #[test]
    #[should_panic(expected = "another size than the matrix stores")]
    fn matrix_word_must_match_layout() {
        BucketMatrix::<u64>::new(1, 8, narrow());
    }

    #[test]
    fn clone_preserves_contents_and_alignment() {
        let mut m = BucketMatrix::<u32>::new(2, 64, narrow());
        m.set(1, 63, Bucket { fp: 3, count: 7 });
        let c = m.clone();
        assert_eq!(c.get(1, 63), Bucket { fp: 3, count: 7 });
        assert_eq!(c.data(), m.data());
        assert!(c.is_aligned());
    }

    #[test]
    fn push_row_keeps_contents_and_appends_empty() {
        let mut m = BucketMatrix::<u32>::new(2, 4, narrow());
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
        let mut m = BucketMatrix::<u32>::new(2, 4, narrow());
        m.set(1, 0, Bucket { fp: 2, count: 3 });
        assert_eq!(m.row(0).len(), 4);
        assert_eq!(u64::from(m.row(1)[0]), m.word(1, 0));
        let flat: Vec<u32> = m.row(0).iter().chain(m.row(1)).copied().collect();
        assert_eq!(flat, m.data());
    }

    /// The per-bucket loop `diff_row_bitmap` replaced: the reference
    /// its word-at-a-time compare must match.
    fn diff_row_reference<W: BucketWord>(row: &[W], base: Option<&[W]>) -> Vec<u64> {
        let mut bitmap = vec![0u64; row.len().div_ceil(64)];
        for (i, &new) in row.iter().enumerate() {
            if base.map_or(W::default(), |b| b[i]) != new {
                bitmap[i / 64] |= 1u64 << (i % 64);
            }
        }
        bitmap
    }

    fn diff_row_bitmap_matches_reference<W: BucketWord>(layout: PackedLayout) {
        // Widths around a bitmap word's edges, plus the fleet row
        // (4 MiB over W = 4 epochs, 2 rows of 130,922 buckets).
        let word_mask = u64::MAX >> (64 - 8 * std::mem::size_of::<W>());
        for width in [1, 63, 64, 65, 130, 130_922] {
            let (mut m, mut base) = (
                BucketMatrix::<W>::new(2, width, layout),
                BucketMatrix::<W>::new(2, width, layout),
            );
            let mut rng = hk_common::prng::XorShift64::new(width as u64);
            for j in 0..2 {
                for i in 0..width {
                    // About a third occupied on each side, and a third of
                    // those the same word on both, so equal, changed,
                    // emptied and newly filled buckets all occur.
                    let r = rng.next_u64_raw();
                    let word = ((r >> 8) | 1) & word_mask;
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
    fn diff_row_bitmap_matches_per_bucket_reference() {
        diff_row_bitmap_matches_reference::<u32>(narrow());
        diff_row_bitmap_matches_reference::<u64>(wide());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        BucketMatrix::<u32>::new(1, 0, narrow());
    }

    #[test]
    #[should_panic(expected = "exceed one packed word")]
    fn oversized_split_rejected() {
        PackedLayout::new(32, 33);
    }

    proptest! {
        /// Round-trip at every representable bit split, in the runtime
        /// word and in the 8-byte split of the same fields: any in-range
        /// (fp, count) survives pack → unpack bit-exactly, and the
        /// runtime word is 4 bytes exactly when the configured fields
        /// fit 32 bits.
        #[test]
        fn pack_unpack_roundtrips_at_every_split(
            fp_bits in 1u32..=32,
            extra_count_bits in 0u32..=32,
            fp_seed in any::<u32>(),
            count_seed in any::<u64>(),
        ) {
            let count_bits = (64 - fp_bits).min(1 + extra_count_bits.min(62));
            let runtime = PackedLayout::new(fp_bits, count_bits);
            let word_bytes = if fp_bits + count_bits <= 32 { 4 } else { 8 };
            prop_assert_eq!(runtime.word_bytes(), word_bytes);
            for l in [runtime, PackedLayout::split(64, fp_bits, count_bits)] {
                prop_assert!(l.count_bits() >= count_bits);
                prop_assert!(l.fp_bits() >= fp_bits);
                prop_assert_eq!(l.count_bits() + l.fp_bits(), 8 * l.word_bytes() as u32);
                // Clamp the seeds into the *configured* ranges, like the
                // sketch's mask and saturation do.
                let fp = if fp_bits == 32 { fp_seed } else { fp_seed & ((1 << fp_bits) - 1) };
                let count_max = if count_bits == 64 { u64::MAX } else { (1u64 << count_bits) - 1 };
                let count = count_seed.min(count_max);
                let b = Bucket { fp, count };
                prop_assert_eq!(l.unpack(l.pack(b)), b);
                prop_assert_eq!(l.count(l.pack(b)), count);
                prop_assert_eq!(l.fp(l.pack(b)), fp);
                prop_assert!(l.word_bytes() == 8 || l.pack(b) >> 32 == 0, "word overflow");
            }
        }

        /// The counter field holds the configured `counter_max`: packing
        /// it is lossless, and the walks' `count < counter_max` check
        /// before an increment keeps every count inside its field.
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
