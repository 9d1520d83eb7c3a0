//! The raw HeavyKeeper sketch: a packed `d × w` bucket matrix.
//!
//! This type implements the data structure of Section III-B — hashing,
//! fingerprints, the three insertion cases with exponential-weakening
//! decay, and max-over-matching-buckets queries — without any top-k
//! bookkeeping. The three top-k variants ([`crate::BasicTopK`],
//! [`crate::ParallelTopK`], [`crate::MinimumTopK`]) drive it with their
//! respective insertion disciplines.
//!
//! ## Storage
//!
//! Buckets live in one contiguous, 64-byte-aligned [`BucketMatrix`]:
//! each bucket is a single packed word (counter low, fingerprint high —
//! see [`crate::bucket`]), so the per-packet work on each of the `d`
//! mapped buckets is one load, a few register ops, and at most one
//! store. The word is a `u32` when the configured fields fit 32 bits
//! (the paper's 16+16: runtime bytes equal the accounted bytes, sixteen
//! buckets to a cache line) and a `u64` otherwise. The ingest walks
//! run on a `SketchWords`, the sketch with its word picked: the
//! batched paths pick it once per batch, the scalar paths once per
//! packet, and each walk is one body generic over the word. Only the
//! value accessors [`HkSketch::bucket`] and [`HkSketch::set_bucket`]
//! (diagnostics, tests, collector-side reads) pick it per bucket.
//!
//! ## Hashing
//!
//! The hot path computes **one** 64-bit hash per packet (like the
//! authors' C++ implementation) and derives everything from it:
//!
//! * per-array indices by the Kirsch–Mitzenmacher construction
//!   `h_j = h1 + j·h2` over the two 32-bit halves — a standard, provably
//!   adequate substitute for `d` independent hash functions;
//! * the fingerprint from an additional multiply-rotate fold of the same
//!   hash, so fingerprint equality does not imply index equality.
//!
//! The batched paths go one step further: the batch prolog caches each
//! packet's per-array bucket index in the [`PreparedBatch`] scratch's
//! flat slot table, so the pre-touch pass, the insert pass, and the
//! post-insert query are pure gathers over cached offsets — no index
//! rederivation once the prolog has run. Insert/query bodies are
//! generic over [`KeySlots`], which the scalar path satisfies with a
//! plain [`PreparedKey`] (slots derived on demand).

use crate::bucket::{with_matrix, Bucket, BucketMatrix, BucketWord, Buckets, PackedLayout};
use crate::config::{ExpansionPolicy, HkConfig};
use crate::decay::DecayTable;
use crate::stats::InsertStats;
use hk_common::prepared::{HashSpec, KeySlots, PreparedBatch};
use hk_common::prng::XorShift64;

// The prepared-key derivation lives in `hk_common::prepared` (shared
// with baselines and the sharded engine); re-exported here because this
// is where it historically lived and where sketch-level callers look.
pub use hk_common::prepared::{prepare_key, PreparedKey};

/// Hard cap on the number of arrays, including Section III-F expansion.
pub const MAX_ARRAYS: usize = 16;

/// Batched-insert pre-touch block: the batch walk reads every bucket
/// line a block will need before updating any of it, so the CPU
/// overlaps the (random, miss-prone) loads of a whole block instead of
/// serializing hash→load→update per packet. Plain reads double as
/// software prefetch without `unsafe`; 64 packets × `d` lines sit well
/// inside L1 while giving the memory system a deep window.
pub(crate) const TOUCH_BLOCK: usize = 64;

/// The one shared body of the HK variants' `insert_batch`: take the
/// scratch buffer, prehash the batch (caching per-array bucket slots),
/// walk it in pre-touched [`TOUCH_BLOCK`]s through the variant's
/// slot-generic `insert_keyed`, restore the buffer.
macro_rules! hk_insert_batch_body {
    ($self:ident, $keys:ident) => {{
        let mut scratch = std::mem::take(&mut $self.scratch);
        $self.sketch.prepare_batch($keys, &mut scratch);
        crate::sketch::hk_walk_batch_body!($self, $keys, scratch);
        $self.scratch = scratch;
    }};
}

pub(crate) use hk_insert_batch_body;

/// The hash-once sibling of [`hk_insert_batch_body`]: the upstream
/// stage (sharded dispatcher, RSS producer) already hashed every key,
/// so the prolog rebuilds the slot-table scratch from the shipped
/// [`PreparedKey`]s ([`PreparedBatch::prepare_from`] — a memcpy plus
/// the slot multiply-shifts, no hashing) and runs the identical
/// pre-touched block walk.
macro_rules! hk_insert_prepared_batch_body {
    ($self:ident, $keys:ident, $prepared:ident) => {{
        debug_assert_eq!($keys.len(), $prepared.len(), "misaligned prepared batch");
        let mut scratch = std::mem::take(&mut $self.scratch);
        $self.sketch.prepare_batch_from($prepared, &mut scratch);
        crate::sketch::hk_walk_batch_body!($self, $keys, scratch);
        $self.scratch = scratch;
    }};
}

pub(crate) use hk_insert_prepared_batch_body;

/// The shared epilog of the two batch prologs above: pick the bucket
/// word once for the batch, then walk the prepared scratch in
/// pre-touched [`TOUCH_BLOCK`]s through the variant's word- and
/// slot-generic `insert_words(store, sketch_words, key, slots)`.
/// A macro rather than a helper function because the walk borrows
/// `$self.sketch` and `$self.store` apart — splitting that across a
/// closure-taking function fights the borrow checker for no codegen
/// benefit.
macro_rules! hk_walk_batch_body {
    ($self:ident, $keys:ident, $scratch:ident) => {{
        let store = &mut $self.store;
        crate::sketch::with_words!($self.sketch, sk => {
            let mut idx = 0;
            while idx < $keys.len() {
                let end = (idx + crate::sketch::TOUCH_BLOCK).min($keys.len());
                sk.touch_batch(&$scratch, idx..end);
                for (off, key) in $keys[idx..end].iter().enumerate() {
                    let entry = $scratch.entry(idx + off);
                    Self::insert_words(store, &mut sk, key, &entry);
                }
                idx = end;
            }
        })
    }};
}

pub(crate) use hk_walk_batch_body;

/// Matrix geometry diagnostics (the CLI's `--layout-report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutReport {
    /// Arrays `d` (matrix rows).
    pub rows: usize,
    /// Buckets per array `w`.
    pub width: usize,
    /// Runtime bytes per bucket (one packed word: 4 or 8).
    pub bucket_bytes: usize,
    /// Buckets sharing one 64-byte cache line.
    pub buckets_per_line: usize,
    /// Cache lines a single packet's bucket walk touches (one per
    /// array; each bucket op is a single word).
    pub lines_per_packet: usize,
    /// Runtime bytes of the whole matrix.
    pub runtime_bytes: usize,
    /// Accounted bytes under the paper's configured-bit-width charging.
    pub accounted_bytes: usize,
    /// Whether the live region starts on a 64-byte boundary.
    pub aligned: bool,
    /// Runtime fingerprint field width in bits.
    pub fp_field_bits: u32,
    /// Runtime counter field width in bits.
    pub count_field_bits: u32,
}

impl LayoutReport {
    /// Computes the report for a configuration without allocating the
    /// full matrix (a tiny probe matrix supplies the alignment bit —
    /// the allocator's behavior, not the size, decides it).
    pub fn for_config(cfg: &HkConfig) -> Self {
        let layout = PackedLayout::new(cfg.fingerprint_bits, cfg.counter_bits);
        let probe = Buckets::new(1, 8, layout);
        Self::build(
            cfg.arrays,
            cfg.width,
            cfg.sketch_bytes(),
            probe.is_aligned(),
            layout,
        )
    }

    /// The one place report fields are derived from matrix geometry.
    fn build(
        rows: usize,
        width: usize,
        accounted_bytes: usize,
        aligned: bool,
        layout: PackedLayout,
    ) -> Self {
        let bucket_bytes = layout.word_bytes();
        LayoutReport {
            rows,
            width,
            bucket_bytes,
            buckets_per_line: 64 / bucket_bytes,
            lines_per_packet: rows,
            runtime_bytes: rows * width * bucket_bytes,
            accounted_bytes,
            aligned,
            fp_field_bits: layout.fp_bits(),
            count_field_bits: layout.count_bits(),
        }
    }
}

impl std::fmt::Display for LayoutReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "bucket matrix: {} x {} packed buckets ({} B runtime, {} B accounted)",
            self.rows, self.width, self.runtime_bytes, self.accounted_bytes
        )?;
        writeln!(
            f,
            "bucket word:   {} B (fp {} bits | count {} bits), {} buckets/cache line",
            self.bucket_bytes, self.fp_field_bits, self.count_field_bits, self.buckets_per_line
        )?;
        write!(
            f,
            "access:        {} line(s) touched per packet, base 64-byte aligned: {}",
            self.lines_per_packet, self.aligned
        )
    }
}

/// The HeavyKeeper bucket matrix with decay machinery.
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, HkSketch};
/// let cfg = HkConfig::builder().arrays(2).width(64).seed(9).build();
/// let mut sk = HkSketch::new(&cfg);
/// let key = 42u64.to_le_bytes();
/// for _ in 0..100 {
///     sk.insert_basic(&key);
/// }
/// // No over-estimation: the estimate never exceeds the true count.
/// assert!(sk.query(&key) <= 100);
/// assert!(sk.query(&key) > 0);
/// ```
#[derive(Debug, Clone)]
pub struct HkSketch {
    buckets: Buckets,
    walk: WalkState,
    seed: u64,
    fingerprint_mask: u32,
    width: usize,
    fingerprint_bits: u32,
}

/// What a bucket walk reads and writes besides the bucket words: the
/// decay coin, the saturation bound, the expansion state and the
/// outcome counters. It sits beside [`Buckets`] in the sketch, so a
/// [`SketchWords`] borrows both at once after the word is picked.
#[derive(Debug, Clone)]
struct WalkState {
    decay_table: DecayTable,
    rng: XorShift64,
    counter_max: u64,
    expansion: Option<ExpansionPolicy>,
    /// Section III-F global counter of blocked insertions.
    blocked: u64,
    /// How many arrays were added by expansion (diagnostics).
    expansions: usize,
    /// Insertion-outcome counters, updated by the walks: one memory
    /// increment per event.
    stats: InsertStats,
}

/// An [`HkSketch`] with its bucket word picked: the matrix of words
/// `W` and the walk state beside it. Every ingest walk is a method
/// here, written once over the word; [`with_words!`] builds one per
/// call or batch.
pub(crate) struct SketchWords<'a, W: BucketWord> {
    m: &'a mut BucketMatrix<W>,
    walk: &'a mut WalkState,
}

/// [`HkSketch::words_mut`]: a [`SketchWords`] in whichever word the
/// sketch stores.
pub(crate) enum WordsMut<'a> {
    /// 4-byte words.
    Narrow(SketchWords<'a, u32>),
    /// 8-byte words.
    Wide(SketchWords<'a, u64>),
}

/// Evaluates `$body` with `$v` bound to the [`SketchWords`] of the
/// [`HkSketch`] place `$sketch`, once per word type: the one place an
/// ingest walk picks the word (the read-only touch and query pick it
/// through `with_matrix!`).
macro_rules! with_words {
    ($sketch:expr, $v:ident => $body:expr) => {
        match $sketch.words_mut() {
            $crate::sketch::WordsMut::Narrow(mut $v) => $body,
            $crate::sketch::WordsMut::Wide(mut $v) => $body,
        }
    };
}

pub(crate) use with_words;

impl HkSketch {
    /// Builds the sketch described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.arrays` exceeds [`MAX_ARRAYS`].
    pub fn new(cfg: &HkConfig) -> Self {
        assert!(
            cfg.arrays <= MAX_ARRAYS,
            "at most {MAX_ARRAYS} arrays supported"
        );
        let layout = PackedLayout::new(cfg.fingerprint_bits, cfg.counter_bits);
        let buckets = Buckets::new(cfg.arrays, cfg.width, layout);
        let fingerprint_mask = if cfg.fingerprint_bits == 32 {
            u32::MAX
        } else {
            (1u32 << cfg.fingerprint_bits) - 1
        };
        Self {
            buckets,
            walk: WalkState {
                decay_table: DecayTable::new(cfg.decay),
                rng: XorShift64::new(cfg.seed ^ 0xDECA_F00D),
                counter_max: cfg.counter_max(),
                expansion: cfg.expansion,
                blocked: 0,
                expansions: 0,
                stats: InsertStats::default(),
            },
            seed: cfg.seed,
            fingerprint_mask,
            width: cfg.width,
            fingerprint_bits: cfg.fingerprint_bits,
        }
    }

    /// The sketch with its bucket word picked ([`with_words!`]).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> WordsMut<'_> {
        let walk = &mut self.walk;
        match &mut self.buckets {
            Buckets::Narrow(m) => WordsMut::Narrow(SketchWords { m, walk }),
            Buckets::Wide(m) => WordsMut::Wide(SketchWords { m, walk }),
        }
    }

    /// Insertion-outcome counters since construction or
    /// [`HkSketch::reset`] (filled by the Parallel/Minimum walks).
    #[inline]
    pub fn stats(&self) -> &InsertStats {
        &self.walk.stats
    }

    /// Number of arrays `d` (grows under expansion).
    #[inline]
    pub fn arrays(&self) -> usize {
        self.buckets.rows()
    }

    /// Buckets per array `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Maximum value a counter may hold (from the configured bit width).
    #[inline]
    pub fn counter_max(&self) -> u64 {
        self.walk.counter_max
    }

    /// The master seed this sketch hashes with. Two sketches agree on
    /// bucket placement and fingerprints iff they share seed, width and
    /// fingerprint width — the compatibility precondition for
    /// [`merge`](crate::merge) operations.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Configured fingerprint width in bits.
    #[inline]
    pub fn fingerprint_bits(&self) -> u32 {
        self.fingerprint_bits
    }

    /// The spec under which this sketch prepares keys (seed +
    /// fingerprint mask); prepared keys are portable between parties
    /// with equal specs.
    #[inline]
    pub fn hash_spec(&self) -> HashSpec {
        HashSpec {
            seed: self.seed,
            fingerprint_mask: self.fingerprint_mask,
        }
    }

    /// Hashes a flow key once and derives all per-packet hash state.
    #[inline]
    pub fn prepare(&self, key_bytes: &[u8]) -> PreparedKey {
        prepare_key(self.seed, self.fingerprint_mask, key_bytes)
    }

    /// Prehashes a whole batch into `out`, caching each key's bucket
    /// index for this sketch's current `(d, w)` geometry (the batch
    /// prolog; see [`PreparedBatch::prepare`]).
    #[inline]
    pub fn prepare_batch<K: hk_common::key::FlowKey>(&self, keys: &[K], out: &mut PreparedBatch) {
        out.prepare(&self.hash_spec(), keys, self.arrays(), self.width);
    }

    /// The hash-once batch prolog: rebuilds the slot-table scratch from
    /// keys an upstream stage already prepared under this sketch's
    /// [`HkSketch::hash_spec`] — no hashing, just the per-array slot
    /// derivation for the current `(d, w)` geometry (which only this
    /// side knows once Section III-F expansion runs mid-stream).
    #[inline]
    pub fn prepare_batch_from(&self, prepared: &[PreparedKey], out: &mut PreparedBatch) {
        out.prepare_from(prepared, self.arrays(), self.width);
    }

    /// The flow's fingerprint (convenience wrapper over
    /// [`HkSketch::prepare`]).
    #[inline]
    pub fn fingerprint(&self, key_bytes: &[u8]) -> u32 {
        self.prepare(key_bytes).fp
    }

    /// The bucket index array `j` maps this key to.
    #[inline]
    pub fn slot(&self, j: usize, p: &PreparedKey) -> usize {
        p.slot(j, self.width)
    }

    /// Reads a bucket (one packed-word load).
    #[inline]
    pub fn bucket(&self, j: usize, i: usize) -> Bucket {
        self.buckets.get(j, i)
    }

    /// Overwrites a bucket (one packed-word store).
    ///
    /// # Panics
    ///
    /// Panics if the counter or the fingerprint does not fit its field
    /// of the runtime word ([`PackedLayout::pack`]), in release builds
    /// too.
    #[inline]
    pub fn set_bucket(&mut self, j: usize, i: usize, b: Bucket) {
        self.buckets.set(j, i, b);
    }

    /// Read access to the packed matrix (merge walks, the codecs).
    #[inline]
    pub(crate) fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Mutable access to the packed matrix — the decoders fill a fresh
    /// epoch's words wholesale, picking the word once.
    #[inline]
    pub(crate) fn buckets_mut(&mut self) -> &mut Buckets {
        &mut self.buckets
    }

    /// Matrix geometry diagnostics (the CLI's `--layout-report`).
    pub fn layout_report(&self) -> LayoutReport {
        LayoutReport::build(
            self.arrays(),
            self.width,
            self.memory_bytes(),
            self.buckets.is_aligned(),
            self.buckets.layout(),
        )
    }

    /// Rolls the decay coin for counter value `c`: true means decay.
    ///
    /// Uses the precomputed integer-threshold table: one table read and
    /// one 64-bit compare, no floating point on the hot path.
    #[inline]
    pub fn decay_roll(&mut self, c: u64) -> bool {
        self.walk.decay_roll(c)
    }

    /// Plays `weight` opposing unit-decay trials against a counter at
    /// value `c` — the weighted generalization of [`Self::decay_roll`].
    ///
    /// Semantically equivalent to running the Case-3 coin `weight` times
    /// (counter value, and hence the probability, updating after every
    /// successful decay), but implemented with geometric skipping: per
    /// counter level one uniform draw samples how many trials pass until
    /// the first success, so the cost is `O(decays)` rather than
    /// `O(weight)`. Elephant-held buckets (probability ≈ 0) exit after a
    /// single table read.
    ///
    /// Returns `(new_count, remaining_weight)`; `remaining_weight > 0`
    /// only when the counter reached 0 with trials to spare, in which
    /// case the caller claims the bucket for the new flow (the weighted
    /// analogue of "replace the fingerprint and set `C = 1`").
    pub fn weighted_decay_roll(&mut self, c: u64, weight: u64) -> (u64, u64) {
        self.walk.weighted_decay_roll(c, weight)
    }

    /// Pulls every bucket line a range of batch-scratch entries maps
    /// to into cache by reading it — a straight gather over the
    /// prolog's flat slot table, one load per `(packet, array)`, no
    /// index derivation. Plain reads double as software prefetch
    /// without `unsafe`; the batched insert paths call this one
    /// `TOUCH_BLOCK`-sized block (64 packets) ahead of the update walk
    /// so the block's random loads overlap instead of serializing
    /// behind each packet's update. State is untouched.
    #[inline]
    pub fn touch_batch(&self, batch: &PreparedBatch, range: std::ops::Range<usize>) {
        with_matrix!(&self.buckets, m => touch_words(m, batch, range))
    }

    /// Queries the estimated size of a prepared flow: the maximum counter
    /// among mapped buckets whose fingerprint matches (Section III-B,
    /// Query). Returns 0 when no mapped bucket holds the flow.
    pub fn query_prepared(&self, p: &PreparedKey) -> u64 {
        self.query_keyed(p)
    }

    /// [`HkSketch::query_prepared`] over any slot source — the batched
    /// paths pass cached-slot scratch entries so the query gathers over
    /// precomputed offsets.
    pub fn query_keyed<S: KeySlots>(&self, s: &S) -> u64 {
        with_matrix!(&self.buckets, m => query_words(m, s))
    }

    /// Convenience query from raw key bytes.
    pub fn query(&self, key_bytes: &[u8]) -> u64 {
        self.query_prepared(&self.prepare(key_bytes))
    }

    /// The basic insertion of Section III-B: apply Cases 1–3 in *every*
    /// mapped bucket, then return the post-insert estimate.
    ///
    /// * Case 1 — empty bucket: take it with `C = 1`.
    /// * Case 2 — fingerprint match: `C += 1`.
    /// * Case 3 — held by another flow: decay with probability
    ///   `P_decay(C)`; if `C` hits 0, replace the fingerprint and set
    ///   `C = 1`.
    pub fn insert_basic(&mut self, key_bytes: &[u8]) -> u64 {
        let p = self.prepare(key_bytes);
        self.insert_basic_prepared(&p)
    }

    /// [`HkSketch::insert_basic`] on an already-prepared key.
    pub fn insert_basic_prepared(&mut self, p: &PreparedKey) -> u64 {
        self.insert_basic_keyed(p)
    }

    /// [`HkSketch::insert_basic_prepared`] over any slot source: picks
    /// the word once, then walks the `d` mapped buckets
    /// (`SketchWords::walk_basic`).
    pub fn insert_basic_keyed<S: KeySlots>(&mut self, s: &S) -> u64 {
        with_words!(self, sk => sk.walk_basic(s))
    }

    /// Records a blocked insertion (Section III-F): every mapped bucket
    /// was held by another flow with a "large" counter. When the global
    /// counter crosses the policy threshold, a new array is appended.
    ///
    /// Returns `true` if an array was added.
    pub fn note_blocked(&mut self) -> bool {
        with_words!(self, sk => sk.note_blocked())
    }

    /// True if, for a non-matching flow, a bucket counter counts as
    /// "large" under the expansion policy (never true when expansion is
    /// disabled).
    #[inline]
    pub fn is_large_for_expansion(&self, count: u64) -> bool {
        self.walk.is_large_for_expansion(count)
    }

    /// Number of arrays added by Section III-F expansion so far.
    pub fn expansions(&self) -> usize {
        self.walk.expansions
    }

    /// Current value of the global blocked counter.
    pub fn blocked_count(&self) -> u64 {
        self.walk.blocked
    }

    /// Accounted memory of the bucket matrix in bytes: each bucket is
    /// charged `fingerprint_bits + counter_bits` bits like the paper's
    /// packed 16+16 layout (for 16+16, exactly the runtime bytes).
    pub fn memory_bytes(&self) -> usize {
        let bucket_bits =
            self.fingerprint_bits as usize + (64 - self.walk.counter_max.leading_zeros() as usize);
        self.arrays() * self.width * bucket_bits.div_ceil(8)
    }

    /// Total non-empty buckets (diagnostics): a flat scan of the packed
    /// words.
    pub fn occupancy(&self) -> usize {
        self.buckets.occupancy()
    }

    /// Clears every bucket and the blocked counter, keeping the
    /// configuration (including any arrays added by expansion).
    ///
    /// One contiguous `fill(0)` over the matrix (the all-zero word is
    /// the all-empty bucket), not a per-bucket walk.
    ///
    /// Network-wide measurement resets sketches at every reporting
    /// period (paper footnote 2: "sketches in different switches are
    /// often periodically sent to a collector").
    pub fn reset(&mut self) {
        self.buckets.reset();
        self.walk.blocked = 0;
        self.walk.stats = InsertStats::default();
    }

    /// Restores the sketch to the exact as-constructed state of an
    /// `arrays`-array sketch of its configuration: every bucket zero,
    /// the decay RNG rewound to its seed, all counters cleared.
    ///
    /// Stronger than [`HkSketch::reset`] (which keeps the RNG stream and
    /// expansion rows): a recycled sketch is indistinguishable from
    /// `HkSketch::new(&cfg)` with `cfg.arrays = arrays` — the property
    /// the sliding window's epoch recycling relies on for bit-exactness
    /// with freshly allocated epochs. The caller names the array count
    /// because the sketch cannot know it: one decoded from the wire
    /// reports its Section III-F rows as configured ones. In the common
    /// un-expanded case this is one memset over the already-resident
    /// matrix, so no pages are faulted back in.
    pub fn recycle(&mut self, arrays: usize) {
        if self.buckets.rows() == arrays {
            self.buckets.reset();
        } else {
            // Expansion grew the matrix; rebuild at the given geometry
            // (rare — only windows with expansion enabled).
            self.buckets = Buckets::new(arrays, self.width, self.buckets.layout());
        }
        self.walk.expansions = 0;
        self.walk.rng = XorShift64::new(self.seed ^ 0xDECA_F00D);
        self.walk.blocked = 0;
        self.walk.stats = InsertStats::default();
    }
}

/// The body of [`HkSketch::touch_batch`], over words `W`.
#[inline]
fn touch_words<W: BucketWord>(
    m: &BucketMatrix<W>,
    batch: &PreparedBatch,
    range: std::ops::Range<usize>,
) {
    let arrays = batch.arrays();
    let width = m.width();
    let words = m.data();
    let mut acc = 0u64;
    // Rows beyond the prepared geometry (expansion mid-batch) are
    // skipped: the touch is only a prefetch, partial coverage is sound.
    for chunk in batch.slots_range(range).chunks_exact(arrays.max(1)) {
        let mut base = 0usize;
        for &slot in chunk {
            acc = acc.wrapping_add(words[base + slot as usize].to_u64());
            base += width;
        }
    }
    std::hint::black_box(acc);
}

/// The body of [`HkSketch::query_keyed`], over words `W`.
fn query_words<W: BucketWord, S: KeySlots>(m: &BucketMatrix<W>, s: &S) -> u64 {
    let pfp = m.layout().packed_fp(s.key().fp);
    let mut best = 0;
    for j in 0..m.rows() {
        let word = m.word(j, s.slot(j, m.width()));
        let count = m.layout().count(word);
        if m.layout().fp_matches(word, pfp) && count > best {
            best = count;
        }
    }
    best
}

impl WalkState {
    /// See [`HkSketch::decay_roll`].
    #[inline]
    fn decay_roll(&mut self, c: u64) -> bool {
        let t = self.decay_table.threshold(c);
        t != 0 && self.rng.next_u64_raw() < t
    }

    /// See [`HkSketch::is_large_for_expansion`].
    #[inline]
    fn is_large_for_expansion(&self, count: u64) -> bool {
        match self.expansion {
            Some(p) => count >= p.large_counter,
            None => false,
        }
    }

    /// See [`HkSketch::weighted_decay_roll`].
    fn weighted_decay_roll(&mut self, c: u64, weight: u64) -> (u64, u64) {
        let mut c = c;
        let mut w = weight;
        while w > 0 && c > 0 {
            let p = self.decay_table.probability(c);
            if p <= 0.0 {
                // Past the table cutoff: effectively immovable.
                return (c, 0);
            }
            if p >= 1.0 {
                c -= 1;
                w -= 1;
                continue;
            }
            // Trials until the first success ~ Geometric(p). The draw is
            // mapped into (0, 1]: zero is excluded so ln is finite.
            let u = ((self.rng.next_u64_raw() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            let skip = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
            if skip > w {
                return (c, 0);
            }
            w -= skip;
            c -= 1;
        }
        (c, w)
    }
}

impl<W: BucketWord> SketchWords<'_, W> {
    /// Mutable access for the variants' store-phase counters.
    #[inline]
    pub(crate) fn stats_mut(&mut self) -> &mut InsertStats {
        &mut self.walk.stats
    }

    /// [`HkSketch::touch_batch`] on the picked word.
    #[inline]
    pub(crate) fn touch_batch(&self, batch: &PreparedBatch, range: std::ops::Range<usize>) {
        touch_words(self.m, batch, range);
    }

    /// [`HkSketch::query_keyed`] on the picked word.
    #[inline]
    pub(crate) fn query<S: KeySlots>(&self, s: &S) -> u64 {
        query_words(self.m, s)
    }

    /// [`HkSketch::note_blocked`] on the picked word.
    pub(crate) fn note_blocked(&mut self) -> bool {
        let Some(policy) = self.walk.expansion else {
            return false;
        };
        self.walk.blocked += 1;
        if self.walk.blocked > policy.blocked_threshold
            && self.m.rows() < policy.max_arrays.min(MAX_ARRAYS)
        {
            self.m.push_row();
            self.walk.blocked = 0;
            self.walk.expansions += 1;
            return true;
        }
        false
    }

    /// The basic insertion of [`HkSketch::insert_basic_keyed`]: Cases
    /// 1–3 in every mapped bucket; returns the post-insert estimate.
    ///
    /// Works on packed words with the fingerprint pre-shifted once per
    /// packet ([`PackedLayout::packed_fp`] + [`PackedLayout::fp_matches`]):
    /// per bucket one load, a few and/compare ops against fields of
    /// the matrix and the walk state, and at most one store. Keeping
    /// accesses relative to those two (rather than hoisting masks into
    /// locals) keeps the loop's live register set — and with it the
    /// out-of-order window across packets — as small as possible.
    pub(crate) fn walk_basic<S: KeySlots>(&mut self, s: &S) -> u64 {
        let pfp = self.m.layout().packed_fp(s.key().fp);
        let mut estimate = 0u64;
        for j in 0..self.m.rows() {
            let i = s.slot(j, self.m.width());
            let word = self.m.word(j, i);
            let count = self.m.layout().count(word);
            if count == 0 {
                // Case 1.
                self.m.set_word(j, i, pfp | 1);
                estimate = estimate.max(1);
            } else if self.m.layout().fp_matches(word, pfp) {
                // Case 2 (saturating at the configured maximum, which
                // the field holds, so the increment cannot carry into
                // the fingerprint).
                if count < self.walk.counter_max {
                    self.m.set_word(j, i, word + 1);
                    estimate = estimate.max(count + 1);
                } else {
                    estimate = estimate.max(count);
                }
            } else {
                // Case 3.
                if self.walk.decay_roll(count) {
                    if count == 1 {
                        self.m.set_word(j, i, pfp | 1);
                        estimate = estimate.max(1);
                    } else {
                        self.m.set_word(j, i, word - 1);
                    }
                }
            }
        }
        estimate
    }

    /// The Parallel variant's per-packet bucket walk (Algorithm 1 lines
    /// 4–20), shared by the scalar and batched paths. `nmin` is the
    /// admission floor and `flag` answers the monitored bit; the walk
    /// calls it only where Optimization II reads it, at a matching
    /// bucket whose counter exceeds `nmin`, so a caller can look the
    /// flow up lazily. Outcome counters land in [`HkSketch::stats`].
    /// Returns `(HeavyK_V, blocked)`; the caller applies the top-k
    /// store update and, when `blocked`, the Section III-F bookkeeping.
    pub(crate) fn walk_parallel<S: KeySlots>(
        &mut self,
        s: &S,
        nmin: u64,
        mut flag: impl FnMut() -> bool,
    ) -> (u64, bool) {
        self.walk.stats.packets += 1;
        let pfp = self.m.layout().packed_fp(s.key().fp);
        let mut heavy_v = 0u64; // The paper's HeavyK_V.
        let mut blocked = self.m.rows() > 0; // Section III-F probe.
        for j in 0..self.m.rows() {
            let i = s.slot(j, self.m.width());
            let word = self.m.word(j, i);
            let count = self.m.layout().count(word);
            if count == 0 {
                // Case 1: take the empty bucket.
                self.m.set_word(j, i, pfp | 1);
                heavy_v = heavy_v.max(1);
                blocked = false;
                self.walk.stats.empty_claims += 1;
            } else if self.m.layout().fp_matches(word, pfp) {
                // Case 2, gated by Optimization II. The optimization's
                // text says to "make no change" only when the counter
                // already *exceeds* n_min (such a match must be a
                // fingerprint collision), so the gate is `C <= n_min`.
                // (Algorithm 1's pseudo-code writes `C < n_min`, which
                // would live-lock: once the store holds k flows of size
                // n_min, no outside flow could ever reach n_min + 1.)
                // The counter is compared first, so `flag` is read only
                // when it decides.
                blocked = false;
                if count <= nmin || flag() {
                    if count < self.walk.counter_max {
                        self.m.set_word(j, i, word + 1);
                        heavy_v = heavy_v.max(count + 1);
                    } else {
                        heavy_v = heavy_v.max(count);
                    }
                    self.walk.stats.increments += 1;
                } else {
                    self.walk.stats.increments_gated += 1;
                }
            } else {
                // Case 3: exponential-weakening decay.
                if !self.walk.is_large_for_expansion(count) {
                    blocked = false;
                }
                self.walk.stats.decay_rolls += 1;
                if self.walk.decay_roll(count) {
                    self.walk.stats.decays += 1;
                    if count == 1 {
                        self.m.set_word(j, i, pfp | 1);
                        heavy_v = heavy_v.max(1);
                        self.walk.stats.replacements += 1;
                    } else {
                        self.m.set_word(j, i, word - 1);
                    }
                }
            }
        }
        (heavy_v, blocked)
    }

    /// The Minimum variant's per-packet bucket walk (Algorithm 2): one
    /// read-only scan over the `d` mapped buckets, then at most one
    /// bucket write — increment a match, claim the first empty, or
    /// decay-roll the first smallest. `flag` is called as in
    /// [`SketchWords::walk_parallel`], only at a matching bucket whose
    /// counter exceeds `nmin`. Outcome counters land in
    /// [`HkSketch::stats`]. Returns `(HeavyK_V, blocked)`; the caller
    /// applies the store update and, when `blocked`, calls
    /// [`SketchWords::note_blocked`] (deferred past the walk, which is
    /// state-equivalent: expansion only appends an empty row).
    pub(crate) fn walk_minimum<S: KeySlots>(
        &mut self,
        s: &S,
        nmin: u64,
        mut flag: impl FnMut() -> bool,
    ) -> (u64, bool) {
        self.walk.stats.packets += 1;
        let pfp = self.m.layout().packed_fp(s.key().fp);

        // Scan the d mapped buckets once, remembering what the write
        // phase needs ((j, i) pairs; counts read once).
        let mut matched: Option<(usize, usize, u64)> = None;
        let mut first_empty: Option<(usize, usize)> = None;
        let mut min_slot: Option<(usize, usize, u64)> = None;
        for j in 0..self.m.rows() {
            let i = s.slot(j, self.m.width());
            let word = self.m.word(j, i);
            let count = self.m.layout().count(word);
            if count == 0 {
                if first_empty.is_none() {
                    first_empty = Some((j, i));
                }
            } else {
                if matched.is_none() && self.m.layout().fp_matches(word, pfp) {
                    matched = Some((j, i, count));
                }
                if min_slot.is_none_or(|(_, _, min)| count < min) {
                    // Strict `<` keeps the *first* smallest (Situation 3).
                    min_slot = Some((j, i, count));
                }
            }
        }

        let mut heavy_v = 0u64;
        let mut blocked = false;

        // Step 2: increment a matching bucket if the gate allows (same
        // `C <= n_min` reading of Optimization II as the Parallel walk).
        let mut handled = false;
        if let Some((j, i, count)) = matched {
            if count <= nmin || flag() {
                if count < self.walk.counter_max {
                    self.m.set_word(j, i, self.m.word(j, i) + 1);
                    heavy_v = count + 1;
                } else {
                    heavy_v = count;
                }
                handled = true;
                self.walk.stats.increments += 1;
            } else {
                self.walk.stats.increments_gated += 1;
            }
        }

        // Step 3: claim the first empty bucket.
        if !handled {
            if let Some((j, i)) = first_empty {
                self.m.set_word(j, i, pfp | 1);
                heavy_v = 1;
                handled = true;
                self.walk.stats.empty_claims += 1;
            }
        }

        // Step 4: minimum decay — roll against the first smallest counter.
        if !handled && matched.is_none() {
            if let Some((j, i, count)) = min_slot {
                if self.walk.is_large_for_expansion(count) {
                    // Every bucket is at least as large as the minimum, so
                    // a large minimum means all d buckets are large:
                    // Section III-F's blocked situation.
                    blocked = true;
                }
                self.walk.stats.decay_rolls += 1;
                if self.walk.decay_roll(count) {
                    self.walk.stats.decays += 1;
                    if count == 1 {
                        self.m.set_word(j, i, pfp | 1);
                        heavy_v = 1;
                        self.walk.stats.replacements += 1;
                    } else {
                        self.m.set_word(j, i, self.m.word(j, i) - 1);
                    }
                }
            }
        }
        (heavy_v, blocked)
    }

    /// The weighted walk of [`crate::WeightedTopK::insert_weighted`]:
    /// every mapped bucket plays Cases 1–3 with `weight` units at once
    /// (claim with the weight, add it behind the Optimization II gate,
    /// or contest the incumbent with `weight` decay trials through
    /// [`HkSketch::weighted_decay_roll`]). Every count written is at
    /// most `counter_max`, so the words are built in place like the
    /// other walks'. `flag` is called as in
    /// [`SketchWords::walk_parallel`]. Returns the largest count the
    /// flow now holds.
    pub(crate) fn walk_weighted<S: KeySlots>(
        &mut self,
        s: &S,
        weight: u64,
        nmin: u64,
        mut flag: impl FnMut() -> bool,
    ) -> u64 {
        let pfp = self.m.layout().packed_fp(s.key().fp);
        let max = self.walk.counter_max;
        let mut heavy_v = 0u64;
        for j in 0..self.m.rows() {
            let i = s.slot(j, self.m.width());
            let word = self.m.word(j, i);
            let count = self.m.layout().count(word);
            if count == 0 {
                // Case 1 (weighted): claim with the full weight.
                let c = weight.min(max);
                self.m.set_word(j, i, pfp | c);
                heavy_v = heavy_v.max(c);
            } else if self.m.layout().fp_matches(word, pfp) {
                // Case 2 (weighted), behind the Optimization II gate.
                if count <= nmin || flag() {
                    let c = (count + weight).min(max);
                    self.m.set_word(j, i, pfp | c);
                    heavy_v = heavy_v.max(c);
                }
            } else {
                // Case 3 (weighted): contest the incumbent.
                let (new_c, rem) = self.walk.weighted_decay_roll(count, weight);
                if new_c == 0 {
                    let c = rem.max(1).min(max);
                    self.m.set_word(j, i, pfp | c);
                    heavy_v = heavy_v.max(c);
                } else {
                    self.m.set_word(j, i, word - (count - new_c));
                }
            }
        }
        heavy_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExpansionPolicy, HkConfig};
    use hk_common::prng::XorShift64;

    fn cfg(w: usize) -> HkConfig {
        HkConfig::builder().arrays(2).width(w).seed(7).build()
    }

    #[test]
    fn case1_takes_empty_bucket() {
        let mut sk = HkSketch::new(&cfg(16));
        let key = 1u64.to_le_bytes();
        let est = sk.insert_basic(&key);
        assert_eq!(est, 1);
        assert_eq!(sk.query(&key), 1);
    }

    #[test]
    fn case2_increments_matching() {
        let mut sk = HkSketch::new(&cfg(16));
        let key = 1u64.to_le_bytes();
        for expect in 1..=50u64 {
            let est = sk.insert_basic(&key);
            assert_eq!(est, expect, "uncontended flow counts exactly");
        }
    }

    #[test]
    fn prepared_key_fields_consistent() {
        let sk = HkSketch::new(&cfg(64));
        let key = 9u64.to_le_bytes();
        let p1 = sk.prepare(&key);
        let p2 = sk.prepare(&key);
        assert_eq!(p1, p2, "preparation is deterministic");
        assert!(p1.fp > 0, "fingerprint 0 is reserved for empty buckets");
        for j in 0..2 {
            assert!(sk.slot(j, &p1) < 64);
        }
    }

    #[test]
    fn distinct_arrays_map_to_distinct_slots_usually() {
        // Kirsch-Mitzenmacher derivation: the two arrays' slots for one
        // key agree only ~1/w of the time.
        let sk = HkSketch::new(&cfg(64));
        let mut agree = 0;
        let n = 10_000u64;
        for v in 0..n {
            let p = sk.prepare(&v.to_le_bytes());
            if sk.slot(0, &p) == sk.slot(1, &p) {
                agree += 1;
            }
        }
        let frac = agree as f64 / n as f64;
        assert!(frac < 0.05, "arrays too correlated: {frac}");
    }

    #[test]
    fn fingerprint_not_determined_by_slot() {
        // Flows in the same bucket must still have diverse fingerprints.
        let sk = HkSketch::new(&cfg(4));
        let mut fps_in_slot0 = std::collections::HashSet::new();
        for v in 0..2000u64 {
            let p = sk.prepare(&v.to_le_bytes());
            if sk.slot(0, &p) == 0 {
                fps_in_slot0.insert(p.fp);
            }
        }
        assert!(fps_in_slot0.len() > 100, "fingerprints collapse with slot");
    }

    #[test]
    fn no_overestimation_under_contention() {
        // Theorem 2: with no fingerprint collision, a counter never
        // exceeds the true size of the held flow. Stream two flows into
        // a 1-bucket sketch: collisions are forced.
        let cfg = HkConfig::builder().arrays(1).width(1).seed(3).build();
        let mut sk = HkSketch::new(&cfg);
        let (ka, kb) = (1u64.to_le_bytes(), 2u64.to_le_bytes());
        assert_ne!(sk.fingerprint(&ka), sk.fingerprint(&kb));
        let (mut na, mut nb) = (0u64, 0u64);
        let mut rng = XorShift64::new(99);
        for _ in 0..10_000 {
            if rng.bernoulli(0.7) {
                sk.insert_basic(&ka);
                na += 1;
            } else {
                sk.insert_basic(&kb);
                nb += 1;
            }
            assert!(sk.query(&ka) <= na);
            assert!(sk.query(&kb) <= nb);
        }
    }

    #[test]
    fn counter_never_zero_while_held() {
        // "As long as flows are mapped to a bucket, its counter field
        // will never be 0": after any insert, a previously non-empty
        // bucket stays non-empty.
        let cfg = HkConfig::builder().arrays(1).width(1).seed(5).build();
        let mut sk = HkSketch::new(&cfg);
        sk.insert_basic(&1u64.to_le_bytes());
        for v in 2..500u64 {
            sk.insert_basic(&v.to_le_bytes());
            assert!(sk.bucket(0, 0).count >= 1);
        }
    }

    #[test]
    fn mouse_decays_away_elephant_survives() {
        let cfg = HkConfig::builder().arrays(1).width(1).seed(11).build();
        let mut sk = HkSketch::new(&cfg);
        let el = 77u64.to_le_bytes();
        let mut rng = XorShift64::new(1);
        for i in 0..20_000u64 {
            if rng.bernoulli(0.5) {
                sk.insert_basic(&el);
            } else {
                sk.insert_basic(&(1000 + i).to_le_bytes());
            }
        }
        let est = sk.query(&el);
        assert!(est > 5_000, "elephant estimate {est} too low");
    }

    #[test]
    fn query_unknown_flow_is_zero() {
        let sk = HkSketch::new(&cfg(8));
        assert_eq!(sk.query(&9u64.to_le_bytes()), 0);
    }

    #[test]
    fn counter_saturates_at_bit_width() {
        let cfg = HkConfig::builder()
            .arrays(1)
            .width(4)
            .counter_bits(4)
            .seed(2)
            .build();
        let mut sk = HkSketch::new(&cfg);
        let key = 3u64.to_le_bytes();
        for _ in 0..100 {
            sk.insert_basic(&key);
        }
        assert_eq!(sk.query(&key), 15, "4-bit counter must saturate at 15");
    }

    #[test]
    fn expansion_adds_array_after_threshold() {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(4)
            .expansion(ExpansionPolicy {
                large_counter: 10,
                blocked_threshold: 5,
                max_arrays: 3,
            })
            .build();
        let mut sk = HkSketch::new(&cfg);
        assert_eq!(sk.arrays(), 2);
        let mut added = false;
        for _ in 0..10 {
            added |= sk.note_blocked();
        }
        assert!(added);
        assert_eq!(sk.arrays(), 3);
        assert_eq!(sk.expansions(), 1);
        // Capped at max_arrays.
        for _ in 0..100 {
            sk.note_blocked();
        }
        assert_eq!(sk.arrays(), 3);
    }

    #[test]
    fn expansion_disabled_never_expands() {
        let mut sk = HkSketch::new(&cfg(4));
        for _ in 0..10_000 {
            assert!(!sk.note_blocked());
        }
        assert_eq!(sk.arrays(), 2);
        assert!(!sk.is_large_for_expansion(1 << 30));
    }

    #[test]
    fn memory_accounting_16_16() {
        // 2 arrays x 100 buckets x 4 bytes = 800 bytes.
        let cfg = HkConfig::builder().arrays(2).width(100).build();
        let sk = HkSketch::new(&cfg);
        assert_eq!(sk.memory_bytes(), 800);
    }

    #[test]
    fn reset_clears_state() {
        let mut sk = HkSketch::new(&cfg(16));
        for v in 0..100u64 {
            sk.insert_basic(&v.to_le_bytes());
        }
        assert!(sk.occupancy() > 0);
        sk.reset();
        assert_eq!(sk.occupancy(), 0);
        assert_eq!(sk.blocked_count(), 0);
        assert_eq!(sk.query(&1u64.to_le_bytes()), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut sk = HkSketch::new(&cfg(32));
            let mut rng = XorShift64::new(4);
            for _ in 0..5000 {
                let v = rng.next_u64_raw() % 100;
                sk.insert_basic(&v.to_le_bytes());
            }
            sk.query(&1u64.to_le_bytes())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn slotted_insert_matches_prepared_insert() {
        // The cached-slot path must consume the same buckets and RNG as
        // the on-demand path.
        let mut a = HkSketch::new(&cfg(32));
        let mut b = HkSketch::new(&cfg(32));
        let mut batch = PreparedBatch::new();
        for v in 0..5_000u64 {
            let key = (v % 80).to_le_bytes();
            let p = a.prepare(&key);
            b.prepare_batch(&[v % 80], &mut batch);
            let e = batch.entry(0);
            a.insert_basic_prepared(&p);
            b.insert_basic_keyed(&e);
            assert_eq!(a.query_prepared(&p), b.query_keyed(&batch.entry(0)));
        }
        for j in 0..a.arrays() {
            for i in 0..a.width() {
                assert_eq!(a.bucket(j, i), b.bucket(j, i));
            }
        }
    }

    #[test]
    fn recycle_restores_as_constructed_state() {
        // Drive a sketch, recycle it, then drive it and a genuinely
        // fresh sketch with identical traffic: every bucket must match.
        // A plain `reset` would diverge (decay RNG not rewound).
        let c = cfg(32);
        let mut recycled = HkSketch::new(&c);
        let mut rng = XorShift64::new(17);
        for _ in 0..20_000 {
            let v = rng.next_u64_raw() % 60;
            recycled.insert_basic(&v.to_le_bytes());
        }
        recycled.recycle(c.arrays);
        assert_eq!(recycled.occupancy(), 0);
        assert_eq!(*recycled.stats(), InsertStats::default());

        let mut fresh = HkSketch::new(&c);
        let mut rng = XorShift64::new(17);
        for _ in 0..20_000 {
            let v = rng.next_u64_raw() % 60;
            let key = v.to_le_bytes();
            assert_eq!(recycled.insert_basic(&key), fresh.insert_basic(&key));
        }
        for j in 0..fresh.arrays() {
            for i in 0..fresh.width() {
                assert_eq!(recycled.bucket(j, i), fresh.bucket(j, i));
            }
        }
    }

    #[test]
    fn recycle_drops_expansion_rows() {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(4)
            .expansion(ExpansionPolicy {
                large_counter: 10,
                blocked_threshold: 5,
                max_arrays: 3,
            })
            .build();
        let mut sk = HkSketch::new(&cfg);
        for _ in 0..10 {
            sk.note_blocked();
        }
        assert_eq!(sk.arrays(), 3);
        sk.recycle(cfg.arrays);
        assert_eq!(sk.arrays(), 2, "recycle restores the configured rows");
        assert_eq!(sk.expansions(), 0);
        assert_eq!(sk.blocked_count(), 0);
    }

    #[test]
    fn layout_report_geometry() {
        // 16+16 packs into 4-byte words: runtime bytes equal the
        // paper's accounted bytes.
        let sk = HkSketch::new(&cfg(128));
        let r = sk.layout_report();
        assert_eq!(r.rows, 2);
        assert_eq!(r.width, 128);
        assert_eq!(r.bucket_bytes, 4);
        assert_eq!(r.buckets_per_line, 16);
        assert_eq!(r.lines_per_packet, 2);
        assert_eq!(r.runtime_bytes, 2 * 128 * 4);
        assert_eq!(r.accounted_bytes, r.runtime_bytes);
        assert!(r.aligned);
        assert_eq!((r.fp_field_bits, r.count_field_bits), (16, 16));
        assert_eq!(r, LayoutReport::for_config(&cfg(128)));
        let text = r.to_string();
        assert!(text.contains("2 x 128"), "report text: {text}");
        assert!(
            text.contains("(1024 B runtime, 1024 B accounted)"),
            "report text: {text}"
        );
        assert!(text.contains("4 B (fp 16 bits | count 16 bits), 16 buckets/cache line"));
        // Past 32 configured bits (WeightedTopK's 16+32) the word is 8
        // bytes, 6 of them accounted.
        let wide = HkConfig::builder()
            .arrays(2)
            .width(128)
            .counter_bits(32)
            .build();
        let r = HkSketch::new(&wide).layout_report();
        assert_eq!(r.bucket_bytes, 8);
        assert_eq!(r.buckets_per_line, 8);
        assert_eq!(r.runtime_bytes, 2 * 128 * 8);
        assert_eq!(r.accounted_bytes, 2 * 128 * 6);
        assert!(r.aligned);
        assert_eq!((r.fp_field_bits, r.count_field_bits), (32, 32));
        assert_eq!(r, LayoutReport::for_config(&wide));
    }
}
