//! HeavyKeeper configuration.
//!
//! Defaults follow the paper's evaluation setup (Section VI-A): `d = 2`
//! arrays, 16-bit fingerprints, 16-bit counters and decay base
//! `b = 1.08`. Top-k bookkeeping is not configurable: every variant
//! keeps a Stream-Summary with `m = k` entries
//! ([`TopKStore`](crate::store::TopKStore)), as the paper implements it.

use crate::decay::DecayFn;

/// Section III-F dynamic expansion policy.
///
/// HeavyKeeper counts, in a global counter, how many insertions found all
/// `d` mapped buckets "large" (decay probability effectively zero, i.e.
/// counter at or above [`ExpansionPolicy::large_counter`]). When the
/// global counter exceeds [`ExpansionPolicy::blocked_threshold`], a new
/// array is added (up to [`ExpansionPolicy::max_arrays`]) so late-arriving
/// elephants still find room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionPolicy {
    /// A mapped counter at or above this value counts as "large".
    pub large_counter: u64,
    /// Add a new array when this many blocked insertions accumulate.
    pub blocked_threshold: u64,
    /// Hard cap on the number of arrays (including the initial `d`).
    pub max_arrays: usize,
}

impl Default for ExpansionPolicy {
    fn default() -> Self {
        Self {
            // b = 1.08: decay probability at C=120 is ~1e-4; the paper's
            // "large enough (e.g., 50)" guidance corresponds to p ≈ 0.02.
            large_counter: 120,
            blocked_threshold: 1024,
            max_arrays: 8,
        }
    }
}

/// Full configuration of a HeavyKeeper instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HkConfig {
    /// Number of arrays `d` (the paper evaluates with `d = 2`).
    pub arrays: usize,
    /// Buckets per array `w`.
    pub width: usize,
    /// Number of top flows to report.
    pub k: usize,
    /// Decay function; the paper's default is exponential with `b = 1.08`.
    pub decay: DecayFn,
    /// Fingerprint width in bits (paper: 16).
    pub fingerprint_bits: u32,
    /// Counter width in bits (paper: 16).
    pub counter_bits: u32,
    /// Master seed for hash functions and the decay RNG.
    pub seed: u64,
    /// Optional Section III-F dynamic expansion.
    pub expansion: Option<ExpansionPolicy>,
}

impl HkConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> HkConfigBuilder {
        HkConfigBuilder::default()
    }

    /// Bytes per bucket under the paper's accounting.
    pub fn bucket_bytes(&self) -> usize {
        (self.fingerprint_bits as usize + self.counter_bits as usize).div_ceil(8)
    }

    /// Memory of the sketch arrays alone, in bytes.
    pub fn sketch_bytes(&self) -> usize {
        self.arrays * self.width * self.bucket_bytes()
    }

    /// Maximum value a bucket counter can hold.
    pub fn counter_max(&self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }
}

/// Builder for [`HkConfig`].
///
/// # Examples
///
/// ```
/// use heavykeeper::HkConfig;
/// // Paper setup: fit the sketch in 20 KB with d = 2 and k = 100.
/// let cfg = HkConfig::builder().memory_bytes(20 * 1024).k(100).build();
/// assert_eq!(cfg.arrays, 2);
/// assert!(cfg.sketch_bytes() <= 20 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct HkConfigBuilder {
    arrays: usize,
    width: Option<usize>,
    memory_bytes: Option<usize>,
    k: usize,
    decay: DecayFn,
    fingerprint_bits: u32,
    counter_bits: u32,
    seed: u64,
    expansion: Option<ExpansionPolicy>,
}

impl Default for HkConfigBuilder {
    fn default() -> Self {
        Self {
            arrays: 2,
            width: None,
            memory_bytes: None,
            k: 100,
            decay: DecayFn::default(),
            fingerprint_bits: 16,
            counter_bits: 16,
            seed: 0x5EED_CAFE,
            expansion: None,
        }
    }
}

impl HkConfigBuilder {
    /// Sets the number of arrays `d`.
    pub fn arrays(mut self, d: usize) -> Self {
        self.arrays = d;
        self
    }

    /// Sets the per-array width `w` directly.
    pub fn width(mut self, w: usize) -> Self {
        self.width = Some(w);
        self
    }

    /// Sizes the sketch to fit a memory budget: `w` is derived so the
    /// arrays use at most `bytes` (paper experiments are parameterized by
    /// total memory, Section VI-A). Mutually exclusive with
    /// [`HkConfigBuilder::width`]; the later call wins.
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bytes = Some(bytes);
        self.width = None;
        self
    }

    /// Sets the number of reported flows `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the decay function.
    pub fn decay(mut self, decay: DecayFn) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the exponential decay base `b` (shorthand for
    /// `decay(DecayFn::exponential(b))`).
    pub fn decay_base(mut self, b: f64) -> Self {
        self.decay = DecayFn::exponential(b);
        self
    }

    /// Sets the fingerprint width in bits.
    pub fn fingerprint_bits(mut self, bits: u32) -> Self {
        self.fingerprint_bits = bits;
        self
    }

    /// Sets the counter width in bits.
    pub fn counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables Section III-F dynamic expansion.
    pub fn expansion(mut self, policy: ExpansionPolicy) -> Self {
        self.expansion = Some(policy);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (zero arrays/width/k, a
    /// memory budget too small for one bucket per array, fingerprint or
    /// counter widths out of range, or combined field widths that do
    /// not fit the packed 64-bit bucket word).
    pub fn build(self) -> HkConfig {
        assert!(self.arrays > 0, "need at least one array");
        assert!(self.k > 0, "k must be positive");
        assert!(
            self.fingerprint_bits > 0 && self.fingerprint_bits <= 32,
            "fingerprint width must be in 1..=32"
        );
        assert!(
            self.counter_bits > 0 && self.counter_bits < 64,
            "counter width must be in 1..=63"
        );
        assert!(
            self.fingerprint_bits + self.counter_bits <= 64,
            "fingerprint + counter bits must fit one packed 64-bit bucket"
        );
        let bucket_bytes =
            (self.fingerprint_bits as usize + self.counter_bits as usize).div_ceil(8);
        let width = match (self.width, self.memory_bytes) {
            (Some(w), _) => w,
            (None, Some(bytes)) => {
                let w = bytes / (self.arrays * bucket_bytes);
                assert!(w > 0, "memory budget too small for {} arrays", self.arrays);
                w
            }
            (None, None) => 1024,
        };
        assert!(width > 0, "width must be positive");
        HkConfig {
            arrays: self.arrays,
            width,
            k: self.k,
            decay: self.decay,
            fingerprint_bits: self.fingerprint_bits,
            counter_bits: self.counter_bits,
            seed: self.seed,
            expansion: self.expansion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = HkConfig::builder().build();
        assert_eq!(cfg.arrays, 2);
        assert_eq!(cfg.fingerprint_bits, 16);
        assert_eq!(cfg.counter_bits, 16);
        assert_eq!(cfg.bucket_bytes(), 4);
        assert_eq!(cfg.counter_max(), 65_535);
        assert!(cfg.expansion.is_none());
    }

    #[test]
    fn memory_budget_derives_width() {
        // 20 KB, 2 arrays, 4-byte buckets → 2560 buckets per array.
        let cfg = HkConfig::builder().memory_bytes(20 * 1024).build();
        assert_eq!(cfg.width, 2560);
        assert!(cfg.sketch_bytes() <= 20 * 1024);
    }

    #[test]
    fn explicit_width_wins_over_budget() {
        let cfg = HkConfig::builder().memory_bytes(1024).width(7).build();
        assert_eq!(cfg.width, 7);
    }

    #[test]
    fn wider_fields_cost_more_memory() {
        let small = HkConfig::builder().memory_bytes(4096).build();
        let wide = HkConfig::builder()
            .memory_bytes(4096)
            .counter_bits(32)
            .build();
        assert!(wide.width < small.width);
    }

    #[test]
    #[should_panic(expected = "memory budget too small")]
    fn tiny_budget_panics() {
        HkConfig::builder().memory_bytes(1).build();
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        HkConfig::builder().k(0).build();
    }

    #[test]
    #[should_panic(expected = "fit one packed 64-bit bucket")]
    fn oversized_combined_widths_rejected() {
        // Each width is individually legal but together they exceed the
        // packed bucket word.
        HkConfig::builder()
            .fingerprint_bits(32)
            .counter_bits(40)
            .build();
    }

    #[test]
    fn maximal_combined_widths_accepted() {
        let cfg = HkConfig::builder()
            .fingerprint_bits(1)
            .counter_bits(63)
            .width(4)
            .build();
        assert_eq!(cfg.counter_max(), (1u64 << 63) - 1);
    }

    #[test]
    fn expansion_default_sane() {
        let p = ExpansionPolicy::default();
        assert!(p.large_counter > 0 && p.max_arrays >= 2);
    }
}
