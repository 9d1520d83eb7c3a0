//! Differential testing: deliberately naive, line-by-line
//! transcriptions of the paper against the optimized code.
//!
//! * Section III-B's insertion (Cases 1–3 in every mapped bucket)
//!   against `HkSketch::insert_basic`.
//! * Algorithm 1 (Hardware Parallel) and Algorithm 2 (Software Minimum)
//!   in the paper's order — `flag` read from the top-k store before the
//!   walk, the store updated after it — against `ParallelTopK` and
//!   `MinimumTopK`, which look the flow up only where a decision reads
//!   `flag`. Bucket words, `top_k()` with its tie order, and every
//!   `InsertStats` field must agree after every packet, scalar and
//!   batched.
//!
//! The references consume randomness through the same primitives in
//! the same order (one xorshift64* draw per Case-3 roll below the table
//! cutoff), so the implementations must agree **bit-exactly** — any
//! divergence in hashing, slot derivation, threshold tables,
//! saturation, roll ordering or store decisions fails the test
//! immediately.

use heavykeeper::decay::DecayTable;
use heavykeeper::sketch::{prepare_key, PreparedKey, MAX_ARRAYS};
use heavykeeper::store::TopKStore;
use heavykeeper::{ExpansionPolicy, HkConfig, HkSketch, InsertStats, MinimumTopK, ParallelTopK};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::prng::XorShift64;
use proptest::prelude::*;

/// The paper's data structure with no cleverness: a `d × w` matrix of
/// `(fp, count)` tuples and direct transcription of the three cases.
struct NaiveSketch {
    buckets: Vec<Vec<(u32, u64)>>,
    table: DecayTable,
    rng: XorShift64,
    seed: u64,
    fingerprint_mask: u32,
    counter_max: u64,
    width: usize,
}

impl NaiveSketch {
    fn new(cfg: &HkConfig) -> Self {
        let fingerprint_mask = if cfg.fingerprint_bits == 32 {
            u32::MAX
        } else {
            (1u32 << cfg.fingerprint_bits) - 1
        };
        Self {
            buckets: vec![vec![(0, 0); cfg.width]; cfg.arrays],
            table: DecayTable::new(cfg.decay),
            // Same RNG construction as HkSketch (sketch.rs).
            rng: XorShift64::new(cfg.seed ^ 0xDECA_F00D),
            seed: cfg.seed,
            fingerprint_mask,
            counter_max: cfg.counter_max(),
            width: cfg.width,
        }
    }

    fn prepare(&self, key: &[u8]) -> PreparedKey {
        prepare_key(self.seed, self.fingerprint_mask, key)
    }

    fn insert(&mut self, key: &[u8]) {
        let p = self.prepare(key);
        for j in 0..self.buckets.len() {
            let i = p.slot(j, self.width);
            let (fp, count) = self.buckets[j][i];
            if count == 0 {
                // Case 1.
                self.buckets[j][i] = (p.fp, 1);
            } else if fp == p.fp {
                // Case 2 (saturating at the configured width).
                if count < self.counter_max {
                    self.buckets[j][i].1 = count + 1;
                }
            } else {
                // Case 3: decay with probability P_decay = b^-C, rolled
                // as an integer threshold compare like the real sketch.
                let threshold = self.table.threshold(count);
                if threshold != 0 && self.rng.next_u64_raw() < threshold {
                    let c = count - 1;
                    if c == 0 {
                        self.buckets[j][i] = (p.fp, 1);
                    } else {
                        self.buckets[j][i].1 = c;
                    }
                }
            }
        }
    }

    fn query(&self, key: &[u8]) -> u64 {
        let p = self.prepare(key);
        let mut best = 0;
        for j in 0..self.buckets.len() {
            let (fp, count) = self.buckets[j][p.slot(j, self.width)];
            if fp == p.fp && count > best {
                best = count;
            }
        }
        best
    }
}

fn buckets_equal(real: &HkSketch, naive: &NaiveSketch) -> bool {
    for j in 0..real.arrays() {
        for i in 0..real.width() {
            let b = real.bucket(j, i);
            if (b.fp, b.count) != naive.buckets[j][i] {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_basic_matches_naive_transcription_bit_exactly(
        stream in prop::collection::vec(0u64..200, 1..2000),
        seed in any::<u64>(),
        width in 1usize..64,
        arrays in 1usize..4,
        counter_bits in prop::sample::select(vec![4u32, 8, 16]),
    ) {
        let cfg = HkConfig::builder()
            .arrays(arrays)
            .width(width)
            .counter_bits(counter_bits)
            .seed(seed)
            .build();
        let mut real = HkSketch::new(&cfg);
        let mut naive = NaiveSketch::new(&cfg);
        for (n, &f) in stream.iter().enumerate() {
            let key = f.to_le_bytes();
            real.insert_basic(&key);
            naive.insert(&key);
            prop_assert!(
                buckets_equal(&real, &naive),
                "bucket state diverged after packet {n} (flow {f})"
            );
        }
        // Queries agree for the whole universe, not just inserted keys.
        for f in 0..200u64 {
            let key = f.to_le_bytes();
            prop_assert_eq!(real.query(&key), naive.query(&key));
        }
    }

    #[test]
    fn differential_with_alternative_decay_functions(
        stream in prop::collection::vec(0u64..100, 1..1000),
        seed in any::<u64>(),
        poly in any::<bool>(),
    ) {
        use heavykeeper::DecayFn;
        let decay = if poly { DecayFn::polynomial(1.5) } else { DecayFn::sigmoid(0.08) };
        let cfg = HkConfig::builder().width(16).decay(decay).seed(seed).build();
        let mut real = HkSketch::new(&cfg);
        let mut naive = NaiveSketch::new(&cfg);
        for &f in &stream {
            let key = f.to_le_bytes();
            real.insert_basic(&key);
            naive.insert(&key);
        }
        prop_assert!(buckets_equal(&real, &naive));
    }
}

/// Which of the paper's top-k algorithms a [`NaiveTopK`] transcribes.
#[derive(Clone, Copy, Debug)]
enum Algo {
    /// Algorithm 1, the Hardware Parallel version.
    Parallel,
    /// Algorithm 2, the Software Minimum version.
    Minimum,
}

/// Algorithm 1 or 2 in the paper's order, with no cleverness: a
/// `d × w` matrix of `(fp, count)` tuples, `flag` read through the
/// public `TopKStore::contains` before the walk, and lines 21–25
/// through `TopKStore::update_max`/`admit`. Decay rolls go through an
/// `HkSketch` of the same configuration, used for nothing else, so the
/// RNG stream is the real one. Section III-F expansion appends a zero
/// row once `blocked_threshold` blocked packets pile up.
struct NaiveTopK {
    algo: Algo,
    buckets: Vec<Vec<(u32, u64)>>,
    rng: HkSketch,
    store: TopKStore<u64>,
    stats: InsertStats,
    seed: u64,
    fingerprint_mask: u32,
    counter_max: u64,
    width: usize,
    expansion: Option<ExpansionPolicy>,
    blocked_count: u64,
    expansions: usize,
}

impl NaiveTopK {
    fn new(algo: Algo, cfg: &HkConfig) -> Self {
        let naive = NaiveSketch::new(cfg);
        Self {
            algo,
            buckets: naive.buckets,
            rng: HkSketch::new(cfg),
            store: TopKStore::new(cfg.k),
            stats: InsertStats::default(),
            seed: cfg.seed,
            fingerprint_mask: naive.fingerprint_mask,
            counter_max: cfg.counter_max(),
            width: cfg.width,
            expansion: cfg.expansion,
            blocked_count: 0,
            expansions: 0,
        }
    }

    fn insert(&mut self, key: u64) {
        let p = prepare_key(self.seed, self.fingerprint_mask, &key.to_le_bytes());
        // Line 1: is the flow in the top-k store? And its floor.
        let flag = self.store.contains(&key);
        let nmin = self.store.nmin();
        self.stats.packets += 1;
        let (heavy_v, blocked) = match self.algo {
            Algo::Parallel => self.walk_parallel(&p, flag, nmin),
            Algo::Minimum => self.walk_minimum(&p, flag, nmin),
        };
        if blocked {
            self.stats.blocked += 1;
            self.note_blocked();
        }
        // Lines 21–25 (Algorithm 2 ends with the same rule).
        if flag {
            self.store.update_max(&key, heavy_v);
        } else if !self.store.is_full() {
            if heavy_v > 0 {
                self.store.admit(key, heavy_v);
                self.stats.admissions += 1;
            }
        } else if heavy_v == nmin + 1 {
            self.store.admit(key, heavy_v);
            self.stats.admissions += 1;
        } else if heavy_v > nmin {
            self.stats.admissions_rejected += 1;
        }
    }

    /// Algorithm 1 lines 4–20 in every mapped bucket.
    fn walk_parallel(&mut self, p: &PreparedKey, flag: bool, nmin: u64) -> (u64, bool) {
        let mut heavy_v = 0;
        // Blocked: every mapped bucket is another flow's, and large.
        let mut blocked = !self.buckets.is_empty();
        for j in 0..self.buckets.len() {
            let i = p.slot(j, self.width);
            let (fp, count) = self.buckets[j][i];
            if count == 0 {
                self.buckets[j][i] = (p.fp, 1);
                heavy_v = heavy_v.max(1);
                blocked = false;
                self.stats.empty_claims += 1;
            } else if fp == p.fp {
                blocked = false;
                // Optimization II: an outside flow may not grow a
                // counter above n_min.
                if flag || count <= nmin {
                    let c = (count + 1).min(self.counter_max);
                    self.buckets[j][i].1 = c;
                    heavy_v = heavy_v.max(c);
                    self.stats.increments += 1;
                } else {
                    self.stats.increments_gated += 1;
                }
            } else {
                if !self.rng.is_large_for_expansion(count) {
                    blocked = false;
                }
                self.stats.decay_rolls += 1;
                if self.rng.decay_roll(count) {
                    self.stats.decays += 1;
                    if count == 1 {
                        self.buckets[j][i] = (p.fp, 1);
                        heavy_v = heavy_v.max(1);
                        self.stats.replacements += 1;
                    } else {
                        self.buckets[j][i].1 = count - 1;
                    }
                }
            }
        }
        (heavy_v, blocked)
    }

    /// Algorithm 2's situations: increment the first matching bucket,
    /// else claim the first empty one, else decay the first smallest.
    fn walk_minimum(&mut self, p: &PreparedKey, flag: bool, nmin: u64) -> (u64, bool) {
        let mut matched = None;
        let mut empty = None;
        let mut smallest: Option<(usize, usize, u64)> = None;
        for j in 0..self.buckets.len() {
            let i = p.slot(j, self.width);
            let (fp, count) = self.buckets[j][i];
            if count == 0 {
                empty = empty.or(Some((j, i)));
                continue;
            }
            if fp == p.fp && matched.is_none() {
                matched = Some((j, i, count));
            }
            if smallest.is_none_or(|(_, _, c)| count < c) {
                smallest = Some((j, i, count));
            }
        }
        // Situation 1, behind Optimization II.
        if let Some((j, i, count)) = matched {
            if flag || count <= nmin {
                let c = (count + 1).min(self.counter_max);
                self.buckets[j][i].1 = c;
                self.stats.increments += 1;
                return (c, false);
            }
            self.stats.increments_gated += 1;
        }
        // Situation 2.
        if let Some((j, i)) = empty {
            self.buckets[j][i] = (p.fp, 1);
            self.stats.empty_claims += 1;
            return (1, false);
        }
        if matched.is_some() {
            return (0, false);
        }
        // Situation 3: only the smallest counter rolls.
        let Some((j, i, count)) = smallest else {
            return (0, false);
        };
        let blocked = self.rng.is_large_for_expansion(count);
        self.stats.decay_rolls += 1;
        if !self.rng.decay_roll(count) {
            return (0, blocked);
        }
        self.stats.decays += 1;
        if count > 1 {
            self.buckets[j][i].1 = count - 1;
            return (0, blocked);
        }
        self.buckets[j][i] = (p.fp, 1);
        self.stats.replacements += 1;
        (1, blocked)
    }

    /// Section III-F: one more zero row once enough packets blocked.
    fn note_blocked(&mut self) {
        let Some(policy) = self.expansion else {
            return;
        };
        self.blocked_count += 1;
        if self.blocked_count > policy.blocked_threshold
            && self.buckets.len() < policy.max_arrays.min(MAX_ARRAYS)
        {
            self.buckets.push(vec![(0, 0); self.width]);
            self.blocked_count = 0;
            self.expansions += 1;
        }
    }

    /// Where `real` first differs from this reference, if anywhere.
    fn diff(&self, real: &Real) -> Option<String> {
        let (sketch, top, stats) = match real {
            Real::Parallel(r) => (r.sketch(), r.top_k(), *r.stats()),
            Real::Minimum(r) => (r.sketch(), r.top_k(), *r.stats()),
        };
        if sketch.arrays() != self.buckets.len() || sketch.expansions() != self.expansions {
            return Some(format!(
                "arrays {} (expansions {}) against {} ({})",
                sketch.arrays(),
                sketch.expansions(),
                self.buckets.len(),
                self.expansions
            ));
        }
        for (j, row) in self.buckets.iter().enumerate() {
            for (i, &want) in row.iter().enumerate() {
                let b = sketch.bucket(j, i);
                if (b.fp, b.count) != want {
                    return Some(format!(
                        "bucket ({j}, {i}): {:?} against {want:?}",
                        (b.fp, b.count)
                    ));
                }
            }
        }
        if top != self.store.sorted_desc() {
            return Some(format!(
                "top-k {top:?} against {:?}",
                self.store.sorted_desc()
            ));
        }
        if stats != self.stats {
            return Some(format!("stats {stats:?} against {:?}", self.stats));
        }
        None
    }
}

/// An optimized instance under test.
enum Real {
    Parallel(ParallelTopK<u64>),
    Minimum(MinimumTopK<u64>),
}

impl Real {
    fn new(algo: Algo, cfg: &HkConfig) -> Self {
        match algo {
            Algo::Parallel => Real::Parallel(ParallelTopK::new(cfg.clone())),
            Algo::Minimum => Real::Minimum(MinimumTopK::new(cfg.clone())),
        }
    }

    fn insert(&mut self, key: u64) {
        match self {
            Real::Parallel(r) => r.insert(&key),
            Real::Minimum(r) => r.insert(&key),
        }
    }

    fn insert_batch(&mut self, keys: &[u64]) {
        match self {
            Real::Parallel(r) => r.insert_batch(keys),
            Real::Minimum(r) => r.insert_batch(keys),
        }
    }
}

/// Drives the reference, a scalar instance (checked after every packet)
/// and a batched one (checked after every `chunk` packets) over
/// `stream`, and returns the reference's final counters.
fn check_against_reference(
    algo: Algo,
    cfg: &HkConfig,
    stream: &[u64],
    chunk: usize,
) -> Result<NaiveTopK, String> {
    let mut naive = NaiveTopK::new(algo, cfg);
    let mut scalar = Real::new(algo, cfg);
    let mut batched = Real::new(algo, cfg);
    for (c, keys) in stream.chunks(chunk).enumerate() {
        for (off, &key) in keys.iter().enumerate() {
            naive.insert(key);
            scalar.insert(key);
            if let Some(d) = naive.diff(&scalar) {
                let n = c * chunk + off;
                return Err(format!("{algo:?} scalar, packet {n} (flow {key}): {d}"));
            }
        }
        batched.insert_batch(keys);
        if let Some(d) = naive.diff(&batched) {
            return Err(format!("{algo:?} insert_batch, chunk {c}: {d}"));
        }
    }
    Ok(naive)
}

/// A deterministic skewed stream: `heavy` elephants carry about a third
/// of the packets, the rest spread over `tail` mice.
fn skewed(n: usize, heavy: u64, tail: u64, seed: u64) -> Vec<u64> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| {
            let r = rng.next_u64_raw();
            if r.is_multiple_of(3) {
                (r >> 8) % heavy
            } else {
                heavy + (r >> 8) % tail
            }
        })
        .collect()
}

fn topk_cfg(width: usize, arrays: usize, k: usize, fp_bits: u32, seed: u64) -> HkConfig {
    HkConfig::builder()
        .arrays(arrays)
        .width(width)
        .k(k)
        .fingerprint_bits(fp_bits)
        .seed(seed)
        .build()
}

/// Fixed inputs that reach the branches of lines 21–25 and of the
/// Optimization II gate, for both algorithms: the store's not-full
/// phase (every stream starts there) and its full one, gated increments
/// (4- to 8-bit fingerprints on small widths collide often),
/// admissions at `n_min + 1` and a Section III-F expansion.
///
/// Optimization I's rejection (an outside flow with `HeavyK_V >
/// n_min + 1`) cannot be reached: the walks take `HeavyK_V` only from
/// buckets they claimed or incremented, and Optimization II keeps an
/// outside flow from incrementing a counter above `n_min`, so its
/// `HeavyK_V` is at most `n_min + 1`. The references still transcribe
/// the branch.
#[test]
fn parallel_and_minimum_match_the_papers_flag_first_order() {
    let expanding = HkConfig::builder()
        .arrays(2)
        .width(2)
        .k(3)
        .fingerprint_bits(8)
        .seed(9)
        .expansion(ExpansionPolicy {
            large_counter: 8,
            blocked_threshold: 20,
            max_arrays: 5,
        })
        .build();
    // Four flows settle into the two tiny arrays, then newcomers find
    // every mapped bucket large and pile up blocked packets.
    let settle_then_block: Vec<u64> = (0..2000u64)
        .map(|i| i % 4)
        .chain(skewed(4000, 3, 100, 11).into_iter().map(|f| f + 100))
        .collect();
    let cases = [
        (topk_cfg(8, 2, 6, 4, 1), skewed(6000, 10, 300, 3), 64),
        (topk_cfg(16, 3, 8, 6, 2), skewed(6000, 12, 400, 5), 97),
        (topk_cfg(32, 2, 10, 8, 3), skewed(6000, 16, 800, 7), 1),
        (expanding, settle_then_block, 33),
    ];
    for algo in [Algo::Parallel, Algo::Minimum] {
        let (mut gated, mut late_admissions, mut expansions) = (0, 0, 0);
        for (cfg, stream, chunk) in &cases {
            let naive = check_against_reference(algo, cfg, stream, *chunk)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(naive.store.is_full(), "{algo:?}: the store never filled");
            gated += naive.stats.increments_gated;
            late_admissions += naive.stats.admissions - cfg.k as u64;
            expansions += naive.expansions;
        }
        assert!(gated > 0, "{algo:?}: no Optimization II gate");
        assert!(
            late_admissions > 0,
            "{algo:?}: no admission into a full store"
        );
        assert!(expansions > 0, "{algo:?}: no Section III-F expansion");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_and_minimum_match_flag_first_order_on_random_inputs(
        stream in prop::collection::vec(0u64..300, 1..1500),
        seed in any::<u64>(),
        width in 1usize..32,
        arrays in 1usize..4,
        k in 2usize..12,
        fp_bits in prop::sample::select(vec![4u32, 6, 8, 16]),
        counter_bits in prop::sample::select(vec![8u32, 16]),
        chunk in 1usize..200,
        minimum in any::<bool>(),
    ) {
        // Fold the uniform draws into elephants (IDs below 8) and mice.
        let stream: Vec<u64> = stream
            .iter()
            .map(|&r| if r.is_multiple_of(3) { r % 8 } else { r })
            .collect();
        let cfg = HkConfig::builder()
            .arrays(arrays)
            .width(width)
            .k(k)
            .fingerprint_bits(fp_bits)
            .counter_bits(counter_bits)
            .seed(seed)
            .build();
        let algo = if minimum { Algo::Minimum } else { Algo::Parallel };
        if let Err(e) = check_against_reference(algo, &cfg, &stream, chunk) {
            prop_assert!(false, "{}", e);
        }
    }
}
