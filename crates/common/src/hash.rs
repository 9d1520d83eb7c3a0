//! From-scratch hash functions and a seeded 2-universal hash family.
//!
//! The paper (Section III-B) requires `d` pairwise-independent hash
//! functions `h_1 .. h_d` mapping flow IDs to array indices, plus an
//! independent fingerprint hash `h_f`. We implement two well-known
//! non-cryptographic hashes from their published specifications —
//! xxHash64 and MurmurHash3 (x86, 32-bit) — and derive per-array
//! functions by seeding.
//!
//! No external hash crates are used; everything below is implemented from
//! the algorithm descriptions.

/// Primes from the xxHash64 reference specification.
const XXH_PRIME64_1: u64 = 0x9E3779B185EBCA87;
const XXH_PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const XXH_PRIME64_3: u64 = 0x165667B19E3779F9;
const XXH_PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const XXH_PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline(always)]
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME64_1)
}

#[inline(always)]
fn xxh64_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh64_round(0, val))
        .wrapping_mul(XXH_PRIME64_1)
        .wrapping_add(XXH_PRIME64_4)
}

#[inline(always)]
fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline(always)]
fn read_u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

/// Computes xxHash64 of `data` with the given `seed`.
///
/// This follows the canonical xxHash64 algorithm: four parallel lanes over
/// 32-byte stripes, a merge, then tail processing and avalanche.
///
/// It is `#[inline]` because every packet's key is hashed here from
/// another crate (the batch prolog, the engine's dispatcher, the fleet's
/// switch partition), and the release profiles use no LTO: without the
/// attribute each of those is an out-of-line call that walks the tail
/// branches for a runtime length. Inlined, the compiler sees the key's
/// width and keeps only its branches. The benchmark ledger's
/// `prepared.hash_ns_per_pkt` fell from about 22 to 8 ns on 13-byte
/// keys and from 11 to 5 ns on `u64` keys (2-vCPU x86-64 VM), to the
/// same outputs. `hk-lint`'s `inline-across-crates` rule keeps the
/// attribute.
///
/// # Examples
///
/// ```
/// use hk_common::hash::xxhash64;
/// // Known-answer: empty input, seed 0.
/// assert_eq!(xxhash64(&[], 0), 0xEF46_DB37_51D8_E999);
/// ```
#[inline]
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(XXH_PRIME64_1).wrapping_add(XXH_PRIME64_2);
        let mut v2 = seed.wrapping_add(XXH_PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(XXH_PRIME64_1);

        while rest.len() >= 32 {
            v1 = xxh64_round(v1, read_u64_le(&rest[0..]));
            v2 = xxh64_round(v2, read_u64_le(&rest[8..]));
            v3 = xxh64_round(v3, read_u64_le(&rest[16..]));
            v4 = xxh64_round(v4, read_u64_le(&rest[24..]));
            rest = &rest[32..];
        }

        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh64_merge_round(h, v1);
        h = xxh64_merge_round(h, v2);
        h = xxh64_merge_round(h, v3);
        h = xxh64_merge_round(h, v4);
    } else {
        h = seed.wrapping_add(XXH_PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h ^= xxh64_round(0, read_u64_le(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME64_1)
            .wrapping_add(XXH_PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(read_u32_le(rest)).wrapping_mul(XXH_PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME64_2)
            .wrapping_add(XXH_PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= u64::from(byte).wrapping_mul(XXH_PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(XXH_PRIME64_1);
    }

    // Avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME64_3);
    h ^= h >> 32;
    h
}

/// Computes MurmurHash3 (x86, 32-bit variant) of `data` with `seed`.
///
/// Used as the fingerprint hash so that fingerprints and bucket indices
/// come from structurally different hash functions, reducing correlated
/// collisions.
///
/// # Examples
///
/// ```
/// use hk_common::hash::murmur3_32;
/// // Known-answer vectors from the reference implementation.
/// assert_eq!(murmur3_32(&[], 0), 0);
/// assert_eq!(murmur3_32(b"hello", 0), 0x248B_FA47);
/// ```
#[inline]
pub fn murmur3_32(data: &[u8], seed: u32) -> u32 {
    const C1: u32 = 0xCC9E_2D51;
    const C2: u32 = 0x1B87_3593;

    let mut h = seed;
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let mut k = read_u32_le(chunk);
        k = k.wrapping_mul(C1).rotate_left(15).wrapping_mul(C2);
        h ^= k;
        h = h.rotate_left(13).wrapping_mul(5).wrapping_add(0xE654_6B64);
    }

    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut k: u32 = 0;
        for (i, &byte) in tail.iter().enumerate() {
            k |= u32::from(byte) << (8 * i);
        }
        k = k.wrapping_mul(C1).rotate_left(15).wrapping_mul(C2);
        h ^= k;
    }

    h ^= data.len() as u32;
    // fmix32 avalanche.
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h
}

/// A single seeded hash function over byte strings.
///
/// Cheap to copy; hashing is stateless apart from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHasher {
    seed: u64,
}

impl SeededHasher {
    /// Creates a hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Hashes `data` to a full 64-bit value.
    #[inline]
    pub fn hash(&self, data: &[u8]) -> u64 {
        xxhash64(data, self.seed)
    }

    /// Hashes `data` to an index in `[0, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    #[inline]
    pub fn index(&self, data: &[u8], w: usize) -> usize {
        assert!(w > 0, "array width must be positive");
        // Multiply-shift mapping avoids modulo bias better than `% w`
        // for non-power-of-two widths and is faster.
        let h = self.hash(data);
        (((u128::from(h)) * (w as u128)) >> 64) as usize
    }

    /// Returns the seed this hasher was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A family of independently seeded hash functions.
///
/// Seeds are derived from a master seed by hashing the function index, so
/// families built from the same master seed are reproducible — important
/// for deterministic tests — while distinct indices give (empirically)
/// independent functions, satisfying the paper's 2-way independence
/// requirement for `h_1 .. h_d`.
///
/// # Examples
///
/// ```
/// use hk_common::hash::HashFamily;
/// let fam = HashFamily::new(42);
/// let h0 = fam.hasher(0);
/// let h1 = fam.hasher(1);
/// assert_ne!(h0.hash(b"flow"), h1.hash(b"flow"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    master_seed: u64,
}

impl HashFamily {
    /// Creates a family from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed }
    }

    /// Returns the `i`-th hash function of the family.
    pub fn hasher(&self, i: usize) -> SeededHasher {
        // Derive the i-th seed by hashing the index under the master seed;
        // this decorrelates consecutive indices far better than `seed + i`.
        let derived = xxhash64(&(i as u64).to_le_bytes(), self.master_seed ^ XXH_PRIME64_3);
        SeededHasher::new(derived)
    }

    /// Returns the master seed of the family.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }
}

/// A fast `std::hash::Hasher` built on the xxHash64 round function, for
/// the workspace's internal hash maps.
///
/// The default SipHash is DoS-resistant but costs tens of nanoseconds per
/// 13-byte flow key — dominating HeavyKeeper's per-packet budget (the
/// paper's C++ implementation uses plain fast hashing too). Flow keys in
/// a measurement sketch are not attacker-chosen hash-map keys in the
/// SipHash threat-model sense: an adversary who could engineer
/// collisions would only degrade their own flow's accuracy.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_PRIME64_3);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            self.state = xxh64_round(self.state, read_u64_le(rest));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.state = xxh64_round(self.state ^ rest.len() as u64, u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = xxh64_round(self.state, v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.state = xxh64_round(self.state, v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.state = xxh64_round(self.state, v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.state = xxh64_round(self.state, v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]-keyed maps.
pub type FastBuildHasher = std::hash::BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxhash64_known_answers() {
        // Vectors cross-checked against the reference xxHash implementation.
        assert_eq!(xxhash64(&[], 0), 0xEF46DB3751D8E999);
        assert_ne!(
            xxhash64(&[], 1),
            xxhash64(&[], 0),
            "seed must perturb the hash"
        );
        assert_eq!(xxhash64(b"a", 0), 0xD24EC4F1A98C6E5B);
        assert_eq!(xxhash64(b"abc", 0), 0x44BC2CF5AD770999);
    }

    /// Every prefix length 0..=40 of one byte string, at seed 0 and at a
    /// nonzero seed: each tail branch (< 4, 4-7, 8-31 and >= 32 bytes,
    /// one and two stripes) is pinned, so an inlined copy specialised
    /// to a key width must hash exactly as the out-of-line function did
    /// when these values were recorded.
    #[test]
    fn xxhash64_known_answers_by_length() {
        const SEED0: [u64; 41] = [
            0xEF46_DB37_51D8_E999,
            0x12F8_3C35_2A39_8165,
            0x18D3_6E1E_8AB8_DC94,
            0x3AFF_59DC_D2C8_5583,
            0xEF65_7434_C69B_9E63,
            0xBE06_B485_43AF_2A88,
            0xDE0A_0A54_85AC_633F,
            0x95D9_6FDB_351E_0F34,
            0xB0A1_8C18_5670_EE1C,
            0xF53A_9076_71E8_01A5,
            0x4A08_961B_8723_736F,
            0x7870_5898_B677_BBB4,
            0x1284_D734_6312_3BFF,
            0x5E26_2D6F_90EA_70BA,
            0x10A7_D139_ED50_AD26,
            0x1A30_F4A9_97D2_4D38,
            0xAEDA_C09D_7C39_EF02,
            0xE5CF_0453_E74A_1510,
            0xB57F_1673_F1D5_FEC6,
            0x9C2A_5AA9_7B5B_4174,
            0xA06D_69A8_4C46_EFF6,
            0x26F3_2179_D6CA_5D17,
            0x23C0_4898_7CA7_8540,
            0xCF6C_AD66_C106_C238,
            0xDCCC_547D_7762_05C1,
            0x73D5_981A_0D39_DB8B,
            0x6230_A1DA_CEEE_9DC1,
            0x6563_38AC_FFC3_7D69,
            0x2EB3_5DB6_F89F_DAA6,
            0x3099_3A20_3E1B_66ED,
            0xA382_9978_73CA_AA27,
            0x7CF8_17A0_C00D_5C9B,
            0x2DCD_360A_4190_6148,
            0xBBF2_9A4B_3A3D_3375,
            0x7532_40FB_AFCB_2E4A,
            0xC49F_3E7D_95BC_6515,
            0x6A5B_6404_8F9C_F776,
            0x56A6_F37D_C2DC_49B3,
            0x520D_EB05_2792_D414,
            0xBF81_CEC7_C92C_FAF8,
            0x9516_A72E_F960_3C34,
        ];
        const SEED_GOLDEN: [u64; 41] = [
            0xC434_9FC9_3C01_0000,
            0xC322_2875_8BC1_0DEF,
            0xAD0F_DCA3_C636_1687,
            0x76B4_1003_4A4C_0884,
            0x561F_FDAE_D795_634E,
            0x97C9_ADE3_FE8D_B201,
            0xE4C6_6EBB_C350_D34D,
            0x16A7_5534_EB8C_65A4,
            0x62C0_1582_4BF3_44EA,
            0xE0F5_438D_EBC9_D88C,
            0x4FE2_5703_4B1C_F5B5,
            0x2ECC_B01B_7C62_E275,
            0x29DD_34C4_4BF4_FA7F,
            0xBCFF_6AD0_896F_9B80,
            0xE551_5BFD_2655_3644,
            0x29E9_9283_5DB6_0506,
            0x74D9_7FA9_C4B6_C267,
            0x7827_405F_799E_13D9,
            0x89EE_3F2B_F67A_1FBC,
            0x2671_5FF5_CC02_314A,
            0xB850_9140_4E0E_870B,
            0x95F7_090F_AB31_2E44,
            0x48BB_B995_2780_ECD6,
            0xA17F_98BB_536C_4E3A,
            0x25A9_A324_6E38_F4C0,
            0xAC40_D4B1_7CBB_07DF,
            0xB88D_4F04_8464_8780,
            0x7A09_62A1_F5EA_7342,
            0x3D1C_13F5_A866_A746,
            0x8BE7_A77F_24E5_E7EC,
            0x21C4_2830_EEC0_ED2A,
            0x4815_F1F2_FC3D_ED24,
            0x8BC0_7041_0261_4A6D,
            0x2902_F3C1_5FE9_4B8B,
            0x92A2_3A66_4231_5B95,
            0x44E6_E01E_E71C_1F52,
            0xFC71_721B_778A_5C28,
            0x8388_3297_FD7E_CD2C,
            0x3E95_E33C_89BC_2CFB,
            0xF87B_4174_1616_1B45,
            0x9192_7A9D_3292_BB12,
        ];
        let data: Vec<u8> = (0..40u8)
            .map(|i| i.wrapping_mul(0x9D).wrapping_add(0x3B))
            .collect();
        for len in 0..=40 {
            assert_eq!(xxhash64(&data[..len], 0), SEED0[len], "len {len}, seed 0");
            assert_eq!(
                xxhash64(&data[..len], 0x9E37_79B9_7F4A_7C15),
                SEED_GOLDEN[len],
                "len {len}, golden-ratio seed"
            );
        }
    }

    #[test]
    fn xxhash64_long_input_stable() {
        // 100-byte input exercises the 32-byte stripe loop and all tails.
        let data: Vec<u8> = (0..100u8).collect();
        let h1 = xxhash64(&data, 7);
        let h2 = xxhash64(&data, 7);
        assert_eq!(h1, h2);
        assert_ne!(h1, xxhash64(&data, 8));
    }

    #[test]
    fn murmur3_known_answers() {
        assert_eq!(murmur3_32(&[], 0), 0);
        assert_eq!(murmur3_32(&[], 1), 0x514E28B7);
        assert_eq!(murmur3_32(b"hello", 0), 0x248BFA47);
        assert_eq!(murmur3_32(b"hello, world", 0), 0x149BBB7F);
        assert_eq!(
            murmur3_32(b"The quick brown fox jumps over the lazy dog", 0),
            0x2E4FF723
        );
    }

    #[test]
    fn index_is_in_range_and_deterministic() {
        let h = SeededHasher::new(99);
        for w in [1usize, 2, 3, 17, 1024, 100_000] {
            for v in 0..200u64 {
                let idx = h.index(&v.to_le_bytes(), w);
                assert!(idx < w);
                assert_eq!(idx, h.index(&v.to_le_bytes(), w));
            }
        }
    }

    #[test]
    #[should_panic(expected = "array width must be positive")]
    fn index_zero_width_panics() {
        SeededHasher::new(1).index(b"x", 0);
    }

    #[test]
    fn index_distribution_is_roughly_uniform() {
        // Chi-squared-style sanity check: 64 buckets, 64k keys.
        let h = SeededHasher::new(12345);
        let w = 64;
        let n = 65_536u64;
        let mut counts = vec![0u64; w];
        for v in 0..n {
            counts[h.index(&v.to_le_bytes(), w)] += 1;
        }
        let expected = (n as f64) / (w as f64);
        for &c in &counts {
            let dev = ((c as f64) - expected).abs() / expected;
            assert!(dev < 0.15, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn family_members_are_decorrelated() {
        // The fraction of keys where two family members agree on a 64-wide
        // index should be close to 1/64.
        let fam = HashFamily::new(7);
        let (h0, h1) = (fam.hasher(0), fam.hasher(1));
        let w = 64;
        let n = 40_000u64;
        let mut agree = 0u64;
        for v in 0..n {
            let b = v.to_le_bytes();
            if h0.index(&b, w) == h1.index(&b, w) {
                agree += 1;
            }
        }
        let frac = agree as f64 / n as f64;
        assert!(
            (frac - 1.0 / 64.0).abs() < 0.01,
            "agreement fraction {frac:.4} should be near 1/64"
        );
    }

    #[test]
    fn family_is_reproducible() {
        let a = HashFamily::new(3).hasher(5);
        let b = HashFamily::new(3).hasher(5);
        assert_eq!(a.hash(b"k"), b.hash(b"k"));
    }
}
