//! CRC-32 (IEEE 802.3) — integrity checksums for wire payloads.
//!
//! The windowed telemetry frames checksum every epoch payload so a
//! collector can reject a corrupted epoch without decoding it (and
//! without trusting the transport). This is the standard reflected
//! CRC-32 with polynomial `0xEDB88320` — no external crates, no
//! `unsafe`, deterministic across platforms.
//!
//! Every dirty export checksums its whole record and every apply
//! checksums it again: about 300 KB per switch per rotation at the
//! `fleet-window` geometry, and about 0.3 MB for one switch's full frame.
//! The loop is *slicing-by-8*: eight compile-time 256-entry tables,
//! where `TABLES[k][b]` is the remainder of byte `b` followed by `k`
//! zero bytes. Each step folds the running CRC into the next 8 input
//! bytes (read little-endian, so the result does not depend on the
//! host's byte order) and looks all eight up independently, so the
//! loads overlap instead of forming one dependency chain per byte. The
//! tail of fewer than 8 bytes runs the classic byte-at-a-time loop over
//! `TABLES[0]`. On a 2-vCPU Intel Xeon VM (release build, 1 MiB buffer)
//! it costs about 0.7 ns/B, against about 2.9 ns/B byte-at-a-time: a
//! 300 KB record checksums in about 215 µs instead of about 860 µs.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC remainder of byte `b` followed by `k` zero
/// bytes, built at compile time. `TABLES[0]` is the classic byte table.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte shifts the remainder one table further.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`: the checksum `cksum`-compatible tools and
/// zlib's `crc32()` produce.
///
/// # Examples
///
/// ```
/// use hk_common::crc::crc32;
/// // The catalogue test vector for CRC-32/ISO-HDLC.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::XorShift64;

    /// The byte-at-a-time loop `crc32` replaced: the reference the
    /// sliced loop must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = XorShift64::new(seed);
        (0..len).map(|_| rng.next_u64_raw() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Catalogue check value plus a few independently computed ones.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        // Every length 0..=80 from every start offset 0..8: covers the
        // empty input, tails of 0..7 bytes, and chunks that start at
        // every alignment.
        let buf = seeded_bytes(8 + 80, 0x5EED);
        for offset in 0..8 {
            for len in 0..=80 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_large_buffer() {
        let buf = seeded_bytes(1 << 20, 0xC0FFEE);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(crc32(&[0, 0, 0]), crc32(&[0, 0, 0]));
        assert_ne!(crc32(&[0, 0, 0]), crc32(&[0, 0]));
    }
}
