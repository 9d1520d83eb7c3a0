//! LEB128 varints and run-length-encoded bitmaps for the wire plane.
//!
//! The dirty window frame (wire v5) encodes "which buckets changed" as a
//! per-row bitmap and "how they changed" as `old XOR new` of each
//! bucket field: the counter XOR as a varint, the fingerprint XOR as
//! raw bytes when it changed. Both halves live or die on cheap
//! small-integer coding:
//!
//! * [`write_u64`] / [`read_u64`] — unsigned LEB128: 7 value bits per
//!   byte, the high bit marks continuation. Small diffs (counter-only
//!   bucket changes) take 1–2 bytes; a full 64-bit value takes 10.
//! * [`write_bitmap_rle`] / [`read_bitmap_rle`] — a bitmap as
//!   `(zero_run, literal_run, literal words…)` pairs: runs of all-zero
//!   `u64` bitmap words (the common case — most buckets hold mice or
//!   nothing and never change between exports) collapse to one varint,
//!   while words with any bit set ship raw (8 bytes LE).
//!
//! Decoders return `None` on any truncation, overflow, or non-canonical
//! input (a literal run containing an all-zero word, a `(0, 0)` pair
//! that would make no progress, runs past the declared length); the
//! wire layer maps that to its own corruption error. Encode→decode is
//! lossless for every input — the proptest suite below drives the u64
//! edge cases (0, 1, `u64::MAX`, every 7-bit continuation boundary) and
//! empty/full/alternating bitmaps.

/// Maximum encoded length of a LEB128 `u64` (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The encoded length [`write_u64`] would produce for `v`.
#[inline]
pub fn encoded_len(v: u64) -> usize {
    // 1 byte per started 7-bit group; v == 0 still takes one byte.
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Reads one LEB128 varint from `data` starting at `*pos`, advancing
/// `*pos` past it. `None` on truncation or a value overflowing 64 bits
/// (an encoding longer than [`MAX_VARINT_LEN`] bytes, or a tenth byte
/// carrying more than the single bit that fits).
#[inline]
pub fn read_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return None; // bits past the 64th
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None; // an 11th byte can carry nothing
        }
    }
}

/// Appends `words` (a bitmap as packed `u64`s) run-length encoded:
/// repeated `(zero_run, literal_run, literal_run × 8-byte LE words)`
/// groups until every word is covered. All-zero words only ever appear
/// inside a zero run, so the decoder can insist literals are non-zero.
pub fn write_bitmap_rle(out: &mut Vec<u8>, words: &[u64]) {
    let mut pos = 0;
    while pos < words.len() {
        let zeros_at = pos;
        while pos < words.len() && words[pos] == 0 {
            pos += 1;
        }
        write_u64(out, (pos - zeros_at) as u64);
        let lits_at = pos;
        while pos < words.len() && words[pos] != 0 {
            pos += 1;
        }
        write_u64(out, (pos - lits_at) as u64);
        for &w in &words[lits_at..pos] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Reads a [`write_bitmap_rle`] bitmap of exactly `words` `u64`s from
/// `data` starting at `*pos`, clearing `out` and filling it with the
/// bitmap's nonzero words as `(word index, word)`, ascending. Zero runs
/// are skipped, never materialized, so `out` grows with the encoded
/// bytes rather than with the declared length. `None` on truncation,
/// runs overshooting `words`, a zero word inside a literal run, or a
/// `(0, 0)` group (no progress — the encoder never emits one).
pub fn read_bitmap_rle(
    data: &[u8],
    pos: &mut usize,
    words: usize,
    out: &mut Vec<(usize, u64)>,
) -> Option<()> {
    out.clear();
    let mut covered = 0usize;
    while covered < words {
        let left = (words - covered) as u64;
        let zeros = read_u64(data, pos)?;
        if zeros > left {
            return None;
        }
        covered += zeros as usize;
        let lits = read_u64(data, pos)?;
        if lits > left - zeros {
            return None;
        }
        if zeros == 0 && lits == 0 {
            return None;
        }
        for _ in 0..lits {
            let end = pos.checked_add(8)?;
            let bytes = data.get(*pos..end)?;
            let w = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
            if w == 0 {
                return None;
            }
            out.push((covered, w));
            covered += 1;
            *pos = end;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_one(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert_eq!(buf.len(), encoded_len(v), "encoded_len({v})");
        assert!(buf.len() <= MAX_VARINT_LEN);
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len(), "decode must consume exactly the encoding");
    }

    #[test]
    fn varint_edges_roundtrip() {
        // 0, 1, max, and every 7-bit group boundary from both sides.
        let mut edges = vec![0u64, 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            let split = 1u64 << bits;
            edges.extend([split - 1, split, split + 1]);
        }
        for v in edges {
            roundtrip_one(v);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None, "prefix {cut}");
        }
        // Ten continuation bytes: the 11th byte never gets a chance.
        let over = [0x80u8; 10];
        let mut pos = 0;
        assert_eq!(read_u64(&over, &mut pos), None);
        // A tenth byte carrying more than the last value bit.
        let mut wide = vec![0x80u8; 9];
        wide.push(0x02);
        let mut pos = 0;
        assert_eq!(read_u64(&wide, &mut pos), None);
    }

    fn bitmap_roundtrip(words: &[u64]) {
        let mut buf = Vec::new();
        write_bitmap_rle(&mut buf, words);
        let mut pos = 0;
        let mut set = Vec::new();
        assert_eq!(
            read_bitmap_rle(&buf, &mut pos, words.len(), &mut set),
            Some(())
        );
        let mut back = vec![0u64; words.len()];
        for (i, w) in set {
            back[i] = w;
        }
        assert_eq!(back, words);
        assert_eq!(pos, buf.len(), "decode must consume exactly the encoding");
    }

    #[test]
    fn bitmap_edges_roundtrip() {
        bitmap_roundtrip(&[]);
        bitmap_roundtrip(&[0]);
        bitmap_roundtrip(&[u64::MAX]);
        bitmap_roundtrip(&[0u64; 100]);
        bitmap_roundtrip(&[u64::MAX; 100]);
        let alternating: Vec<u64> = (0..64)
            .map(|i| if i % 2 == 0 { 0 } else { 1 << i })
            .collect();
        bitmap_roundtrip(&alternating);
        bitmap_roundtrip(&[0, 0, 5, 0, 7, 7, 0]);
    }

    #[test]
    fn empty_bitmap_is_two_varints() {
        // The steady-state case — a row with no changed buckets — must
        // cost exactly one (zero_run, 0) pair, not O(width).
        let mut buf = Vec::new();
        write_bitmap_rle(&mut buf, &[0u64; 4096]);
        assert_eq!(buf.len(), encoded_len(4096) + 1);
    }

    #[test]
    fn bitmap_rejects_malformed_runs() {
        let mut out = Vec::new();
        // (0, 0) group: no progress.
        let stuck = {
            let mut b = Vec::new();
            write_u64(&mut b, 0);
            write_u64(&mut b, 0);
            b
        };
        assert_eq!(read_bitmap_rle(&stuck, &mut 0, 3, &mut out), None);
        // Zero run overshooting the declared word count.
        let over = {
            let mut b = Vec::new();
            write_u64(&mut b, 9);
            b
        };
        assert_eq!(read_bitmap_rle(&over, &mut 0, 3, &mut out), None);
        // A literal that decodes to zero (must have been a zero run).
        let zero_lit = {
            let mut b = Vec::new();
            write_u64(&mut b, 0);
            write_u64(&mut b, 1);
            b.extend_from_slice(&0u64.to_le_bytes());
            b
        };
        assert_eq!(read_bitmap_rle(&zero_lit, &mut 0, 1, &mut out), None);
        // Truncated mid-literal.
        let cut = {
            let mut b = Vec::new();
            write_u64(&mut b, 0);
            write_u64(&mut b, 1);
            b.extend_from_slice(&[1, 2, 3]);
            b
        };
        assert_eq!(read_bitmap_rle(&cut, &mut 0, 1, &mut out), None);
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrips(v in any::<u64>()) {
            roundtrip_one(v);
        }

        #[test]
        fn prop_varint_boundary_neighborhoods(bits in 0u32..64, delta in 0u64..3) {
            // Values straddling every bit position, not only the 7-bit
            // splits: shifts exercise each continuation-byte count.
            let base = 1u64 << bits;
            roundtrip_one(base.saturating_add(delta));
            roundtrip_one(base.saturating_sub(delta));
        }

        #[test]
        fn prop_bitmap_roundtrips(words in prop::collection::vec(any::<u64>(), 0..200)) {
            bitmap_roundtrip(&words);
        }

        #[test]
        fn prop_sparse_bitmap_roundtrips(
            len in 1usize..300,
            bits in prop::collection::vec((0usize..300, any::<u64>()), 0..8),
        ) {
            // Mostly-zero bitmaps — the shape dirty deltas actually emit.
            let mut words = vec![0u64; len];
            for (at, w) in bits {
                words[at % len] = w;
            }
            bitmap_roundtrip(&words);
        }

        #[test]
        fn prop_varint_stream_roundtrips(vals in prop::collection::vec(any::<u64>(), 0..50)) {
            // Back-to-back varints (the diff-word stream) must
            // self-delimit without separators.
            let mut buf = Vec::new();
            for &v in &vals {
                write_u64(&mut buf, v);
            }
            let mut pos = 0;
            let mut back = Vec::new();
            while pos < buf.len() {
                back.push(read_u64(&buf, &mut pos).expect("valid stream"));
            }
            prop_assert_eq!(back, vals);
        }
    }
}
