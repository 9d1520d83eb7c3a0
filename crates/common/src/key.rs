//! Flow-key abstraction.
//!
//! Every sketch in this workspace hashes *flow IDs* — in the paper a
//! 5-tuple (src IP, dst IP, src port, dst port, protocol), a src/dst
//! address pair for the CAIDA dataset, or an opaque integer for synthetic
//! traces. [`FlowKey`] is the small trait that lets each algorithm accept
//! any of them: it provides a stable byte representation for hashing
//! without forcing a heap allocation on the per-packet hot path.

use std::hash::Hash;

/// Maximum flow-key width in bytes (a 5-tuple is 13 bytes).
pub const MAX_KEY_BYTES: usize = 16;

/// An inline, fixed-capacity byte string holding a flow key's encoding.
///
/// Behaves like a tiny `Vec<u8>` capped at [`MAX_KEY_BYTES`]; exists so
/// that `FlowKey::key_bytes` never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyBytes {
    len: u8,
    buf: [u8; MAX_KEY_BYTES],
}

impl KeyBytes {
    /// Wraps a byte slice (at most [`MAX_KEY_BYTES`] long).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`MAX_KEY_BYTES`].
    #[inline]
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= MAX_KEY_BYTES, "flow key too wide");
        let mut buf = [0u8; MAX_KEY_BYTES];
        buf[..bytes.len()].copy_from_slice(bytes);
        Self {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl AsRef<[u8]> for KeyBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A type usable as a flow identifier by every sketch in the workspace.
///
/// Flow IDs are small fixed-width values (at most [`MAX_KEY_BYTES`]
/// bytes — a 5-tuple is 13), so the trait requires `Copy`: every stage
/// that re-buffers keys (the sharded dispatch plane partitioning a
/// batch into per-shard sub-batches, ring transfers, top-k reports) is
/// a plain store into a recycled buffer, never a per-packet `clone()`
/// that could hide an allocation. Being plain data, a key is also
/// `Send + Sync`, so every structure holding keys can cross threads:
/// the sharded engine's shard workers and the telemetry fleet's
/// per-switch fan-out rely on it.
///
/// # Examples
///
/// ```
/// use hk_common::key::FlowKey;
/// let id: u64 = 42;
/// assert_eq!(id.key_bytes().as_slice(), &42u64.to_le_bytes());
/// ```
pub trait FlowKey: Eq + Hash + Copy + Send + Sync {
    /// Width of the byte encoding, used for memory accounting (how many
    /// bytes a structure storing full flow IDs is charged per entry).
    const ENCODED_LEN: usize;

    /// Returns a stable byte encoding of this key for hashing.
    ///
    /// Two keys must encode equal bytes iff they are equal.
    fn key_bytes(&self) -> KeyBytes;

    /// Decodes a key from the encoding produced by
    /// [`FlowKey::key_bytes`]. Key types that support wire
    /// serialization (shipping top-k reports/sketches to a collector)
    /// override this; the default returns `None` ("not decodable").
    fn from_key_bytes(_bytes: &[u8]) -> Option<Self> {
        None
    }
}

/// The order a reported top-k is ranked in: count descending, ties by
/// key bytes ascending. A report drawn from a hash map sorted by count
/// alone would order tied flows by the map's per-instance hash order,
/// and a tie across the k-th place would change the reported set.
pub fn rank_order<K: FlowKey>(a: &(K, u64), b: &(K, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1)
        .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
}

impl FlowKey for u64 {
    const ENCODED_LEN: usize = 8;
    #[inline]
    fn key_bytes(&self) -> KeyBytes {
        KeyBytes::new(&self.to_le_bytes())
    }
    fn from_key_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl FlowKey for u32 {
    const ENCODED_LEN: usize = 4;
    #[inline]
    fn key_bytes(&self) -> KeyBytes {
        KeyBytes::new(&self.to_le_bytes())
    }
    fn from_key_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl FlowKey for u128 {
    const ENCODED_LEN: usize = 16;
    #[inline]
    fn key_bytes(&self) -> KeyBytes {
        KeyBytes::new(&self.to_le_bytes())
    }
    fn from_key_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u128::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl<const N: usize> FlowKey for [u8; N] {
    const ENCODED_LEN: usize = N;
    #[inline]
    fn key_bytes(&self) -> KeyBytes {
        KeyBytes::new(self)
    }
    fn from_key_bytes(bytes: &[u8]) -> Option<Self> {
        bytes.try_into().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let k = 0xDEAD_BEEFu64;
        assert_eq!(k.key_bytes().as_slice(), &k.to_le_bytes());
    }

    #[test]
    fn distinct_keys_distinct_bytes() {
        assert_ne!(1u64.key_bytes(), 2u64.key_bytes());
        assert_ne!(
            1u32.key_bytes(),
            1u64.key_bytes(),
            "width is part of the encoding"
        );
    }

    #[test]
    fn array_key() {
        let k = [1u8, 2, 3, 4, 5];
        assert_eq!(k.key_bytes().as_slice(), &k);
    }

    #[test]
    #[should_panic(expected = "flow key too wide")]
    fn oversized_key_panics() {
        KeyBytes::new(&[0u8; 17]);
    }

    #[test]
    fn max_width_key_ok() {
        let k = [7u8; 16];
        assert_eq!(KeyBytes::new(&k).as_slice().len(), 16);
    }
}
