//! Fixture: inline-across-crates, the passing half. The same registry
//! as `inline_missing.rs`; every entry carries `#[inline]` or
//! `#[inline(always)]`, after other attributes and before qualifiers
//! such as `pub(crate)` and `const`.

#[inline]
pub fn hash_key(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, &b| h.rotate_left(5) ^ u64::from(b))
}

pub struct Prepared(u64);

impl Prepared {
    /// Attributes may come in any order.
    #[inline]
    #[must_use]
    pub fn slot(&self, width: u64) -> u64 {
        self.0 % width
    }

    #[inline(always)]
    pub(crate) const fn lane(&self) -> u32 {
        (self.0 >> 32) as u32
    }
}
