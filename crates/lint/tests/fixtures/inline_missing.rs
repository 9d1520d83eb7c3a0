//! Fixture: inline-across-crates, the failing half. The test registry
//! names `hash_key`, `Prepared::slot` and `Prepared::lane`; each lacks
//! the attribute (or carries one that does not inline), so each is
//! reported at its `fn` line.

pub fn hash_key(bytes: &[u8], seed: u64) -> u64 { //~ inline-across-crates
    bytes.iter().fold(seed, |h, &b| h.rotate_left(5) ^ u64::from(b))
}

pub struct Prepared(u64);

impl Prepared {
    /// A doc comment is not an attribute.
    #[must_use]
    pub fn slot(&self, width: u64) -> u64 { //~ inline-across-crates
        self.0 % width
    }

    #[inline(never)]
    pub(crate) fn lane(&self) -> u32 { //~ inline-across-crates
        (self.0 >> 32) as u32
    }
}

/// Same name as the registered method, but another type's: not in the
/// registry, so not reported.
pub struct Other;

impl Other {
    pub fn slot(&self) -> u64 {
        0
    }
}
