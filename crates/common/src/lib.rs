//! Shared substrate for the HeavyKeeper reproduction.
//!
//! This crate contains the building blocks that both the HeavyKeeper
//! implementations (`heavykeeper` crate) and all baseline algorithms
//! (`hk-baselines` crate) are built from:
//!
//! * [`hash`] — from-scratch xxHash64 and MurmurHash3 implementations plus
//!   a seeded, 2-universal hash family. The paper requires `d` 2-way
//!   independent hash functions (Section III-B); this module provides them
//!   without external hash crates.
//! * [`prepared`] — the prepared-key derivation (one 64-bit hash per
//!   packet → per-array slots + fingerprint) shared by HeavyKeeper, the
//!   baselines and the sharded engine, with batch prehashing.
//! * [`fingerprint`] — flow-fingerprint extraction and collision-probability
//!   helpers (paper footnote 1).
//! * [`stream_summary`] — the Stream-Summary structure of Metwally et al.
//!   used by Space-Saving and by HeavyKeeper's top-k bookkeeping, with O(1)
//!   amortized increment and replace-min.
//! * [`topk`] — an indexed min-heap top-k tracker, the didactic structure
//!   the paper uses to explain the algorithms.
//! * [`crc`] — CRC-32 (IEEE) for wire-payload integrity (the windowed
//!   telemetry frames checksum every epoch payload).
//! * [`varint`] — LEB128 varints and run-length-encoded bitmaps, the
//!   coding substrate of the dirty (wire v4) telemetry frames.
//! * [`prng`] — a tiny, fast xorshift PRNG used for decay coin flips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod crc;
pub mod fingerprint;
pub mod hash;
pub mod key;
pub mod prepared;
pub mod prng;
pub mod stream_summary;
pub mod topk;
pub mod varint;

pub use algorithm::{EpochRotate, PreparedInsert, ShardCheckpoint, ShardReshard, TopKAlgorithm};
pub use crc::crc32;
pub use fingerprint::fingerprint_of;
pub use hash::{HashFamily, SeededHasher};
pub use key::{FlowKey, KeyBytes};
pub use prepared::{prepare_key, HashSpec, KeySlots, PreparedBatch, PreparedKey, SlottedKey};
pub use prng::XorShift64;
pub use stream_summary::StreamSummary;
pub use topk::MinHeapTopK;
