//! HeavyKeeper: an accurate algorithm for finding top-k elephant flows.
//!
//! This crate is a from-scratch Rust implementation of the HeavyKeeper
//! sketch (Yang et al., USENIX ATC 2018). HeavyKeeper keeps a small hash
//! table of `(fingerprint, counter)` buckets and applies
//! *count-with-exponential-decay*: a packet whose flow is not the one held
//! in its bucket decays the bucket's counter with probability `b^{-C}`,
//! so mouse flows are washed out quickly while elephant flows, whose
//! counters grow large, become essentially immovable.
//!
//! Three variants are provided, exactly as in the paper:
//!
//! * [`BasicTopK`] — Section III-C: decay in all `d` mapped buckets, plain
//!   min-heap admission (no optimizations). This is the version the
//!   appendix error bound (Theorem 5) is stated for.
//! * [`ParallelTopK`] — Section III-E ("Hardware Parallel version"):
//!   adds Optimization I (fingerprint-collision detection: only admit a
//!   new flow to the top-k structure when `n̂ == n_min + 1`) and
//!   Optimization II (selective increment: don't grow a matching bucket
//!   past `n_min` for flows outside the top-k structure). Each array's
//!   operation is independent, hence hardware-parallel.
//! * [`MinimumTopK`] — Section IV ("Software Minimum version"): per
//!   packet, touch at most one bucket — increment a matching bucket,
//!   else fill the first empty bucket, else decay only the *smallest*
//!   mapped counter ("minimum decay").
//!
//! The optional dynamic expansion of Section III-F (a global counter of
//! blocked insertions that triggers adding a `d+1`-th array) is available
//! through [`config::ExpansionPolicy`].
//!
//! # Quickstart
//!
//! ```
//! use heavykeeper::{HkConfig, ParallelTopK};
//! use hk_common::TopKAlgorithm;
//!
//! // 2 arrays x 256 buckets, track top-8 flows.
//! let cfg = HkConfig::builder().arrays(2).width(256).k(8).seed(1).build();
//! let mut hk = ParallelTopK::<u64>::new(cfg);
//!
//! // A skewed stream: flow 7 is the elephant.
//! for i in 0..10_000u64 {
//!     hk.insert(&7);
//!     hk.insert(&(i % 500 + 100));
//! }
//! let top = hk.top_k();
//! assert_eq!(top[0].0, 7);
//! // No over-estimation (Theorem 2): the estimate cannot exceed 10_000.
//! assert!(top[0].1 <= 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod bucket;
pub mod change;
pub mod collector;
pub mod config;
pub mod decay;
pub mod fault;
pub mod merge;
pub mod minimum;
pub mod parallel;
pub mod reshard;
pub mod sharded;
pub mod sketch;
pub mod sliding;
pub mod spsc;
pub mod stats;
pub mod store;
pub mod weighted;
pub mod wire;

pub use basic::BasicTopK;
pub use change::{ChangeKind, HeavyChange, HeavyChangeDetector};
pub use collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
pub use config::{ExpansionPolicy, HkConfig, HkConfigBuilder, StoreKind};
pub use decay::DecayFn;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use merge::{MergeError, MergeMode};
pub use minimum::MinimumTopK;
pub use parallel::ParallelTopK;
pub use reshard::{ReshardError, ReshardReport};
pub use sharded::{BackpressurePolicy, RecoverError, RecoveryReport, ShardPoisoned, ShardedEngine};
pub use sketch::HkSketch;
pub use sliding::SlidingTopK;
pub use stats::InsertStats;
pub use weighted::WeightedTopK;
pub use wire::{FrameKind, WindowFrame, WireError};
