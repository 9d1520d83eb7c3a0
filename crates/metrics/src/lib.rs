//! Accuracy and throughput measurement for the HeavyKeeper evaluation.
//!
//! Implements the paper's metrics (Section VI-B) and the experiment
//! sweeps behind every figure:
//!
//! * [`accuracy`] — Precision (`C/k`), ARE and AAE of reported top-k.
//! * [`ranking`] — order-aware scores beyond the paper: precision@i
//!   curves, Kendall's τ, traffic-weighted overlap.
//! * [`throughput`] — million-insertions-per-second (Mps) measurement.
//! * [`experiment`] — algorithm factories, parameter sweeps and the
//!   table printer used by the per-figure binaries in `hk-bench`.
//!
//! Recovery and reshard accounting lives next to the event journal it
//! folds (`hk_obs::JournalSnapshot::recovery_accounting` and
//! `reshard_accounting`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod experiment;
pub mod ranking;
pub mod throughput;

pub use accuracy::{evaluate_topk, AccuracyReport};
pub use experiment::{Series, SeriesPoint};
pub use ranking::{intersection_at, kendall_tau, weighted_overlap};
pub use throughput::{measure_mps, measure_mps_with, IngestMode};
