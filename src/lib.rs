//! Umbrella crate for the HeavyKeeper reproduction workspace.
//!
//! This package exists to host the workspace-level integration tests
//! (`tests/`) and the runnable examples (`examples/`). It re-exports the
//! member crates so that examples and tests can use a single import root.
//!
//! See the individual crates for the actual implementation:
//!
//! * [`heavykeeper`] — the paper's contribution (Basic, Parallel and
//!   Minimum versions of the HeavyKeeper sketch).
//! * [`hk_baselines`] — all comparison algorithms from the evaluation.
//! * [`hk_traffic`] — workload generation and ground-truth oracles.
//! * [`hk_metrics`] — precision / ARE / AAE / throughput harness.
//! * [`hk_ovs`] — the simulated Open vSwitch deployment of Section VII.
//! * [`hk_telemetry`] — the windowed telemetry plane (fleet scenario
//!   driver over the full and dirty window frames).
//! * [`hk_obs`] — the runtime observability plane (stage counters,
//!   log2 histograms, event journal, JSON exposition) built into every
//!   sharded engine and fleet.
//! * [`hk_common`] — shared substrate (hashing, Stream-Summary, top-k).
//! * [`hk_lint`] — the workspace invariant lint (`hk lint`, CI `--deny`
//!   gate, in-process sweep in `crates/lint/tests/`).
#![forbid(unsafe_code)]

pub use heavykeeper;
pub use hk_baselines;
pub use hk_common;
pub use hk_lint;
pub use hk_metrics;
pub use hk_obs;
pub use hk_ovs;
pub use hk_telemetry;
pub use hk_traffic;
