//! Simulated Open vSwitch deployment (paper Section VII).
//!
//! The paper integrates HeavyKeeper into OVS-DPDK: the datapath parses
//! each packet, forwards it, and mirrors the flow ID into a shared-memory
//! region; a user-space program consumes flow IDs and feeds the
//! measurement algorithm. Figure 34 reports the end-to-end throughput of
//! that pipeline per algorithm.
//!
//! We do not have OVS, DPDK, or a 40G testbed, so this crate builds the
//! pipeline itself (see DESIGN.md §2): raw packet synthesis and header
//! parsing ([`datapath`]), and a two-thread deployment that measures
//! the same end-to-end throughput ([`deployment`]) over the workspace's
//! bounded SPSC ring ([`heavykeeper::spsc::SpscRing`]) standing in for
//! the shared-memory region; [`rss`] scales it out to one ring per
//! receive queue. The *relative* impact of each algorithm on pipeline
//! throughput — the quantity Figure 34 compares — is preserved; absolute
//! Mps obviously reflect this machine, as the paper's reflect theirs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datapath;
pub mod deployment;
pub mod rss;

pub use datapath::{parse_packet, synthesize_frame, Datapath};
pub use deployment::{run_deployment, DeploymentReport, RingMode};
