//! Figure 34: Throughput on the (simulated) Open vSwitch platform.
//!
//! Reproduces the Section VII experiment: a datapath thread parses
//! synthetic frames and mirrors flow IDs through a shared ring to a
//! user-space consumer running the measurement algorithm. The paper
//! compares original OVS (no algorithm), both HeavyKeeper versions, the
//! CM sketch, Space-Saving, and Lossy Counting at 50 KB.

use heavykeeper::{MinimumTopK, ParallelTopK};
use hk_baselines::{CmSketchTopK, LossyCountingTopK, SpaceSavingTopK};
use hk_bench::{emit, scale, seed};
use hk_common::algorithm::TopKAlgorithm;
use hk_metrics::experiment::Series;
use hk_ovs::deployment::run_deployment;
use hk_traffic::flow::FiveTuple;

const RING_CAPACITY: usize = 4096;
const MEM: usize = 50 * 1024;
const K: usize = 100;

type Boxed = Box<dyn TopKAlgorithm<FiveTuple> + Send>;

fn main() {
    let trace = hk_traffic::presets::campus_like(scale(), seed());
    let k = K;
    let s = seed();

    let algos: Vec<(&str, Option<Boxed>)> = vec![
        ("OVS", None),
        (
            "Parallel",
            Some(Box::new(ParallelTopK::<FiveTuple>::with_memory(MEM, k, s))),
        ),
        (
            "Minimum",
            Some(Box::new(MinimumTopK::<FiveTuple>::with_memory(MEM, k, s))),
        ),
        (
            "CMSketch",
            Some(Box::new(CmSketchTopK::<FiveTuple>::with_memory(MEM, k, s))),
        ),
        (
            "SS",
            Some(Box::new(SpaceSavingTopK::<FiveTuple>::with_memory(MEM, k))),
        ),
        (
            "LC",
            Some(Box::new(LossyCountingTopK::<FiveTuple>::with_memory(
                MEM, k,
            ))),
        ),
    ];

    let mut series = Series::new(
        format!(
            "Fig 34: Throughput on simulated OVS (campus-like, scale={}), mem=50KB",
            scale()
        ),
        "algorithm#",
        "Mps",
    );
    for (idx, (name, algo)) in algos.into_iter().enumerate() {
        let (report, _) = run_deployment(&trace.packets, algo, RING_CAPACITY);
        println!(
            "{name:>10}: {:.2} Mps ({} packets, {:.2}s)",
            report.mps, report.consumed, report.seconds
        );
        series.push(idx as f64, vec![(name.to_string(), report.mps)]);
    }
    emit(&series);
}
