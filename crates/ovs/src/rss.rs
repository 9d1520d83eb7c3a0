//! Multi-queue (RSS) deployment: one datapath feeding one queue per
//! shard of a [`ShardedEngine`].
//!
//! Real OVS-DPDK deployments spread a port's traffic over several
//! receive queues by hashing the flow ID (Receive Side Scaling), with
//! one poll-mode thread per queue. This module models that scale-out
//! with the workspace's multi-queue engine: the datapath thread parses
//! and forwards each frame burst and hands its flow IDs to a
//! [`ShardedEngine`] of `q` independent [`ParallelTopK`] shards (same
//! config and seed). The engine is RSS in software — it prepares each
//! flow **once**, steers it by the lane fold of that hash (standing in
//! for the NIC's RSS key) to one shard's SPSC ring, and the shard's
//! worker ingests the shipped prepared keys, so no packet is hashed
//! twice anywhere in the pipeline. At the end the per-queue sketches
//! are Sum-merged ([`ShardedEngine::merged`]) into one port-wide view.
//!
//! RSS is flow-affine — every packet of a flow lands in the same queue
//! — so the per-queue streams are *disjoint by flow*: the Sum merge
//! never meets the same fingerprint on both sides of a bucket, and the
//! merged estimate of every flow equals the single-queue estimate of
//! its home queue. Accuracy is therefore *per-flow identical* to a
//! single sketch with the same per-queue dimensions; what changes is
//! capacity: `q` queues bring `q×` the buckets and `q×` the insert
//! bandwidth.

use crate::datapath::{synthesize_frame, Datapath, FRAME_LEN};
use crate::deployment::CONSUMER_BATCH;
use heavykeeper::{HkConfig, ParallelTopK, ShardedEngine};
use hk_common::algorithm::TopKAlgorithm;
use hk_traffic::flow::FiveTuple;
use std::time::Instant;

/// Results of one multi-queue run.
#[derive(Debug, Clone)]
pub struct RssReport {
    /// Aggregate consumer throughput in million packets per second.
    pub mps: f64,
    /// Packets forwarded by the datapath.
    pub forwarded: u64,
    /// Packets consumed, per queue.
    pub per_queue: Vec<u64>,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs the RSS deployment: the datapath (this thread) parses and
/// forwards the frames a burst at a time and feeds each burst's flow
/// IDs to a `queues`-shard engine, then flushes it and Sum-merges the
/// shards into the returned port-wide sketch. The engine's work rings
/// have a fixed depth, so a slow queue stalls the datapath.
///
/// # Panics
///
/// Panics if `flows` is empty, `queues == 0`, or a queue worker dies.
pub fn run_rss_deployment(
    flows: &[FiveTuple],
    cfg: &HkConfig,
    queues: usize,
) -> (RssReport, ParallelTopK<FiveTuple>) {
    assert!(!flows.is_empty(), "need packets to run");
    assert!(queues > 0, "need at least one queue");

    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();
    let mut engine = ShardedEngine::from_fn(queues, cfg.k, |_| ParallelTopK::new(cfg.clone()));

    let start = Instant::now();
    let mut dp = Datapath::new();
    let mut mirror: Vec<FiveTuple> = Vec::with_capacity(CONSUMER_BATCH);
    for burst in frames.chunks(CONSUMER_BATCH) {
        mirror.clear();
        dp.process_batch(burst.iter().map(|f| f.as_slice()), &mut mirror);
        engine.insert_batch(&mirror);
    }
    engine.flush().expect("queue workers stay alive");
    let seconds = start.elapsed().as_secs_f64();

    let per_queue: Vec<u64> = engine
        .obs_snapshot()
        .shards
        .iter()
        .map(|s| s.ingest_packets)
        .collect();
    // Port-wide view: Sum-merge (queues partition the traffic by flow).
    let merged = engine.merged().expect("same config + seed merge");
    let consumed: u64 = per_queue.iter().sum();
    (
        RssReport {
            mps: consumed as f64 / seconds / 1e6,
            forwarded: dp.forwarded(),
            per_queue,
            seconds,
        },
        merged,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(n: u64, distinct: u64) -> Vec<FiveTuple> {
        (0..n)
            .map(|i| FiveTuple::from_index(i % distinct))
            .collect()
    }

    fn cfg() -> HkConfig {
        HkConfig::builder().width(256).k(10).seed(5).build()
    }

    #[test]
    fn every_packet_consumed_exactly_once() {
        let pkts = flows(100_000, 200);
        let (report, _) = run_rss_deployment(&pkts, &cfg(), 4);
        assert_eq!(report.forwarded, 100_000);
        assert_eq!(report.per_queue.iter().sum::<u64>(), 100_000);
        assert!(report.mps > 0.0);
    }

    #[test]
    fn merged_view_finds_the_port_wide_elephants() {
        // 10 elephants spread across queues by RSS; the merged sketch
        // must rank all of them with exact (uncontended) counts.
        let mut pkts = Vec::new();
        for round in 0..1000u64 {
            for e in 0..10u64 {
                pkts.push(FiveTuple::from_index(e));
            }
            pkts.push(FiveTuple::from_index(1000 + round));
        }
        let (_, merged) = run_rss_deployment(&pkts, &cfg(), 4);
        let top = merged.top_k();
        assert_eq!(top.len(), 10);
        for (f, est) in &top {
            assert!(*est <= 1000, "no over-estimation across the merge");
            let is_elephant = (0..10u64).any(|i| FiveTuple::from_index(i) == *f);
            assert!(is_elephant, "non-elephant {f:?} in merged top-k");
        }
    }

    #[test]
    fn single_queue_equals_plain_deployment_accuracy() {
        // queues = 1 degenerates to the Section VII two-thread pipeline,
        // and the prepared handoff must be bit-exact with direct scalar
        // insertion.
        let pkts = flows(50_000, 100);
        let (report, merged) = run_rss_deployment(&pkts, &cfg(), 1);
        assert_eq!(report.per_queue, vec![50_000]);
        let mut direct = ParallelTopK::<FiveTuple>::new(cfg());
        for p in &pkts {
            direct.insert(p);
        }
        assert_eq!(merged.top_k(), direct.top_k());
    }

    #[test]
    #[should_panic(expected = "need at least one queue")]
    fn zero_queues_panics() {
        run_rss_deployment(&flows(10, 2), &cfg(), 0);
    }
}
