//! Ablation (extension, `hk-ovs::rss`): multi-queue scale-out of the
//! Section VII deployment. One datapath thread feeds a `q`-shard
//! `ShardedEngine`, which RSS-steers the traffic over `q` rings; the
//! `q` shard workers run independent HeavyKeepers that are Sum-merged
//! into the port-wide view. Prints aggregate Mps and the merged view's
//! accuracy per queue count.
//!
//! Expected shape: consumer-side throughput stops being the bottleneck
//! as queues are added (the single producer becomes the limit), and
//! accuracy is unchanged — RSS is flow-affine, so the merge is exact.

use heavykeeper::HkConfig;
use hk_bench::{scale, seed};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;
use hk_metrics::accuracy::evaluate_topk;
use hk_ovs::rss::run_rss_deployment;
use hk_traffic::flow::FiveTuple;
use hk_traffic::oracle::ExactCounter;

const QUEUES: &[usize] = &[1, 2, 4, 8];

fn main() {
    let trace = hk_traffic::presets::campus_like(scale(), seed());
    let oracle = ExactCounter::from_packets(&trace.packets);
    let k = 100;
    let store_bytes = k * (FiveTuple::ENCODED_LEN + 4);
    let cfg = HkConfig::builder()
        .memory_bytes(20 * 1024 - store_bytes)
        .k(k)
        .seed(seed())
        .build();

    println!(
        "# Ablation: RSS multi-queue deployment (campus-like, scale={}, 20 KB/queue, k={k})",
        scale()
    );
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>12}",
        "queues", "Mps", "precision", "ARE", "queue_imbal"
    );
    for &q in QUEUES {
        let (report, merged) = run_rss_deployment(&trace.packets, &cfg, q);
        let acc = evaluate_topk(&merged.top_k(), &oracle, k);
        let max_q = *report.per_queue.iter().max().unwrap() as f64;
        let mean_q = report.per_queue.iter().sum::<u64>() as f64 / q as f64;
        println!(
            "{q:>7} {:>10.2} {:>10.3} {:>10.4} {:>12.2}",
            report.mps,
            acc.precision,
            acc.are,
            max_q / mean_q,
        );
    }
}
