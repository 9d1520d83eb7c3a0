//! Multi-queue (RSS) deployment: one ring + consumer per queue.
//!
//! Real OVS-DPDK deployments spread a port's traffic over several
//! receive queues by hashing the flow ID (Receive Side Scaling), with
//! one poll-mode thread per queue. This module models that scale-out:
//! the datapath RSS-hashes each flow to one of `q` rings; `q` consumer
//! threads run *independent* HeavyKeeper instances (same config and
//! seed); at the end the per-queue sketches are Sum-merged
//! ([`heavykeeper::merge`]) into one port-wide view.
//!
//! Since the hash-once dispatch refactor the RSS plane mirrors the
//! sharded engine's discipline: the datapath thread **prepares each
//! parsed flow once** under the consumers' shared
//! [`HashSpec`] and steers by [`PreparedKey::lane`] (a further fold of
//! the same hash, standing in for the NIC's RSS key), then ships the
//! `(flow, prepared)` pair through the ring. Consumers ingest via
//! [`PreparedInsert::insert_prepared_batch`], so no packet is hashed
//! twice anywhere in the pipeline — the queue hash *is* the sketch
//! hash, refolded.
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
use crate::deployment::{drain_until_closed, push_mirror, RingMode, CONSUMER_BATCH};
use heavykeeper::spsc::SpscRing;
use heavykeeper::{HkConfig, ParallelTopK};
use hk_common::algorithm::PreparedInsert;
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, PreparedKey};
use hk_traffic::flow::FiveTuple;
use std::time::Instant;

/// The spec the RSS plane prepares flows under for a given sketch
/// configuration — necessarily the sketches' own spec, so the prepared
/// state steered by it is directly ingestible on the consumer side.
pub fn rss_spec(cfg: &HkConfig) -> HashSpec {
    HashSpec::new(cfg.seed, cfg.fingerprint_bits)
}

/// Which queue a prepared flow's packets land in: the lane fold of the
/// one per-packet hash, multiply-shifted over the queue count (no
/// modulo bias). Flow-affine by construction.
pub fn rss_queue(p: &PreparedKey, queues: usize) -> usize {
    ((p.lane() as u64 * queues as u64) >> 32) as usize
}

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

/// Runs the RSS deployment: one datapath thread (parse, forward,
/// prepare-once, steer), `queues` rings of `(flow, prepared)` pairs and
/// consumer threads each feeding its own HeavyKeeper through the
/// prepared handoff, then a Sum-merge into the returned port-wide
/// sketch.
///
/// # Panics
///
/// Panics if `flows` is empty, `queues == 0`, or `ring_capacity == 0`.
pub fn run_rss_deployment(
    flows: &[FiveTuple],
    cfg: &HkConfig,
    queues: usize,
    ring_capacity: usize,
) -> (RssReport, ParallelTopK<FiveTuple>) {
    assert!(!flows.is_empty(), "need packets to run");
    assert!(queues > 0, "need at least one queue");

    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();
    let rings: Vec<SpscRing<(FiveTuple, PreparedKey)>> =
        (0..queues).map(|_| SpscRing::new(ring_capacity)).collect();
    let spec = rss_spec(cfg);

    let start = Instant::now();
    let mut forwarded = 0u64;
    let mut sketches: Vec<ParallelTopK<FiveTuple>> = Vec::with_capacity(queues);
    let mut per_queue = vec![0u64; queues];

    std::thread::scope(|s| {
        // Per-queue consumers.
        let handles: Vec<_> = rings
            .iter()
            .map(|ring| {
                let cfg = cfg.clone();
                s.spawn(move || {
                    let mut hk = ParallelTopK::<FiveTuple>::new(cfg);
                    debug_assert_eq!(hk.hash_spec(), spec, "rss_spec must match the sketch");
                    // Structure-of-arrays views of each drained batch for
                    // the prepared handoff, reused across drains.
                    let mut keys: Vec<FiveTuple> = Vec::with_capacity(CONSUMER_BATCH);
                    let mut prepared: Vec<PreparedKey> = Vec::with_capacity(CONSUMER_BATCH);
                    let n = drain_until_closed(ring, |batch| {
                        keys.clear();
                        prepared.clear();
                        for &(ft, p) in batch {
                            keys.push(ft);
                            prepared.push(p);
                        }
                        // Hash-once: the datapath already prepared these.
                        hk.insert_prepared_batch(&keys, &prepared);
                    });
                    (hk, n)
                })
            })
            .collect();

        // Datapath producer (this thread): parse, forward, prepare
        // once, steer by the prepared lane.
        let mut dp = Datapath::new();
        for frame in &frames {
            if let Some(ft) = dp.process(frame) {
                let p = spec.prepare(ft.key_bytes().as_slice());
                push_mirror(
                    &rings[rss_queue(&p, queues)],
                    (ft, p),
                    RingMode::Backpressure,
                );
            }
        }
        forwarded = dp.forwarded();
        for ring in &rings {
            ring.close();
        }

        for (q, h) in handles.into_iter().enumerate() {
            let (hk, n) = h.join().expect("consumer thread");
            sketches.push(hk);
            per_queue[q] = n;
        }
    });
    let seconds = start.elapsed().as_secs_f64();

    // Port-wide view: Sum-merge (queues partition the traffic by flow).
    let mut merged = sketches.swap_remove(0);
    for sk in &sketches {
        merged.merge_from(sk).expect("same config + seed merge");
    }

    let consumed: u64 = per_queue.iter().sum();
    (
        RssReport {
            mps: consumed as f64 / seconds / 1e6,
            forwarded,
            per_queue,
            seconds,
        },
        merged,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_common::algorithm::TopKAlgorithm;

    fn flows(n: u64, distinct: u64) -> Vec<FiveTuple> {
        (0..n)
            .map(|i| FiveTuple::from_index(i % distinct))
            .collect()
    }

    fn cfg() -> HkConfig {
        HkConfig::builder().width(256).k(10).seed(5).build()
    }

    #[test]
    fn rss_is_flow_affine_and_covers_all_queues() {
        let qs = 4;
        let spec = rss_spec(&cfg());
        for i in 0..1000u64 {
            let f = FiveTuple::from_index(i);
            let p = spec.prepare(f.key_bytes().as_slice());
            assert_eq!(rss_queue(&p, qs), rss_queue(&p, qs));
        }
        let mut seen = vec![false; qs];
        for i in 0..1000u64 {
            let f = FiveTuple::from_index(i);
            let p = spec.prepare(f.key_bytes().as_slice());
            seen[rss_queue(&p, qs)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some queue never selected");
    }

    #[test]
    fn every_packet_consumed_exactly_once() {
        let pkts = flows(100_000, 200);
        let (report, _) = run_rss_deployment(&pkts, &cfg(), 4, 512);
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
        let (_, merged) = run_rss_deployment(&pkts, &cfg(), 4, 512);
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
        let (report, merged) = run_rss_deployment(&pkts, &cfg(), 1, 512);
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
        run_rss_deployment(&flows(10, 2), &cfg(), 0, 8);
    }
}
