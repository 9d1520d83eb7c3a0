//! The two-thread OVS deployment: datapath producer + sketch consumer.
//!
//! Mirrors the paper's Section VII architecture: the datapath thread
//! parses and forwards frames and writes flow IDs into the shared ring;
//! the user-space thread drains the ring and feeds the measurement
//! algorithm. The ring is the workspace's one SPSC ring,
//! [`heavykeeper::spsc::SpscRing`]. A full ring stalls the datapath
//! until the consumer frees space, so end-to-end throughput is gated by
//! the slower stage, like the paper's saturated pipeline. The datapath
//! closes the ring after the last packet, and the consumer stops once
//! it is closed and drained.
//! End-to-end throughput — packets fully processed per second — is what
//! Figure 34 compares across algorithms (plus a no-algorithm OVS
//! baseline).
//!
//! The consumer is **batch-first**: it drains up to
//! [`CONSUMER_BATCH`] flow IDs per ring visit and feeds them to the
//! algorithm through one
//! [`insert_batch`](hk_common::TopKAlgorithm::insert_batch) call, so the
//! prepared-key prolog and bucket walk amortize over the whole drained
//! batch. Batch size adapts to load automatically: under backpressure
//! drains run full, on an idle ring they shrink to whatever arrived.

use crate::datapath::{synthesize_frame, Datapath, FRAME_LEN};
use heavykeeper::spsc::SpscRing;
use hk_common::algorithm::TopKAlgorithm;
use hk_traffic::flow::FiveTuple;
use std::time::Instant;

/// Most flow IDs the consumer drains into one `insert_batch` call.
pub const CONSUMER_BATCH: usize = 512;

/// Results of one deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// End-to-end throughput in million packets per second: packets the
    /// *consumer* fully processed, divided by wall time.
    pub mps: f64,
    /// Packets the datapath forwarded.
    pub forwarded: u64,
    /// Packets the algorithm consumed.
    pub consumed: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs the deployment over `flows`, feeding `algo` in the consumer
/// thread. `ring_capacity` models the shared-memory region size.
///
/// When `algo` is `None`, the consumer still drains the ring but runs no
/// algorithm — the paper's "original OVS" baseline in Figure 34.
///
/// The frames are synthesized before the clock starts (frame
/// construction is not measured); the datapath runs on a scoped thread
/// and the calling thread drains the ring.
///
/// # Panics
///
/// Panics if `flows` is empty or `ring_capacity == 0`.
pub fn run_deployment<A>(
    flows: &[FiveTuple],
    mut algo: Option<A>,
    ring_capacity: usize,
) -> (DeploymentReport, Option<A>)
where
    A: TopKAlgorithm<FiveTuple> + Send,
{
    assert!(!flows.is_empty(), "need packets to run");
    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();
    let ring: SpscRing<FiveTuple> = SpscRing::new(ring_capacity);

    let start = Instant::now();
    let (consumed, forwarded) = std::thread::scope(|s| {
        let producer = s.spawn(|| run_datapath(&frames, &ring));
        let consumed = drain_until_closed(&ring, |batch| {
            if let Some(a) = algo.as_mut() {
                a.insert_batch(batch);
            }
        });
        (consumed, producer.join().expect("datapath thread"))
    });
    let seconds = start.elapsed().as_secs_f64();
    let report = DeploymentReport {
        mps: consumed as f64 / seconds / 1e6,
        forwarded,
        consumed,
        seconds,
    };
    (report, algo)
}

/// The user-space side of the ring: drains it in batches of at most
/// [`CONSUMER_BATCH`] items, hands each batch to `consume`, and returns
/// how many items it consumed once the producer has closed the ring
/// and the backlog is drained.
fn drain_until_closed<T>(ring: &SpscRing<T>, mut consume: impl FnMut(&[T])) -> u64 {
    let mut batch: Vec<T> = Vec::with_capacity(CONSUMER_BATCH);
    let mut consumed = 0u64;
    loop {
        batch.clear();
        if ring.pop_batch(&mut batch, CONSUMER_BATCH) == 0 {
            // Closed is checked before empty: every push precedes the
            // close, so a closed ring that reads empty stays empty.
            if ring.is_closed() && ring.is_empty() {
                return consumed;
            }
            // Yield rather than spin: an idle consumer re-reading the
            // ring's counters pulls their cache line away from the
            // producer on every poll, slowing the datapath it waits on.
            std::thread::yield_now();
            continue;
        }
        consumed += batch.len() as u64;
        consume(&batch);
    }
}

/// The datapath thread: parses and forwards the frames a burst at a
/// time, mirrors each burst's flow IDs into `ring` (spinning while it
/// is full), and closes the ring after the last one. Returns the
/// packets forwarded.
fn run_datapath(frames: &[[u8; FRAME_LEN]], ring: &SpscRing<FiveTuple>) -> u64 {
    let mut dp = Datapath::new();
    let mut mirror: Vec<FiveTuple> = Vec::with_capacity(CONSUMER_BATCH);
    for burst in frames.chunks(CONSUMER_BATCH) {
        mirror.clear();
        dp.process_batch(burst.iter().map(|f| f.as_slice()), &mut mirror);
        for &ft in &mirror {
            // Only this thread closes the ring, so a refused push is
            // always a full ring: wait for the consumer.
            let mut item = ft;
            while let Err(full) = ring.try_push(item) {
                item = full.into_inner();
                std::hint::spin_loop();
            }
        }
    }
    ring.close();
    dp.forwarded()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heavykeeper::{HkConfig, ParallelTopK};

    fn flows(n: u64, distinct: u64) -> Vec<FiveTuple> {
        (0..n)
            .map(|i| FiveTuple::from_index(i % distinct))
            .collect()
    }

    #[test]
    fn backpressure_processes_every_packet() {
        let pkts = flows(200_000, 100);
        let algo = ParallelTopK::<FiveTuple>::new(HkConfig::builder().width(256).k(10).build());
        let (report, algo) = run_deployment(&pkts, Some(algo), 1024);
        assert_eq!(report.forwarded, 200_000);
        assert_eq!(report.consumed, 200_000);
        assert!(report.mps > 0.0);
        // The algorithm actually saw the traffic.
        let top = algo.unwrap().top_k();
        assert_eq!(top.len(), 10);
        assert!(top[0].1 > 1000);
    }

    #[test]
    fn no_algorithm_baseline_runs() {
        let pkts = flows(100_000, 50);
        let (report, _) = run_deployment::<ParallelTopK<FiveTuple>>(&pkts, None, 1024);
        assert_eq!(report.consumed, 100_000);
    }

    #[test]
    #[should_panic(expected = "need packets")]
    fn empty_trace_panics() {
        run_deployment::<ParallelTopK<FiveTuple>>(&[], None, 8);
    }
}
