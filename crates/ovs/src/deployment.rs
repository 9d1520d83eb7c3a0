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
use heavykeeper::SlidingTopK;
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
    let report = run_pipeline(flows, ring_capacity, |batch| {
        if let Some(a) = algo.as_mut() {
            a.insert_batch(batch);
        }
    });
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

/// The two-thread skeleton both deployments share: pre-synthesizes the
/// frames (so frame construction is not measured), runs the datapath on
/// a scoped thread, and drains the ring on the calling thread into
/// `consume`.
fn run_pipeline(
    flows: &[FiveTuple],
    ring_capacity: usize,
    consume: impl FnMut(&[FiveTuple]),
) -> DeploymentReport {
    assert!(!flows.is_empty(), "need packets to run");
    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();
    let ring: SpscRing<FiveTuple> = SpscRing::new(ring_capacity);

    let start = Instant::now();
    let (consumed, forwarded) = std::thread::scope(|s| {
        let producer = s.spawn(|| run_datapath(&frames, &ring));
        let consumed = drain_until_closed(&ring, consume);
        (consumed, producer.join().expect("datapath thread"))
    });
    let seconds = start.elapsed().as_secs_f64();
    DeploymentReport {
        mps: consumed as f64 / seconds / 1e6,
        forwarded,
        consumed,
        seconds,
    }
}

/// Results of one windowed deployment run: the plain report plus the
/// telemetry frames the consumer exported at each period boundary.
#[derive(Debug)]
pub struct WindowedDeploymentReport {
    /// The end-to-end pipeline report.
    pub report: DeploymentReport,
    /// The exported window frames, in export order: one initial full
    /// snapshot, then one closed epoch per rotation — exactly the
    /// stream a collector's `submit_window_frame` reassembles.
    pub frames: Vec<Vec<u8>>,
    /// Period boundaries crossed (equals the per-rotation frame count).
    pub rotations: u64,
}

/// [`run_deployment`] with a sliding-window consumer that *feeds the
/// telemetry exporter*: the user-space thread drains the ring in
/// batches into `window`, rotates it every `epoch_packets` consumed
/// packets, and exports a frame at every boundary — an initial
/// [`SlidingTopK::export_frame`] snapshot before the stream, then one
/// [`SlidingTopK::export_delta`] per rotation (the closed epoch as a
/// dirty frame against the empty baseline, O(occupied buckets)). The
/// returned frames are ready for a collector.
///
/// Export happens on the consumer thread between ring drains, exactly
/// where a deployed switch would serialize: the cost shows up in `mps`
/// like every other consumer-side cost.
///
/// # Panics
///
/// Panics if `flows` is empty, `ring_capacity == 0`, or
/// `epoch_packets == 0`.
pub fn run_windowed_deployment(
    flows: &[FiveTuple],
    mut window: SlidingTopK<FiveTuple>,
    switch_id: u64,
    epoch_packets: usize,
    ring_capacity: usize,
) -> (WindowedDeploymentReport, SlidingTopK<FiveTuple>) {
    assert!(epoch_packets > 0, "epoch length must be positive");
    let frames_budget = epoch_packets.min(u32::MAX as usize) as u32;
    // The frame stream starts from a full snapshot of the (empty) ring.
    let mut exported: Vec<Vec<u8>> = vec![window.export_frame(switch_id, frames_budget)];
    let mut until_rotation = epoch_packets;
    let report = run_pipeline(flows, ring_capacity, |mut batch| {
        // Split drained batches at period boundaries: a rotation lands
        // between packet `epoch_packets` and packet `epoch_packets + 1`
        // of the sub-stream, exactly like the trace-driven windowed
        // ingest.
        while !batch.is_empty() {
            let (now, rest) = batch.split_at(batch.len().min(until_rotation));
            window.insert_batch(now);
            batch = rest;
            until_rotation -= now.len();
            if until_rotation == 0 {
                window.rotate();
                // A W = 1 ring has no closed epoch to ship (its only
                // slot is the accumulating one); fall back to a full
                // frame so every rotation still exports.
                exported.push(
                    window
                        .export_delta(switch_id, frames_budget)
                        .unwrap_or_else(|| window.export_frame(switch_id, frames_budget)),
                );
                until_rotation = epoch_packets;
            }
        }
    });
    let rotations = window.rotations();
    (
        WindowedDeploymentReport {
            report,
            frames: exported,
            rotations,
        },
        window,
    )
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

    #[test]
    fn windowed_deployment_exports_collectible_frames() {
        use heavykeeper::collector::{AggregationRule, Collector};

        let pkts = flows(60_000, 200);
        let win =
            SlidingTopK::<FiveTuple>::new(HkConfig::builder().width(256).k(10).seed(5).build(), 3);
        let (out, win) = run_windowed_deployment(&pkts, win, 42, 10_000, 1024);
        assert_eq!(out.report.consumed, 60_000);
        assert_eq!(out.rotations, 6, "60k packets / 10k per epoch");
        // One initial snapshot + one closed epoch per rotation.
        assert_eq!(out.frames.len(), 1 + out.rotations as usize);

        // The frame stream reassembles loss-free at a collector.
        let mut coll = Collector::<FiveTuple>::new(10, AggregationRule::Sum);
        for frame in &out.frames {
            coll.submit_window_frame(frame).unwrap();
        }
        assert!(coll.resync_needed().is_empty());
        let replica = coll.switch_window(42).expect("switch installed");
        assert_eq!(replica.rotations(), win.rotations());
        // Every *closed* epoch is bit-identical (the switch's newest
        // epoch only had packets after the last export, and here the
        // trace length is a multiple of the epoch length, so both
        // newest epochs are empty and the whole ring matches).
        assert_eq!(replica.live_epochs(), win.live_epochs());
        for (ea, eb) in replica.epoch_iter().zip(win.epoch_iter()) {
            for j in 0..ea.sketch().arrays() {
                for i in 0..ea.sketch().width() {
                    assert_eq!(ea.sketch().bucket(j, i), eb.sketch().bucket(j, i));
                }
            }
        }
        // Window queries answered from the collector match the
        // switch-local view.
        for &f in pkts.iter().take(50) {
            assert_eq!(replica.query(&f), win.query(&f));
        }
    }
}
