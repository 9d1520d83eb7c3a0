//! Throughput measurement (paper Section VI-B, "Throughput").
//!
//! The paper defines throughput as `N / T` in million insertions per
//! second (Mps): insert the whole trace, record wall time. Since the
//! batch-first refactor the harness measures explicit ingest modes:
//!
//! * [`IngestMode::Scalar`] — one [`TopKAlgorithm::insert`] call per
//!   packet, the paper's original per-packet discipline;
//! * [`IngestMode::Batched`] — the trace chunked through
//!   [`TopKAlgorithm::insert_batch`], exercising the prepared-key
//!   prolog.
//!
//! [`measure_mps`] keeps its pre-refactor signature and rides the
//! batched path (one whole-trace batch). All modes are
//! observation-equivalent; only the per-packet overhead differs. The
//! workspace's benchmark harness (`ledger/`, run through
//! `BENCHMARK.json`) times ingest layer by layer; this module serves
//! the per-figure binaries.
//!
//! Windowed workloads — the sliding-window scenario, where a period
//! clock rotates epochs during ingest — are fed by [`ingest_windowed`]:
//! the same ingest modes, plus an [`EpochRotate::rotate_epoch`] call
//! every `epoch_packets` packets.

use hk_common::algorithm::{EpochRotate, TopKAlgorithm};
use hk_common::key::FlowKey;
use std::time::Instant;

/// How packets are handed to the algorithm during measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One `insert` call per packet.
    Scalar,
    /// `insert_batch` over chunks of the given size.
    Batched(usize),
}

/// The result of a throughput run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Million insertions per second (best of the measured repeats).
    pub mps_best: f64,
    /// Million insertions per second (mean over repeats).
    pub mps_mean: f64,
    /// Packets inserted per repeat.
    pub packets: usize,
}

/// Measures insertion throughput of `make_algo`'s product over `packets`
/// on the batched path (one whole-trace `insert_batch` per repeat).
///
/// A fresh algorithm instance is built per repeat (inserting into a
/// *full* structure differs from a cold one; the paper times full-trace
/// insertion, so each repeat replays the whole trace from scratch).
/// Returns Mps statistics over `repeats` runs.
///
/// # Panics
///
/// Panics if `packets` is empty or `repeats == 0`.
pub fn measure_mps<K, A, F>(make_algo: F, packets: &[K], repeats: usize) -> ThroughputReport
where
    K: FlowKey,
    A: TopKAlgorithm<K>,
    F: FnMut() -> A,
{
    measure_mps_with(
        make_algo,
        packets,
        repeats,
        IngestMode::Batched(packets.len().max(1)),
    )
}

/// [`measure_mps`] under an explicit ingest mode.
///
/// # Panics
///
/// Panics if `packets` is empty, `repeats == 0`, or a batched mode has
/// batch size 0.
pub fn measure_mps_with<K, A, F>(
    mut make_algo: F,
    packets: &[K],
    repeats: usize,
    mode: IngestMode,
) -> ThroughputReport
where
    K: FlowKey,
    A: TopKAlgorithm<K>,
    F: FnMut() -> A,
{
    assert!(!packets.is_empty(), "need packets to measure");
    assert!(repeats > 0, "need at least one repeat");
    if let IngestMode::Batched(b) = mode {
        assert!(b > 0, "batch size must be positive");
    }

    let ingest = |algo: &mut A, packets: &[K]| match mode {
        IngestMode::Scalar => {
            for p in packets {
                algo.insert(p);
            }
        }
        IngestMode::Batched(batch) => {
            for chunk in packets.chunks(batch) {
                algo.insert_batch(chunk);
            }
        }
    };

    // Warm-up run: touches the allocator and fills caches.
    {
        let mut algo = make_algo();
        ingest(&mut algo, &packets[..packets.len().min(100_000)]);
    }

    let mut best = 0.0f64;
    let mut sum = 0.0f64;
    for _ in 0..repeats {
        let mut algo = make_algo();
        let start = Instant::now();
        ingest(&mut algo, packets);
        let secs = start.elapsed().as_secs_f64();
        let mps = packets.len() as f64 / secs / 1e6;
        best = best.max(mps);
        sum += mps;
        // Keep the optimizer honest: consume a result.
        std::hint::black_box(algo.top_k().len());
    }
    ThroughputReport {
        mps_best: best,
        mps_mean: sum / repeats as f64,
        packets: packets.len(),
    }
}

/// Feeds `packets` as `epoch_packets`-sized periods under `mode`,
/// calling [`EpochRotate::rotate_epoch`] at every *interior* period
/// boundary (no rotation after the final, possibly short, period).
///
/// The one definition of the windowed ingest discipline — the
/// throughput harness and the CLI's `hk run --window` both drive
/// through it, so their notion of a period boundary cannot diverge.
///
/// # Panics
///
/// Panics if `epoch_packets == 0` or a batched mode has batch size 0.
pub fn ingest_windowed<K, A>(algo: &mut A, packets: &[K], mode: IngestMode, epoch_packets: usize)
where
    K: FlowKey,
    A: TopKAlgorithm<K> + EpochRotate,
{
    assert!(epoch_packets > 0, "epoch length must be positive");
    if let IngestMode::Batched(b) = mode {
        assert!(b > 0, "batch size must be positive");
    }
    let mut periods = packets.chunks(epoch_packets).peekable();
    while let Some(period) = periods.next() {
        match mode {
            IngestMode::Scalar => {
                for p in period {
                    algo.insert(p);
                }
            }
            IngestMode::Batched(batch) => {
                for chunk in period.chunks(batch) {
                    algo.insert_batch(chunk);
                }
            }
        }
        if periods.peek().is_some() {
            algo.rotate_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heavykeeper::{HkConfig, ParallelTopK};

    #[test]
    fn reports_positive_throughput() {
        let packets: Vec<u64> = (0..50_000u64).map(|i| i % 100).collect();
        let r = measure_mps(
            || ParallelTopK::<u64>::new(HkConfig::builder().width(256).k(10).build()),
            &packets,
            2,
        );
        assert!(r.mps_best > 0.0);
        assert!(r.mps_mean > 0.0);
        assert!(r.mps_best >= r.mps_mean - 1e-9);
        assert_eq!(r.packets, 50_000);
    }

    #[test]
    fn scalar_and_batched_modes_run() {
        let packets: Vec<u64> = (0..30_000u64).map(|i| i % 64).collect();
        let mk = || ParallelTopK::<u64>::new(HkConfig::builder().width(128).k(8).build());
        for mode in [IngestMode::Scalar, IngestMode::Batched(1024)] {
            let r = measure_mps_with(mk, &packets, 1, mode);
            assert!(r.mps_best > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn windowed_modes_run_and_rotate() {
        use heavykeeper::sliding::SlidingTopK;
        let packets: Vec<u64> = (0..30_000u64).map(|i| i % 64).collect();
        for mode in [IngestMode::Scalar, IngestMode::Batched(1024)] {
            let mut win = SlidingTopK::<u64>::new(HkConfig::builder().width(128).k(8).build(), 3);
            ingest_windowed(&mut win, &packets, mode, 10_000);
            // Rotation count is deterministic: interior boundaries only.
            assert_eq!(win.rotations(), 2, "{mode:?}");
            assert!(!win.top_k().is_empty(), "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_panics() {
        let mut win = heavykeeper::sliding::SlidingTopK::<u64>::new(
            HkConfig::builder().width(16).k(2).build(),
            2,
        );
        ingest_windowed(&mut win, &[1u64], IngestMode::Scalar, 0);
    }

    #[test]
    #[should_panic(expected = "need packets")]
    fn empty_trace_panics() {
        let packets: Vec<u64> = vec![];
        measure_mps(
            || ParallelTopK::<u64>::new(HkConfig::builder().width(16).k(2).build()),
            &packets,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let packets: Vec<u64> = vec![1];
        measure_mps_with(
            || ParallelTopK::<u64>::new(HkConfig::builder().width(16).k(2).build()),
            &packets,
            1,
            IngestMode::Batched(0),
        );
    }
}
