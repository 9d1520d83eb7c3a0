//! Differential tests for the batch-first sliding-window engine.
//!
//! The windowed rewrite changed three things at once: evicted epochs
//! are *recycled* (memset + RNG rewind) instead of freshly allocated,
//! ingest rides the prepared-batch pipeline instead of scalar inserts,
//! and window queries share one prehash across epochs. None of that
//! may change a single
//! observable bit: this test drives [`SlidingTopK`] against a
//! replica of the pre-refactor implementation — scalar inserts, a
//! freshly allocated `ParallelTopK` per rotation, quadratic candidate
//! dedup, per-candidate full-window re-query — and compares top-k
//! reports and point queries after every rotation, across enough
//! rotations that every epoch slot has been recycled several times.

use std::collections::VecDeque;

use heavykeeper::{HkConfig, ParallelTopK, SlidingTopK};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};

/// The seed (pre-refactor) sliding window, reconstructed over the
/// public `ParallelTopK` API: every rotation allocates a brand-new
/// epoch, every packet is a scalar insert, every candidate is
/// re-queried against all epochs with fresh hashing.
struct SeedSlidingTopK {
    epochs: VecDeque<ParallelTopK<u64>>,
    cfg: HkConfig,
    window: usize,
}

impl SeedSlidingTopK {
    fn new(cfg: HkConfig, window: usize) -> Self {
        let mut epochs = VecDeque::with_capacity(window);
        epochs.push_back(ParallelTopK::new(cfg.clone()));
        Self {
            epochs,
            cfg,
            window,
        }
    }

    fn insert(&mut self, key: &u64) {
        self.epochs.back_mut().unwrap().insert(key);
    }

    fn rotate(&mut self) {
        if self.epochs.len() == self.window {
            self.epochs.pop_front();
        }
        self.epochs.push_back(ParallelTopK::new(self.cfg.clone()));
    }

    fn query(&self, key: &u64) -> u64 {
        self.epochs.iter().map(|e| e.query(key)).sum()
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for epoch in &self.epochs {
            for (key, _) in epoch.top_k() {
                if !seen.iter().any(|(k, _)| *k == key) {
                    let est = self.query(&key);
                    seen.push((key, est));
                }
            }
        }
        seen.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        seen.truncate(self.cfg.k);
        seen
    }
}

fn cfg(width: usize, k: usize, seed: u64) -> HkConfig {
    HkConfig::builder()
        .arrays(2)
        .width(width)
        .k(k)
        .seed(seed)
        .build()
}

/// A deterministic skewed stream: half elephants (small IDs), half mice.
fn stream(n: usize, heavy: u64, tail: u64, seed: u64) -> Vec<u64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(2) {
                (state >> 1) % heavy
            } else {
                heavy + state % tail
            }
        })
        .collect()
}

fn assert_same_view(seed_win: &SeedSlidingTopK, win: &SlidingTopK<u64>, universe: u64, ctx: &str) {
    assert_eq!(seed_win.top_k(), win.top_k(), "{ctx}: top-k diverged");
    for f in 0..universe {
        assert_eq!(
            seed_win.query(&f),
            win.query(&f),
            "{ctx}: query({f}) diverged"
        );
    }
}

/// The core differential: scalar fresh-epoch seed vs batched recycled
/// window, compared after every rotation, with rotations ≫ window so
/// recycled epochs dominate.
#[test]
fn batched_recycled_window_is_bit_exact_with_seed() {
    let pkts = stream(48_000, 10, 1200, 99);
    let universe = 10 + 1200 + 1;
    for window in [1usize, 2, 3] {
        for batch in [1usize, 7, 64, 1024] {
            let mut seed_win = SeedSlidingTopK::new(cfg(128, 8, 5), window);
            let mut win = SlidingTopK::<u64>::new(cfg(128, 8, 5), window);
            // 12 periods of 4000 packets: every slot of a 3-epoch ring
            // is recycled at least three times.
            for (n, period) in pkts.chunks(4000).enumerate() {
                for p in period {
                    seed_win.insert(p);
                }
                for chunk in period.chunks(batch) {
                    win.insert_batch(chunk);
                }
                assert_same_view(
                    &seed_win,
                    &win,
                    universe,
                    &format!("window={window} batch={batch} period={n} pre-rotate"),
                );
                seed_win.rotate();
                win.rotate();
                assert_same_view(
                    &seed_win,
                    &win,
                    universe,
                    &format!("window={window} batch={batch} period={n} post-rotate"),
                );
            }
        }
    }
}

/// Interleaving queries between batches must not disturb ingest
/// (queries only read the ring); scalar trait inserts and batched
/// inserts may also be mixed freely.
#[test]
fn interleaved_queries_and_mixed_ingest_stay_exact() {
    let pkts = stream(30_000, 8, 800, 123);
    let universe = 8 + 800 + 1;
    let mut seed_win = SeedSlidingTopK::new(cfg(128, 8, 7), 3);
    let mut win = SlidingTopK::<u64>::new(cfg(128, 8, 7), 3);
    for (n, chunk) in pkts.chunks(611).enumerate() {
        for p in chunk {
            seed_win.insert(p);
        }
        if n % 2 == 0 {
            win.insert_batch(chunk);
        } else {
            for p in chunk {
                TopKAlgorithm::insert(&mut win, p);
            }
        }
        // Probe mid-stream, between rotations.
        let probe = (n as u64 * 13) % universe;
        assert_eq!(seed_win.query(&probe), win.query(&probe), "chunk {n}");
        if n % 9 == 8 {
            seed_win.rotate();
            win.rotate();
        }
    }
    assert_same_view(&seed_win, &win, universe, "final");
}

/// The `PreparedInsert` path (upstream stage hands prehashed keys in)
/// is observation-equivalent too.
#[test]
fn prepared_insert_path_matches_seed() {
    let pkts = stream(20_000, 6, 500, 42);
    let universe = 6 + 500 + 1;
    let mut seed_win = SeedSlidingTopK::new(cfg(128, 6, 3), 2);
    let mut win = SlidingTopK::<u64>::new(cfg(128, 6, 3), 2);
    let spec = win.hash_spec();
    for (n, p) in pkts.iter().enumerate() {
        seed_win.insert(p);
        let prepared = spec.prepare(p.to_le_bytes().as_slice());
        win.insert_prepared(p, &prepared);
        if n % 4000 == 3999 {
            seed_win.rotate();
            win.rotate();
        }
    }
    assert_same_view(&seed_win, &win, universe, "prepared-insert");
}

/// Recycling must leave nothing behind: after a flow's epochs have all
/// rotated out, the recycled ring reports it exactly like the
/// fresh-allocation seed — zero.
#[test]
fn recycled_ring_forgets_like_fresh_allocations() {
    let mut seed_win = SeedSlidingTopK::new(cfg(256, 4, 11), 2);
    let mut win = SlidingTopK::<u64>::new(cfg(256, 4, 11), 2);
    for round in 0..8u64 {
        let flow = round; // each period has its own elephant
        let period: Vec<u64> = vec![flow; 3000];
        for p in &period {
            seed_win.insert(p);
        }
        win.insert_batch(&period);
        seed_win.rotate();
        win.rotate();
        for old in 0..round.saturating_sub(1) {
            assert_eq!(win.query(&old), 0, "round {round}: flow {old} lingered");
            assert_eq!(seed_win.query(&old), 0);
        }
    }
}
