//! The `fleet-window` loop: an `hk_telemetry::Fleet` of sliding-window
//! switches exporting dirty frames to one collector, run on one thread,
//! with a windowed top-k read after every rotation.
//!
//! Untraced, the loop calls `Fleet::ingest` and `Fleet::rotate`. Traced,
//! it drives the same switches and collector by hand with the public
//! calls `Fleet::rotate` makes (`switch_of`, `SlidingTopK::insert_batch`,
//! `rotate`, `export_dirty` falling back to `export_delta` and then
//! `export_frame`, and `submit_window_frame`), each inside its own span.

use crate::ingest::SKETCH_SEED;
use crate::measure::{self, ratio, Acc, Check, Digest, Layers, Pass};
use heavykeeper::collector::{AggregationRule, Collector};
use heavykeeper::sliding::SlidingTopK;
use heavykeeper::InsertStats;
use hk_common::key::FlowKey;
use hk_telemetry::{window_digest, ExportMode, Fleet, FleetConfig};
use std::time::Instant;

pub const SWITCHES: usize = 4;
pub const WINDOW: usize = 4;
/// Per switch, split across the window's epochs.
pub const MEMORY: usize = 4 << 20;
pub const K: usize = 100;
/// Packets per epoch, fleet-wide.
pub const EPOCH: usize = 65_536;
pub const EPOCHS: usize = 24;
pub const PACKETS: usize = EPOCH * EPOCHS;
pub const FLOWS: usize = 2_000_000;
pub const SKEW: f64 = 0.8;

pub fn config() -> FleetConfig {
    FleetConfig {
        switches: SWITCHES,
        window: WINDOW,
        epoch_packets: EPOCH,
        k: K,
        memory_bytes: MEMORY,
        seed: SKETCH_SEED,
        mode: ExportMode::Dirty,
        loss: 0.0,
        reorder: 0.0,
        lease: 0,
    }
}

/// A fleet used only for `switch_of` in the hand-driven loop: the
/// partition depends on the seed and the switch count, not on memory.
pub fn router<K: FlowKey>() -> Fleet<K> {
    Fleet::new(FleetConfig {
        memory_bytes: 1 << 12,
        ..config()
    })
}

/// The packets the collector answers for after the last rotation of a
/// pass: the closed epochs still live in a `WINDOW`-epoch ring.
pub fn window_slice<K>(trace: &[K]) -> &[K] {
    let epochs = trace.len() / EPOCH;
    let live = epochs.min(WINDOW - 1);
    &trace[(epochs - live) * EPOCH..epochs * EPOCH]
}

fn newest<K: FlowKey>(sw: &SlidingTopK<K>) -> &InsertStats {
    sw.epoch_iter()
        .last()
        .expect("a window always holds an epoch")
        .stats()
}

/// What the untraced pass reports besides its [`Pass`].
pub struct Extras {
    /// Wire bytes each rotation shipped, fleet-wide.
    pub rotation_bytes: Vec<u64>,
    /// Insertion outcomes of every closed epoch.
    pub stats: InsertStats,
}

/// One untraced pass on a fresh fleet.
pub fn pass<K: FlowKey>(trace: &[K]) -> (Pass, Fleet<K>, Extras) {
    let mut reads_us = Vec::with_capacity(trace.len() / EPOCH);
    let mut rotation_bytes = Vec::with_capacity(trace.len() / EPOCH);
    let mut stats = InsertStats::default();
    let base = measure::rss_bytes();
    let t = Instant::now();
    let mut fleet = Fleet::<K>::new(config());
    let setup_s = t.elapsed().as_secs_f64();
    let mut digest = Digest::default();

    let start = Instant::now();
    for period in trace.chunks_exact(EPOCH) {
        fleet.ingest(period);
        for sw in fleet.switches() {
            stats.absorb(newest(sw));
        }
        fleet.rotate();
        let bytes = fleet.stats().bytes_last_rotation;
        digest.u64(bytes);
        rotation_bytes.push(bytes);
        let r = Instant::now();
        let top = fleet.collector().window_top_k();
        reads_us.push(r.elapsed().as_secs_f64() * 1e6);
        digest.top_k(top);
    }
    let wall = start.elapsed();
    let mem_bytes = measure::rss_bytes().saturating_sub(base);

    let s = *fleet.stats();
    let reads = reads_us.len() as u64;
    let pass = Pass {
        setup_s,
        wall_s: wall.as_secs_f64(),
        packets: trace.len() as u64,
        mem_bytes,
        reads_us,
        digest: digest.finish(),
        attempted: trace.len() as u64 + s.frames_sent + reads,
        failed: (s.frames_sent - s.frames_delivered) + fleet.collector().window_frames_rejected(),
    };
    let extras = Extras {
        rotation_bytes,
        stats,
    };
    (pass, fleet, extras)
}

/// Every collector replica must be bit-identical to its switch.
pub fn replicas_match<K: FlowKey>(collector: &Collector<K>, switches: &[SlidingTopK<K>]) -> Check {
    let bad: Vec<usize> = (0..switches.len())
        .filter(|&i| {
            collector
                .switch_window(i as u64)
                .is_none_or(|r| window_digest(r) != window_digest(&switches[i]))
        })
        .collect();
    Check::new(
        "replica_digest_equals_switch",
        bad.is_empty(),
        format!("mismatched switches {bad:?}"),
    )
}

/// Spans of the hand-driven fleet loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `switch_of` over every packet into per-switch staging.
    pub route: Acc,
    pub sliding_insert: Acc,
    pub rotate: Acc,
    /// Every `export_dirty` call; `dirty_frames` of them shipped.
    pub export_dirty: Acc,
    pub dirty_frames: u64,
    pub dirty_bytes: u64,
    /// Fallbacks inside the loop (first rotation: no shadow yet).
    pub export_delta: Acc,
    pub export_full: Acc,
    pub apply: Acc,
    pub resync: Acc,
    pub read: Acc,
    pub frames_rejected: u64,
    /// Wire bytes of the rotations after the ring filled.
    pub steady_bytes: u64,
    pub steady_rotations: u64,
    pub wall_ns: u64,
    pub packets: u64,
    pub rotations: u64,
    /// Standalone exports of every switch after the last rotation.
    pub probe_full: Acc,
    pub probe_full_bytes: u64,
    pub probe_delta: Acc,
    pub probe_delta_bytes: u64,
}

impl Spans {
    pub fn layers(&self, layers: &mut Layers) {
        let rotate_ns = self.rotate.ns
            + self.export_dirty.ns
            + self.export_delta.ns
            + self.export_full.ns
            + self.apply.ns
            + self.resync.ns;
        layers.insert(
            "sliding.insert_ns_per_pkt",
            self.sliding_insert.ns_per(self.packets),
        );
        layers.insert("sliding.rotate_us", self.rotate.mean_us());
        layers.insert("wire.export_dirty_us", self.export_dirty.mean_us());
        layers.insert(
            "wire.export_dirty_bytes",
            ratio(self.dirty_bytes as f64, self.dirty_frames as f64),
        );
        layers.insert("wire.export_full_us", self.probe_full.mean_us());
        layers.insert(
            "wire.export_full_bytes",
            ratio(self.probe_full_bytes as f64, self.probe_full.calls as f64),
        );
        layers.insert(
            "wire.export_delta_bytes",
            ratio(self.probe_delta_bytes as f64, self.probe_delta.calls as f64),
        );
        layers.insert(
            "wire.bytes_per_rotation",
            ratio(self.steady_bytes as f64, self.steady_rotations as f64),
        );
        layers.insert("collector.apply_us", self.apply.mean_us());
        layers.insert("collector.window_topk_us", self.read.mean_us());
        layers.insert("collector.frames_rejected", self.frames_rejected as f64);
        layers.insert(
            "fleet.ingest_ns_per_pkt",
            ratio(
                (self.route.ns + self.sliding_insert.ns) as f64,
                self.packets as f64,
            ),
        );
        layers.insert(
            "fleet.rotate_ms",
            ratio(rotate_ns as f64 / 1e6, self.rotations as f64),
        );
    }

    pub fn covered_ns(&self) -> u64 {
        self.route.ns
            + self.sliding_insert.ns
            + self.rotate.ns
            + self.export_dirty.ns
            + self.export_delta.ns
            + self.export_full.ns
            + self.apply.ns
            + self.resync.ns
            + self.read.ns
    }
}

/// The hand-driven system under test.
pub struct HandFleet<K: FlowKey> {
    pub switches: Vec<SlidingTopK<K>>,
    pub collector: Collector<K>,
}

/// One traced pass, driving the switches and the collector by hand.
pub fn traced_pass<K: FlowKey>(
    trace: &[K],
    router: &Fleet<K>,
    spans: &mut Spans,
) -> (Pass, HandFleet<K>) {
    let budget = EPOCH as u32;
    let mut reads_us = Vec::with_capacity(trace.len() / EPOCH);
    let mut frames = Vec::with_capacity(SWITCHES);
    let base = measure::rss_bytes();
    let t = Instant::now();
    let mut switches: Vec<SlidingTopK<K>> = (0..SWITCHES)
        .map(|_| SlidingTopK::with_memory(MEMORY, K, SKETCH_SEED, WINDOW))
        .collect();
    let mut collector = Collector::<K>::new(K, AggregationRule::Sum);
    let mut frames_sent = 0u64;
    let mut rejected = 0u64;
    for (i, sw) in switches.iter().enumerate() {
        frames_sent += 1;
        if collector
            .submit_window_frame(&sw.export_frame(i as u64, budget))
            .is_err()
        {
            rejected += 1;
        }
    }
    let mut staging: Vec<Vec<K>> = (0..SWITCHES).map(|_| Vec::new()).collect();
    let setup_s = t.elapsed().as_secs_f64();
    let mut digest = Digest::default();

    let start = Instant::now();
    for (rotation, period) in (1..).zip(trace.chunks_exact(EPOCH)) {
        spans.route.time(|| {
            for buf in &mut staging {
                buf.clear();
            }
            for key in period {
                staging[router.switch_of(key)].push(*key);
            }
        });
        for (sw, buf) in switches.iter_mut().zip(&staging) {
            if !buf.is_empty() {
                spans.sliding_insert.time(|| sw.insert_batch(buf));
            }
        }

        for sw in &mut switches {
            spans.rotate.time(|| sw.rotate());
        }
        frames.clear();
        for (i, sw) in switches.iter_mut().enumerate() {
            let id = i as u64;
            let frame = match spans.export_dirty.time(|| sw.export_dirty(id, budget)) {
                Some(b) => {
                    spans.dirty_frames += 1;
                    spans.dirty_bytes += b.len() as u64;
                    b
                }
                None => match spans.export_delta.time(|| sw.export_delta(id, budget)) {
                    Some(b) => b,
                    None => spans.export_full.time(|| sw.export_frame(id, budget)),
                },
            };
            frames.push(frame);
        }
        let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        if rotation >= WINDOW {
            spans.steady_bytes += bytes;
            spans.steady_rotations += 1;
        }
        digest.u64(bytes);
        for f in &frames {
            frames_sent += 1;
            if spans
                .apply
                .time(|| collector.submit_window_frame(f))
                .is_err()
            {
                rejected += 1;
            }
        }
        // `Fleet::rotate` then answers resync requests with full frames;
        // at zero loss there are none, and the span stays near empty.
        spans.resync.time(|| {
            for id in collector.resync_needed() {
                frames_sent += 1;
                let frame = switches[id as usize].export_frame(id, budget);
                if collector.submit_window_frame(&frame).is_err() {
                    rejected += 1;
                }
            }
        });

        let r = Instant::now();
        let top = spans.read.time(|| collector.window_top_k());
        reads_us.push(r.elapsed().as_secs_f64() * 1e6);
        digest.top_k(top);
    }
    let wall = start.elapsed();
    let mem_bytes = measure::rss_bytes().saturating_sub(base);

    for (i, sw) in switches.iter().enumerate() {
        let full = spans.probe_full.time(|| sw.export_frame(i as u64, budget));
        spans.probe_full_bytes += full.len() as u64;
        if let Some(d) = spans.probe_delta.time(|| sw.export_delta(i as u64, budget)) {
            spans.probe_delta_bytes += d.len() as u64;
        }
    }
    spans.wall_ns += wall.as_nanos() as u64;
    spans.packets += trace.len() as u64;
    spans.rotations += (trace.len() / EPOCH) as u64;
    spans.frames_rejected += rejected;

    let reads = reads_us.len() as u64;
    let pass = Pass {
        setup_s,
        wall_s: wall.as_secs_f64(),
        packets: trace.len() as u64,
        mem_bytes,
        reads_us,
        digest: digest.finish(),
        attempted: trace.len() as u64 + frames_sent + reads,
        failed: rejected,
    };
    (
        pass,
        HandFleet {
            switches,
            collector,
        },
    )
}
