//! The `engine-pipeline` loop: `ShardedEngine::parallel` at one shard
//! (one dispatcher plus one worker, two busy threads), fed in batches,
//! with a top-k read (a flush barrier through the ring) every
//! `read_every` batches.

use crate::ingest::{self, SKETCH_SEED};
use crate::measure::{self, ratio, Acc, Digest, Layers, Pass, BATCH};
use heavykeeper::{HkConfig, ParallelTopK, ShardedEngine};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::PreparedKey;
use std::time::Instant;

/// `engine-pipeline`: 1 MB stays near L2, so the bucket walk is cheap
/// and hashing, partitioning, the ring handoff and the read barrier
/// carry the cost.
pub const GEOMETRY: ingest::Geometry = ingest::Geometry {
    memory: 1 << 20,
    k: 100,
    read_every: 8,
};

/// 48 batches: the top flow (about 13% of Zipf 1.1 over 200k flows)
/// stays below the 16-bit counter ceiling of 65535.
pub const PACKETS: usize = 48 * BATCH;
pub const FLOWS: usize = 200_000;
pub const SKEW: f64 = 1.1;
pub const SHARDS: usize = 1;

/// The per-shard configuration, accounted like a bare instance of the
/// same geometry (one shard keeps the full width).
pub fn config<K: FlowKey>(g: &ingest::Geometry) -> HkConfig {
    ParallelTopK::<K>::with_memory(g.memory, g.k, SKETCH_SEED)
        .config()
        .clone()
}

type Engine<K> = ShardedEngine<K, ParallelTopK<K>>;

/// Spans of the traced engine loop, on the caller (dispatcher) thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Inside `insert_batch`: hash, partition and push to the ring.
    pub dispatch: Acc,
    /// Inside `flush`: waiting for the worker to drain the ring.
    pub flush: Acc,
    /// Inside `top_k` after the flush.
    pub read: Acc,
    pub wall_ns: u64,
    pub packets: u64,
    pub buffers_allocated: u64,
    pub lost: u64,
    pub shed: u64,
    pub passes: u64,
    /// Standalone `insert_prepared_batch` on a bare instance of the
    /// same configuration over the same packets: the worker's cost.
    pub worker: Acc,
    pub worker_packets: u64,
}

impl Spans {
    pub fn layers(&self, layers: &mut Layers) {
        let dispatch = self.dispatch.ns_per(self.packets);
        let worker = self.worker.ns_per(self.worker_packets);
        layers.insert("sharded.dispatch_ns_per_pkt", dispatch);
        layers.insert("sharded.flush_wait_us", self.flush.mean_us());
        layers.insert(
            "sharded.dispatch_buffers_allocated",
            ratio(self.buffers_allocated as f64, self.passes as f64),
        );
        layers.insert("sharded.lost_packets", self.lost as f64);
        layers.insert("sharded.shed_packets", self.shed as f64);
        layers.insert("engine.dispatch_over_worker", ratio(dispatch, worker));
    }

    pub fn covered_ns(&self) -> u64 {
        self.dispatch.ns + self.flush.ns + self.read.ns
    }
}

/// One pass on a fresh engine. Traced, every read calls `flush` in its
/// own span before `top_k` (whose own flush is then a no-op).
pub fn pass<K: FlowKey + Send + 'static>(
    trace: &[K],
    cfg: &HkConfig,
    read_every: usize,
    mut spans: Option<&mut Spans>,
) -> (Pass, Engine<K>) {
    let mut reads_us = Vec::with_capacity(trace.len() / BATCH / read_every + 1);
    let base = measure::rss_bytes();
    let t = Instant::now();
    let mut eng = Engine::<K>::parallel(cfg, SHARDS);
    let setup_s = t.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    let mut flush_errors = 0u64;

    let start = Instant::now();
    for (i, chunk) in trace.chunks(BATCH).enumerate() {
        match spans.as_deref_mut() {
            None => eng.insert_batch(chunk),
            Some(s) => s.dispatch.time(|| eng.insert_batch(chunk)),
        }
        if (i + 1) % read_every == 0 {
            let r = Instant::now();
            let top = match spans.as_deref_mut() {
                None => eng.top_k(),
                Some(s) => {
                    if s.flush.time(|| eng.flush()).is_err() {
                        flush_errors += 1;
                    }
                    s.read.time(|| eng.top_k())
                }
            };
            reads_us.push(r.elapsed().as_secs_f64() * 1e6);
            digest.top_k(top);
        }
    }
    let wall = start.elapsed();
    let mem_bytes = measure::rss_bytes().saturating_sub(base);

    let lost = eng.lost_packets();
    let shed = eng.shed_packets();
    if let Some(s) = spans {
        s.wall_ns += wall.as_nanos() as u64;
        s.packets += trace.len() as u64;
        s.buffers_allocated += eng.dispatch_buffers_allocated();
        s.lost += lost;
        s.shed += shed;
        s.passes += 1;
    }
    let reads = reads_us.len() as u64;
    let pass = Pass {
        setup_s,
        wall_s: wall.as_secs_f64(),
        packets: trace.len() as u64,
        mem_bytes,
        reads_us,
        digest: digest.finish(),
        attempted: trace.len() as u64 + reads,
        failed: lost + shed + flush_errors,
    };
    (pass, eng)
}

/// The worker's cost on its own: a bare instance of the engine's shard
/// configuration ingests the trace through `insert_prepared_batch`,
/// with the keys prepared ahead of the clock. Returns the instance so
/// its sketch can serve the touch probe.
pub fn worker_probe<K: FlowKey>(trace: &[K], cfg: &HkConfig, spans: &mut Spans) -> ParallelTopK<K> {
    let mut hk = ParallelTopK::<K>::new(cfg.clone());
    let spec = hk.hash_spec();
    let prepared: Vec<Vec<PreparedKey>> = trace
        .chunks(BATCH)
        .map(|chunk| {
            let mut p = Vec::with_capacity(chunk.len());
            spec.prepare_batch(chunk, &mut p);
            p
        })
        .collect();
    for (chunk, p) in trace.chunks(BATCH).zip(&prepared) {
        spans.worker.time(|| hk.insert_prepared_batch(chunk, p));
    }
    spans.worker_packets += trace.len() as u64;
    hk
}
