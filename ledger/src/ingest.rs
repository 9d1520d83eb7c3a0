//! The `ingest-heavy` loop: a bare `ParallelTopK` fed in batches, with
//! a top-k read every `read_every` batches. The same loop, at the
//! engine's geometry, is the bare reference the 1-shard engine must
//! match bit for bit.

use crate::measure::{self, Acc, Digest, Layers, Pass, BATCH};
use heavykeeper::ParallelTopK;
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::PreparedKey;
use std::time::Instant;

/// Sketch seed of every loop; the workload seed only shapes the trace.
pub const SKETCH_SEED: u64 = 1;

/// The system under test of the ingest loop.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Total memory under the paper's accounting (sketch + store).
    pub memory: usize,
    pub k: usize,
    /// Batches between top-k reads.
    pub read_every: usize,
}

/// `ingest-heavy`: 32 MB is 16x a 2 MiB L2, so bucket lines miss cache.
pub const GEOMETRY: Geometry = Geometry {
    memory: 32 << 20,
    k: 100,
    read_every: 16,
};

pub const PACKETS: usize = 480 * BATCH;
pub const FLOWS: usize = 2_000_000;
pub const SKEW: f64 = 0.8;

/// Spans of the traced ingest loop: the hashing prolog and the bucket
/// walk are called separately, each in its own span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub hash: Acc,
    pub insert: Acc,
    pub read: Acc,
    pub wall_ns: u64,
    pub packets: u64,
}

impl Spans {
    pub fn layers(&self, layers: &mut Layers) {
        layers.insert("prepared.hash_ns_per_pkt", self.hash.ns_per(self.packets));
        layers.insert(
            "parallel.insert_ns_per_pkt",
            self.insert.ns_per(self.packets),
        );
    }

    /// Caller-thread time the spans cover.
    pub fn covered_ns(&self) -> u64 {
        self.hash.ns + self.insert.ns + self.read.ns
    }
}

pub fn build<K: FlowKey>(g: &Geometry) -> ParallelTopK<K> {
    ParallelTopK::with_memory(g.memory, g.k, SKETCH_SEED)
}

/// One pass on a fresh instance. Untraced, each batch goes through
/// `insert_batch`; traced, through `HashSpec::prepare_batch` and then
/// `insert_prepared_batch`, which must give the same answers.
pub fn pass<K: FlowKey>(
    trace: &[K],
    g: &Geometry,
    mut spans: Option<&mut Spans>,
) -> (Pass, ParallelTopK<K>) {
    let mut reads_us = Vec::with_capacity(trace.len() / BATCH / g.read_every + 1);
    let mut prepared: Vec<PreparedKey> = Vec::with_capacity(BATCH);
    let base = measure::rss_bytes();
    let t = Instant::now();
    let mut hk = build::<K>(g);
    let setup_s = t.elapsed().as_secs_f64();
    let spec = hk.hash_spec();
    let mut digest = Digest::default();

    let start = Instant::now();
    for (i, chunk) in trace.chunks(BATCH).enumerate() {
        match spans.as_deref_mut() {
            None => hk.insert_batch(chunk),
            Some(s) => {
                s.hash.time(|| spec.prepare_batch(chunk, &mut prepared));
                s.insert.time(|| hk.insert_prepared_batch(chunk, &prepared));
            }
        }
        if (i + 1) % g.read_every == 0 {
            let r = Instant::now();
            let top = match spans.as_deref_mut() {
                None => hk.top_k(),
                Some(s) => s.read.time(|| hk.top_k()),
            };
            reads_us.push(r.elapsed().as_secs_f64() * 1e6);
            digest.top_k(top);
        }
    }
    let wall = start.elapsed();
    let mem_bytes = measure::rss_bytes().saturating_sub(base);

    if let Some(s) = spans {
        s.wall_ns += wall.as_nanos() as u64;
        s.packets += trace.len() as u64;
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
        failed: 0,
    };
    (pass, hk)
}
