//! `hk-obs` — the workspace's runtime observability plane.
//!
//! Every sharded engine and every fleet builds in one [`ObsHub`]. It
//! holds:
//!
//! * **Stage counters** ([`StageCounters`], [`ShardObs`]) — relaxed,
//!   cache-line-padded atomics covering dispatch, worker ingest,
//!   rotate, export and checkpoint. One `fetch_add(Relaxed)` per
//!   *batch* on the hot path, never per packet.
//! * **Log2 histograms** ([`Log2Hist`]) — 64 power-of-two buckets with
//!   integer-only recording (one `leading_zeros` + two relaxed adds)
//!   and p50/p95/p99 extraction at snapshot time. Used for
//!   dispatch→drain latency, batch sizes and export bytes.
//! * **Event journal** ([`EventJournal`]) — every typed [`Event`]
//!   (worker death, recovery, reshard phase transitions,
//!   eviction/readmission, resync) in order, with dense sequence
//!   numbers. It is the only record of these events: each is written
//!   once, at the one site that makes it happen. Events come per
//!   fault, phase, resync or eviction, never per packet, so the journal
//!   keeps them all.
//! * **Views of the journal.** [`ObsHub::snapshot`] derives the
//!   recovery, reshard and worker-death counters and the dark-window
//!   histogram from it, and [`JournalSnapshot::recovery_accounting`] /
//!   [`JournalSnapshot::reshard_accounting`] fold it into the
//!   operator-facing summaries.
//! * **Exposition** ([`Snapshot`]) — a coherent point-in-time snapshot
//!   from [`ObsHub::snapshot`], rendered with [`Snapshot::render_json`]
//!   (the repo's hand-rolled JSON). `hk run --stats-json PATH` and the
//!   periodic `hk fleet` stat lines are thin wrappers over it.
//!
//! Totals an engine already keeps (ring traffic, lost packets) are not
//! mirrored here; the engine's `obs_snapshot` fills them into the
//! [`StageSnapshot`] it returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

mod recovery;

pub use recovery::{RecoveryAccounting, RecoveryReport, ReshardAccounting};

/// A cache-line-padded relaxed counter.
///
/// Padding keeps two hot counters updated by different threads off the
/// same 64-byte line, so per-shard ingest counters never false-share
/// with their neighbours or with the dispatcher's counters.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n` (relaxed; counters are statistical, not synchronizing).
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Global (engine-wide) per-stage counters, each incremented at the
/// named stage.
#[derive(Debug, Default)]
pub struct StageCounters {
    /// Sub-batches handed to shard workers by the dispatcher.
    pub dispatch_batches: Counter,
    /// Packets partitioned and dispatched (counted per batch).
    pub dispatch_packets: Counter,
    /// Checkpoint requests enqueued to workers.
    pub checkpoints: Counter,
    /// Window rotations driven through the engine.
    pub rotations: Counter,
    /// Window frames a fleet ships, full or dirty: one per frame handed
    /// to its channel or delivered reliably. Engines ship none.
    pub exports: Counter,
}

/// Per-shard worker-side counters, updated only by that shard's worker
/// thread through its [`WorkerObs`] (so relaxed increments are
/// uncontended). A worker's death is not counted here: it is a journal
/// event, written by whichever thread detects it.
#[derive(Debug, Default)]
pub struct ShardObs {
    /// Sub-batches drained from the work ring and ingested.
    pub ingest_batches: Counter,
    /// Packets ingested (counted once per drained batch).
    pub ingest_packets: Counter,
}

/// Point-in-time copy of [`StageCounters`], plus the counts derived
/// from the journal and the totals an engine owns itself (zero in a
/// bare [`ObsHub::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// See [`StageCounters::dispatch_batches`].
    pub dispatch_batches: u64,
    /// See [`StageCounters::dispatch_packets`].
    pub dispatch_packets: u64,
    /// See [`StageCounters::checkpoints`].
    pub checkpoints: u64,
    /// See [`StageCounters::rotations`].
    pub rotations: u64,
    /// See [`StageCounters::exports`].
    pub exports: u64,
    /// Shard recoveries: the journal's `recovery` events.
    pub recoveries: u64,
    /// Committed reshard migrations, from the journal
    /// ([`ReshardAccounting::committed`]).
    pub reshards: u64,
    /// Reshard phase transitions: the journal's `reshard_phase` events.
    pub reshard_phases: u64,
    /// Successful SPSC ring pushes (work + return rings), from the
    /// engine.
    pub ring_pushes: u64,
    /// Successful SPSC ring pops (work + return rings), from the engine.
    pub ring_pops: u64,
    /// Packets lost to dead shards, from the engine.
    pub lost_packets: u64,
}

/// Point-in-time copy of one shard's [`ShardObs`], plus its worker
/// deaths from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index at snapshot time.
    pub shard: u64,
    /// Batches ingested by this shard's worker.
    pub ingest_batches: u64,
    /// Packets ingested by this shard's worker.
    pub ingest_packets: u64,
    /// The journal's `worker_death` events for this shard slot.
    pub worker_deaths: u64,
}

const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram: 64 power-of-two buckets, no floating
/// point anywhere on the record path.
///
/// Bucket 0 holds the value `0`; bucket `i` (1..63) holds values whose
/// bit length is `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 63
/// holds everything from `2^62` up. Percentiles report the *upper
/// bound* of the bucket containing the requested rank, so a reported
/// p99 is a guaranteed upper bound on the true p99 within one power of
/// two.
#[derive(Debug)]
pub struct Log2Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Hist {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit length, clamped to 63.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Upper bound of a bucket (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            63 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one observation. Integer-only: a `leading_zeros` and
    /// two relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot with p50/p95/p99.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Percentiles over the snapshotted buckets, not the live
        // `count` field, so a racing `record` cannot make the rank
        // walk run off the end.
        let total: u64 = buckets.iter().sum();
        let rank_value = |permille: u64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Ceil(total * permille / 1000): the rank of the requested
            // quantile, 1-based.
            let rank = (total * permille).div_ceil(1000).max(1);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_upper(i);
                }
            }
            Self::bucket_upper(HIST_BUCKETS - 1)
        };
        HistSnapshot {
            count: total,
            sum: self.sum(),
            p50: rank_value(500),
            p95: rank_value(950),
            p99: rank_value(990),
        }
    }
}

/// Point-in-time histogram summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Upper bound of the bucket holding the 50th percentile.
    pub p50: u64,
    /// Upper bound of the bucket holding the 95th percentile.
    pub p95: u64,
    /// Upper bound of the bucket holding the 99th percentile.
    pub p99: u64,
}

/// Which reshard phase an [`EventKind::ReshardPhase`] event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardStage {
    /// Traffic quiesced, workers drained and checkpointed.
    Drain,
    /// Checkpoint bytes re-partitioned onto the new topology.
    Rebuild,
    /// New shard set swapped in under the pending lock.
    Swap,
    /// Migration committed (new topology live).
    Commit,
    /// A phase failed; the old topology was restored.
    Rollback,
}

impl ReshardStage {
    /// Stable lower-case label used in the JSON exposition.
    pub fn label(self) -> &'static str {
        match self {
            ReshardStage::Drain => "drain",
            ReshardStage::Rebuild => "rebuild",
            ReshardStage::Swap => "swap",
            ReshardStage::Commit => "commit",
            ReshardStage::Rollback => "rollback",
        }
    }
}

/// A typed journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A shard worker died (panic, wedge, or injected kill).
    WorkerDeath {
        /// Shard slot whose worker died.
        shard: u64,
    },
    /// A poisoned shard was respawned from its checkpoint.
    Recovery(RecoveryReport),
    /// A live-reshard phase transition.
    ReshardPhase {
        /// Shard count before the migration.
        from_shards: u64,
        /// Shard count the migration targets.
        to_shards: u64,
        /// Which phase boundary this event marks.
        stage: ReshardStage,
    },
    /// The collector evicted a silent switch (lease expired).
    Eviction {
        /// Switch id evicted.
        switch: u64,
    },
    /// An evicted switch was re-admitted after resync.
    Readmission {
        /// Switch id re-admitted.
        switch: u64,
    },
    /// A switch serviced a collector resync request.
    Resync {
        /// Switch id resynced.
        switch: u64,
    },
}

impl EventKind {
    /// Stable snake_case label used in the JSON exposition.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::WorkerDeath { .. } => "worker_death",
            EventKind::Recovery(_) => "recovery",
            EventKind::ReshardPhase { .. } => "reshard_phase",
            EventKind::Eviction { .. } => "eviction",
            EventKind::Readmission { .. } => "readmission",
            EventKind::Resync { .. } => "resync",
        }
    }

    fn render_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            EventKind::WorkerDeath { shard } => {
                let _ = write!(out, "\"shard\": {shard}");
            }
            EventKind::Recovery(r) => {
                let _ = write!(
                    out,
                    "\"shard\": {}, \"dark_packets\": {}, \"checkpoint_packets\": {}, \"routed_packets\": {}",
                    r.shard, r.dark_packets, r.checkpoint_packets, r.routed_packets
                );
            }
            EventKind::ReshardPhase {
                from_shards,
                to_shards,
                stage,
            } => {
                let _ = write!(
                    out,
                    "\"from_shards\": {from_shards}, \"to_shards\": {to_shards}, \"stage\": \"{}\"",
                    stage.label()
                );
            }
            EventKind::Eviction { switch }
            | EventKind::Readmission { switch }
            | EventKind::Resync { switch } => {
                let _ = write!(out, "\"switch\": {switch}");
            }
        }
    }
}

/// One journal entry: its sequence number plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Sequence number: the event's 0-based position in the journal.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The ordered record of every lifecycle event.
///
/// Sequence numbers are assigned under the lock, so they are dense and
/// strictly monotonic across concurrent writers. Nothing is ever
/// overwritten: an event is written once per fault, migration phase,
/// resync or eviction, so the journal grows with lifecycle history, not
/// with traffic.
#[derive(Debug, Default)]
pub struct EventJournal {
    events: Mutex<Vec<Event>>,
}

impl EventJournal {
    /// Appends an event and returns its sequence number. Safe to call
    /// from any thread; the critical section is a `Vec` push.
    pub fn record(&self, kind: EventKind) -> u64 {
        // A panicking recorder cannot tear this state (one push) —
        // absorb poison rather than cascade.
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = events.len() as u64;
        events.push(Event { seq, kind });
        seq
    }

    /// Point-in-time copy of every event, oldest first.
    pub fn snapshot(&self) -> JournalSnapshot {
        JournalSnapshot {
            events: self
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

/// Point-in-time copy of an [`EventJournal`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Every event, oldest first, `seq` equal to the position.
    pub events: Vec<Event>,
}

impl JournalSnapshot {
    /// Count of events with the given label.
    pub fn count_of(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }
}

/// The per-worker observation bundle.
///
/// Built once per worker (via [`ObsHub::worker`]) and handed to the
/// worker at spawn, so the worker loop touches only pre-resolved `Arc`s:
/// its own [`ShardObs`] plus the shared latency/batch histograms.
/// Holding these by `Arc` (not via the hub) keeps worker threads free
/// of any back-reference to [`ObsHub`].
#[derive(Debug, Clone)]
pub struct WorkerObs {
    /// This worker's shard counters.
    pub shard: Arc<ShardObs>,
    /// Dispatch→drain latency histogram (nanoseconds).
    pub latency_ns: Arc<Log2Hist>,
    /// Ingested sub-batch size histogram (packets).
    pub batch_packets: Arc<Log2Hist>,
}

/// The observability hub: each sharded engine and each fleet owns one.
///
/// All counter updates are relaxed atomics, at most a few per batch;
/// the journal takes a short mutex only when an *event* (rare by
/// construction) fires.
#[derive(Debug)]
pub struct ObsHub {
    /// Engine-wide per-stage counters.
    pub stages: StageCounters,
    shards: Mutex<Vec<Arc<ShardObs>>>,
    /// Dispatch→drain latency (ns), recorded per drained batch.
    pub dispatch_latency_ns: Arc<Log2Hist>,
    /// Ingested sub-batch sizes (packets).
    pub batch_packets: Arc<Log2Hist>,
    /// Sizes (bytes) of the frames counted in
    /// [`StageCounters::exports`].
    pub export_bytes: Log2Hist,
    /// The lifecycle event journal.
    pub journal: EventJournal,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// A hub with zeroed counters and an empty journal.
    pub fn new() -> Self {
        Self {
            stages: StageCounters::default(),
            shards: Mutex::new(Vec::new()),
            dispatch_latency_ns: Arc::new(Log2Hist::new()),
            batch_packets: Arc::new(Log2Hist::new()),
            export_bytes: Log2Hist::new(),
            journal: EventJournal::default(),
        }
    }

    /// The full observation bundle shard `idx`'s worker caches: the
    /// only handle on that shard's counters. Slots are created on
    /// first use and survive respawn/reshard, so a recovered shard
    /// keeps accumulating on the same slot.
    pub fn worker(&self, idx: usize) -> WorkerObs {
        let mut shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        while shards.len() <= idx {
            shards.push(Arc::new(ShardObs::default()));
        }
        WorkerObs {
            shard: Arc::clone(&shards[idx]),
            latency_ns: Arc::clone(&self.dispatch_latency_ns),
            batch_packets: Arc::clone(&self.batch_packets),
        }
    }

    /// Point-in-time snapshot of everything the hub holds. The
    /// recovery, reshard and worker-death counts and the dark-window
    /// histogram are views of the journal; the engine-owned
    /// [`StageSnapshot`] totals are left at zero.
    pub fn snapshot(&self) -> Snapshot {
        let journal = self.journal.snapshot();
        let s = &self.stages;
        let stages = StageSnapshot {
            dispatch_batches: s.dispatch_batches.get(),
            dispatch_packets: s.dispatch_packets.get(),
            checkpoints: s.checkpoints.get(),
            rotations: s.rotations.get(),
            exports: s.exports.get(),
            recoveries: journal.count_of("recovery") as u64,
            reshards: journal.reshard_accounting().committed as u64,
            reshard_phases: journal.count_of("reshard_phase") as u64,
            ..StageSnapshot::default()
        };
        let shards = {
            let guard = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
            guard
                .iter()
                .enumerate()
                .map(|(i, sh)| ShardSnapshot {
                    shard: i as u64,
                    ingest_batches: sh.ingest_batches.get(),
                    ingest_packets: sh.ingest_packets.get(),
                    worker_deaths: journal
                        .events
                        .iter()
                        .filter(|e| e.kind == EventKind::WorkerDeath { shard: i as u64 })
                        .count() as u64,
                })
                .collect()
        };
        let dark_packets = Log2Hist::new();
        for r in journal.recoveries() {
            dark_packets.record(r.dark_packets);
        }
        Snapshot {
            stages,
            shards,
            dispatch_latency_ns: self.dispatch_latency_ns.snapshot(),
            batch_packets: self.batch_packets.snapshot(),
            export_bytes: self.export_bytes.snapshot(),
            dark_packets: dark_packets.snapshot(),
            journal,
        }
    }
}

/// A coherent point-in-time copy of an [`ObsHub`] — plain data, no
/// atomics, renderable without touching the live hub again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Engine-wide stage counters.
    pub stages: StageSnapshot,
    /// Per-shard worker counters.
    pub shards: Vec<ShardSnapshot>,
    /// Dispatch→drain latency (ns).
    pub dispatch_latency_ns: HistSnapshot,
    /// Ingested sub-batch sizes (packets).
    pub batch_packets: HistSnapshot,
    /// Export payload sizes (bytes).
    pub export_bytes: HistSnapshot,
    /// Recovery dark windows (packets), from the journal.
    pub dark_packets: HistSnapshot,
    /// The event journal.
    pub journal: JournalSnapshot,
}

fn json_hist(out: &mut String, name: &str, h: &HistSnapshot, indent: &str) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{indent}\"{name}\": {{ \"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {} }}",
        h.count, h.sum, h.p50, h.p95, h.p99
    );
}

impl Snapshot {
    /// Renders the repo's hand-rolled JSON exposition format (what
    /// `hk run --stats-json` writes).
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let s = &self.stages;
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"stages\": {\n");
        let _ = write!(
            out,
            "    \"dispatch_batches\": {},\n    \"dispatch_packets\": {},\n    \"checkpoints\": {},\n    \"rotations\": {},\n    \"exports\": {},\n    \"recoveries\": {},\n    \"reshards\": {},\n    \"reshard_phases\": {},\n    \"ring_pushes\": {},\n    \"ring_pops\": {},\n    \"lost_packets\": {}\n  }},\n",
            s.dispatch_batches,
            s.dispatch_packets,
            s.checkpoints,
            s.rotations,
            s.exports,
            s.recoveries,
            s.reshards,
            s.reshard_phases,
            s.ring_pushes,
            s.ring_pops,
            s.lost_packets,
        );
        out.push_str("  \"shards\": [\n");
        for (i, sh) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"shard\": {}, \"ingest_batches\": {}, \"ingest_packets\": {}, \"worker_deaths\": {} }}{}",
                sh.shard,
                sh.ingest_batches,
                sh.ingest_packets,
                sh.worker_deaths,
                if i + 1 == self.shards.len() { "" } else { "," },
            );
        }
        out.push_str("  ],\n  \"histograms\": {\n");
        json_hist(
            &mut out,
            "dispatch_latency_ns",
            &self.dispatch_latency_ns,
            "    ",
        );
        out.push_str(",\n");
        json_hist(&mut out, "batch_packets", &self.batch_packets, "    ");
        out.push_str(",\n");
        json_hist(&mut out, "export_bytes", &self.export_bytes, "    ");
        out.push_str(",\n");
        json_hist(&mut out, "dark_packets", &self.dark_packets, "    ");
        out.push_str("\n  },\n");
        let _ = write!(
            out,
            "  \"journal\": {{\n    \"recorded\": {},\n    \"events\": [\n",
            self.journal.events.len()
        );
        for (i, e) in self.journal.events.iter().enumerate() {
            let _ = write!(
                out,
                "      {{ \"seq\": {}, \"kind\": \"{}\", ",
                e.seq,
                e.kind.label()
            );
            e.kind.render_fields(&mut out);
            out.push_str(" }");
            if i + 1 != self.journal.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_padding_and_ops() {
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert!(std::mem::size_of::<Counter>() >= 64);
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn hist_bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of((1 << 20) - 1), 20);
        assert_eq!(Log2Hist::bucket_of(1 << 20), 21);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 63);
        assert_eq!(Log2Hist::bucket_upper(0), 0);
        assert_eq!(Log2Hist::bucket_upper(1), 1);
        assert_eq!(Log2Hist::bucket_upper(2), 3);
        assert_eq!(Log2Hist::bucket_upper(63), u64::MAX);
    }

    #[test]
    fn hist_percentiles_are_bucket_upper_bounds() {
        let h = Log2Hist::new();
        // 99 observations of 5 (bucket 3, upper 7) and one of 1000
        // (bucket 10, upper 1023).
        for _ in 0..99 {
            h.record(5);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 5 + 1000);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p95, 7);
        assert_eq!(s.p99, 7, "rank 99 of 100 still lands in bucket 3");
        // One more large value pushes p99 into the big bucket.
        h.record(1000);
        assert_eq!(h.snapshot().p99, 1023);
    }

    #[test]
    fn hist_empty_and_zero() {
        let h = Log2Hist::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p99), (0, 0, 0));
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p99), (1, 0, 0, 0));
    }

    #[test]
    fn journal_seq_monotone_and_gap_free() {
        let j = EventJournal::default();
        for switch in 0..50u64 {
            j.record(EventKind::Resync { switch });
        }
        let s = j.snapshot();
        assert_eq!(s.events.len(), 50, "every event kept");
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "dense monotone sequence");
        }
    }

    #[test]
    fn journal_concurrent_writers_keep_seq_unique_and_dense() {
        // Concurrent writers from multiple shard threads.
        let j = Arc::new(EventJournal::default());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let handles: Vec<_> = (0..THREADS)
            .map(|shard| {
                let j = Arc::clone(&j);
                thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        j.record(EventKind::WorkerDeath { shard });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = j.snapshot();
        let total = THREADS * PER_THREAD;
        assert_eq!(s.events.len() as u64, total, "every record kept");
        // Every record got a unique seq, in journal order.
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn hub_shard_slots_persist_and_snapshot_rolls_up() {
        let hub = ObsHub::new();
        let w0 = hub.worker(0);
        let w2 = hub.worker(2);
        w0.shard.ingest_packets.add(100);
        w0.shard.ingest_batches.incr();
        w2.shard.ingest_packets.add(7);
        // Re-resolving a slot (respawn path) hits the same counters.
        hub.worker(0).shard.ingest_packets.add(1);
        hub.stages.dispatch_packets.add(108);
        hub.stages.dispatch_batches.add(2);
        let snap = hub.snapshot();
        assert_eq!(snap.shards.len(), 3, "slot 1 implicitly created");
        assert_eq!(snap.shards[0].ingest_packets, 101);
        assert_eq!(snap.shards[1].ingest_packets, 0);
        assert_eq!(snap.shards[2].ingest_packets, 7);
        assert_eq!(snap.stages.dispatch_packets, 108);
    }

    #[test]
    fn json_render_parses_shape_and_counts() {
        let hub = ObsHub::new();
        hub.stages.dispatch_packets.add(5000);
        hub.worker(0).shard.ingest_packets.add(5000);
        hub.dispatch_latency_ns.record(1500);
        hub.worker(1);
        hub.journal.record(EventKind::WorkerDeath { shard: 1 });
        for stage in [ReshardStage::Drain, ReshardStage::Commit] {
            hub.journal.record(EventKind::ReshardPhase {
                from_shards: 2,
                to_shards: 4,
                stage,
            });
        }
        hub.journal.record(EventKind::Recovery(RecoveryReport {
            shard: 1,
            checkpoint_packets: 100,
            routed_packets: 142,
            dark_packets: 42,
        }));
        let snap = hub.snapshot();
        // The lifecycle counters are views of the journal.
        assert_eq!(snap.stages.recoveries, 1);
        assert_eq!(snap.stages.reshards, 1);
        assert_eq!(snap.stages.reshard_phases, 2);
        let deaths: Vec<u64> = snap.shards.iter().map(|s| s.worker_deaths).collect();
        assert_eq!(deaths, vec![0, 1]);
        assert_eq!((snap.dark_packets.count, snap.dark_packets.sum), (1, 42));
        let json = snap.render_json();
        assert!(json.contains("\"dispatch_packets\": 5000"), "{json}");
        assert!(json.contains("\"ingest_packets\": 5000"), "{json}");
        assert!(json.contains("\"kind\": \"recovery\""), "{json}");
        let record = "\"dark_packets\": 42, \"checkpoint_packets\": 100, \"routed_packets\": 142";
        assert!(json.contains(record), "{json}");
        assert!(json.contains("\"stage\": \"commit\""), "{json}");
        assert!(json.contains("\"recorded\": 4,"), "{json}");
        // Braces balance (cheap well-formedness check without a parser).
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "balanced brackets:\n{json}");
    }
}
