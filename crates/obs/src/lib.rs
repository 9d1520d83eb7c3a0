//! `hk-obs` — the workspace's runtime observability plane.
//!
//! Every earlier PR reported through its own ad-hoc struct
//! (`RecoveryReport`, `ReshardAccounting`, `FleetStats`) and only
//! *after* a run finished. This crate is the live substrate those
//! subsystems now also report through:
//!
//! * **Stage counters** ([`StageCounters`], [`ShardObs`]) — relaxed,
//!   cache-line-padded atomics covering dispatch, ring push/pop, worker
//!   ingest, rotate, export, checkpoint, recovery and reshard phases.
//!   One `fetch_add(Relaxed)` per *batch* on the hot path, never per
//!   packet.
//! * **Log2 histograms** ([`Log2Hist`]) — 64 power-of-two buckets with
//!   integer-only recording (one `leading_zeros` + two relaxed adds)
//!   and p50/p95/p99 extraction at snapshot time. Used for
//!   dispatch→drain latency, batch sizes, export bytes and recovery
//!   dark windows.
//! * **Event journal** ([`EventJournal`]) — a fixed-capacity ring of
//!   typed [`Event`]s (worker death, recovery, reshard phase
//!   transitions, eviction/readmission, resync, shed) with monotonic
//!   sequence numbers and drop accounting when the ring overwrites.
//! * **Exposition** ([`Snapshot`]) — a coherent point-in-time snapshot
//!   from [`ObsHub::snapshot`], rendered with
//!   [`Snapshot::render_json`] (the repo's hand-rolled JSON) or
//!   [`Snapshot::render_prometheus`]. `hk run --stats-json PATH` and
//!   the periodic `hk fleet` stat lines are thin wrappers over it.
//!
//! Instrumentation is **attach-based and off by default**: the engine
//! holds an `Option<Arc<ObsHub>>` that is `None` unless a caller
//! attaches one, so the disabled hot path pays a single branch per
//! batch. Measuring the attached-hub cost returns as a workload of the
//! workspace benchmark (`ledger/`) in a later benchmark change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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

    /// Overwrites the value — for gauge-style publication of totals
    /// owned elsewhere (ring push/pop counts, lost/shed packets).
    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }
}

/// Global (engine-wide) per-stage counters.
///
/// `dispatch_*`, `checkpoints`, `rotations`, `exports`, `recoveries`
/// and `reshard_*` are true counters incremented at the named stage.
/// `ring_pushes`/`ring_pops`/`lost_packets`/`shed_packets` are
/// *published gauges*: the engine owns those totals (rings are
/// replaced wholesale on respawn/reshard) and stores them into the hub
/// when asked for a snapshot.
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
    /// Export operations (frames/deltas/dirty patches) served.
    pub exports: Counter,
    /// Completed recovery passes (respawned shards).
    pub recoveries: Counter,
    /// Committed reshard migrations.
    pub reshards: Counter,
    /// Reshard phase transitions (drain/rebuild/swap/rollback).
    pub reshard_phases: Counter,
    /// Gauge: total successful SPSC ring pushes (work + recycle).
    pub ring_pushes: Counter,
    /// Gauge: total successful SPSC ring pops (work + recycle).
    pub ring_pops: Counter,
    /// Gauge: packets lost to dead shards (engine `lost_packets`).
    pub lost_packets: Counter,
    /// Gauge: packets shed under `BackpressurePolicy::Shed`.
    pub shed_packets: Counter,
}

/// Per-shard worker-side counters, updated only by that shard's worker
/// thread (so relaxed increments are uncontended).
#[derive(Debug, Default)]
pub struct ShardObs {
    /// Sub-batches drained from the work ring and ingested.
    pub ingest_batches: Counter,
    /// Packets ingested (counted once per drained batch).
    pub ingest_packets: Counter,
    /// Times this shard slot's worker died (poisoned).
    pub worker_deaths: Counter,
}

/// Point-in-time copy of [`StageCounters`].
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
    /// See [`StageCounters::recoveries`].
    pub recoveries: u64,
    /// See [`StageCounters::reshards`].
    pub reshards: u64,
    /// See [`StageCounters::reshard_phases`].
    pub reshard_phases: u64,
    /// See [`StageCounters::ring_pushes`].
    pub ring_pushes: u64,
    /// See [`StageCounters::ring_pops`].
    pub ring_pops: u64,
    /// See [`StageCounters::lost_packets`].
    pub lost_packets: u64,
    /// See [`StageCounters::shed_packets`].
    pub shed_packets: u64,
}

/// Point-in-time copy of one shard's [`ShardObs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index at snapshot time.
    pub shard: u64,
    /// Batches ingested by this shard's worker.
    pub ingest_batches: u64,
    /// Packets ingested by this shard's worker.
    pub ingest_packets: u64,
    /// Worker deaths observed on this shard slot.
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
    /// Stable lower-case label used in both exposition formats.
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
    Recovery {
        /// Shard slot recovered.
        shard: u64,
        /// Packets in the dark window (routed since checkpoint).
        dark_packets: u64,
    },
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
    /// Packets shed at dispatch under `BackpressurePolicy::Shed`.
    Shed {
        /// Shard whose full ring triggered the shed.
        shard: u64,
        /// Packets dropped by this shed decision.
        packets: u64,
    },
}

impl EventKind {
    /// Stable snake_case label used in both exposition formats.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::WorkerDeath { .. } => "worker_death",
            EventKind::Recovery { .. } => "recovery",
            EventKind::ReshardPhase { .. } => "reshard_phase",
            EventKind::Eviction { .. } => "eviction",
            EventKind::Readmission { .. } => "readmission",
            EventKind::Resync { .. } => "resync",
            EventKind::Shed { .. } => "shed",
        }
    }

    fn render_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            EventKind::WorkerDeath { shard } => {
                let _ = write!(out, "\"shard\": {shard}");
            }
            EventKind::Recovery {
                shard,
                dark_packets,
            } => {
                let _ = write!(out, "\"shard\": {shard}, \"dark_packets\": {dark_packets}");
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
            EventKind::Shed { shard, packets } => {
                let _ = write!(out, "\"shard\": {shard}, \"packets\": {packets}");
            }
        }
    }
}

/// One journal entry: a monotonic sequence number plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Default journal capacity when built via [`EventJournal::new`] /
/// [`ObsHub::new`].
pub const DEFAULT_JOURNAL_CAPACITY: usize = 256;

struct JournalInner {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A fixed-capacity ring of typed events.
///
/// When full, recording overwrites the *oldest* event and bumps the
/// drop counter — the journal always holds the most recent history.
/// Sequence numbers are assigned under the lock, so they are strictly
/// monotonic across concurrent writers; `seq` gaps in a snapshot are
/// exactly the `dropped` overwrites.
pub struct EventJournal {
    inner: Mutex<JournalInner>,
    capacity: usize,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl EventJournal {
    /// A journal with [`DEFAULT_JOURNAL_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A journal holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(JournalInner {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event, overwriting the oldest when full. Safe to
    /// call from any thread; the critical section is a ring push.
    pub fn record(&self, kind: EventKind) -> u64 {
        // A panicking recorder cannot tear this state (ring push +
        // two integer bumps) — absorb poison rather than cascade.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(Event { seq, kind });
        seq
    }

    /// Events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_seq
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Point-in-time copy: retained events oldest-first, plus drop
    /// accounting.
    pub fn snapshot(&self) -> JournalSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        JournalSnapshot {
            events: inner.events.iter().copied().collect(),
            recorded: inner.next_seq,
            dropped: inner.dropped,
        }
    }
}

/// Point-in-time copy of an [`EventJournal`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Retained events, oldest first, `seq` strictly increasing.
    pub events: Vec<Event>,
    /// Events ever recorded (next sequence number).
    pub recorded: u64,
    /// Events overwritten on overflow (`recorded - events.len()`).
    pub dropped: u64,
}

impl JournalSnapshot {
    /// Count of retained events with the given label.
    pub fn count_of(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }
}

/// The per-worker observation bundle.
///
/// Built once per worker (via [`ObsHub::worker`]) and cached on the
/// shard handle, so the worker loop touches only pre-resolved `Arc`s:
/// its own [`ShardObs`] plus the shared latency/batch histograms and
/// the journal. Holding these by `Arc` (not via the hub) keeps worker
/// threads free of any back-reference to [`ObsHub`].
#[derive(Debug, Clone)]
pub struct WorkerObs {
    /// This worker's shard counters.
    pub shard: Arc<ShardObs>,
    /// Dispatch→drain latency histogram (nanoseconds).
    pub latency_ns: Arc<Log2Hist>,
    /// Ingested sub-batch size histogram (packets).
    pub batch_packets: Arc<Log2Hist>,
    /// The shared event journal.
    pub journal: Arc<EventJournal>,
}

/// The attachable observability hub: one per engine/fleet run.
///
/// Cheap to share (`Arc`), cheap to ignore (`Option<Arc<ObsHub>>`
/// checked once per batch). All counter updates are relaxed atomics;
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
    /// Export payload sizes (bytes) per export call.
    pub export_bytes: Arc<Log2Hist>,
    /// Recovery dark windows (packets) per recovered shard.
    pub dark_packets: Arc<Log2Hist>,
    /// The structured event journal.
    pub journal: Arc<EventJournal>,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// A hub with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A hub whose journal retains at most `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            stages: StageCounters::default(),
            shards: Mutex::new(Vec::new()),
            dispatch_latency_ns: Arc::new(Log2Hist::new()),
            batch_packets: Arc::new(Log2Hist::new()),
            export_bytes: Arc::new(Log2Hist::new()),
            dark_packets: Arc::new(Log2Hist::new()),
            journal: Arc::new(EventJournal::with_capacity(capacity)),
        }
    }

    /// The counters for shard `idx`, creating slots on first use.
    /// Counters survive respawn/reshard: a recovered shard keeps
    /// accumulating on the same slot.
    pub fn shard(&self, idx: usize) -> Arc<ShardObs> {
        let mut shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        while shards.len() <= idx {
            shards.push(Arc::new(ShardObs::default()));
        }
        Arc::clone(&shards[idx])
    }

    /// The full observation bundle a shard worker caches.
    pub fn worker(&self, idx: usize) -> WorkerObs {
        WorkerObs {
            shard: self.shard(idx),
            latency_ns: Arc::clone(&self.dispatch_latency_ns),
            batch_packets: Arc::clone(&self.batch_packets),
            journal: Arc::clone(&self.journal),
        }
    }

    /// Point-in-time snapshot of everything the hub holds.
    pub fn snapshot(&self) -> Snapshot {
        let s = &self.stages;
        let stages = StageSnapshot {
            dispatch_batches: s.dispatch_batches.get(),
            dispatch_packets: s.dispatch_packets.get(),
            checkpoints: s.checkpoints.get(),
            rotations: s.rotations.get(),
            exports: s.exports.get(),
            recoveries: s.recoveries.get(),
            reshards: s.reshards.get(),
            reshard_phases: s.reshard_phases.get(),
            ring_pushes: s.ring_pushes.get(),
            ring_pops: s.ring_pops.get(),
            lost_packets: s.lost_packets.get(),
            shed_packets: s.shed_packets.get(),
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
                    worker_deaths: sh.worker_deaths.get(),
                })
                .collect()
        };
        Snapshot {
            stages,
            shards,
            dispatch_latency_ns: self.dispatch_latency_ns.snapshot(),
            batch_packets: self.batch_packets.snapshot(),
            export_bytes: self.export_bytes.snapshot(),
            dark_packets: self.dark_packets.snapshot(),
            journal: self.journal.snapshot(),
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
    /// Recovery dark windows (packets).
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

fn prom_hist(out: &mut String, name: &str, h: &HistSnapshot) {
    use std::fmt::Write;
    let _ = writeln!(out, "# TYPE {name} summary");
    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
    let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", h.p95);
    let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
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
            "    \"dispatch_batches\": {},\n    \"dispatch_packets\": {},\n    \"checkpoints\": {},\n    \"rotations\": {},\n    \"exports\": {},\n    \"recoveries\": {},\n    \"reshards\": {},\n    \"reshard_phases\": {},\n    \"ring_pushes\": {},\n    \"ring_pops\": {},\n    \"lost_packets\": {},\n    \"shed_packets\": {}\n  }},\n",
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
            s.shed_packets,
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
            "  \"journal\": {{\n    \"recorded\": {},\n    \"dropped\": {},\n    \"events\": [\n",
            self.journal.recorded, self.journal.dropped
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

    /// Renders Prometheus-style text exposition.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let s = &self.stages;
        let mut out = String::with_capacity(2048);
        let counters: [(&str, u64); 8] = [
            ("hk_dispatch_batches", s.dispatch_batches),
            ("hk_dispatch_packets", s.dispatch_packets),
            ("hk_checkpoints", s.checkpoints),
            ("hk_rotations", s.rotations),
            ("hk_exports", s.exports),
            ("hk_recoveries", s.recoveries),
            ("hk_reshards", s.reshards),
            ("hk_reshard_phases", s.reshard_phases),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        let gauges: [(&str, u64); 4] = [
            ("hk_ring_pushes", s.ring_pushes),
            ("hk_ring_pops", s.ring_pops),
            ("hk_lost_packets", s.lost_packets),
            ("hk_shed_packets", s.shed_packets),
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        out.push_str("# TYPE hk_shard_ingest_packets counter\n");
        for sh in &self.shards {
            let _ = writeln!(
                out,
                "hk_shard_ingest_packets{{shard=\"{}\"}} {}",
                sh.shard, sh.ingest_packets
            );
        }
        out.push_str("# TYPE hk_shard_ingest_batches counter\n");
        for sh in &self.shards {
            let _ = writeln!(
                out,
                "hk_shard_ingest_batches{{shard=\"{}\"}} {}",
                sh.shard, sh.ingest_batches
            );
        }
        out.push_str("# TYPE hk_shard_worker_deaths counter\n");
        for sh in &self.shards {
            let _ = writeln!(
                out,
                "hk_shard_worker_deaths{{shard=\"{}\"}} {}",
                sh.shard, sh.worker_deaths
            );
        }
        prom_hist(
            &mut out,
            "hk_dispatch_latency_ns",
            &self.dispatch_latency_ns,
        );
        prom_hist(&mut out, "hk_batch_packets", &self.batch_packets);
        prom_hist(&mut out, "hk_export_bytes", &self.export_bytes);
        prom_hist(&mut out, "hk_dark_packets", &self.dark_packets);
        let _ = writeln!(
            out,
            "# TYPE hk_journal_recorded counter\nhk_journal_recorded {}",
            self.journal.recorded
        );
        let _ = writeln!(
            out,
            "# TYPE hk_journal_dropped counter\nhk_journal_dropped {}",
            self.journal.dropped
        );
        let mut by_label: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.journal.events {
            let label = e.kind.label();
            match by_label.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => by_label.push((label, 1)),
            }
        }
        out.push_str("# TYPE hk_journal_events counter\n");
        for (label, n) in by_label {
            let _ = writeln!(out, "hk_journal_events{{kind=\"{label}\"}} {n}");
        }
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
        c.set(7);
        assert_eq!(c.get(), 7);
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
    fn journal_wraparound_overwrites_oldest() {
        let j = EventJournal::with_capacity(4);
        for shard in 0..10u64 {
            j.record(EventKind::WorkerDeath { shard });
        }
        let s = j.snapshot();
        assert_eq!(s.events.len(), 4, "ring holds capacity events");
        assert_eq!(s.recorded, 10);
        assert_eq!(s.dropped, 6, "six oldest overwritten");
        // The survivors are the newest four, oldest first.
        let seqs: Vec<u64> = s.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let shards: Vec<u64> = s
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerDeath { shard } => shard,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(shards, vec![6, 7, 8, 9]);
    }

    #[test]
    fn journal_seq_monotone_and_gap_free_under_capacity() {
        let j = EventJournal::with_capacity(64);
        for switch in 0..50u64 {
            j.record(EventKind::Resync { switch });
        }
        let s = j.snapshot();
        assert_eq!(s.dropped, 0);
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "dense monotone sequence");
        }
    }

    #[test]
    fn journal_concurrent_writers_keep_seq_unique_and_account_drops() {
        // Satellite: concurrent writers from multiple shard threads.
        let j = Arc::new(EventJournal::with_capacity(32));
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
        assert_eq!(s.recorded, total, "every record got a unique seq");
        assert_eq!(s.events.len(), 32);
        assert_eq!(s.dropped, total - 32, "drops account for every overwrite");
        // Retained events are strictly increasing and are the newest.
        for w in s.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(s.events.last().unwrap().seq, total - 1);
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
        hub.journal.record(EventKind::Recovery {
            shard: 1,
            dark_packets: 42,
        });
        hub.journal.record(EventKind::ReshardPhase {
            from_shards: 2,
            to_shards: 4,
            stage: ReshardStage::Commit,
        });
        let json = hub.snapshot().render_json();
        assert!(json.contains("\"dispatch_packets\": 5000"), "{json}");
        assert!(json.contains("\"ingest_packets\": 5000"), "{json}");
        assert!(json.contains("\"kind\": \"recovery\""), "{json}");
        assert!(json.contains("\"dark_packets\": 42"), "{json}");
        assert!(json.contains("\"stage\": \"commit\""), "{json}");
        // Braces balance (cheap well-formedness check without a parser).
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "balanced brackets:\n{json}");
    }

    #[test]
    fn prometheus_render_has_types_and_labels() {
        let hub = ObsHub::new();
        hub.stages.rotations.add(3);
        hub.worker(1).shard.ingest_packets.add(9);
        hub.export_bytes.record(4096);
        hub.journal.record(EventKind::Eviction { switch: 5 });
        hub.journal.record(EventKind::Eviction { switch: 6 });
        let text = hub.snapshot().render_prometheus();
        assert!(text.contains("# TYPE hk_rotations counter\nhk_rotations 3"));
        assert!(text.contains("hk_shard_ingest_packets{shard=\"1\"} 9"));
        assert!(text.contains("hk_export_bytes{quantile=\"0.99\"} 8191"));
        assert!(text.contains("hk_journal_events{kind=\"eviction\"} 2"));
    }
}
