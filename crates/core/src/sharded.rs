//! The sharded multi-core engine: one algorithm instance per thread.
//!
//! The paper scales HeavyKeeper across cores by RSS-style partitioning:
//! the NIC hashes each flow to one receive queue, and every queue's
//! packets are measured independently (Section VII). [`ShardedEngine`]
//! is that architecture in software, generalized over *every* algorithm
//! in the workspace — HK variants and baselines alike — through the
//! [`PreparedInsert`] capability (whose supertrait is
//! [`TopKAlgorithm`]):
//!
//! * **Hash-once routing.** The dispatch plane prepares each key
//!   exactly once. When every shard reports the same
//!   [`PreparedInsert::hash_spec`] **and** consumes prepared batches
//!   ([`PreparedInsert::consumes_prepared`] — the common case for HK
//!   shards, which share a seed to stay merge-compatible), the same
//!   [`PreparedKey`] that picks the shard (via [`PreparedKey::lane`],
//!   a further fold of the hash, independent of bucket placement) is
//!   **shipped to the worker**, which ingests through
//!   [`PreparedInsert::insert_prepared_batch`] — no second hash
//!   anywhere. Shards with divergent specs (e.g. per-shard seeds), or
//!   shards that would discard prepared state (non-hashing baselines),
//!   fall back to routing under a dedicated seed and worker-side
//!   `insert_batch`.
//! * **Zero-alloc dispatch.** Keys are partitioned into per-shard
//!   structure-of-arrays sub-batches (`keys` + `PreparedKey`s, plain
//!   `Copy` stores — [`FlowKey`] keys are small POD, never cloned
//!   through an allocation). Filled sub-batches travel to workers over
//!   bounded [`SpscRing`]s and the drained buffers come back over a
//!   per-shard **return ring**, so after warm-up a steady stream
//!   dispatches with no allocation at all
//!   ([`ShardedEngine::dispatch_buffers_allocated`] stops moving).
//!   A full work ring is **backpressure**: the dispatcher holds the
//!   batch until the worker frees a slot, instead of queueing without
//!   bound.
//! * **Merge at query.** Because flows are partitioned, the global
//!   top-k is the k largest of the union of per-shard top-ks — no
//!   cross-shard double counting. For Parallel shards the classic
//!   sketch [`crate::merge`] machinery is additionally available
//!   through [`ShardedEngine::merged`], which folds every shard into
//!   one instance for network-wide-style queries.
//!
//! ## Batch boundary and snapshot semantics
//!
//! Scalar [`TopKAlgorithm::insert`] calls accumulate in a per-shard
//! pending buffer and are dispatched when [`BATCH_CAPACITY`] packets
//! are buffered; [`TopKAlgorithm::insert_batch`] dispatches at every
//! call boundary.
//! Any read ([`TopKAlgorithm::query`] / [`TopKAlgorithm::top_k`])
//! first dispatches pending packets and then **flushes**: it waits until
//! every shard has drained its ring, so reads always observe every
//! packet inserted before them — the pipeline lag is bounded by the
//! flush, not exposed to readers. Within one shard packets are
//! processed in arrival order by a single thread, so results are
//! deterministic: independent of scheduling, equal to running each
//! shard's sub-stream sequentially.
//!
//! ## Worker wakeups
//!
//! Workers spin briefly on an empty ring, then advertise themselves
//! asleep and park; the dispatcher unparks a sleeping worker only after
//! an actual push (edge-triggered — no per-send syscalls while the
//! worker is busy, unlike an mpsc channel's per-send notification).
//!
//! ## Worker death
//!
//! A shard algorithm that panics inside ingest kills its worker thread.
//! The engine does **not** propagate that as a panic on the caller
//! thread: the shard is marked *poisoned*, [`ShardedEngine::flush`]
//! (and the non-trait ingest/rotation entry points) report it as a
//! [`ShardPoisoned`] error, packets routed to it are dropped and counted
//! in [`ShardedEngine::lost_packets`], and reads keep serving from the
//! surviving shards (a poisoned shard's flows go unreported — its state
//! may be torn mid-insert).
//!
//! ## Checkpoint/respawn recovery
//!
//! Poisoning alone leaves a dead shard dark forever. With
//! [`ShardedEngine::enable_checkpoints`] the engine turns worker death
//! into a *bounded-loss, self-healing* event instead:
//!
//! * **Checkpointing.** Every shard's algorithm is periodically encoded
//!   (via [`ShardCheckpoint`] — the encoding is the algorithm's own wire
//!   format, so wire frames double as restart state) into an in-engine
//!   checkpoint slot. Checkpoint *ops* ride the work ring like any
//!   control message, so a checkpoint captures the state after exactly
//!   the packets dispatched before it — a well-defined cut of the
//!   shard's sub-stream. Cadence: every `N` dispatched batches, at
//!   every [`ShardedEngine::rotate_all`] barrier, and on demand via
//!   [`ShardedEngine::checkpoint_now`].
//! * **Respawn.** [`ShardedEngine::recover`] decodes each poisoned
//!   shard's last checkpoint, spawns a fresh worker with fresh SPSC
//!   work/return rings (the dead thread still owns clones of the old
//!   ones), re-admits the lane, and reports the *dark window* — the
//!   packets routed to the shard after the checkpoint cut, which the
//!   restored state does not include — in a [`RecoveryReport`], which
//!   it also journals (see Observability below). With
//!   [`ShardedEngine::set_auto_recover`] the ingest entry points run
//!   the same recovery as soon as they observe a dead worker, so the
//!   stream heals without caller involvement. Reads during the dark
//!   window keep degrading to the surviving shards as before.
//! * **Fault injection.** Recovery code only exercised by hand-crafted
//!   thread aborts rots; [`ShardedEngine::set_fault_plan`] installs a
//!   deterministic [`FaultPlan`] — kill / mid-walk / wedge at exact
//!   sub-stream positions — threaded through the worker loop, so every
//!   recovery path has a reproducible test.
//!
//! ## Epoch rotation
//!
//! For epoch-organized shards (e.g. [`crate::SlidingTopK`]) the engine
//! phase-aligns period boundaries across shards:
//! [`ShardedEngine::rotate_all`] dispatches everything pending and then
//! enqueues a rotation control message behind it on every shard's
//! ring, so every shard rotates at the same point of its sub-stream
//! without a stop-the-world barrier.
//!
//! Rotation, on-demand checkpoints and the checkpoint baseline share one
//! private barrier: dispatch what is pending under the pending lock,
//! then enqueue one op per shard, optionally waiting for the flush.
//!
//! ## Observability
//!
//! Every engine builds its own [`ObsHub`] and hands each worker its
//! [`WorkerObs`] bundle at spawn (first spawn, respawn and reshard
//! alike). Instrumentation samples at batch boundaries only: one clock
//! read and two counter bumps per dispatched sub-batch, one elapsed
//! time, two counter bumps and two histogram records per drained one —
//! the per-packet walk stays timing- and counter-free.
//! [`ShardedEngine::obs_snapshot`] adds the totals the engine owns
//! (ring traffic, lost packets) to the hub's snapshot.
//!
//! The hub's journal is the engine's only record of worker deaths,
//! recoveries and reshard phases: each is journaled once, where it
//! happens. [`ShardedEngine::recovery_log`] and the snapshot's
//! lifecycle counters are views of it.

use crate::config::HkConfig;
use crate::fault::{FaultKind, FaultPlan, ShardFaults};
use crate::merge::MergeError;
use crate::parallel::ParallelTopK;
use crate::reshard::{donor_range, lane_to_shard, ReshardError, ReshardReport};
use crate::spsc::{PushError, SpscRing};
use hk_common::algorithm::{
    EpochRotate, PreparedInsert, ShardCheckpoint, ShardReshard, TopKAlgorithm,
};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, PreparedKey};
use hk_obs::{EventKind, ObsHub, ReshardStage, Snapshot, WorkerObs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

pub use hk_obs::RecoveryReport;

/// Seed of the fallback routing hash, used only when shards disagree on
/// their [`PreparedInsert::hash_spec`] (so no single prepared key is
/// portable to every shard). Distinct from every algorithm seed in use
/// so shard assignment stays independent of bucket placement.
const ROUTE_SEED: u64 = 0x5EED_0F50 ^ 0xA110_C8ED;

/// Number of scalar inserts buffered before a dispatch.
pub const BATCH_CAPACITY: usize = 4096;

/// Work-ring depth per shard: how many dispatched sub-batches may be in
/// flight before the dispatcher blocks (backpressure). Small on
/// purpose — at the default batch size one slot is thousands of
/// packets, and a deep ring would only hide a slow shard behind queue
/// growth. A full ring always blocks: shedding would trade exact
/// accounting for a latency bound no caller asks for.
const WORK_RING_CAPACITY: usize = 8;

/// Return-ring depth: work ring + the buffer the worker holds + the one
/// the dispatcher is filling, so a drained buffer essentially always
/// finds a free return slot (an overflowing return drops the buffer —
/// self-correcting, the dispatcher allocates a fresh one on demand).
const RECYCLE_RING_CAPACITY: usize = WORK_RING_CAPACITY + 2;

/// How many empty polls a worker burns before parking.
const WORKER_SPIN: usize = 64;

/// A routed sub-batch in structure-of-arrays form: flow keys and, on
/// the hash-once handoff path, their prepared hash state (index
/// aligned; empty in route-only mode). Buffers cycle dispatcher →
/// work ring → worker → return ring → dispatcher, keeping their
/// capacity, so steady-state dispatch neither allocates nor frees.
struct SubBatch<K> {
    keys: Vec<K>,
    prepared: Vec<PreparedKey>,
    /// Dispatch timestamp for the dispatch→drain latency histogram:
    /// one `Instant::now` per *batch*, restamped at every dispatch —
    /// never per packet.
    sent_at: Instant,
}

impl<K> SubBatch<K> {
    fn new() -> Self {
        Self {
            keys: Vec::new(),
            prepared: Vec::new(),
            sent_at: Instant::now(),
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.prepared.clear();
    }
}

/// One unit of shard-worker work: a routed sub-batch, or a control
/// operation applied to the shard's algorithm in stream order (e.g. the
/// epoch rotation of [`ShardedEngine::rotate_all`]). Because the ring
/// preserves order and every shard receives the same cut — all
/// sub-batches dispatched before the op, none after — control ops stay
/// phase-aligned across shards.
enum ShardMsg<K, A> {
    Batch(SubBatch<K>),
    Op(Box<dyn FnOnce(&mut A) + Send>),
}

/// Error: one or more shard workers died mid-stream (the shard's
/// algorithm panicked while ingesting). The engine keeps serving from
/// the surviving shards; packets routed to a poisoned shard are
/// counted in [`ShardedEngine::lost_packets`] and dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPoisoned {
    /// Indices of the dead shards, ascending.
    pub shards: Vec<usize>,
}

impl std::fmt::Display for ShardPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard worker(s) {:?} died (algorithm panicked during ingest)",
            self.shards
        )
    }
}

impl std::error::Error for ShardPoisoned {}

/// A shard's last taken checkpoint: the encoded restart state plus the
/// routed-packet count at its cut (the value of the shard's cumulative
/// routed counter when the checkpoint op was enqueued — by ring order,
/// exactly the packets the worker had applied when it encoded).
#[derive(Clone)]
struct CheckpointSlot {
    bytes: Vec<u8>,
    packets: u64,
}

/// Error: [`ShardedEngine::recover`] could not respawn a dead shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// [`ShardedEngine::enable_checkpoints`] was never called, so there
    /// is no restore path (the engine cannot name `A`'s decoder without
    /// the [`ShardCheckpoint`] capability being captured first).
    CheckpointsDisabled,
    /// The shard died before its first checkpoint was taken.
    NoCheckpoint {
        /// The shard that has no checkpoint to restore from.
        shard: usize,
    },
    /// The shard's checkpoint bytes failed to decode. Shards recovered
    /// earlier in the same call stay recovered.
    CheckpointCorrupt {
        /// The shard whose checkpoint did not decode.
        shard: usize,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CheckpointsDisabled => {
                write!(f, "recovery requires enable_checkpoints to be called first")
            }
            Self::NoCheckpoint { shard } => {
                write!(f, "shard {shard} died before its first checkpoint")
            }
            Self::CheckpointCorrupt { shard } => {
                write!(f, "shard {shard}'s checkpoint bytes failed to decode")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

struct Shard<K, A> {
    algo: Arc<Mutex<A>>,
    /// Dispatcher → worker transport (sub-batches + control ops).
    work: Arc<SpscRing<ShardMsg<K, A>>>,
    /// Worker → dispatcher transport of drained, cleared buffers.
    recycled: Arc<SpscRing<SubBatch<K>>>,
    /// Flush units handed to the worker (batch lengths + 1 per op).
    /// Written only on the producer side, under the pending lock.
    enqueued: AtomicU64,
    /// Flush units the worker has fully applied.
    processed: Arc<AtomicU64>,
    /// True while the worker is parked on an empty ring; the dispatcher
    /// unparks (and clears) it after a push. Edge-triggered wakeups.
    sleeping: Arc<AtomicBool>,
    /// The worker's thread handle, for unparking.
    unparker: std::thread::Thread,
    /// Set once the worker is observed dead with work outstanding; the
    /// shard is skipped from then on instead of panicking the caller
    /// thread.
    poisoned: AtomicBool,
    /// Cumulative packets routed to this shard (enqueued *or* dropped
    /// dead), written on the producer side under the pending lock.
    /// Rebased to the checkpoint cut on respawn, so `routed - ckpt`
    /// is the dark window across repeated kills.
    packets_routed: AtomicU64,
    /// Batches dispatched since the last scheduled checkpoint
    /// (producer side, under the pending lock).
    ckpt_batches: AtomicU64,
    /// The last taken checkpoint. Shared with in-flight checkpoint ops
    /// and preserved across respawns.
    checkpoint: Arc<Mutex<Option<CheckpointSlot>>>,
    /// This shard's slice of the installed fault plan. Preserved across
    /// respawns so repeated faults keep firing in sequence.
    faults: Arc<ShardFaults>,
    worker: Option<JoinHandle<()>>,
}

impl<K, A> Shard<K, A> {
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Wakes the worker iff it advertised itself asleep.
    fn wake(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.unparker.unpark();
        }
    }
}

struct Pending<K> {
    per_shard: Vec<SubBatch<K>>,
    total: usize,
}

/// [`ShardCheckpoint::encode_checkpoint`] captured as a plain fn
/// pointer (see the `encode` field on [`ShardedEngine`]).
type EncodeFn<A> = fn(&A) -> Vec<u8>;
/// [`ShardCheckpoint::restore_checkpoint`] captured likewise.
type RestoreFn<A> = fn(&[u8]) -> Option<A>;

/// A multi-core top-k engine: `N` owned shards of any
/// [`PreparedInsert`] algorithm, fed hash-partitioned prepared
/// sub-batches over bounded SPSC rings.
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, ShardedEngine, ParallelTopK};
/// use hk_common::TopKAlgorithm;
///
/// let cfg = HkConfig::builder().width(512).k(8).seed(1).build();
/// let mut engine = ShardedEngine::parallel(&cfg, 4);
/// let batch: Vec<u64> = (0..40_000).map(|i| i % 10).collect();
/// engine.insert_batch(&batch);
/// assert_eq!(engine.top_k().len(), 8);
/// ```
pub struct ShardedEngine<K: FlowKey, A: TopKAlgorithm<K>> {
    shards: Vec<Shard<K, A>>,
    /// The spec keys are prepared under on the dispatch thread: the
    /// shards' shared [`PreparedInsert::hash_spec`] in handoff mode,
    /// a dedicated routing spec otherwise.
    route: HashSpec,
    /// True when every shard shares `route` and therefore consumes the
    /// dispatcher's prepared keys directly (hash-once handoff).
    handoff: bool,
    k: usize,
    pending: Mutex<Pending<K>>,
    /// Packets routed to a shard after its worker died (dropped, since
    /// no thread can ingest them).
    lost: AtomicU64,
    /// Sub-batch buffers ever allocated (the initial per-shard set plus
    /// any allocated when the return ring came up empty). Flat after
    /// warm-up — the recycling invariant the tests pin down.
    buffers_allocated: AtomicU64,
    /// Checkpoint cadence in dispatched batches per shard; `None` until
    /// [`ShardedEngine::enable_checkpoints`].
    checkpoint_every: Option<u64>,
    /// `A`'s checkpoint encoder, captured as a plain fn pointer so the
    /// unbounded engine paths (dispatch, rotate) can schedule
    /// checkpoints without a `ShardCheckpoint` bound.
    encode: Option<EncodeFn<A>>,
    /// `A`'s checkpoint decoder, captured like `encode`.
    restore: Option<RestoreFn<A>>,
    /// When set, ingest entry points respawn dead shards themselves.
    auto_recover: bool,
    /// The installed fault plan, kept so a reshard can arm shard
    /// indices the old topology never had (`None` when no plan).
    fault_plan: Option<FaultPlan>,
    /// The engine's own observability hub; its journal is the only
    /// record of deaths, recoveries and reshard phases (see the module
    /// docs).
    obs: ObsHub,
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    /// Builds the engine from pre-configured shard instances, reporting
    /// the `k` largest flows at query time.
    ///
    /// When every instance reports the same
    /// [`PreparedInsert::hash_spec`] and consumes prepared batches,
    /// the engine runs in hash-once handoff mode: keys are prepared
    /// once on the dispatch thread (routing rides
    /// [`PreparedKey::lane`]) and workers ingest the shipped prepared
    /// batches without re-hashing. Divergent specs (e.g. deliberately
    /// different per-shard seeds) or prepared-discarding shards fall
    /// back to a dedicated routing hash with worker-side
    /// `insert_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or `k == 0`.
    pub fn from_shards(shards: Vec<A>, k: usize) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(k > 0, "k must be positive");
        let n = shards.len();
        let first_spec = shards[0].hash_spec();
        // Handoff mode needs both halves: every shard must *accept* the
        // same prepared keys (equal specs) and actually *read* them
        // (`consumes_prepared`) — shipping 12 B/packet of prepared
        // state to an algorithm that discards it is pure overhead, so
        // such shards get routing-only dispatch instead.
        let handoff = shards
            .iter()
            .all(|s| s.hash_spec() == first_spec && s.consumes_prepared());
        let route = if handoff {
            first_spec
        } else {
            HashSpec::new(ROUTE_SEED, 32)
        };
        let obs = ObsHub::new();
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                Self::spawn_shard(a, handoff, Arc::default(), Arc::default(), 0, obs.worker(i))
            })
            .collect();
        Self {
            shards,
            route,
            handoff,
            k,
            pending: Mutex::new(Pending {
                per_shard: (0..n).map(|_| SubBatch::new()).collect(),
                total: 0,
            }),
            lost: AtomicU64::new(0),
            buffers_allocated: AtomicU64::new(n as u64),
            checkpoint_every: None,
            encode: None,
            restore: None,
            auto_recover: false,
            fault_plan: None,
            obs,
        }
    }

    /// Spawns a shard worker around `algo`, reusing the given checkpoint
    /// slot and fault schedule (fresh on first spawn, the dead shard's
    /// on respawn) and starting the routed counter and the worker's
    /// applied-packet position at `base_packets` — the restoring
    /// checkpoint's cut, so dark-window accounting and fault thresholds
    /// stay in cumulative sub-stream coordinates across repeated kills.
    /// `obs` is the worker's bundle for its shard slot, so a respawned
    /// or resharded shard keeps accumulating on the slot's series.
    fn spawn_shard(
        algo: A,
        handoff: bool,
        checkpoint: Arc<Mutex<Option<CheckpointSlot>>>,
        faults: Arc<ShardFaults>,
        base_packets: u64,
        obs: WorkerObs,
    ) -> Shard<K, A> {
        let algo = Arc::new(Mutex::new(algo));
        let processed = Arc::new(AtomicU64::new(0));
        let sleeping = Arc::new(AtomicBool::new(false));
        let work = Arc::new(SpscRing::new(WORK_RING_CAPACITY));
        let recycled = Arc::new(SpscRing::new(RECYCLE_RING_CAPACITY));
        let worker = {
            let algo = Arc::clone(&algo);
            let processed = Arc::clone(&processed);
            let sleeping = Arc::clone(&sleeping);
            let work = Arc::clone(&work);
            let recycled = Arc::clone(&recycled);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || {
                Self::worker_loop(
                    &algo,
                    &work,
                    &recycled,
                    &processed,
                    base_packets,
                    &sleeping,
                    &faults,
                    handoff,
                    &obs,
                )
            })
        };
        let unparker = worker.thread().clone();
        Shard {
            algo,
            work,
            recycled,
            enqueued: AtomicU64::new(0),
            processed,
            sleeping,
            unparker,
            poisoned: AtomicBool::new(false),
            packets_routed: AtomicU64::new(base_packets),
            ckpt_batches: AtomicU64::new(0),
            checkpoint,
            faults,
            worker: Some(worker),
        }
    }

    /// The shard worker: drain the work ring in order, return drained
    /// buffers, park when idle. Runs until the dispatcher closes the
    /// ring (engine drop) and the backlog is drained — or an injected
    /// fault takes it down first.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        algo: &Mutex<A>,
        work: &SpscRing<ShardMsg<K, A>>,
        recycled: &SpscRing<SubBatch<K>>,
        processed: &AtomicU64,
        base_packets: u64,
        sleeping: &AtomicBool,
        faults: &ShardFaults,
        handoff: bool,
        obs: &WorkerObs,
    ) {
        // Cumulative packets applied, in the same rebased coordinates as
        // the shard's routed counter: the stream position fault
        // thresholds are measured against.
        let mut packets_done = base_packets;
        let mut spins = 0usize;
        loop {
            match work.try_pop() {
                Some(ShardMsg::Batch(mut batch)) => {
                    spins = 0;
                    let units = batch.keys.len() as u64;
                    let applied = packets_done;
                    if let Some((threshold, kind)) = faults.crossing(applied, units) {
                        match kind {
                            // Clean death at a batch boundary: nothing
                            // of the crossing batch is applied.
                            FaultKind::Kill => {
                                // hk-lint: allow(panic-free-worker-paths) deliberate fault injection: this panic IS the simulated worker death
                                panic!("fault injection: kill at {threshold} packets")
                            }
                            // Torn death: apply the batch up to the
                            // threshold, then die *holding* the algo
                            // mutex — sketch torn mid-stream, mutex
                            // poisoned. The worst case recovery must
                            // absorb.
                            FaultKind::MidWalk => {
                                let cut = (threshold.saturating_sub(applied) as usize)
                                    .min(batch.keys.len());
                                let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                                if handoff {
                                    guard.insert_prepared_batch(
                                        &batch.keys[..cut],
                                        &batch.prepared[..cut],
                                    );
                                } else {
                                    guard.insert_batch(&batch.keys[..cut]);
                                }
                                // hk-lint: allow(panic-free-worker-paths) deliberate fault injection: dies holding the algo mutex to simulate a torn walk
                                panic!("fault injection: mid-walk at {threshold} packets")
                            }
                            // Silent stop: close the work ring from the
                            // consumer side and exit without panicking,
                            // so the dispatcher's backpressure path sees
                            // `Closed` (not `Full`) on a live-looking
                            // shard.
                            FaultKind::Wedge => {
                                work.close();
                                return;
                            }
                        }
                    }
                    {
                        // A *live* worker can only observe poison from
                        // a reader thread panicking in its `with_shard`
                        // closure (shared access — the sketch is not
                        // torn); a panic on this thread would have
                        // killed the worker already. Absorb and keep
                        // ingesting.
                        let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                        if handoff {
                            guard.insert_prepared_batch(&batch.keys, &batch.prepared);
                        } else {
                            guard.insert_batch(&batch.keys);
                        }
                    }
                    // Instrumentation samples at the batch boundary,
                    // once per *drained batch* — the per-packet walk
                    // above stays timing- and counter-free.
                    obs.shard.ingest_batches.incr();
                    obs.shard.ingest_packets.add(units);
                    obs.batch_packets.record(units);
                    let ns = batch.sent_at.elapsed().as_nanos();
                    obs.latency_ns.record(u64::try_from(ns).unwrap_or(u64::MAX));
                    packets_done += units;
                    // Hand the drained buffer back for reuse; a full
                    // return ring just drops it (the dispatcher will
                    // allocate a replacement on demand). The push comes
                    // before the progress count: a `flush` that sees the
                    // count returns, and the next dispatch must find
                    // this buffer on the return ring, not allocate one.
                    batch.clear();
                    let _ = recycled.try_push(batch);
                    processed.fetch_add(units, Ordering::Release);
                }
                Some(ShardMsg::Op(op)) => {
                    spins = 0;
                    {
                        let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                        op(&mut guard);
                    }
                    processed.fetch_add(1, Ordering::Release);
                }
                None => {
                    if work.is_closed() {
                        return; // Drained and shut down.
                    }
                    if spins < WORKER_SPIN {
                        spins += 1;
                        std::hint::spin_loop();
                        continue;
                    }
                    // Sleep protocol: advertise, re-check, park. Every
                    // access in the handshake is SeqCst, so in the
                    // total order either this re-check sees the
                    // push/close, or the other side's post-push (or
                    // post-close) `wake` sees the flag and unparks —
                    // a missed wakeup is impossible, and an unpark
                    // that wins the race just makes `park` return
                    // immediately. The generous timeout is a pure
                    // backstop, cheap enough (a few wakeups per
                    // second) that an idle engine stays idle.
                    sleeping.store(true, Ordering::SeqCst);
                    if !work.is_empty() || work.is_closed() {
                        sleeping.store(false, Ordering::SeqCst);
                        continue;
                    }
                    std::thread::park_timeout(std::time::Duration::from_millis(250));
                    sleeping.store(false, Ordering::SeqCst);
                    spins = 0;
                }
            }
        }
    }

    /// Builds the engine with `n` shards produced by `make(shard_index)`.
    pub fn from_fn(n: usize, k: usize, make: impl FnMut(usize) -> A) -> Self {
        let mut make = make;
        Self::from_shards((0..n).map(&mut make).collect(), k)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// True when the engine ships dispatcher-prepared keys to workers
    /// (all shards share one hash spec **and** consume prepared
    /// batches); false when routing falls back to the dedicated seed
    /// and workers ingest through their own `insert_batch`.
    pub fn prepared_handoff(&self) -> bool {
        self.handoff
    }

    /// Sub-batch buffers allocated so far: the initial per-shard set
    /// plus one for every dispatch that found its shard's return ring
    /// empty. Flat after warm-up — the observable form of "steady-state
    /// dispatch allocates nothing".
    pub fn dispatch_buffers_allocated(&self) -> u64 {
        self.buffers_allocated.load(Ordering::Acquire)
    }

    /// Routes a prepared key's lane to a shard index (multiply-shift
    /// over the shard count — no modulo bias, no division). Shared
    /// with the reshard plane ([`crate::reshard`]), whose donor
    /// selection and store repartition must use the exact same fold.
    #[inline]
    fn lane_shard(&self, lane: u32) -> usize {
        lane_to_shard(lane, self.shards.len())
    }

    /// The shard index `key` routes to.
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        let kb = key.key_bytes();
        self.lane_shard(self.route.prepare(kb.as_slice()).lane())
    }

    /// Runs `f` against one shard's algorithm (flushed first), for
    /// diagnostics and merging. Returns `None` when the shard is
    /// poisoned (its worker died mid-ingest and its state may be torn)
    /// — the engine degrades to the surviving shards instead of
    /// panicking; [`ShardedEngine::poisoned_shards`] names the dead
    /// ones.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&A) -> R) -> Option<R> {
        let _ = self.dispatch_and_flush();
        let s = &self.shards[shard];
        if s.is_poisoned() {
            return None;
        }
        // A poisoned algo mutex (the worker panicked holding it) means
        // the same thing as a poisoned shard: torn state, no answer.
        let guard = s.algo.lock().ok()?;
        Some(f(&guard))
    }

    /// The pending-buffer lock, recovering from poison: `Pending` is
    /// plain routed-buffer state (keys copied in, a running total), so
    /// a caller thread that panicked mid-route leaves it usable — at
    /// worst a partially routed batch that the next dispatch ships.
    /// Recovering keeps a single caller panic from wedging every later
    /// ingest and read on this engine.
    fn lock_pending(&self) -> MutexGuard<'_, Pending<K>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dispatches buffered scalar inserts and waits until every live
    /// shard has drained its ring. After this returns `Ok`, every
    /// packet previously inserted is reflected in shard state.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when any shard's worker has died (its
    /// algorithm panicked during ingest). The engine stays usable: the
    /// surviving shards are fully flushed, reads keep working over
    /// them, and packets routed to dead shards are dropped and counted
    /// in [`ShardedEngine::lost_packets`].
    pub fn flush(&self) -> Result<(), ShardPoisoned> {
        self.dispatch_and_flush()
    }

    /// Indices of shards whose workers have died so far (ascending;
    /// empty in the healthy steady state). Detection happens on
    /// dispatch/flush boundaries, so call [`ShardedEngine::flush`]
    /// first for an up-to-date answer.
    pub fn poisoned_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_poisoned())
            .map(|(i, _)| i)
            .collect()
    }

    /// Packets dropped because their shard's worker was dead: packets
    /// routed to an already-poisoned shard, plus the backlog that was
    /// queued when the death was detected (best-effort — a control op
    /// in flight at the moment of death can perturb the count by its
    /// single flush unit).
    pub fn lost_packets(&self) -> u64 {
        self.lost.load(Ordering::Acquire)
    }

    /// Always zero: a full work ring blocks the dispatcher until the
    /// worker frees a slot, so no packet is ever shed. Kept for
    /// callers that still report it next to
    /// [`ShardedEngine::lost_packets`].
    pub fn shed_packets(&self) -> u64 {
        0
    }

    /// A coherent snapshot of the engine's hub (see the module docs),
    /// with the totals the engine owns filled in: SPSC ring pushes and
    /// pops over the live shards' work and return rings, and
    /// [`ShardedEngine::lost_packets`].
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = self.obs.snapshot();
        for shard in &self.shards {
            snap.stages.ring_pushes += shard.work.pushes() + shard.recycled.pushes();
            snap.stages.ring_pops += shard.work.pops() + shard.recycled.pops();
        }
        snap.stages.lost_packets = self.lost_packets();
        snap
    }

    /// Journals a reshard phase transition.
    fn obs_reshard_phase(&self, from: usize, to: usize, stage: ReshardStage) {
        self.obs.journal.record(EventKind::ReshardPhase {
            from_shards: from as u64,
            to_shards: to as u64,
            stage,
        });
    }

    /// Accounts a newly detected worker death exactly once: whichever
    /// racing observer wins the false→true transition owns the
    /// enqueued-but-unprocessed backlog (the worker is dead, so
    /// `processed` is final).
    fn poison_shard(&self, idx: usize) {
        let shard = &self.shards[idx];
        if shard
            .poisoned
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let target = shard.enqueued.load(Ordering::Acquire);
            let done = shard.processed.load(Ordering::Acquire);
            self.lost
                .fetch_add(target.saturating_sub(done), Ordering::Release);
            self.obs
                .journal
                .record(EventKind::WorkerDeath { shard: idx as u64 });
        }
    }

    /// Hands one message to a shard worker, blocking on a full ring
    /// (backpressure) until the worker frees a slot or is found dead.
    /// `flush_units` is what the flush accounting waits for (batch
    /// length, or 1 for a control op); `packet_units` is how many real
    /// packets the message carries — only those count as
    /// [`ShardedEngine::lost_packets`] when the shard is dead (a
    /// dropped rotation op is not packet loss).
    ///
    /// Producer-side ring access: all callers hold the pending lock,
    /// which is the SPSC producer-exclusivity discipline.
    fn send_to_shard(&self, idx: usize, msg: ShardMsg<K, A>, flush_units: u64, packet_units: u64) {
        let shard = &self.shards[idx];
        // Routed = destined for this shard, delivered or not: the dark
        // window a recovery reports is everything sent after the
        // checkpoint cut, including packets dropped while the shard was
        // down.
        shard
            .packets_routed
            .fetch_add(packet_units, Ordering::Release);
        if shard.is_poisoned() {
            self.lost.fetch_add(packet_units, Ordering::Release);
            return;
        }
        let mut msg = msg;
        loop {
            match shard.work.try_push(msg) {
                Ok(()) => {
                    // Count after a successful push: counting first
                    // would open a window where a racing flush waits on
                    // (and a racing death accounting double-counts)
                    // units that were never delivered.
                    shard.enqueued.fetch_add(flush_units, Ordering::Release);
                    shard.wake();
                    return;
                }
                Err(err) => {
                    // Full ring: real backpressure while the worker is
                    // alive; a dead worker can never free a slot, so
                    // poison instead of spinning forever. (Closed only
                    // happens mid-drop; treat it like death.)
                    let closed = matches!(err, PushError::Closed(_));
                    if closed || shard.worker.as_ref().is_none_or(|w| w.is_finished()) {
                        // This message never entered `enqueued`, so its
                        // loss is owned here unconditionally.
                        self.lost.fetch_add(packet_units, Ordering::Release);
                        self.poison_shard(idx);
                        return;
                    }
                    msg = err.into_inner();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Grabs an empty sub-batch buffer for shard `idx`: recycled from
    /// the worker's return ring when available, freshly allocated (and
    /// counted) only when the cycle has not converged yet.
    fn take_buffer(&self, idx: usize) -> SubBatch<K> {
        match self.shards[idx].recycled.try_pop() {
            Some(buf) => {
                debug_assert!(buf.keys.is_empty(), "worker returns cleared buffers");
                buf
            }
            None => {
                self.buffers_allocated.fetch_add(1, Ordering::Release);
                SubBatch::new()
            }
        }
    }

    fn dispatch_locked(&self, pending: &mut Pending<K>) {
        if pending.total == 0 {
            return;
        }
        for idx in 0..pending.per_shard.len() {
            if pending.per_shard[idx].keys.is_empty() {
                continue;
            }
            if self.shards[idx].is_poisoned() {
                // Dead shard: its packets are lost either way, so drop
                // them in place — clearing keeps the buffer (and its
                // capacity), taking no replacement, so a long-lived
                // engine with one dead shard stays zero-alloc. Still
                // routed, for dark-window accounting.
                let units = pending.per_shard[idx].keys.len() as u64;
                self.shards[idx]
                    .packets_routed
                    .fetch_add(units, Ordering::Release);
                self.lost.fetch_add(units, Ordering::Release);
                pending.per_shard[idx].clear();
                continue;
            }
            let replacement = self.take_buffer(idx);
            let mut batch = std::mem::replace(&mut pending.per_shard[idx], replacement);
            let units = batch.keys.len() as u64;
            self.obs.stages.dispatch_batches.incr();
            self.obs.stages.dispatch_packets.add(units);
            // One clock read per dispatched batch, at the batch
            // boundary — the worker computes the elapsed
            // dispatch→drain time when it drains this buffer.
            batch.sent_at = Instant::now();
            self.send_to_shard(idx, ShardMsg::Batch(batch), units, units);
            // Scheduled checkpoint: every `checkpoint_every` dispatched
            // batches, the shard encodes itself right behind the work
            // it just received.
            if let Some(every) = self.checkpoint_every {
                let n = self.shards[idx]
                    .ckpt_batches
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                if n >= every {
                    self.enqueue_checkpoint(idx);
                }
            }
        }
        pending.total = 0;
    }

    /// Enqueues a checkpoint op on shard `idx`'s ring (caller holds the
    /// pending lock — producer discipline) and restarts the shard's
    /// checkpoint cadence. The op rides behind every batch dispatched so
    /// far, so the state it encodes is exactly the routed-counter cut
    /// captured here. A no-op until checkpoints are enabled.
    fn enqueue_checkpoint(&self, idx: usize) {
        let Some(encode) = self.encode else { return };
        let shard = &self.shards[idx];
        shard.ckpt_batches.store(0, Ordering::Relaxed);
        if shard.is_poisoned() {
            return;
        }
        let at_packets = shard.packets_routed.load(Ordering::Acquire);
        let slot = Arc::clone(&shard.checkpoint);
        let op = move |a: &mut A| {
            let bytes = encode(a);
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(CheckpointSlot {
                bytes,
                packets: at_packets,
            });
        };
        self.obs.stages.checkpoints.incr();
        self.send_to_shard(idx, ShardMsg::Op(Box::new(op)), 1, 0);
    }

    fn dispatch_and_flush(&self) -> Result<(), ShardPoisoned> {
        {
            let mut pending = self.lock_pending();
            self.dispatch_locked(&mut pending);
        }
        for (idx, shard) in self.shards.iter().enumerate() {
            loop {
                if shard.is_poisoned() {
                    break;
                }
                let target = shard.enqueued.load(Ordering::Acquire);
                if shard.processed.load(Ordering::Acquire) >= target {
                    break;
                }
                // A worker that died (its algorithm panicked inside
                // ingest) can never catch up; poison the shard instead
                // of busy-waiting forever. Re-read the counter after
                // seeing the thread finished so a clean last batch is
                // not mistaken for death.
                if shard.worker.as_ref().is_none_or(|w| w.is_finished()) {
                    let done = shard.processed.load(Ordering::Acquire);
                    if done < target {
                        self.poison_shard(idx);
                        break;
                    }
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.health()
    }

    /// `Err` naming the dead shards, if any.
    fn health(&self) -> Result<(), ShardPoisoned> {
        let dead = self.poisoned_shards();
        if dead.is_empty() {
            Ok(())
        } else {
            Err(ShardPoisoned { shards: dead })
        }
    }

    /// The one barrier behind [`ShardedEngine::rotate_all`],
    /// [`ShardedEngine::checkpoint_now`] and
    /// [`ShardedEngine::enable_checkpoints`]. Under the pending lock —
    /// the producer side of every shard ring, so all pushes stay
    /// serialized (SPSC) and no packet can slip between the dispatch
    /// and the cut — it dispatches everything pending, then enqueues
    /// `op` (if any) and, once checkpoints are enabled, a checkpoint
    /// behind it on every shard. Every shard thus sees the same cut of
    /// its sub-stream. With `wait` it then flushes, returning once every
    /// live shard has applied the ops.
    fn barrier(&self, op: Option<fn(&mut A)>, wait: bool) -> Result<(), ShardPoisoned> {
        {
            let mut pending = self.lock_pending();
            self.dispatch_locked(&mut pending);
            for idx in 0..self.shards.len() {
                if let Some(op) = op {
                    self.send_to_shard(idx, ShardMsg::Op(Box::new(op)), 1, 0);
                }
                self.enqueue_checkpoint(idx);
            }
        }
        if wait {
            self.dispatch_and_flush()
        } else {
            self.health()
        }
    }

    /// The single-pass partition: hash each key **once**, route by the
    /// prepared lane, and store key (+ prepared state in handoff mode)
    /// into the shard's recycled buffer — plain `Copy` stores, no
    /// clones, no allocation once buffer capacities have converged.
    fn route_into(&self, keys: &[K], pending: &mut Pending<K>) {
        let one_shard = self.shards.len() == 1;
        if one_shard && !self.handoff {
            // Routing is vacuous and the worker re-hashes anyway: a
            // straight copy keeps the degenerate 1-shard route-only
            // engine at one hash per packet (the worker's).
            pending.per_shard[0].keys.extend_from_slice(keys);
            pending.total += keys.len();
            return;
        }
        for key in keys {
            let kb = key.key_bytes();
            let p = self.route.prepare(kb.as_slice());
            let s = if one_shard {
                0
            } else {
                self.lane_shard(p.lane())
            };
            let buf = &mut pending.per_shard[s];
            buf.keys.push(*key);
            if self.handoff {
                buf.prepared.push(p);
            }
        }
        pending.total += keys.len();
    }

    /// Turns on checkpoint/respawn recovery: captures `A`'s
    /// [`ShardCheckpoint`] encode/decode as engine state, schedules a
    /// checkpoint every `every_batches` dispatched batches per shard
    /// (plus one at every [`ShardedEngine::rotate_all`] barrier), and
    /// takes a baseline checkpoint of every live shard behind the
    /// packets dispatched so far, waiting for it to land — so any later
    /// death, however early, has something to restore from.
    ///
    /// The dark-window loss bound is the cadence knob: a shard respawn
    /// loses at most `every_batches` batches of that shard's sub-stream
    /// (plus whatever was routed while it was down), at the cost of one
    /// encode per interval.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] if dead shards were found while taking
    /// the baseline (the live ones are still checkpointed and
    /// recoverable).
    pub fn enable_checkpoints(&mut self, every_batches: u64) -> Result<(), ShardPoisoned>
    where
        A: ShardCheckpoint,
    {
        self.encode = Some(A::encode_checkpoint);
        self.restore = Some(A::restore_checkpoint);
        self.checkpoint_every = Some(every_batches.max(1));
        self.barrier(None, true)
    }

    /// When on, the ingest entry points ([`TopKAlgorithm::insert`] /
    /// [`TopKAlgorithm::insert_batch`]) scan for dead workers and run
    /// [`ShardedEngine::recover`] themselves, so the stream self-heals
    /// without the caller checking [`ShardedEngine::flush`]. Requires
    /// [`ShardedEngine::enable_checkpoints`]; recoveries land in
    /// [`ShardedEngine::recovery_log`].
    pub fn set_auto_recover(&mut self, on: bool) {
        self.auto_recover = on;
    }

    /// Installs a deterministic fault plan: each shard's worker takes
    /// its scheduled faults when its cumulative applied-packet count
    /// crosses their thresholds (see [`crate::fault`]). Replaces any
    /// previous plan. Specs naming a shard index beyond the current
    /// topology are kept dormant: a later [`ShardedEngine::reshard`]
    /// that grows past that index arms them on the new worker (and a
    /// reshard rebases packet counters to the packets a shard's
    /// restored state represents, so thresholds stay in cumulative
    /// sub-stream coordinates — a threshold the rebase jumps past
    /// fires on the new worker's first batch). Test/CLI hook — a
    /// production engine never calls this.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (idx, shard) in self.shards.iter().enumerate() {
            shard.faults.install(plan.specs_for(idx));
        }
        self.fault_plan = Some(plan.clone());
    }

    /// Checkpoints every live shard right now (behind the usual
    /// dispatch barrier) and waits for the encodes to land.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when dead shards were skipped.
    pub fn checkpoint_now(&self) -> Result<(), ShardPoisoned> {
        self.barrier(None, true)
    }

    /// The bytes of `shard`'s last taken checkpoint (in-flight
    /// checkpoint ops are flushed first), or `None` if none was taken
    /// yet. The differential tests compare these against a fresh encode
    /// of the restored shard to pin down bit-exact recovery.
    pub fn checkpoint_bytes(&self, shard: usize) -> Option<Vec<u8>> {
        let _ = self.dispatch_and_flush();
        self.shards[shard]
            .checkpoint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|s| s.bytes.clone())
    }

    /// Every recovery this engine has performed, in order (explicit
    /// [`ShardedEngine::recover`] calls, auto-recoveries and the heals
    /// a reshard drain forces), read from the journal.
    pub fn recovery_log(&self) -> Vec<RecoveryReport> {
        self.obs.journal.snapshot().recoveries().copied().collect()
    }

    /// Respawns every poisoned shard from its last checkpoint: decodes
    /// the checkpoint bytes, spawns a fresh worker on fresh work/return
    /// rings (the dead thread still owns the old ones) around the
    /// restored algorithm, re-admits the shard's lane, and reports each
    /// recovery's dark window. After `Ok`,
    /// [`ShardedEngine::poisoned_shards`] is empty and routed packets
    /// flow to the respawned shards again. A healthy engine returns an
    /// empty `Vec`.
    ///
    /// # Errors
    ///
    /// [`RecoverError::CheckpointsDisabled`] without
    /// [`ShardedEngine::enable_checkpoints`];
    /// [`RecoverError::NoCheckpoint`] / [`RecoverError::CheckpointCorrupt`]
    /// when a dead shard has nothing restorable (shards recovered
    /// earlier in the call stay recovered).
    pub fn recover(&mut self) -> Result<Vec<RecoveryReport>, RecoverError> {
        let restore = self.restore.ok_or(RecoverError::CheckpointsDisabled)?;
        // Settle detection: drains pending (dropping dead shards'
        // packets into the routed/lost counters) and poisons every
        // shard whose worker is gone. The Err only repeats what
        // `poisoned_shards` tells us next.
        let _ = self.dispatch_and_flush();
        let mut reports = Vec::new();
        for idx in 0..self.shards.len() {
            if !self.shards[idx].is_poisoned() {
                continue;
            }
            let slot = self.shards[idx]
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .ok_or(RecoverError::NoCheckpoint { shard: idx })?;
            let algo =
                restore(&slot.bytes).ok_or(RecoverError::CheckpointCorrupt { shard: idx })?;
            let routed = self.shards[idx].packets_routed.load(Ordering::Acquire);
            let report = RecoveryReport {
                shard: idx,
                checkpoint_packets: slot.packets,
                routed_packets: routed,
                dark_packets: routed.saturating_sub(slot.packets),
            };
            self.respawn_shard(idx, algo, slot.packets);
            self.obs.journal.record(EventKind::Recovery(report));
            reports.push(report);
        }
        Ok(reports)
    }

    /// Replaces a dead shard's interior with a fresh worker around
    /// `algo`: fresh rings (the dead thread holds clones of the old
    /// ones), fresh flush counters, packet counters rebased to the
    /// restoring checkpoint's cut. The checkpoint slot, fault schedule
    /// and hub slot carry over — the slot still matches the restored
    /// state, remaining faults keep firing on the respawned worker, and
    /// its counters keep accumulating on the same series.
    fn respawn_shard(&mut self, idx: usize, algo: A, base_packets: u64) {
        let old = &mut self.shards[idx];
        old.work.close();
        if let Some(worker) = old.worker.take() {
            let _ = worker.join(); // Already dead; reap the handle.
        }
        let checkpoint = Arc::clone(&old.checkpoint);
        let faults = Arc::clone(&old.faults);
        let obs = self.obs.worker(idx);
        self.shards[idx] =
            Self::spawn_shard(algo, self.handoff, checkpoint, faults, base_packets, obs);
    }

    /// The auto-recover death scan: one `is_finished` load per shard
    /// (cheap enough for the ingest path), recovery only when a worker
    /// is actually gone. Errors are deliberately swallowed — ingest
    /// stays infallible, and an unrecoverable shard shows up through
    /// `flush`/`poisoned_shards` exactly as without auto-recovery.
    fn auto_recover_if_needed(&mut self) {
        if !self.auto_recover || self.restore.is_none() {
            return;
        }
        let any_dead = self
            .shards
            .iter()
            .any(|s| s.is_poisoned() || s.worker.as_ref().is_none_or(|w| w.is_finished()));
        if any_dead {
            let _ = self.recover();
        }
    }
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + ShardReshard<K> + Send + 'static,
{
    /// Changes the shard count **under traffic**: a phase-structured
    /// online migration that ends with the engine serving the same
    /// stream over `new_shards` lanes.
    ///
    /// 1. **Drain** — dispatch everything pending and run a checkpoint
    ///    barrier op through every shard's SPSC ring
    ///    ([`ShardedEngine::checkpoint_now`]), so each shard's slot is
    ///    a packet-precise cut of its sub-stream. A `kill`/`wedge`/
    ///    `mid-walk` fault firing here respawns the victim from its
    ///    last periodic checkpoint (dark window accounted in the
    ///    report) and re-runs the barrier.
    /// 2. **Split/merge** — pure computation on the drained checkpoint
    ///    bytes; the old topology keeps serving reads meanwhile
    ///    (pre-swap state, never an error). Every new shard restores
    ///    the donors whose lane intervals intersect its own: shrink
    ///    folds donors through the Sum merge (disjoint sub-streams),
    ///    grow restores the same parent checkpoint into each child —
    ///    the parent *sketch* is replicated (a sketch cannot attribute
    ///    its cells to flows; the copy is conservative and keeps
    ///    estimates one-sided) while the monitored top-k set is
    ///    repartitioned under the new lane map
    ///    ([`ShardReshard::retain_flows`]).
    /// 3. **Swap** — the new topology is installed atomically under
    ///    the pending lock: routing is the same multiply-shift fold
    ///    over the new shard count (divergent-spec fallback routing
    ///    preserved — `route` does not change), per-shard packet
    ///    counters are rebased to the packets each restored state
    ///    represents (the sum of its donor cuts), and a baseline
    ///    checkpoint of the carried state is primed so a death right
    ///    after the swap is recoverable. Old workers are closed and
    ///    joined.
    ///
    /// Ingest issued between phases buffers in the pending partition
    /// under the usual bounded backpressure and is dispatched to
    /// the *new* topology after the swap. A migration that cannot
    /// complete — unrecoverable shard, undecodable or fold-incompatible
    /// checkpoint, faults exhausting the drain retry budget — **rolls
    /// back**: the old topology keeps serving exactly as before the
    /// call, and the returned [`ReshardReport`] carries the reason plus
    /// the dark-window accounting of any recoveries that did run.
    /// `reshard(current_count)` is a committed no-op: it runs no phase,
    /// so it journals nothing and is not a migration.
    ///
    /// # Errors
    ///
    /// [`ReshardError::ZeroShards`] and
    /// [`ReshardError::CheckpointsDisabled`] are caller mistakes; every
    /// runtime failure is a rollback, reported not errored.
    pub fn reshard(&mut self, new_shards: usize) -> Result<ReshardReport, ReshardError> {
        if new_shards == 0 {
            return Err(ReshardError::ZeroShards);
        }
        let (Some(encode), Some(restore)) = (self.encode, self.restore) else {
            return Err(ReshardError::CheckpointsDisabled);
        };
        let from = self.shards.len();
        let mut recoveries: Vec<RecoveryReport> = Vec::new();
        if new_shards == from {
            return Ok(ReshardReport {
                from_shards: from,
                to_shards: new_shards,
                committed: true,
                cut_packets: Vec::new(),
                dark_packets: 0,
                recoveries,
                rollback: None,
            });
        }

        self.obs_reshard_phase(from, new_shards, ReshardStage::Drain);
        let cuts = match self.reshard_drain(&mut recoveries) {
            Ok(cuts) => cuts,
            Err(reason) => {
                return Ok(self.reshard_rollback(new_shards, Vec::new(), recoveries, reason))
            }
        };
        let cut_packets: Vec<u64> = cuts.iter().map(|c| c.packets).collect();

        self.obs_reshard_phase(from, new_shards, ReshardStage::Rebuild);
        let states = match self.reshard_rebuild(new_shards, &cuts, restore) {
            Ok(states) => states,
            Err(reason) => {
                return Ok(self.reshard_rollback(new_shards, cut_packets, recoveries, reason))
            }
        };

        self.obs_reshard_phase(from, new_shards, ReshardStage::Swap);
        self.reshard_swap(states, encode);
        self.obs_reshard_phase(from, new_shards, ReshardStage::Commit);
        Ok(ReshardReport {
            from_shards: from,
            to_shards: new_shards,
            committed: true,
            cut_packets,
            dark_packets: recoveries.iter().map(|r| r.dark_packets).sum(),
            recoveries,
            rollback: None,
        })
    }

    /// Phase 1 of [`ShardedEngine::reshard`]: the checkpoint barrier.
    /// Retries around mid-drain faults — each retry first heals every
    /// dead shard through the normal recovery path (its dark window
    /// lands in `recoveries`), and fault specs are consume-once, so
    /// the loop strictly progresses; the attempt budget is a backstop
    /// against pathological plans, turning them into a rollback
    /// instead of a livelock.
    fn reshard_drain(
        &mut self,
        recoveries: &mut Vec<RecoveryReport>,
    ) -> Result<Vec<CheckpointSlot>, String> {
        let mut attempts = 0usize;
        while self.checkpoint_now().is_err() {
            attempts += 1;
            if attempts > self.shards.len() + 2 {
                return Err("drain retry budget exhausted (faults kept firing)".into());
            }
            match self.recover() {
                Ok(mut healed) => recoveries.append(&mut healed),
                Err(e) => return Err(format!("unrecoverable shard during drain: {e}")),
            }
        }
        let mut cuts = Vec::with_capacity(self.shards.len());
        for (idx, shard) in self.shards.iter().enumerate() {
            let slot = shard
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            match slot {
                Some(slot) => cuts.push(slot),
                None => return Err(format!("shard {idx} has no checkpoint after drain")),
            }
        }
        Ok(cuts)
    }

    /// Phase 2 of [`ShardedEngine::reshard`]: rebuilds each new
    /// shard's state from the drained cuts. Runs entirely on the
    /// caller thread against checkpoint *bytes* — no worker
    /// participates, so a fault cannot fire here and the old topology
    /// stays untouched (rollback is free until the swap).
    fn reshard_rebuild(
        &self,
        new_shards: usize,
        cuts: &[CheckpointSlot],
        restore: RestoreFn<A>,
    ) -> Result<Vec<(A, u64)>, String> {
        let route = self.route;
        let mut out = Vec::with_capacity(new_shards);
        for j in 0..new_shards {
            let (first, last) = donor_range(j, new_shards, cuts.len());
            let mut acc: Option<A> = None;
            let mut base = 0u64;
            for (i, cut) in cuts.iter().enumerate().take(last + 1).skip(first) {
                let Some(part) = restore(&cut.bytes) else {
                    return Err(format!("donor shard {i}'s checkpoint failed to decode"));
                };
                base = base.saturating_add(cut.packets);
                match &mut acc {
                    None => acc = Some(part),
                    Some(a) => {
                        if let Err(e) = a.fold_donor(&part) {
                            return Err(format!("donor shard {i} is not fold-compatible: {e}"));
                        }
                    }
                }
            }
            let Some(mut algo) = acc else {
                return Err(format!("new shard {j} has no donor interval"));
            };
            // Repartition the monitored set under the *new* lane map:
            // only flows routing to lane interval `j` stay reported
            // here. Same prepare + fold as the dispatcher, so a
            // retained flow is exactly a flow future packets reach.
            algo.retain_flows(&mut |key: &K| {
                let kb = key.key_bytes();
                lane_to_shard(route.prepare(kb.as_slice()).lane(), new_shards) == j
            });
            out.push((algo, base));
        }
        Ok(out)
    }

    /// Phase 3 of [`ShardedEngine::reshard`]: installs the new
    /// topology. New workers spawn *before* the pending lock is taken
    /// (spawning allocates; the lock only covers the pointer swap), the
    /// pending partition is resized to the new shard count under the
    /// lock — the atomic routing swap: every later `route_into` folds
    /// lanes over the new count — and the old workers are closed and
    /// joined after.
    fn reshard_swap(&mut self, states: Vec<(A, u64)>, encode: EncodeFn<A>) {
        let from = self.shards.len();
        let mut fresh = Vec::with_capacity(states.len());
        for (j, (algo, base)) in states.into_iter().enumerate() {
            // Baseline checkpoint = the carried state at its rebased
            // cut: a death right after the swap restores exactly what
            // the migration installed (dark window = post-swap routed
            // packets only).
            let slot = Arc::new(Mutex::new(Some(CheckpointSlot {
                bytes: encode(&algo),
                packets: base,
            })));
            // Shard indices alive on both sides keep their fault slice
            // (consumed faults stay consumed across the migration);
            // indices the grow created get their slice of the stored
            // plan armed fresh.
            let faults = if j < from {
                Arc::clone(&self.shards[j].faults)
            } else {
                let f = Arc::new(ShardFaults::default());
                if let Some(plan) = &self.fault_plan {
                    f.install(plan.specs_for(j));
                }
                f
            };
            // Slot counters are per index: shards alive on both sides
            // keep their series, grown indices start fresh ones.
            let obs = self.obs.worker(j);
            fresh.push(Self::spawn_shard(
                algo,
                self.handoff,
                slot,
                faults,
                base,
                obs,
            ));
        }
        self.buffers_allocated
            .fetch_add(fresh.len() as u64, Ordering::Release);
        let old = {
            // Field-level borrows (not `lock_pending`) so the guard on
            // `pending` and the mutable borrow of `shards` split.
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            pending.per_shard = (0..fresh.len()).map(|_| SubBatch::new()).collect();
            pending.total = 0;
            std::mem::replace(&mut self.shards, fresh)
        };
        for mut shard in old {
            shard.work.close();
            shard.wake();
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }

    /// Journals the rollback phase and returns the rollback report: the
    /// old topology was not (or could not be) swapped out and keeps
    /// serving.
    fn reshard_rollback(
        &self,
        to_shards: usize,
        cut_packets: Vec<u64>,
        recoveries: Vec<RecoveryReport>,
        reason: String,
    ) -> ReshardReport {
        self.obs_reshard_phase(self.shards.len(), to_shards, ReshardStage::Rollback);
        ReshardReport {
            from_shards: self.shards.len(),
            to_shards,
            committed: false,
            dark_packets: recoveries.iter().map(|r| r.dark_packets).sum(),
            cut_packets,
            recoveries,
            rollback: Some(reason),
        }
    }
}

impl<K, A> TopKAlgorithm<K> for ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    fn insert(&mut self, key: &K) {
        // Scalar fast path: the death scan piggybacks on the dispatch
        // boundary, not on every buffered insert.
        let dispatch = {
            let mut pending = self.lock_pending();
            self.route_into(std::slice::from_ref(key), &mut pending);
            pending.total >= BATCH_CAPACITY
        };
        if dispatch {
            self.auto_recover_if_needed();
            let mut pending = self.lock_pending();
            if pending.total >= BATCH_CAPACITY {
                self.dispatch_locked(&mut pending);
            }
        }
    }

    fn insert_batch(&mut self, keys: &[K]) {
        // Recover *before* routing, so a freshly respawned shard
        // receives this batch instead of dropping it.
        self.auto_recover_if_needed();
        let mut pending = self.lock_pending();
        self.route_into(keys, &mut pending);
        // A batch boundary is a dispatch boundary: hand every shard its
        // sub-batch now so workers overlap with the caller.
        self.dispatch_locked(&mut pending);
    }

    fn query(&self, key: &K) -> u64 {
        let _ = self.dispatch_and_flush();
        let s = self.shard_of(key);
        if self.shards[s].is_poisoned() {
            // The flow's shard died mid-ingest; its state may be torn,
            // so report "unknown" rather than a garbage estimate.
            return 0;
        }
        match self.shards[s].algo.lock() {
            Ok(guard) => guard.query(key),
            // Poisoned mutex = worker died holding it; same degraded
            // answer as a poisoned shard.
            Err(_) => 0,
        }
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        let _ = self.dispatch_and_flush();
        let mut all: Vec<(K, u64)> = Vec::new();
        for shard in &self.shards {
            if shard.is_poisoned() {
                continue; // Dead shard: its flows are unreported.
            }
            let Ok(guard) = shard.algo.lock() else {
                continue; // Torn mid-walk: degrade like a poisoned shard.
            };
            all.extend(guard.top_k());
        }
        // Flows are partitioned, so the union has no duplicates; the
        // global top-k is the k largest. Ties break on key bytes so the
        // report is deterministic.
        all.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
        });
        all.truncate(self.k);
        all
    }

    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| {
                // A dead worker may have poisoned the mutex; its memory
                // is still allocated, so account it when readable and
                // fall back to the inner value otherwise.
                s.algo
                    .lock()
                    .map(|g| g.memory_bytes())
                    .or_else(|p| Ok::<usize, ()>(p.into_inner().memory_bytes()))
                    .ok()
            })
            .sum()
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + EpochRotate + Send + 'static,
{
    /// Crosses one period boundary on **every** shard, phase-aligned:
    /// all pending packets are dispatched first, then a rotation
    /// control message is enqueued behind them on each shard's ring.
    /// Because workers process their ring in order and every shard
    /// receives the same cut — everything inserted before this call
    /// lands pre-rotation, everything after lands post-rotation — the
    /// shard windows advance in lockstep without stopping the world:
    /// rotation overlaps with the caller like any other batch.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when dead shards were skipped (their
    /// windows no longer advance).
    pub fn rotate_all(&self) -> Result<(), ShardPoisoned> {
        // A rotation is a natural checkpoint barrier: the encode rides
        // right behind the rotate op, so a restart from it resumes at a
        // clean epoch boundary.
        let res = self.barrier(Some(A::rotate_epoch), false);
        self.obs.stages.rotations.incr();
        res
    }
}

impl<K, A> EpochRotate for ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + EpochRotate + Send + 'static,
{
    /// [`ShardedEngine::rotate_all`] through the infallible trait
    /// surface. A [`ShardPoisoned`] error is not lost, only deferred:
    /// the poisoned state is sticky, so the next
    /// [`ShardedEngine::flush`] (or [`ShardedEngine::poisoned_shards`])
    /// reports it — callers driving the engine generically should check
    /// one of those after the stream, as the CLI's windowed path does.
    fn rotate_epoch(&mut self) {
        let _ = self.rotate_all();
    }
}

impl<K: FlowKey, A: TopKAlgorithm<K>> Drop for ShardedEngine<K, A> {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Close the ring; the worker drains the backlog and exits.
            shard.work.close();
            shard.wake();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl<K: FlowKey + Send + 'static> ShardedEngine<K, ParallelTopK<K>> {
    /// An engine of `shards` Parallel-variant instances. Each shard gets
    /// `cfg` with its width divided by the shard count, so total sketch
    /// memory matches a single `cfg` instance; all shards share `cfg`'s
    /// seed, which keeps them merge-compatible — and puts the engine in
    /// hash-once handoff mode (shared hash spec).
    pub fn parallel(cfg: &HkConfig, shards: usize) -> Self {
        let mut per = cfg.clone();
        per.width = (cfg.width / shards.max(1)).max(1);
        Self::from_fn(shards, cfg.k, |_| ParallelTopK::new(per.clone()))
    }

    /// Folds every **live** shard into one Parallel instance via the
    /// classic sketch merge machinery ([`MergeMode::Sum`]: shards saw
    /// disjoint packets), for network-wide-style queries over one
    /// structure. Poisoned shards are skipped — the merged view
    /// degrades exactly like [`TopKAlgorithm::top_k`] does.
    ///
    /// # Errors
    ///
    /// [`MergeError::NoLiveShards`] when every shard is poisoned;
    /// otherwise the usual merge-compatibility errors.
    ///
    /// [`MergeMode::Sum`]: crate::merge::MergeMode::Sum
    pub fn merged(&self) -> Result<ParallelTopK<K>, MergeError> {
        let mut out: Option<ParallelTopK<K>> = None;
        for i in 0..self.shards() {
            let Some(part) = self.with_shard(i, |a| a.clone()) else {
                continue;
            };
            match &mut out {
                None => out = Some(part),
                Some(acc) => acc.merge_from(&part)?,
            }
        }
        out.ok_or(MergeError::NoLiveShards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicTopK;

    fn skewed_stream(n: usize, heavy: u64, tail: u64, seed: u64) -> Vec<u64> {
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

    fn cfg(w: usize, k: usize) -> HkConfig {
        HkConfig::builder().arrays(2).width(w).k(k).seed(5).build()
    }

    #[test]
    fn finds_elephants_like_sequential() {
        let stream = skewed_stream(60_000, 10, 3000, 9);
        let mut sharded = ShardedEngine::parallel(&cfg(256, 10), 4);
        let mut seq = ParallelTopK::<u64>::new(cfg(256, 10));
        sharded.insert_batch(&stream);
        seq.insert_batch(&stream);

        for (name, top) in [("sharded", sharded.top_k()), ("sequential", seq.top_k())] {
            let hits = top.iter().filter(|&&(f, _)| f < 10).count();
            assert!(hits >= 9, "{name} found only {hits}/10: {top:?}");
        }
    }

    #[test]
    fn partitioning_preserves_exact_counts() {
        // Each flow lands on exactly one shard, so an uncontended flow's
        // count is exact — sharding must not split or double-count it.
        let mut engine = ShardedEngine::parallel(&cfg(2048, 16), 4);
        assert!(engine.prepared_handoff(), "shared seed => handoff mode");
        let mut batch = Vec::new();
        for f in 0..16u64 {
            for _ in 0..100 * (f + 1) {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 100 * (f + 1), "flow {f}");
        }
    }

    #[test]
    fn scalar_inserts_flush_on_read() {
        let mut engine = ShardedEngine::parallel(&cfg(128, 4), 2);
        for _ in 0..10 {
            engine.insert(&7u64);
        }
        // Far below BATCH_CAPACITY, yet reads must see every packet.
        assert_eq!(engine.query(&7), 10);
        assert_eq!(engine.top_k()[0], (7, 10));
    }

    #[test]
    fn deterministic_across_runs() {
        let stream = skewed_stream(30_000, 8, 500, 3);
        let run = || {
            let mut e = ShardedEngine::parallel(&cfg(128, 8), 3);
            for chunk in stream.chunks(777) {
                e.insert_batch(chunk);
            }
            e.top_k()
        };
        assert_eq!(run(), run(), "thread scheduling must not leak into results");
    }

    #[test]
    fn works_for_any_algorithm_basic() {
        let mut engine = ShardedEngine::from_fn(3, 5, |_| BasicTopK::<u64>::new(cfg(256, 5)));
        let stream = skewed_stream(30_000, 5, 1000, 7);
        engine.insert_batch(&stream);
        let top = engine.top_k();
        let hits = top.iter().filter(|&&(f, _)| f < 5).count();
        assert!(hits >= 4, "top = {top:?}");
        assert_eq!(engine.name(), "Sharded");
        assert!(engine.memory_bytes() >= 3 * BasicTopK::<u64>::new(cfg(256, 5)).memory_bytes());
    }

    #[test]
    fn merged_view_uses_sketch_merge() {
        let mut engine = ShardedEngine::parallel(&cfg(1024, 8), 4);
        let mut batch = Vec::new();
        for f in 0..8u64 {
            for _ in 0..200 {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        let merged = engine.merged().expect("shards share config");
        for f in 0..8u64 {
            use hk_common::algorithm::TopKAlgorithm;
            assert_eq!(merged.query(&f), 200, "flow {f} after merge");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut engine = ShardedEngine::<u64, _>::parallel(&cfg(16, 4), 2);
        engine.insert_batch(&[]);
        assert!(engine.top_k().is_empty());
    }

    #[test]
    fn steady_state_dispatch_recycles_buffers() {
        // The recycled-buffer round trip: after warm-up, sub-batch
        // buffers cycle dispatcher → work ring → worker → return ring →
        // dispatcher, and the allocation counter stops moving no matter
        // how many more flushes run.
        let mut engine = ShardedEngine::parallel(&cfg(256, 8), 4);
        let stream = skewed_stream(8192, 16, 500, 11);
        // Warm-up: let buffer capacities and the recycle cycle converge
        // (flush after each batch so every buffer completes the trip).
        for _ in 0..16 {
            engine.insert_batch(&stream);
            engine.flush().expect("healthy engine");
        }
        let after_warmup = engine.dispatch_buffers_allocated();
        for _ in 0..64 {
            engine.insert_batch(&stream);
            engine.flush().expect("healthy engine");
        }
        assert_eq!(
            engine.dispatch_buffers_allocated(),
            after_warmup,
            "steady-state dispatch must reuse returned buffers, not allocate"
        );
        // Sanity: the counter is small — on the order of shards × ring
        // depth, not on the order of flush count.
        assert!(after_warmup <= (4 * (WORK_RING_CAPACITY as u64 + 2)) + 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<u64, ParallelTopK<u64>>::from_shards(vec![], 4);
    }

    /// An algorithm that blows up on ingest, to exercise worker-death
    /// detection.
    struct Exploder;

    impl TopKAlgorithm<u64> for Exploder {
        fn insert(&mut self, _key: &u64) {
            panic!("boom");
        }
        fn query(&self, _key: &u64) -> u64 {
            0
        }
        fn top_k(&self) -> Vec<(u64, u64)> {
            Vec::new()
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Exploder"
        }
    }

    impl PreparedInsert<u64> for Exploder {
        fn hash_spec(&self) -> HashSpec {
            HashSpec::new(0, 32)
        }
        fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
            self.insert(key);
        }
    }

    #[test]
    fn dead_worker_poisons_shard_instead_of_panicking() {
        let mut engine = ShardedEngine::from_shards(vec![Exploder], 1);
        engine.insert_batch(&[1u64]);
        // The worker panicked on the batch; the flush must surface that
        // as an inspectable error rather than spin forever or panic the
        // caller thread.
        let err = engine.flush().expect_err("dead worker must be reported");
        assert_eq!(err.shards, vec![0]);
        assert_eq!(engine.poisoned_shards(), vec![0]);
        assert!(err.to_string().contains("died"), "err = {err}");
        // Reads degrade to the surviving shards (none here) instead of
        // hanging or panicking.
        assert_eq!(engine.query(&1), 0);
        assert!(engine.top_k().is_empty());
        // Further ingest routed to the dead shard is dropped + counted,
        // without allocating a fresh buffer per dispatch: a long-lived
        // engine with a dead shard must stay zero-alloc too.
        let allocated = engine.dispatch_buffers_allocated();
        for _ in 0..32 {
            engine.insert_batch(&[2u64, 3u64]);
        }
        assert!(engine.flush().is_err());
        assert!(
            engine.lost_packets() >= 2,
            "lost = {}",
            engine.lost_packets()
        );
        assert_eq!(
            engine.dispatch_buffers_allocated(),
            allocated,
            "dispatch to a poisoned shard must not allocate"
        );
    }

    #[test]
    fn full_ring_on_dead_worker_drops_instead_of_hanging() {
        // Overrun a dead worker's bounded ring: the backpressure path
        // must detect the death and drop (counted), never spin forever.
        let mut engine = ShardedEngine::from_shards(vec![Exploder], 1);
        let stream: Vec<u64> = (0..64).collect();
        for _ in 0..4 * WORK_RING_CAPACITY {
            engine.insert_batch(&stream);
        }
        assert!(engine.flush().is_err());
        assert!(
            engine.lost_packets() > 0,
            "overrun packets must be counted lost"
        );
    }

    #[test]
    fn healthy_engine_reports_no_poisoned_shards() {
        let mut engine = ShardedEngine::parallel(&cfg(64, 4), 2);
        engine.insert_batch(&[1u64, 2, 3]);
        engine.flush().expect("healthy shards flush cleanly");
        assert!(engine.poisoned_shards().is_empty());
        assert_eq!(engine.lost_packets(), 0);
    }

    #[test]
    fn surviving_shards_keep_serving_after_one_death() {
        // Shard 0 explodes on its first packet; shard 1 is a real HK
        // instance. Flows routed to shard 1 must stay queryable.
        enum Mixed {
            Bad(Exploder),
            Good(Box<ParallelTopK<u64>>),
        }
        impl TopKAlgorithm<u64> for Mixed {
            fn insert(&mut self, key: &u64) {
                match self {
                    Mixed::Bad(a) => a.insert(key),
                    Mixed::Good(a) => a.insert(key),
                }
            }
            fn query(&self, key: &u64) -> u64 {
                match self {
                    Mixed::Bad(a) => a.query(key),
                    Mixed::Good(a) => a.query(key),
                }
            }
            fn top_k(&self) -> Vec<(u64, u64)> {
                match self {
                    Mixed::Bad(a) => a.top_k(),
                    Mixed::Good(a) => a.top_k(),
                }
            }
            fn memory_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "Mixed"
            }
        }
        impl PreparedInsert<u64> for Mixed {
            fn hash_spec(&self) -> HashSpec {
                HashSpec::new(0, 32)
            }
            fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
                self.insert(key);
            }
        }
        let mut engine = ShardedEngine::from_shards(
            vec![
                Mixed::Bad(Exploder),
                Mixed::Good(Box::new(ParallelTopK::new(cfg(256, 4)))),
            ],
            4,
        );
        // Two packets of each of 20 flows; routing spreads them over
        // both shards.
        let mut batch = Vec::new();
        for f in 0..20u64 {
            batch.push(f);
            batch.push(f);
        }
        assert!(
            batch.iter().any(|f| engine.shard_of(f) == 0)
                && batch.iter().any(|f| engine.shard_of(f) == 1),
            "stream must hit both shards"
        );
        engine.insert_batch(&batch);
        let err = engine.flush().expect_err("exploding shard must poison");
        assert_eq!(err.shards, vec![0]);
        // Flows on the surviving shard answer exactly.
        let mut served = 0;
        for f in &batch {
            if engine.shard_of(f) == 1 {
                assert_eq!(engine.query(f), 2, "flow {f} on surviving shard");
                served += 1;
            }
        }
        assert!(served > 0, "stream never hit the surviving shard");
        assert!(engine.top_k().iter().all(|(f, _)| engine.shard_of(f) == 1));
    }

    #[test]
    fn divergent_shard_specs_fall_back_to_route_only() {
        // Deliberately different per-shard seeds: no single prepared
        // key fits every shard, so the engine must route under its own
        // seed and let workers hash — and still count exactly.
        let mut engine = ShardedEngine::from_fn(3, 8, |i| {
            ParallelTopK::<u64>::new(
                HkConfig::builder()
                    .arrays(2)
                    .width(1024)
                    .k(8)
                    .seed(100 + i as u64)
                    .build(),
            )
        });
        assert!(!engine.prepared_handoff(), "per-shard seeds => route-only");
        let mut batch = Vec::new();
        for f in 0..8u64 {
            for _ in 0..100 {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        for f in 0..8u64 {
            assert_eq!(engine.query(&f), 100, "flow {f}");
        }
    }

    #[test]
    fn rotate_all_keeps_shard_windows_phase_aligned() {
        use crate::sliding::SlidingTopK;
        // A 2-epoch window over 3 shards: flows inserted before the
        // second rotate_all must be gone after the third, exactly as in
        // the single-instance window.
        let mk = || ShardedEngine::from_fn(3, 8, |_| SlidingTopK::<u64>::new(cfg(256, 8), 2));
        let mut engine = mk();
        assert!(engine.prepared_handoff(), "windows share the epoch seed");
        let old: Vec<u64> = (0..6000u64).map(|i| i % 6).collect();
        let new: Vec<u64> = (0..6000u64).map(|i| 100 + i % 6).collect();
        engine.insert_batch(&old);
        engine.rotate_all().expect("healthy rotation");
        engine.insert_batch(&new);
        // Old flows still inside the 2-epoch window.
        for f in 0..6u64 {
            assert_eq!(engine.query(&f), 1000, "flow {f} still in window");
        }
        engine.rotate_all().expect("healthy rotation");
        engine.rotate_all().expect("healthy rotation");
        for f in 0..6u64 {
            assert_eq!(engine.query(&f), 0, "flow {f} must have slid out");
        }
        // Rotation and per-shard sub-streams are deterministic.
        let run = |mut e: ShardedEngine<u64, SlidingTopK<u64>>| {
            e.insert_batch(&old);
            e.rotate_all().unwrap();
            e.insert_batch(&new);
            e.top_k()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    /// An algorithm whose ingest blocks until a shared gate opens:
    /// makes the worker deterministically slow so the work ring fills
    /// and the full-ring backpressure is observable.
    struct Gated {
        open: Arc<std::sync::atomic::AtomicBool>,
        count: u64,
    }

    impl TopKAlgorithm<u64> for Gated {
        fn insert(&mut self, _key: &u64) {
            while !self.open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            self.count += 1;
        }
        fn query(&self, _key: &u64) -> u64 {
            self.count
        }
        fn top_k(&self) -> Vec<(u64, u64)> {
            vec![(7, self.count)]
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Gated"
        }
    }

    impl PreparedInsert<u64> for Gated {
        fn hash_spec(&self) -> HashSpec {
            HashSpec::new(0, 32)
        }
        fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
            self.insert(key);
        }
    }

    #[test]
    fn block_policy_stalls_until_worker_catches_up() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut engine = ShardedEngine::from_shards(
            vec![Gated {
                open: Arc::clone(&gate),
                count: 0,
            }],
            4,
        );
        // Every `insert_batch` dispatches one sub-batch. Open the gate
        // from the side once the dispatcher is (almost surely) parked
        // on the full ring; it must wait for the worker rather than
        // drop or shed anything.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                gate.store(true, Ordering::Release);
            })
        };
        let total = 20 * WORK_RING_CAPACITY as u64;
        for _ in 0..total {
            engine.insert_batch(&[7u64]);
        }
        engine.flush().expect("healthy worker");
        opener.join().expect("opener thread");
        assert_eq!(engine.query(&7), total, "Block delivers every packet");
        assert_eq!(engine.shed_packets(), 0);
        assert_eq!(engine.lost_packets(), 0);
    }

    fn checked_engine(width: usize, shards: usize) -> ShardedEngine<u64, ParallelTopK<u64>> {
        let mut engine = ShardedEngine::parallel(&cfg(width, 16), shards);
        engine
            .enable_checkpoints(1)
            .expect("fresh engine checkpoints");
        engine
    }

    /// 100·(f+1) packets of each of 16 flows — wide-sketch counts are
    /// exact, so reshard carry errors show up as off-by-anything.
    fn counting_batch() -> Vec<u64> {
        let mut batch = Vec::new();
        for f in 0..16u64 {
            for _ in 0..100 * (f + 1) {
                batch.push(f);
            }
        }
        batch
    }

    #[test]
    fn reshard_grow_preserves_exact_counts_under_live_traffic() {
        let mut engine = checked_engine(2048, 2);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "zero-fault grow commits: {report}");
        assert_eq!((report.from_shards, report.to_shards), (2, 4));
        assert_eq!(report.dark_packets, 0, "no fault => no dark window");
        assert_eq!(engine.shards(), 4);
        // Traffic keeps flowing into the new topology.
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 2 * 100 * (f + 1), "flow {f}");
        }
        // The carry must never lose counts (no underestimation from the
        // split): every monitored flow is still reported, exactly once.
        let top = engine.top_k();
        for f in 0..16u64 {
            let hits: Vec<_> = top.iter().filter(|&&(k, _)| k == f).collect();
            assert_eq!(hits.len(), 1, "flow {f} reported exactly once");
            assert_eq!(hits[0].1, 2 * 100 * (f + 1));
        }
        let acc = engine.obs_snapshot().journal.reshard_accounting();
        assert_eq!((acc.migrations, acc.committed), (1, 1));
    }

    #[test]
    fn reshard_shrink_folds_donors_without_losing_counts() {
        let mut engine = checked_engine(2048, 4);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        let report = engine.reshard(2).expect("well-formed reshard");
        assert!(report.committed, "zero-fault shrink commits: {report}");
        assert_eq!(report.cut_packets.iter().sum::<u64>(), batch.len() as u64);
        assert_eq!(engine.shards(), 2);
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 2 * 100 * (f + 1), "flow {f}");
        }
    }

    #[test]
    fn reshard_carry_is_one_sided_even_when_the_sketch_is_tight() {
        // A deliberately narrow sketch under a heavy-tailed stream:
        // estimates collide, but the grow carry must be invisible —
        // each child replicates its parent's sketch and keeps its slice
        // of the parent's store, so every sketch estimate and every
        // monitored count is bit-identical across the migration.
        // Whatever one-sidedness held before (Theorem 2) still holds.
        let stream = skewed_stream(40_000, 10, 2000, 13);
        let mut engine = checked_engine(64, 2);
        engine.insert_batch(&stream);
        let before = engine.top_k();
        let before_est: Vec<(u64, u64)> =
            before.iter().map(|&(f, _)| (f, engine.query(&f))).collect();
        engine.reshard(4).expect("well-formed reshard");
        for &(f, est) in &before_est {
            assert_eq!(engine.query(&f), est, "flow {f}: sketch estimate moved");
        }
        // Every pre-reshard monitored flow is still monitored, at the
        // same count, on exactly the shard the new lane map routes it to.
        let mut monitored = std::collections::HashMap::new();
        for shard in 0..engine.shards() {
            for (f, c) in engine.with_shard(shard, |a| a.top_k()).expect("live") {
                assert!(
                    monitored.insert(f, c).is_none(),
                    "flow {f} monitored on two shards"
                );
            }
        }
        for &(f, est) in &before {
            assert_eq!(monitored.get(&f), Some(&est), "flow {f}: store carry");
        }
    }

    #[test]
    fn reshard_partitions_monitored_flows_by_new_routing() {
        let mut engine = checked_engine(2048, 2);
        engine.insert_batch(&counting_batch());
        engine.reshard(3).expect("well-formed reshard");
        for shard in 0..engine.shards() {
            let owned = engine.with_shard(shard, |a| a.top_k()).expect("live shard");
            for (f, _) in owned {
                assert_eq!(
                    engine.shard_of(&f),
                    shard,
                    "flow {f} monitored off its routed shard"
                );
            }
        }
    }

    #[test]
    fn reshard_misuse_is_an_error_not_a_rollback() {
        let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
            ShardedEngine::parallel(&cfg(256, 8), 2);
        assert_eq!(
            engine.reshard(4),
            Err(ReshardError::CheckpointsDisabled),
            "no encode/restore capability captured"
        );
        engine.enable_checkpoints(4).unwrap();
        assert_eq!(engine.reshard(0), Err(ReshardError::ZeroShards));
        // Same-count reshard is a committed no-op. Like misuse, it runs
        // no phase: nothing is journaled and no migration counted.
        let report = engine.reshard(2).unwrap();
        assert!(report.committed);
        assert_eq!(engine.shards(), 2);
        let journal = engine.obs_snapshot().journal;
        assert!(journal.events.is_empty(), "{:?}", journal.events);
        assert_eq!(journal.reshard_accounting().migrations, 0);
    }

    #[test]
    fn reshard_recovers_from_kill_during_drain_and_commits() {
        let mut engine = checked_engine(1024, 2);
        let stream = skewed_stream(20_000, 8, 400, 3);
        engine.insert_batch(&stream);
        engine.flush().expect("healthy engine");
        let applied0 = stream.iter().filter(|f| engine.shard_of(f) == 0).count() as u64;
        // The fault crosses only on the staged sub-batch below — the
        // stream above ends exactly at the threshold and `>` does not
        // fire.
        engine.set_fault_plan(&FaultPlan::new().kill(0, applied0));
        let mut victim = 0u64;
        while engine.shard_of(&victim) != 0 {
            victim += 1;
        }
        let staged = vec![victim; 50];
        engine.insert_batch(&staged); // dispatched at once: the worker dies on it
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "drain heals and retries: {report}");
        assert_eq!(report.recoveries.len(), 1, "exactly the scheduled kill");
        assert_eq!(report.recoveries[0].shard, 0);
        // Dark window bound: cadence is one batch, so at most the
        // staged sub-batch that died with the worker goes dark.
        assert!(
            report.dark_packets <= staged.len() as u64,
            "dark window {} exceeds the staged batch",
            report.dark_packets
        );
        assert_eq!(engine.shards(), 4);
        // Post-commit traffic lands and counts stay one-sided.
        engine.insert_batch(&staged);
        engine.flush().expect("post-reshard engine is healthy");
        let est = engine.query(&victim);
        let truth = stream.iter().filter(|&&f| f == victim).count() as u64 + 100;
        assert!(est <= truth, "over-estimated after faulted reshard");
        assert!(
            est + report.dark_packets + staged.len() as u64 >= truth,
            "lost more than the dark window: est {est}, truth {truth}"
        );
    }

    #[test]
    fn reshard_rolls_back_when_donors_cannot_fold() {
        use crate::sliding::SlidingTopK;
        // Shard 1's window span differs: a 4 -> 2 shrink must fold
        // donors 0+1, hit the window mismatch, and roll back with the
        // old topology still serving.
        let mut engine = ShardedEngine::from_fn(4, 8, |i| {
            SlidingTopK::<u64>::new(cfg(512, 8), if i == 1 { 3 } else { 2 })
        });
        engine.enable_checkpoints(4).unwrap();
        let batch: Vec<u64> = (0..4000u64).map(|i| i % 8).collect();
        engine.insert_batch(&batch);
        let report = engine.reshard(2).expect("well-formed reshard");
        assert!(!report.committed, "mismatched donors cannot commit");
        let reason = report.rollback.as_deref().expect("rollback reason");
        assert!(
            reason.contains("not fold-compatible"),
            "unexpected reason: {reason}"
        );
        assert_eq!(engine.shards(), 4, "old topology survives the rollback");
        let acc = engine.obs_snapshot().journal.reshard_accounting();
        assert_eq!((acc.migrations, acc.committed, acc.rollbacks), (1, 0, 1));
        // Reads and writes keep working against the pre-swap state.
        engine.insert_batch(&batch);
        for f in 0..8u64 {
            assert_eq!(engine.query(&f), 1000, "flow {f} after rollback");
        }
    }

    #[test]
    fn reshard_grow_arms_dormant_fault_specs_on_new_shards() {
        // A spec naming shard 3 of a 2-shard engine is dormant until
        // the grow creates shard 3 — then it must fire on the fresh
        // worker and be recoverable through the normal path.
        let mut engine = checked_engine(1024, 2);
        engine.set_fault_plan(&FaultPlan::new().kill(3, 0));
        let stream = skewed_stream(10_000, 8, 400, 7);
        engine.insert_batch(&stream);
        engine
            .flush()
            .expect("dormant spec must not fire at 2 shards");
        assert!(engine.poisoned_shards().is_empty());
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed);
        // First packet routed to shard 3 crosses threshold 0.
        let mut probe = 0u64;
        while engine.shard_of(&probe) != 3 {
            probe += 1;
        }
        engine.insert_batch(&vec![probe; 64]);
        assert!(engine.flush().is_err(), "armed spec fires post-grow");
        assert_eq!(engine.poisoned_shards(), vec![3]);
        let healed = engine.recover().expect("baseline checkpoint restores");
        assert_eq!(healed.len(), 1);
        assert_eq!(healed[0].shard, 3);
        engine.flush().expect("healed engine");
    }

    #[test]
    fn obs_snapshot_covers_a_faulted_resharded_run() {
        let mut engine = checked_engine(2048, 2);
        engine.set_fault_plan(&FaultPlan::new().kill(0, 200));
        engine.set_auto_recover(true);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        // Auto-recovery fires on the next insert; a post-stream kill is
        // healed explicitly, the CLI's finish discipline.
        engine.recover().expect("checkpoint restores the kill");
        engine.flush().expect("recovered engine is healthy");
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "zero-fault grow commits: {report}");
        engine.insert_batch(&batch);
        engine.flush().expect("healthy after reshard");

        let snap = engine.obs_snapshot();
        // Stage counters: every packet dispatched, all of them ingested
        // (recovery replays the checkpointed prefix, so ingest can
        // exceed dispatch — never undershoot what survived).
        assert_eq!(snap.stages.dispatch_packets, 2 * batch.len() as u64);
        let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
        assert!(ingested > 0, "workers reported ingest");
        assert!(snap.stages.recoveries >= 1, "kill was recovered");
        assert_eq!(snap.stages.reshards, 1);
        assert!(
            snap.stages.reshard_phases >= 4,
            "drain/rebuild/swap/commit each counted: {}",
            snap.stages.reshard_phases
        );
        assert!(snap.stages.ring_pushes > 0);
        assert!(snap.stages.checkpoints > 0);
        // Histograms saw the batches and their drain latencies.
        assert!(snap.batch_packets.count > 0);
        assert!(snap.dispatch_latency_ns.count > 0);
        assert!(
            snap.dark_packets.count >= 1,
            "recovery recorded its dark window"
        );
        // Journal: the full lifecycle story, in one faulted run.
        assert!(snap.journal.count_of("worker_death") >= 1);
        assert!(snap.journal.count_of("recovery") >= 1);
        assert!(snap.journal.count_of("reshard_phase") >= 4);
        // The lifecycle counters are views of the journal.
        let (j, st) = (&snap.journal, &snap.stages);
        assert_eq!(st.recoveries, j.count_of("recovery") as u64);
        assert_eq!(st.reshard_phases, j.count_of("reshard_phase") as u64);
        let deaths: u64 = snap.shards.iter().map(|s| s.worker_deaths).sum();
        assert_eq!(deaths, j.count_of("worker_death") as u64);
        assert_eq!(snap.dark_packets.count, st.recoveries);
        // The JSON exposition carries the keys CI greps for.
        let json = snap.render_json();
        assert!(json.contains("\"dispatch_packets\""), "{json}");
        assert!(json.contains("\"recoveries\": 1,"), "{json}");
        assert!(json.contains("\"kind\": \"recovery\""), "{json}");
        assert!(json.contains("\"kind\": \"reshard_phase\""), "{json}");
    }

    #[test]
    fn fresh_engine_snapshot_counts_every_dispatched_and_ingested_packet() {
        let mut engine = ShardedEngine::parallel(&cfg(256, 8), 2);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        engine.flush().expect("healthy");
        let snap = engine.obs_snapshot();
        let n = batch.len() as u64;
        assert_eq!(snap.stages.dispatch_packets, n);
        assert_eq!(snap.shards.len(), 2, "one slot per shard from the start");
        let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
        assert_eq!(ingested, n, "every dispatched packet was ingested");
        assert_eq!(snap.batch_packets.sum, n);
        assert_eq!(snap.dispatch_latency_ns.count, snap.stages.dispatch_batches);
        assert_eq!(snap.stages.lost_packets, 0);
        assert!(snap.stages.ring_pushes >= snap.stages.dispatch_batches);
    }
}
