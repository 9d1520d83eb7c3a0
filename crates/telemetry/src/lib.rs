//! # The windowed telemetry plane
//!
//! HeavyKeeper's deployment model (paper footnote 2) is a *fleet*: one
//! sketch per measurement point, a central collector reassembling the
//! network-wide view. The core crate provides each hop of the windowed
//! version of that story — [`SlidingTopK`] per switch, window frames
//! ([`SlidingTopK::export_frame`] / [`SlidingTopK::export_dirty`]), and
//! collector-side ring reassembly ([`Collector::submit_window_frames`]).
//! This crate is the *plane* that connects them: a deterministic fleet
//! scenario driver that runs `S` switches over hash-partitioned
//! traffic, ships their frames through a lossy, reordering channel,
//! services the collector's resync requests, and accounts every byte —
//! the harness behind `hk fleet` and the benchmark's `fleet-window`
//! workload (`ledger/`).
//!
//! ## Export protocol
//!
//! ```text
//!  switch i                    channel (loss p, reorder q)        collector
//!  ────────                    ───────────────────────────        ─────────
//!  t=0   export_frame ───────────────────────────────────────▶ snapshot (rotation 0)
//!  rotate┐
//!        ├ export_dirty(R=1, empty baseline) ──────────────── ▶ commit epoch 1
//!  rotate┤
//!        ├ export_dirty(R=2, patch vs R=1) ── ✖ lost
//!  rotate┤
//!        ├ export_dirty(R=3, patch vs R=2) ───────────────── ▶ gap! buffer + flag resync
//!        │                 ◀─────────── resync_needed() ─────── ┘
//!        └ export_frame ───────────────────────────────────────▶ snapshot (rotation 3): bit-exact again
//! ```
//!
//! * **Full frames** carry the ring config once and every live epoch as
//!   an empty-baseline record — O(occupied buckets of the live epochs)
//!   bytes, what the ring holds rather than its capacity; used for the
//!   initial snapshot, for resync, and as the only frame kind under
//!   [`ExportMode::Full`].
//! * **Dirty frames** ([`ExportMode::Dirty`]) carry the closed epoch as
//!   a changed-bucket patch against an explicit baseline — the epoch
//!   closed one rotation earlier, which the switch's own ring still
//!   holds, O(changed buckets) bytes per rotation; or, on the first
//!   rotation and on every rotation of a `W = 2` ring (which has already
//!   recycled that epoch), the empty baseline, O(occupied buckets). A
//!   switch keeps no export state beyond its ring. Only a `W = 1` ring,
//!   which never retains a closed epoch, falls back to full frames; the
//!   per-frame kind labels in [`FleetStats`] account for the mix.
//! * **Loss** shows up as a rotation-id gap at the collector, which
//!   buffers the early patch, flags the switch in
//!   [`Collector::resync_needed`], and is healed by the next full
//!   snapshot (or by the missing patch itself when the cause was mere
//!   reordering). Duplicates are dropped idempotently.
//!
//! Switches observe *disjoint* sub-streams (flows are hash-partitioned
//! across the fleet, RSS-style), so the collector runs
//! [`AggregationRule::Sum`] and the network-wide windowed top-k
//! ([`Collector::window_top_k`]) adds the estimate of an epoch-aligned
//! merge of the switches' rings. That estimate is read from each
//! candidate's own buckets under the sketch merge's bucket rule; no
//! merged ring is built.
//!
//! Everything is deterministic given [`FleetConfig::seed`]: the channel
//! noise comes from a seeded [`XorShift64`], so a fleet run — loss
//! pattern included — replays bit-identically.
//!
//! ## Threads
//!
//! The switches share no state, and neither do the collector's
//! per-switch replicas, so each period's per-switch work runs side by
//! side on up to `available_parallelism` scoped threads
//! ([`hk_common::fan_out`]): [`Fleet::ingest`] runs the switches'
//! batch inserts, [`Fleet::rotate`] each switch's rotation and export,
//! and every delivery goes through one
//! [`Collector::submit_window_frames`] batch, which applies each
//! switch's frames on its own thread. Routing, the channel's draws and
//! accounting, and the collector's staleness clock stay on the caller
//! in a fixed order, so a run replays bit-identically at any thread
//! count. Work goes to a thread only when the thread's share outweighs
//! the spawn; a small fleet runs on the caller alone.
//!
//! Every fleet owns an [`ObsHub`] ([`Fleet::obs`]). Every frame a
//! fleet ships — scheduled export, resync answer or end-of-stream
//! reconcile snapshot — is accounted by one function, which bumps the
//! [`FleetStats`] frame and byte totals, the hub's `exports` counter and
//! frame-size histogram, and journals each resync snapshot. Lease
//! evictions and re-admissions land in the journal too: it is their
//! only record (`count_of("resync" | "eviction" | "readmission")`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use heavykeeper::collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
use heavykeeper::sliding::SlidingTopK;
use hk_common::algorithm::TopKAlgorithm;
use hk_common::fan_out::{fan_out, threads_for};
use hk_common::key::FlowKey;
use hk_common::prepared::HashSpec;
use hk_common::prng::XorShift64;
use hk_obs::{EventKind, ObsHub};

/// Seed salt of the fleet's flow-partition hash: distinct from every
/// sketch seed so switch assignment is independent of bucket placement.
const PARTITION_SALT: u64 = 0xF1EE_7000_5A17_0000;

/// Steady-state export policy of a fleet's switches: what each switch
/// ships at a period boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExportMode {
    /// A full snapshot every rotation: the ring config and every live
    /// epoch, each as an empty-baseline record — O(occupied buckets of
    /// the W live epochs) bytes.
    Full,
    /// Changed buckets of the closed epoch per rotation, diffed against
    /// the epoch before it in the switch's ring — O(changed) bytes. A
    /// `W = 2` ring no longer holds that epoch and ships each closed
    /// epoch whole; a `W = 1` ring has no closed epoch and ships full
    /// frames instead.
    #[default]
    Dirty,
}

/// What a shipped frame actually was — under [`ExportMode::Dirty`] a
/// `W = 1` ring ships full frames, so the label rides with each frame.
#[derive(Debug, Clone, Copy)]
enum ExportKind {
    Full,
    Dirty,
    /// A full snapshot of switch `id` answering a resync request or a
    /// reconcile catch-up. A `u32` id keeps a frame entry at 32 bytes:
    /// at 40 the per-rotation frame lists change allocator size class,
    /// which moves the heap layout and the `fleet-window` ledger's
    /// resident memory by about 1.9 MiB at some trace seeds.
    Resync(u32),
}

/// Configuration of a fleet scenario run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of switches (measurement points).
    pub switches: usize,
    /// Epochs per sliding window `W`.
    pub window: usize,
    /// Packets per epoch (the period clock; also stamped into every
    /// frame as the epoch-packet budget).
    pub epoch_packets: usize,
    /// Top-k size, at the switches and at the collector.
    pub k: usize,
    /// Per-switch total memory budget in bytes (split across the `W`
    /// epochs, [`SlidingTopK::with_memory`]).
    pub memory_bytes: usize,
    /// Master seed: sketches, flow partitioning, and channel noise.
    pub seed: u64,
    /// Steady-state export policy after the initial snapshot.
    pub mode: ExportMode,
    /// Per-frame drop probability on the export channel.
    pub loss: f64,
    /// Probability that a frame is reordered behind its successor
    /// within one rotation's batch of frames.
    pub reorder: f64,
    /// Lease length in rotations; `0` disables leasing. With a lease,
    /// a switch the collector has not heard from for more than `lease`
    /// rotations' worth of fleet traffic is **evicted** (replica,
    /// buffered patches and flags dropped —
    /// [`Collector::evict_switch`]); a returning switch re-admits
    /// itself through the ordinary full-snapshot resync path.
    pub lease: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            switches: 3,
            window: 4,
            epoch_packets: 10_000,
            k: 50,
            memory_bytes: 64 * 1024,
            seed: 1,
            mode: ExportMode::Dirty,
            loss: 0.0,
            reorder: 0.0,
            lease: 0,
        }
    }
}

/// Byte and frame accounting of a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Period boundaries crossed (fleet-wide; switches rotate in phase).
    pub rotations: u64,
    /// Frames handed to the channel (initial snapshots included).
    pub frames_sent: u64,
    /// Frames the collector received.
    pub frames_delivered: u64,
    /// Frames the channel dropped.
    pub frames_lost: u64,
    /// Frames delivered out of order.
    pub frames_reordered: u64,
    /// Full frames sent (snapshots + full-mode exports + resyncs).
    pub full_frames: u64,
    /// Dirty (changed-bucket patch) frames sent.
    pub dirty_frames: u64,
    /// Frames the collector dropped as duplicates.
    pub duplicates: u64,
    /// Total frame bytes handed to the channel.
    pub bytes_sent: u64,
    /// Bytes of the most recent rotation's scheduled exports (all
    /// switches, resync traffic excluded) — the steady-state
    /// bytes-per-rotation figure the bench compares across modes.
    pub bytes_last_rotation: u64,
}

/// A deterministic fleet of sliding-window switches exporting to one
/// collector over a lossy channel.
///
/// # Examples
///
/// ```
/// use hk_telemetry::{ExportMode, Fleet, FleetConfig};
///
/// let mut fleet = Fleet::<u64>::new(FleetConfig {
///     switches: 2,
///     window: 3,
///     epoch_packets: 1000,
///     mode: ExportMode::Dirty,
///     ..FleetConfig::default()
/// });
/// let trace: Vec<u64> = (0..5000u64).map(|i| i % 40).collect();
/// fleet.run_trace(&trace);
/// assert_eq!(fleet.stats().rotations, 5);
/// let top = fleet.collector().window_top_k();
/// assert!(!top.is_empty());
/// ```
#[derive(Debug)]
pub struct Fleet<K: FlowKey> {
    switches: Vec<SlidingTopK<K>>,
    collector: Collector<K>,
    cfg: FleetConfig,
    /// The flow→switch partition hash (RSS-style, disjoint vantage
    /// points).
    partition: HashSpec,
    /// Channel noise source (losses, reorders) — seeded, so runs replay.
    channel_rng: XorShift64,
    /// Frames the channel is holding back one shipment: a delayed frame
    /// is delivered *after* the next batch, i.e. after its switch's own
    /// newer frame — genuine same-stream reordering, which is what the
    /// collector's out-of-order buffering exists for.
    delayed: Vec<Vec<u8>>,
    stats: FleetStats,
    /// Per-switch ingest staging, reused across [`Fleet::ingest`] calls.
    staging: Vec<Vec<K>>,
    /// Switches whose uplink is down ([`Fleet::set_muted`]): they keep
    /// measuring, but nothing they export reaches the channel.
    muted: std::collections::HashSet<usize>,
    /// Switches currently evicted under the lease, watched for
    /// re-admission.
    evicted: std::collections::HashSet<u64>,
    /// The fleet's observability hub (see the module docs).
    obs: ObsHub,
}

impl<K: FlowKey> Fleet<K> {
    /// Builds the fleet and ships every switch's initial full snapshot
    /// (rotation 0) through the channel — under loss, a switch may
    /// start dark and be healed by the resync path once its first
    /// dirty frame arrives.
    ///
    /// # Panics
    ///
    /// Panics if `switches`, `window`, `epoch_packets` or `k` is zero,
    /// or `loss`/`reorder` are outside `[0, 1)`.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.switches > 0, "need at least one switch");
        assert!(cfg.window > 0, "window must span at least one epoch");
        assert!(cfg.epoch_packets > 0, "epoch length must be positive");
        assert!(cfg.k > 0, "k must be positive");
        assert!((0.0..1.0).contains(&cfg.loss), "loss must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&cfg.reorder),
            "reorder must be in [0, 1)"
        );
        // The hub's few small allocations go before the sketches'. Made
        // after them, they shift the heap layout enough to raise the
        // ledger's `fleet-window` resident memory by 1.8 MiB.
        let obs = ObsHub::new();
        let switches: Vec<SlidingTopK<K>> = (0..cfg.switches)
            .map(|_| SlidingTopK::with_memory(cfg.memory_bytes, cfg.k, cfg.seed, cfg.window))
            .collect();
        let mut fleet = Self {
            collector: Collector::new(cfg.k, AggregationRule::Sum),
            partition: HashSpec::new(cfg.seed ^ PARTITION_SALT, 32),
            channel_rng: XorShift64::new(cfg.seed ^ 0x0C4A_22E1),
            delayed: Vec::new(),
            staging: (0..cfg.switches).map(|_| Vec::new()).collect(),
            switches,
            stats: FleetStats::default(),
            muted: std::collections::HashSet::new(),
            evicted: std::collections::HashSet::new(),
            obs,
            cfg,
        };
        // Initial snapshots anchor every dirty stream.
        let snapshots: Vec<(Vec<u8>, ExportKind)> = fleet
            .switches
            .iter()
            .enumerate()
            .map(|(i, sw)| {
                (
                    sw.export_frame(i as u64, fleet.epoch_budget()),
                    ExportKind::Full,
                )
            })
            .collect();
        fleet.ship(snapshots);
        fleet
    }

    fn epoch_budget(&self) -> u32 {
        self.cfg.epoch_packets.min(u32::MAX as usize) as u32
    }

    /// The fleet's observability hub: export counter, frame-size
    /// histogram and lifecycle journal.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// The switch a flow belongs to (multiply-shift over the partition
    /// hash lane — every packet of a flow crosses exactly one switch).
    pub fn switch_of(&self, key: &K) -> usize {
        let lane = self.partition.prepare(key.key_bytes().as_slice()).lane();
        ((lane as u64 * self.cfg.switches as u64) >> 32) as usize
    }

    /// Feeds packets into the fleet: each packet is routed to its
    /// flow's switch, and the switches ingest their batches through the
    /// batch pipeline side by side when the batch is worth the threads
    /// (see the crate docs).
    pub fn ingest(&mut self, packets: &[K]) {
        // An insert costs about 65 ns a packet on a 1 MiB epoch and a
        // scoped spawn and join about 43 µs, the insert of some 660
        // packets. A thread gets 4,096 packets or more, so its spawn
        // costs at most about a sixth of its work; a small sketch
        // inserts faster, and `hk fleet`'s defaults (10,000 packets a
        // period over three 17 KB switches) still run faster spread.
        const INGEST_SHARE_PACKETS: usize = 4_096;
        for buf in &mut self.staging {
            buf.clear();
        }
        for key in packets {
            let s = self.switch_of(key);
            self.staging[s].push(*key);
        }
        let mut batches: Vec<(&mut SlidingTopK<K>, &[K])> = self
            .switches
            .iter_mut()
            .zip(&self.staging)
            .filter(|(_, buf)| !buf.is_empty())
            .map(|(sw, buf)| (sw, buf.as_slice()))
            .collect();
        let threads = threads_for(packets.len(), INGEST_SHARE_PACKETS);
        fan_out(&mut batches, threads, |_, (sw, buf)| sw.insert_batch(buf));
    }

    /// Crosses one period boundary fleet-wide: rotates every switch and
    /// exports each one's frame per [`FleetConfig::mode`] (side by side
    /// when the epochs are worth the threads), ships the frames through
    /// the lossy channel in switch order, and then services any resync
    /// requests with full snapshots (also through the channel — a lost
    /// resync is retried at the next rotation).
    pub fn rotate(&mut self) {
        // A rotation clears the recycled epoch and its dirty export
        // diffs the closed one: about 0.64 ms per 1 MiB epoch, so a
        // 43 µs spawn and join buys the rotation of some 70 KB of
        // epoch. A thread gets 512 KiB of epochs or more, so its spawn
        // costs at most about a twelfth of its work.
        const ROTATE_SHARE_BYTES: usize = 512 << 10;
        self.stats.rotations += 1;
        let budget = self.epoch_budget();
        let mode = self.cfg.mode;
        let muted = &self.muted;
        let epoch_bytes = self.cfg.memory_bytes / self.cfg.window;
        let threads = threads_for(epoch_bytes * self.cfg.switches, ROTATE_SHARE_BYTES);
        let exports = fan_out(&mut self.switches, threads, |i, sw| {
            sw.rotate();
            if muted.contains(&i) {
                return None;
            }
            // A W = 1 ring never has a closed epoch to ship dirty (its
            // only slot is the accumulating one): it ships a full frame
            // instead of skipping the rotation.
            let dirty = match mode {
                ExportMode::Full => None,
                ExportMode::Dirty => sw.export_dirty(i as u64, budget),
            };
            Some(match dirty {
                Some(b) => (b, ExportKind::Dirty),
                None => (sw.export_frame(i as u64, budget), ExportKind::Full),
            })
        });
        let frames: Vec<(Vec<u8>, ExportKind)> = exports.into_iter().flatten().collect();
        self.stats.bytes_last_rotation = frames.iter().map(|(b, _)| b.len() as u64).sum();
        self.ship(frames);
        self.service_resyncs();
        self.enforce_lease();
    }

    /// Cuts the uplink of one switch (or restores it): a muted switch
    /// keeps measuring and rotating, but none of its exports — scheduled
    /// frames or resync answers — reach the channel. The deterministic
    /// way to make a switch *silent* for the lease/eviction plane.
    pub fn set_muted(&mut self, switch: usize, muted: bool) {
        if muted {
            self.muted.insert(switch);
        } else {
            self.muted.remove(&switch);
        }
    }

    /// The lease sweep run at every rotation: evicts switches the
    /// collector has not heard from in over [`FleetConfig::lease`]
    /// rotations' worth of frames, and counts a re-admission for every
    /// previously evicted switch whose replica a snapshot reinstalled.
    /// The collector clock ticks per *submitted frame*, so one rotation
    /// of a healthy fleet is at most `switches` ticks — leases are
    /// converted at that rate.
    fn enforce_lease(&mut self) {
        if self.cfg.lease == 0 {
            return;
        }
        let max_idle = self.cfg.lease.saturating_mul(self.cfg.switches as u64);
        for id in self.collector.stale_switches(max_idle) {
            if self.collector.evict_switch(id) {
                self.evicted.insert(id);
                self.obs.journal.record(EventKind::Eviction { switch: id });
            }
        }
        let readmitted: Vec<u64> = self
            .evicted
            .iter()
            .copied()
            .filter(|&id| self.collector.switch_window(id).is_some())
            .collect();
        for id in readmitted {
            self.evicted.remove(&id);
            self.obs
                .journal
                .record(EventKind::Readmission { switch: id });
        }
    }

    /// Ships full snapshots through the channel to the collector for
    /// every switch it flagged (a lost one is asked for again).
    fn service_resyncs(&mut self) {
        let budget = self.epoch_budget();
        let wanted = self.collector.resync_needed();
        if wanted.is_empty() {
            return;
        }
        let frames: Vec<(Vec<u8>, ExportKind)> = wanted
            .iter()
            .filter(|&&id| !self.muted.contains(&(id as usize)))
            .filter_map(|&id| {
                self.switches
                    .get(id as usize)
                    .map(|sw| (sw.export_frame(id, budget), ExportKind::Resync(id as u32)))
            })
            .collect();
        self.ship(frames);
    }

    /// Runs the standard windowed discipline over a trace: full
    /// `epoch_packets`-sized periods each followed by a fleet-wide
    /// [`Fleet::rotate`] (export included); a trailing partial period
    /// is ingested but not rotated or exported.
    pub fn run_trace(&mut self, packets: &[K]) {
        for period in packets.chunks(self.cfg.epoch_packets) {
            self.ingest(period);
            if period.len() == self.cfg.epoch_packets {
                self.rotate();
            }
        }
    }

    /// Ships a batch of frames through the channel and submits the
    /// survivors to the collector. Loss drops a frame outright; reorder
    /// holds it back one shipment, so it arrives *after* its switch's
    /// own next frame — a genuine same-stream inversion that exercises
    /// the collector's out-of-order patch buffering (an in-batch swap
    /// would only exchange frames of different switches, which are
    /// independent streams and no reordering at all).
    fn ship(&mut self, frames: Vec<(Vec<u8>, ExportKind)>) {
        // Frames delayed by the previous shipment come out behind this
        // one; frames delayed now wait for the next.
        let overdue = std::mem::take(&mut self.delayed);
        let mut survivors = Vec::with_capacity(frames.len() + overdue.len());
        for (bytes, kind) in frames {
            self.account_sent(&bytes, kind);
            if self.cfg.loss > 0.0 && self.channel_rng.bernoulli(self.cfg.loss) {
                self.stats.frames_lost += 1;
                continue;
            }
            if self.cfg.reorder > 0.0 && self.channel_rng.bernoulli(self.cfg.reorder) {
                self.stats.frames_reordered += 1;
                self.delayed.push(bytes);
                continue;
            }
            survivors.push(bytes);
        }
        survivors.extend(overdue);
        self.deliver(&survivors);
    }

    /// The one accounting path of every frame handed to the channel or
    /// delivered reliably: [`FleetStats`], the hub's export counter and
    /// frame-size histogram, and the journal's resync events. The
    /// [`ExportKind`] only labels the accounting.
    fn account_sent(&mut self, bytes: &[u8], kind: ExportKind) {
        self.stats.frames_sent += 1;
        match kind {
            ExportKind::Full => self.stats.full_frames += 1,
            ExportKind::Dirty => self.stats.dirty_frames += 1,
            ExportKind::Resync(switch) => {
                self.stats.full_frames += 1;
                let switch = switch.into();
                self.obs.journal.record(EventKind::Resync { switch });
            }
        }
        self.stats.bytes_sent += bytes.len() as u64;
        self.obs.stages.exports.incr();
        self.obs.export_bytes.record(bytes.len() as u64);
    }

    /// Hands delivered frames to the collector in one batch, in order
    /// ([`Collector::submit_window_frames`]).
    fn deliver(&mut self, frames: &[Vec<u8>]) {
        let payloads: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        self.stats.frames_delivered += frames.len() as u64;
        for out in self.collector.submit_window_frames(&payloads) {
            match out {
                Ok(WindowSubmit::Duplicate) => self.stats.duplicates += 1,
                Ok(_) => {}
                // Protocol-level refusals (a dirty frame racing ahead
                // of its snapshot) resolve through the resync path.
                Err(WindowSubmitError::NoSnapshot { .. }) => {}
                Err(e) => unreachable!("fleet frames are always well-formed: {e}"),
            }
        }
    }

    /// End-of-stream reconciliation: ships a **reliable** full snapshot
    /// for every switch whose replica lags its local window (a frame
    /// lost on the *final* rotation leaves no later gap to betray it,
    /// so gap detection alone cannot catch it) or is flagged for
    /// resync. After this, every replica is bit-identical to its
    /// switch. Returns how many snapshots were shipped.
    pub fn reconcile(&mut self) -> usize {
        // Flush frames the channel was still holding back — at end of
        // stream there is no "next shipment" to carry them.
        let overdue = std::mem::take(&mut self.delayed);
        self.deliver(&overdue);
        let budget = self.epoch_budget();
        let flagged = self.collector.resync_needed();
        let (ids, frames): (Vec<u32>, Vec<Vec<u8>>) = self
            .switches
            .iter()
            .enumerate()
            .filter(|(i, sw)| {
                if self.muted.contains(i) {
                    return false; // A down uplink cannot reconcile.
                }
                let id = *i as u64;
                let lagging = match self.collector.switch_window(id) {
                    Some(replica) => replica.rotations() < sw.rotations(),
                    None => true,
                };
                lagging || flagged.contains(&id)
            })
            .map(|(i, sw)| (i as u32, sw.export_frame(i as u64, budget)))
            .unzip();
        for (&id, bytes) in ids.iter().zip(&frames) {
            self.account_sent(bytes, ExportKind::Resync(id));
        }
        self.deliver(&frames);
        self.enforce_lease();
        frames.len()
    }

    /// The collector end of the plane.
    pub fn collector(&self) -> &Collector<K> {
        &self.collector
    }

    /// The switch-local windows (ground truth for differential tests).
    pub fn switches(&self) -> &[SlidingTopK<K>] {
        &self.switches
    }

    /// Frame/byte accounting so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The scenario configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The loss-free reference: a fresh collector fed every switch's
    /// current full frame directly (no channel). Its
    /// [`Collector::window_top_k`] is the merged oracle a lossy run is
    /// scored against.
    pub fn oracle_collector(&self) -> Collector<K> {
        let budget = self.epoch_budget();
        let mut oracle = Collector::new(self.cfg.k, AggregationRule::Sum);
        for (i, sw) in self.switches.iter().enumerate() {
            oracle
                .submit_window_frame(&sw.export_frame(i as u64, budget))
                .expect("pristine frames always apply");
        }
        oracle
    }

    /// Recall of the collector's windowed top-k against the loss-free
    /// merged oracle: `|collector ∩ oracle| / |oracle|` over the flow
    /// sets (1.0 when the oracle set is empty).
    pub fn recall_vs_oracle(&self) -> f64 {
        self.recall_against(&self.oracle_collector())
    }

    /// [`Fleet::recall_vs_oracle`] against an oracle the caller already
    /// built ([`Fleet::oracle_collector`] is O(S·W·sketch) to
    /// construct — build it once when both the recall and the oracle's
    /// top-k are needed).
    pub fn recall_against(&self, oracle: &Collector<K>) -> f64 {
        let oracle_top = oracle.window_top_k();
        if oracle_top.is_empty() {
            return 1.0;
        }
        let got: std::collections::HashSet<K> = self
            .collector
            .window_top_k()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let hits = oracle_top.iter().filter(|(k, _)| got.contains(k)).count();
        hits as f64 / oracle_top.len() as f64
    }
}

/// A window's content digest: xxHash64 over the ring geometry, rotation
/// counter, every epoch's bucket words, and the (canonically sorted)
/// top-k entries. Two windows with equal digests are bit-identical for
/// every query the collector can pose — the compact form of the
/// differential tests' bucket-by-bucket comparison.
pub fn window_digest<K: FlowKey>(win: &SlidingTopK<K>) -> u64 {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(&(win.window() as u64).to_le_bytes());
    buf.extend_from_slice(&win.rotations().to_le_bytes());
    buf.extend_from_slice(&(win.live_epochs() as u64).to_le_bytes());
    for epoch in win.epoch_iter() {
        let sk = epoch.sketch();
        buf.extend_from_slice(&(sk.arrays() as u64).to_le_bytes());
        buf.extend_from_slice(&(sk.width() as u64).to_le_bytes());
        for j in 0..sk.arrays() {
            for i in 0..sk.width() {
                let b = sk.bucket(j, i);
                buf.extend_from_slice(&b.fp.to_le_bytes());
                buf.extend_from_slice(&b.count.to_le_bytes());
            }
        }
        let mut top = epoch.top_k();
        top.sort_unstable_by(|a, b| {
            a.0.key_bytes()
                .as_slice()
                .cmp(b.0.key_bytes().as_slice())
                .then(a.1.cmp(&b.1))
        });
        for (key, count) in top {
            buf.extend_from_slice(key.key_bytes().as_slice());
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
    hk_common::hash::xxhash64(&buf, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipfish(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    state % 12
                } else {
                    100 + state % 3000
                }
            })
            .collect()
    }

    #[test]
    fn lossless_full_mode_replicas_are_bit_exact() {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 3,
            window: 4,
            epoch_packets: 5_000,
            mode: ExportMode::Full,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(40_000, 9));
        assert_eq!(fleet.stats().rotations, 8);
        assert!(fleet.collector().resync_needed().is_empty());
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet
                .collector()
                .switch_window(i as u64)
                .expect("every switch installed");
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    #[test]
    fn partition_is_disjoint_and_total() {
        let fleet = Fleet::<u64>::new(FleetConfig {
            switches: 4,
            ..FleetConfig::default()
        });
        let mut seen = [0usize; 4];
        for f in 0..10_000u64 {
            seen[fleet.switch_of(&f)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 1500), "partition skew: {seen:?}");
        // Deterministic: the same flow always lands on the same switch.
        for f in 0..100u64 {
            assert_eq!(fleet.switch_of(&f), fleet.switch_of(&f));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 3,
                window: 3,
                epoch_packets: 2_000,
                loss: 0.2,
                reorder: 0.1,
                ..FleetConfig::default()
            });
            fleet.run_trace(&zipfish(20_000, 4));
            (*fleet.stats(), fleet.collector().window_top_k())
        };
        assert_eq!(run(), run(), "channel noise must replay from the seed");
    }

    #[test]
    fn lease_evicts_silent_switch_and_readmits_on_reconnect() {
        // Silence -> evict -> reconnect -> converge: switch 1's uplink
        // goes down mid-run; after the lease runs out the collector
        // evicts its replica (its flows vanish from the merged view),
        // and when the uplink returns the ordinary resync path
        // re-admits it with a full snapshot, bit-exact again.
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 3,
            window: 3,
            epoch_packets: 2_000,
            mode: ExportMode::Dirty,
            lease: 2,
            ..FleetConfig::default()
        });
        let trace = zipfish(60_000, 11);
        let periods: Vec<&[u64]> = trace.chunks(2_000).collect();

        // Healthy start: every switch installs.
        for p in &periods[..4] {
            fleet.ingest(p);
            fleet.rotate();
        }
        assert!(fleet.collector().switch_window(1).is_some());

        // Uplink down: the switch keeps measuring, the collector stops
        // hearing from it, and the lease sweep eventually evicts it.
        fleet.set_muted(1, true);
        for p in &periods[4..14] {
            fleet.ingest(p);
            fleet.rotate();
        }
        let journal = fleet.obs().journal.snapshot();
        assert_eq!(journal.count_of("eviction"), 1, "silent switch evicted");
        assert_eq!(journal.count_of("readmission"), 0);
        assert!(
            fleet.collector().switch_window(1).is_none(),
            "evicted replica is gone from the windowed plane"
        );

        // Reconnect: the next dirty frame hits the no-snapshot arm, the
        // resync ships a full snapshot, and the replica is re-admitted.
        fleet.set_muted(1, false);
        for p in &periods[14..18] {
            fleet.ingest(p);
            fleet.rotate();
        }
        let journal = fleet.obs().journal.snapshot();
        assert_eq!(journal.count_of("readmission"), 1, "resync re-admits");
        fleet.reconcile();
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet
                .collector()
                .switch_window(i as u64)
                .expect("all switches back");
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
        // Re-admission used the ordinary resync machinery.
        assert!(fleet.obs().journal.snapshot().count_of("resync") >= 1);
    }

    #[test]
    fn lease_zero_never_evicts() {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 2,
            epoch_packets: 1_000,
            ..FleetConfig::default()
        });
        fleet.set_muted(1, true);
        fleet.run_trace(&zipfish(20_000, 5));
        assert_eq!(
            fleet.obs().journal.snapshot().count_of("eviction"),
            0,
            "leasing is off by default"
        );
        // The muted switch's replica just goes stale, it is not dropped.
        assert!(fleet.collector().switch_window(1).is_some());
    }

    #[test]
    fn reorder_knob_inverts_same_switch_streams() {
        // With reorder on and loss off, delayed patches arrive behind
        // their switch's own next frame: the collector must observe
        // genuine out-of-order patches (gaps that heal by buffering,
        // or resyncs) and still converge.
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 3,
            epoch_packets: 1_000,
            mode: ExportMode::Dirty,
            reorder: 0.4,
            seed: 6,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(12_000, 8));
        let s = *fleet.stats();
        assert!(s.frames_reordered > 0, "channel must actually delay frames");
        assert_eq!(s.frames_lost, 0);
        fleet.reconcile();
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    /// A 2-switch, W = 4 fleet after 12 periods (the ring has cycled).
    fn steady_fleet(mode: ExportMode) -> Fleet<u64> {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 4,
            epoch_packets: 4_000,
            mode,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(48_000, 5));
        fleet
    }

    /// Bytes of every switch's empty-baseline frame of its newest
    /// closed epoch ([`SlidingTopK::export_delta`]).
    fn delta_bytes(fleet: &Fleet<u64>) -> u64 {
        let frames = fleet.switches().iter().enumerate();
        frames
            .map(|(i, sw)| sw.export_delta(i as u64, 4_000).unwrap().len() as u64)
            .sum()
    }

    #[test]
    fn delta_frames_are_fraction_of_full() {
        // Steady state: one closed epoch against the empty baseline
        // ships ~1/W of a full rotation.
        let fleet = steady_fleet(ExportMode::Full);
        let full_bytes = fleet.stats().bytes_last_rotation;
        let ratio = delta_bytes(&fleet) as f64 / full_bytes as f64;
        let bound = 1.0 / 4.0 + 0.1;
        assert!(
            ratio <= bound,
            "delta/full = {ratio:.3} exceeds 1/W + eps = {bound:.3}"
        );
    }

    #[test]
    fn lossless_dirty_mode_replicas_are_bit_exact() {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 3,
            window: 4,
            epoch_packets: 5_000,
            mode: ExportMode::Dirty,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(40_000, 9));
        let s = *fleet.stats();
        assert_eq!(s.rotations, 8);
        // Every rotation ships dirty — the first against the empty
        // baseline — and only the initial snapshots are full.
        assert_eq!(s.dirty_frames, 3 * 8);
        assert_eq!(s.full_frames, 3);
        assert!(fleet.collector().resync_needed().is_empty());
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    #[test]
    fn single_epoch_window_dirty_mode_degrades_to_full() {
        // W = 1 never retains a closed epoch to ship dirty: full frames
        // every rotation.
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 1,
            epoch_packets: 1_000,
            mode: ExportMode::Dirty,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(5_000, 3));
        assert_eq!(fleet.stats().rotations, 5);
        assert_eq!(fleet.stats().dirty_frames, 0, "W=1 ships full frames");
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    #[test]
    fn dirty_rotation_bytes_stay_below_delta() {
        // Dirty only pays for buckets the closed epoch changed, so on
        // traffic with re-used flows it undercuts shipping every
        // occupied bucket against the empty baseline.
        let fleet = steady_fleet(ExportMode::Dirty);
        let (dirty_bytes, delta_bytes) = (fleet.stats().bytes_last_rotation, delta_bytes(&fleet));
        assert!(
            dirty_bytes < delta_bytes,
            "dirty {dirty_bytes} bytes/rotation must undercut delta {delta_bytes}"
        );
    }
}
