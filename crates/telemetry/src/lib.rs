//! # The windowed telemetry plane
//!
//! HeavyKeeper's deployment model (paper footnote 2) is a *fleet*: one
//! sketch per measurement point, a central collector reassembling the
//! network-wide view. The core crate provides each hop of the windowed
//! version of that story — [`SlidingTopK`] per switch, wire-v2 epoch
//! frames ([`SlidingTopK::export_frame`] / [`SlidingTopK::export_delta`]),
//! and collector-side ring reassembly
//! ([`Collector::submit_window_frame`]). This crate is the *plane* that
//! connects them: a deterministic fleet scenario driver that runs `S`
//! switches over hash-partitioned traffic, ships their frames through a
//! lossy, reordering channel, services the collector's resync requests,
//! and accounts every byte — the harness behind `hk fleet` and the
//! benchmark's `fleet-window` workload (`ledger/`).
//!
//! ## Export protocol
//!
//! ```text
//!  switch i                    channel (loss p, reorder q)        collector
//!  ────────                    ───────────────────────────        ─────────
//!  t=0   export_frame ───────────────────────────────────────▶ snapshot (rotation 0)
//!  rotate┐
//!        ├ export_delta(R=1) ──────────────────────────────── ▶ commit epoch 1
//!  rotate┤
//!        ├ export_delta(R=2) ───────── ✖ lost
//!  rotate┤
//!        ├ export_delta(R=3) ──────────────────────────────── ▶ gap! buffer + flag resync
//!        │                 ◀─────────── resync_needed() ─────── ┘
//!        └ export_frame ───────────────────────────────────────▶ snapshot (rotation 3): bit-exact again
//! ```
//!
//! * **Full frames** carry every live epoch — O(W · sketch) bytes; used
//!   for the initial snapshot, for resync, and as the only frame kind
//!   under [`ExportMode::Full`].
//! * **Delta frames** carry one closed epoch — O(sketch) bytes per
//!   rotation, the steady-state export cost, independent of `W`.
//! * **Dirty frames** ([`ExportMode::Dirty`]) carry the closed epoch as
//!   a changed-bucket patch against the previous export — O(changed
//!   buckets) bytes per rotation. When the exporter's shadow isn't
//!   fresh (first rotation, or a rotation whose export was skipped),
//!   the switch degrades one step to a delta, then to a full frame;
//!   the per-frame kind labels in [`FleetStats`] account for the mix.
//! * **Loss** shows up as a rotation-id gap at the collector, which
//!   buffers the early delta, flags the switch in
//!   [`Collector::resync_needed`], and is healed by the next full
//!   snapshot (or by the missing delta itself when the cause was mere
//!   reordering). Duplicates are dropped idempotently.
//!
//! Switches observe *disjoint* sub-streams (flows are hash-partitioned
//! across the fleet, RSS-style), so the collector runs
//! [`AggregationRule::Sum`] and the network-wide windowed top-k is
//! answered by epoch-aligned sketch merges
//! ([`Collector::window_top_k`]).
//!
//! Everything is deterministic given [`FleetConfig::seed`]: the channel
//! noise comes from a seeded [`XorShift64`], so a fleet run — loss
//! pattern included — replays bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use heavykeeper::collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
use heavykeeper::sliding::SlidingTopK;
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;
use hk_common::prepared::HashSpec;
use hk_common::prng::XorShift64;
use hk_obs::{EventKind, ObsHub};
use std::sync::Arc;

/// Seed salt of the fleet's flow-partition hash: distinct from every
/// sketch seed so switch assignment is independent of bucket placement.
const PARTITION_SALT: u64 = 0xF1EE_7000_5A17_0000;

/// Steady-state export policy of a fleet's switches: what each switch
/// ships at a period boundary, in decreasing bytes-per-rotation order.
/// Each mode degrades one step when its preconditions fail (no closed
/// epoch, no fresh shadow) rather than skipping the rotation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExportMode {
    /// A full snapshot every rotation — O(W · sketch) bytes.
    Full,
    /// One closed epoch per rotation — O(sketch) bytes.
    #[default]
    Delta,
    /// Changed buckets of the closed epoch per rotation — O(changed)
    /// bytes, at the cost of one shadow matrix per switch.
    Dirty,
}

/// What a shipped frame actually was — under [`ExportMode::Dirty`] the
/// fallback chain mixes kinds, so the label rides with each frame.
#[derive(Debug, Clone, Copy)]
enum ExportKind {
    Full,
    Delta,
    Dirty,
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
    /// buffered deltas and flags dropped —
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
            mode: ExportMode::Delta,
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
    /// Delta frames sent.
    pub delta_frames: u64,
    /// Dirty (changed-bucket patch) frames sent.
    pub dirty_frames: u64,
    /// Full snapshots sent *in answer to a resync request*.
    pub resyncs: u64,
    /// Deltas the collector dropped as duplicates.
    pub duplicates: u64,
    /// Switches evicted for overrunning their lease
    /// ([`FleetConfig::lease`]).
    pub evictions: u64,
    /// Previously evicted switches whose replica was reinstalled by a
    /// later snapshot (the resync re-admission path).
    pub readmissions: u64,
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
    /// Optional observability hub ([`Fleet::attach_obs`]): export
    /// stage counters, frame-size histogram and lifecycle journal
    /// (evictions, readmissions, resyncs).
    obs: Option<Arc<ObsHub>>,
}

impl<K: FlowKey> Fleet<K> {
    /// Builds the fleet and ships every switch's initial full snapshot
    /// (rotation 0) through the channel — under loss, a switch may
    /// start dark and be healed by the resync path once its first
    /// delta arrives.
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
            obs: None,
            cfg,
        };
        // Initial snapshots anchor every delta stream.
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

    /// Attaches an observability hub: every subsequent export bumps the
    /// `exports` stage counter and feeds the frame-size histogram, and
    /// lease evictions, readmissions and resync snapshots land in the
    /// event journal. Detached fleets (the default) skip all of it.
    pub fn attach_obs(&mut self, hub: Arc<ObsHub>) {
        self.obs = Some(hub);
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.as_ref()
    }

    /// The switch a flow belongs to (multiply-shift over the partition
    /// hash lane — every packet of a flow crosses exactly one switch).
    pub fn switch_of(&self, key: &K) -> usize {
        let lane = self.partition.prepare(key.key_bytes().as_slice()).lane();
        ((lane as u64 * self.cfg.switches as u64) >> 32) as usize
    }

    /// Feeds packets into the fleet: each packet is routed to its
    /// flow's switch and ingested through the batch pipeline.
    pub fn ingest(&mut self, packets: &[K]) {
        for buf in &mut self.staging {
            buf.clear();
        }
        for key in packets {
            let s = self.switch_of(key);
            self.staging[s].push(*key);
        }
        for (sw, buf) in self.switches.iter_mut().zip(&self.staging) {
            if !buf.is_empty() {
                sw.insert_batch(buf);
            }
        }
    }

    /// Crosses one period boundary fleet-wide: rotates every switch,
    /// exports each one's frame per [`FleetConfig::mode`], ships the
    /// batch through the lossy channel, and then services any resync
    /// requests with full snapshots (also through the channel — a lost
    /// resync is retried at the next rotation).
    pub fn rotate(&mut self) {
        for sw in &mut self.switches {
            sw.rotate();
        }
        self.stats.rotations += 1;
        let budget = self.epoch_budget();
        let mode = self.cfg.mode;
        let muted = &self.muted;
        let frames: Vec<(Vec<u8>, ExportKind)> = self
            .switches
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| !muted.contains(i))
            .map(|(i, sw)| {
                // Each mode degrades one step instead of skipping the
                // rotation: a W = 1 ring never has a closed epoch to
                // delta (its only slot is the accumulating one), and a
                // dirty export additionally needs a shadow of the
                // previous rotation's export (absent on the first
                // rotation; stale after resolution changes).
                match mode {
                    ExportMode::Full => (sw.export_frame(i as u64, budget), ExportKind::Full),
                    ExportMode::Delta => match sw.export_delta(i as u64, budget) {
                        Some(b) => (b, ExportKind::Delta),
                        None => (sw.export_frame(i as u64, budget), ExportKind::Full),
                    },
                    ExportMode::Dirty => match sw.export_dirty(i as u64, budget) {
                        Some(b) => (b, ExportKind::Dirty),
                        None => match sw.export_delta(i as u64, budget) {
                            Some(b) => (b, ExportKind::Delta),
                            None => (sw.export_frame(i as u64, budget), ExportKind::Full),
                        },
                    },
                }
            })
            .collect();
        self.stats.bytes_last_rotation = frames.iter().map(|(b, _)| b.len() as u64).sum();
        self.ship(frames);
        self.service_resyncs(true);
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
                self.stats.evictions += 1;
                self.evicted.insert(id);
                if let Some(hub) = &self.obs {
                    hub.journal.record(EventKind::Eviction { switch: id });
                }
            }
        }
        let readmitted: Vec<u64> = self
            .evicted
            .iter()
            .copied()
            .filter(|&id| self.collector.switch_window(id).is_some())
            .collect();
        for id in readmitted {
            self.stats.readmissions += 1;
            self.evicted.remove(&id);
            if let Some(hub) = &self.obs {
                hub.journal.record(EventKind::Readmission { switch: id });
            }
        }
    }

    /// Ships full snapshots to the collector for every switch it
    /// flagged. `lossy` applies the channel to them (the in-band
    /// behavior); the reliable variant is used to prove convergence at
    /// the end of a run.
    pub fn service_resyncs(&mut self, lossy: bool) {
        let budget = self.epoch_budget();
        let wanted = self.collector.resync_needed();
        if wanted.is_empty() {
            return;
        }
        let frames: Vec<(Vec<u8>, ExportKind)> = wanted
            .iter()
            .filter(|&&id| !self.muted.contains(&(id as usize)))
            .filter_map(|&id| {
                self.switches.get(id as usize).map(|sw| {
                    if let Some(hub) = &self.obs {
                        hub.journal.record(EventKind::Resync { switch: id });
                    }
                    (sw.export_frame(id, budget), ExportKind::Full)
                })
            })
            .collect();
        self.stats.resyncs += frames.len() as u64;
        if lossy {
            self.ship(frames);
        } else {
            for (bytes, _) in frames {
                self.stats.frames_sent += 1;
                self.stats.full_frames += 1;
                self.stats.bytes_sent += bytes.len() as u64;
                self.deliver(&bytes);
            }
        }
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
    /// the collector's out-of-order delta buffering (an in-batch swap
    /// would only exchange frames of different switches, which are
    /// independent streams and no reordering at all). The per-frame
    /// [`ExportKind`] only labels the accounting.
    fn ship(&mut self, frames: Vec<(Vec<u8>, ExportKind)>) {
        // Frames delayed by the previous shipment come out behind this
        // one; frames delayed now wait for the next.
        let overdue = std::mem::take(&mut self.delayed);
        for (bytes, kind) in frames {
            self.stats.frames_sent += 1;
            match kind {
                ExportKind::Full => self.stats.full_frames += 1,
                ExportKind::Delta => self.stats.delta_frames += 1,
                ExportKind::Dirty => self.stats.dirty_frames += 1,
            }
            self.stats.bytes_sent += bytes.len() as u64;
            if let Some(hub) = &self.obs {
                hub.stages.exports.incr();
                hub.export_bytes.record(bytes.len() as u64);
            }
            if self.cfg.loss > 0.0 && self.channel_rng.bernoulli(self.cfg.loss) {
                self.stats.frames_lost += 1;
                continue;
            }
            if self.cfg.reorder > 0.0 && self.channel_rng.bernoulli(self.cfg.reorder) {
                self.stats.frames_reordered += 1;
                self.delayed.push(bytes);
                continue;
            }
            self.deliver(&bytes);
        }
        for bytes in overdue {
            self.deliver(&bytes);
        }
    }

    fn deliver(&mut self, bytes: &[u8]) {
        self.stats.frames_delivered += 1;
        match self.collector.submit_window_frame(bytes) {
            Ok(WindowSubmit::Duplicate) => self.stats.duplicates += 1,
            Ok(_) => {}
            // Protocol-level refusals (a delta racing ahead of its
            // snapshot) resolve through the resync path.
            Err(WindowSubmitError::NoSnapshot { .. }) => {}
            Err(e) => unreachable!("fleet frames are always well-formed: {e}"),
        }
    }

    /// End-of-stream reconciliation: ships a **reliable** full snapshot
    /// for every switch whose replica lags its local window (a delta
    /// lost on the *final* rotation leaves no later gap to betray it,
    /// so gap detection alone cannot catch it) or is flagged for
    /// resync. After this, every replica is bit-identical to its
    /// switch. Returns how many snapshots were shipped.
    pub fn reconcile(&mut self) -> usize {
        // Flush frames the channel was still holding back — at end of
        // stream there is no "next shipment" to carry them.
        let overdue = std::mem::take(&mut self.delayed);
        for bytes in overdue {
            self.deliver(&bytes);
        }
        let budget = self.epoch_budget();
        let flagged = self.collector.resync_needed();
        let frames: Vec<Vec<u8>> = self
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
            .map(|(i, sw)| sw.export_frame(i as u64, budget))
            .collect();
        let shipped = frames.len();
        for bytes in frames {
            self.stats.frames_sent += 1;
            self.stats.full_frames += 1;
            self.stats.resyncs += 1;
            self.stats.bytes_sent += bytes.len() as u64;
            self.deliver(&bytes);
        }
        self.enforce_lease();
        shipped
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

/// A window's content digest: CRC-32 over the ring geometry, rotation
/// counter, every epoch's bucket words, and the (canonically sorted)
/// top-k entries. Two windows with equal digests are bit-identical for
/// every query the collector can pose — the compact form of the
/// differential tests' bucket-by-bucket comparison.
pub fn window_digest<K: FlowKey>(win: &SlidingTopK<K>) -> u32 {
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
    hk_common::crc::crc32(&buf)
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
    fn lossless_delta_mode_replicas_are_bit_exact() {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 3,
            window: 4,
            epoch_packets: 5_000,
            mode: ExportMode::Delta,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(40_000, 9));
        assert!(fleet.stats().delta_frames >= 3 * 8);
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
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
    fn single_epoch_window_delta_mode_degrades_to_full() {
        // W = 1 has no closed epoch to delta — delta mode must fall
        // back to full frames instead of failing, and the replicas
        // still track bit-exactly.
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 1,
            epoch_packets: 1_000,
            mode: ExportMode::Delta,
            ..FleetConfig::default()
        });
        fleet.run_trace(&zipfish(5_000, 3));
        assert_eq!(fleet.stats().rotations, 5);
        assert_eq!(fleet.stats().delta_frames, 0, "W=1 ships full frames");
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
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
            mode: ExportMode::Delta,
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
        assert_eq!(fleet.stats().evictions, 1, "silent switch evicted");
        assert_eq!(fleet.stats().readmissions, 0);
        assert!(
            fleet.collector().switch_window(1).is_none(),
            "evicted replica is gone from the windowed plane"
        );

        // Reconnect: the next delta hits the no-snapshot arm, the
        // resync ships a full snapshot, and the replica is re-admitted.
        fleet.set_muted(1, false);
        for p in &periods[14..18] {
            fleet.ingest(p);
            fleet.rotate();
        }
        assert_eq!(fleet.stats().readmissions, 1, "resync re-admits");
        fleet.reconcile();
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet
                .collector()
                .switch_window(i as u64)
                .expect("all switches back");
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
        // Re-admission used the ordinary resync machinery.
        assert!(fleet.stats().resyncs >= 1);
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
        assert_eq!(fleet.stats().evictions, 0, "leasing is off by default");
        // The muted switch's replica just goes stale, it is not dropped.
        assert!(fleet.collector().switch_window(1).is_some());
    }

    #[test]
    fn reorder_knob_inverts_same_switch_streams() {
        // With reorder on and loss off, delayed deltas arrive behind
        // their switch's own next frame: the collector must observe
        // genuine out-of-order deltas (gaps that heal by buffering,
        // or resyncs) and still converge.
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 2,
            window: 3,
            epoch_packets: 1_000,
            mode: ExportMode::Delta,
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

    #[test]
    fn delta_frames_are_fraction_of_full() {
        // Steady state: a delta rotation ships ~1/W of a full rotation.
        let mk = |mode| {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 4,
                epoch_packets: 4_000,
                mode,
                ..FleetConfig::default()
            });
            fleet.run_trace(&zipfish(48_000, 5)); // 12 periods: ring cycles
            fleet.stats().bytes_last_rotation
        };
        let (delta_bytes, full_bytes) = (mk(ExportMode::Delta), mk(ExportMode::Full));
        let ratio = delta_bytes as f64 / full_bytes as f64;
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
        // Rotation 1 primes every shadow (delta fallback); rotations
        // 2..=8 all ship dirty — the fallback chain is exact, not lossy.
        assert_eq!(s.delta_frames, 3, "one priming delta per switch");
        assert_eq!(s.dirty_frames, 3 * 7);
        assert!(fleet.collector().resync_needed().is_empty());
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    #[test]
    fn single_epoch_window_dirty_mode_degrades_to_full() {
        // W = 1 satisfies neither the dirty nor the delta precondition:
        // the chain bottoms out at full frames every rotation.
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
        assert_eq!(fleet.stats().delta_frames, 0, "W=1 ships full frames");
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_eq!(window_digest(replica), window_digest(sw), "switch {i}");
        }
    }

    #[test]
    fn dirty_rotation_bytes_stay_below_delta() {
        // The steady-state cost ladder the modes exist for: dirty only
        // pays for buckets the closed epoch changed, so on any traffic
        // with re-used flows it must undercut a delta, which always
        // ships the whole sketch.
        let mk = |mode| {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 4,
                epoch_packets: 4_000,
                mode,
                ..FleetConfig::default()
            });
            fleet.run_trace(&zipfish(48_000, 5));
            fleet.stats().bytes_last_rotation
        };
        let (dirty_bytes, delta_bytes) = (mk(ExportMode::Dirty), mk(ExportMode::Delta));
        assert!(
            dirty_bytes < delta_bytes,
            "dirty {dirty_bytes} bytes/rotation must undercut delta {delta_bytes}"
        );
    }
}
