//! Network-wide top-k collection.
//!
//! The paper's footnote 2 describes the deployment HeavyKeeper targets:
//! each switch runs a sketch over its own traffic and periodically ships
//! it to a central collector, which combines the per-switch views into a
//! network-wide top-k and the switches reset for the next period.
//!
//! [`Collector`] implements the collector side. Switches submit either
//! whole sketches (merged via [`crate::merge`]) or plain top-k reports
//! (flow, estimate) when shipping the full sketch is too expensive.
//! Because one packet traverses several switches, the collector must be
//! told how to reconcile counts for the same flow seen at different
//! vantage points — [`AggregationRule`]:
//!
//! * [`AggregationRule::Max`] — every switch on a flow's path counts all
//!   of its packets, so the network-wide size is the *maximum* of the
//!   per-switch counts (the right rule for a single administrative domain
//!   where paths overlap). `Max` also preserves no-over-estimation: each
//!   input is a lower bound on the flow's true size, hence so is the max.
//! * [`AggregationRule::Sum`] — vantage points observe *disjoint* traffic
//!   (e.g. per-rack ToR uplinks), so sizes add.
//!
//! # Examples
//!
//! ```
//! use heavykeeper::collector::{AggregationRule, Collector};
//! use heavykeeper::{HkConfig, ParallelTopK};
//! use hk_common::TopKAlgorithm;
//!
//! let cfg = HkConfig::builder().width(512).k(4).seed(7).build();
//! let mut sw1 = ParallelTopK::<u64>::new(cfg.clone());
//! let mut sw2 = ParallelTopK::<u64>::new(cfg);
//! for i in 0..1000 {
//!     sw1.insert(&1); // flow 1 crosses both switches
//!     sw2.insert(&1);
//!     if i % 2 == 0 {
//!         sw2.insert(&2); // flow 2: only at switch 2, half the size
//!     }
//! }
//! let mut coll = Collector::new(4, AggregationRule::Max);
//! coll.submit_report(sw1.top_k());
//! coll.submit_report(sw2.top_k());
//! let top = coll.top_k();
//! assert_eq!(top[0].0, 1);
//! assert!(top[0].1 <= 1000, "Max rule never over-estimates");
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, PoisonError};

use crate::merge::{check_compatible, merge_bucket, MergeError, MergeMode};
use crate::parallel::ParallelTopK;
use crate::sketch::HkSketch;
use crate::sliding::SlidingTopK;
use crate::wire::{DirtyPatch, FrameKind, WindowFrame, WireError};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;

/// Why a wire submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The payload did not decode.
    Wire(WireError),
    /// The decoded sketch is not merge-compatible with earlier ones.
    Merge(MergeError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire decode failed: {e}"),
            Self::Merge(e) => write!(f, "merge failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a window-frame submission did (the protocol's normal outcomes —
/// duplicates and gaps are expected under a lossy transport, not
/// errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSubmit {
    /// A full snapshot (re)installed the switch's ring replica.
    Snapshot,
    /// A dirty frame advanced the replica in sequence (possibly
    /// draining buffered out-of-order patches behind it).
    Applied,
    /// The frame's rotation was at or below the replica's — already
    /// incorporated; dropped idempotently.
    Duplicate,
    /// The dirty frame is ahead of the replica (a rotation-id gap): it
    /// was buffered, and the switch is flagged in
    /// [`Collector::resync_needed`] until a full snapshot arrives or
    /// the missing patches fill the gap.
    ResyncRequested,
}

/// Why a window-frame submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSubmitError {
    /// The frame did not decode (truncated, corrupt, bad CRC, …).
    Wire(WireError),
    /// The frame conflicts with the switch's established ring (window
    /// size or sketch configuration changed mid-stream).
    Mismatch {
        /// The submitting switch.
        switch: u64,
    },
    /// A dirty frame arrived for a switch that never sent a full
    /// snapshot; the switch is flagged for resync.
    NoSnapshot {
        /// The submitting switch.
        switch: u64,
    },
}

impl std::fmt::Display for WindowSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "window frame decode failed: {e}"),
            Self::Mismatch { switch } => {
                write!(f, "switch {switch}: frame conflicts with established ring")
            }
            Self::NoSnapshot { switch } => {
                write!(f, "switch {switch}: dirty frame before any full snapshot")
            }
        }
    }
}

impl std::error::Error for WindowSubmitError {}

/// One switch's reassembled sliding window at the collector.
#[derive(Debug, Clone)]
struct SwitchWindow<K: FlowKey> {
    /// The reassembled ring: bit-identical to the switch's own
    /// [`SlidingTopK`] as of the last in-sequence frame.
    replica: SlidingTopK<K>,
    /// Out-of-order patches buffered by rotation id, waiting for the
    /// gap before them to fill (bounded by the window size — anything
    /// older is covered by the resync snapshot anyway). Each is applied
    /// against the then-newest closed epoch at drain time.
    pending: BTreeMap<u64, DirtyPatch<K>>,
    /// Highest rotation id this switch was ever *observed* at (from any
    /// frame, including buffered-then-dropped patches). The replica is
    /// known-stale — and the switch resync-flagged — exactly while
    /// `replica.rotations() < max_seen`; deriving the flag from this
    /// (rather than from the pending buffer emptying) means a gap patch
    /// discarded by the bounded buffer can never silently clear it.
    max_seen: u64,
    /// Collector-clock tick of the last frame received from this switch
    /// (any frame — even a duplicate proves the switch is alive).
    /// Compared against the collector's running clock by
    /// [`Collector::stale_switches`] to spot switches gone silent.
    last_progress: u64,
}

impl<K: FlowKey> SwitchWindow<K> {
    /// True while a rotation was observed that the replica has not
    /// incorporated.
    fn needs_resync(&self) -> bool {
        self.replica.rotations() < self.max_seen
    }
}

/// How per-switch counts for the same flow combine network-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationRule {
    /// Overlapping vantage points: take the maximum count. Preserves the
    /// no-over-estimation property of the inputs.
    #[default]
    Max,
    /// Disjoint vantage points: counts add.
    Sum,
}

/// Central collector aggregating per-switch top-k evidence.
///
/// Works from plain `(flow, estimate)` reports; for whole-sketch
/// submission see [`Collector::submit_sketch`], which folds the sketch's
/// own top-k through the same path after merging the bucket arrays into
/// an accumulated network-wide sketch.
///
/// For *windowed* deployments the collector additionally reassembles
/// each switch's sliding-window epoch ring from window frames
/// ([`Collector::submit_window_frame`]): full snapshots install a
/// per-switch [`SlidingTopK`] replica, dirty frames advance it one
/// closed epoch per rotation, and [`Collector::window_top_k`]
/// answers the network-wide windowed top-k. Its merged estimate is what
/// merging the switches' live epochs would give, read from each
/// candidate's own buckets under the [`crate::merge`] bucket rule
/// without building a merged ring. The windowed plane is independent of
/// the tumbling report/sketch path (and of [`Collector::end_period`]) —
/// a sliding window has no period to end.
#[derive(Debug)]
pub struct Collector<K: FlowKey> {
    rule: AggregationRule,
    k: usize,
    counts: HashMap<K, u64>,
    /// Network-wide merged sketch, present once a sketch was submitted.
    merged: Option<ParallelTopK<K>>,
    reports: usize,
    /// Per-switch reassembled sliding windows, keyed by switch id.
    windows: HashMap<u64, SwitchWindow<K>>,
    /// Switches flagged for resync before any snapshot arrived (no
    /// [`SwitchWindow`] entry exists yet to carry the flag).
    resync_no_snapshot: HashSet<u64>,
    /// Logical clock: ticks once per window-frame submission (from any
    /// switch). Staleness is measured against it — "idle for `n`" means
    /// "`n` frames arrived fleet-wide since this switch last spoke",
    /// which needs no wall clock and stays deterministic in tests.
    clock: u64,
    /// Reusable query scratch: the candidate buffer and dedup set keep
    /// their capacity across [`Collector::top_k`] /
    /// [`Collector::window_top_k`] calls instead of reallocating per
    /// query (same pattern as [`SlidingTopK`]'s top-k scratch). A
    /// `Mutex` — not `RefCell` — so the collector stays `Sync`;
    /// uncontended on the single-owner path.
    scratch: Mutex<QueryScratch<K>>,
    /// Window frames the protocol refused (wire errors, ring
    /// mismatches, dirty frames before any snapshot).
    window_frames_rejected: u64,
}

/// The per-query allocations of the top-k paths, retained across calls.
#[derive(Debug)]
struct QueryScratch<K> {
    seen: HashSet<K>,
    candidates: Vec<(K, u64)>,
}

impl<K> Default for QueryScratch<K> {
    fn default() -> Self {
        Self {
            seen: HashSet::new(),
            candidates: Vec::new(),
        }
    }
}

impl<K: FlowKey> Clone for Collector<K> {
    fn clone(&self) -> Self {
        Self {
            rule: self.rule,
            k: self.k,
            counts: self.counts.clone(),
            merged: self.merged.clone(),
            reports: self.reports,
            windows: self.windows.clone(),
            resync_no_snapshot: self.resync_no_snapshot.clone(),
            clock: self.clock,
            // Scratch is cheap to refill; a clone starts cold.
            scratch: Mutex::new(QueryScratch::default()),
            window_frames_rejected: self.window_frames_rejected,
        }
    }
}

impl<K: FlowKey> Collector<K> {
    /// Creates a collector reporting the top `k` flows network-wide.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, rule: AggregationRule) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            rule,
            k,
            counts: HashMap::new(),
            merged: None,
            reports: 0,
            windows: HashMap::new(),
            resync_no_snapshot: HashSet::new(),
            clock: 0,
            scratch: Mutex::new(QueryScratch::default()),
            window_frames_rejected: 0,
        }
    }

    /// Number of submissions (reports + sketches) so far this period.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Lifetime window frames refused outright — undecodable bytes,
    /// ring mismatches, or dirty frames arriving before any snapshot.
    pub fn window_frames_rejected(&self) -> u64 {
        self.window_frames_rejected
    }

    /// Submits one switch's top-k report for this period.
    pub fn submit_report(&mut self, report: Vec<(K, u64)>) {
        self.reports += 1;
        for (key, est) in report {
            let slot = self.counts.entry(key).or_insert(0);
            *slot = match self.rule {
                AggregationRule::Max => (*slot).max(est),
                AggregationRule::Sum => slot.saturating_add(est),
            };
        }
    }

    /// Submits one switch's *whole sketch* for this period. The first
    /// sketch seeds the network-wide merged sketch; later ones must be
    /// merge-compatible with it (same seed/width/arrays/field widths).
    ///
    /// The bucket-level merge follows the collector's aggregation rule:
    /// [`AggregationRule::Sum`] adds matching counts (disjoint vantage
    /// points), [`AggregationRule::Max`] takes the maximum (overlapping
    /// paths — summing would double-count shared packets).
    pub fn submit_sketch(&mut self, sketch: &ParallelTopK<K>) -> Result<(), MergeError> {
        let mode = self.merge_mode();
        match &mut self.merged {
            None => {
                self.merged = Some(sketch.clone());
            }
            Some(acc) => acc.merge_from_with(sketch, mode)?,
        }
        self.submit_report(sketch.top_k());
        Ok(())
    }

    /// Submits a sketch shipped over the wire
    /// ([`ParallelTopK::to_wire`]) — the full footnote-2 hop: switch
    /// serializes, network carries the bytes, collector decodes and
    /// merges.
    pub fn submit_wire(&mut self, payload: &[u8]) -> Result<(), SubmitError> {
        let sketch = ParallelTopK::<K>::from_wire(payload).map_err(SubmitError::Wire)?;
        self.submit_sketch(&sketch).map_err(SubmitError::Merge)
    }

    /// The network-wide top-k for the current period, largest first.
    ///
    /// Flow estimates combine the reported evidence under the
    /// aggregation rule with (when sketches were submitted) the merged
    /// sketch's own estimate.
    ///
    /// The candidate buffer is scratch retained across calls — a
    /// collector polled every period stops allocating per query.
    pub fn top_k(&self) -> Vec<(K, u64)> {
        // Scratch is cleared before use — poison cannot leak state.
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let candidates = &mut scratch.candidates;
        candidates.clear();
        candidates.extend(self.counts.iter().map(|(key, &c)| {
            // The merged sketch (built with the rule's merge mode) is
            // one more lower bound on the flow's network-wide size;
            // take the strongest evidence.
            let est = match &self.merged {
                Some(m) => c.max(m.query(key)),
                None => c,
            };
            (*key, est)
        }));
        candidates.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        candidates.truncate(self.k);
        // The caller owns its report; only this exact-size copy leaves.
        candidates.clone()
    }

    /// Ends the period: returns this period's top-k and clears the
    /// tumbling state (switch sketches reset on their side, paper
    /// footnote 2). Reassembled sliding windows are untouched — they
    /// have no period boundary; they advance by rotation.
    pub fn end_period(&mut self) -> Vec<(K, u64)> {
        let out = self.top_k();
        self.counts.clear();
        self.merged = None;
        self.reports = 0;
        out
    }

    // -- The windowed plane ---------------------------------------------

    /// Submits one windowed telemetry frame
    /// ([`SlidingTopK::export_frame`], [`SlidingTopK::export_dirty`] or
    /// [`SlidingTopK::export_delta`] bytes) and reassembles the
    /// submitting switch's epoch ring.
    ///
    /// * A **full** frame installs (or re-anchors) the switch's
    ///   [`SlidingTopK`] replica at the frame's rotation and clears any
    ///   resync flag; a stale full frame (rotation behind the replica)
    ///   is dropped idempotently.
    /// * A **dirty** frame carrying rotation `R` applies when the
    ///   replica stands at `R - 1`: its patch is reconstructed against
    ///   the replica's newest closed epoch (the epoch closed by `R - 1`,
    ///   which the switch's ring diffed against), or against nothing
    ///   when its baseline is empty — a `W = 2` switch ships every
    ///   epoch that way ([`DirtyPatch::apply`]) — and committed
    ///   ([`SlidingTopK::commit_epoch`]). A patch whose baseline row
    ///   count disagrees with that epoch is refused and leaves the
    ///   switch flagged for resync. `R` at or below the replica's
    ///   rotation is a duplicate (idempotent drop). `R` further ahead is
    ///   a **gap**: the patch is buffered (so a reordered neighbor can
    ///   still slot in once the gap fills) and the switch is flagged in
    ///   [`Collector::resync_needed`] until a full snapshot arrives.
    ///
    /// Returns what the frame did; errors are reserved for frames that
    /// cannot participate in the protocol at all (undecodable bytes,
    /// ring mismatches, patches that do not apply, dirty frames before
    /// any snapshot).
    pub fn submit_window_frame(
        &mut self,
        payload: &[u8],
    ) -> Result<WindowSubmit, WindowSubmitError> {
        let out = WindowFrame::<K>::decode(payload)
            .map_err(WindowSubmitError::Wire)
            .and_then(|frame| self.submit_window_inner(frame));
        if out.is_err() {
            self.window_frames_rejected += 1;
        }
        out
    }

    fn submit_window_inner(
        &mut self,
        frame: WindowFrame<K>,
    ) -> Result<WindowSubmit, WindowSubmitError> {
        let switch = frame.switch_id;
        // Any decodable frame naming the switch proves it alive, so the
        // liveness stamp lands before the protocol decides what the
        // frame does (even a duplicate resets the idle counter).
        self.clock += 1;
        let now = self.clock;
        match frame.kind {
            FrameKind::Full => {
                let window = frame
                    .into_window()
                    .expect("full frames always convert to a window");
                if let Some(entry) = self.windows.get_mut(&switch) {
                    entry.last_progress = now;
                    // Array counts are excluded from the ring-identity
                    // check: Section III-F expansion grows them
                    // per-epoch at runtime.
                    if entry.replica.window() != window.window()
                        || !crate::wire::same_ring_config(entry.replica.config(), window.config())
                    {
                        return Err(WindowSubmitError::Mismatch { switch });
                    }
                    if window.rotations() < entry.replica.rotations() {
                        // A reordered, stale snapshot must not rewind
                        // the ring.
                        return Ok(WindowSubmit::Duplicate);
                    }
                    entry.max_seen = entry.max_seen.max(window.rotations());
                    entry.replica = window;
                    Self::drain_pending(entry);
                } else {
                    self.resync_no_snapshot.remove(&switch);
                    self.windows.insert(
                        switch,
                        SwitchWindow {
                            max_seen: window.rotations(),
                            replica: window,
                            pending: BTreeMap::new(),
                            last_progress: now,
                        },
                    );
                }
                Ok(WindowSubmit::Snapshot)
            }
            FrameKind::Dirty => {
                let Some(entry) = self.windows.get_mut(&switch) else {
                    // No ring to commit the epoch into; ask for a
                    // snapshot.
                    self.resync_no_snapshot.insert(switch);
                    return Err(WindowSubmitError::NoSnapshot { switch });
                };
                entry.last_progress = now;
                let patch = frame.patch.expect("decode guarantees a patch");
                // A dirty frame carries no epoch config (the patch is
                // config-free by construction); ring identity is checked
                // on the geometry it does carry. Seed/decay mismatches
                // from an adversarial same-geometry stream fail at
                // apply-time validation or in the CRC/rotation protocol.
                if frame.window != entry.replica.window()
                    || patch.width() != entry.replica.config().width
                {
                    return Err(WindowSubmitError::Mismatch { switch });
                }
                let rotation = frame.rotation;
                let current = entry.replica.rotations();
                if rotation <= current {
                    return Ok(WindowSubmit::Duplicate);
                }
                // Every patch ahead of the replica marks the switch
                // observed at that rotation — even one the bounded
                // buffer below ends up discarding — so the resync flag
                // cannot be cleared until the replica truly catches up.
                entry.max_seen = entry.max_seen.max(rotation);
                if rotation == current + 1 {
                    let epoch =
                        Self::apply_patch(entry, &patch).map_err(WindowSubmitError::Wire)?;
                    entry.replica.commit_epoch(epoch);
                    Self::drain_pending(entry);
                    return Ok(WindowSubmit::Applied);
                }
                // Gap: buffer the early patch (bounded by the window —
                // anything a snapshot would supersede may be dropped)
                // and request a resync.
                if entry.pending.len() < entry.replica.window() {
                    entry.pending.insert(rotation, patch);
                }
                Ok(WindowSubmit::ResyncRequested)
            }
        }
    }

    /// Reconstructs the epoch a dirty patch describes. Its baseline, if
    /// it names one, is the replica's newest closed epoch — the epoch
    /// closed by `rotation - 1`, bit-exact by the protocol invariant,
    /// which is the epoch the exporter's ring held two behind its
    /// newest when it diffed.
    fn apply_patch(
        entry: &SwitchWindow<K>,
        patch: &DirtyPatch<K>,
    ) -> Result<ParallelTopK<K>, WireError> {
        patch.apply(entry.replica.newest_closed(), entry.replica.config())
    }

    /// Applies buffered out-of-order patches that have become
    /// in-sequence. The resync flag clears by itself once the replica's
    /// rotation reaches the highest one ever observed
    /// ([`SwitchWindow::needs_resync`]) — never merely because the
    /// buffer emptied.
    fn drain_pending(entry: &mut SwitchWindow<K>) {
        loop {
            let current = entry.replica.rotations();
            // Drop anything the replica has already covered.
            while let Some((&r, _)) = entry.pending.iter().next() {
                if r <= current {
                    entry.pending.remove(&r);
                } else {
                    break;
                }
            }
            let Some(patch) = entry.pending.remove(&(current + 1)) else {
                break;
            };
            // The patch's baseline is the epoch closed by `current` —
            // the replica's newest closed epoch at this point, however
            // the gap was healed. One that fails against it is dropped:
            // `max_seen` keeps the switch resync-flagged, so a snapshot
            // supersedes it.
            match Self::apply_patch(entry, &patch) {
                Ok(epoch) => entry.replica.commit_epoch(epoch),
                Err(_) => break,
            }
        }
    }

    /// Switch ids whose windows need a full snapshot (a rotation was
    /// observed that the replica has not incorporated, or a dirty frame
    /// arrived before any snapshot), ascending. The deployment answers
    /// by shipping [`SlidingTopK::export_frame`] for each.
    pub fn resync_needed(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .windows
            .iter()
            .filter(|(_, w)| w.needs_resync())
            .map(|(&id, _)| id)
            .chain(self.resync_no_snapshot.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Switch ids that have gone silent: more than `max_idle`
    /// window-frame submissions (fleet-wide, the collector's logical
    /// clock) have arrived since the switch last sent any frame.
    /// Ascending. A stale switch's replica keeps answering queries with
    /// its last-known window — this is how the operator learns that
    /// window is no longer fresh (a dead shard's exporter, a partitioned
    /// switch) and decides to wait, resync, or
    /// [`Collector::evict_switch`] it.
    pub fn stale_switches(&self, max_idle: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .windows
            .iter()
            .filter(|(_, w)| self.clock.saturating_sub(w.last_progress) > max_idle)
            .map(|(&id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Drops one switch from the windowed plane entirely: its replica,
    /// buffered patches, and resync flags. Its flows vanish from
    /// [`Collector::window_top_k`] at the next query — the windowed
    /// analogue of the sharded engine dropping a dead shard's state.
    /// Returns `true` when the switch was known. (The tumbling
    /// report/sketch plane is untouched: those submissions are already
    /// folded in and carry no per-switch state to evict.)
    pub fn evict_switch(&mut self, switch: u64) -> bool {
        let had_window = self.windows.remove(&switch).is_some();
        let had_flag = self.resync_no_snapshot.remove(&switch);
        had_window || had_flag
    }

    /// The reassembled window replica of one switch, if it has sent a
    /// snapshot. Bit-identical to the switch's own [`SlidingTopK`] as
    /// of the last in-sequence frame.
    pub fn switch_window(&self, switch: u64) -> Option<&SlidingTopK<K>> {
        self.windows.get(&switch).map(|w| &w.replica)
    }

    /// Switch ids with an installed window replica, ascending.
    pub fn window_switches(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.windows.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The network-wide top-k over the *live windows* of every
    /// reassembled switch, largest first.
    ///
    /// Candidates are the union of per-switch window top-k sets
    /// (deduplicated through the retained scratch). Each candidate's
    /// estimate is the larger of two lower bounds on the flow's true
    /// window count, so the answer never over-estimates:
    ///
    /// * the per-switch window queries combined under the aggregation
    ///   rule;
    /// * the merged estimate: what one network-wide ring would answer
    ///   if every switch's live epochs were merged epoch-aligned from
    ///   the newest, in ascending switch-id order, under the rule's
    ///   [`MergeMode`]. No ring is built: the candidate is hashed once
    ///   and only its `d` buckets per epoch per switch are folded, under
    ///   the same per-bucket rule the sketch merge applies. When some
    ///   epoch distance is not merge-compatible (different seeds or
    ///   geometries, or an epoch grown by Section III-F expansion), no
    ///   candidate gets merged evidence.
    pub fn window_top_k(&self) -> Vec<(K, u64)> {
        let mut switches: Vec<(&u64, &SwitchWindow<K>)> = self.windows.iter().collect();
        switches.sort_by_key(|(&id, _)| id);
        // The merged estimate catches cross-switch elephants that no
        // single switch reports.
        let by_distance = epochs_by_distance(switches.iter().map(|(_, w)| &w.replica));
        let mode = self.merge_mode();

        // Scratch is cleared before use — poison cannot leak state.
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let QueryScratch { seen, candidates } = &mut *scratch;
        seen.clear();
        candidates.clear();
        for (_, w) in &switches {
            for (key, _) in w.replica.top_k() {
                if !seen.insert(key) {
                    continue;
                }
                let mut est: u64 = match self.rule {
                    AggregationRule::Max => switches
                        .iter()
                        .map(|(_, sw)| sw.replica.query(&key))
                        .max()
                        .unwrap_or(0),
                    AggregationRule::Sum => switches
                        .iter()
                        .map(|(_, sw)| sw.replica.query(&key))
                        .fold(0u64, u64::saturating_add),
                };
                if let Some(groups) = &by_distance {
                    est = est.max(merged_estimate(groups, &key, mode));
                }
                if est > 0 {
                    candidates.push((key, est));
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
        });
        candidates.truncate(self.k);
        candidates.clone()
    }

    /// The bucket merge mode matching the aggregation rule.
    fn merge_mode(&self) -> MergeMode {
        match self.rule {
            AggregationRule::Max => MergeMode::Max,
            AggregationRule::Sum => MergeMode::Sum,
        }
    }
}

/// The replicas' live epochs grouped by distance from the newest epoch,
/// newest first. Each group holds the sketch of every replica that has
/// an epoch that far back, in the order the replicas come (ascending
/// switch id). Switches rotate in phase in a windowed deployment, so
/// "`n` rotations ago" names the same period everywhere; a switch still
/// filling its ring joins fewer groups.
///
/// `None` when there is no replica, or when any group has a sketch that
/// is not merge-compatible with the group's first. The merged ring
/// cannot be built then, so no candidate gets merged evidence; falling
/// back per group would change answers.
fn epochs_by_distance<'a, K: FlowKey + 'a>(
    replicas: impl Iterator<Item = &'a SlidingTopK<K>> + Clone,
) -> Option<Vec<Vec<&'a HkSketch>>> {
    let deepest = replicas.clone().map(SlidingTopK::live_epochs).max()?;
    (0..deepest)
        .map(|back| {
            let group: Vec<&HkSketch> = replicas
                .clone()
                .filter_map(|r| r.epoch_iter().rev().nth(back))
                .map(ParallelTopK::sketch)
                .collect();
            let (first, rest) = group.split_first()?;
            rest.iter()
                .all(|other| check_compatible(first, other).is_ok())
                .then_some(group)
        })
        .collect()
}

/// The estimate the merged network-wide ring would give `key`, read
/// from the key's own buckets: in each group of [`epochs_by_distance`],
/// fold the buckets at the key's slot of every row under
/// [`merge_bucket`] (first sketch first, as a materialised merge folds
/// them), take the largest count whose fingerprint matches, and sum
/// over the groups.
fn merged_estimate<K: FlowKey>(groups: &[Vec<&HkSketch>], key: &K, mode: MergeMode) -> u64 {
    // A ring's epochs share one seed and each group is compatible, so
    // one prepared key serves every bucket read below. It is the key
    // the merged ring's own query would hash: that ring's newest epoch
    // starts as the newest group's first sketch.
    let p = groups[0][0].prepare(key.key_bytes().as_slice());
    groups
        .iter()
        .map(|group| {
            let (first, rest) = group.split_first().expect("groups are never empty");
            let max = first.counter_max();
            (0..first.arrays())
                .map(|j| {
                    let i = first.slot(j, &p);
                    let merged = rest.iter().fold(first.bucket(j, i), |acc, other| {
                        merge_bucket(acc, other.bucket(j, i), mode, max)
                    });
                    if merged.fp == p.fp {
                        merged.count
                    } else {
                        0
                    }
                })
                .max()
                .unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HkConfig;

    fn cfg(seed: u64) -> HkConfig {
        HkConfig::builder()
            .arrays(2)
            .width(512)
            .k(8)
            .seed(seed)
            .build()
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = Collector::<u64>::new(0, AggregationRule::Max);
    }

    #[test]
    fn max_rule_takes_maximum() {
        let mut c = Collector::new(2, AggregationRule::Max);
        c.submit_report(vec![(1u64, 100), (2, 50)]);
        c.submit_report(vec![(1u64, 70), (2, 90)]);
        let top = c.top_k();
        assert_eq!(top, vec![(1, 100), (2, 90)]);
    }

    #[test]
    fn sum_rule_adds() {
        let mut c = Collector::new(2, AggregationRule::Sum);
        c.submit_report(vec![(1u64, 100)]);
        c.submit_report(vec![(1u64, 70)]);
        assert_eq!(c.top_k(), vec![(1, 170)]);
    }

    #[test]
    fn sum_rule_saturates() {
        let mut c = Collector::new(1, AggregationRule::Sum);
        c.submit_report(vec![(1u64, u64::MAX - 5)]);
        c.submit_report(vec![(1u64, 100)]);
        assert_eq!(c.top_k(), vec![(1, u64::MAX)]);
    }

    #[test]
    fn truncates_to_k() {
        let mut c = Collector::new(3, AggregationRule::Max);
        c.submit_report((0..10u64).map(|f| (f, 100 - f)).collect());
        let top = c.top_k();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (0, 100));
    }

    #[test]
    fn end_period_clears() {
        let mut c = Collector::new(3, AggregationRule::Max);
        c.submit_report(vec![(1u64, 10)]);
        assert_eq!(c.reports(), 1);
        let period1 = c.end_period();
        assert_eq!(period1.len(), 1);
        assert_eq!(c.reports(), 0);
        assert!(c.top_k().is_empty());
    }

    #[test]
    fn sketch_submission_improves_cross_switch_flow() {
        // Flow 100 is medium at each switch; its per-switch reports may
        // miss it, but the merged sketch still knows it.
        let mk = || ParallelTopK::<u64>::new(cfg(13));
        let (mut sw1, mut sw2) = (mk(), mk());
        for _ in 0..300 {
            for f in 0..8u64 {
                sw1.insert(&f);
                sw2.insert(&(10 + f));
            }
            sw1.insert(&100);
            sw2.insert(&100);
        }
        let mut c = Collector::new(4, AggregationRule::Max);
        c.submit_sketch(&sw1).unwrap();
        c.submit_sketch(&sw2).unwrap();
        // Even if flow 100 misses top-4, the merged sketch must estimate
        // it at up to 600 (300 per switch) and never more.
        let direct = c.merged.as_ref().unwrap().query(&100);
        assert!(direct <= 600, "no over-estimation: {direct}");
        assert!(direct >= 300, "merge should see both halves: {direct}");
    }

    #[test]
    fn wire_submission_end_to_end() {
        let mut sw = ParallelTopK::<u64>::new(cfg(21));
        for _ in 0..1000 {
            sw.insert(&5);
        }
        let payload = sw.to_wire();
        let mut c = Collector::<u64>::new(4, AggregationRule::Max);
        c.submit_wire(&payload).unwrap();
        let top = c.top_k();
        assert_eq!(top[0].0, 5);
        assert!(top[0].1 <= 1000);
        // Garbage payloads error cleanly.
        assert!(matches!(c.submit_wire(b"junk"), Err(SubmitError::Wire(_))));
        // Merge-incompatible payloads error cleanly.
        let other = ParallelTopK::<u64>::new(cfg(22));
        assert!(matches!(
            c.submit_wire(&other.to_wire()),
            Err(SubmitError::Merge(_))
        ));
    }

    #[test]
    fn incompatible_sketch_rejected() {
        let mut c = Collector::new(4, AggregationRule::Max);
        c.submit_sketch(&ParallelTopK::<u64>::new(cfg(1))).unwrap();
        let err = c.submit_sketch(&ParallelTopK::<u64>::new(cfg(2)));
        assert!(err.is_err());
    }

    fn window_cfg(seed: u64) -> HkConfig {
        HkConfig::builder()
            .arrays(2)
            .width(256)
            .k(8)
            .seed(seed)
            .build()
    }

    #[test]
    fn silent_switch_goes_stale_and_can_be_evicted() {
        // Two switches stream deltas; switch 1 goes silent mid-run (its
        // exporter died). The collector must spot the silence through
        // its logical clock, keep serving switch 1's last-known window
        // until told otherwise, and forget it entirely on eviction.
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut wins: Vec<SlidingTopK<u64>> =
            (0..2).map(|_| SlidingTopK::new(window_cfg(3), 3)).collect();
        for (s, win) in wins.iter_mut().enumerate() {
            coll.submit_window_frame(&win.export_frame(s as u64, 1000))
                .unwrap();
        }
        let drive = |win: &mut SlidingTopK<u64>, s: u64, p: u64| {
            win.insert_batch(
                &(0..500u64)
                    .map(|i| s * 1000 + p + i % 5)
                    .collect::<Vec<_>>(),
            );
            win.rotate();
            win.export_delta(s, 1000).unwrap()
        };
        // Both alive for 3 periods: nobody is stale even at max_idle 1
        // (each switch speaks every other submission).
        for p in 0..3 {
            for s in 0..2u64 {
                let frame = drive(&mut wins[s as usize], s, p);
                coll.submit_window_frame(&frame).unwrap();
            }
        }
        assert!(coll.stale_switches(1).is_empty());
        // Switch 1 falls silent; switch 0 keeps streaming.
        for p in 3..9 {
            let frame = drive(&mut wins[0], 0, p);
            coll.submit_window_frame(&frame).unwrap();
        }
        assert_eq!(
            coll.stale_switches(3),
            vec![1],
            "6 frames since switch 1 spoke"
        );
        assert!(coll.stale_switches(10).is_empty(), "not yet idle past 10");
        // The stale replica still serves its last-known window...
        assert!(coll.switch_window(1).is_some());
        assert!(coll.window_top_k().iter().any(|&(f, _)| f >= 1000));
        // ...until evicted, after which its flows vanish from queries
        // and it is no longer tracked (so no longer reported stale).
        assert!(coll.evict_switch(1));
        assert!(!coll.evict_switch(1), "second eviction finds nothing");
        assert!(coll.switch_window(1).is_none());
        assert!(coll.stale_switches(3).is_empty());
        assert!(coll.window_top_k().iter().all(|&(f, _)| f < 1000));
        // A returning switch re-anchors with a snapshot like any new one.
        coll.submit_window_frame(&wins[1].export_frame(1, 1000))
            .unwrap();
        assert!(coll.switch_window(1).is_some());
        assert!(
            coll.stale_switches(3).is_empty(),
            "fresh again after resync"
        );
    }

    /// Drives a switch window and the collector through `periods`
    /// periods of delta export, returning the switch for comparison.
    fn run_delta_stream(
        coll: &mut Collector<u64>,
        switch: u64,
        periods: u64,
        drop_rotation: Option<u64>,
    ) -> SlidingTopK<u64> {
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 3);
        // Initial snapshot anchors the delta stream.
        coll.submit_window_frame(&win.export_frame(switch, 1000))
            .unwrap();
        for p in 0..periods {
            let batch: Vec<u64> = (0..1000u64)
                .map(|i| switch * 1000 + p * 10 + i % 7)
                .collect();
            win.insert_batch(&batch);
            win.rotate();
            let delta = win.export_delta(switch, 1000).unwrap();
            if drop_rotation != Some(win.rotations()) {
                let _ = coll.submit_window_frame(&delta);
            }
        }
        win
    }

    fn assert_replica_matches(coll: &Collector<u64>, switch: u64, win: &SlidingTopK<u64>) {
        let replica = coll.switch_window(switch).expect("replica installed");
        assert_eq!(replica.rotations(), win.rotations());
        assert_eq!(replica.live_epochs(), win.live_epochs());
        for (ea, eb) in replica.epoch_iter().zip(win.epoch_iter()) {
            for j in 0..ea.sketch().arrays() {
                for i in 0..ea.sketch().width() {
                    assert_eq!(ea.sketch().bucket(j, i), eb.sketch().bucket(j, i));
                }
            }
        }
        for f in 0..100u64 {
            let probe = switch * 1000 + f;
            assert_eq!(replica.query(&probe), win.query(&probe), "flow {probe}");
        }
    }

    #[test]
    fn delta_stream_reassembles_bit_exact() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let win = run_delta_stream(&mut coll, 1, 6, None);
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 1, &win);
    }

    #[test]
    fn duplicate_deltas_are_idempotent() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 3);
        coll.submit_window_frame(&win.export_frame(7, 100)).unwrap();
        win.insert_batch(&vec![42u64; 500]);
        win.rotate();
        let delta = win.export_delta(7, 100).unwrap();
        assert_eq!(
            coll.submit_window_frame(&delta).unwrap(),
            WindowSubmit::Applied
        );
        // The same delta again — and again — changes nothing.
        for _ in 0..3 {
            assert_eq!(
                coll.submit_window_frame(&delta).unwrap(),
                WindowSubmit::Duplicate
            );
        }
        assert_replica_matches(&coll, 7, &win);
    }

    #[test]
    fn rotation_gap_flags_resync_and_snapshot_recovers() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        // Drop the delta of rotation 3: rotation 4's delta opens a gap.
        let win = run_delta_stream(&mut coll, 2, 6, Some(3));
        assert_eq!(coll.resync_needed(), vec![2]);
        // The pre-gap prefix is intact but the ring is behind.
        assert!(coll.switch_window(2).unwrap().rotations() < win.rotations());
        // Resync: a full snapshot re-anchors, clearing the flag and
        // restoring bit-exactness.
        coll.submit_window_frame(&win.export_frame(2, 1000))
            .unwrap();
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 2, &win);
    }

    #[test]
    fn reordered_adjacent_deltas_heal_without_resync() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 3);
        coll.submit_window_frame(&win.export_frame(9, 100)).unwrap();
        let mut deltas = Vec::new();
        for p in 0..2u64 {
            win.insert_batch(&(0..500u64).map(|i| p * 100 + i % 5).collect::<Vec<_>>());
            win.rotate();
            deltas.push(win.export_delta(9, 100).unwrap());
        }
        // Deliver rotation 2 before rotation 1: the early delta is
        // buffered (resync requested), then the late one drains both
        // and the flag clears — no snapshot needed.
        assert_eq!(
            coll.submit_window_frame(&deltas[1]).unwrap(),
            WindowSubmit::ResyncRequested
        );
        assert_eq!(coll.resync_needed(), vec![9]);
        assert_eq!(
            coll.submit_window_frame(&deltas[0]).unwrap(),
            WindowSubmit::Applied
        );
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 9, &win);
    }

    #[test]
    fn resync_survives_gap_delta_dropped_by_full_buffer() {
        // A gap delta discarded because the pending buffer is full must
        // NOT let a later contiguous drain clear the resync flag: the
        // collector *observed* that rotation and never got its epoch.
        let window = 3usize;
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), window);
        coll.submit_window_frame(&win.export_frame(4, 100)).unwrap();
        let mut deltas = Vec::new();
        for p in 0..6u64 {
            win.insert_batch(&(0..200u64).map(|i| p * 50 + i % 4).collect::<Vec<_>>());
            win.rotate();
            deltas.push(win.export_delta(4, 100).unwrap());
        }
        // Deliver rotations 2..=4 (buffer fills: cap = window = 3),
        // then 5 (dropped by the bound), then the missing rotation 1:
        // the drain applies 1..=4 and empties the buffer, but rotation
        // 5 was observed-and-lost, so the flag must survive.
        for d in &deltas[1..4] {
            assert_eq!(
                coll.submit_window_frame(d).unwrap(),
                WindowSubmit::ResyncRequested
            );
        }
        assert_eq!(
            coll.submit_window_frame(&deltas[4]).unwrap(),
            WindowSubmit::ResyncRequested
        );
        assert_eq!(
            coll.submit_window_frame(&deltas[0]).unwrap(),
            WindowSubmit::Applied
        );
        assert_eq!(coll.switch_window(4).unwrap().rotations(), 4);
        assert_eq!(
            coll.resync_needed(),
            vec![4],
            "dropped rotation 5 must keep the resync flag"
        );
        // The snapshot heals it, as always.
        coll.submit_window_frame(&win.export_frame(4, 100)).unwrap();
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 4, &win);
    }

    #[test]
    fn delta_before_snapshot_requests_resync() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 3);
        win.insert_batch(&vec![1u64; 100]);
        win.rotate();
        let delta = win.export_delta(5, 100).unwrap();
        assert_eq!(
            coll.submit_window_frame(&delta).unwrap_err(),
            WindowSubmitError::NoSnapshot { switch: 5 }
        );
        assert_eq!(coll.resync_needed(), vec![5]);
        coll.submit_window_frame(&win.export_frame(5, 100)).unwrap();
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 5, &win);
    }

    #[test]
    fn mismatched_ring_rejected() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let win3 = SlidingTopK::<u64>::new(window_cfg(3), 3);
        coll.submit_window_frame(&win3.export_frame(1, 100))
            .unwrap();
        // Different window size from the same switch id: rejected.
        let win4 = SlidingTopK::<u64>::new(window_cfg(3), 4);
        assert_eq!(
            coll.submit_window_frame(&win4.export_frame(1, 100))
                .unwrap_err(),
            WindowSubmitError::Mismatch { switch: 1 }
        );
        // Different seed: rejected too.
        let other = SlidingTopK::<u64>::new(window_cfg(4), 3);
        assert_eq!(
            coll.submit_window_frame(&other.export_frame(1, 100))
                .unwrap_err(),
            WindowSubmitError::Mismatch { switch: 1 }
        );
        // Garbage bytes are a wire error.
        assert!(matches!(
            coll.submit_window_frame(b"junk").unwrap_err(),
            WindowSubmitError::Wire(_)
        ));
    }

    /// Like [`run_delta_stream`] but through the dirty exporter: the
    /// first rotation ships an empty-baseline frame, every later one a
    /// patch against the previous export.
    fn run_dirty_stream(coll: &mut Collector<u64>, switch: u64, periods: u64) -> SlidingTopK<u64> {
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 3);
        coll.submit_window_frame(&win.export_frame(switch, 1000))
            .unwrap();
        for p in 0..periods {
            let batch: Vec<u64> = (0..1000u64)
                .map(|i| switch * 1000 + p * 10 + i % 7)
                .collect();
            win.insert_batch(&batch);
            win.rotate();
            let bytes = win.export_dirty(switch, 1000).expect("closed epoch");
            coll.submit_window_frame(&bytes).unwrap();
        }
        win
    }

    #[test]
    fn dirty_stream_reassembles_bit_exact() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let win = run_dirty_stream(&mut coll, 3, 6);
        assert!(coll.resync_needed().is_empty());
        assert_replica_matches(&coll, 3, &win);
    }

    #[test]
    fn dirty_window_size_change_rejected() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        run_dirty_stream(&mut coll, 5, 2);
        // The same switch id reappears with a W = 2 ring and ships a
        // dirty frame: ring identity wins over rotation bookkeeping.
        let mut other = SlidingTopK::<u64>::new(window_cfg(3), 2);
        let bytes = loop {
            other.insert_batch(&vec![9u64; 300]);
            other.rotate();
            if let Some(b) = other.export_dirty(5, 1000) {
                break b;
            }
        };
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap_err(),
            WindowSubmitError::Mismatch { switch: 5 }
        );
    }

    #[test]
    fn dirty_sketch_width_change_rejected() {
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        run_dirty_stream(&mut coll, 6, 2);
        // Same window size but a regeometried sketch: the patch's own
        // width betrays it before any bucket math happens.
        let narrow = HkConfig::builder()
            .arrays(2)
            .width(128)
            .k(8)
            .seed(3)
            .build();
        let mut other = SlidingTopK::<u64>::new(narrow, 3);
        let bytes = loop {
            other.insert_batch(&vec![9u64; 300]);
            other.rotate();
            if let Some(b) = other.export_dirty(6, 1000) {
                break b;
            }
        };
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap_err(),
            WindowSubmitError::Mismatch { switch: 6 }
        );
    }

    #[test]
    fn window_top_k_merges_disjoint_switches() {
        // Two switches, disjoint traffic (Sum rule): flow 500 sends half
        // its packets through each switch; network-wide it must rank
        // first even though it ties locally.
        let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
        let mut wins: Vec<SlidingTopK<u64>> = (0..2)
            .map(|_| SlidingTopK::<u64>::new(window_cfg(11), 2))
            .collect();
        for (s, win) in wins.iter_mut().enumerate() {
            let mut batch = Vec::new();
            for _ in 0..300 {
                // The cross-switch elephant, then this switch's locals.
                for f in [
                    500u64,
                    1 + s as u64 * 10,
                    2 + s as u64 * 10,
                    3 + s as u64 * 10,
                ] {
                    batch.push(f);
                }
            }
            win.insert_batch(&batch);
            coll.submit_window_frame(&win.export_frame(s as u64, 2000))
                .unwrap();
        }
        let top = coll.window_top_k();
        assert_eq!(top[0].0, 500, "cross-switch elephant must rank first");
        assert!(top[0].1 <= 600, "no over-estimation: {}", top[0].1);
        assert!(top[0].1 >= 550, "sum evidence lost: {}", top[0].1);
        // The materialised merged ring answers the same.
        let merged = reference_merged_ring(&replicas(&coll), MergeMode::Sum)
            .unwrap()
            .unwrap();
        assert_eq!(merged.query(&500), top[0].1);
        assert_eq!(top, reference_window_top_k(&coll, AggregationRule::Sum, 4));
    }

    /// Every installed replica, ascending switch id.
    fn replicas(coll: &Collector<u64>) -> Vec<&SlidingTopK<u64>> {
        coll.window_switches()
            .into_iter()
            .map(|s| coll.switch_window(s).expect("listed switch has a replica"))
            .collect()
    }

    /// The network-wide ring, materialised from public API: every live
    /// epoch cloned and merged across the replicas (ascending switch
    /// id), epoch-aligned from the newest. `Err` when some epoch
    /// distance is not merge-compatible.
    fn reference_merged_ring(
        replicas: &[&SlidingTopK<u64>],
        mode: MergeMode,
    ) -> Result<Option<SlidingTopK<u64>>, MergeError> {
        let Some(deepest) = replicas.iter().map(|r| r.live_epochs()).max() else {
            return Ok(None);
        };
        let mut newest_first: Vec<ParallelTopK<u64>> = Vec::with_capacity(deepest);
        for back in 0..deepest {
            let mut acc: Option<ParallelTopK<u64>> = None;
            for r in replicas {
                let live = r.live_epochs();
                if back >= live {
                    continue;
                }
                let epoch = r.epoch_iter().nth(live - 1 - back).unwrap();
                match &mut acc {
                    None => acc = Some(epoch.clone()),
                    Some(a) => a.merge_from_with(epoch, mode)?,
                }
            }
            newest_first.push(acc.expect("the deepest replica has this epoch"));
        }
        newest_first.reverse();
        let cfg = newest_first.last().unwrap().config().clone();
        let window = replicas.iter().map(|r| r.window()).max().unwrap();
        let rotations = replicas.iter().map(|r| r.rotations()).max().unwrap();
        Ok(Some(SlidingTopK::from_epochs(
            cfg,
            window,
            rotations,
            newest_first,
        )))
    }

    /// The answer [`Collector::window_top_k`] must give, from public
    /// API alone: the candidate union, the per-switch estimates under
    /// `rule`, and the materialised merged ring's estimate whenever the
    /// ring builds.
    fn reference_window_top_k(
        coll: &Collector<u64>,
        rule: AggregationRule,
        k: usize,
    ) -> Vec<(u64, u64)> {
        let replicas = replicas(coll);
        let mode = match rule {
            AggregationRule::Max => MergeMode::Max,
            AggregationRule::Sum => MergeMode::Sum,
        };
        let merged = reference_merged_ring(&replicas, mode).ok().flatten();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for r in &replicas {
            for (key, _) in r.top_k() {
                if !seen.insert(key) {
                    continue;
                }
                let per_switch = replicas.iter().map(|r| r.query(&key));
                let mut est = match rule {
                    AggregationRule::Max => per_switch.max().unwrap_or(0),
                    AggregationRule::Sum => per_switch.fold(0, u64::saturating_add),
                };
                if let Some(m) = &merged {
                    est = est.max(m.query(&key));
                }
                if est > 0 {
                    out.push((key, est));
                }
            }
        }
        out.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
        });
        out.truncate(k);
        out
    }

    /// How often the differential run below met each input it is meant
    /// to cover.
    #[derive(Debug, Default)]
    struct ProbeCoverage {
        /// Reads whose rings merged, so the probe answered.
        compatible_reads: usize,
        /// Reads with an incompatible epoch distance: no merged evidence.
        incompatible_reads: usize,
        /// Reads where the replicas' live-epoch counts differed.
        uneven_live_reads: usize,
        /// Reads where a replica lagged its switch.
        lagging_reads: usize,
        /// Equal counts under different fingerprints at a candidate's
        /// buckets (the `Sum` tie rule; under `Max`, ours stays).
        ties: usize,
        /// Matching-fingerprint sums past the counter maximum at a
        /// candidate's buckets.
        saturations: usize,
        /// Candidates whose merged estimate beat the per-switch evidence.
        merged_wins: usize,
    }

    /// Counts the ties and saturations folding `key`'s buckets meets.
    fn fold_events(groups: &[Vec<&HkSketch>], key: u64, mode: MergeMode, cov: &mut ProbeCoverage) {
        for group in groups {
            let p = group[0].prepare(&key.to_le_bytes());
            let max = group[0].counter_max();
            for j in 0..group[0].arrays() {
                let i = group[0].slot(j, &p);
                let mut acc = group[0].bucket(j, i);
                for other in &group[1..] {
                    let theirs = other.bucket(j, i);
                    if !acc.is_empty() && !theirs.is_empty() {
                        if acc.fp != theirs.fp && acc.count == theirs.count {
                            cov.ties += 1;
                        }
                        if acc.fp == theirs.fp && acc.count + theirs.count > max {
                            cov.saturations += 1;
                        }
                    }
                    acc = merge_bucket(acc, theirs, mode, max);
                }
            }
        }
    }

    /// One switch's traffic for one period: a cross-switch elephant
    /// (flow 7) big enough that a `Sum` of two switches saturates 8-bit
    /// counters, a flow that visits one switch per period (flow 5), the
    /// switch's own medium flows, and a crowd of mice that fills a
    /// 64-wide sketch with conflicts and count-1 ties.
    fn period_batch(switch: u64, period: u64) -> Vec<u64> {
        let mut batch = Vec::new();
        for i in 0..300u64 {
            if i < 150 {
                batch.push(7);
            }
            if i < 80 && period % 3 == switch {
                batch.push(5);
            }
            if i % 2 == 0 {
                batch.push(100 + switch * 20 + (period + i) % 20);
            }
            batch.push(10_000 + switch * 100_000 + period * 1_000 + i);
        }
        batch
    }

    /// Drives three switches through dirty frames and, after every
    /// rotation, checks [`Collector::window_top_k`] against
    /// [`reference_window_top_k`] on whole answers and the probe
    /// against the materialised ring on every candidate. Inputs: width
    /// 64 (fingerprint conflicts, `Sum` ties), 8-bit counters
    /// (saturation), switch 2 joining late (uneven live epochs), one
    /// lost dirty frame (a lagging replica until its resync snapshot)
    /// and one epoch of switch 0 grown by Section III-F expansion (an
    /// incompatible epoch distance for as long as it is live).
    fn probe_differential(rule: AggregationRule) -> ProbeCoverage {
        const WINDOW: usize = 4;
        const K: usize = 10;
        const LATE_JOIN: u64 = 3;
        const LOST: (u64, u64) = (1, 6); // (switch, rotation)
        const RESYNC: (u64, u64) = (1, 10); // (switch, period)
        const GROWN: (u64, u64) = (0, 8); // (switch, period)
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(64)
            .k(8)
            .counter_bits(8)
            .seed(17)
            .expansion(crate::config::ExpansionPolicy {
                large_counter: 200,
                blocked_threshold: 64,
                max_arrays: 3,
            })
            .build();
        let mode = match rule {
            AggregationRule::Max => MergeMode::Max,
            AggregationRule::Sum => MergeMode::Sum,
        };
        let mut coll = Collector::<u64>::new(K, rule);
        let mut wins: Vec<SlidingTopK<u64>> = Vec::new();
        let mut cov = ProbeCoverage::default();
        for period in 0..16u64 {
            if period == 0 || period == LATE_JOIN {
                let (from, to) = if period == 0 { (0, 2) } else { (2, 3) };
                for s in from..to {
                    wins.push(SlidingTopK::new(cfg.clone(), WINDOW));
                    coll.submit_window_frame(&wins[s].export_frame(s as u64, 1000))
                        .unwrap();
                }
            }
            for (s, win) in wins.iter_mut().enumerate() {
                let s = s as u64;
                win.insert_batch(&period_batch(s, period));
                if (s, period) == GROWN {
                    // Elephants one after another, each claiming only
                    // empty buckets, until later ones find both of
                    // theirs held by large counters and are blocked.
                    let burst: Vec<u64> = (0..200u64)
                        .flat_map(|f| std::iter::repeat_n(50_000 + f, 210))
                        .collect();
                    win.insert_batch(&burst);
                    let newest = win.epoch_iter().next_back().unwrap();
                    assert_eq!(newest.sketch().arrays(), 3, "the burst must expand");
                }
                win.rotate();
                let frame = win.export_dirty(s, 1000).expect("closed epoch");
                if (s, win.rotations()) != LOST {
                    coll.submit_window_frame(&frame).unwrap();
                }
                if (s, period) == RESYNC {
                    coll.submit_window_frame(&win.export_frame(s, 1000))
                        .unwrap();
                }
            }

            let top = coll.window_top_k();
            assert_eq!(
                top,
                reference_window_top_k(&coll, rule, K),
                "period {period}"
            );
            let replicas = replicas(&coll);
            let ring = reference_merged_ring(&replicas, mode).ok().flatten();
            let groups = epochs_by_distance(replicas.iter().copied());
            assert_eq!(groups.is_some(), ring.is_some(), "period {period}");
            let live: HashSet<usize> = replicas.iter().map(|r| r.live_epochs()).collect();
            cov.uneven_live_reads += usize::from(live.len() > 1);
            cov.lagging_reads += usize::from(
                replicas
                    .iter()
                    .zip(&wins)
                    .any(|(r, w)| r.rotations() < w.rotations()),
            );
            let (Some(groups), Some(ring)) = (groups, ring) else {
                cov.incompatible_reads += 1;
                continue;
            };
            cov.compatible_reads += 1;
            let mut candidates: Vec<u64> = replicas
                .iter()
                .flat_map(|r| r.top_k())
                .map(|(f, _)| f)
                .collect();
            candidates.extend([5, 7, 42, 10_000, 50_000]);
            for key in candidates {
                let probe = merged_estimate(&groups, &key, mode);
                assert_eq!(probe, ring.query(&key), "period {period}, flow {key}");
                let per_switch = replicas.iter().map(|r| r.query(&key));
                let per_switch = match rule {
                    AggregationRule::Max => per_switch.max().unwrap_or(0),
                    AggregationRule::Sum => per_switch.fold(0, u64::saturating_add),
                };
                cov.merged_wins += usize::from(probe > per_switch);
                fold_events(&groups, key, mode, &mut cov);
            }
        }
        // Every input above must really have occurred.
        assert!(cov.compatible_reads > 0, "{cov:?}");
        assert!(cov.incompatible_reads > 0, "{cov:?}");
        assert!(cov.uneven_live_reads > 0, "{cov:?}");
        assert!(cov.lagging_reads > 0, "{cov:?}");
        assert!(cov.ties > 0, "{cov:?}");
        assert!(cov.saturations > 0, "{cov:?}");
        cov
    }

    #[test]
    fn window_probe_matches_materialised_merge_under_sum() {
        probe_differential(AggregationRule::Sum);
    }

    #[test]
    fn window_probe_matches_materialised_merge_under_max() {
        // Flow 5 visits one switch per period: under `Max` it is bigger
        // network-wide than at any one switch, which only the merged
        // estimate sees.
        let cov = probe_differential(AggregationRule::Max);
        assert!(cov.merged_wins > 0, "{cov:?}");
    }

    #[test]
    fn window_top_k_max_rule_never_overestimates() {
        // Three switches all observing the same stream (overlapping
        // paths, Max rule): estimates stay below the single-stream
        // truth.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut coll = Collector::<u64>::new(6, AggregationRule::Max);
        let mut wins: Vec<SlidingTopK<u64>> = (0..3)
            .map(|_| SlidingTopK::<u64>::new(window_cfg(21), 2))
            .collect();
        let mut state = 77u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                state % 6
            } else {
                100 + state % 800
            };
            for w in wins.iter_mut() {
                w.insert(&f);
            }
            *truth.entry(f).or_insert(0) += 1;
        }
        for (s, w) in wins.iter().enumerate() {
            coll.submit_window_frame(&w.export_frame(s as u64, 20_000))
                .unwrap();
        }
        for (f, est) in coll.window_top_k() {
            assert!(est <= truth[&f], "flow {f}: {est} > {}", truth[&f]);
        }
    }

    #[test]
    fn end_period_leaves_windows_alone() {
        let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
        let mut win = SlidingTopK::<u64>::new(window_cfg(3), 2);
        win.insert_batch(&vec![9u64; 200]);
        coll.submit_window_frame(&win.export_frame(0, 100)).unwrap();
        coll.submit_report(vec![(1u64, 50)]);
        let _ = coll.end_period();
        assert!(coll.top_k().is_empty(), "tumbling state cleared");
        assert_eq!(
            coll.window_top_k()[0],
            (9, 200),
            "windowed state survives end_period"
        );
    }

    #[test]
    fn max_rule_no_overestimation_end_to_end() {
        use std::collections::HashMap;
        // Every packet of a flow is seen by every switch on its path:
        // simulate 3 switches all observing the same stream.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut switches: Vec<ParallelTopK<u64>> =
            (0..3).map(|_| ParallelTopK::<u64>::new(cfg(42))).collect();
        let mut state = 9u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                state % 6
            } else {
                100 + state % 1000
            };
            for sw in &mut switches {
                sw.insert(&f);
            }
            *truth.entry(f).or_insert(0) += 1;
        }
        let mut c = Collector::new(6, AggregationRule::Max);
        for sw in &switches {
            c.submit_report(sw.top_k());
        }
        for (f, est) in c.top_k() {
            assert!(est <= truth[&f], "flow {f}: {est} > {}", truth[&f]);
        }
    }
}
