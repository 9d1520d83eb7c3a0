//! Deterministic fault injection for the sharded engine.
//!
//! Recovery code that is only exercised by hand-crafted thread aborts
//! rots; a [`FaultPlan`] makes worker death a *scheduled, reproducible*
//! event instead. A plan is a list of [`FaultSpec`]s — `kill shard k
//! after p packets`, `wedge the work ring` — threaded through the shard
//! worker loop by
//! [`ShardedEngine::set_fault_plan`](crate::ShardedEngine::set_fault_plan).
//! Triggers are counted in *packets applied by that shard's worker*, so
//! a given trace + seed + plan always dies at the same point of the
//! same sub-stream, no matter how threads are scheduled. Listing the
//! same shard several times schedules repeated kills: each respawned
//! worker inherits the shard's remaining faults and dies again when its
//! cumulative packet count crosses the next threshold.
//!
//! The plan syntax mirrors the CLI hook
//! (`hk run --fault kill:K@P[,kill:K@P...] --recover`):
//!
//! ```text
//! kill:2@50000            worker of shard 2 panics before the packet
//!                         that would be its 50_001st
//! wedge:1@9000            shard 1 stops consuming and closes its work
//!                         ring (backpressure sees Closed, not Full)
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What a scheduled fault does to the worker when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before applying the batch that crosses the threshold. The
    /// worker owns its shard's state, so the state dies with it wherever
    /// the panic strikes; no other thread ever sees it half-applied.
    Kill,
    /// Stop consuming: close the work ring from the consumer side and
    /// exit without panicking. The dispatcher's backpressure path
    /// observes `Closed` (not `Full`) and must poison, not spin.
    Wedge,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "kill" => Some(Self::Kill),
            "wedge" => Some(Self::Wedge),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` fires on `shard`'s worker when its
/// cumulative applied-packet count crosses `after_packets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index of the shard whose worker takes the fault.
    pub shard: usize,
    /// Fires on the batch that would take the worker's cumulative
    /// applied-packet count past this threshold.
    pub after_packets: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A deterministic schedule of worker faults (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault; returns `self` for chaining.
    pub fn with(mut self, shard: usize, after_packets: u64, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec {
            shard,
            after_packets,
            kind,
        });
        self
    }

    /// Shorthand for [`FaultPlan::with`]`(shard, p, FaultKind::Kill)`.
    pub fn kill(self, shard: usize, after_packets: u64) -> Self {
        self.with(shard, after_packets, FaultKind::Kill)
    }

    /// The scheduled faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// One shard's faults as the `(threshold, kind)` pairs
    /// `ShardFaults::install` takes. Used at plan install time and
    /// again when a reshard grows the topology: shard indices the old
    /// topology never had get their slice installed on the fresh
    /// worker, so a plan can schedule faults on post-grow shards.
    pub(crate) fn specs_for(&self, shard: usize) -> Vec<(u64, FaultKind)> {
        self.specs
            .iter()
            .filter(|s| s.shard == shard)
            .map(|s| (s.after_packets, s.kind))
            .collect()
    }

    /// Parses the CLI spelling: comma-separated `kind:shard@packets`
    /// entries (`kill:2@50000,wedge:1@9000`). Kinds: `kill`, `wedge`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = Self::new();
        for entry in s.split(',').filter(|e| !e.is_empty()) {
            let bad = || format!("bad fault spec `{entry}` (want kind:shard@packets)");
            let (kind, rest) = entry.split_once(':').ok_or_else(bad)?;
            let kind = FaultKind::parse(kind)
                .ok_or_else(|| format!("unknown fault kind `{kind}` in `{entry}`"))?;
            let (shard, packets) = rest.split_once('@').ok_or_else(bad)?;
            let shard: usize = shard.parse().map_err(|_| bad())?;
            let after_packets: u64 = packets.parse().map_err(|_| bad())?;
            plan.specs.push(FaultSpec {
                shard,
                after_packets,
                kind,
            });
        }
        Ok(plan)
    }
}

/// One shard's slice of a fault plan, shared between the engine and the
/// shard's worker (and every *respawned* worker, so repeated faults
/// keep firing in sequence). `armed` is the worker's fast-path check —
/// one relaxed load per batch when no plan is installed.
#[derive(Debug, Default)]
pub(crate) struct ShardFaults {
    armed: AtomicBool,
    /// Thresholds + kinds, sorted ascending by threshold.
    specs: Mutex<Vec<(u64, FaultKind)>>,
    /// Index of the next unconsumed fault (survives worker respawn).
    next: AtomicUsize,
}

impl ShardFaults {
    /// Installs this shard's faults (sorted by threshold) and arms the
    /// worker-side check. Replaces any previous schedule.
    pub(crate) fn install(&self, mut specs: Vec<(u64, FaultKind)>) {
        specs.sort_by_key(|&(p, _)| p);
        let armed = !specs.is_empty();
        *self
            .specs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = specs;
        self.next.store(0, Ordering::Release);
        self.armed.store(armed, Ordering::Release);
    }

    /// Returns the next scheduled fault iff applying `batch_len` more
    /// packets on top of `applied` would cross its threshold — and
    /// consumes it. Cheap when unarmed (one relaxed load).
    pub(crate) fn crossing(&self, applied: u64, batch_len: u64) -> Option<(u64, FaultKind)> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let specs = self
            .specs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let idx = self.next.load(Ordering::Acquire);
        let &(threshold, kind) = specs.get(idx)?;
        if applied + batch_len > threshold {
            self.next.store(idx + 1, Ordering::Release);
            if idx + 1 >= specs.len() {
                self.armed.store(false, Ordering::Relaxed);
            }
            Some((threshold, kind))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_spellings() {
        let plan = FaultPlan::parse("kill:2@50000").unwrap();
        assert_eq!(
            plan.specs(),
            &[FaultSpec {
                shard: 2,
                after_packets: 50_000,
                kind: FaultKind::Kill
            }]
        );
        let plan = FaultPlan::parse("kill:0@10,wedge:0@30").unwrap();
        assert_eq!(plan.specs().len(), 2);
        assert_eq!(plan.specs()[1].kind, FaultKind::Wedge);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
        // A death inside a batch is a `kill`: no thread sees torn state.
        let err = FaultPlan::parse("mid-walk:0@1").unwrap_err();
        assert!(err.contains("unknown fault kind `mid-walk`"), "{err}");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["kill", "kill:2", "kill:x@5", "kill:2@x", "melt:2@5", "2@5"] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn builder_mirrors_parser() {
        let built = FaultPlan::new()
            .kill(2, 50_000)
            .with(1, 9_000, FaultKind::Wedge);
        let parsed = FaultPlan::parse("kill:2@50000,wedge:1@9000").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn crossing_consumes_in_threshold_order() {
        let faults = ShardFaults::default();
        faults.install(vec![(30, FaultKind::Wedge), (10, FaultKind::Kill)]);
        // Below the first threshold: nothing fires.
        assert_eq!(faults.crossing(0, 10), None, "10 does not cross 10");
        // The crossing batch fires the *lowest* threshold first.
        assert_eq!(faults.crossing(0, 11), Some((10, FaultKind::Kill)));
        // The next fault waits for its own threshold.
        assert_eq!(faults.crossing(11, 19), None);
        assert_eq!(faults.crossing(11, 20), Some((30, FaultKind::Wedge)));
        // Exhausted: disarmed, never fires again.
        assert_eq!(faults.crossing(0, u64::MAX / 2), None);
    }

    #[test]
    fn unarmed_is_inert() {
        let faults = ShardFaults::default();
        assert_eq!(faults.crossing(0, u64::MAX / 2), None);
        faults.install(Vec::new());
        assert_eq!(faults.crossing(0, u64::MAX / 2), None);
    }
}
