//! Recovery and reshard accounting, folded from the event journal.
//!
//! A shard respawn is journaled once, as an [`EventKind::Recovery`]
//! carrying its [`RecoveryReport`]; a live reshard as its
//! [`EventKind::ReshardPhase`] transitions. The engine's recovery log,
//! the snapshot's derived counters and the folds below are all views of
//! those events:
//!
//! * [`JournalSnapshot::recovery_accounting`] — how many recoveries
//!   happened, how many packets fell in dark windows, and how the dark
//!   total relates to the stream (the a-priori loss bound a checkpoint
//!   cadence promises).
//! * [`JournalSnapshot::reshard_accounting`] — the same for live
//!   migrations. A migration is a `Drain` phase followed by a `Commit`
//!   or `Rollback` phase; its forced recoveries are the recoveries
//!   journaled between the two.

use crate::{EventKind, JournalSnapshot, ReshardStage};

/// What one shard recovery did: which shard was respawned, where its
/// restoring checkpoint cut the sub-stream, and how many packets fell
/// in the *dark window* — routed to the shard after the checkpoint cut,
/// hence absent from the restored state. The dark window is the
/// recovery's loss bound: at most one checkpoint interval of that
/// shard's sub-stream plus whatever was routed while the shard was
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Index of the respawned shard.
    pub shard: usize,
    /// Cumulative routed-packet position of the restoring checkpoint.
    pub checkpoint_packets: u64,
    /// Cumulative packets routed to the shard when recovery ran.
    pub routed_packets: u64,
    /// `routed_packets - checkpoint_packets`: the packets the restored
    /// shard never saw.
    pub dark_packets: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} respawned from checkpoint @{} pkts ({} dark of {} routed)",
            self.shard, self.checkpoint_packets, self.dark_packets, self.routed_packets
        )
    }
}

/// Aggregated view of every recovery an engine performed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryAccounting {
    /// Number of shard respawns.
    pub recoveries: usize,
    /// Total packets across all dark windows (routed after a restoring
    /// checkpoint's cut — the engine's actual loss exposure).
    pub dark_packets: u64,
    /// The largest single dark window, the quantity a checkpoint
    /// cadence bounds per recovery.
    pub max_dark_packets: u64,
    /// Distinct shards that took at least one recovery, counted once
    /// each (a 4-shard engine reporting `4` here lost every lane at
    /// some point).
    pub shards_hit: usize,
}

impl RecoveryAccounting {
    /// The dark total as a fraction of `stream_packets` — an upper
    /// bound on the recall the recoveries can have cost (a flow is only
    /// under-counted by packets its shard never saw). `0.0` for an
    /// empty stream.
    pub fn dark_fraction(&self, stream_packets: u64) -> f64 {
        fraction(self.dark_packets, stream_packets)
    }
}

impl std::fmt::Display for RecoveryAccounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} recover{} across {} shard{}, {} dark packets (max {} per recovery)",
            self.recoveries,
            if self.recoveries == 1 { "y" } else { "ies" },
            self.shards_hit,
            if self.shards_hit == 1 { "" } else { "s" },
            self.dark_packets,
            self.max_dark_packets,
        )
    }
}

/// Aggregated view of every live reshard migration a run performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReshardAccounting {
    /// Migrations attempted (committed + rolled back).
    pub migrations: usize,
    /// Migrations that installed their new topology.
    pub committed: usize,
    /// Migrations that rolled back to the old topology.
    pub rollbacks: usize,
    /// Shard respawns forced by faults firing inside a migration phase.
    pub forced_recoveries: usize,
    /// Total packets across all mid-migration dark windows.
    pub dark_packets: u64,
}

impl ReshardAccounting {
    /// Mid-migration dark packets as a fraction of `stream_packets` —
    /// what the migrations themselves can have cost in recall. `0.0`
    /// for an empty stream.
    pub fn dark_fraction(&self, stream_packets: u64) -> f64 {
        fraction(self.dark_packets, stream_packets)
    }
}

impl std::fmt::Display for ReshardAccounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reshard{} ({} committed, {} rolled back), {} forced recover{}, {} dark packets",
            self.migrations,
            if self.migrations == 1 { "" } else { "s" },
            self.committed,
            self.rollbacks,
            self.forced_recoveries,
            if self.forced_recoveries == 1 {
                "y"
            } else {
                "ies"
            },
            self.dark_packets,
        )
    }
}

fn fraction(dark: u64, stream_packets: u64) -> f64 {
    if stream_packets == 0 {
        0.0
    } else {
        dark as f64 / stream_packets as f64
    }
}

impl JournalSnapshot {
    /// Every journaled recovery, oldest first.
    pub fn recoveries(&self) -> impl Iterator<Item = &RecoveryReport> {
        self.events.iter().filter_map(|e| match &e.kind {
            EventKind::Recovery(r) => Some(r),
            _ => None,
        })
    }

    /// Folds every journaled recovery into one accounting.
    pub fn recovery_accounting(&self) -> RecoveryAccounting {
        let mut acc = RecoveryAccounting::default();
        let mut shards = Vec::new();
        for r in self.recoveries() {
            acc.recoveries += 1;
            acc.dark_packets += r.dark_packets;
            acc.max_dark_packets = acc.max_dark_packets.max(r.dark_packets);
            shards.push(r.shard);
        }
        shards.sort_unstable();
        shards.dedup();
        acc.shards_hit = shards.len();
        acc
    }

    /// Folds every journaled migration into one accounting: a `Drain`
    /// phase opens a migration, the recoveries journaled while it is
    /// open are its forced ones, and its `Commit` or `Rollback` phase
    /// closes it.
    pub fn reshard_accounting(&self) -> ReshardAccounting {
        let mut acc = ReshardAccounting::default();
        // (forced recoveries, dark packets) of the open migration.
        let mut open: Option<(usize, u64)> = None;
        for e in &self.events {
            match e.kind {
                EventKind::ReshardPhase {
                    stage: ReshardStage::Drain,
                    ..
                } => open = Some((0, 0)),
                EventKind::Recovery(r) => {
                    if let Some((forced, dark)) = &mut open {
                        *forced += 1;
                        *dark += r.dark_packets;
                    }
                }
                EventKind::ReshardPhase {
                    stage: stage @ (ReshardStage::Commit | ReshardStage::Rollback),
                    ..
                } => {
                    if let Some((forced, dark)) = open.take() {
                        acc.migrations += 1;
                        if stage == ReshardStage::Commit {
                            acc.committed += 1;
                        } else {
                            acc.rollbacks += 1;
                        }
                        acc.forced_recoveries += forced;
                        acc.dark_packets += dark;
                    }
                }
                _ => {}
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventJournal;

    fn recovery(shard: usize, ckpt: u64, routed: u64) -> EventKind {
        EventKind::Recovery(RecoveryReport {
            shard,
            checkpoint_packets: ckpt,
            routed_packets: routed,
            dark_packets: routed - ckpt,
        })
    }

    fn journal(events: &[EventKind]) -> JournalSnapshot {
        let j = EventJournal::default();
        for &kind in events {
            j.record(kind);
        }
        j.snapshot()
    }

    #[test]
    fn empty_log_is_all_zero() {
        let acc = journal(&[]).recovery_accounting();
        assert_eq!(acc, RecoveryAccounting::default());
        assert_eq!(acc.dark_fraction(1_000_000), 0.0);
        assert_eq!(acc.dark_fraction(0), 0.0);
    }

    #[test]
    fn folds_repeated_kills_per_shard() {
        // Shard 2 died twice, shard 0 once: 3 recoveries, 2 shards hit,
        // dark windows summed and the worst one surfaced. Other events
        // in between do not count.
        let acc = journal(&[
            EventKind::WorkerDeath { shard: 2 },
            recovery(2, 50_000, 53_000),
            recovery(0, 10_000, 10_500),
            EventKind::Resync { switch: 0 },
            recovery(2, 80_000, 81_000),
        ])
        .recovery_accounting();
        assert_eq!(acc.recoveries, 3);
        assert_eq!(acc.shards_hit, 2);
        assert_eq!(acc.dark_packets, 4_500);
        assert_eq!(acc.max_dark_packets, 3_000);
        assert!((acc.dark_fraction(450_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_is_operator_readable() {
        let one = journal(&[recovery(1, 5, 7)]).recovery_accounting();
        assert_eq!(
            one.to_string(),
            "1 recovery across 1 shard, 2 dark packets (max 2 per recovery)"
        );
        let many = journal(&[recovery(0, 0, 4), recovery(1, 2, 3)]).recovery_accounting();
        assert!(many.to_string().starts_with("2 recoveries across 2 shards"));
    }

    fn phase(stage: ReshardStage) -> EventKind {
        EventKind::ReshardPhase {
            from_shards: 2,
            to_shards: 4,
            stage,
        }
    }

    /// One migration's events: its drain, `darks.len()` forced
    /// recoveries, and its end phase.
    fn migration(end: ReshardStage, darks: &[u64]) -> Vec<EventKind> {
        let mut events = vec![phase(ReshardStage::Drain)];
        events.extend(darks.iter().enumerate().map(|(i, &d)| recovery(i, 0, d)));
        events.push(phase(end));
        events
    }

    #[test]
    fn reshard_log_folds_commits_and_rollbacks() {
        // A recovery outside any migration is not a forced one.
        let mut events = vec![recovery(3, 0, 999)];
        events.extend(migration(ReshardStage::Commit, &[]));
        events.extend(migration(ReshardStage::Rollback, &[300]));
        events.extend(migration(ReshardStage::Commit, &[100, 20]));
        let acc = journal(&events).reshard_accounting();
        assert_eq!(acc.migrations, 3);
        assert_eq!(acc.committed, 2);
        assert_eq!(acc.rollbacks, 1);
        assert_eq!(acc.forced_recoveries, 3);
        assert_eq!(acc.dark_packets, 420);
        assert!((acc.dark_fraction(42_000) - 0.01).abs() < 1e-12);
        assert_eq!(
            journal(&[]).reshard_accounting(),
            ReshardAccounting::default()
        );
    }

    #[test]
    fn reshard_display_is_operator_readable() {
        let acc = journal(&migration(ReshardStage::Commit, &[25])).reshard_accounting();
        assert_eq!(
            acc.to_string(),
            "1 reshard (1 committed, 0 rolled back), 1 forced recovery, 25 dark packets"
        );
    }
}
