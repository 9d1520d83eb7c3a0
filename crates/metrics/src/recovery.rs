//! Recovery accounting for the sharded engine's checkpoint/respawn
//! plane.
//!
//! A [`RecoveryReport`](heavykeeper::RecoveryReport) describes one
//! shard respawn; an experiment run (the fault-injection harness, the
//! CLI's `--fault ... --recover` mode) produces a *sequence* of them.
//! [`RecoveryAccounting`] folds that sequence into the numbers an
//! evaluation wants next to its accuracy table: how many recoveries
//! happened, how many packets fell in dark windows, and how the dark
//! total relates to the stream (the a-priori loss bound a checkpoint
//! cadence promises). [`ReshardAccounting`] does the same for the live
//! migrations in a [`reshard_log`](heavykeeper::ShardedEngine::reshard_log).

use heavykeeper::{RecoveryReport, ReshardReport};

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
    /// Folds a run's recovery log into one accounting.
    pub fn from_reports(reports: &[RecoveryReport]) -> Self {
        let mut shards: Vec<usize> = reports.iter().map(|r| r.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        Self {
            recoveries: reports.len(),
            dark_packets: reports.iter().map(|r| r.dark_packets).sum(),
            max_dark_packets: reports.iter().map(|r| r.dark_packets).max().unwrap_or(0),
            shards_hit: shards.len(),
        }
    }

    /// The dark total as a fraction of `stream_packets` — an upper
    /// bound on the recall the recoveries can have cost (a flow is only
    /// under-counted by packets its shard never saw). `0.0` for an
    /// empty stream.
    pub fn dark_fraction(&self, stream_packets: u64) -> f64 {
        if stream_packets == 0 {
            0.0
        } else {
            self.dark_packets as f64 / stream_packets as f64
        }
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
    /// Folds an engine's reshard log into one accounting.
    pub fn from_reports(reports: &[ReshardReport]) -> Self {
        let committed = reports.iter().filter(|r| r.committed).count();
        Self {
            migrations: reports.len(),
            committed,
            rollbacks: reports.len() - committed,
            forced_recoveries: reports.iter().map(|r| r.recoveries.len()).sum(),
            dark_packets: reports.iter().map(|r| r.dark_packets).sum(),
        }
    }

    /// Mid-migration dark packets as a fraction of `stream_packets` —
    /// what the migrations themselves can have cost in recall. `0.0`
    /// for an empty stream.
    pub fn dark_fraction(&self, stream_packets: u64) -> f64 {
        if stream_packets == 0 {
            0.0
        } else {
            self.dark_packets as f64 / stream_packets as f64
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn report(shard: usize, ckpt: u64, routed: u64) -> RecoveryReport {
        RecoveryReport {
            shard,
            checkpoint_packets: ckpt,
            routed_packets: routed,
            dark_packets: routed - ckpt,
        }
    }

    #[test]
    fn empty_log_is_all_zero() {
        let acc = RecoveryAccounting::from_reports(&[]);
        assert_eq!(acc, RecoveryAccounting::default());
        assert_eq!(acc.dark_fraction(1_000_000), 0.0);
        assert_eq!(acc.dark_fraction(0), 0.0);
    }

    #[test]
    fn folds_repeated_kills_per_shard() {
        // Shard 2 died twice, shard 0 once: 3 recoveries, 2 shards hit,
        // dark windows summed and the worst one surfaced.
        let acc = RecoveryAccounting::from_reports(&[
            report(2, 50_000, 53_000),
            report(0, 10_000, 10_500),
            report(2, 80_000, 81_000),
        ]);
        assert_eq!(acc.recoveries, 3);
        assert_eq!(acc.shards_hit, 2);
        assert_eq!(acc.dark_packets, 4_500);
        assert_eq!(acc.max_dark_packets, 3_000);
        assert!((acc.dark_fraction(450_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_is_operator_readable() {
        let one = RecoveryAccounting::from_reports(&[report(1, 5, 7)]);
        assert_eq!(
            one.to_string(),
            "1 recovery across 1 shard, 2 dark packets (max 2 per recovery)"
        );
        let many = RecoveryAccounting::from_reports(&[report(0, 0, 4), report(1, 2, 3)]);
        assert!(many.to_string().starts_with("2 recoveries across 2 shards"));
    }

    fn reshard(committed: bool, recoveries: usize, dark: u64) -> ReshardReport {
        ReshardReport {
            from_shards: 2,
            to_shards: 4,
            committed,
            cut_packets: vec![10, 10],
            dark_packets: dark,
            recoveries: (0..recoveries).map(|i| report(i, 0, dark)).collect(),
            rollback: (!committed).then(|| "drain retry budget exhausted".into()),
        }
    }

    #[test]
    fn reshard_log_folds_commits_and_rollbacks() {
        let acc = ReshardAccounting::from_reports(&[
            reshard(true, 0, 0),
            reshard(false, 1, 300),
            reshard(true, 2, 120),
        ]);
        assert_eq!(acc.migrations, 3);
        assert_eq!(acc.committed, 2);
        assert_eq!(acc.rollbacks, 1);
        assert_eq!(acc.forced_recoveries, 3);
        assert_eq!(acc.dark_packets, 420);
        assert!((acc.dark_fraction(42_000) - 0.01).abs() < 1e-12);
        assert_eq!(
            ReshardAccounting::from_reports(&[]),
            ReshardAccounting::default()
        );
    }

    #[test]
    fn reshard_display_is_operator_readable() {
        let acc = ReshardAccounting::from_reports(&[reshard(true, 1, 25)]);
        assert_eq!(
            acc.to_string(),
            "1 reshard (1 committed, 0 rolled back), 1 forced recovery, 25 dark packets"
        );
    }
}
