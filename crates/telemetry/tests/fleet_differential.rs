//! The fleet differential: the collector's reassembled per-switch
//! windows against the switch-local ground truth.
//!
//! Two properties are pinned, matching the telemetry plane's contract:
//!
//! 1. **Export is lossless**: under full-frame export, and under
//!    lossless dirty export from the first rotation on, every collector
//!    replica is *bit-exact* with its switch's own [`SlidingTopK`] —
//!    same ring geometry, rotation counter, every epoch's bucket words,
//!    every store entry.
//! 2. **Loss self-heals**: with frames dropped and reordered by the
//!    channel, the resync protocol (gap detection → full-snapshot
//!    re-anchor, plus the end-of-run reconcile for losses on the final
//!    rotation) restores bit-exactness in either mode.
//!
//! "Bit-exact" is checked bucket-by-bucket here (not just through the
//! query surface), and compactly via [`window_digest`] across sweeps.

use heavykeeper::sliding::SlidingTopK;
use hk_common::key::FlowKey;
use hk_telemetry::{window_digest, ExportMode, Fleet, FleetConfig, FleetStats};

/// Skewed deterministic stream: a few persistent elephants over a long
/// mouse tail, shaped like the paper's workloads.
fn stream(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                state % 10
            } else {
                1000 + state % 5000
            }
        })
        .collect()
}

/// Full bucket-level equality, the long form of the digest comparison.
fn assert_bit_exact<K: FlowKey>(replica: &SlidingTopK<K>, local: &SlidingTopK<K>, what: &str) {
    assert_eq!(replica.window(), local.window(), "{what}: window");
    assert_eq!(replica.rotations(), local.rotations(), "{what}: rotations");
    assert_eq!(replica.live_epochs(), local.live_epochs(), "{what}: live");
    for (n, (ea, eb)) in replica.epoch_iter().zip(local.epoch_iter()).enumerate() {
        assert_eq!(ea.config(), eb.config(), "{what}: epoch {n} config");
        assert_eq!(ea.sketch().arrays(), eb.sketch().arrays());
        for j in 0..ea.sketch().arrays() {
            for i in 0..ea.sketch().width() {
                assert_eq!(
                    ea.sketch().bucket(j, i),
                    eb.sketch().bucket(j, i),
                    "{what}: epoch {n} bucket ({j},{i})"
                );
            }
        }
    }
    assert_eq!(
        window_digest(replica),
        window_digest(local),
        "{what}: digest"
    );
}

#[test]
fn full_frames_reassemble_bit_exact_across_geometries() {
    // Sweep switch counts and window sizes; every combination must
    // reassemble exactly, including mid-fill rings (few rotations).
    for &(switches, window, periods) in
        &[(1usize, 2usize, 3usize), (3, 4, 8), (4, 3, 2), (2, 6, 13)]
    {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches,
            window,
            epoch_packets: 3_000,
            mode: ExportMode::Full,
            seed: 7,
            ..FleetConfig::default()
        });
        fleet.run_trace(&stream(3_000 * periods, 21));
        assert_eq!(fleet.stats().rotations, periods as u64);
        assert!(fleet.collector().resync_needed().is_empty());
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet
                .collector()
                .switch_window(i as u64)
                .expect("lossless full frames install every switch");
            assert_bit_exact(replica, sw, &format!("S{switches} W{window} sw{i}"));
        }
    }
}

#[test]
fn loss_sweep_always_converges() {
    // Digest-level sweep over loss rates and seeds in full mode: a lost
    // snapshot leaves no baseline behind, and whatever the channel
    // does, reconcile ends bit-exact.
    for loss in [0.05, 0.5, 0.8] {
        for seed in 1..=4u64 {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 3,
                epoch_packets: 1_000,
                mode: ExportMode::Full,
                loss,
                reorder: 0.2,
                seed,
                ..FleetConfig::default()
            });
            fleet.run_trace(&stream(12_000, seed * 7 + 1));
            fleet.reconcile();
            for (i, sw) in fleet.switches().iter().enumerate() {
                let replica = fleet.collector().switch_window(i as u64).unwrap();
                assert_eq!(
                    window_digest(replica),
                    window_digest(sw),
                    "loss {loss} seed {seed} switch {i}"
                );
            }
        }
    }
}

#[test]
fn lossless_dirty_patches_reassemble_bit_exact() {
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 4_000,
        mode: ExportMode::Dirty,
        seed: 3,
        ..FleetConfig::default()
    });
    // Bucket for bucket after every rotation, from rotation 1 on: the
    // first frame per switch is against the empty baseline, every later
    // one a patch against the previous export.
    for (period, chunk) in stream(48_000, 5).chunks(4_000).enumerate() {
        fleet.ingest(chunk);
        fleet.rotate();
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet.collector().switch_window(i as u64).unwrap();
            assert_bit_exact(replica, sw, &format!("rotation {} switch {i}", period + 1));
        }
    }
    assert_eq!(fleet.stats().dirty_frames, 3 * 12);
    assert_eq!(fleet.stats().frames_lost, 0);
}

#[test]
fn dirty_mode_with_loss_recovers_bit_exact_after_resync() {
    // Heavy injected loss and reorder: 30% loss plus reordering. Mid-run
    // the collector falls behind (gaps), the resync protocol re-anchors
    // it, and after the final reconcile every replica is bit-exact
    // again. A lost dirty patch leaves the replica's baseline behind, so
    // *every* later patch for that switch is unusable until a resync
    // snapshot re-anchors it — the strongest self-healing obligation in
    // the protocol.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 3_000,
        mode: ExportMode::Dirty,
        loss: 0.3,
        reorder: 0.15,
        seed: 11,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(60_000, 13));
    let s = *fleet.stats();
    assert!(s.frames_lost > 0, "the channel must actually drop frames");
    assert!(
        s.dirty_frames > 0,
        "the exporter must actually ship patches"
    );
    assert!(
        fleet.obs().journal.snapshot().count_of("resync") > 0,
        "loss at this rate must have triggered resyncs"
    );

    fleet.reconcile();
    assert!(fleet.collector().resync_needed().is_empty());
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet
            .collector()
            .switch_window(i as u64)
            .expect("reconcile installs every switch");
        assert_bit_exact(replica, sw, &format!("switch {i} after resync"));
    }
}

#[test]
fn dirty_loss_sweep_always_converges() {
    // Digest-level sweep over loss rates and seeds in dirty mode:
    // whatever the channel does to the patch stream, reconcile ends
    // bit-exact, and every shipped frame — reconcile's catch-up
    // snapshots included — is accounted once: the stats and the hub
    // agree.
    let mut caught_up = 0;
    for loss in [0.05, 0.5, 0.8] {
        for seed in 1..=4u64 {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 3,
                epoch_packets: 1_000,
                mode: ExportMode::Dirty,
                loss,
                reorder: 0.2,
                seed,
                ..FleetConfig::default()
            });
            fleet.run_trace(&stream(12_000, seed * 7 + 1));
            caught_up += fleet.reconcile();
            for (i, sw) in fleet.switches().iter().enumerate() {
                let replica = fleet.collector().switch_window(i as u64).unwrap();
                assert_eq!(
                    window_digest(replica),
                    window_digest(sw),
                    "loss {loss} seed {seed} switch {i}"
                );
            }
            let (s, obs) = (*fleet.stats(), fleet.obs().snapshot());
            let tag = format!("loss {loss} seed {seed}");
            assert_eq!(s.frames_sent, obs.stages.exports, "{tag}");
            assert_eq!(s.bytes_sent, obs.export_bytes.sum, "{tag}");
            // Every full frame is an initial snapshot or a journaled
            // resync answer (a `W = 3` ring always has a patch to ship).
            let resyncs = obs.journal.count_of("resync") as u64;
            assert_eq!(s.full_frames, 2 + resyncs, "{tag}");
        }
    }
    assert!(caught_up > 0, "no reconcile shipped a catch-up snapshot");
}

#[test]
fn collector_windowed_topk_tracks_oracle_under_loss() {
    // The CI recall property: a lossy dirty-mode collector's windowed
    // top-k stays close to the loss-free merged oracle (resyncs keep
    // pulling it back), and matches it exactly after reconcile.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 5_000,
        k: 10,
        mode: ExportMode::Dirty,
        loss: 0.05,
        seed: 2,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(60_000, 17));
    let recall = fleet.recall_vs_oracle();
    assert!(recall >= 0.8, "mid-run recall {recall} below bound");
    fleet.reconcile();
    assert_eq!(
        fleet.recall_vs_oracle(),
        1.0,
        "after reconcile the collector view equals the oracle"
    );
}

/// A wide skewed stream: ten elephants over 200,000 mice, so every
/// epoch's dirty frame runs to tens of kilobytes.
fn wide_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(5) {
                state % 10
            } else {
                1000 + state % 200_000
            }
        })
        .collect()
}

#[test]
fn lossy_leased_fleet_above_the_thread_threshold_matches_the_sequential_run() {
    // Periods of 65,536 packets, four switches of 1 MiB epochs and
    // dirty frames of tens of kilobytes: ingest, rotate + export and
    // the collector's applies each clear their threshold for running
    // switches side by side. The channel loses and reorders frames,
    // and switch 1's uplink is down for periods 1..6, so the lease
    // evicts it and a resync re-admits it. Every figure pinned below
    // was recorded from the fleet running one switch at a time.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 4,
        window: 4,
        epoch_packets: 65_536,
        k: 50,
        memory_bytes: 4 << 20,
        seed: 3,
        mode: ExportMode::Dirty,
        loss: 0.05,
        reorder: 0.2,
        lease: 2,
    });
    for (period, chunk) in wide_stream(10 * 65_536, 5).chunks(65_536).enumerate() {
        fleet.set_muted(1, (1..6).contains(&period));
        fleet.ingest(chunk);
        fleet.rotate();
    }
    let journal = fleet.obs().journal.snapshot();
    let lifecycle = ["eviction", "readmission", "resync"].map(|e| journal.count_of(e));
    assert_eq!(
        *fleet.stats(),
        FleetStats {
            rotations: 10,
            frames_sent: 44,
            frames_delivered: 40,
            frames_lost: 4,
            frames_reordered: 7,
            full_frames: 9,
            dirty_frames: 35,
            duplicates: 0,
            bytes_sent: 5_328_480,
            bytes_last_rotation: 500_210,
        }
    );
    assert_eq!(lifecycle, [1, 1, 5]);

    fleet.reconcile();
    assert!(fleet.collector().resync_needed().is_empty());
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet
            .collector()
            .switch_window(i as u64)
            .expect("reconcile installs every switch");
        assert_bit_exact(replica, sw, &format!("switch {i} after reconcile"));
    }
}
