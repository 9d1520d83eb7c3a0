//! Differential and fault-injection tests for the checkpoint/respawn
//! recovery plane.
//!
//! Three contracts are pinned down here:
//!
//! 1. **Bit-exact checkpoints** — `restore_checkpoint(encode_checkpoint())`
//!    rebuilds an instance whose re-encoding reproduces the same bytes,
//!    for both checkpointable algorithms (`ParallelTopK`,
//!    `SlidingTopK`).
//! 2. **Recovery** — a deterministic seeded kill mid-stream leaves the
//!    engine healthy after `recover()`: no poisoned shards, the
//!    respawned shard bit-exact with its restoring checkpoint, and the
//!    dark window reported with consistent packet accounting. Mid-walk
//!    (torn state + poisoned mutex), wedge (closed ring) and repeated
//!    kills on one lane are covered too.
//! 3. **Bounded loss** — a kill at every rotation of a windowed run
//!    recovers within one epoch of dark window (plus transport slack)
//!    and keeps the reported top-k close to a loss-free oracle.

use heavykeeper::{FaultKind, FaultPlan, HkConfig, ParallelTopK, ShardedEngine, SlidingTopK};
use hk_common::algorithm::{EpochRotate, ShardCheckpoint, TopKAlgorithm};

fn cfg(w: usize, k: usize, seed: u64) -> HkConfig {
    HkConfig::builder()
        .arrays(2)
        .width(w)
        .k(k)
        .seed(seed)
        .build()
}

fn zipfish_stream(n: usize, heavy: u64, tail: u64, seed: u64) -> Vec<u64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                (state >> 1) % heavy
            } else {
                heavy + state % tail
            }
        })
        .collect()
}

#[test]
fn parallel_checkpoint_restore_is_bit_exact() {
    let mut hk = ParallelTopK::<u64>::new(cfg(512, 16, 9));
    hk.insert_batch(&zipfish_stream(40_000, 12, 3000, 21));

    let bytes = hk.encode_checkpoint();
    let restored = ParallelTopK::<u64>::restore_checkpoint(&bytes).expect("own bytes decode");
    // Re-encoding the restored instance reproduces the checkpoint —
    // the recorded state (buckets, store) survived the round trip
    // bit-exact, so a respawn resumes from *exactly* the encoded cut.
    assert_eq!(restored.encode_checkpoint(), bytes);
    // Same monitored flows and estimates (tie *order* inside the store
    // is admission-history dependent and exempt from the contract).
    let mut want = hk.top_k();
    let mut got = restored.top_k();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want);
    for f in 0..12u64 {
        assert_eq!(restored.query(&f), hk.query(&f), "flow {f}");
    }
    // Corrupt / foreign bytes are rejected, not misdecoded.
    assert!(ParallelTopK::<u64>::restore_checkpoint(&bytes[..bytes.len() / 2]).is_none());
    assert!(ParallelTopK::<u64>::restore_checkpoint(&[]).is_none());
}

#[test]
fn sliding_checkpoint_restore_is_bit_exact_mid_window() {
    let mut win = SlidingTopK::<u64>::with_memory(32 * 1024, 12, 5, 4);
    let stream = zipfish_stream(36_000, 10, 2000, 33);
    // Fill several epochs so the ring is mid-rotation when encoded.
    for (i, chunk) in stream.chunks(6000).enumerate() {
        if i > 0 {
            win.rotate_epoch();
        }
        win.insert_batch(chunk);
    }

    let bytes = win.encode_checkpoint();
    let restored = SlidingTopK::<u64>::restore_checkpoint(&bytes).expect("own bytes decode");
    assert_eq!(restored.encode_checkpoint(), bytes);
    assert_eq!(restored.rotations(), win.rotations());
    assert_eq!(restored.top_k(), win.top_k());
    assert!(SlidingTopK::<u64>::restore_checkpoint(&[1, 2, 3]).is_none());
}

#[test]
fn seeded_kill_mid_stream_recovers_from_last_checkpoint() {
    let k = 16;
    let stream = zipfish_stream(60_000, 12, 2500, 77);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(4, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    engine
        .enable_checkpoints(4)
        .expect("healthy engine checkpoints");
    engine.set_fault_plan(&FaultPlan::new().kill(2, 7_500));

    for chunk in stream[..30_000].chunks(512) {
        engine.insert_batch(chunk);
    }
    // The worker died; without auto-recovery the death surfaces on the
    // flush boundary.
    assert!(engine.flush().is_err(), "kill fault must have fired");
    assert_eq!(engine.poisoned_shards(), vec![2]);

    let reports = engine.recover().expect("checkpoint is restorable");
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.shard, 2);
    assert!(r.checkpoint_packets > 0, "cadence checkpoints were taken");
    assert!(r.routed_packets >= r.checkpoint_packets);
    assert_eq!(r.dark_packets, r.routed_packets - r.checkpoint_packets);
    assert!(engine.poisoned_shards().is_empty(), "recovery healed it");

    // The acceptance differential: the respawned shard is bit-exact
    // with the checkpoint it was restored from.
    let live = engine
        .with_shard(2, |a| a.encode_checkpoint())
        .expect("shard 2 is live again");
    assert_eq!(Some(live), engine.checkpoint_bytes(2));

    // The healed engine keeps ingesting and reporting.
    for chunk in stream[30_000..].chunks(512) {
        engine.insert_batch(chunk);
    }
    engine.flush().expect("no further faults");
    assert_eq!(engine.recovery_log().len(), 1);
    assert!(!engine.top_k().is_empty());
}

#[test]
fn recover_without_checkpoints_is_refused_and_healthy_recover_is_a_noop() {
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(2, 8, |_| ParallelTopK::new(cfg(256, 8, 3)));
    assert!(engine.recover().is_err(), "no checkpoint plane armed");
    engine.enable_checkpoints(8).unwrap();
    // Healthy engine: recover is an empty no-op, not an error.
    assert_eq!(engine.recover().unwrap().len(), 0);
    assert!(engine.recovery_log().is_empty());
}

#[test]
fn auto_recover_heals_during_ingest_without_caller_involvement() {
    let k = 12;
    let stream = zipfish_stream(50_000, 10, 2000, 13);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(4, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    engine.enable_checkpoints(4).unwrap();
    engine.set_fault_plan(&FaultPlan::new().kill(1, 5_000));
    engine.set_auto_recover(true);

    for chunk in stream.chunks(512) {
        engine.insert_batch(chunk);
    }
    // The kill fired mid-stream and the next dispatch boundary healed
    // it: the caller never saw an error and the engine ends healthy.
    engine.flush().expect("auto-recovery absorbed the death");
    assert!(engine.poisoned_shards().is_empty());
    assert_eq!(engine.recovery_log().len(), 1);
    assert_eq!(engine.recovery_log()[0].shard, 1);
}

#[test]
fn repeated_kills_on_one_lane_rebase_the_dark_window_accounting() {
    let k = 12;
    let stream = zipfish_stream(80_000, 10, 2000, 55);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(4, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    engine.enable_checkpoints(4).unwrap();
    engine.set_fault_plan(
        &FaultPlan::new()
            .kill(1, 4_000)
            .kill(1, 12_000)
            .kill(3, 9_000),
    );
    engine.set_auto_recover(true);

    for chunk in stream.chunks(512) {
        engine.insert_batch(chunk);
    }
    engine.flush().expect("all deaths auto-recovered");

    let log = engine.recovery_log();
    assert_eq!(log.len(), 3, "two kills on shard 1, one on shard 3");
    let shard1: Vec<_> = log.iter().filter(|r| r.shard == 1).collect();
    assert_eq!(shard1.len(), 2);
    // Counters were rebased to the restoring checkpoint's cut on the
    // first respawn, so the second recovery's accounting stays
    // monotone and self-consistent instead of double-counting the
    // first dark window.
    assert!(shard1[1].checkpoint_packets >= shard1[0].checkpoint_packets);
    for r in log {
        assert!(r.routed_packets >= r.checkpoint_packets, "{r}");
        assert_eq!(r.dark_packets, r.routed_packets - r.checkpoint_packets);
    }
}

#[test]
fn mid_walk_torn_state_is_degraded_then_recovered() {
    let k = 12;
    let stream = zipfish_stream(40_000, 10, 2000, 91);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(4, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    engine.enable_checkpoints(4).unwrap();
    engine.set_fault_plan(&FaultPlan::new().with(2, 5_000, FaultKind::MidWalk));

    for chunk in stream.chunks(512) {
        engine.insert_batch(chunk);
    }
    assert!(engine.flush().is_err(), "mid-walk death must surface");

    // The worker died *inside* the bucket walk holding the algorithm
    // mutex: state is torn and the mutex poisoned. Reads degrade to
    // the survivors instead of reporting garbage.
    let victim = (0..50u64).find(|f| engine.shard_of(f) == 2).unwrap();
    assert_eq!(engine.query(&victim), 0, "torn shard reads as unknown");
    let survivor_top = engine.top_k();
    assert!(!survivor_top.is_empty(), "survivors still report");

    // Recovery replaces the torn instance with the checkpoint restore.
    let reports = engine.recover().expect("restorable despite torn state");
    assert_eq!(reports.len(), 1);
    assert!(engine.poisoned_shards().is_empty());
    let live = engine
        .with_shard(2, |a| a.encode_checkpoint())
        .expect("restored shard serves reads");
    assert_eq!(Some(live), engine.checkpoint_bytes(2));
}

#[test]
fn wedged_worker_counts_as_death_and_recovers() {
    let k = 12;
    let stream = zipfish_stream(40_000, 10, 2000, 17);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(2, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    engine.enable_checkpoints(4).unwrap();
    engine.set_fault_plan(&FaultPlan::new().with(0, 6_000, FaultKind::Wedge));

    for chunk in stream.chunks(512) {
        engine.insert_batch(chunk);
    }
    // A wedged worker closes its ring and stops consuming; the producer
    // sees the closed ring as a death, never a hang.
    assert!(engine.flush().is_err(), "wedge must read as a dead shard");
    let reports = engine.recover().expect("wedged shard restores too");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].shard, 0);
    engine.flush().expect("healed");
}

#[test]
fn death_before_the_first_scheduled_checkpoint_restores_the_enable_time_baseline() {
    let k = 12;
    let (victim, every) = (1usize, 8u64);
    let stream = zipfish_stream(40_000, 10, 2000, 29);
    let (before, after) = stream.split_at(20_000);
    let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
        ShardedEngine::from_fn(4, k, |_| ParallelTopK::new(cfg(512, k, 5)));
    let routed_to_victim =
        |part: &[u64]| part.iter().filter(|f| engine.shard_of(f) == victim).count() as u64;
    let (at_enable, since_enable) = (routed_to_victim(before), routed_to_victim(after));
    // The kill lands on the victim's first or second batch after the
    // enable, long before `every` batches schedule its next checkpoint.
    engine.set_fault_plan(&FaultPlan::new().kill(victim, at_enable + 100));

    for chunk in before.chunks(512) {
        engine.insert_batch(chunk);
    }
    let baseline = engine
        .with_shard(victim, |a| a.encode_checkpoint())
        .expect("victim is live at enable time");
    engine.enable_checkpoints(every).expect("healthy at enable");
    for chunk in after.chunks(512) {
        engine.insert_batch(chunk);
    }
    assert!(engine.flush().is_err(), "kill fault must have fired");
    assert_eq!(engine.poisoned_shards(), vec![victim]);

    // The only checkpoint the victim ever took is the enable-time
    // baseline: recovery restores exactly that state, and the dark
    // window is every packet routed to the victim since.
    let reports = engine.recover().expect("baseline is restorable");
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.shard, victim);
    assert_eq!(r.checkpoint_packets, at_enable);
    assert_eq!(r.routed_packets, at_enable + since_enable);
    assert_eq!(r.dark_packets, since_enable);
    let live = engine
        .with_shard(victim, |a| a.encode_checkpoint())
        .expect("victim is live again");
    assert_eq!(live, baseline);
    assert_eq!(engine.checkpoint_bytes(victim), Some(baseline));
}

/// Fraction of the oracle's top-k flows the faulty engine still
/// reports.
fn recall_of(faulty: &[(u64, u64)], oracle: &[(u64, u64)]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let hits = oracle
        .iter()
        .filter(|(f, _)| faulty.iter().any(|(g, _)| g == f))
        .count();
    hits as f64 / oracle.len() as f64
}

#[test]
fn kill_in_every_reshard_phase_recovers_with_bounded_dark_window() {
    let k = 20;
    let batch = 512;
    let cadence = 4u64; // checkpoint every 4 dispatched batches per shard
    let part_a = zipfish_stream(40_000, 24, 4000, 7);
    let part_b = zipfish_stream(40_000, 24, 4000, 19);

    // One full run: part A at `from` shards, a sub-batch staged in the
    // pending partition (so the drain has something to dispatch across
    // the cut), a live reshard to `to`, then part B against whatever
    // topology came out. Auto-recovery heals post-swap deaths; drain
    // deaths are healed inside `reshard` itself.
    let run = |from: usize, to: usize, staged: &[u64], plan: Option<&FaultPlan>| {
        let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
            ShardedEngine::from_fn(from, k, |_| ParallelTopK::new(cfg(1024, k, 5)));
        engine.enable_checkpoints(cadence).unwrap();
        if let Some(plan) = plan {
            engine.set_fault_plan(plan);
        }
        engine.set_auto_recover(true);
        for chunk in part_a.chunks(batch) {
            engine.insert_batch(chunk);
        }
        engine.flush().expect("no fault is scheduled inside part A");
        engine.insert_batch(staged); // pending across the reshard call
        let report = engine.reshard(to).expect("well-formed reshard");
        for chunk in part_b.chunks(batch) {
            engine.insert_batch(chunk);
        }
        engine.recover().expect("every death must be restorable");
        engine.flush().expect("healed engine");
        // `recovery_log` includes drain-phase heals (they also appear
        // in `report.recoveries`) and post-swap auto-heals.
        (engine.top_k(), report, engine.recovery_log().to_vec())
    };

    for (from, to) in [(2usize, 4usize), (4usize, 2usize)] {
        // Per-old-shard applied counts after part A, for packet-exact
        // threshold placement (the engine routes deterministically).
        let probe: ShardedEngine<u64, ParallelTopK<u64>> =
            ShardedEngine::from_fn(from, k, |_| ParallelTopK::new(cfg(1024, k, 5)));
        let mut a = vec![0u64; from];
        for f in &part_a {
            a[probe.shard_of(f)] += 1;
        }
        let victim = (0..u64::MAX).find(|f| probe.shard_of(f) == 0).unwrap();
        let staged = vec![victim; 50];

        let (oracle_top, oracle_report, oracle_log) = run(from, to, &staged, None);
        assert!(oracle_report.committed, "{from}->{to}: fault-free commit");
        assert!(oracle_log.is_empty(), "{from}->{to}: loss-free oracle");

        // A kill scheduled inside each migration phase. Part A ends
        // with shard 0 at exactly a[0] applied packets and `>` compares
        // strictly, so a threshold of a[0] fires on the *drain's*
        // dispatch of the staged sub-batch and never earlier. The
        // split phase is pure computation on checkpoint bytes (no
        // worker applies packets), so a fault armed inside it fires on
        // the first post-rebuild dispatch; the swap case pins its
        // threshold far below the rebased base — the rebase jumps past
        // it and it fires on the new worker's very first batch.
        let phases: [(&str, FaultPlan); 3] = [
            ("drain", FaultPlan::new().kill(0, a[0])),
            (
                "split",
                if to > from {
                    // A shard index only the new topology has: dormant
                    // until the grow installs it, threshold at its
                    // donor's cut.
                    FaultPlan::new().kill(to - 1, a[from - 1])
                } else {
                    // A survivor at exactly its post-fold base.
                    FaultPlan::new().kill(0, a[0] + a[1] + staged.len() as u64)
                },
            ),
            (
                "swap",
                if to > from {
                    FaultPlan::new().kill(to - 1, 1)
                } else {
                    // Above everything shard 0 applies pre-swap
                    // (a[0] + staged), below its rebased base.
                    FaultPlan::new().kill(0, a[0] + staged.len() as u64 + a[1] / 2)
                },
            ),
        ];

        for (phase, plan) in &phases {
            let tag = format!("{from}->{to} kill@{phase}");
            let (top, report, log) = run(from, to, &staged, Some(plan));
            assert!(report.committed, "{tag}: must commit, got {report}");
            assert_eq!(report.to_shards, to, "{tag}");
            assert!(!log.is_empty(), "{tag}: the scheduled kill never fired");
            if *phase == "drain" {
                assert!(
                    !report.recoveries.is_empty(),
                    "{tag}: drain kill heals inside the migration"
                );
            }
            // Bounded loss: the restoring checkpoint is at worst one
            // cadence interval old (or the swap baseline itself), and
            // detection lags by at most the transport backlog.
            let slack = (10 * batch) as u64;
            for r in &log {
                assert!(
                    r.dark_packets <= cadence * batch as u64 + slack,
                    "{tag}: dark window {} exceeds a checkpoint interval + slack",
                    r.dark_packets
                );
            }
            let recall = recall_of(&top, &oracle_top);
            assert!(
                recall >= 0.6,
                "{tag}: recall {recall:.2} vs loss-free oracle fell below floor"
            );
        }
    }
}

#[test]
fn kill_at_every_rotation_stays_within_one_epoch_of_loss() {
    let k = 20;
    let shards = 4;
    let window = 3;
    let epoch_packets = 6_000;
    let periods = 6;
    let batch = 512;
    let stream = zipfish_stream(periods * epoch_packets, 24, 4000, 101);

    let run = |fault: Option<&FaultPlan>| {
        let mut engine: ShardedEngine<u64, SlidingTopK<u64>> =
            ShardedEngine::from_fn(shards, k, |_| {
                SlidingTopK::<u64>::with_memory(24 * 1024, k, 5, window)
            });
        // Huge cadence: only the rotation barriers checkpoint, so the
        // dark window is bounded by one epoch (plus transport slack).
        engine.enable_checkpoints(1_000_000).unwrap();
        if let Some(plan) = fault {
            engine.set_fault_plan(plan);
        }
        engine.set_auto_recover(true);
        for (i, epoch) in stream.chunks(epoch_packets).enumerate() {
            if i > 0 {
                // A dead shard skips the rotation; auto-recovery picks
                // it back up on the next dispatch boundary.
                let _ = engine.rotate_all();
            }
            for chunk in epoch.chunks(batch) {
                engine.insert_batch(chunk);
            }
        }
        let _ = engine.recover().expect("checkpoints armed");
        assert!(engine.poisoned_shards().is_empty());
        let top = engine.top_k();
        let log = engine.recovery_log().to_vec();
        (top, log)
    };

    let (oracle_top, oracle_log) = run(None);
    assert!(oracle_log.is_empty(), "loss-free run has no recoveries");

    // One kill per rotation boundary: thresholds stepped so each run's
    // fault fires inside a different epoch of shard 1's applied stream.
    let per_shard_epoch = epoch_packets / shards;
    for rotation in 1..periods {
        let plan = FaultPlan::new().kill(1, (rotation * per_shard_epoch + 300) as u64);
        let (top, log) = run(Some(&plan));
        assert_eq!(log.len(), 1, "rotation {rotation}: exactly one kill");
        let r = &log[0];
        assert_eq!(r.shard, 1);
        // Bounded loss: the restoring checkpoint is at worst one epoch
        // old, and detection lags by at most the transport backlog
        // (ring capacity + one pending sub-batch per dispatch).
        let slack = (10 * batch) as u64;
        assert!(
            r.dark_packets <= epoch_packets as u64 + slack,
            "rotation {rotation}: dark window {} exceeds an epoch + slack",
            r.dark_packets
        );
        let recall = recall_of(&top, &oracle_top);
        assert!(
            recall >= 0.6,
            "rotation {rotation}: recall {recall:.2} vs loss-free oracle fell below floor"
        );
    }
}
