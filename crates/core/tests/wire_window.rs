//! Window-frame robustness: the decoder against malformed bytes, and
//! the collector's dirty-frame protocol against loss, duplication and
//! reordering — mirroring the `wire.rs` sketch rejection suite at the
//! frame level. Dirty frames come in two shapes, and every sweep runs both:
//! against the empty baseline (the first export, `export_delta`) and
//! against the previous export.
//!
//! Decoder properties:
//!
//! * every strict prefix of a valid frame is rejected (truncation at
//!   *every* byte);
//! * any single-bit corruption of an epoch payload or its checksum is
//!   rejected as [`WireError::BadChecksum`] before the payload is decoded;
//! * bad magic / version / kind / key width / impossible header fields
//!   are rejected with their specific errors;
//! * trailing bytes are rejected;
//! * length fields cannot make a decoder allocate beyond its input.
//!
//! Protocol properties (randomized over seeds, deterministic replay):
//!
//! * whatever subset of frames is delivered in whatever adjacent-swap
//!   order, the replica's rotation counter never exceeds the switch's
//!   and every applied state is a true prefix of the switch's history;
//! * duplicates never change the replica (digest-checked);
//! * a gap always flags resync, and a subsequent full snapshot always
//!   restores bit-exactness.

use heavykeeper::collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
use heavykeeper::sliding::SlidingTopK;
use heavykeeper::wire::{FrameBody, WindowFrame};
use heavykeeper::{HkConfig, HkConfigBuilder, ParallelTopK, WireError};
use hk_common::prng::XorShift64;
use hk_common::{varint, TopKAlgorithm};

fn cfg(seed: u64) -> HkConfig {
    HkConfig::builder()
        .arrays(2)
        .width(64)
        .k(8)
        .seed(seed)
        .build()
}

/// A window with `rotations` rotations of skewed traffic.
fn populated(seed: u64, window: usize, rotations: usize) -> SlidingTopK<u64> {
    let mut win = SlidingTopK::<u64>::new(cfg(seed), window);
    let mut state = seed | 1;
    for r in 0..=rotations as u64 {
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                r * 8 + state % 5
            } else {
                1000 + state % 800
            };
            win.insert(&f);
        }
        if r < rotations as u64 {
            win.rotate();
        }
    }
    win
}

/// A window three rotations deep and both shapes of dirty frame it
/// exported: rotation 2 against the empty baseline (its first export),
/// then rotation 3 as a patch against rotation 2.
fn populated_with_dirty(seed: u64, window: usize) -> (SlidingTopK<u64>, [Vec<u8>; 2]) {
    let mut win = populated(seed, window, 2);
    let empty_baseline = win.export_dirty(1, 2000).expect("a closed epoch");
    let mut state = seed.wrapping_mul(31) | 1;
    for _ in 0..2000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        win.insert(&(1000 + state % 800));
    }
    win.rotate();
    let patch = win.export_dirty(1, 2000).expect("a closed epoch");
    (win, [empty_baseline, patch])
}

/// Header byte offsets (see the wire.rs frame diagram).
const OFF_VERSION: usize = 4;
const OFF_KIND: usize = 5;
const OFF_KEYLEN: usize = 6;
const OFF_WINDOW: usize = 23;
const OFF_LIVE: usize = 25;
const HEADER_LEN: usize = 31;

#[test]
fn truncation_rejected_at_every_byte() {
    let win = populated(3, 3, 4);
    let (_, [empty_baseline, patch]) = populated_with_dirty(3, 3);
    for frame in [win.export_frame(1, 2000), empty_baseline, patch] {
        for cut in 0..frame.len() {
            assert!(
                WindowFrame::<u64>::decode(&frame[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                frame.len()
            );
        }
        assert!(WindowFrame::<u64>::decode(&frame).is_ok());
    }
}

#[test]
fn every_payload_byte_is_crc_protected() {
    // Corrupt one byte at a time across the entire epoch-record region:
    // the decoder must fail — and fail with BadChecksum whenever the flip
    // landed inside a payload or its checksum (a flip in a length
    // prefix may surface as Truncated/Corrupt instead, which is fine;
    // silent acceptance is the only bug).
    let win = populated(5, 2, 3);
    let frame = win.export_frame(9, 100);
    let mut checksum_hits = 0;
    for i in HEADER_LEN..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0x20;
        let err = WindowFrame::<u64>::decode(&bad);
        assert!(err.is_err(), "flip at byte {i} accepted");
        if matches!(err, Err(WireError::BadChecksum { .. })) {
            checksum_hits += 1;
        }
    }
    assert!(
        checksum_hits > (frame.len() - HEADER_LEN) / 2,
        "the checksum must catch most record corruption, caught {checksum_hits}"
    );
}

#[test]
fn every_dirty_payload_byte_is_crc_protected() {
    // Same sweep over both dirty shapes: the single record is the HKDP
    // patch.
    let (_, frames) = populated_with_dirty(5, 3);
    for frame in frames {
        let mut checksum_hits = 0;
        for i in HEADER_LEN..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x20;
            let err = WindowFrame::<u64>::decode(&bad);
            assert!(err.is_err(), "flip at byte {i} accepted");
            if matches!(err, Err(WireError::BadChecksum { .. })) {
                checksum_hits += 1;
            }
        }
        assert!(
            checksum_hits > (frame.len() - HEADER_LEN) / 2,
            "the checksum must catch most patch corruption, caught {checksum_hits}"
        );
    }
}

#[test]
fn crc_field_corruption_rejected() {
    let win = populated(5, 2, 2);
    let mut frame = win.export_delta(0, 100).unwrap();
    // The checksum is the last 8 bytes of a one-record frame.
    let n = frame.len();
    frame[n - 8] ^= 0xFF;
    assert!(matches!(
        WindowFrame::<u64>::decode(&frame),
        Err(WireError::BadChecksum { record: 0 })
    ));
}

#[test]
fn header_corruption_rejected_specifically() {
    let win = populated(7, 3, 3);
    let good = win.export_frame(0, 100);

    let mut bad = good.clone();
    bad[0] = b'X';
    let err = WindowFrame::<u64>::decode(&bad).unwrap_err();
    assert_eq!(err, WireError::BadMagic);
    assert!(err.to_string().contains("HKWF"), "{err}");

    let mut bad = good.clone();
    bad[OFF_VERSION] = 9;
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::BadVersion(9)
    );

    let mut bad = good.clone();
    bad[OFF_KIND] = 7;
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::Corrupt("frame kind")
    );

    let mut bad = good.clone();
    bad[OFF_KEYLEN] = 4;
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::KeyMismatch
    );

    // window = 0 is impossible.
    let mut bad = good.clone();
    bad[OFF_WINDOW] = 0;
    bad[OFF_WINDOW + 1] = 0;
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::Corrupt("window size")
    );

    // live > window is impossible.
    let mut bad = good.clone();
    bad[OFF_LIVE] = 200;
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::Corrupt("live epoch count")
    );

    // A full frame cannot carry more epochs than rotations + 1 allow:
    // zero the rotation counter of a 3-rotation frame.
    let mut bad = good.clone();
    for b in &mut bad[15..23] {
        *b = 0;
    }
    assert_eq!(
        WindowFrame::<u64>::decode(&bad).unwrap_err(),
        WireError::Corrupt("more epochs than rotations")
    );
}

#[test]
fn dirty_header_corruption_rejected_specifically() {
    let (win, frames) = populated_with_dirty(7, 3);

    // Stamping the dirty kind onto a full frame's byte layout cannot
    // decode.
    let mut bad = win.export_frame(1, 2000);
    bad[OFF_KIND] = 2;
    assert!(WindowFrame::<u64>::decode(&bad).is_err());

    for good in frames {
        // Both kinds share one version, and every earlier one is
        // retired: v2 full frames of dense sketches, v3 dirty records
        // without a baseline field, v4 whole widened words, v5
        // split-field dirty records, v6 CRC-32 record trailers…
        let mut bad = good.clone();
        for retired in [2, 3, 4, 5, 6] {
            bad[OFF_VERSION] = retired;
            assert_eq!(
                WindowFrame::<u64>::decode(&bad).unwrap_err(),
                WireError::BadVersion(retired)
            );
        }
        // …a full kind over a patch cannot decode, and kind 1 (the
        // retired delta) is unknown.
        let mut bad = good.clone();
        bad[OFF_KIND] = 0;
        assert!(WindowFrame::<u64>::decode(&bad).is_err());
        bad[OFF_KIND] = 1;
        assert_eq!(
            WindowFrame::<u64>::decode(&bad).unwrap_err(),
            WireError::Corrupt("frame kind")
        );

        // A closed epoch needs a rotation: rotation 0 is impossible.
        let mut bad = good.clone();
        bad[15..23].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            WindowFrame::<u64>::decode(&bad).unwrap_err(),
            WireError::Corrupt("dirty before first rotation")
        );

        // A W = 1 ring never exports dirty frames.
        let mut bad = good.clone();
        bad[OFF_WINDOW] = 1;
        bad[OFF_WINDOW + 1] = 0;
        assert_eq!(
            WindowFrame::<u64>::decode(&bad).unwrap_err(),
            WireError::Corrupt("dirty window size")
        );

        // Exactly one record, always.
        let mut bad = good.clone();
        bad[OFF_LIVE] = 2;
        assert_eq!(
            WindowFrame::<u64>::decode(&bad).unwrap_err(),
            WireError::Corrupt("dirty epoch count")
        );
    }
}

#[test]
fn trailing_garbage_rejected() {
    let win = populated(7, 2, 2);
    let (_, dirty) = populated_with_dirty(7, 3);
    for mut frame in std::iter::once(win.export_frame(0, 100)).chain(dirty) {
        frame.push(0);
        assert_eq!(
            WindowFrame::<u64>::decode(&frame).unwrap_err(),
            WireError::Corrupt("trailing bytes")
        );
    }
}

/// Peak resident memory of this process in bytes, where the platform
/// reports it (`VmHWM` in `/proc/self/status`).
fn peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

/// A checksum-valid frame of `kind` (switch 0, rotation 2, W = 3)
/// around hand-built record payloads; a full frame's first is its ring
/// config.
fn frame_around(kind: u8, payloads: &[&[u8]]) -> Vec<u8> {
    let live = payloads.len() - usize::from(kind == 0);
    let mut out = b"HKWF".to_vec();
    out.extend_from_slice(&[7, kind, 8]); // version, kind, key width
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&2u64.to_le_bytes());
    out.extend_from_slice(&3u16.to_le_bytes());
    out.extend_from_slice(&(live as u16).to_le_bytes());
    out.extend_from_slice(&100u32.to_le_bytes());
    for payload in payloads {
        push_record(&mut out, payload);
    }
    out
}

/// A checksum-valid `HKSK` payload (v2, u64 keys) around hand-built
/// record payloads: the config, then the sketch's epoch.
fn sketch_around(payloads: &[&[u8]]) -> Vec<u8> {
    let mut out = b"HKSK".to_vec();
    out.extend_from_slice(&[2, 8]); // version, key width
    for payload in payloads {
        push_record(&mut out, payload);
    }
    out
}

/// Appends one record: length, payload, and the payload's xxHash64.
fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&hk_common::hash::xxhash64(payload, 0).to_le_bytes());
}

/// An HKDP payload of `rows` rows of `width` buckets against the empty
/// baseline, every bitmap one zero run, and an empty store; its first
/// 12 bytes are the header alone when `width` takes a 5-byte varint.
fn empty_record(rows: u64, width: u64) -> Vec<u8> {
    let mut payload = b"HKDP".to_vec();
    payload.push(2); // fingerprint bytes
    for field in [0, rows, width] {
        varint::write_u64(&mut payload, field); // base_rows, rows, width
    }
    for _ in 0..rows {
        varint::write_u64(&mut payload, width.div_ceil(64));
        varint::write_u64(&mut payload, 0);
    }
    varint::write_u64(&mut payload, 0); // empty store
    payload
}

#[test]
fn length_fields_cannot_amplify_allocation() {
    let before = peak_rss();

    // A 55-byte frame claiming 16 rows × u32::MAX buckets, and no
    // bitmap: refused without reserving a word per claimed bucket.
    let payload = empty_record(16, u32::MAX.into());
    let frame = frame_around(2, &[&payload[..12]]);
    assert_eq!(frame.len(), 55);
    assert_eq!(
        WindowFrame::<u64>::decode(&frame).unwrap_err(),
        WireError::Corrupt("dirty bitmap")
    );
    // The same claim with every row's bitmap one zero run is a valid,
    // empty patch; it decodes in memory proportional to its bytes.
    let frame = WindowFrame::<u64>::decode(&frame_around(2, &[&payload])).unwrap();
    let FrameBody::Dirty(patch) = frame.body else {
        panic!("a dirty frame");
    };
    assert_eq!((patch.rows(), patch.width()), (16, u32::MAX as usize));

    // A config record (a full frame's ring config, an `HKSK` payload's
    // first): 2 arrays of `width` buckets, 16+16 bits, no expansion.
    let config = |width: u32| {
        let mut c = ParallelTopK::<u64>::new(cfg(1)).to_wire()[10..41].to_vec();
        c[2..6].copy_from_slice(&width.to_le_bytes());
        c
    };
    // A few hundred bytes claiming a 6 GiB ring, its epoch included:
    // refused before any epoch is allocated.
    let frame = frame_around(0, &[&config(1 << 28), &empty_record(2, 1 << 28)]);
    assert!(frame.len() < 300, "{} bytes", frame.len());
    assert_eq!(
        WindowFrame::<u64>::decode(&frame).unwrap_err(),
        WireError::Corrupt("ring size")
    );
    // A 192 MiB ring whose one record claims 16 rows, 512 MiB: no epoch
    // of this ring grows past its 2 arrays, so the record is refused
    // before its epoch is built.
    let frame = frame_around(0, &[&config(1 << 23), &empty_record(16, 1 << 23)]);
    assert_eq!(
        WindowFrame::<u64>::decode(&frame).unwrap_err(),
        WireError::Corrupt("array count")
    );

    // A sketch payload of a few hundred bytes claiming 2 GiB of
    // buckets: refused before the sketch it describes is built.
    let sketch = sketch_around(&[&config(1 << 28), &empty_record(2, 1 << 28)]);
    assert!(sketch.len() < 300, "{} bytes", sketch.len());
    assert_eq!(
        ParallelTopK::<u64>::from_wire(&sketch).unwrap_err(),
        WireError::Corrupt("ring size")
    );
    // And a valid payload whose `k` claims 2^32 - 1 store slots decodes
    // without reserving them.
    let mut wide_k = config(64);
    wide_k[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    let wide_k = sketch_around(&[&wide_k, &empty_record(2, 64)]);
    let back = ParallelTopK::<u64>::from_wire(&wide_k).unwrap();
    assert_eq!(back.config().k, u32::MAX as usize);

    if let (Some(before), Some(after)) = (before, peak_rss()) {
        let grown = after.saturating_sub(before);
        assert!(
            grown < 64 << 20,
            "decoding raised peak RSS by {grown} bytes"
        );
    }
}

/// The records of a frame, whole: length, payload and checksum each.
fn records(frame: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < frame.len() {
        let len = u32::from_le_bytes(frame[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(&frame[pos..pos + 4 + len + 8]);
        pos += 4 + len + 8;
    }
    out
}

#[test]
fn record_from_another_ring_rejected() {
    // A full frame carries one ring config, so every epoch record must
    // be one that ring could have written. Splice a checksum-valid record
    // from elsewhere in as the second epoch of a W = 2 frame.
    let frame = populated(1, 2, 1).export_frame(0, 100);
    let ours = records(&frame);
    assert_eq!(ours.len(), 3, "the ring config and two epochs");
    let kept = frame.len() - ours[2].len();
    let splice = |foreign: &[u8]| [&frame[..kept], foreign].concat();
    assert!(WindowFrame::<u64>::decode(&splice(ours[2])).is_ok());

    // The first epoch of a ring of another geometry.
    let other = |cfg: HkConfigBuilder| {
        let mut win = SlidingTopK::<u64>::new(cfg.arrays(2).k(8).seed(1).build(), 2);
        win.insert_batch(&(0..500u64).collect::<Vec<_>>());
        win.export_frame(0, 100)
    };
    let wide = other(HkConfig::builder().width(128));
    let fp24 = other(HkConfig::builder().width(64).fingerprint_bits(24));
    // A patch against a real baseline (`base_rows > 0`) of our ring.
    let (_, [_, patch]) = populated_with_dirty(1, 3);
    for (foreign, error) in [
        (records(&wide)[1], "patch width"),
        (records(&fp24)[1], "fingerprint bytes"),
        (records(&patch)[0], "patch baseline"),
    ] {
        assert_eq!(
            WindowFrame::<u64>::decode(&splice(foreign)).unwrap_err(),
            WireError::Corrupt(error)
        );
    }
}

/// Content digest used by the protocol property tests (bucket words +
/// store, same comparison the telemetry differential makes).
fn digest(win: &SlidingTopK<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&win.rotations().to_le_bytes());
    out.push(win.live_epochs() as u8);
    for e in win.epoch_iter() {
        for j in 0..e.sketch().arrays() {
            for i in 0..e.sketch().width() {
                let b = e.sketch().bucket(j, i);
                out.extend_from_slice(&b.fp.to_le_bytes());
                out.extend_from_slice(&b.count.to_le_bytes());
            }
        }
        let mut store = e.top_k();
        store.sort_unstable();
        for (key, count) in store {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out
}

#[test]
fn protocol_survives_random_loss_dup_reorder() {
    // Property sweep: a switch runs 8 rotations, each exported against
    // the empty baseline (`export_delta`); the frames are delivered
    // through every kind of channel abuse (drop, duplicate, adjacent
    // swap) chosen by a seeded RNG. Invariants, per seed:
    // the replica never runs ahead of the switch, duplicates are
    // no-ops, and a final full snapshot always restores bit-exactness.
    for channel_seed in 0..20u64 {
        let mut rng = XorShift64::new(channel_seed * 77 + 1);
        let mut win = SlidingTopK::<u64>::new(cfg(4), 3);
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        coll.submit_window_frame(&win.export_frame(0, 1000))
            .unwrap();

        let mut state = 9u64;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for _ in 0..8 {
            for _ in 0..1000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                win.insert(&(state % 50));
            }
            win.rotate();
            frames.push(win.export_delta(0, 1000).unwrap());
        }

        // Channel: walk the frame list, sometimes dropping, sometimes
        // delivering twice, sometimes swapping with the next frame.
        let mut i = 0;
        while i < frames.len() {
            if rng.bernoulli(0.15) && i + 1 < frames.len() {
                frames.swap(i, i + 1);
            }
            if rng.bernoulli(0.25) {
                i += 1; // dropped
                continue;
            }
            let repeats = if rng.bernoulli(0.2) { 2 } else { 1 };
            for _ in 0..repeats {
                let before = digest(coll.switch_window(0).unwrap());
                let outcome = coll.submit_window_frame(&frames[i]).unwrap();
                let after = digest(coll.switch_window(0).unwrap());
                match outcome {
                    WindowSubmit::Duplicate | WindowSubmit::ResyncRequested => {
                        assert_eq!(before, after, "non-apply outcomes must not mutate");
                    }
                    _ => {}
                }
            }
            let replica = coll.switch_window(0).unwrap();
            assert!(
                replica.rotations() <= win.rotations(),
                "seed {channel_seed}: replica ran ahead"
            );
            i += 1;
        }

        // Whatever happened, one clean snapshot restores exactness.
        coll.submit_window_frame(&win.export_frame(0, 1000))
            .unwrap();
        assert!(coll.resync_needed().is_empty(), "seed {channel_seed}");
        assert_eq!(
            digest(coll.switch_window(0).unwrap()),
            digest(&win),
            "seed {channel_seed}: snapshot must restore bit-exactness"
        );
    }
}

#[test]
fn dirty_protocol_survives_random_loss_dup_reorder() {
    // The same sweep over the patch stream `export_dirty` produces (its
    // first frame against the empty baseline, every later one against
    // the previous export), facing drops, duplicates and adjacent
    // swaps. A lost patch poisons every later patch for that switch
    // until re-anchored — exactly what the rotation-id gating must
    // absorb without ever applying one against the wrong baseline.
    for channel_seed in 0..20u64 {
        let mut rng = XorShift64::new(channel_seed * 113 + 5);
        let mut win = SlidingTopK::<u64>::new(cfg(4), 3);
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        coll.submit_window_frame(&win.export_frame(0, 1000))
            .unwrap();

        let mut state = 9u64;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for _ in 0..8 {
            for _ in 0..1000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                win.insert(&(state % 50));
            }
            win.rotate();
            frames.push(win.export_dirty(0, 1000).expect("a closed epoch"));
        }

        let mut i = 0;
        while i < frames.len() {
            if rng.bernoulli(0.15) && i + 1 < frames.len() {
                frames.swap(i, i + 1);
            }
            if rng.bernoulli(0.25) {
                i += 1; // dropped
                continue;
            }
            let repeats = if rng.bernoulli(0.2) { 2 } else { 1 };
            for _ in 0..repeats {
                let before = digest(coll.switch_window(0).unwrap());
                let outcome = coll.submit_window_frame(&frames[i]).unwrap();
                let after = digest(coll.switch_window(0).unwrap());
                match outcome {
                    WindowSubmit::Duplicate | WindowSubmit::ResyncRequested => {
                        assert_eq!(before, after, "non-apply outcomes must not mutate");
                    }
                    _ => {}
                }
            }
            let replica = coll.switch_window(0).unwrap();
            assert!(
                replica.rotations() <= win.rotations(),
                "seed {channel_seed}: replica ran ahead"
            );
            i += 1;
        }

        // Whatever happened, one clean snapshot restores exactness.
        coll.submit_window_frame(&win.export_frame(0, 1000))
            .unwrap();
        assert!(coll.resync_needed().is_empty(), "seed {channel_seed}");
        assert_eq!(
            digest(coll.switch_window(0).unwrap()),
            digest(&win),
            "seed {channel_seed}: snapshot must restore bit-exactness"
        );
    }
}

#[test]
fn in_sequence_prefix_is_bit_exact_prefix_of_history() {
    // Deliver deltas 1..=k in order for every k: after each, the
    // replica equals the switch's state at that rotation (recorded via
    // clone as the stream advances).
    let mut win = SlidingTopK::<u64>::new(cfg(6), 3);
    let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
    coll.submit_window_frame(&win.export_frame(0, 500)).unwrap();
    let mut state = 3u64;
    for _ in 0..6 {
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            win.insert(&(state % 30));
        }
        win.rotate();
        let snapshot_digest = digest(&win);
        assert_eq!(
            coll.submit_window_frame(&win.export_delta(0, 500).unwrap())
                .unwrap(),
            WindowSubmit::Applied
        );
        assert_eq!(
            digest(coll.switch_window(0).unwrap()),
            snapshot_digest,
            "replica must match the switch at every rotation"
        );
    }
}

#[test]
fn stale_full_snapshot_does_not_rewind() {
    let mut win = SlidingTopK::<u64>::new(cfg(8), 2);
    let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
    coll.submit_window_frame(&win.export_frame(0, 100)).unwrap();
    let old_snapshot = win.export_frame(0, 100);
    win.insert_batch(&vec![5u64; 300]);
    win.rotate();
    coll.submit_window_frame(&win.export_delta(0, 100).unwrap())
        .unwrap();
    let before = digest(coll.switch_window(0).unwrap());
    // The reordered, stale snapshot arrives late: dropped.
    assert_eq!(
        coll.submit_window_frame(&old_snapshot).unwrap(),
        WindowSubmit::Duplicate
    );
    assert_eq!(digest(coll.switch_window(0).unwrap()), before);
}

/// `frame`, a dirty frame, with one byte appended to its record and the
/// length and checksum fixed to match: it passes its checksum, but the
/// record runs on past its store, which only a walk of it can see.
fn with_trailing_record_byte(frame: &[u8]) -> Vec<u8> {
    let record = records(frame)[0];
    let mut payload = record[4..record.len() - 8].to_vec();
    payload.push(0);
    let mut out = frame[..HEADER_LEN].to_vec();
    push_record(&mut out, &payload);
    out
}

#[test]
fn malformed_dirty_frame_refused_in_every_arrival_order() {
    // Switch 0's dirty frames for rotations 1..=5, indexed by rotation;
    // the collector applies 1..=3.
    let mut win = SlidingTopK::<u64>::new(cfg(4), 3);
    let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
    coll.submit_window_frame(&win.export_frame(0, 2000))
        .unwrap();
    let mut frames = vec![Vec::new()];
    for r in 1..=5u64 {
        win.insert_batch(&(0..2000u64).map(|i| (i * i + r) % 700).collect::<Vec<_>>());
        win.rotate();
        frames.push(win.export_dirty(0, 2000).expect("a closed epoch"));
    }
    for frame in &frames[1..=3] {
        assert_eq!(
            coll.submit_window_frame(frame).unwrap(),
            WindowSubmit::Applied
        );
    }
    let before = digest(coll.switch_window(0).unwrap());
    let mut no_snapshot = with_trailing_record_byte(&frames[4]);
    no_snapshot[7..15].copy_from_slice(&9u64.to_le_bytes()); // switch id
    let refused = WindowSubmitError::Wire(WireError::Corrupt("trailing bytes"));

    // A duplicate, a gap, and a frame before any snapshot are walked
    // before anything else: each is refused and leaves no trace. It is
    // counted once, the replica and the clock stand still, and nothing
    // is buffered or flagged.
    for (frame, order) in [
        (with_trailing_record_byte(&frames[3]), "duplicate"),
        (with_trailing_record_byte(&frames[5]), "gap"),
        (no_snapshot, "before any snapshot"),
    ] {
        let rejected = coll.window_frames_rejected();
        assert_eq!(coll.submit_window_frame(&frame), Err(refused), "{order}");
        assert_eq!(coll.window_frames_rejected(), rejected + 1, "{order}");
        assert_eq!(digest(coll.switch_window(0).unwrap()), before, "{order}");
        assert!(coll.resync_needed().is_empty(), "{order}");
        assert!(coll.stale_switches(0).is_empty(), "{order}");
    }

    // The next rotation is walked by its apply alone. It is refused
    // the same way and the replica is left bit-identical, but its
    // rotation was seen and not applied, so the switch is flagged.
    let rejected = coll.window_frames_rejected();
    assert_eq!(
        coll.submit_window_frame(&with_trailing_record_byte(&frames[4])),
        Err(refused)
    );
    assert_eq!(coll.window_frames_rejected(), rejected + 1);
    assert_eq!(digest(coll.switch_window(0).unwrap()), before);
    assert_eq!(coll.resync_needed(), vec![0]);
}
