//! The collector's batch submission against one-by-one submission.
//!
//! [`Collector::submit_window_frames`] parses a batch, groups it by
//! switch, runs the groups side by side and then ticks the staleness
//! clock in one ordered pass. Its contract is that a batch leaves the
//! collector exactly as submitting the same frames one by one through
//! [`Collector::submit_window_frame`] does. Seeded random frame
//! sequences over four switches exercise every outcome: in-sequence
//! dirty frames, full snapshots and duplicates, gaps and late fills,
//! dirty frames before any snapshot, window and width mismatches,
//! checksum-valid frames whose apply fails or whose pre-stamp walk
//! refuses them, corrupted bytes, several frames of one switch in one
//! batch, and evictions between batches. After every batch the two
//! collectors must agree on each frame's result, the resync flags,
//! `stale_switches(n)` for `n` in `0..=8`, the rejection count, every
//! replica bit for bit, and the windowed top-k.
//!
//! The epochs are sized so that a batch's dirty bytes usually clear the
//! collector's threshold for spreading the groups over threads.

use heavykeeper::collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
use heavykeeper::sliding::SlidingTopK;
use heavykeeper::wire::{FrameBody, WindowFrame};
use heavykeeper::HkConfig;
use hk_common::prng::XorShift64;
use hk_common::TopKAlgorithm;

const SWITCHES: u64 = 4;
const WINDOW: usize = 3;
const ROTATIONS: usize = 8;
const BUDGET: u32 = 12_000;

fn cfg(width: usize) -> HkConfig {
    HkConfig::builder()
        .arrays(2)
        .width(width)
        .k(16)
        .seed(5)
        .build()
}

/// Every frame one ring exported: its full frame at each rotation
/// `0..=ROTATIONS`, and its dirty frame for each rotation `1..=ROTATIONS`
/// (index 0 unused).
struct Exports {
    full: Vec<Vec<u8>>,
    dirty: Vec<Vec<u8>>,
}

fn exports(switch: u64, width: usize, window: usize, seed: u64) -> Exports {
    let mut rng = XorShift64::new(seed);
    let mut win = SlidingTopK::<u64>::new(cfg(width), window);
    let mut full = vec![win.export_frame(switch, BUDGET)];
    let mut dirty = vec![Vec::new()];
    for _ in 0..ROTATIONS {
        let batch: Vec<u64> = (0..BUDGET)
            .map(|_| {
                let x = rng.next_u64_raw();
                if x.is_multiple_of(4) {
                    x % 12
                } else {
                    100 + x % 40_000
                }
            })
            .collect();
        win.insert_batch(&batch);
        win.rotate();
        full.push(win.export_frame(switch, BUDGET));
        dirty.push(win.export_dirty(switch, BUDGET).expect("a closed epoch"));
    }
    Exports { full, dirty }
}

/// Offset of the first record in a window frame (see the wire.rs
/// frame diagram).
const HEADER_LEN: usize = 31;

/// `frame`, a dirty frame, with one byte appended to its record and the
/// length and checksum fixed to match: it passes its checksum, but the
/// record runs on past its store, which only a walk of it can see.
fn with_trailing_record_byte(frame: &[u8]) -> Vec<u8> {
    let len = u32::from_le_bytes(frame[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
    let mut payload = frame[HEADER_LEN + 4..HEADER_LEN + 4 + len].to_vec();
    payload.push(0);
    let mut out = frame[..HEADER_LEN].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&hk_common::hash::xxhash64(&payload, 0).to_le_bytes());
    out
}

/// The replica's content, bucket words and store entries included.
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

/// Everything a caller can observe of the windowed plane.
fn observe(coll: &Collector<u64>) -> String {
    let stale: Vec<Vec<u64>> = (0..=8).map(|n| coll.stale_switches(n)).collect();
    let replicas: Vec<(u64, u64)> = coll
        .window_switches()
        .into_iter()
        .map(|id| {
            let d = digest(coll.switch_window(id).unwrap());
            (id, hk_common::hash::xxhash64(&d, 0))
        })
        .collect();
    format!(
        "resync {:?}\nstale {stale:?}\nrejected {}\nreplicas {replicas:?}\ntop {:?}",
        coll.resync_needed(),
        coll.window_frames_rejected(),
        coll.window_top_k(),
    )
}

/// A frame on the wire, labelled for the staleness-clock model.
struct Sent {
    bytes: Vec<u8>,
    switch: u64,
    /// The rotation of a checksum-valid frame whose record is malformed
    /// ([`with_trailing_record_byte`]): it ticks the clock only when it
    /// is the replica's next rotation, whose apply is its only walk.
    malformed: Option<u64>,
}

/// One switch's frame stream: mostly its dirty frames in sequence, with
/// channel and protocol abuse mixed in at random.
fn switch_stream(
    switch: u64,
    rng: &mut XorShift64,
    own: &Exports,
    foreign: &[Exports],
) -> Vec<Sent> {
    let mut out = Vec::new();
    let mut send = |bytes: Vec<u8>, malformed: Option<usize>| {
        let malformed = malformed.map(|r| r as u64);
        out.push(Sent {
            bytes,
            switch,
            malformed,
        });
    };
    // The last switch starts without a snapshot: its first dirty
    // frames arrive before any.
    if switch + 1 < SWITCHES {
        send(own.full[0].clone(), None);
    }
    let mut skipped: Vec<usize> = Vec::new();
    for next in 1..=ROTATIONS {
        let earlier = 1 + rng.next_u64_raw() as usize % next;
        match rng.next_u64_raw() % 12 {
            // A gap: this rotation's frame is held back, maybe for good.
            0 => {
                skipped.push(next);
                continue;
            }
            // A late fill of an earlier gap.
            1 => {
                if let Some(r) = skipped.pop() {
                    send(own.dirty[r].clone(), None);
                }
            }
            // A duplicate of a frame already sent (or about to be).
            2 => send(own.dirty[earlier].clone(), None),
            // A full snapshot of the ring as it stands.
            3 => send(own.full[next - 1].clone(), None),
            // Checksum-valid but malformed: the in-sequence one fails
            // its apply (and ticks); a duplicate or gap is refused by
            // the walk before the stamp (and does not tick).
            4 => send(with_trailing_record_byte(&own.dirty[next]), Some(next)),
            5 => send(
                with_trailing_record_byte(&own.dirty[earlier]),
                Some(earlier),
            ),
            // Corrupted bytes: the checksum fails at parse.
            6 => {
                let mut bad = own.dirty[next].clone();
                let at = HEADER_LEN + 4 + rng.next_u64_raw() as usize % 64;
                bad[at] ^= 0x20;
                send(bad, None);
            }
            // Another ring's frame under this switch's id: a different
            // width, or a different window.
            7 => {
                let other = &foreign[rng.next_u64_raw() as usize % foreign.len()];
                send(other.dirty[next].clone(), None);
            }
            _ => {}
        }
        send(own.dirty[next].clone(), None);
    }
    // A final snapshot now and then, so evicted or gapped switches
    // come back.
    if rng.next_u64_raw().is_multiple_of(2) {
        send(own.full[ROTATIONS].clone(), None);
    }
    out
}

/// The switches' streams interleaved at random, each kept in order.
fn interleave(mut streams: Vec<Vec<Sent>>, rng: &mut XorShift64) -> Vec<Sent> {
    for s in &mut streams {
        s.reverse();
    }
    let mut out = Vec::new();
    loop {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| !streams[i].is_empty())
            .collect();
        if live.is_empty() {
            return out;
        }
        let pick = live[rng.next_u64_raw() as usize % live.len()];
        out.push(streams[pick].pop().unwrap());
    }
}

/// The staleness clock as the protocol defines it, kept beside the
/// one-by-one collector: a fault shared by both submission paths (the
/// one-by-one call is the batch of one) shows against it.
#[derive(Default)]
struct ClockModel {
    clock: u64,
    last: std::collections::BTreeMap<u64, u64>,
}

impl ClockModel {
    /// Submits `sent` to `coll` and advances the model: every frame that
    /// parses ticks, except a malformed one that is not the replica's
    /// next rotation, and the tick stamps the switch's replica.
    fn submit(
        &mut self,
        coll: &mut Collector<u64>,
        sent: &Sent,
    ) -> Result<WindowSubmit, WindowSubmitError> {
        let ticks = match sent.malformed {
            None => WindowFrame::<u64>::decode(&sent.bytes).is_ok(),
            Some(r) => coll
                .switch_window(sent.switch)
                .is_some_and(|w| w.rotations() + 1 == r),
        };
        let out = coll.submit_window_frame(&sent.bytes);
        self.clock += u64::from(ticks);
        if ticks && coll.switch_window(sent.switch).is_some() {
            self.last.insert(sent.switch, self.clock);
        }
        out
    }

    fn evict(&mut self, switch: u64) {
        self.last.remove(&switch);
    }

    fn stale(&self, max_idle: u64) -> Vec<u64> {
        let idle = |&(_, &last): &(&u64, &u64)| self.clock - last > max_idle;
        self.last.iter().filter(idle).map(|(&id, _)| id).collect()
    }
}

#[test]
fn batches_leave_the_collector_as_one_by_one_submission_does() {
    let rings: Vec<Exports> = (0..SWITCHES)
        .map(|s| exports(s, 8_192, WINDOW, 11 + s))
        .collect();
    let foreign: Vec<[Exports; 2]> = (0..SWITCHES)
        .map(|s| {
            [
                exports(s, 4_096, WINDOW, 90 + s),
                exports(s, 8_192, WINDOW + 1, 70 + s),
            ]
        })
        .collect();
    let mut outcomes = std::collections::HashSet::new();
    let mut spread_batches = 0;
    for seed in 1..=6u64 {
        let mut rng = XorShift64::new(seed * 0x9E37);
        let streams: Vec<Vec<Sent>> = (0..SWITCHES)
            .map(|s| switch_stream(s, &mut rng, &rings[s as usize], &foreign[s as usize]))
            .collect();
        let frames = interleave(streams, &mut rng);

        let mut batched = Collector::<u64>::new(16, AggregationRule::Sum);
        let mut single = Collector::<u64>::new(16, AggregationRule::Sum);
        let mut model = ClockModel::default();
        let mut at = 0;
        while at < frames.len() {
            if rng.next_u64_raw().is_multiple_of(7) {
                let victim = rng.next_u64_raw() % SWITCHES;
                assert_eq!(batched.evict_switch(victim), single.evict_switch(victim));
                model.evict(victim);
            }
            let len = (1 + rng.next_u64_raw() as usize % 8).min(frames.len() - at);
            let sent = &frames[at..at + len];
            let batch: Vec<&[u8]> = sent.iter().map(|f| f.bytes.as_slice()).collect();
            let dirty_bytes: usize = batch
                .iter()
                .filter(|f| {
                    let frame = WindowFrame::<u64>::decode(f);
                    matches!(frame.map(|f| f.body), Ok(FrameBody::Dirty(_)))
                })
                .map(|f| f.len())
                .sum();
            spread_batches += usize::from(dirty_bytes >= 128 << 10);
            let got = batched.submit_window_frames(&batch);
            let want: Vec<_> = sent.iter().map(|f| model.submit(&mut single, f)).collect();
            let tag = format!("seed {seed}, frames {at}..{}", at + len);
            assert_eq!(got, want, "{tag}");
            assert_eq!(observe(&batched), observe(&single), "{tag}");
            for n in 0..=8 {
                assert_eq!(single.stale_switches(n), model.stale(n), "{tag}, idle {n}");
            }
            for out in want {
                outcomes.insert(match out {
                    Ok(WindowSubmit::Snapshot) => "snapshot",
                    Ok(WindowSubmit::Applied) => "applied",
                    Ok(WindowSubmit::Duplicate) => "duplicate",
                    Ok(WindowSubmit::ResyncRequested) => "gap",
                    Err(WindowSubmitError::Wire(_)) => "wire",
                    Err(WindowSubmitError::Mismatch { .. }) => "mismatch",
                    Err(WindowSubmitError::NoSnapshot { .. }) => "no snapshot",
                });
            }
            at += len;
        }
    }
    assert_eq!(outcomes.len(), 7, "every outcome occurs: {outcomes:?}");
    assert!(spread_batches > 0, "no batch was large enough to spread");
}

#[test]
fn an_empty_batch_changes_nothing() {
    let ring = exports(0, 256, WINDOW, 3);
    let mut coll = Collector::<u64>::new(16, AggregationRule::Sum);
    coll.submit_window_frame(&ring.full[0]).unwrap();
    let before = observe(&coll);
    assert!(coll.submit_window_frames(&[]).is_empty());
    assert_eq!(observe(&coll), before);
}
