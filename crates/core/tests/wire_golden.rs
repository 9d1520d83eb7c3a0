//! Golden wire bytes: the window-frame encoders and `to_wire` must keep
//! producing the *exact* bytes they produced when these digests were
//! recorded.
//!
//! All six digests were re-recorded at frame v7, when each record's
//! 4-byte CRC-32 trailer became its 8-byte xxHash64. With the trailers
//! stripped and the version byte reset, every frame equals its v6
//! bytes: v6 had made full frames the ring config plus one
//! empty-baseline record per live epoch, and put stores in canonical
//! order (count descending, then key bytes). Each case streams the
//! recorded packets through a `W = 4` window, then folds three frames
//! through FNV-1a:
//!
//! * `export_frame` — the full snapshot of every live epoch;
//! * `export_dirty` — a patch against a real baseline (`base_rows > 0`);
//! * `export_delta` — the same closed epoch against the empty baseline.
//!
//! Two widths: 256 (whole bitmap words) and 1,000, which is not a
//! multiple of 64, so the last bitmap word of every row has a tail
//! that must stay zero. The v2 `HKSK` payload of `to_wire` is pinned
//! for the same stream at width 256, and at width 64 after Section III-F
//! growth. Any change to these bytes is a wire change: a digest is
//! re-recorded only together with a version bump of the format it pins.

use heavykeeper::sliding::SlidingTopK;
use heavykeeper::wire::{FrameBody, WindowFrame};
use heavykeeper::{ExpansionPolicy, HkConfig, ParallelTopK};
use hk_common::TopKAlgorithm;

const EPOCH_PACKETS: u32 = 3_000;
const ROTATIONS: u64 = 5;

/// The recorded stream for one epoch: a xorshift mix of recurring
/// elephants (a third), a per-epoch band of medium flows, and mice.
fn epoch_stream(state: &mut u64, epoch: u64) -> Vec<u64> {
    (0..EPOCH_PACKETS)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            match *state % 3 {
                0 => *state % 10,
                1 => 100 + epoch * 40 + *state % 60,
                _ => 10_000 + *state % 4_000,
            }
        })
        .collect()
}

/// A `W = 4` window of the given width after the recorded stream.
fn recorded_window(width: usize) -> SlidingTopK<u64> {
    let cfg = HkConfig::builder()
        .arrays(2)
        .width(width)
        .k(16)
        .seed(41)
        .build();
    let mut win = SlidingTopK::<u64>::new(cfg, 4);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for epoch in 0..=ROTATIONS {
        win.insert_batch(&epoch_stream(&mut state, epoch));
        if epoch < ROTATIONS {
            win.rotate();
        }
    }
    win
}

/// FNV-1a over the frame's bytes, paired with its length.
fn digest(frame: &[u8]) -> (u64, usize) {
    let h = frame.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    (h, frame.len())
}

/// `(digest, length)` of each frame, recorded at frame v7.
struct Golden {
    full: (u64, usize),
    dirty: (u64, usize),
    delta: (u64, usize),
}

const GOLDEN_W256: Golden = Golden {
    full: (0xa316_cab5_88df_e8fb, 7_084),
    dirty: (0x96ff_d882_02d3_ad89, 1_687),
    delta: (0x9786_9a1e_3df3_3cdd, 1_790),
};

const GOLDEN_W1000: Golden = Golden {
    full: (0xea12_6c57_34b0_7009, 16_157),
    dirty: (0x39ee_455b_006c_7544, 4_736),
    delta: (0x14be_cf93_a6be_0ddf, 4_112),
};

fn run_case(width: usize, golden: &Golden) {
    let win = recorded_window(width);
    let full = win.export_frame(7, EPOCH_PACKETS);
    let dirty = win.export_dirty(7, EPOCH_PACKETS).expect("a closed epoch");
    let delta = win.export_delta(7, EPOCH_PACKETS).expect("a closed epoch");

    // The dirty frame must be a patch against a real baseline, or the
    // case would not cover the XOR arm of the encoder.
    let FrameBody::Dirty(patch) = WindowFrame::<u64>::decode(&dirty)
        .expect("dirty frame decodes")
        .body
    else {
        panic!("a dirty frame carries a patch");
    };
    assert!(
        patch.base_rows() > 0,
        "width {width}: dirty frame has no baseline"
    );

    assert_eq!(
        digest(&full),
        golden.full,
        "width {width}: export_frame bytes changed"
    );
    assert_eq!(
        digest(&dirty),
        golden.dirty,
        "width {width}: export_dirty bytes changed"
    );
    assert_eq!(
        digest(&delta),
        golden.delta,
        "width {width}: export_delta bytes changed"
    );
}

#[test]
fn frames_match_recorded_bytes_at_width_256() {
    run_case(256, &GOLDEN_W256);
}

#[test]
fn frames_match_recorded_bytes_at_width_1000() {
    run_case(1_000, &GOLDEN_W1000);
}

/// `(digest, length)` of `to_wire` after the recorded stream, recorded
/// at `HKSK` v2: width 256, and width 64 grown to 4 arrays.
const GOLDEN_SKETCHES: [(u64, usize); 2] = [
    (0x3358_96bd_aa02_6ebe, 1_856),
    (0xb6c3_a5a7_8dcf_4ce9, 1_088),
];

#[test]
fn sketch_payloads_match_recorded_bytes() {
    let grow = ExpansionPolicy {
        large_counter: 50,
        blocked_threshold: 100,
        max_arrays: 6,
    };
    let builder = |width| HkConfig::builder().arrays(2).width(width).k(16).seed(41);
    let cases = [(builder(256), 2), (builder(64).expansion(grow), 4)];
    for ((cfg, rows), golden) in cases.into_iter().zip(GOLDEN_SKETCHES) {
        let mut hk = ParallelTopK::<u64>::new(cfg.build());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for epoch in 0..=ROTATIONS {
            hk.insert_batch(&epoch_stream(&mut state, epoch));
        }
        assert_eq!(hk.sketch().arrays(), rows, "growth precondition");
        assert_eq!(digest(&hk.to_wire()), golden, "{rows}-row sketch changed");
    }
}
