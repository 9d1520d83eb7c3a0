//! Wire serialization: shipping a HeavyKeeper to the collector.
//!
//! Footnote 2's deployment has switches *send their sketches* to a
//! collector every period. [`ParallelTopK::to_wire`] /
//! [`ParallelTopK::from_wire`] implement that hop: a compact,
//! self-describing binary encoding of the configuration, the bucket
//! matrix, and the top-k store, suitable for a UDP report or an RPC
//! payload.
//!
//! ```text
//! magic "HKSK" | version u8 | key_len u8 |
//! config: arrays u16 | width u32 | k u32 | fp_bits u8 | ctr_bits u8 |
//!         seed u64 | decay tag u8 + param f64 | store kind u8 (0) |
//!         expansion flag u8 [+ large u64 + blocked u64 + max u16]
//! buckets: arrays × width × (fp u32 | count u64)
//! store:   n u32, then n × (key bytes | count u64)
//! ```
//!
//! The decoded instance queries and merges identically to the original
//! (bucket state and store entries are bit-preserved). Two pieces of
//! *transient* state are intentionally not shipped: the decay RNG
//! position (the decoded sketch re-seeds from the config, which affects
//! reproducibility of *future* inserts, never correctness) and the
//! Section III-F blocked counter (restarts at 0; arrays already added
//! by expansion are preserved because the encoded config carries the
//! *current* array count).

use crate::config::{ExpansionPolicy, HkConfig};
use crate::decay::DecayFn;
use crate::parallel::ParallelTopK;
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;

const MAGIC: &[u8; 4] = b"HKSK";
const VERSION: u8 = 1;

/// Why a wire payload could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload does not start with the `HKSK` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Payload ends before a required field.
    Truncated,
    /// A field holds an impossible value (named for diagnostics).
    Corrupt(&'static str),
    /// The payload's key width does not match the requested key type,
    /// or the key type does not implement `from_key_bytes`.
    KeyMismatch,
    /// An epoch payload's CRC-32 does not match its bytes (window
    /// frames checksum every epoch record).
    BadCrc {
        /// Index of the failing epoch record within the frame.
        epoch: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a HKSK payload"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::Truncated => write!(f, "wire payload truncated"),
            Self::Corrupt(what) => write!(f, "corrupt field: {what}"),
            Self::KeyMismatch => write!(f, "key type does not match payload"),
            Self::BadCrc { epoch } => write!(f, "epoch record {epoch} fails its CRC"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian cursor over a wire payload.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn encode_decay(out: &mut Vec<u8>, decay: DecayFn) {
    let (tag, param) = match decay {
        DecayFn::Exponential { b } => (0u8, b),
        DecayFn::Polynomial { b } => (1, b),
        DecayFn::Sigmoid { lambda } => (2, lambda),
    };
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
}

fn decode_decay(r: &mut Reader<'_>) -> Result<DecayFn, WireError> {
    let tag = r.u8()?;
    let param = r.f64()?;
    if !param.is_finite() {
        return Err(WireError::Corrupt("decay parameter"));
    }
    match tag {
        0 if param > 1.0 => Ok(DecayFn::Exponential { b: param }),
        1 if param > 0.0 => Ok(DecayFn::Polynomial { b: param }),
        2 if param > 0.0 => Ok(DecayFn::Sigmoid { lambda: param }),
        0..=2 => Err(WireError::Corrupt("decay parameter range")),
        _ => Err(WireError::Corrupt("decay tag")),
    }
}

impl<K: FlowKey> ParallelTopK<K> {
    /// Serializes this instance for shipping to a collector.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.wire_into(&mut out);
        out
    }

    /// [`ParallelTopK::to_wire`], appended to an existing buffer — the
    /// windowed frame encoder streams every epoch payload straight into
    /// the frame through this, with no intermediate per-epoch `Vec`.
    pub(crate) fn wire_into(&self, out: &mut Vec<u8>) {
        let sketch = self.sketch();
        let cfg = self.config();
        // Canonical store order (count desc, ties on key bytes): the
        // store's internal tie order is admission-history dependent, and
        // a checkpoint round trip replays admissions in a different
        // order — encoding must not depend on it, or restored state
        // would re-encode to different bytes.
        let mut top = self.top_k();
        top.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
        });
        out.reserve(32 + sketch.arrays() * sketch.width() * 12 + top.len() * (K::ENCODED_LEN + 8));
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(K::ENCODED_LEN as u8);

        // Config, with `arrays` reflecting the *current* matrix so that
        // Section III-F growth survives the round trip.
        out.extend_from_slice(&(sketch.arrays() as u16).to_le_bytes());
        out.extend_from_slice(&(sketch.width() as u32).to_le_bytes());
        out.extend_from_slice(&(cfg.k as u32).to_le_bytes());
        out.push(cfg.fingerprint_bits as u8);
        out.push(cfg.counter_bits as u8);
        out.extend_from_slice(&cfg.seed.to_le_bytes());
        encode_decay(out, cfg.decay);
        // The store-kind byte: 0 is Stream-Summary, the only store.
        out.push(0);
        match cfg.expansion {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.large_counter.to_le_bytes());
                out.extend_from_slice(&p.blocked_threshold.to_le_bytes());
                out.extend_from_slice(&(p.max_arrays as u16).to_le_bytes());
            }
        }

        // Bucket matrix, streamed row by row over the packed row views.
        for j in 0..sketch.arrays() {
            let layout = sketch.matrix().layout();
            for &word in sketch.matrix().row(j) {
                let b = layout.unpack(word);
                out.extend_from_slice(&b.fp.to_le_bytes());
                out.extend_from_slice(&b.count.to_le_bytes());
            }
        }

        // Top-k store.
        out.extend_from_slice(&(top.len() as u32).to_le_bytes());
        for (key, count) in &top {
            out.extend_from_slice(key.key_bytes().as_slice());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }

    /// Reconstructs an instance from [`ParallelTopK::to_wire`] bytes.
    ///
    /// The key type `K` must match the one encoded (width-checked) and
    /// must implement [`FlowKey::from_key_bytes`].
    pub fn from_wire(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        if r.u8()? as usize != K::ENCODED_LEN {
            return Err(WireError::KeyMismatch);
        }

        let arrays = r.u16()? as usize;
        let width = r.u32()? as usize;
        let k = r.u32()? as usize;
        let fp_bits = r.u8()? as u32;
        let ctr_bits = r.u8()? as u32;
        let seed = r.u64()?;
        let decay = decode_decay(&mut r)?;
        if r.u8()? != 0 {
            return Err(WireError::Corrupt("store kind"));
        }
        let expansion = match r.u8()? {
            0 => None,
            1 => Some(ExpansionPolicy {
                large_counter: r.u64()?,
                blocked_threshold: r.u64()?,
                max_arrays: r.u16()? as usize,
            }),
            _ => return Err(WireError::Corrupt("expansion flag")),
        };
        if arrays == 0 || arrays > crate::sketch::MAX_ARRAYS {
            return Err(WireError::Corrupt("array count"));
        }
        if width == 0 || k == 0 {
            return Err(WireError::Corrupt("width/k"));
        }
        if fp_bits == 0 || fp_bits > 32 || ctr_bits == 0 || ctr_bits >= 64 {
            return Err(WireError::Corrupt("field widths"));
        }
        if fp_bits + ctr_bits > 64 {
            // The packed bucket word cannot hold both fields; reject
            // instead of letting the config constructor panic.
            return Err(WireError::Corrupt("field widths"));
        }
        // The matrix is allocated before it is read, so the payload must
        // be able to hold it first: 12 bytes per bucket plus the store
        // count. A short header cannot make the decoder build a sketch
        // of the size it merely claims.
        let needed = arrays
            .checked_mul(width)
            .and_then(|n| n.checked_mul(12))
            .and_then(|n| n.checked_add(4))
            .ok_or(WireError::Truncated)?;
        if data.len() - r.pos < needed {
            return Err(WireError::Truncated);
        }

        let mut builder = HkConfig::builder()
            .arrays(arrays)
            .width(width)
            .k(k)
            .fingerprint_bits(fp_bits)
            .counter_bits(ctr_bits)
            .seed(seed)
            .decay(decay);
        if let Some(p) = expansion {
            builder = builder.expansion(p);
        }
        let mut hk = ParallelTopK::<K>::new(builder.build());

        // Bucket matrix.
        let counter_max = hk.sketch().counter_max();
        let fp_max = if fp_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fp_bits) - 1
        };
        for j in 0..arrays {
            for i in 0..width {
                let mut cell = Reader {
                    data: r.take(12)?,
                    pos: 0,
                };
                let fp = cell.u32()?;
                let count = cell.u64()?;
                if fp > fp_max {
                    return Err(WireError::Corrupt("bucket fingerprint"));
                }
                if count > counter_max {
                    return Err(WireError::Corrupt("bucket counter"));
                }
                if count == 0 && fp != 0 {
                    return Err(WireError::Corrupt("empty bucket with fingerprint"));
                }
                hk.sketch_mut()
                    .set_bucket(j, i, crate::bucket::Bucket { fp, count });
            }
        }

        // Top-k store, re-offered largest-first so admissions succeed.
        let n = r.u32()? as usize;
        if n > k {
            return Err(WireError::Corrupt("store size"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let kb = r.take(K::ENCODED_LEN)?;
            let key = K::from_key_bytes(kb).ok_or(WireError::KeyMismatch)?;
            let count = r.u64()?;
            entries.push((key, count));
        }
        if r.pos != data.len() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        entries.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for (key, count) in entries {
            if count == 0 {
                return Err(WireError::Corrupt("zero store count"));
            }
            hk.offer(key, count);
        }
        Ok(hk)
    }
}

// ---------------------------------------------------------------------
// The windowed telemetry frame (epoch-ring framing).
//
// A sliding-window deployment cannot ship its state as one v1 sketch:
// the measurement unit is a ring of W epoch sketches plus a rotation
// counter, and steady-state export should not pay O(W · sketch) per
// period when only one epoch changed. The frame carries two shapes
// under one header:
//
// ```text
// magic "HKWF" | version u8 (2 full, 4 dirty) | kind u8 (0 full / 2 dirty) |
// key_len u8 | switch_id u64 | rotation u64 | window u16 | live u16 |
// epoch_packets u32
// then `live` records, oldest -> newest:
//   payload_len u32 | payload | crc32 u32
// ```
//
// * **Full** frames (v2) carry every live epoch (the accumulating
//   newest included) as v1 "HKSK" payloads — the initial snapshot, the
//   resync path and the sliding-window checkpoint.
// * **Dirty** frames (v4) carry exactly one "HKDP" record: the epoch
//   *closed* by rotation number `rotation`, expressed as a patch
//   against an explicit baseline:
//
//   ```text
//   magic "HKDP" | base_rows varint | rows varint | width varint |
//   rows × (changed-bucket bitmap, RLE | changed words: old XOR new, varint) |
//   store: n varint, then n × (key bytes | count varint)
//   ```
//
//   `base_rows = 0` names the empty baseline: the record carries the
//   whole closed epoch and needs no earlier export (the first rotation,
//   every rotation of a `W = 2` ring, the first after the ring is
//   rebuilt or rewritten, `export_delta`). `base_rows > 0` names the
//   epoch closed by `rotation - 1`, which had that many rows; the
//   exporter reads it from its own ring, two behind the newest epoch.
//   Against it the cost is O(changed buckets), which is small when
//   flows recur from one epoch to the next.
//
// Kind 1 (the retired v2 delta, which re-shipped the closed epoch as a
// whole v1 sketch) and v3 dirty records (no baseline field) no longer
// decode. Every record is CRC-32-checksummed independently, so
// corruption is detected before any expensive decode. The collector
// applies a dirty frame of rotation R only on top of state at rotation
// R-1, treats R ≤ current as a duplicate (idempotent drop) and
// R > current+1 as a gap that flags the switch for resync.
// ---------------------------------------------------------------------

/// Magic prefix of a windowed telemetry frame.
const FRAME_MAGIC: &[u8; 4] = b"HKWF";
/// Wire version of full window frames.
const FRAME_VERSION: u8 = 2;
/// Wire version of dirty-patch window frames ([`FrameKind::Dirty`]).
const DIRTY_FRAME_VERSION: u8 = 4;
/// Magic prefix of a dirty-patch record payload (where full records
/// carry v1 "HKSK" sketches).
const DIRTY_MAGIC: &[u8; 4] = b"HKDP";

/// Whether a window frame is a full snapshot or a dirty-bucket patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Every live epoch of the ring (snapshot / resync / checkpoint).
    Full,
    /// The epoch closed by `rotation` as a changed-buckets patch
    /// against an explicit baseline: the epoch closed by
    /// `rotation - 1`, or nothing ([`DirtyPatch::base_rows`]).
    Dirty,
}

impl FrameKind {
    /// The `(version, kind)` header bytes of this kind.
    fn header_bytes(self) -> (u8, u8) {
        match self {
            Self::Full => (FRAME_VERSION, 0),
            Self::Dirty => (DIRTY_FRAME_VERSION, 2),
        }
    }
}

/// A decoded windowed telemetry frame: one switch's epoch-ring state
/// (or its newest closed epoch) plus the metadata the collector needs
/// to reassemble the ring.
#[derive(Debug, Clone)]
pub struct WindowFrame<K: FlowKey> {
    /// Which switch exported the frame (assigned by the deployment).
    pub switch_id: u64,
    /// The switch's rotation counter at export time. For a dirty frame
    /// this is the rotation that closed the carried epoch.
    pub rotation: u64,
    /// The ring size `W` the switch runs.
    pub window: usize,
    /// The switch's per-epoch packet budget (periods are cut every this
    /// many packets); carried so artifacts are self-describing.
    pub epoch_packets: u32,
    /// Snapshot or dirty patch.
    pub kind: FrameKind,
    /// The carried epochs of a full frame, oldest first (the last is
    /// the accumulating newest epoch); empty for a dirty frame (its
    /// record is [`WindowFrame::patch`]).
    pub epochs: Vec<ParallelTopK<K>>,
    /// The dirty-bucket patch — `Some` iff `kind` is
    /// [`FrameKind::Dirty`]. Applied to a replica's newest closed epoch
    /// via [`DirtyPatch::apply`].
    pub patch: Option<DirtyPatch<K>>,
}

/// True when two configurations describe the *same ring* — equal in
/// every field except `arrays`, which Section III-F expansion grows
/// per-epoch at runtime (one window's epochs can legitimately hold
/// different array counts).
pub(crate) fn same_ring_config(a: &HkConfig, b: &HkConfig) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.arrays = 0;
    b.arrays = 0;
    a == b
}

/// Appends the shared frame header.
#[allow(clippy::too_many_arguments)]
fn encode_frame_header(
    out: &mut Vec<u8>,
    kind: FrameKind,
    key_len: usize,
    switch_id: u64,
    rotation: u64,
    window: usize,
    live: usize,
    epoch_packets: u32,
) {
    // The header carries these as u16; silent truncation would emit a
    // frame the decoder rejects (or, worse, one with a wrong ring
    // size). A >65535-epoch window is 65536 sketches of memory — far
    // past any sane deployment — so refuse loudly instead of encoding
    // garbage.
    assert!(
        window <= u16::MAX as usize && live <= u16::MAX as usize,
        "window frame fields exceed the wire format's u16 range ({window} epochs)"
    );
    out.extend_from_slice(FRAME_MAGIC);
    let (version, kind) = kind.header_bytes();
    out.push(version);
    out.push(kind);
    out.push(key_len as u8);
    out.extend_from_slice(&switch_id.to_le_bytes());
    out.extend_from_slice(&rotation.to_le_bytes());
    out.extend_from_slice(&(window as u16).to_le_bytes());
    out.extend_from_slice(&(live as u16).to_le_bytes());
    out.extend_from_slice(&epoch_packets.to_le_bytes());
}

/// Appends one record: the payload `write` streams straight into `out`
/// (a v1 sketch through [`ParallelTopK::wire_into`], or a dirty patch),
/// length-prefixed and followed by its CRC. The length is back-patched
/// and the CRC computed over the written range — no intermediate copy.
fn encode_record(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes()); // placeholder
    let payload_at = out.len();
    write(out);
    let payload_len = out.len() - payload_at;
    out[len_at..len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = hk_common::crc::crc32(&out[payload_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A dirty frame carrying `closed`, the epoch closed by `rotation`,
/// diffed against `base` — the epoch closed by `rotation - 1` — or
/// against the empty baseline when `base` is `None`.
fn dirty_frame<K: FlowKey>(
    closed: &ParallelTopK<K>,
    base: Option<&ParallelTopK<K>>,
    switch_id: u64,
    rotation: u64,
    window: usize,
    epoch_packets: u32,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 256);
    encode_frame_header(
        &mut out,
        FrameKind::Dirty,
        K::ENCODED_LEN,
        switch_id,
        rotation,
        window,
        1,
        epoch_packets,
    );
    encode_record(&mut out, |out| encode_dirty_payload(out, closed, base));
    out
}

impl<K: FlowKey> crate::sliding::SlidingTopK<K> {
    /// Exports the whole ring as a [`FrameKind::Full`] window frame:
    /// every live epoch (the accumulating newest included), the
    /// rotation counter, and the per-epoch packet budget. This is the
    /// initial snapshot a dirty stream starts from, and the resync
    /// payload after loss.
    pub fn export_frame(&self, switch_id: u64, epoch_packets: u32) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(64 + self.live_epochs() * 1024);
        encode_frame_header(
            &mut out,
            FrameKind::Full,
            K::ENCODED_LEN,
            switch_id,
            self.rotations(),
            self.window(),
            self.live_epochs(),
            epoch_packets,
        );
        for epoch in self.epoch_iter() {
            encode_record(&mut out, |out| epoch.wire_into(out));
        }
        out
    }

    /// Exports the newest *closed* epoch as a [`FrameKind::Dirty`]
    /// frame against the empty baseline: a self-contained record that
    /// needs no earlier export. It is [`export_dirty`]'s encoder with
    /// the baseline left out.
    ///
    /// Returns `None` when no closed epoch is live — before the first
    /// rotation, and *always* for a `W = 1` window (its only slot is the
    /// accumulating epoch; rotation evicts the closed one immediately) —
    /// ship [`export_frame`] instead.
    ///
    /// [`export_dirty`]: crate::sliding::SlidingTopK::export_dirty
    /// [`export_frame`]: crate::sliding::SlidingTopK::export_frame
    pub fn export_delta(&self, switch_id: u64, epoch_packets: u32) -> Option<Vec<u8>> {
        let closed = self.newest_closed()?;
        Some(dirty_frame(
            closed,
            None,
            switch_id,
            self.rotations(),
            self.window(),
            epoch_packets,
        ))
    }

    /// Exports the newest closed epoch as a [`FrameKind::Dirty`] frame:
    /// a patch of only the buckets whose packed words differ from the
    /// epoch closed one rotation earlier, which the ring still holds two
    /// behind the newest — plain u64 compares at export time, no
    /// per-write dirty tracking, the ingest hot path untouched. A
    /// collector applies the patch to a replica standing at
    /// `rotation - 1`, whose newest closed epoch is that baseline.
    ///
    /// The frame is encoded against the empty baseline, carrying the
    /// whole closed epoch, when the ring no longer holds the baseline
    /// (every rotation of a `W = 2` ring, the first rotation of any) or
    /// when the ring was rebuilt or rewritten after the baseline closed
    /// ([`from_epochs`], [`merge_from`], [`retain_monitored`]). The
    /// frame is a function of the ring alone: exporting twice at one
    /// rotation returns the same bytes, and an export after a skipped
    /// one still patches. Returns `None` only when no closed epoch is
    /// live (before the first rotation, or a `W = 1` window); the caller
    /// ships [`export_frame`] instead.
    ///
    /// [`export_frame`]: crate::sliding::SlidingTopK::export_frame
    /// [`from_epochs`]: crate::sliding::SlidingTopK::from_epochs
    /// [`merge_from`]: crate::sliding::SlidingTopK::merge_from
    /// [`retain_monitored`]: crate::sliding::SlidingTopK::retain_monitored
    pub fn export_dirty(&self, switch_id: u64, epoch_packets: u32) -> Option<Vec<u8>> {
        Some(dirty_frame(
            self.newest_closed()?,
            self.patch_base(),
            switch_id,
            self.rotations(),
            self.window(),
            epoch_packets,
        ))
    }
}

/// Length of the fixed frame header (shared by full and dirty frames).
const HEADER_LEN: usize = 31;

/// Appends the dirty-patch record payload: the closed epoch diffed
/// against `base` (rows beyond it — Section III-F expansion since the
/// baseline closed — and every row when `base` is `None` against
/// all-empty words), then the whole top-k store (small — `k` entries —
/// and not worth diffing).
fn encode_dirty_payload<K: FlowKey>(
    out: &mut Vec<u8>,
    closed: &ParallelTopK<K>,
    base: Option<&ParallelTopK<K>>,
) {
    use hk_common::varint;

    let matrix = closed.sketch().matrix();
    let (rows, width) = (matrix.rows(), matrix.width());
    let base = base.map(|b| b.sketch().matrix());
    let base_rows = base.map_or(0, |b| b.rows());

    out.extend_from_slice(DIRTY_MAGIC);
    varint::write_u64(out, base_rows as u64);
    varint::write_u64(out, rows as u64);
    varint::write_u64(out, width as u64);
    let mut bitmap: Vec<u64> = Vec::new();
    for j in 0..rows {
        let base = base.filter(|_| j < base_rows).map(|b| b.row(j));
        matrix.diff_row_bitmap(j, base, &mut bitmap);
        varint::write_bitmap_rle(out, &bitmap);
        // Visit only the set bits, in ascending bucket order.
        let row = matrix.row(j);
        for (w, &bits) in bitmap.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let old = base.map_or(0, |b| b[i]);
                varint::write_u64(out, old ^ row[i]);
            }
        }
    }
    let top = closed.top_k();
    varint::write_u64(out, top.len() as u64);
    for (key, count) in &top {
        out.extend_from_slice(key.key_bytes().as_slice());
        varint::write_u64(out, *count);
    }
}

/// A decoded [`FrameKind::Dirty`] record: which buckets of the closed
/// epoch differ from its baseline, and how — `old XOR new` packed
/// words, stored sparsely so decoding allocates in proportion to the
/// payload rather than to the geometry it claims — plus the epoch's
/// whole top-k store.
#[derive(Debug, Clone)]
pub struct DirtyPatch<K: FlowKey> {
    base_rows: usize,
    rows: usize,
    width: usize,
    /// The changed words as `(row-major index, old XOR new)`, ascending;
    /// every diff is nonzero.
    diffs: Vec<(usize, u64)>,
    store: Vec<(K, u64)>,
}

impl<K: FlowKey> DirtyPatch<K> {
    /// Matrix rows of the baseline the patch was diffed against: the
    /// epoch closed one rotation earlier, or `0` for the empty baseline
    /// (the patch then carries the whole epoch on its own).
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Matrix rows of the patched epoch (the new epoch's array count —
    /// Section III-F expansion can make it differ from the baseline's).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix width of the patched epoch (must equal the ring's).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decodes one "HKDP" record payload (CRC already verified by the
    /// frame decoder). Structural validation only — semantic limits
    /// (counter/fingerprint ranges, store size, the baseline) need the
    /// ring and are enforced by [`DirtyPatch::apply`].
    fn decode(data: &[u8]) -> Result<Self, WireError> {
        use hk_common::varint;

        if data.len() < 4 || &data[..4] != DIRTY_MAGIC {
            return Err(WireError::Corrupt("dirty patch magic"));
        }
        let mut pos = 4usize;
        let mut field =
            || varint::read_u64(data, &mut pos).ok_or(WireError::Corrupt("patch varint"));
        let (base_rows, rows, width) = (field()?, field()?, field()?);
        if base_rows > crate::sketch::MAX_ARRAYS as u64 {
            return Err(WireError::Corrupt("baseline rows"));
        }
        if rows == 0 || rows > crate::sketch::MAX_ARRAYS as u64 {
            return Err(WireError::Corrupt("array count"));
        }
        if width == 0 || width > u32::MAX as u64 {
            return Err(WireError::Corrupt("width/k"));
        }
        let (rows, width) = (rows as usize, width as usize);
        let bitmap_words = width.div_ceil(64);
        let mut diffs: Vec<(usize, u64)> = Vec::new();
        let mut set_words: Vec<(usize, u64)> = Vec::new();
        for j in 0..rows {
            varint::read_bitmap_rle(data, &mut pos, bitmap_words, &mut set_words)
                .ok_or(WireError::Corrupt("dirty bitmap"))?;
            for &(w, bits) in &set_words {
                // Bits past `width` in the last bitmap word name no bucket.
                if w + 1 == bitmap_words && width % 64 != 0 && bits >> (width % 64) != 0 {
                    return Err(WireError::Corrupt("dirty bitmap tail"));
                }
                let mut bits = bits;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let diff = varint::read_u64(data, &mut pos)
                        .ok_or(WireError::Corrupt("patch varint"))?;
                    if diff == 0 {
                        // A zero diff means the bucket did not change;
                        // its bitmap bit must not have been set.
                        return Err(WireError::Corrupt("zero dirty diff"));
                    }
                    diffs.push((j * width + i, diff));
                }
            }
        }
        let n = varint::read_u64(data, &mut pos).ok_or(WireError::Corrupt("patch varint"))?;
        if n > ((data.len() - pos) / (K::ENCODED_LEN + 1)) as u64 {
            // Bound before allocating: every entry costs its key bytes
            // and at least one count byte on the wire.
            return Err(WireError::Corrupt("store size"));
        }
        let mut store = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let end = pos
                .checked_add(K::ENCODED_LEN)
                .ok_or(WireError::Truncated)?;
            let kb = data.get(pos..end).ok_or(WireError::Truncated)?;
            pos = end;
            let key = K::from_key_bytes(kb).ok_or(WireError::KeyMismatch)?;
            let count =
                varint::read_u64(data, &mut pos).ok_or(WireError::Corrupt("patch varint"))?;
            if count == 0 {
                return Err(WireError::Corrupt("zero store count"));
            }
            store.push((key, count));
        }
        if pos != data.len() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(Self {
            base_rows: base_rows as usize,
            rows,
            width,
            diffs,
            store,
        })
    }

    /// Reconstructs the closed epoch this patch describes:
    /// `base XOR diff` over the packed words. `base` is the collector
    /// replica's newest closed epoch (the epoch closed by
    /// `rotation - 1`, bit-exact by the rotation protocol); it is only
    /// read when [`base_rows`](DirtyPatch::base_rows) is nonzero, and
    /// must then be present with exactly that many rows. Rows beyond
    /// the baseline, and every row of an empty-baseline patch, patch
    /// all-empty words. `ring_cfg` is the replica's configuration; the
    /// reconstructed epoch opens from it with this patch's array count.
    ///
    /// Every *changed* word is validated like
    /// [`ParallelTopK::from_wire`] validates buckets (counter and
    /// fingerprint within their configured ranges, no empty bucket with
    /// a fingerprint); unchanged words were validated when the baseline
    /// was installed. The store is re-offered largest-first, like the
    /// v1 decode path.
    pub fn apply(
        &self,
        base: Option<&ParallelTopK<K>>,
        ring_cfg: &HkConfig,
    ) -> Result<ParallelTopK<K>, WireError> {
        if self.width != ring_cfg.width {
            return Err(WireError::Corrupt("patch width"));
        }
        let base = match (self.base_rows, base) {
            (0, _) => None,
            (rows, Some(b)) if b.sketch().arrays() == rows && b.sketch().width() == self.width => {
                Some(b)
            }
            _ => return Err(WireError::Corrupt("patch baseline")),
        };
        let mut cfg = ring_cfg.clone();
        cfg.arrays = self.rows;
        let mut hk = ParallelTopK::<K>::new(cfg);
        let layout = hk.sketch().matrix().layout();
        let counter_max = hk.sketch().counter_max();
        let fp_bits = hk.sketch().fingerprint_bits();
        let fp_max = if fp_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fp_bits) - 1
        };

        // Seed from the baseline (an empty or shorter baseline leaves
        // the fresh all-empty rows), then XOR the diffs in.
        if let Some(base) = base {
            let src = base.sketch().matrix();
            let shared = self.rows.min(src.rows()) * self.width;
            hk.sketch_mut().matrix_mut().data_mut()[..shared]
                .copy_from_slice(&src.data()[..shared]);
        }
        let dst = hk.sketch_mut().matrix_mut().data_mut();
        for &(at, diff) in &self.diffs {
            // `at < rows × width`: decode bounds every bitmap bit.
            let slot = &mut dst[at];
            let word = *slot ^ diff;
            let b = layout.unpack(word);
            if b.fp > fp_max {
                return Err(WireError::Corrupt("bucket fingerprint"));
            }
            if b.count > counter_max {
                return Err(WireError::Corrupt("bucket counter"));
            }
            if b.count == 0 && b.fp != 0 {
                return Err(WireError::Corrupt("empty bucket with fingerprint"));
            }
            *slot = word;
        }

        if self.store.len() > ring_cfg.k {
            return Err(WireError::Corrupt("store size"));
        }
        let mut entries = self.store.clone();
        entries.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for (key, count) in entries {
            hk.offer(key, count);
        }
        Ok(hk)
    }
}

impl<K: FlowKey> WindowFrame<K> {
    /// Decodes a window frame produced by
    /// [`SlidingTopK::export_frame`](crate::sliding::SlidingTopK::export_frame),
    /// [`SlidingTopK::export_dirty`](crate::sliding::SlidingTopK::export_dirty)
    /// or
    /// [`SlidingTopK::export_delta`](crate::sliding::SlidingTopK::export_delta).
    ///
    /// Every header field is validated and every epoch record must pass
    /// its CRC before its payload is decoded; any truncation, corruption
    /// or inconsistency (a dirty frame with ≠ 1 record, more live epochs
    /// than the window holds or than the rotation count allows, epochs
    /// that are not merge-compatible with each other) is rejected.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != FRAME_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != FRAME_VERSION && version != DIRTY_FRAME_VERSION {
            return Err(WireError::BadVersion(version));
        }
        // Kind 1, the retired v2 delta, is unknown here.
        let kind = match r.u8()? {
            0 => FrameKind::Full,
            2 => FrameKind::Dirty,
            _ => return Err(WireError::Corrupt("frame kind")),
        };
        // A mismatched pairing never came from an exporter here.
        if version != kind.header_bytes().0 {
            return Err(WireError::Corrupt("frame version/kind pairing"));
        }
        if r.u8()? as usize != K::ENCODED_LEN {
            return Err(WireError::KeyMismatch);
        }
        let switch_id = r.u64()?;
        let rotation = r.u64()?;
        let window = r.u16()? as usize;
        let live = r.u16()? as usize;
        let epoch_packets = r.u32()?;
        if window == 0 {
            return Err(WireError::Corrupt("window size"));
        }
        if live == 0 || live > window {
            return Err(WireError::Corrupt("live epoch count"));
        }
        match kind {
            FrameKind::Dirty => {
                if live != 1 {
                    return Err(WireError::Corrupt("dirty epoch count"));
                }
                // A dirty frame carries a *closed* epoch, which takes at
                // least one rotation to exist — and a W = 1 ring never
                // retains a closed epoch to ship or to apply to.
                if rotation == 0 {
                    return Err(WireError::Corrupt("dirty before first rotation"));
                }
                if window < 2 {
                    return Err(WireError::Corrupt("dirty window size"));
                }
            }
            FrameKind::Full => {
                // The ring grows by one epoch per rotation from one, so
                // more live epochs than `rotation + 1` are impossible.
                if live as u64 > rotation.saturating_add(1) {
                    return Err(WireError::Corrupt("more epochs than rotations"));
                }
            }
        }
        // Every record costs at least its length and CRC fields: refuse
        // a count the input cannot hold before reserving for it.
        if live > (data.len() - r.pos) / 8 {
            return Err(WireError::Truncated);
        }

        let mut epochs = Vec::with_capacity(if kind == FrameKind::Dirty { 0 } else { live });
        let mut patch = None;
        for idx in 0..live {
            let payload_len = r.u32()? as usize;
            let payload = r.take(payload_len)?;
            let crc = r.u32()?;
            if hk_common::crc::crc32(payload) != crc {
                return Err(WireError::BadCrc { epoch: idx });
            }
            if kind == FrameKind::Dirty {
                patch = Some(DirtyPatch::<K>::decode(payload)?);
            } else {
                epochs.push(ParallelTopK::<K>::from_wire(payload)?);
            }
        }
        if r.pos != data.len() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        // All epochs of one ring share a configuration — except the
        // array count, which Section III-F expansion can grow in one
        // epoch but not another. Reject frames whose epochs could not
        // have come from one switch.
        for pair in epochs.windows(2) {
            if !same_ring_config(pair[0].config(), pair[1].config()) {
                return Err(WireError::Corrupt("epochs from different rings"));
            }
        }
        Ok(Self {
            switch_id,
            rotation,
            window,
            epoch_packets,
            kind,
            epochs,
            patch,
        })
    }

    /// Converts a [`FrameKind::Full`] frame into a queryable window
    /// replica ([`SlidingTopK::from_epochs`]); `None` for dirty
    /// patches, which only make sense committed to an existing
    /// replica ([`SlidingTopK::commit_epoch`], [`DirtyPatch::apply`]).
    ///
    /// [`SlidingTopK::from_epochs`]: crate::sliding::SlidingTopK::from_epochs
    /// [`SlidingTopK::commit_epoch`]: crate::sliding::SlidingTopK::commit_epoch
    pub fn into_window(self) -> Option<crate::sliding::SlidingTopK<K>> {
        if self.kind != FrameKind::Full {
            return None;
        }
        // The ring config the replica opens *fresh* epochs from. Decoded
        // epoch configs carry each epoch's `arrays` as currently grown
        // (Section III-F), but a freshly recycled epoch always starts at
        // the base count — the minimum across the ring (a recycle drops
        // expansion rows, so any un-expanded epoch in the frame shows
        // the base). A frame whose every epoch has grown does not carry
        // the base, and the replica then recycles at a grown count.
        let cfg = self
            .epochs
            .iter()
            .map(|e| e.config())
            .min_by_key(|c| c.arrays)
            .expect("decode guarantees at least one epoch")
            .clone();
        Some(crate::sliding::SlidingTopK::from_epochs(
            cfg,
            self.window,
            self.rotation,
            self.epochs,
        ))
    }
}

// -- Checkpoint encode/restore hooks ------------------------------------
//
// The sharded engine's recovery plumbing rides the existing wire
// formats: a shard checkpoint IS a wire payload (sketch wire-v1 for
// steady sketches, a full wire-v2 window frame for sliding windows), so
// the bytes that leave the process as telemetry double as restart
// state. Both impls satisfy the `ShardCheckpoint` bit-exactness
// contract for everything the formats ship; the decay RNG position is
// transient by the format's design (the restored instance re-seeds from
// the config), which perturbs *future* decay draws only, never
// recorded counts.

impl<K: FlowKey> hk_common::ShardCheckpoint for ParallelTopK<K> {
    fn encode_checkpoint(&self) -> Vec<u8> {
        self.to_wire()
    }

    fn restore_checkpoint(bytes: &[u8]) -> Option<Self> {
        Self::from_wire(bytes).ok()
    }
}

/// Switch id stamped on checkpoint frames: checkpoints never leave the
/// engine, so the id only needs to be recognizable in a debugger.
const CHECKPOINT_SWITCH_ID: u64 = u64::from_le_bytes(*b"HKCKPT\0\0");

impl<K: FlowKey> hk_common::ShardCheckpoint for crate::sliding::SlidingTopK<K> {
    fn encode_checkpoint(&self) -> Vec<u8> {
        self.export_frame(CHECKPOINT_SWITCH_ID, 0)
    }

    fn restore_checkpoint(bytes: &[u8]) -> Option<Self> {
        WindowFrame::<K>::decode(bytes).ok()?.into_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(seed: u64) -> ParallelTopK<u64> {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(64)
            .k(8)
            .seed(seed)
            .build();
        let mut hk = ParallelTopK::new(cfg);
        let mut state = seed | 1;
        for _ in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = if state.is_multiple_of(3) {
                state % 6
            } else {
                100 + state % 1000
            };
            hk.insert(&f);
        }
        hk
    }

    #[test]
    fn roundtrip_preserves_queries_and_topk() {
        let hk = populated(9);
        let wire = hk.to_wire();
        let back = ParallelTopK::<u64>::from_wire(&wire).unwrap();
        // The store's order among equal counts is unspecified (re-offer
        // reorders ties); compare as sorted sets.
        let canon = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(canon(hk.top_k()), canon(back.top_k()));
        for f in 0..1200u64 {
            assert_eq!(hk.query(&f), back.query(&f), "flow {f}");
        }
        assert_eq!(hk.config(), back.config());
        assert_eq!(hk.memory_bytes(), back.memory_bytes());
    }

    #[test]
    fn decoded_sketch_keeps_working() {
        let hk = populated(4);
        let mut back = ParallelTopK::<u64>::from_wire(&hk.to_wire()).unwrap();
        let before = back.query(&0);
        for _ in 0..100 {
            back.insert(&0);
        }
        assert!(back.query(&0) >= before, "inserts after decode must work");
    }

    #[test]
    fn decoded_sketch_merges_with_original_lineage() {
        // The collector path: decode a shipped sketch and merge it with
        // another same-config instance.
        let a = populated(7);
        let wire = a.to_wire();
        let mut decoded = ParallelTopK::<u64>::from_wire(&wire).unwrap();
        let b = {
            let cfg = a.config().clone();
            let mut hk = ParallelTopK::<u64>::new(cfg);
            for _ in 0..500 {
                hk.insert(&424242);
            }
            hk
        };
        decoded.merge_from(&b).unwrap();
        // Sum-merge may shave a few counts off in bucket conflicts with
        // the decoded sketch's residents; never over-estimates.
        let est = decoded.query(&424242);
        assert!(est <= 500, "over-estimation after decode+merge");
        assert!(est >= 450, "merge lost the flow: {est}");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            ParallelTopK::<u64>::from_wire(b"NOPE").unwrap_err(),
            WireError::BadMagic
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let wire = populated(3).to_wire();
        for cut in 0..wire.len() {
            let err = ParallelTopK::<u64>::from_wire(&wire[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = populated(3).to_wire();
        wire.push(0);
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn key_width_mismatch_rejected() {
        let wire = populated(3).to_wire();
        assert_eq!(
            ParallelTopK::<u32>::from_wire(&wire).unwrap_err(),
            WireError::KeyMismatch
        );
    }

    #[test]
    fn corrupt_counter_rejected() {
        let hk = populated(3);
        let mut wire = hk.to_wire();
        // First bucket's count field: bytes after the fixed header.
        // Header: 4 magic + 1 ver + 1 keylen + 2 arrays + 4 width + 4 k
        // + 1 fp + 1 ctr + 8 seed + 9 decay + 1 store + 1 expansion = 37.
        let count_off = 37 + 4;
        wire[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt(_)
        ));
        // The store byte (offset 35) must be 0, Stream-Summary.
        let mut wire = hk.to_wire();
        wire[35] = 1;
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("store kind")
        );
    }

    #[test]
    fn oversized_field_widths_rejected_not_panicking() {
        // fp_bits = 32 and ctr_bits = 40 each pass the individual range
        // checks but cannot share one packed bucket word; decoding must
        // return Corrupt, not panic in the config constructor.
        let mut wire = populated(3).to_wire();
        // Header: 4 magic + 1 ver + 1 keylen + 2 arrays + 4 width + 4 k.
        wire[16] = 32; // fp_bits
        wire[17] = 40; // ctr_bits
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("field widths")
        );
    }

    #[test]
    fn version_checked() {
        let mut wire = populated(3).to_wire();
        wire[4] = 9;
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::BadVersion(9)
        );
    }

    #[test]
    fn expansion_policy_survives_roundtrip() {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(8)
            .k(4)
            .seed(1)
            .expansion(ExpansionPolicy {
                large_counter: 77,
                blocked_threshold: 99,
                max_arrays: 5,
            })
            .build();
        let hk = ParallelTopK::<u64>::new(cfg);
        let back = ParallelTopK::<u64>::from_wire(&hk.to_wire()).unwrap();
        assert_eq!(back.config().expansion, hk.config().expansion);
    }

    fn populated_window(seed: u64, window: usize, rotations: usize) -> crate::SlidingTopK<u64> {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(64)
            .k(8)
            .seed(seed)
            .build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, window);
        let mut state = seed | 1;
        for r in 0..=rotations as u64 {
            for _ in 0..4000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let f = if state.is_multiple_of(3) {
                    r * 10 + state % 6
                } else {
                    1000 + state % 500
                };
                win.insert(&f);
            }
            if r < rotations as u64 {
                win.rotate();
            }
        }
        win
    }

    /// Replica-vs-original equality down to the bucket words: every
    /// epoch's matrix and store must match, not just the query surface.
    fn assert_windows_bit_equal(a: &crate::SlidingTopK<u64>, b: &crate::SlidingTopK<u64>) {
        assert_eq!(a.window(), b.window());
        assert_eq!(a.rotations(), b.rotations());
        assert_eq!(a.live_epochs(), b.live_epochs());
        let canon = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        for (ea, eb) in a.epoch_iter().zip(b.epoch_iter()) {
            // Decoded configs carry each epoch's *current* array count
            // (v1 semantics: growth survives the round trip) while the
            // local config keeps the construction base; ring identity
            // ignores that field, the sketch-level count must agree.
            assert!(same_ring_config(ea.config(), eb.config()));
            assert_eq!(ea.sketch().arrays(), eb.sketch().arrays());
            for j in 0..ea.sketch().arrays() {
                for i in 0..ea.sketch().width() {
                    assert_eq!(
                        ea.sketch().bucket(j, i),
                        eb.sketch().bucket(j, i),
                        "({j},{i})"
                    );
                }
            }
            assert_eq!(canon(ea.top_k()), canon(eb.top_k()));
        }
        for f in 0..1600u64 {
            assert_eq!(a.query(&f), b.query(&f), "flow {f}");
        }
        assert_eq!(canon(a.top_k()), canon(b.top_k()));
    }

    #[test]
    fn full_frame_roundtrips_bit_exact() {
        let win = populated_window(5, 3, 5);
        let bytes = win.export_frame(42, 4000);
        let frame = WindowFrame::<u64>::decode(&bytes).unwrap();
        assert_eq!(frame.switch_id, 42);
        assert_eq!(frame.rotation, 5);
        assert_eq!(frame.window, 3);
        assert_eq!(frame.epoch_packets, 4000);
        assert_eq!(frame.kind, FrameKind::Full);
        assert_eq!(frame.epochs.len(), 3);
        let replica = frame.into_window().unwrap();
        assert_windows_bit_equal(&win, &replica);
    }

    #[test]
    fn full_frame_during_ring_fill() {
        // Fewer live epochs than the window: the frame carries exactly
        // the live ones and the replica keeps growing correctly.
        let win = populated_window(9, 4, 1);
        assert_eq!(win.live_epochs(), 2);
        let frame = WindowFrame::<u64>::decode(&win.export_frame(1, 100)).unwrap();
        assert_eq!(frame.epochs.len(), 2);
        let mut replica = frame.into_window().unwrap();
        assert_windows_bit_equal(&win, &replica);
        replica.rotate();
        assert_eq!(replica.live_epochs(), 3);
    }

    #[test]
    fn delta_frame_carries_newest_closed_epoch() {
        let win = populated_window(7, 3, 4);
        let bytes = win
            .export_delta(3, 4000)
            .expect("rotated window has a closed epoch");
        let frame = WindowFrame::<u64>::decode(&bytes).unwrap();
        assert_eq!(frame.kind, FrameKind::Dirty);
        assert_eq!(frame.rotation, 4);
        let patch = frame.patch.as_ref().unwrap();
        assert_eq!(patch.base_rows(), 0, "the empty baseline");
        // The patch alone rebuilds the epoch just behind the
        // accumulating newest.
        let closed = win.epoch_iter().rev().nth(1).unwrap();
        let rebuilt = patch.apply(None, win.config()).unwrap();
        for j in 0..closed.sketch().arrays() {
            for i in 0..closed.sketch().width() {
                assert_eq!(rebuilt.sketch().bucket(j, i), closed.sketch().bucket(j, i));
            }
        }
        // Patches do not convert to standalone windows.
        assert!(frame.into_window().is_none());
        // Cost check: a delta is roughly one epoch, not W of them.
        let full = win.export_frame(3, 4000);
        assert!(
            bytes.len() * 2 < full.len(),
            "delta {} vs full {} bytes",
            bytes.len(),
            full.len()
        );
    }

    #[test]
    fn unrotated_window_has_no_delta() {
        let cfg = HkConfig::builder().width(32).k(4).seed(1).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg.clone(), 3);
        win.insert_batch(&[7u64; 100]);
        assert!(win.export_delta(0, 10).is_none());
        assert!(win.export_dirty(0, 10).is_none(), "same rule for dirty");
        // But a full frame works from the very start.
        let frame = WindowFrame::<u64>::decode(&win.export_frame(0, 10)).unwrap();
        assert_eq!(frame.epochs.len(), 1);
        assert_eq!(frame.rotation, 0);
        // A W = 1 window never retains a closed epoch: full frames only.
        let mut one = crate::SlidingTopK::<u64>::new(cfg, 1);
        for _ in 0..4 {
            one.insert_batch(&[7u64; 50]);
            one.rotate();
            assert!(one.export_delta(0, 10).is_none());
            assert!(one.export_dirty(0, 10).is_none());
        }
    }

    #[test]
    fn expansion_grown_epochs_roundtrip_in_one_frame() {
        // Section III-F expansion grows one epoch's array count while
        // fresher (recycled) epochs stay at the base: the frame's
        // epochs legitimately disagree on `arrays`, and both the
        // decoder and the collector must accept that as one ring.
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(2)
            .k(2)
            .seed(9)
            .expansion(ExpansionPolicy {
                large_counter: 30,
                blocked_threshold: 40,
                max_arrays: 6,
            })
            .build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        // First period: all-distinct mice — contested buckets stay
        // small, no expansion, so this epoch keeps the base arrays.
        win.insert_batch(&(0..2000u64).map(|i| 10_000 + i).collect::<Vec<_>>());
        win.rotate();
        // Second period: fill both tiny arrays with giants, then a late
        // elephant hammers until Section III-F expands the epoch (same
        // recipe as the parallel-variant expansion test).
        let mut giants: Vec<u64> = Vec::new();
        for f in 0..4u64 {
            giants.extend(std::iter::repeat_n(f, 2000));
        }
        giants.extend(std::iter::repeat_n(999u64, 3000));
        win.insert_batch(&giants);
        let arrays: Vec<usize> = win.epoch_iter().map(|e| e.sketch().arrays()).collect();
        assert!(
            arrays.iter().any(|&a| a > 2),
            "expansion precondition: {arrays:?}"
        );
        assert!(
            arrays.contains(&2),
            "base-arrays epoch precondition: {arrays:?}"
        );

        // The frame its own decoder must accept.
        let frame = WindowFrame::<u64>::decode(&win.export_frame(3, 4000)).unwrap();
        let replica = frame.into_window().unwrap();
        assert_windows_bit_equal(&win, &replica);
        // Fresh replica epochs open at the base array count, like the
        // switch's own recycled epochs.
        assert_eq!(replica.config().arrays, 2);

        // The collector path: snapshot, then an empty-baseline frame
        // carrying an expanded closed epoch, no Mismatch anywhere.
        use crate::collector::{AggregationRule, Collector};
        let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
        coll.submit_window_frame(&win.export_frame(3, 4000))
            .unwrap();
        win.rotate();
        coll.submit_window_frame(&win.export_delta(3, 4000).unwrap())
            .unwrap();
        let replica = coll.switch_window(3).unwrap();
        assert_eq!(replica.rotations(), win.rotations());
        for f in 0..10u64 {
            assert_eq!(replica.query(&f), win.query(&f), "flow {f}");
        }
    }

    /// Feeds a period of traffic and rotates, like the exporter loop of
    /// a deployment: insert → rotate → export. Heavy flows carry
    /// distinct weights so the window top-k boundary never lands inside
    /// a tie (tie order among equal counts is unspecified and may
    /// differ between a switch and its replica); the mouse tail is
    /// rotation-salted so successive epochs genuinely differ.
    fn feed_and_rotate(win: &mut crate::SlidingTopK<u64>, seed: u64, r: u64) {
        let mut batch = Vec::with_capacity(4000);
        for f in 0..20u64 {
            batch.extend(std::iter::repeat_n(f, 50 + 30 * f as usize));
        }
        let mut state = seed | 1;
        for _ in 0..500u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            batch.push(10_000 + r * 1_000 + state % 400);
        }
        win.insert_batch(&batch);
        win.rotate();
    }

    /// The baseline row count of a dirty frame's patch.
    fn base_rows(bytes: &[u8]) -> usize {
        let frame = WindowFrame::<u64>::decode(bytes).unwrap();
        frame.patch.expect("a dirty frame").base_rows()
    }

    #[test]
    fn export_dirty_primes_then_ships_patches() {
        let cfg = HkConfig::builder().arrays(2).width(64).k(8).seed(5).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        feed_and_rotate(&mut win, 5, 0);
        // First call after the first rotation: a closed epoch exists
        // but no earlier one does — it ships against the empty baseline.
        let first = win.export_dirty(9, 3000).expect("a closed epoch");
        assert_eq!(base_rows(&first), 0);
        feed_and_rotate(&mut win, 6, 1);
        let bytes = win.export_dirty(9, 3000).expect("a closed epoch");
        let frame = WindowFrame::<u64>::decode(&bytes).unwrap();
        assert_eq!(frame.kind, FrameKind::Dirty);
        assert_eq!(frame.switch_id, 9);
        assert_eq!(frame.rotation, 2);
        assert!(frame.epochs.is_empty());
        assert_eq!(frame.patch.as_ref().unwrap().base_rows(), 2);
        assert!(frame.into_window().is_none(), "patches need a replica");
    }

    #[test]
    fn export_dirty_after_full_frame_patches_against_the_ring() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let cfg = HkConfig::builder().width(64).k(4).seed(3).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        coll.submit_window_frame(&win.export_frame(0, 3000))
            .unwrap();
        feed_and_rotate(&mut win, 3, 0);
        coll.submit_window_frame(&win.export_dirty(0, 3000).unwrap())
            .unwrap();
        // Rotation 2 goes out as a full snapshot, no dirty export.
        feed_and_rotate(&mut win, 4, 1);
        coll.submit_window_frame(&win.export_frame(0, 3000))
            .unwrap();
        // Rotation 3 still patches: its baseline, the epoch closed by
        // rotation 2, is in the ring and is the replica's newest closed
        // epoch.
        feed_and_rotate(&mut win, 5, 2);
        let bytes = win.export_dirty(0, 3000).expect("a closed epoch");
        assert!(base_rows(&bytes) > 0, "the ring holds the baseline");
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap(),
            WindowSubmit::Applied
        );
        assert_windows_bit_equal(&win, coll.switch_window(0).unwrap());
    }

    #[test]
    fn dirty_export_is_a_function_of_the_ring() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        // Exporting twice at one rotation ships the same patch.
        let win = run_dirty_stream(&mut coll, 1, 3, 3);
        let once = win.export_dirty(1, 3000).unwrap();
        assert!(base_rows(&once) > 0);
        assert_eq!(win.export_dirty(1, 3000).unwrap(), once);
        // A W = 2 ring has recycled the baseline by the time it exports:
        // every frame ships whole (the helper checks `base_rows() == 0`)
        // and the replica stays bit-exact.
        run_dirty_stream(&mut coll, 2, 2, 5);
        // After a rebuild or an in-place rewrite, the next frame ships
        // whole and the one after patches again.
        let rewrites: [fn(&mut crate::SlidingTopK<u64>); 3] = [
            |win| {
                let epochs = win.epoch_iter().cloned().collect();
                *win = crate::SlidingTopK::from_epochs(
                    win.config().clone(),
                    3,
                    win.rotations(),
                    epochs,
                );
            },
            |win| {
                let mut other = crate::SlidingTopK::new(win.config().clone(), 3);
                for _ in 0..win.rotations() {
                    other.insert_batch(&[77u64; 300]);
                    other.rotate();
                }
                win.merge_from(&other).unwrap();
            },
            |win| win.retain_monitored(&mut |k| k % 2 == 0),
        ];
        for (switch, rewrite) in (3u64..).zip(rewrites) {
            let mut win = run_dirty_stream(&mut coll, switch, 3, 3);
            rewrite(&mut win);
            // A rewrite changed the closed epochs: re-anchor the replica.
            coll.submit_window_frame(&win.export_frame(switch, 3000))
                .unwrap();
            for r in 3..5 {
                feed_and_rotate(&mut win, switch * 100 + r, r);
                let bytes = win.export_dirty(switch, 3000).unwrap();
                assert_eq!(base_rows(&bytes) > 0, r == 4, "switch {switch}");
                assert_eq!(
                    coll.submit_window_frame(&bytes).unwrap(),
                    WindowSubmit::Applied
                );
                assert_windows_bit_equal(&win, coll.switch_window(switch).unwrap());
            }
        }
    }

    /// Drives one switch and a collector through `periods` of dirty
    /// export, asserting bit-exactness after every applied frame and
    /// the baseline rule: the first rotation, and every rotation of a
    /// `W = 2` ring, ships the whole epoch; the rest patch.
    fn run_dirty_stream(
        coll: &mut crate::collector::Collector<u64>,
        switch: u64,
        window: usize,
        periods: u64,
    ) -> crate::SlidingTopK<u64> {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(64)
            .k(8)
            .seed(switch + 1)
            .build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, window);
        coll.submit_window_frame(&win.export_frame(switch, 3000))
            .unwrap();
        for r in 0..periods {
            feed_and_rotate(&mut win, switch * 100 + r, r);
            let bytes = win.export_dirty(switch, 3000).expect("a closed epoch");
            assert_eq!(base_rows(&bytes) > 0, window > 2 && r > 0, "rotation {r}");
            coll.submit_window_frame(&bytes).unwrap();
            assert_windows_bit_equal(&win, coll.switch_window(switch).unwrap());
        }
        win
    }

    #[test]
    fn dirty_stream_reassembles_bit_exact() {
        use crate::collector::{AggregationRule, Collector};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        // Every rotation ships dirty, the first against the empty
        // baseline; the helper checks each one bit-exact.
        run_dirty_stream(&mut coll, 2, 3, 8);
        assert!(coll.resync_needed().is_empty());
    }

    #[test]
    fn duplicate_dirty_frames_are_idempotent() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = run_dirty_stream(&mut coll, 1, 3, 3);
        feed_and_rotate(&mut win, 900, 3);
        let bytes = win.export_dirty(1, 3000).expect("steady state is dirty");
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap(),
            WindowSubmit::Applied
        );
        for _ in 0..3 {
            assert_eq!(
                coll.submit_window_frame(&bytes).unwrap(),
                WindowSubmit::Duplicate
            );
        }
        assert_windows_bit_equal(&win, coll.switch_window(1).unwrap());
    }

    #[test]
    fn reordered_dirty_patches_heal_through_pending_buffer() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = run_dirty_stream(&mut coll, 4, 3, 3);
        // Export two consecutive dirty frames without submitting…
        feed_and_rotate(&mut win, 41, 3);
        let first = win.export_dirty(4, 3000).unwrap();
        feed_and_rotate(&mut win, 42, 4);
        let second = win.export_dirty(4, 3000).unwrap();
        // …then deliver them swapped: the early patch is buffered, the
        // late one applies and the drain reconstructs the buffered
        // patch against the baseline it was encoded from.
        assert_eq!(
            coll.submit_window_frame(&second).unwrap(),
            WindowSubmit::ResyncRequested
        );
        assert_eq!(coll.resync_needed(), vec![4]);
        assert_eq!(
            coll.submit_window_frame(&first).unwrap(),
            WindowSubmit::Applied
        );
        assert!(coll.resync_needed().is_empty());
        assert_windows_bit_equal(&win, coll.switch_window(4).unwrap());
    }

    #[test]
    fn dirty_gap_heals_with_snapshot() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let mut win = run_dirty_stream(&mut coll, 6, 3, 3);
        // Lose one dirty frame entirely, ship the next: gap.
        feed_and_rotate(&mut win, 61, 3);
        let _lost = win.export_dirty(6, 3000).unwrap();
        feed_and_rotate(&mut win, 62, 4);
        let ahead = win.export_dirty(6, 3000).unwrap();
        assert_eq!(
            coll.submit_window_frame(&ahead).unwrap(),
            WindowSubmit::ResyncRequested
        );
        assert_eq!(coll.resync_needed(), vec![6]);
        // The resync snapshot re-anchors; the buffered stale patch is
        // discarded by the drain.
        coll.submit_window_frame(&win.export_frame(6, 3000))
            .unwrap();
        assert!(coll.resync_needed().is_empty());
        assert_windows_bit_equal(&win, coll.switch_window(6).unwrap());
        // And the stream continues dirty afterwards, patching against
        // the epoch the snapshot carried.
        feed_and_rotate(&mut win, 63, 5);
        let next = win.export_dirty(6, 3000).expect("stream stays dirty");
        assert_eq!(
            coll.submit_window_frame(&next).unwrap(),
            WindowSubmit::Applied
        );
        assert_windows_bit_equal(&win, coll.switch_window(6).unwrap());
    }

    #[test]
    fn dirty_before_snapshot_requests_resync() {
        use crate::collector::WindowSubmitError;
        use crate::collector::{AggregationRule, Collector};
        let mut coll = Collector::<u64>::new(8, AggregationRule::Sum);
        let cfg = HkConfig::builder().width(64).k(4).seed(2).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        feed_and_rotate(&mut win, 1, 0);
        // Even a self-contained frame needs the ring it commits into.
        let bytes = win.export_dirty(5, 3000).unwrap();
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap_err(),
            WindowSubmitError::NoSnapshot { switch: 5 }
        );
        assert_eq!(coll.resync_needed(), vec![5]);
    }

    #[test]
    fn dirty_frame_is_smaller_than_delta_on_stable_traffic() {
        // The point of the format: when few buckets change between
        // rotations, the patch collapses while the empty-baseline frame
        // still carries every occupied bucket.
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(4096)
            .k(8)
            .seed(7)
            .build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 4);
        // Few distinct flows against a wide sketch: most buckets stay
        // empty, so successive closed epochs differ in few words.
        let mut dirty = Vec::new();
        for _ in 0..3 {
            win.insert_batch(&(0..2000u64).map(|i| i % 40).collect::<Vec<_>>());
            win.rotate();
            dirty = win.export_dirty(0, 2000).expect("a closed epoch");
        }
        let delta = win.export_delta(0, 2000).unwrap();
        assert!(
            dirty.len() * 4 < delta.len(),
            "dirty {} vs delta {} bytes",
            dirty.len(),
            delta.len()
        );
    }

    #[test]
    fn dirty_header_and_payload_corruption_rejected() {
        let cfg = HkConfig::builder().width(64).k(4).seed(8).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        feed_and_rotate(&mut win, 1, 0);
        win.export_dirty(0, 3000).unwrap();
        feed_and_rotate(&mut win, 2, 1);
        let bytes = win.export_dirty(0, 3000).unwrap();
        assert!(WindowFrame::<u64>::decode(&bytes).is_ok());
        // Version byte: a dirty kind under v2 is a pairing violation,
        // and v3 (dirty records without a baseline field) is retired.
        let mut v = bytes.clone();
        v[4] = 2;
        assert_eq!(
            WindowFrame::<u64>::decode(&v).unwrap_err(),
            WireError::Corrupt("frame version/kind pairing")
        );
        v[4] = 3;
        assert_eq!(
            WindowFrame::<u64>::decode(&v).unwrap_err(),
            WireError::BadVersion(3)
        );
        // Kind byte: a full kind under v4 is a pairing violation, and
        // kind 1 (the retired v2 delta) is unknown.
        let mut k = bytes.clone();
        k[5] = 0;
        assert_eq!(
            WindowFrame::<u64>::decode(&k).unwrap_err(),
            WireError::Corrupt("frame version/kind pairing")
        );
        k[5] = 1;
        assert_eq!(
            WindowFrame::<u64>::decode(&k).unwrap_err(),
            WireError::Corrupt("frame kind")
        );
        // Rotation counter forced to 0: no epoch has closed yet.
        let mut r = bytes.clone();
        r[15..23].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            WindowFrame::<u64>::decode(&r).unwrap_err(),
            WireError::Corrupt("dirty before first rotation")
        );
        // Every truncation rejected.
        for cut in 0..bytes.len() {
            assert!(
                WindowFrame::<u64>::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Payload bytes are CRC-protected.
        let payload_at = 31 + 4;
        let mut flipped = bytes.clone();
        flipped[payload_at + 2] ^= 0x20;
        assert!(matches!(
            WindowFrame::<u64>::decode(&flipped).unwrap_err(),
            WireError::BadCrc { .. }
        ));
    }

    #[test]
    fn dirty_patch_apply_rejects_empty_bucket_with_fingerprint() {
        // XOR of two field-valid packed words is always field-valid, so
        // the one reconstruction error an honest-geometry patch can
        // reach is a zero counter under a nonzero fingerprint. A patch
        // is internally consistent on its own — only apply-time
        // validation against the actual baseline can catch this.
        let cfg = HkConfig::builder().width(64).k(4).seed(1).build();
        let patch = DirtyPatch::<u64> {
            base_rows: 0,
            rows: 1,
            width: 64,
            // fp = 1, count = 0 against a zero base
            diffs: vec![(3, 1u64 << 32)],
            store: Vec::new(),
        };
        assert_eq!(
            patch.apply(None, &cfg).unwrap_err(),
            WireError::Corrupt("empty bucket with fingerprint")
        );
    }

    #[test]
    fn malicious_dirty_frame_rejected_at_apply_and_flags_resync() {
        use crate::collector::{AggregationRule, Collector, WindowSubmitError};
        let cfg = HkConfig::builder().width(64).k(4).seed(8).build();
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        feed_and_rotate(&mut win, 1, 0);
        let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
        coll.submit_window_frame(&win.export_frame(2, 3000))
            .unwrap();
        // Craft well-formed frames for rotation 2 with one diff that
        // reconstructs an empty bucket carrying a fingerprint when
        // XOR-ed onto the replica's true baseline.
        let baseline = win.epoch_iter().rev().nth(1).unwrap().sketch();
        let b = baseline.bucket(0, 0);
        let base_word = (u64::from(b.fp) << 32) | b.count;
        let evil_diff = base_word ^ (1u64 << 32);
        assert_ne!(evil_diff, 0, "diff must survive the zero-diff check");
        let craft = |base_rows: usize| {
            let mut out = Vec::new();
            encode_frame_header(&mut out, FrameKind::Dirty, 8, 2, 2, 3, 1, 3000);
            encode_record(&mut out, |out| {
                out.extend_from_slice(DIRTY_MAGIC);
                hk_common::varint::write_u64(out, base_rows as u64);
                hk_common::varint::write_u64(out, 1); // rows
                hk_common::varint::write_u64(out, 64); // width
                hk_common::varint::write_bitmap_rle(out, &[1u64]); // bucket 0
                hk_common::varint::write_u64(out, evil_diff);
                hk_common::varint::write_u64(out, 0); // empty store
            });
            out
        };
        // A baseline the replica's newest closed epoch is not: refused
        // before any bucket math.
        assert_eq!(
            coll.submit_window_frame(&craft(baseline.arrays() + 1))
                .unwrap_err(),
            WindowSubmitError::Wire(WireError::Corrupt("patch baseline"))
        );
        assert_eq!(
            coll.submit_window_frame(&craft(baseline.arrays()))
                .unwrap_err(),
            WindowSubmitError::Wire(WireError::Corrupt("empty bucket with fingerprint"))
        );
        // The replica kept its pre-frame state and the switch is
        // flagged: the rotation was seen but never applied.
        assert_eq!(coll.switch_window(2).unwrap().rotations(), 1);
        assert_eq!(coll.resync_needed(), vec![2]);
        // A snapshot heals, as after any loss.
        feed_and_rotate(&mut win, 2, 1);
        coll.submit_window_frame(&win.export_frame(2, 3000))
            .unwrap();
        assert!(coll.resync_needed().is_empty());
        assert_windows_bit_equal(&win, coll.switch_window(2).unwrap());
    }

    #[test]
    fn dirty_patch_expansion_grows_rows_against_empty_baseline() {
        // Section III-F expansion between two rotations: the new closed
        // epoch has more rows than its baseline; the extra rows are
        // diffed — and reconstructed — against an all-empty baseline.
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(2)
            .k(2)
            .seed(9)
            .expansion(ExpansionPolicy {
                large_counter: 30,
                blocked_threshold: 40,
                max_arrays: 6,
            })
            .build();
        use crate::collector::{AggregationRule, Collector, WindowSubmit};
        let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
        let mut win = crate::SlidingTopK::<u64>::new(cfg, 3);
        // Quiet first period; snapshot, then a dirty export the
        // snapshot already covers.
        win.insert_batch(&(0..200u64).map(|i| 10_000 + i).collect::<Vec<_>>());
        win.rotate();
        coll.submit_window_frame(&win.export_frame(3, 2000))
            .unwrap();
        assert_eq!(
            coll.submit_window_frame(&win.export_dirty(3, 2000).unwrap())
                .unwrap(),
            WindowSubmit::Duplicate
        );
        // Second period: force expansion, then close it.
        let mut giants: Vec<u64> = Vec::new();
        for f in 0..4u64 {
            giants.extend(std::iter::repeat_n(f, 2000));
        }
        giants.extend(std::iter::repeat_n(999u64, 3000));
        win.insert_batch(&giants);
        win.rotate();
        let arrays: Vec<usize> = win.epoch_iter().map(|e| e.sketch().arrays()).collect();
        assert!(arrays.iter().any(|&a| a > 2), "expansion precondition");
        let bytes = win.export_dirty(3, 2000).expect("a closed epoch");
        let frame = WindowFrame::<u64>::decode(&bytes).unwrap();
        let patch = frame.patch.as_ref().unwrap();
        assert_eq!(patch.base_rows(), 2, "patched against the ring");
        assert!(patch.rows() > 2);
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap(),
            WindowSubmit::Applied
        );
        assert_windows_bit_equal(&win, coll.switch_window(3).unwrap());
    }

    #[test]
    fn frame_key_width_checked() {
        let win = populated_window(3, 2, 2);
        let bytes = win.export_frame(0, 100);
        assert_eq!(
            WindowFrame::<u32>::decode(&bytes).unwrap_err(),
            WireError::KeyMismatch
        );
    }

    #[test]
    fn grown_arrays_survive_roundtrip() {
        // Force Section III-F growth, then round-trip: the extra array
        // and its contents must survive.
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(2)
            .k(2)
            .seed(9)
            .expansion(ExpansionPolicy {
                large_counter: 50,
                blocked_threshold: 100,
                max_arrays: 6,
            })
            .build();
        let mut hk = ParallelTopK::<u64>::new(cfg);
        for f in 0..4u64 {
            for _ in 0..2000 {
                hk.insert(&f);
            }
        }
        for _ in 0..3000 {
            hk.insert(&999);
        }
        assert!(hk.sketch().expansions() > 0, "growth precondition");
        let back = ParallelTopK::<u64>::from_wire(&hk.to_wire()).unwrap();
        assert_eq!(back.sketch().arrays(), hk.sketch().arrays());
        for f in [0u64, 1, 2, 3, 999] {
            assert_eq!(back.query(&f), hk.query(&f));
        }
    }
}
