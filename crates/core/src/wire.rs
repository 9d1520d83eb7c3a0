//! Wire serialization: shipping a HeavyKeeper to the collector.
//!
//! Footnote 2's deployment has switches *send their sketches* to a
//! collector every period. [`ParallelTopK::to_wire`] /
//! [`ParallelTopK::from_wire`] implement that hop for one whole-stream
//! sketch, and a sliding window ships [`WindowFrame`]s. Both are one
//! record codec: a config record, then one sparse `HKDP` epoch record
//! per sketch, so a payload costs what its sketches hold, not their
//! capacity. The same bytes are every shard checkpoint.
//!
//! ```text
//! sketch: magic "HKSK" | version u8 (2) | key_len u8 | the config
//!         (`arrays` the current, possibly grown, count) | one epoch
//!         (`rows` = `arrays`, against the empty baseline)
//! frame:  magic "HKWF" | version u8 (7) | kind u8 (0 full / 2 dirty) |
//!         key_len u8 | switch_id u64 | rotation u64 | window u16 |
//!         live u16 | epoch_packets u32, then
//!   full:  the config (`arrays` the ring's base count), then `live`
//!          epochs, oldest -> newest, each against the empty baseline:
//!          the snapshot, resync and checkpoint payload
//!   dirty: the epoch closed by rotation `rotation`, against an
//!          explicit baseline
//!
//! record: payload_len u32 | payload | xxh64 u64 (of the payload, seed 0)
//! config: arrays u16 | width u32 | k u32 | fp_bits u8 | ctr_bits u8 |
//!         seed u64 | decay tag u8 + param f64 | store kind u8 (0) |
//!         expansion flag u8 [+ large u64 + blocked u64 + max u16]
//! epoch:  magic "HKDP" | fp_bytes u8 | base_rows varint | rows varint |
//!         width varint | rows × (changed-bucket bitmap, RLE | one entry
//!         per set bit) | store: n varint, n × (key bytes | count varint)
//! entry:  varint(count_xor << 1 | fp_changed) [| fp_xor: fp_bytes LE]
//! ```
//!
//! An entry XORs the bucket's counter and fingerprint fields separately
//! (`old ^ new` of each), so the bytes depend on the configured fields,
//! never on the runtime word. `fp_bytes` is ⌈fingerprint_bits / 8⌉; the
//! fingerprint XOR follows only when it is nonzero. Counter fields are at
//! most 63 bits, so the shifted head cannot overflow. A zero head or a
//! flagged all-zero fingerprint XOR is not canonical and does not
//! decode. The store is in canonical order: count descending, then key
//! bytes.
//!
//! `base_rows = 0` names the empty baseline: the record carries the
//! whole epoch (a sketch, every epoch of a full frame; the first
//! rotation, every rotation of a `W = 2` ring, the first after the ring
//! is rebuilt or rewritten, `export_delta`). `base_rows > 0` names the
//! epoch closed by `rotation - 1`, which had that many rows; the
//! exporter reads it from its own ring, two behind the newest epoch, and
//! the record costs O(changed buckets).
//!
//! Every record's checksum is checked before its payload is read.
//! Earlier versions (the dense v1 sketch among them) and frame kind 1
//! (the retired delta) do not decode. A record describes an empty epoch
//! in a few bytes, so a payload's length does not bound what decode
//! allocates: it refuses a ring (a sketch is a ring of one epoch) over
//! [`MAX_RING_BYTES`] and an epoch with more rows than its ring can
//! grow. The collector applies a dirty frame of rotation R only on top
//! of state at rotation R-1, treats R ≤ current as a duplicate and
//! R > current+1 as a gap that flags the switch for resync.
//!
//! Decoded state queries and merges identically to the original (bucket
//! words and store entries are bit-preserved) and re-encodes to the
//! same bytes. Two pieces of *transient* state are not shipped: the
//! decay RNG position (decoded state re-seeds from the config, which
//! affects reproducibility of *future* inserts, never correctness) and
//! the Section III-F blocked counter (restarts at 0; rows already added
//! by expansion ride the record's `rows`).

use crate::bucket::{with_matrix, BucketMatrix, BucketWord, Buckets};
use crate::config::{ExpansionPolicy, HkConfig};
use crate::decay::DecayFn;
use crate::parallel::ParallelTopK;
use crate::sliding::{max_rows, ring_bytes, SlidingTopK, MAX_RING_BYTES};
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::{rank_order, FlowKey};
use std::marker::PhantomData;

/// Magic prefix of a whole-stream sketch payload.
const SKETCH_MAGIC: &[u8; 4] = b"HKSK";
/// Wire version of sketch payloads: the config record, then one epoch
/// record.
const SKETCH_VERSION: u8 = 2;

/// Why a wire payload could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload does not start with the magic of the format it is
    /// decoded as: `HKSK` for a sketch, `HKWF` for a window frame.
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
    /// A record's xxh64 checksum does not match its bytes (sketch
    /// payloads and window frames checksum every record).
    BadChecksum {
        /// Index of the failing record within the payload: a sketch's or
        /// a full frame's config is record 0 and its epochs follow; a
        /// dirty frame's patch is record 0.
        record: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "missing magic (HKSK sketch or HKWF window frame)"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::Truncated => write!(f, "wire payload truncated"),
            Self::Corrupt(what) => write!(f, "corrupt field: {what}"),
            Self::KeyMismatch => write!(f, "key type does not match payload"),
            Self::BadChecksum { record } => write!(f, "record {record} fails its checksum"),
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
    /// A reader past `data`'s magic and version byte, which must be
    /// `magic` and `version`.
    fn open(data: &'a [u8], magic: &[u8; 4], version: u8) -> Result<Self, WireError> {
        let mut r = Self { data, pos: 0 };
        if r.take(4)? != magic {
            return Err(WireError::BadMagic);
        }
        match r.u8()? {
            v if v == version => Ok(r),
            v => Err(WireError::BadVersion(v)),
        }
    }
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
    /// One record: its payload, once the checksum behind it matches.
    /// `index` names the record in the error.
    fn record(&mut self, index: usize) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        let payload = self.take(len)?;
        if checksum(payload) != self.u64()? {
            return Err(WireError::BadChecksum { record: index });
        }
        Ok(payload)
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
    let param = f64::from_bits(r.u64()?);
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

/// Appends a config record's fields with `arrays` as the array count: a
/// sketch's current count in an `HKSK` payload, the ring's base count in
/// a full window frame.
fn encode_config(out: &mut Vec<u8>, cfg: &HkConfig, arrays: usize) {
    out.extend_from_slice(&(arrays as u16).to_le_bytes());
    out.extend_from_slice(&(cfg.width as u32).to_le_bytes());
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
}

/// Reads the fields [`encode_config`] writes, refusing any the config
/// constructor would reject.
fn decode_config(r: &mut Reader<'_>) -> Result<HkConfig, WireError> {
    let arrays = r.u16()? as usize;
    let width = r.u32()? as usize;
    let k = r.u32()? as usize;
    let fp_bits = r.u8()? as u32;
    let ctr_bits = r.u8()? as u32;
    let seed = r.u64()?;
    let decay = decode_decay(r)?;
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
    // The packed bucket word must hold both fields.
    if fp_bits == 0 || fp_bits > 32 || ctr_bits == 0 || ctr_bits >= 64 || fp_bits + ctr_bits > 64 {
        return Err(WireError::Corrupt("field widths"));
    }
    Ok(HkConfig {
        arrays,
        width,
        k,
        decay,
        fingerprint_bits: fp_bits,
        counter_bits: ctr_bits,
        seed,
        expansion,
    })
}

/// An epoch's store in canonical order: count descending, ties on key
/// bytes. The store's own tie order depends on admission history, and a
/// checkpoint round trip replays admissions in a different order, so
/// every encoder writes this order: restored state re-encodes to the
/// same bytes.
fn canonical_top_k<K: FlowKey>(epoch: &ParallelTopK<K>) -> Vec<(K, u64)> {
    let mut top = epoch.top_k();
    top.sort_by(rank_order);
    top
}

impl<K: FlowKey> ParallelTopK<K> {
    /// Serializes this instance for shipping to a collector: the config
    /// record, then the sketch as one epoch record against the empty
    /// baseline, which costs what the sketch holds.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(SKETCH_MAGIC);
        out.extend_from_slice(&[SKETCH_VERSION, K::ENCODED_LEN as u8]);
        // The current row count: a grown sketch re-encodes unchanged.
        let arrays = self.sketch().arrays();
        encode_record(&mut out, |out| encode_config(out, self.config(), arrays));
        encode_record(&mut out, |out| encode_epoch_record(out, self, None));
        out
    }

    /// Reconstructs an instance from [`ParallelTopK::to_wire`] bytes.
    ///
    /// The key type `K` must match the one encoded (width-checked) and
    /// must implement [`FlowKey::from_key_bytes`]. The restored config's
    /// `arrays` is the sketch's row count when encoded, growth included.
    ///
    /// # Errors
    ///
    /// Any truncation, failed checksum, corruption or trailing byte; a
    /// v1 payload is [`WireError::BadVersion`]. Before allocating, it
    /// refuses a config whose bucket words, up to its Section III-F cap,
    /// exceed [`MAX_RING_BYTES`] (`Corrupt("ring size")`: a sketch over
    /// 1 GiB of bucket words does not restore), and an epoch whose rows
    /// are not the config's `arrays` (`Corrupt("array count")`).
    pub fn from_wire(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::open(data, SKETCH_MAGIC, SKETCH_VERSION)?;
        if r.u8()? as usize != K::ENCODED_LEN {
            return Err(WireError::KeyMismatch);
        }
        // A sketch is a ring of one epoch, at its config's row count.
        let cfg = decode_config_record(&mut r, 1)?;
        let hk = decode_epoch(&mut r, 1, &cfg, Some(cfg.arrays))?;
        if r.pos != data.len() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(hk)
    }
}

/// Magic prefix of a windowed telemetry frame.
const FRAME_MAGIC: &[u8; 4] = b"HKWF";
/// Wire version of window frames, full and dirty alike.
const FRAME_VERSION: u8 = 7;
/// Magic prefix of an epoch record payload.
const DIRTY_MAGIC: &[u8; 4] = b"HKDP";
/// Kind byte of a full frame: the ring config, then every live epoch.
const FULL_KIND: u8 = 0;
/// Kind byte of a dirty frame: one closed epoch.
const DIRTY_KIND: u8 = 2;

/// A decoded windowed telemetry frame: one switch's epoch ring or its
/// newest closed epoch, plus the metadata the collector needs to
/// reassemble the ring.
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
    /// The ring itself, or the patch that advances a replica of it.
    pub body: FrameBody<K>,
}

/// What a window frame carries.
#[derive(Debug, Clone)]
pub enum FrameBody<K: FlowKey> {
    /// The switch's whole ring, rebuilt as a queryable replica at the
    /// frame's rotation ([`SlidingTopK::from_epochs`]) that opens fresh
    /// epochs at the carried configuration: the snapshot, resync and
    /// checkpoint payload.
    Full(SlidingTopK<K>),
    /// The epoch closed by the frame's rotation as a changed-bucket
    /// patch against an explicit baseline: the epoch closed by
    /// `rotation - 1`, or nothing ([`DirtyPatch::base_rows`]). The
    /// collector applies it in place, as the next rotation of the
    /// switch's replica
    /// ([`Collector::submit_window_frame`](crate::collector::Collector::submit_window_frame)).
    Dirty(DirtyPatch<K>),
}

/// A record's checksum: the xxHash64 of its payload at seed 0.
fn checksum(payload: &[u8]) -> u64 {
    hk_common::hash::xxhash64(payload, 0)
}

/// Appends one record: the payload `write` streams straight into `out`
/// (the ring config or an epoch record), length-prefixed and followed
/// by its checksum. The length is back-patched and the checksum
/// computed over the written range — no intermediate copy.
fn encode_record(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes()); // placeholder
    let payload_at = out.len();
    write(out);
    let payload_len = out.len() - payload_at;
    out[len_at..len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let sum = checksum(&out[payload_at..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

impl<K: FlowKey> SlidingTopK<K> {
    /// The header of a frame of `kind` with `live` records at this
    /// ring's rotation, to which the caller appends the records.
    fn frame_header(&self, kind: u8, live: usize, switch_id: u64, epoch_packets: u32) -> Vec<u8> {
        // The header carries the window as a u16; silent truncation
        // would emit a frame with a wrong ring size. A >65535-epoch
        // window is 65536 sketches of memory — far past any sane
        // deployment — so refuse loudly instead of encoding garbage.
        let window = self.window();
        assert!(
            window <= u16::MAX as usize,
            "window frame fields exceed the wire format's u16 range ({window} epochs)"
        );
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(FRAME_MAGIC);
        out.extend_from_slice(&[FRAME_VERSION, kind, K::ENCODED_LEN as u8]);
        out.extend_from_slice(&switch_id.to_le_bytes());
        out.extend_from_slice(&self.rotations().to_le_bytes());
        // `live` is at most the window.
        out.extend_from_slice(&(window as u16).to_le_bytes());
        out.extend_from_slice(&(live as u16).to_le_bytes());
        out.extend_from_slice(&epoch_packets.to_le_bytes());
        out
    }

    /// A dirty frame carrying `closed`, the epoch closed by the latest
    /// rotation, diffed against `base` — the epoch closed one rotation
    /// earlier — or against the empty baseline when `base` is `None`.
    fn dirty_frame(
        &self,
        closed: &ParallelTopK<K>,
        base: Option<&ParallelTopK<K>>,
        switch_id: u64,
        epoch_packets: u32,
    ) -> Vec<u8> {
        let mut out = self.frame_header(DIRTY_KIND, 1, switch_id, epoch_packets);
        encode_record(&mut out, |out| encode_epoch_record(out, closed, base));
        out
    }

    /// Exports the whole ring as a full window frame: the ring's
    /// configuration once (its base array count included), then every
    /// live epoch oldest first, the accumulating newest last, each as
    /// the empty-baseline record [`export_delta`] ships. The frame
    /// costs what the ring holds, not its capacity. This is the initial
    /// snapshot a dirty stream starts from, the resync payload after
    /// loss and the windowed shard checkpoint. An open epoch that no
    /// write reached since the last rotation — a new ring, or one
    /// exported right after it rotated — is written without a scan.
    ///
    /// [`export_delta`]: SlidingTopK::export_delta
    pub fn export_frame(&self, switch_id: u64, epoch_packets: u32) -> Vec<u8> {
        let mut out = self.frame_header(FULL_KIND, self.live_epochs(), switch_id, epoch_packets);
        let cfg = self.config();
        encode_record(&mut out, |out| encode_config(out, cfg, cfg.arrays));
        let live = self.live_epochs();
        for (i, epoch) in self.epoch_iter().enumerate() {
            let fresh = i + 1 == live && self.open_is_fresh();
            encode_record(&mut out, |out| {
                if fresh {
                    encode_fresh_record(out, epoch)
                } else {
                    encode_epoch_record(out, epoch, None)
                }
            });
        }
        out
    }

    /// Exports the newest *closed* epoch as a dirty frame against the
    /// empty baseline: a self-contained record that needs no earlier
    /// export. It is [`export_dirty`]'s encoder with the baseline left
    /// out.
    ///
    /// Returns `None` when no closed epoch is live — before the first
    /// rotation, and *always* for a `W = 1` window (its only slot is the
    /// accumulating epoch; rotation evicts the closed one immediately) —
    /// ship [`export_frame`] instead.
    ///
    /// [`export_dirty`]: SlidingTopK::export_dirty
    /// [`export_frame`]: SlidingTopK::export_frame
    pub fn export_delta(&self, switch_id: u64, epoch_packets: u32) -> Option<Vec<u8>> {
        Some(self.dirty_frame(self.newest_closed()?, None, switch_id, epoch_packets))
    }

    /// Exports the newest closed epoch as a dirty frame: a patch of
    /// only the buckets whose packed words differ from the epoch closed
    /// one rotation earlier, which the ring still holds two behind the
    /// newest — plain word compares at export time, no per-write dirty
    /// tracking, the ingest hot path untouched. A collector applies the
    /// patch to a replica standing at `rotation - 1`, whose newest
    /// closed epoch is that baseline.
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
    /// [`export_frame`]: SlidingTopK::export_frame
    /// [`from_epochs`]: SlidingTopK::from_epochs
    /// [`merge_from`]: SlidingTopK::merge_from
    /// [`retain_monitored`]: SlidingTopK::retain_monitored
    pub fn export_dirty(&self, switch_id: u64, epoch_packets: u32) -> Option<Vec<u8>> {
        let closed = self.newest_closed()?;
        Some(self.dirty_frame(closed, self.patch_base(), switch_id, epoch_packets))
    }
}

/// Bytes a dirty record spends on a changed fingerprint's XOR:
/// ⌈`fingerprint_bits` / 8⌉, so 1–4.
fn fp_bytes(fingerprint_bits: u32) -> usize {
    fingerprint_bits.div_ceil(8) as usize
}

/// Appends an epoch record's header, up to its first row: a `rows ×
/// width` epoch with `fp_bytes`-byte fingerprint XORs, against a
/// baseline of `base_rows` rows (`0`, the empty baseline).
fn encode_record_header(
    out: &mut Vec<u8>,
    fp_bytes: usize,
    base_rows: usize,
    rows: usize,
    width: usize,
) {
    out.extend_from_slice(DIRTY_MAGIC);
    out.push(fp_bytes as u8);
    for field in [base_rows, rows, width] {
        hk_common::varint::write_u64(out, field as u64);
    }
}

/// Appends an epoch record payload: `epoch` diffed against `base` (rows
/// beyond it — Section III-F expansion since the baseline closed — and
/// every row when `base` is `None` against all-empty buckets), then the
/// whole top-k store (small — `k` entries — and not worth diffing).
fn encode_epoch_record<K: FlowKey>(
    out: &mut Vec<u8>,
    epoch: &ParallelTopK<K>,
    base: Option<&ParallelTopK<K>>,
) {
    use hk_common::varint;

    let (sketch, base) = (epoch.sketch(), base.map(|b| b.sketch().buckets()));
    let fp_bytes = fp_bytes(sketch.fingerprint_bits());
    let base_rows = base.map_or(0, |b| b.rows());
    encode_record_header(out, fp_bytes, base_rows, sketch.arrays(), sketch.width());
    with_matrix!(sketch.buckets(), m => encode_dirty_rows(out, m, base, fp_bytes));
    let top = canonical_top_k(epoch);
    varint::write_u64(out, top.len() as u64);
    for (key, count) in &top {
        out.extend_from_slice(key.key_bytes().as_slice());
        varint::write_u64(out, *count);
    }
}

/// Appends the record [`encode_epoch_record`] writes for `epoch` against
/// the empty baseline, for an as-constructed `epoch`, without reading
/// its buckets: every row's bitmap is one zero run and the store is
/// empty.
fn encode_fresh_record<K: FlowKey>(out: &mut Vec<u8>, epoch: &ParallelTopK<K>) {
    use hk_common::varint;

    debug_assert!(epoch.top_k().is_empty(), "an as-constructed epoch");
    let sketch = epoch.sketch();
    let fp_bytes = fp_bytes(sketch.fingerprint_bits());
    encode_record_header(out, fp_bytes, 0, sketch.arrays(), sketch.width());
    let zeros = vec![0u64; sketch.width().div_ceil(64)];
    for _ in 0..sketch.arrays() {
        varint::write_bitmap_rle(out, &zeros);
    }
    varint::write_u64(out, 0);
}

/// Appends a dirty patch's rows, over words `W`: per row the diff
/// bitmap against `base`, then one entry per changed bucket — the XOR
/// of its counter fields shifted over a flag bit, and the XOR of its
/// fingerprints in `fp_bytes` bytes when the flag is set. Both words
/// pack one layout, so one word XOR XORs each field in place.
fn encode_dirty_rows<W: BucketWord>(
    out: &mut Vec<u8>,
    m: &BucketMatrix<W>,
    base: Option<&Buckets>,
    fp_bytes: usize,
) {
    use hk_common::varint;

    let base = base.map(|b| W::matrix(b).expect("a ring's epochs pack the same word"));
    let base_rows = base.map_or(0, |b| b.rows());
    let layout = m.layout();
    let mut bitmap: Vec<u64> = Vec::new();
    for j in 0..m.rows() {
        let base = base.filter(|_| j < base_rows).map(|b| b.row(j));
        let changed = m.diff_row_bitmap(j, base, &mut bitmap);
        varint::write_bitmap_rle(out, &bitmap);
        out.reserve(changed * (1 + fp_bytes));
        // Visit only the set bits, in ascending bucket order.
        let row = m.row(j);
        for (w, &bits) in bitmap.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let xor = base.map_or(0, |b| b[i].to_u64()) ^ row[i].to_u64();
                let fp_xor = layout.fp(xor);
                // Both fingerprints fit the configured width.
                assert!(
                    u64::from(fp_xor) >> (8 * fp_bytes) == 0,
                    "fingerprint XOR {fp_xor:#x} exceeds {fp_bytes} bytes"
                );
                varint::write_u64(out, layout.count(xor) << 1 | u64::from(fp_xor != 0));
                // Store all four fingerprint bytes and keep `fp_bytes`
                // of them only when the fingerprint changed: fixed-size
                // stores, no branch on the flag.
                out.extend_from_slice(&fp_xor.to_le_bytes());
                out.truncate(out.len() - 4 + if fp_xor != 0 { fp_bytes } else { 0 });
            }
        }
    }
}

/// Walks the rows of a dirty record from `*pos`: per row the RLE diff
/// bitmap, then one entry per set bit. Calls `visit(index, count_xor,
/// fp_xor)` for each changed bucket, at its row-major index, ascending;
/// every index is below `rows × width`, and every entry is canonical (a
/// nonzero head, a nonzero fingerprint XOR when flagged). A dirty
/// frame's decode walks with a no-op visitor to check a record's
/// structure, and every write into an epoch walks with the XOR, so the
/// two cannot disagree on the format.
fn walk_dirty_rows(
    data: &[u8],
    pos: &mut usize,
    rows: usize,
    width: usize,
    fp_bytes: usize,
    visit: impl FnMut(usize, u64, u32),
) -> Result<(), WireError> {
    // One copy per fingerprint width, so each reads its bytes as a
    // fixed-size load.
    match fp_bytes {
        1 => walk_rows::<1>(data, pos, rows, width, visit),
        2 => walk_rows::<2>(data, pos, rows, width, visit),
        3 => walk_rows::<3>(data, pos, rows, width, visit),
        4 => walk_rows::<4>(data, pos, rows, width, visit),
        _ => Err(WireError::Corrupt("fingerprint bytes")),
    }
}

/// [`walk_dirty_rows`] for `FP` fingerprint bytes.
fn walk_rows<const FP: usize>(
    data: &[u8],
    pos: &mut usize,
    rows: usize,
    width: usize,
    mut visit: impl FnMut(usize, u64, u32),
) -> Result<(), WireError> {
    use hk_common::varint;

    let bitmap_words = width.div_ceil(64);
    let mut set_words: Vec<(usize, u64)> = Vec::new();
    for j in 0..rows {
        varint::read_bitmap_rle(data, pos, bitmap_words, &mut set_words)
            .ok_or(WireError::Corrupt("dirty bitmap"))?;
        for &(w, bits) in &set_words {
            // Bits past `width` in the last bitmap word name no bucket.
            if w + 1 == bitmap_words && !width.is_multiple_of(64) && bits >> (width % 64) != 0 {
                return Err(WireError::Corrupt("dirty bitmap tail"));
            }
            let word_at = j * width + w * 64;
            let mut bits = bits;
            while bits != 0 {
                let at = word_at + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = varint::read_u64(data, pos).ok_or(WireError::Corrupt("patch varint"))?;
                if head == 0 {
                    // Nothing changed, so the bitmap bit must not have
                    // been set.
                    return Err(WireError::Corrupt("zero dirty diff"));
                }
                let mut fp_xor = 0;
                if head & 1 != 0 {
                    let bytes = data.get(*pos..*pos + FP).ok_or(WireError::Truncated)?;
                    *pos += FP;
                    fp_xor = bytes.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b));
                    if fp_xor == 0 {
                        return Err(WireError::Corrupt("zero fingerprint diff"));
                    }
                }
                visit(at, head >> 1, fp_xor);
            }
        }
    }
    Ok(())
}

/// Walks a dirty record's store from `*pos`, calling `visit(key,
/// count)` per entry; the record must end with it.
fn walk_dirty_store<K: FlowKey>(
    data: &[u8],
    pos: &mut usize,
    mut visit: impl FnMut(K, u64),
) -> Result<(), WireError> {
    use hk_common::varint;

    let n = varint::read_u64(data, pos).ok_or(WireError::Corrupt("patch varint"))?;
    if n > ((data.len() - *pos) / (K::ENCODED_LEN + 1)) as u64 {
        // Every entry costs its key bytes and at least one count byte.
        return Err(WireError::Corrupt("store size"));
    }
    for _ in 0..n {
        let end = pos
            .checked_add(K::ENCODED_LEN)
            .ok_or(WireError::Truncated)?;
        let kb = data.get(*pos..end).ok_or(WireError::Truncated)?;
        *pos = end;
        let key = K::from_key_bytes(kb).ok_or(WireError::KeyMismatch)?;
        let count = varint::read_u64(data, pos).ok_or(WireError::Corrupt("patch varint"))?;
        if count == 0 {
            return Err(WireError::Corrupt("zero store count"));
        }
        visit(key, count);
    }
    if *pos != data.len() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(())
}

/// What an epoch record's header claims: its geometry, its baseline,
/// and where its rows start.
#[derive(Debug, Clone, Copy)]
struct RecordHeader {
    fp_bytes: usize,
    base_rows: usize,
    rows: usize,
    width: usize,
    rows_at: usize,
}

impl RecordHeader {
    /// Reads the header of one "HKDP" record payload (checksum already
    /// verified by the frame decoder).
    fn parse(data: &[u8]) -> Result<Self, WireError> {
        use hk_common::varint;

        if data.len() < 4 || &data[..4] != DIRTY_MAGIC {
            return Err(WireError::Corrupt("dirty patch magic"));
        }
        let fp_bytes = usize::from(*data.get(4).ok_or(WireError::Truncated)?);
        if !(1..=4).contains(&fp_bytes) {
            return Err(WireError::Corrupt("fingerprint bytes"));
        }
        let mut pos = 5usize;
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
        Ok(Self {
            fp_bytes,
            base_rows: base_rows as usize,
            rows: rows as usize,
            width: width as usize,
            rows_at: pos,
        })
    }

    /// Refuses a record that no epoch of a ring built from `cfg` could
    /// have written: another width, another fingerprint width, or more
    /// rows than Section III-F lets the ring grow.
    fn check_ring(&self, cfg: &HkConfig) -> Result<(), WireError> {
        if self.width != cfg.width {
            return Err(WireError::Corrupt("patch width"));
        }
        if self.fp_bytes != fp_bytes(cfg.fingerprint_bits) {
            return Err(WireError::Corrupt("fingerprint bytes"));
        }
        if self.rows > max_rows(cfg) {
            return Err(WireError::Corrupt("array count"));
        }
        Ok(())
    }

    /// Writes the record `data` into `epoch`, an as-constructed epoch of
    /// `rows` rows, in one walk: seeds it from `base` when given, XORs
    /// every entry over it, checking each written bucket's fields, then
    /// offers the store largest-first. On error the epoch holds garbage;
    /// the caller discards it.
    fn write<K: FlowKey>(
        &self,
        data: &[u8],
        epoch: &mut ParallelTopK<K>,
        base: Option<&Buckets>,
    ) -> Result<(), WireError> {
        let cfg = epoch.config();
        let (k, fp_max, counter_max) = (
            cfg.k,
            u64::MAX >> (64 - cfg.fingerprint_bits),
            cfg.counter_max(),
        );
        let mut pos = self.rows_at;
        with_matrix!(epoch.sketch_mut().buckets_mut(), m => {
            self.xor_rows(data, m, base, &mut pos, fp_max, counter_max)
        })?;
        let mut store = Vec::new();
        walk_dirty_store::<K>(data, &mut pos, |key, count| store.push((key, count)))?;
        if store.len() > k {
            return Err(WireError::Corrupt("store size"));
        }
        store.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for (key, count) in store {
            epoch.offer(key, count);
        }
        Ok(())
    }

    /// The bucket half of [`RecordHeader::write`], over words `W`:
    /// seeds `m` (as-constructed, `rows × width`) from the baseline's
    /// words, then XORs each entry's fields over its bucket. The three
    /// checks fold into one flag word, read once after the walk; a bad
    /// bucket is written masked to the word, and the caller discards
    /// the epoch.
    fn xor_rows<W: BucketWord>(
        &self,
        data: &[u8],
        m: &mut BucketMatrix<W>,
        base: Option<&Buckets>,
        pos: &mut usize,
        fp_max: u64,
        counter_max: u64,
    ) -> Result<(), WireError> {
        if let Some(base) = base {
            let src = W::matrix(base).ok_or(WireError::Corrupt("patch baseline"))?;
            let shared = m.rows().min(src.rows()) * m.width();
            m.data_mut()[..shared].copy_from_slice(&src.data()[..shared]);
        }
        let layout = m.layout();
        let shift = layout.count_bits();
        let word_mask = u64::MAX >> (64 - 8 * std::mem::size_of::<W>());
        let words = m.data_mut();
        let mut bad = 0u8;
        walk_dirty_rows(
            data,
            pos,
            self.rows,
            self.width,
            self.fp_bytes,
            |at, count_xor, fp_xor| {
                let old = words[at].to_u64();
                let fp = u64::from(layout.fp(old) ^ fp_xor);
                let count = layout.count(old) ^ count_xor;
                bad |= u8::from(fp > fp_max)
                    | u8::from(count > counter_max) << 1
                    | u8::from(count == 0 && fp != 0) << 2;
                words[at] = W::from_u64((fp << shift | count) & word_mask);
            },
        )?;
        match bad {
            0 => Ok(()),
            b if b & 1 != 0 => Err(WireError::Corrupt("bucket fingerprint")),
            b if b & 2 != 0 => Err(WireError::Corrupt("bucket counter")),
            _ => Err(WireError::Corrupt("empty bucket with fingerprint")),
        }
    }
}

/// A dirty record: the geometry its header claims and its checksummed
/// bytes. Nothing is expanded per bucket: the collector walks the bytes
/// once, to XOR them into its replica, or checks and keeps them until
/// the gap before them fills, so a patch costs its wire bytes.
#[derive(Debug, Clone)]
pub struct DirtyPatch<K: FlowKey> {
    header: RecordHeader,
    record: Box<[u8]>,
    key: PhantomData<K>,
}

impl<K: FlowKey> DirtyPatch<K> {
    /// Matrix rows of the baseline the patch was diffed against: the
    /// epoch closed one rotation earlier, or `0` for the empty baseline
    /// (the patch then carries the whole epoch on its own).
    pub fn base_rows(&self) -> usize {
        self.header.base_rows
    }

    /// Matrix rows of the patched epoch (the new epoch's array count —
    /// Section III-F expansion can make it differ from the baseline's).
    pub fn rows(&self) -> usize {
        self.header.rows
    }

    /// Matrix width of the patched epoch (must equal the ring's).
    pub fn width(&self) -> usize {
        self.header.width
    }

    /// Reads one dirty frame's record header and keeps the record; its
    /// rows and store are read by [`DirtyPatch::check`] or by the apply.
    fn parse(data: &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            header: RecordHeader::parse(data)?,
            record: data.into(),
            key: PhantomData,
        })
    }

    /// Walks the record's bitmaps, entries, store and trailing bytes.
    /// Semantic limits (counter and fingerprint ranges, the ring's
    /// geometry, store size, the baseline) need the ring and are
    /// enforced by [`DirtyPatch::apply_to`], whose walk also makes
    /// every check this one makes.
    pub(crate) fn check(&self) -> Result<(), WireError> {
        let (h, data) = (&self.header, &self.record[..]);
        let mut pos = h.rows_at;
        walk_dirty_rows(data, &mut pos, h.rows, h.width, h.fp_bytes, |_, _, _| {})?;
        walk_dirty_store::<K>(data, &mut pos, |_, _| {})
    }

    /// Applies the patch as `replica`'s next rotation, in place: the
    /// replica's open epoch becomes the closed epoch the patch
    /// describes, and the ring advances
    /// ([`SlidingTopK::close_open_epoch`]). The open epoch is seeded
    /// from the baseline — the replica's newest closed epoch, bit-exact
    /// by the rotation protocol — when [`base_rows`](DirtyPatch::base_rows)
    /// names one, which must then have exactly that many rows. No epoch
    /// or matrix is allocated unless Section III-F expansion changed the
    /// row count. On any error the replica is left bit-identical.
    pub(crate) fn apply_to(&self, replica: &mut SlidingTopK<K>) -> Result<(), WireError> {
        let h = &self.header;
        h.check_ring(replica.config())?;
        replica.close_open_epoch(|open, closed| {
            let base = match (h.base_rows, closed) {
                (0, _) => None,
                (rows, Some(b)) if b.sketch().arrays() == rows => Some(b.sketch().buckets()),
                _ => return Err(WireError::Corrupt("patch baseline")),
            };
            // The open epoch is as-constructed: only a row count that
            // expansion changed needs a new matrix.
            if open.sketch().arrays() != h.rows {
                open.recycle(h.rows);
            }
            h.write(&self.record, open, base)
        })
    }
}

/// Reads record 0, the config of a `window`-epoch ring (a sketch is a
/// ring of one), refusing a ring over [`MAX_RING_BYTES`] before anything
/// is allocated.
fn decode_config_record(r: &mut Reader<'_>, window: usize) -> Result<HkConfig, WireError> {
    let data = r.record(0)?;
    let mut c = Reader { data, pos: 0 };
    let cfg = decode_config(&mut c)?;
    if c.pos != data.len() {
        return Err(WireError::Corrupt("config length"));
    }
    if ring_bytes(&cfg, window).is_none_or(|n| n > MAX_RING_BYTES) {
        return Err(WireError::Corrupt("ring size"));
    }
    Ok(cfg)
}

/// Reads record `index` as an epoch of a ring built from `cfg`, against
/// the empty baseline, and writes it in one walk into a fresh epoch of
/// the rows it names; `rows`, when given, is the only row count
/// accepted. Nothing is allocated for a record the ring refuses.
fn decode_epoch<K: FlowKey>(
    r: &mut Reader<'_>,
    index: usize,
    cfg: &HkConfig,
    rows: Option<usize>,
) -> Result<ParallelTopK<K>, WireError> {
    let data = r.record(index)?;
    let h = RecordHeader::parse(data)?;
    h.check_ring(cfg)?;
    if rows.is_some_and(|rows| rows != h.rows) {
        return Err(WireError::Corrupt("array count"));
    }
    if h.base_rows != 0 {
        return Err(WireError::Corrupt("patch baseline"));
    }
    let mut epoch = ParallelTopK::new(HkConfig {
        arrays: h.rows,
        ..cfg.clone()
    });
    h.write(data, &mut epoch, None)?;
    Ok(epoch)
}

/// Decodes a full frame's records: the ring config, then `live` epochs.
fn decode_ring<K: FlowKey>(
    r: &mut Reader<'_>,
    window: usize,
    rotation: u64,
    live: usize,
) -> Result<SlidingTopK<K>, WireError> {
    let cfg = decode_config_record(r, window)?;
    let epochs = (1..=live)
        .map(|index| decode_epoch(r, index, &cfg, None))
        .collect::<Result<_, _>>()?;
    Ok(SlidingTopK::from_epochs(cfg, window, rotation, epochs))
}

impl<K: FlowKey> WindowFrame<K> {
    /// Decodes a window frame produced by
    /// [`SlidingTopK::export_frame`], [`SlidingTopK::export_dirty`] or
    /// [`SlidingTopK::export_delta`].
    ///
    /// Every header field is validated and every record must pass its
    /// checksum before its payload is decoded; any truncation,
    /// corruption or inconsistency (a dirty frame with ≠ 1 record, more
    /// live epochs than the window holds or than the rotation count
    /// allows, an epoch record another ring wrote, a ring over
    /// [`MAX_RING_BYTES`], a dirty record whose rows or store do not
    /// walk) is rejected.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let frame = Self::parse(data)?;
        if let FrameBody::Dirty(patch) = &frame.body {
            patch.check()?;
        }
        Ok(frame)
    }

    /// [`WindowFrame::decode`] short of walking a dirty record's rows
    /// and store ([`DirtyPatch::check`]): the collector leaves that walk
    /// to the apply of a frame it applies at once.
    pub(crate) fn parse(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::open(data, FRAME_MAGIC, FRAME_VERSION)?;
        // Kind 1, the retired delta, is unknown here.
        let kind = r.u8()?;
        if kind != FULL_KIND && kind != DIRTY_KIND {
            return Err(WireError::Corrupt("frame kind"));
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
        let body = if kind == DIRTY_KIND {
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
            FrameBody::Dirty(DirtyPatch::parse(r.record(0)?)?)
        } else {
            // The ring grows by one epoch per rotation from one, so
            // more live epochs than `rotation + 1` are impossible.
            if live as u64 > rotation.saturating_add(1) {
                return Err(WireError::Corrupt("more epochs than rotations"));
            }
            FrameBody::Full(decode_ring(&mut r, window, rotation, live)?)
        };
        if r.pos != data.len() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(Self {
            switch_id,
            rotation,
            window,
            epoch_packets,
            body,
        })
    }
}

// -- Checkpoint encode/restore hooks ------------------------------------
//
// A shard checkpoint IS a wire payload: an `HKSK` payload for a steady
// sketch, a full window frame for a sliding window. Both satisfy the
// `ShardCheckpoint` bit-exactness contract for everything the codec
// ships; the decay RNG position is transient by design (module docs).

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

impl<K: FlowKey> hk_common::ShardCheckpoint for SlidingTopK<K> {
    fn encode_checkpoint(&self) -> Vec<u8> {
        self.export_frame(CHECKPOINT_SWITCH_ID, 0)
    }

    fn restore_checkpoint(bytes: &[u8]) -> Option<Self> {
        match WindowFrame::<K>::decode(bytes).ok()?.body {
            FrameBody::Full(ring) => Some(ring),
            FrameBody::Dirty(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::Bucket;

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

    /// Where the config record's payload starts in an `HKSK` payload:
    /// behind the 6-byte header and the record's length.
    const CONFIG_AT: usize = 10;

    /// Recomputes the checksum of the record whose payload starts at
    /// `at`, so that an edited field reaches the payload parser.
    fn refix_checksum(wire: &mut [u8], at: usize) {
        let len = u32::from_le_bytes(wire[at - 4..at].try_into().unwrap()) as usize;
        let sum = checksum(&wire[at..at + len]);
        wire[at + len..at + len + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn corrupt_counter_rejected() {
        // `populated`'s elephants count past 255, so their buckets cannot
        // decode under an 8-bit counter field.
        let mut wire = populated(3).to_wire();
        wire[CONFIG_AT + 11] = 8; // ctr_bits
        refix_checksum(&mut wire, CONFIG_AT);
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("bucket counter")
        );
        // The store byte (config offset 29) must be 0, Stream-Summary.
        let mut wire = populated(3).to_wire();
        wire[CONFIG_AT + 29] = 1;
        refix_checksum(&mut wire, CONFIG_AT);
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("store kind")
        );
        // A 2-row epoch under a config of 3 arrays is not the sketch the
        // config describes.
        let mut wire = populated(3).to_wire();
        wire[CONFIG_AT] = 3;
        refix_checksum(&mut wire, CONFIG_AT);
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("array count")
        );
    }

    #[test]
    fn oversized_field_widths_rejected_not_panicking() {
        // fp_bits = 32 and ctr_bits = 40 each pass the individual range
        // checks but cannot share one packed bucket word; decoding must
        // return Corrupt, not panic in the config constructor.
        let mut wire = populated(3).to_wire();
        // Config: 2 arrays + 4 width + 4 k, then the two bit widths.
        wire[CONFIG_AT + 10] = 32; // fp_bits
        wire[CONFIG_AT + 11] = 40; // ctr_bits
        refix_checksum(&mut wire, CONFIG_AT);
        assert_eq!(
            ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
            WireError::Corrupt("field widths")
        );
    }

    #[test]
    fn version_checked() {
        let mut wire = populated(3).to_wire();
        // v1, the dense codec, is retired.
        for version in [1, 9] {
            wire[4] = version;
            assert_eq!(
                ParallelTopK::<u64>::from_wire(&wire).unwrap_err(),
                WireError::BadVersion(version)
            );
        }
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
        assert_eq!(a.config(), b.config(), "one ring config");
        let canon = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        for (ea, eb) in a.epoch_iter().zip(b.epoch_iter()) {
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

    /// The ring a full frame carries.
    fn ring_of(frame: WindowFrame<u64>) -> crate::SlidingTopK<u64> {
        match frame.body {
            FrameBody::Full(ring) => ring,
            FrameBody::Dirty(_) => panic!("a full frame"),
        }
    }

    /// The patch a dirty frame carries.
    fn patch_of(frame: WindowFrame<u64>) -> DirtyPatch<u64> {
        match frame.body {
            FrameBody::Dirty(patch) => patch,
            FrameBody::Full(_) => panic!("a dirty frame"),
        }
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
        let replica = ring_of(frame);
        assert_eq!(replica.live_epochs(), 3);
        assert_windows_bit_equal(&win, &replica);
    }

    #[test]
    fn full_frame_during_ring_fill() {
        // Fewer live epochs than the window: the frame carries exactly
        // the live ones and the replica keeps growing correctly.
        let win = populated_window(9, 4, 1);
        assert_eq!(win.live_epochs(), 2);
        let frame = WindowFrame::<u64>::decode(&win.export_frame(1, 100)).unwrap();
        let mut replica = ring_of(frame);
        assert_eq!(replica.live_epochs(), 2);
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
        assert_eq!(frame.rotation, 4);
        let patch = patch_of(frame);
        assert_eq!(patch.base_rows(), 0, "the empty baseline");
        // The patch alone rebuilds the epoch just behind the
        // accumulating newest. Its replica stands one rotation earlier,
        // rebuilt from a full frame exported mid-epoch, so its open
        // epoch holds part of that epoch's packets; the apply replaces
        // them with the closed state.
        let before = populated_window(7, 3, 3);
        let mut replica =
            ring_of(WindowFrame::<u64>::decode(&before.export_frame(3, 4000)).unwrap());
        patch.apply_to(&mut replica).unwrap();
        assert_eq!(replica.rotations(), win.rotations());
        let sorted = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        let closed = replica.epoch_iter().rev().skip(1);
        assert_eq!(closed.len(), 2);
        for (rebuilt, closed) in closed.zip(win.epoch_iter().rev().skip(1)) {
            for j in 0..closed.sketch().arrays() {
                for i in 0..closed.sketch().width() {
                    assert_eq!(rebuilt.sketch().bucket(j, i), closed.sketch().bucket(j, i));
                }
            }
            assert_eq!(sorted(rebuilt.top_k()), sorted(closed.top_k()));
        }
        // The open epoch the apply left is as-constructed.
        assert!(replica.epoch_iter().last().unwrap().top_k().is_empty());
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
        assert_eq!(frame.rotation, 0);
        assert_eq!(ring_of(frame).live_epochs(), 1);
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
        let bytes = win.export_frame(3, 4000);
        let replica = ring_of(WindowFrame::<u64>::decode(&bytes).unwrap());
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
        patch_of(WindowFrame::<u64>::decode(bytes).unwrap()).base_rows()
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
        assert_eq!(frame.switch_id, 9);
        assert_eq!(frame.rotation, 2);
        assert_eq!(patch_of(frame).base_rows(), 2);
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

    /// A checksum-valid dirty frame from switch 2 at `rotation` (W = 3)
    /// around the record `payload` writes.
    fn dirty_frame_around(rotation: u64, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut ring = crate::SlidingTopK::<u64>::new(HkConfig::builder().width(64).build(), 3);
        (0..rotation).for_each(|_| ring.rotate());
        let mut out = ring.frame_header(DIRTY_KIND, 1, 2, 3000);
        encode_record(&mut out, payload);
        out
    }

    /// A hand-built dirty frame of `rows` rows of 64 buckets: `entries`
    /// — `(bucket, head, fingerprint XOR bytes)`, ascending — change
    /// row 0, the other rows are unchanged, and the store is empty.
    fn crafted_dirty(
        rotation: u64,
        fp_bytes: u8,
        base_rows: usize,
        rows: usize,
        entries: &[(usize, u64, &[u8])],
    ) -> Vec<u8> {
        use hk_common::varint;
        dirty_frame_around(rotation, |out| {
            encode_record_header(out, fp_bytes.into(), base_rows, rows, 64);
            let bitmap = entries.iter().fold(0u64, |b, &(i, _, _)| b | 1 << i);
            varint::write_bitmap_rle(out, &[bitmap]);
            for &(_, head, fp) in entries {
                varint::write_u64(out, head);
                out.extend_from_slice(fp);
            }
            for _ in 1..rows {
                varint::write_bitmap_rle(out, &[0]);
            }
            varint::write_u64(out, 0); // empty store
        })
    }

    #[test]
    fn dirty_header_and_payload_corruption_rejected() {
        // Header fields, truncation and checksums are swept in
        // tests/wire_window.rs; here, checksum-valid records that are
        // not canonical. A well-formed one first: bucket 3's counter
        // XOR 2, bucket 9's fingerprint XOR 0x0102.
        let entries: [(usize, u64, &[u8]); 2] = [(3, 2 << 1, &[]), (9, 1, &[2, 1])];
        assert!(WindowFrame::<u64>::decode(&crafted_dirty(2, 2, 0, 2, &entries)).is_ok());
        for (frame, error) in [
            // A head of zero says nothing changed under a set bit.
            (
                crafted_dirty(2, 2, 0, 2, &[(3, 0, &[])]),
                WireError::Corrupt("zero dirty diff"),
            ),
            // A flagged entry whose fingerprint XOR is zero.
            (
                crafted_dirty(2, 2, 0, 2, &[(3, 5 << 1 | 1, &[0, 0])]),
                WireError::Corrupt("zero fingerprint diff"),
            ),
            // The record ends inside a fingerprint XOR.
            (
                dirty_frame_around(2, |out| {
                    encode_record_header(out, 2, 0, 1, 64);
                    hk_common::varint::write_bitmap_rle(out, &[1 << 3]);
                    hk_common::varint::write_u64(out, 1);
                    out.push(0x12);
                }),
                WireError::Truncated,
            ),
            // A fingerprint wider than any configuration holds.
            (
                crafted_dirty(2, 5, 0, 2, &entries),
                WireError::Corrupt("fingerprint bytes"),
            ),
            (
                crafted_dirty(2, 0, 0, 2, &entries),
                WireError::Corrupt("fingerprint bytes"),
            ),
        ] {
            assert_eq!(WindowFrame::<u64>::decode(&frame).unwrap_err(), error);
        }
    }

    #[test]
    fn dirty_entries_cost_the_counter_varint_plus_changed_fingerprint_bytes() {
        use crate::bucket::PackedLayout;
        use hk_common::varint;

        for fp_bits in [16u32, 24, 32] {
            let fp_bytes = fp_bytes(fp_bits);
            assert_eq!(fp_bytes, fp_bits as usize / 8);
            let layout = PackedLayout::new(fp_bits, 16);
            let fp_max = u32::MAX >> (32 - fp_bits);
            let b = |fp, count| Bucket { fp, count };
            // One bucket of a one-row matrix changes from `old` to `new`.
            for (old, new) in [
                (b(7, 1), b(7, 2)),
                (b(7, 300), b(7, 0xFFFF)),
                (b(7, 5), b(fp_max, 5)),
                (b(0, 0), b(fp_max, 0xFFFF)),
                (b(9, 40), b(0, 0)),
            ] {
                let (mut base, mut m) = (Buckets::new(1, 64, layout), Buckets::new(1, 64, layout));
                base.set(0, 5, old);
                m.set(0, 5, new);
                let mut out = Vec::new();
                with_matrix!(&m, m => encode_dirty_rows(&mut out, m, Some(&base), fp_bytes));
                let mut bitmap = Vec::new();
                varint::write_bitmap_rle(&mut bitmap, &[1 << 5]);
                let entry = &out[bitmap.len()..];

                let (count_xor, fp_xor) = (old.count ^ new.count, old.fp ^ new.fp);
                let ctx = format!("{fp_bits}-bit fingerprints, {old:?} -> {new:?}");
                let fp_cost = if fp_xor == 0 { 0 } else { fp_bytes };
                assert_eq!(
                    entry.len(),
                    varint::encoded_len(count_xor << 1) + fp_cost,
                    "{ctx}"
                );
                assert_eq!(
                    &entry[entry.len() - fp_cost..],
                    &fp_xor.to_le_bytes()[..fp_cost]
                );
                // The walker reads back the same fields.
                let mut seen = Vec::new();
                let mut pos = 0;
                walk_dirty_rows(&out, &mut pos, 1, 64, fp_bytes, |at, c, f| {
                    seen.push((at, c, f))
                })
                .unwrap();
                assert_eq!(seen, [(5, count_xor, fp_xor)], "{ctx}");
                assert_eq!(pos, out.len(), "{ctx}");
            }
        }
    }

    #[test]
    fn dirty_patch_apply_rejects_empty_bucket_with_fingerprint() {
        // The XOR of two fingerprints that fit their whole bytes always
        // fits them again, so the one reconstruction error an
        // honest-geometry patch can reach at 16+16 is a zero counter
        // under a nonzero fingerprint. A patch is internally consistent
        // on its own — only apply-time validation against the actual
        // baseline can catch this.
        let cfg = HkConfig::builder().width(64).k(4).seed(1).build();
        let mut replica = crate::SlidingTopK::<u64>::new(cfg, 3);
        replica.rotate();
        let before = replica.clone();
        // Bucket 3's fingerprint XOR 1 over an empty baseline.
        let frame =
            WindowFrame::<u64>::decode(&crafted_dirty(2, 2, 0, 2, &[(3, 1, &[1, 0])])).unwrap();
        assert_eq!(
            patch_of(frame).apply_to(&mut replica).unwrap_err(),
            WireError::Corrupt("empty bucket with fingerprint")
        );
        assert_windows_bit_equal(&replica, &before);
    }

    #[test]
    fn malicious_dirty_frame_rejected_at_apply_and_flags_resync() {
        use crate::collector::{AggregationRule, Collector, WindowSubmit, WindowSubmitError};
        // 12-bit fingerprints travel in 2 bytes and counters in a 16-bit
        // field, so a crafted entry can overflow either.
        let cfg = HkConfig::builder()
            .width(64)
            .k(4)
            .seed(8)
            .fingerprint_bits(12)
            .build();
        // The replica's open epoch is either the fresh one a rotation
        // left, or one holding packets because the snapshot was exported
        // mid-epoch; a failed apply must restore either bit for bit.
        for mid_epoch in [false, true] {
            let mut win = crate::SlidingTopK::<u64>::new(cfg.clone(), 3);
            let mut coll = Collector::<u64>::new(4, AggregationRule::Sum);
            feed_and_rotate(&mut win, 1, 0);
            if mid_epoch {
                win.insert_batch(&[5u64; 300]);
                coll.submit_window_frame(&win.export_frame(2, 3000))
                    .unwrap();
            } else {
                coll.submit_window_frame(&win.export_frame(2, 3000))
                    .unwrap();
                feed_and_rotate(&mut win, 2, 1);
                let bytes = win.export_dirty(2, 3000).unwrap();
                assert_eq!(
                    coll.submit_window_frame(&bytes).unwrap(),
                    WindowSubmit::Applied
                );
            }
            let before = coll.switch_window(2).unwrap().clone();
            let open_packets = before.epoch_iter().last().unwrap().top_k();
            assert_eq!(!open_packets.is_empty(), mid_epoch, "precondition");
            let next = before.rotations() + 1;
            let baseline = before.epoch_iter().rev().nth(1).unwrap().sketch();
            let rows = baseline.arrays();
            // Empties bucket 0 but keeps a fingerprint, whatever the
            // baseline holds there.
            let b = baseline.bucket(0, 0);
            let empty_with_fp: (u64, Vec<u8>) = if b.count == 0 {
                (1, vec![1, 0])
            } else {
                (b.count << 1, Vec::new())
            };
            let fp_too_wide = (1u16 << 12).to_le_bytes();
            for (frame, error) in [
                (
                    crafted_dirty(next, 2, rows, rows, &[(0, 1, &fp_too_wide)]),
                    "bucket fingerprint",
                ),
                (
                    crafted_dirty(next, 2, rows, rows, &[(0, 1 << 17, &[])]),
                    "bucket counter",
                ),
                (
                    crafted_dirty(
                        next,
                        2,
                        rows,
                        rows,
                        &[(0, empty_with_fp.0, &empty_with_fp.1)],
                    ),
                    "empty bucket with fingerprint",
                ),
                (
                    crafted_dirty(next, 3, rows, rows, &[(0, 1, &[1, 0, 0])]),
                    "fingerprint bytes",
                ),
                (
                    crafted_dirty(next, 2, rows + 1, rows, &[(0, 2, &[])]),
                    "patch baseline",
                ),
                (
                    crafted_dirty(next, 2, rows, rows + 1, &[(0, 2, &[])]),
                    "array count",
                ),
            ] {
                let ctx = format!("mid-epoch snapshot {mid_epoch}: {error}");
                assert!(WindowFrame::<u64>::decode(&frame).is_ok(), "{ctx}");
                assert_eq!(
                    coll.submit_window_frame(&frame).unwrap_err(),
                    WindowSubmitError::Wire(WireError::Corrupt(error)),
                    "{ctx}"
                );
                // The replica kept its pre-frame state, open epoch
                // included, and the switch is flagged: the rotation was
                // seen but never applied.
                assert_windows_bit_equal(coll.switch_window(2).unwrap(), &before);
                assert_eq!(coll.resync_needed(), vec![2], "{ctx}");
            }
            // A snapshot heals, as after any loss, and the stream goes
            // on patching.
            feed_and_rotate(&mut win, 3, 2);
            coll.submit_window_frame(&win.export_frame(2, 3000))
                .unwrap();
            assert!(coll.resync_needed().is_empty());
            assert_windows_bit_equal(&win, coll.switch_window(2).unwrap());
            feed_and_rotate(&mut win, 4, 3);
            let bytes = win.export_dirty(2, 3000).unwrap();
            assert_eq!(
                coll.submit_window_frame(&bytes).unwrap(),
                WindowSubmit::Applied
            );
            assert_windows_bit_equal(&win, coll.switch_window(2).unwrap());
        }
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
        let patch = patch_of(WindowFrame::<u64>::decode(&bytes).unwrap());
        assert_eq!(patch.base_rows(), 2, "patched against the ring");
        assert!(patch.rows() > 2);
        assert_eq!(
            coll.submit_window_frame(&bytes).unwrap(),
            WindowSubmit::Applied
        );
        assert_windows_bit_equal(&win, coll.switch_window(3).unwrap());
    }

    #[test]
    fn fresh_open_epoch_record_equals_the_scanned_record() {
        // The record `export_frame` writes for an as-constructed open
        // epoch without reading it must be the bytes the scan writes:
        // for a new ring and a just-rotated one, at a width of whole
        // bitmap words and one with a tail.
        for width in [256, 1_000] {
            let cfg = HkConfig::builder()
                .arrays(2)
                .width(width)
                .k(16)
                .seed(41)
                .build();
            let new = crate::SlidingTopK::<u64>::new(cfg.clone(), 4);
            let mut rotated = crate::SlidingTopK::<u64>::new(cfg, 4);
            for r in 0..5 {
                feed_and_rotate(&mut rotated, 7, r);
            }
            for (ring, name) in [(&new, "new"), (&rotated, "rotated")] {
                assert!(ring.open_is_fresh(), "{name} ring, width {width}");
                let open = ring.epoch_iter().last().unwrap();
                let (mut direct, mut scanned) = (Vec::new(), Vec::new());
                encode_fresh_record(&mut direct, open);
                encode_epoch_record(&mut scanned, open, None);
                assert_eq!(direct, scanned, "{name} ring, width {width}");
            }
        }
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
}
