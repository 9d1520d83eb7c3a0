//! Compact binary trace serialization.
//!
//! Traces can be written to and read from a simple framed binary format
//! so that expensive generations (e.g. the calibrated campus/CAIDA-like
//! traces) can be cached on disk between experiment runs:
//!
//! ```text
//! magic "HKTR" | version u8 | kind u8 | reserved u16 | count u64 | records...
//! ```
//!
//! Records are fixed-width little-endian encodings of the flow ID.

use crate::flow::{FiveTuple, SrcDst};
use crate::synthetic::Trace;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"HKTR";
const VERSION: u8 = 1;

/// A flow-ID type that can be stored in a trace file.
pub trait TraceRecord: Sized {
    /// Fixed record width in bytes.
    const WIDTH: usize;
    /// Discriminator stored in the file header.
    const KIND: u8;
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes one record; `buf` is advanced by [`TraceRecord::WIDTH`].
    fn decode(buf: &mut Bytes) -> Self;
}

impl TraceRecord for u64 {
    const WIDTH: usize = 8;
    const KIND: u8 = 0;
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u64_le()
    }
}

impl TraceRecord for u32 {
    const WIDTH: usize = 4;
    const KIND: u8 = 1;
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u32_le()
    }
}

impl TraceRecord for FiveTuple {
    const WIDTH: usize = 13;
    const KIND: u8 = 2;
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes());
    }
    fn decode(buf: &mut Bytes) -> Self {
        let mut b = [0u8; 13];
        buf.copy_to_slice(&mut b);
        FiveTuple::from_bytes(&b)
    }
}

impl TraceRecord for SrcDst {
    const WIDTH: usize = 8;
    const KIND: u8 = 3;
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes());
    }
    fn decode(buf: &mut Bytes) -> Self {
        let mut b = [0u8; 8];
        buf.copy_to_slice(&mut b);
        SrcDst::from_bytes(&b)
    }
}

/// Serializes a trace into bytes.
pub fn to_bytes<K: TraceRecord>(trace: &Trace<K>) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + trace.packets.len() * K::WIDTH);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(K::KIND);
    buf.put_u16_le(0); // Reserved.
    buf.put_u64_le(trace.packets.len() as u64);
    for p in &trace.packets {
        p.encode(&mut buf);
    }
    buf.freeze()
}

/// Errors from trace deserialization.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceIoError {
    /// File does not start with the `HKTR` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The stored key kind does not match the requested type.
    KindMismatch {
        /// Kind stored in the file.
        stored: u8,
        /// Kind of the requested Rust type.
        requested: u8,
    },
    /// The byte stream ended before `count` records were read.
    Truncated,
    /// Underlying I/O failure (message only, for `PartialEq`).
    Io(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a HKTR trace file"),
            Self::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            Self::KindMismatch { stored, requested } => {
                write!(f, "trace stores key kind {stored}, requested {requested}")
            }
            Self::Truncated => write!(f, "trace file truncated"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Deserializes a trace from bytes.
pub fn from_bytes<K: TraceRecord>(mut data: Bytes, name: &str) -> Result<Trace<K>, TraceIoError> {
    if data.remaining() < 16 {
        return Err(TraceIoError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let kind = data.get_u8();
    if kind != K::KIND {
        return Err(TraceIoError::KindMismatch {
            stored: kind,
            requested: K::KIND,
        });
    }
    let _reserved = data.get_u16_le();
    let count = data.get_u64_le() as usize;
    let needed = count.checked_mul(K::WIDTH).ok_or(TraceIoError::Truncated)?;
    if data.remaining() < needed {
        return Err(TraceIoError::Truncated);
    }
    let mut packets = Vec::with_capacity(count);
    for _ in 0..count {
        packets.push(K::decode(&mut data));
    }
    Ok(Trace::new(name, packets))
}

/// Writes a trace to any `Write` sink.
pub fn write_trace<K: TraceRecord, W: Write>(
    trace: &Trace<K>,
    w: &mut W,
) -> Result<(), TraceIoError> {
    w.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Reads a trace from any `Read` source.
pub fn read_trace<K: TraceRecord, R: Read>(
    r: &mut R,
    name: &str,
) -> Result<Trace<K>, TraceIoError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_bytes(Bytes::from(data), name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let t = Trace::new("t", vec![1u64, 99, u64::MAX]);
        let b = to_bytes(&t);
        let t2: Trace<u64> = from_bytes(b, "t").unwrap();
        assert_eq!(t.packets, t2.packets);
    }

    #[test]
    fn five_tuple_roundtrip() {
        let t = Trace::new("ft", (0..100u64).map(FiveTuple::from_index).collect());
        let t2: Trace<FiveTuple> = from_bytes(to_bytes(&t), "ft").unwrap();
        assert_eq!(t.packets, t2.packets);
    }

    #[test]
    fn srcdst_roundtrip() {
        let t = Trace::new("sd", (0..100u64).map(SrcDst::from_index).collect());
        let t2: Trace<SrcDst> = from_bytes(to_bytes(&t), "sd").unwrap();
        assert_eq!(t.packets, t2.packets);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t: Trace<u64> = Trace::new("empty", vec![]);
        let t2: Trace<u64> = from_bytes(to_bytes(&t), "empty").unwrap();
        assert!(t2.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let r: Result<Trace<u64>, _> = from_bytes(Bytes::from_static(b"NOPE000000000000"), "x");
        assert_eq!(r.unwrap_err(), TraceIoError::BadMagic);
    }

    #[test]
    fn kind_mismatch_rejected() {
        let t = Trace::new("t", vec![1u64]);
        let b = to_bytes(&t);
        let r: Result<Trace<u32>, _> = from_bytes(b, "t");
        assert!(matches!(
            r.unwrap_err(),
            TraceIoError::KindMismatch {
                stored: 0,
                requested: 1
            }
        ));
    }

    #[test]
    fn truncated_rejected() {
        let t = Trace::new("t", vec![1u64, 2, 3]);
        let b = to_bytes(&t);
        let cut = b.slice(0..b.len() - 4);
        let r: Result<Trace<u64>, _> = from_bytes(cut, "t");
        assert_eq!(r.unwrap_err(), TraceIoError::Truncated);
    }

    #[test]
    fn overflowing_count_rejected() {
        // 2^61 eight-byte records wrap the byte count to zero; the
        // reader must refuse the claim, not reserve for it.
        let mut b = to_bytes(&Trace::<u64>::new("t", vec![])).to_vec();
        b[8..16].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let r: Result<Trace<u64>, _> = from_bytes(Bytes::from(b), "t");
        assert_eq!(r.unwrap_err(), TraceIoError::Truncated);
    }

    #[test]
    fn short_header_rejected() {
        let r: Result<Trace<u64>, _> = from_bytes(Bytes::from_static(b"HK"), "x");
        assert_eq!(r.unwrap_err(), TraceIoError::Truncated);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let t = Trace::new("t", vec![5u64; 10]);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let t2: Trace<u64> = read_trace(&mut buf.as_slice(), "t").unwrap();
        assert_eq!(t.packets, t2.packets);
    }
}
