//! Classic libpcap capture-file reading and writing.
//!
//! The paper's campus and CAIDA datasets are packet captures; this module
//! lets a deployment feed HeavyKeeper straight from `.pcap` files (and
//! lets the trace tooling write synthetic captures other tools can open).
//!
//! Implemented from the format specification — no C library:
//!
//! ```text
//! global header (24 B): magic u32 | 2 u16 version | i32 thiszone |
//!                       u32 sigfigs | u32 snaplen | u32 linktype
//! per record   (16 B):  ts_sec u32 | ts_subsec u32 | incl_len u32 | orig_len u32
//! ```
//!
//! All four magic variants are handled: `0xa1b2c3d4` (microseconds) and
//! `0xa1b23c4d` (nanoseconds), each in either byte order relative to the
//! reading host. Only LINKTYPE_ETHERNET (1) captures can be converted to
//! flow IDs; other link types still read as raw records.

use std::io::{self, Read, Write};

use crate::flow::FiveTuple;
use crate::packet::{parse_ethernet, ParseError};

/// Microsecond-resolution magic, writer-native byte order.
pub const MAGIC_USEC: u32 = 0xA1B2_C3D4;
/// Nanosecond-resolution magic.
pub const MAGIC_NSEC: u32 = 0xA1B2_3C4D;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// libpcap's largest snap length. The reader bounds every record by it
/// rather than by the file's own snaplen field, which is 0 in some
/// captures and, at up to `u32::MAX`, would let one record reserve
/// gigabytes before a byte of it is read.
pub const MAX_SNAPLEN: u32 = 262_144;

/// Errors from pcap reading/writing.
#[derive(Debug, PartialEq, Eq)]
pub enum PcapError {
    /// The first 4 bytes match no pcap magic variant.
    BadMagic(u32),
    /// The stream ended inside a header or record body.
    Truncated,
    /// A record claims more captured bytes than [`MAX_SNAPLEN`] allows
    /// (2x slack, 512 KiB) — almost certainly file corruption; bail out
    /// rather than allocating gigabytes.
    OversizedRecord(u32),
    /// Underlying I/O failure (message only, for `PartialEq`).
    Io(String),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            Self::Truncated => write!(f, "pcap stream truncated"),
            Self::OversizedRecord(n) => write!(f, "pcap record of {n} bytes exceeds snaplen"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp, seconds part.
    pub ts_sec: u32,
    /// Capture timestamp, sub-second part in nanoseconds (scaled up from
    /// microseconds for usec-resolution files).
    pub ts_nsec: u32,
    /// Original on-the-wire length (may exceed `data.len()` when the
    /// capture was truncated by snaplen).
    pub orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

/// Streaming pcap reader over any byte source.
///
/// # Examples
///
/// ```
/// use hk_traffic::flow::FiveTuple;
/// use hk_traffic::packet::build_frame;
/// use hk_traffic::pcap::{PcapReader, PcapWriter};
///
/// let ft = FiveTuple::new([10, 0, 0, 1], [10, 0, 0, 2], 80, 4242, 6);
/// let mut buf = Vec::new();
/// let mut w = PcapWriter::new(&mut buf).unwrap();
/// w.write_packet(1_700_000_000, 0, &build_frame(&ft, 64)).unwrap();
///
/// let mut r = PcapReader::new(buf.as_slice()).unwrap();
/// let rec = r.next_record().unwrap().unwrap();
/// assert_eq!(rec.ts_sec, 1_700_000_000);
/// ```
#[derive(Debug)]
pub struct PcapReader<R> {
    src: R,
    swapped: bool,
    nanos: bool,
    linktype: u32,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    pub fn new(mut src: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        read_exact_or(&mut src, &mut hdr)?;
        let raw_magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let (swapped, nanos) = match raw_magic {
            MAGIC_USEC => (false, false),
            MAGIC_NSEC => (false, true),
            m if m.swap_bytes() == MAGIC_USEC => (true, false),
            m if m.swap_bytes() == MAGIC_NSEC => (true, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        let u32_at = |b: &[u8; 24], i: usize| {
            let w = [b[i], b[i + 1], b[i + 2], b[i + 3]];
            if swapped {
                u32::from_be_bytes(w)
            } else {
                u32::from_le_bytes(w)
            }
        };
        // The snaplen field (offset 16) is not trusted; see MAX_SNAPLEN.
        let linktype = u32_at(&hdr, 20);
        Ok(Self {
            src,
            swapped,
            nanos,
            linktype,
        })
    }

    /// The capture's link type (1 = Ethernet).
    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    /// True if record headers are byte-swapped relative to this host's
    /// little-endian reading.
    pub fn is_swapped(&self) -> bool {
        self.swapped
    }

    /// True for nanosecond-resolution captures.
    pub fn is_nanosecond(&self) -> bool {
        self.nanos
    }

    /// Reads the next record; `None` at a clean end of stream.
    pub fn next_record(&mut self) -> Option<Result<PcapRecord, PcapError>> {
        let mut hdr = [0u8; 16];
        match self.src.read(&mut hdr) {
            Ok(0) => return None, // clean EOF
            Ok(n) => {
                if n < 16 {
                    if let Err(e) = read_exact_or(&mut self.src, &mut hdr[n..]) {
                        return Some(Err(e));
                    }
                }
            }
            Err(e) => return Some(Err(e.into())),
        }
        let word = |i: usize| {
            let w = [hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]];
            if self.swapped {
                u32::from_be_bytes(w)
            } else {
                u32::from_le_bytes(w)
            }
        };
        let ts_sec = word(0);
        let subsec = word(4);
        let incl_len = word(8);
        let orig_len = word(12);
        if incl_len > 2 * MAX_SNAPLEN {
            return Some(Err(PcapError::OversizedRecord(incl_len)));
        }
        let mut data = vec![0u8; incl_len as usize];
        if let Err(e) = read_exact_or(&mut self.src, &mut data) {
            return Some(Err(e));
        }
        let ts_nsec = if self.nanos {
            subsec
        } else {
            subsec.saturating_mul(1000)
        };
        Some(Ok(PcapRecord {
            ts_sec,
            ts_nsec,
            orig_len,
            data,
        }))
    }

    /// Drains the stream into `(FiveTuple, wire_bytes)` pairs, counting
    /// frames that do not parse (non-IPv4, truncated) as `skipped`.
    ///
    /// `wire_bytes` is the record's original length — the byte weight
    /// for weighted sketches.
    pub fn read_flows(mut self) -> Result<FlowCapture, PcapError> {
        let mut flows = Vec::new();
        let mut skipped = 0usize;
        while let Some(rec) = self.next_record() {
            let rec = rec?;
            match parse_ethernet(&rec.data) {
                Ok(p) => flows.push((p.flow, rec.orig_len as u64)),
                Err(
                    ParseError::Truncated
                    | ParseError::UnsupportedEtherType(_)
                    | ParseError::BadIpVersion(_)
                    | ParseError::BadIhl(_),
                ) => skipped += 1,
            }
        }
        Ok(FlowCapture { flows, skipped })
    }
}

/// The flow-level view of a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowCapture {
    /// Parsed `(flow, wire_bytes)` pairs in capture order.
    pub flows: Vec<(FiveTuple, u64)>,
    /// Records skipped because their frames were not parseable IPv4.
    pub skipped: usize,
}

fn read_exact_or<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<(), PcapError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PcapError::Truncated
        } else {
            PcapError::Io(e.to_string())
        }
    })
}

/// Streaming pcap writer (microsecond resolution, Ethernet link type,
/// host-native little-endian byte order).
#[derive(Debug)]
pub struct PcapWriter<W> {
    sink: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header for an Ethernet capture.
    pub fn new(sink: W) -> Result<Self, PcapError> {
        Self::with_linktype(sink, LINKTYPE_ETHERNET)
    }

    /// Writes the global header with an explicit link type.
    pub fn with_linktype(mut sink: W, linktype: u32) -> Result<Self, PcapError> {
        sink.write_all(&MAGIC_USEC.to_le_bytes())?;
        sink.write_all(&2u16.to_le_bytes())?; // major
        sink.write_all(&4u16.to_le_bytes())?; // minor
        sink.write_all(&0i32.to_le_bytes())?; // thiszone
        sink.write_all(&0u32.to_le_bytes())?; // sigfigs
        sink.write_all(&MAX_SNAPLEN.to_le_bytes())?; // snaplen
        sink.write_all(&linktype.to_le_bytes())?;
        Ok(Self { sink })
    }

    /// Appends one fully captured packet.
    pub fn write_packet(
        &mut self,
        ts_sec: u32,
        ts_usec: u32,
        frame: &[u8],
    ) -> Result<(), PcapError> {
        self.sink.write_all(&ts_sec.to_le_bytes())?;
        self.sink.write_all(&ts_usec.to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(frame)?;
        Ok(())
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> Result<W, PcapError> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::build_frame;

    fn flows(n: u64) -> Vec<FiveTuple> {
        (0..n).map(FiveTuple::from_index).collect()
    }

    fn write_capture(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for (i, f) in frames.iter().enumerate() {
            w.write_packet(1000 + i as u32, i as u32, f).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn roundtrip_records() {
        let frames: Vec<Vec<u8>> = flows(5).iter().map(|f| build_frame(f, 100)).collect();
        let buf = write_capture(&frames);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.linktype(), LINKTYPE_ETHERNET);
        assert!(!r.is_swapped());
        assert!(!r.is_nanosecond());
        for (i, want) in frames.iter().enumerate() {
            let rec = r.next_record().unwrap().unwrap();
            assert_eq!(rec.ts_sec, 1000 + i as u32);
            assert_eq!(rec.ts_nsec, i as u32 * 1000, "usec scaled to nsec");
            assert_eq!(&rec.data, want);
            assert_eq!(rec.orig_len as usize, want.len());
        }
        assert!(r.next_record().is_none(), "clean EOF");
    }

    #[test]
    fn read_flows_extracts_five_tuples() {
        let fts = flows(20);
        let frames: Vec<Vec<u8>> = fts.iter().map(|f| build_frame(f, 64)).collect();
        let buf = write_capture(&frames);
        let cap = PcapReader::new(buf.as_slice())
            .unwrap()
            .read_flows()
            .unwrap();
        assert_eq!(cap.skipped, 0);
        let got: Vec<FiveTuple> = cap.flows.iter().map(|&(f, _)| f).collect();
        assert_eq!(got, fts);
        for &(f, bytes) in &cap.flows {
            let overhead = if f.protocol == 6 {
                14 + 20 + 20
            } else {
                14 + 20 + 8
            };
            assert_eq!(bytes as usize, overhead + 64);
        }
    }

    #[test]
    fn read_flows_counts_skips() {
        let mut frames: Vec<Vec<u8>> = flows(3).iter().map(|f| build_frame(f, 10)).collect();
        // One ARP frame and one garbage runt.
        let mut arp = vec![0u8; 60];
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        frames.push(arp);
        frames.push(vec![0u8; 5]);
        let buf = write_capture(&frames);
        let cap = PcapReader::new(buf.as_slice())
            .unwrap()
            .read_flows()
            .unwrap();
        assert_eq!(cap.flows.len(), 3);
        assert_eq!(cap.skipped, 2);
    }

    #[test]
    fn swapped_byte_order_read() {
        // Hand-build a big-endian (swapped relative to LE host) capture.
        let frame = build_frame(&FiveTuple::from_index(7), 20);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65_535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&123u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&456u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&frame);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(r.is_swapped());
        assert_eq!(r.linktype(), LINKTYPE_ETHERNET);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_sec, 123);
        assert_eq!(rec.data, frame);
    }

    #[test]
    fn nanosecond_magic_read() {
        let frame = build_frame(&FiveTuple::from_index(1), 0);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NSEC.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0; 12]);
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&777u32.to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(r.is_nanosecond());
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_nsec, 777, "nanoseconds stored as-is");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = PcapReader::new([0u8; 24].as_slice()).unwrap_err();
        assert_eq!(err, PcapError::BadMagic(0));
    }

    #[test]
    fn truncated_header_rejected() {
        let err = PcapReader::new([0u8; 10].as_slice()).unwrap_err();
        assert_eq!(err, PcapError::Truncated);
    }

    #[test]
    fn truncated_record_body_rejected() {
        let frames = vec![build_frame(&FiveTuple::from_index(3), 50)];
        let mut buf = write_capture(&frames);
        buf.truncate(buf.len() - 10);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        let rec = r.next_record().unwrap();
        assert_eq!(rec.unwrap_err(), PcapError::Truncated);
    }

    #[test]
    fn truncated_record_header_rejected() {
        let frames = vec![build_frame(&FiveTuple::from_index(3), 0)];
        let mut buf = write_capture(&frames);
        // Leave 7 bytes of a second record header.
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7]);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        r.next_record().unwrap().unwrap();
        let rec = r.next_record().unwrap();
        assert_eq!(rec.unwrap_err(), PcapError::Truncated);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_packet(0, 0, &[0u8; 4]).unwrap();
        }
        // Corrupt incl_len to a huge value.
        let mut huge = buf.clone();
        huge[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = PcapReader::new(huge.as_slice()).unwrap();
        assert!(matches!(
            r.next_record().unwrap().unwrap_err(),
            PcapError::OversizedRecord(_)
        ));
        // A header snaplen of u32::MAX does not raise the bound: a
        // record claiming 1 GiB, with 4 payload bytes behind it, is
        // refused before anything is reserved for it.
        let mut lying = buf;
        lying[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        lying[32..36].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = PcapReader::new(lying.as_slice()).unwrap();
        assert_eq!(
            r.next_record().unwrap().unwrap_err(),
            PcapError::OversizedRecord(1 << 30)
        );
    }

    #[test]
    fn empty_capture_reads_clean() {
        let buf = write_capture(&[]);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(r.next_record().is_none());
    }

    #[test]
    fn custom_linktype_roundtrip() {
        let mut buf = Vec::new();
        let w = PcapWriter::with_linktype(&mut buf, 101).unwrap(); // RAW IP
        w.finish().unwrap();
        let r = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.linktype(), 101);
    }
}
