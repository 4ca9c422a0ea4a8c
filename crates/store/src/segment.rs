//! Append-only segment files: the on-disk unit of the store.
//!
//! A segment is a header followed by a sequence of *frames*:
//!
//! ```text
//! header  := b"ANST"  version:u16le  shard:u16le             (8 bytes)
//! frame   := payload_len:u32le  crc32:u32le  payload         (8 + len bytes)
//! payload := kind:u8  ns:u8  key_len:u32le  key  value
//! ```
//!
//! The CRC covers the payload only; the length prefix plus checksum is
//! what makes recovery possible. Two distinct kinds of damage are told
//! apart on open:
//!
//! * **Torn tail** — a crash can tear at most the tail of the active
//!   segment (appends are sequential), so a damaged frame with *no* valid
//!   frame anywhere after it marks the torn tail: everything from it on
//!   is truncated. That is the crash-safety contract the `crash_recovery`
//!   integration tests drive with kill-during-write and arbitrary-byte
//!   truncation.
//! * **Mid-file corruption** (bit rot, a flipped bit in a closed
//!   segment) — a damaged frame *followed* by intact frames cannot be a
//!   torn write. The scan resynchronizes: it searches forward for the
//!   next offset at which a fully valid frame begins, quarantines the
//!   damaged region (only the keys whose latest frame sat inside it are
//!   lost), and keeps every frame after it. The `corruption` integration
//!   tests pin this with random single-bit flips.
//!
//! Writes build the full frame in memory and hand it to the OS as a
//! single `write_all`, so a frame is either entirely in the file, torn at
//! the end, or absent — never interleaved.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{Result, StoreError};

/// Segment file magic.
pub(crate) const MAGIC: [u8; 4] = *b"ANST";
/// On-disk format version.
pub(crate) const VERSION: u16 = 1;
/// Header length in bytes.
pub(crate) const HEADER_LEN: u64 = 8;
/// Frame prefix length (payload length + CRC).
pub(crate) const FRAME_PREFIX: u64 = 8;
/// Hard cap on a single payload, as a sanity bound during recovery: a
/// length prefix beyond this is treated as tail corruption, not an
/// instruction to allocate gigabytes.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 28;

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// What a frame does to its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// Bind the key to the value (latest frame wins).
    Put,
    /// Unbind the key. The store no longer writes these, but recovery
    /// still honours the ones older versions left in their segments.
    Tombstone,
}

/// One decoded frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Record {
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Caller-chosen namespace (keeps independent tables apart in one
    /// store).
    pub ns: u8,
    /// The key. By store convention it begins with the canonical quotient
    /// encoding `s(G_*)`, whose first byte picks the shard.
    pub key: Vec<u8>,
    /// The value (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Serializes the payload (everything the CRC covers).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.key.len() + self.value.len());
        out.push(match self.kind {
            RecordKind::Put => 0,
            RecordKind::Tombstone => 1,
        });
        out.push(self.ns);
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.value);
        out
    }

    /// Builds the full frame: length prefix, CRC, payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(FRAME_PREFIX as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes a payload produced by [`Record::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<Record> {
        if payload.len() < 6 {
            return Err(StoreError::codec(format!(
                "payload of {} bytes is shorter than the 6-byte record header",
                payload.len()
            )));
        }
        let kind = match payload[0] {
            0 => RecordKind::Put,
            1 => RecordKind::Tombstone,
            other => return Err(StoreError::codec(format!("unknown record kind {other}"))),
        };
        let ns = payload[1];
        let key_len = u32::from_le_bytes([payload[2], payload[3], payload[4], payload[5]]) as usize;
        let rest = &payload[6..];
        if key_len > rest.len() {
            return Err(StoreError::codec(format!(
                "key length {key_len} exceeds the {} remaining payload bytes",
                rest.len()
            )));
        }
        Ok(Record { kind, ns, key: rest[..key_len].to_vec(), value: rest[key_len..].to_vec() })
    }
}

/// The name of segment `id`.
pub(crate) fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.log")
}

/// Parses a segment id back out of a file name, if it is one.
pub(crate) fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if rest.len() == 8 && rest.bytes().all(|b| b.is_ascii_digit()) {
        rest.parse().ok()
    } else {
        None
    }
}

/// The append half of the active segment.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    /// Segment id (monotone within a shard).
    pub id: u64,
    /// Full path of the file.
    pub path: PathBuf,
    file: File,
    /// Current file length in bytes (header included).
    pub len: u64,
}

impl SegmentWriter {
    /// Creates segment `id` in `dir` and writes its header.
    pub fn create(dir: &Path, id: u64, shard: u16) -> Result<SegmentWriter> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("creating segment {}", path.display()), e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&shard.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| StoreError::io(format!("writing header of {}", path.display()), e))?;
        Ok(SegmentWriter { id, path, file, len: HEADER_LEN })
    }

    /// Reopens an existing (already recovered) segment for appending at
    /// `len` — the scanned, validated length.
    pub fn reopen(path: &Path, id: u64, len: u64) -> Result<SegmentWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("reopening segment {}", path.display()), e))?;
        file.seek(SeekFrom::Start(len))
            .map_err(|e| StoreError::io(format!("seeking end of {}", path.display()), e))?;
        Ok(SegmentWriter { id, path: path.to_path_buf(), file, len })
    }

    /// Appends one frame; returns its offset. The frame is a single
    /// `write_all`, so a crash can only tear its tail.
    pub fn append(&mut self, frame: &[u8]) -> Result<u64> {
        let offset = self.len;
        self.file
            .write_all(frame)
            .map_err(|e| StoreError::io(format!("appending to {}", self.path.display()), e))?;
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io(format!("syncing {}", self.path.display()), e))
    }
}

/// One intact frame found by [`scan`].
#[derive(Clone, Debug)]
pub(crate) struct ScannedFrame {
    /// The decoded record.
    pub record: Record,
    /// Frame offset in the file.
    pub offset: u64,
    /// Total frame length (prefix + payload).
    pub frame_len: u32,
}

/// A damaged byte range the scan skipped over because intact frames
/// follow it (mid-file corruption, not a torn tail).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QuarantinedRegion {
    /// Offset of the first damaged byte (the failed frame's prefix).
    pub offset: u64,
    /// Length of the skipped region in bytes.
    pub len: u64,
}

/// The result of scanning a segment on open.
#[derive(Debug)]
pub(crate) struct ScanOutcome {
    /// Every intact frame, in append order.
    pub frames: Vec<ScannedFrame>,
    /// If the tail was torn: the offset the file must be truncated to.
    pub truncate_to: Option<u64>,
    /// Mid-file regions quarantined by CRC resynchronization.
    pub quarantined: Vec<QuarantinedRegion>,
}

/// Searches forward from `from` for the next offset at which a fully
/// valid frame begins: plausible length, in-bounds payload, matching
/// CRC, *and* a decodable record (so a run of zero bytes cannot pose as
/// an empty frame). A false positive needs a 32-bit CRC collision at a
/// misaligned offset — ~2⁻³² per candidate byte.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let mut pos = from;
    while pos + FRAME_PREFIX as usize <= bytes.len() {
        let payload_len =
            u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let stored_crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        let payload_start = pos + FRAME_PREFIX as usize;
        if payload_len <= MAX_PAYLOAD && payload_start + payload_len as usize <= bytes.len() {
            let payload = &bytes[payload_start..payload_start + payload_len as usize];
            if crc32(payload) == stored_crc && Record::decode_payload(payload).is_ok() {
                return Some(pos);
            }
        }
        pos += 1;
    }
    None
}

/// Scans a segment file, validating the header and every frame.
///
/// A file shorter than its header (a crash during creation) scans as
/// empty with `truncate_to: Some(0)` — the caller rewrites it. A frame
/// that is incomplete or fails its CRC is damage; if a valid frame
/// follows ([`resync`]) the damaged region is quarantined and the scan
/// continues, otherwise it marks the torn tail: everything before it is
/// returned, everything from it on is to be truncated. A *valid* header
/// with the wrong magic or version is a hard [`StoreError::Corrupt`] —
/// that is not a torn write.
pub(crate) fn scan(path: &Path) -> Result<ScanOutcome> {
    let mut file = File::open(path)
        .map_err(|e| StoreError::io(format!("opening segment {}", path.display()), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StoreError::io(format!("reading segment {}", path.display()), e))?;

    if (bytes.len() as u64) < HEADER_LEN {
        return Ok(ScanOutcome {
            frames: Vec::new(),
            truncate_to: Some(0),
            quarantined: Vec::new(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::Corrupt {
            segment: path.to_path_buf(),
            offset: 0,
            detail: "bad magic (not an anonet-store segment)".into(),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(StoreError::Corrupt {
            segment: path.to_path_buf(),
            offset: 4,
            detail: format!("unsupported segment version {version} (expected {VERSION})"),
        });
    }

    let mut frames = Vec::new();
    let mut quarantined = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        // Frame prefix complete? Fewer than prefix-many trailing bytes
        // cannot hold any frame, so there is nothing to resync to.
        if bytes.len() - pos < FRAME_PREFIX as usize {
            return Ok(ScanOutcome { frames, truncate_to: Some(pos as u64), quarantined });
        }
        let payload_len =
            u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let stored_crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        let payload_start = pos + FRAME_PREFIX as usize;
        let damaged = payload_len > MAX_PAYLOAD
            || payload_start + payload_len as usize > bytes.len()
            || crc32(&bytes[payload_start..payload_start + payload_len as usize]) != stored_crc;
        if damaged {
            // An intact frame further on means this is mid-file
            // corruption: quarantine the damaged region and continue.
            // No intact frame after it means a torn tail: truncate.
            match resync(&bytes, pos + 1) {
                Some(next) => {
                    quarantined
                        .push(QuarantinedRegion { offset: pos as u64, len: (next - pos) as u64 });
                    pos = next;
                    continue;
                }
                None => {
                    return Ok(ScanOutcome { frames, truncate_to: Some(pos as u64), quarantined })
                }
            }
        }
        let payload = &bytes[payload_start..payload_start + payload_len as usize];
        // A frame whose checksum holds but whose payload is gibberish is
        // corruption, not a torn write (the CRC covers the whole payload).
        let record = Record::decode_payload(payload).map_err(|e| StoreError::Corrupt {
            segment: path.to_path_buf(),
            offset: pos as u64,
            detail: e.to_string(),
        })?;
        let frame_len = FRAME_PREFIX as u32 + payload_len;
        frames.push(ScannedFrame { record, offset: pos as u64, frame_len });
        pos = payload_start + payload_len as usize;
    }
    Ok(ScanOutcome { frames, truncate_to: None, quarantined })
}

/// Reads and decodes the frame at `offset` (of `frame_len` bytes) from an
/// open read handle.
pub(crate) fn read_frame(
    file: &mut File,
    path: &Path,
    offset: u64,
    frame_len: u32,
) -> Result<Record> {
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| StoreError::io(format!("seeking {} in {}", offset, path.display()), e))?;
    let mut frame = vec![0u8; frame_len as usize];
    file.read_exact(&mut frame).map_err(|e| {
        StoreError::io(format!("reading frame at {} in {}", offset, path.display()), e)
    })?;
    if frame.len() < FRAME_PREFIX as usize {
        return Err(StoreError::Corrupt {
            segment: path.to_path_buf(),
            offset,
            detail: "frame shorter than its prefix".into(),
        });
    }
    let payload = &frame[FRAME_PREFIX as usize..];
    let stored_crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
    if crc32(payload) != stored_crc {
        return Err(StoreError::Corrupt {
            segment: path.to_path_buf(),
            offset,
            detail: "frame checksum mismatch on read-back".into(),
        });
    }
    Record::decode_payload(payload).map_err(|e| StoreError::Corrupt {
        segment: path.to_path_buf(),
        offset,
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ns: u8, key: &[u8], value: &[u8]) -> Record {
        Record { kind: RecordKind::Put, ns, key: key.to_vec(), value: value.to_vec() }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_roundtrips() {
        let r = rec(3, b"key-bytes", b"value-bytes");
        assert_eq!(Record::decode_payload(&r.encode_payload()).unwrap(), r);
        let t = Record { kind: RecordKind::Tombstone, ns: 0, key: b"k".to_vec(), value: vec![] };
        assert_eq!(Record::decode_payload(&t.encode_payload()).unwrap(), t);
    }

    #[test]
    fn payload_decode_rejects_malformed() {
        assert!(Record::decode_payload(&[]).is_err());
        assert!(Record::decode_payload(&[7, 0, 0, 0, 0, 0]).is_err()); // bad kind
                                                                       // key_len exceeding payload
        let mut p = rec(0, b"abc", b"").encode_payload();
        p[2] = 200;
        assert!(Record::decode_payload(&p).is_err());
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-00000007.log");
        assert_eq!(parse_segment_id("seg-00000007.log"), Some(7));
        assert_eq!(parse_segment_id("seg-7.log"), None);
        assert_eq!(parse_segment_id("tmp-00000007.log"), None);
    }

    #[test]
    fn scan_recovers_exact_prefix_under_any_truncation() {
        let dir = std::env::temp_dir().join(format!("anonet-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        let records: Vec<Record> =
            (0..5u8).map(|i| rec(1, &[i; 4], &vec![i; 16 + i as usize])).collect();
        let mut boundaries = vec![HEADER_LEN];
        for r in &records {
            w.append(&r.encode_frame()).unwrap();
            boundaries.push(w.len);
        }
        w.sync().unwrap();
        let full = std::fs::read(&w.path).unwrap();

        // Cut the file at *every* byte position; the scan must recover
        // exactly the frames whose last byte precedes the cut.
        for cut in 0..=full.len() {
            std::fs::write(&w.path, &full[..cut]).unwrap();
            let outcome = scan(&w.path).unwrap();
            let expect = boundaries.iter().filter(|&&b| b > HEADER_LEN && b <= cut as u64).count();
            assert_eq!(outcome.frames.len(), expect, "cut at byte {cut}");
            for (f, r) in outcome.frames.iter().zip(&records) {
                assert_eq!(&f.record, r);
            }
            // Torn iff the cut is not on a frame boundary (or pre-header).
            let on_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(outcome.truncate_to.is_some(), !on_boundary, "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_rejects_foreign_files() {
        let dir = std::env::temp_dir().join(format!("anonet-seg-magic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000000.log");
        std::fs::write(&path, b"NOTASEGMENTFILE!").unwrap();
        assert!(matches!(scan(&path), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_quarantines_only_the_damaged_frame() {
        let dir = std::env::temp_dir().join(format!("anonet-seg-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        let records: Vec<Record> =
            (0..5u8).map(|i| rec(1, &[i; 4], &vec![i; 16 + i as usize])).collect();
        let mut boundaries = vec![HEADER_LEN];
        for r in &records {
            w.append(&r.encode_frame()).unwrap();
            boundaries.push(w.len);
        }
        w.sync().unwrap();
        let full = std::fs::read(&w.path).unwrap();

        // Flip one bit in every byte of frame 2 in turn (prefix and
        // payload): frames 0, 1, 3, 4 must always survive.
        let (start, end) = (boundaries[2] as usize, boundaries[3] as usize);
        for byte in start..end {
            let mut bytes = full.clone();
            bytes[byte] ^= 1 << (byte % 8);
            std::fs::write(&w.path, &bytes).unwrap();
            let outcome = scan(&w.path).unwrap();
            let kept: Vec<&Record> = outcome.frames.iter().map(|f| &f.record).collect();
            assert_eq!(
                kept,
                vec![&records[0], &records[1], &records[3], &records[4]],
                "flip at byte {byte}"
            );
            assert_eq!(outcome.truncate_to, None, "flip at byte {byte}");
            assert_eq!(
                outcome.quarantined,
                vec![QuarantinedRegion {
                    offset: boundaries[2],
                    len: boundaries[3] - boundaries[2]
                }],
                "flip at byte {byte}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_byte_is_detected_as_torn_tail() {
        let dir = std::env::temp_dir().join(format!("anonet-seg-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        w.append(&rec(0, b"key", b"value").encode_frame()).unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(&w.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&w.path, &bytes).unwrap();
        let outcome = scan(&w.path).unwrap();
        assert_eq!(outcome.frames.len(), 0);
        assert_eq!(outcome.truncate_to, Some(HEADER_LEN));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
