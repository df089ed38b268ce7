//! Record framing: every log file is `LOG_MAGIC record*`, every record
//! `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! The CRC covers the payload only; the length is cross-checked against the
//! remaining file size (and a sanity ceiling) before any allocation, so a
//! bit-flip in the header cannot trigger a huge read. Scanning stops at the
//! first frame that fails either check — everything before it is the
//! *longest valid prefix*, everything after is a damaged tail the caller
//! truncates and reports.

use std::io::{self, Write};

use crate::crc::crc32;
use crate::error::{Result, WalError};

/// On-disk format of every WAL file, named by [`LOG_MAGIC`]. Covers all
/// record layouts — stream segments (columnar blocks since version 2),
/// meta records and the snapshot payload — so bump it whenever any of
/// them changes.
pub const FORMAT_VERSION: u32 = 2;

/// The format marker every log file (stream segment, meta log) starts
/// with: `DCLOG`, a NUL, then [`FORMAT_VERSION`] as a `u16` LE. It is
/// written in the same write as the file's first record, so it costs no
/// extra I/O and is exactly as durable as that record.
pub const LOG_MAGIC: [u8; 8] = [b'D', b'C', b'L', b'O', b'G', 0, FORMAT_VERSION as u8, 0];

/// Check a log file image's format marker. `Ok(Some(off))`: records start
/// at `off` (0 for an empty file). `Ok(None)`: the marker itself is
/// damaged (a torn first write, a bit flip, a zero-filled block left by a
/// crash) — the whole file is a damaged tail. `Err(UnsupportedFormat)`:
/// the file starts with an intact record frame of at least `min_record`
/// payload bytes (the smallest record the old format ever wrote, never
/// below 1), i.e. a build that wrote no marker (version 1) produced it;
/// it is refused rather than misread. Zero bytes frame as an intact empty
/// record (`crc32(b"") == 0`), so without that floor a zero-filled
/// current-format file would be mistaken for an old one.
pub fn check_marker(image: &[u8], min_record: usize) -> Result<Option<usize>> {
    if image.is_empty() {
        return Ok(Some(0));
    }
    if image.starts_with(&LOG_MAGIC) {
        return Ok(Some(LOG_MAGIC.len()));
    }
    match FrameScanner::new(image).next() {
        Some(first) if first.len() >= min_record.max(1) => {
            Err(WalError::UnsupportedFormat { found: 1, supported: FORMAT_VERSION })
        }
        _ => Ok(None),
    }
}

/// Frame header size in bytes.
pub const HEADER_BYTES: usize = 8;

/// Sanity ceiling on one record's payload (a corrupt length field must not
/// cause a multi-GiB allocation).
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Frame one record in place: clear `buf`, write the file's
/// [`LOG_MAGIC`] first when `first_in_file`, leave room for the header,
/// let `write` append the payload, then patch length and CRC over what
/// it wrote — marker, header and payload in one buffer, no payload copy.
pub fn frame_into(buf: &mut Vec<u8>, first_in_file: bool, write: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    if first_in_file {
        buf.extend_from_slice(&LOG_MAGIC);
    }
    let start = buf.len();
    buf.extend_from_slice(&[0; HEADER_BYTES]);
    write(buf);
    let (head, payload) = buf[start..].split_at_mut(HEADER_BYTES);
    debug_assert!(payload.len() as u64 <= MAX_RECORD_BYTES as u64);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Append one framed record; returns the bytes written.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    debug_assert!(payload.len() as u64 <= MAX_RECORD_BYTES as u64);
    let mut head = [0u8; HEADER_BYTES];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    Ok((HEADER_BYTES + payload.len()) as u64)
}

/// Iterator over the valid frame prefix of an in-memory log image.
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    damaged: bool,
}

impl<'a> FrameScanner<'a> {
    /// Scan `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameScanner { buf, pos: 0, damaged: false }
    }

    /// Byte length of the valid prefix scanned so far.
    pub fn valid_bytes(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes past the valid prefix (partial or corrupt tail). Only final
    /// once the iterator has returned `None`.
    pub fn dropped_bytes(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Whether scanning stopped because of a damaged frame (as opposed to
    /// a clean end of input).
    pub fn is_damaged(&self) -> bool {
        self.damaged
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.damaged || self.buf.len() - self.pos < HEADER_BYTES {
            if self.pos < self.buf.len() && !self.damaged {
                self.damaged = true; // trailing partial header
            }
            return None;
        }
        let (Some(len), Some(crc)) = (
            read_u32(self.buf, self.pos),
            read_u32(self.buf, self.pos + 4),
        ) else {
            self.damaged = true;
            return None;
        };
        let start = self.pos + HEADER_BYTES;
        if len > MAX_RECORD_BYTES || start + len as usize > self.buf.len() {
            self.damaged = true;
            return None;
        }
        let Some(payload) = self.buf.get(start..start + len as usize) else {
            self.damaged = true;
            return None;
        };
        if crc32(payload) != crc {
            self.damaged = true;
            return None;
        }
        self.pos = start + len as usize;
        Some(payload)
    }
}

/// Little-endian `u32` at `pos`, or `None` when the buffer is too short.
fn read_u32(buf: &[u8], pos: usize) -> Option<u32> {
    let raw: [u8; 4] = buf.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            write_record(&mut buf, p).unwrap();
        }
        buf
    }

    #[test]
    fn roundtrip_multiple_records() {
        let buf = log_of(&[b"alpha", b"", b"gamma gamma"]);
        let mut s = FrameScanner::new(&buf);
        assert_eq!(s.next(), Some(&b"alpha"[..]));
        assert_eq!(s.next(), Some(&b""[..]));
        assert_eq!(s.next(), Some(&b"gamma gamma"[..]));
        assert_eq!(s.next(), None);
        assert!(!s.is_damaged());
        assert_eq!(s.valid_bytes(), buf.len() as u64);
        assert_eq!(s.dropped_bytes(), 0);
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let buf = log_of(&[b"one", b"two", b"three"]);
        // Cut in the middle of the last record.
        let cut = buf.len() - 2;
        let mut s = FrameScanner::new(&buf[..cut]);
        assert_eq!(s.by_ref().count(), 2);
        assert!(s.is_damaged());
        assert!(s.dropped_bytes() > 0);
        assert_eq!(s.valid_bytes() + s.dropped_bytes(), cut as u64);
    }

    #[test]
    fn bitflip_stops_at_damaged_record() {
        let mut buf = log_of(&[b"one", b"two", b"three"]);
        // Flip a payload byte of the second record.
        let off = HEADER_BYTES + 3 + HEADER_BYTES + 1;
        buf[off] ^= 0x40;
        let mut s = FrameScanner::new(&buf);
        assert_eq!(s.next(), Some(&b"one"[..]));
        assert_eq!(s.next(), None);
        assert!(s.is_damaged());
    }

    #[test]
    fn absurd_length_field_is_damage_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        let mut s = FrameScanner::new(&buf);
        assert_eq!(s.next(), None);
        assert!(s.is_damaged());
        assert_eq!(s.dropped_bytes(), buf.len() as u64);
    }

    #[test]
    fn markers_classify_files() {
        assert_eq!(check_marker(&[], 1).unwrap(), Some(0));
        let mut current = Vec::new();
        frame_into(&mut current, true, |b| b.extend_from_slice(b"rec"));
        assert_eq!(check_marker(&current, 1).unwrap(), Some(LOG_MAGIC.len()));
        // A pre-marker file starts with an intact frame: version 1.
        assert!(matches!(
            check_marker(&log_of(&[b"old"]), 1),
            Err(WalError::UnsupportedFormat { found: 1, .. })
        ));
        // ... unless that frame is shorter than any old record could be.
        assert_eq!(check_marker(&log_of(&[b"old"]), 12).unwrap(), None);
        // A torn or flipped marker is damage, not a version.
        assert_eq!(check_marker(&LOG_MAGIC[..3], 1).unwrap(), None);
        current[2] ^= 0x10;
        assert_eq!(check_marker(&current, 1).unwrap(), None);
        // Zero fill (a crash can leave it in place of the first write)
        // frames as an intact empty record; it is damage, not version 1.
        for len in [8, 9, 64, 4096] {
            assert_eq!(check_marker(&vec![0u8; len], 1).unwrap(), None, "{len} zero bytes");
        }
    }

    #[test]
    fn partial_header_is_damage() {
        let buf = log_of(&[b"x"]);
        let mut cut = buf.clone();
        cut.extend_from_slice(&[1, 2, 3]); // 3 stray bytes, not a header
        let mut s = FrameScanner::new(&cut);
        assert_eq!(s.next(), Some(&b"x"[..]));
        assert_eq!(s.next(), None);
        assert!(s.is_damaged());
        assert_eq!(s.dropped_bytes(), 3);
    }
}
