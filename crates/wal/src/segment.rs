//! Per-stream append-only segment logs.
//!
//! One stream's log is a directory of numbered segment files
//! (`000000000042.seg`), each a sequence of CRC-framed records:
//!
//! ```text
//! payload := [first_oid: u64 LE][nrows: u32 LE][block]
//! ```
//!
//! Each segment file starts with the WAL's format marker
//! ([`LOG_MAGIC`](crate::frame::LOG_MAGIC)), written together with its
//! first record; a segment written by a build without markers is refused
//! with [`WalError::UnsupportedFormat`](crate::WalError), never misread.
//! `block` is the batch's columns in the one columnar layout drawn in
//! `datacell_storage::binio` (the same bytes a binary PUSH frame carries).
//! `first_oid` is the basket's high-water mark when the batch was appended,
//! so every record states exactly which OID range it materializes. Header,
//! OID range and block are written into one reused buffer and framed in
//! place ([`StreamLog::append_with`]). The
//! active (last) segment takes appends; once it outgrows the configured
//! segment size the next append seals it and starts a new file. Basket
//! retirement drives truncation: a sealed segment whose whole OID range is
//! below the retirement watermark is deleted ([`StreamLog::truncate_below`])
//! — retirement *is* the log-truncation point, so the log always holds
//! precisely the live tail (plus at most one segment of slack).
//!
//! Recovery ([`StreamLog::open`]) replays every surviving record in OID
//! order. A damaged frame (torn write, bit-flip) or an OID discontinuity
//! ends the replay: the damaged file is truncated to its valid prefix,
//! later segments are removed (their data is unreachable past the gap), and
//! the dropped byte count is reported in the shared [`WalStats`] — the log
//! never panics on a corrupt tail and always keeps the longest valid prefix.
//!
//! [`WalStats`]: crate::WalStats

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use datacell_faults::FaultPoint;

use crate::error::Result;
use crate::frame::{check_marker, frame_into, FrameScanner};
use crate::io::{with_retry, RealIo, RetryPolicy, WalIo};
use crate::stats::SharedStats;
use crate::SyncPolicy;

/// One replayed ingest batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBatch {
    /// OID of the batch's first tuple.
    pub first_oid: u64,
    /// Tuples in the batch.
    pub rows: u32,
    /// The batch as a block (see `datacell_storage::binio`).
    pub payload: Vec<u8>,
}

/// A sealed (no longer written) segment.
#[derive(Debug, Clone, Copy)]
struct Sealed {
    seq: u64,
    /// One past the last OID stored in the segment.
    end_oid: u64,
}

/// The append-only log of one stream.
#[derive(Debug)]
pub struct StreamLog {
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: u64,
    stats: Arc<SharedStats>,
    io: Arc<dyn WalIo>,
    retry: RetryPolicy,
    sealed: Vec<Sealed>,
    active_seq: u64,
    active: File,
    active_bytes: u64,
    /// One past the last OID appended (next batch must start here).
    end_oid: u64,
    /// Batches appended since the last fsync.
    unsynced: u64,
    /// The framed record under construction, reused across appends.
    scratch: Vec<u8>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:012}.seg"))
}

fn parse_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".seg")?;
    (stem.len() == 12).then(|| stem.parse().ok()).flatten()
}

impl StreamLog {
    /// Open (or create) the log under `dir`, replaying every surviving
    /// batch, with direct OS I/O and the default retry policy. See the
    /// module docs for the damage policy.
    pub fn open(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        segment_bytes: u64,
        stats: Arc<SharedStats>,
    ) -> Result<(StreamLog, Vec<StreamBatch>)> {
        StreamLog::open_with_io(dir, sync, segment_bytes, stats, Arc::new(RealIo), RetryPolicy::default())
    }

    /// [`StreamLog::open`] through an explicit I/O seam and retry policy
    /// (fault-injection runs route every append/fsync through `io`).
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        segment_bytes: u64,
        stats: Arc<SharedStats>,
        io: Arc<dyn WalIo>,
        retry: RetryPolicy,
    ) -> Result<(StreamLog, Vec<StreamBatch>)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_seq(&e.path()))
            .collect();
        seqs.sort_unstable();

        let mut batches: Vec<StreamBatch> = Vec::new();
        let mut sealed: Vec<Sealed> = Vec::new();
        let mut expected: Option<u64> = None;
        let mut damage: Option<usize> = None; // index into seqs
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(&dir, seq);
            let image = fs::read(&path)?;
            // A damaged marker leaves nothing valid in the file.
            let start = check_marker(&image, RECORD_HEADER)?;
            let body = start.and_then(|s| image.get(s..)).unwrap_or_default();
            let start = start.unwrap_or(0) as u64;
            let mut scanner = FrameScanner::new(body);
            let mut valid = start;
            while let Some(payload) = scanner.next() {
                match decode_stream_record(payload, expected) {
                    Some(batch) => {
                        expected = Some(batch.first_oid + batch.rows as u64);
                        batches.push(batch);
                        valid = start + scanner.valid_bytes();
                    }
                    None => break, // malformed or discontinuous: damage here
                }
            }
            let file_dropped = image.len() as u64 - valid;
            if file_dropped > 0 {
                // Truncate this file to its valid prefix; everything after
                // (including later segments) is unreachable past the gap.
                stats.add_dropped(file_dropped);
                OpenOptions::new().write(true).open(&path)?.set_len(valid)?;
                damage = Some(i);
                break;
            }
            if i + 1 < seqs.len() {
                sealed.push(Sealed { seq, end_oid: expected.unwrap_or(0) });
            }
        }
        if let Some(i) = damage {
            for &seq in &seqs[i + 1..] {
                let path = segment_path(&dir, seq);
                if let Ok(meta) = fs::metadata(&path) {
                    stats.add_dropped(meta.len());
                }
                let _ = fs::remove_file(&path);
            }
            seqs.truncate(i + 1);
            // Segments before the damaged one stay sealed as computed;
            // the damaged (now truncated) one becomes the active segment.
        }

        let active_seq = seqs.last().copied().unwrap_or(0);
        let path = segment_path(&dir, active_seq);
        let active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_bytes = active.metadata()?.len();
        if sync == SyncPolicy::Always {
            crate::meta::sync_dir(&dir)?;
        }
        stats.add_recovered(batches.len() as u64, batches.iter().map(|b| b.rows as u64).sum());
        let log = StreamLog {
            dir,
            sync,
            segment_bytes,
            stats,
            io,
            retry,
            sealed,
            active_seq,
            active,
            active_bytes,
            end_oid: expected.unwrap_or(0),
            unsynced: 0,
            scratch: Vec::new(),
        };
        Ok((log, batches))
    }

    /// One past the last OID ever appended to this log.
    pub fn end_oid(&self) -> u64 {
        self.end_oid
    }

    /// Append one ingest batch. `first_oid` must continue the OID sequence
    /// (the basket's high-water mark); `encode` writes the batch's block
    /// straight into the record buffer, after the frame header and the
    /// OID range; length and CRC are patched in afterwards. The record
    /// leaves in one write without ever being copied.
    pub fn append_with(
        &mut self,
        first_oid: u64,
        nrows: u32,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        debug_assert!(self.end_oid == 0 || first_oid == self.end_oid || self.sealed.is_empty());
        let append_start = std::time::Instant::now();
        if self.active_bytes >= self.segment_bytes && self.active_bytes > 0 {
            self.rotate(first_oid)?;
        }
        let mut framed = std::mem::take(&mut self.scratch);
        frame_into(&mut framed, self.active_bytes == 0, |buf| {
            buf.extend_from_slice(&first_oid.to_le_bytes());
            buf.extend_from_slice(&nrows.to_le_bytes());
            encode(buf);
        });
        let written = self.write_framed(&framed);
        self.scratch = framed;
        let written = written?;
        self.active_bytes += written;
        self.end_oid = first_oid + nrows as u64;
        self.unsynced += 1;
        self.stats.add_appended(written);
        match self.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n as u64 {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        self.stats.record_append_us(append_start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        Ok(())
    }

    /// Write one framed record at the end of the active segment, retrying
    /// per policy; returns the bytes written.
    fn write_framed(&mut self, framed: &[u8]) -> Result<u64> {
        let base = self.active_bytes;
        let io = self.io.clone();
        let active = &mut self.active;
        with_retry(&self.retry, &self.stats, "segment append", |retrying| {
            if retrying {
                // A failed attempt may have left a torn frame behind; drop
                // it first or the retried record would land *after* the
                // partial one and be unreachable past the damage.
                active.set_len(base)?;
            }
            io.write_all(active, framed, FaultPoint::WalAppend)?;
            Ok(framed.len() as u64)
        })
    }

    fn rotate(&mut self, end_oid_hint: u64) -> Result<()> {
        self.active.flush()?;
        self.sealed.push(Sealed { seq: self.active_seq, end_oid: end_oid_hint });
        self.active_seq += 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.active_seq))?;
        self.active_bytes = 0;
        // Under the full-durability policy the new directory entry must
        // survive a power failure too, or the freshest segment could
        // vanish with its data blocks intact but unreachable.
        if self.sync == SyncPolicy::Always {
            crate::meta::sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Fsync the active segment, marking everything appended as durable.
    pub fn sync(&mut self) -> Result<()> {
        let sync_start = std::time::Instant::now();
        let io = self.io.clone();
        let active = &self.active;
        with_retry(&self.retry, &self.stats, "segment fsync", |_| {
            io.sync_data(active, FaultPoint::WalFsync)
        })?;
        self.stats.record_fsync_us(sync_start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        self.stats.add_synced(self.unsynced);
        self.unsynced = 0;
        Ok(())
    }

    /// Delete sealed segments whose whole OID range lies below `oid` (the
    /// basket retirement watermark). The active segment always survives.
    pub fn truncate_below(&mut self, oid: u64) {
        while let Some(first) = self.sealed.first() {
            if first.end_oid > oid {
                break;
            }
            let path = segment_path(&self.dir, first.seq);
            if let Ok(meta) = fs::metadata(&path) {
                self.stats.add_reclaimed(meta.len());
            }
            let _ = fs::remove_file(&path);
            self.sealed.remove(0);
        }
    }

    /// Number of on-disk segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }
}

/// Bytes of `first_oid` + `nrows` ahead of every record's block — also
/// the smallest record any format version ever wrote.
const RECORD_HEADER: usize = 12;

/// Parse one stream record payload; `expected` is the OID the batch must
/// start at (None for the first record). Returns None on any malformation
/// — the caller treats that as tail damage.
fn decode_stream_record(payload: &[u8], expected: Option<u64>) -> Option<StreamBatch> {
    let oid_raw: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    let rows_raw: [u8; 4] = payload.get(8..RECORD_HEADER)?.try_into().ok()?;
    let first_oid = u64::from_le_bytes(oid_raw);
    let rows = u32::from_le_bytes(rows_raw);
    if expected.is_some_and(|e| first_oid != e) {
        return None;
    }
    Some(StreamBatch { first_oid, rows, payload: payload.get(RECORD_HEADER..)?.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_record;
    use crate::testutil::tmpdir;

    fn open_at(dir: &Path, segment_bytes: u64) -> (StreamLog, Vec<StreamBatch>) {
        StreamLog::open(dir, SyncPolicy::Never, segment_bytes, Arc::new(SharedStats::default()))
            .unwrap()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("seglog");
        {
            let (mut log, replayed) = open_at(&dir, 1 << 20);
            assert!(replayed.is_empty());
            log.append_with(0, 2, |buf| buf.extend_from_slice(b"aa")).unwrap();
            log.append_with(2, 3, |buf| buf.extend_from_slice(b"bbb")).unwrap();
        }
        let (log, replayed) = open_at(&dir, 1 << 20);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0], StreamBatch { first_oid: 0, rows: 2, payload: b"aa".to_vec() });
        assert_eq!(replayed[1].first_oid, 2);
        assert_eq!(log.end_oid(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_truncation_deletes_them() {
        let dir = tmpdir("seglog");
        {
            // Tiny segments: every append rotates.
            let (mut log, _) = open_at(&dir, 1);
            for i in 0..5u64 {
                log.append_with(i * 10, 10, |buf| buf.extend_from_slice(&[b'x'; 16])).unwrap();
            }
            assert_eq!(log.segment_count(), 5);
            // Watermark at 30 retires the first three sealed segments.
            log.truncate_below(30);
            assert_eq!(log.segment_count(), 2);
        }
        // Replay starts at the first surviving record.
        let (_, replayed) = open_at(&dir, 1);
        assert_eq!(replayed.first().map(|b| b.first_oid), Some(30));
        assert_eq!(replayed.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_tail_is_truncated_and_later_segments_dropped() {
        let dir = tmpdir("seglog");
        {
            let (mut log, _) = open_at(&dir, 1);
            for i in 0..4u64 {
                log.append_with(i * 2, 2, |buf| buf.extend_from_slice(&[i as u8; 8])).unwrap();
            }
        }
        // Corrupt the second segment's payload.
        let victim = segment_path(&dir, 1);
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();

        let stats = Arc::new(SharedStats::default());
        let (log, replayed) =
            StreamLog::open(&dir, SyncPolicy::Never, 1, stats.clone()).unwrap();
        // Only the first segment's batch survives; segments 2 and 3 are
        // unreachable past the gap and were deleted.
        assert_eq!(replayed.len(), 1);
        assert_eq!(log.end_oid(), 2);
        assert!(stats.snapshot().dropped_bytes > 0);
        assert!(!segment_path(&dir, 2).exists());
        assert!(!segment_path(&dir, 3).exists());
        drop(log);

        // The repaired log accepts appends and replays cleanly.
        let (mut log, replayed) = open_at(&dir, 1 << 20);
        assert_eq!(replayed.len(), 1);
        log.append_with(2, 2, |buf| buf.extend_from_slice(b"new")).unwrap();
        drop(log);
        let (_, replayed) = open_at(&dir, 1 << 20);
        assert_eq!(replayed.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oid_gap_counts_as_damage() {
        let dir = tmpdir("seglog");
        {
            let (mut log, _) = open_at(&dir, 1 << 20);
            log.append_with(0, 2, |buf| buf.extend_from_slice(b"aa")).unwrap();
            // Simulate a buggy writer / lost record by appending a
            // discontinuous batch directly.
            let mut record = Vec::new();
            record.extend_from_slice(&9u64.to_le_bytes());
            record.extend_from_slice(&1u32.to_le_bytes());
            record.extend_from_slice(b"zz");
            write_record(&mut log.active, &record).unwrap();
        }
        let (log, replayed) = open_at(&dir, 1 << 20);
        assert_eq!(replayed.len(), 1);
        assert_eq!(log.end_oid(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_carry_the_marker_and_old_ones_are_refused() {
        let dir = tmpdir("seglog");
        {
            let (mut log, _) = open_at(&dir, 1 << 20);
            log.append_with(0, 1, |buf| buf.extend_from_slice(b"a")).unwrap();
            log.append_with(1, 1, |buf| buf.extend_from_slice(b"b")).unwrap();
        }
        let image = fs::read(segment_path(&dir, 0)).unwrap();
        assert!(image.starts_with(&crate::frame::LOG_MAGIC));
        assert_eq!(open_at(&dir, 1 << 20).1.len(), 2);
        fs::remove_dir_all(&dir).ok();

        // A segment as a pre-marker build wrote it: frames from byte 0.
        let dir = tmpdir("seglog");
        let mut record = Vec::new();
        record.extend_from_slice(&0u64.to_le_bytes());
        record.extend_from_slice(&1u32.to_le_bytes());
        let mut old = Vec::new();
        write_record(&mut old, &record).unwrap();
        fs::write(segment_path(&dir, 0), &old).unwrap();
        let stats = Arc::new(SharedStats::default());
        let err = StreamLog::open(&dir, SyncPolicy::Never, 1 << 20, stats).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        // Refusing touched nothing.
        assert_eq!(fs::read(segment_path(&dir, 0)).unwrap(), old);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_filled_segment_is_damage_not_version_1() {
        // A crash can leave a new segment as zero-filled blocks. Zero bytes
        // frame as an intact empty record (crc32("") == 0), but no stream
        // record was ever that short: it is a damaged tail to truncate.
        let dir = tmpdir("seglog");
        {
            let (mut log, _) = open_at(&dir, 1);
            log.append_with(0, 2, |buf| buf.extend_from_slice(b"aa")).unwrap();
        }
        fs::write(segment_path(&dir, 1), vec![0u8; 4096]).unwrap();
        let stats = Arc::new(SharedStats::default());
        let (mut log, replayed) =
            StreamLog::open(&dir, SyncPolicy::Never, 1 << 20, stats.clone()).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(log.end_oid(), 2);
        assert_eq!(stats.snapshot().dropped_bytes, 4096);
        // The truncated segment takes the next append, marker first.
        log.append_with(2, 1, |buf| buf.extend_from_slice(b"b")).unwrap();
        drop(log);
        assert!(fs::read(segment_path(&dir, 1)).unwrap().starts_with(&crate::frame::LOG_MAGIC));
        assert_eq!(open_at(&dir, 1 << 20).1.len(), 2);
        fs::remove_dir_all(&dir).ok();

        // The same for the only segment, at any zero-fill length.
        for len in [8, 12, 20, 4096] {
            let dir = tmpdir("seglog");
            fs::write(segment_path(&dir, 0), vec![0u8; len]).unwrap();
            let (log, replayed) = open_at(&dir, 1 << 20);
            assert!(replayed.is_empty(), "{len} zero bytes");
            assert_eq!(log.end_oid(), 0);
            assert_eq!(fs::metadata(segment_path(&dir, 0)).unwrap().len(), 0);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sync_policies_apply() {
        let dir = tmpdir("seglog");
        let stats = Arc::new(SharedStats::default());
        let (mut log, _) =
            StreamLog::open(&dir, SyncPolicy::EveryN(2), 1 << 20, stats.clone()).unwrap();
        log.append_with(0, 1, |buf| buf.extend_from_slice(b"a")).unwrap();
        assert_eq!(stats.snapshot().synced_batches, 0);
        log.append_with(1, 1, |buf| buf.extend_from_slice(b"b")).unwrap();
        assert_eq!(stats.snapshot().synced_batches, 2);
        log.append_with(2, 1, |buf| buf.extend_from_slice(b"c")).unwrap();
        log.sync().unwrap();
        assert_eq!(stats.snapshot().synced_batches, 3);
        assert_eq!(stats.snapshot().appended_batches, 3);
        fs::remove_dir_all(&dir).ok();
    }
}
