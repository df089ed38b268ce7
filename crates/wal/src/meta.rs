//! The meta log and the catalog snapshot.
//!
//! The **meta log** (`meta.log`) records everything that is not stream
//! data: DDL, table inserts, continuous-query registration, pause flags and
//! per-fire factory state. It is a single CRC-framed append file, replayed
//! in order at recovery; a damaged tail is truncated to the longest valid
//! prefix (counted in [`WalStats`](crate::WalStats)). Writing a **catalog
//! snapshot** (`snapshot.bin`, one framed record, written atomically via
//! tmp-file + rename) compacts the meta log: the snapshot captures the
//! whole catalog + query state, so the meta log restarts empty.
//!
//! The meta log starts with the WAL's format marker like every segment
//! does (see [`crate::frame::LOG_MAGIC`]); the snapshot payload carries
//! its own magic, checked by the engine.
//!
//! Payload layouts are owned by the engine (`datacell-core`); this module
//! moves opaque byte records durably and honestly.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use datacell_faults::FaultPoint;

use crate::error::{Result, WalError};
use crate::frame::{check_marker, frame_into, write_record, FrameScanner, HEADER_BYTES, LOG_MAGIC};
use crate::io::{with_retry, RealIo, RetryPolicy, WalIo};
use crate::stats::SharedStats;
use crate::SyncPolicy;

/// Fsync a directory so a rename / create / unlink inside it survives a
/// power failure (POSIX: the directory entry is separate from the file
/// data). Platforms where directories cannot be opened report the error
/// to the caller, which treats it as best-effort where appropriate.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The append-only meta log.
pub struct MetaLog {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    stats: Arc<SharedStats>,
    io: Arc<dyn WalIo>,
    retry: RetryPolicy,
    unsynced: u64,
    /// Bytes in the log since the last reset (the engine's automatic
    /// checkpoint trigger reads this to keep recovery cost bounded).
    bytes: u64,
}

impl MetaLog {
    /// Open (or create) the meta log, replaying its surviving records,
    /// with direct OS I/O and the default retry policy. A damaged tail is
    /// truncated in place and counted as dropped bytes.
    pub fn open(
        path: impl Into<PathBuf>,
        sync: SyncPolicy,
        stats: Arc<SharedStats>,
    ) -> Result<(MetaLog, Vec<Vec<u8>>)> {
        MetaLog::open_with_io(path, sync, stats, Arc::new(RealIo), RetryPolicy::default())
    }

    /// [`MetaLog::open`] through an explicit I/O seam and retry policy.
    pub fn open_with_io(
        path: impl Into<PathBuf>,
        sync: SyncPolicy,
        stats: Arc<SharedStats>,
        io: Arc<dyn WalIo>,
        retry: RetryPolicy,
    ) -> Result<(MetaLog, Vec<Vec<u8>>)> {
        let path = path.into();
        let mut records = Vec::new();
        if path.exists() {
            let image = fs::read(&path)?;
            // A damaged marker leaves nothing valid in the file.
            let start = check_marker(&image, 1)?;
            let body = start.and_then(|s| image.get(s..)).unwrap_or_default();
            let mut scanner = FrameScanner::new(body);
            for payload in scanner.by_ref() {
                records.push(payload.to_vec());
            }
            let valid = start.map_or(0, |s| s as u64 + scanner.valid_bytes());
            if valid < image.len() as u64 {
                stats.add_dropped(image.len() as u64 - valid);
                OpenOptions::new().write(true).open(&path)?.set_len(valid)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok((MetaLog { path, file, sync, stats, io, retry, unsynced: 0, bytes }, records))
    }

    /// Bytes appended since the last [`MetaLog::reset`].
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut framed = Vec::with_capacity(LOG_MAGIC.len() + HEADER_BYTES + payload.len());
        frame_into(&mut framed, self.bytes == 0, |b| b.extend_from_slice(payload));
        // `bytes` tracks the file length exactly (open measures it, reset
        // zeroes it), so it doubles as the repair point for torn frames.
        let base = self.bytes;
        let io = self.io.clone();
        let file = &mut self.file;
        let written = with_retry(&self.retry, &self.stats, "meta append", |retrying| {
            if retrying {
                file.set_len(base)?;
            }
            io.write_all(file, &framed, FaultPoint::WalAppend)?;
            Ok(framed.len() as u64)
        })?;
        self.stats.add_meta(written);
        self.bytes += written;
        self.unsynced += 1;
        match self.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n as u64 {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Fsync pending records.
    pub fn sync(&mut self) -> Result<()> {
        let io = self.io.clone();
        let file = &self.file;
        with_retry(&self.retry, &self.stats, "meta fsync", |_| {
            io.sync_data(file, FaultPoint::WalFsync)
        })?;
        self.unsynced = 0;
        Ok(())
    }

    /// Restart the log empty (called after a snapshot captured its state).
    pub fn reset(&mut self) -> Result<()> {
        self.file = OpenOptions::new().write(true).truncate(true).open(&self.path)?;
        self.file.sync_data()?;
        self.unsynced = 0;
        self.bytes = 0;
        Ok(())
    }
}

/// Atomically write a snapshot record: frame into `<path>.tmp`, fsync,
/// rename over `path`, fsync the directory (so the rename itself is
/// durable, not just the file data).
pub fn write_snapshot(path: &Path, payload: &[u8]) -> Result<()> {
    write_snapshot_with(&RealIo, &RetryPolicy::default(), &SharedStats::default(), path, payload)
}

/// [`write_snapshot`] through an explicit I/O seam: the publish rename
/// consults [`FaultPoint::SnapshotRename`] and retries under `retry`. A
/// failed publish leaves the *previous* snapshot intact (the tmp file is
/// simply abandoned), so degraded here never loses the old catalog.
pub fn write_snapshot_with(
    io: &dyn WalIo,
    retry: &RetryPolicy,
    stats: &SharedStats,
    path: &Path,
    payload: &[u8],
) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        write_record(&mut f, payload)?;
        f.sync_data()?;
    }
    with_retry(retry, stats, "snapshot rename", |_| io.rename(&tmp, path))?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Read a snapshot written by [`write_snapshot`]. `Ok(None)` when the file
/// does not exist; `Err(Corrupt)` when it exists but fails its CRC — a
/// snapshot is written atomically, so damage here is not a torn tail and
/// must not be silently ignored.
pub fn read_snapshot(path: &Path) -> Result<Option<Vec<u8>>> {
    if !path.exists() {
        return Ok(None);
    }
    let image = fs::read(path)?;
    let mut scanner = FrameScanner::new(&image);
    match scanner.next() {
        Some(payload) => Ok(Some(payload.to_vec())),
        None => Err(WalError::Corrupt(format!(
            "snapshot {} failed its integrity check",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmpdir;

    #[test]
    fn meta_log_roundtrip_and_reset() {
        let dir = tmpdir("meta");
        let path = dir.join("meta.log");
        let stats = Arc::new(SharedStats::default());
        {
            let (mut log, replayed) =
                MetaLog::open(&path, SyncPolicy::Never, stats.clone()).unwrap();
            assert!(replayed.is_empty());
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
        }
        let (mut log, replayed) = MetaLog::open(&path, SyncPolicy::Never, stats.clone()).unwrap();
        assert_eq!(replayed, vec![b"one".to_vec(), b"two".to_vec()]);
        log.reset().unwrap();
        log.append(b"three").unwrap();
        drop(log);
        let (_, replayed) = MetaLog::open(&path, SyncPolicy::Never, stats).unwrap();
        assert_eq!(replayed, vec![b"three".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_log_truncates_damaged_tail() {
        let dir = tmpdir("meta");
        let path = dir.join("meta.log");
        let stats = Arc::new(SharedStats::default());
        {
            let (mut log, _) = MetaLog::open(&path, SyncPolicy::Never, stats.clone()).unwrap();
            log.append(b"keep").unwrap();
            log.append(b"torn").unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1); // torn final record
        fs::write(&path, &bytes).unwrap();
        let (mut log, replayed) = MetaLog::open(&path, SyncPolicy::Never, stats.clone()).unwrap();
        assert_eq!(replayed, vec![b"keep".to_vec()]);
        assert!(stats.snapshot().dropped_bytes > 0);
        // The truncated log accepts appends again.
        log.append(b"after").unwrap();
        drop(log);
        let (_, replayed) = MetaLog::open(&path, SyncPolicy::Never, stats).unwrap();
        assert_eq!(replayed, vec![b"keep".to_vec(), b"after".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_write_read_and_corruption() {
        let dir = tmpdir("snap");
        let path = dir.join("snapshot.bin");
        assert_eq!(read_snapshot(&path).unwrap(), None);
        write_snapshot(&path, b"catalog state").unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(b"catalog state".to_vec()));
        // Overwrite is atomic: a second snapshot replaces the first.
        write_snapshot(&path, b"newer").unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(b"newer".to_vec()));
        // A corrupt snapshot is an error, not a silent None.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&path), Err(WalError::Corrupt(_))));
        fs::remove_dir_all(&dir).ok();
    }
}
