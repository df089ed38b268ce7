//! The WAL manager: configuration, directory layout, fsync policy and the
//! engine-facing handle.

use std::fs;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use crate::error::Result;
use crate::io::{RealIo, RetryPolicy, WalIo};
use crate::meta::{read_snapshot, write_snapshot_with, MetaLog};
use crate::segment::{StreamBatch, StreamLog};
use crate::stats::{SharedStats, WalStats};

/// When appended records are fsync'd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append — full durability, slowest ingest.
    Always,
    /// Fsync every N appends (per log). A crash loses at most the last
    /// N-1 *flushed-but-unsynced* batches — they survive anything short of
    /// an OS/power failure, since every append is written through to the
    /// file immediately.
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes at its leisure. Fastest;
    /// appends still survive a process crash (kill -9), only an OS/power
    /// failure can lose them.
    Never,
}

impl FromStr for SyncPolicy {
    type Err = String;

    /// Accepts `always`, `never`, `every=N`.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            other => match other.strip_prefix("every=").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(SyncPolicy::EveryN(n)),
                _ => Err(format!("bad fsync policy {s:?} (want always|never|every=N)")),
            },
        }
    }
}

/// Durability configuration (carried inside the engine's `DataCellConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Root directory of the WAL (created on open).
    pub dir: PathBuf,
    /// Fsync policy for stream and meta logs.
    pub sync: SyncPolicy,
    /// Rotation threshold for stream segment files, in bytes.
    pub segment_bytes: u64,
    /// Automatic-checkpoint trigger: once the meta log exceeds this many
    /// bytes the engine writes a catalog snapshot and compacts it, so
    /// fire records never accumulate unboundedly and recovery cost stays
    /// bounded. `None` = only explicit / shutdown checkpoints.
    pub checkpoint_meta_bytes: Option<u64>,
    /// How transient append/fsync failures are retried before the WAL
    /// gives up and the engine drops to degraded durability.
    pub retry: RetryPolicy,
}

impl WalConfig {
    /// Durability at `dir` with the default policy: fsync every 64
    /// batches, 4 MiB segments, auto-checkpoint at 8 MiB of meta log.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            sync: SyncPolicy::EveryN(64),
            segment_bytes: 4 << 20,
            checkpoint_meta_bytes: Some(8 << 20),
            retry: RetryPolicy::default(),
        }
    }
}

/// The open write-ahead log of one engine.
pub struct Wal {
    config: WalConfig,
    stats: Arc<SharedStats>,
    io: Arc<dyn WalIo>,
    meta: Mutex<MetaLog>,
}

impl Wal {
    /// Open (or initialize) the WAL directory with direct OS I/O. Returns
    /// the manager, the catalog snapshot payload (if one was ever written)
    /// and the meta-log records appended since that snapshot, in order.
    #[allow(clippy::type_complexity)]
    pub fn open(config: WalConfig) -> Result<(Wal, Option<Vec<u8>>, Vec<Vec<u8>>)> {
        Wal::open_with_io(config, Arc::new(RealIo))
    }

    /// [`Wal::open`] through an explicit I/O seam: every segment/meta
    /// append, fsync and snapshot rename of this WAL (and of the stream
    /// logs it hands out) goes through `io`.
    #[allow(clippy::type_complexity)]
    pub fn open_with_io(
        config: WalConfig,
        io: Arc<dyn WalIo>,
    ) -> Result<(Wal, Option<Vec<u8>>, Vec<Vec<u8>>)> {
        fs::create_dir_all(config.dir.join("streams"))?;
        let stats = Arc::new(SharedStats::default());
        let snapshot = read_snapshot(&config.dir.join("snapshot.bin"))?;
        let (meta, records) = MetaLog::open_with_io(
            config.dir.join("meta.log"),
            config.sync,
            stats.clone(),
            io.clone(),
            config.retry,
        )?;
        Ok((Wal { config, stats, io, meta: Mutex::new(meta) }, snapshot, records))
    }

    /// The configuration this WAL was opened with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Open (and replay) the segment log of one stream.
    pub fn stream_log(&self, stream: &str) -> Result<(StreamLog, Vec<StreamBatch>)> {
        StreamLog::open_with_io(
            self.config.dir.join("streams").join(stream),
            self.config.sync,
            self.config.segment_bytes,
            self.stats.clone(),
            self.io.clone(),
            self.config.retry,
        )
    }

    /// Delete a dropped stream's log files (so a later stream of the same
    /// name starts from a clean slate).
    pub fn drop_stream_log(&self, stream: &str) {
        let _ = fs::remove_dir_all(self.config.dir.join("streams").join(stream));
    }

    /// Append one record to the meta log (thread-safe).
    pub fn append_meta(&self, payload: &[u8]) -> Result<()> {
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).append(payload)
    }

    /// Fsync the meta log.
    pub fn sync_meta(&self) -> Result<()> {
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).sync()
    }

    /// Bytes in the meta log since the last snapshot (the automatic
    /// checkpoint trigger).
    pub fn meta_bytes(&self) -> u64 {
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).bytes()
    }

    /// Write a catalog snapshot atomically, then restart the meta log
    /// empty (the snapshot subsumes it).
    pub fn write_snapshot(&self, payload: &[u8]) -> Result<()> {
        write_snapshot_with(
            self.io.as_ref(),
            &self.config.retry,
            &self.stats,
            &self.config.dir.join("snapshot.bin"),
            payload,
        )?;
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).reset()?;
        self.stats.add_snapshot();
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::LOG_MAGIC;
    use crate::testutil::tmpdir;
    use crate::{WalError, FORMAT_VERSION};

    #[test]
    fn sync_policy_parsing() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!("NEVER".parse::<SyncPolicy>().unwrap(), SyncPolicy::Never);
        assert_eq!("every=8".parse::<SyncPolicy>().unwrap(), SyncPolicy::EveryN(8));
        assert!("every=0".parse::<SyncPolicy>().is_err());
        assert!("sometimes".parse::<SyncPolicy>().is_err());
    }

    #[test]
    fn open_initializes_and_recovers_meta_and_snapshot() {
        let dir = tmpdir("wal");
        {
            let (wal, snap, records) = Wal::open(WalConfig::at(&dir)).unwrap();
            assert!(snap.is_none());
            assert!(records.is_empty());
            wal.append_meta(b"r1").unwrap();
            wal.append_meta(b"r2").unwrap();
        }
        {
            let (wal, snap, records) = Wal::open(WalConfig::at(&dir)).unwrap();
            assert!(snap.is_none());
            assert_eq!(records, vec![b"r1".to_vec(), b"r2".to_vec()]);
            // Snapshot compacts the meta log.
            wal.write_snapshot(b"state").unwrap();
            wal.append_meta(b"after").unwrap();
            assert_eq!(wal.stats().snapshots, 1);
        }
        let (_, snap, records) = Wal::open(WalConfig::at(&dir)).unwrap();
        assert_eq!(snap, Some(b"state".to_vec()));
        assert_eq!(records, vec![b"after".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_marker_directory_is_refused_as_version_1() {
        let dir = tmpdir("wal");
        // What a pre-marker build left behind: a meta log and a stream
        // segment whose files start straight with a record frame.
        let mut old = Vec::new();
        crate::frame::write_record(&mut old, b"old record").unwrap();
        fs::write(dir.join("meta.log"), &old).unwrap();
        match Wal::open(WalConfig::at(&dir)) {
            Err(e @ WalError::UnsupportedFormat { found: 1, supported: FORMAT_VERSION }) => {
                assert!(e.to_string().contains("version 1"), "{e}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("an old-format directory must be refused"),
        }
        // Refusal touched nothing.
        assert_eq!(fs::read(dir.join("meta.log")).unwrap(), old);

        fs::remove_file(dir.join("meta.log")).unwrap();
        let seg_dir = dir.join("streams/s");
        fs::create_dir_all(&seg_dir).unwrap();
        // A stream record: first_oid, nrows, then the batch.
        let mut old = Vec::new();
        crate::frame::write_record(&mut old, &[0u8; 20]).unwrap();
        fs::write(seg_dir.join("000000000000.seg"), &old).unwrap();
        let (wal, _, _) = Wal::open(WalConfig::at(&dir)).unwrap();
        assert!(matches!(
            wal.stream_log("s"),
            Err(WalError::UnsupportedFormat { found: 1, .. })
        ));
        assert_eq!(fs::read(seg_dir.join("000000000000.seg")).unwrap(), old);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_filled_meta_log_is_damage_not_version_1() {
        // What a crash right after a meta-log reset can leave: zero-filled
        // blocks where the first record was being written.
        let dir = tmpdir("wal");
        fs::write(dir.join("meta.log"), vec![0u8; 4096]).unwrap();
        let (wal, _, records) = Wal::open(WalConfig::at(&dir)).unwrap();
        assert!(records.is_empty());
        assert_eq!(wal.stats().dropped_bytes, 4096);
        wal.append_meta(b"m").unwrap();
        drop(wal);
        assert!(fs::read(dir.join("meta.log")).unwrap().starts_with(&LOG_MAGIC));
        let (_, _, records) = Wal::open(WalConfig::at(&dir)).unwrap();
        assert_eq!(records, vec![b"m".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_log_file_starts_with_the_marker() {
        let dir = tmpdir("wal");
        let (wal, _, _) = Wal::open(WalConfig::at(&dir)).unwrap();
        wal.append_meta(b"m").unwrap();
        let (mut log, _) = wal.stream_log("s").unwrap();
        log.append_with(0, 1, |buf| buf.extend_from_slice(b"b")).unwrap();
        for file in [dir.join("meta.log"), dir.join("streams/s/000000000000.seg")] {
            assert!(fs::read(&file).unwrap().starts_with(&LOG_MAGIC), "{}", file.display());
        }
        // A reset meta log gets its marker back with the next record.
        wal.write_snapshot(b"state").unwrap();
        wal.append_meta(b"after").unwrap();
        assert!(fs::read(dir.join("meta.log")).unwrap().starts_with(&LOG_MAGIC));
        let (_, _, records) = Wal::open(WalConfig::at(&dir)).unwrap();
        assert_eq!(records, vec![b"after".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_logs_live_under_streams_dir() {
        let dir = tmpdir("wal");
        let (wal, _, _) = Wal::open(WalConfig::at(&dir)).unwrap();
        {
            let (mut log, replayed) = wal.stream_log("trades").unwrap();
            assert!(replayed.is_empty());
            log.append_with(0, 3, |buf| buf.extend_from_slice(b"abc")).unwrap();
        }
        let (_, replayed) = wal.stream_log("trades").unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(dir.join("streams/trades").is_dir());
        wal.drop_stream_log("trades");
        assert!(!dir.join("streams/trades").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
