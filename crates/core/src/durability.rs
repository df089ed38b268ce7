//! Durability policy: what the engine writes to the WAL and how it reads
//! it back.
//!
//! The `datacell-wal` crate moves opaque CRC-framed records; this module
//! owns their payloads. Three kinds of state are persisted:
//!
//! * **stream data** — ingest batches, logged by [`crate::Basket`] itself
//!   into per-stream segment logs (see `basket.rs`);
//! * **meta records** ([`MetaRecord`]) — DDL, table inserts, query
//!   registration/deregistration, pause flags, and a [`FactoryState`]
//!   *fire record* after every factory firing. The fire record is what
//!   makes the engine's *state* exactly-once across restart: the
//!   factory's resumable position is durable before its result chunk
//!   reaches any subscriber, so a restart neither re-fires a consumed
//!   window nor skips an unconsumed one. Delivery to a subscriber that is
//!   live at the instant of the crash is at-most-once for the in-flight
//!   chunk (true end-to-end exactly-once would need client acks); a
//!   re-subscribing client sees the exact continuation, no duplicates;
//! * **catalog snapshots** ([`SnapshotData`]) — a compaction point written
//!   by [`crate::DataCell::checkpoint`]: the whole catalog (streams,
//!   tables *with contents*, registered queries with their states) in one
//!   atomic record, after which the meta log restarts empty.
//!
//! Stream records, table inserts and snapshot table contents are all
//! `binio` blocks — the same columnar layout the binary wire carries.
//!
//! Recovery (see `DataCell::open`) applies the snapshot, replays the meta
//! log over it, rebuilds every basket by appending its stream log's
//! blocks column-wise, and restores each factory with
//! [`crate::Factory::restore`].

use datacell_faults::Faults;
use datacell_plan::ExecutionMode;
use datacell_storage::binio::{self, ByteReader};
use datacell_storage::{Chunk, Schema, StorageError};
use datacell_wal::{io_for, StreamBatch, StreamLog, Wal, WalConfig, WalStats};

use crate::error::{EngineError, Result};
use crate::factory::{CursorState, FactoryState, IncrMeta};

fn werr(e: impl std::fmt::Display) -> EngineError {
    EngineError::Wal(e.to_string())
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

// ---- meta records -----------------------------------------------------

/// One meta-log record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetaRecord {
    /// `CREATE STREAM` ran.
    CreateStream { name: String, schema: Schema },
    /// `CREATE TABLE` ran.
    CreateTable { name: String, schema: Schema },
    /// `DROP` ran.
    Drop { name: String },
    /// Rows were inserted into a table (typed by the table's schema).
    TableInsert { name: String, chunk: Chunk },
    /// A continuous query was registered (with its initial state).
    Register { qid: u64, sql: String, mode: ExecutionMode, state: FactoryState },
    /// A continuous query was removed.
    Deregister { qid: u64 },
    /// A query was paused / resumed.
    QueryPaused { qid: u64, paused: bool },
    /// A stream's ingestion was paused / resumed.
    StreamPaused { name: String, paused: bool },
    /// A factory fired: its new resumable position.
    FireState { qid: u64, state: FactoryState },
    /// A checkpoint is being taken: everything before this marker is
    /// captured by the snapshot of the same epoch. Appended (and synced)
    /// *before* the snapshot rename, so a crash between the rename and
    /// the meta-log reset is recoverable: replay skips through the last
    /// marker whose epoch matches the snapshot instead of re-applying
    /// (and colliding with) pre-snapshot DDL.
    Checkpoint { epoch: u64 },
}

fn mode_tag(mode: ExecutionMode) -> u8 {
    match mode {
        ExecutionMode::Reevaluate => 0,
        ExecutionMode::Incremental => 1,
    }
}

fn mode_from_tag(tag: u8) -> std::result::Result<ExecutionMode, StorageError> {
    match tag {
        0 => Ok(ExecutionMode::Reevaluate),
        1 => Ok(ExecutionMode::Incremental),
        other => Err(corrupt(format!("unknown execution mode tag {other}"))),
    }
}

fn encode_factory_state(buf: &mut Vec<u8>, state: &FactoryState) {
    binio::put_u32(buf, state.cursors.len() as u32);
    for (binding, cs) in &state.cursors {
        binio::put_str(buf, binding);
        match cs {
            CursorState::Unwindowed { next } => {
                binio::put_u8(buf, 0);
                binio::put_u64(buf, *next);
            }
            CursorState::Rows { next_bw_end } => {
                binio::put_u8(buf, 1);
                binio::put_u64(buf, *next_bw_end);
            }
            CursorState::Range { next_bw_end, low_oid } => {
                binio::put_u8(buf, 2);
                binio::put_u8(buf, next_bw_end.is_some() as u8);
                binio::put_i64(buf, next_bw_end.unwrap_or(0));
                binio::put_u64(buf, *low_oid);
            }
        }
    }
    match &state.incr {
        IncrMeta::None => binio::put_u8(buf, 0),
        IncrMeta::Agg { spans } => {
            binio::put_u8(buf, 1);
            binio::put_u32(buf, spans.len() as u32);
            for (s, e) in spans {
                binio::put_u64(buf, *s);
                binio::put_u64(buf, *e);
            }
        }
        IncrMeta::Join { left, right, next_epoch } => {
            binio::put_u8(buf, 2);
            for side in [left, right] {
                binio::put_u32(buf, side.len() as u32);
                for (epoch, s, e) in side {
                    binio::put_u64(buf, *epoch);
                    binio::put_u64(buf, *s);
                    binio::put_u64(buf, *e);
                }
            }
            binio::put_u64(buf, *next_epoch);
        }
    }
}

fn decode_factory_state(
    r: &mut ByteReader<'_>,
) -> std::result::Result<FactoryState, StorageError> {
    let n = r.u32()? as usize;
    let mut cursors = Vec::new();
    for _ in 0..n {
        let binding = r.str()?;
        let cs = match r.u8()? {
            0 => CursorState::Unwindowed { next: r.u64()? },
            1 => CursorState::Rows { next_bw_end: r.u64()? },
            2 => {
                let has = r.u8()? != 0;
                let end = r.i64()?;
                CursorState::Range {
                    next_bw_end: has.then_some(end),
                    low_oid: r.u64()?,
                }
            }
            other => return Err(corrupt(format!("unknown cursor tag {other}"))),
        };
        cursors.push((binding, cs));
    }
    let incr = match r.u8()? {
        0 => IncrMeta::None,
        1 => {
            let n = r.u32()? as usize;
            let mut spans = Vec::new();
            for _ in 0..n {
                spans.push((r.u64()?, r.u64()?));
            }
            IncrMeta::Agg { spans }
        }
        2 => {
            let mut sides = [Vec::new(), Vec::new()];
            for side in &mut sides {
                let n = r.u32()? as usize;
                for _ in 0..n {
                    side.push((r.u64()?, r.u64()?, r.u64()?));
                }
            }
            let [left, right] = sides;
            IncrMeta::Join { left, right, next_epoch: r.u64()? }
        }
        other => return Err(corrupt(format!("unknown incr tag {other}"))),
    };
    Ok(FactoryState { cursors, incr })
}

impl MetaRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            MetaRecord::CreateStream { name, schema } => {
                binio::put_u8(&mut buf, 1);
                binio::put_str(&mut buf, name);
                binio::encode_schema(&mut buf, schema);
            }
            MetaRecord::CreateTable { name, schema } => {
                binio::put_u8(&mut buf, 2);
                binio::put_str(&mut buf, name);
                binio::encode_schema(&mut buf, schema);
            }
            MetaRecord::Drop { name } => {
                binio::put_u8(&mut buf, 3);
                binio::put_str(&mut buf, name);
            }
            MetaRecord::TableInsert { name, chunk } => {
                binio::put_u8(&mut buf, 4);
                binio::put_str(&mut buf, name);
                binio::encode_chunk(&mut buf, chunk);
            }
            MetaRecord::Register { qid, sql, mode, state } => {
                binio::put_u8(&mut buf, 5);
                binio::put_u64(&mut buf, *qid);
                binio::put_str(&mut buf, sql);
                binio::put_u8(&mut buf, mode_tag(*mode));
                encode_factory_state(&mut buf, state);
            }
            MetaRecord::Deregister { qid } => {
                binio::put_u8(&mut buf, 6);
                binio::put_u64(&mut buf, *qid);
            }
            MetaRecord::QueryPaused { qid, paused } => {
                binio::put_u8(&mut buf, 7);
                binio::put_u64(&mut buf, *qid);
                binio::put_u8(&mut buf, *paused as u8);
            }
            MetaRecord::StreamPaused { name, paused } => {
                binio::put_u8(&mut buf, 8);
                binio::put_str(&mut buf, name);
                binio::put_u8(&mut buf, *paused as u8);
            }
            MetaRecord::FireState { qid, state } => {
                binio::put_u8(&mut buf, 9);
                binio::put_u64(&mut buf, *qid);
                encode_factory_state(&mut buf, state);
            }
            MetaRecord::Checkpoint { epoch } => {
                binio::put_u8(&mut buf, 10);
                binio::put_u64(&mut buf, *epoch);
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> std::result::Result<MetaRecord, StorageError> {
        let mut r = ByteReader::new(bytes);
        let rec = match r.u8()? {
            1 => MetaRecord::CreateStream { name: r.str()?, schema: binio::decode_schema(&mut r)? },
            2 => MetaRecord::CreateTable { name: r.str()?, schema: binio::decode_schema(&mut r)? },
            3 => MetaRecord::Drop { name: r.str()? },
            4 => MetaRecord::TableInsert { name: r.str()?, chunk: binio::decode_chunk(&mut r)? },
            5 => MetaRecord::Register {
                qid: r.u64()?,
                sql: r.str()?,
                mode: mode_from_tag(r.u8()?)?,
                state: decode_factory_state(&mut r)?,
            },
            6 => MetaRecord::Deregister { qid: r.u64()? },
            7 => MetaRecord::QueryPaused { qid: r.u64()?, paused: r.u8()? != 0 },
            8 => MetaRecord::StreamPaused { name: r.str()?, paused: r.u8()? != 0 },
            9 => MetaRecord::FireState { qid: r.u64()?, state: decode_factory_state(&mut r)? },
            10 => MetaRecord::Checkpoint { epoch: r.u64()? },
            other => return Err(corrupt(format!("unknown meta record tag {other}"))),
        };
        Ok(rec)
    }
}

// ---- catalog snapshots ------------------------------------------------

const SNAPSHOT_MAGIC: u32 = 0x4443_5332; // "DCS2": table contents are blocks

/// Magic of the version-1 snapshot (row-batch era), recognised only to be
/// refused by name.
const SNAPSHOT_MAGIC_V1: u32 = 0x4443_5331; // "DCS1"

/// A registered query as the snapshot stores it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuerySnapshot {
    pub qid: u64,
    pub sql: String,
    pub mode: ExecutionMode,
    pub paused: bool,
    pub state: FactoryState,
}

/// The whole-catalog snapshot payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotData {
    /// Checkpoint epoch — pairs the snapshot with the
    /// [`MetaRecord::Checkpoint`] marker written just before it.
    pub epoch: u64,
    pub next_qid: u64,
    /// `(name, schema, paused)` per stream.
    pub streams: Vec<(String, Schema, bool)>,
    /// `(name, schema, contents)` per table.
    pub tables: Vec<(String, Schema, Chunk)>,
    pub queries: Vec<QuerySnapshot>,
}

impl SnapshotData {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        binio::put_u32(&mut buf, SNAPSHOT_MAGIC);
        binio::put_u64(&mut buf, self.epoch);
        binio::put_u64(&mut buf, self.next_qid);
        binio::put_u32(&mut buf, self.streams.len() as u32);
        for (name, schema, paused) in &self.streams {
            binio::put_str(&mut buf, name);
            binio::encode_schema(&mut buf, schema);
            binio::put_u8(&mut buf, *paused as u8);
        }
        binio::put_u32(&mut buf, self.tables.len() as u32);
        for (name, schema, contents) in &self.tables {
            binio::put_str(&mut buf, name);
            binio::encode_schema(&mut buf, schema);
            binio::encode_chunk(&mut buf, contents);
        }
        binio::put_u32(&mut buf, self.queries.len() as u32);
        for q in &self.queries {
            binio::put_u64(&mut buf, q.qid);
            binio::put_str(&mut buf, &q.sql);
            binio::put_u8(&mut buf, mode_tag(q.mode));
            binio::put_u8(&mut buf, q.paused as u8);
            encode_factory_state(&mut buf, &q.state);
        }
        buf
    }

    fn decode(bytes: &[u8]) -> std::result::Result<SnapshotData, StorageError> {
        let mut r = ByteReader::new(bytes);
        match r.u32()? {
            SNAPSHOT_MAGIC => {}
            SNAPSHOT_MAGIC_V1 => {
                return Err(corrupt(
                    "snapshot format DCS1 (version 1) is not supported; this build reads DCS2",
                ))
            }
            _ => return Err(corrupt("bad snapshot magic")),
        }
        let epoch = r.u64()?;
        let next_qid = r.u64()?;
        let mut streams = Vec::new();
        for _ in 0..r.u32()? {
            streams.push((r.str()?, binio::decode_schema(&mut r)?, r.u8()? != 0));
        }
        let mut tables = Vec::new();
        for _ in 0..r.u32()? {
            tables.push((r.str()?, binio::decode_schema(&mut r)?, binio::decode_chunk(&mut r)?));
        }
        let mut queries = Vec::new();
        for _ in 0..r.u32()? {
            queries.push(QuerySnapshot {
                qid: r.u64()?,
                sql: r.str()?,
                mode: mode_from_tag(r.u8()?)?,
                paused: r.u8()? != 0,
                state: decode_factory_state(&mut r)?,
            });
        }
        Ok(SnapshotData { epoch, next_qid, streams, tables, queries })
    }
}

// ---- stream records -----------------------------------------------------

/// Decode one replayed stream-log record into the chunk it logged.
pub(crate) fn decode_stream_batch(stream: &str, batch: &StreamBatch) -> Result<Chunk> {
    let mut r = ByteReader::new(&batch.payload);
    let chunk = binio::decode_chunk(&mut r).map_err(|e| werr(format!("stream {stream}: {e}")))?;
    if chunk.len() != batch.rows as usize || !r.is_empty() {
        return Err(werr(format!(
            "stream {stream}: record at OID {} does not hold its {} rows",
            batch.first_oid, batch.rows
        )));
    }
    Ok(chunk)
}

// ---- the engine's WAL handle ------------------------------------------

/// The engine's handle to its write-ahead log. Thread-safe: the scheduler
/// writes fire records from worker threads through a shared reference
/// (the meta log serializes internally).
pub struct EngineWal {
    inner: Wal,
}

impl EngineWal {
    /// Open the WAL directory, returning the recovered snapshot (if any)
    /// and the decoded meta records appended since it. Every write goes
    /// through the I/O seam picked by `faults` — direct OS I/O when the
    /// facade is disabled, the injecting wrapper under a chaos plan.
    pub(crate) fn open(
        config: WalConfig,
        faults: &Faults,
    ) -> Result<(EngineWal, Option<SnapshotData>, Vec<MetaRecord>)> {
        let (wal, snapshot, raw) = Wal::open_with_io(config, io_for(faults)).map_err(werr)?;
        let snapshot = snapshot
            .map(|bytes| SnapshotData::decode(&bytes))
            .transpose()
            .map_err(werr)?;
        let records = raw
            .iter()
            .map(|bytes| MetaRecord::decode(bytes))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(werr)?;
        Ok((EngineWal { inner: wal }, snapshot, records))
    }

    pub(crate) fn append(&self, record: &MetaRecord) -> Result<()> {
        self.inner.append_meta(&record.encode()).map_err(werr)
    }

    /// Log a factory's post-fire state (called by the scheduler, possibly
    /// from worker threads).
    pub(crate) fn log_fire(&self, qid: u64, state: &FactoryState) -> Result<()> {
        self.append(&MetaRecord::FireState { qid, state: state.clone() })
    }

    pub(crate) fn write_snapshot(&self, snap: &SnapshotData) -> Result<()> {
        self.inner.write_snapshot(&snap.encode()).map_err(werr)
    }

    pub(crate) fn stream_log(&self, name: &str) -> Result<(StreamLog, Vec<StreamBatch>)> {
        self.inner.stream_log(name).map_err(werr)
    }

    pub(crate) fn drop_stream_log(&self, name: &str) {
        self.inner.drop_stream_log(name);
    }

    pub(crate) fn sync_meta(&self) -> Result<()> {
        self.inner.sync_meta().map_err(werr)
    }

    pub(crate) fn config(&self) -> &WalConfig {
        self.inner.config()
    }

    pub(crate) fn meta_bytes(&self) -> u64 {
        self.inner.meta_bytes()
    }

    /// Current WAL counters.
    pub fn stats(&self) -> WalStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_storage::{Bat, DataType, Value};

    fn state_with_everything() -> FactoryState {
        FactoryState {
            cursors: vec![
                ("a".into(), CursorState::Unwindowed { next: 7 }),
                ("b".into(), CursorState::Rows { next_bw_end: 42 }),
                ("c".into(), CursorState::Range { next_bw_end: Some(-5), low_oid: 3 }),
                ("d".into(), CursorState::Range { next_bw_end: None, low_oid: 0 }),
            ],
            incr: IncrMeta::Join {
                left: vec![(0, 0, 4), (2, 4, 8)],
                right: vec![(1, 0, 6)],
                next_epoch: 3,
            },
        }
    }

    #[test]
    fn meta_records_roundtrip() {
        let schema = Schema::of(&[("x", DataType::Int), ("s", DataType::Str)]);
        let records = vec![
            MetaRecord::CreateStream { name: "s1".into(), schema: schema.clone() },
            MetaRecord::CreateTable { name: "t1".into(), schema: schema.clone() },
            MetaRecord::Drop { name: "t1".into() },
            MetaRecord::TableInsert {
                name: "t1".into(),
                chunk: Chunk::from_rows(
                    &schema,
                    &[
                        vec![Value::Int(1), Value::Str("a".into())],
                        vec![Value::Null, Value::Null],
                    ],
                )
                .unwrap(),
            },
            MetaRecord::Register {
                qid: 4,
                sql: "SELECT COUNT(*) FROM s1".into(),
                mode: ExecutionMode::Incremental,
                state: state_with_everything(),
            },
            MetaRecord::Deregister { qid: 4 },
            MetaRecord::QueryPaused { qid: 2, paused: true },
            MetaRecord::StreamPaused { name: "s1".into(), paused: false },
            MetaRecord::FireState {
                qid: 9,
                state: FactoryState {
                    cursors: vec![("s".into(), CursorState::Rows { next_bw_end: 128 })],
                    incr: IncrMeta::Agg { spans: vec![(120, 124), (124, 128)] },
                },
            },
            MetaRecord::Checkpoint { epoch: 7 },
        ];
        for rec in records {
            let decoded = MetaRecord::decode(&rec.encode()).unwrap();
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let schema = Schema::of(&[("v", DataType::Float)]);
        let snap = SnapshotData {
            epoch: 3,
            next_qid: 12,
            streams: vec![("s".into(), schema.clone(), true)],
            tables: vec![(
                "dim".into(),
                schema.clone(),
                Chunk::new(vec![Bat::from_floats(vec![1.0, 2.5])]).unwrap(),
            )],
            queries: vec![QuerySnapshot {
                qid: 3,
                sql: "SELECT AVG(v) FROM s [ROWS 4 SLIDE 2]".into(),
                mode: ExecutionMode::Incremental,
                paused: false,
                state: state_with_everything(),
            }],
        };
        let decoded = SnapshotData::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn version_1_snapshot_is_refused_by_name() {
        let mut bytes = SnapshotData::default().encode();
        bytes[..4].copy_from_slice(&SNAPSHOT_MAGIC_V1.to_le_bytes());
        let err = SnapshotData::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("DCS1") && err.contains("DCS2"), "{err}");
    }

    /// A WAL directory a pre-block build wrote (stream segments and a meta
    /// log, no `DCLOG` format marker) must fail `DataCell::open` loudly —
    /// not be misparsed, and not be silently treated as empty.
    #[test]
    fn old_format_directory_is_refused_by_open() {
        let dir = std::env::temp_dir().join(format!(
            "datacell-old-format-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        let segs = dir.join("streams").join("s");
        std::fs::create_dir_all(&segs).unwrap();
        let meta = MetaRecord::CreateStream {
            name: "s".into(),
            schema: Schema::of(&[("v", DataType::Int)]),
        };
        let mut framed = Vec::new();
        datacell_wal::frame::write_record(&mut framed, &meta.encode()).unwrap();
        std::fs::write(dir.join("meta.log"), &framed).unwrap();
        let mut seg = Vec::new();
        datacell_wal::frame::write_record(&mut seg, &[0u8; 40]).unwrap();
        std::fs::write(segs.join("000000000000.seg"), &seg).unwrap();

        match crate::DataCell::open(crate::DataCellConfig::durable(&dir)) {
            Err(EngineError::Wal(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("an old-format WAL directory must not open"),
        }
        // Nothing was rewritten.
        assert_eq!(std::fs::read(dir.join("meta.log")).unwrap(), framed);
        assert_eq!(std::fs::read(segs.join("000000000000.seg")).unwrap(), seg);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MetaRecord::decode(&[]).is_err());
        assert!(MetaRecord::decode(&[0xff, 1, 2]).is_err());
        assert!(SnapshotData::decode(&[1, 2, 3, 4, 5]).is_err());
        // Truncations of a valid record fail cleanly.
        let rec = MetaRecord::FireState { qid: 1, state: state_with_everything() };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(MetaRecord::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
