//! Baskets: the lightweight stream tables of DataCell.
//!
//! "When an event stream enters the system via a receptor, stream tuples
//! are immediately stored in a lightweight table, called basket. By
//! collecting event tuples into baskets, DataCell can evaluate the
//! continuous queries over the baskets as if they were normal one-time
//! queries… Once a tuple has been seen by all relevant queries/operators,
//! it is dropped from its basket." (paper §3)
//!
//! A basket is columnar like a table (one BAT per attribute, shared dense
//! OID head) but supports *retirement*: dropping a consumed prefix while
//! OIDs keep advancing, so factory cursors remain valid.
//!
//! Retirement is *amortized O(1)*: [`Basket::retire_before`] only advances a
//! logical first-OID watermark. The dead prefix stays in the columns until it
//! exceeds the live tail (i.e. more than half the buffer is dead), at which
//! point one physical `drop_front` compacts it. Every accessor reads through
//! the watermark, so the lazy state is observationally identical to eager
//! dropping.

use std::collections::VecDeque;
use std::time::Instant;

use datacell_storage::{
    binio, Bat, Chunk, IngestStamp, Oid, Result as StorageResult, Row, Schema,
};
use datacell_wal::StreamLog;

/// Arrival-tick ring capacity. One entry per ingest batch; at the default
/// per-tuple firing threshold a factory consumes ticks as fast as they
/// arrive, so this bound only matters for bursty ingest — when it
/// overflows the oldest ticks are dropped and the affected tuples simply
/// go unstamped (latency histograms lose samples, never correctness).
const TICKS_CAP: usize = 4096;

/// A windowed, append-only columnar stream buffer.
#[derive(Debug)]
pub struct Basket {
    name: String,
    schema: Schema,
    columns: Vec<Bat>,
    /// Logical first OID. Tuples with OID below it are retired; the columns
    /// may still physically hold a dead prefix `[column base, first)` that is
    /// compacted lazily.
    first: Oid,
    /// Total tuples ever appended.
    arrived: u64,
    /// Total tuples retired (logically dropped from the front).
    retired: u64,
    /// Paused receptors stop appending (demo §4 "Pause and Resume").
    paused: bool,
    /// Durability: when attached, every append is logged (write-ahead)
    /// and retirement truncates the log. `None` = in-memory basket.
    wal: Option<StreamLog>,
    /// Degraded durability: when a WAL write exhausts its retries the
    /// basket detaches its log and keeps ingesting un-durably, recording
    /// why here. `None` = never degraded (fully durable, or in-memory by
    /// configuration).
    degraded: Option<String>,
    /// One-shot transition marker the engine drains
    /// ([`Basket::take_degraded_event`]) to count and log the escalation
    /// exactly once.
    degraded_event: bool,
    /// Observability: when on, each ingest batch records an arrival tick
    /// so window slices can be stamped for latency tracing.
    trace: bool,
    /// OIDs below this have no tick (retired, or evicted by the bounded
    /// ring) — lookups must miss rather than borrow the next batch's tick.
    tick_floor: Oid,
    /// Arrival ticks, one per traced batch: `(end_oid, arrived_at)` where
    /// the batch covers OIDs `[previous end_oid, end_oid)`. Bounded ring;
    /// entries are pruned as the retirement watermark passes them.
    ticks: VecDeque<(Oid, Instant)>,
}

impl Basket {
    /// Create an empty basket for `schema`.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| Bat::new(c.ty)).collect();
        Basket {
            name: name.into(),
            schema,
            columns,
            first: 0,
            arrived: 0,
            retired: 0,
            paused: false,
            wal: None,
            degraded: None,
            degraded_event: false,
            trace: false,
            tick_floor: 0,
            ticks: VecDeque::new(),
        }
    }

    /// Recreate a basket whose tuples below `base` were already retired
    /// before a restart (recovery path): OIDs continue from `base`, the
    /// lifetime counters account for the retired prefix, and the replayed
    /// live tail is appended afterwards via [`Basket::push_rows`].
    pub fn restore(name: impl Into<String>, schema: Schema, base: Oid) -> Self {
        let columns = schema.columns().iter().map(|c| Bat::with_base(c.ty, base)).collect();
        Basket {
            name: name.into(),
            schema,
            columns,
            first: base,
            arrived: base,
            retired: base,
            paused: false,
            wal: None,
            degraded: None,
            degraded_event: false,
            trace: false,
            tick_floor: base,
            ticks: VecDeque::new(),
        }
    }

    /// Enable/disable arrival-tick tracing (set by the engine from
    /// [`DataCellConfig::observability`](crate::DataCellConfig)).
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
        if !trace {
            self.ticks.clear();
        }
    }

    /// Record an arrival tick covering all tuples appended since the last
    /// tick (i.e. up to the current high-water mark).
    fn record_arrival(&mut self) {
        if !self.trace {
            return;
        }
        if self.ticks.len() == TICKS_CAP {
            if let Some((end, _)) = self.ticks.pop_front() {
                self.tick_floor = self.tick_floor.max(end);
            }
        }
        self.ticks.push_back((self.high_water(), Instant::now()));
    }

    /// Arrival tick of the batch that delivered `oid`, if still tracked.
    pub fn arrival_tick(&self, oid: Oid) -> Option<Instant> {
        if oid < self.tick_floor {
            return None;
        }
        // First tick whose covered range `[prev_end, end)` reaches past
        // `oid` — ticks are sorted by end OID, so partition_point works.
        let idx = self.ticks.partition_point(|&(end, _)| end <= oid);
        self.ticks.get(idx).map(|&(_, at)| at)
    }

    /// Attach the write-ahead log. Appends from here on are logged before
    /// they land; recovery replay must happen *before* attaching (replayed
    /// rows must not be re-logged).
    pub fn attach_wal(&mut self, log: StreamLog) {
        self.wal = Some(log);
    }

    /// Whether a write-ahead log is attached.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Why durability was dropped, when the basket escalated to degraded
    /// operation (`None` = never degraded).
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Drain the one-shot degraded-transition marker: returns the reason
    /// the first time after the escalation, `None` afterwards. The engine
    /// polls this after each push to count and log the transition once.
    pub(crate) fn take_degraded_event(&mut self) -> Option<String> {
        if self.degraded_event {
            self.degraded_event = false;
            self.degraded.clone()
        } else {
            None
        }
    }

    /// Escalate to degraded durability: detach the log so ingest keeps
    /// flowing un-durably, remember why, and arm the one-shot marker.
    fn degrade(&mut self, reason: String) {
        self.wal = None;
        self.degraded = Some(reason);
        self.degraded_event = true;
    }

    /// Fsync the attached log (checkpoint path). No-op when in-memory.
    /// An fsync that exhausts its retries degrades the basket (like a
    /// failed append) rather than failing the caller: the checkpoint
    /// proceeds over the remaining durable state.
    pub fn sync_wal(&mut self) -> StorageResult<()> {
        let Some(log) = &mut self.wal else {
            return Ok(());
        };
        if let Err(e) = log.sync() {
            self.degrade(e.to_string());
        }
        Ok(())
    }

    /// Write-ahead: log `chunk` as one block starting at the current
    /// high-water mark, encoded straight into the log's record buffer.
    /// Called after validation, before the append lands.
    ///
    /// A write that exhausts the WAL's retry policy does **not** fail the
    /// push — losing availability over a disk hiccup would be worse than
    /// losing the durability guarantee. Instead the basket escalates to
    /// degraded operation: the log is detached, ingest continues
    /// un-durably, and the transition is surfaced loudly (engine stats,
    /// metrics gauge, flight-recorder event) via the drained
    /// [`Basket::take_degraded_event`] marker.
    fn log_chunk(&mut self, chunk: &Chunk) {
        let Some(log) = &mut self.wal else {
            return;
        };
        let first = self.columns.first().map_or(0, Bat::oid_end);
        let logged =
            log.append_with(first, chunk.len() as u32, |buf| binio::encode_chunk(buf, chunk));
        if let Err(e) = logged {
            self.degrade(e.to_string());
        }
    }

    /// Basket name (= stream name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tuple schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tuples currently buffered (live, i.e. not yet retired).
    pub fn len(&self) -> usize {
        (self.high_water() - self.first) as usize
    }

    /// True iff no live tuples are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// OID of the oldest live tuple (the retirement watermark).
    pub fn first_oid(&self) -> Oid {
        self.first
    }

    /// Tuples physically present but already retired (awaiting compaction).
    fn dead(&self) -> usize {
        (self.first - self.columns.first().map_or(self.first, Bat::oid_base)) as usize
    }

    /// One-past-the-newest OID (the high-water mark).
    pub fn high_water(&self) -> Oid {
        self.columns.first().map_or(0, Bat::oid_end)
    }

    /// Total tuples ever appended.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Total tuples retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the basket is paused (appends rejected).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Pause/resume ingestion.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Append one validated row; returns its OID, or `None` when paused.
    pub fn push(&mut self, row: &Row) -> StorageResult<Option<Oid>> {
        let oid = self.high_water();
        let n = self.push_rows(std::slice::from_ref(row))?;
        Ok((n > 0).then_some(oid))
    }

    /// Append many rows (all validated first); returns how many entered.
    ///
    /// The append is column-at-a-time: each column BAT folds in its cells
    /// for the whole batch in one bulk pass (one ownership acquisition and
    /// one reservation per column, instead of one per cell). A durable
    /// basket pivots the rows into a chunk once and takes the chunk path,
    /// so the log and the columns receive the same typed buffers.
    pub fn push_rows(&mut self, rows: &[Row]) -> StorageResult<usize> {
        if self.paused || rows.is_empty() {
            return Ok(0);
        }
        for row in rows {
            self.schema.validate_row(row)?;
        }
        if self.wal.is_some() {
            return self.push_chunk(&Chunk::from_rows(&self.schema, rows)?);
        }
        for (j, col) in self.columns.iter_mut().enumerate() {
            col.extend_from_rows(rows, j)?;
        }
        self.arrived += rows.len() as u64;
        self.record_arrival();
        Ok(rows.len())
    }

    /// Append a pre-built columnar chunk (receptor bulk path); a durable
    /// basket logs that same chunk first.
    pub fn push_chunk(&mut self, chunk: &Chunk) -> StorageResult<usize> {
        if self.paused {
            return Ok(0);
        }
        // Columnar schema gate: the zip-append below would silently
        // truncate a ragged chunk, so arity/type/NOT-NULL must be checked
        // up front — this is the trust boundary for binary `PUSH` frames,
        // and it runs before logging: a batch that then failed to apply
        // would leave a phantom record whose advanced OID chain truncates
        // every later batch at recovery.
        self.schema.validate_chunk(chunk)?;
        if chunk.is_empty() {
            return Ok(0);
        }
        self.log_chunk(chunk);
        for (col, inc) in self.columns.iter_mut().zip(chunk.columns()) {
            col.append(inc)?;
        }
        self.arrived += chunk.len() as u64;
        self.record_arrival();
        Ok(chunk.len())
    }

    /// Copy the tuples with OIDs in `[lo, hi)` (clamped to the live range)
    /// as a chunk whose columns keep their original OID heads. Retired
    /// tuples are never returned, even while they physically linger before
    /// compaction.
    pub fn slice(&self, lo: Oid, hi: Oid) -> Chunk {
        let lo = lo.max(self.first);
        let mut chunk = Chunk::new(self.columns.iter().map(|c| c.slice_oids(lo, hi)).collect())
            // lint:allow(panic-freedom): all basket columns share one OID range, so equal-length slices
            .expect("basket columns aligned");
        if self.trace && !chunk.is_empty() {
            // Stamp with the *newest* covered tuple's arrival: latency
            // then measures "last contributing event → result", the
            // DataCell notion of response time.
            let newest = hi.min(self.high_water()).saturating_sub(1);
            if let Some(at) = self.arrival_tick(newest) {
                chunk.set_stamp(IngestStamp::at(at));
            }
        }
        chunk
    }

    /// The whole buffered contents.
    pub fn contents(&self) -> Chunk {
        self.slice(self.first_oid(), self.high_water())
    }

    /// Retire all tuples with OID `< keep_from` — called by the scheduler
    /// once every consumer's cursor in the basket's partition has passed
    /// them (the watermark protocol). Amortized O(1): only the logical
    /// watermark advances; the columns are compacted when the dead prefix
    /// outgrows the live tail.
    pub fn retire_before(&mut self, keep_from: Oid) {
        let keep_from = keep_from.min(self.high_water());
        if keep_from <= self.first {
            return;
        }
        self.retired += keep_from - self.first;
        self.first = keep_from;
        let dead = self.dead();
        if dead > self.len() {
            for c in &mut self.columns {
                c.drop_front(dead);
            }
        }
        // Retirement doubles as the log-truncation point: whole segments
        // below the watermark are deleted (cheap no-op otherwise).
        if let Some(log) = &mut self.wal {
            log.truncate_below(self.first);
        }
        // Ticks whose whole covered range is retired can never be queried.
        while self.ticks.front().is_some_and(|&(end, _)| end <= self.first) {
            self.ticks.pop_front();
        }
        self.tick_floor = self.tick_floor.max(self.first);
    }

    /// Timestamp value of the newest live tuple in column `col`
    /// (RANGE windows).
    pub fn last_value_int(&self, col: usize) -> Option<i64> {
        if self.is_empty() {
            return None;
        }
        let bat = self.columns.get(col)?;
        bat.get_at(bat.len() - 1).as_int()
    }

    /// Approximate buffered bytes (monitor pane): the columns' windows.
    /// Factory/emitter views sharing these buffers are not double-counted —
    /// a view reports only its own window (see `Bat::byte_size`).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Bat::byte_size).sum()
    }

    /// Bytes physically pinned by the backing buffers, including the
    /// retired-but-uncompacted prefix and anything kept alive by live
    /// views (≥ `byte_size`).
    pub fn buffer_byte_size(&self) -> usize {
        self.columns.iter().map(Bat::buffer_byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_storage::{DataType, Value};

    fn basket() -> Basket {
        Basket::new("s", Schema::of(&[("ts", DataType::Int), ("v", DataType::Float)]))
    }

    fn row(ts: i64, v: f64) -> Row {
        vec![Value::Int(ts), Value::Float(v)]
    }

    #[test]
    fn push_and_high_water() {
        let mut b = basket();
        assert_eq!(b.push(&row(1, 0.5)).unwrap(), Some(0));
        assert_eq!(b.push(&row(2, 1.5)).unwrap(), Some(1));
        assert_eq!(b.high_water(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arrived(), 2);
    }

    #[test]
    fn validation_enforced() {
        let mut b = basket();
        assert!(b.push(&vec![Value::Str("x".into()), Value::Null]).is_err());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn retirement_advances_base_keeps_oids() {
        let mut b = basket();
        b.push_rows(&[row(1, 1.0), row(2, 2.0), row(3, 3.0)]).unwrap();
        b.retire_before(2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.first_oid(), 2);
        assert_eq!(b.high_water(), 3);
        assert_eq!(b.retired(), 2);
        // retiring before the current base is a no-op
        b.retire_before(1);
        assert_eq!(b.len(), 1);
        // new arrivals continue the OID sequence
        b.push(&row(4, 4.0)).unwrap();
        assert_eq!(b.high_water(), 4);
    }

    #[test]
    fn slice_windows() {
        let mut b = basket();
        for i in 0..10 {
            b.push(&row(i, i as f64)).unwrap();
        }
        let w = b.slice(3, 7);
        assert_eq!(w.len(), 4);
        assert_eq!(w.column(0).oid_base(), 3);
        assert_eq!(w.row(0)[0], Value::Int(3));
        // clamping
        let w = b.slice(8, 100);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn pause_blocks_appends() {
        let mut b = basket();
        b.set_paused(true);
        assert_eq!(b.push(&row(1, 1.0)).unwrap(), None);
        assert_eq!(b.push_rows(&[row(1, 1.0)]).unwrap(), 0);
        assert!(b.is_paused());
        b.set_paused(false);
        assert_eq!(b.push(&row(1, 1.0)).unwrap(), Some(0));
    }

    #[test]
    fn retirement_is_lazy_until_half_dead() {
        let mut b = basket();
        for i in 0..10 {
            b.push(&row(i, i as f64)).unwrap();
        }
        let full_bytes = b.byte_size();
        // Retire less than half: watermark moves, columns stay untouched.
        b.retire_before(3);
        assert_eq!(b.first_oid(), 3);
        assert_eq!(b.len(), 7);
        assert_eq!(b.retired(), 3);
        assert_eq!(b.byte_size(), full_bytes, "dead prefix not yet compacted");
        // Dead tuples are invisible to slicing even while physically present.
        let w = b.slice(0, 10);
        assert_eq!(w.len(), 7);
        assert_eq!(w.column(0).oid_base(), 3);
        // Crossing the half-dead threshold compacts in one go.
        b.retire_before(8);
        assert_eq!(b.len(), 2);
        assert_eq!(b.retired(), 8);
        assert!(b.byte_size() < full_bytes, "compaction reclaimed the prefix");
        assert_eq!(b.slice(0, 10).row(0)[0], Value::Int(8));
    }

    #[test]
    fn fully_retired_basket_reads_as_empty() {
        let mut b = basket();
        b.push_rows(&[row(1, 1.0), row(2, 2.0), row(3, 3.0)]).unwrap();
        b.retire_before(3);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        // A logically empty basket must not leak retired values.
        assert_eq!(b.last_value_int(0), None);
        assert!(b.contents().is_empty());
        // OIDs keep advancing across full retirement.
        b.push(&row(9, 9.0)).unwrap();
        assert_eq!(b.high_water(), 4);
        assert_eq!(b.last_value_int(0), Some(9));
    }

    #[test]
    fn last_value_for_range_windows() {
        let mut b = basket();
        assert_eq!(b.last_value_int(0), None);
        b.push(&row(42, 0.0)).unwrap();
        assert_eq!(b.last_value_int(0), Some(42));
    }

    #[test]
    fn live_window_views_survive_retirement_compaction() {
        let mut b = basket();
        for i in 0..10 {
            b.push(&row(i, i as f64)).unwrap();
        }
        // A factory-style window view over tuples [2, 8).
        let window = b.slice(2, 8);
        assert!(window.column(0).shares_buffer_with(b.contents().column(0)));
        let frozen: Vec<Row> = window.rows().collect();
        // Retire past the view's start and cross the half-dead compaction
        // threshold while the view is alive.
        b.retire_before(6);
        b.retire_before(9);
        assert_eq!(b.len(), 1);
        // The view still reads its original window, byte for byte.
        assert_eq!(window.rows().collect::<Vec<Row>>(), frozen);
        assert_eq!(window.column(0).oid_base(), 2);
        // New arrivals after compaction are invisible to the view.
        b.push(&row(99, 99.0)).unwrap();
        assert_eq!(window.len(), 6);
        assert_eq!(b.slice(0, 100).row(0)[0], Value::Int(9));
    }

    #[test]
    fn push_rows_appends_column_at_a_time() {
        let mut b = basket();
        // A bulk batch lands identically to cell-wise pushes, including
        // NULL tracking, and still validates every row up front.
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::Float(2.5)],
        ];
        assert_eq!(b.push_rows(&rows).unwrap(), 3);
        let c = b.contents();
        assert_eq!(c.row(1), vec![Value::Int(2), Value::Null]);
        assert_eq!(c.column(1).valid_count(), 2);
        // A batch with a bad row is rejected whole.
        let bad = vec![vec![Value::Int(4), Value::Float(1.0)], vec![Value::Str("x".into()), Value::Null]];
        assert!(b.push_rows(&bad).is_err());
        assert_eq!(b.len(), 3, "failed batch must not partially land");
        assert_eq!(b.arrived(), 3);
    }

    #[test]
    fn buffer_bytes_track_pinned_prefix_under_live_views() {
        let mut b = basket();
        for i in 0..8 {
            b.push(&row(i, i as f64)).unwrap();
        }
        let window = b.slice(0, 8); // pins the buffers
        let full = b.byte_size();
        assert_eq!(b.buffer_byte_size(), full);
        // Retire everything: compaction wants to drop the prefix but the
        // live view pins the physical buffer.
        b.retire_before(8);
        assert_eq!(b.len(), 0);
        assert_eq!(b.byte_size(), 0, "window bytes report the live window");
        assert_eq!(b.buffer_byte_size(), full, "pinned bytes report the buffer");
        drop(window);
        // With the view gone the next retirement-compaction reclaims.
        b.push(&row(9, 9.0)).unwrap();
        b.retire_before(9);
        assert_eq!(b.buffer_byte_size(), 0);
    }

    #[test]
    fn arrival_ticks_stamp_slices_and_prune_on_retire() {
        let mut b = basket();
        assert!(b.slice(0, 10).stamp().instant().is_none(), "no trace, no stamp");
        b.set_trace(true);
        b.push_rows(&[row(1, 1.0), row(2, 2.0)]).unwrap();
        let before = Instant::now();
        b.push(&row(3, 3.0)).unwrap();
        // The slice stamp is the arrival tick of its *newest* tuple.
        let stamp = b.slice(0, 3).stamp().instant().expect("traced slice is stamped");
        assert!(stamp >= before);
        let older = b.slice(0, 2).stamp().instant().expect("older window stamped too");
        assert!(older <= before);
        // Retirement prunes ticks; fully retired ranges lose their stamp,
        // live ones keep it.
        b.retire_before(2);
        assert!(b.arrival_tick(0).is_none());
        assert!(b.arrival_tick(2).is_some());
        // Disabling tracing drops the ring and stops stamping.
        b.set_trace(false);
        b.push(&row(4, 4.0)).unwrap();
        assert!(b.slice(0, 10).stamp().instant().is_none());
    }

    #[test]
    fn wal_failure_degrades_instead_of_failing_ingest() {
        use datacell_faults::{FaultPlan, Faults};
        use datacell_wal::{io_for, RetryPolicy, SharedStats, SyncPolicy};
        use std::sync::Arc;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("datacell-basket-degrade-{nanos}"));
        let faults = Faults::enabled(
            FaultPlan::parse("seed=1;wal_append:nth=2:enospc").unwrap(),
        );
        let (log, _) = StreamLog::open_with_io(
            &dir,
            SyncPolicy::Never,
            1 << 20,
            Arc::new(SharedStats::default()),
            io_for(&faults),
            RetryPolicy::none(),
        )
        .unwrap();
        let mut b = basket();
        b.attach_wal(log);
        assert!(b.is_durable());
        // First append logs fine.
        b.push(&row(1, 1.0)).unwrap();
        assert!(b.take_degraded_event().is_none());
        // The second hits the injected ENOSPC: the push still lands, the
        // log is detached, and the transition marker fires exactly once.
        b.push(&row(2, 2.0)).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b.is_durable());
        assert!(b.degraded().is_some());
        assert!(b.take_degraded_event().is_some());
        assert!(b.take_degraded_event().is_none());
        // Further ingest keeps flowing un-durably.
        b.push(&row(3, 3.0)).unwrap();
        assert_eq!(b.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn push_chunk_bulk_path() {
        let mut b = basket();
        let chunk = Chunk::new(vec![
            Bat::from_ints(vec![1, 2]),
            Bat::from_floats(vec![0.1, 0.2]),
        ])
        .unwrap();
        assert_eq!(b.push_chunk(&chunk).unwrap(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arrived(), 2);
    }
}
