//! The DataCell engine facade: catalog + baskets + factories + scheduler.
//!
//! This is the programmatic surface of the whole system (paper Figure 1):
//! DDL and one-time queries via [`DataCell::execute`], continuous queries
//! via [`DataCell::register_query`], stream ingestion via
//! [`DataCell::push_rows`] (or threaded [`crate::receptor::Receptor`]s),
//! and event-driven evaluation via [`DataCell::step`] /
//! [`DataCell::run_until_idle`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell_faults::FaultPoint;
use datacell_obs::{MetricValue, MetricsSnapshot, TraceEvent};
use datacell_plan::{compile, execute, AnalyzeRow, Binder, ExecSources, ExecutionMode};
use datacell_sql::{parse_statement, Statement};
use datacell_storage::schema::validate_rows;
use datacell_storage::{Catalog, Chunk, Row, Schema};
use parking_lot::RwLock;

use crate::admission::{MemoryBudget, ShedPolicy};
use crate::basket::Basket;
use crate::config::DataCellConfig;
use crate::durability::{decode_stream_batch, EngineWal, MetaRecord, QuerySnapshot, SnapshotData};
use crate::emitter::{channel_obs, Emitter, EmitterSender};
use crate::error::{EngineError, Result};
use crate::factory::{BasketHandle, Factory, FireContext};
use crate::network::QueryNetwork;
use crate::obs::EngineObs;
use crate::scheduler::{NetState, Scheduler};
use crate::stats::{BasketStats, EngineStats, QueryStats};

/// Outcome of [`DataCell::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// Object created.
    Created(String),
    /// Object dropped.
    Dropped(String),
    /// Rows inserted.
    Inserted(usize),
    /// One-time query result: column names plus rows.
    Rows {
        /// Output column names.
        names: Vec<String>,
        /// Result data.
        chunk: Chunk,
    },
}

/// Identifier of a registered continuous query.
pub type QueryId = u64;

/// The DataCell instance.
pub struct DataCell {
    catalog: Catalog,
    baskets: HashMap<String, BasketHandle>,
    results: HashMap<QueryId, VecDeque<Chunk>>,
    subscribers: HashMap<QueryId, Vec<EmitterSender>>,
    /// Chunks dropped by bounded subscriber queues (drop-oldest overflow).
    dropped_chunks: u64,
    /// Per-query attribution of those drops (`STATS DETAIL` table).
    dropped_by_query: HashMap<QueryId, u64>,
    /// Observability hub: metrics registry + flight recorder. Always
    /// present; recording is a no-op when `config.observability` is off.
    obs: Arc<EngineObs>,
    /// Engine start tick (uptime reporting).
    started: Instant,
    /// Owns every factory, grouped into basket-partitions.
    scheduler: Scheduler,
    /// The write-ahead log, when `config.wal` is set.
    wal: Option<EngineWal>,
    /// Checkpoint epoch counter (pairs snapshots with their meta-log
    /// markers; see `MetaRecord::Checkpoint`).
    wal_epoch: u64,
    /// Whether [`DataCell::open`] found (and recovered) prior state.
    recovered: bool,
    /// Admission control: pushes rejected over budget (reject /
    /// pause-receptors policies).
    admission_rejected: u64,
    /// Admission control: queued result chunks shed (drop-oldest policy).
    admission_dropped: u64,
    /// Pause-receptors hysteresis state: `true` while ingest is paused by
    /// the memory budget (resumes below the low watermark).
    ingest_paused: bool,
    config: DataCellConfig,
    next_qid: QueryId,
}

impl Default for DataCell {
    fn default() -> Self {
        DataCell::new(DataCellConfig::default())
    }
}

impl DataCell {
    /// Create an engine with the given configuration. With durability
    /// configured this delegates to [`DataCell::open`] and panics on an
    /// I/O failure; fallible embedders should call `open` directly.
    pub fn new(config: DataCellConfig) -> Self {
        // lint:allow(panic-freedom): new() is the documented panicking convenience; open() is the fallible API
        DataCell::open(config).expect("failed to open durable DataCell")
    }

    fn fresh(config: DataCellConfig) -> Self {
        DataCell {
            catalog: Catalog::new(),
            baskets: HashMap::new(),
            results: HashMap::new(),
            subscribers: HashMap::new(),
            dropped_chunks: 0,
            dropped_by_query: HashMap::new(),
            obs: Arc::new(EngineObs::new(config.observability)),
            started: Instant::now(),
            scheduler: Scheduler::new(),
            wal: None,
            wal_epoch: 0,
            recovered: false,
            admission_rejected: 0,
            admission_dropped: 0,
            ingest_paused: false,
            config,
            next_qid: 1,
        }
    }

    /// Open an engine. Without `config.wal` this is a fresh in-memory
    /// engine; with it, the WAL directory is created or — if it already
    /// holds state — fully recovered: catalog, tables (with contents),
    /// baskets (stream-log blocks decoded to chunks and appended
    /// column-wise), registered queries and their
    /// factories at their exact pre-crash positions, so emission resumes
    /// without duplicating or skipping a window fire.
    pub fn open(config: DataCellConfig) -> Result<DataCell> {
        let mut cell = DataCell::fresh(config);
        let Some(wal_config) = cell.config.wal.clone() else {
            return Ok(cell);
        };
        let (wal, snapshot, records) = EngineWal::open(wal_config, &cell.config.faults)?;
        cell.recovered = snapshot.is_some() || !records.is_empty();
        cell.recover(&wal, snapshot, records)?;
        cell.wal = Some(wal);
        if cell.recovered {
            let stats = cell.wal.as_ref().map(EngineWal::stats).unwrap_or_default();
            cell.obs.event(
                "recovery",
                format!(
                    "replayed {} batches / {} rows, dropped {} damaged bytes",
                    stats.recovered_batches, stats.recovered_rows, stats.dropped_bytes
                ),
            );
        }
        Ok(cell)
    }

    /// Whether [`DataCell::open`] recovered prior on-disk state (as
    /// opposed to initializing an empty WAL directory).
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Rebuild the whole engine from a snapshot plus the meta records
    /// appended after it.
    fn recover(
        &mut self,
        wal: &EngineWal,
        snapshot: Option<SnapshotData>,
        mut records: Vec<MetaRecord>,
    ) -> Result<()> {
        // Skip the stale meta prefix, if any: a crash between the
        // snapshot rename and the meta-log reset leaves pre-snapshot
        // records behind, terminated by the checkpoint marker of the
        // snapshot's epoch. Everything through that marker is already
        // inside the snapshot; re-applying it would collide (duplicate
        // DDL, double table inserts).
        let snapshot = match snapshot {
            Some(snap) => {
                self.wal_epoch = snap.epoch;
                if let Some(i) = records.iter().rposition(
                    |r| matches!(r, MetaRecord::Checkpoint { epoch } if *epoch == snap.epoch),
                ) {
                    records.drain(..=i);
                }
                snap
            }
            None => SnapshotData::default(),
        };

        // 1. Catalog + query list: snapshot first, then the meta log.
        let mut queries: std::collections::BTreeMap<QueryId, QuerySnapshot> =
            std::collections::BTreeMap::new();
        let mut stream_paused: HashMap<String, bool> = HashMap::new();
        self.next_qid = snapshot.next_qid.max(1);
        for (name, schema, paused) in snapshot.streams {
            self.catalog.create_stream(&name, schema)?;
            stream_paused.insert(name.to_ascii_lowercase(), paused);
        }
        for (name, schema, contents) in snapshot.tables {
            let handle = self.catalog.create_table(&name, schema)?;
            handle.write().insert_chunk(&contents)?;
        }
        for q in snapshot.queries {
            queries.insert(q.qid, q);
        }
        for record in records {
            match record {
                MetaRecord::CreateStream { name, schema } => {
                    self.catalog.create_stream(&name, schema)?;
                    stream_paused.insert(name.to_ascii_lowercase(), false);
                }
                MetaRecord::CreateTable { name, schema } => {
                    self.catalog.create_table(&name, schema)?;
                }
                MetaRecord::Drop { name } => {
                    self.catalog.drop_entry(&name)?;
                    stream_paused.remove(&name.to_ascii_lowercase());
                }
                MetaRecord::TableInsert { name, chunk } => {
                    self.catalog.table(&name)?.write().insert_chunk(&chunk)?;
                }
                MetaRecord::Register { qid, sql, mode, state } => {
                    self.next_qid = self.next_qid.max(qid + 1);
                    queries.insert(
                        qid,
                        QuerySnapshot { qid, sql, mode, paused: false, state },
                    );
                }
                MetaRecord::Deregister { qid } => {
                    queries.remove(&qid);
                }
                MetaRecord::QueryPaused { qid, paused } => {
                    if let Some(q) = queries.get_mut(&qid) {
                        q.paused = paused;
                    }
                }
                MetaRecord::StreamPaused { name, paused } => {
                    stream_paused.insert(name.to_ascii_lowercase(), paused);
                }
                MetaRecord::FireState { qid, state } => {
                    if let Some(q) = queries.get_mut(&qid) {
                        q.state = state;
                    }
                }
                MetaRecord::Checkpoint { epoch } => {
                    // A marker whose snapshot never landed (crash before
                    // the rename). Remember the epoch so it is never
                    // reused — the skip rule above keys on it.
                    self.wal_epoch = self.wal_epoch.max(epoch);
                }
            }
        }

        // 2. Baskets: replay each stream's log tail block by block through
        // the columnar append path, then attach the log for future appends.
        for name in self.catalog.stream_names() {
            let schema = self.catalog.schema_of(&name)?;
            let (log, batches) = wal.stream_log(&name)?;
            let base = batches.first().map_or(log.end_oid(), |b| b.first_oid);
            let mut basket = Basket::restore(&name, schema, base);
            for batch in &batches {
                basket.push_chunk(&decode_stream_batch(&name, batch)?)?;
            }
            basket.attach_wal(log);
            basket.set_trace(self.config.observability);
            if stream_paused.get(&name.to_ascii_lowercase()).copied().unwrap_or(false) {
                basket.set_paused(true);
            }
            self.baskets.insert(name.to_ascii_lowercase(), Arc::new(RwLock::new(basket)));
        }

        // 3. Factories: recompile each query and restore its saved
        // position (cursors + incremental ring rebuild from the retained
        // basket tail).
        for (qid, q) in queries {
            self.next_qid = self.next_qid.max(qid + 1);
            let compiled = self.compile_continuous(&q.sql)?;
            let mut factory =
                Factory::new(qid, compiled, q.mode, &self.baskets, &self.catalog)?;
            let ctx = FireContext {
                baskets: &self.baskets,
                catalog: &self.catalog,
                config: &self.config,
                wal: None,  // recovery itself is never re-logged
                obs: None, // replayed firings must not pollute live latency series
            };
            factory.restore(&q.state, &ctx)?;
            factory.paused = q.paused;
            self.scheduler.insert(factory);
            self.results.insert(qid, VecDeque::new());
        }

        // 4. Re-trim: replayed segments may hold a prefix that was already
        // retired before the crash; one watermark pass drops it again.
        let ctx = FireContext {
            baskets: &self.baskets,
            catalog: &self.catalog,
            config: &self.config,
            wal: Some(wal),
            obs: None,
        };
        self.scheduler.retire_all(&ctx);
        Ok(())
    }

    /// Parse, bind and compile a continuous SELECT (shared by
    /// registration and recovery).
    fn compile_continuous(&self, sql: &str) -> Result<datacell_plan::CompiledQuery> {
        let stmt = match parse_statement(sql)? {
            Statement::Select(s) => s,
            other => {
                return Err(EngineError::InvalidStatement(format!(
                    "only SELECT can be registered as a continuous query, got {other}"
                )))
            }
        };
        let bound = Binder::new(&self.catalog).bind_select(&stmt)?;
        let compiled = compile(sql, bound)?;
        if !compiled.is_continuous() {
            return Err(EngineError::InvalidStatement(
                "query reads no stream; run it with execute() instead".into(),
            ));
        }
        Ok(compiled)
    }

    /// Append one meta record to the WAL, if durability is on.
    fn log_meta(&self, record: MetaRecord) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.append(&record),
            None => Ok(()),
        }
    }

    /// Write a catalog snapshot (streams, tables with contents, queries
    /// with their exact factory states) and compact the meta log — the
    /// graceful-shutdown checkpoint; also triggered automatically when
    /// the meta log outgrows `WalConfig::checkpoint_meta_bytes`. Also
    /// fsyncs every log, whatever the configured policy. Crash-atomic: a
    /// checkpoint marker is made durable in the meta log *before* the
    /// snapshot rename, so recovery can tell pre-snapshot records from
    /// post-snapshot ones whatever instant the process dies. No-op
    /// without durability.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let epoch = self.wal_epoch + 1;
        let mut streams = Vec::new();
        for name in self.catalog.stream_names() {
            let schema = self.catalog.schema_of(&name)?;
            let paused = self
                .baskets
                .get(&name)
                .map(|b| b.read().is_paused())
                .unwrap_or(false);
            // Preserve the original (case-preserved) stream name.
            let name = self.catalog.stream(&name)?.name;
            streams.push((name, schema, paused));
        }
        let mut tables = Vec::new();
        for name in self.catalog.names() {
            if let Ok(handle) = self.catalog.table(&name) {
                let table = handle.read();
                tables.push((table.name().to_owned(), table.schema().clone(), table.scan()));
            }
        }
        let queries = self
            .scheduler
            .factories()
            .into_iter()
            .map(|f| QuerySnapshot {
                qid: f.id,
                sql: f.query.sql.clone(),
                mode: f.mode,
                paused: f.paused,
                state: f.state(),
            })
            .collect();
        let snap = SnapshotData { epoch, next_qid: self.next_qid, streams, tables, queries };
        // Marker first (durable), then the atomic snapshot rename + meta
        // reset — see the method docs.
        wal.append(&MetaRecord::Checkpoint { epoch })?;
        wal.sync_meta()?;
        wal.write_snapshot(&snap)?;
        self.wal_epoch = epoch;
        self.obs.event("checkpoint", format!("epoch {epoch}"));
        let mut degraded = Vec::new();
        for basket in self.baskets.values() {
            let mut b = basket.write();
            b.sync_wal()?;
            if let Some(reason) = b.take_degraded_event() {
                degraded.push((b.name().to_owned(), reason));
            }
        }
        for (name, reason) in degraded {
            self.obs.record_degraded(&name, &reason);
        }
        wal.sync_meta()
    }

    /// Checkpoint automatically once the meta log (fire records, mostly)
    /// outgrows the configured bound — keeps recovery replay bounded on
    /// long-running durable engines.
    fn maybe_auto_checkpoint(&mut self) -> Result<()> {
        let due = self.wal.as_ref().is_some_and(|w| {
            w.config()
                .checkpoint_meta_bytes
                .is_some_and(|limit| w.meta_bytes() >= limit)
        });
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// WAL counters, when durability is on.
    pub fn wal_stats(&self) -> Option<datacell_wal::WalStats> {
        self.wal.as_ref().map(EngineWal::stats)
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current configuration.
    pub fn config(&self) -> &DataCellConfig {
        &self.config
    }

    /// Mutate configuration knobs (affects subsequent firings).
    pub fn config_mut(&mut self) -> &mut DataCellConfig {
        &mut self.config
    }

    // ---- DDL / DML / one-time queries ---------------------------------

    /// Execute a single SQL statement: `CREATE TABLE`, `CREATE STREAM`,
    /// `DROP`, `INSERT`, or a one-time `SELECT`.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let outcome = self.execute_inner(sql)?;
        // DDL / table inserts append meta records too; keep the log
        // bounded even for workloads that never run the scheduler.
        self.maybe_auto_checkpoint()?;
        Ok(outcome)
    }

    fn execute_inner(&mut self, sql: &str) -> Result<ExecOutcome> {
        match parse_statement(sql)? {
            Statement::CreateTable { name, columns } => {
                let schema = spec_schema(&columns);
                self.catalog.create_table(&name, schema.clone())?;
                self.log_meta(MetaRecord::CreateTable { name: name.clone(), schema })?;
                self.obs.event("create_table", name.clone());
                Ok(ExecOutcome::Created(name))
            }
            Statement::CreateStream { name, columns } => {
                let schema = spec_schema(&columns);
                self.catalog.create_stream(&name, schema.clone())?;
                let mut basket = Basket::new(&name, schema.clone());
                basket.set_trace(self.config.observability);
                if let Some(wal) = &self.wal {
                    // A genuinely new stream: clear any stale log files a
                    // crashed earlier incarnation of the name left behind,
                    // then open its (empty) log.
                    let key = name.to_ascii_lowercase();
                    wal.drop_stream_log(&key);
                    let (log, _) = wal.stream_log(&key)?;
                    basket.attach_wal(log);
                }
                self.baskets
                    .insert(name.to_ascii_lowercase(), Arc::new(RwLock::new(basket)));
                self.log_meta(MetaRecord::CreateStream { name: name.clone(), schema })?;
                self.obs.event("create_stream", name.clone());
                Ok(ExecOutcome::Created(name))
            }
            Statement::Drop { name } => {
                let was_stream = self.catalog.is_stream(&name);
                self.catalog.drop_entry(&name)?;
                self.baskets.remove(&name.to_ascii_lowercase());
                // Write-ahead: the Drop record must be durable before the
                // stream's log files vanish, or a crash in between would
                // resurrect the stream empty, with its OID space reset.
                self.log_meta(MetaRecord::Drop { name: name.clone() })?;
                if was_stream {
                    if let Some(wal) = &self.wal {
                        wal.drop_stream_log(&name.to_ascii_lowercase());
                    }
                }
                self.obs.event("drop", name.clone());
                Ok(ExecOutcome::Dropped(name))
            }
            Statement::Insert { table, rows } => {
                let mut converted: Vec<Row> = Vec::with_capacity(rows.len());
                for row in &rows {
                    converted.push(
                        row.iter()
                            .map(datacell_plan::literal_to_value)
                            .collect::<datacell_plan::Result<Row>>()?,
                    );
                }
                if self.catalog.is_stream(&table) {
                    // Stream inserts are logged by the basket itself.
                    Ok(ExecOutcome::Inserted(self.push_rows(&table, &converted)?))
                } else {
                    let handle = self.catalog.table(&table)?;
                    let (n, chunk) = {
                        let mut t = handle.write();
                        validate_rows(t.schema(), &converted)?;
                        let chunk = Chunk::from_rows(t.schema(), &converted)?;
                        (t.insert_chunk(&chunk)?, chunk)
                    };
                    self.log_meta(MetaRecord::TableInsert { name: table, chunk })?;
                    Ok(ExecOutcome::Inserted(n))
                }
            }
            Statement::Select(stmt) => {
                let bound = Binder::new(&self.catalog).bind_select(&stmt)?;
                let compiled = compile(sql, bound)?;
                // One-time evaluation: tables snapshot; streams read their
                // current basket contents without consuming. Windows only
                // make sense continuously.
                for s in &compiled.streams {
                    if s.window.is_some() {
                        return Err(EngineError::InvalidStatement(
                            "windowed queries must be registered as continuous queries"
                                .into(),
                        ));
                    }
                }
                let mut sources = ExecSources::new();
                for s in &compiled.streams {
                    let basket = self
                        .baskets
                        .get(&s.object.to_ascii_lowercase())
                        .ok_or_else(|| EngineError::UnknownStream(s.object.clone()))?;
                    sources.bind(&s.binding, basket.read().contents());
                }
                for (binding, object) in &compiled.tables {
                    let handle = self.catalog.table(object)?;
                    let snap = handle.read().scan();
                    sources.bind(binding, snap);
                }
                let chunk = execute(&compiled.plan, &sources).map_err(EngineError::Plan)?;
                Ok(ExecOutcome::Rows { names: compiled.output_names, chunk })
            }
        }
    }

    /// Run a `;`-separated script of statements.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = datacell_sql::parse_script(script)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute(&stmt.to_string())?);
        }
        Ok(out)
    }

    // ---- continuous queries --------------------------------------------

    /// Register a continuous query in the engine's default mode.
    pub fn register_query(&mut self, sql: &str) -> Result<QueryId> {
        self.register_query_with_mode(sql, self.config.default_mode)
    }

    /// Register a continuous query with an explicit execution mode.
    pub fn register_query_with_mode(
        &mut self,
        sql: &str,
        mode: ExecutionMode,
    ) -> Result<QueryId> {
        let compiled = self.compile_continuous(sql)?;
        let id = self.next_qid;
        self.next_qid += 1;
        let factory = Factory::new(id, compiled, mode, &self.baskets, &self.catalog)?;
        self.log_meta(MetaRecord::Register {
            qid: id,
            sql: sql.to_owned(),
            mode,
            state: factory.state(),
        })?;
        self.scheduler.insert(factory);
        self.results.insert(id, VecDeque::new());
        self.obs.event("register", format!("q{id}: {sql}"));
        Ok(id)
    }

    /// Remove a continuous query from the network.
    pub fn deregister_query(&mut self, id: QueryId) -> Result<()> {
        self.scheduler
            .remove(id)
            .map(|_| {
                self.results.remove(&id);
                self.subscribers.remove(&id);
            })
            .ok_or(EngineError::UnknownQuery(id))?;
        self.obs.event("deregister", format!("q{id}"));
        self.log_meta(MetaRecord::Deregister { qid: id })
    }

    /// Pause / resume one query (paper §4, "Pause and Resume").
    pub fn set_query_paused(&mut self, id: QueryId, paused: bool) -> Result<()> {
        self.scheduler
            .factory_mut(id)
            .map(|f| f.paused = paused)
            .ok_or(EngineError::UnknownQuery(id))?;
        self.obs.event("pause", format!("q{id} paused={paused}"));
        self.log_meta(MetaRecord::QueryPaused { qid: id, paused })
    }

    /// Pause / resume one stream's ingestion.
    pub fn set_stream_paused(&mut self, stream: &str, paused: bool) -> Result<()> {
        self.baskets
            .get(&stream.to_ascii_lowercase())
            .map(|b| b.write().set_paused(paused))
            .ok_or_else(|| EngineError::UnknownStream(stream.to_owned()))?;
        self.obs.event("pause", format!("stream {stream} paused={paused}"));
        self.log_meta(MetaRecord::StreamPaused { name: stream.to_owned(), paused })
    }

    /// The effective execution mode of a query.
    pub fn query_mode(&self, id: QueryId) -> Result<ExecutionMode> {
        self.scheduler
            .factory(id)
            .map(|f| f.mode)
            .ok_or(EngineError::UnknownQuery(id))
    }

    // ---- ingestion -----------------------------------------------------

    /// Append rows to a stream's basket. Returns how many were accepted
    /// (0 when the stream is paused). Over the configured
    /// [`MemoryBudget`] the push is shed by policy — see
    /// [`crate::admission`] and [`EngineError::Overloaded`].
    pub fn push_rows(&mut self, stream: &str, rows: &[Row]) -> Result<usize> {
        let basket = self
            .baskets
            .get(&stream.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownStream(stream.to_owned()))?
            .clone();
        self.admit()?;
        let (n, degraded) = {
            let mut b = basket.write();
            let n = b.push_rows(rows)?;
            (n, b.take_degraded_event())
        };
        if let Some(reason) = degraded {
            self.obs.record_degraded(stream, &reason);
        }
        self.obs.record_ingest(n);
        Ok(n)
    }

    /// Append a columnar chunk to a stream's basket (bulk receptor path).
    /// Subject to the same admission control as [`DataCell::push_rows`].
    pub fn push_chunk(&mut self, stream: &str, chunk: &Chunk) -> Result<usize> {
        let basket = self
            .baskets
            .get(&stream.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownStream(stream.to_owned()))?
            .clone();
        self.admit()?;
        let (n, degraded) = {
            let mut b = basket.write();
            let n = b.push_chunk(chunk)?;
            (n, b.take_degraded_event())
        };
        if let Some(reason) = degraded {
            self.obs.record_degraded(stream, &reason);
        }
        self.obs.record_ingest(n);
        Ok(n)
    }

    /// Bytes physically pinned across every basket buffer (the quantity
    /// the [`MemoryBudget`] bounds).
    pub fn pinned_bytes(&self) -> usize {
        self.baskets.values().map(|b| b.read().buffer_byte_size()).sum()
    }

    /// Whether ingestion is currently paused by the memory budget
    /// (pause-receptors policy; resumes automatically below the low
    /// watermark).
    pub fn ingest_paused(&self) -> bool {
        self.ingest_paused
    }

    /// True once the engine crossed either budget ceiling.
    fn over_budget(&self, budget: &MemoryBudget) -> bool {
        if self.pinned_bytes() > budget.max_pinned_bytes {
            return true;
        }
        let queued: usize =
            self.subscribers.values().flatten().map(EmitterSender::queued).sum();
        queued > budget.max_emitter_chunks
    }

    /// Shed the oldest half of every queued-result backlog (subscriber
    /// queues and the engine-internal pending buffers); returns how many
    /// chunks were dropped. The drop-oldest admission policy.
    fn shed_result_backlog(&mut self) -> usize {
        let mut shed = 0usize;
        for subs in self.subscribers.values() {
            for tx in subs {
                shed += tx.shed_to(tx.queued() / 2);
            }
        }
        for pending in self.results.values_mut() {
            let keep = pending.len() / 2;
            while pending.len() > keep {
                pending.pop_front();
                shed += 1;
            }
        }
        shed
    }

    /// Admission control for one push (see [`crate::admission`]): consult
    /// the memory budget — or the `AllocBudget` fault point, which forces
    /// the over-budget path deterministically — and shed by policy.
    fn admit(&mut self) -> Result<()> {
        let forced = self.config.faults.check(FaultPoint::AllocBudget).is_some();
        let Some(budget) = self.config.memory_budget else {
            if forced {
                // A fault plan can exercise overload without a budget
                // configured; shed like the default reject policy.
                self.admission_rejected += 1;
                self.obs.record_admission_rejected();
                return Err(EngineError::Overloaded {
                    retry_after_ms: MemoryBudget::DEFAULT_RETRY_AFTER_MS,
                });
            }
            return Ok(());
        };
        if self.ingest_paused {
            // Hysteresis: stay paused until usage falls below the low
            // watermark, then resume silently admitting.
            if !forced && self.pinned_bytes() <= budget.low_watermark() {
                self.ingest_paused = false;
                self.obs.event("admission", "ingest resumed: usage below low watermark");
            } else {
                self.admission_rejected += 1;
                self.obs.record_admission_rejected();
                return Err(EngineError::Overloaded { retry_after_ms: budget.retry_after_ms });
            }
        }
        if !forced && !self.over_budget(&budget) {
            return Ok(());
        }
        match budget.policy {
            ShedPolicy::Reject => {
                self.admission_rejected += 1;
                self.obs.record_admission_rejected();
                Err(EngineError::Overloaded { retry_after_ms: budget.retry_after_ms })
            }
            ShedPolicy::DropOldest => {
                let shed = self.shed_result_backlog();
                self.admission_dropped += shed as u64;
                self.obs.record_admission_dropped(shed as u64);
                self.obs
                    .event("admission", format!("drop-oldest shed {shed} queued chunk(s)"));
                Ok(())
            }
            ShedPolicy::PauseReceptors => {
                self.ingest_paused = true;
                self.admission_rejected += 1;
                self.obs.record_admission_rejected();
                self.obs.record_admission_pause();
                self.obs.event("admission", "ingest paused: memory budget exceeded");
                Err(EngineError::Overloaded { retry_after_ms: budget.retry_after_ms })
            }
        }
    }

    /// Shared handle to a stream's basket (for receptor threads).
    pub fn basket(&self, stream: &str) -> Result<BasketHandle> {
        self.baskets
            .get(&stream.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EngineError::UnknownStream(stream.to_owned()))
    }

    // ---- scheduling ------------------------------------------------------

    /// Split the engine into the three pieces every scheduling entry point
    /// needs: the scheduler, a fire context over the shared state, and the
    /// result-delivery sink (subscriber fan-out + pending-results queue).
    fn with_executor<R>(
        &mut self,
        run: impl FnOnce(
            &mut Scheduler,
            &FireContext<'_>,
            &mut dyn FnMut(QueryId, Chunk),
        ) -> R,
    ) -> R {
        let obs = &self.obs;
        let ctx = FireContext {
            baskets: &self.baskets,
            catalog: &self.catalog,
            config: &self.config,
            wal: self.wal.as_ref(),
            obs: Some(obs),
        };
        let results = &mut self.results;
        let results_cap = self.config.results_capacity;
        let subscribers = &mut self.subscribers;
        let dropped_chunks = &mut self.dropped_chunks;
        let dropped_by_query = &mut self.dropped_by_query;
        let mut sink = |qid: QueryId, mut chunk: Chunk| {
            // Result chunks sit in subscriber queues / the pending buffer
            // indefinitely; detach pass-through views from the basket
            // buffers once (no-op for the usual fresh aggregation output)
            // so a slow consumer pins one window, not whole buffer
            // generations, and ingestion keeps its in-place append path.
            // The per-subscriber clones below stay O(1) buffer shares.
            chunk.compact();
            // End-to-end latency: newest contributing arrival → result
            // handed to subscribers (the paper's response-time notion).
            if let Some(arrived) = chunk.stamp().instant() {
                obs.record_e2e(arrived.elapsed());
            }
            if let Some(subs) = subscribers.get_mut(&qid) {
                subs.retain(|tx| match tx.send(chunk.clone()) {
                    Ok(dropped) => {
                        *dropped_chunks += dropped as u64;
                        if dropped > 0 {
                            *dropped_by_query.entry(qid).or_default() += dropped as u64;
                            obs.record_emitter_drops(dropped as u64);
                        }
                        true
                    }
                    Err(_) => false,
                });
            }
            let pending = results.entry(qid).or_default();
            pending.push_back(chunk);
            if let Some(cap) = results_cap {
                while pending.len() > cap.max(1) {
                    pending.pop_front();
                }
            }
        };
        run(&mut self.scheduler, &ctx, &mut sink)
    }

    /// Fire every enabled factory once; returns how many fired. Runs on the
    /// scheduler's worker pool when `config.workers > 1` and the query
    /// network has more than one partition. Consumed basket prefixes are
    /// retired by the scheduler's per-partition watermark protocol.
    pub fn step(&mut self) -> Result<usize> {
        self.maybe_stall();
        let start = Instant::now();
        let fired = self.with_executor(|scheduler, ctx, sink| scheduler.step(ctx, sink))?;
        if fired > 0 {
            // Idle polls are excluded: a tight caller loop would otherwise
            // bury real pass durations under nanosecond no-op samples.
            self.obs.record_pass(start.elapsed());
        }
        self.maybe_auto_checkpoint()?;
        Ok(fired)
    }

    /// Run the scheduler until quiescent; returns total firings. In
    /// parallel mode each worker drives its basket partitions to quiescence
    /// independently.
    pub fn run_until_idle(&mut self) -> Result<u64> {
        self.maybe_stall();
        let start = Instant::now();
        let fired =
            self.with_executor(|scheduler, ctx, sink| scheduler.run_until_idle(ctx, sink))?;
        if fired > 0 {
            self.obs.record_pass(start.elapsed());
        }
        self.maybe_auto_checkpoint()?;
        Ok(fired)
    }

    /// `SchedulerStall` fault point: chaos plans can delay a scheduler
    /// pass. The injected kind is irrelevant — every fault here is a
    /// short sleep modelling a preempted worker, never an error.
    fn maybe_stall(&self) {
        if self.config.faults.check(FaultPoint::SchedulerStall).is_some() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // ---- results ----------------------------------------------------------

    /// Take all pending result chunks of a query.
    pub fn take_results(&mut self, id: QueryId) -> Result<Vec<Chunk>> {
        if self.scheduler.factory(id).is_none() && !self.results.contains_key(&id) {
            return Err(EngineError::UnknownQuery(id));
        }
        Ok(self
            .results
            .get_mut(&id)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default())
    }

    /// The most recent result chunk, discarding older pending ones.
    pub fn latest_result(&mut self, id: QueryId) -> Result<Option<Chunk>> {
        Ok(self.take_results(id)?.pop())
    }

    /// Subscribe an emitter to a query's future results. The subscriber
    /// queue is bounded by [`DataCellConfig::emitter_capacity`]; overflow
    /// drops the oldest chunks (counted in
    /// [`EngineStats::dropped_chunks`]).
    pub fn subscribe(&mut self, id: QueryId) -> Result<Emitter> {
        if self.scheduler.factory(id).is_none() {
            return Err(EngineError::UnknownQuery(id));
        }
        let (tx, emitter) =
            channel_obs(id, self.config.emitter_capacity, self.obs.emitter_queue_handle());
        self.subscribers.entry(id).or_default().push(tx);
        self.obs.event("subscribe", format!("q{id}"));
        Ok(emitter)
    }

    /// Disconnect every subscriber: each live [`Emitter`] drains what it
    /// has buffered and then observes end-of-stream. The shutdown hook a
    /// server frontend calls before dropping the engine, so blocked
    /// clients wake up instead of hanging on a dead queue.
    pub fn shutdown(&mut self) {
        self.obs.event("shutdown", format!("{} subscriber(s) disconnected", {
            self.subscribers.values().map(Vec::len).sum::<usize>()
        }));
        self.subscribers.clear();
    }

    /// Output column names of a query.
    pub fn output_names(&self, id: QueryId) -> Result<Vec<String>> {
        self.scheduler
            .factory(id)
            .map(|f| f.output_names().to_vec())
            .ok_or(EngineError::UnknownQuery(id))
    }

    /// Output schema of a query.
    pub fn output_schema(&self, id: QueryId) -> Result<Schema> {
        self.scheduler
            .factory(id)
            .map(|f| f.output_schema())
            .ok_or(EngineError::UnknownQuery(id))
    }

    // ---- monitoring --------------------------------------------------------

    /// Plan inspection for a registered query (one-time vs continuous vs
    /// incremental shapes).
    pub fn explain(&self, id: QueryId) -> Result<String> {
        let f = self.scheduler.factory(id).ok_or(EngineError::UnknownQuery(id))?;
        let mut text = f.query.explain_modes();
        text.push_str(&format!(
            "effective mode: {}\n",
            match f.mode {
                ExecutionMode::Reevaluate => "full re-evaluation",
                ExecutionMode::Incremental => "incremental",
            }
        ));
        if let Some(note) = &f.mode_note {
            text.push_str(&format!("note: {note}\n"));
        }
        text.push_str(&datacell_plan::sharing_section(&self.scheduler.sharing_of(id)));
        Ok(text)
    }

    /// Plan inspection for an arbitrary SELECT without registering it.
    pub fn explain_sql(&self, sql: &str) -> Result<String> {
        let stmt = match parse_statement(sql)? {
            Statement::Select(s) => s,
            other => {
                return Err(EngineError::InvalidStatement(format!(
                    "EXPLAIN supports SELECT only, got {other}"
                )))
            }
        };
        let bound = Binder::new(&self.catalog).bind_select(&stmt)?;
        let compiled = compile(sql, bound)?;
        Ok(compiled.explain_modes())
    }

    /// The query network (demo's network pane).
    pub fn network(&self) -> QueryNetwork {
        QueryNetwork::from_factories(self.scheduler.factories().into_iter())
    }

    /// Petri-net snapshot: enabled transitions, place markings, and the
    /// partition decomposition the parallel executor schedules over.
    pub fn net_state(&self) -> NetState {
        let ctx = FireContext {
            baskets: &self.baskets,
            catalog: &self.catalog,
            config: &self.config,
            wal: self.wal.as_ref(),
            obs: None,
        };
        self.scheduler.net_state(&ctx)
    }

    /// Whole-engine statistics snapshot (demo's analysis pane).
    pub fn stats(&self) -> EngineStats {
        let mut baskets: Vec<BasketStats> = self
            .baskets
            .values()
            .map(|b| {
                let b = b.read();
                BasketStats {
                    name: b.name().to_owned(),
                    arrived: b.arrived(),
                    retired: b.retired(),
                    buffered: b.len(),
                    bytes: b.byte_size(),
                    buffer_bytes: b.buffer_byte_size(),
                    paused: b.is_paused(),
                    degraded: b.degraded().is_some(),
                }
            })
            .collect();
        baskets.sort_by(|a, b| a.name.cmp(&b.name));
        let queries = self
            .scheduler
            .factories()
            .into_iter()
            .map(|f| QueryStats {
                id: f.id,
                sql: f.query.sql.clone(),
                mode: match f.mode {
                    ExecutionMode::Reevaluate => "reevaluate".into(),
                    ExecutionMode::Incremental => "incremental".into(),
                },
                firings: f.stats.firings,
                tuples_in: f.stats.tuples_in,
                tuples_out: f.stats.tuples_out,
                busy: f.stats.busy,
                last_tuples_touched: f.stats.last_tuples_touched,
                pending_results: self.results.get(&f.id).map_or(0, VecDeque::len),
                dropped: self.dropped_by_query.get(&f.id).copied().unwrap_or(0),
                paused: f.paused,
            })
            .collect();
        let (shared_nodes, shared_nodes_active, shared_hits, shared_misses) =
            self.scheduler.shared_stats();
        let degraded_streams = baskets.iter().filter(|b| b.degraded).count();
        EngineStats {
            baskets,
            queries,
            total_firings: self.scheduler.total_firings,
            scheduler_rounds: self.scheduler.rounds,
            partitions: self.scheduler.partition_count(),
            workers: self.config.workers,
            dropped_chunks: self.dropped_chunks,
            shared_nodes,
            shared_nodes_active,
            shared_hits,
            shared_misses,
            degraded_streams,
            admission_rejected: self.admission_rejected,
            admission_dropped_chunks: self.admission_dropped,
            ingest_paused: self.ingest_paused,
            wal: self.wal_stats(),
        }
    }

    /// Ids of all registered queries.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.scheduler.factories().iter().map(|f| f.id).collect()
    }

    // ---- observability -----------------------------------------------------

    /// The engine's observability hub (metrics registry + flight
    /// recorder). Share the `Arc` with frontends that record their own
    /// series (e.g. the server's wire-delivery latency).
    pub fn obs(&self) -> &Arc<EngineObs> {
        &self.obs
    }

    /// Time since this engine incarnation was opened.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Snapshot every metric series: the live registry (latency
    /// histograms, ingest/firing counters) refreshed with point-in-time
    /// gauges, plus derived series from the engine and WAL stats
    /// (scheduler totals, shared-subplan cache, WAL append/fsync latency).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if self.obs.enabled() {
            let (buffered, pinned) = self.baskets.values().fold((0i64, 0i64), |acc, b| {
                let b = b.read();
                (acc.0 + b.len() as i64, acc.1 + b.buffer_byte_size() as i64)
            });
            self.obs.basket_buffered.set(buffered);
            self.obs.basket_pinned_bytes.set(pinned);
            let queued: usize =
                self.subscribers.values().flatten().map(EmitterSender::queued).sum();
            self.obs.emitter_queued.set(queued as i64);
        }
        let mut snap = self.obs.snapshot();
        let mut put = |name: &str, help: &str, value: MetricValue| {
            snap.help.insert(name.to_string(), help.to_string());
            snap.values.insert(name.to_string(), value);
        };
        put(
            "datacell_uptime_seconds",
            "seconds since this engine incarnation opened",
            MetricValue::Gauge(self.started.elapsed().as_secs() as i64),
        );
        put(
            "datacell_queries",
            "registered continuous queries",
            MetricValue::Gauge(self.scheduler.factories().len() as i64),
        );
        put(
            "datacell_partitions",
            "basket partitions in the query network",
            MetricValue::Gauge(self.scheduler.partition_count() as i64),
        );
        put(
            "datacell_scheduler_rounds_total",
            "scheduler rounds executed",
            MetricValue::Counter(self.scheduler.rounds),
        );
        let degraded =
            self.baskets.values().filter(|b| b.read().degraded().is_some()).count();
        put(
            "datacell_degraded_streams",
            "streams running with dropped durability (WAL detached after retry exhaustion)",
            MetricValue::Gauge(degraded as i64),
        );
        put(
            "datacell_ingest_paused",
            "1 while the memory budget has ingestion paused (pause-receptors policy)",
            MetricValue::Gauge(self.ingest_paused as i64),
        );
        let (nodes, active, hits, misses) = self.scheduler.shared_stats();
        put(
            "datacell_shared_nodes",
            "nodes in the shared-subplan DAG",
            MetricValue::Gauge(nodes as i64),
        );
        put(
            "datacell_shared_nodes_active",
            "shared-subplan nodes referenced by 2+ queries",
            MetricValue::Gauge(active as i64),
        );
        put(
            "datacell_shared_cache_hits_total",
            "per-pass shared-subplan cache hits",
            MetricValue::Counter(hits),
        );
        put(
            "datacell_shared_cache_misses_total",
            "per-pass shared-subplan cache misses",
            MetricValue::Counter(misses),
        );
        if let Some(wal) = self.wal_stats() {
            put(
                "datacell_wal_bytes_total",
                "bytes appended to the write-ahead logs",
                MetricValue::Counter(wal.wal_bytes),
            );
            put(
                "datacell_wal_appended_batches_total",
                "ingest batches appended to stream logs",
                MetricValue::Counter(wal.appended_batches),
            );
            put(
                "datacell_wal_append_us",
                "stream-log batch append latency (us)",
                MetricValue::Histogram(Box::new(wal.append_us)),
            );
            put(
                "datacell_wal_fsync_us",
                "explicit fsync latency (us)",
                MetricValue::Histogram(Box::new(wal.fsync_us)),
            );
            put(
                "datacell_wal_io_retries_total",
                "transient WAL I/O failures absorbed by the retry policy",
                MetricValue::Counter(wal.io_retries),
            );
            put(
                "datacell_wal_io_gave_up_total",
                "WAL operations that exhausted their retries (degraded-durability trigger)",
                MetricValue::Counter(wal.io_gave_up),
            );
        }
        snap
    }

    /// The `METRICS` page: every series in Prometheus text exposition
    /// format (round-trips through [`datacell_obs::parse_prometheus`]).
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// Drain up to `n` most-recent flight-recorder events (all when
    /// `None`), oldest first — the `TRACE DUMP [N]` surface.
    pub fn trace_events(&self, n: Option<usize>) -> Vec<TraceEvent> {
        self.obs.drain_events(n)
    }

    /// `EXPLAIN ANALYZE` for one registered query: the plan inspection of
    /// [`DataCell::explain`] plus the factory's observed runtime — firing
    /// counts, rows in/out, busy time, and fire-latency percentiles.
    pub fn explain_analyze(&self, id: QueryId) -> Result<String> {
        let mut text = self.explain(id)?;
        let f = self.scheduler.factory(id).ok_or(EngineError::UnknownQuery(id))?;
        text.push('\n');
        text.push_str(&datacell_plan::render_analyze(&[analyze_row(
            f,
            self.dropped_by_query.get(&id).copied().unwrap_or(0),
        )]));
        Ok(text)
    }

    /// `STATS DETAIL`: the [`EngineStats`] render plus the per-factory
    /// timing table and the chunk-lifecycle latency summary.
    pub fn stats_detail(&self) -> String {
        let mut text = self.stats().render();
        let factories = self.scheduler.factories();
        if !factories.is_empty() {
            let rows: Vec<AnalyzeRow> = factories
                .iter()
                .map(|f| {
                    analyze_row(f, self.dropped_by_query.get(&f.id).copied().unwrap_or(0))
                })
                .collect();
            text.push('\n');
            text.push_str(&datacell_plan::render_analyze(&rows));
        }
        let snap = self.metrics_snapshot();
        let mut latency = String::new();
        for (name, label) in [
            ("datacell_basket_wait_us", "basket wait"),
            ("datacell_factory_fire_us", "factory fire"),
            ("datacell_scheduler_pass_us", "scheduler pass"),
            ("datacell_e2e_latency_us", "end-to-end"),
            ("datacell_emitter_queue_us", "emitter queue"),
            ("datacell_wire_delivery_us", "wire delivery"),
            ("datacell_wal_append_us", "wal append"),
            ("datacell_wal_fsync_us", "wal fsync"),
        ] {
            let Some(h) = snap.histogram(name) else { continue };
            if h.is_empty() {
                continue;
            }
            let (p50, p95, p99) = h.p50_p95_p99();
            latency.push_str(&format!(
                "  {label:<14} n={:<9} p50={p50:.0}us p95={p95:.0}us p99={p99:.0}us\n",
                h.count
            ));
        }
        if !latency.is_empty() {
            text.push_str("\n== latency ==\n");
            text.push_str(&latency);
        }
        text
    }
}

/// One factory's `EXPLAIN ANALYZE` table row.
fn analyze_row(f: &Factory, dropped: u64) -> AnalyzeRow {
    let (p50, p95, p99) = f.stats.fire_us.p50_p95_p99();
    AnalyzeRow {
        qid: f.id,
        mode: match f.mode {
            ExecutionMode::Reevaluate => "reeval".into(),
            ExecutionMode::Incremental => "incr".into(),
        },
        firings: f.stats.firings,
        rows_in: f.stats.tuples_in,
        rows_out: f.stats.tuples_out,
        busy_us: f.stats.busy.as_micros().min(u64::MAX as u128) as u64,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        dropped,
    }
}

fn spec_schema(columns: &[datacell_sql::ColumnSpec]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| datacell_storage::ColumnDef {
                name: c.name.clone(),
                ty: datacell_plan::type_of(c.ty),
                not_null: c.not_null,
            })
            .collect(),
    )
}
