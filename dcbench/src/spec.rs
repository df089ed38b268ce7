//! The five workloads. Names are the contract with `BENCHMARK.json`;
//! every parameter that shapes the load lives in this one table.

use crate::gen::StreamKind;

/// How the harness reaches the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// One thread: `push_chunk` → `run_until_idle` → `Emitter::try_next`.
    Inproc,
    /// `Inproc` with a WAL, a periodic `checkpoint()` and a final reopen.
    Durable,
    /// Loopback server, binary frames, reactor sessions.
    WireBinary,
    /// Loopback server, text protocol, threaded sessions.
    WireText,
}

impl Transport {
    pub fn is_wire(self) -> bool {
        matches!(self, Transport::WireBinary | Transport::WireText)
    }
}

/// What every result of a query must satisfy, checked on every result of
/// the run (the first `ORACLE_RESULTS` are also recomputed store-first).
#[derive(Clone, Debug)]
pub enum Check {
    /// `GROUP BY sensor` over `temp > threshold`: the per-group counts add
    /// up to the window's passing rows, and `MAX(ts)` is the newest
    /// batch's due time.
    Grouped {
        threshold: f64,
        count_col: Option<usize>,
    },
    /// `COUNT(*), SUM(v), MAX(ts)` over exactly one batch.
    Tumbling,
    /// `id, ts, v` rows: ids exactly once and in order, payload intact.
    Passthrough,
}

#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Index into `Workload::streams`.
    pub stream: usize,
    pub select: String,
    pub predicate: Option<String>,
    pub group_by: Option<&'static str>,
    /// Window length in batches (slide is always one batch); 0 = no window.
    pub window_batches: usize,
    /// Result column holding `MAX(ts)` (or the row's `ts`).
    pub ts_col: usize,
    pub check: Check,
    pub incremental: bool,
}

impl QuerySpec {
    fn tail(&self) -> String {
        let mut s = String::new();
        if let Some(p) = &self.predicate {
            s.push_str(&format!(" WHERE {p}"));
        }
        if let Some(g) = self.group_by {
            s.push_str(&format!(" GROUP BY {g}"));
        }
        s
    }

    /// The standing query as registered.
    pub fn continuous_sql(&self, stream: &str, batch_rows: usize) -> String {
        let window = if self.window_batches == 0 {
            String::new()
        } else {
            format!(
                " [ROWS {} SLIDE {}]",
                self.window_batches * batch_rows,
                batch_rows
            )
        };
        format!(
            "SELECT {} FROM {stream}{window}{}",
            self.select,
            self.tail()
        )
    }

    /// The same query without its window: what the store-first oracle
    /// runs over a table holding exactly one window's events.
    pub fn oneshot_sql(&self, stream: &str) -> String {
        format!("SELECT {} FROM {stream}{}", self.select, self.tail())
    }

    /// Batches a result spans (an unwindowed query fires per batch).
    pub fn span_batches(&self) -> u64 {
        self.window_batches.max(1) as u64
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    pub kind: StreamKind,
    pub streams: Vec<&'static str>,
    pub batch_rows: usize,
    pub queries: Vec<QuerySpec>,
    /// Open-loop rate of the paced leg, events/s over all streams: about
    /// half the sat-leg median measured on the commit that added the
    /// benchmark, two significant figures, frozen. It does not follow the
    /// system when the system gets faster or slower.
    pub paced_rate: f64,
    /// `checkpoint()` every this many steps (one second of the paced
    /// schedule); 0 = never.
    pub checkpoint_every: u64,
}

impl Workload {
    /// Events entering the system per step (one batch on every stream).
    pub fn step_events(&self) -> u64 {
        (self.batch_rows * self.streams.len()) as u64
    }

    /// Due time of step `i`, µs since the leg started. The sat leg stamps
    /// the same schedule without waiting for it, so both legs feed the
    /// engine identical bytes for the same seed.
    pub fn due_us(&self, step: u64) -> i64 {
        (step as f64 * self.step_events() as f64 * 1e6 / self.paced_rate) as i64
    }
}

pub const NAMES: [&str; 5] = [
    "inproc-window-agg",
    "inproc-multiquery",
    "wire-binary-passthrough",
    "wire-text-agg",
    "durable-checkpoint",
];

fn window_agg(
    stream: usize,
    select: &str,
    threshold: f64,
    count_col: Option<usize>,
    ts_col: usize,
    window_batches: usize,
) -> QuerySpec {
    QuerySpec {
        stream,
        select: select.to_owned(),
        predicate: Some(format!("temp > {threshold:.1}")),
        group_by: Some("sensor"),
        window_batches,
        ts_col,
        check: Check::Grouped {
            threshold,
            count_col,
        },
        incremental: true,
    }
}

/// Build a workload by name. `quick` shrinks the durable window so the
/// test-sized run reaches its first result within a few batches.
pub fn workload(name: &str, quick: bool) -> Option<Workload> {
    let w = match name {
        "inproc-window-agg" => Workload {
            name: "inproc-window-agg",
            why: "one incremental grouped window aggregate, in process: kernels and factory do the work, wire and WAL none",
            transport: Transport::Inproc,
            kind: StreamKind::Sensors,
            streams: vec!["sensors"],
            batch_rows: 1024,
            queries: vec![window_agg(0, "sensor, COUNT(*), AVG(temp), MAX(ts)", 18.0, Some(1), 3, 8)],
            paced_rate: 6_400_000.0,
            checkpoint_every: 0,
        },
        "inproc-multiquery" => {
            let mut queries = Vec::new();
            for stream in 0..2 {
                // Half share window and predicate and differ in aggregates.
                queries.push(window_agg(stream, "sensor, COUNT(*), MAX(ts)", 18.0, Some(1), 2, 8));
                queries.push(window_agg(stream, "sensor, AVG(temp), MAX(ts)", 18.0, None, 2, 8));
                queries.push(window_agg(stream, "sensor, SUM(temp), COUNT(*), MAX(ts)", 18.0, Some(2), 3, 8));
                queries.push(window_agg(stream, "sensor, MIN(temp), MAX(temp), MAX(ts)", 18.0, None, 3, 8));
                // Half have thresholds nobody else has.
                for threshold in [16.0, 20.0, 22.0, 24.0] {
                    queries.push(window_agg(stream, "sensor, COUNT(*), AVG(temp), MAX(ts)", threshold, Some(1), 3, 8));
                }
            }
            Workload {
                name: "inproc-multiquery",
                why: "16 standing queries over two streams, half sharing a subplan: scheduler, shared-plan DAG and pass cache do the work",
                transport: Transport::Inproc,
                kind: StreamKind::Sensors,
                streams: vec!["sa", "sb"],
                batch_rows: 1024,
                queries,
                paced_rate: 600_000.0,
                checkpoint_every: 0,
            }
        }
        "wire-binary-passthrough" => Workload {
            name: "wire-binary-passthrough",
            why: "every event crosses loopback twice as binary frames and the kernels idle: codec, reactor, emitter and replay ring dominate",
            transport: Transport::WireBinary,
            kind: StreamKind::Ticks,
            streams: vec!["s"],
            batch_rows: 4096,
            queries: vec![QuerySpec {
                stream: 0,
                select: "id, ts, v".into(),
                predicate: None,
                group_by: None,
                window_batches: 0,
                ts_col: 1,
                check: Check::Passthrough,
                incremental: false,
            }],
            paced_rate: 2_400_000.0,
            checkpoint_every: 0,
        },
        "wire-text-agg" => Workload {
            name: "wire-text-agg",
            why: "CSV pushes through the text protocol and threaded sessions into a tumbling sum: ingest-heavy, tiny results",
            transport: Transport::WireText,
            kind: StreamKind::Ticks,
            streams: vec!["s"],
            batch_rows: 2048,
            queries: vec![QuerySpec {
                stream: 0,
                select: "COUNT(*), SUM(v), MAX(ts)".into(),
                predicate: None,
                group_by: None,
                window_batches: 1,
                ts_col: 2,
                check: Check::Tumbling,
                incremental: false,
            }],
            paced_rate: 800_000.0,
            checkpoint_every: 0,
        },
        "durable-checkpoint" => {
            let window = if quick { 16 } else { 256 };
            let paced_rate = 330_000.0;
            Workload {
                name: "durable-checkpoint",
                why: "the window aggregate with a WAL, a 262144-row window and a checkpoint per second: log and snapshot writes beside factory reads",
                transport: Transport::Durable,
                kind: StreamKind::Sensors,
                streams: vec!["sensors"],
                batch_rows: 1024,
                queries: vec![window_agg(0, "sensor, COUNT(*), AVG(temp), MAX(ts)", 18.0, Some(1), 3, window)],
                paced_rate,
                checkpoint_every: (paced_rate / 1024.0) as u64,
            }
        }
        _ => return None,
    };
    Some(w)
}
