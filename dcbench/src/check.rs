//! Output checking. Every result of every query is checked against what
//! the generator knows it sent (counts conserved, `MAX(ts)` advancing one
//! batch at a time, passthrough ids exactly once and in order), and the
//! first results of every query are recomputed by `datacell-baseline`'s
//! store-first engine over the same events.

use std::borrow::Cow;

use datacell_baseline::StoreFirstEngine;
use datacell_storage::{Chunk, Row, Value};

use crate::gen::{Fnv, Pool};
use crate::spec::{Check, QuerySpec, Workload};

/// Results per query recomputed store-first...
pub const ORACLE_RESULTS: usize = 64;
/// ...or fewer, once this many result rows are held (passthrough chunks
/// are a whole batch each).
const ORACLE_ROWS: usize = 65_536;

/// A result as the consumer received it: a chunk in process, rows off
/// the wire.
pub enum ResultView<'a> {
    Chunk(&'a Chunk),
    Rows(&'a [Row]),
}

impl ResultView<'_> {
    pub fn len(&self) -> usize {
        match self {
            ResultView::Chunk(c) => c.len(),
            ResultView::Rows(r) => r.len(),
        }
    }

    fn ints(&self, col: usize) -> Option<Cow<'_, [i64]>> {
        match self {
            ResultView::Chunk(c) => c
                .columns()
                .get(col)
                .and_then(|b| b.data().as_ints())
                .map(Cow::Borrowed),
            ResultView::Rows(rows) => rows
                .iter()
                .map(|r| r.get(col).and_then(Value::as_int))
                .collect::<Option<Vec<i64>>>()
                .map(Cow::Owned),
        }
    }

    fn to_rows(&self) -> Vec<Row> {
        match self {
            ResultView::Chunk(c) => c.rows().collect(),
            ResultView::Rows(r) => r.to_vec(),
        }
    }
}

/// Running check of one query's result sequence.
#[derive(Clone)]
pub struct QueryChecker {
    spec: QuerySpec,
    /// Per pool batch: rows passing the predicate (grouped) or `SUM(v)`
    /// (tumbling).
    per_batch: Vec<i64>,
    /// Sum of `per_batch` over the window of the next expected result.
    rolling: i64,
    /// Index of the next expected result (passthrough: next batch).
    pub next_result: u64,
    /// Passthrough: next expected id.
    next_id: i64,
    pub failures: u64,
    pub first_error: Option<String>,
    /// The first results, kept for the store-first recompute.
    pub first: Vec<Vec<Row>>,
    first_rows: usize,
}

impl QueryChecker {
    pub fn new(spec: &QuerySpec, pool: &Pool) -> QueryChecker {
        let per_batch: Vec<i64> = (0..crate::gen::POOL_BATCHES as u64)
            .map(|b| match &spec.check {
                Check::Grouped { threshold, .. } => {
                    pool.floats(b).iter().filter(|t| **t > *threshold).count() as i64
                }
                Check::Tumbling => pool.ints(b).iter().sum(),
                Check::Passthrough => 0,
            })
            .collect();
        let rolling = (0..spec.span_batches())
            .map(|b| per_batch[b as usize % per_batch.len()])
            .sum();
        QueryChecker {
            spec: spec.clone(),
            per_batch,
            rolling,
            next_result: 0,
            next_id: 0,
            failures: 0,
            first_error: None,
            first: Vec::new(),
            first_rows: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }

    fn per_batch_at(&self, batch: u64) -> i64 {
        self.per_batch[(batch % self.per_batch.len() as u64) as usize]
    }

    /// Events the results received so far account for.
    pub fn accounted_events(&self, batch_rows: usize) -> u64 {
        match self.spec.check {
            Check::Passthrough => self.next_id as u64,
            _ if self.next_result == 0 => 0,
            _ => (self.next_result + self.spec.span_batches() - 1) * batch_rows as u64,
        }
    }

    /// Check one received result. Returns the due time (µs) of the newest
    /// event that contributed to it, read from the result itself.
    pub fn on_result(&mut self, view: &ResultView<'_>, w: &Workload, pool: &Pool) -> Option<i64> {
        if self.first.len() < ORACLE_RESULTS && self.first_rows < ORACLE_ROWS {
            self.first_rows += view.len();
            self.first.push(view.to_rows());
        }
        let Some(ts) = view.ints(self.spec.ts_col) else {
            self.fail(format!("result {}: no integer ts column", self.next_result));
            return None;
        };
        let max_ts = ts.iter().copied().max();
        let k = self.next_result;
        match self.spec.check.clone() {
            Check::Grouped { count_col, .. } => {
                let newest = k + self.spec.span_batches() - 1;
                if max_ts != Some(w.due_us(newest)) {
                    self.fail(format!(
                        "result {k}: MAX(ts) {max_ts:?}, expected {} (missing, duplicated or reordered result)",
                        w.due_us(newest)
                    ));
                }
                if let Some(col) = count_col {
                    let total: Option<i64> = view.ints(col).map(|c| c.iter().sum());
                    if total != Some(self.rolling) {
                        self.fail(format!(
                            "result {k}: COUNT(*) adds up to {total:?}, window holds {}",
                            self.rolling
                        ));
                    }
                }
                self.rolling += self.per_batch_at(newest + 1) - self.per_batch_at(k);
                self.next_result += 1;
            }
            Check::Tumbling => {
                let count = view.ints(0).and_then(|c| c.first().copied());
                let sum = view.ints(1).and_then(|c| c.first().copied());
                if view.len() != 1
                    || count != Some(w.batch_rows as i64)
                    || sum != Some(self.per_batch_at(k))
                    || max_ts != Some(w.due_us(k))
                {
                    self.fail(format!(
                        "result {k}: got COUNT {count:?} SUM {sum:?} MAX(ts) {max_ts:?}, expected {} {} {}",
                        w.batch_rows,
                        self.per_batch_at(k),
                        w.due_us(k)
                    ));
                }
                self.next_result += 1;
            }
            Check::Passthrough => {
                let (ids, vs) = match (view.ints(0), view.ints(2)) {
                    (Some(i), Some(v)) => (i, v),
                    _ => {
                        self.fail(format!("result {k}: id/v columns are not integers"));
                        return max_ts;
                    }
                };
                let rows = w.batch_rows as i64;
                let mut bad = None;
                for r in 0..ids.len() {
                    let id = self.next_id;
                    let batch = (id / rows) as u64;
                    let want_v = pool.ints(batch)[(id % rows) as usize];
                    if bad.is_none()
                        && (ids[r] != id || vs[r] != want_v || ts[r] != w.due_us(batch))
                    {
                        bad = Some(format!(
                            "row id {} v {} ts {}, expected id {id} v {want_v} ts {} (lost, duplicated or reordered row)",
                            ids[r],
                            vs[r],
                            ts[r],
                            w.due_us(batch)
                        ));
                    }
                    self.next_id += 1;
                }
                if let Some(b) = bad {
                    self.fail(b);
                }
                self.next_result = (self.next_id / rows) as u64;
            }
        }
        max_ts
    }

    /// FNV-1a over the kept first results: the "same seed, same results"
    /// stamp.
    pub fn checksum(&self, h: &mut Fnv) {
        for rows in &self.first {
            for row in sorted(rows.clone(), self.spec.group_by.is_some()) {
                for v in row {
                    h.write(v.to_string().as_bytes());
                    h.write(b",");
                }
            }
        }
    }
}

fn sorted(mut rows: Vec<Row>, by_key: bool) -> Vec<Row> {
    if by_key {
        rows.sort_by_key(|r| r.first().and_then(Value::as_int));
    }
    rows
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Incremental windows merge per-batch partial sums, the one-shot
        // query adds row by row: equal up to float rounding.
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// Recompute the kept first results of one query with the store-first
/// engine: a table holding exactly the window's events, queried one-shot.
/// Returns (results compared, results that differ, first difference).
pub fn oracle_check(
    w: &Workload,
    qi: usize,
    pool: &Pool,
    checker: &QueryChecker,
) -> (u64, u64, Option<String>) {
    let spec = &w.queries[qi];
    let stream = w.streams[spec.stream];
    let mut failures = 0;
    let mut first_error = None;
    let mut fail = |msg: String| {
        failures += 1;
        first_error.get_or_insert(msg);
    };
    let mut engine = StoreFirstEngine::new();
    let table = match engine.create_table(&w.kind.ddl(stream)) {
        Ok(t) => t,
        Err(e) => return (0, 1, Some(format!("oracle: create table: {e}"))),
    };
    let q = match engine.register_query(&spec.oneshot_sql(stream)) {
        Ok(q) => q,
        Err(e) => return (0, 1, Some(format!("oracle: register: {e}"))),
    };
    for (k, got) in checker.first.iter().enumerate() {
        let k = k as u64;
        {
            let mut t = table.write();
            t.truncate();
            for b in k..k + spec.span_batches() {
                if let Err(e) = t.insert_chunk(&pool.chunk(b, w.due_us(b))) {
                    fail(format!("oracle: insert: {e}"));
                }
            }
        }
        let want = match engine.evaluate(q) {
            Ok(c) => sorted(c.rows().collect(), spec.group_by.is_some()),
            Err(e) => {
                fail(format!("oracle: evaluate: {e}"));
                continue;
            }
        };
        let got = sorted(got.clone(), spec.group_by.is_some());
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, x)| g.len() == x.len() && g.iter().zip(x).all(|(a, b)| same_value(a, b)));
        if !same {
            fail(format!(
                "query {qi} result {k} differs from the store-first recompute: got {:?}, expected {:?}",
                got.first(),
                want.first()
            ));
        }
    }
    (checker.first.len() as u64, failures, first_error)
}
