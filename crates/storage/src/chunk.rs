//! [`Chunk`]: a batch of equal-length BATs — the unit of data flowing
//! between operators, into factories and out of emitters.
//!
//! A chunk is schema-free by itself (names live in plans); it is just the
//! columnar payload, mirroring how MonetDB's MAL programs pass sets of BATs.

use std::time::Instant;

use crate::bat::Bat;
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::types::Oid;
use crate::value::{Row, Value};
use crate::vector::Vector;

/// Observability side-band: the wall-clock tick at which the newest tuple
/// contributing to this chunk entered a receptor basket.
///
/// The stamp is *equality-transparent* — `PartialEq` always answers `true`
/// — so chunks compare by data alone: recovery-equivalence and socket
/// round-trip suites stay byte-identical whether or not latency tracing is
/// enabled. It is never serialized; the wire and WAL codecs see only the
/// columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStamp(Option<Instant>);

impl PartialEq for IngestStamp {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl IngestStamp {
    /// A stamp for a chunk whose tuples entered ingest at `at`.
    pub fn at(at: Instant) -> Self {
        IngestStamp(Some(at))
    }

    /// The recorded ingest tick, if tracing stamped one.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// Combine two stamps: keeps the *newest* tick, matching the chunk
    /// semantics — a result chunk is ready only once its newest input
    /// tuple has arrived.
    pub fn merged(self, other: IngestStamp) -> IngestStamp {
        match (self.0, other.0) {
            (Some(a), Some(b)) => IngestStamp(Some(a.max(b))),
            (a, b) => IngestStamp(a.or(b)),
        }
    }
}

/// A set of equal-length columns with aligned (virtual) heads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    columns: Vec<Bat>,
    stamp: IngestStamp,
}

impl Chunk {
    /// An empty, zero-column chunk.
    pub fn empty() -> Self {
        Chunk { columns: Vec::new(), stamp: IngestStamp::default() }
    }

    /// Build from columns, verifying equal lengths.
    pub fn new(columns: Vec<Bat>) -> Result<Self> {
        if let Some(first) = columns.first() {
            for c in &columns[1..] {
                if c.len() != first.len() {
                    return Err(StorageError::ColumnLengthMismatch {
                        expected: first.len(),
                        found: c.len(),
                    });
                }
            }
        }
        Ok(Chunk { columns, stamp: IngestStamp::default() })
    }

    /// The chunk's ingest stamp (see [`IngestStamp`]).
    pub fn stamp(&self) -> IngestStamp {
        self.stamp
    }

    /// Set the ingest stamp, replacing any prior one.
    pub fn set_stamp(&mut self, stamp: IngestStamp) {
        self.stamp = stamp;
    }

    /// Builder-style [`Chunk::set_stamp`].
    pub fn with_stamp(mut self, stamp: IngestStamp) -> Self {
        self.stamp = stamp;
        self
    }

    /// Number of rows (0 for a zero-column chunk).
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Bat::len)
    }

    /// True iff no rows (also true for zero columns).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Borrow column `i`.
    pub fn column(&self, i: usize) -> &Bat {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Bat] {
        &self.columns
    }

    /// Consume into the column vector.
    pub fn into_columns(self) -> Vec<Bat> {
        self.columns
    }

    /// Append another chunk row-wise (same arity and column types required).
    pub fn append(&mut self, other: &Chunk) -> Result<()> {
        if self.columns.is_empty() {
            self.columns = other.columns.clone();
            self.stamp = self.stamp.merged(other.stamp);
            return Ok(());
        }
        if self.arity() != other.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: other.arity(),
            });
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.append(b)?;
        }
        self.stamp = self.stamp.merged(other.stamp);
        Ok(())
    }

    /// Pivot rows into a chunk typed by `schema`, one bulk
    /// [`Bat::extend_from_rows`] pass per column (values coerced to the
    /// column type; a ragged row's missing cells read as NULL). Heads
    /// start at OID 0. Callers that need NOT NULL checked validate first.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Result<Self> {
        let mut columns = Vec::with_capacity(schema.arity());
        for (j, def) in schema.columns().iter().enumerate() {
            let mut bat = Bat::new(def.ty);
            bat.extend_from_rows(rows, j)?;
            columns.push(bat);
        }
        Chunk::new(columns)
    }

    /// Extract row `i` as values.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get_at(i)).collect()
    }

    /// All rows (boundary use: wire clients, rendering, tests). Built
    /// column-wise — every row allocated once at full arity, then filled
    /// one typed column at a time — rather than one `get_at` per cell.
    pub fn rows(&self) -> std::vec::IntoIter<Row> {
        let mut rows: Vec<Row> =
            (0..self.len()).map(|_| Vec::with_capacity(self.arity())).collect();
        for col in &self.columns {
            fn fill<T>(rows: &mut [Row], vals: &[T], cell: impl Fn(&T) -> Value) {
                rows.iter_mut().zip(vals).for_each(|(row, v)| row.push(cell(v)));
            }
            match col.data() {
                Vector::Bool(v) => fill(&mut rows, v, |&b| Value::Bool(b)),
                Vector::Int(v) => fill(&mut rows, v, |&x| Value::Int(x)),
                Vector::Float(v) => fill(&mut rows, v, |&x| Value::Float(x)),
                Vector::Str(v) => fill(&mut rows, v, |s| Value::Str(s.clone())),
                Vector::Timestamp(v) => fill(&mut rows, v, |&t| Value::Timestamp(t)),
            }
            let valid = col.validity().unwrap_or_default();
            let nulls = rows.iter_mut().zip(valid).filter(|(_, &ok)| !ok);
            for cell in nulls.filter_map(|(row, _)| row.last_mut()) {
                *cell = Value::Null;
            }
        }
        rows.into_iter()
    }

    /// Gather physical positions across every column.
    pub fn gather_positions(&self, positions: &[usize]) -> Chunk {
        Chunk {
            columns: self.columns.iter().map(|c| c.gather_positions(positions)).collect(),
            stamp: self.stamp,
        }
    }

    /// View of the rows with OIDs in `[lo, hi)` across all columns (columns
    /// must share a head base, which holds for table/basket scans). O(1):
    /// every column slice shares its source buffer.
    pub fn slice_oids(&self, lo: Oid, hi: Oid) -> Chunk {
        Chunk {
            columns: self.columns.iter().map(|c| c.slice_oids(lo, hi)).collect(),
            stamp: self.stamp,
        }
    }

    /// Detach every column from shared storage (see [`Bat::compact`]).
    /// Call before retaining a chunk across scheduler passes.
    pub fn compact(&mut self) {
        for c in &mut self.columns {
            c.compact();
        }
    }

    /// Total approximate heap footprint of the column windows.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Bat::byte_size).sum()
    }

    /// Total approximate heap footprint of the backing buffers.
    pub fn buffer_byte_size(&self) -> usize {
        self.columns.iter().map(Bat::buffer_byte_size).sum()
    }

    /// Render rows as an ASCII table (monitor/emitter output).
    pub fn render(&self, headers: &[&str]) -> String {
        let mut out = String::new();
        if !headers.is_empty() {
            out.push_str(&headers.join(" | "));
            out.push('\n');
            out.push_str(&"-".repeat(headers.join(" | ").len()));
            out.push('\n');
        }
        for row in self.rows() {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

impl From<Vec<Bat>> for Chunk {
    /// Panics if column lengths disagree — use [`Chunk::new`] for fallible
    /// construction.
    fn from(columns: Vec<Bat>) -> Self {
        // lint:allow(panic-freedom): From is the documented panicking conversion; Chunk::new is the fallible API
        Chunk::new(columns).expect("column lengths must agree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn chunk() -> Chunk {
        Chunk::new(vec![
            Bat::from_ints(vec![1, 2, 3]),
            Bat::from_floats(vec![0.5, 1.5, 2.5]),
        ])
        .unwrap()
    }

    #[test]
    fn length_checks() {
        let c = chunk();
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        let bad = Chunk::new(vec![Bat::from_ints(vec![1]), Bat::from_ints(vec![1, 2])]);
        assert!(bad.is_err());
    }

    #[test]
    fn row_extraction() {
        let c = chunk();
        assert_eq!(c.row(1), vec![Value::Int(2), Value::Float(1.5)]);
    }

    #[test]
    fn append_rows() {
        let mut a = chunk();
        let b = chunk();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        let empty_start = &mut Chunk::empty();
        empty_start.append(&chunk()).unwrap();
        assert_eq!(empty_start.len(), 3);
    }

    #[test]
    fn append_arity_mismatch() {
        let mut a = chunk();
        let b = Chunk::new(vec![Bat::from_ints(vec![1])]).unwrap();
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn gather_and_slice() {
        let c = chunk();
        let g = c.gather_positions(&[2, 0]);
        assert_eq!(g.row(0), vec![Value::Int(3), Value::Float(2.5)]);
        let s = c.slice_oids(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), vec![Value::Int(2), Value::Float(1.5)]);
    }

    #[test]
    fn render_contains_values() {
        let c = chunk();
        let txt = c.render(&["a", "b"]);
        assert!(txt.contains("a | b"));
        assert!(txt.contains("2 | 1.5"));
    }

    #[test]
    fn zero_column_chunk_is_empty() {
        let c = Chunk::empty();
        assert!(c.is_empty());
        assert_eq!(c.arity(), 0);
        let _ = Chunk::new(vec![Bat::new(DataType::Int)]).unwrap();
    }
}
