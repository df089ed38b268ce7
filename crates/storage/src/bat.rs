//! Binary Association Tables — MonetDB's storage primitive.
//!
//! A BAT is logically a two-column table `(head, tail)`. In modern MonetDB
//! (and here) the head is *virtual*: a dense, ascending OID sequence that is
//! fully described by its first value, `oid_base`. The tail is a typed
//! [`Vector`]. Every relational column, every stream basket column, and every
//! intermediate result in the engine is a BAT, which is what lets DataCell
//! "selectively keep around the proper intermediates at the proper places of
//! a plan for efficient future reuse" (paper §3).

use crate::error::{Result, StorageError};
use crate::types::{DataType, Oid};
use crate::value::{Row, Value};
use crate::vector::{Segment, Vector};

/// A BAT: dense virtual-OID head plus typed tail, with optional validity
/// (NULL) information.
///
/// Both the tail and the validity bits are Arc-shared [`Segment`]s, so
/// cloning a BAT and [`Bat::slice_oids`] are O(1) view operations; appends
/// are copy-on-write (see [`crate::vector`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    /// OID of the first tuple; tuple `i` has OID `oid_base + i`.
    oid_base: Oid,
    /// Tail values.
    data: Vector,
    /// `Some(v)` iff at least one value is NULL; `v[i] == false` means NULL.
    validity: Option<Segment<bool>>,
}

impl Bat {
    /// An empty BAT of tail type `ty` with head starting at OID 0.
    pub fn new(ty: DataType) -> Self {
        Bat { oid_base: 0, data: Vector::new(ty), validity: None }
    }

    /// An empty BAT of tail type `ty` whose head starts at `oid_base`.
    pub fn with_base(ty: DataType, oid_base: Oid) -> Self {
        Bat { oid_base, data: Vector::new(ty), validity: None }
    }

    /// Wrap an existing vector (all values valid) with head base `oid_base`.
    pub fn from_vector(data: Vector, oid_base: Oid) -> Self {
        Bat { oid_base, data, validity: None }
    }

    /// Wrap a vector with explicit validity. `validity.len()` must equal
    /// `data.len()`; passing `None` means all-valid.
    pub fn from_parts(data: Vector, oid_base: Oid, validity: Option<Vec<bool>>) -> Result<Self> {
        if let Some(v) = &validity {
            if v.len() != data.len() {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: data.len(),
                    found: v.len(),
                });
            }
        }
        // Normalize: an all-true validity vector is dropped.
        let validity = validity
            .filter(|v| v.iter().any(|&b| !b))
            .map(Segment::from_vec);
        Ok(Bat { oid_base, data, validity })
    }

    /// Convenience: BAT of ints based at 0 (tests/workloads).
    pub fn from_ints(values: Vec<i64>) -> Self {
        Bat::from_vector(Vector::Int(values.into()), 0)
    }

    /// Convenience: BAT of floats based at 0.
    pub fn from_floats(values: Vec<f64>) -> Self {
        Bat::from_vector(Vector::Float(values.into()), 0)
    }

    /// Tail type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// First OID of the (virtual) head.
    pub fn oid_base(&self) -> Oid {
        self.oid_base
    }

    /// One-past-the-last OID.
    pub fn oid_end(&self) -> Oid {
        self.oid_base + self.len() as u64
    }

    /// The raw tail vector.
    pub fn data(&self) -> &Vector {
        &self.data
    }

    /// The validity vector, if any value is NULL.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    /// Whether any value is NULL.
    pub fn has_nulls(&self) -> bool {
        self.validity.is_some()
    }

    /// True iff position `i` holds a NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Value at physical position `i` (NULL-aware).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get_at(&self, i: usize) -> Value {
        if self.is_null_at(i) {
            Value::Null
        } else {
            self.data.get(i)
        }
    }

    /// Value with OID `oid`, or an error if the OID is outside this BAT.
    pub fn get(&self, oid: Oid) -> Result<Value> {
        let i = self.position_of(oid)?;
        Ok(self.get_at(i))
    }

    /// Physical position of `oid`, or an error if out of range.
    #[inline]
    pub fn position_of(&self, oid: Oid) -> Result<usize> {
        if oid < self.oid_base || oid >= self.oid_end() {
            return Err(StorageError::OidOutOfRange {
                oid,
                base: self.oid_base,
                len: self.len(),
            });
        }
        Ok((oid - self.oid_base) as usize)
    }

    /// Append one value (NULL-aware).
    pub fn push(&mut self, value: &Value) -> Result<()> {
        let was_null = value.is_null();
        self.data.push(value)?;
        match (&mut self.validity, was_null) {
            (Some(v), _) => v.push(!was_null),
            (None, true) => {
                let mut v = vec![true; self.data.len() - 1];
                v.push(false);
                self.validity = Some(Segment::from_vec(v));
            }
            (None, false) => {}
        }
        Ok(())
    }

    /// Bulk columnar append: fold column `col` of every row in, in one
    /// pass (one buffer-ownership acquisition per column instead of one
    /// per cell — the receptor/server PUSH hot path).
    pub fn extend_from_rows(&mut self, rows: &[Row], col: usize) -> Result<()> {
        let old_len = self.data.len();
        self.data.extend_from_rows(rows, col)?;
        let valid = |i: usize| rows[i].get(col).is_some_and(|v| !v.is_null());
        let any_null = (0..rows.len()).any(|i| !valid(i));
        match (&mut self.validity, any_null) {
            (None, false) => {}
            (Some(v), _) => v.extend_with(rows.len(), valid),
            (None, true) => {
                let mut v = Segment::with_capacity(old_len + rows.len());
                v.extend_with(old_len, |_| true);
                v.extend_with(rows.len(), valid);
                self.validity = Some(v);
            }
        }
        Ok(())
    }

    /// Append the whole tail of `other` (head bases need not be contiguous;
    /// the result keeps `self`'s base — used for intermediates, not tables).
    pub fn append(&mut self, other: &Bat) -> Result<()> {
        let old_len = self.data.len();
        self.data.append(&other.data)?;
        match (&mut self.validity, &other.validity) {
            (Some(a), Some(b)) => a.extend_from_slice(b),
            (Some(a), None) => a.extend_with(other.len(), |_| true),
            (None, Some(b)) => {
                let mut v = Segment::with_capacity(old_len + b.len());
                v.extend_with(old_len, |_| true);
                v.extend_from_slice(b);
                self.validity = Some(v);
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// The view of the tuples with OIDs in `[lo, hi)` as a new BAT whose
    /// head starts at `lo`. OIDs outside the BAT are clamped. O(1): tail
    /// and validity share the original buffers — no element is copied.
    pub fn slice_oids(&self, lo: Oid, hi: Oid) -> Bat {
        let lo = lo.clamp(self.oid_base, self.oid_end());
        let hi = hi.clamp(lo, self.oid_end());
        let a = (lo - self.oid_base) as usize;
        let b = (hi - self.oid_base) as usize;
        Bat {
            oid_base: lo,
            data: self.data.slice(a, b),
            validity: self.validity.as_ref().map(|v| v.slice(a, b)),
        }
    }

    /// The same view rebased to a new head start (O(1); operator-local
    /// realignment after a dense fetch).
    pub fn rebased(&self, oid_base: Oid) -> Bat {
        Bat { oid_base, data: self.data.clone(), validity: self.validity.clone() }
    }

    /// Drop the validity segment if the window holds no NULL (an O(window)
    /// bool scan). Slicing never scans, so a null-free view of a column
    /// that held a NULL elsewhere carries a spurious all-true validity;
    /// operators call this at a materialization boundary to re-enable the
    /// `has_nulls() == false` typed fast paths downstream.
    pub fn normalize_validity(&mut self) {
        if self.validity.as_ref().is_some_and(|v| v.iter().all(|&b| b)) {
            self.validity = None;
        }
    }

    /// Bulk positional fetch: gather the values at physical `positions` into
    /// a new BAT based at 0 (MonetDB's `algebra.projection`).
    pub fn gather_positions(&self, positions: &[usize]) -> Bat {
        let data = self.data.gather(positions);
        let validity = self
            .validity
            .as_ref()
            .map(|v| positions.iter().map(|&i| v[i]).collect::<Vec<bool>>())
            .filter(|v| v.iter().any(|&b| !b))
            .map(Segment::from_vec);
        Bat { oid_base: 0, data, validity }
    }

    /// Drop the first `n` tuples, advancing `oid_base` by `n`
    /// (basket retirement: "once a tuple has been seen by all relevant
    /// queries it is dropped from its basket").
    pub fn drop_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.data.drop_front(n);
        if let Some(v) = &mut self.validity {
            v.drop_front(n);
            if v.iter().all(|&b| b) {
                self.validity = None;
            }
        }
        self.oid_base += n as u64;
    }

    /// Remove all tuples, advancing the base past them.
    pub fn clear(&mut self) {
        self.oid_base = self.oid_end();
        self.data.clear();
        self.validity = None;
    }

    /// Iterate `(oid, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Value)> + '_ {
        (0..self.len()).map(move |i| (self.oid_base + i as u64, self.get_at(i)))
    }

    /// Approximate heap footprint of this BAT's *window* in bytes. Views
    /// report only their window; a whole-buffer owner's window is the
    /// buffer, so shared segments are counted once.
    pub fn byte_size(&self) -> usize {
        self.data.byte_size() + self.validity.as_ref().map_or(0, |v| v.len())
    }

    /// Approximate heap footprint of the backing buffers, including any
    /// retired prefix still pinned by live views.
    pub fn buffer_byte_size(&self) -> usize {
        self.data.buffer_byte_size() + self.validity.as_ref().map_or(0, |v| v.buffer_len())
    }

    /// True iff tail or validity windows only part of its backing buffer.
    pub fn is_view(&self) -> bool {
        self.data.is_view() || self.validity.as_ref().is_some_and(|v| v.is_view())
    }

    /// True iff `self` and `other` window the same physical tail buffer.
    pub fn shares_buffer_with(&self, other: &Bat) -> bool {
        self.data.shares_buffer_with(&other.data)
    }

    /// Detach from shared storage: copy tail and validity windows into
    /// fresh, uniquely owned buffers. Call before retaining a BAT across
    /// scheduler passes so the source basket keeps its append fast path.
    pub fn compact(&mut self) {
        self.data.compact();
        if let Some(v) = &mut self.validity {
            v.compact();
        }
    }

    /// Count of non-NULL values.
    pub fn valid_count(&self) -> usize {
        match &self.validity {
            None => self.len(),
            Some(v) => v.iter().filter(|&&b| b).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_arithmetic() {
        let b = Bat::from_vector(vec![10i64, 20, 30].into(), 100);
        assert_eq!(b.oid_base(), 100);
        assert_eq!(b.oid_end(), 103);
        assert_eq!(b.get(101).unwrap(), Value::Int(20));
        assert!(b.get(103).is_err());
        assert!(b.get(99).is_err());
    }

    #[test]
    fn push_tracks_validity_lazily() {
        let mut b = Bat::new(DataType::Int);
        b.push(&Value::Int(1)).unwrap();
        assert!(!b.has_nulls());
        b.push(&Value::Null).unwrap();
        assert!(b.has_nulls());
        b.push(&Value::Int(3)).unwrap();
        assert_eq!(b.get_at(0), Value::Int(1));
        assert_eq!(b.get_at(1), Value::Null);
        assert_eq!(b.get_at(2), Value::Int(3));
        assert_eq!(b.valid_count(), 2);
    }

    #[test]
    fn slice_oids_sets_new_base() {
        let b = Bat::from_vector(vec![1i64, 2, 3, 4, 5].into(), 10);
        let s = b.slice_oids(11, 14);
        assert_eq!(s.oid_base(), 11);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(11).unwrap(), Value::Int(2));
        // clamped slice
        let s2 = b.slice_oids(0, 100);
        assert_eq!(s2.len(), 5);
        assert_eq!(s2.oid_base(), 10);
    }

    #[test]
    fn drop_front_advances_base() {
        let mut b = Bat::from_vector(vec![1i64, 2, 3].into(), 0);
        b.drop_front(2);
        assert_eq!(b.oid_base(), 2);
        assert_eq!(b.get(2).unwrap(), Value::Int(3));
        assert!(b.get(1).is_err());
    }

    #[test]
    fn drop_front_clears_validity_when_all_valid_remain() {
        let mut b = Bat::new(DataType::Int);
        b.push(&Value::Null).unwrap();
        b.push(&Value::Int(2)).unwrap();
        assert!(b.has_nulls());
        b.drop_front(1);
        assert!(!b.has_nulls());
    }

    #[test]
    fn append_merges_validity() {
        let mut a = Bat::from_ints(vec![1, 2]);
        let mut b = Bat::new(DataType::Int);
        b.push(&Value::Null).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get_at(2), Value::Null);
        assert_eq!(a.get_at(0), Value::Int(1));
    }

    #[test]
    fn gather_positions_rebases_to_zero() {
        let b = Bat::from_vector(vec![5i64, 6, 7].into(), 50);
        let g = b.gather_positions(&[2, 0]);
        assert_eq!(g.oid_base(), 0);
        assert_eq!(g.get_at(0), Value::Int(7));
        assert_eq!(g.get_at(1), Value::Int(5));
    }

    #[test]
    fn from_parts_normalizes_all_true_validity() {
        let b =
            Bat::from_parts(vec![1i64, 2].into(), 0, Some(vec![true, true])).unwrap();
        assert!(!b.has_nulls());
        let b2 =
            Bat::from_parts(vec![1i64, 2].into(), 0, Some(vec![true, false])).unwrap();
        assert!(b2.has_nulls());
    }

    #[test]
    fn from_parts_length_check() {
        let r = Bat::from_parts(vec![1i64, 2].into(), 0, Some(vec![true]));
        assert!(r.is_err());
    }

    #[test]
    fn clear_advances_base_past_end() {
        let mut b = Bat::from_vector(vec![1i64, 2].into(), 7);
        b.clear();
        assert_eq!(b.oid_base(), 9);
        assert!(b.is_empty());
    }

    #[test]
    fn iter_yields_oid_value_pairs() {
        let b = Bat::from_vector(vec![4i64, 5].into(), 2);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs, vec![(2, Value::Int(4)), (3, Value::Int(5))]);
    }
}
