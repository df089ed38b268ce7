//! Typed column vectors — the tails of BATs — as zero-copy views over
//! Arc-shared immutable segments.
//!
//! A [`Vector`] is a homogeneous array of one [`DataType`]. All kernel
//! operators work directly on these arrays in a bulk, column-at-a-time
//! fashion (MonetDB's "bulk processing model"): a whole vector is consumed
//! per operator call, never one tuple at a time.
//!
//! # View semantics
//!
//! Since PR 4 a vector is a [`Segment`]: an `(offset, len)` window over an
//! `Arc<Vec<T>>` buffer. This is what makes DataCell's stream windows cheap
//! the same way MonetDB's BAT slices are: [`Vector::slice`] is an O(1)
//! refcount bump, never an element copy, so every sliding-window fire reuses
//! the basket's physical storage instead of re-materializing the window.
//! Mutation is copy-on-write: appends take the in-place fast path when the
//! segment uniquely owns the tail of its buffer (the common case for
//! append-only baskets) and copy the window out otherwise, so live views
//! held by factories or emitters are never invalidated.

use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::types::DataType;
use crate::value::{Row, Value};

/// An `(offset, len)` window over an `Arc`-shared buffer.
///
/// Cloning and [`Segment::slice`] are O(1); mutation is copy-on-write.
/// Derefs to the window slice, so all `&[T]` reads go through the view
/// offset automatically.
#[derive(Debug, Clone)]
pub struct Segment<T> {
    buf: Arc<Vec<T>>,
    off: usize,
    len: usize,
}

impl<T> Default for Segment<T> {
    fn default() -> Self {
        Segment::new()
    }
}

impl<T> Segment<T> {
    /// An empty segment.
    pub fn new() -> Self {
        Segment { buf: Arc::new(Vec::new()), off: 0, len: 0 }
    }

    /// An empty segment whose buffer pre-reserves `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Segment { buf: Arc::new(Vec::with_capacity(cap)), off: 0, len: 0 }
    }

    /// Take ownership of a buffer (whole-buffer window).
    pub fn from_vec(v: Vec<T>) -> Self {
        let len = v.len();
        Segment { buf: Arc::new(v), off: 0, len }
    }

    /// Number of elements in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }

    /// O(1) sub-window `[lo, hi)` of this window: shares the buffer,
    /// bumps the refcount.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub fn slice(&self, lo: usize, hi: usize) -> Segment<T> {
        assert!(lo <= hi && hi <= self.len, "slice [{lo}, {hi}) out of range 0..{}", self.len);
        Segment { buf: self.buf.clone(), off: self.off + lo, len: hi - lo }
    }

    /// True iff this segment shares its buffer with at least one other
    /// segment (a clone, a slice, or the owner it was sliced from).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.buf) > 1
    }

    /// True iff the window covers only part of the backing buffer.
    pub fn is_view(&self) -> bool {
        self.off != 0 || self.len != self.buf.len()
    }

    /// Elements physically held by the backing buffer (≥ `len`).
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// True iff `self` and `other` are windows over the same buffer.
    pub fn shares_buffer_with(&self, other: &Segment<T>) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Drop the first `n` window elements. When the buffer is uniquely
    /// owned the dead prefix (including any prior offset) is physically
    /// reclaimed; when shared, only the offset advances — live views keep
    /// the buffer alive and stay valid.
    pub fn drop_front(&mut self, n: usize) {
        let n = n.min(self.len);
        if n == 0 {
            return;
        }
        if let Some(v) = Arc::get_mut(&mut self.buf) {
            v.drain(..self.off + n);
            self.off = 0;
        } else {
            self.off += n;
        }
        self.len -= n;
    }

    /// Empty the window. A uniquely owned buffer keeps its allocation
    /// (workhorse reuse); a shared one is released to its other holders.
    pub fn clear(&mut self) {
        if let Some(v) = Arc::get_mut(&mut self.buf) {
            v.clear();
        } else {
            self.buf = Arc::new(Vec::new());
        }
        self.off = 0;
        self.len = 0;
    }
}

impl<T: Clone> Segment<T> {
    /// Make the buffer uniquely owned with the window tail-aligned so
    /// in-place appends are safe, copying the window out if the buffer is
    /// shared or the window does not end at the buffer's end. Returns the
    /// now-exclusive buffer with at least `reserve` spare capacity.
    fn tail_mut(&mut self, reserve: usize) -> &mut Vec<T> {
        let aligned = self.off + self.len == self.buf.len();
        if !aligned || Arc::get_mut(&mut self.buf).is_none() {
            let mut v = Vec::with_capacity(self.len + reserve);
            v.extend_from_slice(self.as_slice());
            self.buf = Arc::new(v);
            self.off = 0;
        }
        // The branch above guaranteed unique ownership, so make_mut never
        // actually clones; if that invariant ever broke, cloning is the
        // correct recovery rather than aborting the engine.
        let v = Arc::make_mut(&mut self.buf);
        v.reserve(reserve);
        v
    }

    /// Append one element (copy-on-write).
    pub fn push(&mut self, value: T) {
        self.tail_mut(1).push(value);
        self.len += 1;
    }

    /// Append a slice of elements (copy-on-write; empty appends are free).
    pub fn extend_from_slice(&mut self, values: &[T]) {
        if values.is_empty() {
            return;
        }
        self.tail_mut(values.len()).extend_from_slice(values);
        self.len += values.len();
    }

    /// Append the results of `f(0..n)` (copy-on-write, bulk reservation;
    /// empty appends are free).
    pub fn extend_with(&mut self, n: usize, mut f: impl FnMut(usize) -> T) {
        if n == 0 {
            return;
        }
        let v = self.tail_mut(n);
        for i in 0..n {
            v.push(f(i));
        }
        self.len += n;
    }

    /// Shrink the window from the back to `new_len` elements, physically
    /// truncating when uniquely owned (append rollback).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        if let Some(v) = Arc::get_mut(&mut self.buf) {
            v.truncate(self.off + new_len);
        }
        self.len = new_len;
    }

    /// Copy the window into a fresh, uniquely owned buffer, detaching from
    /// any shared storage. Call before retaining a segment across scheduler
    /// passes so the source basket's append fast path stays available.
    pub fn compact(&mut self) {
        if self.is_shared() || self.is_view() {
            self.buf = Arc::new(self.as_slice().to_vec());
            self.off = 0;
        }
    }
}

impl<T> std::ops::Deref for Segment<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: PartialEq> PartialEq for Segment<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T> From<Vec<T>> for Segment<T> {
    fn from(v: Vec<T>) -> Self {
        Segment::from_vec(v)
    }
}

/// A typed column of values without NULL information.
///
/// NULL-ness is tracked separately by [`crate::bat::Bat`] via an optional
/// validity segment, so the common all-valid case pays nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Vector {
    /// Boolean column.
    Bool(Segment<bool>),
    /// Integer column.
    Int(Segment<i64>),
    /// Float column.
    Float(Segment<f64>),
    /// String column.
    Str(Segment<String>),
    /// Timestamp column (microseconds).
    Timestamp(Segment<i64>),
}

impl Vector {
    /// An empty vector of type `ty`.
    pub fn new(ty: DataType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// An empty vector of type `ty` with pre-reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::Bool => Vector::Bool(Segment::with_capacity(cap)),
            DataType::Int => Vector::Int(Segment::with_capacity(cap)),
            DataType::Float => Vector::Float(Segment::with_capacity(cap)),
            DataType::Str => Vector::Str(Segment::with_capacity(cap)),
            DataType::Timestamp => Vector::Timestamp(Segment::with_capacity(cap)),
        }
    }

    /// The vector's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Vector::Bool(_) => DataType::Bool,
            Vector::Int(_) => DataType::Int,
            Vector::Float(_) => DataType::Float,
            Vector::Str(_) => DataType::Str,
            Vector::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Vector::Bool(v) => v.len(),
            Vector::Int(v) => v.len(),
            Vector::Float(v) => v.len(),
            Vector::Str(v) => v.len(),
            Vector::Timestamp(v) => v.len(),
        }
    }

    /// True iff the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch element `i` as a [`Value`] (ignores validity; see `Bat::get`).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Vector::Bool(v) => Value::Bool(v[i]),
            Vector::Int(v) => Value::Int(v[i]),
            Vector::Float(v) => Value::Float(v[i]),
            Vector::Str(v) => Value::Str(v[i].clone()),
            Vector::Timestamp(v) => Value::Timestamp(v[i]),
        }
    }

    /// Append a value, coercing per [`Value::coerce`]. NULLs are stored as
    /// the type's zero value; the caller records validity separately.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        let ty = self.data_type();
        let coerced = value
            .coerce(ty)
            .ok_or_else(|| StorageError::TypeMismatch {
                expected: ty,
                found: value.data_type().unwrap_or(ty),
            })?;
        match (self, coerced) {
            (Vector::Bool(v), Value::Bool(b)) => v.push(b),
            (Vector::Bool(v), Value::Null) => v.push(false),
            (Vector::Int(v), Value::Int(i)) => v.push(i),
            (Vector::Int(v), Value::Null) => v.push(0),
            (Vector::Float(v), Value::Float(x)) => v.push(x),
            (Vector::Float(v), Value::Null) => v.push(0.0),
            (Vector::Str(v), Value::Str(s)) => v.push(s),
            (Vector::Str(v), Value::Null) => v.push(String::new()),
            (Vector::Timestamp(v), Value::Timestamp(t)) => v.push(t),
            (Vector::Timestamp(v), Value::Null) => v.push(0),
            // coerce() returning a foreign variant would be a bug in
            // Value::coerce — degrade to an error, not an abort.
            (_, other) => {
                return Err(StorageError::TypeMismatch {
                    expected: ty,
                    found: other.data_type().unwrap_or(ty),
                })
            }
        }
        Ok(())
    }

    /// Append column `col` of every row in one pass (bulk columnar append:
    /// one ownership acquisition and one reservation for the whole batch).
    /// A row too short to hold `col` contributes a NULL. On a coercion
    /// error the vector is rolled back to its prior length.
    pub fn extend_from_rows(&mut self, rows: &[Row], col: usize) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let ty = self.data_type();
        let before = self.len();
        macro_rules! bulk {
            ($seg:expr, $variant:path, $null:expr) => {{
                let seg = $seg;
                let buf = seg.tail_mut(rows.len());
                let mut err = None;
                let mut pushed = 0usize;
                for row in rows {
                    let value = row.get(col).unwrap_or(&Value::Null);
                    match value.coerce(ty) {
                        Some($variant(x)) => buf.push(x),
                        Some(Value::Null) => buf.push($null),
                        _ => {
                            err = Some(StorageError::TypeMismatch {
                                expected: ty,
                                found: value.data_type().unwrap_or(ty),
                            });
                            break;
                        }
                    }
                    pushed += 1;
                }
                seg.len += pushed;
                match err {
                    Some(e) => {
                        seg.truncate(before);
                        Err(e)
                    }
                    None => Ok(()),
                }
            }};
        }
        match self {
            Vector::Bool(v) => bulk!(v, Value::Bool, false),
            Vector::Int(v) => bulk!(v, Value::Int, 0),
            Vector::Float(v) => bulk!(v, Value::Float, 0.0),
            Vector::Str(v) => bulk!(v, Value::Str, String::new()),
            Vector::Timestamp(v) => bulk!(v, Value::Timestamp, 0),
        }
    }

    /// Append all elements of `other` (must have the same type).
    pub fn append(&mut self, other: &Vector) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(StorageError::TypeMismatch {
                expected: self.data_type(),
                found: other.data_type(),
            });
        }
        match (self, other) {
            (Vector::Bool(a), Vector::Bool(b)) => a.extend_from_slice(b),
            (Vector::Int(a), Vector::Int(b)) => a.extend_from_slice(b),
            (Vector::Float(a), Vector::Float(b)) => a.extend_from_slice(b),
            (Vector::Str(a), Vector::Str(b)) => a.extend_from_slice(b),
            (Vector::Timestamp(a), Vector::Timestamp(b)) => a.extend_from_slice(b),
            // The data_type() guard above makes this arm unreachable, but
            // an error beats an abort if the variants ever diverge.
            (a, b) => {
                return Err(StorageError::TypeMismatch {
                    expected: a.data_type(),
                    found: b.data_type(),
                })
            }
        }
        Ok(())
    }

    /// Gather elements at `indices` into a new vector (bulk fetch).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Vector {
        match self {
            Vector::Bool(v) => {
                Vector::Bool(indices.iter().map(|&i| v[i]).collect::<Vec<_>>().into())
            }
            Vector::Int(v) => {
                Vector::Int(indices.iter().map(|&i| v[i]).collect::<Vec<_>>().into())
            }
            Vector::Float(v) => {
                Vector::Float(indices.iter().map(|&i| v[i]).collect::<Vec<_>>().into())
            }
            Vector::Str(v) => {
                Vector::Str(indices.iter().map(|&i| v[i].clone()).collect::<Vec<_>>().into())
            }
            Vector::Timestamp(v) => {
                Vector::Timestamp(indices.iter().map(|&i| v[i]).collect::<Vec<_>>().into())
            }
        }
    }

    /// The view `[lo, hi)` of this vector: O(1), shares the buffer for all
    /// five data types — no element is copied.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub fn slice(&self, lo: usize, hi: usize) -> Vector {
        match self {
            Vector::Bool(v) => Vector::Bool(v.slice(lo, hi)),
            Vector::Int(v) => Vector::Int(v.slice(lo, hi)),
            Vector::Float(v) => Vector::Float(v.slice(lo, hi)),
            Vector::Str(v) => Vector::Str(v.slice(lo, hi)),
            Vector::Timestamp(v) => Vector::Timestamp(v.slice(lo, hi)),
        }
    }

    /// Drop the first `n` elements (basket retirement fast path): physical
    /// reclaim when uniquely owned, O(1) offset advance when views are live.
    pub fn drop_front(&mut self, n: usize) {
        match self {
            Vector::Bool(v) => v.drop_front(n),
            Vector::Int(v) => v.drop_front(n),
            Vector::Float(v) => v.drop_front(n),
            Vector::Str(v) => v.drop_front(n),
            Vector::Timestamp(v) => v.drop_front(n),
        }
    }

    /// Remove all elements, keeping the allocation when uniquely owned.
    pub fn clear(&mut self) {
        match self {
            Vector::Bool(v) => v.clear(),
            Vector::Int(v) => v.clear(),
            Vector::Float(v) => v.clear(),
            Vector::Str(v) => v.clear(),
            Vector::Timestamp(v) => v.clear(),
        }
    }

    /// Detach from shared storage: copy the window into a fresh, uniquely
    /// owned buffer (no-op for an unshared whole-buffer segment). Use
    /// before retaining a vector across scheduler passes.
    pub fn compact(&mut self) {
        match self {
            Vector::Bool(v) => v.compact(),
            Vector::Int(v) => v.compact(),
            Vector::Float(v) => v.compact(),
            Vector::Str(v) => v.compact(),
            Vector::Timestamp(v) => v.compact(),
        }
    }

    /// True iff this vector windows only part of its backing buffer.
    pub fn is_view(&self) -> bool {
        match self {
            Vector::Bool(v) => v.is_view(),
            Vector::Int(v) => v.is_view(),
            Vector::Float(v) => v.is_view(),
            Vector::Str(v) => v.is_view(),
            Vector::Timestamp(v) => v.is_view(),
        }
    }

    /// True iff the backing buffer is shared with another vector.
    pub fn is_shared(&self) -> bool {
        match self {
            Vector::Bool(v) => v.is_shared(),
            Vector::Int(v) => v.is_shared(),
            Vector::Float(v) => v.is_shared(),
            Vector::Str(v) => v.is_shared(),
            Vector::Timestamp(v) => v.is_shared(),
        }
    }

    /// True iff `self` and `other` window the same physical buffer (the
    /// O(1)-slice aliasing check).
    pub fn shares_buffer_with(&self, other: &Vector) -> bool {
        match (self, other) {
            (Vector::Bool(a), Vector::Bool(b)) => a.shares_buffer_with(b),
            (Vector::Int(a), Vector::Int(b)) => a.shares_buffer_with(b),
            (Vector::Float(a), Vector::Float(b)) => a.shares_buffer_with(b),
            (Vector::Str(a), Vector::Str(b)) => a.shares_buffer_with(b),
            (Vector::Timestamp(a), Vector::Timestamp(b)) => a.shares_buffer_with(b),
            _ => false,
        }
    }

    /// Borrow as `&[i64]` (Int or Timestamp), or `None`. Reads through the
    /// view offset: element `i` of the slice is element `i` of the window.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Vector::Int(v) | Vector::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f64]`, or `None`.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            Vector::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[bool]`, or `None`.
    pub fn as_bools(&self) -> Option<&[bool]> {
        match self {
            Vector::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[String]`, or `None`.
    pub fn as_strs(&self) -> Option<&[String]> {
        match self {
            Vector::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate heap footprint of the *window* in bytes. A view reports
    /// only its window; a whole-buffer owner's window *is* the buffer, so a
    /// segment shared between an owner and views is counted once (by the
    /// owner). See [`Vector::buffer_byte_size`] for the physical buffer.
    pub fn byte_size(&self) -> usize {
        match self {
            Vector::Bool(v) => v.len(),
            Vector::Int(v) | Vector::Timestamp(v) => v.len() * 8,
            Vector::Float(v) => v.len() * 8,
            Vector::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
        }
    }

    /// Approximate heap footprint of the whole backing buffer, including
    /// any retired-but-unreclaimed prefix pinned by live views.
    pub fn buffer_byte_size(&self) -> usize {
        match self {
            Vector::Bool(v) => v.buffer_len(),
            Vector::Int(v) | Vector::Timestamp(v) => v.buffer_len() * 8,
            Vector::Float(v) => v.buffer_len() * 8,
            Vector::Str(v) => v.buf.iter().map(|s| s.len() + 24).sum(),
        }
    }
}

/// Build a Vector directly from typed Rust data (test/workload helper).
impl From<Vec<i64>> for Vector {
    fn from(v: Vec<i64>) -> Self {
        Vector::Int(v.into())
    }
}
impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::Float(v.into())
    }
}
impl From<Vec<bool>> for Vector {
    fn from(v: Vec<bool>) -> Self {
        Vector::Bool(v.into())
    }
}
impl From<Vec<String>> for Vector {
    fn from(v: Vec<String>) -> Self {
        Vector::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut v = Vector::new(DataType::Int);
        v.push(&Value::Int(1)).unwrap();
        v.push(&Value::Int(-5)).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), Value::Int(1));
        assert_eq!(v.get(1), Value::Int(-5));
    }

    #[test]
    fn push_coerces_int_to_float() {
        let mut v = Vector::new(DataType::Float);
        v.push(&Value::Int(2)).unwrap();
        assert_eq!(v.get(0), Value::Float(2.0));
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut v = Vector::new(DataType::Int);
        let err = v.push(&Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn null_stored_as_zero_value() {
        let mut v = Vector::new(DataType::Int);
        v.push(&Value::Null).unwrap();
        assert_eq!(v.get(0), Value::Int(0));
    }

    #[test]
    fn gather_selects_by_index() {
        let v: Vector = vec![10i64, 20, 30, 40].into();
        let g = v.gather(&[3, 1]);
        assert_eq!(g.get(0), Value::Int(40));
        assert_eq!(g.get(1), Value::Int(20));
    }

    #[test]
    fn slice_is_a_zero_copy_view() {
        // Replaces the old `slice_copies_range`: a slice is an O(1) aliased
        // window of the same buffer, for every data type.
        let cases: Vec<Vector> = vec![
            vec![1i64, 2, 3, 4, 5].into(),
            vec![1.0f64, 2.0, 3.0, 4.0, 5.0].into(),
            vec![true, false, true, false, true].into(),
            vec!["a".to_string(), "b".into(), "c".into(), "d".into(), "e".into()].into(),
            Vector::Timestamp(vec![1i64, 2, 3, 4, 5].into()),
        ];
        for v in cases {
            let s = v.slice(1, 4);
            assert_eq!(s.len(), 3, "{:?}", v.data_type());
            assert_eq!(s.get(0), v.get(1));
            assert_eq!(s.get(2), v.get(3));
            assert!(s.shares_buffer_with(&v), "slice must alias, not copy");
            assert!(s.is_view());
            assert!(v.is_shared() && s.is_shared());
        }
    }

    #[test]
    fn slice_of_slice_composes_offsets() {
        let v: Vector = (0..10i64).collect::<Vec<_>>().into();
        let a = v.slice(2, 9);
        let b = a.slice(3, 6);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), Value::Int(5));
        assert!(b.shares_buffer_with(&v));
    }

    #[test]
    fn append_to_shared_buffer_copies_on_write() {
        let mut v: Vector = vec![1i64, 2, 3].into();
        let view = v.slice(0, 2);
        v.push(&Value::Int(4)).unwrap();
        // The view still sees its original window, untouched.
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(1), Value::Int(2));
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(3), Value::Int(4));
        // Write went to a fresh buffer: the two no longer alias.
        assert!(!v.shares_buffer_with(&view));
    }

    #[test]
    fn append_unique_takes_in_place_fast_path() {
        let mut v: Vector = vec![1i64, 2].into();
        let before = match &v {
            Vector::Int(s) => Arc::as_ptr(&s.buf),
            _ => unreachable!(),
        };
        v.push(&Value::Int(3)).unwrap();
        let after = match &v {
            Vector::Int(s) => Arc::as_ptr(&s.buf),
            _ => unreachable!(),
        };
        assert_eq!(before, after, "unique append must not reallocate the Arc");
    }

    #[test]
    fn drop_front_on_shared_buffer_keeps_views_valid() {
        let mut v: Vector = vec![1i64, 2, 3, 4].into();
        let view = v.slice(0, 4);
        v.drop_front(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), Value::Int(3));
        // Shared: offset advanced, buffer intact, view unaffected.
        assert!(v.shares_buffer_with(&view));
        assert_eq!(view.get(0), Value::Int(1));
        // Once the view dies, the next drop_front physically reclaims.
        drop(view);
        v.drop_front(1);
        assert!(!v.is_view(), "unique drop_front compacts the dead prefix");
        assert_eq!(v.get(0), Value::Int(4));
    }

    #[test]
    fn drop_front_retires_prefix() {
        let mut v: Vector = vec![1i64, 2, 3, 4].into();
        v.drop_front(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), Value::Int(3));
        // dropping more than len is a no-op beyond emptying
        v.drop_front(10);
        assert!(v.is_empty());
    }

    #[test]
    fn append_same_type() {
        let mut a: Vector = vec![1i64].into();
        let b: Vector = vec![2i64, 3].into();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn append_type_mismatch_fails() {
        let mut a: Vector = vec![1i64].into();
        let b: Vector = vec![1.0f64].into();
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn compact_detaches_from_shared_buffer() {
        let v: Vector = vec![1i64, 2, 3, 4].into();
        let mut s = v.slice(1, 3);
        s.compact();
        assert!(!s.shares_buffer_with(&v));
        assert!(!s.is_view());
        assert_eq!(s.get(0), Value::Int(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn extend_from_rows_bulk_append() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Null, Value::Float(1.5)],
            vec![Value::Int(3), Value::Int(2)],
        ];
        let mut ints = Vector::new(DataType::Int);
        ints.extend_from_rows(&rows, 0).unwrap();
        assert_eq!(ints.as_ints().unwrap(), &[1, 0, 3]);
        let mut floats = Vector::new(DataType::Float);
        floats.extend_from_rows(&rows, 1).unwrap();
        assert_eq!(floats.as_floats().unwrap(), &[0.5, 1.5, 2.0]);
    }

    #[test]
    fn extend_from_rows_rolls_back_on_error() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1)],
            vec![Value::Str("boom".into())],
            vec![Value::Int(3)],
        ];
        let mut v: Vector = vec![9i64].into();
        assert!(v.extend_from_rows(&rows, 0).is_err());
        assert_eq!(v.as_ints().unwrap(), &[9], "partial batch must roll back");
    }

    #[test]
    fn byte_size_scales_with_len() {
        let v: Vector = vec![0i64; 100].into();
        assert_eq!(v.byte_size(), 800);
    }

    #[test]
    fn view_byte_size_reports_window_owner_reports_buffer() {
        let v: Vector = vec![0i64; 100].into();
        let s = v.slice(10, 20);
        assert_eq!(s.byte_size(), 80, "view reports its window");
        assert_eq!(s.buffer_byte_size(), 800, "buffer size counts the whole segment");
        assert_eq!(v.byte_size(), 800, "whole-buffer owner reports the buffer");
    }
}
