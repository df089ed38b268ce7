//! Panic-free binary (de)serialization of the kernel's data shapes — the
//! byte layer under the binary wire protocol (`datacell-server`'s frames)
//! and the durability subsystem (`datacell-wal`).
//!
//! Two shapes are covered:
//!
//! * **blocks** — one columnar layout for every chunk that crosses a
//!   process or disk boundary: PUSH and CHUNK frame bodies, WAL stream
//!   records, table inserts and snapshot table contents;
//! * **schemas** — column name/type/NOT NULL triples.
//!
//! # The block layout
//!
//! ```text
//! block   := ncols:u32 nrows:u32 col*ncols
//! col     := type:u8 flags:u8 oid_base:u64
//!            [validity: ⌈nrows/8⌉ bytes, bit i = row i valid, LSB-first,
//!             present iff flags & HAS_NULLS]
//!            payload
//! payload := Int | Timestamp | Float : nrows × 8 bytes LE (NULL slots hold 0;
//!                                      floats as IEEE bits, NaN payloads kept)
//!          | Bool                    : nrows bytes (0 / 1)
//!          | Str                     : (nrows+1) × u32 LE offsets (first 0,
//!                                      monotone, on char boundaries), then
//!                                      offsets[nrows] bytes of UTF-8
//! ```
//!
//! Integers are little-endian throughout. `oid_base` is the column's head
//! (PUSH writes 0; the receiving basket renumbers), so any [`Chunk`]
//! round-trips exactly. Encoding reserves the exact size once
//! ([`encoded_len`]) and copies each fixed-width column in bulk; decoding
//! checks one length against the remaining input, then converts a column
//! at a time into the `Vec<T>` that becomes its [`Segment`].
//!
//! Every decode path is *total*: arbitrary (truncated, bit-flipped) input
//! yields `StorageError::Corrupt`, never a panic and never an allocation
//! larger than the input justifies — the wire fuzzers and the WAL's
//! fault-injection suite drive random bytes through here.

use crate::bat::Bat;
use crate::chunk::Chunk;
use crate::error::{Result, StorageError};
use crate::schema::{ColumnDef, Schema};
use crate::types::DataType;
use crate::vector::{Segment, Vector};

/// Stable on-disk tag of a [`DataType`].
pub fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Timestamp => 4,
    }
}

/// Inverse of [`type_tag`].
pub fn type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Timestamp,
        other => return Err(corrupt(format!("unknown type tag {other}"))),
    })
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

// ---- writer helpers ---------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---- bounds-checked reader --------------------------------------------

/// Cursor over untrusted bytes; every read is bounds-checked.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff everything was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take the next `N` bytes as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| corrupt("internal length mismatch"))
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }
}

// ---- wire frames ------------------------------------------------------

/// Version of the binary wire-frame layout negotiated by `HELLO BINARY`.
/// Bump on any layout change; peers refuse versions they don't speak.
/// Version 2: PUSH and CHUNK bodies are [blocks](self#the-block-layout).
pub const WIRE_VERSION: u32 = 2;

/// Hard ceiling on one frame's payload length (16 MiB). A longer length
/// field is corrupt or hostile: the connection cannot be resynced past an
/// untrusted length, so readers treat this as fatal.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Bytes in a frame header: tag `u8` + payload length `u32` (LE).
pub const FRAME_HEADER_LEN: usize = 5;

/// Begin a wire frame: append the tag byte and a zero length placeholder.
/// Returns the payload start offset to hand to [`end_frame`].
pub fn begin_frame(buf: &mut Vec<u8>, tag: u8) -> usize {
    put_u8(buf, tag);
    put_u32(buf, 0);
    buf.len()
}

/// Close the frame opened at `payload_start`, patching the real payload
/// length into the header. Fails (leaving `buf` untouched beyond the
/// already-written bytes) if the payload outgrew [`MAX_FRAME_LEN`] or
/// `payload_start` doesn't point just past a header.
pub fn end_frame(buf: &mut [u8], payload_start: usize) -> Result<()> {
    let len = buf.len().checked_sub(payload_start).ok_or_else(|| {
        corrupt("end_frame: payload start past end of buffer")
    })?;
    if len > MAX_FRAME_LEN as usize {
        return Err(corrupt(format!("frame payload too large: {len} bytes")));
    }
    let slot = payload_start
        .checked_sub(4)
        .and_then(|lo| buf.get_mut(lo..payload_start))
        .ok_or_else(|| corrupt("end_frame: no header before payload"))?;
    slot.copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Append a complete frame (header + payload) in one call.
pub fn put_frame(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) -> Result<()> {
    let start = begin_frame(buf, tag);
    buf.extend_from_slice(payload);
    end_frame(buf, start)
}

/// Parse a frame header from the front of `bytes` without consuming the
/// payload: `Ok(Some((tag, payload_len)))` when a whole header is
/// present, `Ok(None)` when more bytes are needed, `Err` on a length
/// field past [`MAX_FRAME_LEN`].
pub fn peek_frame_header(bytes: &[u8]) -> Result<Option<(u8, usize)>> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let mut r = ByteReader::new(bytes);
    let tag = r.u8()?;
    let len = r.u32()?;
    if len > MAX_FRAME_LEN {
        return Err(corrupt(format!("frame length {len} exceeds cap")));
    }
    Ok(Some((tag, len as usize)))
}

// ---- schemas ----------------------------------------------------------

/// Encode a schema (column names, type tags, NOT NULL flags).
pub fn encode_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.arity() as u32);
    for c in schema.columns() {
        put_str(buf, &c.name);
        put_u8(buf, type_tag(c.ty));
        put_u8(buf, c.not_null as u8);
    }
}

/// Decode a schema written by [`encode_schema`].
pub fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.u32()? as usize;
    let mut cols = Vec::new();
    for _ in 0..n {
        let name = r.str()?;
        let ty = type_from_tag(r.u8()?)?;
        let not_null = r.u8()? != 0;
        cols.push(ColumnDef { name, ty, not_null });
    }
    Ok(Schema::new(cols))
}

// ---- blocks -----------------------------------------------------------

/// Column flag: a validity bitmap follows the column header.
const HAS_NULLS: u8 = 1;

/// Bytes of a column header: type, flags, `oid_base`.
const COL_HEADER_LEN: usize = 10;

/// Exact size of `chunk` encoded as a block — what [`encode_chunk`]
/// reserves, and what frame/WAL writers add to their own headers to size
/// a buffer once.
pub fn encoded_len(chunk: &Chunk) -> usize {
    let mut len = 8;
    for col in chunk.columns() {
        let n = col.len();
        len += COL_HEADER_LEN + if col.has_nulls() { n.div_ceil(8) } else { 0 };
        len += match col.data() {
            Vector::Bool(_) => n,
            Vector::Int(_) | Vector::Float(_) | Vector::Timestamp(_) => n * 8,
            Vector::Str(v) => {
                4 * (n + 1) + str_cells(v, col.validity()).map(str::len).sum::<usize>()
            }
        };
    }
    len
}

/// Encode `chunk` as one block (see the [module docs](self)).
pub fn encode_chunk(buf: &mut Vec<u8>, chunk: &Chunk) {
    // lint:allow(bounded-decode): encode side, sized from an in-memory chunk
    buf.reserve(encoded_len(chunk));
    put_u32(buf, chunk.arity() as u32);
    put_u32(buf, chunk.len() as u32);
    for col in chunk.columns() {
        let validity = col.validity();
        put_u8(buf, type_tag(col.data_type()));
        put_u8(buf, if validity.is_some() { HAS_NULLS } else { 0 });
        put_u64(buf, col.oid_base());
        if let Some(valid) = validity {
            buf.extend(valid.chunks(8).map(|bits| {
                bits.iter().enumerate().fold(0u8, |b, (k, &ok)| b | (ok as u8) << k)
            }));
        }
        match col.data() {
            Vector::Bool(v) => put_cells(buf, v, validity, |b: bool| [b as u8]),
            Vector::Int(v) | Vector::Timestamp(v) => put_cells(buf, v, validity, i64::to_le_bytes),
            Vector::Float(v) => put_cells(buf, v, validity, |x: f64| x.to_bits().to_le_bytes()),
            Vector::Str(v) => {
                let mut end = 0u32;
                put_u32(buf, end);
                for s in str_cells(v, validity) {
                    end = end.wrapping_add(s.len() as u32);
                    put_u32(buf, end);
                }
                for s in str_cells(v, validity) {
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

/// A string column's cells with NULL slots read as `""`.
fn str_cells<'a>(
    v: &'a [String],
    validity: Option<&'a [bool]>,
) -> impl Iterator<Item = &'a str> + 'a {
    v.iter().enumerate().map(move |(i, s)| match validity {
        Some(valid) if !valid[i] => "",
        _ => s.as_str(),
    })
}

/// Bulk-append fixed-width cells: one resize, then one converted copy per
/// cell (a plain memcpy for little-endian targets). NULL slots stay 0.
fn put_cells<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    vals: &[T],
    validity: Option<&[bool]>,
    le: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + vals.len() * N, 0);
    let out = buf[start..].chunks_exact_mut(N);
    match validity {
        None => out.zip(vals).for_each(|(dst, &v)| dst.copy_from_slice(&le(v))),
        Some(valid) => out
            .zip(vals)
            .zip(valid)
            .filter(|(_, &ok)| ok)
            .for_each(|((dst, &v), _)| dst.copy_from_slice(&le(v))),
    }
}

/// Decode one block written by [`encode_chunk`].
pub fn decode_chunk(r: &mut ByteReader<'_>) -> Result<Chunk> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    // Plausibility before any allocation: every column costs its header
    // plus at least one byte per row (Bool is the narrowest payload), so
    // ncols × (header + nrows) must fit the remaining input. A block with
    // no columns has no rows.
    if ncols.saturating_mul(COL_HEADER_LEN.saturating_add(nrows)) > r.remaining()
        || (ncols == 0 && nrows > 0)
    {
        return Err(corrupt(format!("implausible block header: {ncols}x{nrows}")));
    }
    let mut cols: Vec<Bat> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(decode_column(r, nrows)?);
    }
    Chunk::new(cols)
}

fn decode_column(r: &mut ByteReader<'_>, nrows: usize) -> Result<Bat> {
    let ty = type_from_tag(r.u8()?)?;
    let flags = r.u8()?;
    if flags & !HAS_NULLS != 0 {
        return Err(corrupt(format!("unknown column flags {flags:#04x}")));
    }
    let base = r.u64()?;
    let bits = if flags & HAS_NULLS != 0 { Some(r.bytes(nrows.div_ceil(8))?) } else { None };
    let data = match ty {
        DataType::Bool => Vector::Bool(cells(r, nrows, |[b]: [u8; 1]| b != 0)?.into()),
        DataType::Int => Vector::Int(cells(r, nrows, i64::from_le_bytes)?.into()),
        DataType::Timestamp => Vector::Timestamp(cells(r, nrows, i64::from_le_bytes)?.into()),
        DataType::Float => {
            Vector::Float(cells(r, nrows, |b| f64::from_bits(u64::from_le_bytes(b)))?.into())
        }
        DataType::Str => Vector::Str(Segment::from_vec(decode_strs(r, nrows)?)),
    };
    // Unpacked only once the payload proved well-formed.
    let validity = bits.map(|b| (0..nrows).map(|i| b[i / 8] >> (i % 8) & 1 != 0).collect());
    Bat::from_parts(data, base, validity)
}

/// Read `nrows` fixed-width cells: one length check, then one converted
/// copy per cell into an exactly sized `Vec`.
fn cells<T, const N: usize>(
    r: &mut ByteReader<'_>,
    nrows: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>> {
    let raw = r.bytes(nrows.saturating_mul(N))?;
    Ok(raw.chunks_exact(N).map(|c| from_le(le(c))).collect())
}

/// A `chunks_exact(N)` item as an array (the fallback is unreachable).
fn le<const N: usize>(c: &[u8]) -> [u8; N] {
    c.try_into().unwrap_or([0; N])
}

/// Read a Str payload. Offsets and UTF-8 are validated in full before
/// the column is allocated.
fn decode_strs(r: &mut ByteReader<'_>, nrows: usize) -> Result<Vec<String>> {
    let raw = r.bytes(nrows.saturating_add(1).saturating_mul(4))?;
    let offsets = || raw.chunks_exact(4).map(|c| u32::from_le_bytes(le(c)) as usize);
    let total = offsets().next_back().unwrap_or(0);
    let text = std::str::from_utf8(r.bytes(total)?)
        .map_err(|_| corrupt("string column is not valid UTF-8"))?;
    let pairs = || offsets().zip(offsets().skip(1));
    let well_formed = pairs().all(|(lo, hi)| lo <= hi && text.is_char_boundary(hi));
    if offsets().next() != Some(0) || !well_formed {
        return Err(corrupt("string offsets must rise from 0 along char boundaries"));
    }
    Ok(pairs().map(|(lo, hi)| text.get(lo..hi).unwrap_or_default().to_owned()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Row, Value};

    fn all_types_schema() -> Schema {
        Schema::of(&[
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("t", DataType::Timestamp),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(2.5),
                Value::Str("héllo, \"wörld\"\n".into()),
                Value::Timestamp(99),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Bool(false),
                Value::Int(i64::MAX),
                Value::Int(7), // int→float coercion on the pivot
                Value::Str(String::new()),
                Value::Int(3), // int→timestamp coercion on the pivot
            ],
        ]
    }

    fn roundtrip(chunk: &Chunk) -> Chunk {
        let mut buf = Vec::new();
        encode_chunk(&mut buf, chunk);
        assert_eq!(buf.len(), encoded_len(chunk), "encoded_len must be exact");
        let mut r = ByteReader::new(&buf);
        let out = decode_chunk(&mut r).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn batch_roundtrip_all_types_and_nulls() {
        let rows = sample_rows();
        let chunk = Chunk::from_rows(&all_types_schema(), &rows).unwrap();
        let decoded: Vec<Row> = roundtrip(&chunk).rows().collect();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], rows[0]);
        assert!(decoded[1].iter().all(Value::is_null));
        // Coercions land as the column type.
        assert_eq!(decoded[2][2], Value::Float(7.0));
        assert_eq!(decoded[2][4], Value::Timestamp(3));
    }

    #[test]
    fn empty_batch_roundtrip() {
        let chunk = Chunk::from_rows(&all_types_schema(), &[]).unwrap();
        assert_eq!(roundtrip(&chunk), chunk);
        assert_eq!(roundtrip(&Chunk::empty()), Chunk::empty());
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
        ]);
        let mut buf = Vec::new();
        encode_schema(&mut buf, &schema);
        let decoded = decode_schema(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded, schema);
    }

    #[test]
    fn chunk_roundtrip_keeps_oid_heads_and_validity() {
        let mut a = Bat::with_base(DataType::Int, 100);
        a.push(&Value::Int(1)).unwrap();
        a.push(&Value::Null).unwrap();
        let mut b = Bat::with_base(DataType::Str, 7);
        b.push(&Value::Str("x".into())).unwrap();
        b.push(&Value::Str("y".into())).unwrap();
        let chunk = Chunk::new(vec![a, b]).unwrap();
        let decoded = roundtrip(&chunk);
        assert_eq!(decoded, chunk);
        assert_eq!(decoded.column(0).oid_base(), 100);
        assert_eq!(decoded.column(1).oid_base(), 7);
        assert_eq!(decoded.column(0).get_at(1), Value::Null);
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        // Truncations of a valid encoding plus pure noise: every prefix
        // must fail cleanly.
        let chunk = Chunk::from_rows(&all_types_schema(), &sample_rows()).unwrap();
        let mut buf = Vec::new();
        encode_chunk(&mut buf, &chunk);
        for cut in 0..buf.len() {
            assert!(decode_chunk(&mut ByteReader::new(&buf[..cut])).is_err(), "cut {cut}");
        }
        for noise in [&[0xffu8; 16][..], &[0x01; 3], &[]] {
            let _ = decode_chunk(&mut ByteReader::new(noise));
            let _ = decode_schema(&mut ByteReader::new(noise));
        }
        // A row count far past the buffer fails before allocating (the
        // hostile-header suite in tests/block_codec.rs probes the rest).
        let mut evil = Vec::new();
        put_u32(&mut evil, 1);
        put_u32(&mut evil, u32::MAX);
        assert!(decode_chunk(&mut ByteReader::new(&evil)).is_err());
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u64().is_err());
        assert_eq!(r.remaining(), 2);
        assert!(ByteReader::new(&[5, 0, 0, 0, b'a']).str().is_err());
    }

    #[test]
    fn frame_header_roundtrip() {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, 0x01);
        put_u64(&mut buf, 42);
        end_frame(&mut buf, start).unwrap();
        assert_eq!(peek_frame_header(&buf).unwrap(), Some((0x01, 8)));
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 8);

        let mut buf = Vec::new();
        put_frame(&mut buf, 0x00, b"PING").unwrap();
        assert_eq!(peek_frame_header(&buf).unwrap(), Some((0x00, 4)));
        assert_eq!(&buf[FRAME_HEADER_LEN..], b"PING");
    }

    #[test]
    fn frame_header_is_bounded() {
        // Short reads ask for more bytes; hostile lengths are fatal.
        assert_eq!(peek_frame_header(&[]).unwrap(), None);
        assert_eq!(peek_frame_header(&[1, 2, 3, 4]).unwrap(), None);
        let mut evil = Vec::new();
        put_u8(&mut evil, 0x01);
        put_u32(&mut evil, u32::MAX);
        assert!(peek_frame_header(&evil).is_err());
        // Cap is inclusive: exactly MAX_FRAME_LEN is still legal.
        let mut edge = Vec::new();
        put_u8(&mut edge, 0x01);
        put_u32(&mut edge, MAX_FRAME_LEN);
        assert_eq!(
            peek_frame_header(&edge).unwrap(),
            Some((0x01, MAX_FRAME_LEN as usize))
        );
        // Misused end_frame errors instead of panicking.
        let mut buf = Vec::new();
        assert!(end_frame(&mut buf, 3).is_err());
        assert!(end_frame(&mut Vec::new(), 0).is_err());
    }

    #[test]
    fn type_tags_are_stable() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Timestamp,
        ] {
            assert_eq!(type_from_tag(type_tag(ty)).unwrap(), ty);
        }
        assert!(type_from_tag(9).is_err());
    }
}
