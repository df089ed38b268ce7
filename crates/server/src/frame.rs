//! Binary wire frames: the length-prefixed columnar protocol negotiated
//! by `HELLO BINARY <version>` — no sockets here, so every rule is
//! unit-testable (the binary counterpart of [`crate::protocol`]).
//!
//! After the text handshake (`HELLO BINARY 2` → `OK HELLO BINARY 2`)
//! **both** directions switch to frames:
//!
//! ```text
//! frame   := tag:u8 len:u32le payload[len]        (len ≤ 16 MiB)
//!
//! tag 0x00 TEXT   payload = UTF-8 text.
//!                 client → server: one command line (old grammar);
//!                 server → client: reply line(s), incl. framed reports.
//! tag 0x01 CHUNK  payload = query:u64 seq:u64 block
//!                 server → client only: one result chunk, columnar.
//! tag 0x02 PUSH   payload = stream:str(u32-prefixed) block (oid_base 0)
//!                 client → server only: bulk ingest, columnar.
//! ```
//!
//! `block` is the one columnar layout drawn in [`binio`]'s module docs —
//! the same bytes the WAL logs — and both tags decode it with
//! [`binio::decode_chunk`].
//!
//! `CHUNK` payloads are what the server's encode-once cache stores: the
//! bytes embed only (query, seq) — both stable across subscribers — so a
//! single encoding fans out to every subscriber of the query.
//!
//! Decoding is *total*: truncated or bit-flipped input yields an error
//! (never a panic, never an unbounded allocation — lengths are capped by
//! [`binio::MAX_FRAME_LEN`] before any buffering). A frame whose length
//! field is past the cap is fatal for the connection: resync inside a
//! binary stream is impossible once a length can't be trusted.

use datacell_storage::binio::{self, ByteReader};
use datacell_storage::{Chunk, Row, Schema, StorageError};

use crate::protocol::ProtocolError;

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

fn from_storage(e: StorageError) -> ProtocolError {
    ProtocolError(e.to_string())
}

/// Discriminant of one wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTag {
    /// UTF-8 text payload (command line or reply lines).
    Text,
    /// One result chunk: query id, delivery seq, columnar body.
    Chunk,
    /// Bulk ingest: stream name, columnar row batch.
    Push,
}

/// Stable wire byte of a [`FrameTag`].
pub fn tag_byte(tag: FrameTag) -> u8 {
    match tag {
        FrameTag::Text => 0x00,
        FrameTag::Chunk => 0x01,
        FrameTag::Push => 0x02,
    }
}

/// Inverse of [`tag_byte`].
pub fn tag_from_byte(b: u8) -> Result<FrameTag, ProtocolError> {
    match b {
        0x00 => Ok(FrameTag::Text),
        0x01 => Ok(FrameTag::Chunk),
        0x02 => Ok(FrameTag::Push),
        other => Err(err(format!("unknown frame tag {other:#04x}"))),
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Text payload (a command line, or server reply lines).
    Text(String),
    /// A result chunk with its delivery position.
    Chunk {
        /// Query id the chunk belongs to.
        query: u64,
        /// Per-query delivery sequence number (the resume cursor).
        seq: u64,
        /// The columnar result rows.
        chunk: Chunk,
    },
    /// A columnar ingest batch for one stream. The payload decodes
    /// straight into a [`Chunk`] (one typed buffer per column, values
    /// already coerced to the encoder's schema) so the server can append
    /// it column-wise without ever materializing rows.
    Push {
        /// Target stream name.
        stream: String,
        /// The columnar ingest batch.
        chunk: Chunk,
    },
}

// ---- encoding ---------------------------------------------------------

/// Encode a TEXT frame. `text` may hold multiple `\n`-separated lines
/// (server-side framed reports travel as one frame).
pub fn encode_text(text: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(binio::FRAME_HEADER_LEN + text.len());
    // Infallible: a text payload under the cap always frames; oversized
    // reports are a server bug surfaced as a closed connection.
    if binio::put_frame(&mut buf, tag_byte(FrameTag::Text), text.as_bytes()).is_err() {
        buf.clear();
    }
    buf
}

/// Encode a CHUNK frame — header and payload in one exactly sized
/// allocation. These are the bytes the encode-once cache retains and
/// every subscriber shares.
pub fn encode_chunk_frame(query: u64, seq: u64, chunk: &Chunk) -> Result<Vec<u8>, ProtocolError> {
    // lint:allow(bounded-decode): encode side, sized from an in-memory chunk
    let mut buf = Vec::with_capacity(binio::FRAME_HEADER_LEN + 16 + binio::encoded_len(chunk));
    let start = binio::begin_frame(&mut buf, tag_byte(FrameTag::Chunk));
    binio::put_u64(&mut buf, query);
    binio::put_u64(&mut buf, seq);
    binio::encode_chunk(&mut buf, chunk);
    binio::end_frame(&mut buf, start).map_err(from_storage)?;
    Ok(buf)
}

/// Encode a PUSH frame for `rows` against the stream's schema: the rows
/// are pivoted into a chunk of the schema's column types (the same bulk
/// path a basket append takes), then written as one block.
pub fn encode_push_frame(
    stream: &str,
    schema: &Schema,
    rows: &[Row],
) -> Result<Vec<u8>, ProtocolError> {
    let chunk = Chunk::from_rows(schema, rows).map_err(from_storage)?;
    let body = 4 + stream.len() + binio::encoded_len(&chunk);
    // lint:allow(bounded-decode): encode side, sized from an in-memory chunk
    let mut buf = Vec::with_capacity(binio::FRAME_HEADER_LEN + body);
    let start = binio::begin_frame(&mut buf, tag_byte(FrameTag::Push));
    binio::put_str(&mut buf, stream);
    binio::encode_chunk(&mut buf, &chunk);
    binio::end_frame(&mut buf, start).map_err(from_storage)?;
    Ok(buf)
}

// ---- decoding ---------------------------------------------------------

/// Decode one frame body (tag already split off by the reader). Total:
/// any byte sequence yields `Ok` or a clean error.
pub fn decode_frame(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    match tag_from_byte(tag)? {
        FrameTag::Text => String::from_utf8(payload.to_vec())
            .map(Frame::Text)
            .map_err(|_| err("TEXT frame is not valid UTF-8")),
        FrameTag::Chunk => {
            let mut r = ByteReader::new(payload);
            let query = r.u64().map_err(from_storage)?;
            let seq = r.u64().map_err(from_storage)?;
            let chunk = decode_block(&mut r, "CHUNK")?;
            Ok(Frame::Chunk { query, seq, chunk })
        }
        FrameTag::Push => {
            let mut r = ByteReader::new(payload);
            let stream = r.str().map_err(from_storage)?;
            let chunk = decode_block(&mut r, "PUSH")?;
            Ok(Frame::Push { stream, chunk })
        }
    }
}

/// The block that ends a CHUNK or PUSH payload; trailing bytes mean a
/// desynced or forged frame.
fn decode_block(r: &mut ByteReader<'_>, what: &str) -> Result<Chunk, ProtocolError> {
    let chunk = binio::decode_chunk(r).map_err(from_storage)?;
    if !r.is_empty() {
        return Err(err(format!("trailing bytes after {what} payload")));
    }
    Ok(chunk)
}

// ---- incremental reader -----------------------------------------------

/// Byte-stream accumulator that cuts whole frames out of arbitrary read
/// chunks (the frame-mode analogue of
/// [`LineBuf`](crate::protocol::LineBuf)).
///
/// Usage: [`FrameBuf::push_bytes`] whatever the socket produced, then
/// loop [`FrameBuf::peek`] / [`FrameBuf::consume`] until `peek` returns
/// `None` (incomplete frame — read more).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// Compact the buffer once this many consumed bytes accumulate.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameBuf {
    /// An empty accumulator.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append bytes read from the peer.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff no partial frame is pending (a clean point to close).
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    /// The next whole frame, if one is fully buffered: `(tag, payload)`.
    /// `Ok(None)` means read more bytes. An error (bad tag byte is left
    /// to [`decode_frame`]; this reports only untrusted lengths) is
    /// fatal — the stream cannot be resynced.
    pub fn peek(&self) -> Result<Option<(u8, &[u8])>, ProtocolError> {
        let pending = &self.buf[self.pos..];
        match binio::peek_frame_header(pending).map_err(from_storage)? {
            None => Ok(None),
            Some((tag, len)) => match pending.get(binio::FRAME_HEADER_LEN..binio::FRAME_HEADER_LEN + len) {
                Some(payload) => Ok(Some((tag, payload))),
                None => Ok(None),
            },
        }
    }

    /// Drop the frame last returned by [`FrameBuf::peek`]. No-op when no
    /// whole frame is buffered.
    pub fn consume(&mut self) {
        if let Ok(Some((_, payload))) = self.peek() {
            self.pos += binio::FRAME_HEADER_LEN + payload.len();
        }
    }

    /// Owned convenience: cut and return the next whole frame.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ProtocolError> {
        match self.peek()? {
            None => Ok(None),
            Some((tag, payload)) => {
                let owned = payload.to_vec();
                self.pos += binio::FRAME_HEADER_LEN + owned.len();
                Ok(Some((tag, owned)))
            }
        }
    }

    fn compact(&mut self) {
        if self.pos >= COMPACT_THRESHOLD || self.pos == self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_storage::{Bat, DataType, Value};

    fn sample_chunk() -> Chunk {
        Chunk::new(vec![
            Bat::from_ints(vec![1, 2]),
            Bat::from_floats(vec![0.5, -0.0]),
        ])
        .unwrap()
    }

    #[test]
    fn tag_bytes_are_stable() {
        for tag in [FrameTag::Text, FrameTag::Chunk, FrameTag::Push] {
            assert_eq!(tag_from_byte(tag_byte(tag)).unwrap(), tag);
        }
        assert!(tag_from_byte(0x7f).is_err());
    }

    #[test]
    fn text_frame_roundtrip() {
        let bytes = encode_text("PING");
        let (tag, payload) = {
            let mut fb = FrameBuf::new();
            fb.push_bytes(&bytes);
            fb.next_frame().unwrap().unwrap()
        };
        assert_eq!(decode_frame(tag, &payload).unwrap(), Frame::Text("PING".into()));
    }

    #[test]
    fn chunk_frame_roundtrip() {
        let chunk = sample_chunk();
        let bytes = encode_chunk_frame(7, 31, &chunk).unwrap();
        let mut fb = FrameBuf::new();
        fb.push_bytes(&bytes);
        let (tag, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_frame(tag, &payload).unwrap(),
            Frame::Chunk { query: 7, seq: 31, chunk }
        );
        assert!(fb.is_empty());
    }

    #[test]
    fn push_frame_roundtrip() {
        let schema = Schema::of(&[("v", DataType::Int), ("s", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Null, Value::Str(String::new())],
        ];
        let bytes = encode_push_frame("trades", &schema, &rows).unwrap();
        let mut fb = FrameBuf::new();
        fb.push_bytes(&bytes);
        let (tag, payload) = fb.next_frame().unwrap().unwrap();
        let Frame::Push { stream, chunk } = decode_frame(tag, &payload).unwrap() else {
            panic!("expected PUSH frame");
        };
        assert_eq!(stream, "trades");
        assert_eq!(chunk.rows().collect::<Vec<_>>(), rows);
        assert_eq!(chunk.columns()[0].data_type(), DataType::Int);
        assert_eq!(chunk.columns()[1].data_type(), DataType::Str);
    }

    #[test]
    fn frames_cut_across_arbitrary_read_boundaries() {
        let chunk = sample_chunk();
        let mut stream = encode_text("OK HELLO BINARY 2");
        stream.extend(encode_chunk_frame(1, 1, &chunk).unwrap());
        stream.extend(encode_chunk_frame(1, 2, &chunk).unwrap());
        // Feed one byte at a time: every frame must still come out whole.
        for step in [1usize, 2, 3, 7] {
            let mut fb = FrameBuf::new();
            let mut out = Vec::new();
            for piece in stream.chunks(step) {
                fb.push_bytes(piece);
                while let Some((tag, payload)) = fb.next_frame().unwrap() {
                    out.push(decode_frame(tag, &payload).unwrap());
                }
            }
            assert_eq!(out.len(), 3, "step {step}");
            assert_eq!(out[0], Frame::Text("OK HELLO BINARY 2".into()));
            assert!(matches!(&out[2], Frame::Chunk { seq: 2, .. }));
            assert!(fb.is_empty());
        }
    }

    #[test]
    fn corrupt_frames_fail_cleanly() {
        // Oversized length field: fatal error, no allocation.
        let mut fb = FrameBuf::new();
        fb.push_bytes(&[0x01, 0xff, 0xff, 0xff, 0xff]);
        assert!(fb.next_frame().is_err());

        // Unknown tag decodes to an error, not a panic.
        assert!(decode_frame(0x55, b"junk").is_err());

        // Truncations of a valid CHUNK payload all fail cleanly.
        let bytes = encode_chunk_frame(1, 1, &sample_chunk()).unwrap();
        let payload = &bytes[binio::FRAME_HEADER_LEN..];
        for cut in 0..payload.len() {
            assert!(decode_frame(0x01, &payload[..cut]).is_err(), "cut {cut}");
        }
        // Trailing junk is rejected too (a desynced stream must not be
        // silently accepted).
        let mut long = payload.to_vec();
        long.push(0);
        assert!(decode_frame(0x01, &long).is_err());

        // Non-UTF-8 TEXT payload.
        assert!(decode_frame(0x00, &[0xff, 0xfe]).is_err());
    }
}
