//! Per-query replay rings: the server-side half of reconnect-with-resume.
//!
//! Every subscribed query gets one [`ReplayRing`], fed by an internal
//! *tap* emitter ([`datacell_core::DataCell::subscribe`]) that the server
//! keeps alive across client disconnects. The ring assigns each result
//! chunk a monotonically increasing **sequence number** (scoped to one
//! server incarnation, identified by its *epoch*) and retains the most
//! recent `capacity` chunks. A connection streams by cursor: "give me every
//! retained chunk with `seq > cursor`" — so a client that reconnects with
//! `AFTER <epoch> <seq>` resumes exactly where it left off, as long as
//! the gap fits in the ring.
//!
//! Latency accounting contract (see `emitter.rs` in `datacell-core`):
//! a chunk's ingest stamp is consumed by the **first** delivery — the
//! fetch that advances the ring's stamp watermark keeps the stamp (the
//! reactor records wire-delivery latency from it), every later fetch of
//! the same chunk (a replay to a reconnecting or second subscriber)
//! clears it, so stale arrival ticks never pollute the
//! `datacell_wire_delivery_us` histogram.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use datacell_core::Emitter;
use datacell_storage::Chunk;

use crate::frame::encode_chunk_frame;
use crate::protocol::encode_chunk;

/// How a connection wants its `CHUNK`s encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// `CHUNK <id> <n> <seq>` header plus `n` CSV row lines.
    Text,
    /// One binary `CHUNK` frame (see [`crate::frame`]).
    Binary,
}

/// One retained chunk plus its lazily built encodings.
struct Entry {
    seq: u64,
    chunk: Chunk,
    /// Encode-once cache, one slot per [`WireFormat`]. The bytes embed
    /// only `(query, seq)` — both identical for every subscriber of the
    /// query within one epoch — so a single encoding fans out to all of
    /// them (the cache key is effectively `(query, epoch, seq, format)`;
    /// query and epoch are fixed per ring).
    encoded: [Option<Arc<Vec<u8>>>; 2],
}

/// One wire-ready `CHUNK` for delivery to a subscriber.
pub struct Delivery {
    /// Delivery sequence number (the client's resume cursor).
    pub seq: u64,
    /// The complete encoded chunk, shared across subscribers.
    pub bytes: Arc<Vec<u8>>,
    /// Result rows inside the chunk (stats accounting).
    pub rows: u64,
    /// Arrival tick of the chunk's newest contributing tuple — present
    /// only on the first delivery (replays never re-sample latency).
    pub stamp: Option<Instant>,
    /// Whether the bytes came from the encode-once cache.
    pub cached: bool,
}

/// One query's retained result tail, with delivery sequence numbers.
pub struct ReplayRing {
    tap: Emitter,
    buf: VecDeque<Entry>,
    /// Sequence number the next produced chunk will get (first is 1).
    next_seq: u64,
    /// Highest sequence number already delivered with its stamp intact.
    stamped_floor: u64,
    capacity: usize,
}

impl ReplayRing {
    /// Wrap a tap emitter; retain at most `capacity` chunks.
    pub fn new(tap: Emitter, capacity: usize) -> ReplayRing {
        ReplayRing {
            tap,
            buf: VecDeque::new(),
            next_seq: 1,
            stamped_floor: 0,
            capacity: capacity.max(1),
        }
    }

    /// Pull everything buffered on the tap into the ring, assigning
    /// sequence numbers and evicting the oldest chunks beyond capacity.
    pub fn drain_tap(&mut self) {
        while let Some(chunk) = self.tap.try_next() {
            self.buf.push_back(Entry { seq: self.next_seq, chunk, encoded: [None, None] });
            self.next_seq += 1;
            while self.buf.len() > self.capacity {
                // Evicted undelivered chunks die with their stamps: no
                // latency sample, same as an emitter overflow drop.
                self.buf.pop_front();
            }
        }
    }

    /// Sequence number the next produced chunk will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Oldest sequence number still retained (== `next_seq` when empty).
    pub fn oldest_retained(&self) -> u64 {
        self.buf.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Whether the engine closed the tap (query deregistered / shutdown)
    /// — no further chunks will ever arrive.
    pub fn is_closed(&self) -> bool {
        self.tap.is_closed()
    }

    /// Up to `max` wire-ready chunks with `seq > cursor`, oldest first,
    /// encoded for `format`. Each chunk is encoded **at most once** per
    /// format and ring lifetime; later fetches (other subscribers,
    /// replays) share the cached `Arc` bytes. Only the fetch that first
    /// advances the stamp watermark — in either format — carries the
    /// arrival tick (see the module docs).
    ///
    /// A chunk whose binary frame exceeds the wire cap is skipped (it
    /// cannot be framed; the cursor advances past it with the rest of the
    /// batch).
    pub fn fetch(
        &mut self,
        query: u64,
        cursor: u64,
        max: usize,
        format: WireFormat,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        for e in self.buf.iter_mut() {
            if e.seq <= cursor {
                continue;
            }
            if out.len() >= max {
                break;
            }
            let slot = &mut e.encoded[format as usize];
            let cached = slot.is_some();
            let bytes = match slot {
                Some(b) => Arc::clone(b),
                None => {
                    let encoded = match format {
                        WireFormat::Text => encode_chunk(query, e.seq, &e.chunk).into_bytes(),
                        WireFormat::Binary => match encode_chunk_frame(query, e.seq, &e.chunk) {
                            Ok(frame) => frame,
                            Err(_) => continue,
                        },
                    };
                    Arc::clone(slot.insert(Arc::new(encoded)))
                }
            };
            let stamp = if e.seq > self.stamped_floor {
                self.stamped_floor = e.seq;
                e.chunk.stamp().instant()
            } else {
                None
            };
            out.push(Delivery { seq: e.seq, bytes, rows: e.chunk.len() as u64, stamp, cached });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_core::EmitterSender;
    use datacell_storage::{Bat, IngestStamp};
    use std::time::Instant;

    fn chunk(v: i64) -> Chunk {
        Chunk::new(vec![Bat::from_ints(vec![v])])
            .expect("one-column chunk")
            .with_stamp(IngestStamp::at(Instant::now()))
    }

    fn ring(capacity: usize) -> (EmitterSender, ReplayRing) {
        let (tx, rx) = datacell_core::emitter::channel(0, None);
        (tx, ReplayRing::new(rx, capacity))
    }

    fn text(ring: &mut ReplayRing, cursor: u64, max: usize) -> Vec<Delivery> {
        ring.fetch(9, cursor, max, WireFormat::Text)
    }

    fn seqs(ds: &[Delivery]) -> Vec<u64> {
        ds.iter().map(|d| d.seq).collect()
    }

    #[test]
    fn sequences_are_monotonic_and_cursor_fetch_is_exact() {
        let (tx, mut ring) = ring(16);
        for v in 1..=4 {
            tx.send(chunk(v)).expect("send");
        }
        ring.drain_tap();
        assert_eq!(ring.next_seq(), 5);
        assert_eq!(ring.oldest_retained(), 1);
        assert_eq!(seqs(&text(&mut ring, 0, usize::MAX)), vec![1, 2, 3, 4]);
        assert_eq!(seqs(&text(&mut ring, 2, usize::MAX)), vec![3, 4]);
        assert!(text(&mut ring, 4, usize::MAX).is_empty());
        // The text encoding is the protocol's CHUNK block.
        let first = text(&mut ring, 0, 1);
        assert_eq!(first[0].bytes.as_slice(), encode_chunk(9, 1, &chunk(1)).as_bytes());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let (tx, mut ring) = ring(2);
        for v in 1..=5 {
            tx.send(chunk(v)).expect("send");
        }
        ring.drain_tap();
        assert_eq!(ring.oldest_retained(), 4);
        let got = seqs(&text(&mut ring, 0, usize::MAX));
        assert_eq!(got, vec![4, 5], "a cursor before the floor gets what is left");
    }

    #[test]
    fn replays_are_stamp_stripped() {
        let (tx, mut ring) = ring(8);
        tx.send(chunk(1)).expect("send");
        tx.send(chunk(2)).expect("send");
        ring.drain_tap();
        // First delivery: stamps intact (latency chain closes here).
        let first = text(&mut ring, 0, usize::MAX);
        assert!(first.iter().all(|d| d.stamp.is_some()));
        // Replay to a reconnecting subscriber: stamps stripped.
        let replay = text(&mut ring, 0, usize::MAX);
        assert!(replay.iter().all(|d| d.stamp.is_none()));
        // A genuinely new chunk keeps its stamp even after the replay.
        tx.send(chunk(3)).expect("send");
        ring.drain_tap();
        let next = text(&mut ring, 2, usize::MAX);
        assert_eq!(next.len(), 1);
        assert!(next[0].stamp.is_some());
    }

    #[test]
    fn fetch_respects_max() {
        let (tx, mut ring) = ring(16);
        for v in 1..=4 {
            tx.send(chunk(v)).expect("send");
        }
        ring.drain_tap();
        assert_eq!(seqs(&text(&mut ring, 0, 2)), vec![1, 2]);
        // Chunks beyond the budget were not touched: their first-delivery
        // stamps are still pending.
        let rest = text(&mut ring, 2, usize::MAX);
        assert!(rest.iter().all(|d| d.stamp.is_some()));
    }

    #[test]
    fn frames_are_encoded_once_and_shared() {
        let (tx, mut ring) = ring(8);
        tx.send(chunk(1)).expect("send");
        tx.send(chunk(2)).expect("send");
        ring.drain_tap();
        // First subscriber: every frame is a cache miss, stamps intact.
        let first = ring.fetch(9, 0, usize::MAX, WireFormat::Binary);
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|f| !f.cached));
        assert!(first.iter().all(|f| f.stamp.is_some()));
        assert!(first.iter().all(|f| f.rows == 1));
        // Second subscriber: same bytes (pointer-equal Arc), no stamps.
        let second = ring.fetch(9, 0, usize::MAX, WireFormat::Binary);
        assert!(second.iter().all(|f| f.cached));
        assert!(second.iter().all(|f| f.stamp.is_none()));
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.bytes, &b.bytes), "encode-once violated");
        }
        // Each format has its own cache slot.
        let as_text = text(&mut ring, 0, usize::MAX);
        assert!(as_text.iter().all(|d| !d.cached));
        assert!(text(&mut ring, 0, usize::MAX).iter().all(|d| d.cached));
        // The frames decode back to the retained chunks.
        let (tag, payload) = {
            let mut fb = crate::frame::FrameBuf::new();
            fb.push_bytes(&first[0].bytes);
            fb.next_frame().expect("frame").expect("whole")
        };
        match crate::frame::decode_frame(tag, &payload).expect("decode") {
            crate::frame::Frame::Chunk { query, seq, chunk } => {
                assert_eq!((query, seq), (9, 1));
                assert_eq!(chunk.len(), 1);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        // Text and frame fetches share the stamp watermark.
        tx.send(chunk(3)).expect("send");
        ring.drain_tap();
        let fresh = text(&mut ring, 2, usize::MAX);
        assert!(fresh[0].stamp.is_some());
        let replay = ring.fetch(9, 2, usize::MAX, WireFormat::Binary);
        assert!(replay[0].stamp.is_none(), "text fetch consumed the stamp");
    }

    #[test]
    fn closed_tap_is_visible() {
        let (tx, mut ring) = ring(4);
        tx.send(chunk(1)).expect("send");
        drop(tx);
        assert!(ring.is_closed());
        ring.drain_tap();
        assert_eq!(text(&mut ring, 0, usize::MAX).len(), 1, "buffered chunks still drain");
    }
}
