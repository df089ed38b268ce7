//! Layer prices measured outside the engine, on the workload's own
//! batches: what one event costs to build, to encode and decode in each
//! format the system uses, and to push through the bare kernels the
//! workload's query compiles to.

use std::hint::black_box;
use std::time::{Duration, Instant};

use datacell_algebra::{
    aggregate_all, aggregate_groups, group_by, group_counts, select, AggKind, CmpOp,
};
use datacell_server::{frame, protocol};
use datacell_storage::binio::{self, ByteReader};
use datacell_storage::{Bat, Chunk, ColumnDef, DataType, Row, Schema, Value};

use crate::gen::{Pool, StreamKind};
use crate::spec::{Check, Transport, Workload};

/// Batches each probe cycles through.
const PROBE_BATCHES: u64 = 16;

/// Run `f(batch_index)` over the probe batches until `min` has passed;
/// ns per event.
fn ns_per_event(rows: usize, min: Duration, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < min {
        for b in 0..PROBE_BATCHES {
            f(b);
        }
        iters += PROBE_BATCHES;
    }
    start.elapsed().as_nanos() as f64 / (iters * rows as u64) as f64
}

fn schema_of(kind: StreamKind) -> Schema {
    let cols = match kind {
        StreamKind::Sensors => [
            ("sensor", DataType::Int),
            ("temp", DataType::Float),
            ("ts", DataType::Int),
        ],
        StreamKind::Ticks => [
            ("id", DataType::Int),
            ("ts", DataType::Int),
            ("v", DataType::Int),
        ],
    };
    Schema::new(cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
}

/// The result chunk one step produces on a wire workload.
fn result_chunk(w: &Workload, batch: &Chunk) -> Chunk {
    match w.queries[0].check {
        Check::Passthrough | Check::Grouped { .. } => batch.clone(),
        Check::Tumbling => Chunk::new(vec![
            Bat::from_ints(vec![w.batch_rows as i64]),
            Bat::from_ints(vec![0]),
            Bat::from_ints(vec![0]),
        ])
        .expect("three one-row columns"),
    }
}

#[derive(Default)]
pub struct Prices {
    pub chunk_build: f64,
    pub binio_encode: f64,
    pub binio_decode: f64,
    pub frame_encode: f64,
    pub frame_decode: f64,
    pub text_parse: f64,
    pub kernel: f64,
    /// Wire workloads only: bytes in + bytes out per event, in the
    /// workload's own protocol.
    pub wire_bytes: f64,
}

pub fn measure(w: &Workload, pools: &[Pool], min: Duration) -> Prices {
    let pool = &pools[0];
    let rows = pool.rows;
    let schema = schema_of(w.kind);
    let stream = w.streams[0];
    let chunks: Vec<Chunk> = (0..PROBE_BATCHES)
        .map(|b| pool.chunk(b, w.due_us(b)))
        .collect();
    let mut row_batches: Vec<Vec<Row>> = Vec::new();
    for b in 0..PROBE_BATCHES {
        let mut r = Vec::new();
        pool.fill_rows(b, w.due_us(b), &mut r);
        row_batches.push(r);
    }
    let mut p = Prices {
        chunk_build: ns_per_event(rows, min, |b| {
            black_box(pool.chunk(b, b as i64));
        }),
        ..Prices::default()
    };

    let mut buf = Vec::new();
    p.binio_encode = ns_per_event(rows, min, |b| {
        buf.clear();
        binio::encode_chunk(&mut buf, &chunks[b as usize]);
        black_box(buf.len());
    });
    let encoded: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| {
            let mut v = Vec::new();
            binio::encode_chunk(&mut v, c);
            v
        })
        .collect();
    p.binio_decode = ns_per_event(rows, min, |b| {
        black_box(
            binio::decode_chunk(&mut ByteReader::new(&encoded[b as usize]))
                .map(|c| c.len())
                .ok(),
        );
    });

    p.frame_encode = ns_per_event(rows, min, |b| {
        black_box(
            frame::encode_push_frame(stream, &schema, &row_batches[b as usize])
                .map(|f| f.len())
                .ok(),
        );
    });
    let frames: Vec<Vec<u8>> = row_batches
        .iter()
        .map(|r| frame::encode_push_frame(stream, &schema, r).unwrap_or_default())
        .collect();
    p.frame_decode = ns_per_event(rows, min, |b| {
        let f = &frames[b as usize];
        if let (Some(tag), Some(payload)) = (f.first(), f.get(binio::FRAME_HEADER_LEN..)) {
            black_box(frame::decode_frame(*tag, payload).is_ok());
        }
    });

    let lines: Vec<Vec<String>> = row_batches
        .iter()
        .map(|b| b.iter().map(|r| protocol::encode_row(r)).collect())
        .collect();
    p.text_parse = ns_per_event(rows, min, |b| {
        for line in &lines[b as usize] {
            black_box(protocol::decode_typed_row(line, &schema).is_ok());
        }
    });

    // The kernels each query of stream 0 compiles to, summed: the floor
    // under `core.fire` for one event of that stream.
    p.kernel = ns_per_event(rows, min, |b| {
        let chunk = &chunks[b as usize];
        for q in w.queries.iter().filter(|q| q.stream == 0) {
            match &q.check {
                Check::Grouped { threshold, .. } => {
                    let (sensor, temp, ts) = (chunk.column(0), chunk.column(1), chunk.column(2));
                    if let Ok(cand) = select(temp, None, CmpOp::Gt, &Value::Float(*threshold)) {
                        if let Ok(map) = group_by(&[sensor], Some(&cand)) {
                            black_box(group_counts(&map));
                            black_box(
                                aggregate_groups(AggKind::Avg, temp, &map, Some(&cand)).is_ok(),
                            );
                            black_box(
                                aggregate_groups(AggKind::Max, ts, &map, Some(&cand)).is_ok(),
                            );
                        }
                    }
                }
                Check::Tumbling => {
                    black_box(aggregate_all(AggKind::CountStar, chunk.column(2), None).rows());
                    black_box(aggregate_all(AggKind::Sum, chunk.column(2), None).rows());
                    black_box(aggregate_all(AggKind::Max, chunk.column(1), None).rows());
                }
                // A projection is a view: slicing is all the kernel does.
                Check::Passthrough => {
                    black_box(chunk.slice_oids(0, rows as u64).len());
                }
            }
        }
    });

    if w.transport.is_wire() {
        let result = result_chunk(w, &chunks[0]);
        let (bytes_in, bytes_out) = if w.transport == Transport::WireBinary {
            (
                frames[0].len(),
                frame::encode_chunk_frame(1, 1, &result)
                    .map(|f| f.len())
                    .unwrap_or(0),
            )
        } else {
            let block: usize =
                lines[0].iter().map(|l| l.len() + 1).sum::<usize>() + "PUSH s\nEND\n".len();
            (block, protocol::encode_chunk(1, 1, &result).len())
        };
        p.wire_bytes = (bytes_in + bytes_out) as f64 / rows as f64;
    }
    p
}
