//! Property tests for the one columnar block layout (`binio`): every
//! generated chunk — all five types, no / some / all NULLs, NaN payloads,
//! ±0.0, ±inf, empty and multibyte strings, zero rows, arbitrary per-column
//! OID heads — must come back bit-exact through `encode_chunk` /
//! `decode_chunk`, a PUSH frame, a CHUNK frame and a WAL append + reopen.
//! Damaged blocks must decode to `Err` or a valid chunk, never panic, and
//! hostile headers must fail before anything sized by them is allocated.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_server::frame::{self, Frame, FrameBuf};
use datacell_storage::binio::{self, ByteReader};
use datacell_storage::{Bat, Chunk, ColumnDef, DataType, Row, Schema, Vector};
use datacell_wal::{SharedStats, StreamLog, SyncPolicy};
use proptest::prelude::*;

// ---- a test-only allocation probe ---------------------------------------

/// Records the largest single allocation made on the current thread while
/// armed — how the tests below see that a hostile header fails *before*
/// the decoder sizes anything by it.
#[allow(unsafe_code)]
mod probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|l| {
            if let Some(m) = l.get() {
                l.set(Some(m.max(size)));
            }
        });
    }

    pub struct Probe;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; `note` only updates a
    // const-initialised thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for Probe {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's guarantees for `alloc` pass through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` via this allocator with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: as for `dealloc`; `new_size` is the caller's valid size.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Run `f`, returning its result and the largest allocation it made.
    pub fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|l| l.set(Some(0)));
        let out = f();
        (out, LARGEST.with(|l| l.replace(None)).unwrap_or(0))
    }
}

#[global_allocator]
static GLOBAL: probe::Probe = probe::Probe;

// ---- generation -----------------------------------------------------------

/// splitmix64: the chunk shape and contents derive from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const TYPES: [DataType; 5] =
    [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Timestamp];

const FLOATS: [u64; 8] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff8_dead_beef_0001, // NaN with a payload
    0xfff0_0000_0000_0001, // negative signalling NaN
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
];

const STRS: [&str; 7] = ["", "a", "é", "日本語", "🦀 crab", "comma,quote\"\n", "ß"];

/// One column of `nrows` cells of `ty`; NULL slots hold the type's zero
/// value, as every in-memory constructor leaves them.
fn column(rng: &mut Rng, ty: DataType, nrows: usize) -> Bat {
    let validity: Option<Vec<bool>> = match rng.below(3) {
        0 => None,
        1 => Some((0..nrows).map(|_| rng.below(4) != 0).collect()),
        _ => Some(vec![false; nrows]),
    };
    let valid = |i: usize| validity.as_ref().is_none_or(|v| v[i]);
    let data = match ty {
        DataType::Bool => Vector::Bool(
            (0..nrows).map(|i| valid(i) && rng.below(2) == 1).collect::<Vec<_>>().into(),
        ),
        DataType::Int | DataType::Timestamp => {
            let v: Vec<i64> = (0..nrows)
                .map(|i| match (valid(i), rng.below(4)) {
                    (false, _) => 0,
                    (true, 0) => [i64::MIN, i64::MAX, -1, 0][rng.below(4) as usize],
                    (true, _) => rng.next() as i64,
                })
                .collect();
            if ty == DataType::Int {
                Vector::Int(v.into())
            } else {
                Vector::Timestamp(v.into())
            }
        }
        DataType::Float => Vector::Float(
            (0..nrows)
                .map(|i| match (valid(i), rng.below(2)) {
                    (false, _) => 0.0,
                    (true, 0) => f64::from_bits(FLOATS[rng.below(8) as usize]),
                    (true, _) => f64::from_bits(rng.next()),
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        DataType::Str => Vector::Str(
            (0..nrows)
                .map(|i| {
                    if !valid(i) {
                        return String::new();
                    }
                    (0..rng.below(3)).map(|_| STRS[rng.below(7) as usize]).collect::<String>()
                })
                .collect::<Vec<_>>()
                .into(),
        ),
    };
    // Heads anywhere in the OID space (headroom kept so `oid_end` holds).
    Bat::from_parts(data, rng.next() >> 1, validity).unwrap()
}

fn chunk_of(seed: u64, max_cols: u64, max_rows: u64) -> Chunk {
    let mut rng = Rng(seed);
    let ncols = rng.below(max_cols + 1) as usize;
    let nrows = if rng.below(5) == 0 { 0 } else { rng.below(max_rows + 1) as usize };
    let cols: Vec<Bat> = (0..ncols)
        .map(|_| {
            let ty = TYPES[rng.below(5) as usize];
            column(&mut rng, ty, nrows)
        })
        .collect();
    Chunk::new(cols).unwrap()
}

fn schema_of(chunk: &Chunk) -> Schema {
    Schema::new(
        chunk
            .columns()
            .iter()
            .enumerate()
            .map(|(j, c)| ColumnDef::new(format!("c{j}"), c.data_type()))
            .collect(),
    )
}

// ---- the bit-exact oracle -------------------------------------------------

/// Compare two chunks column by column — type, OID head, validity, and
/// every payload cell, floats by their bits — without going through the
/// codec under test.
fn assert_bit_exact(got: &Chunk, want: &Chunk, path: &str) {
    assert_eq!(got.arity(), want.arity(), "{path}: arity");
    assert_eq!(got.len(), want.len(), "{path}: rows");
    for (j, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
        assert_eq!(g.data_type(), w.data_type(), "{path}: col {j} type");
        assert_eq!(g.oid_base(), w.oid_base(), "{path}: col {j} oid_base");
        assert_eq!(g.validity(), w.validity(), "{path}: col {j} validity");
        match (g.data(), w.data()) {
            (Vector::Float(a), Vector::Float(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{path}: col {j} float bits");
            }
            (a, b) => assert_eq!(a, b, "{path}: col {j} values"),
        }
    }
}

/// The same chunk with every OID head at 0 — what a PUSH frame carries.
fn rebased_to_zero(chunk: &Chunk) -> Chunk {
    Chunk::new(chunk.columns().iter().map(|c| c.rebased(0)).collect()).unwrap()
}

fn encode(chunk: &Chunk) -> Vec<u8> {
    let mut buf = Vec::new();
    binio::encode_chunk(&mut buf, chunk);
    buf
}

fn decode_all(bytes: &[u8]) -> datacell_storage::Result<Chunk> {
    let mut r = ByteReader::new(bytes);
    let chunk = binio::decode_chunk(&mut r)?;
    assert!(r.is_empty(), "decode_chunk must consume exactly one block");
    Ok(chunk)
}

static DIRS: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("datacell-block-codec-{}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chunks_roundtrip_bit_exact_on_every_path(seed in 0u64..u64::MAX) {
        let chunk = chunk_of(seed, 6, 300);

        // 1. The block itself.
        let block = encode(&chunk);
        prop_assert_eq!(block.len(), binio::encoded_len(&chunk));
        assert_bit_exact(&decode_all(&block).unwrap(), &chunk, "block");

        // 2. A PUSH frame, built from rows against the schema (heads 0).
        let rows: Vec<Row> = chunk.rows().collect();
        let push = frame::encode_push_frame("s", &schema_of(&chunk), &rows).unwrap();
        let Frame::Push { stream, chunk: pushed } =
            frame::decode_frame(push[0], &push[binio::FRAME_HEADER_LEN..]).unwrap()
        else {
            panic!("expected a PUSH frame");
        };
        prop_assert_eq!(stream, "s");
        assert_bit_exact(&pushed, &rebased_to_zero(&chunk), "push frame");

        // 3. A CHUNK frame, cut out of a byte stream by the frame reader.
        let mut fb = FrameBuf::new();
        fb.push_bytes(&frame::encode_chunk_frame(3, 9, &chunk).unwrap());
        let (tag, payload) = fb.peek().unwrap().unwrap();
        match frame::decode_frame(tag, payload).unwrap() {
            Frame::Chunk { query: 3, seq: 9, chunk: got } => {
                assert_bit_exact(&got, &chunk, "chunk frame")
            }
            other => panic!("expected CHUNK 3/9, got {other:?}"),
        }

        // 4. A WAL stream record, appended and replayed after reopen.
        let dir = tmpdir();
        let stats = Arc::new(SharedStats::default());
        {
            let (mut log, _) =
                StreamLog::open(&dir, SyncPolicy::Never, 1 << 20, stats.clone()).unwrap();
            log.append_with(7, chunk.len() as u32, |buf| binio::encode_chunk(buf, &chunk))
                .unwrap();
        }
        let (_, batches) = StreamLog::open(&dir, SyncPolicy::Never, 1 << 20, stats).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(batches.len(), 1);
        prop_assert_eq!((batches[0].first_oid, batches[0].rows as usize), (7, chunk.len()));
        assert_bit_exact(&decode_all(&batches[0].payload).unwrap(), &chunk, "wal");
    }

    #[test]
    fn damaged_blocks_fail_cleanly_or_decode_to_valid_chunks(seed in 0u64..u64::MAX) {
        let chunk = chunk_of(seed, 4, 20);
        let block = encode(&chunk);
        for cut in 0..block.len() {
            prop_assert!(decode_all(&block[..cut]).is_err(), "cut at {}", cut);
        }
        let mut flipped = block.clone();
        for pos in 0..block.len() {
            for bit in 0..8 {
                flipped[pos] ^= 1 << bit;
                let mut r = ByteReader::new(&flipped);
                if let Ok(got) = binio::decode_chunk(&mut r) {
                    // A flip may still decode (a value, head or validity
                    // bit): the result must then be a well-formed chunk
                    // whose own encoding is a fixed point.
                    let canonical = encode(&got);
                    prop_assert_eq!(encode(&decode_all(&canonical).unwrap()), canonical);
                }
                flipped[pos] ^= 1 << bit;
            }
        }
    }
}

// ---- hostile headers ----------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Column header: type tag, flags, oid_base.
fn col_header(buf: &mut Vec<u8>, ty: DataType, has_nulls: bool) {
    buf.push(binio::type_tag(ty));
    buf.push(has_nulls as u8);
    buf.extend_from_slice(&0u64.to_le_bytes());
}

/// A one-column Str block of `offsets.len() - 1` rows.
fn str_block(offsets: &[u32], bytes: &[u8], has_nulls: bool) -> Vec<u8> {
    let nrows = offsets.len() - 1;
    let mut buf = Vec::new();
    put_u32(&mut buf, 1);
    put_u32(&mut buf, nrows as u32);
    col_header(&mut buf, DataType::Str, has_nulls);
    if has_nulls {
        buf.extend(std::iter::repeat_n(0x55u8, nrows.div_ceil(8)));
    }
    for &o in offsets {
        put_u32(&mut buf, o);
    }
    buf.extend_from_slice(bytes);
    buf
}

/// No allocation bigger than an error message.
const ERROR_ALLOC_MAX: usize = 256;

fn assert_fails_without_sized_alloc(bytes: &[u8], what: &str) {
    let (result, largest) =
        probe::largest_alloc(|| binio::decode_chunk(&mut ByteReader::new(bytes)));
    assert!(result.is_err(), "{what}: must be refused");
    assert!(largest <= ERROR_ALLOC_MAX, "{what}: allocated {largest} bytes before failing");
}

#[test]
fn implausible_counts_fail_before_allocating() {
    let mut huge_cols = Vec::new();
    put_u32(&mut huge_cols, u32::MAX);
    put_u32(&mut huge_cols, 1);
    huge_cols.extend_from_slice(&[0u8; 64]);
    assert_fails_without_sized_alloc(&huge_cols, "ncols = u32::MAX");

    let mut huge_rows = Vec::new();
    put_u32(&mut huge_rows, 1);
    put_u32(&mut huge_rows, u32::MAX);
    col_header(&mut huge_rows, DataType::Int, false);
    huge_rows.extend_from_slice(&[0u8; 64]);
    assert_fails_without_sized_alloc(&huge_rows, "nrows = u32::MAX");

    // Each factor alone fits the input; the product does not.
    let mut product = Vec::new();
    put_u32(&mut product, 400);
    put_u32(&mut product, 1000);
    product.extend_from_slice(&vec![0u8; 1000]);
    assert_fails_without_sized_alloc(&product, "ncols x nrows");

    // Plausible header, but the fixed-width payload is short.
    let mut short = Vec::new();
    put_u32(&mut short, 1);
    put_u32(&mut short, 1000);
    col_header(&mut short, DataType::Float, true);
    short.extend_from_slice(&vec![0u8; 1200]);
    assert_fails_without_sized_alloc(&short, "short float payload");

    // Flags this build does not know.
    let mut flags = Vec::new();
    put_u32(&mut flags, 1);
    put_u32(&mut flags, 1000);
    col_header(&mut flags, DataType::Int, false);
    flags[9] = 0x80;
    flags.extend_from_slice(&vec![0u8; 8000]);
    assert_fails_without_sized_alloc(&flags, "unknown column flags");
}

#[test]
fn bad_string_offsets_fail_before_allocating() {
    let n = 1000;
    let text = "é".repeat(n);
    for has_nulls in [false, true] {
        // Monotone offsets on char boundaries decode — and the probe sees
        // the column being allocated, so its silence below means something.
        let good: Vec<u32> = (0..=n as u32).map(|i| 2 * i).collect();
        let block = str_block(&good, text.as_bytes(), has_nulls);
        let (decoded, largest) = probe::largest_alloc(|| decode_all(&block));
        assert_eq!(decoded.unwrap().len(), n);
        assert!(largest > ERROR_ALLOC_MAX);

        let mut backwards = good.clone();
        backwards.swap(500, 501);
        assert_fails_without_sized_alloc(
            &str_block(&backwards, text.as_bytes(), has_nulls),
            "non-monotone offsets",
        );

        let mut mid_char = good.clone();
        mid_char[700] += 1;
        assert_fails_without_sized_alloc(
            &str_block(&mid_char, text.as_bytes(), has_nulls),
            "offset inside a multibyte char",
        );

        let mut not_from_zero = good.clone();
        not_from_zero[0] = 2;
        assert_fails_without_sized_alloc(
            &str_block(&not_from_zero, text.as_bytes(), has_nulls),
            "first offset not 0",
        );

        let mut past_end = good.clone();
        past_end[n] += 64;
        assert_fails_without_sized_alloc(
            &str_block(&past_end, text.as_bytes(), has_nulls),
            "bytes past the input",
        );

        let mut bad_utf8 = text.clone().into_bytes();
        bad_utf8[1] = 0xff;
        assert_fails_without_sized_alloc(
            &str_block(&good, &bad_utf8, has_nulls),
            "invalid UTF-8",
        );
    }
}
