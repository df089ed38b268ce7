//! Input generation: everything the program sees is made here from
//! `--seed`.
//!
//! A workload's payload columns are generated once, before any clock
//! starts, as a pool of `POOL_BATCHES` batches that the legs cycle
//! through; holding every event of a multi-second leg at several million
//! events/s would cost gigabytes and turn `peak_rss_mb` into a measure of
//! the generator. What is stamped at send time is only what a generator
//! stamps in a real deployment: the event's due time `ts` (constant per
//! batch) and, for passthrough streams, its sequence number `id`.

use datacell_storage::{Bat, Chunk, Row, Value};

/// Pool length in batches. Prime, so the pool's period never lines up
/// with a window length (a 256-batch window over a 256-batch pool would
/// see the same multiset on every slide).
pub const POOL_BATCHES: usize = 127;

/// Number of distinct `sensor` keys.
pub const SENSORS: i64 = 32;

/// splitmix64: small, seedable, and the benchmark's own, so the inputs
/// do not change when a vendored crate does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The two stream shapes the workloads use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    /// `(sensor BIGINT, temp DOUBLE, ts BIGINT)` — grouped window aggregates.
    Sensors,
    /// `(id BIGINT, ts BIGINT, v BIGINT)` — passthrough and tumbling sums.
    Ticks,
}

impl StreamKind {
    pub fn ddl(self, stream: &str) -> String {
        match self {
            StreamKind::Sensors => {
                format!("CREATE STREAM {stream} (sensor BIGINT, temp DOUBLE, ts BIGINT)")
            }
            StreamKind::Ticks => format!("CREATE STREAM {stream} (id BIGINT, ts BIGINT, v BIGINT)"),
        }
    }
}

/// One pool batch's payload. `key`/`temp` for sensors, `v` for ticks.
struct PoolBatch {
    ints: Bat,
    floats: Option<Bat>,
}

/// The pre-generated payload of one stream.
pub struct Pool {
    pub kind: StreamKind,
    pub rows: usize,
    batches: Vec<PoolBatch>,
}

impl Pool {
    /// Generate the pool for one stream. `stream_index` separates the
    /// streams of a multi-stream workload.
    pub fn generate(kind: StreamKind, rows: usize, seed: u64, stream_index: u64) -> Pool {
        let mut rng = Rng::new(seed ^ stream_index.wrapping_mul(0xA076_1D64_78BD_642F));
        let batches = (0..POOL_BATCHES)
            .map(|_| match kind {
                StreamKind::Sensors => {
                    let mut keys = Vec::with_capacity(rows);
                    let mut temps = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        keys.push(rng.below(SENSORS));
                        // 15.0..25.0: `temp > 18.0` keeps about 70%.
                        temps.push(15.0 + 10.0 * rng.unit());
                    }
                    PoolBatch {
                        ints: Bat::from_ints(keys),
                        floats: Some(Bat::from_floats(temps)),
                    }
                }
                StreamKind::Ticks => PoolBatch {
                    ints: Bat::from_ints((0..rows).map(|_| rng.below(1000)).collect()),
                    floats: None,
                },
            })
            .collect();
        Pool {
            kind,
            rows,
            batches,
        }
    }

    fn batch(&self, i: u64) -> &PoolBatch {
        &self.batches[(i % POOL_BATCHES as u64) as usize]
    }

    /// Integer payload of batch `i` (`sensor` or `v`).
    pub fn ints(&self, i: u64) -> &[i64] {
        self.batch(i).ints.data().as_ints().unwrap_or(&[])
    }

    /// Float payload of batch `i` (`temp`); empty for ticks.
    pub fn floats(&self, i: u64) -> &[f64] {
        self.batch(i)
            .floats
            .as_ref()
            .and_then(|b| b.data().as_floats())
            .unwrap_or(&[])
    }

    /// Batch `i` as a columnar chunk: pooled payload columns are shared
    /// (a reference-count bump), `ts` and `id` are stamped.
    pub fn chunk(&self, i: u64, due_us: i64) -> Chunk {
        let b = self.batch(i);
        let ts = Bat::from_ints(vec![due_us; self.rows]);
        let cols = match self.kind {
            StreamKind::Sensors => {
                let temp = b
                    .floats
                    .clone()
                    .unwrap_or_else(|| Bat::from_floats(Vec::new()));
                vec![b.ints.clone(), temp, ts]
            }
            StreamKind::Ticks => {
                let first = i as i64 * self.rows as i64;
                let ids = Bat::from_ints((first..first + self.rows as i64).collect());
                vec![ids, ts, b.ints.clone()]
            }
        };
        Chunk::new(cols).expect("pool columns have equal length")
    }

    /// Batch `i` as rows, written over `out` (reused across pushes so the
    /// wire legs allocate nothing per batch).
    pub fn fill_rows(&self, i: u64, due_us: i64, out: &mut Vec<Row>) {
        out.resize_with(self.rows, || vec![Value::Null; 3]);
        let ints = self.ints(i);
        match self.kind {
            StreamKind::Sensors => {
                let temps = self.floats(i);
                for (r, row) in out.iter_mut().enumerate() {
                    row[0] = Value::Int(ints[r]);
                    row[1] = Value::Float(temps[r]);
                    row[2] = Value::Int(due_us);
                }
            }
            StreamKind::Ticks => {
                let first = i as i64 * self.rows as i64;
                for (r, row) in out.iter_mut().enumerate() {
                    row[0] = Value::Int(first + r as i64);
                    row[1] = Value::Int(due_us);
                    row[2] = Value::Int(ints[r]);
                }
            }
        }
    }

    /// FNV-1a over every payload value: the "same seed, same inputs" stamp.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for i in 0..POOL_BATCHES as u64 {
            for v in self.ints(i) {
                h.write(&v.to_le_bytes());
            }
            for v in self.floats(i) {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

/// FNV-1a, for input and result checksums.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
