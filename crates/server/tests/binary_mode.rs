//! Binary wire mode end-to-end: `HELLO BINARY` negotiation, cross-mode
//! equivalence (binary == text == in-process emitter), columnar value
//! fidelity, reconnect-with-resume over frames, robustness against
//! corrupt frames, and the frame-atomicity guarantee under backpressure
//! (a stalled subscriber only ever observes whole frames — the reactor
//! queues frames whole, so a mid-frame write deadline can only kill the
//! connection, never splice the stream).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use datacell_core::{DataCell, DataCellConfig, SyncPolicy, WalConfig};
use datacell_server::frame::{self, Frame, FrameBuf};
use datacell_server::{
    Client, ClientError, ReconnectPolicy, ResumingSubscription, Server, ServerConfig,
    Subscription,
};
use datacell_storage::{Row, Value};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("datacell-binmode-{}-{n}", std::process::id()))
}

fn rows_int(values: &[i64]) -> Vec<Row> {
    values.iter().map(|&v| vec![Value::Int(v)]).collect()
}

fn read_line_blocking(stream: &mut TcpStream) -> String {
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) => {
                if byte[0] == b'\n' {
                    return String::from_utf8_lossy(&line).into_owned();
                }
                line.push(byte[0]);
            }
            Ok(_) => panic!("connection closed mid-line"),
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// Drain a subscription until `want` rows arrived (or the deadline).
fn collect_rows(sub: &mut Subscription<'_>, want: usize) -> Vec<Row> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rows = Vec::new();
    while rows.len() < want {
        assert!(
            Instant::now() < deadline,
            "timed out with {} rows, wanted {want}",
            rows.len()
        );
        if let Some(batch) = sub.next_chunk(Duration::from_millis(100)).unwrap() {
            rows.extend(batch);
        }
    }
    rows
}

/// Canonical form that distinguishes float bit patterns (`-0.0` vs
/// `0.0`, every NaN payload) — `PartialEq` on `f64` would blur them.
fn canon(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(x) => format!("f:{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

// ---- negotiation -------------------------------------------------------

/// `HELLO BINARY 2` flips the connection to frames; an unsupported
/// version gets an ERR and the session stays text and usable.
#[test]
fn hello_negotiates_and_unsupported_version_stays_text() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"HELLO BINARY 99\nPING\n").unwrap();
    let reply = read_line_blocking(&mut raw);
    assert!(
        reply.starts_with("ERR unsupported binary wire version 99"),
        "got {reply:?}"
    );
    assert_eq!(read_line_blocking(&mut raw), "PONG");
    drop(raw);

    let mut c = Client::connect_binary(addr).unwrap();
    assert!(c.is_binary());
    c.ping().unwrap();
    c.quit().unwrap();
    server.shutdown();
}

// ---- cross-mode equivalence --------------------------------------------

/// Command-mode replies must be observationally identical across modes:
/// same EXEC outcomes, same error strings, same framed reports.
#[test]
fn binary_command_replies_match_text_mode() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut t = Client::connect(addr).unwrap();
    let mut b = Client::connect_binary(addr).unwrap();

    // Identical EXEC outcome shapes.
    use datacell_server::ExecReply;
    assert_eq!(
        t.exec("CREATE STREAM st (v BIGINT)").unwrap(),
        ExecReply::Created("st".into())
    );
    assert_eq!(
        b.exec("CREATE STREAM sb (v BIGINT)").unwrap(),
        ExecReply::Created("sb".into())
    );

    // Identical error strings, including engine errors.
    let terr = match t.deregister(424242) {
        Err(ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    let berr = match b.deregister(424242) {
        Err(ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    assert_eq!(terr, berr);

    let terr = match t.exec("FROBNICATE") {
        Err(ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    let berr = match b.exec("FROBNICATE") {
        Err(ClientError::Server(m)) => m,
        other => panic!("expected server error, got {other:?}"),
    };
    assert_eq!(terr, berr);

    // PUSH round-trips the same count (text CSV block vs columnar frame).
    assert_eq!(t.push_rows("st", &rows_int(&[1, 2, 3])).unwrap(), 3);
    assert_eq!(b.push_rows("st", &rows_int(&[1, 2, 3])).unwrap(), 3);

    // Framed reports arrive whole in both modes with the same sections.
    let ts = t.stats().unwrap();
    let bs = b.stats().unwrap();
    for section in ["commands:", "rows pushed"] {
        assert!(ts.contains(section), "text STATS lacks {section}: {ts}");
        assert!(bs.contains(section), "binary STATS lacks {section}: {bs}");
    }
    let metrics = b.metrics().unwrap();
    assert!(
        metrics.contains("datacell_reactor_sessions"),
        "binary METRICS lacks the reactor gauge:\n{metrics}"
    );

    t.quit().unwrap();
    b.quit().unwrap();
    server.shutdown();
}

/// The tentpole equivalence: one workload observed through a text
/// subscriber, a binary subscriber, and an in-process emitter must yield
/// the exact same row values in the same order.
#[test]
fn subscribers_agree_across_binary_text_and_in_process() {
    const DDL: &str = "CREATE STREAM s (v DOUBLE, tag VARCHAR)";
    const QUERY: &str = "SELECT v, tag FROM s";

    // In-process reference: engine + emitter, no sockets.
    let mut cell = DataCell::default();
    cell.execute(DDL).unwrap();
    let q0 = cell.register_query(QUERY).unwrap();
    let emitter = cell.subscribe(q0).unwrap();

    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.exec(DDL).unwrap();
    let q = admin.register(QUERY).unwrap();

    let mut text_cli = Client::connect(addr).unwrap();
    let mut text_sub = text_cli.subscribe(q, None).unwrap();
    let mut bin_cli = Client::connect_binary(addr).unwrap();
    let mut bin_sub = bin_cli.subscribe(q, None).unwrap();

    let batches: Vec<Vec<Row>> = vec![
        vec![
            vec![Value::Float(0.1), Value::Str("plain".into())],
            vec![Value::Float(-0.0), Value::Str("a,b\"c".into())],
        ],
        vec![
            vec![Value::Float(f64::MIN_POSITIVE), Value::Str(String::new())],
            vec![Value::Float(1e300), Value::Str("end".into())],
        ],
    ];
    for batch in &batches {
        admin.push_rows("s", batch).unwrap();
        cell.push_rows("s", batch).unwrap();
        cell.run_until_idle().unwrap();
    }
    let want: Vec<Row> = batches.concat();

    let text_rows = collect_rows(&mut text_sub, want.len());
    let bin_rows = collect_rows(&mut bin_sub, want.len());
    let mut local_rows: Vec<Row> = Vec::new();
    while let Some(chunk) = emitter.try_next() {
        local_rows.extend(chunk.rows());
    }

    assert_eq!(canon(&text_rows), canon(&bin_rows), "text vs binary disagree");
    assert_eq!(canon(&bin_rows), canon(&local_rows), "wire vs in-process disagree");
    assert_eq!(canon(&bin_rows), canon(&want), "delivered values mutated in flight");
    server.shutdown();
}

/// Columnar frames carry float bit patterns the CSV text grammar cannot
/// even spell: NaN payloads and infinities survive bit-for-bit.
#[test]
fn binary_chunks_preserve_nonfinite_float_bits() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut admin = Client::connect_binary(addr).unwrap();
    admin.exec("CREATE STREAM s (v DOUBLE)").unwrap();
    let q = admin.register("SELECT v FROM s").unwrap();

    let mut bin_cli = Client::connect_binary(addr).unwrap();
    let mut sub = bin_cli.subscribe(q, None).unwrap();

    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
    ];
    let rows: Vec<Row> = specials.iter().map(|&x| vec![Value::Float(x)]).collect();
    assert_eq!(admin.push_rows("s", &rows).unwrap(), rows.len());

    let got = collect_rows(&mut sub, rows.len());
    let got_bits: Vec<u64> = got
        .iter()
        .map(|r| match r[0] {
            Value::Float(x) => x.to_bits(),
            ref other => panic!("expected a float, got {other:?}"),
        })
        .collect();
    let want_bits: Vec<u64> = specials.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got_bits, want_bits);
    server.shutdown();
}

/// One STOP semantics for both codecs: a STOP that follows an
/// acknowledged push still delivers that push's chunk before
/// `OK STOPPED` — the ring is drained first, as on a text connection.
#[test]
fn binary_stop_after_push_still_delivers_its_chunk() {
    let server = Server::start(ServerConfig {
        init_script: Some("CREATE STREAM s (v BIGINT)".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut pusher = Client::connect(addr).unwrap();
    let q = pusher.register("SELECT v FROM s").unwrap();
    let mut bin_cli = Client::connect_binary(addr).unwrap();
    for round in 0..5 {
        let sub = bin_cli.subscribe(q, None).unwrap();
        pusher.push_rows("s", &rows_int(&[round])).unwrap();
        let (tail, chunks, rows) = sub.stop().unwrap();
        assert_eq!((chunks, rows), (1, 1), "round {round}: STOP skipped the pushed chunk");
        assert_eq!(tail, vec![rows_int(&[round])], "round {round}");
    }
    server.shutdown();
}

// ---- reconnect with resume ---------------------------------------------

fn durable_config(dir: &PathBuf, addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        engine: DataCellConfig {
            wal: Some(WalConfig {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                ..WalConfig::at(dir)
            }),
            results_capacity: Some(64),
            ..DataCellConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn start_on(dir: &PathBuf, addr: &str) -> Server {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match Server::start(durable_config(dir, addr)) {
            Ok(server) => return server,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind never succeeded: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// AFTER-resume works over frames too: a binary [`ResumingSubscription`]
/// rides out a full server restart with nothing duplicated and nothing
/// missing, renegotiating `HELLO BINARY` on every re-attach.
#[test]
fn binary_resuming_subscription_survives_server_restart() {
    let dir = tmpdir();
    let server = Server::start(durable_config(&dir, "127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect_binary(addr.as_str()).unwrap();
    c.exec("CREATE STREAM s (v BIGINT)").unwrap();
    let q = c.register("SELECT v FROM s").unwrap();

    let mut sub = ResumingSubscription::connect_binary_with(
        addr.clone(),
        q,
        ReconnectPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        },
    )
    .unwrap();
    assert_eq!(sub.names(), ["v"]);

    let mut delivered: Vec<i64> = Vec::new();
    let mut collect = |sub: &mut ResumingSubscription, want: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while delivered.len() < want {
            assert!(
                Instant::now() < deadline,
                "timed out with {delivered:?}, wanted {want} values"
            );
            if let Some(rows) = sub.next_chunk(Duration::from_millis(100)).unwrap() {
                for row in rows {
                    delivered.push(row[0].as_int().unwrap());
                }
            }
        }
    };

    c.push_rows("s", &rows_int(&[1])).unwrap();
    c.push_rows("s", &rows_int(&[2])).unwrap();
    collect(&mut sub, 2);

    drop(c);
    server.shutdown();
    let server = start_on(&dir, &addr);

    let mut c2 = Client::connect_binary(addr.as_str()).unwrap();
    c2.push_rows("s", &rows_int(&[3])).unwrap();
    c2.push_rows("s", &rows_int(&[4])).unwrap();
    collect(&mut sub, 4);
    c2.push_rows("s", &rows_int(&[5])).unwrap();
    collect(&mut sub, 5);

    assert_eq!(delivered, vec![1, 2, 3, 4, 5], "duplicated or missing chunks");
    assert!(sub.reconnects() >= 1, "the subscription never re-attached");
    assert!(!sub.finished());
    server.shutdown();
}

// ---- corrupt input robustness ------------------------------------------

/// Negotiate binary mode on a raw socket and return it (nonblocking
/// frame I/O is then up to the caller).
fn negotiate_raw(addr: std::net::SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"HELLO BINARY 2\n").unwrap();
    assert_eq!(read_line_blocking(&mut raw), "OK HELLO BINARY 2");
    raw
}

/// Read frames off a raw socket until one TEXT frame arrives; return its
/// payload. Panics on EOF (callers expecting a close use `expect_eof`).
fn read_text_frame(stream: &mut TcpStream, fbuf: &mut FrameBuf) -> String {
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut buf = [0u8; 4096];
    loop {
        if let Some((tag, payload)) = fbuf.next_frame().unwrap() {
            match frame::decode_frame(tag, &payload).unwrap() {
                Frame::Text(t) => return t,
                other => panic!("expected a TEXT frame, got {other:?}"),
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => panic!("connection closed while awaiting a TEXT frame"),
            Ok(n) => fbuf.push_bytes(&buf[..n]),
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// Drain until EOF, asserting every byte received still parses as whole
/// frames (a dying connection must never splice a frame).
fn expect_clean_close(stream: &mut TcpStream, fbuf: &mut FrameBuf) {
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut buf = [0u8; 4096];
    loop {
        while let Some((tag, payload)) = fbuf.next_frame().unwrap() {
            frame::decode_frame(tag, &payload).unwrap();
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => fbuf.push_bytes(&buf[..n]),
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// Corrupt frames must never panic or wedge the server: a decodable
/// frame with a broken payload gets an ERR and the connection stays
/// synced; an untrustworthy length is fatal but clean; truncation is a
/// clean close. The server keeps serving throughout.
#[test]
fn corrupt_frames_get_err_or_clean_close_never_panic() {
    let server = Server::start(ServerConfig {
        init_script: Some("CREATE STREAM s (v BIGINT)".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // (a) Unknown tag with a valid length: ERR, connection stays usable.
    {
        let mut raw = negotiate_raw(addr);
        let mut fbuf = FrameBuf::new();
        raw.write_all(&[0x7f, 3, 0, 0, 0, b'x', b'y', b'z']).unwrap();
        let reply = read_text_frame(&mut raw, &mut fbuf);
        assert!(reply.starts_with("ERR "), "got {reply:?}");
        raw.write_all(&frame::encode_text("PING")).unwrap();
        assert_eq!(read_text_frame(&mut raw, &mut fbuf).trim(), "PONG");
    }

    // (b) A client-sent CHUNK frame is rejected but not fatal.
    {
        let mut raw = negotiate_raw(addr);
        let mut fbuf = FrameBuf::new();
        let chunk_bytes = {
            use datacell_storage::{Bat, Chunk};
            let chunk = Chunk::new(vec![Bat::from_ints(vec![1])]).unwrap();
            frame::encode_chunk_frame(1, 1, &chunk).unwrap()
        };
        raw.write_all(&chunk_bytes).unwrap();
        let reply = read_text_frame(&mut raw, &mut fbuf);
        assert!(reply.contains("server to client only"), "got {reply:?}");
    }

    // (c) An oversized length field is fatal: ERR then close, at a frame
    // boundary.
    {
        let mut raw = negotiate_raw(addr);
        let mut fbuf = FrameBuf::new();
        raw.write_all(&[0x00, 0xff, 0xff, 0xff, 0xff]).unwrap();
        let reply = read_text_frame(&mut raw, &mut fbuf);
        assert!(reply.starts_with("ERR "), "got {reply:?}");
        expect_clean_close(&mut raw, &mut fbuf);
    }

    // (d) Truncation: a partial frame followed by a close is just a
    // clean disconnect.
    {
        let mut raw = negotiate_raw(addr);
        let valid = {
            use datacell_storage::Schema;
            let schema = Schema::of(&[("v", datacell_storage::DataType::Int)]);
            frame::encode_push_frame("s", &schema, &rows_int(&[7])).unwrap()
        };
        raw.write_all(&valid[..valid.len() / 2]).unwrap();
        drop(raw);
    }

    // (e) Bit-flip sweep over a valid PUSH payload: every mutation gets
    // *some* single-frame TEXT reply (OK or ERR — a flip may still
    // decode) and the connection stays synced for the next frame.
    {
        let valid = {
            use datacell_storage::Schema;
            let schema = Schema::of(&[("v", datacell_storage::DataType::Int)]);
            frame::encode_push_frame("s", &schema, &rows_int(&[7, 8, 9])).unwrap()
        };
        let header = 5; // tag + u32 length stay intact: framing is trusted
        let mut raw = negotiate_raw(addr);
        let mut fbuf = FrameBuf::new();
        for pos in (header..valid.len()).step_by(3) {
            let mut mutated = valid.clone();
            mutated[pos] ^= 0x80;
            raw.write_all(&mutated).unwrap();
            let reply = read_text_frame(&mut raw, &mut fbuf);
            assert!(
                reply.starts_with("OK PUSHED") || reply.starts_with("ERR "),
                "byte {pos}: got {reply:?}"
            );
        }
        // Still synced: an unmutated frame is accepted.
        raw.write_all(&valid).unwrap();
        let reply = read_text_frame(&mut raw, &mut fbuf);
        assert!(reply.starts_with("OK PUSHED 3"), "got {reply:?}");
    }

    // The server survived everything above.
    let mut c = Client::connect_binary(addr).unwrap();
    c.ping().unwrap();
    c.quit().unwrap();
    server.shutdown();
}

/// `HELLO BINARY 2` and a PUSH frame pipelined in a single write: the
/// bytes behind the handshake line move from the line codec to the frame
/// codec, so the frame (and a PING behind it) are both answered.
#[test]
fn pipelined_hello_and_push_frame_are_both_answered() {
    let server = Server::start(ServerConfig {
        init_script: Some("CREATE STREAM s (v BIGINT)".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let schema =
        datacell_storage::Schema::of(&[("v", datacell_storage::DataType::Int)]);
    let mut bytes = b"HELLO BINARY 2\n".to_vec();
    bytes.extend(frame::encode_push_frame("s", &schema, &rows_int(&[1, 2])).unwrap());
    bytes.extend(frame::encode_text("PING"));
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&bytes).unwrap();
    assert_eq!(read_line_blocking(&mut raw), "OK HELLO BINARY 2");
    let mut fbuf = FrameBuf::new();
    assert_eq!(read_text_frame(&mut raw, &mut fbuf).trim(), "OK PUSHED 2");
    assert_eq!(read_text_frame(&mut raw, &mut fbuf).trim(), "PONG");
    assert_eq!(server.stats().rows_pushed, 2);
    server.shutdown();
}

/// Pure decode totality: arbitrary bytes through [`frame::decode_frame`]
/// may fail but never panic and never allocate unboundedly.
mod decode_totality {
    use super::frame;
    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn decode_frame_is_total_on_arbitrary_bytes(
            tag in 0u32..256,
            payload in proptest::collection::vec(0u32..256, 0..256)
        ) {
            let bytes: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
            let _ = frame::decode_frame(tag as u8, &bytes);
        }
    }
}

// ---- frame atomicity under backpressure (satellite 3) ------------------

/// A subscriber that stops reading while the server keeps producing
/// exercises partial socket writes and the reactor's high-water pause.
/// When it resumes, every byte must still parse as whole frames with
/// strictly increasing sequence numbers: frames are queued whole, so
/// backpressure can delay or kill a stream but never interleave it.
#[test]
fn backpressured_subscriber_sees_only_whole_frames() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.exec("CREATE STREAM s (v BIGINT, pad VARCHAR)").unwrap();
    let q = admin.register("SELECT v, pad FROM s").unwrap();

    let mut bin_cli = Client::connect_binary(addr).unwrap();
    let mut sub = bin_cli.subscribe(q, None).unwrap();

    // ~6 MiB of chunk frames — far beyond the kernel socket buffers, so
    // the reactor sees partial writes and (briefly) the high-water mark.
    const CHUNKS: usize = 200;
    const ROWS: usize = 32;
    let pad = "x".repeat(1024);
    for i in 0..CHUNKS {
        let batch: Vec<Row> = (0..ROWS)
            .map(|r| vec![Value::Int((i * ROWS + r) as i64), Value::Str(pad.clone())])
            .collect();
        admin.push_rows("s", &batch).unwrap();
    }
    // Let the server wedge against the unread socket before we drain.
    std::thread::sleep(Duration::from_millis(300));

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut total_rows = 0usize;
    let mut last_seq = 0u64;
    let mut next_expected = 0i64;
    while total_rows < CHUNKS * ROWS {
        assert!(
            Instant::now() < deadline,
            "timed out after {total_rows} rows (seq {last_seq})"
        );
        let Some(rows) = sub.next_chunk(Duration::from_millis(200)).unwrap() else {
            assert!(!sub.finished(), "stream ended early at {total_rows} rows");
            continue;
        };
        let (_, seq) = sub.position();
        assert!(seq > last_seq, "sequence went backwards: {last_seq} -> {seq}");
        last_seq = seq;
        for row in rows {
            assert_eq!(row[0], Value::Int(next_expected), "row payload out of order");
            next_expected += 1;
            total_rows += 1;
        }
    }
    let (tail, _, _) = sub.stop().unwrap();
    assert!(tail.is_empty(), "all chunks were already drained");
    server.shutdown();
}
