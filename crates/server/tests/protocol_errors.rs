//! Protocol error-path regression tests: malformed client input —
//! wrong-arity `PUSH` rows, broken CSV escaping, oversize lines — must be
//! answered with `ERR` while the session (and the batch framing) stays
//! alive. A hostile or buggy client must never tear down its connection
//! thread, poison the engine, or desync the line protocol.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use datacell_server::{Server, ServerConfig};

fn start_server() -> Server {
    let config = ServerConfig {
        init_script: Some(
            "CREATE STREAM s (ts TIMESTAMP, v BIGINT); \
             CREATE TABLE t (x BIGINT)"
                .into(),
        ),
        ..ServerConfig::default()
    };
    Server::start(config).expect("server start")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    stream
}

fn read_line(stream: &mut TcpStream) -> String {
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert!(Instant::now() < deadline, "timed out reading a line");
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => {
                return String::from_utf8_lossy(&line).into_owned()
            }
            Ok(1) => line.push(byte[0]),
            Ok(_) => panic!("connection closed mid-line: {line:?}"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read error: {e}"),
        }
    }
}

fn send(stream: &mut TcpStream, text: &str) {
    stream.write_all(text.as_bytes()).expect("write");
}

/// The liveness probe after every error: the session must still answer.
fn assert_alive(stream: &mut TcpStream) {
    send(stream, "PING\n");
    assert_eq!(read_line(stream), "PONG");
}

#[test]
fn wrong_arity_push_rows_answer_err_and_keep_session() {
    let server = start_server();
    let mut c = connect(&server);

    // Too few and too many fields — whole batch rejected, session alive.
    send(&mut c, "PUSH s\n@1\nEND\n");
    let reply = read_line(&mut c);
    assert!(reply.starts_with("ERR row 1:"), "got {reply:?}");
    assert!(reply.contains("2 columns"), "got {reply:?}");
    assert_alive(&mut c);

    send(&mut c, "PUSH s\n@1,2,3,4\nEND\n");
    assert!(read_line(&mut c).starts_with("ERR row 1:"));
    assert_alive(&mut c);

    // A bad row mid-batch rejects the batch atomically: nothing landed.
    send(&mut c, "PUSH s\n@1,10\nbogus,row,extra\n@2,20\nEND\n");
    assert!(read_line(&mut c).starts_with("ERR row 2:"));
    server.with_engine(|e| {
        assert_eq!(e.stats().baskets[0].arrived, 0, "failed batch must not land");
    });

    // And a correct batch on the same connection still works.
    send(&mut c, "PUSH s\n@1,10\n@2,20\nEND\n");
    assert_eq!(read_line(&mut c), "OK PUSHED 2");
    server.shutdown();
}

#[test]
fn bad_csv_escaping_answers_err_and_keeps_session() {
    let server = start_server();
    let mut c = connect(&server);

    for bad in [
        "PUSH s\n@1,\"unterminated\nEND\n",    // quote never closed
        "PUSH s\n@1,\"bad\\q\"\nEND\n",        // unknown escape
        "PUSH s\n@1,\"trail\"junk\nEND\n",     // junk after quoted field
        "PUSH s\nnaked\"quote,1\nEND\n",       // quote inside bare field
    ] {
        send(&mut c, bad);
        let reply = read_line(&mut c);
        assert!(reply.starts_with("ERR row 1:"), "{bad:?} → {reply:?}");
        assert_alive(&mut c);
    }
    server.with_engine(|e| assert_eq!(e.stats().baskets[0].arrived, 0));
    server.shutdown();
}

#[test]
fn oversize_command_line_answers_err_and_keeps_session() {
    let server = start_server();
    let mut c = connect(&server);

    // A ~2 MiB command line (limit is 1 MiB): ERR, then business as usual.
    let mut huge = String::with_capacity(2 << 20);
    huge.push_str("EXEC ");
    huge.extend(std::iter::repeat_n('x', 2 << 20));
    huge.push('\n');
    send(&mut c, &huge);
    let reply = read_line(&mut c);
    assert!(reply.starts_with("ERR") && reply.contains("1 MiB"), "got {reply:?}");
    assert_alive(&mut c);
    server.shutdown();
}

#[test]
fn oversize_push_row_poisons_batch_not_session() {
    let server = start_server();
    let mut c = connect(&server);

    let mut batch = String::with_capacity(2 << 20);
    batch.push_str("PUSH s\n@1,10\n");
    batch.extend(std::iter::repeat_n('9', 2 << 20)); // oversize row
    batch.push('\n');
    batch.push_str("@2,20\nEND\n");
    send(&mut c, &batch);
    let reply = read_line(&mut c);
    assert!(
        reply.starts_with("ERR row 2:") && reply.contains("1 MiB"),
        "got {reply:?}"
    );
    server.with_engine(|e| assert_eq!(e.stats().baskets[0].arrived, 0));
    assert_alive(&mut c);

    // Framing stayed intact: the next batch parses cleanly.
    send(&mut c, "PUSH s\n@3,30\nEND\n");
    assert_eq!(read_line(&mut c), "OK PUSHED 1");
    server.shutdown();
}

#[test]
fn errors_do_not_tear_down_other_sessions() {
    let server = start_server();
    let mut bad = connect(&server);
    let mut good = connect(&server);

    send(&mut bad, "PUSH s\nnot,a,row,at,all\nEND\n");
    assert!(read_line(&mut bad).starts_with("ERR"));
    send(&mut good, "PUSH s\n@7,70\nEND\n");
    assert_eq!(read_line(&mut good), "OK PUSHED 1");
    assert_alive(&mut bad);
    assert_alive(&mut good);

    let stats = server.shutdown();
    assert!(stats.errors >= 1);
    assert_eq!(stats.rows_pushed, 1);
}

/// A version-1 binary client (row-batch frame bodies) is refused at the
/// handshake with the unsupported-version `ERR`, and the connection stays
/// in text mode — it never gets to send a frame the server would misread.
#[test]
fn hello_binary_1_is_refused_and_session_stays_text() {
    let server = start_server();
    let mut c = connect(&server);
    send(&mut c, "HELLO BINARY 1\n");
    let reply = read_line(&mut c);
    assert!(
        reply.starts_with("ERR unsupported binary wire version 1 (supported: 2)"),
        "got {reply:?}"
    );
    assert_alive(&mut c);
    server.shutdown();
}
