//! `datacell-cli` — interactive / scripted wire-protocol session.
//!
//! ```text
//! datacell-cli [--addr HOST:PORT] [--fail-on-err] [--binary]
//! ```
//!
//! Reads protocol lines from stdin and forwards them verbatim; prints
//! every server line to stdout. Blank lines and `#` comments are skipped,
//! so a scripted session can be a readable heredoc. On stdin EOF a `QUIT`
//! is sent automatically (unless the script already quit). With
//! `--fail-on-err` the exit status is 1 if the server ever answered
//! `ERR`.
//!
//! `--binary` negotiates `HELLO BINARY 2` after connecting and speaks
//! length-prefixed frames on the wire: stdin lines travel as TEXT
//! frames, and incoming CHUNK frames are printed in the same
//! `CHUNK <id> <n> <seq>` + CSV-rows form the text protocol uses — a
//! scripted session's expected output is identical in both modes.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datacell_server::frame::{self, Frame, FrameBuf};
use datacell_server::protocol::{self, Line, LineBuf};

fn main() {
    let mut addr = "127.0.0.1:4321".to_string();
    let mut fail_on_err = false;
    let mut binary = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("--addr requires a value");
                    std::process::exit(2);
                }
            },
            "--fail-on-err" => fail_on_err = true,
            "--binary" => binary = true,
            other => {
                eprintln!("usage: datacell-cli [--addr HOST:PORT] [--fail-on-err] [--binary]");
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    stream.set_nodelay(true).ok();
    let saw_err = Arc::new(AtomicBool::new(false));

    // `--binary`: negotiate frames while the wire is still line-oriented,
    // before the printer thread attaches. Bytes read past the handshake
    // line are already frames and carry over into the frame buffer.
    let mut leftover: Vec<u8> = Vec::new();
    if binary {
        let expected = format!("OK HELLO BINARY {}", datacell_storage::binio::WIRE_VERSION);
        let hello = format!("HELLO BINARY {}\n", datacell_storage::binio::WIRE_VERSION);
        let mut lines = LineBuf::new();
        let reply = (&stream)
            .write_all(hello.as_bytes())
            .and_then(|()| next_line(&mut &stream, &mut lines));
        match reply {
            Ok(Some(Line::Complete(l))) if l == expected => leftover = lines.take_buffered(),
            Ok(Some(Line::Complete(l))) => {
                eprintln!("datacell-cli: binary negotiation refused: {l}");
                std::process::exit(1);
            }
            Ok(Some(Line::Overlong)) => {
                eprintln!("datacell-cli: binary negotiation failed: overlong HELLO reply");
                std::process::exit(1);
            }
            Ok(None) => {
                eprintln!("datacell-cli: binary negotiation failed: connection closed during HELLO");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("datacell-cli: binary negotiation failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("datacell-cli: cannot clone socket: {e}");
            std::process::exit(1);
        }
    };

    // Reader thread: print every server line until the connection closes.
    // In binary mode frames are decoded and printed in the text protocol's
    // shape (CHUNK header + CSV rows), so scripted expectations hold in
    // both modes.
    let printer = {
        let saw_err = saw_err.clone();
        std::thread::spawn(move || {
            if binary {
                print_frames(reader_stream, leftover, &saw_err);
            } else {
                print_lines(reader_stream, &saw_err);
            }
            std::io::stdout().flush().ok();
        })
    };

    let mut writer = stream;
    let stdin = std::io::stdin();
    let mut sent_quit = false;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let upper = trimmed.to_ascii_uppercase();
        if upper == "QUIT" || upper == "SHUTDOWN" {
            sent_quit = true;
        }
        let wire = if binary {
            frame::encode_text(&line)
        } else {
            format!("{line}\n").into_bytes()
        };
        if writer.write_all(&wire).is_err() {
            break;
        }
    }
    if !sent_quit {
        let quit =
            if binary { frame::encode_text("QUIT") } else { b"QUIT\n".to_vec() };
        let _ = writer.write_all(&quit);
    }
    // The server closes the connection after QUIT/SHUTDOWN; the printer
    // thread drains the remaining replies and exits on EOF.
    printer.join().ok();

    if fail_on_err && saw_err.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}

/// Blocking read of the next server line; `None` once the connection
/// closed (an unterminated final line is still returned first).
fn next_line(stream: &mut impl Read, lines: &mut LineBuf) -> io::Result<Option<Line>> {
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(line) = lines.next_line() {
            return Ok(Some(line));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(lines.finish()),
            Ok(n) => lines.push_bytes(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Text mode: one server line per stdout line.
fn print_lines(mut stream: TcpStream, saw_err: &AtomicBool) {
    let mut lines = LineBuf::new();
    while let Ok(Some(line)) = next_line(&mut stream, &mut lines) {
        match line {
            Line::Complete(l) => {
                if l.starts_with("ERR ") {
                    saw_err.store(true, Ordering::Relaxed);
                }
                println!("{l}");
            }
            Line::Overlong => {
                saw_err.store(true, Ordering::Relaxed);
                eprintln!("datacell-cli: server line exceeded 1 MiB, skipped");
            }
        }
    }
}

/// Binary mode: decode frames, print TEXT payload lines verbatim and
/// CHUNK frames re-rendered in the text protocol's CSV shape.
fn print_frames(mut stream: TcpStream, leftover: Vec<u8>, saw_err: &AtomicBool) {
    let mut fbuf = FrameBuf::new();
    fbuf.push_bytes(&leftover);
    let mut buf = [0u8; 64 * 1024];
    loop {
        loop {
            match fbuf.next_frame() {
                Ok(Some((tag, payload))) => match frame::decode_frame(tag, &payload) {
                    Ok(Frame::Text(t)) => {
                        for l in t.lines() {
                            if l.starts_with("ERR ") {
                                saw_err.store(true, Ordering::Relaxed);
                            }
                            println!("{l}");
                        }
                    }
                    Ok(Frame::Chunk { query, seq, chunk }) => {
                        print!("{}", protocol::encode_chunk(query, seq, &chunk));
                    }
                    Ok(Frame::Push { .. }) => {
                        saw_err.store(true, Ordering::Relaxed);
                        eprintln!("datacell-cli: unexpected PUSH frame from server");
                        return;
                    }
                    Err(e) => {
                        saw_err.store(true, Ordering::Relaxed);
                        eprintln!("datacell-cli: bad frame from server: {}", e.0);
                        return;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    // An untrusted length field cannot be resynced.
                    saw_err.store(true, Ordering::Relaxed);
                    eprintln!("datacell-cli: frame stream desynced: {}", e.0);
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => fbuf.push_bytes(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}
