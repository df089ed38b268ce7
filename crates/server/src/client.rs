//! Blocking wire-protocol client — used by the integration tests, the
//! `datacell-cli` binary and the `e10_server` load generator.
//!
//! Two levels of resilience are available:
//!
//! * [`Client::push_rows_retry`] backs off and retries when the server
//!   sheds the push with `OVERLOADED <retry-after-ms>`;
//! * [`ResumingSubscription`] owns its connection and transparently
//!   reconnects (jittered exponential backoff) when the socket dies,
//!   re-attaching with `SUBSCRIBE … AFTER <epoch> <seq>` so the stream
//!   resumes at the last chunk it saw — across server restarts too.
//!
//! Both work in **text** or **binary** wire mode. [`Client::connect_binary`]
//! (or [`Client::hello_binary`] on an open connection) negotiates
//! `HELLO BINARY <version>`; afterwards commands travel as TEXT frames,
//! ingest as columnar PUSH frames (the row schema is fetched once per
//! stream via `SCHEMA`), and subscription results arrive as columnar
//! CHUNK frames — same replies, same resume coordinates, so everything
//! above the framing layer is mode-agnostic.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use datacell_core::ExecutionMode;
use datacell_storage::binio::{self, ByteReader};
use datacell_storage::{Row, Schema};

use crate::frame::{self, Frame, FrameBuf};
use crate::protocol::{decode_hex, decode_row, encode_row, split_fields, Line, LineBuf, PUSH_END};

/// Socket read granularity.
const READ_BUF: usize = 64 * 1024;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something outside the protocol grammar.
    Protocol(String),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server shed the request under admission control
    /// (`OVERLOADED <retry-after-ms>`). Retry after the hinted backoff —
    /// or let [`Client::push_rows_retry`] do it for you.
    Overloaded {
        /// Server-suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded: retry in {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Decoded reply of [`Client::exec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecReply {
    /// `OK CREATED <name>`.
    Created(String),
    /// `OK DROPPED <name>`.
    Dropped(String),
    /// `OK INSERTED <n>`.
    Inserted(usize),
    /// `ROWS <n> <names>` + rows.
    Rows {
        /// Output column names.
        names: Vec<String>,
        /// Decoded result rows.
        rows: Vec<Row>,
    },
}

/// One mode-aware wire read: what the server produced next.
#[derive(Debug)]
enum Wire {
    /// A reply line (TEXT frame line in binary mode).
    Line(String),
    /// One result chunk with its delivery sequence number.
    Chunk {
        seq: u64,
        rows: Vec<Row>,
    },
    /// Read timeout elapsed with no complete line/frame.
    Idle,
    /// Peer closed the connection.
    Eof,
}

/// A blocking connection to a DataCell server.
pub struct Client {
    stream: TcpStream,
    /// Line accumulator (text mode only).
    lines: LineBuf,
    /// True after `HELLO BINARY` negotiation: both directions are frames.
    binary: bool,
    /// Frame accumulator (binary mode only).
    fbuf: FrameBuf,
    /// Decoded-but-undelivered wire events, in arrival order.
    pending: VecDeque<Wire>,
    /// Per-stream schema cache for columnar PUSH encoding.
    schemas: Vec<(String, Schema)>,
}

impl Client {
    /// Connect to a server (text mode).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            lines: LineBuf::new(),
            binary: false,
            fbuf: FrameBuf::new(),
            pending: VecDeque::new(),
            schemas: Vec::new(),
        })
    }

    /// Connect and negotiate the binary wire protocol.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Client> {
        let mut client = Client::connect(addr)?;
        client.hello_binary()?;
        Ok(client)
    }

    /// True once the connection speaks frames in both directions.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Negotiate binary mode on an open text-mode connection:
    /// `HELLO BINARY <version>` → `OK HELLO BINARY <version>`, after which
    /// both directions switch to length-prefixed frames. Idempotent.
    pub fn hello_binary(&mut self) -> Result<()> {
        if self.binary {
            return Ok(());
        }
        self.send_line(&format!("HELLO BINARY {}", binio::WIRE_VERSION))?;
        let line = self.read_line()?;
        let expected = format!("OK HELLO BINARY {}", binio::WIRE_VERSION);
        if line != expected {
            return Err(ClientError::Protocol(format!(
                "unexpected HELLO reply {line:?} (expected {expected:?})"
            )));
        }
        self.binary = true;
        // Anything buffered past the OK line is already frame bytes —
        // hand it to the frame accumulator.
        let leftover = self.lines.take_buffered();
        self.fbuf.push_bytes(&leftover);
        Ok(())
    }

    /// Send one command line as a **single** write: text mode appends the
    /// newline before writing (two `write_all`s could interleave with a
    /// concurrent writer on a cloned handle, and cost an extra packet
    /// with `TCP_NODELAY`); binary mode wraps the line in a TEXT frame.
    fn send_line(&mut self, line: &str) -> Result<()> {
        if self.binary {
            self.stream.write_all(&frame::encode_text(line))?;
        } else {
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            self.stream.write_all(&buf)?;
        }
        Ok(())
    }

    /// One socket read (blocking up to `timeout`) into the active
    /// codec's buffer. `Some(Idle | Eof)` when no bytes arrived.
    fn read_more(&mut self, timeout: Option<Duration>) -> Result<Option<Wire>> {
        self.stream.set_read_timeout(timeout)?;
        let mut buf = [0u8; READ_BUF];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(Some(Wire::Eof)),
                Ok(n) if self.binary => self.fbuf.push_bytes(&buf[..n]),
                Ok(n) => self.lines.push_bytes(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Some(Wire::Idle))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
            return Ok(None);
        }
    }

    /// Pull the next wire event in binary mode: drain decoded events,
    /// then whole frames out of the accumulator, then the socket.
    fn read_event_binary(&mut self, timeout: Option<Duration>) -> Result<Wire> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            while let Some((tag, payload)) =
                self.fbuf.peek().map_err(|e| ClientError::Protocol(e.0))?
            {
                // Decode straight out of the buffer, then drop the frame.
                let frame = frame::decode_frame(tag, payload);
                self.fbuf.consume();
                match frame.map_err(|e| ClientError::Protocol(e.0))? {
                    Frame::Text(text) => {
                        for line in text.lines() {
                            self.pending.push_back(Wire::Line(line.to_owned()));
                        }
                    }
                    Frame::Chunk { seq, chunk, .. } => {
                        self.pending.push_back(Wire::Chunk {
                            seq,
                            rows: chunk.rows().collect(),
                        });
                    }
                    Frame::Push { .. } => {
                        return Err(ClientError::Protocol(
                            "PUSH frames flow client to server only".into(),
                        ));
                    }
                }
            }
            if self.pending.is_empty() {
                if let Some(ev) = self.read_more(timeout)? {
                    return Ok(ev);
                }
            }
        }
    }

    /// Next text line (text mode): [`Wire::Line`], `Idle` or `Eof`.
    fn read_event_text(&mut self, timeout: Option<Duration>) -> Result<Wire> {
        loop {
            let line = match self.lines.next_line() {
                Some(line) => line,
                None => match self.read_more(timeout)? {
                    None => continue,
                    Some(Wire::Eof) => match self.lines.finish() {
                        Some(line) => line,
                        None => return Ok(Wire::Eof),
                    },
                    Some(ev) => return Ok(ev),
                },
            };
            return match line {
                Line::Complete(l) => Ok(Wire::Line(l)),
                Line::Overlong => {
                    Err(ClientError::Protocol("server line exceeds 1 MiB".into()))
                }
            };
        }
    }

    /// One streaming-mode wire read: a chunk, a control line
    /// (`OK STOPPED` / `ERR` / `PONG`), idle, or EOF — mode-agnostic.
    fn read_stream_event(&mut self, timeout: Option<Duration>) -> Result<Wire> {
        if self.binary {
            return self.read_event_binary(timeout);
        }
        match self.read_event_text(timeout)? {
            Wire::Line(l) if l.starts_with("CHUNK ") => {
                let (seq, rows) = self.read_chunk_frame(&l)?;
                Ok(Wire::Chunk { seq, rows })
            }
            other => Ok(other),
        }
    }

    /// Read one reply line, blocking indefinitely.
    fn read_line(&mut self) -> Result<String> {
        let event = if self.binary {
            self.read_event_binary(None)?
        } else {
            self.read_event_text(None)?
        };
        match event {
            Wire::Line(l) => Ok(l),
            Wire::Chunk { .. } => Err(ClientError::Protocol(
                "unexpected CHUNK frame while awaiting a reply line".into(),
            )),
            Wire::Eof => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Wire::Idle => Err(ClientError::Protocol("idle on blocking read".into())),
        }
    }

    /// Read one reply line, surfacing `ERR` as [`ClientError::Server`]
    /// and `OVERLOADED` as [`ClientError::Overloaded`].
    fn read_reply(&mut self) -> Result<String> {
        let line = self.read_line()?;
        if let Some(msg) = line.strip_prefix("ERR ") {
            return Err(ClientError::Server(msg.to_owned()));
        }
        if let Some(rest) = line.strip_prefix("OVERLOADED ") {
            let retry_after_ms = rest.trim().parse().map_err(|_| {
                ClientError::Protocol(format!("bad OVERLOADED hint {line:?}"))
            })?;
            return Err(ClientError::Overloaded { retry_after_ms });
        }
        Ok(line)
    }

    fn expect_reply(&mut self, prefix: &str) -> Result<String> {
        let line = self.read_reply()?;
        line.strip_prefix(prefix)
            .map(|rest| rest.trim().to_owned())
            .ok_or_else(|| {
                ClientError::Protocol(format!("expected {prefix:?}, got {line:?}"))
            })
    }

    /// `PING` → `PONG`.
    pub fn ping(&mut self) -> Result<()> {
        self.send_line("PING")?;
        let line = self.read_reply()?;
        if line == "PONG" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("expected PONG, got {line:?}")))
        }
    }

    /// Run one SQL statement.
    pub fn exec(&mut self, sql: &str) -> Result<ExecReply> {
        self.send_line(&format!("EXEC {sql}"))?;
        let line = self.read_reply()?;
        if let Some(rest) = line.strip_prefix("OK CREATED ") {
            return Ok(ExecReply::Created(rest.to_owned()));
        }
        if let Some(rest) = line.strip_prefix("OK DROPPED ") {
            return Ok(ExecReply::Dropped(rest.to_owned()));
        }
        if let Some(rest) = line.strip_prefix("OK INSERTED ") {
            let n = rest
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad count {rest:?}")))?;
            return Ok(ExecReply::Inserted(n));
        }
        if let Some(rest) = line.strip_prefix("ROWS ") {
            let (count, names) = rest
                .split_once(' ')
                .map(|(c, n)| (c, n.to_owned()))
                .unwrap_or((rest, String::new()));
            let count: usize = count
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad row count in {line:?}")))?;
            let names = decode_names(&names)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let row_line = self.read_line()?;
                rows.push(
                    decode_row(&row_line).map_err(|e| ClientError::Protocol(e.0))?,
                );
            }
            return Ok(ExecReply::Rows { names, rows });
        }
        Err(ClientError::Protocol(format!("unexpected EXEC reply {line:?}")))
    }

    /// Register a continuous query, returning its id.
    pub fn register(&mut self, sql: &str) -> Result<u64> {
        self.send_line(&format!("REGISTER {sql}"))?;
        self.read_query_id()
    }

    /// Register with an explicit execution mode.
    pub fn register_with_mode(&mut self, sql: &str, mode: ExecutionMode) -> Result<u64> {
        let kw = match mode {
            ExecutionMode::Incremental => "INCREMENTAL",
            ExecutionMode::Reevaluate => "REEVAL",
        };
        self.send_line(&format!("REGISTER {kw} {sql}"))?;
        self.read_query_id()
    }

    fn read_query_id(&mut self) -> Result<u64> {
        let rest = self.expect_reply("OK QUERY ")?;
        rest.parse()
            .map_err(|_| ClientError::Protocol(format!("bad query id {rest:?}")))
    }

    /// Deregister a continuous query.
    pub fn deregister(&mut self, id: u64) -> Result<()> {
        self.send_line(&format!("DEREGISTER {id}"))?;
        self.expect_reply("OK DEREGISTERED ").map(|_| ())
    }

    /// Fetch (and cache) a stream's schema via `SCHEMA <stream>` — the
    /// client-side half of columnar PUSH encoding. Public so latency-
    /// sensitive producers can prefetch instead of paying the round trip
    /// on their first [`push_rows`](Self::push_rows).
    pub fn schema_of(&mut self, stream: &str) -> Result<Schema> {
        if let Some((_, s)) = self.schemas.iter().find(|(n, _)| n == stream) {
            return Ok(s.clone());
        }
        self.send_line(&format!("SCHEMA {stream}"))?;
        let rest = self.expect_reply("OK SCHEMA ")?;
        let (name, hex) = rest.split_once(' ').ok_or_else(|| {
            ClientError::Protocol(format!("bad SCHEMA reply {rest:?}"))
        })?;
        if name != stream {
            return Err(ClientError::Protocol(format!(
                "SCHEMA reply names {name:?}, asked for {stream:?}"
            )));
        }
        let bytes = decode_hex(hex).map_err(|e| ClientError::Protocol(e.0))?;
        let mut r = ByteReader::new(&bytes);
        let schema = binio::decode_schema(&mut r)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.schemas.push((stream.to_owned(), schema.clone()));
        Ok(schema)
    }

    /// Bulk-ingest rows into a stream (the socket-receptor path). Returns
    /// how many rows the basket accepted.
    ///
    /// Text mode sends the multi-line `PUSH … END` block; binary mode
    /// encodes one columnar PUSH frame against the stream's schema
    /// (fetched once via `SCHEMA` and cached per connection). Either way
    /// the batch leaves in a single write.
    pub fn push_rows(&mut self, stream: &str, rows: &[Row]) -> Result<usize> {
        if self.binary {
            let schema = self.schema_of(stream)?;
            let bytes = frame::encode_push_frame(stream, &schema, rows)
                .map_err(|e| ClientError::Protocol(e.0))?;
            self.stream.write_all(&bytes)?;
        } else {
            let mut block = format!("PUSH {stream}\n");
            for row in rows {
                block.push_str(&encode_row(row));
                block.push('\n');
            }
            block.push_str(PUSH_END);
            block.push('\n');
            self.stream.write_all(block.as_bytes())?;
        }
        match self.expect_reply("OK PUSHED ") {
            Ok(rest) => rest
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad push count {rest:?}"))),
            Err(e) => {
                // A server-side rejection may mean the stream was dropped
                // and recreated with a different shape — forget the cached
                // schema so the next attempt re-fetches it.
                if matches!(e, ClientError::Server(_)) {
                    self.schemas.retain(|(n, _)| n != stream);
                }
                Err(e)
            }
        }
    }

    /// [`Client::push_rows`], but when the server sheds the batch with
    /// `OVERLOADED <retry-after-ms>` sleep the hinted backoff and retry,
    /// up to `max_retries` additional attempts.
    pub fn push_rows_retry(
        &mut self,
        stream: &str,
        rows: &[Row],
        max_retries: u32,
    ) -> Result<usize> {
        let mut attempts = 0;
        loop {
            match self.push_rows(stream, rows) {
                Err(ClientError::Overloaded { retry_after_ms }) if attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                other => return other,
            }
        }
    }

    /// Parse a `CHUNK <query> <n> <seq>` header and read its `n` row
    /// lines (blocking — the server writes a frame contiguously).
    fn read_chunk_frame(&mut self, header: &str) -> Result<(u64, Vec<Row>)> {
        let Some(rest) = header.strip_prefix("CHUNK ") else {
            return Err(ClientError::Protocol(format!(
                "expected CHUNK frame, got {header:?}"
            )));
        };
        let mut it = rest.split_whitespace().skip(1);
        let count: usize = it
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad CHUNK header {header:?}")))?;
        let seq: u64 = it
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad CHUNK header {header:?}")))?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let line = self.read_line()?;
            rows.push(decode_row(&line).map_err(|e| ClientError::Protocol(e.0))?);
        }
        Ok((seq, rows))
    }

    /// Send `SUBSCRIBE` and parse the
    /// `OK SUBSCRIBED <id> <epoch> <next-seq> <names>` handshake.
    fn start_subscription(
        &mut self,
        query: u64,
        limit: Option<u64>,
        after: Option<(u64, u64)>,
    ) -> Result<(u64, u64, Vec<String>)> {
        let mut cmd = format!("SUBSCRIBE {query}");
        if let Some(n) = limit {
            cmd.push_str(&format!(" LIMIT {n}"));
        }
        if let Some((epoch, seq)) = after {
            cmd.push_str(&format!(" AFTER {epoch} {seq}"));
        }
        self.send_line(&cmd)?;
        let rest = self.expect_reply("OK SUBSCRIBED ")?;
        let mut it = rest.splitn(4, ' ');
        let bad = || ClientError::Protocol(format!("bad SUBSCRIBED handshake {rest:?}"));
        let _id = it.next().ok_or_else(bad)?;
        let epoch: u64 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let next_seq: u64 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let names = decode_names(it.next().unwrap_or(""))?;
        Ok((epoch, next_seq, names))
    }

    /// Read a `<tag> <line-count>` framed multi-line reply body.
    fn read_framed(&mut self, tag: &str) -> Result<String> {
        let rest = self.expect_reply(&format!("{tag} "))?;
        let lines: usize = rest
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad {tag} length {rest:?}")))?;
        let mut out = String::new();
        for _ in 0..lines {
            out.push_str(&self.read_line()?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Full `STATS` report text.
    pub fn stats(&mut self) -> Result<String> {
        self.send_line("STATS")?;
        self.read_framed("STATS")
    }

    /// Extended `STATS DETAIL` report (adds the per-factory analyze table
    /// and the lifecycle-latency percentile summary).
    pub fn stats_detail(&mut self) -> Result<String> {
        self.send_line("STATS DETAIL")?;
        self.read_framed("STATS")
    }

    /// Metrics registry snapshot in Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<String> {
        self.send_line("METRICS")?;
        self.read_framed("METRICS")
    }

    /// `EXPLAIN ANALYZE <id>`: the query's plan plus its observed-runtime
    /// row (firings, rows, latency percentiles).
    pub fn explain_analyze(&mut self, id: u64) -> Result<String> {
        self.send_line(&format!("EXPLAIN ANALYZE {id}"))?;
        self.read_framed("ANALYZE")
    }

    /// Drain the server's flight recorder (`n` most recent events, or all).
    pub fn trace_dump(&mut self, n: Option<usize>) -> Result<String> {
        match n {
            Some(n) => self.send_line(&format!("TRACE DUMP {n}"))?,
            None => self.send_line("TRACE DUMP")?,
        }
        self.read_framed("TRACE")
    }

    /// Enter streaming mode for `query`. With a limit the server ends the
    /// stream by itself after that many chunks.
    pub fn subscribe(&mut self, query: u64, limit: Option<u64>) -> Result<Subscription<'_>> {
        let (epoch, next_seq, names) = self.start_subscription(query, limit, None)?;
        Ok(Subscription {
            client: self,
            names,
            epoch,
            last_seq: next_seq.saturating_sub(1),
            finished: false,
        })
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.send_line("SHUTDOWN")?;
        self.expect_reply("OK SHUTDOWN").map(|_| ())
    }

    /// Close the session politely.
    pub fn quit(mut self) -> Result<()> {
        self.send_line("QUIT")?;
        self.expect_reply("OK BYE").map(|_| ())
    }
}

fn decode_names(csv: &str) -> Result<Vec<String>> {
    if csv.is_empty() {
        return Ok(Vec::new());
    }
    Ok(split_fields(csv)
        .map_err(|e| ClientError::Protocol(e.0))?
        .into_iter()
        .map(|f| f.text)
        .collect())
}

/// An active subscription: the connection is in streaming mode until
/// [`Subscription::stop`] or the server ends the stream (`LIMIT`,
/// deregistration, shutdown).
///
/// Leave streaming mode with [`Subscription::stop`] (or by observing
/// [`Subscription::finished`]) before reusing the [`Client`] for other
/// commands — merely dropping an unfinished subscription leaves the
/// server streaming on this connection, and subsequent commands would
/// read `CHUNK` frames as their replies.
pub struct Subscription<'a> {
    client: &'a mut Client,
    names: Vec<String>,
    epoch: u64,
    last_seq: u64,
    finished: bool,
}

impl Subscription<'_> {
    /// Output column names of the subscribed query.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Resume coordinates `(epoch, seq)` of the latest chunk delivered —
    /// pass them to `SUBSCRIBE … AFTER <epoch> <seq>` on a fresh
    /// connection to continue the stream where this one stands.
    pub fn position(&self) -> (u64, u64) {
        (self.epoch, self.last_seq)
    }

    /// True once the server ended the stream (`OK STOPPED` seen).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Wait up to `timeout` for the next chunk. `Ok(None)` means either
    /// the timeout elapsed or the stream ended — check
    /// [`Subscription::finished`] to tell them apart.
    pub fn next_chunk(&mut self, timeout: Duration) -> Result<Option<Vec<Row>>> {
        if self.finished {
            return Ok(None);
        }
        match self.client.read_stream_event(Some(timeout))? {
            Wire::Idle => Ok(None),
            Wire::Eof => {
                self.finished = true;
                Ok(None)
            }
            Wire::Line(l) if l.starts_with("OK STOPPED") => {
                self.finished = true;
                Ok(None)
            }
            Wire::Line(l) => Err(ClientError::Protocol(format!(
                "expected CHUNK frame, got {l:?}"
            ))),
            Wire::Chunk { seq, rows } => {
                self.last_seq = seq;
                Ok(Some(rows))
            }
        }
    }

    /// Leave streaming mode: send `STOP`, drain in-flight chunks, return
    /// them together with the final `(chunks, rows)` totals the server
    /// reported.
    pub fn stop(mut self) -> Result<(Vec<Vec<Row>>, u64, u64)> {
        if self.finished {
            return Ok((Vec::new(), 0, 0));
        }
        self.client.send_line("STOP")?;
        let mut tail = Vec::new();
        let (chunks, rows) = loop {
            match self.client.read_stream_event(None)? {
                Wire::Line(line) => {
                    let Some(rest) = line.strip_prefix("OK STOPPED ") else {
                        return Err(ClientError::Protocol(format!(
                            "expected CHUNK frame, got {line:?}"
                        )));
                    };
                    self.finished = true;
                    let mut it = rest.split_whitespace();
                    let chunks = it.next().and_then(|n| n.parse().ok()).unwrap_or(0);
                    let rows = it.next().and_then(|n| n.parse().ok()).unwrap_or(0);
                    break (chunks, rows);
                }
                // A CHUNK frame raced with our STOP; keep it.
                Wire::Chunk { seq, rows } => {
                    self.last_seq = seq;
                    tail.push(rows);
                }
                Wire::Idle => {
                    return Err(ClientError::Protocol("idle on blocking read".into()))
                }
                Wire::Eof => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
            }
        };
        // Resync: if the server ended the stream on its own (LIMIT,
        // deregistration) in the instant before our STOP arrived, the
        // STOP was answered with an ERR in command mode that is still in
        // flight. A PING round-trip flushes it deterministically.
        self.client.send_line("PING")?;
        loop {
            let line = self.client.read_line()?;
            if line == "PONG" {
                return Ok((tail, chunks, rows));
            }
            if !line.starts_with("ERR ") {
                return Err(ClientError::Protocol(format!(
                    "unexpected line while resyncing after STOP: {line:?}"
                )));
            }
        }
    }
}

/// Reconnect/backoff knobs for [`ResumingSubscription`].
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Consecutive failed reconnect attempts before giving up.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt (plus jitter) up to `cap`.
    pub base_delay: Duration,
    /// Upper bound on the per-attempt delay.
    pub cap: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        }
    }
}

/// Wall-clock jitter in `0..max(delay/2, 1ms)` — the server crate
/// deliberately carries no RNG dependency, and de-synchronising a herd
/// of reconnecting clients only needs *spread*, not randomness quality.
fn jitter(delay: Duration) -> Duration {
    let span_ms = (delay.as_millis() as u64 / 2).max(1);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    Duration::from_millis(nanos % span_ms)
}

/// One streaming-mode read, decoded.
enum Poll {
    Idle,
    Chunk { seq: u64, rows: Vec<Row> },
    Stopped,
}

/// A subscription that **owns** its connection and survives losing it.
///
/// When the socket dies mid-stream the subscription reconnects with
/// jittered exponential backoff (see [`ReconnectPolicy`]) and re-attaches
/// with `SUBSCRIBE <id> AFTER <epoch> <seq>`, so the server's replay ring
/// redelivers exactly the chunks this client has not seen — including
/// across a server restart (the epoch changes and the new incarnation
/// replays everything it retains for the query).
///
/// End-of-stream semantics: `OK STOPPED` on the wire is ambiguous — both
/// graceful server shutdown and query deregistration end the stream that
/// way. The subscription resolves it by re-attaching: if the new
/// incarnation immediately ends the stream again without delivering a
/// single chunk, the query is gone and [`ResumingSubscription::finished`]
/// becomes true; otherwise the stream simply continues.
pub struct ResumingSubscription {
    addr: String,
    query: u64,
    policy: ReconnectPolicy,
    binary: bool,
    client: Option<Client>,
    names: Vec<String>,
    epoch: u64,
    last_seq: u64,
    attached_once: bool,
    chunks_since_attach: u64,
    reconnects: u64,
    finished: bool,
}

impl ResumingSubscription {
    /// Subscribe to `query` at `addr` with the default reconnect policy.
    pub fn connect(addr: impl Into<String>, query: u64) -> Result<ResumingSubscription> {
        ResumingSubscription::connect_with(addr, query, ReconnectPolicy::default())
    }

    /// Subscribe with an explicit reconnect policy.
    pub fn connect_with(
        addr: impl Into<String>,
        query: u64,
        policy: ReconnectPolicy,
    ) -> Result<ResumingSubscription> {
        ResumingSubscription::connect_mode(addr, query, policy, false)
    }

    /// Subscribe over the binary wire protocol (default reconnect
    /// policy). Every attach — including reconnects after a lost socket
    /// or server restart — renegotiates `HELLO BINARY` before resuming
    /// with `AFTER <epoch> <seq>`.
    pub fn connect_binary(addr: impl Into<String>, query: u64) -> Result<ResumingSubscription> {
        ResumingSubscription::connect_mode(addr, query, ReconnectPolicy::default(), true)
    }

    /// Binary-mode subscribe with an explicit reconnect policy.
    pub fn connect_binary_with(
        addr: impl Into<String>,
        query: u64,
        policy: ReconnectPolicy,
    ) -> Result<ResumingSubscription> {
        ResumingSubscription::connect_mode(addr, query, policy, true)
    }

    fn connect_mode(
        addr: impl Into<String>,
        query: u64,
        policy: ReconnectPolicy,
        binary: bool,
    ) -> Result<ResumingSubscription> {
        let mut sub = ResumingSubscription {
            addr: addr.into(),
            query,
            policy,
            binary,
            client: None,
            names: Vec::new(),
            epoch: 0,
            last_seq: 0,
            attached_once: false,
            chunks_since_attach: 0,
            reconnects: 0,
            finished: false,
        };
        sub.attach()?;
        Ok(sub)
    }

    /// Output column names of the subscribed query.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Resume coordinates `(epoch, seq)` of the latest chunk delivered.
    pub fn position(&self) -> (u64, u64) {
        (self.epoch, self.last_seq)
    }

    /// How many times the subscription re-attached after losing its
    /// connection (or riding out a server restart).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// True once the stream ended for good (query deregistered).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Connect and (re-)enter streaming mode, resuming after the last
    /// chunk seen if this is a re-attach.
    fn attach(&mut self) -> Result<()> {
        let mut client = Client::connect(self.addr.as_str())?;
        if self.binary {
            client.hello_binary()?;
        }
        let after = if self.attached_once {
            Some((self.epoch, self.last_seq))
        } else {
            None
        };
        let (epoch, next_seq, names) = client.start_subscription(self.query, None, after)?;
        if epoch != self.epoch {
            // New server incarnation: fresh sequence space. The server
            // replays everything it still retains for this query, so our
            // cursor restarts just behind whatever is about to arrive.
            self.epoch = epoch;
            self.last_seq = next_seq.saturating_sub(1);
        }
        self.names = names;
        self.attached_once = true;
        self.chunks_since_attach = 0;
        self.client = Some(client);
        Ok(())
    }

    /// Reconnect with jittered exponential backoff until attached or the
    /// policy's attempt budget runs out.
    fn reattach(&mut self) -> Result<()> {
        self.client = None;
        let mut delay = self.policy.base_delay;
        let mut last_err = ClientError::Protocol("reconnect budget is zero".into());
        for _ in 0..self.policy.max_attempts.max(1) {
            std::thread::sleep(delay + jitter(delay));
            match self.attach() {
                Ok(()) => {
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
            delay = delay.saturating_mul(2).min(self.policy.cap);
        }
        Err(last_err)
    }

    /// One streaming read on an attached connection.
    fn poll(client: &mut Client, timeout: Duration) -> Result<Poll> {
        match client.read_stream_event(Some(timeout))? {
            Wire::Idle => Ok(Poll::Idle),
            Wire::Eof => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Wire::Line(l) if l.starts_with("OK STOPPED") => Ok(Poll::Stopped),
            Wire::Line(l) => Err(ClientError::Protocol(format!(
                "expected CHUNK frame, got {l:?}"
            ))),
            Wire::Chunk { seq, rows } => Ok(Poll::Chunk { seq, rows }),
        }
    }

    /// Wait up to `timeout` for the next chunk, transparently
    /// reconnecting and resuming if the connection dies. `Ok(None)` means
    /// either an idle timeout or the stream genuinely ended — check
    /// [`ResumingSubscription::finished`]. Reconnect backoff happens
    /// inside this call, so one invocation can take longer than
    /// `timeout` while a reconnect is in progress.
    pub fn next_chunk(&mut self, timeout: Duration) -> Result<Option<Vec<Row>>> {
        if self.finished {
            return Ok(None);
        }
        loop {
            if self.client.is_none() {
                self.reattach()?;
            }
            let step = match self.client.as_mut() {
                Some(client) => ResumingSubscription::poll(client, timeout),
                None => continue,
            };
            match step {
                Ok(Poll::Idle) => return Ok(None),
                Ok(Poll::Chunk { seq, rows }) => {
                    if seq <= self.last_seq {
                        // Defensive: never deliver a chunk twice.
                        continue;
                    }
                    self.last_seq = seq;
                    self.chunks_since_attach += 1;
                    return Ok(Some(rows));
                }
                Ok(Poll::Stopped) => {
                    if self.chunks_since_attach == 0 {
                        // Re-attached and the stream ended again without a
                        // single chunk: the query is gone.
                        self.finished = true;
                        self.client = None;
                        return Ok(None);
                    }
                    // Probably a server shutdown/restart: re-attach and
                    // let the replay ring arbitrate what we still get.
                    self.client = None;
                }
                Err(ClientError::Io(_)) => {
                    // Connection died mid-stream; resume on a fresh one.
                    self.client = None;
                }
                Err(e) => return Err(e),
            }
        }
    }
}
