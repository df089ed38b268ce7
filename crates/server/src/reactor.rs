//! The reactor: one thread driving the listener and every connection
//! through readiness-based I/O.
//!
//! The thread multiplexes the listening socket and all connections over
//! an epoll [`Poller`] (oneshot readiness, re-armed after every event),
//! so thousands of clients cost one thread, not thousands. Text and
//! binary connections differ only in their [`Codec`]:
//!
//! * **line** — [`LineBuf`] cuts `\n`-terminated commands (and the CSV
//!   rows of a `PUSH … END` block) out of the byte stream; replies and
//!   `CHUNK`s go out as plain text lines;
//! * **frame** — [`FrameBuf`] cuts length-prefixed frames; replies travel
//!   as TEXT frames, ingest as columnar PUSH frames, results as CHUNK
//!   frames.
//!
//! Every connection starts on the line codec; `HELLO BINARY 2` swaps it
//! for the frame codec in place, and bytes the client pipelined behind
//! the handshake line move over to the frame buffer. Above the codec, one
//! [`dispatch`] serves both, so the two modes answer every command alike.
//!
//! Per connection the reactor keeps the codec's reassembly buffer on the
//! read side and a queue of pending write buffers on the write side.
//! Subscription `CHUNK`s enter that queue as [`Arc`]-shared bytes straight
//! from the replay ring's encode-once cache ([`SharedState::fetch_ring`])
//! — one encode per chunk and format, shared by every subscriber. Each
//! reply or chunk is queued whole and buffers drain strictly in order, so
//! they are never interleaved on the wire regardless of how many partial
//! writes a slow client forces (a write deadline kills the *connection*,
//! never splices the stream).
//!
//! Deadlines apply to every connection alike: idle command-mode
//! connections are reaped, a text `PUSH` block must reach `END` within
//! the push-frame timeout, and a write queue that makes no progress for
//! the write timeout marks the connection dead. Backpressure: a
//! connection whose write queue exceeds [`HIGH_WATER`] stops pulling from
//! the replay ring (the ring keeps retaining; a reconnect with `AFTER`
//! recovers). Fault injection ([`FaultPoint::SocketRead`] /
//! [`FaultPoint::SocketWrite`]) is consulted at every socket syscall the
//! reactor issues, same as the WAL consults its points.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacell_core::{
    Counter, DataCell, EngineError, EngineObs, ExecOutcome, FaultKind, FaultPoint, Gauge,
};
use datacell_storage::binio::{encode_schema, WIRE_VERSION};
use datacell_storage::{Row, Schema};
use polling::{Event, Events, Poller};

use crate::frame::{decode_frame, encode_text, Frame, FrameBuf};
use crate::protocol::{
    decode_typed_row, encode_hex, encode_names, encode_row, err_line, parse_command, Command,
    Line, LineBuf, PUSH_END,
};
use crate::replay::WireFormat;
use crate::server::SharedState;

/// Poll granularity: the reactor wakes at least this often to pull
/// replay rings forward, check deadlines and notice shutdown.
const TICK: Duration = Duration::from_millis(5);

/// Poller key of the listening socket (connections count up from 0).
const LISTENER: usize = usize::MAX;

/// Read buffer size per syscall.
const READ_BUF: usize = 64 * 1024;

/// Socket reads per readiness event before yielding to other
/// connections (fairness under a firehose producer).
const READ_ROUNDS: usize = 4;

/// Stop pulling chunks from the replay ring once this many bytes are
/// queued for one connection (resume below it next tick).
const HIGH_WATER: usize = 4 << 20;

/// Chunks pulled from a ring per fill round.
const FILL_BATCH: usize = 64;

/// Best-effort flush budget for queued replies during shutdown drain.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// Reply sent when a text line exceeds the protocol limit.
const OVERLONG_MSG: &str = "protocol line exceeds 1 MiB";

/// One connection's counters (the `== session ==` section of `STATS`).
#[derive(Debug, Default)]
struct ConnStats {
    commands: u64,
    rows_pushed: u64,
    chunks_delivered: u64,
    rows_delivered: u64,
    errors: u64,
}

/// How a connection's bytes become commands, and its replies and chunks
/// become bytes.
enum Codec {
    /// Text protocol: `\n`-terminated lines.
    Line(LineBuf),
    /// Binary protocol (after `HELLO BINARY`): length-prefixed frames.
    Frame(FrameBuf),
}

impl Codec {
    fn format(&self) -> WireFormat {
        match self {
            Codec::Line(_) => WireFormat::Text,
            Codec::Frame(_) => WireFormat::Binary,
        }
    }
}

/// A live subscription's position and per-stream counters.
#[derive(Clone, Copy)]
struct Sub {
    query: u64,
    limit: Option<u64>,
    cursor: u64,
    chunks: u64,
    rows: u64,
}

/// A text `PUSH` block being collected, row by row, until `END`.
struct PushBlock {
    stream: String,
    /// The stream's schema, or the rendered error that rejects the block.
    schema: Result<Schema, String>,
    rows: Vec<Row>,
    /// First row error: the block is consumed through `END`, then
    /// answered with this instead of being applied.
    bad: Option<String>,
    /// Restarts with every row received.
    deadline: Instant,
}

/// What a connection is currently doing.
enum Mode {
    /// Awaiting commands.
    Command,
    /// Text only: inside a CSV `PUSH … END` block.
    PushRows(PushBlock),
    /// Subscribed: `CHUNK`s flow out until STOP / limit / close.
    Streaming(Sub),
}

/// One pending write buffer: replies are owned, chunks are shared with
/// every other subscriber of the same query.
enum WriteBuf {
    Shared(Arc<Vec<u8>>),
    Owned(Vec<u8>),
}

impl WriteBuf {
    fn as_bytes(&self) -> &[u8] {
        match self {
            WriteBuf::Shared(b) => b,
            WriteBuf::Owned(b) => b,
        }
    }
}

/// Reactor-owned metrics (registered on the engine's registry so they
/// ride the existing `METRICS` surface).
struct Metrics {
    sessions: Arc<Gauge>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl Metrics {
    fn new(obs: &EngineObs) -> Metrics {
        let r = obs.registry();
        Metrics {
            sessions: r.gauge(
                "datacell_reactor_sessions",
                "connections currently driven by the reactor, text and binary",
            ),
            cache_hits: r.counter(
                "datacell_reactor_frame_cache_hits_total",
                "CHUNKs served from the encode-once cache",
            ),
            cache_misses: r.counter(
                "datacell_reactor_frame_cache_misses_total",
                "CHUNKs encoded fresh (first delivery in their format)",
            ),
        }
    }
}

/// Immutable context threaded through the per-connection handlers.
struct Ctx<'a> {
    shared: &'a SharedState,
    obs: &'a EngineObs,
    metrics: &'a Metrics,
}

/// One reactor-driven connection.
struct Conn {
    stream: TcpStream,
    codec: Codec,
    wq: VecDeque<WriteBuf>,
    /// Byte offset into the front write buffer.
    wpos: usize,
    /// Total unsent bytes queued across `wq` (backpressure accounting).
    queued: usize,
    mode: Mode,
    stats: ConnStats,
    last_input: Instant,
    last_write_progress: Instant,
    /// Whether the poller is currently armed for writability.
    armed_writable: bool,
    /// Graceful close requested: drain the write queue, then close.
    closing: bool,
    /// Hard close: tear down at the next reap, queue and all.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            codec: Codec::Line(LineBuf::new()),
            wq: VecDeque::new(),
            wpos: 0,
            queued: 0,
            mode: Mode::Command,
            stats: ConnStats::default(),
            last_input: now,
            last_write_progress: now,
            armed_writable: false,
            closing: false,
            dead: false,
        }
    }

    fn enqueue(&mut self, buf: WriteBuf) {
        self.queued += buf.as_bytes().len();
        self.wq.push_back(buf);
    }

    /// Queue reply line(s) in the connection's codec: raw text, or one
    /// TEXT frame.
    fn reply(&mut self, text: String) {
        let bytes = match self.codec {
            Codec::Line(_) => text.into_bytes(),
            Codec::Frame(_) => encode_text(&text),
        };
        self.enqueue(WriteBuf::Owned(bytes));
    }
}

/// Outcome of one readiness-driven read pass.
enum ReadOutcome {
    /// Read what was available (possibly nothing).
    Progress,
    /// Peer closed its write side.
    Eof,
    /// Unrecoverable socket error — tear the connection down.
    Dead,
}

/// Register the listener in a fresh poller and start the reactor thread.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<SharedState>,
    obs: Arc<EngineObs>,
) -> io::Result<JoinHandle<()>> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(&listener, Event::readable(LISTENER))?;
    std::thread::Builder::new()
        .name("datacell-reactor".into())
        .spawn(move || reactor_loop(&poller, &listener, &shared, &obs))
}

/// The reactor thread body: poll, accept, dispatch, repeat — until
/// shutdown, then drain.
fn reactor_loop(poller: &Poller, listener: &TcpListener, shared: &SharedState, obs: &EngineObs) {
    let metrics = Metrics::new(obs);
    let ctx = Ctx { shared, obs, metrics: &metrics };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key: usize = 0;
    let mut events = Events::new();

    while !shared.is_shutdown() {
        if poller.wait(&mut events, Some(TICK)).is_err() {
            std::thread::sleep(TICK);
        }
        let fired: HashSet<usize> = events.iter().map(|e| e.key).collect();
        for &key in &fired {
            if key == LISTENER {
                accept(&ctx, poller, listener, &mut conns, &mut next_key);
            } else if let Some(conn) = conns.get_mut(&key) {
                handle_event(&ctx, conn);
            }
        }
        // Advance every replay ring even with no subscriber attached, so
        // sequence numbers exist the moment a client (re)subscribes.
        shared.drain_rings();
        service_all(&ctx, &mut conns);
        rearm(poller, &mut conns, &fired);
        reap(&ctx, poller, &mut conns);
    }
    final_drain(&ctx, poller, &mut conns);
}

/// Accept every pending connection, then re-arm the listener.
fn accept(
    ctx: &Ctx<'_>,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // WouldBlock: drained. Anything else (fd exhaustion, an aborted
            // handshake) is retried on the next readiness event.
            Err(_) => break,
        };
        let key = *next_key;
        *next_key += 1;
        if stream.set_nonblocking(true).is_err()
            || poller.add(&stream, Event::readable(key)).is_err()
        {
            continue;
        }
        stream.set_nodelay(true).ok();
        ctx.shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.sessions.add(1);
        conns.insert(key, Conn::new(stream));
    }
    if let Err(e) = poller.modify(listener, Event::readable(LISTENER)) {
        eprintln!("datacell-server: cannot re-arm the listener: {e}");
    }
}

/// One readiness event: pull bytes, process complete commands, flush.
fn handle_event(ctx: &Ctx<'_>, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    match read_some(ctx, conn) {
        ReadOutcome::Progress => process_input(ctx, conn),
        ReadOutcome::Eof => {
            // Half-close friendly: act on everything already received
            // (including an unterminated final line), let the replies
            // drain, then close.
            process_input(ctx, conn);
            if let Codec::Line(lines) = &mut conn.codec {
                if let Some(line) = lines.finish() {
                    on_line(ctx, conn, line);
                }
            }
            conn.closing = true;
        }
        ReadOutcome::Dead => {
            conn.dead = true;
            return;
        }
    }
    flush(ctx, conn);
}

/// Non-blocking read pass, bounded per event for fairness.
fn read_some(ctx: &Ctx<'_>, conn: &mut Conn) -> ReadOutcome {
    let mut buf = [0u8; READ_BUF];
    let mut rounds = 0;
    while rounds < READ_ROUNDS {
        let mut cap = READ_BUF;
        match ctx.shared.faults.check(FaultPoint::SocketRead) {
            None => {}
            // An injected stall skips this readiness pass entirely.
            Some(FaultKind::Stall) => return ReadOutcome::Progress,
            // A short read: a single byte reaches the codec.
            Some(FaultKind::ShortWrite) => cap = 1,
            Some(FaultKind::Eio) | Some(FaultKind::Enospc) => return ReadOutcome::Dead,
        }
        match conn.stream.read(&mut buf[..cap]) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                match &mut conn.codec {
                    Codec::Line(lines) => lines.push_bytes(&buf[..n]),
                    Codec::Frame(frames) => frames.push_bytes(&buf[..n]),
                }
                conn.last_input = Instant::now();
                rounds += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Dead,
        }
    }
    ReadOutcome::Progress
}

/// Cut and handle every complete line or frame the codec holds. The
/// codec is re-read each round: `HELLO BINARY` swaps it mid-buffer.
fn process_input(ctx: &Ctx<'_>, conn: &mut Conn) {
    while !conn.closing && !conn.dead {
        match &mut conn.codec {
            Codec::Line(lines) => match lines.next_line() {
                Some(line) => on_line(ctx, conn, line),
                None => return,
            },
            Codec::Frame(frames) => {
                // Decode straight out of the buffer, then drop the frame.
                let frame = match frames.peek() {
                    Ok(None) => return,
                    Ok(Some((tag, payload))) => decode_frame(tag, payload),
                    Err(e) => {
                        // Framing itself is broken (oversize length): no
                        // resync point exists — report and hang up.
                        reply_err(ctx, conn, &e.0);
                        conn.closing = true;
                        return;
                    }
                };
                frames.consume();
                match frame {
                    // The frame boundary held, only the payload is bad:
                    // answer ERR and stay in sync (same contract as an
                    // unparseable text line).
                    Err(e) => reply_err(ctx, conn, &e.0),
                    Ok(Frame::Text(line)) => on_command(ctx, conn, &line),
                    Ok(Frame::Push { stream, chunk }) => {
                        if matches!(conn.mode, Mode::Streaming(_)) {
                            reply_err(ctx, conn, "only STOP is accepted while subscribed");
                            continue;
                        }
                        count_command(ctx, conn);
                        ingest(ctx, conn, |engine| engine.push_chunk(&stream, &chunk));
                    }
                    Ok(Frame::Chunk { .. }) => {
                        reply_err(ctx, conn, "CHUNK frames flow server to client only")
                    }
                }
            }
        }
    }
}

/// One text line: a row of the open `PUSH` block, or a command.
fn on_line(ctx: &Ctx<'_>, conn: &mut Conn, line: Line) {
    let Mode::PushRows(block) = &mut conn.mode else {
        match line {
            // A framing error, not a fatal one: the cutter resynced at
            // the newline.
            Line::Overlong => {
                count_command(ctx, conn);
                reply_err(ctx, conn, OVERLONG_MSG);
            }
            Line::Complete(text) => on_command(ctx, conn, &text),
        }
        return;
    };
    block.deadline = Instant::now() + ctx.shared.tuning.push_frame_timeout;
    let text = match line {
        Line::Complete(text) if text.trim().eq_ignore_ascii_case(PUSH_END) => {
            if let Mode::PushRows(block) = std::mem::replace(&mut conn.mode, Mode::Command) {
                end_push(ctx, conn, block);
            }
            return;
        }
        Line::Complete(text) => text,
        // An oversize row poisons the block but not the connection.
        Line::Overlong => {
            if block.bad.is_none() {
                block.bad = Some(format!("row {}: {OVERLONG_MSG}", block.rows.len() + 1));
            }
            return;
        }
    };
    if block.bad.is_some() {
        return; // keep consuming the block to stay in sync
    }
    if let Ok(schema) = &block.schema {
        match decode_typed_row(&text, schema) {
            Ok(row) => block.rows.push(row),
            Err(e) => block.bad = Some(format!("row {}: {}", block.rows.len() + 1, e.0)),
        }
    }
}

/// One command line (a text line or a TEXT frame's payload).
fn on_command(ctx: &Ctx<'_>, conn: &mut Conn, line: &str) {
    if line.trim().is_empty() {
        return;
    }
    count_command(ctx, conn);
    match parse_command(line) {
        Ok(cmd) => dispatch(ctx, conn, cmd),
        Err(e) => reply_err(ctx, conn, &e.0),
    }
}

/// The command core: one reply per command, whatever the codec.
fn dispatch(ctx: &Ctx<'_>, conn: &mut Conn, cmd: Command) {
    if let Mode::Streaming(_) = conn.mode {
        match cmd {
            Command::Stop => {
                // Everything the ring holds goes out before OK STOPPED.
                fill_streaming(ctx, conn, true);
                end_stream(ctx, conn);
            }
            _ => reply_err(ctx, conn, "only STOP is accepted while subscribed"),
        }
        return;
    }
    match cmd {
        Command::Hello(version) => hello(ctx, conn, version),
        Command::Schema(stream) => {
            let schema = ctx.shared.lock_engine().catalog().schema_of(&stream);
            match schema {
                Ok(s) => {
                    let mut bytes = Vec::new();
                    encode_schema(&mut bytes, &s);
                    conn.reply(format!("OK SCHEMA {stream} {}\n", encode_hex(&bytes)));
                }
                Err(e) => reply_engine_err(ctx, conn, &EngineError::from(e)),
            }
        }
        Command::Ping => conn.reply("PONG\n".into()),
        Command::Quit => {
            conn.reply("OK BYE\n".into());
            conn.closing = true;
        }
        Command::Shutdown => {
            // Flag first, ack second: a client that saw `OK SHUTDOWN`
            // must observe `shutdown_requested()` as true.
            ctx.shared.request_shutdown();
            conn.reply("OK SHUTDOWN\n".into());
            conn.closing = true;
        }
        Command::Stop => reply_err(ctx, conn, "STOP is only valid while subscribed"),
        Command::Exec(sql) => exec(ctx, conn, &sql),
        Command::Register { sql, mode } => {
            let registered = {
                let mut engine = ctx.shared.lock_engine();
                let registered = match mode {
                    Some(m) => engine.register_query_with_mode(&sql, m),
                    None => engine.register_query(&sql),
                };
                // Data that arrived before the query may already enable it.
                if registered.is_ok() {
                    engine.run_until_idle().ok();
                }
                registered
            };
            match registered {
                Ok(id) => conn.reply(format!("OK QUERY {id}\n")),
                Err(e) => reply_err(ctx, conn, &e.to_string()),
            }
        }
        Command::Deregister(id) => {
            let res = ctx.shared.lock_engine().deregister_query(id);
            match res {
                Ok(()) => conn.reply(format!("OK DEREGISTERED {id}\n")),
                Err(e) => reply_err(ctx, conn, &e.to_string()),
            }
        }
        Command::Push(stream) => match conn.codec {
            Codec::Line(_) => {
                let schema = ctx.shared.lock_engine().catalog().schema_of(&stream);
                conn.mode = Mode::PushRows(PushBlock {
                    stream,
                    schema: schema.map_err(|e| EngineError::from(e).to_string()),
                    rows: Vec::new(),
                    bad: None,
                    deadline: Instant::now() + ctx.shared.tuning.push_frame_timeout,
                });
            }
            Codec::Frame(_) => reply_err(
                ctx,
                conn,
                "text PUSH is not available in binary mode; send a PUSH frame",
            ),
        },
        Command::Subscribe { query, limit, after } => subscribe(ctx, conn, query, limit, after),
        Command::Stats => stats_report(ctx, conn, false),
        Command::StatsDetail => stats_report(ctx, conn, true),
        Command::Metrics => {
            let text = ctx.shared.lock_engine().metrics_text();
            reply_framed(conn, "METRICS", text);
        }
        Command::ExplainAnalyze(id) => {
            let rendered = ctx.shared.lock_engine().explain_analyze(id);
            match rendered {
                Ok(text) => reply_framed(conn, "ANALYZE", text),
                Err(e) => reply_err(ctx, conn, &e.to_string()),
            }
        }
        Command::TraceDump(n) => {
            let events = ctx.shared.lock_engine().trace_events(n);
            let mut body = String::new();
            for e in &events {
                body.push_str(&format!(
                    "#{} +{}us {} {}\n",
                    e.seq,
                    e.at_us,
                    e.kind,
                    e.detail.replace(['\n', '\r'], "; ")
                ));
            }
            reply_framed(conn, "TRACE", body);
        }
    }
}

/// `HELLO BINARY <v>`: acknowledge on the line codec, then swap in the
/// frame codec. Bytes pipelined behind the handshake line are already
/// frames and move over with it.
fn hello(ctx: &Ctx<'_>, conn: &mut Conn, version: u32) {
    let Codec::Line(lines) = &mut conn.codec else {
        return reply_err(ctx, conn, "HELLO is only valid in text mode (already negotiated)");
    };
    if version != WIRE_VERSION {
        return reply_err(
            ctx,
            conn,
            &format!("unsupported binary wire version {version} (supported: {WIRE_VERSION})"),
        );
    }
    let mut frames = FrameBuf::new();
    frames.push_bytes(&lines.take_buffered());
    conn.reply(format!("OK HELLO BINARY {version}\n"));
    conn.codec = Codec::Frame(frames);
}

fn exec(ctx: &Ctx<'_>, conn: &mut Conn, sql: &str) {
    let outcome = {
        let mut engine = ctx.shared.lock_engine();
        let outcome = engine.execute(sql);
        // INSERT into a stream can enable factories: evaluate
        // synchronously so results are on subscriber queues before the
        // client sees the reply (ingest-synchronous semantics).
        if matches!(outcome, Ok(ExecOutcome::Inserted(_))) {
            engine.run_until_idle().ok();
        }
        outcome
    };
    match outcome {
        Ok(ExecOutcome::Created(name)) => conn.reply(format!("OK CREATED {name}\n")),
        Ok(ExecOutcome::Dropped(name)) => conn.reply(format!("OK DROPPED {name}\n")),
        Ok(ExecOutcome::Inserted(n)) => {
            count_pushed(ctx, conn, n as u64);
            conn.reply(format!("OK INSERTED {n}\n"));
        }
        Ok(ExecOutcome::Rows { names, chunk }) => {
            let mut reply = format!("ROWS {} {}\n", chunk.len(), encode_names(&names));
            for row in chunk.rows() {
                reply.push_str(&encode_row(&row));
                reply.push('\n');
            }
            conn.reply(reply);
        }
        Err(e) => reply_engine_err(ctx, conn, &e),
    }
}

/// `END` closed a text `PUSH` block: apply it in one batch, or answer the
/// first error and apply nothing.
fn end_push(ctx: &Ctx<'_>, conn: &mut Conn, block: PushBlock) {
    let rows = match (block.schema, block.bad) {
        (Err(msg), _) | (Ok(_), Some(msg)) => return reply_err(ctx, conn, &msg),
        (Ok(_), None) => block.rows,
    };
    ingest(ctx, conn, |engine| engine.push_rows(&block.stream, &rows));
}

/// The socket receptor, both codecs: append the batch to its stream's
/// basket, evaluate to quiescence, then acknowledge — so a subscriber on
/// any connection observes everything this batch produced.
fn ingest(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    push: impl FnOnce(&mut DataCell) -> Result<usize, EngineError>,
) {
    let pushed = {
        let mut engine = ctx.shared.lock_engine();
        let pushed = push(&mut engine);
        if pushed.is_ok() {
            engine.run_until_idle().ok();
        }
        pushed
    };
    match pushed {
        Ok(n) => {
            count_pushed(ctx, conn, n as u64);
            conn.reply(format!("OK PUSHED {n}\n"));
        }
        Err(e) => reply_engine_err(ctx, conn, &e),
    }
}

/// Streaming mode: the connection becomes this query's emitter, reading
/// its server-side replay ring by cursor. A plain `SUBSCRIBE` starts at
/// "future chunks only"; `AFTER <epoch> <seq>` resumes a previous
/// incarnation of the subscription. The ring outlives the connection.
fn subscribe(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    query: u64,
    limit: Option<u64>,
    after: Option<(u64, u64)>,
) {
    let names = ctx.shared.lock_engine().output_names(query);
    let names = match names {
        Ok(n) => n,
        Err(e) => return reply_engine_err(ctx, conn, &e),
    };
    let cursor = match ctx.shared.attach_subscriber(query, after) {
        Ok((cursor, _next_seq)) => cursor,
        Err(e) => return reply_engine_err(ctx, conn, &e),
    };
    conn.reply(format!(
        "OK SUBSCRIBED {query} {} {} {}\n",
        ctx.shared.epoch,
        cursor + 1,
        encode_names(&names)
    ));
    conn.mode = Mode::Streaming(Sub { query, limit, cursor, chunks: 0, rows: 0 });
}

/// Stream end (STOP / limit / ring closed / shutdown): fold the
/// per-stream counters, announce `OK STOPPED`, return to command mode.
fn end_stream(ctx: &Ctx<'_>, conn: &mut Conn) {
    if let Mode::Streaming(sub) = conn.mode {
        fold_stream(ctx, conn, sub);
        conn.reply(format!("OK STOPPED {} {}\n", sub.chunks, sub.rows));
        conn.mode = Mode::Command;
        conn.last_input = Instant::now();
    }
}

fn fold_stream(ctx: &Ctx<'_>, conn: &mut Conn, sub: Sub) {
    conn.stats.chunks_delivered += sub.chunks;
    conn.stats.rows_delivered += sub.rows;
    ctx.shared.stats.chunks_delivered.fetch_add(sub.chunks, Ordering::Relaxed);
    ctx.shared.stats.rows_delivered.fetch_add(sub.rows, Ordering::Relaxed);
}

/// Pull wire-ready chunks from the replay ring into the write queue,
/// respecting the limit and — unless `drain` — the high-water mark.
fn fill_streaming(ctx: &Ctx<'_>, conn: &mut Conn, drain: bool) {
    let format = conn.codec.format();
    let mut stamps: Vec<Instant> = Vec::new();
    while let Mode::Streaming(mut sub) = conn.mode {
        if sub.limit.is_some_and(|l| sub.chunks >= l) {
            end_stream(ctx, conn);
            break;
        }
        if !drain && conn.queued >= HIGH_WATER {
            break;
        }
        let budget = match sub.limit {
            Some(l) => ((l - sub.chunks) as usize).min(FILL_BATCH),
            None => FILL_BATCH,
        };
        let (batch, closed) = ctx.shared.fetch_ring(sub.query, sub.cursor, budget, format);
        if batch.is_empty() {
            if closed {
                // Deregistered or engine shutdown: the ring is drained and
                // no more chunks can arrive — end the stream politely.
                end_stream(ctx, conn);
            }
            break;
        }
        for d in batch {
            if d.cached {
                ctx.metrics.cache_hits.inc();
            } else {
                ctx.metrics.cache_misses.inc();
            }
            sub.cursor = d.seq;
            sub.chunks += 1;
            sub.rows += d.rows;
            stamps.extend(d.stamp);
            conn.enqueue(WriteBuf::Shared(d.bytes));
        }
        conn.mode = Mode::Streaming(sub);
    }
    if !stamps.is_empty() {
        // Close the lifecycle latency chain at "bytes handed to the
        // socket": first deliveries normally leave userspace within this
        // flush. Replays arrive stamp-less and never re-sample.
        flush(ctx, conn);
        for arrived in stamps {
            let us = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
            ctx.obs.record_wire_delivery_us(us);
        }
    }
}

/// Write queued buffers until the socket blocks, strictly in order.
fn flush(ctx: &Ctx<'_>, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while let Some(front) = conn.wq.front() {
        let bytes = front.as_bytes();
        if conn.wpos >= bytes.len() {
            conn.wq.pop_front();
            conn.wpos = 0;
            continue;
        }
        let mut cap = bytes.len() - conn.wpos;
        match ctx.shared.faults.check(FaultPoint::SocketWrite) {
            None => {}
            // Stall: pretend the socket blocked; retry next tick.
            Some(FaultKind::Stall) => return,
            Some(FaultKind::ShortWrite) => cap = 1,
            Some(FaultKind::Eio) | Some(FaultKind::Enospc) => {
                conn.dead = true;
                return;
            }
        }
        let end = conn.wpos + cap;
        match conn.stream.write(&bytes[conn.wpos..end]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                conn.queued = conn.queued.saturating_sub(n);
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Per-tick service pass over every connection: fill streaming queues,
/// flush, enforce the write-progress, idle and push-block deadlines.
fn service_all(ctx: &Ctx<'_>, conns: &mut HashMap<usize, Conn>) {
    let now = Instant::now();
    for conn in conns.values_mut() {
        if conn.dead {
            continue;
        }
        if !conn.closing && matches!(conn.mode, Mode::Streaming(_)) {
            fill_streaming(ctx, conn, false);
        }
        flush(ctx, conn);
        if !conn.wq.is_empty() {
            if let Some(t) = ctx.shared.tuning.write_timeout {
                if now.duration_since(conn.last_write_progress) > t {
                    // Wedged client: no byte left userspace within the
                    // deadline. Killing the connection (not the reply)
                    // keeps the stream splice-free.
                    conn.dead = true;
                    continue;
                }
            }
        }
        if conn.closing {
            continue;
        }
        match &conn.mode {
            Mode::Command => {
                if let Some(t) = ctx.shared.tuning.idle_timeout {
                    if now.duration_since(conn.last_input) > t {
                        conn.reply("ERR idle session reaped\n".into());
                        conn.closing = true;
                    }
                }
            }
            // A producer that stalls between `PUSH` and `END` must not pin
            // the connection: discard the block, stay line-synced (any
            // stragglers bounce off the command parser).
            Mode::PushRows(block) if now >= block.deadline => {
                let msg = format!(
                    "PUSH {}: no END within {:?}; batch discarded",
                    block.stream, ctx.shared.tuning.push_frame_timeout
                );
                conn.mode = Mode::Command;
                reply_err(ctx, conn, &msg);
            }
            Mode::PushRows(_) | Mode::Streaming(_) => {}
        }
    }
}

/// Re-arm oneshot interest: every connection whose event fired is
/// disarmed and must be re-registered; others only when their desired
/// writability changed (queue went empty ↔ non-empty).
fn rearm(poller: &Poller, conns: &mut HashMap<usize, Conn>, fired: &HashSet<usize>) {
    for (key, conn) in conns.iter_mut() {
        if conn.dead {
            continue;
        }
        let want_write = !conn.wq.is_empty();
        if fired.contains(key) || want_write != conn.armed_writable {
            let ev = Event { key: *key, readable: true, writable: want_write };
            if poller.modify(&conn.stream, ev).is_err() {
                conn.dead = true;
                continue;
            }
            conn.armed_writable = want_write;
        }
    }
}

/// Remove finished connections: hard-dead ones immediately, gracefully
/// closing ones once their write queue drained.
fn reap(ctx: &Ctx<'_>, poller: &Poller, conns: &mut HashMap<usize, Conn>) {
    let done: Vec<usize> = conns
        .iter()
        .filter(|(_, c)| c.dead || (c.closing && c.wq.is_empty()))
        .map(|(k, _)| *k)
        .collect();
    for key in done {
        if let Some(conn) = conns.remove(&key) {
            close_conn(ctx, poller, conn);
        }
    }
}

/// Tear one connection down.
fn close_conn(ctx: &Ctx<'_>, poller: &Poller, mut conn: Conn) {
    if let Mode::Streaming(sub) = conn.mode {
        // Died mid-stream: the per-stream counters still count.
        fold_stream(ctx, &mut conn, sub);
    }
    let _ = poller.delete(&conn.stream);
    ctx.metrics.sessions.add(-1);
    ctx.shared.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
}

/// Shutdown: give every streaming connection its final ring drain and
/// `OK STOPPED`, then flush best-effort within a bounded budget and
/// close everything.
fn final_drain(ctx: &Ctx<'_>, poller: &Poller, conns: &mut HashMap<usize, Conn>) {
    for conn in conns.values_mut() {
        if !conn.dead && matches!(conn.mode, Mode::Streaming(_)) {
            // The engine closed every tap; drain what the rings retain.
            fill_streaming(ctx, conn, true);
            end_stream(ctx, conn);
        }
    }
    let deadline = Instant::now() + DRAIN_BUDGET;
    loop {
        let mut pending = false;
        for conn in conns.values_mut() {
            flush(ctx, conn);
            pending |= !conn.dead && !conn.wq.is_empty();
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (_, conn) in conns.drain() {
        close_conn(ctx, poller, conn);
    }
}

fn count_command(ctx: &Ctx<'_>, conn: &mut Conn) {
    conn.stats.commands += 1;
    ctx.shared.stats.commands.fetch_add(1, Ordering::Relaxed);
}

fn count_pushed(ctx: &Ctx<'_>, conn: &mut Conn, n: u64) {
    conn.stats.rows_pushed += n;
    ctx.shared.stats.rows_pushed.fetch_add(n, Ordering::Relaxed);
}

fn reply_err(ctx: &Ctx<'_>, conn: &mut Conn, msg: &str) {
    conn.stats.errors += 1;
    ctx.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    conn.reply(err_line(msg));
}

/// Engine failures: admission-control sheds get the dedicated retryable
/// `OVERLOADED <retry-after-ms>` line so clients can tell "back off and
/// retry" from a hard `ERR`.
fn reply_engine_err(ctx: &Ctx<'_>, conn: &mut Conn, e: &EngineError) {
    if let EngineError::Overloaded { retry_after_ms } = e {
        conn.stats.errors += 1;
        ctx.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        conn.reply(format!("OVERLOADED {retry_after_ms}\n"));
        return;
    }
    reply_err(ctx, conn, &e.to_string());
}

/// Multi-line report framed as `<tag> <line-count>` (one reply).
fn reply_framed(conn: &mut Conn, tag: &str, mut body: String) {
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    let lines = body.lines().count();
    conn.reply(format!("{tag} {lines}\n{body}"));
}

/// The `STATS` / `STATS DETAIL` report: engine sections (detail adds the
/// analyze table and latency percentiles), engine uptime, the
/// server-wide counters, and this connection's own counters.
fn stats_report(ctx: &Ctx<'_>, conn: &mut Conn, detail: bool) {
    let (engine_report, uptime) = {
        let engine = ctx.shared.lock_engine();
        let text = if detail { engine.stats_detail() } else { engine.stats().render() };
        (text, engine.uptime())
    };
    let mut report = engine_report;
    report.push_str(&format!("uptime: {:.1}s\n", uptime.as_secs_f64()));
    report.push_str(&ctx.shared.stats.render());
    let s = &conn.stats;
    report.push_str(&format!(
        "== session ==\n\
         commands: {} ({} errors)\n\
         ingest: {} rows pushed\n\
         egress: {} chunks / {} rows delivered\n",
        s.commands, s.errors, s.rows_pushed, s.chunks_delivered, s.rows_delivered,
    ));
    reply_framed(conn, "STATS", report);
}
