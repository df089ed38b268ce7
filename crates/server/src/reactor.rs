//! The reactor: one thread driving every binary-mode connection through
//! readiness-based I/O.
//!
//! Text sessions keep the thread-per-connection model (`session.rs`) —
//! a CLI user costs one cheap mostly-parked thread. Connections that
//! negotiate `HELLO BINARY <v>` are handed off here instead: the session
//! thread flips the socket non-blocking, parks it on
//! `SharedState::enqueue_handoff` and exits, and this single thread
//! multiplexes all of them over an epoll [`Poller`] (oneshot readiness,
//! re-armed after every event), so thousands of subscribers cost one
//! thread, not thousands.
//!
//! Per connection the reactor keeps a frame reassembly buffer
//! ([`FrameBuf`]) on the read side and a queue of pending write buffers
//! on the write side. Subscription `CHUNK` frames enter that queue as
//! [`Arc`]-shared bytes straight from the replay ring's encode-once
//! cache ([`crate::replay::ReplayRing::fetch_frames_after`]) — one
//! encode per chunk, shared by every subscriber. Each frame is queued
//! whole and buffers drain strictly in order, so frames are never
//! interleaved on the wire regardless of how many partial writes a slow
//! client forces (the binary-mode answer to the write-deadline atomicity
//! audit: a mid-frame write deadline kills the *connection*, never
//! splices the stream).
//!
//! Backpressure: a connection whose write queue exceeds [`HIGH_WATER`]
//! stops pulling from the replay ring (the ring keeps retaining; a
//! reconnect with `AFTER` recovers), and a queue that makes no progress
//! for the configured write timeout marks the connection dead. Fault
//! injection ([`FaultPoint::SocketRead`] / [`FaultPoint::SocketWrite`])
//! is consulted at every socket syscall the reactor issues, same as the
//! WAL consults its points.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell_core::{
    Counter, EngineError, EngineObs, ExecOutcome, FaultKind, FaultPoint, Gauge,
};
use polling::{Event, Events, Poller};

use crate::frame::{decode_frame, encode_text, Frame, FrameBuf};
use crate::protocol::{encode_names, encode_row, err_line, parse_command, Command};
use crate::server::SharedState;
use crate::session::SessionStats;

/// Poll granularity: the reactor wakes at least this often to adopt
/// handoffs, pull replay rings forward and check deadlines.
const TICK: Duration = Duration::from_millis(5);

/// Read buffer size per syscall.
const READ_BUF: usize = 64 * 1024;

/// Socket reads per readiness event before yielding to other
/// connections (fairness under a firehose producer).
const READ_ROUNDS: usize = 4;

/// Stop pulling chunks from the replay ring once this many bytes are
/// queued for one connection (resume below it next tick).
const HIGH_WATER: usize = 4 << 20;

/// Chunk frames pulled from a ring per fill round.
const FILL_BATCH: usize = 64;

/// Best-effort flush budget for queued replies during shutdown drain.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// A connection that negotiated `HELLO BINARY`, parked by its session
/// thread for the reactor to adopt.
pub(crate) struct BinaryHandoff {
    /// The socket, already switched to non-blocking mode.
    pub stream: TcpStream,
    /// Bytes the client pipelined behind the `HELLO` line — the first
    /// binary frames, read by the line reader but not consumed.
    pub leftover: Vec<u8>,
    /// Counters accumulated during the text phase; folded server-wide
    /// when the reactor closes the connection.
    pub stats: SessionStats,
}

/// What a connection is currently doing (mirror of the session's
/// command/streaming alternation).
#[derive(Clone, Copy)]
enum Mode {
    /// Awaiting command frames.
    Command,
    /// Subscribed: `CHUNK` frames flow out until STOP / limit / close.
    Streaming { query: u64, limit: Option<u64>, cursor: u64, chunks: u64, rows: u64 },
}

/// One pending write buffer: replies are owned, chunk frames are shared
/// with every other subscriber of the same query.
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
                "binary-mode connections currently driven by the reactor",
            ),
            cache_hits: r.counter(
                "datacell_reactor_frame_cache_hits_total",
                "CHUNK frames served from the encode-once cache",
            ),
            cache_misses: r.counter(
                "datacell_reactor_frame_cache_misses_total",
                "CHUNK frames encoded fresh (first delivery to any subscriber)",
            ),
        }
    }
}

/// Immutable context threaded through the per-connection handlers.
struct Ctx<'a> {
    shared: &'a Arc<SharedState>,
    obs: &'a Arc<EngineObs>,
    metrics: &'a Metrics,
}

/// One reactor-driven connection.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuf,
    wq: VecDeque<WriteBuf>,
    /// Byte offset into the front write buffer.
    wpos: usize,
    /// Total unsent bytes queued across `wq` (backpressure accounting).
    queued: usize,
    mode: Mode,
    stats: SessionStats,
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
    fn new(handoff: BinaryHandoff) -> Conn {
        let now = Instant::now();
        let mut rbuf = FrameBuf::new();
        rbuf.push_bytes(&handoff.leftover);
        Conn {
            stream: handoff.stream,
            rbuf,
            wq: VecDeque::new(),
            wpos: 0,
            queued: 0,
            mode: Mode::Command,
            stats: handoff.stats,
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

    /// Queue a reply line as one TEXT frame (frames are queued whole —
    /// never interleaved with chunk frames).
    fn reply_text(&mut self, s: &str) {
        self.enqueue(WriteBuf::Owned(encode_text(s)));
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

/// The reactor thread body: adopt handoffs, poll, dispatch, repeat —
/// until shutdown, then drain.
pub(crate) fn reactor_loop(shared: &Arc<SharedState>, obs: &Arc<EngineObs>) {
    let metrics = Metrics::new(obs);
    let ctx = Ctx { shared, obs, metrics: &metrics };
    let Ok(poller) = Poller::new() else {
        // No epoll: binary mode is unavailable; reject handoffs so their
        // stats still fold and clients see a closed socket.
        while !shared.is_shutdown() {
            for h in shared.take_handoffs() {
                shared.stats.fold_session(&h.stats);
            }
            std::thread::sleep(TICK);
        }
        return;
    };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key: usize = 0;
    let mut events = Events::new();

    while !shared.is_shutdown() {
        adopt(&ctx, &poller, &mut conns, &mut next_key);
        events.clear();
        if poller.wait(&mut events, Some(TICK)).is_err() {
            std::thread::sleep(TICK);
        }
        let fired: HashSet<usize> = events.iter().map(|e| e.key).collect();
        for &key in &fired {
            if let Some(conn) = conns.get_mut(&key) {
                handle_event(&ctx, conn);
            }
        }
        service_all(&ctx, &mut conns);
        rearm(&poller, &mut conns, &fired);
        reap(&ctx, &poller, &mut conns);
    }
    final_drain(&ctx, &poller, &mut conns, &mut next_key);
}

/// Adopt every parked handoff: register with the poller and process any
/// frames the client pipelined behind the `HELLO` line (no readiness
/// event will ever fire for bytes already in userspace).
fn adopt(
    ctx: &Ctx<'_>,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    for handoff in ctx.shared.take_handoffs() {
        let key = *next_key;
        *next_key += 1;
        let mut conn = Conn::new(handoff);
        if poller.add(&conn.stream, Event { key, readable: true, writable: false }).is_err() {
            ctx.shared.stats.fold_session(&conn.stats);
            continue;
        }
        ctx.metrics.sessions.add(1);
        process_frames(ctx, &mut conn);
        flush(ctx, &mut conn);
        conns.insert(key, conn);
    }
}

/// One readiness event: pull bytes, process complete frames, flush.
fn handle_event(ctx: &Ctx<'_>, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    match read_some(ctx, conn) {
        ReadOutcome::Progress => {}
        ReadOutcome::Eof => {
            // Half-close friendly: act on everything already received,
            // let the replies drain, then close.
            process_frames(ctx, conn);
            conn.closing = true;
        }
        ReadOutcome::Dead => {
            conn.dead = true;
            return;
        }
    }
    process_frames(ctx, conn);
    flush(ctx, conn);
}

/// Non-blocking read pass, bounded per event for fairness.
fn read_some(ctx: &Ctx<'_>, conn: &mut Conn) -> ReadOutcome {
    let mut rounds = 0;
    let mut buf = [0u8; READ_BUF];
    loop {
        if rounds >= READ_ROUNDS {
            return ReadOutcome::Progress;
        }
        let mut cap = READ_BUF;
        match ctx.shared.faults.check(FaultPoint::SocketRead) {
            None => {}
            // An injected stall skips this readiness pass entirely.
            Some(FaultKind::Stall) => return ReadOutcome::Progress,
            // A short read: a single byte reaches the frame buffer.
            Some(FaultKind::ShortWrite) => cap = 1,
            Some(FaultKind::Eio) | Some(FaultKind::Enospc) => return ReadOutcome::Dead,
        }
        match conn.stream.read(&mut buf[..cap]) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                conn.rbuf.push_bytes(&buf[..n]);
                conn.last_input = Instant::now();
                rounds += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Dead,
        }
    }
}

/// Drain every complete frame out of the reassembly buffer.
fn process_frames(ctx: &Ctx<'_>, conn: &mut Conn) {
    loop {
        if conn.closing || conn.dead {
            return;
        }
        // Decode straight out of the buffer, then drop the frame.
        let frame = match conn.rbuf.peek() {
            Ok(None) => return,
            Ok(Some((tag, payload))) => decode_frame(tag, payload),
            Err(e) => {
                // Framing itself is broken (oversize length, unknown
                // tag): no resync point exists — report and hang up.
                reply_err(ctx, conn, &e.0);
                conn.closing = true;
                return;
            }
        };
        conn.rbuf.consume();
        match frame {
            // The frame boundary held, only the payload is bad: answer
            // ERR and stay in sync (same recovery contract as an
            // unparseable text line).
            Err(e) => reply_err(ctx, conn, &e.0),
            Ok(frame) => handle_frame(ctx, conn, frame),
        }
    }
}

/// Dispatch one decoded frame according to the connection's mode.
fn handle_frame(ctx: &Ctx<'_>, conn: &mut Conn, frame: Frame) {
    match frame {
        Frame::Text(line) => {
            if line.trim().is_empty() {
                return;
            }
            conn.stats.commands += 1;
            ctx.shared.stats.commands.fetch_add(1, Ordering::Relaxed);
            match parse_command(&line) {
                Ok(cmd) => dispatch(ctx, conn, cmd),
                Err(e) => reply_err(ctx, conn, &e.0),
            }
        }
        Frame::Push { stream, chunk } => {
            if matches!(conn.mode, Mode::Streaming { .. }) {
                reply_err(ctx, conn, "only STOP is accepted while subscribed");
                return;
            }
            conn.stats.commands += 1;
            ctx.shared.stats.commands.fetch_add(1, Ordering::Relaxed);
            push_chunk(ctx, conn, &stream, &chunk);
        }
        Frame::Chunk { .. } => {
            reply_err(ctx, conn, "CHUNK frames flow server to client only");
        }
    }
}

/// Command dispatch, mirroring the text session's replies so the two
/// modes stay observationally equivalent.
fn dispatch(ctx: &Ctx<'_>, conn: &mut Conn, cmd: Command) {
    if let Mode::Streaming { .. } = conn.mode {
        match cmd {
            Command::Stop => end_stream(ctx, conn),
            _ => reply_err(ctx, conn, "only STOP is accepted while subscribed"),
        }
        return;
    }
    match cmd {
        Command::Hello(_) => {
            reply_err(ctx, conn, "HELLO is only valid in text mode (already negotiated)")
        }
        Command::Schema(stream) => {
            let schema = ctx.shared.lock_engine().catalog().schema_of(&stream);
            match schema {
                Ok(s) => {
                    let mut bytes = Vec::new();
                    datacell_storage::binio::encode_schema(&mut bytes, &s);
                    conn.reply_text(&format!(
                        "OK SCHEMA {stream} {}\n",
                        crate::protocol::encode_hex(&bytes)
                    ));
                }
                Err(e) => reply_engine_err(ctx, conn, &EngineError::from(e)),
            }
        }
        Command::Ping => conn.reply_text("PONG\n"),
        Command::Quit => {
            conn.reply_text("OK BYE\n");
            conn.closing = true;
        }
        Command::Shutdown => {
            ctx.shared.request_shutdown();
            conn.reply_text("OK SHUTDOWN\n");
            conn.closing = true;
        }
        Command::Stop => reply_err(ctx, conn, "STOP is only valid while subscribed"),
        Command::Exec(sql) => exec(ctx, conn, &sql),
        Command::Register { sql, mode } => {
            let registered = {
                let mut engine = ctx.shared.lock_engine();
                match mode {
                    Some(m) => engine.register_query_with_mode(&sql, m),
                    None => engine.register_query(&sql),
                }
            };
            match registered {
                Ok(id) => {
                    ctx.shared.notify_work();
                    conn.reply_text(&format!("OK QUERY {id}\n"));
                }
                Err(e) => reply_err(ctx, conn, &e.to_string()),
            }
        }
        Command::Deregister(id) => {
            let res = ctx.shared.lock_engine().deregister_query(id);
            match res {
                Ok(()) => conn.reply_text(&format!("OK DEREGISTERED {id}\n")),
                Err(e) => reply_err(ctx, conn, &e.to_string()),
            }
        }
        Command::Push(_) => reply_err(
            ctx,
            conn,
            "text PUSH is not available in binary mode; send a PUSH frame",
        ),
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

fn exec(ctx: &Ctx<'_>, conn: &mut Conn, sql: &str) {
    let outcome = {
        let mut engine = ctx.shared.lock_engine();
        let outcome = engine.execute(sql);
        // Ingest-synchronous semantics, same as the text session: results
        // of an INSERT are on subscriber queues before the reply.
        if matches!(outcome, Ok(ExecOutcome::Inserted(_))) {
            engine.run_until_idle().ok();
        }
        outcome
    };
    match outcome {
        Ok(ExecOutcome::Created(name)) => conn.reply_text(&format!("OK CREATED {name}\n")),
        Ok(ExecOutcome::Dropped(name)) => conn.reply_text(&format!("OK DROPPED {name}\n")),
        Ok(ExecOutcome::Inserted(n)) => {
            count_pushed(ctx, conn, n as u64);
            ctx.shared.notify_work();
            conn.reply_text(&format!("OK INSERTED {n}\n"));
        }
        Ok(ExecOutcome::Rows { names, chunk }) => {
            let mut reply = format!("ROWS {} {}\n", chunk.len(), encode_names(&names));
            for row in chunk.rows() {
                reply.push_str(&encode_row(&row));
                reply.push('\n');
            }
            conn.reply_text(&reply);
        }
        Err(e) => reply_engine_err(ctx, conn, &e),
    }
}

/// Binary ingest: the whole batch arrived in one `PUSH` frame as typed
/// columns — append the chunk wholesale (no row materialization; the
/// basket's columnar schema gate rejects ragged or mistyped chunks),
/// evaluate to quiescence, ack.
fn push_chunk(ctx: &Ctx<'_>, conn: &mut Conn, stream: &str, chunk: &datacell_storage::Chunk) {
    let pushed = {
        let mut engine = ctx.shared.lock_engine();
        match engine.push_chunk(stream, chunk) {
            Ok(n) => {
                engine.run_until_idle().ok();
                Ok(n)
            }
            Err(e) => Err(e),
        }
    };
    match pushed {
        Ok(n) => {
            count_pushed(ctx, conn, n as u64);
            ctx.shared.notify_work();
            conn.reply_text(&format!("OK PUSHED {n}\n"));
        }
        Err(e) => reply_engine_err(ctx, conn, &e),
    }
}

fn subscribe(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    query: u64,
    limit: Option<u64>,
    after: Option<(u64, u64)>,
) {
    let names = {
        let engine = ctx.shared.lock_engine();
        engine.output_names(query)
    };
    let names = match names {
        Ok(n) => n,
        Err(e) => return reply_engine_err(ctx, conn, &e),
    };
    let cursor = match ctx.shared.attach_subscriber(query, after) {
        Ok((cursor, _next_seq)) => cursor,
        Err(e) => return reply_engine_err(ctx, conn, &e),
    };
    conn.reply_text(&format!(
        "OK SUBSCRIBED {query} {} {} {}\n",
        ctx.shared.epoch,
        cursor + 1,
        encode_names(&names)
    ));
    conn.mode = Mode::Streaming { query, limit, cursor, chunks: 0, rows: 0 };
}

/// Stream end (STOP / limit / ring closed / connection teardown): fold
/// the per-stream counters, announce `OK STOPPED`, return to command
/// mode.
fn end_stream(ctx: &Ctx<'_>, conn: &mut Conn) {
    if let Mode::Streaming { chunks, rows, .. } = conn.mode {
        conn.stats.chunks_delivered += chunks;
        conn.stats.rows_delivered += rows;
        ctx.shared.stats.chunks_delivered.fetch_add(chunks, Ordering::Relaxed);
        ctx.shared.stats.rows_delivered.fetch_add(rows, Ordering::Relaxed);
        conn.reply_text(&format!("OK STOPPED {chunks} {rows}\n"));
        conn.mode = Mode::Command;
        conn.last_input = Instant::now();
    }
}

/// Pull wire-ready chunk frames from the replay ring into the write
/// queue, respecting the limit and the backpressure high-water mark.
fn fill_streaming(ctx: &Ctx<'_>, conn: &mut Conn) {
    let mut stamps: Vec<Instant> = Vec::new();
    while let Mode::Streaming { query, limit, cursor, chunks, rows } = conn.mode {
        if limit.is_some_and(|l| chunks >= l) {
            end_stream(ctx, conn);
            break;
        }
        if conn.queued >= HIGH_WATER {
            break;
        }
        let budget = match limit {
            Some(l) => ((l - chunks) as usize).min(FILL_BATCH),
            None => FILL_BATCH,
        };
        let (batch, closed) = ctx.shared.fetch_ring_frames(query, cursor, budget);
        if batch.is_empty() {
            if closed {
                end_stream(ctx, conn);
            }
            break;
        }
        let mut cursor = cursor;
        let mut chunks = chunks;
        let mut rows = rows;
        for d in batch {
            if d.cached {
                ctx.metrics.cache_hits.inc();
            } else {
                ctx.metrics.cache_misses.inc();
            }
            cursor = d.seq;
            chunks += 1;
            rows += d.rows;
            if let Some(arrived) = d.stamp {
                stamps.push(arrived);
            }
            conn.enqueue(WriteBuf::Shared(d.bytes));
        }
        conn.mode = Mode::Streaming { query, limit, cursor, chunks, rows };
    }
    if !stamps.is_empty() {
        // Hand the bytes to the socket before closing the latency chain:
        // first deliveries normally leave userspace within this flush.
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
/// flush, enforce the write-progress and idle deadlines.
fn service_all(ctx: &Ctx<'_>, conns: &mut HashMap<usize, Conn>) {
    let now = Instant::now();
    for conn in conns.values_mut() {
        if conn.dead {
            continue;
        }
        if !conn.closing && matches!(conn.mode, Mode::Streaming { .. }) {
            fill_streaming(ctx, conn);
        }
        flush(ctx, conn);
        if !conn.wq.is_empty() {
            if let Some(t) = ctx.shared.tuning.write_timeout {
                if now.duration_since(conn.last_write_progress) > t {
                    // Wedged client: no byte left userspace within the
                    // deadline. Killing the connection (not the frame)
                    // keeps the stream splice-free.
                    conn.dead = true;
                    continue;
                }
            }
        }
        if !conn.closing && matches!(conn.mode, Mode::Command) {
            if let Some(t) = ctx.shared.tuning.idle_timeout {
                if now.duration_since(conn.last_input) > t {
                    conn.reply_text("ERR idle session reaped\n");
                    conn.closing = true;
                }
            }
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

/// Tear one connection down, folding its counters server-wide.
fn close_conn(ctx: &Ctx<'_>, poller: &Poller, mut conn: Conn) {
    if let Mode::Streaming { chunks, rows, .. } = conn.mode {
        // Died mid-stream: the per-stream counters still count.
        conn.stats.chunks_delivered += chunks;
        conn.stats.rows_delivered += rows;
        ctx.shared.stats.chunks_delivered.fetch_add(chunks, Ordering::Relaxed);
        ctx.shared.stats.rows_delivered.fetch_add(rows, Ordering::Relaxed);
    }
    let _ = poller.delete(&conn.stream);
    ctx.metrics.sessions.add(-1);
    ctx.shared.stats.fold_session(&conn.stats);
}

/// Shutdown: give every streaming connection its final ring drain and
/// `OK STOPPED`, then flush best-effort within a bounded budget and
/// close everything.
fn final_drain(
    ctx: &Ctx<'_>,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    // Late handoffs still need their stats folded (and a fair goodbye);
    // adopt() also processes any frames they pipelined.
    adopt(ctx, poller, conns, next_key);
    for conn in conns.values_mut() {
        if conn.dead {
            continue;
        }
        if matches!(conn.mode, Mode::Streaming { .. }) {
            // The engine closed every tap; drain what the rings retain.
            fill_streaming(ctx, conn);
            end_stream(ctx, conn);
        }
    }
    let deadline = Instant::now() + DRAIN_BUDGET;
    loop {
        let mut pending = false;
        for conn in conns.values_mut() {
            if conn.dead {
                continue;
            }
            flush(ctx, conn);
            pending |= !conn.wq.is_empty();
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

fn count_pushed(ctx: &Ctx<'_>, conn: &mut Conn, n: u64) {
    conn.stats.rows_pushed += n;
    ctx.shared.stats.rows_pushed.fetch_add(n, Ordering::Relaxed);
}

fn reply_err(ctx: &Ctx<'_>, conn: &mut Conn, msg: &str) {
    conn.stats.errors += 1;
    ctx.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    conn.reply_text(&err_line(msg));
}

/// Engine failures: overload sheds get the retryable `OVERLOADED` line,
/// everything else a plain `ERR` — identical to the text session.
fn reply_engine_err(ctx: &Ctx<'_>, conn: &mut Conn, e: &EngineError) {
    if let EngineError::Overloaded { retry_after_ms } = e {
        conn.stats.errors += 1;
        ctx.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        conn.reply_text(&format!("OVERLOADED {retry_after_ms}\n"));
        return;
    }
    reply_err(ctx, conn, &e.to_string());
}

/// Multi-line report framed as `<tag> <line-count>` (one TEXT frame).
fn reply_framed(conn: &mut Conn, tag: &str, mut body: String) {
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    let lines = body.lines().count();
    conn.reply_text(&format!("{tag} {lines}\n{body}"));
}

/// The `STATS` / `STATS DETAIL` report, binary edition — same sections
/// as the text session, with this connection's own counters at the end.
fn stats_report(ctx: &Ctx<'_>, conn: &mut Conn, detail: bool) {
    let (engine_report, uptime) = {
        let engine = ctx.shared.lock_engine();
        let text = if detail { engine.stats_detail() } else { engine.stats().render() };
        (text, engine.uptime())
    };
    let mut report = engine_report;
    report.push_str(&format!("uptime: {:.1}s\n", uptime.as_secs_f64()));
    report.push_str(&ctx.shared.stats.render());
    report.push_str(&format!(
        "== session ==\n\
         commands: {} ({} errors)\n\
         ingest: {} rows pushed\n\
         egress: {} chunks / {} rows delivered\n",
        conn.stats.commands,
        conn.stats.errors,
        conn.stats.rows_pushed,
        conn.stats.chunks_delivered,
        conn.stats.rows_delivered,
    ));
    reply_framed(conn, "STATS", report);
}
