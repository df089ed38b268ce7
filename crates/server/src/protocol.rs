//! Wire protocol: framing, parsing and serialization — no sockets here,
//! so every rule is unit-testable.
//!
//! The protocol is line-oriented text (`\n`-terminated, `\r` tolerated):
//!
//! ```text
//! client → server                       server → client
//! ---------------------------------------------------------------------
//! HELLO BINARY <version>                OK HELLO BINARY <version>
//!                                         (both directions switch to
//!                                          binary frames — see `frame`)
//! SCHEMA <stream>                       OK SCHEMA <stream> <hex-schema>
//! PING                                  PONG
//! EXEC <sql>                            OK CREATED <name> | OK DROPPED <name>
//!                                       | OK INSERTED <n>
//!                                       | ROWS <n> <csv-names> + n CSV rows
//! REGISTER [INCREMENTAL|REEVAL] <sql>   OK QUERY <id>
//! DEREGISTER <id>                       OK DEREGISTERED <id>
//! PUSH <stream>                         OK PUSHED <n>
//!   <csv row> … END                       (socket-receptor bulk ingest)
//! SUBSCRIBE <id> [LIMIT <n>]            OK SUBSCRIBED <id> <epoch> <next-seq>
//!           [AFTER <epoch> <seq>]           <csv-names>
//!                                       then CHUNK <id> <n> <seq> + n CSV rows …
//! STOP          (while subscribed)      OK STOPPED <chunks> <rows>
//! overloaded engine                     OVERLOADED <retry-after-ms>
//! STATS                                 STATS <n> + n report lines
//! STATS DETAIL                          STATS <n> + n report lines
//!                                         (adds analyze + latency sections)
//! METRICS                               METRICS <n> + n Prometheus lines
//! EXPLAIN ANALYZE <id>                  ANALYZE <n> + n report lines
//! TRACE DUMP [N]                        TRACE <n> + n event lines
//! SHUTDOWN                              OK SHUTDOWN
//! QUIT                                  OK BYE
//! any error                             ERR <message>
//! ```
//!
//! Every `CHUNK` frame carries the query's monotonically increasing
//! result sequence number, scoped to one server incarnation (the
//! `<epoch>` of the subscribe handshake). A reconnecting client replays
//! its position with `AFTER <epoch> <seq>`: same epoch → the server
//! resumes from the first retained chunk after `seq`; different epoch
//! (the server restarted) → it replays everything still retained.
//!
//! Multi-line replies carry an exact line count up front, so a client
//! never needs a terminator scan. Values are CSV-encoded per
//! [`encode_value`]: strings are always double-quoted (`""` escaping),
//! `NULL` / `true` / `false` / integers / floats are bare, timestamps are
//! `@<micros>` — the same rendering `Value`'s `Display` uses, so a wire
//! chunk is byte-identical to encoding the in-process chunk.

use std::fmt;

use datacell_core::ExecutionMode;
use datacell_storage::{Chunk, DataType, Row, Schema, Value};

/// Terminator line for a `PUSH` row block.
pub const PUSH_END: &str = "END";

/// A protocol violation (malformed command, field or frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// One client command, parsed from its first line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Negotiate the binary wire mode: `HELLO BINARY <version>`. On
    /// `OK HELLO BINARY <version>` both directions switch to frames (see
    /// [`crate::frame`]); an unsupported version answers `ERR` and the
    /// session stays in text mode.
    Hello(u32),
    /// Fetch a stream's schema (`SCHEMA <stream>`), hex-encoded
    /// `binio::encode_schema` bytes — what a binary client needs to build
    /// columnar `PUSH` frames.
    Schema(String),
    /// Liveness probe.
    Ping,
    /// Run one SQL statement.
    Exec(String),
    /// Register a continuous query (`mode` = None → engine default).
    Register {
        /// The SELECT text.
        sql: String,
        /// Explicit execution mode, if any.
        mode: Option<ExecutionMode>,
    },
    /// Remove a continuous query.
    Deregister(u64),
    /// Bulk-ingest CSV rows into a stream (rows follow, then [`PUSH_END`]).
    Push(String),
    /// Stream a query's result chunks to this connection.
    Subscribe {
        /// Query id.
        query: u64,
        /// Auto-stop after this many chunks (None = until STOP/close).
        limit: Option<u64>,
        /// Resume position: `(epoch, last-seen-seq)` from a previous
        /// incarnation of this subscription (None = future chunks only).
        after: Option<(u64, u64)>,
    },
    /// Leave streaming mode (only meaningful while subscribed).
    Stop,
    /// Engine + server statistics report.
    Stats,
    /// Extended statistics: the `STATS` report plus the per-factory
    /// analyze table and the lifecycle-latency percentile summary.
    StatsDetail,
    /// Metrics registry snapshot in Prometheus text exposition format.
    Metrics,
    /// Observed-runtime table for one continuous query (`EXPLAIN ANALYZE`).
    ExplainAnalyze(u64),
    /// Drain the flight recorder (the `n` most recent events, or all).
    TraceDump(Option<usize>),
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Close this session.
    Quit,
}

/// Parse one command line.
pub fn parse_command(line: &str) -> Result<Command, ProtocolError> {
    let line = line.trim();
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (line, ""),
    };
    let expect_empty = |cmd: &str| {
        if rest.is_empty() {
            Ok(())
        } else {
            Err(err(format!("{cmd} takes no arguments")))
        }
    };
    match word.to_ascii_uppercase().as_str() {
        "HELLO" => {
            const SYNTAX: &str = "HELLO syntax: HELLO BINARY <version>";
            let mut parts = rest.split_whitespace();
            match (parts.next().map(str::to_ascii_uppercase), parts.next(), parts.next()) {
                (Some(kw), Some(v), None) if kw == "BINARY" => v
                    .parse::<u32>()
                    .map(Command::Hello)
                    .map_err(|_| err(format!("HELLO BINARY requires a version, got {v:?}"))),
                _ => Err(err(SYNTAX)),
            }
        }
        "SCHEMA" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                return Err(err("SCHEMA requires exactly one stream name"));
            }
            Ok(Command::Schema(rest.to_owned()))
        }
        "PING" => expect_empty("PING").map(|()| Command::Ping),
        "EXEC" => {
            if rest.is_empty() {
                return Err(err("EXEC requires a SQL statement"));
            }
            Ok(Command::Exec(rest.to_owned()))
        }
        "REGISTER" => {
            if rest.is_empty() {
                return Err(err("REGISTER requires a SELECT statement"));
            }
            let (head, tail) = match rest.split_once(char::is_whitespace) {
                Some((h, t)) => (h, t.trim()),
                None => (rest, ""),
            };
            let (mode, sql) = match head.to_ascii_uppercase().as_str() {
                "INCREMENTAL" => (Some(ExecutionMode::Incremental), tail),
                "REEVAL" => (Some(ExecutionMode::Reevaluate), tail),
                _ => (None, rest),
            };
            if sql.is_empty() {
                return Err(err("REGISTER requires a SELECT statement"));
            }
            Ok(Command::Register { sql: sql.to_owned(), mode })
        }
        "DEREGISTER" => rest
            .parse::<u64>()
            .map(Command::Deregister)
            .map_err(|_| err(format!("DEREGISTER requires a query id, got {rest:?}"))),
        "PUSH" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                return Err(err("PUSH requires exactly one stream name"));
            }
            Ok(Command::Push(rest.to_owned()))
        }
        "SUBSCRIBE" => {
            const SYNTAX: &str =
                "SUBSCRIBE syntax: SUBSCRIBE <id> [LIMIT <n>] [AFTER <epoch> <seq>]";
            let mut parts = rest.split_whitespace();
            let id = parts
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err(format!("SUBSCRIBE requires a query id, got {rest:?}")))?;
            let mut limit = None;
            let mut after = None;
            while let Some(kw) = parts.next() {
                match kw.to_ascii_uppercase().as_str() {
                    "LIMIT" if limit.is_none() => {
                        let n = parts.next().ok_or_else(|| err(SYNTAX))?;
                        limit = Some(
                            n.parse::<u64>().map_err(|_| {
                                err(format!("LIMIT requires a count, got {n:?}"))
                            })?,
                        );
                    }
                    "AFTER" if after.is_none() => {
                        let epoch = parts
                            .next()
                            .and_then(|t| t.parse::<u64>().ok())
                            .ok_or_else(|| err(SYNTAX))?;
                        let seq = parts
                            .next()
                            .and_then(|t| t.parse::<u64>().ok())
                            .ok_or_else(|| err(SYNTAX))?;
                        after = Some((epoch, seq));
                    }
                    _ => return Err(err(SYNTAX)),
                }
            }
            Ok(Command::Subscribe { query: id, limit, after })
        }
        "STOP" => expect_empty("STOP").map(|()| Command::Stop),
        "STATS" => {
            if rest.is_empty() {
                Ok(Command::Stats)
            } else if rest.eq_ignore_ascii_case("DETAIL") {
                Ok(Command::StatsDetail)
            } else {
                Err(err("STATS syntax: STATS [DETAIL]"))
            }
        }
        "METRICS" => expect_empty("METRICS").map(|()| Command::Metrics),
        "EXPLAIN" => {
            let (head, tail) = match rest.split_once(char::is_whitespace) {
                Some((h, t)) => (h, t.trim()),
                None => (rest, ""),
            };
            if !head.eq_ignore_ascii_case("ANALYZE") {
                return Err(err("EXPLAIN syntax: EXPLAIN ANALYZE <query-id>"));
            }
            tail.parse::<u64>()
                .map(Command::ExplainAnalyze)
                .map_err(|_| err(format!("EXPLAIN ANALYZE requires a query id, got {tail:?}")))
        }
        "TRACE" => {
            let mut parts = rest.split_whitespace();
            match (parts.next().map(str::to_ascii_uppercase), parts.next(), parts.next()) {
                (Some(kw), None, _) if kw == "DUMP" => Ok(Command::TraceDump(None)),
                (Some(kw), Some(n), None) if kw == "DUMP" => n
                    .parse::<usize>()
                    .map(|n| Command::TraceDump(Some(n)))
                    .map_err(|_| err(format!("TRACE DUMP requires a count, got {n:?}"))),
                _ => Err(err("TRACE syntax: TRACE DUMP [<n>]")),
            }
        }
        "SHUTDOWN" => expect_empty("SHUTDOWN").map(|()| Command::Shutdown),
        "QUIT" => expect_empty("QUIT").map(|()| Command::Quit),
        other => Err(err(format!("unknown command {other:?}"))),
    }
}

// ---- value / row CSV encoding ----------------------------------------

/// Encode one value as a CSV field. Strings are always quoted (with `""`
/// escaping), everything else uses `Value`'s `Display` rendering — which
/// makes `NULL`, booleans, numbers and `@micros` timestamps unambiguous.
///
/// Because the framing is line-oriented, newlines (and backslashes)
/// inside quoted strings are backslash-escaped: `\n`, `\r`, `\\`. A raw
/// newline must never reach the wire inside a field, or it would split
/// the frame — and, on the `PUSH` path, let data inject protocol
/// commands.
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\"\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    _ => out.push(c),
                }
            }
            out.push('"');
            out
        }
        other => other.to_string(),
    }
}

/// Encode a row as one CSV line (no trailing newline).
pub fn encode_row(row: &[Value]) -> String {
    row.iter().map(encode_value).collect::<Vec<_>>().join(",")
}

/// Encode a column-name list as one CSV line (names are quoted only when
/// they contain a delimiter or quote).
pub fn encode_names(names: &[String]) -> String {
    names
        .iter()
        .map(|n| {
            if n.contains([',', '"']) {
                encode_value(&Value::Str(n.clone()))
            } else {
                n.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Encode one result chunk as a `CHUNK` frame (header + rows, each line
/// `\n`-terminated). `seq` is the chunk's per-query delivery sequence
/// number — the client's resume cursor.
pub fn encode_chunk(query: u64, seq: u64, chunk: &Chunk) -> String {
    let mut out = format!("CHUNK {query} {} {seq}\n", chunk.len());
    for row in chunk.rows() {
        out.push_str(&encode_row(&row));
        out.push('\n');
    }
    out
}

/// One CSV field plus whether it was quoted (quoted ⇒ always a string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Unescaped field text.
    pub text: String,
    /// Whether the field was written in double quotes.
    pub quoted: bool,
}

/// Split one CSV line into fields, honouring double-quote escaping.
pub fn split_fields(line: &str) -> Result<Vec<Field>, ProtocolError> {
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut text = String::new();
        let mut quoted = false;
        if chars.peek() == Some(&'"') {
            quoted = true;
            chars.next();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            text.push('"');
                        } else {
                            break;
                        }
                    }
                    Some('\\') => match chars.next() {
                        Some('n') => text.push('\n'),
                        Some('r') => text.push('\r'),
                        Some('\\') => text.push('\\'),
                        other => {
                            return Err(err(format!(
                                "bad escape \\{} in quoted field",
                                other.map(String::from).unwrap_or_default()
                            )))
                        }
                    },
                    Some(c) => text.push(c),
                    None => return Err(err("unterminated quoted field")),
                }
            }
            match chars.next() {
                None => {
                    fields.push(Field { text, quoted });
                    return Ok(fields);
                }
                Some(',') => {
                    fields.push(Field { text, quoted });
                    continue;
                }
                Some(c) => return Err(err(format!("unexpected {c:?} after quoted field"))),
            }
        }
        loop {
            match chars.next() {
                None => {
                    fields.push(Field { text, quoted });
                    return Ok(fields);
                }
                Some(',') => {
                    fields.push(Field { text, quoted });
                    break;
                }
                Some('"') => return Err(err("quote inside unquoted field")),
                Some(c) => text.push(c),
            }
        }
    }
}

/// Decode one field without schema knowledge (result rows): quoted →
/// string; otherwise `NULL`, booleans, `@micros`, integers and floats.
pub fn decode_value(field: &Field) -> Result<Value, ProtocolError> {
    if field.quoted {
        return Ok(Value::Str(field.text.clone()));
    }
    let t = field.text.as_str();
    match t {
        "NULL" => return Ok(Value::Null),
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(ts) = t.strip_prefix('@') {
        return ts
            .parse::<i64>()
            .map(Value::Timestamp)
            .map_err(|_| err(format!("bad timestamp field {t:?}")));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(x) = t.parse::<f64>() {
        return Ok(Value::Float(x));
    }
    Err(err(format!("undecodable field {t:?}")))
}

/// Decode a result row (schema-less: the encoding is self-describing).
pub fn decode_row(line: &str) -> Result<Row, ProtocolError> {
    split_fields(line)?.iter().map(decode_value).collect()
}

/// Decode one ingest row against a stream schema (`PUSH` path): each field
/// is coerced to its column's type; empty or `NULL` bare fields are NULL.
pub fn decode_typed_row(line: &str, schema: &Schema) -> Result<Row, ProtocolError> {
    let fields = split_fields(line)?;
    if fields.len() != schema.arity() {
        return Err(err(format!(
            "row has {} fields, stream has {} columns",
            fields.len(),
            schema.arity()
        )));
    }
    fields
        .iter()
        .zip(schema.columns())
        .map(|(f, col)| {
            if !f.quoted && (f.text.is_empty() || f.text == "NULL") {
                return Ok(Value::Null);
            }
            let t = f.text.as_str();
            let parsed = match col.ty {
                DataType::Str => Some(Value::Str(t.to_owned())),
                _ if f.quoted => None,
                DataType::Bool => t.parse::<bool>().ok().map(Value::Bool),
                DataType::Int => t.parse::<i64>().ok().map(Value::Int),
                DataType::Float => t.parse::<f64>().ok().map(Value::Float),
                DataType::Timestamp => t
                    .strip_prefix('@')
                    .unwrap_or(t)
                    .parse::<i64>()
                    .ok()
                    .map(Value::Timestamp),
            };
            parsed.ok_or_else(|| {
                err(format!("column {:?} ({:?}): bad field {t:?}", col.name, col.ty))
            })
        })
        .collect()
}

/// Render an error reply line (newlines folded so the frame stays one line).
pub fn err_line(msg: &str) -> String {
    format!("ERR {}\n", msg.replace(['\n', '\r'], "; "))
}

// ---- hex (SCHEMA reply payload) ---------------------------------------

/// Lowercase hex of `bytes` (the `OK SCHEMA` reply carries binary schema
/// bytes inside a text line).
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let hi = b >> 4;
        let lo = b & 0xf;
        for n in [hi, lo] {
            out.push(char::from_digit(n as u32, 16).unwrap_or('0'));
        }
    }
    out
}

/// Inverse of [`encode_hex`].
pub fn decode_hex(s: &str) -> Result<Vec<u8>, ProtocolError> {
    if !s.len().is_multiple_of(2) {
        return Err(err("odd-length hex payload"));
    }
    let digits: Vec<u8> = s
        .chars()
        .map(|c| {
            c.to_digit(16)
                .map(|d| d as u8)
                .ok_or_else(|| err(format!("bad hex digit {c:?}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(digits.chunks_exact(2).map(|p| (p[0] << 4) | p[1]).collect())
}

// ---- incremental line cutter -------------------------------------------

/// Upper bound on one protocol line; longer input is a framing error.
pub const MAX_LINE: usize = 1 << 20;

/// Compact the line buffer once this many consumed bytes accumulate.
const LINE_COMPACT_AT: usize = 64 * 1024;

/// One cut out of a [`LineBuf`].
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line, terminator (`\n` or `\r\n`) stripped.
    Complete(String),
    /// A line longer than [`MAX_LINE`]. Its bytes were discarded through
    /// the terminating newline, so the stream stays in sync and the
    /// receiver can answer `ERR` instead of hanging up.
    Overlong,
}

/// Byte-stream accumulator that cuts `\n`-terminated lines out of
/// arbitrary read chunks — the text counterpart of
/// [`FrameBuf`](crate::frame::FrameBuf), and like it free of I/O.
///
/// Usage: [`LineBuf::push_bytes`] whatever the socket produced, then loop
/// [`LineBuf::next_line`] until it returns `None` (read more). Partial
/// lines stay buffered across reads; an oversize line is dropped while it
/// streams in, so memory stays bounded by [`MAX_LINE`] plus one read. At
/// end of input, [`LineBuf::finish`] yields the unterminated final line.
#[derive(Debug, Default)]
pub struct LineBuf {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    pos: usize,
    /// `buf[pos..scanned]` is known to hold no newline.
    scanned: usize,
    /// An oversize line is being skipped: drop bytes until its newline,
    /// then report [`Line::Overlong`].
    discarding: bool,
}

impl LineBuf {
    /// An empty accumulator.
    pub fn new() -> LineBuf {
        LineBuf::default()
    }

    /// Append bytes read from the peer.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if self.pos >= LINE_COMPACT_AT || self.pos == self.buf.len() {
            self.buf.drain(..self.pos);
            self.scanned -= self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, or `None` until more bytes arrive.
    pub fn next_line(&mut self) -> Option<Line> {
        let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            if self.discarding || self.scanned - self.pos > MAX_LINE {
                // Nothing before the newline matters; drop what is buffered.
                self.buf.clear();
                self.pos = 0;
                self.scanned = 0;
                self.discarding = true;
            }
            return None;
        };
        let end = self.scanned + at;
        let start = std::mem::replace(&mut self.pos, end + 1);
        self.scanned = end + 1;
        if std::mem::take(&mut self.discarding) || end - start > MAX_LINE {
            return Some(Line::Overlong);
        }
        let line = &self.buf[start..end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        Some(Line::Complete(String::from_utf8_lossy(line).into_owned()))
    }

    /// End of input: the unterminated final line, if any (an oversize one
    /// as [`Line::Overlong`]). Call after [`LineBuf::next_line`] returned
    /// `None`; leaves the buffer empty.
    pub fn finish(&mut self) -> Option<Line> {
        let overlong = self.discarding;
        let tail = self.take_buffered();
        if overlong {
            Some(Line::Overlong)
        } else if tail.is_empty() {
            None
        } else {
            Some(Line::Complete(String::from_utf8_lossy(&tail).into_owned()))
        }
    }

    /// Surrender the raw bytes past the last line cut. At the
    /// `HELLO BINARY` switch they are the peer's first frames.
    pub fn take_buffered(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.pos);
        self.buf.clear();
        self.pos = 0;
        self.scanned = 0;
        self.discarding = false;
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_storage::Bat;

    #[test]
    fn parse_basic_commands() {
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(parse_command("  quit  ").unwrap(), Command::Quit);
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
        assert_eq!(parse_command("STOP").unwrap(), Command::Stop);
        assert_eq!(
            parse_command("EXEC SELECT * FROM t").unwrap(),
            Command::Exec("SELECT * FROM t".into())
        );
        assert_eq!(parse_command("push trades").unwrap(), Command::Push("trades".into()));
        assert_eq!(parse_command("DEREGISTER 12").unwrap(), Command::Deregister(12));
    }

    #[test]
    fn parse_register_modes() {
        assert_eq!(
            parse_command("REGISTER SELECT COUNT(*) FROM s").unwrap(),
            Command::Register { sql: "SELECT COUNT(*) FROM s".into(), mode: None }
        );
        assert_eq!(
            parse_command("REGISTER INCREMENTAL SELECT 1 FROM s").unwrap(),
            Command::Register {
                sql: "SELECT 1 FROM s".into(),
                mode: Some(ExecutionMode::Incremental)
            }
        );
        assert_eq!(
            parse_command("REGISTER REEVAL SELECT 1 FROM s").unwrap(),
            Command::Register {
                sql: "SELECT 1 FROM s".into(),
                mode: Some(ExecutionMode::Reevaluate)
            }
        );
    }

    #[test]
    fn parse_subscribe_forms() {
        assert_eq!(
            parse_command("SUBSCRIBE 3").unwrap(),
            Command::Subscribe { query: 3, limit: None, after: None }
        );
        assert_eq!(
            parse_command("SUBSCRIBE 3 LIMIT 10").unwrap(),
            Command::Subscribe { query: 3, limit: Some(10), after: None }
        );
        assert_eq!(
            parse_command("SUBSCRIBE 3 AFTER 17 42").unwrap(),
            Command::Subscribe { query: 3, limit: None, after: Some((17, 42)) }
        );
        assert_eq!(
            parse_command("SUBSCRIBE 3 LIMIT 5 AFTER 17 42").unwrap(),
            Command::Subscribe { query: 3, limit: Some(5), after: Some((17, 42)) }
        );
        assert!(parse_command("SUBSCRIBE").is_err());
        assert!(parse_command("SUBSCRIBE x").is_err());
        assert!(parse_command("SUBSCRIBE 3 LIMIT").is_err());
        assert!(parse_command("SUBSCRIBE 3 LIMIT 1 junk").is_err());
        assert!(parse_command("SUBSCRIBE 3 AFTER 17").is_err());
        assert!(parse_command("SUBSCRIBE 3 AFTER 17 x").is_err());
        assert!(parse_command("SUBSCRIBE 3 AFTER 1 2 AFTER 3 4").is_err());
        assert!(parse_command("SUBSCRIBE 3 LIMIT 1 LIMIT 2").is_err());
    }

    #[test]
    fn parse_negotiation_commands() {
        assert_eq!(parse_command("HELLO BINARY 2").unwrap(), Command::Hello(2));
        assert_eq!(parse_command("hello binary 2").unwrap(), Command::Hello(2));
        assert_eq!(parse_command("SCHEMA trades").unwrap(), Command::Schema("trades".into()));
        assert!(parse_command("HELLO").is_err());
        assert!(parse_command("HELLO BINARY").is_err());
        assert!(parse_command("HELLO BINARY x").is_err());
        assert!(parse_command("HELLO TEXT 1").is_err());
        assert!(parse_command("HELLO BINARY 2 junk").is_err());
        assert!(parse_command("SCHEMA").is_err());
        assert!(parse_command("SCHEMA a b").is_err());
    }

    #[test]
    fn hex_roundtrip() {
        for bytes in [&[][..], &[0x00][..], &[0xde, 0xad, 0xbe, 0xef][..]] {
            let s = encode_hex(bytes);
            assert_eq!(decode_hex(&s).unwrap(), bytes);
        }
        assert_eq!(encode_hex(&[0x0f, 0xa0]), "0fa0");
        assert!(decode_hex("abc").is_err());
        assert!(decode_hex("zz").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_command("").is_err());
        assert!(parse_command("FROB").is_err());
        assert!(parse_command("PING now").is_err());
        assert!(parse_command("EXEC").is_err());
        assert!(parse_command("REGISTER").is_err());
        assert!(parse_command("REGISTER INCREMENTAL").is_err());
        assert!(parse_command("PUSH a b").is_err());
        assert!(parse_command("DEREGISTER one").is_err());
    }

    #[test]
    fn parse_observability_commands() {
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics);
        assert_eq!(parse_command("stats detail").unwrap(), Command::StatsDetail);
        assert_eq!(
            parse_command("EXPLAIN ANALYZE 7").unwrap(),
            Command::ExplainAnalyze(7)
        );
        assert_eq!(parse_command("TRACE DUMP").unwrap(), Command::TraceDump(None));
        assert_eq!(
            parse_command("trace dump 25").unwrap(),
            Command::TraceDump(Some(25))
        );
        assert!(parse_command("METRICS now").is_err());
        assert!(parse_command("STATS VERBOSE").is_err());
        assert!(parse_command("EXPLAIN").is_err());
        assert!(parse_command("EXPLAIN ANALYZE").is_err());
        assert!(parse_command("EXPLAIN ANALYZE x").is_err());
        assert!(parse_command("TRACE").is_err());
        assert!(parse_command("TRACE DUMP x").is_err());
        assert!(parse_command("TRACE DUMP 1 junk").is_err());
    }

    #[test]
    fn value_roundtrip() {
        let row: Row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Str("plain".into()),
            Value::Str("with,comma and \"quotes\"".into()),
            Value::Str("NULL".into()), // literal string, stays a string
            Value::Str("multi\nline\r\\slash".into()),
            Value::Timestamp(99),
        ];
        let line = encode_row(&row);
        assert_eq!(decode_row(&line).unwrap(), row);
    }

    #[test]
    fn encoding_is_stable() {
        assert_eq!(encode_value(&Value::Float(2.0)), "2.0");
        assert_eq!(encode_value(&Value::Timestamp(5)), "@5");
        assert_eq!(encode_value(&Value::Str("a\"b".into())), "\"a\"\"b\"");
        assert_eq!(
            encode_row(&[Value::Int(1), Value::Str("x,y".into())]),
            "1,\"x,y\""
        );
    }

    #[test]
    fn newlines_never_reach_the_wire_raw() {
        // A newline inside a value must not split the line frame (it
        // would desync the protocol — or inject commands via PUSH).
        let v = Value::Str("a\nEND\nSHUTDOWN".into());
        let encoded = encode_value(&v);
        assert!(!encoded.contains('\n'), "raw newline leaked: {encoded:?}");
        assert_eq!(encoded, "\"a\\nEND\\nSHUTDOWN\"");
        assert_eq!(decode_row(&encoded).unwrap(), vec![v]);
        assert!(split_fields("\"bad\\x\"").is_err());
    }

    #[test]
    fn split_fields_errors() {
        assert!(split_fields("\"open").is_err());
        assert!(split_fields("\"a\"junk").is_err());
        assert!(split_fields("a\"b").is_err());
        assert_eq!(
            split_fields("a,,\"\"").unwrap(),
            vec![
                Field { text: "a".into(), quoted: false },
                Field { text: String::new(), quoted: false },
                Field { text: String::new(), quoted: true },
            ]
        );
    }

    #[test]
    fn typed_rows_follow_schema() {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("temp", DataType::Float),
            ("tag", DataType::Str),
            ("ok", DataType::Bool),
            ("ts", DataType::Timestamp),
        ]);
        let row = decode_typed_row("4,19.5,\"a,b\",true,@77", &schema).unwrap();
        assert_eq!(
            row,
            vec![
                Value::Int(4),
                Value::Float(19.5),
                Value::Str("a,b".into()),
                Value::Bool(true),
                Value::Timestamp(77),
            ]
        );
        // Bare timestamps (no @) and unquoted strings are accepted too.
        let row = decode_typed_row("4,19,plain,false,77", &schema).unwrap();
        assert_eq!(row[1], Value::Float(19.0));
        assert_eq!(row[2], Value::Str("plain".into()));
        assert_eq!(row[4], Value::Timestamp(77));
        // NULLs.
        let row = decode_typed_row("NULL,,NULL,,", &schema).unwrap();
        assert!(row.iter().all(Value::is_null));
        // Errors: arity and type.
        assert!(decode_typed_row("1,2", &schema).is_err());
        assert!(decode_typed_row("x,1,a,true,1", &schema).is_err());
    }

    #[test]
    fn chunk_frame_has_exact_row_count() {
        let chunk = Chunk::new(vec![
            Bat::from_ints(vec![1, 2]),
            Bat::from_floats(vec![0.5, 1.5]),
        ])
        .unwrap();
        let frame = encode_chunk(9, 31, &chunk);
        assert_eq!(frame, "CHUNK 9 2 31\n1,0.5\n2,1.5\n");
    }

    #[test]
    fn err_line_is_single_line() {
        assert_eq!(err_line("boom\nline2"), "ERR boom; line2\n");
    }

    mod roundtrip_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_float() -> BoxedStrategy<f64> {
            prop_oneof![
                // Raw bit patterns: covers subnormals, both zero signs and
                // every exponent; NaN patterns are asserted NaN-preserving.
                (0u64..u64::MAX).prop_map(f64::from_bits),
                (0f64..1.0).prop_map(|x| x + 0.2),
                Just(-0.0f64),
                Just(5e-324),
                Just(f64::MIN_POSITIVE),
                Just(f64::MAX),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
            ]
            .boxed()
        }

        fn arb_value() -> BoxedStrategy<Value> {
            let ch = prop_oneof![
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('\r'),
                Just(','),
                Just('@'),
                Just('é'),
                (97u32..123).prop_map(|c| char::from_u32(c).unwrap_or('x')),
            ];
            prop_oneof![
                Just(Value::Null),
                Just(Value::Bool(true)),
                Just(Value::Bool(false)),
                (i64::MIN..i64::MAX).prop_map(Value::Int),
                arb_float().prop_map(Value::Float),
                collection::vec(ch, 0..16)
                    .prop_map(|cs| Value::Str(cs.into_iter().collect())),
                (i64::MIN..i64::MAX).prop_map(Value::Timestamp),
            ]
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn text_roundtrip_bit_for_bit(vals in collection::vec(arb_value(), 1..8)) {
                let line = encode_row(&vals);
                let back = decode_row(&line).unwrap();
                prop_assert_eq!(back.len(), vals.len());
                for (b, v) in back.iter().zip(&vals) {
                    match (b, v) {
                        (Value::Float(b), Value::Float(v)) => {
                            // NaN payload bits don't survive text ("NaN"),
                            // but NaN-ness must.
                            if v.is_nan() {
                                prop_assert!(b.is_nan(), "NaN decoded as {b:?}");
                            } else {
                                prop_assert_eq!(b.to_bits(), v.to_bits(), "float {v:?}");
                            }
                        }
                        _ => prop_assert_eq!(b, v),
                    }
                }
            }
        }
    }

    #[test]
    fn names_quoted_only_when_needed() {
        assert_eq!(
            encode_names(&["a".into(), "count_star".into()]),
            "a,count_star"
        );
        assert_eq!(encode_names(&["a,b".into()]), "\"a,b\"");
    }

    #[test]
    fn line_buf_splits_and_survives_partials() {
        // Data in awkward slices, with idle gaps between the reads, must
        // never lose a partial line.
        let mut r = LineBuf::new();
        r.push_bytes(b"PI");
        assert_eq!(r.next_line(), None);
        r.push_bytes(b"NG\r\nEX");
        assert_eq!(r.next_line(), Some(Line::Complete("PING".into())));
        assert_eq!(r.next_line(), None);
        r.push_bytes(b"EC 1\ntail");
        assert_eq!(r.next_line(), Some(Line::Complete("EXEC 1".into())));
        assert_eq!(r.next_line(), None);
        // End of input flushes the unterminated tail as a final line.
        assert_eq!(r.finish(), Some(Line::Complete("tail".into())));
        assert_eq!(r.finish(), None);
    }

    #[test]
    fn line_buf_skips_unbounded_lines_and_resyncs() {
        // An oversize line followed by a normal one: the cutter reports
        // Overlong once, discards through the newline, and produces the
        // next line intact — bounded memory throughout.
        let mut r = LineBuf::new();
        let piece = [b'x'; 8192];
        for _ in 0..(3 << 20) / piece.len() {
            r.push_bytes(&piece);
            assert_eq!(r.next_line(), None);
            assert!(r.buf.len() <= MAX_LINE + piece.len(), "unbounded buffering");
        }
        r.push_bytes(b"\nPING\n");
        assert_eq!(r.next_line(), Some(Line::Overlong));
        assert_eq!(r.next_line(), Some(Line::Complete("PING".into())));
        assert_eq!(r.next_line(), None);
    }

    #[test]
    fn line_buf_reports_overlong_final_line_on_eof() {
        // More than MAX_LINE, then end of input: one Overlong, then nothing.
        let mut r = LineBuf::new();
        let piece = [b'y'; 8192];
        for _ in 0..(2 << 20) / piece.len() {
            r.push_bytes(&piece);
            assert_eq!(r.next_line(), None);
        }
        assert_eq!(r.finish(), Some(Line::Overlong));
        assert_eq!(r.finish(), None);
    }
}
