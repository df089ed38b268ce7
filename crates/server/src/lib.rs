//! # datacell-server
//!
//! The TCP frontend of the DataCell engine: the paper's "bridges to the
//! outside world" (§3) made real. Receptors and emitters stop being
//! in-process iterator/channel adapters and become **sockets**:
//!
//! * a `PUSH` block is a **socket receptor** — rows flow off the wire
//!   into a stream's basket in one batch: CSV lines on a text session,
//!   one columnar `PUSH` frame on a binary one;
//! * a `SUBSCRIBE`d connection is an **emitter** — result chunks stream
//!   back to the client with bounded-queue backpressure (drop-oldest, see
//!   `DataCellConfig::emitter_capacity`).
//!
//! Every connection starts in the line-oriented text protocol; a client
//! may upgrade with `HELLO BINARY 2`, after which both directions speak
//! length-prefixed frames (see [`frame`]). Text and binary are two
//! *codecs* over one server: a single reactor thread drives the listener
//! and every connection, and one command core answers both alike. Result
//! chunks are encoded **once** per (query, seq, codec) and the same bytes
//! fan out to every subscriber.
//!
//! Layering (each unit-testable below the sockets):
//!
//! * [`protocol`] — the text wire grammar: command parsing, CSV value
//!   encoding, and the incremental [`LineBuf`] line cutter. No I/O.
//! * [`frame`] — the binary wire grammar: tagged length-prefixed frames
//!   (TEXT / CHUNK / PUSH) and the incremental [`FrameBuf`] cutter. No
//!   I/O either.
//! * [`replay`] — per-query retained result tails with delivery sequence
//!   numbers and the encode-once cache, powering reconnect-with-resume
//!   (`SUBSCRIBE … AFTER`).
//! * [`reactor`] — the one I/O thread: an epoll poller (`vendor/polling`)
//!   over the listener and all connections, a per-connection codec
//!   (line or frame), the command core, text `PUSH` blocks and
//!   subscription streaming, per-connection write queues with
//!   high-water backpressure, and the idle / push-frame / write
//!   deadlines.
//! * [`server`] — the shared engine behind a mutex, the replay rings,
//!   graceful shutdown, server-wide stats.
//! * [`client`] — a blocking client for tests, the CLI and load
//!   generators; speaks both modes ([`Client::connect_binary`]) over the
//!   same two codecs.
//!
//! Binaries: `datacell-server` (the daemon) and `datacell-cli`
//! (interactive/scripted session, `--binary` for framed mode).
//!
//! ```
//! use datacell_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! // Subscriptions deliver *future* results, so subscribe (connection A)
//! // before pushing (connection B).
//! let mut a = Client::connect(server.local_addr()).unwrap();
//! a.exec("CREATE STREAM s (v BIGINT)").unwrap();
//! let q = a.register("SELECT COUNT(*) FROM s").unwrap();
//! let mut sub = a.subscribe(q, Some(1)).unwrap();
//!
//! let mut b = Client::connect(server.local_addr()).unwrap();
//! b.push_rows("s", &[vec![1i64.into()], vec![2i64.into()]]).unwrap();
//!
//! let chunk = sub.next_chunk(std::time::Duration::from_secs(10)).unwrap();
//! assert_eq!(chunk.unwrap()[0], vec![2i64.into()]);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod protocol;
pub mod reactor;
pub mod replay;
pub mod server;

pub use client::{
    Client, ClientError, ExecReply, ReconnectPolicy, ResumingSubscription, Subscription,
};
pub use frame::{Frame, FrameBuf, FrameTag};
pub use protocol::{Command, Line, LineBuf, ProtocolError};
pub use replay::ReplayRing;
pub use server::{Server, ServerConfig, ServerStats};
