//! The server: a TCP listener hosting one shared [`DataCell`] engine.
//!
//! Threading model (no async runtime — plain `std::net` over an epoll
//! poller, the build environment is offline): **one thread**, the
//! [`reactor`](crate::reactor), owns the listening socket and every
//! connection, text and binary alike, whatever their number.
//!
//! * the listener is registered in the poller, so accepting is
//!   readiness-driven like every other socket event;
//! * commands that can enable factories (`PUSH`, `EXEC INSERT`,
//!   `REGISTER`) run the scheduler to quiescence before acknowledging, so
//!   no background heartbeat is needed; each reactor tick pulls every
//!   replay ring forward instead;
//! * **graceful shutdown** raises a flag the reactor checks every tick,
//!   closes all subscriber queues via [`DataCell::shutdown`] so streaming
//!   connections end their `CHUNK` streams, and joins the reactor.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use datacell_core::{DataCell, DataCellConfig, EngineError, Faults};

use crate::replay::{Delivery, ReplayRing, WireFormat};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Engine configuration.
    pub engine: DataCellConfig,
    /// SQL script (`;`-separated) run against the engine before the
    /// listener opens — typically `CREATE STREAM`s.
    pub init_script: Option<String>,
    /// Result chunks retained per subscribed query for
    /// reconnect-with-resume (`SUBSCRIBE … AFTER`): a reconnecting client
    /// can recover at most this many missed chunks.
    pub replay_capacity: usize,
    /// Close command-mode sessions with no input for this long (`None` =
    /// never). Streaming sessions are exempt — a subscriber is legitimately
    /// quiet for hours.
    pub idle_timeout: Option<Duration>,
    /// A `PUSH` block must reach its `END` within this deadline of the
    /// last row received, or the batch is discarded with an `ERR` (a
    /// stalled producer must not pin a session forever mid-frame).
    pub push_frame_timeout: Duration,
    /// How long a connection's queued replies and chunks may make no
    /// write progress (`None` = forever). A wedged client that stops
    /// reading is disconnected at this deadline, releasing its queue.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Results are delivered through subscriptions only; nothing in
            // the server ever calls `take_results`, so the engine-internal
            // pending queue must be bounded or a long-running server leaks
            // one chunk per firing per query.
            engine: DataCellConfig {
                results_capacity: Some(64),
                ..DataCellConfig::default()
            },
            init_script: None,
            replay_capacity: 256,
            idle_timeout: Some(Duration::from_secs(300)),
            push_frame_timeout: Duration::from_secs(10),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// The per-connection resilience knobs, copied out of [`ServerConfig`]
/// into [`SharedState`] so the reactor never needs the whole config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionTuning {
    pub idle_timeout: Option<Duration>,
    pub push_frame_timeout: Duration,
    pub write_timeout: Option<Duration>,
}

/// Server-wide counters, aggregated across all connections (atomics so
/// counting never contends on the engine mutex).
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub sessions_opened: AtomicU64,
    pub sessions_closed: AtomicU64,
    pub commands: AtomicU64,
    pub rows_pushed: AtomicU64,
    pub chunks_delivered: AtomicU64,
    pub rows_delivered: AtomicU64,
    pub errors: AtomicU64,
}

impl StatCounters {
    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            rows_pushed: self.rows_pushed.load(Ordering::Relaxed),
            chunks_delivered: self.chunks_delivered.load(Ordering::Relaxed),
            rows_delivered: self.rows_delivered.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Render the server section of the `STATS` report.
    pub(crate) fn render(&self) -> String {
        let s = self.snapshot();
        format!(
            "== server ==\n\
             sessions: {} opened, {} closed\n\
             commands: {} ({} errors)\n\
             ingest: {} rows pushed\n\
             egress: {} chunks / {} rows delivered\n",
            s.sessions_opened,
            s.sessions_closed,
            s.commands,
            s.errors,
            s.rows_pushed,
            s.chunks_delivered,
            s.rows_delivered,
        )
    }
}

/// Point-in-time snapshot of the server-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub sessions_opened: u64,
    /// Connections fully torn down.
    pub sessions_closed: u64,
    /// Commands dispatched across all sessions.
    pub commands: u64,
    /// Stream tuples ingested over sockets.
    pub rows_pushed: u64,
    /// Result chunks streamed to subscribers.
    pub chunks_delivered: u64,
    /// Result rows streamed to subscribers.
    pub rows_delivered: u64,
    /// Commands answered with `ERR`.
    pub errors: u64,
}

/// State shared by the reactor thread and the [`Server`] handle.
///
/// Lock order: **engine before rings** — a thread holding the rings lock
/// must never take the engine lock.
pub(crate) struct SharedState {
    engine: Mutex<DataCell>,
    shutdown: AtomicBool,
    pub(crate) stats: StatCounters,
    /// Incarnation id (start-time millis): scope of replay sequence
    /// numbers. A client resuming with a different epoch gets the oldest
    /// retained chunks instead of a seq-based resume.
    pub(crate) epoch: u64,
    rings: Mutex<HashMap<u64, ReplayRing>>,
    replay_capacity: usize,
    pub(crate) tuning: SessionTuning,
    /// Fault-injection facade (cloned out of the engine config so the
    /// reactor's socket I/O consults the same schedule as the WAL).
    pub(crate) faults: Faults,
}

impl SharedState {
    /// Lock the engine, transparently recovering from poisoning (a
    /// panicked command must not wedge the whole server).
    pub(crate) fn lock_engine(&self) -> MutexGuard<'_, DataCell> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_rings(&self) -> MutexGuard<'_, HashMap<u64, ReplayRing>> {
        self.rings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Make sure `query` has a replay ring (creating its engine tap on
    /// first subscribe), then place a cursor for a (re)connecting
    /// subscriber. Returns `(cursor, next_seq)`: the connection delivers
    /// chunks with `seq > cursor`, and `next_seq = cursor + 1` is echoed
    /// in the subscribe handshake.
    pub(crate) fn attach_subscriber(
        &self,
        query: u64,
        after: Option<(u64, u64)>,
    ) -> Result<(u64, u64), EngineError> {
        // Engine lock strictly before the rings lock.
        let mut engine = self.lock_engine();
        let mut rings = self.lock_rings();
        if let Entry::Vacant(slot) = rings.entry(query) {
            let tap = engine.subscribe(query)?;
            slot.insert(ReplayRing::new(tap, self.replay_capacity));
        }
        drop(engine);
        let Some(ring) = rings.get_mut(&query) else {
            // Unreachable: inserted above; keep the deny-path panic-free.
            return Err(EngineError::UnknownQuery(query));
        };
        ring.drain_tap();
        let cursor = match after {
            // Same incarnation: resume right after the client's last seen
            // chunk (chunks already evicted are simply gone — bounded ring).
            Some((epoch, seq)) if epoch == self.epoch => seq,
            // Server restarted (or first contact): replay everything still
            // retained, which for a fresh ring means "future chunks only".
            Some(_) => ring.oldest_retained().saturating_sub(1),
            None => ring.next_seq().saturating_sub(1),
        };
        Ok((cursor, cursor + 1))
    }

    /// Drain the query's tap and return up to `max` chunks past `cursor`,
    /// encoded for `format` (at most once per chunk and format,
    /// `Arc`-shared across subscribers), plus whether the ring is closed
    /// (deregistered / engine shutdown — once drained, the stream is
    /// over).
    pub(crate) fn fetch_ring(
        &self,
        query: u64,
        cursor: u64,
        max: usize,
        format: WireFormat,
    ) -> (Vec<Delivery>, bool) {
        let mut rings = self.lock_rings();
        match rings.get_mut(&query) {
            Some(ring) => {
                ring.drain_tap();
                (ring.fetch(query, cursor, max, format), ring.is_closed())
            }
            None => (Vec::new(), true),
        }
    }

    /// Pull every ring's tap forward so sequence numbers are assigned and
    /// chunks retained even while no subscriber is attached. (Rings of
    /// deregistered queries stay, closed, so a late resume sees a clean
    /// end-of-stream rather than an unknown query.)
    pub(crate) fn drain_rings(&self) {
        let mut rings = self.lock_rings();
        for ring in rings.values_mut() {
            ring.drain_tap();
        }
    }
}

/// A running DataCell TCP server.
pub struct Server {
    shared: Arc<SharedState>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Build the engine (recovering it from the WAL when durability is
    /// configured and the directory holds state), run the init script,
    /// bind the listener and start the reactor thread.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let mut engine = DataCell::open(config.engine.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if engine.recovered() {
            // The catalog and query network came back from disk; replaying
            // the init script would collide with the recovered DDL.
            eprintln!("datacell-server: recovered engine state; skipping init script");
        } else if let Some(script) = &config.init_script {
            engine
                .execute_script(script)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let epoch = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let faults = engine.config().faults.clone();
        let obs = engine.obs().clone();
        let shared = Arc::new(SharedState {
            engine: Mutex::new(engine),
            shutdown: AtomicBool::new(false),
            stats: StatCounters::default(),
            epoch,
            rings: Mutex::new(HashMap::new()),
            replay_capacity: config.replay_capacity,
            tuning: SessionTuning {
                idle_timeout: config.idle_timeout,
                push_frame_timeout: config.push_frame_timeout,
                write_timeout: config.write_timeout,
            },
            faults,
        });
        // Prime a replay ring for every recovered query *before* the
        // listener opens, then fire whatever the recovered baskets already
        // enable: those chunks are retained for resume, not dropped.
        {
            let mut engine = shared.lock_engine();
            let mut rings = shared.lock_rings();
            for query in engine.query_ids() {
                if let Ok(tap) = engine.subscribe(query) {
                    rings.insert(query, ReplayRing::new(tap, shared.replay_capacity));
                }
            }
            let _ = engine.run_until_idle();
        }
        let reactor = crate::reactor::spawn(listener, shared.clone(), obs)?;
        Ok(Server { shared, addr, reactor: Some(reactor) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This incarnation's epoch — the scope of replay sequence numbers
    /// (echoed to clients in the `SUBSCRIBE` handshake).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Whether some connection issued `SHUTDOWN` (or [`Server::shutdown`]
    /// already ran). The embedding binary polls this to know when to tear
    /// the server down.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.is_shutdown()
    }

    /// Current server-wide counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Run `f` against the engine under the server's mutex (test and
    /// embedding hook — e.g. seed data or inspect `EngineStats`).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut DataCell) -> R) -> R {
        f(&mut self.shared.lock_engine())
    }

    /// Graceful shutdown: close subscriber queues (ending every `CHUNK`
    /// stream), stop accepting, join the reactor, then checkpoint the
    /// engine (catalog snapshot + log fsync) when durability is on — so a
    /// restart recovers from a compact snapshot instead of a long meta-log
    /// replay. Returns the final counter snapshot.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.request_shutdown();
        self.shared.lock_engine().shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // Every connection is gone: the engine is quiescent — checkpoint.
        if let Err(e) = self.shared.lock_engine().checkpoint() {
            eprintln!("datacell-server: shutdown checkpoint failed: {e}");
        }
        self.shared.stats.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt and braces for tests that forget to call shutdown(): raise
        // the flag so the reactor exits on its next tick; it is not joined.
        self.shared.request_shutdown();
        self.shared.lock_engine().shutdown();
    }
}
