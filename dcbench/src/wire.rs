//! Wire legs: an in-process `Server::start` on loopback, one pusher
//! connection (this thread) and one subscriber connection (a second
//! thread) — the two client threads the 2-core box allows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use datacell_core::{DataCellConfig, EngineStats};
use datacell_server::{Client, ReconnectPolicy, ResumingSubscription, Server, ServerConfig};
use datacell_storage::Row;

use crate::check::{QueryChecker, ResultView};
use crate::gen::Pool;
use crate::inproc::{wait_until, LegOut, Pace, PACED_OVERRUN};
use crate::spec::{Transport, Workload};
use crate::trace::Tracer;

/// Sat leg: the pusher has one push outstanding (it waits for each ack)
/// and may run at most this many events ahead of the subscriber, so a
/// slow consumer throttles the producer instead of overflowing the
/// server's replay ring (256 chunks) and turning into lost results, and
/// the memory held in queues does not depend on how the threads happened
/// to be scheduled. Several times what the text session's delivery timer
/// releases per tick, so the timer does not set the rate.
const MAX_LEAD_EVENTS: u64 = 65_536;

/// How long the subscriber keeps reading for missing results after the
/// pusher has finished.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub struct WireSys {
    server: Server,
    pusher: Client,
    sub: ResumingSubscription,
}

pub struct Setup {
    pub sys: WireSys,
    /// Server start (engine + DDL + listener) + connects + `HELLO` +
    /// `REGISTER` + `SUBSCRIBE` + `SCHEMA`.
    pub setup_s: f64,
    pub register_us: Vec<f64>,
}

pub fn setup(w: &Workload, observability: bool) -> Result<Setup, String> {
    let binary = w.transport == Transport::WireBinary;
    let stream = w.streams[0];
    let start = Instant::now();
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        init_script: Some(w.kind.ddl(stream)),
        engine: DataCellConfig {
            observability,
            ..defaults.engine.clone()
        },
        ..defaults
    };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let mut control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    let sql = w.queries[0].continuous_sql(stream, w.batch_rows);
    let t = Instant::now();
    let q = control
        .register(&sql)
        .map_err(|e| format!("register {sql}: {e}"))?;
    let register_us = vec![t.elapsed().as_secs_f64() * 1e6];
    let policy = ReconnectPolicy::default();
    let sub = if binary {
        ResumingSubscription::connect_binary_with(addr.to_string(), q, policy)
    } else {
        ResumingSubscription::connect_with(addr.to_string(), q, policy)
    }
    .map_err(|e| format!("subscribe: {e}"))?;
    let pusher = if binary {
        let mut c = Client::connect_binary(addr).map_err(|e| format!("pusher connect: {e}"))?;
        c.schema_of(stream).map_err(|e| format!("schema: {e}"))?;
        c
    } else {
        Client::connect(addr).map_err(|e| format!("pusher connect: {e}"))?
    };
    Ok(Setup {
        sys: WireSys {
            server,
            pusher,
            sub,
        },
        setup_s: start.elapsed().as_secs_f64(),
        register_us,
    })
}

/// The reactor's encode-once frame cache counters after a leg.
pub struct FrameCache {
    pub hits: u64,
    pub misses: u64,
}

/// Close both client connections, read the engine's counters, stop the
/// server and wait for its threads.
pub fn teardown(sys: WireSys) -> (EngineStats, FrameCache) {
    let WireSys {
        server,
        pusher,
        sub,
    } = sys;
    drop(pusher);
    drop(sub);
    let (stats, hits, misses) = server.with_engine(|e| {
        let snap = e.metrics_snapshot();
        (
            e.stats(),
            snap.counter("datacell_reactor_frame_cache_hits_total")
                .unwrap_or(0),
            snap.counter("datacell_reactor_frame_cache_misses_total")
                .unwrap_or(0),
        )
    });
    server.shutdown();
    (stats, FrameCache { hits, misses })
}

pub struct WireLeg {
    pub out: LegOut,
    pub pusher_trace: Tracer,
    pub subscriber_trace: Tracer,
}

pub fn run_leg(
    sys: &mut WireSys,
    w: &Workload,
    pool: &Pool,
    checker: &mut QueryChecker,
    pace: Pace,
    dur: Duration,
    traced: bool,
) -> WireLeg {
    let origin = Instant::now();
    let stream = w.streams[0];
    let received = AtomicU64::new(0);
    // u64::MAX until the pusher is done and knows how many it sent.
    let pushed_total = AtomicU64::new(u64::MAX);
    let mut out = LegOut {
        dur_s: dur.as_secs_f64(),
        ..LegOut::default()
    };
    let mut pusher_trace = Tracer::new(traced, origin, "pusher");
    let WireSys { pusher, sub, .. } = sys;

    let (sub_out, subscriber_trace) = std::thread::scope(|scope| {
        let subscriber = scope.spawn(|| {
            let mut tracer = Tracer::new(traced, origin, "subscriber");
            // What the consumer saw; folded into `out` after the join.
            // Its `wall_s` is when it received its last result.
            let mut seen = LegOut::default();
            let mut done_at: Option<Instant> = None;
            let (epoch, mut seq) = sub.position();
            loop {
                let total = pushed_total.load(Ordering::Acquire);
                if total != u64::MAX {
                    if checker.next_result >= total {
                        break;
                    }
                    if done_at.get_or_insert_with(Instant::now).elapsed() > DRAIN_TIMEOUT {
                        break;
                    }
                }
                let o = tracer.enter("server.subscriber_wait", checker.next_result);
                let next = sub.next_chunk(Duration::from_millis(50));
                tracer.exit(o);
                let rows = match next {
                    Ok(Some(rows)) => rows,
                    Ok(None) if sub.finished() => {
                        seen.fail("subscription ended".to_owned());
                        break;
                    }
                    Ok(None) => continue,
                    Err(e) => {
                        seen.fail(format!("subscriber: {e}"));
                        break;
                    }
                };
                let receipt = origin.elapsed();
                let receipt_ns = receipt.as_nanos() as u64;
                seen.wall_s = receipt.as_secs_f64();
                seen.chunks_out += 1;
                seen.rows_out += rows.len() as u64;
                let o = tracer.enter("harness.verify", checker.next_result);
                let (e, s) = sub.position();
                if e != epoch || s != seq + 1 {
                    seen.fail(format!(
                        "(epoch, seq) jumped from ({epoch}, {seq}) to ({e}, {s})"
                    ));
                }
                seq = s;
                let newest = checker.on_result(&ResultView::Rows(&rows), w, pool);
                if let (Pace::Paced, Some(ts)) = (pace, newest) {
                    let latency = receipt_ns.saturating_sub(ts.max(0) as u64 * 1000);
                    seen.latencies_ns.push((receipt_ns, latency));
                }
                seen.progress
                    .push((receipt_ns, checker.accounted_events(w.batch_rows)));
                received.store(checker.next_result, Ordering::Release);
                // Freeing a few thousand rows is the consumer's cost too.
                drop(rows);
                tracer.exit(o);
            }
            seen.thread_wall_s.push(origin.elapsed().as_secs_f64());
            (seen, tracer)
        });

        // The pusher, on this thread.
        let mut rows: Vec<Row> = Vec::new();
        let dur_us = dur.as_micros() as i64;
        let mut step = 0u64;
        loop {
            let due_us = w.due_us(step);
            match pace {
                Pace::Paced => {
                    if due_us >= dur_us || origin.elapsed() > dur.mul_f64(PACED_OVERRUN) {
                        break;
                    }
                    let o = pusher_trace.enter("harness.wait", step);
                    wait_until(origin, Duration::from_micros(due_us as u64));
                    pusher_trace.exit(o);
                    out.late_ns.push(
                        (origin.elapsed().as_nanos() as u64).saturating_sub(due_us as u64 * 1000),
                    );
                }
                Pace::Sat => {
                    if origin.elapsed() >= dur {
                        break;
                    }
                    let o = pusher_trace.enter("harness.lead_wait", step);
                    while step - received.load(Ordering::Acquire)
                        >= MAX_LEAD_EVENTS / w.batch_rows as u64
                        && origin.elapsed() < dur + DRAIN_TIMEOUT
                    {
                        // Sleep, not spin: on two cores a spinning producer
                        // takes the CPU the consumer it waits for needs.
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    pusher_trace.exit(o);
                }
            }
            let root = pusher_trace.enter("harness.step", step);
            let o = pusher_trace.enter("harness.fill_rows", step);
            pool.fill_rows(step, due_us, &mut rows);
            pusher_trace.exit(o);
            let o = pusher_trace.enter("server.push_rtt", step);
            let res = pusher.push_rows(stream, &rows);
            pusher_trace.exit(o);
            out.record_push(res, w.batch_rows);
            pusher_trace.exit(root);
            step += 1;
        }
        out.steps = step;
        out.thread_wall_s.push(origin.elapsed().as_secs_f64());
        // Sent but not yet in a received result, at the moment the
        // schedule ends: grows when the paced rate is not sustainable.
        out.backlog_end_events =
            (step - received.load(Ordering::Acquire).min(step)) * w.batch_rows as u64;
        pushed_total.store(step, Ordering::Release);
        subscriber.join().expect("subscriber thread panicked")
    });

    out.latencies_ns = sub_out.latencies_ns;
    out.progress = sub_out.progress;
    out.thread_wall_s.extend(sub_out.thread_wall_s);
    out.chunks_out = sub_out.chunks_out;
    out.rows_out = sub_out.rows_out;
    out.push_failures += sub_out.push_failures;
    if out.first_push_error.is_none() {
        out.first_push_error = sub_out.first_push_error;
    }
    out.events = checker.accounted_events(w.batch_rows);
    // The clock stops when the consumer holds the last result.
    out.wall_s = sub_out.wall_s.max(1e-9);
    WireLeg {
        out,
        pusher_trace,
        subscriber_trace,
    }
}
