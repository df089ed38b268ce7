//! In-process legs: one thread drives `push_chunk` → `run_until_idle` →
//! `Emitter::try_next`, optionally over a WAL with periodic checkpoints.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use datacell_core::{DataCell, DataCellConfig, Emitter, ExecutionMode, QueryId};

use crate::check::{QueryChecker, ResultView};
use crate::gen::Pool;
use crate::spec::Workload;
use crate::trace::Tracer;

/// Closed loop as fast as the system takes it, or open loop on the
/// workload's fixed schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pace {
    Sat,
    Paced,
}

#[derive(Clone)]
pub struct EngineOpts {
    pub wal_dir: Option<PathBuf>,
    pub observability: bool,
}

impl EngineOpts {
    fn config(&self) -> DataCellConfig {
        let base = match &self.wal_dir {
            Some(dir) => DataCellConfig::durable(dir),
            None => DataCellConfig::default(),
        };
        DataCellConfig {
            observability: self.observability,
            // Results leave through subscriptions only; nothing drains the
            // engine-internal pending queue, so bound it as the server does.
            results_capacity: Some(64),
            ..base
        }
    }
}

pub struct Inproc {
    pub cell: DataCell,
    pub qids: Vec<QueryId>,
    pub emitters: Vec<Emitter>,
}

pub struct Setup {
    pub sys: Inproc,
    /// Construction + WAL open + DDL + every register + every subscribe.
    pub setup_s: f64,
    /// One entry per `register_query_with_mode` call, µs.
    pub register_us: Vec<f64>,
}

pub fn setup(w: &Workload, opts: &EngineOpts) -> Result<Setup, String> {
    let start = Instant::now();
    let mut cell = DataCell::open(opts.config()).map_err(|e| format!("open: {e}"))?;
    for stream in &w.streams {
        cell.execute(&w.kind.ddl(stream))
            .map_err(|e| format!("ddl: {e}"))?;
    }
    let mut qids = Vec::new();
    let mut emitters = Vec::new();
    let mut register_us = Vec::new();
    for q in &w.queries {
        let sql = q.continuous_sql(w.streams[q.stream], w.batch_rows);
        let mode = if q.incremental {
            ExecutionMode::Incremental
        } else {
            ExecutionMode::Reevaluate
        };
        let t = Instant::now();
        let id = cell
            .register_query_with_mode(&sql, mode)
            .map_err(|e| format!("register {sql}: {e}"))?;
        register_us.push(t.elapsed().as_secs_f64() * 1e6);
        emitters.push(cell.subscribe(id).map_err(|e| format!("subscribe: {e}"))?);
        qids.push(id);
    }
    Ok(Setup {
        sys: Inproc {
            cell,
            qids,
            emitters,
        },
        setup_s: start.elapsed().as_secs_f64(),
        register_us,
    })
}

/// What one leg measured.
#[derive(Default)]
pub struct LegOut {
    pub steps: u64,
    pub events: u64,
    pub wall_s: f64,
    pub pushes: u64,
    pub push_failures: u64,
    pub first_push_error: Option<String>,
    /// How long the leg was asked to run.
    pub dur_s: f64,
    /// (time since leg start, events whose results the consumer holds),
    /// ns, one mark per step or received result.
    pub progress: Vec<(u64, u64)>,
    /// Paced leg: (receipt time since leg start, receipt − due of the
    /// newest contributing event), ns, one sample per result.
    pub latencies_ns: Vec<(u64, u64)>,
    /// Paced leg: how late each step started, ns.
    pub late_ns: Vec<u64>,
    /// Wall clock of each harness thread (wire legs: pusher, subscriber).
    pub thread_wall_s: Vec<f64>,
    pub backlog_end_events: u64,
    /// Result chunks and rows the consumer received.
    pub chunks_out: u64,
    pub rows_out: u64,
    pub checkpoints: u64,
    pub checkpoint_s: f64,
    /// Worst latency of a result whose due→receipt interval overlapped a
    /// checkpoint.
    pub checkpoint_stall_max_us: u64,
}

impl LegOut {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Count an operation that failed; keep the first message.
    pub fn fail(&mut self, what: String) {
        self.push_failures += 1;
        self.first_push_error.get_or_insert(what);
    }

    /// Count one push: it must have been accepted whole.
    pub fn record_push<E: std::fmt::Display>(&mut self, res: Result<usize, E>, rows: usize) {
        self.pushes += 1;
        match res {
            Ok(n) if n == rows => {}
            Ok(n) => self.fail(format!("push accepted {n} of {rows} rows")),
            Err(e) => self.fail(format!("push: {e}")),
        }
    }
}

/// When a leg ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this long (a paced leg: once its schedule has run this long).
    Elapsed(Duration),
    /// After this many steps (the post-recovery continuation).
    Steps(u64),
}

/// A paced leg whose system cannot keep the schedule gives up once it has
/// run this many times its length; the steps never sent are not failures
/// (the backlog and the latencies already tell), but the run must end.
pub const PACED_OVERRUN: f64 = 1.25;

/// Wait for `due` since `origin`: sleep the coarse part, spin the last
/// stretch, so the schedule holds to a few µs without burning a core for
/// the whole idle half of the paced leg.
pub fn wait_until(origin: Instant, due: Duration) {
    loop {
        let now = origin.elapsed();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(250) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Run one leg from step `first_step`, on the tracer's clock.
#[allow(clippy::too_many_arguments)]
pub fn run_leg(
    sys: &mut Inproc,
    w: &Workload,
    pools: &[Pool],
    checkers: &mut [QueryChecker],
    pace: Pace,
    until: Until,
    first_step: u64,
    tracer: &mut Tracer,
) -> LegOut {
    let origin = tracer.origin();
    let mut out = LegOut::default();
    if let Until::Elapsed(dur) = until {
        out.dur_s = dur.as_secs_f64();
    }
    let mut last_ckpt_ns: Option<(u64, u64)> = None;
    let base_us = w.due_us(first_step);
    let mut step = first_step;
    loop {
        // Due time on this leg's clock; `ts` carries the schedule's own.
        let due_us = w.due_us(step);
        let rel = Duration::from_micros((due_us - base_us) as u64);
        let done = match (until, pace) {
            (Until::Steps(n), _) => step - first_step >= n,
            (Until::Elapsed(dur), Pace::Sat) => origin.elapsed() >= dur,
            (Until::Elapsed(dur), Pace::Paced) => {
                rel >= dur || origin.elapsed() > dur.mul_f64(PACED_OVERRUN)
            }
        };
        if done {
            break;
        }
        if pace == Pace::Paced {
            let o = tracer.enter("harness.wait", step);
            wait_until(origin, rel);
            tracer.exit(o);
            out.late_ns
                .push((origin.elapsed().saturating_sub(rel)).as_nanos() as u64);
        }
        let root = tracer.enter("harness.step", step);
        if w.checkpoint_every > 0 && step > 0 && step.is_multiple_of(w.checkpoint_every) {
            let o = tracer.enter("core.checkpoint", step);
            let t0 = origin.elapsed();
            let res = sys.cell.checkpoint();
            let t1 = origin.elapsed();
            tracer.exit(o);
            out.checkpoints += 1;
            out.checkpoint_s += (t1 - t0).as_secs_f64();
            last_ckpt_ns = Some((t0.as_nanos() as u64, t1.as_nanos() as u64));
            if let Err(e) = res {
                out.fail(format!("checkpoint: {e}"));
            }
        }
        for (si, stream) in w.streams.iter().enumerate() {
            let o = tracer.enter("storage.chunk_build", step);
            let chunk = pools[si].chunk(step, due_us);
            tracer.exit(o);
            let o = tracer.enter("core.push", step);
            let res = sys.cell.push_chunk(stream, &chunk);
            tracer.exit(o);
            out.record_push(res, w.batch_rows);
        }
        let o = tracer.enter("core.fire", step);
        let fired = sys.cell.run_until_idle();
        tracer.exit(o);
        if let Err(e) = fired {
            out.fail(format!("run_until_idle: {e}"));
        }
        for (qi, emitter) in sys.emitters.iter().enumerate() {
            loop {
                let o = tracer.enter("core.emit", step);
                let next = emitter.try_next();
                tracer.exit(o);
                let Some(chunk) = next else { break };
                let receipt_ns = origin.elapsed().as_nanos() as u64;
                out.chunks_out += 1;
                out.rows_out += chunk.len() as u64;
                let o = tracer.enter("harness.verify", step);
                let pool = &pools[w.queries[qi].stream];
                let newest = checkers[qi].on_result(&ResultView::Chunk(&chunk), w, pool);
                if let (Pace::Paced, Some(ts)) = (pace, newest) {
                    let due_rel = (ts - base_us).max(0) as u64 * 1000;
                    let latency = receipt_ns.saturating_sub(due_rel);
                    out.latencies_ns.push((receipt_ns, latency));
                    if let Some((c0, c1)) = last_ckpt_ns {
                        if due_rel <= c1 && receipt_ns >= c0 {
                            out.checkpoint_stall_max_us =
                                out.checkpoint_stall_max_us.max(latency / 1000);
                        }
                    }
                }
                tracer.exit(o);
            }
        }
        tracer.exit(root);
        step += 1;
        out.progress.push((
            origin.elapsed().as_nanos() as u64,
            (step - first_step) * w.step_events(),
        ));
    }
    out.wall_s = origin.elapsed().as_secs_f64();
    out.thread_wall_s = vec![out.wall_s];
    out.steps = step - first_step;
    out.events = out.steps * w.step_events();
    let sent = step * w.batch_rows as u64;
    let accounted = checkers
        .iter()
        .map(|c| c.accounted_events(w.batch_rows))
        .min()
        .unwrap_or(0);
    out.backlog_end_events = sent.saturating_sub(accounted);
    out
}

/// Drop the engine and open the same WAL directory again; the recovered
/// queries keep their ids. Returns the recovery time.
pub fn reopen(sys: Inproc, opts: &EngineOpts) -> Result<(Inproc, f64), String> {
    let Inproc {
        cell,
        qids,
        emitters,
    } = sys;
    drop(emitters);
    drop(cell);
    let t = Instant::now();
    let mut cell = DataCell::open(opts.config()).map_err(|e| format!("reopen: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let mut emitters = Vec::new();
    for id in &qids {
        emitters.push(
            cell.subscribe(*id)
                .map_err(|e| format!("subscribe after reopen: {e}"))?,
        );
    }
    Ok((
        Inproc {
            cell,
            qids,
            emitters,
        },
        recovery_s,
    ))
}
