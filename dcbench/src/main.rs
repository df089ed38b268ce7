//! dcbench — the repository's benchmark. See README.md beside this
//! package for what every workload and metric means and why it is there.
//!
//! Driver form (one workload, one JSON result line last on stdout):
//!   dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! Human form (every workload, each in its own child process):
//!   dcbench all --seed <n> [--seconds <s>] [--trace] [--quick]

mod check;
mod gen;
mod inproc;
mod layers;
mod report;
mod spec;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use datacell_core::{EngineStats, WalStats};

use check::QueryChecker;
use gen::{Fnv, Pool};
use inproc::{EngineOpts, LegOut, Pace, Until};
use report::{iqm, median, percentile, Metric};
use spec::{Transport, Workload};
use trace::Tracer;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "1/s"),
    ("result_latency_p50_us", "us"),
    ("result_latency_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A layer that is not on a
/// workload's path reads 0 there.
const PER_LAYER: [(&str, &str); 40] = [
    ("plan.register_us", "us"),
    ("storage.chunk_build_ns_per_event", "ns"),
    ("storage.binio_encode_ns_per_event", "ns"),
    ("storage.binio_decode_ns_per_event", "ns"),
    ("algebra.kernel_ns_per_event", "ns"),
    ("core.push_ns_per_event", "ns"),
    ("core.push_busy_share", "share"),
    ("core.fire_ns_per_event", "ns"),
    ("core.fire_busy_share", "share"),
    ("core.firings", "count"),
    ("core.events_per_firing", "count"),
    ("core.shared_hit_ratio", "ratio"),
    ("core.emit_ns_per_event", "ns"),
    ("core.emit_busy_share", "share"),
    ("core.chunks_out", "count"),
    ("core.rows_out", "count"),
    ("core.emitter_dropped", "count"),
    ("wal.append_ns_per_event", "ns"),
    ("wal.bytes_per_event", "B"),
    ("wal.fsyncs", "count"),
    ("wal.io_retries", "count"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_stall_max_us", "us"),
    ("wal.recovery_s", "s"),
    ("server.push_rtt_p50_us", "us"),
    ("server.frame_encode_ns_per_event", "ns"),
    ("server.frame_decode_ns_per_event", "ns"),
    ("server.text_parse_ns_per_event", "ns"),
    ("server.wire_bytes_per_event", "B"),
    ("server.subscriber_wait_share", "share"),
    ("server.frame_cache_hit_ratio", "ratio"),
    ("server.wire_overhead_ns_per_event", "ns"),
    ("obs.overhead_share", "share"),
    ("trace_overhead_share", "share"),
    ("harness.self_share", "share"),
    ("reconcile.unattributed_share", "share"),
    ("result_latency_p99_us", "us"),
    ("result_latency_max_us", "us"),
    ("generator_late_p95_us", "us"),
    ("backlog_end_events", "count"),
];

/// Share of `--seconds` the untraced run gives its sat leg; the paced leg,
/// whose percentiles need the samples, gets the rest.
const SAT_SHARE: f64 = 0.3;

/// Independent systems the sat leg's time is split over.
const SAT_SUBLEGS: usize = 3;

/// Steps pushed after the durable workload's reopen, to see the result
/// sequence continue.
const CONTINUATION_STEPS: u64 = 16;

/// In-process layers must add up to the wall clock this closely.
const RECONCILE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       dcbench all --seed <n> [--seconds <s>] [--trace] [--quick]\nworkloads: {}",
        spec::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let all = argv.first().is_some_and(|a| a == "all");
    let mut args = Args {
        workload: if all { "all".into() } else { String::new() },
        seed: 1,
        seconds: 14.0,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter().skip(usize::from(all));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--trace" if all => args.trace = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(v) = it.next() else { usage() };
                match flag.as_str() {
                    "--workload" => args.workload = v.clone(),
                    "--seed" => args.seed = v.parse().unwrap_or_else(|_| usage()),
                    "--seconds" => args.seconds = v.parse().unwrap_or_else(|_| usage()),
                    _ => args.trace = v == "1",
                }
            }
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// What to run for one leg.
#[derive(Clone, Copy)]
struct LegPlan {
    name: &'static str,
    pace: Pace,
    dur: Duration,
    traced: bool,
    observability: bool,
    /// Run a wire or durable workload's query and batches on a plain
    /// in-process engine instead.
    twin: bool,
    /// Durable only: reopen the WAL directory afterwards and continue.
    reopen: bool,
}

struct LegReport {
    plan: LegPlan,
    out: LegOut,
    checkers: Vec<QueryChecker>,
    traces: Vec<Tracer>,
    stats: EngineStats,
    wal: Option<WalStats>,
    frame_cache: Option<wire::FrameCache>,
    setup_s: f64,
    register_us: Vec<f64>,
    recovery_s: Option<f64>,
    /// Steps including the post-recovery continuation.
    total_steps: u64,
}

struct Run<'a> {
    w: &'a Workload,
    pools: &'a [Pool],
    /// One unused checker per query; every leg starts from a copy (the
    /// per-batch expectations in them scan the whole pool to build).
    fresh_checkers: Vec<QueryChecker>,
    run_dir: &'a Path,
    wal_seq: u32,
}

impl Run<'_> {
    fn leg(&mut self, plan: LegPlan) -> Result<LegReport, String> {
        let w = self.w;
        let mut checkers = self.fresh_checkers.clone();
        if w.transport.is_wire() && !plan.twin {
            let s = wire::setup(w, plan.observability)?;
            let mut sys = s.sys;
            let leg = wire::run_leg(
                &mut sys,
                w,
                &self.pools[0],
                &mut checkers[0],
                plan.pace,
                plan.dur,
                plan.traced,
            );
            let (stats, frame_cache) = wire::teardown(sys);
            let total_steps = leg.out.steps;
            return Ok(LegReport {
                plan,
                out: leg.out,
                checkers,
                traces: vec![leg.pusher_trace, leg.subscriber_trace],
                stats,
                wal: None,
                frame_cache: Some(frame_cache),
                setup_s: s.setup_s,
                register_us: s.register_us,
                recovery_s: None,
                total_steps,
            });
        }
        let wal_dir = (w.transport == Transport::Durable && !plan.twin).then(|| {
            self.wal_seq += 1;
            self.run_dir.join(format!("wal-{}", self.wal_seq))
        });
        let opts = EngineOpts {
            wal_dir: wal_dir.clone(),
            observability: plan.observability,
        };
        let s = inproc::setup(w, &opts)?;
        let mut sys = s.sys;
        let mut tracer = Tracer::new(plan.traced, Instant::now(), "main");
        let mut out = inproc::run_leg(
            &mut sys,
            w,
            self.pools,
            &mut checkers,
            plan.pace,
            Until::Elapsed(plan.dur),
            0,
            &mut tracer,
        );
        let stats = sys.cell.stats();
        let wal = sys.cell.wal_stats();
        let mut total_steps = out.steps;
        let mut recovery_s = None;
        if plan.reopen && wal_dir.is_some() {
            let (mut reopened, secs) = inproc::reopen(sys, &opts)?;
            recovery_s = Some(secs);
            let more = inproc::run_leg(
                &mut reopened,
                w,
                self.pools,
                &mut checkers,
                Pace::Sat,
                Until::Steps(CONTINUATION_STEPS),
                out.steps,
                &mut Tracer::off(),
            );
            total_steps += more.steps;
            out.pushes += more.pushes;
            out.push_failures += more.push_failures;
            if out.first_push_error.is_none() {
                out.first_push_error = more.first_push_error;
            }
            drop(reopened);
        } else {
            drop(sys);
        }
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(LegReport {
            plan,
            out,
            checkers,
            traces: vec![tracer],
            stats,
            wal,
            frame_cache: None,
            setup_s: s.setup_s,
            register_us: s.register_us,
            recovery_s,
            total_steps,
        })
    }
}

/// Pushes and expected results against failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    fn add_leg(&mut self, w: &Workload, r: &LegReport) {
        self.attempted += r.out.pushes;
        self.failed += r.out.push_failures;
        if let Some(e) = &r.out.first_push_error {
            self.error(format!("{} leg: {e}", r.plan.name));
        }
        for (qi, c) in r.checkers.iter().enumerate() {
            let expected = (r.total_steps + 1).saturating_sub(w.queries[qi].span_batches());
            let missing = expected.saturating_sub(c.next_result);
            self.attempted += expected;
            self.failed += c.failures + missing;
            if missing > 0 {
                self.error(format!(
                    "{} leg: query {qi}: {missing} of {expected} results never arrived",
                    r.plan.name
                ));
            }
            if let Some(e) = &c.first_error {
                self.error(format!("{} leg: query {qi}: {e}", r.plan.name));
            }
        }
        if r.stats.dropped_chunks > 0 {
            self.error(format!(
                "{} leg: {} result chunks dropped by a full emitter",
                r.plan.name, r.stats.dropped_chunks
            ));
        }
    }

    fn add_oracle(&mut self, w: &Workload, pools: &[Pool], r: &LegReport) {
        for (qi, c) in r.checkers.iter().enumerate() {
            let (compared, differ, first) =
                check::oracle_check(w, qi, &pools[w.queries[qi].stream], c);
            self.attempted += compared;
            self.failed += differ;
            if let Some(e) = first {
                self.error(e);
            }
        }
    }
}

impl LegReport {
    /// Self time of `span` on the first harness thread, ns per event.
    fn ns_per_event(&self, span: &str) -> f64 {
        *self.traces[0].self_ns().get(span).unwrap_or(&0) as f64 / self.out.events.max(1) as f64
    }

    /// Share of the first harness thread's wall clock no span accounts
    /// for.
    fn unattributed(&self) -> f64 {
        1.0 - self_total_ns(&self.traces[0]) as f64 / (self.out.thread_wall_s[0] * 1e9)
    }
}

/// Sat-leg event rate: the interquartile mean of the leg's time slices.
fn rate(r: &LegReport) -> f64 {
    iqm(&report::slice_rates(&r.out.progress, r.out.dur_s))
}

fn self_total_ns(t: &Tracer) -> u64 {
    t.self_ns().values().sum()
}

fn share_of(self_ns: &BTreeMap<&'static str, u64>, name: &str, wall_ns: f64) -> f64 {
    *self_ns.get(name).unwrap_or(&0) as f64 / wall_ns.max(1.0)
}

fn print_shares(w: &Workload, r: &LegReport) {
    let threads = if r.traces.len() > 1 {
        ["pusher", "subscriber"]
    } else {
        ["main", ""]
    };
    for ((t, thread), wall_s) in r.traces.iter().zip(threads).zip(&r.out.thread_wall_s) {
        if t.spans().is_empty() {
            continue;
        }
        let wall_ns = wall_s * 1e9;
        let self_ns = t.self_ns();
        for (name, ns) in &self_ns {
            println!(
                "share\t{}\t{}\t{thread}\t{name}\t{:.4}",
                w.name,
                r.plan.name,
                *ns as f64 / wall_ns
            );
        }
        let rest = 1.0 - self_total_ns(t) as f64 / wall_ns;
        println!(
            "share\t{}\t{}\t{thread}\tunattributed\t{rest:.4}",
            w.name, r.plan.name
        );
    }
}

fn write_traces(reports: &[&LegReport], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in reports {
        for t in &r.traces {
            t.write_jsonl(r.plan.name, &mut out)?;
        }
    }
    out.flush()
}

fn print_stamp(args: &Args, w: &Workload, run_dir: &Path, pools: &[Pool]) {
    let stamp = |k: &str, v: String| println!("stamp\t{k}\t{v}");
    stamp("workload", w.name.to_owned());
    stamp("why", w.why.to_owned());
    stamp("seed", args.seed.to_string());
    stamp("seconds", args.seconds.to_string());
    stamp("traced", args.trace.to_string());
    stamp("git_sha", report::git_sha());
    stamp(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, usize::from)
            .to_string(),
    );
    stamp("rustc", report::rustc_version());
    stamp("wal_dir_fs", report::fs_type(run_dir));
    stamp("paced_rate_events_per_s", w.paced_rate.to_string());
    stamp("batch_rows", w.batch_rows.to_string());
    let mut h = Fnv::new();
    for p in pools {
        h.write(&p.checksum().to_le_bytes());
    }
    stamp("input_checksum", format!("{:016x}", h.finish()));
    let loc = report::rust_loc();
    for (krate, n) in &loc {
        stamp(&format!("rust_loc.{krate}"), n.to_string());
    }
    stamp("rust_loc.total", loc.values().sum::<u64>().to_string());
}

fn print_metric(w: &Workload, m: &Metric, class: &str) {
    println!(
        "metric\t{}\t{}\t{}\t{}\t{class}",
        w.name, m.name, m.value, m.unit
    );
}

fn result_checksum(r: &LegReport) -> u64 {
    let mut h = Fnv::new();
    for c in &r.checkers {
        c.checksum(&mut h);
    }
    h.finish()
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(
    args: &Args,
    run: &mut Run<'_>,
    tally: &mut Tally,
    gen_s: f64,
) -> Result<Vec<Metric>, String> {
    let w = run.w;
    let base = LegPlan {
        name: "sat",
        pace: Pace::Sat,
        dur: Duration::from_secs_f64(args.seconds * SAT_SHARE),
        traced: false,
        observability: true,
        twin: false,
        reopen: false,
    };
    // The sat leg runs as sub-legs, each on a freshly built system: where
    // the OS happens to place one system's threads is sticky for that
    // system's life and moves the wire rates by a tenth or more, so one
    // placement must not decide the run.
    let mut sats = Vec::new();
    let mut peak_rss_mb = 0.0;
    for _ in 0..SAT_SUBLEGS {
        sats.push(run.leg(LegPlan {
            dur: base.dur.div_f64(SAT_SUBLEGS as f64),
            ..base
        })?);
        // Taken once, after the first thing the process ran: later legs
        // sit on whatever the allocator kept from earlier ones, which
        // varies by tens of MiB from run to run.
        if sats.len() == 1 {
            peak_rss_mb = report::peak_rss_mb();
        }
    }
    let paced = run.leg(LegPlan {
        name: "paced",
        pace: Pace::Paced,
        dur: Duration::from_secs_f64(args.seconds * (1.0 - SAT_SHARE)),
        reopen: true,
        ..base
    })?;
    // Set-up is milliseconds; repeat it so its median is steady.
    let mut setups: Vec<f64> = sats.iter().chain([&paced]).map(|r| r.setup_s).collect();
    let budget = Instant::now();
    while setups.len() < 5
        || (setups.len() < 401 && budget.elapsed().as_secs_f64() < args.seconds * 0.03)
    {
        let r = run.leg(LegPlan {
            name: "setup",
            dur: Duration::ZERO,
            ..base
        })?;
        setups.push(r.setup_s);
    }
    for r in sats.iter().chain([&paced]) {
        tally.add_leg(w, r);
    }
    let sat = &sats[0];
    tally.add_oracle(w, run.pools, sat);

    let lat_ns = &paced.out.latencies_ns;
    let mut lat: Vec<u64> = lat_ns.iter().map(|(_, l)| *l).collect();
    lat.sort_unstable();
    let mut late = paced.out.late_ns.clone();
    late.sort_unstable();
    let rates: Vec<f64> = sats
        .iter()
        .flat_map(|r| report::slice_rates(&r.out.progress, r.out.dur_s))
        .collect();
    let p50s = report::slice_percentiles(lat_ns, paced.out.dur_s, 50.0);
    let p95s = report::slice_percentiles(lat_ns, paced.out.dur_s, 95.0);
    let values = [
        iqm(&rates),
        iqm(&p50s) / 1e3,
        iqm(&p95s) / 1e3,
        median(&setups),
        peak_rss_mb,
    ];
    let gated: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, value, unit })
        .collect();
    for m in &gated {
        print_metric(w, m, "gated");
    }
    let reported = [
        Metric {
            name: "events_per_s_whole_leg",
            value: sats.iter().map(|r| r.out.events).sum::<u64>() as f64
                / sats.iter().map(|r| r.out.wall_s).sum::<f64>().max(1e-9),
            unit: "1/s",
        },
        Metric {
            name: "result_latency_p99_us",
            value: percentile(&lat, 99.0) / 1e3,
            unit: "us",
        },
        Metric {
            name: "result_latency_max_us",
            value: percentile(&lat, 100.0) / 1e3,
            unit: "us",
        },
        Metric {
            name: "generator_late_p95_us",
            value: percentile(&late, 95.0) / 1e3,
            unit: "us",
        },
        Metric {
            name: "backlog_end_events",
            value: paced.out.backlog_end_events as f64,
            unit: "count",
        },
        Metric {
            name: "paced_events_per_s",
            value: paced.out.events_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "failed_share",
            value: tally.failed as f64 / tally.attempted.max(1) as f64,
            unit: "share",
        },
        Metric {
            name: "gen_s",
            value: gen_s,
            unit: "s",
        },
    ];
    for m in &reported {
        print_metric(w, m, "reported");
    }
    println!(
        "stamp\tsat_leg\t{SAT_SUBLEGS} sub-legs; the first: {} events in {:.3} s ({} steps of {} rows x {} stream(s))",
        sat.out.events,
        sat.out.wall_s,
        sat.out.steps,
        w.batch_rows,
        w.streams.len()
    );
    println!(
        "stamp\tpaced_leg\t{} events in {:.3} s, {} latency samples in {} slices, about {} beyond p95 in each",
        paced.out.events,
        paced.out.wall_s,
        lat.len(),
        p95s.len(),
        lat.len() / p95s.len().max(1) / 20
    );
    let join = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.1}", x / scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("stamp\tslices.events_per_s\t{}", join(&rates, 1.0));
    println!("stamp\tslices.result_latency_p50_us\t{}", join(&p50s, 1e3));
    println!("stamp\tslices.result_latency_p95_us\t{}", join(&p95s, 1e3));
    println!("stamp\tsetup_samples\t{}", setups.len());
    if let Some(s) = paced.recovery_s {
        println!("stamp\treopen\trecovered in {s:.4} s, {CONTINUATION_STEPS} more steps continued the result sequence");
    }
    println!("stamp\tresult_checksum\t{:016x}", result_checksum(sat));
    Ok(gated)
}

/// The traced run: per-layer metrics, layer shares, reconciliation.
fn run_traced(args: &Args, run: &mut Run<'_>, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let w = run.w;
    let wire = w.transport.is_wire();
    let durable = w.transport == Transport::Durable;
    // Four legs everywhere; wire and durable add an in-process twin.
    let legs = if wire || durable { 5.0 } else { 4.0 };
    let probe_s = (args.seconds * 0.01).clamp(0.02, 0.15);
    let dur =
        Duration::from_secs_f64((args.seconds - 8.0 * probe_s).max(args.seconds * 0.5) / legs);
    let base = LegPlan {
        name: "sat-untraced",
        pace: Pace::Sat,
        dur,
        traced: false,
        observability: true,
        twin: false,
        reopen: false,
    };
    let untraced = run.leg(base)?;
    let traced = run.leg(LegPlan {
        name: "sat-traced",
        traced: true,
        ..base
    })?;
    let obs_off = run.leg(LegPlan {
        name: "sat-obs-off",
        observability: false,
        ..base
    })?;
    let paced = run.leg(LegPlan {
        name: "paced-traced",
        pace: Pace::Paced,
        traced: true,
        reopen: true,
        ..base
    })?;
    let twin = if wire || durable {
        Some(run.leg(LegPlan {
            name: "sat-twin-traced",
            traced: true,
            twin: true,
            ..base
        })?)
    } else {
        None
    };
    let prices = layers::measure(w, run.pools, Duration::from_secs_f64(probe_s));

    let mut reports = vec![&untraced, &traced, &obs_off, &paced];
    reports.extend(twin.as_ref());
    for r in &reports {
        tally.add_leg(w, r);
    }
    tally.add_oracle(w, run.pools, &untraced);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let registers: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.register_us.iter().copied())
        .collect();
    v.insert("plan.register_us", median(&registers));
    v.insert("storage.chunk_build_ns_per_event", prices.chunk_build);
    v.insert("storage.binio_encode_ns_per_event", prices.binio_encode);
    v.insert("storage.binio_decode_ns_per_event", prices.binio_decode);
    v.insert("algebra.kernel_ns_per_event", prices.kernel);
    v.insert("server.frame_encode_ns_per_event", prices.frame_encode);
    v.insert("server.frame_decode_ns_per_event", prices.frame_decode);
    v.insert("server.text_parse_ns_per_event", prices.text_parse);
    v.insert("server.wire_bytes_per_event", prices.wire_bytes);

    // Engine layers: timed around the public calls of the traced sat leg
    // in process; for a wire workload, of its in-process twin. A share is
    // the layer's ns/event times the workload's own traced event rate.
    let engine_leg = if wire {
        twin.as_ref().unwrap_or(&traced)
    } else {
        &traced
    };
    let mut engine_ns_per_event = 0.0;
    for (span, per_event, share) in [
        (
            "core.push",
            "core.push_ns_per_event",
            "core.push_busy_share",
        ),
        (
            "core.fire",
            "core.fire_ns_per_event",
            "core.fire_busy_share",
        ),
        (
            "core.emit",
            "core.emit_ns_per_event",
            "core.emit_busy_share",
        ),
    ] {
        let ns = engine_leg.ns_per_event(span);
        engine_ns_per_event += ns;
        v.insert(per_event, ns);
        v.insert(share, ns * traced.out.events_per_s() / 1e9);
    }
    let stats = &traced.stats;
    v.insert("core.firings", stats.total_firings as f64);
    v.insert(
        "core.events_per_firing",
        traced.out.events as f64 / stats.total_firings.max(1) as f64,
    );
    let lookups = stats.shared_hits + stats.shared_misses;
    v.insert(
        "core.shared_hit_ratio",
        stats.shared_hits as f64 / lookups.max(1) as f64,
    );
    v.insert("core.chunks_out", traced.out.chunks_out as f64);
    v.insert("core.rows_out", traced.out.rows_out as f64);
    v.insert(
        "core.emitter_dropped",
        reports.iter().map(|r| r.stats.dropped_chunks).sum::<u64>() as f64,
    );

    if let (Some(wal), Some(twin)) = (&traced.wal, &twin) {
        v.insert(
            "wal.append_ns_per_event",
            traced.ns_per_event("core.push") - twin.ns_per_event("core.push"),
        );
        v.insert(
            "wal.bytes_per_event",
            wal.wal_bytes as f64 / traced.out.events.max(1) as f64,
        );
        v.insert("wal.fsyncs", wal.fsync_us.count as f64);
        v.insert("wal.io_retries", wal.io_retries as f64);
        v.insert(
            "core.checkpoint_s",
            paced.out.checkpoint_s / paced.out.checkpoints.max(1) as f64,
        );
        v.insert(
            "core.checkpoint_stall_max_us",
            paced.out.checkpoint_stall_max_us as f64,
        );
        v.insert("wal.recovery_s", paced.recovery_s.unwrap_or(0.0));
    }
    if let Some(cache) = &traced.frame_cache {
        let rtt = traced.traces[0].durations_ns("server.push_rtt");
        v.insert("server.push_rtt_p50_us", percentile(&rtt, 50.0) / 1e3);
        let sub_self = traced.traces[1].self_ns();
        let sub_wall_ns = traced
            .out
            .thread_wall_s
            .get(1)
            .copied()
            .unwrap_or(traced.out.wall_s)
            * 1e9;
        v.insert(
            "server.subscriber_wait_share",
            share_of(&sub_self, "server.subscriber_wait", sub_wall_ns),
        );
        v.insert(
            "server.frame_cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        // What the wire adds: the wire leg's time per event minus what
        // the engine alone spends on the same query and batches.
        v.insert(
            "server.wire_overhead_ns_per_event",
            1e9 / rate(&traced).max(1.0) - engine_ns_per_event,
        );
    }
    v.insert(
        "obs.overhead_share",
        1.0 - rate(&untraced) / rate(&obs_off).max(1.0),
    );
    v.insert(
        "trace_overhead_share",
        1.0 - rate(&traced) / rate(&untraced).max(1.0),
    );

    // Reconciliation: the harness thread's spans against its wall clock.
    let main_self = traced.traces[0].self_ns();
    let wall_ns = traced.out.thread_wall_s[0] * 1e9;
    let harness: u64 = main_self
        .iter()
        .filter(|(n, _)| n.starts_with("harness."))
        .map(|(_, ns)| *ns)
        .sum();
    v.insert("harness.self_share", harness as f64 / wall_ns);
    v.insert("reconcile.unattributed_share", traced.unattributed());
    for r in [&traced, &paced] {
        print_shares(w, r);
        let gap = r.unattributed();
        if !wire && gap.abs() > RECONCILE_TOLERANCE {
            tally.attempted += 1;
            tally.failed += 1;
            tally.error(format!(
                "{} leg: push + fire + emit + checkpoint + harness self time is {:.1}% away from the wall clock (limit {:.0}%)",
                r.plan.name,
                gap * 100.0,
                RECONCILE_TOLERANCE * 100.0
            ));
        }
    }
    if let Some(t) = &twin {
        print_shares(w, t);
    }

    let mut late = paced.out.late_ns.clone();
    late.sort_unstable();
    v.insert("generator_late_p95_us", percentile(&late, 95.0) / 1e3);
    v.insert("backlog_end_events", paced.out.backlog_end_events as f64);
    let mut lat: Vec<u64> = paced.out.latencies_ns.iter().map(|(_, l)| *l).collect();
    lat.sort_unstable();
    v.insert("result_latency_p99_us", percentile(&lat, 99.0) / 1e3);
    v.insert("result_latency_max_us", percentile(&lat, 100.0) / 1e3);

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name,
            value: *v.get(name).unwrap_or(&0.0),
            unit,
        })
        .collect();
    for m in &metrics {
        print_metric(w, m, "layer");
    }
    println!(
        "stamp\tlegs\t{} legs of {:.2} s; traced sat {:.0} events/s, untraced {:.0}, observability off {:.0}",
        reports.len(),
        dur.as_secs_f64(),
        rate(&traced),
        rate(&untraced),
        rate(&obs_off)
    );
    if let Some(t) = &twin {
        println!(
            "stamp\ttwin\tthe same query and batches on a plain in-process engine: {:.0} events/s, engine {:.1} ns/event",
            rate(t),
            ["core.push", "core.fire", "core.emit"]
                .iter()
                .map(|span| t.ns_per_event(span))
                .sum::<f64>()
        );
    }
    println!(
        "stamp\tresult_checksum\t{:016x}",
        result_checksum(&untraced)
    );

    let dir = Path::new("target").join("dcbench");
    let path = dir.join(format!("trace-{}.jsonl", w.name));
    match std::fs::create_dir_all(&dir).and_then(|()| write_traces(&reports, &path)) {
        Ok(()) => println!("stamp\ttrace_file\t{}", path.display()),
        Err(e) => eprintln!("dcbench: could not write {}: {e}", path.display()),
    }
    Ok(metrics)
}

fn run_workload(args: &Args) -> i32 {
    let Some(w) = spec::workload(&args.workload, args.quick) else {
        eprintln!("dcbench: unknown workload {:?}", args.workload);
        usage();
    };
    let run_dir = PathBuf::from("target")
        .join("dcbench")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("dcbench: cannot create {}: {e}", run_dir.display());
        return 1;
    }
    let t = Instant::now();
    let pools: Vec<Pool> = (0..w.streams.len())
        .map(|s| Pool::generate(w.kind, w.batch_rows, args.seed, s as u64))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    print_stamp(args, &w, &run_dir, &pools);

    let mut tally = Tally::default();
    let mut run = Run {
        w: &w,
        pools: &pools,
        fresh_checkers: w
            .queries
            .iter()
            .map(|q| QueryChecker::new(q, &pools[q.stream]))
            .collect(),
        run_dir: &run_dir,
        wal_seq: 0,
    };
    let metrics = if args.trace {
        run_traced(args, &mut run, &mut tally)
    } else {
        run_end_to_end(args, &mut run, &mut tally, gen_s)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dcbench: {}: {e}", w.name);
            return 1;
        }
    };
    for e in &tally.errors {
        println!("error\t{}\t{e}", w.name);
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_json(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    i32::from(!correct)
}

/// Every workload, each in a child process of its own so that
/// `peak_rss_mb` is the workload's and not the sum of what ran before.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dcbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut worst = 0;
    for name in spec::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ]);
        if args.quick {
            cmd.arg("--quick");
        }
        // `status` waits for the child; its output goes straight through.
        match cmd.status() {
            Ok(s) if s.success() => println!("summary\t{name}\tok"),
            Ok(s) => {
                println!("summary\t{name}\tFAILED ({s})");
                worst = 1;
            }
            Err(e) => {
                println!("summary\t{name}\tFAILED to start: {e}");
                worst = 1;
            }
        }
    }
    worst
}

fn main() {
    let mut args = parse_args();
    if args.quick && args.seconds > 2.0 {
        args.seconds = 1.0;
    }
    let code = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    // Make sure the result line is out before the exit code is.
    let _ = std::io::stdout().flush();
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
