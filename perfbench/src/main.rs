//! The repository benchmark: times the simulator's user-facing
//! workloads end to end, and in a separate traced run splits host time
//! across the crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_fig2|city_20k|stress_harsh> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every job is one `(Scenario, seed, ProtocolKind)` run. Jobs run on
//! `ag_harness::run_seeds` with `min(nproc, 2)` workers, and
//! `AG_THREADS` is pinned to the same value before the first harness
//! call. With `--trace 0` the workload's jobs run through
//! `ag_harness::run_counting` as many times as fit in `--seconds`, and
//! the end-to-end metrics are printed. With `--trace 1` each untraced
//! batch is followed by a traced replica of the same jobs (see
//! `replica.rs`, `trace.rs`) and the per-layer metrics are printed.
//!
//! Every job is checked: it must not panic, the source must hold all it
//! sent, no receiver may hold more than was sent, a repeated batch must
//! reproduce the first batch's results, and a traced job must reproduce
//! the untraced one. A job that fails any check counts in `failed`. The
//! last line of standard output is one JSON object.

mod replica;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use ag_harness::{run_counting, run_seeds, Parallelism, ProtocolKind, RunResult};
use ag_net::state_digest;

use replica::JobTrace;
use trace::{clock, ns_since, secs_since, Tally, HOOK_NAMES};
use workload::{Stage, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 40.0;
/// Most worker threads the benchmark ever runs.
const MAX_THREADS: usize = 2;
/// Untimed set-up repetitions first: the first few builds page in
/// fresh memory until the allocator has settled, and their times swing
/// with the host's page-fault cost (memory is `peak_rss_mb`'s job).
const SETUP_WARMUP_REPS: usize = 5;
/// Then set-up is timed at least this often and until it has taken
/// [`SETUP_MIN_SECS`] (or [`SETUP_MAX_REPS`] repetitions).
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.5;
const SETUP_MAX_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad)?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in KiB.
fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// One job's result, its host time and (traced runs) its trace.
struct Outcome {
    /// `None` if the job panicked.
    run: Option<(RunResult, u64)>,
    trace: Option<JobTrace>,
    job_ns: u64,
}

impl Outcome {
    fn digest(&self) -> u64 {
        state_digest(&self.run)
    }
}

/// One pass over all the workload's jobs.
struct Batch {
    wall_s: f64,
    outcomes: Vec<Outcome>,
}

fn run_batch(stages: &[Stage], threads: usize, traced: bool) -> Batch {
    let t0 = clock();
    let mut outcomes = Vec::new();
    for stage in stages {
        let jobs = stage.jobs.len() as u64;
        outcomes.extend(run_seeds(jobs, Parallelism::new(threads), |i| {
            let (seed, kind) = stage.jobs[i as usize];
            let t = clock();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    let (r, events, jt) = replica::run_traced(&stage.scenario, seed, kind);
                    (r, events, Some(jt))
                } else {
                    let (r, events) = run_counting(&stage.scenario, seed, kind);
                    (r, events, None)
                }
            }));
            let job_ns = ns_since(t);
            match ran {
                Ok((r, events, trace)) => Outcome {
                    run: Some((r, events)),
                    trace,
                    job_ns,
                },
                Err(_) => Outcome {
                    run: None,
                    trace: None,
                    job_ns,
                },
            }
        }));
    }
    Batch {
        wall_s: secs_since(t0),
        outcomes,
    }
}

/// The invariants every finished run holds: the source has everything
/// it sent and no member has more.
fn invariants_hold(o: &Outcome) -> bool {
    let Some((r, _)) = &o.run else {
        return false;
    };
    r.members
        .iter()
        .all(|m| m.received <= r.sent && (m.node != r.source || m.received == r.sent))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Name, value and unit of every metric, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Simulated outcome of the gossip stack's jobs: delivery over
/// receivers as a percentage of packets sent, and MAC transmissions per
/// delivered (packet, receiver) pair.
fn gossip_delivery(outcomes: &[Outcome]) -> (f64, f64) {
    let (mut received, mut possible, mut tx) = (0u64, 0u64, 0u64);
    for (r, _) in outcomes.iter().filter_map(|o| o.run.as_ref()) {
        if r.protocol != ProtocolKind::Gossip {
            continue;
        }
        for m in r.receivers() {
            received += m.received;
            possible += r.sent;
        }
        tx += r.counter("mac.unicast_tx") + r.counter("mac.broadcast_tx");
    }
    (
        100.0 * ratio(received as f64, possible as f64),
        ratio(tx as f64, received as f64),
    )
}

/// Prints the workload's simulated results: a digest over every job's
/// `RunResult` and event count, and delivery per protocol.
fn print_results(outcomes: &[Outcome]) {
    let digest = state_digest(&outcomes.iter().map(Outcome::digest).collect::<Vec<_>>());
    println!("results digest {digest:#018x} over {} jobs", outcomes.len());
    for kind in [
        ProtocolKind::Gossip,
        ProtocolKind::Maodv,
        ProtocolKind::Odmrp,
    ] {
        let runs: Vec<&RunResult> = outcomes
            .iter()
            .filter_map(|o| o.run.as_ref().map(|(r, _)| r))
            .filter(|r| r.protocol == kind)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let mean = runs.iter().map(|r| r.delivery_ratio()).sum::<f64>() / runs.len() as f64;
        println!(
            "delivery {kind:?}: {:.3}% mean over {} runs",
            100.0 * mean,
            runs.len()
        );
    }
}

/// Jobs attempted and failed, and the per-job result digests every
/// batch must reproduce (taken from the first untraced batch).
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    reference: Vec<u64>,
}

impl Totals {
    /// Counts `batch`'s jobs, failing each that breaks an invariant or
    /// differs from the reference.
    fn check(&mut self, batch: &Batch) {
        if self.reference.is_empty() {
            self.reference = batch.outcomes.iter().map(Outcome::digest).collect();
        }
        self.attempted += batch.outcomes.len() as u64;
        self.failed += batch
            .outcomes
            .iter()
            .zip(&self.reference)
            .filter(|(o, &d)| !invariants_hold(o) || o.digest() != d)
            .count() as u64;
    }
}

/// `--trace 0`: set-up repetitions, then untraced batches until
/// `--seconds` is spent.
fn end_to_end(args: &Args, stages: &[Stage], threads: usize, totals: &mut Totals) -> Metrics {
    let start = clock();
    // One batch before anything else, and the peak resident set right
    // after it: what one process running the workload once reaches, not
    // a function of how many repetitions fit in `--seconds` (each one
    // can fragment the heap a little further).
    let first = run_batch(stages, threads, false);
    totals.check(&first);
    let peak_kib = proc_status_kib("VmHWM").unwrap_or(0);
    println!("batch 1: wall {:.4} s", first.wall_s);

    let build_all = || -> f64 {
        let ns: u64 = stages
            .iter()
            .flat_map(|st| {
                st.jobs
                    .iter()
                    .map(|&(seed, kind)| replica::setup_ns(&st.scenario, seed, kind))
            })
            .sum();
        ns as f64 * 1e-9
    };
    for _ in 0..SETUP_WARMUP_REPS {
        build_all();
    }
    let mut setups = Vec::new();
    let setup_start = clock();
    while setups.len() < SETUP_MIN_REPS
        || (secs_since(setup_start) < SETUP_MIN_SECS && setups.len() < SETUP_MAX_REPS)
    {
        setups.push(build_all());
    }
    println!(
        "setup: {} repetitions, median {:.6} s",
        setups.len(),
        median(&setups)
    );

    let mut walls = vec![first.wall_s];
    while secs_since(start) + walls[walls.len() - 1] <= args.seconds {
        let batch = run_batch(stages, threads, false);
        totals.check(&batch);
        println!("batch {}: wall {:.4} s", walls.len() + 1, batch.wall_s);
        walls.push(batch.wall_s);
    }
    print_results(&first.outcomes);
    let (delivery, tx_per) = gossip_delivery(&first.outcomes);
    println!("gossip delivery_pct {delivery:.4} tx_per_delivery {tx_per:.4}");

    let mut m = Metrics::default();
    m.put("wall_s", median(&walls), "s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_kib as f64 / 1024.0, "MB");
    m
}

/// `--trace 1`: pairs of (untraced, traced) batches until `--seconds`
/// is spent; per-layer metrics come from the traced batch of median
/// wall time.
fn traced(args: &Args, stages: &[Stage], threads: usize, totals: &mut Totals) -> Metrics {
    let start = clock();
    let mut plain_walls = Vec::new();
    let mut traced_batches: Vec<Batch> = Vec::new();
    let mut first_plain = None;
    loop {
        let t0 = clock();
        let plain = run_batch(stages, threads, false);
        totals.check(&plain);
        let tr = run_batch(stages, threads, true);
        totals.check(&tr);
        println!(
            "pair {}: untraced {:.4} s, traced {:.4} s",
            plain_walls.len() + 1,
            plain.wall_s,
            tr.wall_s
        );
        plain_walls.push(plain.wall_s);
        traced_batches.push(tr);
        first_plain.get_or_insert(plain);
        if secs_since(start) + secs_since(t0) > args.seconds {
            break;
        }
    }
    print_results(&first_plain.expect("at least one pair ran").outcomes);

    let traced_walls: Vec<f64> = traced_batches.iter().map(|b| b.wall_s).collect();
    let overhead = median(&traced_walls) - median(&plain_walls);
    traced_batches.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let batch = &traced_batches[(traced_batches.len() - 1) / 2];
    layer_metrics(batch, threads, overhead)
}

fn layer_metrics(batch: &Batch, threads: usize, overhead_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("bench.trace_overhead_s", overhead_s, "s");

    // harness: job times and pool idle.
    let job_s: Vec<f64> = batch
        .outcomes
        .iter()
        .map(|o| o.job_ns as f64 * 1e-9)
        .collect();
    let busy: f64 = job_s.iter().sum();
    m.put("harness.job_s.p50", median(&job_s), "s");
    m.put(
        "harness.job_s.max",
        job_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    m.put(
        "harness.pool_idle_s",
        threads as f64 * batch.wall_s - busy,
        "s",
    );
    let (delivery, tx_per) = gossip_delivery(&batch.outcomes);
    m.put("harness.delivery_pct", delivery, "%");
    m.put("harness.tx_per_delivery", tx_per, "tx/delivery");

    // Sums over jobs.
    let mut events = 0u64;
    let mut scheduled = 0u64;
    let mut setup_self_ns = 0u64;
    let mut run_self_ns = 0u64;
    let mut rss_kib = 0u64;
    let mut hits = 0u64;
    let mut mobility = Tally::default();
    let mut layers: [Tally; 3] = Default::default();
    for o in &batch.outcomes {
        let (Some((r, ev)), Some(jt)) = (&o.run, &o.trace) else {
            continue;
        };
        events += ev;
        scheduled += jt.events_scheduled;
        hits += jt.precompute_hits;
        rss_kib = rss_kib.max(jt.rss_after_setup_kib);
        let wrapped = |t: &Tally| t.proto_ns() + t.mobility.ns;
        setup_self_ns += jt.setup_ns.saturating_sub(wrapped(&jt.setup));
        run_self_ns += jt.run_ns.saturating_sub(wrapped(&jt.run));
        let layer = match r.protocol {
            ProtocolKind::Gossip => 0,
            ProtocolKind::Maodv => 1,
            ProtocolKind::Odmrp => 2,
        };
        for t in [&jt.setup, &jt.run] {
            layers[layer].merge(t);
            mobility.merge(t);
        }
    }
    // An engine or protocol counter, summed over jobs.
    let c = |name: &str| {
        batch
            .outcomes
            .iter()
            .filter_map(|o| o.run.as_ref())
            .map(|(r, _)| r.counter(name))
            .sum::<u64>() as f64
    };

    m.put("sim.events", events as f64, "count");
    m.put("sim.events_scheduled", scheduled as f64, "count");
    m.put(
        "sim.events_per_wall_s",
        ratio(events as f64, batch.wall_s),
        "1/s",
    );

    let tx = c("mac.unicast_tx") + c("mac.broadcast_tx");
    let (delivered, collided, dropped) = (
        c("mac.rx_delivered"),
        c("mac.rx_collision"),
        c("mac.rx_channel_drop"),
    );
    m.put("net.setup_s", setup_self_ns as f64 * 1e-9, "s");
    m.put("net.rss_after_setup_mb", rss_kib as f64 / 1024.0, "MB");
    m.put("net.self_s", run_self_ns as f64 * 1e-9, "s");
    m.put(
        "net.ns_per_event",
        ratio(run_self_ns as f64, events as f64),
        "ns",
    );
    m.put("net.tx", tx, "count");
    m.put("net.rx_delivered", delivered, "count");
    m.put("net.rx_collision", collided, "count");
    m.put("net.rx_channel_drop", dropped, "count");
    m.put("net.queue_drop", c("mac.queue_drop"), "count");
    m.put("net.unicast_retry", c("mac.unicast_retry"), "count");
    m.put(
        "net.rx_useful_ratio",
        ratio(delivered, delivered + collided + dropped),
        "ratio",
    );
    m.put("net.precompute_hits", hits as f64, "count");
    m.put("net.precompute_hit_ratio", ratio(hits as f64, tx), "ratio");
    m.put(
        "net.churn_events",
        c("churn.fail") + c("churn.recover"),
        "count",
    );

    m.put("mobility.calls", mobility.mobility.calls as f64, "count");
    m.put("mobility.self_s", mobility.mobility.ns as f64 * 1e-9, "s");
    m.put("mobility.transitions", mobility.transitions as f64, "count");

    for (name, t) in ["core", "maodv", "odmrp"].iter().zip(&layers) {
        for (hook, b) in HOOK_NAMES.iter().zip(&t.hooks) {
            m.put(format!("{name}.calls.{hook}"), b.calls as f64, "count");
        }
        let calls: u64 = t.hooks.iter().map(|b| b.calls).sum();
        m.put(format!("{name}.self_s"), t.proto_ns() as f64 * 1e-9, "s");
        m.put(
            format!("{name}.ns_per_call"),
            ratio(t.proto_ns() as f64, calls as f64),
            "ns",
        );
        for (what, v) in [
            ("sends", t.ctx.sends),
            ("broadcasts", t.ctx.broadcasts),
            ("timers", t.ctx.timers),
            ("counts", t.ctx.counts),
            ("choices", t.ctx.choices),
        ] {
            m.put(format!("{name}.ctx.{what}"), v as f64, "count");
        }
        for (hook, b) in HOOK_NAMES.iter().zip(&t.hooks) {
            if b.calls > 0 {
                println!(
                    "hist {name}.{hook}: calls {} total_ns {} {}",
                    b.calls,
                    b.ns,
                    b.render_hist()
                );
            }
        }
    }
    println!(
        "hist mobility: calls {} total_ns {} {}",
        mobility.mobility.calls,
        mobility.mobility.ns,
        mobility.mobility.render_hist()
    );
    for name in [
        "maodv.grph_originated",
        "maodv.data_forwarded",
        "ag.recovered",
        "ag.request_anon_sent",
        "odmrp.query_relayed",
    ] {
        m.put(name, c(name), "count");
    }
    m
}

fn render_json(correct: bool, totals: &Totals, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        totals.attempted, totals.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ag-perfbench --workload <paper_fig2|city_20k|stress_harsh> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if proc_status_kib("VmHWM").is_none() {
        eprintln!("error: /proc/self/status has no VmHWM; peak memory cannot be measured");
        return ExitCode::FAILURE;
    }
    // Thread budget: the pool and the engine's tile layer (armed from
    // AG_THREADS inside the harness) both get min(nproc, 2). Set before
    // any harness call, while the process is still single-threaded.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    std::env::set_var("AG_THREADS", threads.to_string());

    let stages = args.workload.stages(args.seed);
    let jobs: usize = stages.iter().map(|s| s.jobs.len()).sum();
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} AG_THREADS {threads} nproc {nproc} jobs {jobs}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut totals = Totals::default();
    let metrics = if args.trace {
        traced(&args, &stages, threads, &mut totals)
    } else {
        end_to_end(&args, &stages, threads, &mut totals)
    };
    let correct = totals.failed == 0;
    for (name, value, unit) in &metrics.0 {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    println!(
        "jobs attempted {} failed {}",
        totals.attempted, totals.failed
    );
    println!("{}", render_json(correct, &totals, &metrics));
    ExitCode::SUCCESS
}
