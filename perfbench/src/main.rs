//! The dbsm testbed benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload through `Cluster::build` / `Cluster::run`,
//! each run in a child process of its own (`child`), and reports the
//! end-to-end metrics; `--trace 1` runs it once plain and once with a
//! sampler attached, checks that both reach the same outcome, times the
//! layer replays and reports the per-layer metrics. Every run is checked
//! before its numbers count. The last line of standard output is a JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod child;
mod reference;
mod replay;
mod stats;
mod trace;
mod workload;

use check::Checked;
use dbsm_sim::SimTime;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Measurements behind the value.
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// Counts the cluster runs attempted.
struct Tally {
    attempted: u64,
}

impl Tally {
    /// Builds and runs run `index` of `w` in this process.
    fn run(&mut self, w: &Workload, seed: u64, index: usize) -> Result<Checked, String> {
        self.attempted += 1;
        check::run(w, check::build(w, seed, index).0)
    }

    /// Makes run `index` of `w` in a child process.
    fn child(&mut self, w: &Workload, seed: u64, index: usize) -> Result<child::Report, String> {
        self.attempted += 1;
        child::run_in_child(w, seed, index)
    }

    /// Builds and runs run 0 of `w` with the sampler attached.
    fn traced_run(&mut self, w: &Workload, seed: u64) -> Result<(Checked, trace::Trace), String> {
        self.attempted += 1;
        let (cluster, _) = check::build(w, seed, 0);
        let max_sim = w.config(w.run_seed(seed, 0)).max_sim;
        let tr = trace::attach(&cluster, w.sites, SimTime::ZERO + max_sim);
        Ok((check::run(w, cluster)?, tr))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: what it does (see `child`).
    child: Option<child::Role>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--child" => child = Some(child::Role::parse(&value)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(60),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// A memory figure of this process from `/proc/self/status`, such as
/// `VmHWM` (peak resident set) or `VmRSS`, in MB of 2^20 bytes.
fn memory_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// End-to-end metrics, tracing off.
///
/// The workload's runs, on seeds derived from `--seed`, give one set of
/// simulated metrics. The runs are then repeated in turn while `seconds`
/// allows, each checked against its first outcome. Every run, first or
/// repeat, is made in a child process of its own and is followed by a pass
/// of the reference kernel. `wall_s` is the mean run time and `setup_s` the
/// median build time, both scaled to the reference machine's speed over the
/// same stretch of time (see `reference`); unscaled, they are printed beside
/// them.
fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut first: Vec<child::Report> = Vec::new();
    let (mut wall, mut setup, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = vec![child::reference_in_child(w)?];
    for i in 0.. {
        let index = i % w.runs;
        let run = tally.child(w, seed, index)?;
        passes.push(child::reference_in_child(w)?);
        wall.push(run.wall_s);
        setup.extend_from_slice(&run.setup_s);
        rss.push(run.peak_rss_mb);
        if i < w.runs {
            first.push(run);
        } else {
            let what = format!("repeat of run {index}");
            check::same_outcome(&what, &first[index].outcome, &run.outcome)?;
        }
        let next = stats::median(&wall) + stats::median(&passes);
        let next_end = start.elapsed() + Duration::from_secs_f64(next);
        if i + 1 >= w.runs && next_end > budget {
            break;
        }
    }
    let scale = reference::scale(&passes);
    let wall_s = stats::mean(&wall);
    let setup_s = stats::median(&setup);
    println!(
        "unscaled: wall_s {wall_s:.4} s, setup_s {setup_s:.6} s; reference pass {:.4} s mean \
         (nominal {} s), n={}",
        stats::mean(&passes),
        reference::NOMINAL_S,
        passes.len()
    );
    // Latency percentiles are the median over the runs of each run's own
    // percentile: pooled, the tail would follow the few seeds whose hot rows
    // give the heaviest tails.
    let p50: Vec<f64> = first.iter().map(|r| r.p50_ms).collect();
    let p99: Vec<f64> = first.iter().map(|r| r.p99_ms).collect();
    let samples = first.iter().map(|r| r.samples).sum();
    let commits: u64 = first.iter().map(|r| r.commits).sum();
    let aborts: u64 = first.iter().map(|r| r.aborts).sum();
    let minutes: f64 = first.iter().map(|r| r.minutes).sum();
    Ok(vec![
        metric("setup_s", setup_s * scale, "s", setup.len()),
        metric("wall_s", wall_s * scale, "s", wall.len()),
        metric("peak_rss_mb", stats::median(&rss), "MB", rss.len()),
        metric("tpm", stats::ratio(commits as f64, minutes), "txn/min", w.runs),
        metric("latency_p50_ms", stats::median(&p50), "ms", samples),
        metric("latency_p99_ms", stats::median(&p99), "ms", samples),
        metric("abort_pct", stats::pct(aborts as f64, (commits + aborts) as f64), "%", w.runs),
    ])
}

/// Per-layer metrics from one traced run and the layer replays.
fn per_layer(w: &Workload, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let plain = tally.run(w, seed, 0)?;
    let (traced, tr) = tally.traced_run(w, seed)?;
    check::same_outcome("traced run", &plain.outcome, &traced.outcome)?;
    let cfg = w.config(w.run_seed(seed, 0));

    let m = &traced.metrics;
    let samples = tr.samples();
    let n = samples.len();
    let el = m.elapsed.as_secs_f64();
    let at =
        |counter: fn(&trace::Sample) -> f64| stats::value_at(&trace::series(&samples, counter), el);
    let commits = m.committed();
    let per_commit = |counter: fn(&trace::Sample) -> f64| stats::per_commit(at(counter), commits);
    let window_events = at(|s| s.events);
    let window_wall = at(|s| s.wall);
    let done = (m.committed() + m.aborted()) as f64;
    let class_sum =
        |f: fn(&dbsm_core::ClassStats) -> u64| m.per_class.iter().map(f).sum::<u64>() as f64;
    let cert_lat = m.cert_latencies_ms.values();
    let cert_p = |q: f64| {
        stats::percentile(cert_lat, q).ok_or_else(|| {
            format!("{} certification latencies are too few for p{q}", cert_lat.len())
        })
    };
    // Without a group there is no total order to wait for.
    let gap = if at(|s| s.delivered) == 0.0 {
        0.0
    } else {
        stats::longest_flat(&trace::series(&samples, |s| s.delivered), el)
    };

    // Commits counted as concurrent by a replayed certification: those
    // committed while a median transaction was in flight.
    let p50_ms = stats::percentile(plain.metrics.pooled_latencies_ms().values(), 50.0);
    let lag = (plain.metrics.tpm() / 60.0 * p50_ms.unwrap_or(0.0) / 1e3).round() as u64;
    let cert = replay::certify(&cfg, lag)?;
    let lock_us = replay::lock_table(&cfg)?;
    // A single site has no group to broadcast to.
    let gcs_us = if w.sites > 1 { replay::broadcast(&cfg)? } else { 0.0 };
    println!(
        "window: ends at {el:.3} s of {:.0} s simulated; RunMetrics::network_tx_bytes {} B, \
         {:.0} B inside the window",
        cfg.max_sim.as_secs_f64(),
        m.network_tx_bytes,
        at(|s| s.tx_bytes)
    );

    let c = commits as usize;
    Ok(vec![
        metric("sim.events_per_commit", stats::per_commit(window_events, commits), "count", c),
        metric("sim.events_per_s", stats::ratio(window_events, window_wall), "1/s", n),
        metric("sim.drain_events", tr.total_events() - window_events, "count", n),
        metric(
            "sim.drain_wall_share",
            stats::pct(traced.wall_s - window_wall, traced.wall_s),
            "%",
            n,
        ),
        metric("net.bytes_per_commit", per_commit(|s| s.tx_bytes), "B", c),
        metric("net.drops", at(|s| s.drops), "count", n),
        metric("gcs.frags_per_commit", per_commit(|s| s.frags), "count", c),
        metric("gcs.retrans_per_commit", per_commit(|s| s.retrans), "count", c),
        metric("gcs.naks", at(|s| s.naks), "count", n),
        metric("gcs.flow_blocked_ms", at(|s| s.blocked_ns) / 1e6, "ms", n),
        metric(
            "gcs.ann_batch",
            stats::ratio(at(|s| s.ann_assigns), at(|s| s.ann_sent)),
            "count",
            n,
        ),
        metric("gcs.votes_sent_per_commit", per_commit(|s| s.votes_sent), "count", c),
        metric("gcs.votes_received_per_commit", per_commit(|s| s.votes_received), "count", c),
        metric(
            "gcs.vote_piggyback_pct",
            stats::pct(at(|s| s.votes_piggybacked), at(|s| s.votes_sent)),
            "%",
            n,
        ),
        metric("gcs.vote_wait_ms", m.vote_wire.mean_wait_ms(), "ms", m.vote_wire.decided as usize),
        metric("gcs.view_installs", at(|s| s.view_changes), "count", n),
        metric("gcs.max_delivery_gap_ms", gap * 1e3, "ms", n),
        metric("gcs.replay_us_per_msg", gcs_us, "us", 1),
        metric("cert.latency_p50_ms", cert_p(50.0)?, "ms", cert_lat.len()),
        metric("cert.latency_p99_ms", cert_p(99.0)?, "ms", cert_lat.len()),
        metric("cert.probes_per_cert", cert.probes_per_cert, "count", 1),
        metric("cert.certify_us", cert.certify_us, "us", 1),
        metric("cert.abort_pct", stats::pct(class_sum(|s| s.aborted_cert), done), "%", c),
        metric("cert.cross_span_pct", stats::pct(m.cert_work.cross_span_txns as f64, done), "%", c),
        metric("db.lock_us_per_txn", lock_us, "us", 1),
        metric("db.ww_abort_pct", stats::pct(class_sum(|s| s.aborted_ww), done), "%", c),
        metric("db.preempt_abort_pct", stats::pct(class_sum(|s| s.aborted_remote), done), "%", c),
        metric("db.disk_util_pct", m.mean_disk_usage() * 100.0, "%", w.sites),
        metric("core.snapshot_mb", m.recovery_work.snapshot_bytes as f64 / 1e6, "MB", 1),
        metric(
            "rejoin_ttu_ms",
            m.recovery_work.mean_ttu_ms(),
            "ms",
            m.recovery_work.rejoins as usize,
        ),
        metric("trace.overhead_s", traced.wall_s - plain.wall_s, "s", 2),
    ])
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.child == Some(child::Role::Reference) {
        println!("{}", reference::pass_s());
        return ExitCode::SUCCESS;
    }
    if let Some(child::Role::Run(index)) = args.child {
        return match child::run(&w, args.seed, index) {
            Ok(report) => {
                println!("{}", report.encode());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} run {index} failed: {e}", w.name);
                ExitCode::FAILURE
            }
        };
    }
    let mut tally = Tally { attempted: 0 };
    let outcome = if args.trace {
        per_layer(&w, args.seed, &mut tally)
    } else {
        end_to_end(&w, args.seed, args.seconds, &mut tally)
    };
    let outcome = outcome.and_then(|metrics| match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a number: {}", m.name, m.value)),
        None => Ok(metrics),
    });
    match outcome {
        Ok(metrics) => {
            for m in &metrics {
                println!("{:<32} {:>16.4} {:<8} n={}", m.name, m.value, m.unit, m.samples);
            }
            println!("{}", result_line(true, tally.attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            println!("{}", result_line(false, tally.attempted.max(1), 1, &[]));
            ExitCode::FAILURE
        }
    }
}
