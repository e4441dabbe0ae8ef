//! The repository benchmark: one workload, one seed, end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload redis-ycsb --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero on any correctness failure. See `README.md` for every
//! metric's definition, clock and direction.

mod gen;
mod layers;
mod measure;
mod stats;
mod workloads;
mod wrap;

use layers::{HostProfile, Metric};
use measure::Samples;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Kind;
use wrap::Recorder;

const USAGE: &str =
    "usage: perfbench --workload <redis-ycsb|streamcluster|node-failover|ssdb-coded> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Where host span files are written, relative to the working directory.
const SPAN_DIR: &str = ".perfbench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1, 30, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The virtual end-to-end metrics of a set of samples.
#[derive(Debug)]
struct Virtual {
    ops: u64,
    throughput: f64,
    latency: (f64, f64, u64),
    outage: (f64, f64, usize),
}

impl Virtual {
    fn of(kind: Kind, s: &Samples) -> Result<Self, String> {
        let ops: u64 = s
            .epochs
            .iter()
            .map(|e| e.requests_done + e.steps_done)
            .sum();
        let missing = |what: &str| format!("{}: no {what} samples", kind.name());
        let lat = |p| stats::weighted_percentile(&s.latencies, p).ok_or_else(|| missing("latency"));
        let out = |p| stats::percentile(&s.outages, p).ok_or_else(|| missing("outage"));
        if ops == 0 || s.vtime == 0 {
            return Err(missing("throughput"));
        }
        Ok(Virtual {
            ops,
            throughput: ops as f64 / (s.vtime as f64 / 1e9),
            latency: (
                lat(50.0)?,
                lat(99.0)?,
                s.latencies.iter().map(|l| l.1).sum(),
            ),
            outage: (out(50.0)?, out(90.0)?, s.outages.len()),
        })
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn median(v: &[f64], what: &str) -> Result<f64, String> {
    stats::median(v).ok_or_else(|| format!("no {what} samples"))
}

/// Result of one benchmark invocation.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, s: &Samples) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.errors.extend(s.errors.iter().cloned());
    }
}

/// `--trace 0`: the end-to-end metrics, wrappers and trace sink detached.
fn end_to_end(a: &Args, deadline: Instant) -> Result<Outcome, String> {
    let kind = a.kind;
    let plan = kind.plan();
    let mut s = Samples::default();
    let stock = measure::stock(kind, a.seed, &mut s)?;
    for _ in 0..4 {
        measure::setup_only(kind, a.seed, &mut s)?;
    }
    // The virtual metrics come from the first pass over every unit (one
    // steady pass, or every fault trial). Units are then repeated while
    // time remains; the simulation is deterministic, so each repeat must
    // measure exactly what the first pass did. Each epoch keeps its fastest
    // host time over the repeats: on a shared host interference only ever
    // adds time, and it comes in phases of seconds, so the minimum over
    // repeats of identical work spread across the run is the steady
    // estimate of what the code itself costs.
    let units = plan.trials.max(1) as u32;
    let t0 = Instant::now();
    let mut firsts = Vec::new();
    for j in 0..units {
        let mut u = Samples::default();
        measure::unit(kind, a.seed, j, None, &mut u)?;
        firsts.push((u.fingerprint(), u.host.clone()));
        s.absorb(u, true);
    }
    let first_pass = s.host_us_per_op().ok_or("no host samples")?;
    let per_unit = t0.elapsed() / units;
    let (mut j, mut repeats) = (0, 0);
    while Instant::now() + per_unit < deadline {
        let mut u = Samples::default();
        measure::unit(kind, a.seed, j, None, &mut u)?;
        let (fingerprint, best) = &mut firsts[j as usize];
        if u.fingerprint() != *fingerprint {
            s.errors.push(format!(
                "{} unit {j}: a repeat measured different virtual results",
                kind.name()
            ));
        }
        for (b, x) in best.iter_mut().zip(&u.host) {
            b.0 = b.0.min(x.0);
        }
        s.absorb(u, false);
        repeats += 1;
        j = (j + 1) % units;
    }
    let best = Samples {
        host: firsts.into_iter().flat_map(|f| f.1).collect(),
        ..Samples::default()
    };
    let v = Virtual::of(kind, &s)?;
    let overhead = if kind.is_batch() {
        stock / v.throughput - 1.0
    } else {
        1.0 - v.throughput / stock
    } * 100.0;
    let metrics = vec![
        Metric::virt("throughput_per_s", v.throughput, "1/s"),
        Metric::virt("overhead_pct", overhead, "%"),
        Metric::virt("latency_p50_ms", v.latency.0, "ms"),
        Metric::virt("latency_p99_ms", v.latency.1, "ms"),
        Metric::virt("outage_p50_ms", v.outage.0, "ms"),
        Metric::virt("outage_p90_ms", v.outage.1, "ms"),
        Metric::host("setup_s", median(&s.setup_s, "setup")?, "s"),
        Metric::host("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    let error_rate = s.failed as f64 / s.attempted.max(1) as f64;
    let mut lines = vec![
        format!(
            "{} seed {}: {} ops in {:.3} virtual s; stock {stock:.3} ops/s",
            kind.name(),
            a.seed,
            v.ops,
            s.vtime as f64 / 1e9
        ),
        format!(
            "samples: latency {}, outage windows {}, host epochs {}, setups {}",
            v.latency.2,
            v.outage.2,
            best.host.len(),
            s.setup_s.len()
        ),
        // Reported, not gated: on a shared host this cost moves by more
        // than the largest bound a gated metric may have (README.md).
        format!(
            "host_us_per_op = {:.3} us (host): each epoch at its fastest over the first \
             pass and {repeats} repeated unit(s); first pass alone {first_pass:.3} us",
            best.host_us_per_op().ok_or("no host samples")?
        ),
        format!(
            "error_rate = {error_rate} ({} of {} ops failed)",
            s.failed, s.attempted
        ),
    ];
    if s.lost_requests > 0 {
        lines.push(format!(
            "NOTE: {} request(s) lost at failover with the connection intact: the client \
             never got a response (README.md, known defects)",
            s.lost_requests
        ));
    }
    let mut out = Outcome {
        lines,
        metrics,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    out.absorb(&s);
    Ok(out)
}

/// Write the traced run's host spans: one line per span with its layer,
/// start, end and the trial and epoch that caused it.
fn write_spans(a: &Args, rec: &Recorder, fault_rec: &Recorder) -> Result<String, String> {
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/{}-seed{}.spans.tsv", a.kind.name(), a.seed);
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{path}: {e}");
    writeln!(w, "pass\ttrial\tepoch\tlayer\tstart_ns\tend_ns\twork").map_err(io)?;
    for (pass, r) in [("main", rec), ("fault", fault_rec)] {
        for s in r.spans() {
            writeln!(
                w,
                "{pass}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.trial,
                s.epoch,
                s.layer.name(),
                s.start,
                s.end,
                s.work
            )
            .map_err(io)?;
        }
    }
    w.flush().map_err(io)?;
    Ok(path)
}

/// `--trace 1`: an untraced and a traced run of the same seed, the check
/// that their virtual metrics agree, and the per-layer metrics.
fn per_layer(a: &Args) -> Result<Outcome, String> {
    let kind = a.kind;
    let plan = kind.plan();
    let (rec, fault_rec) = (Recorder::new(), Recorder::new());
    let (mut plain, mut traced, mut faults) =
        (Samples::default(), Samples::default(), Samples::default());
    for j in 0..plan.trials.max(1) as u32 {
        measure::unit(kind, a.seed, j, None, &mut plain)?;
        measure::unit(kind, a.seed, j, Some(&rec), &mut traced)?;
    }
    if plan.trials == 0 {
        // One traced fault trial gives this workload's recovery layers.
        measure::trial(kind, a.seed, 0, Some(&fault_rec), &mut faults)?;
    }
    let mut errors = Vec::new();
    let (vp, vt) = (Virtual::of(kind, &plain)?, Virtual::of(kind, &traced)?);
    if plain.fingerprint() != traced.fingerprint() {
        errors.push(format!(
            "{}: traced run disagrees with the untraced run: throughput {} vs {}, \
             latency {:?} vs {:?}, outage {:?} vs {:?}",
            kind.name(),
            vt.throughput,
            vp.throughput,
            vt.latency,
            vp.latency,
            vt.outage,
            vp.outage
        ));
    }
    let host = HostProfile::build(&rec.spans(), plan.warmup)?;
    let fault_profile = match plan.trials {
        0 => Some(HostProfile::build(&fault_rec.spans(), plan.warmup)?),
        _ => None,
    };
    let (faults, fault_host) = match &fault_profile {
        Some(p) => (&faults, p),
        None => (&traced, &host),
    };
    let host_cost = |s: &Samples| s.host_us_per_op().ok_or("no host samples");
    let overhead = (host_cost(&traced)? / host_cost(&plain)? - 1.0) * 100.0;
    let mut report = layers::report(kind, &host, &traced, faults, fault_host, overhead);
    report
        .metrics
        .push(Metric::host("host_us_per_op", host_cost(&plain)?, "us"));
    let path = write_spans(a, &rec, &fault_rec)?;
    let mut out = Outcome {
        lines: vec![report.table, format!("host spans written to {path}")],
        metrics: report.metrics,
        attempted: 0,
        failed: 0,
        errors,
    };
    out.absorb(&plain);
    out.absorb(&traced);
    if plan.trials == 0 {
        out.absorb(faults);
    }
    Ok(out)
}

fn json(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &o.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.errors.is_empty() && o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn run(a: &Args) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut out = if a.trace {
        per_layer(a)?
    } else {
        end_to_end(a, deadline)?
    };
    if let Err(e) = workloads::check_seeding(a.seed) {
        out.errors.push(e);
    }
    if out.attempted == 0 {
        out.errors.push("no operations attempted".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for l in &out.lines {
        println!("{l}");
    }
    for m in &out.metrics {
        println!(
            "{:<34} {:>16.6} {:<6} ({})",
            m.name,
            m.value,
            m.unit,
            m.clock.name()
        );
    }
    for e in &out.errors {
        eprintln!("perfbench: correctness failure: {e}");
    }
    match json(&out) {
        Ok(j) => println!("{j}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if out.errors.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
