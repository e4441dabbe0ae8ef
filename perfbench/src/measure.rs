//! Driving the harness: steady passes, fault trials and the unreplicated
//! baseline, and the raw samples each one yields.
//!
//! Every pass goes through the public `RunHarness` API, one epoch per
//! `run_epochs(1)` call, so each epoch's host time is measured on its own
//! and each host span can name the epoch that caused it.

use crate::gen::{splitmix, SharedLog};
use crate::workloads::Kind;
use crate::wrap::{Layer, Recorder, TimedApp, TimedCheckpointer, TimedClients};
use nilicon::harness::{RunHarness, RunMode, RunResult};
use nilicon::metrics::EpochRecord;
use nilicon::trace::{RingHandle, TraceRecord, Tracer};
use nilicon::FailoverReport;
use nilicon_sim::time::Nanos;
use std::rc::Rc;
use std::time::Instant;

/// Epochs per stall window on fault-free workloads.
const STALL_WINDOW: usize = 10;
/// Trace records a pass may hold; more is an error, not a silent eviction.
const TRACE_CAP: usize = 1 << 21;
/// Epochs a fault trial may take to resume service before it counts as
/// unrecovered.
const MAX_RECOVERY_EPOCHS: u64 = 64;
/// Epochs a fault trial keeps running after service resumed, long enough
/// for every live client to complete further requests.
const SETTLE_EPOCHS: u64 = 10;

/// Raw samples of one or more passes of a workload.
#[derive(Debug, Default)]
pub struct Samples {
    /// Measured epochs: the window of a steady pass, the pre-fault epochs
    /// after warm-up of a trial.
    pub epochs: Vec<EpochRecord>,
    /// Virtual time those epochs span.
    pub vtime: Nanos,
    /// Op latencies (virtual ms) with their weights.
    pub latencies: Vec<(f64, u64)>,
    /// Per trial window: the longest interval without a client-visible
    /// completion (virtual ms).
    pub outages: Vec<f64>,
    /// Output-release waits of the measured epochs (virtual ms).
    pub release_waits: Vec<f64>,
    /// Failover breakdowns with their detection latency.
    pub failovers: Vec<(FailoverReport, Nanos)>,
    /// Host ns and ops completed of every measured epoch, in order.
    pub host: Vec<(f64, u64)>,
    /// Set-up times (host s): harness construction plus warm-up epochs.
    pub setup_s: Vec<f64>,
    /// Ops attempted: requests issued, or batch steps run.
    pub attempted: u64,
    /// Ops failed (see [`Samples::check`]).
    pub failed: u64,
    /// Responses that failed validation.
    pub invalid: u64,
    /// Client connections broken.
    pub broken: u64,
    /// Requests a failover lost although their connection stayed up: the
    /// client never got a response after the fault.
    pub lost_requests: u64,
    /// Correctness failures, human-readable.
    pub errors: Vec<String>,
    /// Trace records of the measured epochs (traced passes only).
    pub records: Vec<TraceRecord>,
}

impl Samples {
    /// Everything the simulated clock measured: equal for every repeat of
    /// one unit of work, the simulation being deterministic.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:?} {} {:?} {:?} {:?} {:?} {}",
            self.epochs,
            self.vtime,
            self.latencies,
            self.outages,
            self.release_waits,
            self.failovers,
            self.lost_requests
        )
    }

    /// Host µs per op over the measured epochs.
    pub fn host_us_per_op(&self) -> Option<f64> {
        let ns: f64 = self.host.iter().map(|x| x.0).sum();
        let ops: u64 = self.host.iter().map(|x| x.1).sum();
        (ops > 0).then(|| ns / 1e3 / ops as f64)
    }

    /// Fold `other` in: set-up samples and correctness counters always, the
    /// measured epochs only if `virtual_too`.
    pub fn absorb(&mut self, other: Samples, virtual_too: bool) {
        self.setup_s.extend(other.setup_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid += other.invalid;
        self.broken += other.broken;
        self.errors.extend(other.errors);
        if virtual_too {
            self.epochs.extend(other.epochs);
            self.vtime += other.vtime;
            self.latencies.extend(other.latencies);
            self.outages.extend(other.outages);
            self.release_waits.extend(other.release_waits);
            self.failovers.extend(other.failovers);
            self.lost_requests += other.lost_requests;
            self.records.extend(other.records);
            self.host.extend(other.host);
        }
    }

    /// Fold a finished harness into the correctness counters. An op fails
    /// if its response fails validation or its connection broke; a failed
    /// `verify()` fails every op of the run, and an unrecovered trial every
    /// op still outstanding.
    fn check(&mut self, label: &str, r: &RunResult, log: &SharedLog, batch: bool, trial: bool) {
        let log = log.borrow();
        let ops = if batch {
            r.metrics.steps_total
        } else {
            log.issued
        };
        self.attempted += ops;
        self.invalid += log.invalid;
        self.broken += r.broken_connections;
        let mut failed = r.broken_connections;
        if let Err(e) = &r.verify {
            self.errors.push(format!("{label}: verify failed: {e}"));
            failed = ops;
        }
        if r.broken_connections > 0 {
            self.errors.push(format!(
                "{label}: {} broken client connection(s)",
                r.broken_connections
            ));
        }
        if !r.recovered || (trial && r.failovers != 1) {
            self.errors
                .push(format!("{label}: service did not recover from the fault"));
            failed = failed.max(log.issued.saturating_sub(log.responses));
        }
        self.failed += failed.min(ops);
    }
}

/// A harness with its client log and, when traced, its trace ring.
struct Live {
    h: RunHarness,
    log: SharedLog,
    ring: Option<RingHandle>,
    /// Host ns and ops completed of every epoch since the last reset.
    host: Vec<(f64, u64)>,
}

/// Build `kind`'s harness; `rec` attaches the timing decorators and an
/// in-memory trace sink.
fn start(
    kind: Kind,
    seed: u64,
    replicated: bool,
    rec: Option<&Rc<Recorder>>,
) -> Result<Live, String> {
    let log = SharedLog::default();
    let (spec, mut app, parallelism) = kind.build(seed);
    let mut clients = kind.clients(seed, log.clone());
    let mut mode = if replicated {
        RunMode::Replicated(kind.engine()?)
    } else {
        RunMode::Unreplicated
    };
    if let Some(rec) = rec {
        app = Box::new(TimedApp::new(app, rec.clone()));
        clients = clients.map(|c| {
            Box::new(TimedClients::new(c, rec.clone())) as Box<dyn nilicon::ClientBehavior>
        });
        if let RunMode::Replicated(e) = mode {
            mode = RunMode::Replicated(Box::new(TimedCheckpointer::new(e, rec.clone())));
        }
    }
    let mut h = RunHarness::new(spec, app, clients, mode, kind.config(), parallelism)
        .map_err(|e| format!("{}: harness setup: {e}", kind.name()))?;
    let ring = rec.map(|_| {
        let (tracer, ring) = Tracer::in_memory(TRACE_CAP);
        h.set_tracer(tracer);
        ring
    });
    Ok(Live {
        h,
        log,
        ring,
        host: Vec::new(),
    })
}

impl Live {
    fn now(&self) -> Nanos {
        self.h.cluster.clock.now()
    }

    /// Ops completed so far.
    fn ops(&self) -> u64 {
        let m = self.h.metrics();
        m.requests_total + m.steps_total
    }

    /// Run one epoch, recording its host time and ops.
    fn step(&mut self, rec: Option<&Rc<Recorder>>, trial: u32) -> Result<(), String> {
        let ops = self.ops();
        let t = Instant::now();
        let res = match rec {
            Some(r) => {
                r.set_cause(trial, self.h.epochs_run());
                r.time(Layer::Run, || self.h.run_epochs(1), |_| 0)
            }
            None => self.h.run_epochs(1),
        };
        let ns = t.elapsed().as_nanos() as f64;
        res.map_err(|e| format!("epoch {}: {e}", self.h.epochs_run()))?;
        self.host.push((ns, self.ops() - ops));
        Ok(())
    }

    /// Trace records of epochs `>= from`, failing if the ring overflowed.
    fn records(&self, from: u64) -> Result<Vec<TraceRecord>, String> {
        let Some(ring) = &self.ring else {
            return Ok(Vec::new());
        };
        if ring.len() >= TRACE_CAP {
            return Err("trace ring overflowed".into());
        }
        Ok(ring
            .snapshot()
            .into_iter()
            .filter(|r| r.epoch >= from)
            .collect())
    }
}

fn ms(ns: Nanos) -> f64 {
    ns as f64 / 1e6
}

/// Longest gap between consecutive sorted `times`.
fn longest_gap(times: &[Nanos]) -> Option<Nanos> {
    times.windows(2).map(|w| w[1] - w[0]).max()
}

/// Steady pass: warm up, then measure `plan.window` epochs.
pub fn steady(
    kind: Kind,
    seed: u64,
    rec: Option<&Rc<Recorder>>,
    s: &mut Samples,
) -> Result<(), String> {
    let plan = kind.plan();
    let exec = kind.config().epoch_exec;
    let mut live = warm(kind, seed, rec, 0, s)?;
    let (lat0, rw0) = {
        let m = live.h.metrics();
        (m.response_latencies.len(), m.release_waits.len())
    };
    let t_begin = live.now();
    let mut starts = Vec::new();
    for _ in 0..plan.window {
        starts.push(live.now());
        live.step(rec, 0)?;
    }
    let t_end = live.now();
    let w0 = plan.warmup as usize;
    let window = w0..w0 + plan.window as usize;
    {
        let m = live.h.metrics();
        if m.epochs.len() < window.end {
            return Err(format!(
                "{}: fewer epoch records than epochs run",
                kind.name()
            ));
        }
        let epochs = &m.epochs[window.clone()];
        s.epochs.extend_from_slice(epochs);
        s.vtime += t_end - t_begin;
        s.release_waits
            .extend(m.release_waits[rw0..].iter().map(|&w| ms(w)));
        // Visible completions: client receipts for servers; for a batch job
        // the output-commit release of each epoch's steps.
        let visible: Vec<Nanos> = if kind.is_batch() {
            s.latencies.extend(
                epochs
                    .iter()
                    .map(|e| (ms(e.stop_time + e.ack_delay), e.steps_done)),
            );
            epochs
                .iter()
                .zip(&starts)
                .filter(|(e, _)| e.steps_done > 0)
                .map(|(e, &t)| t + exec + e.stop_time + e.ack_delay)
                .collect()
        } else {
            s.latencies
                .extend(m.response_latencies[lat0..].iter().map(|&l| (ms(l), 1)));
            let mut r = live.log.borrow().receipts.clone();
            r.sort_unstable();
            r
        };
        let bounds: Vec<Nanos> = starts
            .iter()
            .step_by(STALL_WINDOW)
            .copied()
            .chain([t_end])
            .collect();
        for b in bounds.windows(2) {
            let (lo, hi) = (b[0], b[1]);
            let inside: Vec<Nanos> = visible
                .iter()
                .copied()
                .filter(|&t| t >= lo && t < hi)
                .collect();
            if let Some(g) = longest_gap(&inside) {
                s.outages.push(ms(g));
            }
        }
    }
    s.host.extend_from_slice(&live.host);
    s.records.extend(live.records(plan.warmup)?);
    let log = live.log.clone();
    let r = live.h.finish();
    s.check(
        &format!("{} seed {seed}", kind.name()),
        &r,
        &log,
        kind.is_batch(),
        false,
    );
    Ok(())
}

/// One fault trial: a fresh harness, a primary fault at a seed-chosen
/// instant inside a seed-chosen epoch, run until service resumes and then
/// [`SETTLE_EPOCHS`] more.
pub fn trial(
    kind: Kind,
    seed: u64,
    index: u32,
    rec: Option<&Rc<Recorder>>,
    s: &mut Samples,
) -> Result<(), String> {
    let plan = kind.plan();
    let exec = kind.config().epoch_exec;
    let mut r = seed ^ 0xFA17_0000 ^ ((index as u64) << 32);
    let fault_epoch = plan.warmup + 8 + splitmix(&mut r) % 8;
    let frac = (splitmix(&mut r) % 1_000_000) as f64 / 1e6;
    let label = format!("{} seed {seed} trial {index}", kind.name());

    let mut live = warm(kind, seed, rec, index, s)?;
    let (lat0, rw0) = {
        let m = live.h.metrics();
        (m.response_latencies.len(), m.release_waits.len())
    };
    let t_begin = live.now();
    while live.h.epochs_run() < fault_epoch {
        live.step(rec, index)?;
    }
    s.vtime += live.now() - t_begin;
    s.epochs
        .extend_from_slice(&live.h.metrics().epochs[plan.warmup as usize..]);
    // Host cost of normal replicated operation, like the throughput: after
    // the failover the service runs unreplicated (the paper does not
    // re-arm), and recovery's own host cost is `failover.host_ms`.
    s.host.extend_from_slice(&live.host);
    let t_fault = live.now() + (frac * exec as f64) as Nanos;
    live.h.inject_fault_at(t_fault);

    // Client progress and epoch records just before the failover. Service
    // has resumed at the first response after it (for a batch job: the
    // first epoch after it that completed steps).
    let mut before_failover = None;
    let mut resumed = false;
    for _ in 0..MAX_RECOVERY_EPOCHS {
        let progress = {
            let log = live.log.borrow();
            (log.receipts.len(), log.per_client.clone())
        };
        let records = live.h.metrics().epochs.len();
        live.step(rec, index)?;
        if live.h.failovers() == 0 {
            continue;
        }
        let (receipts, _, records) =
            before_failover.get_or_insert((progress.0, progress.1, records));
        let epochs = &live.h.metrics().epochs;
        resumed = if kind.is_batch() {
            epochs.len() > *records && epochs.last().is_some_and(|e| e.steps_done > 0)
        } else {
            live.log.borrow().receipts.len() > *receipts
        };
        if resumed {
            break;
        }
    }
    if !resumed {
        s.errors.push(format!("{label}: service did not resume"));
    } else if let Some((_, before, _)) = &before_failover {
        // Give every client time for more round trips: one that still has
        // no response lost its request in the failover although its
        // connection stayed up.
        for _ in 0..SETTLE_EPOCHS {
            live.step(rec, index)?;
        }
        let log = live.log.borrow();
        s.lost_requests += log
            .per_client
            .iter()
            .zip(before)
            .filter(|(now, then)| now == then)
            .count() as u64;
    }
    {
        let m = live.h.metrics();
        s.latencies
            .extend(m.response_latencies[lat0..].iter().map(|&l| (ms(l), 1)));
        s.release_waits
            .extend(m.release_waits[rw0..].iter().map(|&w| ms(w)));
    }
    // The outage: the longest silence between the last response before the
    // fault and the first response of the recovered service.
    let outage = match (kind.is_batch(), before_failover) {
        (false, Some((n, _, _))) if resumed => {
            let log = live.log.borrow();
            let resume = log.receipts[n..]
                .iter()
                .copied()
                .filter(|&t| t > t_fault)
                .min();
            let last = log.receipts.iter().copied().filter(|&t| t <= t_fault).max();
            resume.zip(last).and_then(|(resume, last)| {
                let mut times: Vec<Nanos> = log
                    .receipts
                    .iter()
                    .copied()
                    .filter(|&t| t >= last && t <= resume)
                    .collect();
                times.sort_unstable();
                longest_gap(&times).map(ms)
            })
        }
        _ => None,
    };
    s.outages.extend(outage);
    s.records.extend(live.records(plan.warmup)?);
    let log = live.log.clone();
    let res = live.h.finish();
    if let (Some(report), Some(detect)) = (res.failover, res.detection_latency) {
        s.failovers.push((report, detect));
    }
    s.check(&label, &res, &log, kind.is_batch(), true);
    Ok(())
}

/// One unit of measured work: a steady pass, or fault trial `index`.
pub fn unit(
    kind: Kind,
    seed: u64,
    index: u32,
    rec: Option<&Rc<Recorder>>,
    s: &mut Samples,
) -> Result<(), String> {
    if kind.plan().trials == 0 {
        steady(kind, seed, rec, s)
    } else {
        trial(kind, seed, index, rec, s)
    }
}

/// The unreplicated baseline: ops per virtual second over `plan.stock`
/// post-warm-up epochs.
pub fn stock(kind: Kind, seed: u64, s: &mut Samples) -> Result<f64, String> {
    let plan = kind.plan();
    let mut live = start(kind, seed, false, None)?;
    for _ in 0..plan.warmup {
        live.step(None, 0)?;
    }
    let (t0, ops0) = (live.now(), live.ops());
    for _ in 0..plan.stock {
        live.step(None, 0)?;
    }
    let ops = live.ops() - ops0;
    let vtime = live.now() - t0;
    let log = live.log.clone();
    let r = live.h.finish();
    s.check(
        &format!("{} seed {seed} stock", kind.name()),
        &r,
        &log,
        kind.is_batch(),
        false,
    );
    Ok(ops as f64 / (vtime as f64 / 1e9))
}

/// Set up a replicated harness and drop it: one more setup-time sample.
pub fn setup_only(kind: Kind, seed: u64, s: &mut Samples) -> Result<(), String> {
    warm(kind, seed, None, 0, s).map(drop)
}

/// Build a replicated harness and run its warm-up epochs. Everything
/// before the first measured epoch is set-up: the time is one `setup_s`
/// sample, so work moved out of the measured epochs still shows.
fn warm(
    kind: Kind,
    seed: u64,
    rec: Option<&Rc<Recorder>>,
    trial: u32,
    s: &mut Samples,
) -> Result<Live, String> {
    let t0 = Instant::now();
    let mut live = start(kind, seed, true, rec)?;
    for _ in 0..kind.plan().warmup {
        live.step(rec, trial)?;
    }
    s.setup_s.push(t0.elapsed().as_secs_f64());
    live.host.clear();
    Ok(live)
}
