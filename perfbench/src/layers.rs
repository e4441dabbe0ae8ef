//! Per-layer metrics of a traced run: host self time from the decorators'
//! spans, virtual phase times from the trace sink and the epoch records.

use crate::measure::Samples;
use crate::stats::{mean, percentile};
use crate::workloads::Kind;
use crate::wrap::{HostSpan, Layer};
use nilicon::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The deterministic simulated clock: the paper's numbers.
    Virtual,
    /// The host's clock: how fast this code runs.
    Host,
    /// No clock: a count or size.
    None,
}

impl Clock {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::None => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
}

impl Metric {
    /// A metric read from the simulated clock.
    pub fn virt(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Virtual,
        }
    }

    /// A metric read from the host clock.
    pub fn host(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Host,
        }
    }

    /// A count or size.
    pub fn count(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::None,
        }
    }
}

/// Host time of the measured epochs, split by layer.
#[derive(Debug, Default)]
pub struct HostProfile {
    /// Per child layer: (span count, total ns, span durations in ns).
    pub layers: BTreeMap<Layer, (u64, u64, Vec<f64>)>,
    /// Wall time of the measured `run_epochs` calls.
    pub wall: u64,
    /// Measured `run_epochs` calls (epochs).
    pub runs: u64,
    /// Dirty pages the measured checkpoints captured.
    pub dirty_pages: u64,
}

impl HostProfile {
    /// Attribute `spans` to layers, counting only epochs `>= warmup`. Every
    /// child span must lie inside one `run_epochs` span and not overlap its
    /// siblings, so that the layers' self times plus the harness's own time
    /// add up to the run wall exactly; anything else is an error.
    pub fn build(spans: &[HostSpan], warmup: u64) -> Result<Self, String> {
        let runs: Vec<&HostSpan> = spans.iter().filter(|s| s.layer == Layer::Run).collect();
        let mut p = HostProfile::default();
        let mut last_end = vec![0u64; runs.len()];
        let mut children: Vec<&HostSpan> = spans.iter().filter(|s| s.layer != Layer::Run).collect();
        children.sort_by_key(|s| s.start);
        for c in children {
            let i = runs.partition_point(|r| r.start <= c.start);
            let Some(run) = i.checked_sub(1).map(|i| runs[i]) else {
                continue; // set-up work before the first epoch
            };
            if c.start >= run.end {
                continue; // set-up work between harnesses
            }
            if c.end > run.end || c.start < last_end[i - 1] {
                return Err(format!(
                    "host span {} [{}, {}] is not nested in its epoch",
                    c.layer.name(),
                    c.start,
                    c.end
                ));
            }
            last_end[i - 1] = c.end;
            if run.epoch < warmup {
                continue;
            }
            let e = p.layers.entry(c.layer).or_default();
            e.0 += 1;
            e.1 += c.dur();
            e.2.push(c.dur() as f64);
            if c.layer == Layer::Checkpoint {
                p.dirty_pages += c.work;
            }
        }
        for r in runs.iter().filter(|r| r.epoch >= warmup) {
            p.wall += r.dur();
            p.runs += 1;
        }
        if p.wall < p.layers.values().map(|l| l.1).sum::<u64>() {
            return Err("layer self times exceed the run wall".into());
        }
        Ok(p)
    }

    fn count(&self, l: Layer) -> u64 {
        self.layers.get(&l).map_or(0, |x| x.0)
    }

    fn total(&self, l: Layer) -> u64 {
        self.layers.get(&l).map_or(0, |x| x.1)
    }

    fn durs(&self, l: Layer) -> &[f64] {
        self.layers.get(&l).map_or(&[], |x| &x.2)
    }

    /// The harness's own time: run wall minus every wrapped layer.
    pub fn harness_self(&self) -> u64 {
        self.wall - self.layers.values().map(|l| l.1).sum::<u64>()
    }

    /// Share of the run wall, in %.
    fn share(&self, ns: u64) -> f64 {
        100.0 * ns as f64 / self.wall.max(1) as f64
    }
}

/// Virtual per-epoch phase sums from the trace records.
#[derive(Debug, Default)]
struct Phases {
    checkpoints: u64,
    freeze: u64,
    dump: u64,
    local_copy: u64,
    transfers: u64,
    transfer: u64,
    ingest: u64,
    drbd_bytes: u64,
    drbd_writes: u64,
    shard_epochs: u64,
    shard_stored: u64,
    shard_time: u64,
}

impl Phases {
    fn of(s: &Samples) -> Self {
        let mut p = Phases::default();
        for r in &s.records {
            match &r.kind {
                TraceEvent::Freeze => {
                    p.checkpoints += 1;
                    p.freeze += r.dur;
                }
                TraceEvent::Dump { .. } => p.dump += r.dur,
                TraceEvent::LocalCopy => p.local_copy += r.dur,
                TraceEvent::Transfer { .. } => {
                    p.transfers += 1;
                    p.transfer += r.dur;
                }
                TraceEvent::BackupIngest { .. } => p.ingest += r.dur,
                TraceEvent::DrbdShip { writes, bytes } => {
                    p.drbd_writes += writes;
                    p.drbd_bytes += bytes;
                }
                TraceEvent::ShardCommit {
                    shards, frag_bytes, ..
                } => {
                    p.shard_epochs += 1;
                    p.shard_stored += frag_bytes * *shards as u64;
                    p.shard_time += r.dur;
                }
                _ => {}
            }
        }
        p
    }
}

fn per(total: u64, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / scale
    }
}

fn pct(v: &[f64], p: f64) -> f64 {
    percentile(v, p).unwrap_or(0.0)
}

/// Everything a traced run reports.
pub struct Report {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The human-readable per-layer table.
    pub table: String,
}

/// Per-layer metrics. `traced` is the traced pass; `faults` the traced
/// fault trials (their host profile is `fault_host`); `overhead_pct` the
/// traced-vs-untraced host cost.
pub fn report(
    kind: Kind,
    host: &HostProfile,
    traced: &Samples,
    faults: &Samples,
    fault_host: &HostProfile,
    overhead_pct: f64,
) -> Report {
    let ph = Phases::of(traced);
    let ep = &traced.epochs;
    let n_ep = ep.len() as u64;
    let ops: u64 = ep.iter().map(|e| e.requests_done + e.steps_done).sum();
    let sum = |f: fn(&nilicon::EpochRecord) -> u64| ep.iter().map(f).sum::<u64>();
    let ms_of = |f: fn(&nilicon::EpochRecord) -> u64| -> Vec<f64> {
        ep.iter().map(|e| f(e) as f64 / 1e6).collect()
    };
    let stops = ms_of(|e| e.stop_time);
    let acks = ms_of(|e| e.ack_delay);
    let app_n = host.count(Layer::App);
    let cp = host.durs(Layer::Checkpoint);
    let commits = host.durs(Layer::Commit);
    let fo = &faults.failovers;
    let fo_ms = |f: fn(&nilicon::FailoverReport) -> u64| -> f64 {
        mean(
            &fo.iter()
                .map(|(r, _)| f(r) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let metrics = vec![
        Metric::count("app.calls", app_n as f64, "count"),
        Metric::host(
            "app.host_us_per_call",
            per(host.total(Layer::App), app_n, 1e3),
            "us",
        ),
        Metric::host("app.host_share", host.share(host.total(Layer::App)), "%"),
        Metric::virt(
            "exec.tracking_frac",
            100.0
                * per(
                    sum(|e| e.tracking_overhead),
                    sum(|e| e.exec_cpu).max(1),
                    1.0,
                ),
            "%",
        ),
        Metric::host(
            "client.host_us_per_op",
            per(host.total(Layer::Client), ops, 1e3),
            "us",
        ),
        Metric::host(
            "client.host_share",
            host.share(host.total(Layer::Client)),
            "%",
        ),
        Metric::count(
            "client.issued",
            if kind.is_batch() {
                0.0
            } else {
                traced.attempted as f64
            },
            "count",
        ),
        Metric::count("client.invalid", traced.invalid as f64, "count"),
        Metric::host("checkpoint.host_us_p50", pct(cp, 50.0) / 1e3, "us"),
        Metric::host("checkpoint.host_us_p99", pct(cp, 99.0) / 1e3, "us"),
        Metric::host(
            "checkpoint.host_ns_per_dirty_page",
            per(host.total(Layer::Checkpoint), host.dirty_pages, 1.0),
            "ns",
        ),
        Metric::host(
            "checkpoint.host_share",
            host.share(host.total(Layer::Checkpoint)),
            "%",
        ),
        Metric::virt("stop_p50_ms", pct(&stops, 50.0), "ms"),
        Metric::virt("stop_p99_ms", pct(&stops, 99.0), "ms"),
        Metric::virt("stop.freeze_ms", per(ph.freeze, ph.checkpoints, 1e6), "ms"),
        Metric::virt("stop.dump_ms", per(ph.dump, ph.checkpoints, 1e6), "ms"),
        Metric::virt(
            "stop.local_copy_ms",
            per(ph.local_copy, ph.checkpoints, 1e6),
            "ms",
        ),
        Metric::count(
            "dirty_pages_per_epoch",
            per(sum(|e| e.dirty_pages), n_ep, 1.0),
            "count",
        ),
        Metric::count(
            "state_kib_per_epoch",
            per(sum(|e| e.state_bytes), n_ep, 1024.0),
            "KiB",
        ),
        Metric::host("commit.host_us_p50", pct(commits, 50.0) / 1e3, "us"),
        Metric::host(
            "commit.host_share",
            host.share(host.total(Layer::Commit)),
            "%",
        ),
        Metric::virt("ack_delay_p50_ms", pct(&acks, 50.0), "ms"),
        Metric::virt("ack_delay_p99_ms", pct(&acks, 99.0), "ms"),
        Metric::virt("ack.transfer_ms", per(ph.transfer, ph.transfers, 1e6), "ms"),
        Metric::virt("ack.ingest_ms", per(ph.ingest, ph.transfers, 1e6), "ms"),
        Metric::virt(
            "backup_util",
            per(sum(|e| e.backup_cpu), traced.vtime, 1.0),
            "cores",
        ),
        Metric::virt(
            "release_wait_p50_ms",
            pct(&traced.release_waits, 50.0),
            "ms",
        ),
        Metric::virt(
            "release_wait_p99_ms",
            pct(&traced.release_waits, 99.0),
            "ms",
        ),
        Metric::count(
            "drbd.ship_kib_per_epoch",
            per(ph.drbd_bytes, ph.checkpoints, 1024.0),
            "KiB",
        ),
        Metric::count(
            "drbd.writes_per_epoch",
            per(ph.drbd_writes, ph.checkpoints, 1.0),
            "count",
        ),
        Metric::count(
            "placement.stored_kib_per_epoch",
            per(ph.shard_stored, ph.shard_epochs, 1024.0),
            "KiB",
        ),
        Metric::virt(
            "placement.encode_ms",
            per(ph.shard_time, ph.shard_epochs, 1e6),
            "ms",
        ),
        Metric::virt(
            "failover.detect_ms",
            mean(&fo.iter().map(|(_, d)| *d as f64 / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::host(
            "failover.host_ms",
            mean(fault_host.durs(Layer::Failover)) / 1e6,
            "ms",
        ),
        Metric::virt("failover.restore_ms", fo_ms(|r| r.restore), "ms"),
        Metric::virt("failover.arp_ms", fo_ms(|r| r.arp), "ms"),
        Metric::virt("failover.tcp_ms", fo_ms(|r| r.tcp), "ms"),
        Metric::virt("failover.others_ms", fo_ms(|r| r.others), "ms"),
        Metric::count("failover.broken_connections", faults.broken as f64, "count"),
        Metric::count(
            "failover.lost_requests",
            faults.lost_requests as f64,
            "count",
        ),
        Metric::host(
            "engine.host_share",
            host.share(host.total(Layer::Engine)),
            "%",
        ),
        Metric::host("harness.host_share", host.share(host.harness_self()), "%"),
        Metric::host(
            "harness.host_us_per_epoch",
            per(host.harness_self(), host.runs, 1e3),
            "us",
        ),
        Metric::host("trace.overhead_pct", overhead_pct, "%"),
    ];

    // The table: per layer, span count, host self-time share and the mean
    // of the virtual phase it drives.
    let mut table = format!(
        "per-layer report: {} ({} measured epochs, run wall {:.3} s)\n\
         {:<11} {:>9} {:>9}  {}\n",
        kind.name(),
        host.runs,
        host.wall as f64 / 1e9,
        "layer",
        "count",
        "host %",
        "virtual phase mean"
    );
    let exec_ms = per(sum(|e| e.exec_cpu), n_ep, 1e6);
    let recovery = mean(
        &fo.iter()
            .map(|(r, _)| r.total() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    // Failover runs in the fault trials, so its share is of their wall.
    let row = |l: Layer| (host.count(l), host.share(host.total(l)));
    let failover = (
        fault_host.count(Layer::Failover),
        fault_host.share(fault_host.total(Layer::Failover)),
    );
    let rows = [
        (
            "app",
            row(Layer::App),
            format!("exec CPU {exec_ms:.3} ms/epoch"),
        ),
        ("client", row(Layer::Client), "-".into()),
        (
            "checkpoint",
            row(Layer::Checkpoint),
            format!("stop {:.3} ms", mean(&stops)),
        ),
        (
            "commit",
            row(Layer::Commit),
            format!("ack delay {:.3} ms", mean(&acks)),
        ),
        (
            "failover",
            failover,
            format!("recovery {recovery:.3} ms ({} fault trials)", fo.len()),
        ),
        ("engine", row(Layer::Engine), "-".into()),
        (
            "harness",
            (host.runs, host.share(host.harness_self())),
            "-".into(),
        ),
    ];
    for (name, (count, share), virt) in rows {
        let _ = writeln!(table, "{name:<11} {count:>9} {share:>8.2}%  {virt}");
    }
    Report { metrics, table }
}
