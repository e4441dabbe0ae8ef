//! One container's serving state and the epoch body both drivers share.
//!
//! A [`Lane`] is what the paper's loop (Fig. 1) runs per container: execute
//! a window of client requests (or batch steps), release the window's output
//! once its checkpoint (or log chunk) committed, promote onto the backup
//! after a fault, and check the clients at the end of the run.
//! [`RunHarness`](crate::harness::RunHarness) drives one lane;
//! [`FleetScheduler`](crate::fleet::FleetScheduler) drives N of them over
//! one host pair. The drivers keep what differs between them: the harness
//! its fault injection, chaos leases and re-arm/repair lifecycles; the
//! fleet its stagger, serial dump service, shared link and consolidated
//! heartbeat.
//!
//! A lane never owns the cluster, the engine or the host ids: each
//! operation takes them as arguments, so one lane type serves both
//! drivers' ownership layouts.

use crate::detector::HeartbeatSender;
use crate::engine::{Checkpointer, FailoverReport};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::replay::replay_tail;
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::{ClientBehavior, ClientPool};
use nilicon_container::{
    encode_frame, try_decode_frame, Application, Container, ContainerRuntime, ContainerSpec,
    GuestCtx,
};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::{Endpoint, HostId};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::{ChaosSchedule, InputMode, LinkDir};
use nilicon_sim::replay::{content_hash, ReplayEvent};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};
use std::collections::{HashMap, VecDeque};

/// Address of the client stack on the bridge (lane `i` of a fleet uses
/// `CLIENT_ADDR + i`).
pub const CLIENT_ADDR: u32 = 200;

/// CPU cost of the keep-alive process per 30 ms interval (§IV: ~1000
/// instructions).
const KEEPALIVE_COST: Nanos = 300;

/// Deterministic SplitMix64 jitter in `[0, range)`.
fn jitter(state: &mut u64, range: Nanos) -> Nanos {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) % range.max(1)
}

/// A served request whose response sits in the (plugged) qdisc.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The client connection it answers.
    pub remote: Endpoint,
    /// When service finished (wall time, duty-cycle stretched).
    pub done: Nanos,
    /// Hybrid replay: the commit latency of the log chunk that made the
    /// response externalizable. `None` waits for an epoch ack.
    pub logged: Option<Nanos>,
}

/// Where an execution window ships its replay log (hybrid replay only).
pub(crate) struct LogSink<'a> {
    pub engine: &'a mut dyn Checkpointer,
    pub epoch: u64,
    /// The replication link's chaos schedule: a chunk shipped while the
    /// link is cut never commits.
    pub schedule: Option<&'a ChaosSchedule>,
}

/// Log traffic of one execution window.
#[derive(Debug, Default)]
pub(crate) struct LogTotals {
    pub events: u64,
    pub bytes: u64,
    /// Summed commit latency (the window's `LogShip` span).
    pub time: Nanos,
    pub commit_max: Nanos,
    pub backup_cpu: Nanos,
    /// Some chunk hit a cut link and never committed.
    pub blocked: bool,
}

impl LogTotals {
    /// Ship `events` at time `at`; returns the chunk's commit latency, or
    /// `None` if the link was cut.
    fn ship(
        &mut self,
        sink: &mut LogSink<'_>,
        primary: &mut Kernel,
        at: Nanos,
        events: &[ReplayEvent],
    ) -> SimResult<Option<Nanos>> {
        if sink.schedule.is_some_and(|s| s.blocked(at, LinkDir::AtoB)) {
            self.blocked = true;
            return Ok(None);
        }
        let ship = sink.engine.ship_log(primary, sink.epoch, events)?;
        self.events += events.len() as u64;
        self.bytes += ship.bytes;
        self.time += ship.commit_latency;
        self.commit_max = self.commit_max.max(ship.commit_latency);
        self.backup_cpu += ship.backup_cpu;
        Ok(Some(ship.commit_latency))
    }

    /// Emit the window's `LogShip` span and `LogCommit` marker (if any
    /// event shipped).
    pub fn trace(&self, tracer: &Tracer) {
        if self.events > 0 {
            tracer.span(
                TraceEvent::LogShip {
                    events: self.events,
                    bytes: self.bytes,
                },
                self.time,
            );
            tracer.mark(TraceEvent::LogCommit {
                events: self.events,
                commit_latency: self.commit_max,
            });
        }
    }
}

/// What one execution window did.
#[derive(Debug, Default)]
pub(crate) struct Executed {
    pub completions: Vec<Completion>,
    pub requests: u64,
    pub steps: u64,
    /// CPU charged to the container (capped at the window's budget).
    pub exec_cpu: Nanos,
    /// Page-tracking fault overhead metered during the window.
    pub tracking: Nanos,
    pub log: LogTotals,
}

impl Executed {
    /// The epoch record of this window alone (no stop phase, no ack).
    pub fn record(&self, epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            exec_cpu: self.exec_cpu,
            tracking_overhead: self.tracking,
            requests_done: self.requests,
            steps_done: self.steps,
            ..Default::default()
        }
    }
}

/// One container's serving state.
pub(crate) struct Lane {
    pub container: Container,
    pub app: Box<dyn Application>,
    pub behavior: Option<Box<dyn ClientBehavior>>,
    pub pool: Option<ClientPool>,
    /// Nominal epoch length: the arrival-jitter range and the duty-cycle
    /// stretch's denominator (a truncated window keeps both).
    epoch_exec: Nanos,
    /// Decoded requests awaiting service: (client endpoint, payload,
    /// arrival), sorted by arrival.
    pub pending: VecDeque<(Endpoint, Vec<u8>, Nanos)>,
    /// Per-connection queue of logical response receipt times.
    pub receipts: HashMap<Endpoint, VecDeque<Nanos>>,
    pub metrics: RunMetrics,
    jitter_state: u64,
    /// CPU consumed beyond the previous window's budget (a request larger
    /// than one epoch's budget keeps the cores busy into the next epoch).
    pub cpu_debt: Nanos,
    /// Previous epoch's stop time — the steady-state duty-cycle stretch for
    /// service-time accounting (a C-ms request takes C·(E+stop)/E of wall
    /// time under replication because the container freezes every epoch).
    pub last_stop: Nanos,
    /// Completions whose release was deferred (no covering ack yet); they
    /// ride the next release, or are discarded at promotion.
    pub held: Vec<Completion>,
    pub sender: HeartbeatSender,
    pub tracer: Tracer,
    /// The batch workload reported completion.
    pub batch_done: bool,
}

impl Lane {
    /// Create lane `index`'s container on `host`, initialize the workload,
    /// and (if it has clients and a listener) connect its client pool from
    /// its own netns on `client_host`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cluster: &mut Cluster,
        host: HostId,
        client_host: HostId,
        index: u32,
        spec: &ContainerSpec,
        mut app: Box<dyn Application>,
        behavior: Option<Box<dyn ClientBehavior>>,
        epoch_exec: Nanos,
    ) -> SimResult<Self> {
        let container = ContainerRuntime::create(cluster.host_mut(host), spec)?;
        cluster.bind_addr(spec.addr, host, container.ns.net);
        {
            let k = cluster.host_mut(host);
            let mut ctx = GuestCtx::new(k, container.workers[0], 0);
            app.init(&mut ctx)?;
            k.meter.take();
            k.fault_meter.take();
        }
        let pool = match (&behavior, spec.listen_port) {
            (Some(b), Some(port)) => {
                let ch = cluster.host_mut(client_host);
                let ns = ch.namespaces.create_set(&format!("client{index}")).net;
                let addr = CLIENT_ADDR + index;
                ch.create_stack(ns, addr, InputMode::Buffer);
                cluster.bind_addr(addr, client_host, ns);
                Some(ClientPool::connect(
                    cluster,
                    client_host,
                    ns,
                    b.client_count(),
                    Endpoint::new(spec.addr, port),
                )?)
            }
            _ => None,
        };
        Ok(Lane {
            container,
            app,
            behavior,
            pool,
            epoch_exec,
            pending: VecDeque::new(),
            receipts: HashMap::new(),
            metrics: RunMetrics::default(),
            jitter_state: 0x243F6A8885A308D3 ^ u64::from(index).wrapping_mul(0x9E3779B97F4A7C15),
            cpu_debt: 0,
            last_stop: 0,
            held: Vec::new(),
            sender: HeartbeatSender::new(),
            tracer: Tracer::disabled(),
            batch_done: false,
        })
    }

    /// Issue requests from idle clients, pump the wire, and harvest complete
    /// frames into `pending` (with jittered arrival times — real clients are
    /// not phase-locked to the epoch clock).
    fn turnaround(&mut self, cluster: &mut Cluster, host: HostId, base: Nanos) -> SimResult<()> {
        let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) else {
            return Ok(());
        };
        pool.issue(cluster, behavior.as_mut(), base, self.epoch_exec)?;
        cluster.pump();
        let ns = self.container.ns.net;
        let k = cluster.host_mut(host);
        let cl_lat = k.costs.client_link_latency;
        for (sid, remote) in k.stack(ns)?.established_ids() {
            let buf = k.stack(ns)?.peek_recv(sid)?;
            let mut offset = 0;
            while let Some((frame, consumed)) = try_decode_frame(&buf[offset..]) {
                offset += consumed;
                let arrival = base + jitter(&mut self.jitter_state, self.epoch_exec) + 2 * cl_lat;
                self.pending.push_back((remote, frame, arrival));
            }
            if offset > 0 {
                k.stack_mut(ns)?.consume_recv(sid, offset)?;
            }
        }
        self.pending
            .make_contiguous()
            .sort_by_key(|(_, _, arrival)| *arrival);
        Ok(())
    }

    /// Execute the window `[start, end)` on `host` with `budget` of CPU:
    /// client turnaround, then serve requests that arrived by `end` (or run
    /// batch steps), shipping each response's log chunk — or the batch's
    /// aggregate step chunk at `end` — through `log` when hybrid replay is
    /// on. Whatever the host metered before the window is discarded; the
    /// window's CPU is charged, the clock advances to `end`, and the `Exec`
    /// span is emitted.
    ///
    /// Requests are handled in the leader's context: application fds are
    /// opened there, and concentrating guest state in one address space is
    /// checkpoint-equivalent (the dump walks every process either way).
    /// Multi-process CPU capacity is modeled by the budget.
    pub fn execute(
        &mut self,
        cluster: &mut Cluster,
        host: HostId,
        start: Nanos,
        end: Nanos,
        budget: Nanos,
        mut log: Option<LogSink<'_>>,
    ) -> SimResult<Executed> {
        self.turnaround(cluster, host, start)?;
        let k = cluster.host_mut(host);
        k.meter.take();
        k.fault_meter.take();
        let mut x = Executed::default();
        let mut used = KEEPALIVE_COST + self.cpu_debt;
        let pid = self.container.workers[0];
        let ns = self.container.ns.net;
        if self.app.is_server() {
            while used < budget {
                if self
                    .pending
                    .front()
                    .is_none_or(|(_, _, arrival)| *arrival > end)
                {
                    break;
                }
                let (remote, req, arrival) = self.pending.pop_front().expect("front checked");
                let k = cluster.host_mut(host);
                let response = self
                    .app
                    .handle_request(&mut GuestCtx::new(k, pid, start + used), &req)?
                    .response;
                used += k.meter.take().max(100);
                let stretch_num = self.epoch_exec + self.last_stop;
                let done = arrival.max(start) + used.saturating_mul(stretch_num) / self.epoch_exec;
                let sid = k
                    .stack(ns)?
                    .established_ids()
                    .into_iter()
                    .find(|(_, r)| *r == remote)
                    .map(|(sid, _)| sid)
                    .ok_or_else(|| SimError::Invalid(format!("no connection to {remote}")))?;
                k.stack_mut(ns)?.send(sid, &encode_frame(&response))?;
                x.requests += 1;
                // Hybrid replay ships this completion's log chunk at once:
                // when the backup acks it the response is externalizable,
                // without waiting for the epoch checkpoint.
                let logged = match log.as_mut() {
                    Some(sink) => {
                        let ev = ReplayEvent::Request {
                            pid,
                            at: arrival,
                            payload: req,
                            response_hash: content_hash(&response),
                            response_len: response.len() as u32,
                        };
                        x.log.ship(sink, k, start + used, &[ev])?
                    }
                    None => None,
                };
                x.completions.push(Completion {
                    remote,
                    done,
                    logged,
                });
            }
        } else {
            let mut steps: Vec<ReplayEvent> = Vec::new();
            while used < budget && !self.batch_done {
                let k = cluster.host_mut(host);
                let outcome = self.app.step(&mut GuestCtx::new(k, pid, start + used))?;
                used += k.meter.take().max(100);
                x.steps += 1;
                if log.is_some() {
                    steps.push(ReplayEvent::Step {
                        pid,
                        at: start + used,
                        done: outcome.done,
                    });
                }
                self.batch_done |= outcome.done;
            }
            // Batch workloads have no per-request output to release early,
            // so their step log ships as one aggregate chunk at the window's
            // end.
            if let (Some(sink), false) = (log.as_mut(), steps.is_empty()) {
                x.log.ship(sink, cluster.host_mut(host), end, &steps)?;
            }
        }

        self.cpu_debt = used.saturating_sub(budget);
        x.exec_cpu = used.min(budget);
        let k = cluster.host_mut(host);
        x.tracking = k.fault_meter.take();
        k.cgroups.charge_cpu(self.container.cgroup, x.exec_cpu);
        let now = cluster.clock.now().max(end);
        cluster.clock.advance_to(now);
        self.tracer.span(
            TraceEvent::Exec {
                requests: x.requests,
                steps: x.steps,
            },
            end - start,
        );
        Ok(x)
    }

    /// Whether the cpuacct-gated keep-alive beats after this window (a hung
    /// container stops beating).
    pub fn beat(&mut self, cluster: &mut Cluster, host: HostId) -> bool {
        let cpuacct = cluster
            .host_mut(host)
            .cgroups
            .cpuacct_usage(self.container.cgroup);
        self.sender.tick(cpuacct)
    }

    /// Stamp logical receipt times for `completions` released at `at` with
    /// client link latency `cl`. A logged completion left at its chunk's
    /// commit; the rest leave at `at` (a response is never received before
    /// it was produced). `waits` records the release waits of the
    /// epoch-ack completions; logged ones always record theirs.
    pub fn stamp(
        &mut self,
        cl: Nanos,
        at: Nanos,
        completions: impl IntoIterator<Item = Completion>,
        waits: bool,
    ) {
        for c in completions {
            let (receipt, wait) = match c.logged {
                Some(commit) => (c.done + commit + cl, Some(commit)),
                None => (
                    c.done.max(at) + cl,
                    waits.then(|| at.saturating_sub(c.done)),
                ),
            };
            if let Some(w) = wait {
                self.metrics.release_waits.push(w);
            }
            self.receipts
                .entry(c.remote)
                .or_default()
                .push_back(receipt);
        }
    }

    /// Deliver responses that reached the clients, at their logical receipt
    /// times (`fallback` for responses without one); record latencies.
    pub fn collect(&mut self, cluster: &mut Cluster, fallback: Nanos) -> SimResult<()> {
        if let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) {
            let lats = pool.collect(
                cluster,
                behavior.as_mut(),
                &mut self.receipts,
                fallback,
                &self.tracer,
            )?;
            self.metrics.response_latencies.extend(lats);
        }
        Ok(())
    }

    /// Output commit: unplug the lane's qdisc on `host` at logical time
    /// `at`, pump the wire, stamp `completions` (see [`Lane::stamp`]) and
    /// deliver. `emit_empty` traces an `OutputRelease` even when no packet
    /// was plugged.
    pub fn release(
        &mut self,
        cluster: &mut Cluster,
        host: HostId,
        at: Nanos,
        completions: impl IntoIterator<Item = Completion>,
        waits: bool,
        emit_empty: bool,
    ) -> SimResult<()> {
        let k = cluster.host_mut(host);
        let cl = k.costs.client_link_latency;
        let released = k.stack_mut(self.container.ns.net)?.release_output();
        if released > 0 || emit_empty {
            self.tracer.event_at(
                TraceEvent::OutputRelease {
                    packets: released as u64,
                },
                at,
            );
        }
        cluster.pump();
        self.stamp(cl, at, completions, waits);
        self.collect(cluster, at)
    }

    /// The primary died: its uncommitted driver-side buffers (queued
    /// requests, held completions, plus `extra` voided ones) are garbage —
    /// the clients retransmit anything the committed state has not
    /// consumed.
    pub fn discard(&mut self, at: Nanos, extra: u64) {
        let packets = (self.pending.len() + self.held.len()) as u64 + extra;
        self.tracer
            .event_at(TraceEvent::OutputDiscard { packets }, at);
        self.pending.clear();
        self.held.clear();
    }

    /// Rebuild the application's working state from the guest memory of
    /// the container on `host`.
    fn recover(&mut self, cluster: &mut Cluster, host: HostId) -> SimResult<()> {
        let now = cluster.clock.now();
        let k = cluster.host_mut(host);
        let mut ctx = GuestCtx::new(k, self.container.workers[0], now);
        self.app.recover(&mut ctx)?;
        k.meter.take();
        k.fault_meter.take();
        Ok(())
    }

    /// Fail over onto `backup`: restore the engine's committed image, move
    /// the address (gratuitous ARP), recover the application, replay the
    /// sealed log tail (hybrid replay), discard uncommitted output (plus
    /// `extra_discards` from a voided deferred release), and retransmit on
    /// both sides. `latency` is the detection latency the `Failover` event
    /// reports.
    pub fn promote(
        &mut self,
        cluster: &mut Cluster,
        engine: &mut dyn Checkpointer,
        backup: HostId,
        latency: Nanos,
        extra_discards: u64,
    ) -> SimResult<FailoverReport> {
        let (restored, report) = engine.failover(cluster.host_mut(backup))?;
        cluster.clock.advance(report.total());
        cluster.bind_addr(
            restored.container.spec.addr,
            backup,
            restored.container.ns.net,
        );
        restored.finish(cluster.host_mut(backup))?;
        self.container = restored.container;
        self.recover(cluster, backup)?;

        // Hybrid replay: re-execute the sealed log tail on top of the
        // restored checkpoint, recovering the post-checkpoint execution
        // whose outputs were already released at log commit. A divergence
        // (gap, partial tail, hash mismatch) falls back to the plain
        // last-checkpoint state just restored.
        if engine.supports_replay() {
            let tail = engine.take_replay_tail()?;
            if !tail.logs.is_empty() || tail.dropped_partial {
                self.tracer.event_at(
                    TraceEvent::ReplayStart {
                        epochs: tail.logs.len() as u64,
                        events: tail.events(),
                    },
                    cluster.clock.now(),
                );
                let out = replay_tail(
                    cluster.host_mut(backup),
                    &self.container,
                    self.app.as_mut(),
                    &tail,
                )?;
                cluster.clock.advance(out.replay_cpu);
                let done = cluster.clock.now();
                match out.diverged {
                    Some(reason) => {
                        self.tracer
                            .event_at(TraceEvent::ReplayDiverge { reason }, done);
                        // The executor rolled guest memory back; re-derive
                        // the app's working state from the checkpoint too.
                        self.recover(cluster, backup)?;
                    }
                    None => self.tracer.event_at(
                        TraceEvent::ReplayComplete {
                            events: out.events,
                            replay_time: out.replay_cpu,
                        },
                        done,
                    ),
                }
            }
        }

        let now = cluster.clock.now();
        self.discard(now, extra_discards);
        self.tracer.event_at(
            TraceEvent::Failover {
                detection_latency: latency,
                restore: report.restore,
                arp: report.arp,
                tcp: report.tcp,
                others: report.others,
            },
            now,
        );
        // The promoted host's cgroup accounting starts from zero: without a
        // fresh sender, `tick` would never see progress.
        self.sender = HeartbeatSender::new();

        // Retransmissions: restored server sockets re-send unacked
        // responses (§V-E); clients re-send their unacked request backlog.
        cluster
            .host_mut(backup)
            .stack_mut(self.container.ns.net)?
            .retransmit_all();
        if let Some(pool) = self.pool.as_mut() {
            pool.retransmit(cluster)?;
        }
        cluster.pump();
        self.collect(cluster, now)?;
        Ok(report)
    }

    /// End-of-run client checks: broken connections and the workload's
    /// verdict. A failed client-stack lookup must fail the run, not count
    /// as zero broken connections, so it is folded into the verdict (the
    /// §VII-A gate cannot pass vacuously).
    pub fn finish_checks(&self, cluster: &mut Cluster) -> (u64, Result<(), String>) {
        let broken = match self.pool.as_ref() {
            Some(p) => p.broken_connections(cluster),
            None => Ok(0),
        };
        match broken {
            Ok(n) => (n, self.behavior.as_ref().map_or(Ok(()), |b| b.verify())),
            Err(e) => (u64::MAX, Err(format!("broken_connections: {e}"))),
        }
    }
}
