//! The run harness: hosts a workload in a container and drives the epoch
//! loop of Fig. 1 — unreplicated (stock), under NiLiCon, or under any other
//! [`Checkpointer`] (the MC baseline) — with fault injection.
//!
//! ## Timing model
//!
//! Virtual time advances in epochs: an execution phase of fixed wall length
//! (30 ms), then a stop phase whose length the engine meters. Within the
//! execution phase the container can spend up to `epoch_exec × parallelism`
//! of CPU (its dedicated cores); request service costs are metered by the
//! kernel, so page-tracking faults automatically slow the container down
//! (the Fig. 3 "runtime overhead" component).
//!
//! Output commit: server responses enter the plugged qdisc during the epoch
//! and are released when the backup acknowledges that epoch's state; client
//! response latencies are computed against the *release* time (§II-A), which
//! is what produces the Table VI latency inflation.
//!
//! ## What lives here
//!
//! The per-container half of the epoch body — the execution window, the
//! output release, the promotion onto the backup and the end-of-run client
//! checks — is the crate-private `Lane` (`lane.rs`), shared with the
//! [`FleetScheduler`](crate::fleet::FleetScheduler). The harness drives one
//! lane through one `step(cut)` per epoch (a cut is a primary fault inside
//! the epoch under hybrid replay) and keeps the single-pair half: the
//! engine's stop phase and commit, fault injection and detection, the
//! chaos leases and fencing, and the re-arm and coded-repair lifecycles.

use crate::config::ReplicationConfig;
use crate::detector::{FailureDetector, Lease};
use crate::engine::{Checkpointer, FailoverReport};
use crate::lane::{Completion, Lane, LogSink};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::ClientBehavior;
use nilicon_container::{Application, Container, ContainerSpec, MemLayout};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::HostId;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::{ChaosConfig, ChaosLink, LinkDir};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};
use std::collections::VecDeque;

pub use crate::lane::CLIENT_ADDR;

/// How the container runs.
pub enum RunMode {
    /// No replication (the paper's "stock" baseline).
    Unreplicated,
    /// Replicated under an engine (NiLiCon or MC).
    Replicated(Box<dyn Checkpointer>),
}

impl std::fmt::Debug for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunMode::Unreplicated => write!(f, "Unreplicated"),
            RunMode::Replicated(e) => write!(f, "Replicated({})", e.name()),
        }
    }
}

/// Final outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregated metrics.
    pub metrics: RunMetrics,
    /// Recovery breakdown, if a failover happened.
    pub failover: Option<FailoverReport>,
    /// Detection latency, if a fault was injected.
    pub detection_latency: Option<Nanos>,
    /// Whether the service survived every injected fault: true iff no
    /// injected fault went unrecovered (scheduled-but-never-fired faults
    /// count as unrecovered — the run ended before proving survival).
    pub recovered: bool,
    /// Completed failovers (0 or 1 in paper configurations; 2+ only with
    /// the `rearm` extension).
    pub failovers: u64,
    /// Injected primary faults the service did not survive, plus any
    /// scheduled faults that never fired.
    pub unrecovered_faults: u64,
    /// Client connections broken by RST (§VII-A criterion: must be 0).
    pub broken_connections: u64,
    /// Workload self-validation (§VII-A).
    pub verify: Result<(), String>,
}

/// Where the re-replication extension stands (always `Idle` in paper
/// configurations — every transition below is gated on
/// [`Checkpointer::supports_rearm`]).
#[derive(Debug, Clone, Copy)]
enum RearmState {
    /// No re-arm pending.
    Idle,
    /// A failover (or backup loss) happened; a bootstrap starts at `at`.
    Scheduled { at: Nanos, attempt: u32 },
    /// A replacement backup is ingesting the full bootstrap image in
    /// bounded per-epoch chunks while the promoted container keeps serving.
    Bootstrapping {
        attempt: u32,
        /// Epoch number the bootstrap image was taken at.
        epoch: u64,
        streamed_pages: u64,
        streamed_bytes: u64,
    },
    /// Redundancy re-established: incremental epochs are running again.
    Armed,
}

/// Where a coded repair stands (always `Idle` unless the active engine
/// supports the `placement` extension — see
/// [`Checkpointer::supports_placement`]). Unlike [`RearmState`], the engine
/// keeps driving epochs throughout: the placement is merely *degraded*
/// (`alive ≥ k` replicas still ack every epoch) while the lost replica's
/// fragment store regenerates on a replacement host.
#[derive(Debug, Clone, Copy)]
enum RepairState {
    /// Full redundancy (or no placement at all).
    Idle,
    /// A replica was lost with the quorum intact; a coded repair starts at
    /// `at`.
    Scheduled { at: Nanos, attempt: u32 },
    /// The replacement is regenerating the missing fragments from k peers
    /// in bounded per-epoch chunks while the primary keeps serving.
    Repairing {
        attempt: u32,
        streamed_pages: u64,
        streamed_bytes: u64,
    },
}

/// Live counters of the chaos extension, for scenario classification by the
/// `chaos` bench bin (all zero when no chaos schedule is armed).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct ChaosStats {
    /// Partition windows the run entered.
    pub partitions: u64,
    /// Epochs whose checkpoint could not reach the backup (link cut at the
    /// epoch boundary): execution continued, output stayed plugged.
    pub stalled_epochs: u64,
    /// Epochs whose state committed on the backup but whose ack never
    /// returned (release withheld, lease not renewed).
    pub withheld_acks: u64,
    /// Output releases withheld because the primary's lease had expired
    /// (the exactly-one-owner fence).
    pub fenced_releases: u64,
    /// Failure suspicions cancelled by a late heartbeat before the lease
    /// gate allowed promotion.
    pub false_suspicions: u64,
    /// Times the primary's lease lapsed un-renewed.
    pub lease_expiries: u64,
    /// True iff the exactly-one-owner invariant was ever violated. Must stay
    /// false: a violation also fails the run with a hard error.
    pub split_brain: bool,
}

/// Chaos-mode run state: the heartbeat link under the fault schedule plus
/// both views of the output-release lease.
struct ChaosState {
    cfg: ChaosConfig,
    /// Heartbeats in flight (payload = send time).
    hb: ChaosLink<Nanos>,
    /// The primary's (conservative, early-anchored) view of its lease.
    holder: Lease,
    /// The backup's granted view (late-anchored; gates promotion).
    grant: Lease,
    last_beat_delivered: Nanos,
    holder_was_valid: bool,
    in_partition: bool,
    partition_started_at: Option<Nanos>,
    /// Acks attempted inside a partial-loss window (drives `drop_nth`).
    acks_attempted: u64,
    stats: ChaosStats,
}

/// An output release deferred to its logical release time (chaos mode): the
/// qdisc stays plugged until the lease check at flush. A primary fault in
/// the gap voids it — fault-during-output-release.
struct PendingRelease {
    release_time: Nanos,
    /// Completions riding this release.
    receipts: Vec<Completion>,
}

/// The harness itself.
pub struct RunHarness {
    /// The simulated cluster: primary, backup, client hosts.
    pub cluster: Cluster,
    /// Primary host id.
    pub primary: HostId,
    /// Backup host id.
    pub backup: HostId,
    /// Client host id.
    pub client_host: HostId,
    /// The container, its workload and clients, and their serving state.
    lane: Lane,
    cfg: ReplicationConfig,
    mode: RunMode,
    parallelism: f64,
    detector: FailureDetector,
    /// Pending primary-host faults, in firing order.
    faults: VecDeque<Nanos>,
    /// Pending backup-host faults, in firing order.
    backup_faults: VecDeque<Nanos>,
    stage_fails: VecDeque<(Nanos, u64)>,
    failover_report: Option<FailoverReport>,
    detection_latency: Option<Nanos>,
    on_backup: bool,
    /// Whether the run was constructed replicated (fault injection into a
    /// stock run is a harness-usage error, even after degradation).
    replicated_run: bool,
    failovers: u64,
    unrecovered_faults: u64,
    /// The service is gone (unprotected fault): no further epochs run.
    dead: bool,
    rearm: RearmState,
    repair: RepairState,
    /// The engine while it is not driving epochs (between a failover and
    /// the completion of the re-replication bootstrap).
    parked: Option<Box<dyn Checkpointer>>,
    epoch: u64,
    /// Chaos extension state (None on every paper path).
    chaos: Option<ChaosState>,
    /// Chaos mode: the release deferred from the previous epoch, if any.
    pending_release: Option<PendingRelease>,
}

impl std::fmt::Debug for RunHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHarness")
            .field("mode", &self.mode)
            .field("epoch", &self.epoch)
            .field("on_backup", &self.on_backup)
            .finish()
    }
}

impl RunHarness {
    /// Build a harness: three hosts, the container on the primary, the
    /// workload initialized, clients connected (if `behavior` is given), and
    /// the engine prepared (if replicated).
    ///
    /// `parallelism` is the workload's usable core count (drives the exec
    /// CPU budget and Table V's "Active" row).
    pub fn new(
        spec: ContainerSpec,
        app: Box<dyn Application>,
        behavior: Option<Box<dyn ClientBehavior>>,
        mut mode: RunMode,
        cfg: ReplicationConfig,
        parallelism: f64,
    ) -> SimResult<Self> {
        let mut cluster = Cluster::new();
        let primary = cluster.add_host(Kernel::default());
        let backup = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());
        // Clients connect before the qdisc is plugged (handshakes flow
        // freely during setup).
        let lane = Lane::new(
            &mut cluster,
            primary,
            client_host,
            0,
            &spec,
            app,
            behavior,
            cfg.epoch_exec,
        )?;

        // Engine preparation (arms tracking, plugs the qdisc).
        if let RunMode::Replicated(engine) = &mut mode {
            engine.prepare(cluster.host_mut(primary), &lane.container)?;
            cluster.host_mut(primary).meter.take();
            if engine.supports_replay() {
                // Hybrid replay: the primary kernel records nondeterministic
                // events from here on (dormant on every paper row).
                cluster.host_mut(primary).replay.enable();
            }
        }

        let interval = cfg.heartbeat_interval;
        let misses = cfg.heartbeat_misses;
        let replicated_run = matches!(mode, RunMode::Replicated(_));
        Ok(RunHarness {
            cluster,
            primary,
            backup,
            client_host,
            lane,
            cfg,
            mode,
            parallelism,
            detector: FailureDetector::new(interval, misses, 0),
            faults: VecDeque::new(),
            backup_faults: VecDeque::new(),
            stage_fails: VecDeque::new(),
            failover_report: None,
            detection_latency: None,
            on_backup: false,
            replicated_run,
            failovers: 0,
            unrecovered_faults: 0,
            dead: false,
            rearm: RearmState::Idle,
            repair: RepairState::Idle,
            parked: None,
            epoch: 0,
            chaos: None,
            pending_release: None,
        })
    }

    /// Arm the chaos extension: inject the network-fault schedule on the
    /// replication/heartbeat link and turn on the output-release lease
    /// (split-brain fence). Call on a replicated harness before any epochs
    /// run; paper rows never call this, so the paper path is untouched.
    ///
    /// The lease term defaults to `(heartbeat_misses + 2) × interval`
    /// (150 ms in the paper config) — deliberately longer than the 90 ms
    /// detection threshold, so a false suspicion under delay can resolve
    /// before the promotion gate opens. The price of the fence is promotion
    /// latency: the backup waits out the granted lease even when the primary
    /// is truly dead.
    pub fn set_chaos(&mut self, cfg: ChaosConfig) {
        self.set_chaos_with_lease(cfg, None)
    }

    /// [`RunHarness::set_chaos`] with an explicit lease term override.
    pub fn set_chaos_with_lease(&mut self, mut cfg: ChaosConfig, lease_term: Option<Nanos>) {
        if cfg.link_latency == 0 {
            cfg.link_latency = self.cluster.host_mut(self.primary).costs.repl_link_latency;
        }
        let term = lease_term.unwrap_or(
            (self.cfg.heartbeat_misses as Nanos + 2) * self.cfg.heartbeat_interval,
        );
        let now = self.cluster.clock.now();
        let hb = ChaosLink::new(LinkDir::AtoB, cfg.link_latency, cfg.schedule.clone());
        self.chaos = Some(ChaosState {
            hb,
            holder: Lease::new(term, now),
            grant: Lease::new(term, now),
            last_beat_delivered: now,
            holder_was_valid: true,
            in_partition: false,
            partition_started_at: None,
            acks_attempted: 0,
            stats: ChaosStats::default(),
            cfg,
        });
    }

    /// Chaos counters so far (None if [`RunHarness::set_chaos`] was never
    /// called).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.stats)
    }

    /// Whether replication is currently driving epochs (false after a
    /// non-rearm failover or backup loss).
    pub fn replication_active(&self) -> bool {
        matches!(self.mode, RunMode::Replicated(_))
    }

    /// Whether the hybrid-replay extension is recording this run's epochs
    /// (the active engine supports it and is driving epochs).
    fn replay_on(&self) -> bool {
        matches!(&self.mode, RunMode::Replicated(e) if e.supports_replay())
    }

    /// Byte snapshot of the active container's guest heap: `pages` pages per
    /// worker process, unmapped pages reading as zeros. This is the
    /// committed-state probe behind the chaos matrix's byte-identical check
    /// (the `tests/cow_equivalence.rs` pattern as a harness method).
    pub fn snapshot_heap(&mut self, pages: u64) -> Vec<u8> {
        let host = self.active_host();
        let mut out = Vec::new();
        for pid in self.lane.container.workers.clone() {
            for page in 0..pages {
                let mut buf = vec![0u8; PAGE_SIZE];
                let _ = self
                    .cluster
                    .host_mut(host)
                    .mem_read(pid, MemLayout::heap_page(page), &mut buf);
                out.extend_from_slice(&buf);
            }
        }
        out
    }

    /// Attach a [`Tracer`]: the harness, the engine, and the failure
    /// detector all emit spans/events into it (see `OBSERVABILITY.md` for
    /// the schema). Call before running epochs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let RunMode::Replicated(engine) = &mut self.mode {
            engine.set_tracer(tracer.clone());
        }
        self.detector.set_tracer(tracer.clone());
        self.lane.tracer = tracer;
    }

    /// Schedule a fail-stop fault of the active host at absolute virtual
    /// time `t` (§VII-A). May be called repeatedly: faults fire in time
    /// order, and with the `rearm` extension a later fault exercises a
    /// second failover onto the bootstrapped replacement backup.
    pub fn inject_fault_at(&mut self, t: Nanos) {
        let pos = self
            .faults
            .iter()
            .position(|&f| f > t)
            .unwrap_or(self.faults.len());
        self.faults.insert(pos, t);
    }

    /// Schedule a fail-stop fault of the *backup* host at `t`. During a
    /// re-replication bootstrap this kills the replacement (the bootstrap
    /// aborts and retries with backoff); against a healthy replicated pair
    /// it degrades the run to unreplicated.
    pub fn inject_backup_fault_at(&mut self, t: Nanos) {
        let pos = self
            .backup_faults
            .iter()
            .position(|&f| f > t)
            .unwrap_or(self.backup_faults.len());
        self.backup_faults.insert(pos, t);
    }

    /// Schedule a one-shot pipeline-stage crash: at the first checkpoint at
    /// or after virtual time `t`, the engine's staged transfer loses its
    /// ingest stage when it reaches `chunk` (replayed from the bounded
    /// channel's peek-before-commit slot — see `DESIGN.md` §12). A no-op
    /// for engines without staged transfer.
    pub fn inject_stage_fail_at(&mut self, t: Nanos, chunk: u64) {
        let pos = self
            .stage_fails
            .iter()
            .position(|&(f, _)| f > t)
            .unwrap_or(self.stage_fails.len());
        self.stage_fails.insert(pos, (t, chunk));
    }

    fn active_host(&self) -> HostId {
        if self.on_backup {
            self.backup
        } else {
            self.primary
        }
    }

    /// Current container handle.
    pub fn container(&self) -> &Container {
        &self.lane.container
    }

    /// True once the batch workload reported completion.
    pub fn batch_done(&self) -> bool {
        self.lane.batch_done
    }

    /// Completed epochs so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Whether the run has failed over at least once (the container now
    /// lives on a host other than the original primary).
    pub fn on_backup(&self) -> bool {
        self.on_backup || self.failovers > 0
    }

    /// Completed failovers so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Whether the `rearm` extension has re-established redundancy after
    /// the most recent failover (or backup loss).
    pub fn rearmed(&self) -> bool {
        matches!(self.rearm, RearmState::Armed)
    }

    /// Whether a coded repair is scheduled or streaming (the placement
    /// extension's degraded window).
    pub fn repair_active(&self) -> bool {
        !matches!(self.repair, RepairState::Idle)
    }

    // ------------------------------------------------------------------
    // Chaos extension: faulty links, leases, fencing
    // ------------------------------------------------------------------

    /// Route a heartbeat: directly to the detector (paper path), or into the
    /// chaos link, to be delivered by a later [`RunHarness::chaos_deliver_beats`].
    fn chaos_beat(&mut self, t: Nanos) {
        match self.chaos.as_mut() {
            Some(ch) => ch.hb.send(t, t),
            None => self.detector.on_beat(t),
        }
    }

    /// Deliver every chaos-link heartbeat due by `now` (no-op without chaos).
    fn chaos_deliver_beats(&mut self, now: Nanos) {
        if let Some(ch) = self.chaos.as_mut() {
            for (at, _sent) in ch.hb.poll(now) {
                ch.last_beat_delivered = ch.last_beat_delivered.max(at);
                self.detector.on_beat(at);
            }
        }
    }

    /// Emit `PartitionStart`/`PartitionHeal`/`LeaseExpire` markers on
    /// schedule and lease edges.
    fn chaos_edges(&mut self, now: Nanos) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        let part = ch.cfg.schedule.partitioned(now);
        if part && !ch.in_partition {
            ch.in_partition = true;
            ch.partition_started_at = Some(now);
            ch.stats.partitions += 1;
            self.lane.tracer.event_at(TraceEvent::PartitionStart, now);
        } else if !part && ch.in_partition {
            ch.in_partition = false;
            self.lane.tracer.event_at(TraceEvent::PartitionHeal, now);
        }
        if ch.holder_was_valid && !ch.holder.valid_at(now) {
            ch.holder_was_valid = false;
            ch.stats.lease_expiries += 1;
            self.lane.tracer.event_at(
                TraceEvent::LeaseExpire {
                    at: ch.holder.expires_at(),
                },
                ch.holder.expires_at(),
            );
        }
    }

    /// Flush the deferred output release, if any. If the primary's lease is
    /// still valid at the logical release time, release and deliver;
    /// otherwise *fence*: the packets stay plugged (they ride the next valid
    /// release, or die with the primary) and only the event is emitted.
    fn chaos_flush_pending(&mut self) -> SimResult<()> {
        let Some(pr) = self.pending_release.take() else {
            return Ok(());
        };
        let valid = self
            .chaos
            .as_ref()
            .expect("pending release without chaos state")
            .holder
            .valid_at(pr.release_time);
        if !valid {
            self.lane.tracer.event_at(
                TraceEvent::FencedOutput {
                    packets: pr.receipts.len() as u64,
                },
                pr.release_time,
            );
            self.chaos.as_mut().expect("chaos").stats.fenced_releases += 1;
            self.lane.held.extend(pr.receipts);
            return Ok(());
        }
        let held = std::mem::take(&mut self.lane.held);
        self.lane.release(
            &mut self.cluster,
            self.primary,
            pr.release_time,
            held.into_iter().chain(pr.receipts),
            false,
            true,
        )
    }

    /// Chaos-mode epoch prologue: flush the deferred release, trace schedule
    /// edges, deliver in-flight heartbeats, then resolve any standing
    /// suspicion — rescind it if a later beat arrived (false positive), or
    /// promote the backup once the *granted* lease has expired. Returns true
    /// if a promotion consumed this epoch slot.
    fn chaos_prologue(&mut self) -> SimResult<bool> {
        let now = self.cluster.clock.now();
        self.chaos_flush_pending()?;
        self.chaos_edges(now);
        self.chaos_deliver_beats(now);
        if !matches!(self.mode, RunMode::Replicated(_)) {
            return Ok(false);
        }
        if self.detector.check(now) {
            let det = self.detector.detected_at().expect("check returned true");
            let (late_beat, grant_expiry) = {
                let ch = self.chaos.as_ref().expect("chaos prologue");
                (ch.last_beat_delivered, ch.grant.expires_at())
            };
            if late_beat > det {
                // A beat arrived after the suspicion began: false positive.
                // The lease gate bought the time to notice — rescind.
                self.lane.tracer.event_at(
                    TraceEvent::FalseSuspicion {
                        suspected_for: late_beat - det,
                    },
                    late_beat,
                );
                self.detector.rescind(late_beat);
                self.chaos.as_mut().expect("chaos").stats.false_suspicions += 1;
            } else if now >= grant_expiry {
                self.chaos_promote(now)?;
                return Ok(true);
            }
            // Suspicion stands but the grant is still live: the backup
            // waits — exactly the delay that prevents split-brain.
        }
        Ok(false)
    }

    /// Promote the backup on granted-lease expiry (the primary may be alive
    /// but unreachable — a partition, not a fault). Safe because the
    /// primary's own lease expired strictly earlier, so it is already
    /// fenced: its plugged output can never be released. Checked, not
    /// assumed — a violation is reported as split-brain and fails the run.
    fn chaos_promote(&mut self, now: Nanos) -> SimResult<()> {
        {
            let ch = self.chaos.as_mut().expect("chaos promote");
            if ch.holder.valid_at(now) {
                ch.stats.split_brain = true;
                return Err(SimError::Invalid(format!(
                    "split-brain: promoting at {now}ns while the primary's output lease is \
                     valid until {}ns",
                    ch.holder.expires_at()
                )));
            }
        }
        // The fenced primary withdraws (fail-stop its traffic); whatever it
        // still held plugged is discarded exactly as at a real fault.
        self.cluster.partition(self.primary);
        let voided = self.pending_release.take().map_or(0, |p| p.receipts.len());
        // "Detection latency" for a partition is measured from its start.
        let since = self
            .chaos
            .as_ref()
            .expect("chaos")
            .partition_started_at
            .unwrap_or(now);
        let latency = now.saturating_sub(since);
        self.detection_latency = Some(latency);
        self.promote_backup(latency, voided)
    }

    // ------------------------------------------------------------------
    // The epoch loop
    // ------------------------------------------------------------------

    /// Run up to `n` epochs (stops early if a batch workload completes or
    /// the service dies to an unprotected fault).
    pub fn run_epochs(&mut self, n: u64) -> SimResult<()> {
        for _ in 0..n {
            if self.lane.batch_done || self.dead {
                break;
            }
            let now = self.cluster.clock.now();
            // Chaos: a release that logically precedes the next fault
            // flushes first; a fault landing inside the release gap leaves
            // it pending — the fault handler voids it
            // (fault-during-output-release) or flushes it (backup faults:
            // the ack had already committed).
            if let Some(release_time) = self.pending_release.as_ref().map(|p| p.release_time) {
                let next_fault = match (self.faults.front(), self.backup_faults.front()) {
                    (Some(&p), Some(&b)) => Some(p.min(b)),
                    (Some(&p), None) => Some(p),
                    (None, Some(&b)) => Some(b),
                    (None, None) => None,
                };
                if next_fault.is_none_or(|f| release_time <= f) {
                    self.chaos_flush_pending()?;
                }
            }
            let horizon = now + self.cfg.epoch_exec;
            let bf_due = self.backup_faults.front().is_some_and(|&t| t <= horizon);
            let pf_due = self.faults.front().is_some_and(|&t| t <= horizon);
            if bf_due && (!pf_due || self.backup_faults[0] <= self.faults[0]) {
                let t = self.backup_faults.pop_front().expect("front checked");
                self.handle_backup_fault(t.max(now))?;
                continue;
            }
            if pf_due {
                let t = self.faults.pop_front().expect("front checked");
                if self.replay_on() {
                    // Hybrid replay: execution up to the fault instant is
                    // recoverable via the log, so serve the partial epoch
                    // before failing over instead of rounding down to the
                    // previous checkpoint.
                    self.step(Some(t.max(now)))?;
                    continue;
                }
                self.handle_primary_fault(t.max(now))?;
                continue;
            }
            self.rearm_tick()?;
            self.repair_tick()?;
            self.step(None)?;
        }
        self.lane.metrics.elapsed = self.cluster.clock.now();
        Ok(())
    }

    /// Run epochs until the batch workload completes (bounded by
    /// `max_epochs`). Errors if the bound is hit first.
    pub fn run_batch_to_completion(&mut self, max_epochs: u64) -> SimResult<()> {
        let mut left = max_epochs;
        while !self.lane.batch_done {
            if left == 0 {
                return Err(SimError::Invalid(
                    "batch did not complete within bound".into(),
                ));
            }
            let chunk = left.min(64);
            self.run_epochs(chunk)?;
            left -= chunk;
        }
        self.lane.metrics.elapsed = self.cluster.clock.now();
        Ok(())
    }

    /// One epoch of Fig. 1: execute, stop, transfer, ack, release.
    ///
    /// With `cut`, a primary fault lands inside the coming epoch (hybrid
    /// replay only). The primary executes right up to the fault instant,
    /// shipping log chunks as it goes; the epoch's checkpoint never runs. If
    /// every chunk committed, the truncated log seals and failover replay
    /// recovers the partial epoch byte-identically; a chunk lost to a cut
    /// link leaves the log unsealed, nothing from the epoch is released, and
    /// recovery falls back to the last checkpoint (clients retransmit).
    fn step(&mut self, cut: Option<Nanos>) -> SimResult<()> {
        if cut.is_none() && self.chaos.is_some() && self.chaos_prologue()? {
            // A lease-expiry promotion consumed this epoch slot.
            return Ok(());
        }
        let exec_start = self.cluster.clock.now();
        let host = self.active_host();
        let epoch = self.epoch;
        self.lane.tracer.begin_epoch(epoch, exec_start);

        // --- Execution phase --------------------------------------------
        // Within the window the container can spend `parallelism` cores.
        let epoch_end = cut.unwrap_or(exec_start + self.cfg.epoch_exec);
        let budget = ((epoch_end - exec_start) as f64 * self.parallelism) as Nanos;
        let replay_on = self.replay_on();
        let log = match &mut self.mode {
            RunMode::Replicated(engine) if replay_on => Some(LogSink {
                engine: engine.as_mut(),
                epoch,
                schedule: self.chaos.as_ref().map(|ch| &ch.cfg.schedule),
            }),
            _ => None,
        };
        let mut out =
            self.lane
                .execute(&mut self.cluster, host, exec_start, epoch_end, budget, log)?;
        let cl = self.cluster.host_mut(host).costs.client_link_latency;

        if let Some(fault_time) = cut {
            // Work interrupted by the fault dies with the primary.
            self.lane.cpu_debt = 0;
            out.log.trace(&self.lane.tracer);
            // All or nothing: if every chunk committed, seal the truncated
            // log so failover replay covers this partial epoch, and deliver
            // the outputs granted release at log commit. If one was blocked
            // the log stays unsealed and nothing is released — a blocked
            // response escaping would expose state the fallback image does
            // not contain; clients retransmit instead.
            if !out.log.blocked {
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                engine.seal_log(epoch)?;
                let logged = std::mem::take(&mut out.completions);
                self.lane
                    .release(&mut self.cluster, host, fault_time, logged, true, true)?;
            }
            self.lane.metrics.push(out.record(epoch));
            self.epoch += 1;
            return self.do_failover(fault_time);
        }
        // Hybrid replay: a logged response left at its chunk's commit; the
        // rest wait for the epoch ack.
        let (logged, completions): (Vec<_>, Vec<_>) = std::mem::take(&mut out.completions)
            .into_iter()
            .partition(|c| c.logged.is_some());
        self.lane.stamp(cl, 0, logged, true);

        // --- Heartbeat ---------------------------------------------------
        if self.lane.beat(&mut self.cluster, host) && !self.cluster.is_partitioned(host) {
            self.chaos_beat(epoch_end);
        }

        // --- Stop phase / release ----------------------------------------
        let record = out.record(epoch);
        if matches!(self.mode, RunMode::Unreplicated) {
            self.cluster.pump();
            self.lane.metrics.push(record);
            if matches!(self.rearm, RearmState::Bootstrapping { .. }) {
                // Responses stay in the plugged qdisc: the bootstrap image
                // predates them, so they are only releasable once the first
                // post-re-arm incremental checkpoint commits.
                self.lane.held.extend(completions);
                self.bootstrap_step_epoch()?;
            } else {
                // No output commit: each response leaves as it is produced.
                self.lane.stamp(cl, 0, completions, false);
                self.lane.collect(&mut self.cluster, epoch_end)?;
            }
        } else if self
            .chaos
            .as_ref()
            .is_some_and(|ch| ch.cfg.schedule.blocked(epoch_end, LinkDir::AtoB))
        {
            // Chaos: the transfer direction is cut at the epoch boundary —
            // the checkpoint cannot reach the backup, so the epoch *stalls*:
            // no stop phase, output stays plugged, and the dirty state
            // accumulates into the first post-heal checkpoint (soft-dirty
            // tracking is cumulative until cleared by a dump). The backup
            // sees silence and starts suspecting.
            self.lane.held.extend(completions);
            self.chaos.as_mut().expect("chaos").stats.stalled_epochs += 1;
            self.lane.metrics.push(record);
        } else {
            let RunMode::Replicated(engine) = &mut self.mode else {
                unreachable!()
            };
            // The execution phase that just ended is overlap time for the
            // engine's background pipeline stages (staged-pipeline
            // extension; a no-op for synchronous engines). Whatever backlog
            // remains surfaces as backpressure in the checkpoint.
            engine.pipeline_advance(self.cfg.epoch_exec);
            while self
                .stage_fails
                .front()
                .is_some_and(|&(t, _)| t <= self.cluster.clock.now())
            {
                let (_, chunk) = self.stage_fails.pop_front().expect("front checked");
                engine.inject_stage_fail(chunk);
            }
            let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
            let outcome = engine.checkpoint(pk, bk, &self.lane.container, epoch)?;
            self.cluster.clock.advance(outcome.stop_time);
            self.lane.last_stop = outcome.stop_time;
            if replay_on {
                // The seal rides the checkpoint transfer: it marks the
                // epoch's log complete so a failover can replay it whole.
                engine.seal_log(epoch)?;
            }
            // Chaos delay spikes stretch the ack round-trip (transfer out
            // plus ack back). With a staging engine the stretch is an
            // explicit ack-phase span so the reconciliation identity still
            // tiles; inline engines (ack_delay == 0) get a zero-duration
            // marker instead, since their ack spans are already folded into
            // the stop time.
            let chaos_extra = self
                .chaos
                .as_ref()
                .map_or(0, |ch| 2 * ch.cfg.schedule.delay_extra(epoch_end));
            let tracer = &self.lane.tracer;
            if chaos_extra > 0 {
                if outcome.ack_delay > 0 {
                    tracer.span(TraceEvent::ChaosDelay { extra: chaos_extra }, chaos_extra);
                } else {
                    tracer.mark(TraceEvent::ChaosDelay { extra: chaos_extra });
                }
            }
            let traced_ack = if outcome.ack_delay > 0 {
                outcome.ack_delay + chaos_extra
            } else {
                outcome.ack_delay
            };
            // The engine's phase spans must tile exactly the stop time and
            // ack delay it reported (the OBSERVABILITY.md invariant).
            if replay_on {
                out.log.trace(tracer);
                tracer
                    .reconcile_with_log(epoch, outcome.stop_time, traced_ack, out.log.time)
                    .map_err(SimError::Invalid)?;
            } else {
                tracer
                    .reconcile(epoch, outcome.stop_time, traced_ack)
                    .map_err(SimError::Invalid)?;
            }
            let release_time = self.cluster.clock.now() + outcome.ack_delay + chaos_extra;
            // The backup commits once the transfer went through, whether or
            // not its ack makes it back.
            let commit_cpu = engine.commit(self.cluster.host_mut(self.backup), epoch)?;
            let record = EpochRecord {
                stop_time: outcome.stop_time,
                dirty_pages: outcome.dirty_pages,
                state_bytes: outcome.state_bytes,
                ack_delay: outcome.ack_delay + chaos_extra,
                backup_cpu: outcome.backup_cpu + commit_cpu + out.log.backup_cpu,
                ..record
            };

            if let Some(ch) = self.chaos.as_mut() {
                // Chaos: only the ack's return leg can differ.
                let ack_lost = if ch.cfg.schedule.blocked(release_time, LinkDir::BtoA) {
                    true
                } else if let Some(n) = ch.cfg.schedule.loss_period(release_time, LinkDir::BtoA) {
                    ch.acks_attempted += 1;
                    ch.acks_attempted.is_multiple_of(n)
                } else {
                    false
                };
                if ack_lost {
                    // The primary never learns: no release, no lease
                    // renewal. The completions ride the next acked epoch.
                    ch.stats.withheld_acks += 1;
                    self.lane.held.extend(completions);
                } else {
                    // The ack doubles as a lease grant: the primary anchors
                    // at its own checkpoint start (epoch end), the backup at
                    // the ack's completion — holder expiry ≤ granted expiry,
                    // the exactly-one-owner ordering. The release itself is
                    // deferred to the epoch boundary so a fault inside the
                    // gap can void it.
                    ch.holder.grant(epoch_end);
                    ch.grant.grant(release_time);
                    ch.holder_was_valid = true;
                    let until = ch.holder.expires_at();
                    self.lane
                        .tracer
                        .event_at(TraceEvent::LeaseAcquire { until }, release_time);
                    self.pending_release = Some(PendingRelease {
                        release_time,
                        receipts: completions,
                    });
                }
            } else {
                // Paper path: mechanically release now; logically at
                // release_time. Bootstrap-era completions (if any) ride this
                // epoch's release: this is the first commit whose image
                // covers them.
                let held = std::mem::take(&mut self.lane.held);
                self.lane.release(
                    &mut self.cluster,
                    host,
                    release_time,
                    held.into_iter().chain(completions),
                    !replay_on,
                    true,
                )?;
            }
            self.lane.metrics.push(record);
            // A coded repair streams its bounded chunk after the epoch's
            // checkpoint acked (the stream rides the inter-replica links,
            // never the primary's stop phase).
            self.repair_step_epoch()?;
        }

        // The epoch (including its stop phase) completed healthy: the agent
        // heart-beats again. (The agent process is not frozen during its own
        // checkpoint; gating on cpuacct exists to catch *container* hangs.)
        let now = self.cluster.clock.now();
        if !self.cluster.is_partitioned(host) {
            self.chaos_beat(now);
        }
        self.epoch += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// A primary-host fault fired. Replicated: fail over. Unreplicated
    /// after a failover (the paper path, or mid-bootstrap): the service is
    /// lost. Unreplicated from the start: a harness-usage error.
    fn handle_primary_fault(&mut self, fault_time: Nanos) -> SimResult<()> {
        if matches!(self.mode, RunMode::Replicated(_)) {
            return self.do_failover(fault_time);
        }
        if !self.replicated_run {
            return Err(SimError::Invalid(
                "fault injected into an unreplicated run".into(),
            ));
        }
        // No live backup (fault tolerance exhausted, or mid-bootstrap):
        // everything still plugged or queued dies with the host.
        self.cluster.clock.advance_to(fault_time);
        self.cluster.partition(self.active_host());
        self.lane.discard(fault_time, 0);
        self.unrecovered_faults += 1;
        self.dead = true;
        Ok(())
    }

    fn do_failover(&mut self, fault_time: Nanos) -> SimResult<()> {
        if matches!(self.mode, RunMode::Unreplicated) {
            return Err(SimError::Invalid(
                "fault injected into an unreplicated run".into(),
            ));
        }
        // Fail-stop: block all primary traffic (§VII-A).
        self.cluster.clock.advance_to(fault_time);
        self.cluster.partition(self.primary);
        // Chaos: a release deferred past the fault dies with the primary.
        // The plugged packets were never unplugged, so they are discarded
        // with the rest of the uncommitted output, never duplicated.
        let voided = self.pending_release.take().map_or(0, |p| p.receipts.len());

        // Detection: the detector only changes state on its own heartbeat
        // grid, so poll along the beat boundaries. Under chaos, beats still
        // in flight (delayed or heal-flushed) keep landing while we wait.
        let mut t = self.detector.next_boundary(fault_time);
        loop {
            self.chaos_deliver_beats(t);
            if self.detector.check(t) {
                break;
            }
            t += self.cfg.heartbeat_interval;
        }
        let detected = self.detector.detected_at().expect("check returned true");
        let mut act = detected.max(fault_time);
        if let Some(ch) = &self.chaos {
            // Fencing: promotion additionally waits out the granted lease,
            // so even a falsely-suspected primary can no longer release.
            act = act.max(ch.grant.expires_at());
        }
        self.cluster.clock.advance_to(act);
        let latency = if self.chaos.is_some() {
            // A standing suspicion (from a partition, say) may predate the
            // injected fault; the silence simply continues.
            detected.saturating_sub(fault_time)
        } else {
            self.detector
                .detection_latency(fault_time)?
                .expect("check returned true")
        };
        self.detection_latency = Some(latency);
        if let Some(ch) = &mut self.chaos {
            let now = self.cluster.clock.now();
            if ch.holder.valid_at(now) {
                ch.stats.split_brain = true;
                return Err(SimError::Invalid(format!(
                    "split-brain: promoting at {now}ns while the primary's \
                     output lease is valid until {}ns",
                    ch.holder.expires_at()
                )));
            }
        }
        self.promote_backup(latency, voided)
    }

    /// The failover tail: restore on the backup, move the address, discard
    /// uncommitted output, retransmit, and either re-arm or degrade. Shared
    /// by the injected-fault path ([`Self::do_failover`]) and the
    /// chaos-detected path ([`Self::chaos_promote`]); `voided` counts the
    /// completions of a deferred release that died with the primary.
    fn promote_backup(&mut self, latency: Nanos, voided: usize) -> SimResult<()> {
        let RunMode::Replicated(engine) = &mut self.mode else {
            unreachable!()
        };
        let report = self.lane.promote(
            &mut self.cluster,
            engine.as_mut(),
            self.backup,
            latency,
            voided as u64,
        )?;
        self.failover_report = Some(report);
        self.failovers += 1;
        // A repair in flight at failover time is moot: the rearm bootstrap
        // (if any) rebuilds the whole placement from the promoted primary.
        self.repair = RepairState::Idle;
        let now = self.cluster.clock.now();

        let supports_rearm = match &self.mode {
            RunMode::Replicated(engine) => engine.supports_rearm(),
            RunMode::Unreplicated => false,
        };
        if supports_rearm {
            // Rearm extension: the promoted host becomes the new primary
            // (role swap keeps `active_host` and any later failover on the
            // unmodified code path); the engine parks until a replacement
            // backup is bootstrapped.
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.parked = Some(engine);
            std::mem::swap(&mut self.primary, &mut self.backup);
            self.rearm = RearmState::Scheduled {
                at: now + self.cfg.rearm_delay,
                attempt: 0,
            };
        } else {
            // Continue unreplicated on the backup (the paper does not
            // re-arm replication after failover).
            self.mode = RunMode::Unreplicated;
            self.on_backup = true;
        }
        self.epoch += 1;
        Ok(())
    }

    /// A backup-host fault fired: with a k-of-n placement and the quorum
    /// intact, degrade and start a coded repair; abort an in-flight
    /// bootstrap or repair (and retry with exponential backoff); otherwise
    /// degrade a healthy replicated pair to unreplicated service.
    fn handle_backup_fault(&mut self, t: Nanos) -> SimResult<()> {
        self.cluster.clock.advance_to(t);
        // A deferred release whose ack already committed is legitimate: the
        // backup acknowledged the covering epoch before it died, so flush it
        // (lease validity holds by construction — the ack renewed it).
        self.chaos_flush_pending()?;
        let has_placement = match &self.mode {
            RunMode::Replicated(engine) => engine.supports_placement(),
            RunMode::Unreplicated => false,
        };
        if has_placement {
            let RunMode::Replicated(engine) = &mut self.mode else {
                unreachable!()
            };
            let (k, _n) = engine.placement();
            self.cluster.partition(self.backup);
            if let RepairState::Repairing { attempt, .. } = self.repair {
                // The replacement host died mid-repair: discard its
                // half-regenerated fragment store, provision another fresh
                // host, and retry with exponential backoff. Epochs keep
                // committing on the surviving quorum throughout.
                engine.repair_abort()?;
                self.backup = self.cluster.add_host(Kernel::default());
                let backoff = self
                    .cfg
                    .rearm_backoff
                    .saturating_mul(1u64 << attempt.min(16));
                self.repair = RepairState::Scheduled {
                    at: t + backoff,
                    attempt: attempt + 1,
                };
                return Ok(());
            }
            let attempt = match self.repair {
                RepairState::Scheduled { attempt, .. } => attempt + 1,
                _ => 0,
            };
            let alive = engine.replica_fault()?;
            if alive >= k {
                // Quorum holds: the epoch pipeline never pauses and output
                // stays plugged/released on the normal ack path. Provision
                // the replacement immediately; the repair starts after the
                // same settling delay a rearm bootstrap uses.
                self.backup = self.cluster.add_host(Kernel::default());
                self.lane
                    .tracer
                    .event_at(TraceEvent::DegradedMode { alive, need: k }, t);
                self.repair = RepairState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt,
                };
                return Ok(());
            }
            // Below quorum: no further epoch can ack. Fall through to the
            // single-backup degrade path (release everything and, with the
            // rearm extension, bootstrap a whole new placement).
            self.repair = RepairState::Idle;
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.release_plugged_output(t)?;
            if engine.supports_rearm() {
                self.parked = Some(engine);
                self.rearm = RearmState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt: 0,
                };
            }
            return Ok(());
        }
        if let RearmState::Bootstrapping { attempt, .. } = self.rearm {
            // The replacement died mid-bootstrap: unwind the COW set, drop
            // the half-assembled image, keep serving, retry later.
            self.cluster.partition(self.backup);
            {
                let engine = self.parked.as_mut().expect("bootstrapping without an engine");
                engine
                    .bootstrap_abort(self.cluster.host_mut(self.primary), &self.lane.container)?;
            }
            self.release_plugged_output(t)?;
            let backoff = self
                .cfg
                .rearm_backoff
                .saturating_mul(1u64 << attempt.min(16));
            self.rearm = RearmState::Scheduled {
                at: t + backoff,
                attempt: attempt + 1,
            };
            return Ok(());
        }
        if matches!(self.mode, RunMode::Replicated(_)) {
            self.cluster.partition(self.backup);
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.release_plugged_output(t)?;
            if engine.supports_rearm() {
                self.parked = Some(engine);
                self.rearm = RearmState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt: 0,
                };
            }
            return Ok(());
        }
        Err(SimError::Invalid(
            "backup fault injected with no live backup".into(),
        ))
    }

    /// Replication is gone (backup lost): output commit is moot, so unplug
    /// the qdisc, release everything held, and deliver to clients.
    fn release_plugged_output(&mut self, t: Nanos) -> SimResult<()> {
        let host = self.active_host();
        let ns = self.lane.container.ns.net;
        self.cluster.host_mut(host).stack_mut(ns)?.plugged = false;
        let held = std::mem::take(&mut self.lane.held);
        self.lane
            .release(&mut self.cluster, host, t, held, false, true)
    }

    /// Start a scheduled bootstrap once its time arrives.
    fn rearm_tick(&mut self) -> SimResult<()> {
        if let RearmState::Scheduled { at, attempt } = self.rearm {
            if at <= self.cluster.clock.now() {
                self.begin_bootstrap(attempt)?;
            }
        }
        Ok(())
    }

    /// Start a scheduled coded repair once its time arrives (the placement
    /// analog of [`Self::rearm_tick`]).
    fn repair_tick(&mut self) -> SimResult<()> {
        if let RepairState::Scheduled { at, attempt } = self.repair {
            if at <= self.cluster.clock.now() {
                let now = self.cluster.clock.now();
                let RunMode::Replicated(engine) = &mut self.mode else {
                    // The placement degraded below quorum (or failed over)
                    // after the repair was scheduled.
                    self.repair = RepairState::Idle;
                    return Ok(());
                };
                self.lane.tracer.event_at(
                    TraceEvent::RepairStart {
                        kind: "repair".into(),
                        attempt,
                    },
                    now,
                );
                engine.repair_begin(self.epoch)?;
                self.repair = RepairState::Repairing {
                    attempt,
                    streamed_pages: 0,
                    streamed_bytes: 0,
                };
            }
        }
        Ok(())
    }

    /// One bounded chunk of the coded-repair stream (runs at the end of each
    /// replicated epoch while a repair is active). When the last fragment
    /// regenerates, the repaired replica seals (mid-repair commits included,
    /// disk resynced) and rejoins the placement at full redundancy.
    fn repair_step_epoch(&mut self) -> SimResult<()> {
        let RepairState::Repairing {
            attempt,
            streamed_pages,
            streamed_bytes,
        } = self.repair
        else {
            return Ok(());
        };
        let step = {
            let RunMode::Replicated(engine) = &mut self.mode else {
                return Ok(());
            };
            engine.repair_step(self.epoch, self.cfg.rearm_chunk_pages)?
        };
        let now = self.cluster.clock.now();
        if step.pages > 0 {
            self.lane.tracer.event_at(
                TraceEvent::RepairChunk {
                    pages: step.pages,
                    bytes: step.bytes,
                },
                now,
            );
        }
        let pages = streamed_pages + step.pages;
        let bytes = streamed_bytes + step.bytes;
        if step.remaining == 0 {
            {
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                engine.repair_finish(self.cluster.host_mut(self.backup), self.epoch)?;
            }
            self.repair = RepairState::Idle;
            self.lane
                .tracer
                .event_at(TraceEvent::RepairComplete { pages, bytes }, now);
        } else {
            self.repair = RepairState::Repairing {
                attempt,
                streamed_pages: pages,
                streamed_bytes: bytes,
            };
        }
        Ok(())
    }

    /// Provision a fresh replacement host and take the full COW-deferred
    /// bootstrap checkpoint (one stop of roughly an incremental epoch's
    /// length); the page payload then streams in bounded per-epoch chunks.
    fn begin_bootstrap(&mut self, attempt: u32) -> SimResult<()> {
        let now = self.cluster.clock.now();
        self.backup = self.cluster.add_host(Kernel::default());
        let mut engine = self
            .parked
            .take()
            .expect("rearm scheduled with no parked engine");
        engine.set_tracer(self.lane.tracer.clone());
        engine.rearm_prepare(self.cluster.host_mut(self.primary), &self.lane.container)?;
        self.cluster.host_mut(self.primary).meter.take();
        self.lane
            .tracer
            .event_at(TraceEvent::RearmStart { attempt }, now);
        let begin = engine.bootstrap_begin(
            self.cluster.host_mut(self.primary),
            &self.lane.container,
            self.epoch,
        )?;
        self.cluster.clock.advance(begin.stop_time);
        self.lane.last_stop = begin.stop_time;
        self.rearm = RearmState::Bootstrapping {
            attempt,
            epoch: self.epoch,
            streamed_pages: 0,
            streamed_bytes: 0,
        };
        self.parked = Some(engine);
        Ok(())
    }

    /// One bounded chunk of the bootstrap stream (runs at the end of each
    /// epoch while a bootstrap is active). When the last deferred page
    /// lands, the image commits on the replacement and incremental epochs
    /// resume with a fresh failure detector.
    fn bootstrap_step_epoch(&mut self) -> SimResult<()> {
        let RearmState::Bootstrapping {
            attempt,
            epoch,
            streamed_pages,
            streamed_bytes,
        } = self.rearm
        else {
            return Ok(());
        };
        let step = {
            let engine = self.parked.as_mut().expect("bootstrapping without an engine");
            engine.bootstrap_step(
                self.cluster.host_mut(self.primary),
                epoch,
                self.cfg.rearm_chunk_pages,
            )?
        };
        let now = self.cluster.clock.now();
        if step.pages > 0 {
            self.lane.tracer.event_at(
                TraceEvent::BootstrapChunk {
                    pages: step.pages,
                    bytes: step.bytes,
                },
                now,
            );
        }
        let pages = streamed_pages + step.pages;
        let bytes = streamed_bytes + step.bytes;
        if step.remaining == 0 {
            {
                let engine = self.parked.as_mut().expect("bootstrapping without an engine");
                engine.bootstrap_finish(self.cluster.host_mut(self.backup), epoch)?;
            }
            let engine = self.parked.take().expect("just used");
            if engine.supports_replay() {
                // The promoted host resumes recording for the new pair.
                self.cluster.host_mut(self.primary).replay.enable();
            }
            self.mode = RunMode::Replicated(engine);
            self.rearm = RearmState::Armed;
            self.detector = FailureDetector::new(
                self.cfg.heartbeat_interval,
                self.cfg.heartbeat_misses,
                now,
            );
            self.detector.set_tracer(self.lane.tracer.clone());
            if let Some(ch) = self.chaos.as_mut() {
                // Fresh pair, fresh fences: re-anchor both leases at `now`
                // so a grant left over from before the fault cannot
                // green-light an instant promotion.
                ch.holder.grant(now);
                ch.grant.grant(now);
                ch.holder_was_valid = true;
            }
            self.lane.tracer
                .event_at(TraceEvent::RearmComplete { pages, bytes }, now);
        } else {
            self.rearm = RearmState::Bootstrapping {
                attempt,
                epoch,
                streamed_pages: pages,
                streamed_bytes: bytes,
            };
        }
        Ok(())
    }

    /// Finish the run: validate and hand back the results.
    pub fn finish(mut self) -> RunResult {
        // Flush a deferred release still sitting at the end of the run (its
        // ack committed; only the epoch boundary never came).
        let _ = self.chaos_flush_pending();
        let _ = self.lane.tracer.flush();
        self.lane.metrics.elapsed = self.cluster.clock.now();
        let (broken, verify) = self.lane.finish_checks(&mut self.cluster);
        // A scheduled fault that never fired is unproven survival: the old
        // `recovered` semantics (fault pending + still on the primary =
        // not recovered) are preserved by counting it against the run.
        let unrecovered = self.unrecovered_faults + self.faults.len() as u64;
        RunResult {
            metrics: self.lane.metrics,
            failover: self.failover_report,
            detection_latency: self.detection_latency,
            recovered: unrecovered == 0,
            failovers: self.failovers,
            unrecovered_faults: unrecovered,
            broken_connections: broken,
            verify,
        }
    }

    /// Read-only metrics access mid-run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.lane.metrics
    }
}
