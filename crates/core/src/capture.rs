//! The primary-side capture agent both replication engines share (§IV,
//! Fig. 2).
//!
//! Every epoch one primary agent runs freeze → block input → incremental
//! dump → resume, whatever backs it. [`Capture`] is that agent: container
//! setup, the stop phase and its spans, the staged-pipeline chunk clock and
//! backlog, the bootstrap capture and COW drain, the nondeterminism-log
//! store, and the failover report. Each engine owns one and keeps only its
//! sink: `NiLiConEngine` one `BackupAgent` plus the delta shadow and COW
//! stream; `PlacementEngine` the codec, the replicas and coded repair. As in
//! HyCoR, a checkpoint and its log are one replication stream from one
//! primary: the single backup is the `(k, n) = (1, 1)` case of the coded
//! fan-out.

use crate::config::OptimizationConfig;
use crate::engine::{BootstrapBegin, BootstrapStep, FailoverReport, LogShipOutcome, ReplayTail};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    bootstrap_dump, dump_container, CheckpointImage, DeltaStats, InfrequentCache, RestoreConfig,
    RestoredContainer, ShadowStore,
};
use nilicon_drbd::{DrbdMsg, DrbdPrimary, WireStats};
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::TrackingMode;
use nilicon_sim::net::InputMode;
use nilicon_sim::replay::{ReplayEvent, ReplayLog};
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, PageBuf, SimError, SimResult};
use std::collections::BTreeMap;

/// Pages per streamed chunk: the COW drain batch, the pipelined chunk, and
/// the batch `CheckpointImage::transfer_chunks` models for the eager path.
const CHUNK_PAGES: usize = 64;
/// Bounded-queue depth between the encode and transfer stages.
const PIPE_BOUND: usize = 4;

/// What one stop phase captured, ready for an engine's sink.
pub(crate) struct Stopped {
    /// The epoch's image (pages delta-encoded if the stop phase encoded).
    pub img: CheckpointImage,
    /// The epoch's DRBD disk writes plus its barrier.
    pub msgs: Vec<DrbdMsg>,
    /// Wire summary of `msgs`.
    pub wire: WireStats,
    /// Dirty pages captured.
    pub dirty_pages: u64,
    /// Stop time, including any staged-pipeline backpressure stall.
    pub stop_time: Nanos,
}

/// The shared primary-side agent (see the module docs).
#[derive(Default)]
pub(crate) struct Capture {
    /// Active optimization set.
    pub opts: OptimizationConfig,
    /// Trace sink for the stop phase and the engine's ack path.
    pub tracer: Tracer,
    cache: InfrequentCache,
    drbd: DrbdPrimary,
    prepared: bool,
    /// Staged-pipeline extension: ack-path work of the previous epoch not
    /// yet overlapped by execution time. `pipeline_advance` drains it once
    /// per epoch; whatever remains at the next checkpoint stalls the stop
    /// phase (backpressure).
    pipe_backlog: Nanos,
    /// Address spaces still holding COW-deferred bootstrap pages (empty
    /// outside an active re-replication bootstrap).
    bootstrap_pids: Vec<Pid>,
    /// Backup CPU charged by `bootstrap_begin` (metadata + DRBD resync
    /// receive), carried into the first `bootstrap_step`'s accounting.
    bootstrap_cpu_carry: Nanos,
    /// Backup-side store of the shipped nondeterminism logs, keyed by epoch
    /// (`hybrid_replay` extension). Log chunks are event-typed, not
    /// page-typed, so they do not ride the page assembly barrier, but they
    /// share its fate: a rearm drops them with the dead backup.
    logs: BTreeMap<u64, ReplayLog>,
    /// Log chunks shipped so far (drives the engines' `log_fail_after_chunks`).
    log_chunks_shipped: u64,
}

impl Capture {
    pub fn new(opts: OptimizationConfig) -> Self {
        Capture {
            opts,
            ..Default::default()
        }
    }

    /// Arm dirty tracking on every container address space, select the
    /// input-blocking mechanism (§V-C), and plug the egress qdisc for the
    /// whole run (output commit). No clear_refs: everything the application
    /// wrote during init is still dirty, so the first incremental
    /// checkpoint captures the full initial state (the initial sync).
    pub fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        let mode = if self.opts.pml_tracking {
            TrackingMode::HardwareLog
        } else {
            TrackingMode::SoftDirty
        };
        for pid in container.all_pids() {
            primary.mm_mut(pid)?.set_tracking(mode);
        }
        let mode = if self.opts.plug_input_blocking {
            InputMode::Buffer
        } else {
            InputMode::Drop
        };
        let stack = primary.stack_mut(container.ns.net)?;
        stack.input_gate.set_mode(mode);
        stack.plugged = true;
        self.prepared = true;
        Ok(())
    }

    /// Rearm: the old backup died with its buffers, so every structure that
    /// mirrored it restarts empty; then re-arm the promoted container.
    pub fn rearm(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        *self = Capture {
            tracer: self.tracer.clone(),
            ..Capture::new(self.opts)
        };
        self.prepare(primary, container)
    }

    /// Freeze the container and block its network input (§III: even
    /// frozen, RX would mutate state).
    fn pause(&self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        primary.freeze_cgroup(container.cgroup, self.opts.dump_config().freeze)?;
        let block_cost = if self.opts.plug_input_blocking {
            primary.costs.plug_block_cycle
        } else {
            primary.costs.firewall_block_cycle
        };
        primary.meter.charge(block_cost);
        primary.stack_mut(container.ns.net)?.block_input();
        Ok(())
    }

    fn resume(primary: &mut Kernel, container: &Container) -> SimResult<()> {
        primary.stack_mut(container.ns.net)?.unblock_input();
        primary.thaw_cgroup(container.cgroup)
    }

    fn dump_cache(&mut self) -> Option<&mut InfrequentCache> {
        self.opts.cache_infrequent.then_some(&mut self.cache)
    }

    /// One epoch's stop phase: freeze + block input, incremental dump,
    /// optional in-stop delta encode against `shadow`, DRBD ship + barrier
    /// (async — the wire time of disk writes does not stop the container),
    /// resume. Emits Freeze/Dump/DumpDetail/[DeltaEncode]/LocalCopy/DrbdShip,
    /// then stalls on the staged pipeline's backlog (Backpressure).
    ///
    /// The in-stop encode is the shadow's caller's choice: it must finish
    /// before the container resumes, or the parasite's page contents could
    /// change under the encoder. Paths that encode later (COW drain,
    /// pipelined encode stage) pass `None`.
    pub fn stop_phase(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
        shadow: Option<&mut ShadowStore>,
    ) -> SimResult<Stopped> {
        if !self.prepared {
            return Err(SimError::Invalid("engine not prepared".into()));
        }
        let cfg = self.opts.dump_config();
        primary.meter.take();

        // Phase boundaries are sampled off the lifetime meter so the emitted
        // trace spans telescope exactly to the final `stop_time`.
        let m_start = primary.meter.lifetime_total();
        self.pause(primary, container)?;
        let m_frozen = primary.meter.lifetime_total();

        let mut img = dump_container(primary, container, &cfg, self.dump_cache(), epoch)?;
        let dirty_pages = img.stats.dirty_pages;
        let dump_phases = img.stats.phases;
        let m_dumped = primary.meter.lifetime_total();

        let delta_stats = shadow.map(|shadow| {
            let stats = img.encode_pages(shadow);
            primary
                .meter
                .charge(stats.pages() * primary.costs.delta_encode_per_page);
            stats
        });
        let m_encoded = primary.meter.lifetime_total();

        let mut msgs = self.drbd.ship(&mut primary.vfs.disk);
        msgs.push(self.drbd.barrier(epoch));
        let wire = nilicon_drbd::wire_stats(&msgs);

        Self::resume(primary, container)?;
        let m_resumed = primary.meter.lifetime_total();
        let mut stop_time = primary.meter.take();

        self.tracer.span(TraceEvent::Freeze, m_frozen - m_start);
        self.tracer
            .span(TraceEvent::Dump { dirty_pages }, m_dumped - m_frozen);
        if self.tracer.enabled() {
            self.tracer.mark(TraceEvent::DumpDetail {
                processes: dump_phases.processes,
                pages: dump_phases.pages,
                sockets: dump_phases.sockets,
                fs_cache: dump_phases.fs_cache,
                infrequent: dump_phases.infrequent,
            });
        }
        if let Some(ds) = &delta_stats {
            self.tracer.span(delta_event(ds), m_encoded - m_dumped);
        }
        self.tracer
            .span(TraceEvent::LocalCopy, m_resumed - m_encoded);
        self.tracer.mark(TraceEvent::DrbdShip {
            writes: wire.writes,
            bytes: wire.bytes,
        });

        // Staged pipeline: if the previous epoch's pipeline has not fully
        // drained, the stop phase stalls until the backlog clears. A link
        // slower than the epoch's execution phase thus degrades toward the
        // paper's synchronous behavior instead of queueing unboundedly.
        if self.opts.pipeline && self.pipe_backlog > 0 {
            let stalled = std::mem::take(&mut self.pipe_backlog);
            stop_time += stalled;
            self.tracer
                .span(TraceEvent::Backpressure { stalled }, stalled);
        }
        Ok(Stopped {
            img,
            msgs,
            wire,
            dirty_pages,
            stop_time,
        })
    }

    /// The epoch's ack path took `ack_delay` after resume: under the staged
    /// pipeline that is the backlog the next stop phase may stall on.
    pub fn set_backlog(&mut self, ack_delay: Nanos) {
        if self.opts.pipeline {
            self.pipe_backlog = ack_delay;
        }
    }

    /// The background stages ran for `elapsed` (one execution phase).
    pub fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.pipe_backlog = self.pipe_backlog.saturating_sub(elapsed);
    }

    /// Replication-link time to ship `bytes` in `msgs` messages, including
    /// one propagation latency and, without `optimize_criu`, the proxy
    /// relay (§V-D(3)).
    pub fn transfer_cost(&self, costs: &CostModel, bytes: u64, msgs: u64) -> Nanos {
        let mut t =
            costs.repl_link_latency + costs.repl_wire(bytes) + msgs * costs.repl_msg_overhead;
        if self.opts.dump_config().via_proxy {
            t += costs.proxy_overhead(bytes, msgs);
        }
        t
    }

    /// The ack path's closing spans: the transfer, the backup's receive
    /// CPU (with the page-store `probes` of an inline commit), and the ack's
    /// propagation back. They tile the ack delay.
    pub fn ack_spans(&self, bytes: u64, transfer: Nanos, probes: u64, ingest: Nanos, link: Nanos) {
        self.tracer.span(TraceEvent::Transfer { bytes }, transfer);
        self.tracer
            .span(TraceEvent::BackupIngest { probes }, ingest);
        self.tracer.span(TraceEvent::Ack, link);
    }

    // --- Re-replication bootstrap ----------------------------------------

    /// Start a bootstrap: freeze + block input, full dump with the page
    /// copies deferred via COW, DRBD full-device snapshot, resume. The
    /// container pauses for roughly one incremental epoch's stop time even
    /// though the entire image is being captured. `open(img, msgs,
    /// total_pages)` hands the metadata image and the disk snapshot to the
    /// sink and returns the backup CPU it charged (carried into the first
    /// step).
    pub fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
        open: impl FnOnce(CheckpointImage, Vec<DrbdMsg>, u64) -> Nanos,
    ) -> SimResult<BootstrapBegin> {
        if !self.prepared {
            return Err(SimError::Invalid(
                "engine not prepared for bootstrap".into(),
            ));
        }
        let cfg = self.opts.dump_config();
        primary.meter.take();

        self.pause(primary, container)?;
        let mut img = bootstrap_dump(primary, container, &cfg, self.dump_cache(), epoch)?;
        // The write log only covers history the dead backup already had; the
        // full-device snapshot supersedes it.
        let _ = primary.vfs.disk.take_writes();
        let writes = primary.vfs.disk.full_sync_writes();
        let mut msgs: Vec<DrbdMsg> = writes.into_iter().map(DrbdMsg::Write).collect();
        msgs.push(self.drbd.barrier(epoch));
        Self::resume(primary, container)?;
        let stop_time = primary.meter.take();

        let deferred = std::mem::take(&mut img.deferred_vpns);
        let total_pages = deferred.len() as u64;
        let state_bytes = img.state_bytes();
        self.bootstrap_pids = deferred_pids(&deferred);
        self.bootstrap_cpu_carry = open(img, msgs, total_pages);
        Ok(BootstrapBegin {
            stop_time,
            total_pages,
            state_bytes,
        })
    }

    /// Stream at most `max_pages` deferred bootstrap pages through
    /// `ingest(primary, pid, chunk)`, which returns the backup CPU the chunk
    /// cost; each page carries `bytes_per_page` on the wire.
    pub fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        max_pages: u64,
        bytes_per_page: u64,
        mut ingest: impl FnMut(&Kernel, Pid, Vec<(u64, PageBuf)>) -> SimResult<Nanos>,
    ) -> SimResult<BootstrapStep> {
        let mut backup_cpu = std::mem::take(&mut self.bootstrap_cpu_carry);
        let pids = &self.bootstrap_pids;
        let pages = drain_cow(primary, pids, max_pages, |p, pid, chunk| {
            backup_cpu += ingest(p, pid, chunk)?;
            Ok(true)
        })?;
        let mut remaining = 0u64;
        for &pid in pids {
            primary.take_cow_faults(pid)?;
            remaining += primary.cow_pending(pid)? as u64;
        }
        // The drain rides the background thread: it must not bill the next
        // exec phase's interval meter.
        primary.meter.take();
        Ok(BootstrapStep {
            pages,
            bytes: pages * bytes_per_page,
            backup_cpu,
            remaining,
        })
    }

    /// The bootstrap image was sealed on the sink.
    pub fn end_bootstrap(&mut self) {
        self.bootstrap_pids.clear();
    }

    /// Unwind the COW protect set — drain every deferred page to nowhere so
    /// the promoted container stops write-faulting. The sink drops its
    /// half-assembled image itself.
    pub fn bootstrap_abort(&mut self, primary: &mut Kernel) -> SimResult<()> {
        let pids = std::mem::take(&mut self.bootstrap_pids);
        drain_cow(primary, &pids, u64::MAX, |_, _, _| Ok(true))?;
        for &pid in &pids {
            primary.take_cow_faults(pid)?;
        }
        primary.meter.take();
        self.bootstrap_cpu_carry = 0;
        Ok(())
    }

    // --- Nondeterminism-log store (hybrid replay) ------------------------

    fn replay_on(&self) -> SimResult<()> {
        if self.opts.hybrid_replay {
            Ok(())
        } else {
            Err(SimError::Invalid("hybrid_replay is off".into()))
        }
    }

    /// Is the log-loss fault injection (`fail_after` chunks) swallowing
    /// chunks yet?
    fn log_link_down(&self, fail_after: Option<u64>) -> bool {
        fail_after.is_some_and(|k| self.log_chunks_shipped >= k)
    }

    /// Ship one batch of `epoch`'s events. The chunk is coded into `fanout`
    /// fragments of `ceil(bytes/k)` (a mirror ships `k = fanout = 1` whole
    /// copy); the links run in parallel, so the quorum ack and the slowest
    /// coincide with uniform replicas. Once `fail_after` chunks have been
    /// shipped, later chunks leave the primary but never arrive: the epoch's
    /// log stays short and unsealed, and the caller still observes a normal
    /// send — the primary cannot know its link just died.
    pub fn ship_log(
        &mut self,
        costs: &CostModel,
        epoch: u64,
        events: &[ReplayEvent],
        k: u64,
        fanout: usize,
        fail_after: Option<u64>,
    ) -> SimResult<LogShipOutcome> {
        self.replay_on()?;
        if events.is_empty() {
            return Ok(LogShipOutcome::default());
        }
        if (fanout as u64) < k {
            return Err(SimError::Invalid(format!(
                "cannot ship log below quorum: {fanout} alive, need {k}"
            )));
        }
        let frag_bytes = events
            .iter()
            .map(ReplayEvent::byte_len)
            .sum::<u64>()
            .div_ceil(k);
        let per_replica_cpu = costs.backup_recv(frag_bytes, 1);
        // One chunk out, one commit confirmation back — the whole point of
        // the hybrid scheme is that this round-trip is link-scale (~tens of
        // µs), not epoch-scale.
        let commit_latency = costs.repl_link_latency
            + costs.repl_wire(frag_bytes)
            + costs.repl_msg_overhead
            + per_replica_cpu
            + costs.repl_link_latency;
        let link_down = self.log_link_down(fail_after);
        self.log_chunks_shipped += 1;
        let mut out = LogShipOutcome {
            bytes: frag_bytes * fanout as u64,
            chunks: 1,
            commit_latency,
            backup_cpu: 0,
        };
        if !link_down {
            self.logs
                .entry(epoch)
                .or_insert_with(|| ReplayLog::new(epoch))
                .events
                .extend_from_slice(events);
            out.backup_cpu = per_replica_cpu * fanout as u64;
        }
        Ok(out)
    }

    /// Mark `epoch`'s log complete; the seal is lost with a dead log link.
    pub fn seal_log(&mut self, epoch: u64, fail_after: Option<u64>) -> SimResult<()> {
        self.replay_on()?;
        if !self.log_link_down(fail_after) {
            self.logs
                .entry(epoch)
                .or_insert_with(|| ReplayLog::new(epoch))
                .sealed = true;
        }
        Ok(())
    }

    /// Logs at or below the committed checkpoint are dead weight — their
    /// effects are inside the checkpoint image.
    pub fn prune_logs(&mut self, committed: u64) {
        self.logs.retain(|&e, _| e > committed);
    }

    /// Take the contiguous sealed tail past `committed`, stopping at the
    /// first gap (a whole epoch log vanished) or unsealed log (the seal
    /// never landed).
    pub fn take_replay_tail(&mut self, committed: Option<u64>) -> SimResult<ReplayTail> {
        self.replay_on()?;
        let mut tail = ReplayTail::default();
        let mut expect = committed.map_or(1, |e| e + 1);
        for (epoch, log) in std::mem::take(&mut self.logs) {
            if committed.is_some_and(|c| epoch <= c) {
                continue; // already inside the checkpoint
            }
            if epoch != expect || !log.sealed {
                tail.dropped_partial = true;
                break;
            }
            expect += 1;
            tail.logs.push(log);
        }
        Ok(tail)
    }

    // --- Failover ---------------------------------------------------------

    /// Restore the committed image on `backup` (input stays blocked until
    /// the caller finishes the restore) and report the Table II breakdown.
    /// Sockets come back roughly half-way through the restore (fd-table
    /// restoration precedes page loading for later processes); the RTO runs
    /// concurrently with the remaining restore and the ARP broadcast, so
    /// only the non-overlapped remainder is reported. A sink adds its own
    /// recovery work (decode, disk resync) to `others`.
    pub fn restore(
        &self,
        backup: &mut Kernel,
        img: &CheckpointImage,
    ) -> SimResult<(RestoredContainer, FailoverReport)> {
        let cfg = RestoreConfig {
            optimized_rto: self.opts.optimized_rto,
            block_input: true,
        };
        backup.meter.take();
        let restored = nilicon_criu::restore_container(backup, img, &cfg)?;
        backup.meter.take();
        let c = &backup.costs;
        let rto = if self.opts.optimized_rto {
            c.tcp_rto_repair_min
        } else {
            c.tcp_rto_default
        };
        let report = FailoverReport {
            restore: restored.restore_time,
            arp: c.gratuitous_arp,
            tcp: rto.saturating_sub(restored.restore_time / 2 + c.gratuitous_arp),
            others: c.recovery_misc,
            disk_pages_committed: 0,
        };
        Ok((restored, report))
    }
}

/// The address spaces `deferred` pages belong to, in first-seen order.
pub(crate) fn deferred_pids(deferred: &[(Pid, u64)]) -> Vec<Pid> {
    let mut pids = Vec::new();
    for &(pid, _) in deferred {
        if !pids.contains(&pid) {
            pids.push(pid);
        }
    }
    pids
}

/// Drain up to `max_pages` COW-deferred pages of `pids` in [`CHUNK_PAGES`]
/// batches, handing each non-empty batch to `sink` until it returns
/// `false`. Returns the pages drained.
pub(crate) fn drain_cow(
    primary: &mut Kernel,
    pids: &[Pid],
    max_pages: u64,
    mut sink: impl FnMut(&mut Kernel, Pid, Vec<(u64, PageBuf)>) -> SimResult<bool>,
) -> SimResult<u64> {
    let mut pages = 0u64;
    for &pid in pids {
        while pages < max_pages {
            let want = (max_pages - pages).min(CHUNK_PAGES as u64) as usize;
            let chunk = primary.cow_drain_pages(pid, want)?;
            if chunk.is_empty() {
                break;
            }
            pages += chunk.len() as u64;
            if !sink(primary, pid, chunk)? {
                return Ok(pages);
            }
        }
    }
    Ok(pages)
}

/// The staged pipeline's bounded encode → link chunk clock. `pages` flow in
/// [`CHUNK_PAGES`] chunks; `stage(i, chunk)` encodes chunk `i`, hands it to
/// the backup ingest and returns `(encode_cost, wire_bytes)`. The queue
/// between encode and transfer holds `PIPE_BOUND` chunks: chunk `i`'s encode
/// cannot start before the link finished chunk `i - PIPE_BOUND`, so the
/// pipeline cannot run arbitrarily far ahead of a slow link. The link starts
/// at `meta_ser` (the metadata chunk, ready the moment the container
/// resumes). Returns when the link finished the last chunk.
pub(crate) fn pipeline_clock(
    tracer: &Tracer,
    costs: &CostModel,
    meta_ser: Nanos,
    pages: &[(Pid, u64, PageBuf)],
    mut stage: impl FnMut(u64, &[(Pid, u64, PageBuf)]) -> SimResult<(Nanos, u64)>,
) -> SimResult<Nanos> {
    let mut t_enc: Nanos = 0; // when the encode stage finishes chunk i
    let mut t_send: Nanos = meta_ser; // when the link finishes chunk i
    let mut sent_at: Vec<Nanos> = Vec::new();
    for (i, chunk) in pages.chunks(CHUNK_PAGES).enumerate() {
        let chunk_no = i as u64;
        if tracer.enabled() {
            tracer.mark(TraceEvent::StageEnqueue {
                stage: "encode".into(),
                chunk: chunk_no,
            });
        }
        // Bounded handoff: the encode stage stalls while the link is
        // PIPE_BOUND chunks behind (its output queue is full).
        let gate = if i >= PIPE_BOUND {
            sent_at[i - PIPE_BOUND]
        } else {
            0
        };
        let (encode_cost, bytes) = stage(chunk_no, chunk)?;
        t_enc = t_enc.max(gate) + encode_cost;
        // Queueing delay between encode-done and link pickup.
        let wait = t_send.saturating_sub(t_enc);
        t_send = t_send.max(t_enc) + costs.repl_wire(bytes) + costs.repl_msg_overhead;
        sent_at.push(t_send);
        if tracer.enabled() {
            tracer.mark(TraceEvent::StageDequeue {
                stage: "transfer".into(),
                chunk: chunk_no,
                wait,
            });
        }
    }
    Ok(t_send)
}

/// Ingest-stage crash injection: if `fail` names `chunk`, the stage dies
/// right after receiving it and the supervisor restarts it; the chunk
/// replays from the upstream queue (peek-before-commit) — received twice,
/// applied once, since the crashed attempt died before mutating the
/// assembly. Returns the extra receive CPU.
pub(crate) fn stage_crash(
    fail: &mut Option<u64>,
    tracer: &Tracer,
    chunk: u64,
    ingest_cpu: Nanos,
) -> Nanos {
    if *fail != Some(chunk) {
        return 0;
    }
    *fail = None;
    tracer.mark(TraceEvent::StageRestart {
        stage: "ingest".into(),
        chunk,
    });
    ingest_cpu
}

/// The `DeltaEncode` trace event for `ds`.
pub(crate) fn delta_event(ds: &DeltaStats) -> TraceEvent {
    TraceEvent::DeltaEncode {
        zero_pages: ds.zero_pages,
        delta_pages: ds.delta_pages,
        full_pages: ds.full_pages,
        raw_bytes: ds.raw_bytes,
        encoded_bytes: ds.encoded_bytes,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::engine::Checkpointer;
    use crate::{NiLiConEngine, OptimizationConfig};
    use nilicon_container::{Container, ContainerRuntime, ContainerSpec};
    use nilicon_sim::ids::Pid;
    use nilicon_sim::kernel::Kernel;
    use nilicon_sim::replay::ReplayEvent;

    // The log store's tail walk, driven through the single-backup engine
    // (the (1, 1) case of the fan-out).

    pub(crate) fn replay_setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.hybrid_replay = true;
        let engine = NiLiConEngine::new(opts, primary.costs.clone());
        (primary, backup, c, engine)
    }

    pub(crate) fn req_event(at: u64) -> ReplayEvent {
        ReplayEvent::Request {
            pid: Pid(1),
            at,
            payload: vec![1, 2, 3],
            response_hash: 42,
            response_len: 3,
        }
    }

    #[test]
    fn sealed_tail_is_contiguous_from_committed_epoch() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // Epochs 2 and 3 ship + seal after the checkpoint commit.
        e.ship_log(&mut p, 2, &[req_event(10)]).unwrap();
        e.seal_log(2).unwrap();
        e.ship_log(&mut p, 3, &[req_event(20), req_event(21)])
            .unwrap();
        e.seal_log(3).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(!tail.dropped_partial);
        assert_eq!(tail.logs.len(), 2);
        assert_eq!(tail.logs[0].epoch, 2);
        assert_eq!(tail.logs[1].epoch, 3);
        assert_eq!(tail.events(), 3);
    }

    #[test]
    fn commit_prunes_logs_covered_by_the_checkpoint() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.ship_log(&mut p, 1, &[req_event(0)]).unwrap();
        e.seal_log(1).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.logs.is_empty(), "epoch-1 log died with its checkpoint");
        assert!(!tail.dropped_partial);
    }

    #[test]
    fn gap_or_unsealed_log_marks_tail_partial() {
        // Gap: epoch 2's log is missing entirely.
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.ship_log(&mut p, 3, &[req_event(30)]).unwrap();
        e.seal_log(3).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.dropped_partial, "missing epoch 2 breaks the chain");
        assert!(tail.logs.is_empty());

        // Unsealed: epoch 2 shipped but the seal never landed.
        let (mut p2, mut b2, c2, mut e2) = replay_setup();
        e2.prepare(&mut p2, &c2).unwrap();
        e2.checkpoint(&mut p2, &mut b2, &c2, 1).unwrap();
        e2.commit(&mut b2, 1).unwrap();
        e2.ship_log(&mut p2, 2, &[req_event(10)]).unwrap();
        let tail2 = e2.take_replay_tail().unwrap();
        assert!(tail2.dropped_partial, "unsealed tail epoch is unusable");
        assert!(tail2.logs.is_empty());
    }
}
