//! The primary-side NiLiCon replication engine (§IV, §V): the shared
//! capture agent plus one buffered warm backup.

use crate::backup::BackupAgent;
use crate::capture::{self, Capture, Stopped};
use crate::config::OptimizationConfig;
use crate::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    ReplayTail,
};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{DeltaStats, PageEncoding, PageKey, RestoredContainer, ShadowStore};
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::{PageBuf, SimError, SimResult, PAGE_SIZE};

/// One chunk of pages in wire form: full pages, or XOR deltas.
type WireChunk = (Vec<(Pid, u64, PageBuf)>, Vec<(Pid, u64, PageEncoding)>);

/// NiLiCon's primary-side engine plus the buffered backup agent.
pub struct NiLiConEngine {
    cap: Capture,
    /// Backup agent (public for Table V accounting and failover tests).
    pub agent: BackupAgent,
    /// Primary-side shadow of the page contents last shipped to the backup —
    /// the base for the next epoch's XOR deltas (`delta_transfer`).
    shadow: ShadowStore,
    /// Cost model retained so `rearm_prepare` can rebuild the replica-side
    /// structures (a replacement backup starts from an empty agent).
    costs: nilicon_sim::CostModel,
    /// Test-only fault injection: abort the COW drain after this many page
    /// chunks have been streamed, as if the primary died mid-copy. The
    /// epoch's assembly is never finished at the backup, so it can never be
    /// acked or committed — failover must fall back to the previous epoch.
    pub cow_fail_after_chunks: Option<u64>,
    /// Test-only fault injection: the primary dies after shipping this many
    /// log chunks — later chunks (and the seal message) are lost in flight,
    /// leaving the tail epoch's log *partial*. Failover must then take the
    /// plain last-checkpoint fallback instead of replaying.
    pub log_fail_after_chunks: Option<u64>,
    /// Test-only fault injection (staged pipeline): the backup-ingest stage
    /// crashes once, right after receiving this zero-based chunk index. The
    /// supervisor restarts the stage and the chunk replays from the upstream
    /// queue (peek-before-commit): its receive CPU is charged twice, but the
    /// assembly is mutated exactly once — no lost or duplicated chunk.
    pub stage_fail_at_chunk: Option<u64>,
}

impl std::fmt::Debug for NiLiConEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NiLiConEngine")
            .field("opts", &self.cap.opts)
            .field("agent", &self.agent)
            .finish()
    }
}

impl NiLiConEngine {
    /// New engine. The backup page store follows
    /// [`OptimizationConfig::optimize_criu`] (radix tree vs linked list).
    pub fn new(opts: OptimizationConfig, costs: nilicon_sim::CostModel) -> Self {
        NiLiConEngine {
            cap: Capture::new(opts),
            agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
            shadow: ShadowStore::new(),
            costs,
            cow_fail_after_chunks: None,
            log_fail_after_chunks: None,
            stage_fail_at_chunk: None,
        }
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.cap.opts
    }

    /// COW extension: the background copy-out of the pages write-protected
    /// at pause, streamed to the backup while the container runs.
    ///
    /// The drain is chunked and the wire is pipelined: chunk `i` can only be
    /// serialized once it has been copied out (`t_drain`) *and* the link has
    /// finished the previous chunk (`t_send`). The metadata image and DRBD
    /// traffic go out first — they are ready the moment the container
    /// resumes — so transfer overlaps copy-out. The ack lands one
    /// propagation latency after the last chunk plus the backup's receive
    /// CPU: the epoch is acked only once every deferred page has arrived,
    /// and the backup's `finish_assembly` barrier enforces the same
    /// condition structurally.
    ///
    /// Returns `(ack_delay, state_bytes, backup_cpu)`. The emitted
    /// `CowCopy + Transfer + BackupIngest + Ack` spans tile `ack_delay`
    /// exactly.
    fn cow_stream(
        &mut self,
        primary: &mut Kernel,
        mut s: Stopped,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        let link = primary.costs.repl_link_latency;
        let deferred = std::mem::take(&mut s.img.deferred_vpns);
        let pids = capture::deferred_pids(&deferred);
        let (meta_ser, meta_bytes, mut backup_cpu) =
            self.open_stream(primary, s, deferred.len() as u64);

        let delta = self.cap.opts.delta_transfer;
        let mut dstats = DeltaStats::default();
        let mut payload_bytes = 0u64;
        let mut chunks_sent = 0u64;
        let mut t_drain: Nanos = 0; // when chunk i finishes copy-out
        let mut t_send: Nanos = meta_ser; // when the link finishes chunk i
        let mut aborted = false;
        let m_start = primary.meter.lifetime_total();
        let drained = capture::drain_cow(primary, &pids, u64::MAX, |p, pid, chunk| {
            let chunk = chunk.into_iter().map(|(vpn, d)| (pid, vpn, d)).collect();
            // Delta composition: encode at copy time against the shadow of
            // the last shipped epoch — the encode CPU rides the drain, off
            // the stop phase.
            let ((pages, deltas), bytes, _) =
                wire_chunk(p, delta.then_some(&mut self.shadow), &mut dstats, chunk);
            t_drain = p.meter.lifetime_total() - m_start;
            t_send = t_send.max(t_drain) + p.costs.repl_wire(bytes) + p.costs.repl_msg_overhead;
            payload_bytes += bytes;
            chunks_sent += 1;
            let cpu = self.agent.ingest_chunk(epoch, pages, deltas)?;
            backup_cpu += cpu
                + capture::stage_crash(
                    &mut self.stage_fail_at_chunk,
                    &self.cap.tracer,
                    chunks_sent - 1,
                    cpu,
                );
            aborted = self.cow_fail_after_chunks.is_some_and(|k| chunks_sent >= k);
            Ok(!aborted)
        })?;
        let mut faults = 0u64;
        for &pid in &pids {
            faults += primary.take_cow_faults(pid)?;
        }
        // The drain was sampled off the lifetime meter; clear the interval
        // meter so the next exec phase starts clean (the stop phase was
        // already consumed by `checkpoint`).
        primary.meter.take();

        if !aborted {
            // Commit barrier: the epoch becomes ackable only now.
            self.agent.finish_assembly(epoch)?;
        }

        let tracer = &self.cap.tracer;
        tracer.span(
            TraceEvent::CowCopy {
                pages: drained,
                bytes: payload_bytes,
            },
            t_drain,
        );
        if faults > 0 {
            tracer.mark(TraceEvent::CowFault { faults });
        }
        if delta && tracer.enabled() {
            tracer.mark(capture::delta_event(&dstats));
        }
        let bytes = meta_bytes + payload_bytes;
        self.cap
            .ack_spans(bytes, t_send + link - t_drain, 0, backup_cpu, link);
        Ok((t_send + link + backup_cpu + link, bytes, backup_cpu))
    }

    /// Staged-pipeline extension: the eager dump's page payload leaves the
    /// stop phase and flows through delta-encode → transfer → backup-ingest
    /// stages on the shared bounded chunk clock, overlapped with the next
    /// execution phase. The dumped pages are immutable refcounted snapshots,
    /// so encoding them after resume cannot race container writes. The epoch
    /// becomes ackable only at the `finish_assembly` barrier, exactly like
    /// the synchronous path, so the committed image is byte-identical.
    ///
    /// Returns `(ack_delay, state_bytes, backup_cpu)`; the emitted
    /// `Transfer + BackupIngest + Ack` spans tile `ack_delay` exactly.
    fn pipeline_stream(
        &mut self,
        primary: &mut Kernel,
        mut s: Stopped,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        let link = primary.costs.repl_link_latency;
        let pages = std::mem::take(&mut s.img.pages);
        let (meta_ser, meta_bytes, mut backup_cpu) =
            self.open_stream(primary, s, pages.len() as u64);

        let delta = self.cap.opts.delta_transfer;
        let mut dstats = DeltaStats::default();
        let mut payload_bytes = 0u64;
        let costs = primary.costs.clone();
        let t_send =
            capture::pipeline_clock(&self.cap.tracer, &costs, meta_ser, &pages, |i, chunk| {
                // Encode against the shadow of the last shipped epoch — the CPU
                // rides the background stage, off the stop phase.
                let ((pages, deltas), bytes, encode_cost) = wire_chunk(
                    primary,
                    delta.then_some(&mut self.shadow),
                    &mut dstats,
                    chunk.to_vec(),
                );
                payload_bytes += bytes;
                let cpu = self.agent.ingest_chunk(epoch, pages, deltas)?;
                backup_cpu += cpu
                    + capture::stage_crash(&mut self.stage_fail_at_chunk, &self.cap.tracer, i, cpu);
                Ok((encode_cost, bytes))
            })?;
        // The encode CPU was charged to the background stage; it must not
        // bill the next exec phase's interval meter.
        primary.meter.take();

        // Commit barrier: the epoch becomes ackable only now.
        self.agent.finish_assembly(epoch)?;

        if delta && self.cap.tracer.enabled() {
            self.cap.tracer.mark(capture::delta_event(&dstats));
        }
        let bytes = meta_bytes + payload_bytes;
        self.cap
            .ack_spans(bytes, t_send + link, 0, backup_cpu, link);
        Ok((t_send + link + backup_cpu + link, bytes, backup_cpu))
    }

    /// Open a streamed epoch's assembly at the backup: the metadata image
    /// and the DRBD traffic form chunk 0, ready the moment the container
    /// resumes. Returns `(meta_ser, meta_bytes, backup_cpu)`: `meta_ser` is
    /// the link time of chunk 0 without the propagation latency, which the
    /// streamed model pays once, after the last chunk.
    fn open_stream(&mut self, primary: &Kernel, s: Stopped, pages: u64) -> (Nanos, u64, Nanos) {
        let meta_bytes = s.img.state_bytes() + s.wire.bytes;
        let msgs = s.img.transfer_chunks() + s.msgs.len() as u64;
        let meta_ser = self.cap.transfer_cost(&primary.costs, meta_bytes, msgs)
            - primary.costs.repl_link_latency;
        let cpu = self.agent.begin_assembly(s.img, pages) + self.agent.ingest_drbd(s.msgs);
        (meta_ser, meta_bytes, cpu)
    }
}

/// Put `chunk` in wire form: full pages, or — given the delta `shadow` —
/// XOR deltas against the last shipped epoch, their encode CPU charged to
/// `primary`. Returns the chunk, its wire bytes and the encode cost.
fn wire_chunk(
    primary: &mut Kernel,
    shadow: Option<&mut ShadowStore>,
    dstats: &mut DeltaStats,
    chunk: Vec<(Pid, u64, PageBuf)>,
) -> (WireChunk, u64, Nanos) {
    let n = chunk.len() as u64;
    let Some(shadow) = shadow else {
        return ((chunk, Vec::new()), n * PAGE_SIZE as u64, 0);
    };
    let cost = n * primary.costs.delta_encode_per_page;
    primary.meter.charge(cost);
    let mut bytes = 0u64;
    let encs = chunk
        .into_iter()
        .map(|(pid, vpn, data)| {
            let enc = shadow.encode(PageKey { pid, vpn }, &data, dstats);
            bytes += enc.encoded_bytes();
            (pid, vpn, enc)
        })
        .collect();
    ((Vec::new(), encs), bytes, cost)
}

impl Checkpointer for NiLiConEngine {
    fn name(&self) -> &'static str {
        "NiLiCon"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.cap.tracer = tracer;
    }

    fn inject_stage_fail(&mut self, chunk: u64) {
        self.stage_fail_at_chunk = Some(chunk);
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.cap.prepare(primary, container)
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        let opts = self.cap.opts;
        // The staged pipeline needs the staging buffer (§V-D(2)) to overlap
        // the ack path with execution; COW has its own streaming drain, so
        // the eager pipelined path covers the remaining shape.
        let cow = opts.cow_checkpoint;
        let pipelined = opts.pipeline && opts.staging_buffer && !cow;
        // Delta-encode the page payload for the wire (HyCoR extension) in
        // the stop phase — unless COW defers the pages (encoding moves to
        // the background drain) or the staged pipeline encodes the dumped
        // snapshots in its background encode stage.
        let shadow = (opts.delta_transfer && !cow && !pipelined).then_some(&mut self.shadow);
        let s = self.cap.stop_phase(primary, container, epoch, shadow)?;
        let (dirty_pages, mut stop_time) = (s.dirty_pages, s.stop_time);

        let (ack_delay, state_bytes, backup_cpu) = if cow {
            // The container is already running; drain the write-protected
            // pages into staging and stream them to the backup.
            self.cow_stream(primary, s, epoch)?
        } else if pipelined {
            self.pipeline_stream(primary, s, epoch)?
        } else {
            let state_bytes = s.img.state_bytes() + s.wire.bytes;
            // Without the staging buffer the parasite pipes pages out one at
            // a time, so the synchronous transfer pays per-page message
            // overheads (part of what §V-D(2)+(3) eliminate).
            let mut msgs = s.img.transfer_chunks() + s.msgs.len() as u64;
            if !opts.staging_buffer {
                msgs += dirty_pages;
            }
            let transfer = self.cap.transfer_cost(&primary.costs, state_bytes, msgs);
            let link = primary.costs.repl_link_latency;
            let backup_cpu = self.agent.ingest(s.img) + self.agent.ingest_drbd(s.msgs);
            if opts.staging_buffer {
                // §V-D(2): transfer overlaps the next execution phase; the
                // ack (and output release) lands after wire + backup
                // receive. The page-store probes happen at the deferred
                // commit — see the `BackupCommit` marker emitted there.
                self.cap
                    .ack_spans(state_bytes, transfer, 0, backup_cpu, link);
                (transfer + backup_cpu + link, state_bytes, backup_cpu)
            } else {
                // Without staging, the container stays stopped until the
                // backup has consumed the state — transfer, receive, and
                // inline commit are all on the critical path.
                let commit_cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
                let (probes, _) = self.agent.last_commit_stats();
                let ingest = backup_cpu + commit_cpu;
                self.cap
                    .ack_spans(state_bytes, transfer, probes, ingest, link);
                stop_time += transfer + ingest + link;
                (0, state_bytes, backup_cpu)
            }
        };
        self.cap.set_backlog(ack_delay);
        Ok(CheckpointOutcome {
            stop_time,
            state_bytes,
            dirty_pages,
            ack_delay,
            backup_cpu,
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.cap.pipeline_advance(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.cap.prune_logs(epoch);
        if !self.cap.opts.staging_buffer {
            return Ok(0); // already committed inline during the stop phase
        }
        let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
        if self.cap.tracer.enabled() {
            let (probes, disk_pages) = self.agent.last_commit_stats();
            self.cap
                .tracer
                .mark(TraceEvent::BackupCommit { probes, disk_pages });
        }
        Ok(cpu)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.agent.discard_uncommitted();
        let img = self.agent.materialize()?;
        self.cap.restore(backup, &img)
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.agent.committed_epoch()
    }

    fn supports_rearm(&self) -> bool {
        self.cap.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // The replacement backup starts empty, and the delta shadow is stale
        // (it has no base image to patch against).
        self.agent = BackupAgent::new(self.costs.clone(), self.cap.opts.optimize_criu);
        self.shadow = ShadowStore::new();
        self.cap.rearm(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        self.cap
            .bootstrap_begin(primary, container, epoch, |img, msgs, total| {
                self.agent.begin_assembly(img, total) + self.agent.ingest_drbd(msgs)
            })
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let agent = &mut self.agent;
        self.cap
            .bootstrap_step(primary, max_pages, PAGE_SIZE as u64, |_, pid, chunk| {
                let batch = chunk.into_iter().map(|(vpn, d)| (pid, vpn, d)).collect();
                agent.ingest_chunk(epoch, batch, Vec::new())
            })
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.agent.finish_assembly(epoch)?;
        if !self.agent.epoch_complete(epoch) {
            return Err(SimError::Invalid(format!(
                "bootstrap epoch {epoch} sealed without its disk barrier"
            )));
        }
        let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
        self.cap.end_bootstrap();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        // Drop the half-assembled image with the dead replacement.
        self.cap.bootstrap_abort(primary)?;
        let _ = self.agent.discard_uncommitted();
        Ok(())
    }

    fn supports_replay(&self) -> bool {
        self.cap.opts.hybrid_replay
    }

    fn ship_log(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        self.cap.ship_log(
            &primary.costs,
            epoch,
            events,
            1,
            1,
            self.log_fail_after_chunks,
        )
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        self.cap.seal_log(epoch, self.log_fail_after_chunks)
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        self.cap.take_replay_tail(self.agent.committed_epoch())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::{replay_setup, req_event};
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), primary.costs.clone());
        (primary, backup, c, engine)
    }

    #[test]
    fn checkpoint_requires_prepare() {
        let (mut p, mut b, c, mut e) = setup();
        assert!(e.checkpoint(&mut p, &mut b, &c, 1).is_err());
    }

    #[test]
    fn epoch_cycle_ships_state_to_backup() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"epoch1")
            .unwrap();
        let o1 = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert_eq!(o1.dirty_pages, 1);
        assert!(o1.stop_time > 0);
        assert!(o1.ack_delay > 0, "staged: ack after resume");
        e.commit(&mut b, 1).unwrap();
        assert_eq!(e.committed_epoch(), Some(1));
        assert_eq!(e.agent.stored_pages(), 1);

        // Clean epoch: nothing dirty.
        let o2 = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert_eq!(o2.dirty_pages, 0);
        assert!(o2.state_bytes < o1.state_bytes);
    }

    #[test]
    fn warm_stop_time_is_small_with_all_optimizations() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        // Warm the cache.
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"x").unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            o.stop_time < 15 * MILLISECOND,
            "optimized warm stop for a small container, got {}ms",
            o.stop_time / MILLISECOND
        );
    }

    #[test]
    fn basic_config_stop_time_is_huge() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut e = NiLiConEngine::new(OptimizationConfig::basic(), p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert!(
            o.stop_time > 250 * MILLISECOND,
            "basic = freeze sleep + full infrequent collect + sync transfer, got {}ms",
            o.stop_time / MILLISECOND
        );
        assert_eq!(o.ack_delay, 0, "no staging buffer: ack inside stop");
        assert_eq!(e.committed_epoch(), Some(1), "inline commit");
    }

    #[test]
    fn delta_transfer_shrinks_wire_bytes_and_reconciles() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |delta: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.delta_transfer = delta;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            let mut total_bytes = 0u64;
            for epoch in 1..=4 {
                // Same single-byte edit each epoch: page 0 is sparse churn.
                p.mem_write(c.init_pid(), MemLayout::heap(0), &[epoch as u8])
                    .unwrap();
                tracer.begin_epoch(epoch as u64, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch as u64).unwrap();
                tracer
                    .reconcile(epoch as u64, o.stop_time, o.ack_delay)
                    .unwrap();
                e.commit(&mut b, epoch as u64).unwrap();
                total_bytes += o.state_bytes;
            }
            (total_bytes, ring.snapshot())
        };
        let (full_bytes, full_recs) = run(false);
        let (delta_bytes, delta_recs) = run(true);
        assert!(
            delta_bytes < full_bytes,
            "delta wire bytes {delta_bytes} < full {full_bytes}"
        );
        assert!(
            !full_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. })),
            "no DeltaEncode span on the full-page path"
        );
        let spans: Vec<_> = delta_recs
            .iter()
            .filter(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. }))
            .collect();
        assert_eq!(spans.len(), 4, "one DeltaEncode span per epoch");
        // Epochs 2+ re-dirty the same page: it ships as a sparse XOR delta.
        let TraceEvent::DeltaEncode {
            delta_pages,
            encoded_bytes,
            raw_bytes,
            ..
        } = spans[2].kind
        else {
            unreachable!()
        };
        assert_eq!(delta_pages, 1);
        assert!(encoded_bytes < raw_bytes / 10, "sparse epoch shrinks 10x+");
    }

    #[test]
    fn cow_checkpoint_moves_copy_off_the_stop_phase() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |cow: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.cow_checkpoint = cow;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            // Warm epoch: initial full sync.
            e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
            e.commit(&mut b, 1).unwrap();
            for page in 0..300u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[9])
                    .unwrap();
            }
            tracer.begin_epoch(2, 0);
            let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
            tracer.reconcile(2, o.stop_time, o.ack_delay).unwrap();
            e.commit(&mut b, 2).unwrap();
            (o, ring.snapshot(), e)
        };
        let (eager, eager_recs, eager_e) = run(false);
        let (cow, cow_recs, cow_e) = run(true);

        assert_eq!(cow.dirty_pages, eager.dirty_pages);
        assert_eq!(
            cow.state_bytes, eager.state_bytes,
            "same pages cross the wire either way"
        );
        // Small fixture: the footprint-proportional pagemap scan still
        // dominates, but the per-page copy cost itself must have left the
        // stop phase (protect ≈ 150 ns vs copy ≈ 2170 ns, × 300 pages).
        let saved = eager.stop_time - cow.stop_time;
        assert!(
            saved > 300 * 1_500,
            "copy cost left the stop phase: saved {saved}ns (stop {} vs eager {})",
            cow.stop_time,
            eager.stop_time
        );
        assert!(
            cow.ack_delay > eager.ack_delay,
            "the copy did not vanish — it moved to the ack path"
        );

        assert!(
            !eager_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::CowCopy { .. })),
            "no CowCopy span on the eager path"
        );
        let span = cow_recs
            .iter()
            .find(|r| r.epoch == 2 && matches!(r.kind, TraceEvent::CowCopy { .. }))
            .expect("CowCopy span emitted");
        let TraceEvent::CowCopy { pages, bytes } = span.kind else {
            unreachable!()
        };
        assert_eq!(pages, 300);
        assert_eq!(bytes, 300 * 4096);
        assert!(span.dur > 0, "the drain costs real time");

        // The committed backup images are byte-identical.
        let a = eager_e.agent.materialize().unwrap();
        let b = cow_e.agent.materialize().unwrap();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(b.pages.iter()) {
            assert_eq!((pa.0, pa.1), (pb.0, pb.1));
            assert_eq!(pa.2, pb.2, "page {:?}/{:#x}", pa.0, pa.1);
        }
    }

    #[test]
    fn cow_mid_copy_failure_is_never_ackable() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.cow_checkpoint = true;
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        // Epoch 2: the primary dies after the first streamed chunk.
        for page in 0..200u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e.cow_fail_after_chunks = Some(1);
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            !e.agent.epoch_complete(2),
            "partial assembly must not satisfy the ack condition"
        );
        let (restored, _) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed", "fell back to the last full epoch");
        assert_eq!(e.committed_epoch(), Some(1));
    }

    #[test]
    fn rearmed_backup_image_matches_always_replicated_run() {
        // Equivalence: a backup bootstrapped mid-run via the re-replication
        // path must end up with a committed image byte-identical to a backup
        // that was replicated from the start, given the same writes.
        let writes = |epoch: u64| -> Vec<(u64, u8)> {
            vec![(epoch % 7, epoch as u8), (10 + epoch, 0xA0 | epoch as u8)]
        };
        let apply = |p: &mut Kernel, c: &Container, epoch: u64| {
            for (page, val) in writes(epoch) {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                    .unwrap();
            }
        };
        // Give the container a working set large enough that the bootstrap
        // image spans several bounded chunks (the per-step cap below is 64).
        let warm = |p: &mut Kernel, c: &Container| {
            for page in 20..220u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8])
                    .unwrap();
            }
        };
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;

        // Run A: continuously replicated, epochs 1..=6.
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca = ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut ea = NiLiConEngine::new(opts, pa.costs.clone());
        ea.prepare(&mut pa, &ca).unwrap();
        warm(&mut pa, &ca);
        for epoch in 1..=6u64 {
            apply(&mut pa, &ca, epoch);
            ea.checkpoint(&mut pa, &mut ba, &ca, epoch).unwrap();
            ea.commit(&mut ba, epoch).unwrap();
        }
        let img_a = ea.agent.materialize().unwrap();

        // Run B: same writes; the original backup dies after epoch 3, a
        // replacement is bootstrapped (epoch-4 writes land while the image
        // streams — COW must preserve the pre-write content), and epochs
        // 5..=6 run incrementally against the replacement.
        let mut pb = Kernel::default();
        let mut bb = Kernel::default();
        let cb = ContainerRuntime::create(&mut pb, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut eb = NiLiConEngine::new(opts, pb.costs.clone());
        eb.prepare(&mut pb, &cb).unwrap();
        warm(&mut pb, &cb);
        for epoch in 1..=3u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut bb, &cb, epoch).unwrap();
            eb.commit(&mut bb, epoch).unwrap();
        }
        let mut b2 = Kernel::default(); // the replacement backup
        eb.rearm_prepare(&mut pb, &cb).unwrap();
        let begin = eb.bootstrap_begin(&mut pb, &cb, 4).unwrap();
        assert!(begin.total_pages > 0, "full image deferred via COW");
        apply(&mut pb, &cb, 4); // mutate mid-stream
        let mut chunks = 0;
        loop {
            let step = eb.bootstrap_step(&mut pb, 4, 64).unwrap();
            chunks += 1;
            if step.remaining == 0 {
                break;
            }
            assert!(chunks < 10_000, "bootstrap must terminate");
        }
        assert!(chunks > 1, "image streamed across multiple bounded steps");
        eb.bootstrap_finish(&mut b2, 4).unwrap();
        assert_eq!(eb.committed_epoch(), Some(4));
        for epoch in 5..=6u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut b2, &cb, epoch).unwrap();
            eb.commit(&mut b2, epoch).unwrap();
        }
        let img_b = eb.agent.materialize().unwrap();

        assert_eq!(img_a.pages.len(), img_b.pages.len(), "same page set");
        for (x, y) in img_a.pages.iter().zip(img_b.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "page {:?}/{:#x} diverged", x.0, x.1);
        }
        assert_eq!(
            ba.vfs.disk.digest(),
            b2.vfs.disk.digest(),
            "replica disks identical"
        );
    }

    #[test]
    fn bootstrap_abort_unwinds_the_cow_set() {
        let (mut p, mut b, c, e) = setup();
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;
        let mut e2 = NiLiConEngine::new(opts, p.costs.clone());
        assert!(!e.supports_rearm(), "paper rows never re-arm");
        assert!(e2.supports_rearm());
        e2.prepare(&mut p, &c).unwrap();
        // Resident footprint larger than the 16-page step cap used below.
        for page in 0..40u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[3])
                .unwrap();
        }
        e2.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e2.commit(&mut b, 1).unwrap();

        e2.rearm_prepare(&mut p, &c).unwrap();
        let begin = e2.bootstrap_begin(&mut p, &c, 2).unwrap();
        assert!(begin.total_pages > 0);
        let step = e2.bootstrap_step(&mut p, 2, 16).unwrap();
        assert_eq!(step.pages, 16, "chunk bound respected");
        assert!(step.remaining > 0);
        e2.bootstrap_abort(&mut p, &c).unwrap();
        // All COW protections are gone: writes proceed without faulting new
        // copies, and a later bootstrap starts from scratch.
        for pid in c.all_pids() {
            assert_eq!(p.cow_pending(pid).unwrap(), 0, "pid {pid:?} unwound");
        }
        assert!(
            !e2.agent.epoch_complete(2),
            "the half-assembled image was dropped"
        );
        // A fresh attempt after the abort still works end-to-end.
        e2.rearm_prepare(&mut p, &c).unwrap();
        let mut b3 = Kernel::default();
        e2.bootstrap_begin(&mut p, &c, 3).unwrap();
        loop {
            if e2.bootstrap_step(&mut p, 3, 256).unwrap().remaining == 0 {
                break;
            }
        }
        e2.bootstrap_finish(&mut b3, 3).unwrap();
        assert_eq!(e2.committed_epoch(), Some(3));
    }

    #[test]
    fn failover_restores_committed_state_only() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // Epoch 2 checkpoint arrives but is never acked/committed.
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"uncommitt")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();

        let (restored, report) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed");
        assert!(report.restore > 100 * MILLISECOND);
        assert_eq!(report.arp, 28 * MILLISECOND);
        assert_eq!(report.others, 7 * MILLISECOND);
    }

    #[test]
    fn failover_without_any_commit_fails_cleanly() {
        let (mut _p, mut b, _c, mut e) = setup();
        assert!(e.failover(&mut b).is_err());
    }

    #[test]
    fn disk_writes_replicate_through_drbd() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let pid = c.init_pid();
        let fd = p.create_file(pid, "/data/wal", 0).unwrap();
        p.pwrite(pid, fd, 0, b"logged", 1).unwrap();
        p.fsync(pid, fd).unwrap(); // hits the primary disk + DRBD log
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        assert_eq!(
            p.vfs.disk.digest(),
            b.vfs.disk.digest(),
            "backup disk in sync"
        );
    }

    #[test]
    fn tcp_component_shrinks_with_longer_restore() {
        // Table II: Net (fast restore) has a LARGER TCP remainder than Redis
        // (slow restore) because more of the RTO overlaps recovery work.
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let (_r, fast) = e.failover(&mut b).unwrap();

        // Bulkier container -> longer restore.
        let (mut p2, mut b2, c2, mut e2) = setup();
        e2.prepare(&mut p2, &c2).unwrap();
        for page in 0..3000u64 {
            p2.mem_write(c2.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e2.checkpoint(&mut p2, &mut b2, &c2, 1).unwrap();
        e2.commit(&mut b2, 1).unwrap();
        let (_r2, slow) = e2.failover(&mut b2).unwrap();

        assert!(slow.restore > fast.restore);
        assert!(slow.tcp <= fast.tcp, "more RTO overlap with longer restore");
    }

    #[test]
    fn replay_api_rejected_unless_enabled() {
        let (mut p, _b, _c, mut e) = setup(); // paper config: replay off
        assert!(!e.supports_replay());
        assert!(e.ship_log(&mut p, 1, &[req_event(0)]).is_err());
        assert!(e.seal_log(1).is_err());
        assert!(e.take_replay_tail().is_err());
    }

    #[test]
    fn ship_log_commit_latency_is_link_scale() {
        let (mut p, _b, _c, mut e) = replay_setup();
        assert!(e.supports_replay());
        let o = e.ship_log(&mut p, 1, &[req_event(0)]).unwrap();
        assert_eq!(o.chunks, 1);
        assert!(o.bytes > 0);
        assert!(o.backup_cpu > 0);
        assert!(
            o.commit_latency < MILLISECOND,
            "log commit RTT is µs-scale, got {}ns",
            o.commit_latency
        );
        // Empty chunk: nothing crosses the wire.
        let z = e.ship_log(&mut p, 1, &[]).unwrap();
        assert_eq!(z.chunks, 0);
        assert_eq!(z.commit_latency, 0);
    }

    #[test]
    fn log_link_failure_loses_chunks_and_seal_in_flight() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.log_fail_after_chunks = Some(1);
        let o1 = e.ship_log(&mut p, 2, &[req_event(10)]).unwrap();
        assert!(o1.backup_cpu > 0, "first chunk arrives");
        // Second chunk and the seal are lost in flight; the primary cannot
        // tell — it still observes a normal send.
        let o2 = e.ship_log(&mut p, 2, &[req_event(11)]).unwrap();
        assert_eq!(o2.backup_cpu, 0, "lost chunk burns no backup CPU");
        assert_eq!(o2.chunks, 1);
        e.seal_log(2).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.dropped_partial, "partial log cannot be replayed");
        assert!(tail.logs.is_empty());
    }
}
