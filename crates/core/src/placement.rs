//! k-of-n erasure-coded multi-backup replication — the `placement` engine.
//!
//! NiLiCon's single warm backup gives exactly one fault-tolerance level at
//! 2× memory: lose the backup and the pair is one fault from data loss until
//! rearm completes. This engine generalizes the backup side to a *placement*
//! of `n` replicas with quorum `k`:
//!
//! * each committed epoch's dirty pages are erasure-coded into `n` fragments
//!   ([`nilicon_criu::ShardCodec`] — systematic Reed–Solomon over GF(2⁸));
//!   replica `i` stores fragment `i` of every page behind the same
//!   `begin_assembly` / `ingest_chunk` / `finish_assembly` barrier the COW
//!   path uses;
//! * the epoch acks when the fragment sets are durable on the replicas
//!   (links fan out in parallel; with uniform replicas the k-th ack and the
//!   n-th coincide in virtual time);
//! * failover reconstructs a byte-identical committed image from any `k`
//!   survivors ([`PlacementEngine::reconstruct_committed`]);
//! * losing a replica leaves the placement in *degraded mode* (epochs keep
//!   committing on the `alive ≥ k` survivors) and triggers **coded repair**:
//!   the missing fragment store is regenerated onto a fresh host from `k`
//!   peers — decode + re-encode, `k × frag_len` wire bytes per page — while
//!   the primary keeps serving.
//!
//! Repair, rearm (PR 5's bootstrap streaming), and planned live migration
//! are three instantiations of the same stream-while-serving flow:
//!
//! | flow      | source              | target            | trigger          |
//! |-----------|---------------------|-------------------|------------------|
//! | repair    | k surviving replicas| fresh replica     | replica loss     |
//! | rearm     | promoted primary    | n fresh replicas  | primary failover |
//! | migration | serving primary     | destination host  | operator         |
//!
//! All three stream a bounded chunk per epoch, keep the served container
//! running between chunks, and seal with the same assembly barrier. Rearm
//! reuses the [`Checkpointer`] bootstrap methods; repair adds the
//! `repair_*` methods (no stop phase at all — it reads *committed* state);
//! migration is the degenerate `k = 1, n = 1` placement driven to a
//! deliberate failover (see `examples/live_migration.rs`).
//!
//! Memory overhead is `n × ceil(4 KiB/k) / 4 KiB` per committed page:
//! `(1,2)` is exactly the paper's 2× mirroring, `(2,3)` stores 1.5×, `(3,5)`
//! ≈ 1.67× — coded placements beat mirroring while tolerating more faults.
//!
//! Modeling notes: the primary half — setup, the stop phase, the bootstrap
//! capture and COW drain, the staged-pipeline chunk clock and backlog, the
//! replay-log store and the failover report — is the capture agent shared
//! with [`NiLiConEngine`](crate::NiLiConEngine) (the `capture` module), so
//! both engines stop the container identically. This engine keeps only its
//! sink: the codec, the replicas, the coded fan-out and ack, and coded
//! repair. It requires the staged transfer path (`staging_buffer`) and
//! composes with neither `delta_transfer` nor `cow_checkpoint` (fragments
//! are coded from full page bodies after the container resumes). Replica
//! receive CPU is modeled on the padded 4 KiB page boxes the agents store,
//! not the `frag_len` payload — wire bytes and stored-fragment accounting
//! use the true fragment size.

use crate::backup::BackupAgent;
use crate::capture::{self, Capture, Stopped};
use crate::config::OptimizationConfig;
use crate::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    RepairBegin, ReplayTail,
};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{CheckpointImage, RestoredContainer, ShardCodec};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::{PageBuf, SimError, SimResult, PAGE_SIZE};
use std::collections::{BTreeMap, HashSet};

/// One replica's per-epoch fragment batch, in `BackupAgent::ingest_chunk`
/// page form: each entry carries a zero-padded `PAGE_SIZE` box holding that
/// replica's fragment of the page.
type FragmentBatch = Vec<(Pid, u64, PageBuf)>;

/// One backup replica: a buffered agent plus its replicated block device.
/// The replica at index 0 is backed by the harness's real backup kernel —
/// its committed disk writes go to that kernel's device (passed into
/// [`Checkpointer::commit`]), and `disk` here stays unused. Replicas `1..n`
/// are modeled hosts that commit into their own `disk`.
struct Replica {
    agent: BackupAgent,
    disk: BlockDevice,
    alive: bool,
}

/// An in-flight coded repair (one at a time).
struct ActiveRepair {
    /// Replica index being regenerated.
    target: usize,
    /// Full committed pages decoded from k survivors at repair begin,
    /// streamed to the target in bounded chunks.
    base_pages: Vec<(Pid, u64, PageBuf)>,
    /// Next page to stream.
    cursor: usize,
    /// Committed epoch the base image corresponds to.
    base_epoch: u64,
    /// Agent CPU charged at begin (metadata receive), carried into the
    /// first step's accounting.
    cpu_carry: Nanos,
}

/// The k-of-n placement engine (see the module docs).
pub struct PlacementEngine {
    cap: Capture,
    codec: ShardCodec,
    replicas: Vec<Replica>,
    costs: nilicon_sim::CostModel,
    /// Page keys of each not-yet-committed epoch (drained at commit). While
    /// a repair is active, committed keys accumulate in `redirty` so the
    /// repaired replica can be topped up to the current committed state.
    epoch_keys: BTreeMap<u64, Vec<(Pid, u64)>>,
    /// Keys committed while the active repair streamed its base image.
    redirty: HashSet<(Pid, u64)>,
    repair: Option<ActiveRepair>,
    /// Test hook mirroring `NiLiConEngine::log_fail_after_chunks`: once the
    /// counter reaches the threshold, later chunks and the seal vanish in
    /// flight.
    pub log_fail_after_chunks: Option<u64>,
    /// Test hook mirroring `NiLiConEngine::stage_fail_at_chunk`: the
    /// designated replica's ingest stage crashes once at this chunk index
    /// and replays it from the upstream queue (received twice, applied
    /// once).
    pub stage_fail_at_chunk: Option<u64>,
}

impl std::fmt::Debug for PlacementEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementEngine")
            .field("codec", &self.codec)
            .field("alive", &self.alive_replicas())
            .finish()
    }
}

/// Stripe `pages` across the replicas in `targets`: one batch per target,
/// in `targets` order, holding that replica's fragment of every page
/// zero-padded into a fresh refcounted buffer for the agent's page store
/// (which holds 4 KiB units).
fn frag_boxed<'a>(
    codec: &mut ShardCodec,
    targets: &[usize],
    pages: impl IntoIterator<Item = &'a (Pid, u64, PageBuf)>,
) -> Vec<FragmentBatch> {
    let mut batches: Vec<FragmentBatch> = targets.iter().map(|_| Vec::new()).collect();
    for (pid, vpn, data) in pages {
        let frags = codec.encode(data);
        for (batch, &i) in batches.iter_mut().zip(targets) {
            let mut b = [0u8; PAGE_SIZE];
            b[..frags[i].len()].copy_from_slice(&frags[i]);
            batch.push((*pid, *vpn, std::rc::Rc::new(b)));
        }
    }
    batches
}

impl PlacementEngine {
    /// New engine for `opts.backups` replicas with quorum `opts.quorum`.
    /// Requires the staged transfer path and composes with neither the
    /// delta nor the COW extension.
    pub fn new(opts: OptimizationConfig, costs: nilicon_sim::CostModel) -> SimResult<Self> {
        if !opts.staging_buffer {
            return Err(SimError::Invalid(
                "placement requires the staging buffer (staged ack path)".into(),
            ));
        }
        if opts.delta_transfer || opts.cow_checkpoint {
            return Err(SimError::Invalid(
                "placement composes with neither delta_transfer nor cow_checkpoint".into(),
            ));
        }
        let codec = ShardCodec::new(opts.quorum, opts.backups)?;
        let replicas = (0..opts.backups)
            .map(|_| Replica {
                agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
                disk: BlockDevice::default(),
                alive: true,
            })
            .collect();
        Ok(PlacementEngine {
            cap: Capture::new(opts),
            codec,
            replicas,
            costs,
            epoch_keys: BTreeMap::new(),
            redirty: HashSet::new(),
            repair: None,
            log_fail_after_chunks: None,
            stage_fail_at_chunk: None,
        })
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.cap.opts
    }

    /// Bytes of one page fragment as stored per replica.
    pub fn frag_len(&self) -> usize {
        self.codec.frag_len()
    }

    /// Replicas currently alive.
    pub fn alive_replicas(&self) -> u32 {
        self.replicas.iter().filter(|r| r.alive).count() as u32
    }

    /// Mark replica `i` dead (test hook; the harness designates replica 0
    /// via [`Checkpointer::replica_fault`]).
    pub fn fail_replica(&mut self, i: usize) -> SimResult<()> {
        let r = self
            .replicas
            .get_mut(i)
            .ok_or_else(|| SimError::Invalid(format!("no replica {i}")))?;
        r.alive = false;
        Ok(())
    }

    /// Total fragment payload bytes currently stored across alive replicas
    /// (`stored pages × frag_len`, summed) — the memory-overhead metric of
    /// the (k, n) sweep.
    pub fn stored_fragment_bytes(&self) -> u64 {
        self.replicas
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.agent.stored_pages() as u64 * self.codec.frag_len() as u64)
            .sum()
    }

    fn alive_indices(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Commit `epoch` on replica `i`. Replica 0's disk is the harness's
    /// real backup kernel's device.
    fn commit_replica(&mut self, i: usize, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        let Replica { agent, disk, .. } = &mut self.replicas[i];
        agent.commit(epoch, if i == 0 { &mut backup.vfs.disk } else { disk })
    }

    /// Reconstruct the committed image byte-identically from the fragment
    /// stores of exactly `k` distinct replicas. This is the failover path's
    /// core and directly testable: any k-subset must produce the same image.
    pub fn reconstruct_committed(&mut self, replicas: &[usize]) -> SimResult<CheckpointImage> {
        let k = self.codec.k() as usize;
        if replicas.len() != k {
            return Err(SimError::Invalid(format!(
                "reconstruction needs exactly k={k} replicas, got {}",
                replicas.len()
            )));
        }
        let mut imgs = Vec::with_capacity(k);
        for &i in replicas {
            let r = self
                .replicas
                .get(i)
                .ok_or_else(|| SimError::Invalid(format!("no replica {i}")))?;
            imgs.push(r.agent.materialize()?);
        }
        // Metadata, sockets, and fs state replicate in full on every
        // replica; adopt the first one's and decode only the pages.
        let mut out = imgs[0].clone();
        if k == 1 {
            return Ok(out);
        }
        let n_pages = imgs[0].pages.len();
        for img in &imgs[1..] {
            if img.pages.len() != n_pages {
                return Err(SimError::Invalid(format!(
                    "replica fragment stores diverge: {} vs {n_pages} pages",
                    img.pages.len()
                )));
            }
        }
        let frag_len = self.codec.frag_len();
        let mut pages = Vec::with_capacity(n_pages);
        for p in 0..n_pages {
            let (pid, vpn, _) = imgs[0].pages[p];
            let mut frags = Vec::with_capacity(k);
            for (j, img) in imgs.iter().enumerate() {
                let (fpid, fvpn, ref data) = img.pages[p];
                if (fpid, fvpn) != (pid, vpn) {
                    return Err(SimError::Invalid(format!(
                        "replica fragment stores diverge at page {p}"
                    )));
                }
                frags.push((replicas[j], &data[..frag_len]));
            }
            let mut full = [0u8; PAGE_SIZE];
            self.codec.decode(&frags, &mut full)?;
            pages.push((pid, vpn, std::rc::Rc::new(full)));
        }
        out.pages = pages;
        Ok(out)
    }

    /// First `count` alive replica indices, erroring below the quorum.
    fn survivors(&self, count: usize) -> SimResult<Vec<usize>> {
        let alive = self.alive_indices();
        if alive.len() < count {
            return Err(SimError::Invalid(format!(
                "placement below quorum: {} alive, need {count}",
                alive.len()
            )));
        }
        Ok(alive[..count].to_vec())
    }
}

impl Checkpointer for PlacementEngine {
    fn name(&self) -> &'static str {
        "Placement"
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
        _backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        let k = self.codec.k() as usize;
        let alive = self.alive_indices();
        if alive.len() < k {
            return Err(SimError::Invalid(format!(
                "cannot checkpoint below quorum: {} alive, need {k}",
                alive.len()
            )));
        }
        let Stopped {
            mut img,
            msgs,
            wire,
            dirty_pages,
            stop_time,
        } = self.cap.stop_phase(primary, container, epoch, None)?;

        // --- Shard encode + parallel fan-out (ack path) ------------------
        // The container is already running. Erasure-code each dirty page
        // into n fragments and ship fragment i to replica i behind the
        // assembly barrier. All replica links run in parallel; each carries
        // the image chunks plus the DRBD writes and barrier.
        let wire_msgs = img.transfer_chunks() + msgs.len() as u64;
        let pages = std::mem::take(&mut img.pages);
        let n_pages = pages.len() as u64;
        let meta_bytes = img.state_bytes();
        let frag_len = self.codec.frag_len() as u64;
        let frag_bytes = n_pages * frag_len;
        let state_bytes = meta_bytes + frag_bytes + wire.bytes;
        let shard_commit = TraceEvent::ShardCommit {
            shards: self.codec.n(),
            pages: n_pages,
            frag_bytes,
        };

        self.epoch_keys.insert(
            epoch,
            pages.iter().map(|&(pid, vpn, _)| (pid, vpn)).collect(),
        );

        // Every alive replica opens the epoch's assembly with the metadata
        // image; the per-replica barrier gates the ack, so the committed
        // fragment stores are the same whether the pages arrive as one batch
        // or as staged chunks.
        let first = alive[0];
        let mut per_cpu: Vec<Nanos> = vec![0; self.replicas.len()];
        for &i in &alive {
            per_cpu[i] = self.replicas[i].agent.begin_assembly(img.clone(), n_pages);
        }
        // Stripe a batch of pages to the alive replicas. A staged chunk can
        // hit the designated replica's ingest-stage crash.
        let mut fan_out = |batch: &[(Pid, u64, PageBuf)], staged: Option<u64>| -> SimResult<()> {
            for (&i, frags) in alive.iter().zip(frag_boxed(&mut self.codec, &alive, batch)) {
                let cpu = self.replicas[i]
                    .agent
                    .ingest_chunk(epoch, frags, Vec::new())?;
                per_cpu[i] += cpu;
                if let (true, Some(chunk)) = (i == first, staged) {
                    let tracer = &self.cap.tracer;
                    per_cpu[i] +=
                        capture::stage_crash(&mut self.stage_fail_at_chunk, tracer, chunk, cpu);
                }
            }
            Ok(())
        };
        let costs = primary.costs.clone();
        let link = costs.repl_link_latency;
        let pipeline = self.cap.opts.pipeline;
        let t_send = if pipeline {
            // Staged pipeline: each chunk is erasure-coded and striped as
            // soon as it is encoded, on the shared bounded chunk clock.
            let meta = meta_bytes + wire.bytes;
            let meta_ser = self.cap.transfer_cost(&costs, meta, wire_msgs) - link;
            capture::pipeline_clock(&self.cap.tracer, &costs, meta_ser, &pages, |ci, chunk| {
                fan_out(chunk, Some(ci))?;
                // Replica links run in parallel: one chunk's wire time is a
                // single fragment batch.
                let n = chunk.len() as u64;
                Ok((n * costs.shard_encode_per_page, n * frag_len))
            })?
        } else {
            fan_out(&pages, None)?;
            0
        };
        for &i in &alive {
            let agent = &mut self.replicas[i].agent;
            agent.finish_assembly(epoch)?;
            per_cpu[i] += agent.ingest_drbd(msgs.clone());
        }
        let ingest_one = per_cpu[first];
        let ack_delay = if pipeline {
            // Shard encode moved to a background stage: the marker keeps the
            // fan-out observable while Transfer + BackupIngest + Ack tile
            // the ack delay.
            self.cap.tracer.mark(shard_commit);
            self.cap
                .ack_spans(state_bytes, t_send + link, 0, ingest_one, link);
            t_send + link + ingest_one + link
        } else {
            let shard_cpu = n_pages * costs.shard_encode_per_page;
            let transfer = self.cap.transfer_cost(&costs, state_bytes, wire_msgs);
            self.cap.tracer.span(shard_commit, shard_cpu);
            self.cap
                .ack_spans(state_bytes, transfer, 0, ingest_one, link);
            shard_cpu + transfer + ingest_one + link
        };
        self.cap.set_backlog(ack_delay);

        Ok(CheckpointOutcome {
            stop_time,
            state_bytes,
            dirty_pages,
            ack_delay,
            backup_cpu: per_cpu.iter().sum(),
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.cap.pipeline_advance(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.cap.prune_logs(epoch);
        let mut cpu: Nanos = 0;
        let mut marked = false;
        for i in self.alive_indices() {
            cpu += self.commit_replica(i, backup, epoch)?;
            if !marked && self.cap.tracer.enabled() {
                let (probes, disk_pages) = self.replicas[i].agent.last_commit_stats();
                self.cap
                    .tracer
                    .mark(TraceEvent::BackupCommit { probes, disk_pages });
                marked = true;
            }
        }
        // Track what the active repair's base image now misses.
        let pending = self.epoch_keys.split_off(&(epoch + 1));
        let committed = std::mem::replace(&mut self.epoch_keys, pending);
        if self.repair.is_some() {
            self.redirty.extend(committed.into_values().flatten());
        }
        Ok(cpu)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        let k = self.codec.k() as usize;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            r.agent.discard_uncommitted();
        }
        let survivors = self.survivors(k)?;
        let img = self.reconstruct_committed(&survivors)?;
        let decode_cpu = if k > 1 {
            img.pages.len() as u64 * backup.costs.shard_decode_per_page
        } else {
            0
        };
        let (restored, mut report) = self.cap.restore(backup, &img)?;

        // If the designated replica (whose disk IS the backup kernel's) is
        // dead, resync the kernel disk from a surviving replica's device.
        if !self.replicas[0].alive {
            let src = survivors
                .iter()
                .copied()
                .find(|&i| i != 0)
                .or_else(|| self.alive_indices().into_iter().find(|&i| i != 0))
                .ok_or_else(|| {
                    SimError::Invalid("no surviving replica disk to resync from".into())
                })?;
            for w in self.replicas[src].disk.full_sync_writes() {
                backup.vfs.disk.apply_replicated(&w);
                report.disk_pages_committed += 1;
            }
        }
        report.others +=
            decode_cpu + report.disk_pages_committed * backup.costs.restore_disk_per_page;
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.replicas
            .iter()
            .filter(|r| r.alive)
            .filter_map(|r| r.agent.committed_epoch())
            .max()
    }

    fn supports_rearm(&self) -> bool {
        self.cap.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // Every replica-side structure restarts empty on fresh hosts.
        for r in &mut self.replicas {
            r.agent = BackupAgent::new(self.costs.clone(), self.cap.opts.optimize_criu);
            r.disk = BlockDevice::default();
            r.alive = true;
        }
        self.epoch_keys.clear();
        self.redirty.clear();
        self.repair = None;
        self.cap.rearm(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        let replicas = &mut self.replicas;
        self.cap
            .bootstrap_begin(primary, container, epoch, |img, msgs, total| {
                let mut cpu = 0;
                for r in replicas.iter_mut().filter(|r| r.alive) {
                    cpu += r.agent.begin_assembly(img.clone(), total);
                    cpu += r.agent.ingest_drbd(msgs.clone());
                }
                cpu
            })
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let alive = self.alive_indices();
        let bytes_per_page = self.codec.frag_len() as u64 * alive.len() as u64;
        let (codec, replicas) = (&mut self.codec, &mut self.replicas);
        self.cap
            .bootstrap_step(primary, max_pages, bytes_per_page, |p, pid, chunk| {
                let n = chunk.len() as u64;
                let chunk: Vec<_> = chunk.into_iter().map(|(vpn, d)| (pid, vpn, d)).collect();
                let mut cpu = n * p.costs.shard_encode_per_page;
                for (&i, batch) in alive.iter().zip(frag_boxed(codec, &alive, &chunk)) {
                    cpu += replicas[i].agent.ingest_chunk(epoch, batch, Vec::new())?;
                }
                Ok(cpu)
            })
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        let mut cpu: Nanos = 0;
        for i in self.alive_indices() {
            let agent = &mut self.replicas[i].agent;
            agent.finish_assembly(epoch)?;
            if !agent.epoch_complete(epoch) {
                return Err(SimError::Invalid(format!(
                    "bootstrap epoch {epoch} sealed without its disk barrier on replica {i}"
                )));
            }
            cpu += self.commit_replica(i, backup, epoch)?;
        }
        self.cap.end_bootstrap();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        self.cap.bootstrap_abort(primary)?;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            let _ = r.agent.discard_uncommitted();
        }
        Ok(())
    }

    fn supports_placement(&self) -> bool {
        self.cap.opts.backups > 1
    }

    fn placement(&self) -> (u32, u32) {
        (self.codec.k(), self.codec.n())
    }

    fn replica_fault(&mut self) -> SimResult<u32> {
        self.replicas[0].alive = false;
        Ok(self.alive_replicas())
    }

    fn repair_begin(&mut self, _epoch: u64) -> SimResult<RepairBegin> {
        if self.repair.is_some() {
            return Err(SimError::Invalid("a repair is already active".into()));
        }
        let target = self
            .replicas
            .iter()
            .position(|r| !r.alive)
            .ok_or_else(|| SimError::Invalid("repair_begin with no dead replica".into()))?;
        let k = self.codec.k() as usize;
        let survivors = self.survivors(k)?;
        let base = self.reconstruct_committed(&survivors)?;
        let base_epoch = base.epoch;
        let mut meta = base.clone();
        let base_pages = std::mem::take(&mut meta.pages);
        let total_pages = base_pages.len() as u64;
        let state_bytes = meta.state_bytes();

        // Fresh agent on the replacement host; the base image's metadata
        // opens its assembly (sealed by `repair_finish`). Epochs committed
        // while the base streams accumulate in `redirty` and are topped up
        // at finish — the target is excluded from epoch traffic until then.
        self.replicas[target].agent =
            BackupAgent::new(self.costs.clone(), self.cap.opts.optimize_criu);
        self.replicas[target].disk = BlockDevice::default();
        let cpu_carry = self.replicas[target]
            .agent
            .begin_assembly(meta, total_pages);
        self.redirty.clear();
        self.repair = Some(ActiveRepair {
            target,
            base_pages,
            cursor: 0,
            base_epoch,
            cpu_carry,
        });
        Ok(RepairBegin {
            total_pages,
            state_bytes,
        })
    }

    fn repair_step(&mut self, _epoch: u64, max_pages: u64) -> SimResult<BootstrapStep> {
        let Some(mut rep) = self.repair.take() else {
            return Err(SimError::Invalid(
                "repair_step with no active repair".into(),
            ));
        };
        let take = ((rep.base_pages.len() - rep.cursor) as u64).min(max_pages) as usize;
        let span = &rep.base_pages[rep.cursor..rep.cursor + take];
        let batch = frag_boxed(&mut self.codec, &[rep.target], span).remove(0);
        rep.cursor += take;
        let k = self.codec.k() as u64;
        let frag_len = self.codec.frag_len() as u64;
        let pages = take as u64;
        // The replacement host reads k committed fragments per page from
        // the surviving peers (the RS repair read amplification), decodes,
        // and re-encodes its own fragment.
        let bytes = pages * frag_len * k;
        let mut backup_cpu = std::mem::take(&mut rep.cpu_carry)
            + pages * (self.costs.shard_decode_per_page + self.costs.shard_encode_per_page);
        backup_cpu +=
            self.replicas[rep.target]
                .agent
                .ingest_chunk(rep.base_epoch, batch, Vec::new())?;
        let remaining = (rep.base_pages.len() - rep.cursor) as u64;
        self.repair = Some(rep);
        Ok(BootstrapStep {
            pages,
            bytes,
            backup_cpu,
            remaining,
        })
    }

    fn repair_finish(&mut self, backup: &mut Kernel, _epoch: u64) -> SimResult<Nanos> {
        let Some(rep) = self.repair.take() else {
            return Err(SimError::Invalid(
                "repair_finish with no active repair".into(),
            ));
        };
        if rep.cursor < rep.base_pages.len() {
            self.repair = Some(rep);
            return Err(SimError::Invalid(
                "repair base image not fully streamed".into(),
            ));
        }
        let target = rep.target;
        let k = self.codec.k() as usize;

        // Disk resync: one full-device snapshot from a surviving replica,
        // current as of the latest committed epoch, rides the target's DRBD
        // stream behind the base epoch's barrier.
        let src = self
            .alive_indices()
            .into_iter()
            .find(|&i| i != target && i != 0)
            .map(|i| self.replicas[i].disk.full_sync_writes())
            .unwrap_or_else(|| backup.vfs.disk.full_sync_writes());
        let mut msgs: Vec<DrbdMsg> = src.into_iter().map(DrbdMsg::Write).collect();
        msgs.push(DrbdMsg::Barrier(rep.base_epoch));

        let agent = &mut self.replicas[target].agent;
        let mut cpu = agent.ingest_drbd(msgs);
        agent.finish_assembly(rep.base_epoch)?;
        cpu += self.commit_replica(target, backup, rep.base_epoch)?;

        // Top-up: pages committed while the base streamed, at their current
        // committed values, plus the current metadata image.
        if !self.redirty.is_empty() {
            let survivors = self.survivors(k)?;
            let current = self.reconstruct_committed(&survivors)?;
            let cur_epoch = current.epoch;
            if cur_epoch <= rep.base_epoch {
                return Err(SimError::Invalid(format!(
                    "redirty pages with no later committed epoch ({cur_epoch} <= {})",
                    rep.base_epoch
                )));
            }
            let mut meta = current.clone();
            let all_pages = std::mem::take(&mut meta.pages);
            let redirty = &self.redirty;
            let dirty = all_pages
                .iter()
                .filter(|(pid, vpn, _)| redirty.contains(&(*pid, *vpn)));
            let batch = frag_boxed(&mut self.codec, &[target], dirty).remove(0);
            let n = batch.len() as u64;
            cpu += n * (self.costs.shard_decode_per_page + self.costs.shard_encode_per_page);
            let agent = &mut self.replicas[target].agent;
            cpu += agent.begin_assembly(meta, n);
            cpu += agent.ingest_chunk(cur_epoch, batch, Vec::new())?;
            cpu += agent.ingest_drbd(vec![DrbdMsg::Barrier(cur_epoch)]);
            agent.finish_assembly(cur_epoch)?;
            cpu += self.commit_replica(target, backup, cur_epoch)?;
        }
        self.redirty.clear();
        self.replicas[target].alive = true;
        Ok(cpu)
    }

    fn repair_abort(&mut self) -> SimResult<()> {
        let Some(rep) = self.repair.take() else {
            return Err(SimError::Invalid(
                "repair_abort with no active repair".into(),
            ));
        };
        // The replacement host died with its half-regenerated store; the
        // target stays dead until a later attempt rebuilds it from scratch.
        let _ = self.replicas[rep.target].agent.discard_uncommitted();
        self.redirty.clear();
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
        // Each replica receives one fragment of ceil(bytes/k); a chunk
        // counts as committed at the k-th ack. The store holds the logical
        // (reconstructible) log — checkpoint already refuses below quorum,
        // so a stored chunk is always decodable from the survivors.
        let fanout = self.alive_replicas() as usize;
        let k = self.codec.k() as u64;
        self.cap.ship_log(
            &primary.costs,
            epoch,
            events,
            k,
            fanout,
            self.log_fail_after_chunks,
        )
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        self.cap.seal_log(epoch, self.log_fail_after_chunks)
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        let committed = self.committed_epoch();
        self.cap.take_replay_tail(committed)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::nilicon_engine::NiLiConEngine;
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};

    fn placement_opts(k: u32, n: u32) -> OptimizationConfig {
        let mut opts = OptimizationConfig::nilicon();
        opts.backups = n;
        opts.quorum = k;
        opts
    }

    fn setup(k: u32, n: u32) -> (Kernel, Kernel, Container, PlacementEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let engine = PlacementEngine::new(placement_opts(k, n), primary.costs.clone()).unwrap();
        (primary, backup, c, engine)
    }

    fn writes(epoch: u64) -> Vec<(u64, u8)> {
        vec![
            (epoch % 5, epoch as u8),
            (20 + epoch, 0xB0 | epoch as u8),
            (7, epoch.wrapping_mul(13) as u8),
        ]
    }

    fn apply(p: &mut Kernel, c: &Container, epoch: u64) {
        for (page, val) in writes(epoch) {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                .unwrap();
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let costs = nilicon_sim::CostModel::default();
        let mut opts = placement_opts(2, 3);
        opts.staging_buffer = false;
        assert!(PlacementEngine::new(opts, costs.clone()).is_err());
        let mut opts = placement_opts(2, 3);
        opts.delta_transfer = true;
        assert!(PlacementEngine::new(opts, costs.clone()).is_err());
        assert!(PlacementEngine::new(placement_opts(4, 3), costs.clone()).is_err());
        assert!(PlacementEngine::new(placement_opts(0, 2), costs).is_err());
    }

    #[test]
    fn epochs_commit_and_reconcile_across_placements() {
        for (k, n) in [(1u32, 2u32), (2, 3), (3, 5)] {
            let (mut p, mut b, c, mut e) = setup(k, n);
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            for epoch in 1..=3u64 {
                apply(&mut p, &c, epoch);
                tracer.begin_epoch(epoch, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                tracer.reconcile(epoch, o.stop_time, o.ack_delay).unwrap();
                assert!(o.ack_delay > 0, "staged ack path");
                e.commit(&mut b, epoch).unwrap();
            }
            assert_eq!(e.committed_epoch(), Some(3), "(k={k},n={n})");
            let shard_spans = ring
                .snapshot()
                .iter()
                .filter(|r| matches!(r.kind, TraceEvent::ShardCommit { .. }))
                .count();
            assert_eq!(shard_spans, 3, "one ShardCommit span per epoch");
        }
    }

    #[test]
    fn any_k_subset_reconstructs_identical_image() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=4u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        let ref_img = e.reconstruct_committed(&[0, 1]).unwrap();
        assert!(!ref_img.pages.is_empty());
        for subset in [[0usize, 2], [1, 2]] {
            let img = e.reconstruct_committed(&subset).unwrap();
            assert_eq!(img.pages.len(), ref_img.pages.len());
            for (a, r) in img.pages.iter().zip(ref_img.pages.iter()) {
                assert_eq!((a.0, a.1), (r.0, r.1));
                assert_eq!(a.2, r.2, "page {:?}/{:#x} from {subset:?}", a.0, a.1);
            }
        }
    }

    #[test]
    fn placement_image_matches_single_backup_nilicon() {
        // Both engines run the one shared stop phase: every epoch they stop
        // the container for the same time, capture the same dirty pages and
        // emit the same stop-phase records, and a rearm's bootstrap capture
        // matches too. The committed image reconstructed from shards must
        // be byte-identical to the image a plain NiLiCon warm backup holds
        // after the same writes.
        let run = |e: &mut dyn Checkpointer, p: &mut Kernel, b: &mut Kernel, c: &Container| {
            let (tracer, ring) = Tracer::in_memory(1024);
            e.set_tracer(tracer.clone());
            e.prepare(p, c).unwrap();
            let mut stops = Vec::new();
            for epoch in 1..=5u64 {
                apply(p, c, epoch);
                tracer.begin_epoch(epoch, 0);
                let o = e.checkpoint(p, b, c, epoch).unwrap();
                e.commit(b, epoch).unwrap();
                stops.push((o.stop_time, o.dirty_pages));
            }
            let stop_records: Vec<_> = ring
                .snapshot()
                .into_iter()
                .filter(|r| {
                    matches!(
                        r.kind,
                        TraceEvent::Freeze
                            | TraceEvent::Dump { .. }
                            | TraceEvent::DumpDetail { .. }
                            | TraceEvent::LocalCopy
                            | TraceEvent::DrbdShip { .. }
                    )
                })
                .collect();
            (stops, stop_records)
        };
        let bootstrap = |e: &mut dyn Checkpointer, p: &mut Kernel, c: &Container| {
            e.rearm_prepare(p, c).unwrap();
            let begin = e.bootstrap_begin(p, c, 6).unwrap();
            (begin.stop_time, begin.total_pages, begin.state_bytes)
        };

        let mut opts = OptimizationConfig::nilicon();
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca =
            ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut ea = NiLiConEngine::new(opts, pa.costs.clone());
        let (stops_a, records_a) = run(&mut ea, &mut pa, &mut ba, &ca);
        let img_a = ea.agent.materialize().unwrap();

        opts.backups = 3;
        opts.quorum = 2;
        let mut pb = Kernel::default();
        let mut bb = Kernel::default();
        let cb =
            ContainerRuntime::create(&mut pb, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut eb = PlacementEngine::new(opts, pb.costs.clone()).unwrap();
        let (stops_b, records_b) = run(&mut eb, &mut pb, &mut bb, &cb);
        let img_b = eb.reconstruct_committed(&[1, 2]).unwrap();

        assert_eq!(stops_a, stops_b, "per-epoch (stop_time, dirty_pages)");
        assert_eq!(records_a.len(), 5 * 5, "five stop-phase records per epoch");
        assert_eq!(records_a, records_b, "stop-phase trace records");
        assert_eq!(img_a.pages.len(), img_b.pages.len());
        for (x, y) in img_a.pages.iter().zip(img_b.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "page {:?}/{:#x} diverged", x.0, x.1);
        }
        assert_eq!(pa.vfs.disk.digest(), pb.vfs.disk.digest());
        assert_eq!(ba.vfs.disk.digest(), bb.vfs.disk.digest());

        assert_eq!(
            bootstrap(&mut ea, &mut pa, &ca),
            bootstrap(&mut eb, &mut pb, &cb),
            "bootstrap (stop_time, total_pages, state_bytes)"
        );
    }

    #[test]
    fn coded_storage_beats_mirroring() {
        let run = |k: u32, n: u32| {
            let (mut p, mut b, c, mut e) = setup(k, n);
            e.prepare(&mut p, &c).unwrap();
            for epoch in 1..=3u64 {
                apply(&mut p, &c, epoch);
                e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                e.commit(&mut b, epoch).unwrap();
            }
            let stored = e.stored_fragment_bytes();
            let unreplicated = e.reconstruct_committed(&(0..k as usize).collect::<Vec<_>>())
                .unwrap()
                .pages
                .len() as u64
                * PAGE_SIZE as u64;
            (stored, unreplicated)
        };
        let (mirr, base) = run(1, 2);
        assert_eq!(mirr, 2 * base, "(1,2) is exactly 2x mirroring");
        let (coded, base23) = run(2, 3);
        assert_eq!(base23, base);
        assert!(
            coded * 2 == 3 * base,
            "(2,3) stores exactly 1.5x: {coded} vs base {base}"
        );
        assert!(coded < mirr, "coded placement beats mirroring");
    }

    #[test]
    fn degraded_commit_and_failover_from_k_survivors() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        for epoch in 1..=2u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        // The designated replica dies; the quorum (2 of 3) holds.
        assert_eq!(e.replica_fault().unwrap(), 2);
        // Epochs keep committing on the survivors.
        apply(&mut p, &c, 3);
        let mut dead_backup = Kernel::default(); // fresh replacement host
        e.checkpoint(&mut p, &mut dead_backup, &c, 3).unwrap();
        e.commit(&mut dead_backup, 3).unwrap();
        assert_eq!(e.committed_epoch(), Some(3));

        // Primary fault in degraded mode: failover onto the fresh host,
        // reconstructed from the two survivors, disk resynced.
        let (restored, report) = e.failover(&mut dead_backup).unwrap();
        restored.finish(&mut dead_backup).unwrap();
        let mut buf = [0u8; 9];
        dead_backup
            .mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed");
        assert_eq!(
            dead_backup.vfs.disk.digest(),
            p.vfs.disk.digest(),
            "disk resynced from a surviving replica"
        );
        assert!(report.others > 0);
    }

    #[test]
    fn below_quorum_checkpoint_fails() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        apply(&mut p, &c, 1);
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.replica_fault().unwrap();
        e.fail_replica(1).unwrap();
        apply(&mut p, &c, 2);
        assert!(
            e.checkpoint(&mut p, &mut b, &c, 2).is_err(),
            "1 alive < k=2: epochs cannot ack"
        );
    }

    #[test]
    fn coded_repair_restores_full_redundancy() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=3u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        let before = e.reconstruct_committed(&[1, 2]).unwrap();
        assert_eq!(e.replica_fault().unwrap(), 2);

        // Repair streams the base in bounded chunks while epochs keep
        // committing (re-dirtying pages mid-repair).
        let mut fresh = Kernel::default();
        let begin = e.repair_begin(3).unwrap();
        assert!(begin.total_pages > 0);
        let mut streamed = 0u64;
        let mut steps = 0;
        loop {
            apply(&mut p, &c, 4 + steps);
            e.checkpoint(&mut p, &mut fresh, &c, 4 + steps).unwrap();
            e.commit(&mut fresh, 4 + steps).unwrap();
            let s = e.repair_step(4 + steps, 2).unwrap();
            streamed += s.pages;
            steps += 1;
            if s.remaining == 0 {
                break;
            }
            assert!(steps < 10_000, "repair must terminate");
        }
        assert!(steps > 1, "base streamed across multiple bounded steps");
        assert_eq!(streamed, begin.total_pages);
        e.repair_finish(&mut fresh, 4 + steps).unwrap();
        assert_eq!(e.alive_replicas(), 3, "full redundancy restored");

        // The repaired replica participates in reconstruction: any pair
        // including replica 0 yields the same image as the survivors.
        let via_repaired = e.reconstruct_committed(&[0, 2]).unwrap();
        let via_survivors = e.reconstruct_committed(&[1, 2]).unwrap();
        assert_eq!(via_repaired.pages.len(), via_survivors.pages.len());
        for (x, y) in via_repaired.pages.iter().zip(via_survivors.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "repaired fragment diverged at {:?}/{:#x}", x.0, x.1);
        }
        assert!(
            via_repaired.pages.len() >= before.pages.len(),
            "mid-repair commits are included"
        );
        // And the repaired host's disk matches the primary's.
        assert_eq!(fresh.vfs.disk.digest(), p.vfs.disk.digest());

        // Incremental epochs now fan out to all three replicas again.
        apply(&mut p, &c, 100);
        e.checkpoint(&mut p, &mut fresh, &c, 100).unwrap();
        e.commit(&mut fresh, 100).unwrap();
        assert_eq!(e.committed_epoch(), Some(100));
    }

    #[test]
    fn repair_abort_leaves_survivors_serving() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=2u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(2).unwrap();
        e.repair_step(2, 4).unwrap();
        // The replacement dies mid-repair.
        e.repair_abort().unwrap();
        assert_eq!(e.alive_replicas(), 2);
        // Epochs continue on the survivors; a second attempt succeeds.
        apply(&mut p, &c, 3);
        e.checkpoint(&mut p, &mut fresh, &c, 3).unwrap();
        e.commit(&mut fresh, 3).unwrap();
        e.repair_begin(3).unwrap();
        loop {
            if e.repair_step(3, 64).unwrap().remaining == 0 {
                break;
            }
        }
        e.repair_finish(&mut fresh, 3).unwrap();
        assert_eq!(e.alive_replicas(), 3);
    }

    #[test]
    fn migration_degenerate_k1_n1_streams_and_fails_over() {
        // Planned live migration = the (1,1) placement driven through the
        // bootstrap flow to a deliberate failover on the destination.
        let mut opts = placement_opts(1, 1);
        opts.rearm = true;
        let mut source = Kernel::default();
        let mut dest = Kernel::default();
        let c =
            ContainerRuntime::create(&mut source, &ContainerSpec::server("web", 10, 80)).unwrap();
        let mut e = PlacementEngine::new(opts, source.costs.clone()).unwrap();
        e.prepare(&mut source, &c).unwrap();
        source
            .mem_write(c.init_pid(), MemLayout::heap(0), b"precious")
            .unwrap();
        for page in 1..120u64 {
            source
                .mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8 | 1])
                .unwrap();
        }
        let begin = e.bootstrap_begin(&mut source, &c, 1).unwrap();
        assert!(begin.total_pages > 0);
        // The source keeps serving (and writing) while the image streams.
        source
            .mem_write(c.init_pid(), MemLayout::heap_page(3), &[0xEE])
            .unwrap();
        let mut steps = 0;
        loop {
            if e.bootstrap_step(&mut source, 1, 64).unwrap().remaining == 0 {
                break;
            }
            steps += 1;
            assert!(steps < 1000);
        }
        e.bootstrap_finish(&mut dest, 1).unwrap();
        let (restored, _) = e.failover(&mut dest).unwrap();
        restored.finish(&mut dest).unwrap();
        let mut buf = [0u8; 8];
        dest.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"precious");
        // COW preserved the pre-write content of the page mutated
        // mid-stream: the migrated image is the checkpoint-time state.
        let mut pg = [0u8; 1];
        dest.mem_read(
            restored.container.init_pid(),
            MemLayout::heap_page(3),
            &mut pg,
        )
        .unwrap();
        assert_eq!(pg[0], 3 | 1, "pre-migration content, not the late write");
    }

    #[test]
    fn log_chunks_ride_the_coded_fanout() {
        let mut opts = placement_opts(2, 3);
        opts.hybrid_replay = true;
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c =
            ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        let ev = ReplayEvent::Request {
            pid: c.init_pid(),
            at: 5,
            payload: vec![0xAA; 300],
            response_hash: 7,
            response_len: 4,
        };
        let o = e.ship_log(&mut p, 2, std::slice::from_ref(&ev)).unwrap();
        // n fragments of ceil(bytes/k): wire total is 1.5x the raw chunk,
        // but the parallel quorum commit still lands at link scale.
        let raw = ev.byte_len();
        assert_eq!(o.bytes, raw.div_ceil(2) * 3);
        assert!(o.commit_latency < nilicon_sim::time::MILLISECOND);
        e.seal_log(2).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(!tail.dropped_partial);
        assert_eq!(tail.logs.len(), 1);
        assert_eq!(tail.events(), 1);
    }

    #[test]
    fn placement_log_loss_yields_partial_tail() {
        let mut opts = placement_opts(2, 3);
        opts.hybrid_replay = true;
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c =
            ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.log_fail_after_chunks = Some(1); // first chunk lands, rest lost
        let ev = ReplayEvent::Step {
            pid: c.init_pid(),
            at: 1,
            done: true,
        };
        e.ship_log(&mut p, 2, std::slice::from_ref(&ev)).unwrap();
        e.ship_log(&mut p, 2, &[ev]).unwrap(); // lost in flight
        e.seal_log(2).unwrap(); // seal lost too
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.dropped_partial, "unsealed epoch-2 log is unusable");
        assert!(tail.logs.is_empty());
    }
}
