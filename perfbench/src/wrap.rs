//! Host-clock timing decorators for the three seams the harness calls:
//! [`Application`], [`ClientBehavior`] and [`Checkpointer`].
//!
//! Each decorator forwards every trait method to the wrapped object —
//! including the default-bodied ones, so an engine's `supports_*`,
//! `placement`, rearm, repair and replay behaviour is unchanged — and
//! records a host span around the calls that do work. Nothing inside the
//! program changes; the spans are kept in memory by a [`Recorder`] and
//! written out when the benchmark ends.

use nilicon::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    RepairBegin, ReplayTail,
};
use nilicon::trace::Tracer;
use nilicon::traffic::ClientBehavior;
use nilicon_container::{Application, Container, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_criu::RestoredContainer;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The layer a host span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One `RunHarness::run_epochs` call: the parent of every other span.
    Run,
    /// Guest execution: `Application` calls.
    App,
    /// Client generation and validation: `ClientBehavior` calls.
    Client,
    /// `Checkpointer::checkpoint`: freeze, dump, local copy, staging.
    Checkpoint,
    /// `Checkpointer::commit`: the backup commit at ack time.
    Commit,
    /// `Checkpointer::failover`: restore on the backup.
    Failover,
    /// Every other engine call (prepare, pipeline, log, rearm, repair).
    Engine,
}

impl Layer {
    /// Name used in reports and in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::App => "app",
            Layer::Client => "client",
            Layer::Checkpoint => "checkpoint",
            Layer::Commit => "commit",
            Layer::Failover => "failover",
            Layer::Engine => "engine",
        }
    }
}

/// One host-clock span.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// Layer charged.
    pub layer: Layer,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// Fault trial (harness instance) the span belongs to.
    pub trial: u32,
    /// Epoch that caused the span (the harness's epoch counter).
    pub epoch: u64,
    /// Work units: dirty pages for checkpoint spans, 0 otherwise.
    pub work: u64,
}

impl HostSpan {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory host span store shared by all decorators of one run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    trial: Cell<u32>,
    epoch: Cell<u64>,
    spans: RefCell<Vec<HostSpan>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Rc<Self> {
        Rc::new(Recorder {
            origin: Instant::now(),
            trial: Cell::new(0),
            epoch: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Attribute the following spans to `trial` / `epoch`.
    pub fn set_cause(&self, trial: u32, epoch: u64) {
        self.trial.set(trial);
        self.epoch.set(epoch);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`; `work` reads the work units off
    /// its result.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T, work: impl Fn(&T) -> u64) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.borrow_mut().push(HostSpan {
            layer,
            start,
            end,
            trial: self.trial.get(),
            epoch: self.epoch.get(),
            work: work(&out),
        });
        out
    }

    /// Copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<HostSpan> {
        self.spans.borrow().clone()
    }
}

fn none<T>(_: &T) -> u64 {
    0
}

/// [`Application`] decorator.
pub struct TimedApp {
    inner: Box<dyn Application>,
    rec: Rc<Recorder>,
}

impl TimedApp {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Application>, rec: Rc<Recorder>) -> Self {
        TimedApp { inner, rec }
    }
}

impl Application for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.rec.time(Layer::App, || self.inner.init(ctx), none)
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        self.rec
            .time(Layer::App, || self.inner.handle_request(ctx, req), none)
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        self.rec.time(Layer::App, || self.inner.step(ctx), none)
    }

    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.rec.time(Layer::App, || self.inner.recover(ctx), none)
    }

    fn is_server(&self) -> bool {
        self.inner.is_server()
    }
}

/// [`ClientBehavior`] decorator.
pub struct TimedClients {
    inner: Box<dyn ClientBehavior>,
    rec: Rc<Recorder>,
}

impl TimedClients {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ClientBehavior>, rec: Rc<Recorder>) -> Self {
        TimedClients { inner, rec }
    }
}

impl ClientBehavior for TimedClients {
    fn client_count(&self) -> usize {
        self.inner.client_count()
    }

    fn next_request(&mut self, idx: usize, now: Nanos) -> Option<Vec<u8>> {
        self.rec
            .time(Layer::Client, || self.inner.next_request(idx, now), none)
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, latency: Nanos) {
        self.rec.time(
            Layer::Client,
            || self.inner.on_response(idx, resp, now, latency),
            none,
        )
    }

    fn verify(&self) -> Result<(), String> {
        self.inner.verify()
    }
}

/// [`Checkpointer`] decorator.
pub struct TimedCheckpointer {
    inner: Box<dyn Checkpointer>,
    rec: Rc<Recorder>,
}

impl TimedCheckpointer {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Checkpointer>, rec: Rc<Recorder>) -> Self {
        TimedCheckpointer { inner, rec }
    }
}

impl Checkpointer for TimedCheckpointer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.rec.time(
            Layer::Engine,
            || self.inner.prepare(primary, container),
            none,
        )
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        self.rec.time(
            Layer::Checkpoint,
            || self.inner.checkpoint(primary, backup, container, epoch),
            |r| r.as_ref().map_or(0, |o| o.dirty_pages),
        )
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.rec
            .time(Layer::Commit, || self.inner.commit(backup, epoch), none)
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.rec
            .time(Layer::Engine, || self.inner.pipeline_advance(elapsed), none)
    }

    fn inject_stage_fail(&mut self, chunk: u64) {
        self.inner.inject_stage_fail(chunk)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.rec
            .time(Layer::Failover, || self.inner.failover(backup), none)
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.inner.committed_epoch()
    }

    fn supports_rearm(&self) -> bool {
        self.inner.supports_rearm()
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.rec.time(
            Layer::Engine,
            || self.inner.rearm_prepare(primary, container),
            none,
        )
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        self.rec.time(
            Layer::Engine,
            || self.inner.bootstrap_begin(primary, container, epoch),
            none,
        )
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        self.rec.time(
            Layer::Engine,
            || self.inner.bootstrap_step(primary, epoch, max_pages),
            none,
        )
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.rec.time(
            Layer::Engine,
            || self.inner.bootstrap_finish(backup, epoch),
            none,
        )
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.rec.time(
            Layer::Engine,
            || self.inner.bootstrap_abort(primary, container),
            none,
        )
    }

    fn supports_placement(&self) -> bool {
        self.inner.supports_placement()
    }

    fn placement(&self) -> (u32, u32) {
        self.inner.placement()
    }

    fn replica_fault(&mut self) -> SimResult<u32> {
        self.rec
            .time(Layer::Engine, || self.inner.replica_fault(), none)
    }

    fn repair_begin(&mut self, epoch: u64) -> SimResult<RepairBegin> {
        self.rec
            .time(Layer::Engine, || self.inner.repair_begin(epoch), none)
    }

    fn repair_step(&mut self, epoch: u64, max_pages: u64) -> SimResult<BootstrapStep> {
        self.rec.time(
            Layer::Engine,
            || self.inner.repair_step(epoch, max_pages),
            none,
        )
    }

    fn repair_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.rec.time(
            Layer::Engine,
            || self.inner.repair_finish(backup, epoch),
            none,
        )
    }

    fn repair_abort(&mut self) -> SimResult<()> {
        self.rec
            .time(Layer::Engine, || self.inner.repair_abort(), none)
    }

    fn supports_replay(&self) -> bool {
        self.inner.supports_replay()
    }

    fn ship_log(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        self.rec.time(
            Layer::Engine,
            || self.inner.ship_log(primary, epoch, events),
            none,
        )
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        self.rec
            .time(Layer::Engine, || self.inner.seal_log(epoch), none)
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        self.rec
            .time(Layer::Engine, || self.inner.take_replay_tail(), none)
    }
}
