//! Thread-parallel driver for the sharded engine: one worker thread per
//! shard (or a striped subset when `threads < shards`), batched
//! cross-shard routing, and lock-free stat/deadline aggregation.
//!
//! [`ShardedEngine`](super::ShardedEngine) made shard count a knob but
//! still executes every shard on the caller's thread. At ensemble scale
//! the per-shard work — heap maintenance, tracker updates, slab walks —
//! is embarrassingly parallel: shards share no state by construction.
//! [`ParallelShardedEngine`] exploits that: each shard (engine + deadline
//! heap + in-flight slab + local→global id map) is **owned** by a
//! dedicated worker thread, and the facade routes submissions, acks and
//! timeout scans to shards through bounded per-thread queues as batches
//! of shard-local inputs. Workers translate their shard-local actions
//! back to global ids before replying, so translation cost parallelizes
//! too. Statistics, live-workflow counts and the merged `next_deadline`
//! are published by workers into per-shard atomic cells after every batch
//! and merged on read — no global lock anywhere on the hot path.
//!
//! Two operating modes share the same machinery:
//!
//! * **Deterministic barrier mode** — the [`EngineCore`] implementation.
//!   Every trait call flushes its inputs and blocks until the owning
//!   worker(s) reply, appending replies in **shard index order**. Within
//!   a shard, processing order equals enqueue order, and shards are
//!   state-independent, so every call produces the byte-identical action
//!   sequence the sequential [`ShardedEngine`](super::ShardedEngine)
//!   would: virtual-time drivers (the testkit oracle's engine arm, the
//!   shard-invariance property) get bit-identical outcomes while the
//!   per-shard compute still runs on worker cores.
//! * **Free-running mode** — the `enqueue_*`/`flush`/`poll_actions`
//!   surface used by the threaded realtime master. Inputs are buffered
//!   per shard, flushed in batches (the `ack_burst` pattern, applied per
//!   shard), and replies are drained opportunistically; with a
//!   [`DispatchSink`] installed, workers publish dispatches straight onto
//!   their shard's topic without ever crossing back through the facade.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dewe_dag::{EnsembleJobId, JobState, Workflow, WorkflowId};

use crate::engine::{Action, EngineConfig, EngineCore, EngineStats, EnsembleEngine};
use crate::protocol::{AckMsg, DispatchMsg};

use super::{globalize_action, HashRouter, ShardLoad, ShardRouter, ShardedEngine};

/// Capacity of each worker thread's input queue. Bounded so a producer
/// that outruns its shards blocks (backpressure) instead of growing an
/// unbounded backlog; deep enough that the free-running master never
/// blocks in steady state.
const INPUT_QUEUE_DEPTH: usize = 256;

/// Sentinel for "no pending deadline" in [`ShardCell::deadline_bits`].
const NO_DEADLINE: u64 = u64::MAX;

/// Callback a worker invokes with each *run* of dispatches its shard
/// emitted while applying one input batch, instead of routing them back
/// through the facade. Installed by the free-running realtime master to
/// publish straight onto the per-shard dispatch topic from the owning
/// worker thread. The callee drains the vector (same contract as
/// `Transport::publish_dispatch_batch`), so the seat reuses one run
/// buffer for its lifetime; dispatch order within the shard is the
/// engine's emission order.
pub type DispatchSink = dyn Fn(usize, &mut Vec<DispatchMsg>) + Send + Sync;

/// Construction knobs for [`ParallelShardedEngine`].
#[derive(Clone)]
pub struct ParallelOptions {
    /// Worker threads to spawn; clamped to `[1, shards]`. `0` means one
    /// thread per shard. When `threads < shards`, thread `t` owns shards
    /// `t, t + threads, t + 2·threads, …` (striped).
    pub threads: usize,
    /// Optional per-dispatch callback run on the worker thread; when set,
    /// `Action::Dispatch` never appears in collected replies.
    pub dispatch_sink: Option<Arc<DispatchSink>>,
    /// Pin worker thread `t` to core `t mod available_parallelism` via the
    /// [`affinity`](super::affinity) shim (default `true`). Best-effort:
    /// when the platform has no shim or the kernel refuses, threads run
    /// unpinned and [`ParallelShardedEngine::pinned_threads`] reports how
    /// many actually stuck.
    pub pin_threads: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self { threads: 0, dispatch_sink: None, pin_threads: true }
    }
}

/// One shard-local input, already translated by the facade.
enum ShardInput {
    /// Submit `workflow` as the shard's next local workflow; `global` is
    /// the dense ensemble-wide id the facade assigned.
    Submit { global: WorkflowId, workflow: Arc<Workflow>, now: f64 },
    /// An ack whose job carries the *shard-local* workflow id.
    Ack { ack: AckMsg, now: f64 },
    /// Timeout scan at `now`.
    Scan { now: f64 },
}

/// A batch of inputs for one shard, with a recycled action sink.
struct Batch {
    shard: usize,
    inputs: Vec<ShardInput>,
    sink: Vec<Action>,
}

/// Everything a worker thread accepts.
enum ThreadMsg {
    Batch(Batch),
    JobState { shard: usize, job: EnsembleJobId, reply: SyncSender<Option<JobState>> },
    Inflight { shard: usize, reply: SyncSender<Vec<DispatchMsg>> },
    Shutdown,
}

/// A processed batch on its way back: `actions` carry global ids and no
/// per-shard terminals; `recycled` is the drained input buffer, returned
/// so the steady state allocates nothing.
struct Reply {
    shard: usize,
    actions: Vec<Action>,
    recycled: Vec<ShardInput>,
}

/// Per-shard snapshot the owning worker publishes after every batch and
/// the facade merges on read. All counters are monotone, so even a torn
/// read in free-running mode only ever *under*-reports progress.
struct ShardCell {
    /// [`EngineStats`] fields, in declaration order.
    stats: [AtomicU64; 11],
    /// `f64::to_bits` of the shard's earliest deadline, [`NO_DEADLINE`]
    /// when none. Non-negative finite deadlines order identically as bits.
    deadline_bits: AtomicU64,
    /// Workflows submitted to the shard.
    workflow_count: AtomicU64,
    /// 1 once every workflow on the shard is settled (0 while empty).
    settled: AtomicU64,
    /// Deadline-wheel cascades on the shard.
    timer_cascades: AtomicU64,
}

impl ShardCell {
    fn new() -> Self {
        Self {
            stats: Default::default(),
            deadline_bits: AtomicU64::new(NO_DEADLINE),
            workflow_count: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            timer_cascades: AtomicU64::new(0),
        }
    }

    fn publish(&self, engine: &mut EnsembleEngine) {
        let s = engine.stats();
        let words = [
            s.workflows_submitted as u64,
            s.workflows_completed as u64,
            s.workflows_abandoned as u64,
            s.dispatches,
            s.resubmissions,
            s.deferred_retries,
            s.jobs_completed,
            s.duplicate_completions,
            s.stale_failures_ignored,
            s.dead_lettered,
            s.jobs_abandoned,
        ];
        for (cell, word) in self.stats.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        let bits = engine.next_deadline().map_or(NO_DEADLINE, f64::to_bits);
        self.deadline_bits.store(bits, Ordering::Relaxed);
        self.workflow_count.store(engine.workflow_count() as u64, Ordering::Relaxed);
        self.timer_cascades.store(engine.timer_cascades(), Ordering::Relaxed);
        self.settled.store(u64::from(engine.all_settled()), Ordering::Release);
    }

    fn stats(&self) -> EngineStats {
        let w = |i: usize| self.stats[i].load(Ordering::Relaxed);
        EngineStats {
            workflows_submitted: w(0) as usize,
            workflows_completed: w(1) as usize,
            workflows_abandoned: w(2) as usize,
            dispatches: w(3),
            resubmissions: w(4),
            deferred_retries: w(5),
            jobs_completed: w(6),
            duplicate_completions: w(7),
            stale_failures_ignored: w(8),
            dead_lettered: w(9),
            jobs_abandoned: w(10),
        }
    }
}

/// One shard as owned by its worker thread.
struct ShardSeat {
    engine: EnsembleEngine,
    /// Shard-local workflow index → global id.
    globals: Vec<WorkflowId>,
    cell: Arc<ShardCell>,
    /// Reusable buffer for shard-local actions awaiting translation.
    scratch: Vec<Action>,
    /// Dispatches accumulated across one input batch, handed to the
    /// dispatch sink as a single run.
    run: Vec<DispatchMsg>,
}

impl ShardSeat {
    fn apply(&mut self, input: ShardInput, sink: &mut Vec<Action>, batch_dispatches: bool) {
        match input {
            ShardInput::Submit { global, workflow, now } => {
                let local = self.engine.submit_workflow(workflow, now, &mut self.scratch);
                self.globals.push(global);
                debug_assert_eq!(self.globals.len(), local.index() + 1);
            }
            ShardInput::Ack { ack, now } => self.engine.on_ack(ack, now, &mut self.scratch),
            ShardInput::Scan { now } => self.engine.check_timeouts(now, &mut self.scratch),
        }
        for a in self.scratch.drain(..) {
            match globalize_action(&self.globals, a) {
                Some(Action::Dispatch(d)) if batch_dispatches => self.run.push(d),
                Some(g) => sink.push(g),
                None => {}
            }
        }
    }
}

fn worker_loop(
    rx: Receiver<ThreadMsg>,
    mut seats: Vec<Option<ShardSeat>>,
    reply_tx: Sender<Reply>,
    dispatch_sink: Option<Arc<DispatchSink>>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ThreadMsg::Batch(mut batch) => {
                let seat = seats[batch.shard].as_mut().expect("batch for unowned shard");
                for input in batch.inputs.drain(..) {
                    seat.apply(input, &mut batch.sink, dispatch_sink.is_some());
                }
                if let Some(sink) = dispatch_sink.as_ref() {
                    if !seat.run.is_empty() {
                        sink(batch.shard, &mut seat.run);
                        debug_assert!(seat.run.is_empty(), "dispatch sink must drain its run");
                    }
                }
                seat.cell.publish(&mut seat.engine);
                // A send failure means the facade is gone (dropped while
                // batches were in flight): nothing left to report to.
                let _ = reply_tx.send(Reply {
                    shard: batch.shard,
                    actions: batch.sink,
                    recycled: batch.inputs,
                });
            }
            ThreadMsg::JobState { shard, job, reply } => {
                let seat = seats[shard].as_ref().expect("query for unowned shard");
                let _ = reply.send(seat.engine.job_state(job));
            }
            ThreadMsg::Inflight { shard, reply } => {
                let seat = seats[shard].as_ref().expect("query for unowned shard");
                let mut local = Vec::new();
                seat.engine.inflight_dispatches(&mut local);
                let out = local
                    .into_iter()
                    .map(|d| DispatchMsg {
                        job: EnsembleJobId::new(seat.globals[d.job.workflow.index()], d.job.job),
                        attempt: d.attempt,
                    })
                    .collect();
                let _ = reply.send(out);
            }
            ThreadMsg::Shutdown => break,
        }
    }
}

/// N engine shards, each owned by a worker thread, behind the same
/// [`EngineCore`] surface as the sequential
/// [`ShardedEngine`](super::ShardedEngine). Construct via
/// [`EngineConfig::build_parallel`] or [`ParallelShardedEngine::new`].
///
/// The trait implementation is the deterministic barrier mode: outcomes
/// are bit-identical to the sequential facade (see the module docs). The
/// free-running surface (`enqueue_*` / [`flush`](Self::flush) /
/// [`poll_actions`](Self::poll_actions)) trades that strict ordering for
/// pipelining and is what the threaded realtime master drives.
pub struct ParallelShardedEngine {
    shards: usize,
    senders: Vec<SyncSender<ThreadMsg>>,
    reply_rx: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
    cells: Vec<Arc<ShardCell>>,
    router: Box<dyn ShardRouter>,
    /// Global workflow index → (shard, shard-local id).
    assignment: Vec<(u32, WorkflowId)>,
    /// Global workflow index → the workflow (kept so `workflow()` can
    /// answer without a worker round-trip).
    workflows: Vec<Arc<Workflow>>,
    /// Per-shard count of local workflows (the next local id).
    locals: Vec<usize>,
    /// Per-shard input buffers awaiting a flush.
    pending: Vec<Vec<ShardInput>>,
    /// Per-shard recycled buffers: a reply's input and sink vectors go
    /// back to the shard that grew them, so each pool converges on that
    /// shard's own batch sizes and the steady state allocates nothing.
    /// (A shared pool lets a busy shard's big buffers drain to idle
    /// shards and forces the busy one to regrow from scratch.)
    pools: Vec<ShardPool>,
    /// Fresh-buffer allocations taken because a shard's pool ran dry.
    /// Grows during warm-up, then stops: the steady-state reuse
    /// invariant the recycling test pins down.
    buffer_misses: u64,
    /// Per-shard reply slots for in-shard-order collection.
    collect: Vec<Option<Vec<Action>>>,
    /// Batches sent but not yet replied.
    outstanding: usize,
    terminal_emitted: bool,
    /// Worker threads that successfully pinned to a core.
    pinned: Arc<AtomicUsize>,
}

/// Recycled batch buffers owned by one shard (see
/// [`ParallelShardedEngine::pools`]).
#[derive(Default)]
struct ShardPool {
    inputs: Vec<Vec<ShardInput>>,
    sinks: Vec<Vec<Action>>,
}

impl ParallelShardedEngine {
    /// `shards` engines sharing `config`, one worker thread per shard,
    /// routed by [`HashRouter`].
    pub fn new(config: EngineConfig, shards: usize) -> Self {
        Self::with_options(
            config,
            shards,
            Box::new(HashRouter::default()),
            ParallelOptions::default(),
        )
    }

    /// Full-control constructor: custom router, thread cap, dispatch sink.
    pub fn with_options(
        config: EngineConfig,
        shards: usize,
        router: Box<dyn ShardRouter>,
        opts: ParallelOptions,
    ) -> Self {
        assert!(shards >= 1, "a parallel sharded engine needs at least one shard");
        let engines: Vec<EnsembleEngine> = (0..shards).map(|_| config.build()).collect();
        let globals = vec![Vec::new(); shards];
        Self::from_state(engines, router, Vec::new(), globals, Vec::new(), opts)
    }

    /// Wrap an already-populated sequential [`ShardedEngine`] — the
    /// journal-recovery path: replay rebuilds the sequential facade, then
    /// the master promotes it onto worker threads.
    pub fn from_sharded(engine: ShardedEngine, opts: ParallelOptions) -> Self {
        let (engines, router, assignment, globals) = engine.into_parts();
        let workflows = assignment
            .iter()
            .map(|&(shard, local)| Arc::clone(engines[shard as usize].workflow(local)))
            .collect();
        Self::from_state(engines, router, assignment, globals, workflows, opts)
    }

    fn from_state(
        engines: Vec<EnsembleEngine>,
        router: Box<dyn ShardRouter>,
        assignment: Vec<(u32, WorkflowId)>,
        globals: Vec<Vec<WorkflowId>>,
        workflows: Vec<Arc<Workflow>>,
        opts: ParallelOptions,
    ) -> Self {
        let shards = engines.len();
        let threads = match opts.threads {
            0 => shards,
            t => t.min(shards),
        };
        let locals: Vec<usize> = globals.iter().map(Vec::len).collect();
        let cells: Vec<Arc<ShardCell>> = (0..shards).map(|_| Arc::new(ShardCell::new())).collect();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        // Distribute shard seats striped across threads: thread t owns
        // shards t, t + threads, …, so small thread caps still spread
        // load evenly over the workers.
        let mut seat_rows: Vec<Vec<Option<ShardSeat>>> =
            (0..threads).map(|_| (0..shards).map(|_| None).collect()).collect();
        for (shard, (mut engine, globals)) in engines.into_iter().zip(globals).enumerate() {
            let cell = Arc::clone(&cells[shard]);
            cell.publish(&mut engine);
            seat_rows[shard % threads][shard] =
                Some(ShardSeat { engine, globals, cell, scratch: Vec::new(), run: Vec::new() });
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let pinned = Arc::new(AtomicUsize::new(0));
        for (t, seats) in seat_rows.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<ThreadMsg>(INPUT_QUEUE_DEPTH);
            let reply_tx = reply_tx.clone();
            let sink = opts.dispatch_sink.clone();
            let pin = opts.pin_threads;
            let pinned = Arc::clone(&pinned);
            handles.push(
                std::thread::Builder::new()
                    .name("dewe-shard".into())
                    .spawn(move || {
                        if pin && super::affinity::pin_current_thread(t % cores) {
                            pinned.fetch_add(1, Ordering::Relaxed);
                        }
                        worker_loop(rx, seats, reply_tx, sink)
                    })
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        Self {
            shards,
            senders,
            reply_rx,
            handles,
            cells,
            router,
            assignment,
            workflows,
            locals,
            pending: (0..shards).map(|_| Vec::new()).collect(),
            pools: (0..shards).map(|_| ShardPool::default()).collect(),
            buffer_misses: 0,
            collect: (0..shards).map(|_| None).collect(),
            outstanding: 0,
            terminal_emitted: false,
            pinned,
        }
    }

    /// Number of worker threads backing the engine.
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads whose core pin actually stuck (0 when
    /// [`ParallelOptions::pin_threads`] is off or the platform refused) —
    /// report this rather than assuming the pin request succeeded.
    pub fn pinned_threads(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Fresh batch-buffer allocations taken because the owning shard's
    /// recycling pool was empty. Grows during warm-up, then plateaus:
    /// steady-state batches reuse the buffers their shard grew earlier.
    pub fn buffer_misses(&self) -> u64 {
        self.buffer_misses
    }

    fn sender_for(&self, shard: usize) -> &SyncSender<ThreadMsg> {
        &self.senders[shard % self.senders.len()]
    }

    fn loads(&self) -> Vec<ShardLoad> {
        (0..self.shards)
            .map(|shard| {
                let s = self.cells[shard].stats();
                ShardLoad {
                    total_workflows: self.locals[shard],
                    live_workflows: self.locals[shard]
                        - s.workflows_completed
                        - s.workflows_abandoned,
                }
            })
            .collect()
    }

    /// Merged settlement check from the published cells: empty shards
    /// don't block settlement; an engine with no submissions is not
    /// settled (matches the sequential facade).
    fn settled_from_cells(&self) -> bool {
        !self.assignment.is_empty()
            && self.cells.iter().all(|c| {
                c.workflow_count.load(Ordering::Relaxed) == 0
                    || c.settled.load(Ordering::Acquire) == 1
            })
    }

    /// Emit the merged terminal if due. Only meaningful when no inputs
    /// are buffered or in flight, which every caller guarantees.
    fn maybe_all_done(&mut self, actions: &mut Vec<Action>) {
        debug_assert_eq!(self.outstanding, 0);
        if !self.terminal_emitted && self.settled_from_cells() {
            self.terminal_emitted = true;
            actions.push(if self.stats().workflows_abandoned == 0 {
                Action::AllCompleted
            } else {
                Action::AllSettled
            });
        }
    }

    /// Buffer a submission for `shard`, assigning and returning the dense
    /// global id. Re-arms the merged terminal like any submission.
    pub fn enqueue_submit_to(
        &mut self,
        shard: usize,
        workflow: Arc<Workflow>,
        now: f64,
    ) -> WorkflowId {
        assert!(shard < self.shards, "shard {shard} out of range");
        let global = WorkflowId::from_index(self.assignment.len());
        let local = WorkflowId::from_index(self.locals[shard]);
        self.locals[shard] += 1;
        self.assignment.push((shard as u32, local));
        self.workflows.push(Arc::clone(&workflow));
        self.terminal_emitted = false;
        self.pending[shard].push(ShardInput::Submit { global, workflow, now });
        global
    }

    /// Buffer an ack (global ids) for its owning shard. Returns `false`
    /// for an unknown workflow.
    pub fn enqueue_ack(&mut self, ack: AckMsg, now: f64) -> bool {
        let Some(&(shard, local)) = self.assignment.get(ack.job.workflow.index()) else {
            debug_assert!(false, "ack for unknown workflow {:?}", ack.job.workflow);
            return false;
        };
        let local_ack = AckMsg { job: EnsembleJobId::new(local, ack.job.job), ..ack };
        self.pending[shard as usize].push(ShardInput::Ack { ack: local_ack, now });
        true
    }

    /// Buffer a timeout scan at `now` for every shard.
    pub fn enqueue_scan(&mut self, now: f64) {
        for shard in 0..self.shards {
            self.pending[shard].push(ShardInput::Scan { now });
        }
    }

    /// Send every non-empty per-shard buffer to its owning worker as one
    /// batch. Returns the number of batches now in flight in total.
    pub fn flush(&mut self) -> usize {
        for shard in 0..self.shards {
            if self.pending[shard].is_empty() {
                continue;
            }
            let spare = match self.pools[shard].inputs.pop() {
                Some(buf) => buf,
                None => {
                    self.buffer_misses += 1;
                    Vec::new()
                }
            };
            let inputs = std::mem::replace(&mut self.pending[shard], spare);
            let sink = match self.pools[shard].sinks.pop() {
                Some(buf) => buf,
                None => {
                    self.buffer_misses += 1;
                    Vec::new()
                }
            };
            self.sender_for(shard)
                .send(ThreadMsg::Batch(Batch { shard, inputs, sink }))
                .expect("shard worker alive");
            self.outstanding += 1;
        }
        self.outstanding
    }

    fn absorb_reply(&mut self, reply: Reply, actions: &mut Vec<Action>) {
        self.outstanding -= 1;
        self.pools[reply.shard].inputs.push(reply.recycled);
        let mut batch_actions = reply.actions;
        actions.append(&mut batch_actions);
        self.pools[reply.shard].sinks.push(batch_actions);
    }

    /// Drain any completed batches without blocking (free-running mode);
    /// actions append in arrival order. Emits the merged terminal once
    /// everything in flight has drained and the ensemble settled.
    pub fn poll_actions(&mut self, actions: &mut Vec<Action>) -> usize {
        let mut drained = 0;
        while let Ok(reply) = self.reply_rx.try_recv() {
            self.absorb_reply(reply, actions);
            drained += 1;
        }
        if self.outstanding == 0 && self.pending.iter().all(Vec::is_empty) {
            self.maybe_all_done(actions);
        }
        drained
    }

    /// Flush buffered inputs and block until every in-flight batch has
    /// replied; actions append in arrival order, then the merged terminal
    /// if due. The free-running master's drain point (stop, exit).
    pub fn quiesce(&mut self, actions: &mut Vec<Action>) {
        self.flush();
        while self.outstanding > 0 {
            let reply = self.reply_rx.recv().expect("shard worker alive");
            self.absorb_reply(reply, actions);
        }
        self.maybe_all_done(actions);
    }

    /// The deterministic barrier: flush buffered inputs, wait for every
    /// touched shard, and append replies in **shard index order** so the
    /// action stream is byte-identical to the sequential facade's.
    fn barrier(&mut self, actions: &mut Vec<Action>) {
        debug_assert!(self.collect.iter().all(Option::is_none));
        if self.flush() == 0 {
            self.maybe_all_done(actions);
            return;
        }
        while self.outstanding > 0 {
            let reply = self.reply_rx.recv().expect("shard worker alive");
            self.outstanding -= 1;
            self.pools[reply.shard].inputs.push(reply.recycled);
            self.collect[reply.shard] = Some(reply.actions);
        }
        for shard in 0..self.shards {
            if let Some(mut batch_actions) = self.collect[shard].take() {
                actions.append(&mut batch_actions);
                self.pools[shard].sinks.push(batch_actions);
            }
        }
        self.maybe_all_done(actions);
    }
}

impl EngineCore for ParallelShardedEngine {
    fn submit_workflow(
        &mut self,
        workflow: Arc<Workflow>,
        now: f64,
        actions: &mut Vec<Action>,
    ) -> WorkflowId {
        let shard = EngineCore::route_next(self, &workflow);
        self.submit_workflow_to(shard, workflow, now, actions)
    }

    fn submit_workflow_to(
        &mut self,
        shard: usize,
        workflow: Arc<Workflow>,
        now: f64,
        actions: &mut Vec<Action>,
    ) -> WorkflowId {
        let global = self.enqueue_submit_to(shard, workflow, now);
        self.barrier(actions);
        global
    }

    fn route_next(&self, workflow: &Workflow) -> usize {
        let loads = self.loads();
        let shard = self.router.route(workflow, self.assignment.len(), &loads);
        assert!(shard < self.shards, "router returned shard {shard} out of range");
        shard
    }

    fn on_ack(&mut self, ack: AckMsg, now: f64, actions: &mut Vec<Action>) {
        if self.enqueue_ack(ack, now) {
            self.barrier(actions);
        }
    }

    fn check_timeouts(&mut self, now: f64, actions: &mut Vec<Action>) {
        self.enqueue_scan(now);
        self.barrier(actions);
    }

    fn next_deadline(&mut self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for cell in &self.cells {
            let bits = cell.deadline_bits.load(Ordering::Relaxed);
            if bits != NO_DEADLINE {
                let d = f64::from_bits(bits);
                best = Some(match best {
                    Some(b) => b.min(d),
                    None => d,
                });
            }
        }
        best
    }

    fn all_complete(&self) -> bool {
        self.all_settled() && self.stats().workflows_abandoned == 0
    }

    fn all_settled(&self) -> bool {
        self.settled_from_cells()
    }

    fn stats(&self) -> EngineStats {
        let mut merged = EngineStats::default();
        for cell in &self.cells {
            merged.merge(&cell.stats());
        }
        merged
    }

    fn timer_cascades(&self) -> u64 {
        self.cells.iter().map(|c| c.timer_cascades.load(Ordering::Relaxed)).sum()
    }

    fn job_state(&self, job: EnsembleJobId) -> Option<JobState> {
        let &(shard, local) = self.assignment.get(job.workflow.index())?;
        let (tx, rx) = sync_channel(1);
        self.sender_for(shard as usize)
            .send(ThreadMsg::JobState {
                shard: shard as usize,
                job: EnsembleJobId::new(local, job.job),
                reply: tx,
            })
            .expect("shard worker alive");
        rx.recv().expect("shard worker alive")
    }

    fn workflow(&self, id: WorkflowId) -> &Arc<Workflow> {
        &self.workflows[id.index()]
    }

    fn workflow_count(&self) -> usize {
        self.assignment.len()
    }

    fn inflight_dispatches(&self, out: &mut Vec<DispatchMsg>) {
        for shard in 0..self.shards {
            let (tx, rx) = sync_channel(1);
            self.sender_for(shard)
                .send(ThreadMsg::Inflight { shard, reply: tx })
                .expect("shard worker alive");
            out.extend(rx.recv().expect("shard worker alive"));
        }
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, id: WorkflowId) -> usize {
        self.assignment[id.index()].0 as usize
    }
}

impl Drop for ParallelShardedEngine {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ThreadMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AckKind;
    use dewe_dag::WorkflowBuilder;

    fn chain(n: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let j = b.job(format!("j{i}"), "t", 1.0).build();
            if let Some(p) = prev {
                b.edge(p, j);
            }
            prev = Some(j);
        }
        Arc::new(b.finish().unwrap())
    }

    fn dispatches(actions: &[Action]) -> Vec<DispatchMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    fn done_ack(job: EnsembleJobId, attempt: u32) -> AckMsg {
        AckMsg { job, worker: 0, kind: AckKind::Completed, attempt }
    }

    #[test]
    fn matches_sequential_facade_action_for_action() {
        let config = EngineConfig::default().timeout(30.0);
        let mut seq = config.build_sharded(4);
        let mut par = ParallelShardedEngine::new(config, 4);
        let mut sa = Vec::new();
        let mut pa = Vec::new();
        for i in 0..12 {
            sa.clear();
            pa.clear();
            let s = seq.submit_workflow(chain(2), f64::from(i), &mut sa);
            let p = par.submit_workflow(chain(2), f64::from(i), &mut pa);
            assert_eq!(s, p, "global id assignment must match");
            assert_eq!(sa, pa, "submit actions must match");
        }
        // Drive both to completion, acking identically; every action
        // batch must match exactly (order included).
        let mut inflight = Vec::new();
        seq.inflight_dispatches(&mut inflight);
        let mut pinflight = Vec::new();
        par.inflight_dispatches(&mut pinflight);
        assert_eq!(inflight, pinflight);
        let mut pending: Vec<DispatchMsg> = inflight;
        let mut round = 0;
        while !seq.all_settled() {
            round += 1;
            assert!(round < 100, "did not converge");
            let wave = std::mem::take(&mut pending);
            for d in wave {
                sa.clear();
                pa.clear();
                seq.on_ack(done_ack(d.job, d.attempt), 10.0 * f64::from(round), &mut sa);
                par.on_ack(done_ack(d.job, d.attempt), 10.0 * f64::from(round), &mut pa);
                assert_eq!(sa, pa, "ack actions must match");
                pending.extend(dispatches(&sa));
            }
        }
        assert!(par.all_settled());
        assert!(par.all_complete());
        assert_eq!(seq.stats(), par.stats());
        assert_eq!(par.next_deadline(), seq.next_deadline());
    }

    #[test]
    fn striped_threads_cover_all_shards() {
        // 4 shards on 2 threads: placement still works for every shard.
        let opts = ParallelOptions { threads: 2, ..ParallelOptions::default() };
        let mut e = ParallelShardedEngine::with_options(
            EngineConfig::default(),
            4,
            Box::new(HashRouter::default()),
            opts,
        );
        assert_eq!(e.thread_count(), 2);
        assert_eq!(e.shard_count(), 4);
        let mut actions = Vec::new();
        for shard in 0..4 {
            let id = e.submit_workflow_to(shard, chain(1), 0.0, &mut actions);
            assert_eq!(e.shard_of(id), shard);
        }
        assert_eq!(dispatches(&actions).len(), 4);
        let mut out = Vec::new();
        for d in dispatches(&actions) {
            e.on_ack(done_ack(d.job, d.attempt), 1.0, &mut out);
        }
        assert!(out.iter().any(|a| matches!(a, Action::AllCompleted)));
        assert_eq!(e.stats().jobs_completed, 4);
    }

    #[test]
    fn free_running_mode_settles_with_dispatch_sink() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(usize, DispatchMsg)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |shard: usize, run: &mut Vec<DispatchMsg>| {
                seen.lock().unwrap().extend(run.drain(..).map(|d| (shard, d)));
            }) as Arc<DispatchSink>
        };
        let opts = ParallelOptions { dispatch_sink: Some(sink), ..ParallelOptions::default() };
        let mut e = ParallelShardedEngine::with_options(
            EngineConfig::default(),
            2,
            Box::new(HashRouter::default()),
            opts,
        );
        let mut actions = Vec::new();
        for i in 0..4usize {
            e.enqueue_submit_to(i % 2, chain(1), i as f64);
        }
        e.flush();
        // Dispatches arrive through the sink, not the reply stream.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while seen.lock().unwrap().len() < 4 {
            assert!(std::time::Instant::now() < deadline, "sink never saw dispatches");
            e.poll_actions(&mut actions);
            std::thread::yield_now();
        }
        assert!(dispatches(&actions).is_empty(), "sink intercepts dispatches");
        let acks: Vec<(usize, DispatchMsg)> = seen.lock().unwrap().clone();
        for (shard, d) in acks {
            assert_eq!(e.shard_of(d.job.workflow), shard);
            assert!(e.enqueue_ack(done_ack(d.job, d.attempt), 5.0));
        }
        e.quiesce(&mut actions);
        assert!(actions.iter().any(|a| matches!(a, Action::AllCompleted)));
        assert!(e.all_complete());
        assert_eq!(e.stats().workflows_completed, 4);
    }

    #[test]
    fn reply_buffers_recycle_at_steady_state() {
        // Two shards, one long chain each, driven one ack at a time in
        // barrier mode: every round sends exactly one single-input batch,
        // so after a short warm-up each shard's pool always has a buffer
        // at the right capacity and the miss counter must plateau.
        let mut e = ParallelShardedEngine::new(EngineConfig::default(), 2);
        let mut actions = Vec::new();
        for shard in 0..2 {
            e.submit_workflow_to(shard, chain(40), 0.0, &mut actions);
        }
        let mut pending: Vec<DispatchMsg> = dispatches(&actions);
        let mut processed = 0usize;
        let mut after_warmup = 0u64;
        while let Some(d) = pending.pop() {
            actions.clear();
            e.on_ack(done_ack(d.job, d.attempt), 1.0, &mut actions);
            pending.extend(dispatches(&actions));
            processed += 1;
            // Warm-up = the first ack per shard plus the submissions
            // above; 4 rounds covers both shards comfortably.
            if processed == 4 {
                after_warmup = e.buffer_misses();
            }
        }
        assert!(e.all_complete());
        assert_eq!(processed, 80);
        assert!(after_warmup > 0, "warm-up must have allocated something");
        assert_eq!(
            e.buffer_misses(),
            after_warmup,
            "steady-state batches must reuse recycled buffers, not allocate"
        );
    }

    #[test]
    fn pinning_is_reported_honestly() {
        let e = ParallelShardedEngine::new(EngineConfig::default(), 4);
        assert!(
            e.pinned_threads() <= e.thread_count(),
            "cannot pin more threads than exist: {} > {}",
            e.pinned_threads(),
            e.thread_count()
        );
        let unpinned = ParallelShardedEngine::with_options(
            EngineConfig::default(),
            2,
            Box::new(HashRouter::default()),
            ParallelOptions { pin_threads: false, ..ParallelOptions::default() },
        );
        assert_eq!(unpinned.pinned_threads(), 0, "pin_threads=false must not pin");
    }

    #[test]
    fn promoting_a_recovered_sharded_engine_preserves_state() {
        let config = EngineConfig::default().timeout(20.0);
        let mut seq = config.build_sharded(2);
        let mut actions = Vec::new();
        let a = seq.submit_workflow_to(0, chain(2), 0.0, &mut actions);
        let b = seq.submit_workflow_to(1, chain(1), 0.5, &mut actions);
        // Complete workflow b, leave a live with job 0 in flight.
        let mut out = Vec::new();
        seq.on_ack(done_ack(EnsembleJobId::new(b, dewe_dag::JobId(0)), 1), 1.0, &mut out);
        let stats_before = seq.stats();
        let mut par = ParallelShardedEngine::from_sharded(seq, ParallelOptions::default());
        assert_eq!(par.stats(), stats_before);
        assert_eq!(par.workflow_count(), 2);
        assert_eq!(par.shard_of(a), 0);
        assert_eq!(par.shard_of(b), 1);
        // Finish workflow a through the promoted engine.
        out.clear();
        par.on_ack(done_ack(EnsembleJobId::new(a, dewe_dag::JobId(0)), 1), 2.0, &mut out);
        let next = dispatches(&out);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].job.workflow, a, "chained dispatch keeps the global id");
        out.clear();
        par.on_ack(done_ack(next[0].job, next[0].attempt), 3.0, &mut out);
        assert!(out.iter().any(|x| matches!(x, Action::AllCompleted)));
        assert_eq!(par.stats().workflows_completed, 2);
    }
}
