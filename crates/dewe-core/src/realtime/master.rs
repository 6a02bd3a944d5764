//! The master daemon thread.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dewe_dag::{Workflow, WorkflowId};
use dewe_mq::Transport;

use super::bus::{MessageBus, Registry};
use super::journal::{self, Journal, JournalCommitPolicy};
use super::liveness::{LivenessTable, LivenessTransition, MasterStats, RequeueEntry, WorkerView};
use crate::engine::{Action, EngineConfig, EngineCore, EngineStats, EnsembleEngine, RetryPolicy};
use crate::protocol::{AckMsg, DispatchMsg, LifecycleMsg, SubmissionMsg, WorkflowAnnounce};
use crate::sharded::parallel::{DispatchSink, ParallelOptions, ParallelShardedEngine};
use crate::sharded::ShardedEngine;

/// Every fabric the master can serve: a [`Transport`] pinned to the
/// realtime protocol types, cloneable so shard threads can publish
/// dispatches directly. Blanket-implemented — the in-process
/// [`MessageBus`] and the TCP runtime's
/// [`TcpMaster`](super::net::TcpMaster) both qualify.
pub trait MasterTransport:
    Transport<
        Submission = SubmissionMsg,
        Dispatch = DispatchMsg,
        Ack = AckMsg,
        Lifecycle = LifecycleMsg,
        Announce = WorkflowAnnounce,
    > + Clone
{
}

impl<T> MasterTransport for T where
    T: Transport<
            Submission = SubmissionMsg,
            Dispatch = DispatchMsg,
            Ack = AckMsg,
            Lifecycle = LifecycleMsg,
            Announce = WorkflowAnnounce,
        > + Clone
{
}

/// Master daemon configuration.
///
/// Opaque: construct with [`MasterConfig::builder`] and the chained
/// setters (the 0.10 deprecated public field aliases are gone as of
/// 0.11.0).
///
/// ```
/// use dewe_core::realtime::MasterConfig;
/// use std::time::Duration;
///
/// let config = MasterConfig::builder()
///     .expected_workflows(20)
///     .timeout_scan_interval(Duration::from_millis(10))
///     .shards(4)
///     .lease_secs(5.0)
///     .build();
/// ```
#[derive(Debug, Clone, Default)]
pub struct MasterConfig {
    cfg: ResolvedConfig,
}

/// The internal mirror of [`MasterConfig`]: every read in the serve
/// machinery goes through this flat struct rather than the opaque
/// public wrapper.
#[derive(Debug, Clone)]
struct ResolvedConfig {
    default_timeout_secs: f64,
    checkout_timeout_secs: Option<f64>,
    retry: RetryPolicy,
    timeout_scan_interval: Duration,
    expected_workflows: Option<usize>,
    ack_burst: usize,
    journal_path: Option<PathBuf>,
    recover: bool,
    shards: usize,
    threads: usize,
    journal_compact_threshold: Option<usize>,
    journal_commit: JournalCommitPolicy,
    lease_secs: Option<f64>,
}

impl Default for ResolvedConfig {
    fn default() -> Self {
        Self {
            default_timeout_secs: crate::engine::DEFAULT_TIMEOUT_SECS,
            checkout_timeout_secs: None,
            retry: RetryPolicy::default(),
            timeout_scan_interval: Duration::from_millis(50),
            expected_workflows: None,
            ack_burst: 128,
            journal_path: None,
            recover: false,
            shards: 1,
            threads: 0,
            journal_compact_threshold: None,
            journal_commit: JournalCommitPolicy::default(),
            lease_secs: None,
        }
    }
}

impl ResolvedConfig {
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            default_timeout_secs: self.default_timeout_secs,
            checkout_timeout_secs: self.checkout_timeout_secs,
            retry: self.retry,
        }
    }
}

impl MasterConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> MasterConfigBuilder {
        MasterConfigBuilder { cfg: ResolvedConfig::default() }
    }

    fn resolve(&self) -> ResolvedConfig {
        self.cfg.clone()
    }
}

/// Builder for [`MasterConfig`], mirroring [`EngineConfig`]'s chained
/// setters. Obtain via [`MasterConfig::builder`].
#[derive(Debug, Clone)]
#[must_use = "finish the configuration with .build()"]
pub struct MasterConfigBuilder {
    cfg: ResolvedConfig,
}

impl MasterConfigBuilder {
    /// System-wide default job timeout, seconds (paper §III.B).
    pub fn default_timeout_secs(mut self, secs: f64) -> Self {
        self.cfg.default_timeout_secs = secs;
        self
    }

    /// Checkout deadline: resubmit a dispatch never acknowledged as
    /// Running within this many seconds.
    pub fn checkout_timeout_secs(mut self, secs: f64) -> Self {
        self.cfg.checkout_timeout_secs = Some(secs);
        self
    }

    /// Retry budget and backoff policy for failed/timed-out jobs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// How often the master examines running jobs for timeouts.
    pub fn timeout_scan_interval(mut self, interval: Duration) -> Self {
        self.cfg.timeout_scan_interval = interval;
        self
    }

    /// Exit once this many workflows have settled. Without it the
    /// master serves until the transport shuts down.
    pub fn expected_workflows(mut self, count: usize) -> Self {
        self.cfg.expected_workflows = Some(count);
        self
    }

    /// Maximum acknowledgments ingested per loop iteration.
    pub fn ack_burst(mut self, burst: usize) -> Self {
        self.cfg.ack_burst = burst;
        self
    }

    /// Write-ahead journal path.
    pub fn journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.journal_path = Some(path.into());
        self
    }

    /// Replay an existing journal on startup (master failover).
    pub fn recover(mut self, recover: bool) -> Self {
        self.cfg.recover = recover;
        self
    }

    /// Engine shard count (> 1 drives a [`ShardedEngine`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Worker threads for the free-running parallel master.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Compact the WAL after this many appended records.
    pub fn journal_compact_threshold(mut self, records: usize) -> Self {
        self.cfg.journal_compact_threshold = Some(records);
        self
    }

    /// Journal durability policy.
    pub fn journal_commit(mut self, policy: JournalCommitPolicy) -> Self {
        self.cfg.journal_commit = policy;
        self
    }

    /// Worker lease duration, seconds; enables the liveness plane.
    pub fn lease_secs(mut self, secs: f64) -> Self {
        self.cfg.lease_secs = Some(secs);
        self
    }

    /// Finish: produce the configuration.
    pub fn build(self) -> MasterConfig {
        MasterConfig { cfg: self.cfg }
    }
}

/// Progress notifications from the master.
#[derive(Debug, Clone, PartialEq)]
pub enum MasterEvent {
    /// A workflow completed after `makespan_secs`.
    WorkflowCompleted {
        /// Which workflow.
        workflow: WorkflowId,
        /// Submission-to-completion wall seconds.
        makespan_secs: f64,
    },
    /// A workflow was abandoned: one of its jobs exhausted its retry
    /// budget, stranding `dead_lettered` job(s) and their dependents.
    WorkflowAbandoned {
        /// Which workflow.
        workflow: WorkflowId,
        /// Jobs in it that exhausted their retry budgets.
        dead_lettered: u64,
    },
    /// All expected workflows completed; the master is exiting.
    AllCompleted {
        /// Final engine statistics.
        stats: EngineStats,
    },
    /// All expected workflows settled but at least one was abandoned;
    /// the master is exiting with partial completion.
    AllSettled {
        /// Final engine statistics.
        stats: EngineStats,
    },
    /// The master could not start serving: its journal could not be
    /// read, replayed against the registry, reopened or created. Nothing
    /// was served; the master has exited and [`MasterHandle::join`]
    /// returns all-zero statistics.
    Failed {
        /// What failed and why, one line.
        reason: String,
    },
}

/// Liveness state the master mirrors out for observers (tests,
/// operators): fault-plane counters and the current
/// worker table. Updated by the serve loop as liveness events land.
#[derive(Default)]
struct FaultPlaneShared {
    stats: parking_lot::Mutex<MasterStats>,
    snapshot: parking_lot::Mutex<Vec<WorkerView>>,
    /// Dispatch-pipeline counters, owned by the serve loop (and its
    /// shard threads) rather than the liveness table — the table
    /// overwrites `stats` wholesale on every publish, so these live
    /// beside it and are merged into [`MasterHandle::master_stats`]
    /// reads.
    dispatch_batches: AtomicU64,
    batched_dispatches: AtomicU64,
    timer_cascades: AtomicU64,
}

/// Handle to a running master daemon.
pub struct MasterHandle {
    thread: Option<std::thread::JoinHandle<EngineStats>>,
    stop: Arc<AtomicBool>,
    shared: Arc<FaultPlaneShared>,
    /// Receiver for progress events.
    pub events: Receiver<MasterEvent>,
}

impl MasterHandle {
    /// Wait for the master to exit, returning final engine statistics
    /// (all zero when it reported [`MasterEvent::Failed`]).
    pub fn join(mut self) -> EngineStats {
        self.thread.take().expect("join called once").join().expect("master panicked")
    }

    /// Master-side counters: the fault plane (lease-tracking fields are
    /// all-zero unless `lease_secs` is configured) plus the dispatch
    /// pipeline (batch sizes, timer cascades). Readable while the
    /// master runs and after it exits (read before
    /// [`join`](Self::join)/[`kill`](Self::kill), which consume the
    /// handle).
    pub fn master_stats(&self) -> MasterStats {
        let mut stats = *self.shared.stats.lock();
        stats.dispatch_batches = self.shared.dispatch_batches.load(Ordering::Relaxed);
        stats.batched_dispatches = self.shared.batched_dispatches.load(Ordering::Relaxed);
        stats.timer_cascades = self.shared.timer_cascades.load(Ordering::Relaxed);
        stats
    }

    /// Current liveness table rows, ordered by worker id. Empty when
    /// leases are disabled.
    pub fn liveness_snapshot(&self) -> Vec<WorkerView> {
        self.shared.snapshot.lock().clone()
    }

    /// Simulate a master crash: the daemon stops serving immediately,
    /// abandoning its in-memory state. Workers and queued messages are
    /// untouched — exactly the failure a journaled restart recovers from.
    pub fn kill(self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread {
            let _ = thread.join();
        }
    }
}

/// Spawn the master daemon over the in-process [`MessageBus`].
///
/// It pulls the submission topic for new workflows, the ack topic for
/// worker progress, publishes eligible jobs to the dispatch topic, and
/// periodically resubmits timed-out jobs. With
/// [`MasterConfigBuilder::journal_path`] set it write-ahead journals
/// every input; with [`MasterConfigBuilder::recover`] it first replays
/// that journal, rebuilding the pre-crash engine and republishing
/// in-flight jobs. A journal that cannot be opened or replayed is
/// reported as [`MasterEvent::Failed`].
pub fn spawn_master(bus: MessageBus, registry: Registry, config: MasterConfig) -> MasterHandle {
    spawn_master_on(bus, registry, config)
}

/// Spawn the master daemon over any [`MasterTransport`] — the same serve
/// loop (engine, journal, liveness plane, retry machinery) behind the
/// in-process bus or the TCP runtime.
pub fn spawn_master_on<T: MasterTransport>(
    transport: T,
    registry: Registry,
    config: MasterConfig,
) -> MasterHandle {
    let (tx, rx): (Sender<MasterEvent>, Receiver<MasterEvent>) = unbounded();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let shared = Arc::new(FaultPlaneShared::default());
    let shared2 = Arc::clone(&shared);
    let resolved = config.resolve();
    let thread = std::thread::Builder::new()
        .name("dewe-master".into())
        .spawn(move || master_loop(transport, registry, resolved, tx, stop2, shared2))
        .expect("spawn master thread");
    MasterHandle { thread: Some(thread), stop, shared, events: rx }
}

/// What the serve loop needs from an engine shape beyond [`EngineCore`]:
/// how the shape is built from a journal, and the points where an engine
/// driven on the serve thread (the default bodies) genuinely differs from
/// one whose shards run on their own threads ([`ParallelShardedEngine`]'s
/// overrides). Everything else in [`serve`] exists once.
trait ServedEngine: EngineCore + Sized {
    /// Build this shape by replaying journal records (forced shard
    /// placement for the sharded shapes); no records, a fresh engine.
    /// `sink` is where dispatches leave from when the shards run on their
    /// own threads; shapes driven on the serve thread drop it — their
    /// dispatches come back in `actions` and leave from the loop.
    fn recover_from(
        records: &[journal::JournalRecord],
        registry: &Registry,
        config: &ResolvedConfig,
        sink: Arc<DispatchSink>,
    ) -> io::Result<journal::Recovery<Self>>;

    /// Hand over an (already journaled) submission: applied now, its
    /// actions appended — or enqueued for the owning shard thread.
    fn feed_submit(
        &mut self,
        shard: usize,
        workflow: Arc<Workflow>,
        now: f64,
        actions: &mut Vec<Action>,
    ) -> WorkflowId {
        self.submit_workflow_to(shard, workflow, now, actions)
    }

    /// Hand over an (already journaled) acknowledgment.
    fn feed_ack(&mut self, ack: AckMsg, now: f64, actions: &mut Vec<Action>) {
        self.on_ack(ack, now, actions);
    }

    /// Hand over a timeout scan; returns whether it must be journaled
    /// (the loop does so before anything else reaches the engine). Applied
    /// now, a scan is journaled after the fact and only when it changed
    /// engine state: if the record is lost to a crash, the rebuilt
    /// deadline timer still holds the expired entries and the recovered
    /// master's next scan redoes the work (re-publishing at worst a
    /// duplicate dispatch). Expects `actions` empty on entry.
    fn feed_scan(&mut self, now: f64, actions: &mut Vec<Action>) -> bool {
        let before = self.stats();
        self.check_timeouts(now, actions);
        !actions.is_empty() || self.stats() != before
    }

    /// Collect what the inputs fed so far produced. Applied-now shapes
    /// have already appended it.
    fn collect(&mut self, _actions: &mut Vec<Action>) {}

    /// Block until every fed input has been processed and collect the
    /// rest — the graceful-exit drain point.
    fn drain(&mut self, _actions: &mut Vec<Action>) {}
}

impl ServedEngine for EnsembleEngine {
    fn recover_from(
        records: &[journal::JournalRecord],
        registry: &Registry,
        config: &ResolvedConfig,
        _sink: Arc<DispatchSink>,
    ) -> io::Result<journal::Recovery<Self>> {
        journal::recover(records, registry, config.engine_config())
    }
}

impl ServedEngine for ShardedEngine {
    fn recover_from(
        records: &[journal::JournalRecord],
        registry: &Registry,
        config: &ResolvedConfig,
        _sink: Arc<DispatchSink>,
    ) -> io::Result<journal::Recovery<Self>> {
        journal::recover_sharded(records, registry, config.engine_config(), config.shards)
    }
}

/// The free-running threaded shape: shard worker threads own the engines
/// and publish dispatches straight onto their per-shard topics through
/// the sink; the serve loop only routes. Inputs are journaled *before*
/// they reach a shard thread — cross-shard inputs commute (shards share no
/// state), so the single-writer WAL order replays into the same state the
/// shard threads reach, and `recover_sharded` + promotion rebuilds it.
impl ServedEngine for ParallelShardedEngine {
    fn recover_from(
        records: &[journal::JournalRecord],
        registry: &Registry,
        config: &ResolvedConfig,
        sink: Arc<DispatchSink>,
    ) -> io::Result<journal::Recovery<Self>> {
        let rec =
            journal::recover_sharded(records, registry, config.engine_config(), config.shards)?;
        let opts = ParallelOptions {
            threads: config.threads,
            dispatch_sink: Some(sink),
            ..ParallelOptions::default()
        };
        Ok(journal::Recovery {
            engine: ParallelShardedEngine::from_sharded(rec.engine, opts),
            resume_at: rec.resume_at,
            redispatch: rec.redispatch,
        })
    }

    fn feed_submit(
        &mut self,
        shard: usize,
        workflow: Arc<Workflow>,
        now: f64,
        _actions: &mut Vec<Action>,
    ) -> WorkflowId {
        self.enqueue_submit_to(shard, workflow, now)
    }

    fn feed_ack(&mut self, ack: AckMsg, now: f64, _actions: &mut Vec<Action>) {
        self.enqueue_ack(ack, now);
    }

    /// There is no synchronous before/after state comparison across
    /// threads, so scans are journaled unconditionally; replaying a no-op
    /// scan is itself a no-op, and compaction keeps the WAL from
    /// accumulating them.
    fn feed_scan(&mut self, now: f64, _actions: &mut Vec<Action>) -> bool {
        self.enqueue_scan(now);
        true
    }

    /// One batch per touched shard — the `ack_burst` pattern, applied
    /// cross-shard — then whatever replies have already come back.
    fn collect(&mut self, actions: &mut Vec<Action>) {
        self.flush();
        self.poll_actions(actions);
    }

    /// Stats cells are only advanced by shard threads after the settling
    /// input is fully processed, so the loop's exit check never fires
    /// early; quiesce to drain any progress events still in flight.
    fn drain(&mut self, actions: &mut Vec<Action>) {
        self.quiesce(actions);
    }
}

fn master_loop<T: MasterTransport>(
    transport: T,
    registry: Registry,
    config: ResolvedConfig,
    events: Sender<MasterEvent>,
    stop: Arc<AtomicBool>,
    shared: Arc<FaultPlaneShared>,
) -> EngineStats {
    assert!(config.shards >= 1, "shard count must be at least 1");
    if config.shards > 1 && config.threads >= 1 {
        serve::<T, ParallelShardedEngine>(transport, registry, config, events, stop, shared)
    } else if config.shards > 1 {
        serve::<T, ShardedEngine>(transport, registry, config, events, stop, shared)
    } else {
        serve::<T, EnsembleEngine>(transport, registry, config, events, stop, shared)
    }
}

/// The liveness plane as driven from a serve loop: owns the
/// [`LivenessTable`], journals every transition as a `W` record, warns
/// when an expiry hits a worker the recovered journal referenced but
/// that never re-registered (the silent-fallback fix), and mirrors
/// counters/snapshot into the shared handle state.
struct LivenessPlane {
    table: LivenessTable,
    shared: Arc<FaultPlaneShared>,
    transitions: Vec<LivenessTransition>,
    requeues: Vec<RequeueEntry>,
}

impl LivenessPlane {
    fn new(table: LivenessTable, shared: Arc<FaultPlaneShared>) -> Self {
        let plane = Self { table, shared, transitions: Vec::new(), requeues: Vec::new() };
        plane.publish();
        plane
    }

    /// Pull every queued lifecycle message and expire lapsed leases.
    /// Freed in-flight jobs are appended to `requeue_acks` as synthetic
    /// `Failed` acks for the caller to journal and feed to the engine.
    fn poll<T: MasterTransport>(
        &mut self,
        transport: &T,
        wal: &mut Option<Journal>,
        now: f64,
        requeue_acks: &mut Vec<AckMsg>,
    ) {
        while let Some(msg) = transport.try_pull_lifecycle() {
            self.table.on_lifecycle(&msg, now, &mut self.transitions, &mut self.requeues);
        }
        self.table.expire_due(now, &mut self.transitions, &mut self.requeues);
        let changed = !self.transitions.is_empty() || !self.requeues.is_empty();
        self.flush_transitions(wal);
        for r in self.requeues.drain(..) {
            requeue_acks.push(r.as_failed_ack());
        }
        if changed {
            self.publish();
        }
    }

    /// Ack fence: returns `false` for an ack from an expired worker —
    /// the caller must drop it (not journal it, not feed the engine).
    fn admit(&mut self, ack: &AckMsg, wal: &mut Option<Journal>, now: f64) -> bool {
        let before = self.table.stats();
        let ok = self.table.admit_ack(ack, now, &mut self.transitions);
        // Implicit registrations and rejections move counters without
        // emitting a transition, so publish on any stats change.
        let changed = !self.transitions.is_empty() || self.table.stats() != before;
        self.flush_transitions(wal);
        if changed {
            self.publish();
        }
        ok
    }

    fn flush_transitions(&mut self, wal: &mut Option<Journal>) {
        for t in self.transitions.drain(..) {
            if t.lost_in_recovery {
                eprintln!(
                    "dewe-master: WARN worker_lost_in_recovery worker={} generation={}: \
                     journal references a worker that never re-registered; requeueing its jobs",
                    t.worker, t.generation
                );
            }
            if let Some(w) = wal.as_mut() {
                w.record_worker(t.worker, t.generation, t.phase, t.at).expect("journal worker");
            }
        }
    }

    fn publish(&self) {
        *self.shared.stats.lock() = self.table.stats();
        *self.shared.snapshot.lock() = self.table.snapshot();
    }
}

/// Build the liveness plane for a (possibly recovering) master. On
/// recovery the journal's lifecycle history is replayed and every
/// still-live worker gets a grace lease from `resume_at` — workers that
/// never make contact again are expired (and flagged) when it lapses.
fn build_plane(
    config: &ResolvedConfig,
    shared: &Arc<FaultPlaneShared>,
    recovered: Option<(&[journal::JournalRecord], f64)>,
) -> Option<LivenessPlane> {
    let lease = config.lease_secs?;
    let table = match recovered {
        Some((records, resume_at)) => {
            let mut t = journal::replay_liveness(records, lease);
            t.grant_grace(resume_at);
            t
        }
        None => LivenessTable::new(lease),
    };
    Some(LivenessPlane::new(table, Arc::clone(shared)))
}

/// What the startup prologue hands the serve loop.
struct Opened<E> {
    engine: E,
    wal: Option<Journal>,
    liveness: Option<LivenessPlane>,
    /// Engine time continues across restarts: a recovered master resumes
    /// its clock from the last journaled instant so deadlines and
    /// makespans never run backwards.
    time_base: f64,
}

/// `e` with the failed step and the journal path in front of it.
fn journal_error(step: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{step} {}: {e}", path.display()))
}

/// Startup prologue: build the engine and open the WAL — a cold start, or
/// a takeover that replays an existing journal and republishes what it
/// leaves in flight. Everything here reads operator-supplied state from
/// disk (a journal from another run, a spool that no longer matches it, an
/// unwritable path), so every failure is returned, not unwrapped.
fn open<T: MasterTransport, E: ServedEngine>(
    transport: &T,
    registry: &Registry,
    config: &ResolvedConfig,
    shared: &Arc<FaultPlaneShared>,
) -> io::Result<Opened<E>> {
    let sink_transport = transport.clone();
    let sink_shared = Arc::clone(shared);
    let sink: Arc<DispatchSink> = Arc::new(move |shard, run: &mut Vec<DispatchMsg>| {
        publish_run(&sink_transport, &sink_shared, shard, run);
    });

    // The journal to take over from, if any. Without one this is a cold
    // start: the replay of an empty journal.
    let takeover = config.journal_path.as_deref().filter(|p| config.recover && p.exists());
    let records = match takeover {
        Some(path) => {
            journal::read_journal(path).map_err(|e| journal_error("read journal", path, e))?
        }
        None => Vec::new(),
    };
    let rec = E::recover_from(&records, registry, config, sink).map_err(|e| match takeover {
        Some(path) => journal_error("replay journal", path, e),
        None => e,
    })?;
    let Some(path) = takeover else {
        let wal = match &config.journal_path {
            Some(path) => Some(
                Journal::create(path)
                    .map_err(|e| journal_error("create journal", path, e))?
                    .with_policy(config.journal_commit),
            ),
            None => None,
        };
        let liveness = build_plane(config, shared, None);
        return Ok(Opened { engine: rec.engine, wal, liveness, time_base: 0.0 });
    };

    let engine = rec.engine;
    let liveness = build_plane(config, shared, Some((&records, rec.resume_at)));
    if liveness.is_some() {
        // The lifecycle backlog predates the takeover (heartbeats of
        // unknown age, possibly from workers that died during the
        // outage): discard it so stale traffic cannot pass for
        // post-recovery contact. Live workers re-prove themselves within
        // one heartbeat interval — well inside the grace lease — and even
        // a discarded one-shot Register heals, since any later heartbeat
        // or ack grants an implicit lease.
        while transport.try_pull_lifecycle().is_some() {}
    }
    // Re-announce every recovered workflow before anything is
    // redispatched: a networked transport starts with an empty mirror,
    // and workers must know a workflow before its jobs.
    announce_registry(transport, registry, engine.workflow_count());
    // Pre-crash queue state is unknown; republish everything the rebuilt
    // engine believes is in flight. Workers that already ran these
    // attempts produce duplicate-completion noise the engine tolerates.
    // With leases enabled, attempts the replayed table knows are checked
    // out by a (grace-leased) worker are NOT republished: a live worker
    // is still running them, and a dead one's lease lapse requeues them
    // through the retry machinery.
    for d in rec.redispatch {
        let held = liveness
            .as_ref()
            .is_some_and(|p| matches!(p.table.assignment(d.job), Some((_, a)) if a == d.attempt));
        if !held {
            transport.publish_dispatch(engine.shard_of(d.job.workflow), d);
        }
    }
    let mut wal = Journal::append(path)
        .map_err(|e| journal_error("reopen journal", path, e))?
        .with_policy(config.journal_commit);
    wal.note_existing(records.len());
    Ok(Opened { engine, wal: Some(wal), liveness, time_base: rec.resume_at })
}

/// The master's one serve loop, for every engine shape.
fn serve<T: MasterTransport, E: ServedEngine>(
    transport: T,
    registry: Registry,
    config: ResolvedConfig,
    events: Sender<MasterEvent>,
    stop: Arc<AtomicBool>,
    shared: Arc<FaultPlaneShared>,
) -> EngineStats {
    let Opened { mut engine, mut wal, mut liveness, time_base } =
        match open::<T, E>(&transport, &registry, &config, &shared) {
            Ok(opened) => opened,
            Err(e) => {
                let _ = events.send(MasterEvent::Failed { reason: e.to_string() });
                return EngineStats::default();
            }
        };
    let mut actions: Vec<Action> = Vec::new();
    let mut ack_burst: Vec<AckMsg> = Vec::with_capacity(config.ack_burst.max(1));
    let mut requeue_acks: Vec<AckMsg> = Vec::new();
    let mut batcher = DispatchBatcher::new(Arc::clone(&shared));

    let start = Instant::now();
    let mut last_scan = time_base;
    loop {
        if stop.load(Ordering::Relaxed) {
            // Simulated crash: drop everything on the floor.
            return engine.stats();
        }
        mirror_cascades(&shared, &engine);
        // Group-commit point: whatever the previous poll cycle buffered
        // becomes durable before this cycle ingests more input.
        if let Some(w) = wal.as_mut() {
            w.commit().expect("journal commit");
        }
        let now = time_base + start.elapsed().as_secs_f64();

        // 1. Ingest any newly submitted workflows.
        while let Some(sub) = transport.try_pull_submission() {
            let now = time_base + start.elapsed().as_secs_f64();
            // Insert into the registry BEFORE journaling or publishing so
            // neither a worker nor a recovering master can observe a job
            // of an unknown workflow. The routing decision is previewed
            // and journaled before the submission takes effect, so a
            // recovering master can force the identical placement. The
            // announcement broadcast sits between registry and journal so
            // a networked transport has durably mirrored the workflow
            // before the journal promises it exists.
            let expected_id = WorkflowId::from_index(engine.workflow_count());
            let shard = engine.route_next(&sub.workflow);
            registry.insert(expected_id, Arc::clone(&sub.workflow));
            transport.announce(WorkflowAnnounce {
                id: expected_id,
                name: sub.name.clone(),
                workflow: Arc::clone(&sub.workflow),
            });
            if let Some(w) = wal.as_mut() {
                w.record_submit(expected_id, shard, now).expect("journal submit");
            }
            let id = engine.feed_submit(shard, sub.workflow, now, &mut actions);
            debug_assert_eq!(id, expected_id);
            publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);
        }

        // 2. Timeout scan at the configured cadence.
        if now - last_scan >= config.timeout_scan_interval.as_secs_f64() {
            last_scan = now;
            if engine.feed_scan(now, &mut actions) {
                if let Some(w) = wal.as_mut() {
                    w.record_scan(now).expect("journal scan");
                }
            }
            publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);
        }

        // 2b. Liveness plane: ingest lifecycle traffic, expire lapsed
        // leases, and push the freed jobs back through the retry
        // machinery as synthetic Failed acks — journaled like any other
        // engine input, so replay reconstructs the identical requeues.
        if let Some(plane) = liveness.as_mut() {
            plane.poll(&transport, &mut wal, now, &mut requeue_acks);
            for ack in requeue_acks.drain(..) {
                if let Some(w) = wal.as_mut() {
                    w.record_ack(&ack, now).expect("journal ack");
                }
                engine.feed_ack(ack, now, &mut actions);
            }
        }

        engine.collect(&mut actions);
        publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);

        // 3. Exit once the expected workload has settled. (The engine's
        // own `AllCompleted`/`AllSettled` only cover workflows submitted
        // *so far*; the master must keep serving when more submissions
        // are expected.)
        if let Some(expected) = config.expected_workflows {
            let stats = engine.stats();
            if stats.workflows_completed + stats.workflows_abandoned >= expected {
                engine.drain(&mut actions);
                publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);
                let stats = engine.stats();
                // Graceful exit: make the group-commit window durable
                // before announcing completion — drop-flushing is for
                // crashes, not clean returns.
                commit_wal_on_exit(&mut wal);
                let ev = if stats.workflows_abandoned == 0 {
                    MasterEvent::AllCompleted { stats }
                } else {
                    MasterEvent::AllSettled { stats }
                };
                let _ = events.send(ev);
                mirror_cascades(&shared, &engine);
                return stats;
            }
        }

        // 4. Wait (briefly) for worker acknowledgments. The first pull
        // blocks up to the scan interval; once one ack arrives, the rest
        // of any burst is drained in a single batched grab so a flood of
        // completions costs one lock + one wakeup, not one per ack.
        match transport.pull_ack(config.timeout_scan_interval) {
            Some(first) => {
                ack_burst.push(first);
                if config.ack_burst > 1 {
                    transport.pull_ack_batch(&mut ack_burst, config.ack_burst - 1);
                }
                let now = time_base + start.elapsed().as_secs_f64();
                for ack in ack_burst.drain(..) {
                    // Zombie fence: acks from an expired worker are
                    // dropped before journaling — rejected input is not
                    // engine input.
                    if let Some(plane) = liveness.as_mut() {
                        if !plane.admit(&ack, &mut wal, now) {
                            continue;
                        }
                    }
                    if let Some(w) = wal.as_mut() {
                        w.record_ack(&ack, now).expect("journal ack");
                    }
                    engine.feed_ack(ack, now, &mut actions);
                }
                maybe_compact(&mut wal, &registry, &config);
                engine.collect(&mut actions);
                publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);
            }
            None => {
                if transport.ack_closed() {
                    engine.drain(&mut actions);
                    publish_actions(&transport, &engine, &events, &mut actions, &mut batcher);
                    // Transport-shutdown exit is as graceful as settling:
                    // commit the buffered window before returning.
                    commit_wal_on_exit(&mut wal);
                    mirror_cascades(&shared, &engine);
                    return engine.stats();
                }
            }
        }
    }
}

/// Make the group-commit window durable on a graceful serve-loop exit.
/// Before this hook, every non-crash return leaned on `Journal`'s drop
/// flush — which swallows errors by necessity. A failed final commit on
/// a clean exit is a real durability bug and must be loud.
fn commit_wal_on_exit(wal: &mut Option<Journal>) {
    if let Some(w) = wal.as_mut() {
        w.commit().expect("final journal commit on serve-loop exit");
    }
}

/// Broadcast the first `count` registry entries as workflow
/// announcements — the recovery-path mirror rebuild for networked
/// transports (the in-process bus drops announcements).
fn announce_registry<T: MasterTransport>(transport: &T, registry: &Registry, count: usize) {
    for idx in 0..count {
        let id = WorkflowId::from_index(idx);
        let Some(workflow) = registry.get(id) else {
            continue;
        };
        let name = workflow.name().to_string();
        transport.announce(WorkflowAnnounce { id, name, workflow });
    }
}

/// Compact the WAL once it crosses the configured record threshold —
/// completed workflows collapse to a synthetic prefix so recovery replay
/// stays proportional to live state, not ensemble lifetime. Compaction
/// failure is non-fatal: the journal keeps growing and recovery still
/// works, so log-and-continue beats taking the master down.
fn maybe_compact(wal: &mut Option<Journal>, registry: &Registry, config: &ResolvedConfig) {
    let (Some(w), Some(threshold)) = (wal.as_mut(), config.journal_compact_threshold) else {
        return;
    };
    if let Err(e) = w.maybe_compact(registry, config.engine_config(), threshold) {
        eprintln!("dewe-master: journal compaction failed (will retry): {e}");
    }
}

/// Mirror the engine's cumulative deadline-wheel cascade count into the
/// shared stats cell — a cheap atomic store, refreshed once per poll
/// cycle and at every graceful serve-loop exit so the final
/// [`MasterHandle::master_stats`] read is exact.
fn mirror_cascades<E: EngineCore>(shared: &FaultPlaneShared, engine: &E) {
    shared.timer_cascades.store(engine.timer_cascades(), Ordering::Relaxed);
}

/// Publish one shard's run of dispatches, draining it: a singleton takes
/// the per-job path (no frame overhead to amortize), a longer run goes
/// out as one [`Transport::publish_dispatch_batch`] call (one wire frame,
/// one window debit) and is counted into the shared [`MasterStats`]
/// counters. The one exit for dispatches, whether they leave from the
/// serve loop or from a shard thread's [`DispatchSink`].
fn publish_run<T: MasterTransport>(
    transport: &T,
    shared: &FaultPlaneShared,
    shard: usize,
    run: &mut Vec<DispatchMsg>,
) {
    match run.len() {
        0 => {}
        1 => {
            let d = run.pop().expect("run length checked");
            transport.publish_dispatch(shard, d);
        }
        n => {
            shared.dispatch_batches.fetch_add(1, Ordering::Relaxed);
            shared.batched_dispatches.fetch_add(n as u64, Ordering::Relaxed);
            transport.publish_dispatch_batch(shard, run);
        }
    }
}

/// Coalesces the consecutive same-shard dispatch runs one poll cycle
/// emits into single [`publish_run`] calls. The run buffer is reused for
/// the serve loop's lifetime.
struct DispatchBatcher {
    run: Vec<DispatchMsg>,
    run_shard: usize,
    shared: Arc<FaultPlaneShared>,
}

impl DispatchBatcher {
    fn new(shared: Arc<FaultPlaneShared>) -> Self {
        Self { run: Vec::new(), run_shard: 0, shared }
    }

    /// Queue `d` for `shard`, flushing the open run first when the
    /// shard changes (dispatch order within a shard is preserved; order
    /// across shards is meaningless — they share no workers).
    fn push<T: MasterTransport>(&mut self, transport: &T, shard: usize, d: DispatchMsg) {
        if shard != self.run_shard {
            self.flush(transport);
            self.run_shard = shard;
        }
        self.run.push(d);
    }

    /// Publish the open run.
    fn flush<T: MasterTransport>(&mut self, transport: &T) {
        publish_run(transport, &self.shared, self.run_shard, &mut self.run);
    }
}

/// Publish dispatch actions and forward progress events, draining the
/// caller's reusable buffer. Dispatches go to the owning workflow's shard
/// through the transport — coalesced per consecutive-shard run by the
/// batcher — and the run open at the end of the drain is flushed, so
/// every call publishes everything it was handed.
fn publish_actions<T: MasterTransport, E: EngineCore>(
    transport: &T,
    engine: &E,
    events: &Sender<MasterEvent>,
    actions: &mut Vec<Action>,
    batcher: &mut DispatchBatcher,
) {
    for action in actions.drain(..) {
        match action {
            Action::Dispatch(d) => {
                batcher.push(transport, engine.shard_of(d.job.workflow), d);
            }
            Action::WorkflowCompleted { workflow, makespan_secs } => {
                let _ = events.send(MasterEvent::WorkflowCompleted { workflow, makespan_secs });
            }
            Action::WorkflowAbandoned { workflow, dead_lettered, .. } => {
                let _ = events.send(MasterEvent::WorkflowAbandoned { workflow, dead_lettered });
            }
            Action::JobDeadLettered { .. } | Action::AllCompleted | Action::AllSettled => {}
        }
    }
    batcher.flush(transport);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AckKind, AckMsg};
    use dewe_dag::WorkflowBuilder;

    /// Drive the master with a hand-rolled "worker" on the test thread.
    #[test]
    fn master_runs_a_chain_to_completion() {
        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(1)
                .build(),
        );

        let mut b = WorkflowBuilder::new("chain");
        let a = b.job("a", "t", 1.0).build();
        let c = b.job("b", "t", 1.0).build();
        b.edge(a, c);
        let wf = Arc::new(b.finish().unwrap());
        super::super::submit(&bus, "chain", wf);

        // Act as the sole worker.
        for _ in 0..2 {
            let d = bus.dispatch.pull_timeout(Duration::from_secs(5)).expect("dispatch");
            assert!(registry.get(d.job.workflow).is_some(), "registry populated first");
            bus.ack.publish(AckMsg {
                job: d.job,
                worker: 0,
                kind: AckKind::Running,
                attempt: d.attempt,
            });
            bus.ack.publish(AckMsg {
                job: d.job,
                worker: 0,
                kind: AckKind::Completed,
                attempt: d.attempt,
            });
        }

        // Completion event arrives, then shut the master down.
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }));
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::AllCompleted { .. }));
        bus.shutdown();
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.workflows_completed, 1);
    }

    /// The startup prologue reads operator-supplied state from disk. An
    /// unusable journal must surface as one `Failed` event and a clean
    /// exit on every engine shape — never as a panic of the master thread.
    #[test]
    fn unusable_journal_fails_the_master_without_panicking() {
        let dir = std::env::temp_dir().join(format!("dewe-master-unusable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        let wf = Arc::new(b.finish().unwrap());

        // A journal whose only workflow sits on shard 3.
        let journal = dir.join("shard3.wal");
        let mut j = Journal::create(&journal).unwrap();
        j.record_submit(WorkflowId(0), 3, 0.5).unwrap();
        drop(j);
        let corrupt = dir.join("corrupt.wal");
        std::fs::write(&corrupt, "not a record\nnor is this\n").unwrap();

        for (shards, threads) in [(1, 0), (2, 0), (2, 2)] {
            // (journal, recover, registry knows workflow 0, reason fragment)
            let mut cases = vec![
                (journal.clone(), true, false, "absent from registry"),
                (corrupt.clone(), true, true, "corrupt journal record"),
                (dir.join("no-such-dir").join("new.wal"), false, true, "create journal"),
            ];
            if shards > 1 {
                // Written by a 4-shard master, recovered by a 2-shard one.
                cases.push((journal.clone(), true, true, "on shard 3"));
            }
            for (path, recover, spooled, fragment) in cases {
                let registry = Registry::new();
                if spooled {
                    registry.insert(WorkflowId(0), Arc::clone(&wf));
                }
                let handle = spawn_master(
                    MessageBus::sharded(shards),
                    registry,
                    MasterConfig::builder()
                        .shards(shards)
                        .threads(threads)
                        .journal_path(&path)
                        .recover(recover)
                        .build(),
                );
                let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
                let MasterEvent::Failed { reason } = ev else {
                    panic!("shards {shards} threads {threads}: expected Failed, got {ev:?}");
                };
                assert!(reason.contains(fragment), "{reason:?} should mention {fragment:?}");
                assert!(reason.contains(&path.display().to_string()), "{reason:?} names the file");
                assert_eq!(handle.join(), EngineStats::default(), "exited without serving");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn master_counts_coalesced_dispatch_runs() {
        // A 1 → 16 fan-out: the root's completion releases 16 jobs in
        // one poll cycle, so with batching on (the default) the serve
        // loop must publish at least one coalesced run and account for
        // it in the shared counters.
        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(1)
                .build(),
        );

        let mut b = WorkflowBuilder::new("fan");
        let root = b.job("root", "t", 1.0).build();
        for i in 0..16 {
            let child = b.job(format!("c{i}"), "t", 1.0).build();
            b.edge(root, child);
        }
        let wf = Arc::new(b.finish().unwrap());
        super::super::submit(&bus, "fan", wf);

        for _ in 0..17 {
            let d = bus.dispatch.pull_timeout(Duration::from_secs(5)).expect("dispatch");
            bus.ack.publish(AckMsg {
                job: d.job,
                worker: 0,
                kind: AckKind::Completed,
                attempt: d.attempt,
            });
        }
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }));
        let stats = handle.master_stats();
        assert!(stats.dispatch_batches >= 1, "fan-out run was coalesced");
        assert!(
            stats.batched_dispatches >= 2 * stats.dispatch_batches,
            "every counted batch holds at least two dispatches"
        );
        assert_eq!(stats.timer_cascades, 0, "nothing timed out, nothing cascaded");
        bus.shutdown();
        handle.join();
    }

    #[test]
    fn master_ingests_ack_bursts_in_batches() {
        // 32 independent jobs, all acknowledged at once: the master must
        // drain the flood in batches (bounded by ack_burst) and still
        // account for every completion exactly once.
        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(1)
                .ack_burst(5) // force several batches
                .build(),
        );
        let mut b = WorkflowBuilder::new("wide");
        for i in 0..32 {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        super::super::submit(&bus, "wide", Arc::new(b.finish().unwrap()));

        let mut acks = Vec::new();
        for _ in 0..32 {
            let d = bus.dispatch.pull_timeout(Duration::from_secs(5)).expect("dispatch");
            acks.push(AckMsg { job: d.job, worker: 0, kind: AckKind::Running, attempt: d.attempt });
            acks.push(AckMsg {
                job: d.job,
                worker: 0,
                kind: AckKind::Completed,
                attempt: d.attempt,
            });
        }
        bus.ack.publish_all(acks);
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, 32);
        assert_eq!(stats.duplicate_completions, 0);
        assert_eq!(stats.workflows_completed, 1);
    }

    #[test]
    fn master_resubmits_unacknowledged_job() {
        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .default_timeout_secs(0.05)
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(1)
                .build(),
        );
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        super::super::submit(&bus, "one", Arc::new(b.finish().unwrap()));

        // First dispatch: check it out (Running ack) then crash — no
        // completion ever arrives, so the checkout timeout must fire.
        let d1 = bus.dispatch.pull_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d1.attempt, 1);
        bus.ack.publish(AckMsg { job: d1.job, worker: 0, kind: AckKind::Running, attempt: 1 });
        // Timeout fires; a resubmission appears.
        let d2 = bus.dispatch.pull_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d2.attempt, 2);
        // Complete it this time.
        bus.ack.publish(AckMsg { job: d2.job, worker: 1, kind: AckKind::Running, attempt: 2 });
        bus.ack.publish(AckMsg { job: d2.job, worker: 1, kind: AckKind::Completed, attempt: 2 });
        let stats = handle.join();
        assert_eq!(stats.resubmissions, 1);
        assert_eq!(stats.workflows_completed, 1);
    }

    /// A sharded master fans each workflow's jobs out to the worker pool
    /// pinned to its shard — from the serve loop (`threads` 0) or from
    /// the free-running shard threads themselves.
    #[test]
    fn sharded_master_fans_out_to_pinned_worker_pools() {
        use crate::realtime::runner::NoopRunner;
        use crate::realtime::worker::{spawn_worker, WorkerConfig};

        for threads in [0, 2] {
            let bus = MessageBus::sharded(2);
            let registry = Registry::new();
            let handle = spawn_master(
                bus.clone(),
                registry.clone(),
                MasterConfig::builder()
                    .shards(2)
                    .threads(threads)
                    .timeout_scan_interval(Duration::from_millis(10))
                    .expected_workflows(6)
                    .build(),
            );
            // One worker pool per shard, each pinned to its shard topic.
            let workers: Vec<_> = (0..2)
                .map(|shard| {
                    spawn_worker(
                        bus.clone(),
                        registry.clone(),
                        Arc::new(NoopRunner),
                        WorkerConfig {
                            worker_id: shard as u32,
                            slots: 2,
                            shard: Some(shard),
                            ..WorkerConfig::default()
                        },
                    )
                })
                .collect();
            for i in 0..6 {
                let mut b = WorkflowBuilder::new("wf");
                let a = b.job("a", "t", 1.0).build();
                let c = b.job("b", "t", 1.0).build();
                b.edge(a, c);
                super::super::submit(&bus, format!("wf{i}"), Arc::new(b.finish().unwrap()));
            }
            let mut completions = 0;
            while let Ok(ev) = handle.events.recv_timeout(Duration::from_secs(10)) {
                match ev {
                    MasterEvent::WorkflowCompleted { .. } => completions += 1,
                    MasterEvent::AllCompleted { .. } => break,
                    other => panic!("threads {threads}: unexpected event {other:?}"),
                }
            }
            assert_eq!(completions, 6, "threads {threads}: every completion event forwarded");
            let stats = handle.join();
            assert_eq!(stats.workflows_completed, 6);
            assert_eq!(stats.jobs_completed, 12);
            let executed: u64 = workers.into_iter().map(|w| w.stop()).sum();
            assert_eq!(executed, 12, "threads {threads}: pinned pools executed everything");
            // Nothing ever landed on the shared fallback topic.
            assert!(bus.dispatch.try_pull().is_none());
        }
    }

    /// Pull the next dispatch from whichever shard topic produces one.
    fn pull_any(bus: &MessageBus, shards: usize) -> Option<(usize, crate::DispatchMsg)> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            for shard in 0..shards {
                if let Some(d) = bus.dispatch_topic(shard).try_pull() {
                    return Some((shard, d));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn lease_expiry_requeues_a_dead_workers_job_and_fences_its_acks() {
        use crate::protocol::{LifecycleKind, LifecycleMsg};
        use crate::realtime::WorkerPhase;

        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            // Job timeout is deliberately long: recovery must come
            // from the lease, not the timeout scan.
            MasterConfig::builder()
                .default_timeout_secs(30.0)
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(1)
                .lease_secs(0.15)
                .build(),
        );
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        super::super::submit(&bus, "one", Arc::new(b.finish().unwrap()));

        // Worker 5 registers, checks the job out, then dies silently.
        let d1 = bus.dispatch.pull_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d1.attempt, 1);
        bus.lifecycle.publish(LifecycleMsg {
            worker: 5,
            generation: 0,
            kind: LifecycleKind::Register,
        });
        bus.ack.publish(AckMsg { job: d1.job, worker: 5, kind: AckKind::Running, attempt: 1 });

        // The lease lapses and the job is requeued as attempt 2.
        let d2 = bus.dispatch.pull_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d2.attempt, 2);
        // A zombie completion for the dead attempt is fenced out; a live
        // worker finishes the requeued attempt.
        bus.ack.publish(AckMsg { job: d1.job, worker: 5, kind: AckKind::Completed, attempt: 1 });
        bus.ack.publish(AckMsg { job: d2.job, worker: 6, kind: AckKind::Running, attempt: 2 });
        bus.ack.publish(AckMsg { job: d2.job, worker: 6, kind: AckKind::Completed, attempt: 2 });

        loop {
            match handle.events.recv_timeout(Duration::from_secs(5)).unwrap() {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        let ms = handle.master_stats();
        assert_eq!(ms.workers_expired, 1);
        assert_eq!(ms.jobs_requeued_on_expiry, 1);
        assert_eq!(ms.stale_acks_rejected, 1);
        assert_eq!(ms.workers_registered, 2, "worker 6 got an implicit lease");
        let rows = handle.liveness_snapshot();
        assert_eq!(rows.iter().filter(|r| r.phase == WorkerPhase::Expired).count(), 1);
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.duplicate_completions, 0, "fenced before the engine");
    }

    #[test]
    fn drained_worker_completes_gracefully_under_leases() {
        use crate::realtime::runner::NoopRunner;
        use crate::realtime::worker::{spawn_worker, WorkerConfig};

        let bus = MessageBus::new();
        let registry = Registry::new();
        let handle = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .timeout_scan_interval(Duration::from_millis(10))
                .expected_workflows(4)
                .lease_secs(2.0)
                .build(),
        );
        let mk_worker = |id: u32| {
            spawn_worker(
                bus.clone(),
                registry.clone(),
                Arc::new(NoopRunner),
                WorkerConfig {
                    worker_id: id,
                    slots: 2,
                    pull_timeout: Duration::from_millis(5),
                    heartbeat_interval: Some(Duration::from_millis(20)),
                    ..WorkerConfig::default()
                },
            )
        };
        let w0 = mk_worker(0);
        let w1 = mk_worker(1);
        for i in 0..2 {
            let mut b = WorkflowBuilder::new("wf");
            b.job("a", "t", 1.0).build();
            b.job("b", "t", 1.0).build();
            super::super::submit(&bus, format!("wf{i}"), Arc::new(b.finish().unwrap()));
        }
        // Wait for the first batch to finish, then drain worker 1 and
        // submit more work — only worker 0 serves it.
        let mut settled = 0;
        while settled < 2 {
            if let MasterEvent::WorkflowCompleted { .. } =
                handle.events.recv_timeout(Duration::from_secs(10)).unwrap()
            {
                settled += 1;
            }
        }
        w1.drain();
        for i in 2..4 {
            let mut b = WorkflowBuilder::new("wf");
            b.job("a", "t", 1.0).build();
            b.job("b", "t", 1.0).build();
            super::super::submit(&bus, format!("wf{i}"), Arc::new(b.finish().unwrap()));
        }
        loop {
            match handle.events.recv_timeout(Duration::from_secs(10)).unwrap() {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        let ms = handle.master_stats();
        assert_eq!(ms.drains_completed, 1);
        assert_eq!(ms.workers_expired, 0, "heartbeats kept every lease alive");
        assert_eq!(ms.jobs_requeued_on_expiry, 0);
        let stats = handle.join();
        assert_eq!(stats.workflows_completed, 4);
        w0.stop();
    }

    #[test]
    fn master_dead_letters_and_exits_settled() {
        // Every engine shape; (2, 1) is one shard thread owning both shards.
        for (shards, threads) in [(1, 0), (2, 0), (2, 1)] {
            let bus = MessageBus::sharded(shards);
            let registry = Registry::new();
            let handle = spawn_master(
                bus.clone(),
                registry.clone(),
                MasterConfig::builder()
                    .shards(shards)
                    .threads(threads)
                    .timeout_scan_interval(Duration::from_millis(5))
                    .expected_workflows(1)
                    .retry(RetryPolicy { max_attempts: Some(2), ..RetryPolicy::default() })
                    .build(),
            );
            let mut b = WorkflowBuilder::new("poison");
            b.job("a", "t", 1.0).build();
            super::super::submit(&bus, "poison", Arc::new(b.finish().unwrap()));

            // Fail every attempt; after the cap the workflow is abandoned
            // and the master exits with partial completion. The lone
            // workflow lands on some shard and its retries stay there.
            let mut shard = None;
            for attempt in 1..=2 {
                let (from, d) = pull_any(&bus, shards).expect("dispatch");
                assert_eq!(d.attempt, attempt);
                assert_eq!(*shard.get_or_insert(from), from, "retry left its shard");
                bus.ack.publish(AckMsg { job: d.job, worker: 0, kind: AckKind::Running, attempt });
                bus.ack.publish(AckMsg { job: d.job, worker: 0, kind: AckKind::Failed, attempt });
            }
            let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                ev,
                MasterEvent::WorkflowAbandoned { workflow: WorkflowId(0), dead_lettered: 1 }
            );
            let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(ev, MasterEvent::AllSettled { .. }), "shards {shards}: got {ev:?}");
            let stats = handle.join();
            assert_eq!(stats.dead_lettered, 1);
            assert_eq!(stats.workflows_abandoned, 1);
            assert_eq!(stats.workflows_completed, 0);
        }
    }
}
