use super::*;

/// Spawn the master daemon over any [`MasterTransport`] — in practice a
/// [`TcpMaster`](crate::realtime::TcpMaster) — and return its handle.
///
/// It pulls submissions for new workflows and acks for worker progress,
/// publishes eligible jobs as dispatches, and resubmits each timed-out job
/// when its deadline comes. With [`MasterConfig::journal_path`] set it
/// write-ahead journals every input, and it first takes over whatever
/// journal it finds there: it replays it, rebuilding the pre-crash engine,
/// submits any workflow the registry holds past it, and republishes
/// in-flight jobs. No journal, or an empty one, is a cold start. A journal
/// that cannot be read, replayed against the registry, opened or written
/// to is reported as [`MasterEvent::Failed`].
pub fn spawn_master_on<T: MasterTransport>(
    transport: T,
    registry: Registry,
    config: MasterConfig,
) -> MasterHandle {
    let (tx, rx): (Sender<MasterEvent>, Receiver<MasterEvent>) = unbounded();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let transport = Arc::new(transport);
    let transport2 = Arc::clone(&transport);
    let shared = Arc::new(FaultPlaneShared::default());
    let shared2 = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("dewe-master".into())
        .spawn(move || master_loop(&*transport2, registry, config, tx, stop2, shared2))
        .expect("spawn master thread");
    MasterHandle { thread: Some(thread), stop, transport, shared, events: rx }
}

/// The master thread: run [`serve`], and turn the one way it can fail — an
/// error reading, replaying, opening or writing the journal — into the one
/// [`MasterEvent::Failed`] exit.
fn master_loop<T: MasterTransport>(
    transport: &T,
    registry: Registry,
    config: MasterConfig,
    events: Sender<MasterEvent>,
    stop: Arc<AtomicBool>,
    shared: Arc<FaultPlaneShared>,
) -> EngineStats {
    match serve(transport, &registry, &config, &events, &stop, &shared) {
        Ok(stats) => stats,
        Err(e) => {
            let _ = events.send(MasterEvent::Failed { reason: e.to_string() });
            EngineStats::default()
        }
    }
}

/// The master's write-ahead journal, when it has one, with the path it
/// was opened at — so a failed write can say which step failed on which
/// file.
struct Wal(Option<(Journal, PathBuf)>);

impl Wal {
    /// Run one journal operation (a no-op without a journal).
    fn write(
        &mut self,
        step: &str,
        write: impl FnOnce(&mut Journal) -> io::Result<()>,
    ) -> io::Result<()> {
        match &mut self.0 {
            Some((journal, path)) => write(journal).map_err(|e| journal_error(step, path, e)),
            None => Ok(()),
        }
    }

    /// The write-ahead barrier (see [`Journal::commit`]): between
    /// journaling inputs and acting on them.
    fn commit(&mut self) -> io::Result<()> {
        self.write("journal commit", Journal::commit)
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

    /// Pull every queued lifecycle message and, once a lease has lapsed,
    /// expire what lapsed. Freed in-flight jobs are appended to `requeue_acks`
    /// as synthetic `Failed` acks for the caller to journal and feed the engine.
    fn poll<T: MasterTransport>(
        &mut self,
        transport: &T,
        wal: &mut Wal,
        now: f64,
        requeue_acks: &mut Vec<AckMsg>,
    ) -> io::Result<()> {
        while let Some(msg) = transport.try_pull_lifecycle() {
            self.table.on_lifecycle(&msg, now, &mut self.transitions, &mut self.requeues);
        }
        if self.table.next_expiry().is_some_and(|due| due <= now) {
            self.table.expire_due(now, &mut self.transitions, &mut self.requeues);
        }
        let changed = !self.transitions.is_empty() || !self.requeues.is_empty();
        self.flush_transitions(wal)?;
        for r in self.requeues.drain(..) {
            requeue_acks.push(r.as_failed_ack());
        }
        if changed {
            self.publish();
        }
        Ok(())
    }

    /// Ack fence: returns `false` for an ack from an expired worker —
    /// the caller must drop it (not journal it, not feed the engine).
    fn admit(&mut self, ack: &AckMsg, wal: &mut Wal, now: f64) -> io::Result<bool> {
        let before = self.table.stats();
        let ok = self.table.admit_ack(ack, now, &mut self.transitions);
        // Implicit registrations and rejections move counters without
        // emitting a transition, so publish on any stats change.
        let changed = !self.transitions.is_empty() || self.table.stats() != before;
        self.flush_transitions(wal)?;
        if changed {
            self.publish();
        }
        Ok(ok)
    }

    fn flush_transitions(&mut self, wal: &mut Wal) -> io::Result<()> {
        for t in self.transitions.drain(..) {
            if t.lost_in_recovery {
                eprintln!(
                    "dewe-master: WARN worker_lost_in_recovery worker={} generation={}: \
                     journal references a worker that never re-registered; requeueing its jobs",
                    t.worker, t.generation
                );
            }
            wal.write("journal worker", |w| {
                w.record_worker(t.worker, t.generation, t.phase, t.at)
            })?;
        }
        Ok(())
    }

    fn publish(&self) {
        *self.shared.stats.lock() = self.table.stats();
        *self.shared.snapshot.lock() = self.table.snapshot();
    }
}

/// Build the liveness plane from the journal's lifecycle history: every
/// still-live worker it names gets a grace lease from `resume_at`, and one
/// that never makes contact again is expired (and flagged) when it lapses.
fn build_plane(
    config: &MasterConfig,
    shared: &Arc<FaultPlaneShared>,
    records: &[journal::JournalRecord],
    resume_at: f64,
) -> Option<LivenessPlane> {
    let mut table = journal::replay_liveness(records, config.lease_secs?);
    table.grant_grace(resume_at);
    Some(LivenessPlane::new(table, Arc::clone(shared)))
}

/// What the startup prologue hands the serve loop.
struct Opened {
    engine: EnsembleEngine,
    wal: Wal,
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

/// Startup prologue, one path for every start: take over the journal — a
/// regular file is read, a missing one is a cold start, anything else (a
/// device) is appended to unread — then submit what the registry holds past
/// it and republish what it leaves in flight. Everything here reads
/// operator-supplied state from disk, so every failure is returned.
fn open<T: MasterTransport>(
    transport: &T,
    registry: &Registry,
    config: &MasterConfig,
    events: &Sender<MasterEvent>,
    shared: &Arc<FaultPlaneShared>,
) -> io::Result<Opened> {
    let path = config.journal_path.as_deref();
    let records = match path.filter(|p| p.is_file()) {
        Some(p) => journal::read_journal(p).map_err(|e| journal_error("read journal", p, e))?,
        None => Vec::new(),
    };
    let rec = journal::recover(&records, registry, config.engine).map_err(|e| match path {
        Some(p) => journal_error("replay journal", p, e),
        None => e,
    })?;
    let mut wal = Wal(match path {
        Some(p) => {
            Some((Journal::append(p).map_err(|e| journal_error("open journal", p, e))?, p.into()))
        }
        None => None,
    });
    let mut engine = rec.engine;
    let liveness = build_plane(config, shared, &records, rec.resume_at);
    if liveness.is_some() && !records.is_empty() {
        // After a takeover the lifecycle backlog predates it (heartbeats of
        // unknown age, possibly from workers that died during the
        // outage): discard it so stale traffic cannot pass for
        // post-recovery contact. Live workers re-prove themselves within
        // one heartbeat interval — well inside the grace lease — and even
        // a discarded one-shot Register heals, since any later heartbeat
        // or ack grants an implicit lease.
        while transport.try_pull_lifecycle().is_some() {}
    }
    // A registry that runs past the journal holds workflows a dead master
    // spooled and announced but never journaled (all of them, when there is
    // no journal or an empty one). Workers may mirror them under these ids
    // already, so they are submitted, not dropped: in id order, each
    // journaled before the engine sees it.
    let mut actions = Vec::new();
    loop {
        let id = WorkflowId::from_index(engine.workflow_count());
        let Some(workflow) = registry.get(id) else {
            break;
        };
        wal.write("journal submit", |w| w.record_submit(id, 0, rec.resume_at))?;
        engine.submit_workflow(workflow, rec.resume_at, &mut actions);
    }
    // Re-announce every workflow before anything is dispatched: a
    // networked transport starts with an empty mirror, and workers must
    // know a workflow before its jobs.
    announce_registry(transport, registry)?;
    // Pre-crash queue state is unknown; republish everything the rebuilt
    // engine believes is in flight. Workers that already ran these
    // attempts produce duplicate-completion noise the engine tolerates.
    // With leases enabled, attempts the replayed table knows are checked
    // out by a (grace-leased) worker are NOT republished: a live worker
    // is still running them, and a dead one's lease lapse requeues them
    // through the retry machinery.
    let mut run = rec.redispatch;
    if let Some(plane) = &liveness {
        run.retain(|d| !matches!(plane.table.assignment(d.job), Some((_, a)) if a == d.attempt));
    }
    publish_actions(transport, events, &mut actions, &mut run);
    Ok(Opened { engine, wal, liveness, time_base: rec.resume_at })
}

/// The master's one serve loop. Each step journals its inputs, passes the
/// write-ahead barrier, and only then lets effects (dispatches, events)
/// leave — so an ack burst costs one journal write, made before the engine
/// sees the burst, and the journal's buffer is empty whenever the loop
/// comes round or returns. Every journal write that fails — here or in the
/// startup prologue — ends the loop with the error, naming the step and the
/// journal file; [`master_loop`] reports that as [`MasterEvent::Failed`].
fn serve<T: MasterTransport>(
    transport: &T,
    registry: &Registry,
    config: &MasterConfig,
    events: &Sender<MasterEvent>,
    stop: &AtomicBool,
    shared: &Arc<FaultPlaneShared>,
) -> io::Result<EngineStats> {
    let Opened { mut engine, mut wal, mut liveness, time_base } =
        open(transport, registry, config, events, shared)?;
    let mut actions: Vec<Action> = Vec::new();
    let mut ack_burst: Vec<AckMsg> = Vec::with_capacity(ACK_BURST);
    let mut requeue_acks: Vec<AckMsg> = Vec::new();
    let mut run: Vec<DispatchMsg> = Vec::new();

    let start = Instant::now();
    let clock = || time_base + start.elapsed().as_secs_f64();
    loop {
        if stop.load(Ordering::Relaxed) {
            // Simulated crash: drop everything on the floor.
            return Ok(engine.stats());
        }
        let now = clock();

        // 1. Ingest any newly submitted workflows.
        while let Some(sub) = transport.try_pull_submission() {
            let now = clock();
            // Insert into the registry BEFORE journaling or publishing: it
            // is what a takeover replays the journal against. Workers read
            // their own mirrors, filled from the announcement, which each
            // connection carries ahead of any of the workflow's jobs. The
            // announcement sits between registry and journal so a
            // networked transport has durably spooled the workflow before
            // the journal promises it exists; one that could not (or would
            // not: a text over the frame cap) ends the loop here,
            // unjournaled.
            let expected_id = WorkflowId::from_index(engine.workflow_count());
            registry.insert(expected_id, Arc::clone(&sub.workflow));
            transport.announce(WorkflowAnnounce {
                id: expected_id,
                name: sub.name,
                workflow: Arc::clone(&sub.workflow),
            })?;
            wal.write("journal submit", |w| w.record_submit(expected_id, 0, now))?;
            let id = engine.submit_workflow(sub.workflow, now, &mut actions);
            debug_assert_eq!(id, expected_id);
            publish_actions(transport, events, &mut actions, &mut run);
        }

        // 2. Timeout scan, once the earliest deadline has passed. A scan is
        // journaled after the fact and only when it changed engine state: if
        // the record is lost to a crash, the rebuilt deadline timer still
        // holds the expired entries and the recovered master's first scan
        // redoes the work (re-publishing at worst a duplicate dispatch).
        if engine.next_deadline().is_some_and(|due| due <= now) {
            let before = engine.stats();
            engine.check_timeouts(now, &mut actions);
            if !actions.is_empty() || engine.stats() != before {
                wal.write("journal scan", |w| w.record_scan(now))?;
                wal.commit()?;
            }
            publish_actions(transport, events, &mut actions, &mut run);
        }

        // 2b. Liveness plane: ingest lifecycle traffic, expire lapsed
        // leases, and push the freed jobs back through the retry
        // machinery as synthetic Failed acks — journaled like any other
        // engine input, so replay reconstructs the identical requeues.
        if let Some(plane) = liveness.as_mut() {
            plane.poll(transport, &mut wal, now, &mut requeue_acks)?;
            for ack in &requeue_acks {
                wal.write("journal ack", |w| w.record_ack(ack, now))?;
            }
            wal.commit()?;
            for ack in requeue_acks.drain(..) {
                engine.on_ack(ack, now, &mut actions);
            }
            publish_actions(transport, events, &mut actions, &mut run);
        } else {
            // With no plane to read it, lifecycle traffic is dropped, not kept.
            while transport.try_pull_lifecycle().is_some() {}
        }

        // 3. Exit once the expected workload has settled: counted here, for
        // the engine has seen only the workflows submitted so far.
        if let Some(expected) = config.expected_workflows {
            let stats = engine.stats();
            if stats.workflows_completed + stats.workflows_abandoned >= expected {
                let ev = if stats.workflows_abandoned == 0 {
                    MasterEvent::AllCompleted { stats }
                } else {
                    MasterEvent::AllSettled { stats }
                };
                let _ = events.send(ev);
                return Ok(stats);
            }
        }

        // 4. Wait for worker acknowledgments — until the earliest deadline or
        // lease expiry (with none, for as long as it takes), or until the
        // doorbell rings for a submission, a lifecycle message or a kill
        // (`pull_ack` then returns `None` at once and the loop goes round).
        // Once one ack arrives, the rest of any burst is drained in a single
        // grab so a flood of completions costs one lock + one wakeup.
        let expiry = liveness.as_ref().and_then(|plane| plane.table.next_expiry());
        let due = [engine.next_deadline(), expiry].into_iter().flatten().reduce(f64::min);
        match transport.pull_ack(time_until(due, clock())) {
            Some(first) => {
                ack_burst.push(first);
                transport.pull_ack_batch(&mut ack_burst, ACK_BURST - 1);
                let now = clock();
                // Fence and journal the whole burst in arrival order, one
                // write for all of it; only then does the engine see it.
                let mut admitted = 0;
                for i in 0..ack_burst.len() {
                    let ack = ack_burst[i];
                    // Zombie fence: acks from an expired worker are
                    // dropped before journaling — rejected input is not
                    // engine input.
                    if let Some(plane) = liveness.as_mut() {
                        if !plane.admit(&ack, &mut wal, now)? {
                            continue;
                        }
                    }
                    wal.write("journal ack", |w| w.record_ack(&ack, now))?;
                    ack_burst[admitted] = ack;
                    admitted += 1;
                }
                ack_burst.truncate(admitted);
                wal.commit()?;
                for ack in ack_burst.drain(..) {
                    engine.on_ack(ack, now, &mut actions);
                }
                publish_actions(transport, events, &mut actions, &mut run);
            }
            None => {
                if transport.ack_closed() {
                    return Ok(engine.stats());
                }
            }
        }
    }
}

/// Broadcast every registry entry as a workflow announcement — the
/// recovery-path rebuild of the workers' mirrors. The name is the DAG's
/// own; a transport that spooled the workflow under another announces it
/// under that one (`TcpMaster::load_spool`).
fn announce_registry<T: MasterTransport>(transport: &T, registry: &Registry) -> io::Result<()> {
    for idx in 0..registry.len() {
        let id = WorkflowId::from_index(idx);
        let Some(workflow) = registry.get(id) else {
            continue;
        };
        let name = workflow.name().to_string();
        transport.announce(WorkflowAnnounce { id, name, workflow })?;
    }
    Ok(())
}

/// How long from engine time `now` until `due`, rounded up so a sleep of it
/// never ends short of `due` (one already past is no wait); nothing due, forever.
fn time_until(due: Option<f64>, now: f64) -> Duration {
    due.map_or(Duration::MAX, |due| Duration::from_nanos(((due - now) * 1e9).ceil() as u64))
}

/// Publish the dispatch actions of one engine step as a single run —
/// one [`Transport::publish_dispatch_batch`] call, whatever its length
/// (the transport decides how a run of one travels) — and forward
/// progress events, draining the caller's reusable buffers.
fn publish_actions<T: MasterTransport>(
    transport: &T,
    events: &Sender<MasterEvent>,
    actions: &mut Vec<Action>,
    run: &mut Vec<DispatchMsg>,
) {
    for action in actions.drain(..) {
        match action {
            Action::Dispatch(d) => run.push(d),
            Action::WorkflowCompleted { workflow, makespan_secs } => {
                let _ = events.send(MasterEvent::WorkflowCompleted { workflow, makespan_secs });
            }
            Action::WorkflowAbandoned { workflow, dead_lettered, .. } => {
                let _ = events.send(MasterEvent::WorkflowAbandoned { workflow, dead_lettered });
            }
            Action::JobDeadLettered { .. } => {}
        }
    }
    if !run.is_empty() {
        transport.publish_dispatch_batch(0, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AckKind, AckMsg, LifecycleKind};
    use crate::realtime::testutil::{endpoint, link, next_dispatch, submit};
    use crate::realtime::TcpMaster;
    use dewe_dag::WorkflowBuilder;
    use dewe_mq::{Topic, WorkerTransport};
    use std::sync::atomic::AtomicU64;

    /// The startup prologue reads operator-supplied state from disk. An
    /// unusable journal must surface as one `Failed` event and a clean
    /// exit — never as a panic of the master thread.
    #[test]
    fn unusable_journal_fails_the_master_without_panicking() {
        let dir = std::env::temp_dir().join(format!("dewe-master-unusable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        let wf = Arc::new(b.finish().unwrap());

        let journal = dir.join("one-submission.wal");
        let mut j = Journal::create(&journal).unwrap();
        j.record_submit(WorkflowId(0), 0, 0.5).unwrap();
        drop(j);
        let corrupt = dir.join("corrupt.wal");
        std::fs::write(&corrupt, "not a record\nnor is this\n").unwrap();

        // (journal, registry knows workflow 0, reason fragment)
        let cases = [
            (journal.clone(), false, "absent from registry"),
            (corrupt.clone(), true, "corrupt journal record"),
            (dir.join("no-such-dir").join("new.wal"), true, "open journal"),
        ];
        for (path, spooled, fragment) in cases {
            let registry = Registry::new();
            if spooled {
                registry.insert(WorkflowId(0), Arc::clone(&wf));
            }
            let handle = spawn_master_on(
                endpoint(),
                registry,
                MasterConfig { journal_path: Some(path.clone()), ..MasterConfig::default() },
            );
            let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
            let MasterEvent::Failed { reason } = ev else {
                panic!("expected Failed, got {ev:?}");
            };
            assert!(reason.contains(fragment), "{reason:?} should mention {fragment:?}");
            assert!(reason.contains(&path.display().to_string()), "{reason:?} names the file");
            assert_eq!(handle.join(), EngineStats::default(), "exited without serving");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A master takes over whatever journal and registry it is started on.
    /// A registry an earlier master filled is served on from where that
    /// master's journal left it, or, with no journal, from every workflow's
    /// roots; no start hands a new submission an id the registry holds, and
    /// the journal is only ever appended to.
    #[test]
    fn a_start_over_a_journal_and_a_filled_registry_serves_it_and_truncates_nothing() {
        let dir = std::env::temp_dir().join(format!("dewe-master-start-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("master.wal");
        let mut j = Journal::create(&journal).unwrap();
        j.record_submit(WorkflowId(0), 0, 0.5).unwrap();
        drop(j);
        let written = std::fs::read(&journal).unwrap();
        let registry = Registry::new();
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        registry.insert(WorkflowId(0), Arc::new(b.finish().unwrap()));

        let bare = MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() };
        let journaled = MasterConfig { journal_path: Some(journal.clone()), ..bare.clone() };
        for config in [journaled, bare] {
            let tcp = endpoint();
            let handle = spawn_master_on(tcp.clone(), registry.clone(), config);
            let (link, _) = link(&tcp, 0, 8);
            let d = next_dispatch(&link);
            assert_eq!((d.job.workflow, d.attempt), (WorkflowId(0), 1));
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, d.attempt));
            let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                matches!(ev, MasterEvent::WorkflowCompleted { workflow: WorkflowId(0), .. }),
                "{ev:?}"
            );
            assert_eq!(handle.join().workflows_completed, 1);
            tcp.shutdown();
            link.close();
        }
        let after = std::fs::read(&journal).unwrap();
        assert!(after.starts_with(&written), "the journal was appended to, not truncated");
        assert!(after.len() > written.len(), "the takeover journaled its completion");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal write that fails while the master is serving ends it the
    /// same way: one `Failed` event naming the step and the file, zero
    /// stats, no panic. `/dev/full` opens like any file and refuses every
    /// write with ENOSPC. Submissions and lifecycle records are written by
    /// the call that records them; an ack is buffered and fails where its
    /// burst is committed — before the engine sees it.
    #[cfg(target_os = "linux")]
    #[test]
    fn journal_write_error_fails_the_running_master_without_panicking() {
        for step in ["journal submit", "journal worker", "journal commit"] {
            let tcp = endpoint();
            let handle = spawn_master_on(
                tcp.clone(),
                Registry::new(),
                MasterConfig {
                    journal_path: Some("/dev/full".into()),
                    lease_secs: Some(5.0),
                    ..MasterConfig::default()
                },
            );
            let (link, _) = link(&tcp, 1, 8);
            if step == "journal worker" {
                link.publish_lifecycle(LifecycleMsg::new(1, 0, LifecycleKind::Register));
            } else if step == "journal commit" {
                // Worker 1 holds an implicit lease from here on: no `W`
                // record, so the ack is the first thing to reach the file.
                let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
                link.publish_ack(AckMsg::new(job, 1, AckKind::Running, 1));
            } else {
                let mut b = WorkflowBuilder::new("one");
                b.job("a", "t", 1.0).build();
                submit(&tcp, "one", &b.finish().unwrap());
            }
            let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
            let MasterEvent::Failed { reason } = ev else {
                panic!("{step}: expected Failed, got {ev:?}");
            };
            assert!(reason.starts_with(&format!("{step} /dev/full: ")), "{reason:?}");
            assert_eq!(handle.join(), EngineStats::default(), "{step}");
            tcp.shutdown();
            link.close();
        }
    }

    /// A transport that is its own worker fleet and checks the write-ahead
    /// rule from the outside: inside every dispatch publish — the moment an
    /// effect leaves the master — it re-reads the journal *file* and
    /// compares it with every input the serve loop has pulled so far.
    #[derive(Clone)]
    struct WriteAheadProbe {
        journal: PathBuf,
        /// The queues the serve loop pulls. There is no dispatch queue:
        /// the probe works each dispatch itself, inside the publish.
        submissions: Topic<SubmissionMsg>,
        acks: Topic<AckMsg>,
        lifecycle: Topic<LifecycleMsg>,
        /// Inputs handed to the serve loop: submissions, and acks in order.
        pulled: Arc<parking_lot::Mutex<(usize, Vec<AckMsg>)>>,
        publishes: Arc<AtomicU64>,
    }

    impl WriteAheadProbe {
        fn new(journal: PathBuf) -> Self {
            Self {
                journal,
                submissions: Topic::new(),
                acks: Topic::new(),
                lifecycle: Topic::new(),
                pulled: Default::default(),
                publishes: Default::default(),
            }
        }

        /// An effect is leaving: is its cause in the file?
        fn effect_leaves(&self) {
            self.publishes.fetch_add(1, Ordering::Relaxed);
            let (submits, acks) = &*self.pulled.lock();
            let records = journal::read_journal(&self.journal).expect("journal reads back");
            let in_file = |want: fn(&journal::JournalRecord) -> bool| {
                records.iter().filter(|r| want(r)).count()
            };
            assert_eq!(
                in_file(|r| matches!(r, journal::JournalRecord::Submit { .. })),
                *submits,
                "a dispatch left before its submission was in the file"
            );
            let acks_in_file: Vec<AckMsg> = records
                .iter()
                .filter_map(|r| match r {
                    journal::JournalRecord::Ack { ack, .. } => Some(*ack),
                    _ => None,
                })
                .collect();
            assert_eq!(
                &acks_in_file, acks,
                "a dispatch left before every pulled ack was in the file"
            );
        }

        /// Work the dispatches as two workers would (odd jobs on worker
        /// 2), both acks at once, so bursts form. One job is worked in two
        /// halves with worker 2's drain notice in between — see
        /// [`Self::SPLIT`].
        fn work(&self, dispatches: &[DispatchMsg]) {
            let mut acks = Vec::with_capacity(dispatches.len() * 2);
            for d in dispatches {
                let ack =
                    |kind| AckMsg { job: d.job, worker: 1 + d.job.job.0 % 2, kind, attempt: 1 };
                acks.push(ack(AckKind::Running));
                if d.job != Self::SPLIT {
                    acks.push(ack(AckKind::Completed));
                }
            }
            self.acks.publish_all(acks);
        }

        /// The chain's fourth job, on worker 2. Once the serve loop has
        /// pulled its Running ack, worker 2 announces a drain; once the
        /// loop has pulled *that*, the job completes. The completion finds
        /// worker 2 draining with one job left, so the ack fence itself
        /// produces the `Drained` record, mid-burst.
        const SPLIT: dewe_dag::EnsembleJobId =
            dewe_dag::EnsembleJobId { workflow: WorkflowId(0), job: dewe_dag::JobId(3) };

        fn pulled_acks(&self, acks: &[AckMsg]) {
            self.pulled.lock().1.extend_from_slice(acks);
            if acks.iter().any(|a| a.job == Self::SPLIT && a.kind == AckKind::Running) {
                self.lifecycle.publish(LifecycleMsg::new(2, 0, LifecycleKind::Drain));
                self.wake();
            }
        }
    }

    impl Transport for WriteAheadProbe {
        type Submission = SubmissionMsg;
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;
        type Announce = WorkflowAnnounce;

        fn try_pull_submission(&self) -> Option<SubmissionMsg> {
            let sub = self.submissions.try_pull();
            self.pulled.lock().0 += usize::from(sub.is_some());
            sub
        }
        fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
            let ack = self.acks.pull_timeout(timeout);
            self.pulled_acks(ack.as_slice());
            ack
        }
        fn wake(&self) {
            self.acks.kick();
        }
        fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
            let before = out.len();
            let taken = self.acks.try_pull_batch(out, max);
            self.pulled_acks(&out[before..]);
            taken
        }
        fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
            let msg = self.lifecycle.try_pull()?;
            if msg.kind == LifecycleKind::Drain {
                self.acks.publish(AckMsg::new(Self::SPLIT, 2, AckKind::Completed, 1));
            }
            Some(msg)
        }
        fn publish_dispatch(&self, _: usize, dispatch: DispatchMsg) {
            self.effect_leaves();
            self.work(&[dispatch]);
        }
        fn publish_dispatch_batch(&self, _: usize, batch: &mut Vec<DispatchMsg>) {
            self.effect_leaves();
            self.work(batch);
            batch.clear();
        }
        fn announce(&self, _: WorkflowAnnounce) -> io::Result<()> {
            Ok(())
        }
        fn ack_closed(&self) -> bool {
            self.acks.is_closed()
        }
    }

    /// No dispatch and no event leaves the process before the input that
    /// caused it can be read back from the journal file — with acks
    /// journaled a burst at a time, and `W` records interleaved by the
    /// lease plane.
    #[test]
    fn no_dispatch_leaves_before_its_cause_is_in_the_journal_file() {
        use crate::realtime::WorkerPhase;

        let dir = std::env::temp_dir().join(format!("dewe-write-ahead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut chain = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..6 {
            let j = chain.job(format!("c{i}"), "t", 1.0).build();
            if let Some(p) = prev {
                chain.edge(p, j);
            }
            prev = Some(j);
        }
        let mut fan = WorkflowBuilder::new("fan");
        let root = fan.job("root", "t", 1.0).build();
        for i in 0..16 {
            let leaf = fan.job(format!("l{i}"), "t", 1.0).build();
            fan.edge(root, leaf);
        }
        let workflows = [Arc::new(chain.finish().unwrap()), Arc::new(fan.finish().unwrap())];

        let path = dir.join("master.wal");
        let probe = WriteAheadProbe::new(path.clone());
        for worker in [1, 2] {
            probe.lifecycle.publish(LifecycleMsg::new(worker, 0, LifecycleKind::Register));
        }
        let registry = Registry::new();
        let handle = spawn_master_on(
            probe.clone(),
            registry.clone(),
            MasterConfig {
                expected_workflows: Some(2),
                journal_path: Some(path.clone()),
                lease_secs: Some(30.0),
                ..MasterConfig::default()
            },
        );
        for (i, wf) in workflows.iter().enumerate() {
            let workflow = Arc::clone(wf);
            probe.submissions.publish(SubmissionMsg { name: format!("wf{i}"), workflow });
            probe.wake();
        }
        loop {
            match handle.events.recv_timeout(Duration::from_secs(30)).expect("an event") {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { workflow, .. } => {
                    // The event's cause, too, is readable by now.
                    let jobs = workflows[workflow.index()].job_count();
                    let done = journal::read_journal(&path)
                        .unwrap()
                        .iter()
                        .filter(|r| {
                            matches!(r, journal::JournalRecord::Ack { ack, .. }
                                if ack.job.workflow == workflow && ack.kind == AckKind::Completed)
                        })
                        .count();
                    assert_eq!(done, jobs, "completions of {workflow:?} in the file");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        let stats = handle.join();
        assert_eq!((stats.workflows_completed, stats.jobs_completed), (2, 23));
        assert!(probe.publishes.load(Ordering::Relaxed) >= 6, "the probe probed");

        // The file a clean exit leaves behind is the whole history, `W`
        // lines in among the acks, and it recovers.
        let records = journal::read_journal(&path).unwrap();
        let phases: Vec<WorkerPhase> = records
            .iter()
            .filter_map(|r| match r {
                journal::JournalRecord::Worker { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        use WorkerPhase::{Drained, Draining, Live};
        assert_eq!(phases, [Live, Live, Draining, Drained]);
        let drained_at = records
            .iter()
            .position(|r| matches!(r, journal::JournalRecord::Worker { phase: Drained, .. }))
            .expect("just counted");
        assert!(
            matches!(records[drained_at + 1], journal::JournalRecord::Ack { ack, .. }
                if ack.worker == 2 && ack.kind == AckKind::Completed),
            "the fence's W record sits right before the ack that caused it"
        );
        let rec = journal::recover(&records, &registry, EngineConfig::default()).unwrap();
        assert!(rec.engine.all_complete(), "the journal replays to completion");
        assert!(rec.redispatch.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A master without a lease plane drops the lifecycle traffic it pulls:
    /// heartbeats queued ahead of a submission are gone by the time the
    /// ensemble is through, not kept for the life of the process.
    #[test]
    fn a_master_without_leases_drains_lifecycle_traffic() {
        const K: usize = 50;
        let dir = std::env::temp_dir().join(format!("dewe-no-plane-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("master.wal");
        let probe = WriteAheadProbe::new(path.clone());
        probe
            .lifecycle
            .publish_all((0..K).map(|_| LifecycleMsg::new(1, 0, LifecycleKind::Heartbeat)));
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        let workflow = Arc::new(b.finish().unwrap());
        probe.submissions.publish(SubmissionMsg { name: "one".into(), workflow });
        let handle = spawn_master_on(
            probe.clone(),
            Registry::new(),
            MasterConfig {
                expected_workflows: Some(1),
                journal_path: Some(path.clone()),
                ..MasterConfig::default()
            },
        );
        loop {
            match handle.events.recv_timeout(Duration::from_secs(30)).expect("an event") {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(handle.join().jobs_completed, 1);
        assert!(probe.publishes.load(Ordering::Relaxed) >= 1, "the dispatch left");
        assert_eq!(probe.lifecycle.len(), 0, "{K} heartbeats were queued");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The TCP endpoint, counting the serve loop's `pull_ack` calls: in
    /// all, and as of the latest dispatch it published.
    #[derive(Clone)]
    struct CountingMaster {
        tcp: TcpMaster,
        pulls: Arc<AtomicU64>,
        pulls_at_publish: Arc<AtomicU64>,
    }

    impl CountingMaster {
        fn new() -> Self {
            Self {
                tcp: endpoint(),
                pulls: Default::default(),
                pulls_at_publish: Default::default(),
            }
        }
    }

    impl Transport for CountingMaster {
        type Submission = SubmissionMsg;
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;
        type Announce = WorkflowAnnounce;

        fn try_pull_submission(&self) -> Option<SubmissionMsg> {
            self.tcp.try_pull_submission()
        }
        fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
            self.pulls.fetch_add(1, Ordering::Relaxed);
            self.tcp.pull_ack(timeout)
        }
        fn wake(&self) {
            self.tcp.wake();
        }
        fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
            self.tcp.pull_ack_batch(out, max)
        }
        fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
            self.tcp.try_pull_lifecycle()
        }
        fn publish_dispatch(&self, _: usize, dispatch: DispatchMsg) {
            self.publish_dispatch_batch(0, &mut vec![dispatch]);
        }
        fn publish_dispatch_batch(&self, _: usize, batch: &mut Vec<DispatchMsg>) {
            self.pulls_at_publish.store(self.pulls.load(Ordering::Relaxed), Ordering::Relaxed);
            self.tcp.publish_dispatch_batch(0, batch);
        }
        fn announce(&self, announce: WorkflowAnnounce) -> io::Result<()> {
            self.tcp.announce(announce)
        }
        fn ack_closed(&self) -> bool {
            self.tcp.ack_closed()
        }
    }

    /// The master wakes for its deadlines and nothing else. Idle, it sleeps
    /// until something rings — and a kill rings. With one job checked out,
    /// the next time it looks is when that job's timeout is due.
    #[test]
    fn the_master_wakes_for_its_deadlines_and_nothing_else() {
        let idle = CountingMaster::new();
        let handle = spawn_master_on(idle.clone(), Registry::new(), MasterConfig::default());
        std::thread::sleep(Duration::from_millis(500));
        let pulls = idle.pulls.load(Ordering::Relaxed);
        assert!(pulls <= 2, "an idle master pulled {pulls} times in 500 ms");
        let began = Instant::now();
        handle.kill();
        let took = began.elapsed();
        assert!(took < Duration::from_millis(100), "kill took {took:?}");
        idle.tcp.shutdown();

        let transport = CountingMaster::new();
        let handle = spawn_master_on(
            transport.clone(),
            Registry::new(),
            MasterConfig {
                engine: EngineConfig::default().timeout(0.3),
                expected_workflows: Some(1),
                ..MasterConfig::default()
            },
        );
        let (link, _) = link(&transport.tcp, 1, 8);
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        submit(&transport.tcp, "one", &b.finish().unwrap());
        let d1 = next_dispatch(&link);
        let acked = Instant::now();
        link.publish_ack(AckMsg::new(d1.job, 1, AckKind::Running, 1));
        let d2 = next_dispatch(&link);
        let waited = acked.elapsed();
        assert_eq!((d2.job, d2.attempt), (d1.job, 2));
        assert!(waited >= Duration::from_millis(300), "redispatched {waited:?} after the ack");
        // The submission's doorbell, the Running ack, the sleep that ended
        // at the deadline — and one spare.
        let pulls = transport.pulls_at_publish.load(Ordering::Relaxed);
        assert!(pulls <= 4, "attempt 2 left after {pulls} pull_ack calls");
        handle.kill();
        transport.tcp.shutdown();
        link.close();
    }
}
