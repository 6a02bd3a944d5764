//! Master failover: kill the master daemon mid-ensemble, restart a
//! replacement from the write-ahead journal, and verify the ensemble
//! still completes with nothing worse than duplicate-completion noise.
//!
//! The paper's master is a single point of failure (its DAG state is in
//! memory only); this test exercises the journal/recovery path that
//! removes it, over loopback TCP as a deployment runs it. The crash drops
//! the serve loop and every connection with no `Bye`; the replacement binds
//! the same address, rebuilds its registry from the workflow spool and its
//! engine from the journal, and the workers' links reconnect to it.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dewe_core::realtime::{
    read_journal, recover, spawn_master_on, spawn_worker_on, submit_over_tcp, JournalRecord,
    MasterConfig, MasterEvent, MasterHandle, Registry, SleepRunner, TcpMaster, TcpMasterOptions,
    TcpWorkerLink, TcpWorkerOptions, WorkerConfig, WorkerHandle,
};
use dewe_core::{AckKind, AckMsg, Action, EngineConfig, EnsembleEngine};
use dewe_dag::{EnsembleJobId, JobId, JobState, Workflow, WorkflowBuilder, WorkflowId};

fn chain(name: &str, jobs: usize, cpu: f64) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new(name);
    let mut prev = None;
    for i in 0..jobs {
        let j = b.job(format!("{name}-j{i}"), "t", cpu).build();
        if let Some(p) = prev {
            b.edge(p, j);
        }
        prev = Some(j);
    }
    Arc::new(b.finish().unwrap())
}

/// A scratch directory for one test's journal and workflow spool.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dewe-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The master configuration every test starts from: its journal, and the
/// workflows to settle before it exits.
fn journaled(dir: &Path, expected: usize) -> MasterConfig {
    MasterConfig {
        expected_workflows: Some(expected),
        journal_path: Some(dir.join("master.wal")),
        ..MasterConfig::default()
    }
}

/// A master on `addr` as `dewe-masterd` runs one: the endpoint spools to
/// `dir`, and the registry starts as what the spool holds (nothing on a
/// cold start, the pre-crash ensemble on a restart).
struct Master {
    tcp: TcpMaster,
    registry: Registry,
    handle: MasterHandle,
}

impl Master {
    fn start(addr: SocketAddr, dir: &Path, config: MasterConfig) -> Self {
        let tcp = TcpMaster::bind(addr, TcpMasterOptions { state_dir: Some(dir.join("state")) })
            .expect("the master's address binds, and binds again after a crash");
        let registry = Registry::new();
        for (id, _, workflow) in tcp.load_spool().expect("the spool loads") {
            registry.insert(id, workflow);
        }
        let handle = spawn_master_on(tcp.clone(), registry.clone(), config);
        Self { tcp, registry, handle }
    }

    fn addr(&self) -> SocketAddr {
        self.tcp.local_addr()
    }

    /// Submit `workflows` down one connection and wait until the master has
    /// taken them all, as a client that must not lose one to a crash does.
    fn submit(&self, workflows: &[Arc<Workflow>]) {
        let texts =
            workflows.iter().map(|wf| (wf.name().to_string(), dewe_dag::write_workflow(wf)));
        submit_over_tcp(self.addr(), texts).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while self.registry.len() < workflows.len() {
            assert!(std::time::Instant::now() < deadline, "submissions never ingested");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A crash: the serve loop stops and every connection drops unsaid.
    fn kill(self) -> Registry {
        self.handle.kill();
        self.tcp.kill();
        self.registry
    }

    /// Wait for the master to finish, then stop the endpoint.
    fn join(self) -> dewe_core::EngineStats {
        let stats = self.handle.join();
        self.tcp.shutdown();
        stats
    }
}

/// A worker daemon of `slots` 20 ms jobs over its own link to `addr`.
fn worker(addr: SocketAddr, id: u32, slots: usize, heartbeat: Option<Duration>) -> Worker {
    let mirror = Registry::new();
    let opts = TcpWorkerOptions { worker_id: id, ..TcpWorkerOptions::default() };
    let link = TcpWorkerLink::connect(addr, mirror.clone(), opts).unwrap();
    let config = WorkerConfig {
        worker_id: id,
        slots,
        heartbeat_interval: heartbeat,
        ..WorkerConfig::default()
    };
    let handle =
        spawn_worker_on(Arc::new(link.clone()), mirror, Arc::new(SleepRunner::new(0.02)), config);
    Worker { link, handle }
}

struct Worker {
    link: TcpWorkerLink,
    handle: WorkerHandle,
}

impl Worker {
    fn stop(self) {
        self.handle.stop();
        self.link.close();
    }

    fn kill(self) {
        self.handle.kill();
        self.link.close();
    }
}

fn chains(n: usize, jobs: usize) -> Vec<Arc<Workflow>> {
    (0..n).map(|i| chain(&format!("c{i}"), jobs, 1.0)).collect()
}

/// What a journal's replay says happened: whether every workflow fully
/// completed, and which jobs did.
fn replayed(engine: &EnsembleEngine) -> (bool, BTreeSet<(u32, u32)>) {
    let mut completed = BTreeSet::new();
    for w in 0..engine.workflow_count() {
        let id = WorkflowId::from_index(w);
        for j in 0..engine.workflow(id).job_count() {
            let job = EnsembleJobId::new(id, JobId::from_index(j));
            if engine.job_state(job) == Some(JobState::Completed) {
                completed.insert((id.0, job.job.0));
            }
        }
    }
    (engine.all_complete(), completed)
}

/// The same 6-workflow ensemble, run clean and run through a
/// mid-ensemble master kill + journaled takeover, must come out the
/// same: every workflow completed, nothing dead-lettered, the same
/// completion set, and a journal that replays to a fully completed
/// engine.
#[test]
fn the_master_finishes_and_journals_the_same_ensemble_clean_or_recovered() {
    let mut outcomes = Vec::new();
    for crash in [false, true] {
        let label = format!("crash {crash}");
        let dir = scratch(&format!("same-{crash}"));
        let replay = |registry: &Registry| {
            let records = read_journal(&dir.join("master.wal")).expect("journal readable");
            replayed(&recover(&records, registry, EngineConfig::default()).expect("replays").engine)
        };
        let config = || journaled(&dir, 6);
        let mut master = Master::start("127.0.0.1:0".parse().unwrap(), &dir, config());
        let addr = master.addr();
        let worker = worker(addr, 0, 2, None);
        master.submit(&chains(6, 3));
        if crash {
            let ev =
                master.handle.events.recv_timeout(Duration::from_secs(30)).expect("completion");
            assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }), "{label}: {ev:?}");
            let registry = master.kill();
            let (all_complete, done) = replay(&registry);
            assert!(!all_complete && !done.is_empty(), "{label}: killed mid-ensemble");
            master = Master::start(addr, &dir, config());
        }
        let registry = master.registry.clone();
        let stats = master.join();
        worker.stop();

        assert_eq!(stats.workflows_completed, 6, "{label}");
        assert_eq!(stats.jobs_completed, 18, "{label}");
        assert_eq!(stats.dead_lettered, 0, "{label}");
        let (all_complete, done) = replay(&registry);
        assert!(all_complete, "{label}: the journal replays to a completed ensemble");
        outcomes.push((label, done));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, first) = &outcomes[0];
    assert_eq!(first.len(), 18);
    for (label, done) in &outcomes {
        assert_eq!(done, first, "{label}: completion set differs from {}", outcomes[0].0);
    }
}

/// Three same-length workflows through one engine, the inputs journaled as
/// the master would: the first completes, the second takes over its lanes
/// region and settles partly abandoned, the third takes the region over
/// again and is caught mid-run — one job timed out and reissued, its
/// checkout armed. The engine recovered from that journal has been through
/// the same hand-backs and takeovers, and must answer everything the
/// uninterrupted one does.
#[test]
fn recovery_replays_settled_workflows_and_their_recycled_regions() {
    let config = EngineConfig::default().timeout(10.0).max_attempts(2);
    let registry = Registry::new();
    for w in 0..3 {
        registry.insert(WorkflowId(w), chain(&format!("c{w}"), 3, 1.0));
    }
    let mut live = config.build();
    let mut journal = Vec::new();
    let mut actions = Vec::new();
    let job = |w: u32, j: u32| EnsembleJobId::new(WorkflowId(w), JobId(j));
    let ack = |job, kind, attempt| AckMsg::new(job, 0, kind, attempt);
    use AckKind::{Completed, Failed, Running};
    let inputs = [
        JournalRecord::Submit { workflow: 0, at: 0.0 },
        JournalRecord::Ack { ack: ack(job(0, 0), Completed, 1), at: 1.0 },
        JournalRecord::Ack { ack: ack(job(0, 1), Completed, 1), at: 2.0 },
        JournalRecord::Ack { ack: ack(job(0, 2), Completed, 1), at: 3.0 },
        JournalRecord::Submit { workflow: 1, at: 4.0 },
        JournalRecord::Ack { ack: ack(job(1, 0), Completed, 1), at: 5.0 },
        JournalRecord::Ack { ack: ack(job(1, 1), Failed, 1), at: 6.0 },
        JournalRecord::Ack { ack: ack(job(1, 1), Failed, 2), at: 7.0 },
        JournalRecord::Submit { workflow: 2, at: 8.0 },
        // Stragglers of the settled two, aimed at slots that are now c2's.
        JournalRecord::Ack { ack: ack(job(0, 0), Running, 1), at: 8.5 },
        JournalRecord::Ack { ack: ack(job(1, 1), Completed, 2), at: 8.5 },
        JournalRecord::Ack { ack: ack(job(2, 0), Running, 1), at: 9.0 },
        JournalRecord::Scan { at: 19.0 },
        JournalRecord::Ack { ack: ack(job(2, 0), Running, 2), at: 20.0 },
    ];
    for rec in inputs {
        match rec {
            JournalRecord::Submit { workflow, at } => {
                let wf = registry.get(WorkflowId(workflow)).unwrap();
                live.submit_workflow(wf, at, &mut actions);
            }
            JournalRecord::Ack { ack, at } => live.on_ack(ack, at, &mut actions),
            JournalRecord::Scan { at } => live.check_timeouts(at, &mut actions),
            JournalRecord::Worker { .. } => unreachable!(),
        }
        journal.push(rec);
    }
    let settled: Vec<_> = actions
        .iter()
        .filter(|a| {
            matches!(a, Action::WorkflowCompleted { .. } | Action::WorkflowAbandoned { .. })
        })
        .collect();
    assert_eq!(settled.len(), 2, "two of the three settled: {actions:?}");
    assert_eq!(live.stats().resubmissions, 2, "c1's retry and c2's timeout");

    let mut recovered = recover(&journal, &registry, config).expect("replays");
    assert_eq!(recovered.engine.stats(), live.stats());
    for w in 0..3 {
        for j in 0..3 {
            assert_eq!(
                recovered.engine.job_state(job(w, j)),
                live.job_state(job(w, j)),
                "w{w} j{j}"
            );
        }
    }
    assert_eq!(live.job_state(job(1, 1)), Some(JobState::Abandoned));
    assert_eq!(live.job_state(job(1, 0)), Some(JobState::Completed));
    let mut inflight = Vec::new();
    live.inflight_dispatches(&mut inflight);
    assert_eq!(inflight, vec![dewe_core::DispatchMsg::new(job(2, 0), 2)]);
    assert_eq!(recovered.redispatch, inflight);
    let mut again = Vec::new();
    recovered.engine.inflight_dispatches(&mut again);
    assert_eq!(again, inflight);
    assert_eq!(recovered.engine.next_deadline(), live.next_deadline());
    assert_eq!(live.next_deadline(), Some(30.0));
}

#[test]
fn ensemble_finishes_after_master_failover() {
    let dir = scratch("failover");
    // The simulated crash drops the master loop between steps, so the
    // file holds whole bursts; a torn tail would only appear on a hard
    // power loss, which journal_properties covers.
    let config = || journaled(&dir, 3);
    let master = Master::start("127.0.0.1:0".parse().unwrap(), &dir, config());
    let addr = master.addr();
    // 20 ms per job: slow enough that the kill lands mid-ensemble with
    // jobs genuinely in flight, fast enough to keep the test snappy.
    let worker = worker(addr, 0, 2, None);
    master.submit(&chains(3, 4));

    // Let the first workflow complete, proving the journal holds real
    // progress (submissions, checkouts, completions) — then crash.
    let ev = master.handle.events.recv_timeout(Duration::from_secs(30)).expect("first completion");
    assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }), "got {ev:?}");
    let registry = master.kill();

    // The journal alone must reconstruct the pre-crash engine.
    let records = read_journal(&dir.join("master.wal")).expect("journal readable");
    let replay = recover(&records, &registry, EngineConfig::default()).expect("journal replays");
    // At least the completion we just observed must be durable. The
    // count is a bound, not an exact value: with two slots the second
    // chain runs concurrently with the first and can complete in the
    // gap between the event arriving and the kill landing. Fewer than
    // all three proves the crash really hit mid-ensemble.
    let pre_crash = replay.engine.stats().workflows_completed;
    assert!((1..3).contains(&pre_crash), "pre-crash progress recovered: {pre_crash}");

    // Failover: a replacement master recovers from the journal on the
    // same address. In-flight jobs get republished; the worker may run
    // some twice, which the engine counts as duplicate noise.
    let stats = Master::start(addr, &dir, config()).join();
    worker.stop();

    assert_eq!(stats.workflows_completed, 3, "ensemble finished after failover");
    assert_eq!(stats.workflows_abandoned, 0);
    assert_eq!(stats.jobs_completed, 12, "every job completed exactly once in engine state");
    assert_eq!(stats.dead_lettered, 0);
    // Failover noise is bounded: at most the jobs that were in flight at
    // the crash can complete twice, and the link offers its last `window`
    // completions again on reconnecting, in case the dead master never
    // read them.
    let reoffered = u64::from(TcpWorkerOptions::default().window);
    assert!(stats.duplicate_completions <= 4 + reoffered, "noise bounded: {stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_with_a_dead_worker_flags_it_and_still_finishes() {
    // Master kill + restart where one of two workers dies during the
    // outage and never re-registers. The replayed journal references it,
    // so the recovered liveness table carries it on a grace lease; when
    // that lapses the master must emit the structured
    // worker_lost_in_recovery warning, requeue whatever the journal says
    // it held, and finish the ensemble on the surviving worker — no
    // silent fallback, no lost jobs.
    let dir = scratch("deadworker");
    // An ack written into the killed master's socket is lost, and the
    // lease plane does not republish a job a live worker holds, so now and
    // then one job waits out its timeout: keep that wait short.
    let config = || MasterConfig {
        engine: EngineConfig::default().timeout(1.0),
        lease_secs: Some(0.15),
        ..journaled(&dir, 2)
    };
    let master = Master::start("127.0.0.1:0".parse().unwrap(), &dir, config());
    let addr = master.addr();
    let heartbeat = Some(Duration::from_millis(30));
    let w0 = worker(addr, 0, 1, heartbeat);
    let w1 = worker(addr, 1, 1, heartbeat);
    master.submit(&chains(2, 12));

    // Let both registrations and a stretch of real progress hit the
    // journal, then crash the master mid-ensemble — well before either
    // chain completes (12 serial jobs × 20 ms each ≈ 240 ms) — and lose
    // worker 1 while it is down. The surviving work takes long enough
    // that worker 1's grace lease demonstrably lapses before the end.
    std::thread::sleep(Duration::from_millis(120));
    master.kill();
    w1.kill();

    let master2 = Master::start(addr, &dir, config());
    loop {
        match master2.handle.events.recv_timeout(Duration::from_secs(30)).expect("event") {
            MasterEvent::AllCompleted { .. } => break,
            MasterEvent::WorkflowCompleted { .. } => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
    let ms = master2.handle.master_stats();
    let stats = master2.join();
    w0.stop();

    assert_eq!(stats.workflows_completed, 2, "ensemble finished on the survivor");
    assert_eq!(stats.workflows_abandoned, 0);
    assert_eq!(stats.jobs_completed, 24);
    assert_eq!(ms.workers_lost_in_recovery, 1, "dead worker flagged, not silently dropped: {ms:?}");
    assert!(ms.workers_expired >= 1, "the grace lease lapsed: {ms:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_restarts_from_empty_journal_when_absent() {
    // No journal on disk is a cold start.
    let dir = scratch("cold");
    let config = journaled(&dir, 1);
    let master = Master::start("127.0.0.1:0".parse().unwrap(), &dir, config);
    let worker = worker(master.addr(), 0, 1, None);
    master.submit(&[chain("w", 2, 1.0)]);
    let stats = master.join();
    worker.stop();
    assert_eq!(stats.workflows_completed, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
