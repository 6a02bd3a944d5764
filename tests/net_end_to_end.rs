//! End-to-end integration for the networked runtime over loopback TCP:
//! the paper's two failure drills — a worker killed mid-ensemble, and a
//! master killed and restarted from its spool and journal — each held to
//! the outcome the ensemble must reach.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe::core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, MasterConfig, MasterEvent, Registry,
    SleepRunner, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
};
use dewe::core::{EngineConfig, EngineStats};
use dewe::dag::{write_workflow, WorkflowId};
use dewe::montage::MontageConfig;
use dewe::mq::WorkerTransport;

fn drain_until_all_done(master: &dewe::core::realtime::MasterHandle) -> EngineStats {
    loop {
        match master.events.recv_timeout(Duration::from_secs(120)) {
            Ok(MasterEvent::AllCompleted { stats }) => return stats,
            Ok(MasterEvent::WorkflowCompleted { .. }) => continue,
            Ok(other) => panic!("unexpected event: {other:?}"),
            Err(e) => panic!("master stalled: {e}"),
        }
    }
}

fn montage_ensemble(n: usize) -> Vec<Arc<dewe::dag::Workflow>> {
    (0..n).map(|i| Arc::new(MontageConfig::degree(0.1).with_seed(i as u64).build())).collect()
}

/// The headline acceptance run: a 20-workflow Montage ensemble completes
/// over loopback TCP with three worker daemons and survives one worker
/// being killed mid-run. The kill lands once the first workflow has
/// completed, with jobs slow enough that most of the ensemble is still to
/// run, and before the ensemble is done. The dead worker's link held
/// dispatches it had not started as well as the ones it was running: the
/// endpoint puts all of them back on the queue when the connection drops,
/// and the survivors finish the ensemble.
#[test]
fn twenty_montage_over_tcp_with_worker_kill() {
    let workflows = montage_ensemble(20);
    let expected_jobs: u64 = workflows.iter().map(|w| w.job_count() as u64).sum();

    let config = MasterConfig {
        engine: EngineConfig::default().timeout(30.0),
        expected_workflows: Some(20),
        lease_secs: Some(0.4),
        ..MasterConfig::default()
    };
    let transport = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
    let addr = transport.local_addr();
    let master = spawn_master_on(transport.clone(), Registry::new(), config);

    let spawn_net_worker = |id: u32| {
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            addr,
            registry.clone(),
            TcpWorkerOptions { worker_id: id, window: 8, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let handle = spawn_worker_on(
            Arc::new(link.clone()),
            registry,
            // A workflow's critical path is ~320 cpu-seconds, 0.65 s here;
            // the ensemble's 6,700 cpu-seconds take twice that on twelve slots.
            Arc::new(SleepRunner::new(0.002)),
            WorkerConfig {
                worker_id: id,
                slots: 4,
                heartbeat_interval: Some(Duration::from_millis(50)),
                ..WorkerConfig::default()
            },
        );
        (link, handle)
    };
    let mut workers: Vec<_> = (0..3).map(spawn_net_worker).collect();

    let texts =
        workflows.iter().enumerate().map(|(i, wf)| (format!("montage-{i}"), write_workflow(wf)));
    submit_over_tcp(addr, texts).unwrap();
    match master.events.recv_timeout(Duration::from_secs(120)) {
        Ok(MasterEvent::WorkflowCompleted { .. }) => {}
        other => panic!("waiting for the first workflow to complete: {other:?}"),
    }
    // Kill one worker daemon outright: in-flight jobs abandoned with no
    // ack, heartbeats stop, the socket drops with dispatches unstarted.
    let (dead_link, dead_handle) = workers.remove(1);
    dead_handle.kill();
    dead_link.close();
    let by_then: Vec<MasterEvent> = master.events.try_iter().collect();
    assert!(
        !by_then.iter().any(|ev| matches!(ev, MasterEvent::AllCompleted { .. })),
        "the kill landed after the ensemble was done: {by_then:?}"
    );

    let stats = drain_until_all_done(&master);
    master.join();
    transport.shutdown();
    for (link, handle) in workers {
        handle.stop();
        link.close();
    }

    assert_eq!(stats.workflows_completed, 20);
    assert_eq!(stats.jobs_completed, expected_jobs);
    assert_eq!(stats.dead_lettered, 0);
}

/// What sharing one DAG text must look like in any registry of the
/// ensemble below: workflows 0, 1 and 3 are one topology, 2 is another.
fn assert_ensemble_sharing(registry: &Registry, who: &str) {
    let at = |i: u32| registry.get(WorkflowId(i)).unwrap_or_else(|| panic!("{who}: no wf {i}"));
    assert_eq!(registry.len(), 4, "{who}: dense mirror of the whole ensemble");
    assert!(Arc::ptr_eq(&at(0), &at(1)) && Arc::ptr_eq(&at(0), &at(3)), "{who}: shared");
    assert!(!Arc::ptr_eq(&at(0), &at(2)), "{who}: the distinct DAG is its own workflow");
}

/// Satellite drill: kill the master process mid-ensemble and restart it
/// on the same port from its workflow spool + WAL journal. Worker links
/// ride out the outage (reconnect; what they queued meanwhile, and the
/// completions the dead master may not have read, sent on the new
/// connection), and the restarted master finishes the ensemble: every job
/// completed, nothing dead-lettered.
///
/// The ensemble is three submissions of one DAG text around one of
/// another, so the drill also pins down ingest: identical texts are one
/// `Arc<Workflow>` in the master's registry, in every worker's mirror —
/// early, late-joining, reconnected — and in the respooled registry, and
/// the spool holds the submitter's bytes.
#[test]
fn master_kill_and_restart_recovers_over_tcp() {
    let n_workflows = 4usize;
    let common = Arc::new(MontageConfig::degree(0.1).with_seed(0).build());
    let distinct = Arc::new(MontageConfig::degree(0.1).with_seed(1).build());
    let workflows = [Arc::clone(&common), Arc::clone(&common), distinct, Arc::clone(&common)];
    // Not the canonical serialisation: a re-serialised spool would differ.
    let texts: Vec<String> =
        workflows.iter().map(|wf| format!("# submitted as is\n{}", write_workflow(wf))).collect();
    let expected_jobs: u64 = workflows.iter().map(|w| w.job_count() as u64).sum();

    let scratch = std::env::temp_dir().join(format!("dewe-net-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let state_dir = scratch.join("state");
    let journal = scratch.join("master.wal");

    // A link offers its last window of completions again after a
    // reconnect, but a kill between the turn that read (and refunded) a
    // burst and the commit that journals it can put more than a window out
    // of reach, and the lease plane does not republish a job a live worker
    // holds: such a job waits out its timeout, so keep that wait short.
    let config = || MasterConfig {
        engine: EngineConfig::default().timeout(5.0),
        expected_workflows: Some(n_workflows),
        journal_path: Some(journal.clone()),
        lease_secs: Some(0.5),
    };

    let transport =
        TcpMaster::bind("127.0.0.1:0", TcpMasterOptions { state_dir: Some(state_dir.clone()) })
            .unwrap();
    let addr = transport.local_addr();
    let registry1 = Registry::new();
    let master = spawn_master_on(transport.clone(), registry1.clone(), config());

    let spawn_net_worker = |id: u32| {
        let registry = Registry::new();
        let mirror = registry.clone();
        let link = TcpWorkerLink::connect(
            addr,
            registry.clone(),
            TcpWorkerOptions { worker_id: id, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let handle = spawn_worker_on(
            Arc::new(link.clone()),
            registry,
            Arc::new(SleepRunner::new(0.0005)),
            WorkerConfig {
                worker_id: id,
                slots: 2,
                heartbeat_interval: Some(Duration::from_millis(50)),
                ..WorkerConfig::default()
            },
        );
        (link, handle, mirror)
    };
    let workers: Vec<_> = (0..2).map(spawn_net_worker).collect();

    // One connection numbers the four in order. Once all are ingested
    // (spooled) and some work has happened, the crash interrupts a busy
    // ensemble.
    let names = (0..n_workflows).map(|i| format!("montage-{i}"));
    submit_over_tcp(addr, names.zip(&texts)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while transport.load_spool().unwrap().len() < n_workflows {
        assert!(Instant::now() < deadline, "workflows never spooled");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_ensemble_sharing(&registry1, "master registry");
    // The spool holds the submitter's bytes once per distinct text, and
    // each later workflow with the same text as a reference to the first.
    for (i, text) in texts.iter().enumerate() {
        let spooled = std::fs::read_to_string(state_dir.join(format!("wf-{i:08}.dag"))).unwrap();
        let first = texts.iter().position(|t| t == text).unwrap();
        let entry = if first == i { text.clone() } else { format!("@same-as {first}\n") };
        assert_eq!(spooled, format!("montage-{i}\n{entry}"), "spool entry {i}");
    }

    // Crash: serve loop dies abruptly, endpoint drops with no Bye.
    master.kill();
    transport.kill();

    // Restart on the same port: registry from the spool, engine from
    // the journal. Worker links are still reconnecting.
    let transport2 =
        TcpMaster::bind(addr, TcpMasterOptions { state_dir: Some(state_dir.clone()) }).unwrap();
    let registry2 = Registry::new();
    for (id, _name, wf) in transport2.load_spool().unwrap() {
        registry2.insert(id, wf);
    }
    assert_ensemble_sharing(&registry2, "respooled registry");
    let master2 = spawn_master_on(transport2.clone(), registry2, config());
    let stats = drain_until_all_done(&master2);
    master2.join();
    // A link that joins only now is replayed the recovered registry; the
    // two that rode out the restart kept the mirrors they had.
    let late_mirror = Registry::new();
    let late = TcpWorkerLink::connect(
        addr,
        late_mirror.clone(),
        TcpWorkerOptions { worker_id: 2, ..TcpWorkerOptions::default() },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while late_mirror.len() < n_workflows {
        assert!(Instant::now() < deadline, "late link never mirrored the ensemble");
        // The serve loop has exited and the endpoint has no thread of its
        // own, and a link reads only while something pulls on it: turn
        // both by hand.
        transport2.worker_conns();
        late.pull_dispatch(Duration::from_millis(10));
    }
    assert_ensemble_sharing(&late_mirror, "late worker");
    for (_, _, mirror) in &workers {
        assert_ensemble_sharing(mirror, "reconnected worker");
    }
    late.close();
    transport2.shutdown();
    for (link, handle, _) in workers {
        handle.stop();
        link.close();
    }

    assert_eq!(stats.workflows_completed, n_workflows);
    assert_eq!(stats.jobs_completed, expected_jobs);
    assert_eq!(stats.dead_lettered, 0);

    let _ = std::fs::remove_dir_all(&scratch);
}
