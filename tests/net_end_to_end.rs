//! End-to-end integration for the networked runtime: the same master
//! serve loop and worker daemons as the in-process path, but wired over
//! loopback TCP — including the paper's two failure drills (worker kill,
//! master kill + journaled restart) and an outcome-equivalence check
//! against the in-process transport.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe::core::realtime::{
    spawn_master, spawn_master_on, spawn_worker, spawn_worker_on, submit, submit_over_tcp,
    MasterConfig, MasterEvent, MessageBus, Registry, SleepRunner, TcpMaster, TcpMasterOptions,
    TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
};
use dewe::core::EngineStats;
use dewe::dag::{write_workflow, WorkflowId};
use dewe::montage::MontageConfig;

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

/// The outcome facts that must not depend on the transport. Counters
/// that legitimately vary with timing (resubmissions, duplicate
/// completions) are deliberately excluded.
#[derive(Debug, PartialEq)]
struct Outcome {
    workflows_completed: usize,
    workflows_abandoned: usize,
    jobs_completed: u64,
    dead_lettered: u64,
}

impl Outcome {
    fn of(stats: &EngineStats) -> Self {
        Self {
            workflows_completed: stats.workflows_completed,
            workflows_abandoned: stats.workflows_abandoned,
            jobs_completed: stats.jobs_completed,
            dead_lettered: stats.dead_lettered,
        }
    }
}

fn montage_ensemble(n: usize) -> Vec<Arc<dewe::dag::Workflow>> {
    (0..n).map(|i| Arc::new(MontageConfig::degree(0.1).with_seed(i as u64).build())).collect()
}

/// The headline acceptance run: a 20-workflow Montage ensemble completes
/// over loopback TCP with three worker daemons, survives one worker
/// being killed mid-run (lease-expiry requeue over the wire), and its
/// outcome matches the in-process realtime path running the identical
/// ensemble.
#[test]
fn twenty_montage_over_tcp_with_worker_kill_matches_in_process() {
    let workflows = montage_ensemble(20);
    let expected_jobs: u64 = workflows.iter().map(|w| w.job_count() as u64).sum();

    let config = || {
        MasterConfig::builder()
            .expected_workflows(20)
            .default_timeout_secs(30.0)
            .lease_secs(0.4)
            .build()
    };

    // Reference arm: the in-process bus, same ensemble, same worker
    // shape, same mid-run kill.
    let reference = {
        let bus = MessageBus::new();
        let registry = Registry::new();
        let master = spawn_master(bus.clone(), registry.clone(), config());
        let workers: Vec<_> = (0..3)
            .map(|id| {
                spawn_worker(
                    bus.clone(),
                    registry.clone(),
                    Arc::new(SleepRunner::new(0.0002)),
                    WorkerConfig {
                        worker_id: id,
                        slots: 4,
                        heartbeat_interval: Some(Duration::from_millis(50)),
                        ..WorkerConfig::default()
                    },
                )
            })
            .collect();
        for (i, wf) in workflows.iter().enumerate() {
            submit(&bus, format!("montage-{i}"), Arc::clone(wf));
        }
        std::thread::sleep(Duration::from_millis(300));
        let mut workers = workers;
        workers.remove(1).kill();
        let stats = drain_until_all_done(&master);
        master.join();
        for w in workers {
            w.stop();
        }
        stats
    };

    // Networked arm: same ensemble over loopback TCP.
    let networked = {
        let transport = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let addr = transport.local_addr();
        let registry_master = Registry::new();
        let master = spawn_master_on(transport.clone(), registry_master, config());

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
                Arc::new(SleepRunner::new(0.0002)),
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

        for (i, wf) in workflows.iter().enumerate() {
            submit_over_tcp(addr, [format!("montage-{i}")], &write_workflow(wf)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        // Kill one worker daemon outright: in-flight jobs abandoned with
        // no ack, heartbeats stop, the socket drops. The master's lease
        // expiry requeues its jobs to the survivors — over the wire.
        let (dead_link, dead_handle) = workers.remove(1);
        dead_handle.kill();
        dead_link.close();

        let stats = drain_until_all_done(&master);
        master.join();
        transport.shutdown();
        for (link, handle) in workers {
            handle.stop();
            link.close();
        }
        stats
    };

    assert_eq!(Outcome::of(&reference), Outcome::of(&networked));
    assert_eq!(networked.workflows_completed, 20);
    assert_eq!(networked.jobs_completed, expected_jobs);
    assert_eq!(networked.dead_lettered, 0);
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
/// ride out the outage (reconnect + outbound-queue retry), and the
/// restarted master finishes the ensemble with the same outcome
/// invariants as an identically-shaped in-process recovery.
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

    // An ack written into the killed master's socket is lost, and the
    // lease plane does not republish a job a live worker holds, so every
    // few runs one job waits out its timeout: keep that wait short.
    let config = |recover: bool| {
        MasterConfig::builder()
            .expected_workflows(n_workflows)
            .default_timeout_secs(5.0)
            .lease_secs(0.5)
            .journal_path(&journal)
            .recover(recover)
            .build()
    };

    // --- Networked arm -----------------------------------------------
    let transport =
        TcpMaster::bind("127.0.0.1:0", TcpMasterOptions { state_dir: Some(state_dir.clone()) })
            .unwrap();
    let addr = transport.local_addr();
    let registry1 = Registry::new();
    let master = spawn_master_on(transport.clone(), registry1.clone(), config(false));

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

    // `dewectl submit --count 2`, then two single submissions. Separate
    // connections race each other into the submission topic, so each
    // waits until the one before is ingested (spooled); when the last is,
    // some work has happened and the crash interrupts a busy ensemble.
    let await_spooled = |n: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while transport.load_spool().unwrap().len() < n {
            assert!(Instant::now() < deadline, "workflows never spooled");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    submit_over_tcp(addr, ["montage-0", "montage-1"], &texts[0]).unwrap();
    await_spooled(2);
    submit_over_tcp(addr, ["montage-2"], &texts[2]).unwrap();
    await_spooled(3);
    submit_over_tcp(addr, ["montage-3"], &texts[3]).unwrap();
    await_spooled(n_workflows);
    std::thread::sleep(Duration::from_millis(200));
    assert_ensemble_sharing(&registry1, "master registry");
    for (i, text) in texts.iter().enumerate() {
        let spooled = std::fs::read_to_string(state_dir.join(format!("wf-{i:08}.dag"))).unwrap();
        assert_eq!(spooled, format!("montage-{i}\n{text}"), "spool holds the submitter's bytes");
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
    let master2 = spawn_master_on(transport2.clone(), registry2, config(true));
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
        // own: turn it by hand.
        transport2.worker_conns();
        std::thread::sleep(Duration::from_millis(10));
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

    // --- In-process equivalence arm ----------------------------------
    // The same kill/recover drill on the in-process bus must land on the
    // same outcome invariants (recovery-equivalence across transports).
    let journal2 = scratch.join("inproc.wal");
    let config_inproc = |recover: bool| {
        MasterConfig::builder()
            .expected_workflows(n_workflows)
            .default_timeout_secs(5.0)
            .lease_secs(0.5)
            .journal_path(&journal2)
            .recover(recover)
            .build()
    };
    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(bus.clone(), registry.clone(), config_inproc(false));
    let workers: Vec<_> = (0..2)
        .map(|id| {
            spawn_worker(
                bus.clone(),
                registry.clone(),
                Arc::new(SleepRunner::new(0.0005)),
                WorkerConfig {
                    worker_id: id,
                    slots: 2,
                    heartbeat_interval: Some(Duration::from_millis(50)),
                    ..WorkerConfig::default()
                },
            )
        })
        .collect();
    for (i, wf) in workflows.iter().enumerate() {
        submit(&bus, format!("montage-{i}"), Arc::clone(wf));
    }
    std::thread::sleep(Duration::from_millis(250));
    master.kill();
    let master2 = spawn_master(bus.clone(), registry, config_inproc(true));
    let inproc = drain_until_all_done(&master2);
    master2.join();
    for w in workers {
        w.stop();
    }

    assert_eq!(Outcome::of(&inproc), Outcome::of(&stats));
    let _ = std::fs::remove_dir_all(&scratch);
}
