//! End-to-end integration: the threaded DEWE v2 runtime executing real
//! Montage-shaped ensembles, including fault injection and real file
//! data flow.

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master, spawn_worker, submit, FsRunner, MasterConfig, MasterEvent, MessageBus,
    NoopRunner, Registry, SleepRunner, WorkerConfig,
};
use dewe::montage::{CyberShakeConfig, EpigenomicsConfig, LigoConfig, MontageConfig, SiphtConfig};

fn drain_until_all_done(master: &dewe::core::realtime::MasterHandle) -> dewe::core::EngineStats {
    loop {
        match master.events.recv_timeout(Duration::from_secs(120)) {
            Ok(MasterEvent::AllCompleted { stats }) => return stats,
            Ok(MasterEvent::WorkflowCompleted { .. }) => continue,
            Ok(other) => panic!("unexpected event: {other:?}"),
            Err(e) => panic!("master stalled: {e}"),
        }
    }
}

#[test]
fn montage_ensemble_runs_to_completion() {
    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder().expected_workflows(3).build(),
    );
    let workers: Vec<_> = (0..3)
        .map(|id| {
            spawn_worker(
                bus.clone(),
                registry.clone(),
                Arc::new(NoopRunner),
                WorkerConfig { worker_id: id, slots: 4, ..WorkerConfig::default() },
            )
        })
        .collect();

    let mut expected_jobs = 0;
    for i in 0..3 {
        let wf = Arc::new(MontageConfig::degree(0.5).with_seed(i).build());
        expected_jobs += wf.job_count() as u64;
        submit(&bus, format!("wf{i}"), wf);
    }
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, expected_jobs);
    assert_eq!(stats.workflows_completed, 3);
    master.join();
    let executed: u64 = workers.into_iter().map(|w| w.stop()).sum();
    assert_eq!(executed, expected_jobs);
}

#[test]
fn mixed_application_ensemble() {
    // Montage + LIGO + CyberShake workflows in one ensemble: the master
    // multiplexes heterogeneous DAGs over one dispatch topic.
    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder().expected_workflows(5).build(),
    );
    let worker = spawn_worker(
        bus.clone(),
        registry.clone(),
        Arc::new(NoopRunner),
        WorkerConfig { worker_id: 0, slots: 8, ..WorkerConfig::default() },
    );
    let montage = Arc::new(MontageConfig::degree(0.5).build());
    let ligo = Arc::new(LigoConfig::new(2, 3).build());
    let cs = Arc::new(CyberShakeConfig::new(10).build());
    let epi = Arc::new(EpigenomicsConfig::new(2, 3).build());
    let sipht = Arc::new(SiphtConfig::new(9).build());
    let total = (montage.job_count()
        + ligo.job_count()
        + cs.job_count()
        + epi.job_count()
        + sipht.job_count()) as u64;
    submit(&bus, "montage", montage);
    submit(&bus, "ligo", ligo);
    submit(&bus, "cybershake", cs);
    submit(&bus, "epigenomics", epi);
    submit(&bus, "sipht", sipht);
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, total);
    master.join();
    worker.stop();
}

#[test]
fn worker_crash_recovery_end_to_end() {
    // Kill the only worker mid-ensemble; a fresh worker finishes the job
    // set via timeout resubmission (paper §V.A.3 in real threads).
    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder().default_timeout_secs(0.3).expected_workflows(1).build(),
    );
    let w1 = spawn_worker(
        bus.clone(),
        registry.clone(),
        Arc::new(SleepRunner::new(0.0005)),
        WorkerConfig { worker_id: 1, slots: 2, ..WorkerConfig::default() },
    );
    let wf = Arc::new(MontageConfig::degree(0.5).build());
    let jobs = wf.job_count() as u64;
    submit(&bus, "victim", wf);
    std::thread::sleep(Duration::from_millis(50));
    w1.kill();

    let w2 = spawn_worker(
        bus.clone(),
        registry,
        Arc::new(SleepRunner::new(0.0005)),
        WorkerConfig { worker_id: 2, slots: 4, ..WorkerConfig::default() },
    );
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, jobs);
    master.join();
    w2.stop();
}

#[test]
fn real_file_dataflow_produces_final_output() {
    let wf = Arc::new(MontageConfig::degree(0.5).with_name("e2e").build());
    let workspace = std::env::temp_dir().join(format!("dewe_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workspace);
    let runner = FsRunner::new(&workspace, 1e-6);
    runner.stage_inputs(&wf).unwrap();

    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder().expected_workflows(1).build(),
    );
    let worker = spawn_worker(
        bus.clone(),
        registry,
        Arc::new(runner),
        WorkerConfig { worker_id: 0, slots: 8, ..WorkerConfig::default() },
    );
    submit(&bus, "e2e", Arc::clone(&wf));
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed as usize, wf.job_count());
    // No job may ever have failed on a missing input: resubmissions only
    // happen on worker death, and none died.
    assert_eq!(stats.resubmissions, 0);
    assert!(workspace.join("e2e/mosaic.jpg").exists(), "final mosaic written");
    master.join();
    worker.stop();
    let _ = std::fs::remove_dir_all(&workspace);
}

#[test]
fn results_identical_across_cluster_configurations() {
    // The paper verifies DEWE v2 vs Pegasus by comparing size and MD5 of
    // the final mosaic (§V.A). In-process analogue: run the same workflow
    // with 1 worker and with 4 workers (different interleavings) — final
    // output checksums must match.
    let run = |workers: usize, tag: &str| -> u64 {
        let wf = Arc::new(MontageConfig::degree(0.5).with_name("verify").build());
        let workspace =
            std::env::temp_dir().join(format!("dewe_verify_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&workspace);
        let runner = FsRunner::new(&workspace, 1e-5);
        runner.stage_inputs(&wf).unwrap();
        let bus = MessageBus::new();
        let registry = Registry::new();
        let master = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder().expected_workflows(1).build(),
        );
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                spawn_worker(
                    bus.clone(),
                    registry.clone(),
                    Arc::new(runner.clone()),
                    WorkerConfig { worker_id: id as u32, slots: 2, ..WorkerConfig::default() },
                )
            })
            .collect();
        submit(&bus, "verify", Arc::clone(&wf));
        drain_until_all_done(&master);
        master.join();
        for h in handles {
            h.stop();
        }
        let sum = runner.checksum_outputs(&wf).unwrap();
        let _ = std::fs::remove_dir_all(&workspace);
        sum
    };
    assert_eq!(run(1, "solo"), run(4, "quad"));
}

#[test]
fn late_submission_is_served() {
    // "Scientists can submit workflows from any nodes at any time": a
    // workflow submitted long after the first completes is still served by
    // the same daemons.
    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder().expected_workflows(2).build(),
    );
    let worker = spawn_worker(
        bus.clone(),
        registry,
        Arc::new(NoopRunner),
        WorkerConfig { worker_id: 0, slots: 2, ..WorkerConfig::default() },
    );
    submit(&bus, "first", Arc::new(MontageConfig::degree(0.5).build()));
    // Wait for the first to finish before submitting the second. Workflow
    // ids follow submission order: the later submission is the later id.
    let next_completed = || loop {
        if let Ok(MasterEvent::WorkflowCompleted { workflow, .. }) =
            master.events.recv_timeout(Duration::from_secs(60))
        {
            break workflow.index();
        }
    };
    assert_eq!(next_completed(), 0);
    submit(&bus, "second", Arc::new(MontageConfig::degree(0.5).with_seed(9).build()));
    assert_eq!(next_completed(), 1);
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.workflows_completed, 2);
    master.join();
    worker.stop();
}
