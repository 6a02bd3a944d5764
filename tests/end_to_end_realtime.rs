//! End-to-end integration: the threaded DEWE v2 runtime executing real
//! Montage-shaped ensembles over loopback TCP, including fault injection
//! and real file data flow.

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, FsRunner, JobRunner, MasterConfig,
    MasterEvent, MasterHandle, NoopRunner, Registry, SleepRunner, TcpMaster, TcpMasterOptions,
    TcpWorkerLink, TcpWorkerOptions, WorkerConfig, WorkerHandle,
};
use dewe::core::EngineConfig;
use dewe::dag::{write_workflow, Workflow};
use dewe::montage::{CyberShakeConfig, EpigenomicsConfig, LigoConfig, MontageConfig, SiphtConfig};

fn drain_until_all_done(master: &MasterHandle) -> dewe::core::EngineStats {
    loop {
        match master.events.recv_timeout(Duration::from_secs(120)) {
            Ok(MasterEvent::AllCompleted { stats }) => return stats,
            Ok(MasterEvent::WorkflowCompleted { .. }) => continue,
            Ok(other) => panic!("unexpected event: {other:?}"),
            Err(e) => panic!("master stalled: {e}"),
        }
    }
}

/// A master on a loopback port.
fn master(config: MasterConfig) -> (TcpMaster, MasterHandle) {
    let tcp = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
    let handle = spawn_master_on(tcp.clone(), Registry::new(), config);
    (tcp, handle)
}

/// A worker daemon on its own link to `tcp`, with `dewe-workerd`'s window.
struct Worker(TcpWorkerLink, WorkerHandle);

impl Worker {
    fn start(tcp: &TcpMaster, runner: Arc<dyn JobRunner>, config: WorkerConfig) -> Self {
        let mirror = Registry::new();
        let window = 2 * config.slots as u32;
        let opts = TcpWorkerOptions { worker_id: config.worker_id, window, ..Default::default() };
        let link = TcpWorkerLink::connect(tcp.local_addr(), mirror.clone(), opts).unwrap();
        let handle = spawn_worker_on(Arc::new(link.clone()), mirror, runner, config);
        Self(link, handle)
    }

    fn stop(self) -> u64 {
        let executed = self.1.stop();
        self.0.close();
        executed
    }

    fn kill(self) -> u64 {
        let executed = self.1.kill();
        self.0.close();
        executed
    }
}

/// Submit `(name, workflow)` pairs down one connection, in order.
fn submit<'a>(tcp: &TcpMaster, workflows: impl IntoIterator<Item = (&'a str, &'a Workflow)>) {
    let texts = workflows.into_iter().map(|(name, wf)| (name, write_workflow(wf)));
    submit_over_tcp(tcp.local_addr(), texts).unwrap();
}

#[test]
fn montage_ensemble_runs_to_completion() {
    let (tcp, master) =
        master(MasterConfig { expected_workflows: Some(3), ..MasterConfig::default() });
    let workers: Vec<_> = (0..3)
        .map(|id| {
            Worker::start(
                &tcp,
                Arc::new(NoopRunner),
                WorkerConfig { worker_id: id, slots: 4, ..WorkerConfig::default() },
            )
        })
        .collect();

    let workflows: Vec<_> =
        (0..3).map(|i| MontageConfig::degree(0.5).with_seed(i).build()).collect();
    let expected_jobs: u64 = workflows.iter().map(|wf| wf.job_count() as u64).sum();
    let names = ["wf0", "wf1", "wf2"];
    submit(&tcp, names.into_iter().zip(&workflows));
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, expected_jobs);
    assert_eq!(stats.workflows_completed, 3);
    master.join();
    let executed: u64 = workers.into_iter().map(Worker::stop).sum();
    assert_eq!(executed, expected_jobs);
    tcp.shutdown();
}

#[test]
fn mixed_application_ensemble() {
    // Montage + LIGO + CyberShake + Epigenomics + SIPHT workflows in one
    // ensemble: the master multiplexes heterogeneous DAGs over one fleet.
    let (tcp, master) =
        master(MasterConfig { expected_workflows: Some(5), ..MasterConfig::default() });
    let worker = Worker::start(
        &tcp,
        Arc::new(NoopRunner),
        WorkerConfig { worker_id: 0, slots: 8, ..WorkerConfig::default() },
    );
    let montage = MontageConfig::degree(0.5).build();
    let ligo = LigoConfig::new(2, 3).build();
    let cs = CyberShakeConfig::new(10).build();
    let epi = EpigenomicsConfig::new(2, 3).build();
    let sipht = SiphtConfig::new(9).build();
    let total = (montage.job_count()
        + ligo.job_count()
        + cs.job_count()
        + epi.job_count()
        + sipht.job_count()) as u64;
    submit(
        &tcp,
        [
            ("montage", &montage),
            ("ligo", &ligo),
            ("cybershake", &cs),
            ("epigenomics", &epi),
            ("sipht", &sipht),
        ],
    );
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, total);
    master.join();
    worker.stop();
    tcp.shutdown();
}

#[test]
fn worker_crash_recovery_end_to_end() {
    // Kill the only worker mid-ensemble; a fresh worker finishes the job
    // set (paper §V.A.3 in real threads). What the dead worker's
    // connection held — started or not — the endpoint puts back on the
    // queue when the connection drops, so no checkout deadline is needed;
    // the job timeout is the backstop.
    let (tcp, master) = master(MasterConfig {
        engine: EngineConfig::default().timeout(0.3),
        expected_workflows: Some(1),
        ..MasterConfig::default()
    });
    let w1 = Worker::start(
        &tcp,
        Arc::new(SleepRunner::new(0.0005)),
        WorkerConfig { worker_id: 1, slots: 2, ..WorkerConfig::default() },
    );
    let wf = MontageConfig::degree(0.5).build();
    let jobs = wf.job_count() as u64;
    submit(&tcp, [("victim", &wf)]);
    std::thread::sleep(Duration::from_millis(50));
    w1.kill();

    let w2 = Worker::start(
        &tcp,
        Arc::new(SleepRunner::new(0.0005)),
        WorkerConfig { worker_id: 2, slots: 4, ..WorkerConfig::default() },
    );
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed, jobs);
    master.join();
    w2.stop();
    tcp.shutdown();
}

#[test]
fn real_file_dataflow_produces_final_output() {
    let wf = MontageConfig::degree(0.5).with_name("e2e").build();
    let workspace = std::env::temp_dir().join(format!("dewe_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workspace);
    let runner = FsRunner::new(&workspace, 1e-6);
    runner.stage_inputs(&wf).unwrap();

    let (tcp, master) =
        master(MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() });
    let worker = Worker::start(
        &tcp,
        Arc::new(runner),
        WorkerConfig { worker_id: 0, slots: 8, ..WorkerConfig::default() },
    );
    submit(&tcp, [("e2e", &wf)]);
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.jobs_completed as usize, wf.job_count());
    // No job may ever have failed on a missing input: resubmissions only
    // happen on worker death, and none died.
    assert_eq!(stats.resubmissions, 0);
    assert!(workspace.join("e2e/mosaic.jpg").exists(), "final mosaic written");
    master.join();
    worker.stop();
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&workspace);
}

#[test]
fn results_identical_across_cluster_configurations() {
    // The paper verifies DEWE v2 vs Pegasus by comparing size and MD5 of
    // the final mosaic (§V.A). Analogue here: run the same workflow with
    // 1 worker and with 4 workers (different interleavings) — final
    // output checksums must match.
    let run = |workers: usize, tag: &str| -> u64 {
        let wf = MontageConfig::degree(0.5).with_name("verify").build();
        let workspace =
            std::env::temp_dir().join(format!("dewe_verify_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&workspace);
        let runner = FsRunner::new(&workspace, 1e-5);
        runner.stage_inputs(&wf).unwrap();
        let (tcp, master) =
            master(MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() });
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                Worker::start(
                    &tcp,
                    Arc::new(runner.clone()),
                    WorkerConfig { worker_id: id as u32, slots: 2, ..WorkerConfig::default() },
                )
            })
            .collect();
        submit(&tcp, [("verify", &wf)]);
        drain_until_all_done(&master);
        master.join();
        for h in handles {
            h.stop();
        }
        tcp.shutdown();
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
    let (tcp, master) =
        master(MasterConfig { expected_workflows: Some(2), ..MasterConfig::default() });
    let worker = Worker::start(
        &tcp,
        Arc::new(NoopRunner),
        WorkerConfig { worker_id: 0, slots: 2, ..WorkerConfig::default() },
    );
    submit(&tcp, [("first", &MontageConfig::degree(0.5).build())]);
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
    submit(&tcp, [("second", &MontageConfig::degree(0.5).with_seed(9).build())]);
    assert_eq!(next_completed(), 1);
    let stats = drain_until_all_done(&master);
    assert_eq!(stats.workflows_completed, 2);
    master.join();
    worker.stop();
    tcp.shutdown();
}
