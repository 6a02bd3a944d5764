//! End-to-end data-flow verification with real files.
//!
//! Runs a Montage workflow through the threaded runtime with the
//! [`FsRunner`]: every job *actually reads* its input files from a
//! workspace directory and *actually writes* its outputs (sizes scaled
//! down ~10^6x). If the master ever dispatched a job before its parents
//! completed, the job would fail on a missing input — so a clean run is a
//! physical proof of the precedence machinery, the one-machine analogue
//! of the paper's MD5 check on the final mosaic.
//!
//! ```text
//! cargo run --release --example real_dataflow
//! ```

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, FsRunner, MasterConfig, MasterEvent,
    Registry, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
};
use dewe::dag::write_workflow;
use dewe::montage::MontageConfig;

fn main() {
    let wf = MontageConfig::degree(1.0).with_name("mosaic").build();
    println!("{} jobs, {} files", wf.job_count(), wf.file_count());

    let workspace = std::env::temp_dir().join(format!("dewe_dataflow_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workspace);
    let runner = FsRunner::new(&workspace, 1e-6);
    runner.stage_inputs(&wf).expect("stage initial inputs");
    println!("staged inputs under {}", workspace.display());

    let endpoint = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).expect("bind");
    let addr = endpoint.local_addr();
    let master = spawn_master_on(
        endpoint.clone(),
        Registry::new(),
        MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() },
    );
    let workers: Vec<_> = (0..4)
        .map(|id| {
            let mirror = Registry::new();
            let options = TcpWorkerOptions { worker_id: id, window: 8, ..Default::default() };
            let link = TcpWorkerLink::connect(addr, mirror.clone(), options).expect("connect");
            let config = WorkerConfig { worker_id: id, slots: 4, ..WorkerConfig::default() };
            spawn_worker_on(Arc::new(link), mirror, Arc::new(runner.clone()), config)
        })
        .collect();

    submit_over_tcp(addr, [("mosaic", write_workflow(&wf))]).expect("submit");

    loop {
        match master.events.recv_timeout(Duration::from_secs(120)) {
            Ok(MasterEvent::WorkflowCompleted { makespan_secs, .. }) => {
                println!("workflow completed in {makespan_secs:.2}s wall time");
            }
            Ok(MasterEvent::AllCompleted { stats }) => {
                assert_eq!(stats.jobs_completed as usize, wf.job_count());
                println!("all {} jobs completed, 0 failures", stats.jobs_completed);
                break;
            }
            Ok(other) => panic!("unexpected event: {other:?}"),
            Err(e) => panic!("master stalled: {e}"),
        }
    }
    // The endpoint's `shutdown` says Bye; each worker's link ends, and
    // with it the worker.
    master.join();
    endpoint.shutdown();
    for w in workers {
        w.wait();
    }

    // The final mosaic JPEG must exist with the expected (scaled) size —
    // the paper verifies the same via file size + MD5 of mJpeg's output.
    let jpeg = workspace.join("mosaic/mosaic.jpg");
    let meta = std::fs::metadata(&jpeg).expect("final mosaic exists");
    println!("final output {} ({} bytes) verified", jpeg.display(), meta.len());
    let _ = std::fs::remove_dir_all(&workspace);
}
