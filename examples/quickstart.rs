//! Quickstart: run a real workflow ensemble with the DEWE v2 threaded
//! runtime.
//!
//! Builds two small Montage workflows, starts a master daemon on a
//! loopback port and two worker daemons connected to it, submits the
//! workflows as `dewectl submit` would, and waits for completion. Jobs
//! "execute" by sleeping 1 ms per CPU-second of their profile.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, MasterConfig, MasterEvent, Registry,
    SleepRunner, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
};
use dewe::dag::write_workflow;
use dewe::montage::MontageConfig;

fn main() {
    // 1. Generate the scientific workflows (0.5-degree Montage mosaics:
    //    same DAG shape as the paper's 6.0-degree runs, 47 jobs each).
    let wf_a = Arc::new(MontageConfig::degree(0.5).with_name("m16").build());
    let wf_b = Arc::new(MontageConfig::degree(0.5).with_name("m17").with_seed(7).build());
    println!("workflow m16: {} jobs, {} files", wf_a.job_count(), wf_a.file_count());
    println!("workflow m17: {} jobs, {} files", wf_b.job_count(), wf_b.file_count());

    // 2. Bring up the system: a master daemon on its endpoint (the
    //    RabbitMQ of the paper), and two 8-slot worker daemons that know
    //    nothing but its address.
    let endpoint = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).expect("bind");
    let addr = endpoint.local_addr();
    let master = spawn_master_on(
        endpoint.clone(),
        Registry::new(),
        MasterConfig { expected_workflows: Some(2), ..MasterConfig::default() },
    );
    let runner = Arc::new(SleepRunner::new(0.001)); // 1 ms per CPU-second
    let workers: Vec<_> = (0..2)
        .map(|id| {
            let mirror = Registry::new();
            let options = TcpWorkerOptions { worker_id: id, window: 16, ..Default::default() };
            let link = TcpWorkerLink::connect(addr, mirror.clone(), options).expect("connect");
            let config = WorkerConfig { worker_id: id, slots: 8, ..WorkerConfig::default() };
            spawn_worker_on(Arc::new(link), mirror, runner.clone(), config)
        })
        .collect();

    // 3. Submit the ensemble — from anywhere, at any time (paper §III.E).
    let texts = [("m16", write_workflow(&wf_a)), ("m17", write_workflow(&wf_b))];
    submit_over_tcp(addr, texts).expect("submit");

    // 4. Watch progress.
    loop {
        match master.events.recv_timeout(Duration::from_secs(60)) {
            Ok(MasterEvent::WorkflowCompleted { workflow, makespan_secs }) => {
                println!("workflow {workflow:?} completed in {makespan_secs:.2}s");
            }
            Ok(MasterEvent::AllCompleted { stats }) => {
                println!(
                    "ensemble complete: {} jobs, {} dispatches, {} resubmissions",
                    stats.jobs_completed, stats.dispatches, stats.resubmissions
                );
                break;
            }
            Ok(other) => panic!("unexpected event: {other:?}"),
            Err(e) => panic!("master stalled: {e}"),
        }
    }

    // 5. Tear down: the endpoint's `shutdown` says Bye to every worker.
    let stats = master.join();
    endpoint.shutdown();
    let executed: u64 = workers.into_iter().map(|w| w.wait()).sum();
    println!("workers executed {executed} jobs; engine recorded {}", stats.jobs_completed);
    assert_eq!(executed, stats.jobs_completed);
}
