//! Fault tolerance with real threads: kill a worker daemon mid-run and
//! watch the master recover (paper §III.B / §V.A.3).
//!
//! Two worker daemons execute a fan-out workflow whose jobs sleep for real
//! time. One worker is killed while jobs are in flight — they vanish
//! without acknowledgment — and a replacement daemon starts a little
//! later. When the dead worker's connection drops, the master puts every
//! dispatch it held, started or not, back on the queue, as a broker does
//! for a dead consumer, and the ensemble still completes. The job timeout
//! is the backstop for a worker that stalls with its connection open.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, MasterConfig, MasterEvent, Registry,
    SleepRunner, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
    WorkerHandle,
};
use dewe::core::EngineConfig;
use dewe::dag::{write_workflow, WorkflowBuilder};

fn main() {
    // 60 independent jobs of ~100 ms each.
    let mut b = WorkflowBuilder::new("fanout");
    for i in 0..60 {
        b.job(format!("job{i}"), "work", 100.0).build();
    }
    let wf = b.finish().expect("valid DAG");

    let endpoint = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).expect("bind");
    let addr = endpoint.local_addr();
    let master = spawn_master_on(
        endpoint.clone(),
        Registry::new(),
        MasterConfig {
            engine: EngineConfig::default().timeout(1.0), // aggressive, to keep the demo short
            expected_workflows: Some(1),
            ..MasterConfig::default()
        },
    );
    // A worker daemon needs nothing but the master's address.
    let worker = |id: u32| -> (TcpWorkerLink, WorkerHandle) {
        let mirror = Registry::new();
        let options = TcpWorkerOptions { worker_id: id, window: 8, ..Default::default() };
        let link = TcpWorkerLink::connect(addr, mirror.clone(), options).expect("connect");
        let runner = Arc::new(SleepRunner::new(0.001)); // 100 cpu-sec -> 100 ms
        let config = WorkerConfig { worker_id: id, slots: 4, ..WorkerConfig::default() };
        (link.clone(), spawn_worker_on(Arc::new(link), mirror, runner, config))
    };
    let (_, w1) = worker(1);
    let (link2, w2) = worker(2);

    submit_over_tcp(addr, [("fanout", write_workflow(&wf))]).expect("submit");

    // Let the cluster get busy, then kill worker 2 abruptly.
    std::thread::sleep(Duration::from_millis(300));
    let done_before_kill = w2.kill();
    link2.close();
    println!("killed worker 2 after {done_before_kill} jobs; what it held goes back on the queue");

    // A replacement daemon joins a moment later — the stateless design
    // means it needs nothing but the queue address.
    std::thread::sleep(Duration::from_millis(200));
    let (_, w3) = worker(3);
    println!("worker 3 started");

    loop {
        match master.events.recv_timeout(Duration::from_secs(60)) {
            Ok(MasterEvent::WorkflowCompleted { makespan_secs, .. }) => {
                println!("workflow completed in {makespan_secs:.2}s despite the failure");
            }
            Ok(MasterEvent::AllCompleted { stats }) => {
                println!(
                    "engine: {} jobs completed, {} resubmissions, {} duplicate completions",
                    stats.jobs_completed, stats.resubmissions, stats.duplicate_completions
                );
                assert_eq!(stats.jobs_completed, 60);
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
    w1.wait();
    w3.wait();
    println!("done.");
}
