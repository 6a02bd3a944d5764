//! Fault tolerance with real threads: kill a worker daemon mid-run and
//! watch the timeout mechanism recover (paper §III.B / §V.A.3).
//!
//! Two worker daemons execute a fan-out workflow whose jobs sleep for real
//! time. One worker is killed while jobs are in flight — its jobs vanish
//! without acknowledgment — and a replacement daemon starts a little
//! later. The master's timeout scan resubmits the lost jobs and the
//! ensemble still completes, with the engine reporting the resubmissions.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_master, spawn_worker, submit, MasterConfig, MasterEvent, MessageBus, Registry,
    SleepRunner, WorkerConfig,
};
use dewe::dag::WorkflowBuilder;

fn main() {
    // 60 independent jobs of ~100 ms each.
    let mut b = WorkflowBuilder::new("fanout");
    for i in 0..60 {
        b.job(format!("job{i}"), "work", 100.0).build();
    }
    let wf = Arc::new(b.finish().expect("valid DAG"));

    let bus = MessageBus::new();
    let registry = Registry::new();
    let master = spawn_master(
        bus.clone(),
        registry.clone(),
        MasterConfig::builder()
            .default_timeout_secs(1.0) // aggressive, to keep the demo short
            .expected_workflows(1)
            .build(),
    );
    let runner = Arc::new(SleepRunner::new(0.001)); // 100 cpu-sec -> 100 ms

    let w1 = spawn_worker(
        bus.clone(),
        registry.clone(),
        runner.clone(),
        WorkerConfig { worker_id: 1, slots: 4, ..WorkerConfig::default() },
    );
    let w2 = spawn_worker(
        bus.clone(),
        registry.clone(),
        runner.clone(),
        WorkerConfig { worker_id: 2, slots: 4, ..WorkerConfig::default() },
    );

    submit(&bus, "fanout", wf);

    // Let the cluster get busy, then kill worker 2 abruptly.
    std::thread::sleep(Duration::from_millis(300));
    let done_before_kill = w2.kill();
    println!("killed worker 2 after it completed {done_before_kill} jobs (in-flight jobs lost)");

    // A replacement daemon joins a moment later — the stateless design
    // means it needs nothing but the queue address.
    std::thread::sleep(Duration::from_millis(200));
    let w3 = spawn_worker(
        bus.clone(),
        registry,
        runner,
        WorkerConfig { worker_id: 3, slots: 4, ..WorkerConfig::default() },
    );
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
    master.join();
    w1.stop();
    w3.stop();
    println!("done.");
}
