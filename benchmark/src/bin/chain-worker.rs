//! `chain-worker` — the worker of the `tcp-chain` workload. It is
//! `dewe-workerd` with one slot, a window of two and a runner that returns at
//! once, but stamps its own monotonic clock around every job, so the time
//! from "job *i* returned" to "job *i+1* started" — one full trip
//! worker → socket → master serve loop → engine → socket → worker — is
//! measured at one place, on one clock.
//!
//! It also checks the chain's contract: within a workflow, jobs `j0, j1, …`
//! run in index order, each exactly once.
//!
//! ```text
//! chain-worker --master <addr> --hops <file>
//! ```
//!
//! `dewe` items linked: `core::realtime::{spawn_worker_on, JobOutcome,
//! JobRunner, Registry, RunContext, TcpWorkerLink, TcpWorkerOptions,
//! WorkerConfig}`, `dag::{JobId, Workflow}`, `mq::WorkerTransport`.

use std::collections::HashMap;
use std::io::Write;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dewe::core::realtime::{
    spawn_worker_on, JobOutcome, JobRunner, Registry, RunContext, TcpWorkerLink, TcpWorkerOptions,
    WorkerConfig,
};
use dewe::dag::{JobId, Workflow};
use dewe::mq::WorkerTransport;

#[derive(Default)]
struct Stamps {
    /// Workflow id → index of the job that must run next.
    next_index: HashMap<u32, usize>,
    /// Workflow and return time of the previous job.
    last: Option<(u32, Instant)>,
    hops_ns: Vec<u64>,
    order_violations: u64,
}

#[derive(Default)]
struct Stamper(Mutex<Stamps>);

impl JobRunner for Stamper {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        let started = Instant::now();
        // One slot, so the lock is never contended; it only makes the
        // runner `Sync`.
        let mut s = self.0.lock().expect("no job panics while stamping");
        let wf = ctx.workflow_id.0;
        let index = workflow.job(job).name.strip_prefix('j').and_then(|n| n.parse::<usize>().ok());
        let expected = s.next_index.entry(wf).or_insert(0);
        let in_order = index == Some(*expected);
        *expected += 1;
        if !in_order {
            s.order_violations += 1;
        } else if let Some((last_wf, returned)) = s.last {
            // The first job of a workflow follows a submission, not a hop.
            if last_wf == wf && index != Some(0) {
                s.hops_ns.push(started.duration_since(returned).as_nanos() as u64);
            }
        }
        s.last = Some((wf, Instant::now()));
        JobOutcome::Success
    }
}

fn main() {
    let (mut master, mut hops_path) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--master", Some(v)) => master = Some(v),
            ("--hops", Some(v)) => hops_path = Some(v),
            _ => {
                eprintln!("usage: chain-worker --master <addr> --hops <file>");
                exit(2);
            }
        }
    }
    let (Some(master), Some(hops_path)) = (master, hops_path) else {
        eprintln!("usage: chain-worker --master <addr> --hops <file>");
        exit(2);
    };

    let registry = Registry::new();
    let link = match TcpWorkerLink::connect(
        master.as_str(),
        registry.clone(),
        TcpWorkerOptions { worker_id: 1, window: 2, ..TcpWorkerOptions::default() },
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("chain-worker: connect {master}: {e}");
            exit(1);
        }
    };
    println!("chain-worker: serving {master}");
    let stamper = Arc::new(Stamper::default());
    let handle = spawn_worker_on(
        Arc::new(link.clone()),
        registry,
        Arc::clone(&stamper) as Arc<dyn JobRunner>,
        WorkerConfig {
            worker_id: 1,
            slots: 1,
            heartbeat_interval: Some(Duration::from_secs(5)),
            ..WorkerConfig::default()
        },
    );
    // As dewe-workerd: serve until the master says the ensemble is done.
    while !link.master_said_bye() && !link.dispatch_closed() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let executed = handle.stop();
    link.close();

    let stamps = stamper.0.lock().expect("slot thread has stopped");
    let mut log = String::with_capacity(stamps.hops_ns.len() * 8);
    for ns in &stamps.hops_ns {
        log.push_str(&ns.to_string());
        log.push('\n');
    }
    if let Err(e) = std::fs::write(&hops_path, log) {
        eprintln!("chain-worker: write {hops_path}: {e}");
        exit(1);
    }
    println!(
        "chain-worker: done — {executed} jobs executed, {} order violations",
        stamps.order_violations
    );
    let _ = std::io::stdout().flush();
}
