//! Real-time (threaded) DEWE v2 runtime.
//!
//! This is a working workflow engine: a master daemon thread, a
//! configurable pool of worker daemons, and a submission client, wired
//! through a TCP endpoint that plays the part the paper's deployment gives
//! RabbitMQ (§III.C). Daemons meet only at the endpoint's address, in one
//! process (the examples, the tests, the oracle) or across machines
//! (`dewe-masterd`, `dewe-workerd`, `dewectl submit`):
//!
//! ```text
//!  submit_over_tcp ──▶ TcpMaster ◀──▶ serve loop (engine, journal, liveness)
//!                        │    ▲
//!   announcements,       │    │  Running/Completed/Failed acks,
//!   dispatches (window)  ▼    │  Lifecycle
//!                    TcpWorkerLink ◀──▶ worker daemon slots (JobRunner)
//! ```
//!
//! Jobs execute through a pluggable [`JobRunner`]; the crate ships runners
//! that sleep (deterministic scaling tests), do nothing (throughput tests),
//! or perform real file I/O against a workspace directory (data-flow
//! verification — a job finds its inputs on "the shared file system"
//! because its parents really wrote them).
//!
//! Worker daemons can be killed (abandoning in-flight jobs without
//! acknowledgment) and new ones started mid-run — the paper's §V.A.3
//! robustness experiment — and the master recovers: the endpoint requeues
//! what a dead worker's connection held; timeouts and leases cover a stall.

mod dagstore;
mod journal;
mod liveness;
mod master;
#[cfg(unix)]
mod net;
mod registry;
mod runner;
mod worker;

pub use journal::{read_journal, recover, replay_liveness, Journal, JournalRecord, Recovery};
pub use liveness::{
    LivenessTable, LivenessTransition, MasterStats, RequeueEntry, WorkerPhase, WorkerView,
    REQUEUE_WORKER,
};
pub use master::{spawn_master_on, MasterConfig, MasterEvent, MasterHandle, MasterTransport};
#[cfg(unix)]
pub use net::{submit_over_tcp, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions};
pub use registry::Registry;
pub use runner::{CpuRunner, FsRunner, JobOutcome, JobRunner, NoopRunner, RunContext, SleepRunner};
pub use worker::{spawn_worker_on, DynWorkerTransport, WorkerConfig, WorkerHandle};

#[cfg(test)]
/// What the runtime's unit tests share: loopback endpoints and links, the
/// submission client, scratch space, and waiting.
mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use dewe_dag::{JobId, Workflow, WorkflowBuilder};
    use dewe_mq::{Transport, WorkerTransport};
    use parking_lot::Mutex;

    use super::{
        submit_over_tcp, JobOutcome, JobRunner, Registry, RunContext, TcpMaster, TcpMasterOptions,
        TcpWorkerLink, TcpWorkerOptions,
    };

    /// `jobs` independent jobs.
    pub(crate) fn wf(name: &str, jobs: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new(name);
        for i in 0..jobs {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        Arc::new(b.finish().unwrap())
    }

    /// A runner whose jobs each wait for one send on the gate [`gated`]
    /// returns, then run as `R` runs them.
    struct Gated<R>(Mutex<Receiver<()>>, R);

    impl<R: JobRunner> JobRunner for Gated<R> {
        fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
            let _ = self.0.lock().recv(); // A dropped gate lets every job through.
            self.1.run(workflow, job, ctx)
        }
    }

    /// `runner` behind a gate, so that a test can read a job's `Running` ack
    /// while the job is still running: a job that ends before its `Running`
    /// ack is sent sends its terminal ack in its place.
    pub(crate) fn gated(runner: impl JobRunner + 'static) -> (Arc<dyn JobRunner>, Sender<()>) {
        let (open, gate) = channel();
        (Arc::new(Gated(Mutex::new(gate), runner)), open)
    }

    /// A master endpoint on a loopback port the OS picked.
    pub(crate) fn endpoint() -> TcpMaster {
        TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap()
    }

    /// A worker link to `master` offering `window`, and the registry it
    /// mirrors into.
    pub(crate) fn link(master: &TcpMaster, worker: u32, window: u32) -> (TcpWorkerLink, Registry) {
        let mirror = Registry::new();
        let opts = TcpWorkerOptions { worker_id: worker, window, ..TcpWorkerOptions::default() };
        (TcpWorkerLink::connect(master.local_addr(), mirror.clone(), opts).unwrap(), mirror)
    }

    /// Submit `workflow` under `name`, as `dewectl submit` does: as text.
    pub(crate) fn submit(master: &TcpMaster, name: &str, workflow: &Workflow) {
        submit_over_tcp(master.local_addr(), [(name, dewe_dag::write_workflow(workflow))]).unwrap();
    }

    /// A fresh scratch directory, unique to `tag` and this process.
    pub(crate) fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dewe-net-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Stands in for the serve loop a bare [`TcpMaster`] does not have: a
    /// thread that turns the endpoint until this is dropped.
    pub(crate) struct Pump(Arc<AtomicBool>, Option<JoinHandle<()>>);

    pub(crate) fn pump(master: &TcpMaster) -> Pump {
        let (master, stop) = (master.clone(), Arc::new(AtomicBool::new(false)));
        let stopped = Arc::clone(&stop);
        Pump(
            stop,
            Some(std::thread::spawn(move || {
                while !stopped.load(Ordering::Relaxed) && !master.ack_closed() {
                    master.worker_conns();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })),
        )
    }

    impl Drop for Pump {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            if let Some(thread) = self.1.take() {
                let _ = thread.join();
            }
        }
    }

    pub(crate) fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// [`wait_until`], pulling on `link` meanwhile — a link reads only while
    /// something pulls on it — and finding no dispatch there.
    pub(crate) fn wait_reading(link: &TcpWorkerLink, what: &str, mut done: impl FnMut() -> bool) {
        wait_until(what, || {
            assert_eq!(link.pull_dispatch(Duration::from_millis(1)), None, "while {what}");
            done()
        });
    }

    /// The next dispatch `link` is sent, within ten seconds.
    pub(crate) fn next_dispatch(link: &TcpWorkerLink) -> crate::DispatchMsg {
        link.pull_dispatch(Duration::from_secs(10)).expect("a dispatch arrives")
    }
}
