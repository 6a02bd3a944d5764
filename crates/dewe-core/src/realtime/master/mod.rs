//! The master daemon thread.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dewe_dag::WorkflowId;
use dewe_mq::Transport;

use super::journal::{self, Journal};
use super::liveness::{LivenessTable, LivenessTransition, MasterStats, RequeueEntry, WorkerView};
use super::registry::Registry;
use crate::engine::{Action, EngineConfig, EngineStats, EnsembleEngine};
use crate::protocol::{AckMsg, DispatchMsg, LifecycleMsg, SubmissionMsg, WorkflowAnnounce};

mod serve;

pub use serve::spawn_master_on;

/// Every fabric the master can serve: a [`Transport`] pinned to the
/// realtime protocol types. Blanket-implemented — the TCP runtime's
/// [`TcpMaster`](super::net::TcpMaster) qualifies, and so does a test's
/// stand-in.
pub trait MasterTransport:
    Transport<
    Submission = SubmissionMsg,
    Dispatch = DispatchMsg,
    Ack = AckMsg,
    Lifecycle = LifecycleMsg,
    Announce = WorkflowAnnounce,
>
{
}

impl<T> MasterTransport for T where
    T: Transport<
        Submission = SubmissionMsg,
        Dispatch = DispatchMsg,
        Ack = AckMsg,
        Lifecycle = LifecycleMsg,
        Announce = WorkflowAnnounce,
    >
{
}

/// Master daemon configuration.
///
/// ```
/// use dewe_core::realtime::MasterConfig;
///
/// let config = MasterConfig {
///     expected_workflows: Some(20),
///     lease_secs: Some(5.0),
///     ..MasterConfig::default()
/// };
/// ```
#[derive(Debug, Clone, Default)]
pub struct MasterConfig {
    /// Job timeout (paper §III.B), checkout deadline and retry policy.
    pub engine: EngineConfig,
    /// Exit once this many workflows have settled. `None` (default) serves
    /// until the transport shuts down.
    pub expected_workflows: Option<usize>,
    /// Write-ahead journal path: the master takes over (replays, then
    /// appends to) whatever journal it finds there; none is a cold start.
    pub journal_path: Option<PathBuf>,
    /// Worker lease duration, seconds; enables the liveness plane.
    pub lease_secs: Option<f64>,
}

/// Acknowledgments the serve loop takes in one grab — and so journals in
/// one write and hands the engine in one step.
const ACK_BURST: usize = 128;

/// Progress notifications from the master.
#[derive(Debug, Clone, PartialEq)]
pub enum MasterEvent {
    /// A workflow completed after `makespan_secs`.
    WorkflowCompleted {
        /// Which workflow.
        workflow: WorkflowId,
        /// Submission-to-completion wall seconds.
        makespan_secs: f64,
    },
    /// A workflow was abandoned: one of its jobs exhausted its retry
    /// budget, stranding `dead_lettered` job(s) and their dependents.
    WorkflowAbandoned {
        /// Which workflow.
        workflow: WorkflowId,
        /// Jobs in it that exhausted their retry budgets.
        dead_lettered: u64,
    },
    /// All expected workflows completed; the master is exiting.
    AllCompleted {
        /// Final engine statistics.
        stats: EngineStats,
    },
    /// All expected workflows settled but at least one was abandoned;
    /// the master is exiting with partial completion.
    AllSettled {
        /// Final engine statistics.
        stats: EngineStats,
    },
    /// The master stopped on an I/O error: at startup its journal could
    /// not be read, replayed against the registry or opened (nothing was
    /// served), or while serving a journal write failed (an input it could
    /// not make durable is an input it must not act on). The master has
    /// exited and [`MasterHandle::join`] returns all-zero statistics.
    Failed {
        /// What failed and why, one line.
        reason: String,
    },
}

/// Liveness state the master mirrors out for observers (tests,
/// operators): fault-plane counters and the current
/// worker table. Updated by the serve loop as liveness events land.
#[derive(Default)]
struct FaultPlaneShared {
    stats: parking_lot::Mutex<MasterStats>,
    snapshot: parking_lot::Mutex<Vec<WorkerView>>,
}

/// Handle to a running master daemon.
pub struct MasterHandle {
    thread: Option<std::thread::JoinHandle<EngineStats>>,
    stop: Arc<AtomicBool>,
    /// What the serve loop sleeps on, for [`kill`](Self::kill) to wake it.
    transport: Arc<dyn MasterTransport>,
    shared: Arc<FaultPlaneShared>,
    /// Receiver for progress events.
    pub events: Receiver<MasterEvent>,
}

impl MasterHandle {
    /// Wait for the master to exit, returning final engine statistics
    /// (all zero when it reported [`MasterEvent::Failed`]).
    pub fn join(mut self) -> EngineStats {
        self.thread.take().expect("join called once").join().expect("master panicked")
    }

    /// The liveness table's counters (all zero unless `lease_secs` is
    /// configured). Readable while the master runs and after it exits
    /// (read before [`join`](Self::join)/[`kill`](Self::kill), which
    /// consume the handle). A takeover rebuilds them from the journal, all
    /// but two: `stale_acks_rejected` and `workers_lost_in_recovery` count
    /// this incarnation only, from 0 at every start.
    pub fn master_stats(&self) -> MasterStats {
        *self.shared.stats.lock()
    }

    /// Current liveness table rows, ordered by worker id. Empty when
    /// leases are disabled.
    pub fn liveness_snapshot(&self) -> Vec<WorkerView> {
        self.shared.snapshot.lock().clone()
    }

    /// Simulate a master crash: the daemon stops serving immediately,
    /// abandoning its in-memory state. Workers and queued messages are
    /// untouched — exactly the failure a journaled restart recovers from.
    /// The stop is a flag the serve loop reads each time round, and a ring
    /// of the transport's doorbell to send it round now.
    pub fn kill(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.transport.wake();
        if let Some(thread) = self.thread {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetryPolicy;
    use crate::protocol::{AckKind, AckMsg};
    use crate::realtime::testutil::{endpoint, link, next_dispatch, submit, wait_until};
    use crate::realtime::{spawn_worker_on, NoopRunner, SleepRunner, WorkerConfig, WorkerPhase};
    use dewe_dag::WorkflowBuilder;
    use dewe_mq::WorkerTransport;

    /// Drive the master with a hand-rolled "worker" on the test thread.
    #[test]
    fn master_runs_a_chain_to_completion() {
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() },
        );
        let (link, mirror) = link(&tcp, 0, 8);

        let mut b = WorkflowBuilder::new("chain");
        let a = b.job("a", "t", 1.0).build();
        let c = b.job("b", "t", 1.0).build();
        b.edge(a, c);
        submit(&tcp, "chain", &b.finish().unwrap());

        // Act as the sole worker.
        for _ in 0..2 {
            let d = next_dispatch(&link);
            assert!(mirror.get(d.job.workflow).is_some(), "workflow announced first");
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Running, d.attempt));
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, d.attempt));
        }

        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }));
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::AllCompleted { .. }));
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.workflows_completed, 1);
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn a_fan_out_leaves_the_master_as_one_dispatch_batch() {
        // A 1 → 16 fan-out: the root's completion releases 16 jobs in one
        // engine step, and the serve loop publishes them as one run. A
        // worker reading its socket by hand sees where the run lands: one
        // `DispatchBatch` frame.
        use crate::protocol::WireMsg;
        use dewe_mq::{read_frame, write_frame, DEFAULT_MAX_FRAME};
        use std::io::BufReader;
        use std::net::TcpStream;

        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() },
        );
        let mut worker = TcpStream::connect(tcp.local_addr()).unwrap();
        worker.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let hello = WireMsg::Hello { worker: 0, generation: 0, window: 32 };
        write_frame(&mut worker, &hello.encode()).unwrap();
        wait_until("the worker registers", || tcp.worker_conns() == 1);
        let mut reader = BufReader::new(worker.try_clone().unwrap());
        let mut next = || {
            let frame = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap().expect("a frame");
            WireMsg::decode(&frame).unwrap().into_owned()
        };
        let mut complete = |dispatches: &[DispatchMsg]| {
            let mut acks = Vec::new();
            for d in dispatches {
                let ack = AckMsg::new(d.job, 0, AckKind::Completed, d.attempt);
                write_frame(&mut acks, &WireMsg::Ack(ack).encode()).unwrap();
            }
            std::io::Write::write_all(&mut worker, &acks).unwrap();
        };

        let mut b = WorkflowBuilder::new("fan");
        let root = b.job("root", "t", 1.0).build();
        for i in 0..16 {
            let child = b.job(format!("c{i}"), "t", 1.0).build();
            b.edge(root, child);
        }
        submit(&tcp, "fan", &b.finish().unwrap());

        assert!(matches!(next(), WireMsg::Workflow { .. }), "announced first");
        let WireMsg::DispatchBatch(first) = next() else { panic!("the root, alone") };
        assert_eq!(first.len(), 1);
        complete(&first);
        let WireMsg::DispatchBatch(children) = next() else { panic!("the children, as one") };
        assert_eq!(children.len(), 16);
        complete(&children);
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::WorkflowCompleted { .. }));
        assert_eq!(handle.join().jobs_completed, 17);
        tcp.shutdown();
    }

    #[test]
    fn master_ingests_ack_bursts_in_batches() {
        // 100 independent jobs, all acknowledged at once: 200 acks are
        // more than one burst, so the master must drain the flood in
        // batches and still account for every completion exactly once.
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() },
        );
        const JOBS: u32 = 100;
        assert!(2 * JOBS as usize > ACK_BURST, "the flood must span several bursts");
        let (link, _) = link(&tcp, 0, JOBS);
        let mut b = WorkflowBuilder::new("wide");
        for i in 0..JOBS {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        submit(&tcp, "wide", &b.finish().unwrap());

        let dispatches: Vec<_> = (0..JOBS).map(|_| next_dispatch(&link)).collect();
        for d in dispatches {
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Running, d.attempt));
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, d.attempt));
        }
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, u64::from(JOBS));
        assert_eq!(stats.duplicate_completions, 0);
        assert_eq!(stats.workflows_completed, 1);
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn master_resubmits_unacknowledged_job() {
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig {
                engine: EngineConfig::default().timeout(0.05),
                expected_workflows: Some(1),
                ..MasterConfig::default()
            },
        );
        let (link, _) = link(&tcp, 0, 8);
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        submit(&tcp, "one", &b.finish().unwrap());

        // First dispatch: check it out (Running ack) then crash — no
        // completion ever arrives, so the checkout timeout must fire.
        let d1 = next_dispatch(&link);
        assert_eq!(d1.attempt, 1);
        link.publish_ack(AckMsg::new(d1.job, 0, AckKind::Running, 1));
        // Timeout fires; a resubmission appears.
        let d2 = next_dispatch(&link);
        assert_eq!(d2.attempt, 2);
        // Complete it this time.
        link.publish_ack(AckMsg::new(d2.job, 1, AckKind::Running, 2));
        link.publish_ack(AckMsg::new(d2.job, 1, AckKind::Completed, 2));
        let stats = handle.join();
        assert_eq!(stats.resubmissions, 1);
        assert_eq!(stats.workflows_completed, 1);
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn lease_expiry_requeues_a_dead_workers_job_and_fences_its_acks() {
        use crate::protocol::{LifecycleKind, LifecycleMsg};

        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            // Job timeout is deliberately long: recovery must come
            // from the lease, not the timeout scan.
            MasterConfig {
                engine: EngineConfig::default().timeout(30.0),
                expected_workflows: Some(1),
                lease_secs: Some(0.15),
                ..MasterConfig::default()
            },
        );
        let (link, _) = link(&tcp, 5, 8);
        let mut b = WorkflowBuilder::new("one");
        b.job("a", "t", 1.0).build();
        submit(&tcp, "one", &b.finish().unwrap());

        // Worker 5 registers, checks the job out, then dies silently.
        let d1 = next_dispatch(&link);
        assert_eq!(d1.attempt, 1);
        link.publish_lifecycle(LifecycleMsg::new(5, 0, LifecycleKind::Register));
        link.publish_ack(AckMsg::new(d1.job, 5, AckKind::Running, 1));

        // The lease lapses and the job is requeued as attempt 2.
        let d2 = next_dispatch(&link);
        assert_eq!(d2.attempt, 2);
        // A zombie completion for the dead attempt is fenced out; a live
        // worker finishes the requeued attempt.
        link.publish_ack(AckMsg::new(d1.job, 5, AckKind::Completed, 1));
        link.publish_ack(AckMsg::new(d2.job, 6, AckKind::Running, 2));
        link.publish_ack(AckMsg::new(d2.job, 6, AckKind::Completed, 2));

        loop {
            match handle.events.recv_timeout(Duration::from_secs(5)).unwrap() {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        let ms = handle.master_stats();
        assert_eq!(ms.workers_expired, 1);
        assert_eq!(ms.jobs_requeued_on_expiry, 1);
        assert_eq!(ms.stale_acks_rejected, 1);
        assert_eq!(ms.workers_registered, 2, "worker 6 got an implicit lease");
        let rows = handle.liveness_snapshot();
        assert_eq!(rows.iter().filter(|r| r.phase == WorkerPhase::Expired).count(), 1);
        let stats = handle.join();
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.duplicate_completions, 0, "fenced before the engine");
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn drained_worker_completes_gracefully_under_leases() {
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig {
                expected_workflows: Some(4),
                lease_secs: Some(2.0),
                ..MasterConfig::default()
            },
        );
        let mk_worker = |id: u32| {
            let (link, mirror) = link(&tcp, id, 4);
            let worker = spawn_worker_on(
                Arc::new(link.clone()),
                mirror,
                Arc::new(NoopRunner),
                WorkerConfig {
                    worker_id: id,
                    slots: 2,
                    heartbeat_interval: Some(Duration::from_millis(20)),
                    ..WorkerConfig::default()
                },
            );
            (link, worker)
        };
        let (link0, w0) = mk_worker(0);
        let (link1, w1) = mk_worker(1);
        let two_jobs = || {
            let mut b = WorkflowBuilder::new("wf");
            b.job("a", "t", 1.0).build();
            b.job("b", "t", 1.0).build();
            b.finish().unwrap()
        };
        for i in 0..2 {
            submit(&tcp, &format!("wf{i}"), &two_jobs());
        }
        // Wait for the first batch to finish, then drain worker 1 and
        // submit more work — only worker 0 serves it.
        let mut settled = 0;
        while settled < 2 {
            if let MasterEvent::WorkflowCompleted { .. } =
                handle.events.recv_timeout(Duration::from_secs(10)).unwrap()
            {
                settled += 1;
            }
        }
        w1.announce_drain();
        wait_until("the master has seen the drain", || {
            handle.liveness_snapshot().iter().any(|r| r.worker == 1 && r.phase != WorkerPhase::Live)
        });
        w1.stop();
        link1.close();
        for i in 2..4 {
            submit(&tcp, &format!("wf{i}"), &two_jobs());
        }
        loop {
            match handle.events.recv_timeout(Duration::from_secs(10)).unwrap() {
                MasterEvent::AllCompleted { .. } => break,
                MasterEvent::WorkflowCompleted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        let ms = handle.master_stats();
        assert_eq!(ms.drains_completed, 1);
        assert_eq!(ms.workers_expired, 0, "heartbeats kept every lease alive");
        assert_eq!(ms.jobs_requeued_on_expiry, 0);
        let stats = handle.join();
        assert_eq!(stats.workflows_completed, 4);
        w0.stop();
        link0.close();
        tcp.shutdown();
    }

    /// Without `expected_workflows` the master serves until the transport
    /// goes away — and then it, and the workers, exit even with work in
    /// flight.
    #[test]
    fn endpoint_shutdown_mid_flight_ends_master_and_workers() {
        let tcp = endpoint();
        let handle = spawn_master_on(tcp.clone(), Registry::new(), MasterConfig::default());
        let (link, mirror) = link(&tcp, 0, 8);
        let worker = spawn_worker_on(
            Arc::new(link.clone()),
            mirror,
            Arc::new(SleepRunner::new(0.05)),
            WorkerConfig::default(),
        );
        let mut b = WorkflowBuilder::new("chain");
        let first = b.job("a", "t", 1.0).build();
        let second = b.job("b", "t", 1.0).build();
        b.edge(first, second);
        submit(&tcp, "never-finishes", &b.finish().unwrap());
        tcp.shutdown();
        let stats = handle.join();
        assert_eq!(stats.workflows_completed, 0, "shut down mid-flight: {stats:?}");
        worker.stop();
        link.close();
    }

    #[test]
    fn master_dead_letters_and_exits_settled() {
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            Registry::new(),
            MasterConfig {
                engine: EngineConfig::default()
                    .retry(RetryPolicy { max_attempts: Some(2), ..RetryPolicy::default() }),
                expected_workflows: Some(1),
                ..MasterConfig::default()
            },
        );
        let (link, _) = link(&tcp, 0, 8);
        let mut b = WorkflowBuilder::new("poison");
        b.job("a", "t", 1.0).build();
        submit(&tcp, "poison", &b.finish().unwrap());

        // Fail every attempt; after the cap the workflow is abandoned
        // and the master exits with partial completion.
        for attempt in 1..=2 {
            let d = next_dispatch(&link);
            assert_eq!(d.attempt, attempt);
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Running, attempt));
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Failed, attempt));
        }
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            ev,
            MasterEvent::WorkflowAbandoned { workflow: WorkflowId(0), dead_lettered: 1 }
        );
        let ev = handle.events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, MasterEvent::AllSettled { .. }), "got {ev:?}");
        let stats = handle.join();
        assert_eq!(stats.dead_lettered, 1);
        assert_eq!(stats.workflows_abandoned, 1);
        assert_eq!(stats.workflows_completed, 0);
        tcp.shutdown();
        link.close();
    }
}
