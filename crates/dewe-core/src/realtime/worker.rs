//! The worker daemon: stateless pull-based job execution.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe_dag::WorkflowId;
use dewe_mq::WorkerTransport;

use super::registry::Registry;
use super::runner::{JobOutcome, JobRunner, RunContext};
use crate::protocol::{AckKind, AckMsg, DispatchMsg, LifecycleKind, LifecycleMsg};

/// The transport a worker daemon drives, with the wire types pinned to
/// the DEWE protocol. Held as a trait object so [`WorkerHandle`] (and
/// every test harness storing one) stays non-generic across a
/// [`TcpWorkerLink`](super::TcpWorkerLink) and whatever decorates one.
pub type DynWorkerTransport =
    Arc<dyn WorkerTransport<Dispatch = DispatchMsg, Ack = AckMsg, Lifecycle = LifecycleMsg>>;

/// Worker daemon configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker identity (appears in acknowledgments).
    pub worker_id: u32,
    /// Worker incarnation. A replacement worker reusing a crashed
    /// worker's id registers with a higher generation; the master's
    /// liveness table supersedes the old incarnation and requeues
    /// whatever it still held.
    pub generation: u32,
    /// Concurrent job threads — the paper caps this at the node's CPU
    /// count: "the worker daemon stops pulling the job dispatching topic
    /// when the number of concurrent job execution threads equals the
    /// number of CPUs" (§III.D).
    pub slots: usize,
    /// When set, a dedicated thread registers the worker on the
    /// lifecycle topic and then heartbeats at this cadence, letting a
    /// lease-enabled master detect silence. `None` (default) sends no
    /// lifecycle traffic at all — the pre-lease wire behaviour.
    pub heartbeat_interval: Option<Duration>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self { worker_id: 0, generation: 0, slots: 4, heartbeat_interval: None }
    }
}

/// Handle to a running worker daemon.
pub struct WorkerHandle {
    threads: Vec<std::thread::JoinHandle<u64>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    hb_pause: Arc<AtomicBool>,
    transport: DynWorkerTransport,
    worker_id: u32,
    generation: u32,
}

impl WorkerHandle {
    /// Graceful stop: slots finish their current job (acknowledging it)
    /// and exit; an idle one is woken by the transport's
    /// [`close_dispatch`](WorkerTransport::close_dispatch). Returns total
    /// jobs executed.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.transport.close_dispatch();
        self.wait()
    }

    /// Crash the worker (paper §V.A.3): in-flight jobs are abandoned
    /// *without* a completion acknowledgment, a dispatch a slot has just
    /// pulled is dropped unstarted, and heartbeats cease abruptly. The
    /// worker hands nothing back: closing its transport (a
    /// [`TcpWorkerLink`](super::TcpWorkerLink)'s `close`, or the process
    /// dying) is what gives the master back every dispatch the connection
    /// held, as a dead process's would. Returns total jobs executed
    /// (completed ones).
    pub fn kill(self) -> u64 {
        self.kill.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        self.transport.close_dispatch();
        self.wait()
    }

    /// Announce a graceful drain on the lifecycle topic *without*
    /// stopping: a lease-enabled master marks the worker Draining in its
    /// liveness table, and the worker keeps pulling and running what it is
    /// sent — nothing routes by liveness phase, and the master keeps filling
    /// the connection's window. Models a spot revocation notice: call this
    /// at the notice, [`kill`](Self::kill) at the revocation, then close the
    /// link, which gives back whatever the connection held unstarted.
    pub fn announce_drain(&self) {
        self.transport.publish_lifecycle(LifecycleMsg::new(
            self.worker_id,
            self.generation,
            LifecycleKind::Drain,
        ));
    }

    /// Suspend heartbeats without stopping the worker: jobs keep
    /// running, but a lease-enabled master sees silence. This is the
    /// stall/straggler fault — resume with
    /// [`resume_heartbeats`](Self::resume_heartbeats) to model a GC
    /// pause or network partition that heals.
    pub fn pause_heartbeats(&self) {
        self.hb_pause.store(true, Ordering::Relaxed);
    }

    /// Resume heartbeats after [`pause_heartbeats`](Self::pause_heartbeats).
    pub fn resume_heartbeats(&self) {
        self.hb_pause.store(false, Ordering::Relaxed);
    }

    /// Serve until the transport ends the worker: slot loops exit on
    /// their own once the dispatch side is closed and drained (a TCP link
    /// closes it when the master says Bye), each after acknowledging its
    /// current job. Blocks on exactly that — no polling — and returns
    /// total jobs executed. The slots are joined first — heartbeats must
    /// cover a job for as long as it runs — and only then is the heartbeat
    /// stopped and joined, by wake-up.
    pub fn wait(self) -> u64 {
        let total =
            self.threads.into_iter().map(|t| t.join().expect("worker thread panicked")).sum();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(hb) = self.heartbeat {
            hb.thread().unpark();
            hb.join().expect("heartbeat thread panicked");
        }
        total
    }
}

/// Spawn a worker daemon with `config.slots` pulling threads over any
/// [`WorkerTransport`] — a [`TcpWorkerLink`](super::TcpWorkerLink) to a
/// master, or one decorated. The slot and heartbeat loops are written once
/// against the trait; the transport decides what "the dispatch topic"
/// means.
///
/// The worker is stateless: its only knowledge of the system is the
/// transport (the message-queue address) and the registry (the shared file
/// system). It never learns the master's identity or other workers'
/// existence.
pub fn spawn_worker_on(
    transport: DynWorkerTransport,
    registry: Registry,
    runner: Arc<dyn JobRunner>,
    config: WorkerConfig,
) -> WorkerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let hb_pause = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::with_capacity(config.slots);
    for slot in 0..config.slots {
        let transport = Arc::clone(&transport);
        let registry = registry.clone();
        let runner = Arc::clone(&runner);
        let stop = Arc::clone(&stop);
        let kill = Arc::clone(&kill);
        let cfg = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("dewe-worker-{}-{slot}", config.worker_id))
                .spawn(move || slot_loop(transport, registry, runner, stop, kill, cfg))
                .expect("spawn worker thread"),
        );
    }
    let heartbeat = config.heartbeat_interval.map(|interval| {
        let transport = Arc::clone(&transport);
        let stop = Arc::clone(&stop);
        let pause = Arc::clone(&hb_pause);
        let (worker, generation) = (config.worker_id, config.generation);
        std::thread::Builder::new()
            .name(format!("dewe-worker-{worker}-hb"))
            .spawn(move || heartbeat_loop(transport, stop, pause, worker, generation, interval))
            .expect("spawn heartbeat thread")
    });
    WorkerHandle {
        threads,
        heartbeat,
        stop,
        kill,
        hb_pause,
        transport,
        worker_id: config.worker_id,
        generation: config.generation,
    }
}

/// Register once, then heartbeat every `interval` until stopped. The
/// thread parks until the next beat is due and [`WorkerHandle::wait`]
/// unparks it to stop, so stopping waits out nothing; a paused thread
/// keeps its schedule silently, which is exactly what a stalled-but-alive
/// worker looks like on the wire.
fn heartbeat_loop(
    transport: DynWorkerTransport,
    stop: Arc<AtomicBool>,
    pause: Arc<AtomicBool>,
    worker: u32,
    generation: u32,
    interval: Duration,
) {
    transport.publish_lifecycle(LifecycleMsg::new(worker, generation, LifecycleKind::Register));
    let mut next_beat = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next_beat {
            // Returns early on an unpark (and may spuriously): the loop
            // re-reads the clock and the flag either way.
            std::thread::park_timeout(next_beat - now);
            continue;
        }
        next_beat = now + interval;
        if !pause.load(Ordering::Relaxed) {
            transport.publish_lifecycle(LifecycleMsg::new(
                worker,
                generation,
                LifecycleKind::Heartbeat,
            ));
        }
    }
}

fn slot_loop(
    transport: DynWorkerTransport,
    registry: Registry,
    runner: Arc<dyn JobRunner>,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    config: WorkerConfig,
) -> u64 {
    let mut executed = 0u64;
    // One context for every job; `workflow_id` and `attempt` are set per job.
    let mut ctx = RunContext {
        cancelled: kill,
        worker: config.worker_id,
        workflow_id: WorkflowId(0),
        attempt: 0,
    };
    while !stop.load(Ordering::Relaxed) {
        // No deadline: an idle slot sleeps until it has work or the
        // dispatch side closes (a stop or kill closes it).
        let Some(dispatch) = transport.pull_dispatch(Duration::MAX) else {
            if transport.dispatch_closed() {
                break;
            }
            continue;
        };
        // A worker killed right after the pull vanishes with the dispatch
        // unstarted; the master takes it back when the connection ends.
        if ctx.is_cancelled() {
            break;
        }
        let Some(workflow) = registry.get(dispatch.job.workflow) else {
            // A workflow the mirror lacks: its announcement did not parse
            // here. Nothing else would settle the dispatch — its connection
            // holds it until it closes, and no timeout runs before a
            // `Running` — so it fails at once, and the master's retry policy
            // decides.
            transport.publish_ack(AckMsg::new(
                dispatch.job,
                config.worker_id,
                AckKind::Failed,
                dispatch.attempt,
            ));
            continue;
        };
        transport.publish_ack(AckMsg::new(
            dispatch.job,
            config.worker_id,
            AckKind::Running,
            dispatch.attempt,
        ));
        (ctx.workflow_id, ctx.attempt) = (dispatch.job.workflow, dispatch.attempt);
        // A panicking job executable must not take the whole slot thread
        // (and, via `WorkerHandle::wait`, the harness) down with it: treat
        // the panic as a job failure and keep serving. The master's retry
        // budget decides whether the job gets another chance.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run(&workflow, dispatch.job.job, &ctx)
        }))
        .unwrap_or_else(|payload| {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into());
            JobOutcome::Failed(format!("panic: {reason}"))
        });
        match outcome {
            JobOutcome::Success => {
                executed += 1;
                transport.publish_ack(AckMsg::new(
                    dispatch.job,
                    config.worker_id,
                    AckKind::Completed,
                    dispatch.attempt,
                ));
            }
            JobOutcome::Failed(_reason) => {
                transport.publish_ack(AckMsg::new(
                    dispatch.job,
                    config.worker_id,
                    AckKind::Failed,
                    dispatch.attempt,
                ));
            }
            JobOutcome::Cancelled => {
                // Crash semantics: no acknowledgment at all.
                break;
            }
        }
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WorkflowAnnounce;
    use crate::realtime::runner::NoopRunner;
    use crate::realtime::testutil::{endpoint, gated, link, wait_until};
    use crate::realtime::TcpMaster;
    use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowBuilder, WorkflowId};
    use dewe_mq::Transport;
    use std::sync::Arc;

    /// A worker daemon over a link to a bare endpoint the test drives by
    /// hand, with `workflow` announced to it as workflow 0.
    fn worker_on(
        workflow: Workflow,
        runner: Arc<dyn JobRunner>,
        config: WorkerConfig,
    ) -> (TcpMaster, crate::realtime::TcpWorkerLink, WorkerHandle) {
        let tcp = endpoint();
        let (link, mirror) = link(&tcp, config.worker_id, 8);
        let workflow = Arc::new(workflow);
        tcp.announce(WorkflowAnnounce { id: WorkflowId(0), name: "w".into(), workflow }).unwrap();
        let handle = spawn_worker_on(Arc::new(link.clone()), mirror, runner, config);
        (tcp, link, handle)
    }

    fn one_job() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.job("a", "t", 1.0).build();
        b.finish().unwrap()
    }

    fn job(j: u32) -> EnsembleJobId {
        EnsembleJobId::new(WorkflowId(0), JobId(j))
    }

    /// The next ack, turning the endpoint while it waits.
    fn next_ack(tcp: &TcpMaster) -> AckMsg {
        tcp.pull_ack(Duration::from_secs(5)).expect("an ack arrives")
    }

    #[test]
    fn worker_executes_and_acks() {
        let (runner, open) = gated(NoopRunner);
        let (tcp, link, handle) = worker_on(
            one_job(),
            runner,
            WorkerConfig { worker_id: 7, slots: 2, ..WorkerConfig::default() },
        );
        tcp.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        let running = next_ack(&tcp);
        assert_eq!(running.kind, AckKind::Running);
        assert_eq!(running.worker, 7);
        open.send(()).unwrap();
        let completed = next_ack(&tcp);
        assert_eq!(completed.kind, AckKind::Completed);
        assert_eq!(handle.stop(), 1);
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn killed_worker_abandons_job_without_ack() {
        struct Slow;
        impl crate::realtime::JobRunner for Slow {
            fn run(
                &self,
                _w: &dewe_dag::Workflow,
                _j: JobId,
                ctx: &crate::realtime::RunContext,
            ) -> JobOutcome {
                for _ in 0..1000 {
                    if ctx.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                JobOutcome::Success
            }
        }
        let (tcp, link, handle) = worker_on(
            one_job(),
            Arc::new(Slow),
            WorkerConfig { worker_id: 1, slots: 1, ..WorkerConfig::default() },
        );
        tcp.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        let running = next_ack(&tcp);
        assert_eq!(running.kind, AckKind::Running);
        assert_eq!(handle.kill(), 0, "no job completed");
        // No completion ack must ever arrive.
        assert!(tcp.pull_ack(Duration::from_millis(100)).is_none());
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn panicking_job_acks_failed_and_slot_survives() {
        struct Bomb;
        impl crate::realtime::JobRunner for Bomb {
            fn run(
                &self,
                _w: &dewe_dag::Workflow,
                j: JobId,
                _ctx: &crate::realtime::RunContext,
            ) -> JobOutcome {
                if j.index() == 0 {
                    panic!("executable segfaulted");
                }
                JobOutcome::Success
            }
        }
        let mut b = WorkflowBuilder::new("w");
        b.job("a", "t", 1.0).build();
        b.job("b", "t", 1.0).build();
        let (runner, open) = gated(Bomb);
        let (tcp, link, handle) = worker_on(
            b.finish().unwrap(),
            runner,
            WorkerConfig { worker_id: 2, slots: 1, ..WorkerConfig::default() },
        );
        // Job 0 panics mid-run: the slot must ack it Failed and survive.
        tcp.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        assert_eq!(next_ack(&tcp).kind, AckKind::Running);
        open.send(()).unwrap();
        assert_eq!(next_ack(&tcp).kind, AckKind::Failed);
        // Same slot still serves the next job.
        tcp.publish_dispatch(0, DispatchMsg::new(job(1), 1));
        assert_eq!(next_ack(&tcp).kind, AckKind::Running);
        open.send(()).unwrap();
        assert_eq!(next_ack(&tcp).kind, AckKind::Completed);
        assert_eq!(handle.stop(), 1);
        tcp.shutdown();
        link.close();
    }

    #[test]
    fn worker_registers_heartbeats_pauses_and_drains() {
        let (tcp, link, handle) = worker_on(
            one_job(),
            Arc::new(NoopRunner),
            WorkerConfig {
                worker_id: 3,
                generation: 2,
                slots: 1,
                heartbeat_interval: Some(Duration::from_millis(10)),
            },
        );
        // What the endpoint has read of the lifecycle topic so far.
        let lifecycle = |wait: Duration| {
            let deadline = Instant::now() + wait;
            loop {
                tcp.worker_conns();
                if let Some(msg) = tcp.try_pull_lifecycle() {
                    return Some(msg);
                }
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Registration arrives first, then a steady heartbeat.
        let reg = lifecycle(Duration::from_secs(5)).unwrap();
        assert_eq!(reg, LifecycleMsg { worker: 3, generation: 2, kind: LifecycleKind::Register });
        let hb = lifecycle(Duration::from_secs(5)).unwrap();
        assert_eq!(hb.kind, LifecycleKind::Heartbeat);
        assert_eq!(hb.generation, 2);
        // The stall fault: paused heartbeats go silent without stopping
        // the worker. Drain any already-published backlog first.
        handle.pause_heartbeats();
        std::thread::sleep(Duration::from_millis(15));
        while lifecycle(Duration::from_millis(20)).is_some() {}
        assert!(
            lifecycle(Duration::from_millis(60)).is_none(),
            "paused worker is silent on the lifecycle topic"
        );
        handle.resume_heartbeats();
        let hb = lifecycle(Duration::from_secs(5)).unwrap();
        assert_eq!(hb.kind, LifecycleKind::Heartbeat);
        // A graceful drain announces itself before stopping.
        handle.announce_drain();
        assert_eq!(handle.stop(), 0);
        let mut saw_drain = false;
        wait_until("the drain announcement arrives", || {
            while let Some(msg) = lifecycle(Duration::ZERO) {
                saw_drain |= msg.kind == LifecycleKind::Drain;
            }
            saw_drain
        });
        tcp.shutdown();
        link.close();
    }

    /// A link that counts each slot thread's pulls, and the pulls that came
    /// back empty with the dispatch side open: by a timeout.
    struct Counting {
        inner: crate::realtime::TcpWorkerLink,
        pulls: parking_lot::Mutex<std::collections::BTreeMap<String, usize>>,
        timed_out: std::sync::atomic::AtomicUsize,
    }

    impl WorkerTransport for Counting {
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;

        fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
            let slot = std::thread::current().name().unwrap_or_default().to_string();
            *self.pulls.lock().entry(slot).or_default() += 1;
            let got = self.inner.pull_dispatch(timeout);
            if got.is_none() && !self.inner.dispatch_closed() {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            got
        }
        fn dispatch_closed(&self) -> bool {
            self.inner.dispatch_closed()
        }
        fn close_dispatch(&self) {
            self.inner.close_dispatch();
        }
        fn publish_ack(&self, ack: AckMsg) {
            self.inner.publish_ack(ack);
        }
        fn publish_lifecycle(&self, msg: LifecycleMsg) {
            self.inner.publish_lifecycle(msg);
        }
    }

    /// An idle slot sleeps until it has work: left alone for half a
    /// second, each of three slots pulls once, and the stop that ends them
    /// is what returns those pulls, not a timeout.
    #[test]
    fn an_idle_worker_pulls_once_per_slot_and_stopping_it_wakes_each_once() {
        let tcp = endpoint();
        let (link, mirror) = link(&tcp, 0, 8);
        let counting = Arc::new(Counting {
            inner: link.clone(),
            pulls: Default::default(),
            timed_out: Default::default(),
        });
        let config = WorkerConfig { slots: 3, ..WorkerConfig::default() };
        let handle = spawn_worker_on(counting.clone(), mirror, Arc::new(NoopRunner), config);
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(handle.stop(), 0);
        let pulls: Vec<usize> = counting.pulls.lock().values().copied().collect();
        assert_eq!(pulls, [1, 1, 1], "one pull per slot");
        assert_eq!(counting.timed_out.load(Ordering::Relaxed), 0, "none returned by timeout");
        tcp.shutdown();
        link.close();
    }

    /// Dispatches to hand out, then a closed dispatch side; every ack kept.
    #[derive(Default)]
    struct Stub {
        dispatches: parking_lot::Mutex<std::collections::VecDeque<DispatchMsg>>,
        acks: parking_lot::Mutex<Vec<AckMsg>>,
    }

    impl WorkerTransport for Stub {
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;

        fn pull_dispatch(&self, _: Duration) -> Option<DispatchMsg> {
            self.dispatches.lock().pop_front()
        }
        fn dispatch_closed(&self) -> bool {
            self.dispatches.lock().is_empty()
        }
        fn close_dispatch(&self) {
            self.dispatches.lock().clear();
        }
        fn publish_ack(&self, ack: AckMsg) {
            self.acks.lock().push(ack);
        }
        fn publish_lifecycle(&self, _: LifecycleMsg) {}
    }

    /// A dispatch of a workflow the mirror does not hold is acked `Failed`,
    /// with no `Running` before it: nothing else would settle it.
    #[test]
    fn a_dispatch_of_an_unknown_workflow_is_acked_failed() {
        let stub = Arc::new(Stub::default());
        stub.dispatches.lock().push_back(DispatchMsg::new(job(0), 3));
        let config = WorkerConfig { worker_id: 5, slots: 1, ..WorkerConfig::default() };
        let handle = spawn_worker_on(stub.clone(), Registry::new(), Arc::new(NoopRunner), config);
        assert_eq!(handle.wait(), 0);
        assert_eq!(*stub.acks.lock(), [AckMsg::new(job(0), 5, AckKind::Failed, 3)]);
    }

    #[test]
    fn stopped_worker_drains_quickly() {
        let (tcp, link, handle) = worker_on(
            one_job(),
            Arc::new(NoopRunner),
            WorkerConfig { worker_id: 0, slots: 3, ..WorkerConfig::default() },
        );
        assert_eq!(handle.stop(), 0);
        tcp.shutdown();
        link.close();
    }
}
