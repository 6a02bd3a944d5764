//! Seeded message chaos, decided by what a message *is*.
//!
//! A lost, doubled or late message is something that happens where a
//! worker meets the queue, so that is where the threaded path injects it:
//! [`ChaosTransport`] decorates a worker's transport and asks the shared
//! [`ChaosDecider`] about every dispatch it pulls and every ack it
//! publishes, keyed by [`dispatch_key`] / [`ack_key`] — the same keys the
//! engine path's virtual-time driver uses. Which thread pulls a message,
//! and when, has no say in its fate: a lossy seed hits the same messages
//! on every run.
//!
//! A republished attempt — a recovered master's redispatch, what a killed
//! worker's connection held given back — is the same message and meets the
//! same decision; a dropped one is dropped again. Recovery converges because
//! the master's deadlines move the *attempt number*, and the next attempt
//! is a new message: exactly as on the engine path.
//!
//! Duplicated dispatches and delayed messages of either kind wait in one
//! [`ChaosState`] shared by all of a run's workers and are released by
//! whichever slot pulls next once due (a pull waits on the link no longer
//! than the earliest release held), so chaos owns no thread, no tick and no
//! bus, a killed worker's held acks still arrive, and tearing a run down
//! with messages still held is dropping the state. A released message is
//! not decided again.
//! Lifecycle traffic passes through: heartbeat loss is the fault plane's
//! to inject, so lease expiries stay a function of the plan.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dewe_core::realtime::DynWorkerTransport;
use dewe_core::{AckMsg, DispatchMsg, LifecycleMsg};
use dewe_dag::EnsembleJobId;
use dewe_mq::chaos::{message_key, streams};
use dewe_mq::{ChaosConfig, ChaosDecider, Fault, WorkerTransport};

use crate::scenario::ChaosSpec;

/// The scenario's decider with delays of `delay_secs` on this path's
/// clock; `None` when the profile injects nothing.
pub(crate) fn decider(spec: &ChaosSpec, delay_secs: f64) -> Option<ChaosDecider> {
    (!spec.is_noop()).then(|| {
        ChaosDecider::new(ChaosConfig {
            seed: spec.seed,
            drop_prob: spec.drop_prob,
            dup_prob: spec.dup_prob,
            delay_prob: spec.delay_prob,
            delay_secs,
        })
    })
}

fn job_key(job: EnsembleJobId) -> u64 {
    ((job.workflow.0 as u64) << 32) | job.job.0 as u64
}

/// A dispatch's identity on [`streams::DISPATCH`]: job and attempt.
pub(crate) fn dispatch_key(d: &DispatchMsg) -> u64 {
    message_key(job_key(d.job), d.attempt as u64, 0)
}

/// An ack's identity on [`streams::ACK`]: job, attempt and kind.
pub(crate) fn ack_key(ack: &AckMsg) -> u64 {
    message_key(job_key(ack.job), ack.attempt as u64, 1 + ack.kind.code() as u64)
}

/// One run's decider and the messages it is holding back.
pub(crate) struct ChaosState {
    decider: ChaosDecider,
    held: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    dispatches: Vec<(Instant, DispatchMsg)>,
    acks: Vec<(Instant, AckMsg)>,
}

impl ChaosState {
    /// The state for one run, or `None` when `spec` injects nothing.
    pub(crate) fn new(spec: &ChaosSpec, delay_secs: f64) -> Option<Arc<Self>> {
        decider(spec, delay_secs).map(|decider| Arc::new(Self { decider, held: Mutex::default() }))
    }

    /// One worker's transport, decorated.
    pub(crate) fn wrap(self: &Arc<Self>, inner: DynWorkerTransport) -> DynWorkerTransport {
        Arc::new(ChaosTransport { inner, state: Arc::clone(self) })
    }

    fn held(&self) -> std::sync::MutexGuard<'_, Held> {
        self.held.lock().expect("chaos state")
    }
}

/// A worker's transport with the run's chaos applied at both crossings.
struct ChaosTransport {
    inner: DynWorkerTransport,
    state: Arc<ChaosState>,
}

impl WorkerTransport for ChaosTransport {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        let closed = self.inner.dispatch_closed();
        let now = Instant::now();
        let (due_acks, due_dispatch, next_release) = {
            let mut held = self.state.held();
            let (due, later): (Vec<_>, Vec<_>) =
                std::mem::take(&mut held.acks).into_iter().partition(|h| h.0 <= now);
            held.acks = later;
            let first = held.dispatches.iter().position(|h| !closed && h.0 <= now);
            let due_dispatch = first.map(|i| held.dispatches.remove(i).1);
            let releases = held.acks.iter().map(|h| h.0).chain(held.dispatches.iter().map(|h| h.0));
            (due, due_dispatch, releases.min())
        };
        for (_, ack) in due_acks {
            self.inner.publish_ack(ack);
        }
        if due_dispatch.is_some() || closed {
            return due_dispatch;
        }
        let wait =
            next_release.map_or(timeout, |at| timeout.min(at.saturating_duration_since(now)));
        let d = self.inner.pull_dispatch(wait)?;
        let hold = |until| self.state.held().dispatches.push((until, d));
        match self.state.decider.decide(streams::DISPATCH, dispatch_key(&d)) {
            Fault::Drop => None,
            Fault::Duplicate => {
                hold(now);
                Some(d)
            }
            Fault::Delay(secs) => {
                hold(now + Duration::from_secs_f64(secs));
                None
            }
            Fault::Deliver => Some(d),
        }
    }

    fn dispatch_closed(&self) -> bool {
        self.inner.dispatch_closed()
    }

    fn close_dispatch(&self) {
        self.inner.close_dispatch();
    }

    fn publish_ack(&self, ack: AckMsg) {
        match self.state.decider.decide(streams::ACK, ack_key(&ack)) {
            Fault::Drop => {}
            Fault::Duplicate => {
                self.inner.publish_ack(ack);
                self.inner.publish_ack(ack);
            }
            Fault::Delay(secs) => {
                let until = Instant::now() + Duration::from_secs_f64(secs);
                self.state.held().acks.push((until, ack));
            }
            Fault::Deliver => self.inner.publish_ack(ack),
        }
    }

    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.inner.publish_lifecycle(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Rng;
    use dewe_core::realtime::{
        spawn_master_on, spawn_worker_on, submit_over_tcp, MasterConfig, MasterHandle, NoopRunner,
        Registry, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions, WorkerConfig,
    };
    use dewe_core::{AckKind, EngineConfig};
    use dewe_dag::{JobId, WorkflowBuilder, WorkflowId};
    use dewe_mq::Topic;

    fn state(drop_prob: f64, dup_prob: f64, delay_prob: f64, delay_secs: f64) -> Arc<ChaosState> {
        let spec = ChaosSpec { seed: 0xC0FFEE, drop_prob, dup_prob, delay_prob, delay_secs: 0.0 };
        ChaosState::new(&spec, delay_secs).expect("not a no-op profile")
    }

    /// A worker's side of two in-memory queues: what the decorator sees of
    /// any fabric, with the test holding the master's side.
    #[derive(Clone, Default)]
    struct Queues {
        dispatch: Topic<DispatchMsg>,
        acks: Topic<AckMsg>,
    }

    impl WorkerTransport for Queues {
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;

        fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
            self.dispatch.pull_timeout(timeout)
        }
        fn dispatch_closed(&self) -> bool {
            self.dispatch.is_closed()
        }
        fn close_dispatch(&self) {
            self.dispatch.close();
        }
        fn publish_ack(&self, ack: AckMsg) {
            self.acks.publish(ack);
        }
        fn publish_lifecycle(&self, _: LifecycleMsg) {}
    }

    fn link(queues: &Queues, state: &Arc<ChaosState>) -> DynWorkerTransport {
        state.wrap(Arc::new(queues.clone()))
    }

    fn job(n: u32) -> EnsembleJobId {
        EnsembleJobId::new(WorkflowId(0), JobId(n))
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn one_job() -> Arc<dewe_dag::Workflow> {
        let mut b = WorkflowBuilder::new("w");
        b.job("a", "t", 1.0).build();
        Arc::new(b.finish().unwrap())
    }

    /// One worker daemon (worker id 7) over a decorated link, and the
    /// single-job workflow it can run.
    fn one_job_worker(
        queues: &Queues,
        state: &Arc<ChaosState>,
        slots: usize,
    ) -> dewe_core::realtime::WorkerHandle {
        let registry = Registry::new();
        registry.insert(WorkflowId(0), one_job());
        let config = WorkerConfig { worker_id: 7, slots, ..WorkerConfig::default() };
        spawn_worker_on(link(queues, state), registry, Arc::new(NoopRunner), config)
    }

    /// Offer 200 dispatches and 200 acks in an order drawn from
    /// `order_seed`, through four threads sharing one state; return how
    /// many copies of each identity came out of either side.
    fn copies_delivered(order_seed: u64) -> (Vec<usize>, Vec<usize>) {
        const N: usize = 200;
        let queues = Queues::default();
        // Held messages are due at once: the hold-and-release path runs
        // without the test waiting out a delay.
        let state = state(0.25, 0.25, 0.25, 0.0);
        let mut order: Vec<u32> = (0..N as u32).collect();
        let mut rng = Rng::new(order_seed);
        for i in (1..N).rev() {
            order.swap(i, rng.below(i + 1));
        }
        queues.dispatch.publish_all(order.iter().map(|&n| DispatchMsg::new(job(n), 1)));

        let pulled: Vec<DispatchMsg> = std::thread::scope(|scope| {
            let threads: Vec<_> = order
                .chunks(N / 4)
                .map(|chunk| {
                    let (queues, state) = (&queues, &state);
                    scope.spawn(move || {
                        let link = link(queues, state);
                        let mut got = Vec::new();
                        loop {
                            match link.pull_dispatch(Duration::from_millis(1)) {
                                Some(d) => got.push(d),
                                // A message this thread is about to hold
                                // is one it will itself see held here.
                                None if queues.dispatch.is_empty()
                                    && state.held().dispatches.is_empty() =>
                                {
                                    break
                                }
                                None => {}
                            }
                        }
                        for &n in chunk {
                            link.publish_ack(AckMsg::new(job(n), 0, AckKind::Completed, 1));
                        }
                        got
                    })
                })
                .collect();
            threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
        });
        // The next pull by anyone releases the acks still held.
        assert_eq!(link(&queues, &state).pull_dispatch(Duration::ZERO), None);
        assert!(state.held().acks.is_empty() && state.held().dispatches.is_empty());

        let mut dispatches = vec![0; N];
        for d in pulled {
            dispatches[d.job.job.index()] += 1;
        }
        let mut acks = vec![0; N];
        while let Some(ack) = queues.acks.try_pull() {
            acks[ack.job.job.index()] += 1;
        }
        (dispatches, acks)
    }

    #[test]
    fn decisions_do_not_depend_on_arrival_order() {
        let (dispatches, acks) = copies_delivered(1);
        assert_eq!((dispatches.clone(), acks.clone()), copies_delivered(2));
        for copies in [dispatches, acks] {
            let count = |n| copies.iter().filter(|&&c| c == n).count();
            assert!(count(0) > 20 && count(2) > 20, "dropped {} doubled {}", count(0), count(2));
            assert_eq!(count(0) + count(1) + count(2), copies.len(), "never more than doubled");
        }
    }

    #[test]
    fn acks_held_for_a_killed_worker_are_delivered_by_another_workers_next_pull() {
        const HOLD: f64 = 0.25;
        let queues = Queues::default();
        let state = state(0.0, 0.0, 1.0, HOLD);
        let worker = one_job_worker(&queues, &state, 1);
        let start = Instant::now();
        queues.dispatch.publish(DispatchMsg::new(job(0), 1));
        // The dispatch is held, then run; both of its acks are held too.
        wait_until("both acks are held", || state.held().acks.len() == 2);
        assert_eq!(worker.kill(), 1);
        assert!(queues.acks.is_empty(), "held back, and the worker that held them is gone");

        let other = link(&queues, &state);
        wait_until("the held acks arrive", || {
            assert_eq!(other.pull_dispatch(Duration::from_millis(5)), None);
            queues.acks.len() == 2
        });
        assert!(start.elapsed() >= Duration::from_secs_f64(2.0 * HOLD), "holds are wall time");
        let kinds: Vec<_> = std::iter::from_fn(|| queues.acks.try_pull())
            .inspect(|ack| assert_eq!((ack.worker, ack.attempt), (7, 1)))
            .map(|ack| ack.kind)
            .collect();
        assert_eq!(kinds, [AckKind::Running, AckKind::Completed]);
    }

    /// What a link delivered to the decorator above it, before any
    /// decision.
    struct Tap {
        inner: DynWorkerTransport,
        pulled: Mutex<Vec<DispatchMsg>>,
    }

    impl WorkerTransport for Tap {
        type Dispatch = DispatchMsg;
        type Ack = AckMsg;
        type Lifecycle = LifecycleMsg;

        fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
            let d = self.inner.pull_dispatch(timeout)?;
            self.pulled.lock().unwrap().push(d);
            Some(d)
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

    /// The recovery hazard: a recovered master republishes what its
    /// journal says is in flight *at the attempt it had*, so a dropped
    /// dispatch is dropped again — only the checkout deadline, by moving
    /// the attempt, gets the job through.
    #[test]
    fn a_dropped_attempt_stays_dropped_across_a_master_restart_until_the_attempt_moves() {
        let fate = |seed, attempt| {
            let spec = ChaosSpec { seed, drop_prob: 0.5, ..ChaosSpec::none() };
            let key = dispatch_key(&DispatchMsg::new(job(0), attempt));
            decider(&spec, 0.0).unwrap().decide(streams::DISPATCH, key)
        };
        let seed = (0..).find(|&s| fate(s, 1) == Fault::Drop && fate(s, 2) == Fault::Deliver);
        let spec = ChaosSpec { seed: seed.unwrap(), drop_prob: 0.5, ..ChaosSpec::none() };
        let state = ChaosState::new(&spec, 0.0).unwrap();

        let dir = std::env::temp_dir().join(format!("dewe-chaos-seam-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // As `dewe-masterd --state-dir --journal` on one port.
        let master = |addr| -> (TcpMaster, MasterHandle) {
            let options = TcpMasterOptions { state_dir: Some(dir.join("spool")) };
            let tcp = TcpMaster::bind(addr, options).unwrap();
            let registry = Registry::new();
            for (id, _, workflow) in tcp.load_spool().unwrap() {
                registry.insert(id, workflow);
            }
            let config = MasterConfig {
                engine: EngineConfig {
                    checkout_timeout_secs: Some(0.5),
                    ..EngineConfig::default()
                },
                journal_path: Some(dir.join("master.wal")),
                ..MasterConfig::default()
            };
            (tcp.clone(), spawn_master_on(tcp, registry, config))
        };
        let (tcp, first) = master("127.0.0.1:0".parse().unwrap());
        let addr = tcp.local_addr();
        let link = TcpWorkerLink::connect(addr, Registry::new(), TcpWorkerOptions::default())
            .expect("a link");
        let tap = Arc::new(Tap { inner: Arc::new(link.clone()), pulled: Mutex::default() });
        let worker = state.wrap(Arc::clone(&tap) as DynWorkerTransport);
        let pull = || worker.pull_dispatch(Duration::from_millis(5));
        let pulled = || tap.pulled.lock().unwrap().clone();

        submit_over_tcp(addr, [("w", dewe_dag::write_workflow(&one_job()))]).unwrap();
        let dropped = |times| {
            wait_until("attempt 1 reaches the worker and is dropped", || {
                assert_eq!(pull(), None);
                pulled().len() == times
            });
        };
        dropped(1);
        first.kill();
        tcp.kill();
        let (tcp, second) = master(addr);
        dropped(2);
        let mut delivered = None;
        wait_until("attempt 2 is delivered", || {
            delivered = pull();
            delivered.is_some()
        });
        assert_eq!(delivered, Some(DispatchMsg::new(job(0), 2)));
        let attempts: Vec<u32> = pulled().iter().map(|d| d.attempt).collect();
        assert_eq!(attempts, [1, 1, 2], "attempt 1 twice, then attempt 2");
        second.kill();
        tcp.kill();
        link.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn teardown_with_messages_still_held_returns_at_once() {
        let queues = Queues::default();
        let state = state(0.0, 0.0, 1.0, 3600.0);
        let worker = one_job_worker(&queues, &state, 2);
        queues.dispatch.publish_all((1..=3).map(|attempt| DispatchMsg::new(job(0), attempt)));
        wait_until("all three are held", || state.held().dispatches.len() == 3);
        let start = Instant::now();
        assert_eq!(worker.stop(), 0);
        queues.dispatch.close();
        drop(state);
        assert!(start.elapsed() < Duration::from_secs(1), "nothing to wait out or join");
    }
}
