//! Seeded fault injection for the *threaded* realtime transport.
//!
//! [`ChaosConfig`] has always modeled drop / duplicate / **delay**, but
//! until now only the discrete-event simulator applied chaos — the
//! realtime master and workers talked over plain [`MessageBus`] topics.
//! [`ChaosLink`] closes that gap: it interposes a pair of pump threads
//! between a master-side bus and a worker-side bus, pushing every dispatch
//! and acknowledgment through a [`ChaosTopic`] so all three fault kinds —
//! including delay, which needs real wall-clock holds and a periodic
//! flush, something a passive wrapper cannot provide on a sparse topic —
//! act on live daemon traffic:
//!
//! ```text
//!  master ──▶ master_bus.dispatch ──▶ [pump: chaos] ──▶ worker_bus.dispatch ──▶ workers
//!  master ◀── master_bus.ack      ◀── [pump: chaos] ◀── worker_bus.ack      ◀── workers
//! ```
//!
//! The submission topic is shared untouched (submissions are the test
//! harness's own inputs). Delayed messages are parked inside the chaos
//! wrapper and flushed by the pump's periodic tick, so a hold expires on
//! time even when no new traffic arrives to piggyback on. Decisions come
//! from the same pure seeded [`ChaosDecider`] the simulator uses: a run is
//! reproduced by its seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dewe_mq::chaos::streams;
use dewe_mq::{ChaosConfig, ChaosDecider, ChaosStats, ChaosTopic, Topic};

use super::bus::MessageBus;

/// A chaos-injecting interposer between the master's bus and the workers'
/// bus. Dropping faults vanish messages, duplicates deliver twice, delays
/// hold messages back `delay_secs` of real wall time.
pub struct ChaosLink {
    /// The bus the master daemon must be spawned on.
    pub master_bus: MessageBus,
    /// The bus worker daemons must be spawned on.
    pub worker_bus: MessageBus,
    dispatch_chaos: ChaosTopic<crate::protocol::DispatchMsg>,
    ack_chaos: ChaosTopic<crate::protocol::AckMsg>,
    pumps: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl ChaosLink {
    /// Interpose seeded chaos between a fresh master-side and worker-side
    /// bus pair.
    pub fn new(cfg: ChaosConfig) -> Self {
        let master_bus = MessageBus::new();
        // Workers get their own dispatch/ack topics; submission passes
        // through untouched (it is the harness's own input channel), as
        // does the lifecycle topic — heartbeat loss is injected by the
        // fault plane (worker stalls), not by message chaos, so lease
        // expiries stay deterministic per scenario.
        let worker_bus = MessageBus {
            submission: master_bus.submission.clone(),
            dispatch: Topic::new(),
            ack: Topic::new(),
            lifecycle: master_bus.lifecycle.clone(),
        };
        let decider = Arc::new(ChaosDecider::new(cfg));
        let dispatch_chaos =
            ChaosTopic::new(worker_bus.dispatch.clone(), Arc::clone(&decider), streams::DISPATCH);
        let ack_chaos = ChaosTopic::new(master_bus.ack.clone(), Arc::clone(&decider), streams::ACK);
        // The pump tick bounds both how late a due delayed message can
        // flush and how long shutdown takes; well under delay_secs keeps
        // holds accurate without busy-spinning.
        let tick = Duration::from_secs_f64((cfg.delay_secs / 4.0).clamp(0.001, 0.005));
        let stop = Arc::new(AtomicBool::new(false));
        let pumps = vec![
            spawn_pump(
                "dewe-chaos-dispatch",
                master_bus.dispatch.clone(),
                dispatch_chaos.clone(),
                Arc::clone(&stop),
                tick,
            ),
            spawn_pump(
                "dewe-chaos-ack",
                worker_bus.ack.clone(),
                ack_chaos.clone(),
                Arc::clone(&stop),
                tick,
            ),
        ];
        Self { master_bus, worker_bus, dispatch_chaos, ack_chaos, pumps, stop }
    }

    /// Injection counters for the master → worker dispatch direction.
    pub fn dispatch_stats(&self) -> ChaosStats {
        self.dispatch_chaos.stats()
    }

    /// Injection counters for the worker → master ack direction.
    pub fn ack_stats(&self) -> ChaosStats {
        self.ack_chaos.stats()
    }

    /// Tear the link down: closes both buses, stops the pumps (still-held
    /// delayed messages are discarded — the crash semantics of a fabric
    /// going away) and joins them.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.master_bus.shutdown();
        self.worker_bus.shutdown();
        for pump in self.pumps {
            pump.join().expect("chaos pump panicked");
        }
    }
}

/// Move messages from `upstream` through `chaos` (whose inner topic is the
/// downstream side), ticking `flush_due` so delay holds expire on time.
/// Exits when told to stop, or when the upstream is closed, drained, and
/// no delayed message is still pending; the downstream topic is closed on
/// the way out so its consumers wake.
fn spawn_pump<T: Clone + Send + 'static>(
    name: &str,
    upstream: Topic<T>,
    chaos: ChaosTopic<T>,
    stop: Arc<AtomicBool>,
    tick: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match upstream.pull_timeout(tick) {
                    Some(message) => chaos.publish(message),
                    None => {
                        chaos.flush_due();
                        if upstream.is_closed()
                            && upstream.is_empty()
                            && chaos.pending_delayed() == 0
                        {
                            break;
                        }
                    }
                }
            }
            // Late stragglers published after close are still drainable;
            // forward them before closing the downstream side.
            while let Some(message) = upstream.try_pull() {
                chaos.publish(message);
            }
            chaos.inner().close();
        })
        .expect("spawn chaos pump thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AckKind, AckMsg, DispatchMsg};
    use crate::realtime::{spawn_master, spawn_worker, MasterConfig, NoopRunner, WorkerConfig};
    use dewe_dag::{EnsembleJobId, JobId, WorkflowBuilder, WorkflowId};

    fn dispatch(n: u32) -> DispatchMsg {
        DispatchMsg { job: EnsembleJobId::new(WorkflowId(0), JobId(n)), attempt: 1 }
    }

    #[test]
    fn delay_chaos_holds_dispatches_back_in_real_time() {
        let cfg =
            ChaosConfig { seed: 1, delay_prob: 1.0, delay_secs: 0.06, ..ChaosConfig::default() };
        let link = ChaosLink::new(cfg);
        let start = std::time::Instant::now();
        link.master_bus.dispatch.publish(dispatch(0));
        // Held: nothing surfaces on the worker side before the hold ends.
        assert!(link.worker_bus.dispatch.pull_timeout(Duration::from_millis(20)).is_none());
        let got = link.worker_bus.dispatch.pull_timeout(Duration::from_secs(5));
        assert_eq!(got, Some(dispatch(0)), "surfaced after the hold");
        assert!(start.elapsed() >= Duration::from_millis(50), "hold was real wall time");
        assert_eq!(link.dispatch_stats().delayed, 1);
        link.shutdown();
    }

    #[test]
    fn acks_flow_back_through_their_own_chaos_stream() {
        let link = ChaosLink::new(ChaosConfig::default());
        let ack = AckMsg {
            job: EnsembleJobId::new(WorkflowId(0), JobId(0)),
            worker: 3,
            kind: AckKind::Completed,
            attempt: 1,
        };
        link.worker_bus.ack.publish(ack);
        assert_eq!(link.master_bus.ack.pull_timeout(Duration::from_secs(5)), Some(ack));
        assert_eq!(link.ack_stats().published, 1);
        link.shutdown();
    }

    /// End-to-end: a real master and worker complete a diamond workflow
    /// while every message on both streams is delayed — the paper's
    /// pulling protocol is insensitive to fabric latency.
    #[test]
    fn master_and_worker_complete_under_delay_chaos() {
        let cfg =
            ChaosConfig { seed: 5, delay_prob: 1.0, delay_secs: 0.02, ..ChaosConfig::default() };
        let link = ChaosLink::new(cfg);
        // The registry is shared state (the "shared file system"), not bus
        // traffic: one instance serves both sides of the link.
        let registry = crate::realtime::Registry::new();
        let master = spawn_master(
            link.master_bus.clone(),
            registry.clone(),
            MasterConfig::builder()
                .timeout_scan_interval(Duration::from_millis(5))
                .expected_workflows(1)
                .build(),
        );
        let worker = spawn_worker(
            link.worker_bus.clone(),
            registry.clone(),
            Arc::new(NoopRunner),
            WorkerConfig {
                worker_id: 0,
                slots: 2,
                pull_timeout: Duration::from_millis(5),
                ..WorkerConfig::default()
            },
        );

        let mut b = WorkflowBuilder::new("diamond");
        let a = b.job("a", "t", 1.0).build();
        let l = b.job("l", "t", 1.0).build();
        let r = b.job("r", "t", 1.0).build();
        let d = b.job("d", "t", 1.0).build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, d);
        b.edge(r, d);
        crate::realtime::submit(&link.master_bus, "diamond", Arc::new(b.finish().unwrap()));

        let stats = master.join();
        assert_eq!(stats.jobs_completed, 4);
        assert_eq!(stats.workflows_completed, 1);
        assert!(link.dispatch_stats().delayed >= 4, "every dispatch was held");
        worker.stop();
        link.shutdown();
    }
}
