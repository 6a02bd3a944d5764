//! Realtime observability: periodic sampling of the message bus.
//!
//! The paper's monitoring runs mpstat/iostat on every node; the threaded
//! runtime's equivalent observable state is the broker itself — dispatch
//! backlog, acknowledgment flow, submission arrivals. [`spawn_observer`]
//! samples those counters on a fixed cadence into [`TimeSeries`], giving
//! realtime runs the same queue-depth visibility the simulator reports
//! (e.g. to eyeball when a deployment is worker-starved versus
//! master-bound).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe_metrics::TimeSeries;
use parking_lot::Mutex;

use super::bus::MessageBus;

/// Sampled series, shared with the observer thread.
#[derive(Debug, Default)]
pub struct BusSeries {
    /// Dispatch-topic depth (jobs published, not yet pulled).
    pub dispatch_depth: TimeSeries,
    /// Cumulative jobs delivered to workers.
    pub dispatched_total: TimeSeries,
    /// Cumulative acknowledgments consumed by the master.
    pub acks_total: TimeSeries,
}

/// Handle to a running observer.
pub struct ObserverHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    series: Arc<Mutex<BusSeries>>,
}

impl ObserverHandle {
    /// Snapshot the series collected so far.
    pub fn snapshot(&self) -> BusSeries {
        let s = self.series.lock();
        BusSeries {
            dispatch_depth: s.dispatch_depth.clone(),
            dispatched_total: s.dispatched_total.clone(),
            acks_total: s.acks_total.clone(),
        }
    }

    /// Stop sampling and return the final series.
    pub fn stop(mut self) -> BusSeries {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let s = self.series.lock();
        BusSeries {
            dispatch_depth: s.dispatch_depth.clone(),
            dispatched_total: s.dispatched_total.clone(),
            acks_total: s.acks_total.clone(),
        }
    }
}

impl Drop for ObserverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start sampling the bus every `interval`.
pub fn spawn_observer(bus: MessageBus, interval: Duration) -> ObserverHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let series = Arc::new(Mutex::new(BusSeries {
        dispatch_depth: TimeSeries::new("dispatch_depth"),
        dispatched_total: TimeSeries::new("dispatched_total"),
        acks_total: TimeSeries::new("acks_total"),
    }));
    let thread = {
        let stop = Arc::clone(&stop);
        let series = Arc::clone(&series);
        std::thread::Builder::new()
            .name("dewe-observer".into())
            .spawn(move || {
                let start = Instant::now();
                let sample = || {
                    let t = start.elapsed().as_secs_f64();
                    let dispatch = bus.dispatch.stats();
                    let ack = bus.ack.stats();
                    let mut s = series.lock();
                    s.dispatch_depth.push(t, dispatch.depth as f64);
                    s.dispatched_total.push(t, dispatch.delivered as f64);
                    s.acks_total.push(t, ack.delivered as f64);
                };
                while !stop.load(Ordering::Relaxed) {
                    sample();
                    std::thread::sleep(interval);
                }
                // The series ends with the counters as they stand when
                // sampling is stopped, not as they stood up to `interval`
                // before that.
                sample();
            })
            .expect("spawn observer thread")
    };
    ObserverHandle { stop, thread: Some(thread), series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::{
        spawn_master, spawn_worker, submit, MasterConfig, NoopRunner, Registry, SleepRunner,
        WorkerConfig,
    };
    use dewe_dag::WorkflowBuilder;

    #[test]
    fn observer_samples_bus_counters() {
        let bus = MessageBus::new();
        let observer = spawn_observer(bus.clone(), Duration::from_millis(5));
        // Publish directly: depth should become visible.
        for i in 0..20 {
            bus.dispatch.publish(crate::protocol::DispatchMsg {
                job: dewe_dag::EnsembleJobId::new(dewe_dag::WorkflowId(0), dewe_dag::JobId(i)),
                attempt: 1,
            });
        }
        std::thread::sleep(Duration::from_millis(40));
        let series = observer.stop();
        assert!(!series.dispatch_depth.is_empty());
        assert!(series.dispatch_depth.max() >= 20.0);
    }

    #[test]
    fn observer_tracks_a_full_run() {
        let bus = MessageBus::new();
        let registry = Registry::new();
        let observer = spawn_observer(bus.clone(), Duration::from_millis(2));
        let master = spawn_master(
            bus.clone(),
            registry.clone(),
            MasterConfig::builder().expected_workflows(1).build(),
        );
        let worker = spawn_worker(
            bus.clone(),
            registry,
            Arc::new(SleepRunner::new(0.0002)),
            WorkerConfig { worker_id: 0, slots: 2, ..WorkerConfig::default() },
        );
        let mut b = WorkflowBuilder::new("obs");
        for i in 0..30 {
            b.job(format!("j{i}"), "t", 50.0).build(); // 10 ms each
        }
        submit(&bus, "obs", Arc::new(b.finish().unwrap()));
        let stats = master.join();
        worker.stop();
        let series = observer.stop();
        assert_eq!(stats.jobs_completed, 30);
        // The closing sample holds the exact totals: every Running ack
        // precedes its Completed on the FIFO ack topic, so the master has
        // pulled all 60 by the time the 30th completion settles it.
        assert_eq!(series.dispatched_total.max(), 30.0);
        assert_eq!(series.acks_total.max(), 60.0);
        // The backlog was visible at some point (2 slots, 30 jobs).
        assert!(series.dispatch_depth.max() >= 1.0);
    }

    #[test]
    fn drop_stops_the_thread() {
        let bus = MessageBus::new();
        let observer = spawn_observer(bus, Duration::from_millis(1));
        drop(observer); // must not hang or panic
        let _ = NoopRunner; // silence unused import on some cfgs
    }
}
