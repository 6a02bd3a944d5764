//! Dynamic resource provisioning on the simulated cluster — the extension
//! the paper sketches in §V.A.3.
//!
//! > "DEWE v2's capability of resuming workflow execution after
//! > interruption of the worker daemon opens the door for dynamic resource
//! > provisioning. ... When there are a large number of non-blocking jobs
//! > in the queue, more worker nodes can be added to the cluster to speed
//! > up the execution. When there are a limited number of blocking jobs in
//! > the queue, some worker nodes can be removed from the cluster."
//!
//! Because workers are stateless pullers, scaling is trivial: a scaled-out
//! node just starts pulling; a scaled-in node just stops (running jobs
//! drain; queued work is untouched because the queue lives at the master).
//! The autoscaler here is a reactive queue-depth policy evaluated on a
//! fixed cadence, and the report prices the resulting rental spans under
//! both 2015-AWS hourly billing and GCE-style per-minute billing —
//! quantifying the paper's remark that dynamic provisioning "might not be
//! effective" under charge-by-hour but "can be useful" under
//! charge-by-minute.

use std::sync::Arc;

use dewe_dag::Workflow;
use dewe_simcloud::{BillingModel, CostModel};

use crate::engine::EngineStats;

use super::{Driver, Extra};

/// Reactive scaling policy.
#[derive(Debug, Clone)]
pub struct AutoscalePolicy {
    /// Never scale below this many nodes.
    pub min_nodes: usize,
    /// Nodes active at ensemble start.
    pub initial_nodes: usize,
    /// Policy evaluation cadence, seconds.
    pub evaluate_interval_secs: f64,
    /// Scale out one node when queued jobs exceed `active slots x this`.
    pub scale_out_queue_factor: f64,
    /// Scale in one node when queued jobs fall below
    /// `active slots x this` (0 = only when the queue is empty).
    pub scale_in_queue_factor: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            min_nodes: 1,
            initial_nodes: 1,
            evaluate_interval_secs: 10.0,
            scale_out_queue_factor: 2.0,
            scale_in_queue_factor: 0.25,
        }
    }
}

/// Results of an autoscaled run.
pub struct AutoscaleReport {
    /// Ensemble makespan, seconds.
    pub makespan_secs: f64,
    /// All workflows completed.
    pub completed: bool,
    /// Engine statistics.
    pub engine: EngineStats,
    /// Per-node rental spans (start, end), seconds. A node rented twice
    /// contributes two spans.
    pub node_spans: Vec<(f64, f64)>,
    /// Peak simultaneously-active nodes.
    pub peak_nodes: usize,
    /// Node-seconds actually rented.
    pub node_seconds: f64,
    /// Cost under hourly billing (each span rounds up to whole hours).
    pub cost_hourly: f64,
    /// Cost under per-minute billing.
    pub cost_per_minute: f64,
    /// (time, active nodes) trace of scaling decisions.
    pub scaling_trace: Vec<(f64, usize)>,
}

/// Wake tag of the policy evaluation, beside the driver's own in `sim/mod.rs`.
const TAG_EVAL: u64 = 6 << 56;

/// Rental bookkeeping: who is rented since when, and the spans that ended.
struct Rentals {
    active: Vec<bool>,
    /// Rental start per node.
    open: Vec<Option<f64>>,
    /// Retired, still running jobs: the rental ends with the last of them.
    draining: Vec<bool>,
    spans: Vec<(f64, f64)>,
    scaling_trace: Vec<(f64, usize)>,
    peak: usize,
}

impl Rentals {
    fn close(&mut self, node: usize, now: f64) {
        if let Some(start) = self.open[node].take() {
            self.spans.push((start, now));
        }
    }

    /// One policy evaluation: rent one node, retire one, or neither.
    fn evaluate(&mut self, driver: &mut Driver, policy: &AutoscalePolicy) {
        let max_nodes = self.active.len();
        let at = driver.exec.now();
        let now = at.as_secs_f64();
        let active_count = self.active.iter().filter(|&&a| a).count();
        let active_slots = active_count as f64 * driver.state.pool.slots_per_node as f64;
        let qlen = driver.state.queue.len() as f64;
        if qlen > active_slots * policy.scale_out_queue_factor && active_count < max_nodes {
            // Scale out: wake the lowest inactive node. A previously-draining
            // node can be re-engaged.
            let node = (0..max_nodes).find(|&n| !self.active[n]).expect("capacity");
            self.active[node] = true;
            self.draining[node] = false;
            self.open[node].get_or_insert(now);
            // A re-engaged draining node still runs its old jobs; only the
            // free slots may pull.
            driver.state.pool.restart(node, driver.state.node_running[node]);
            driver.exec.cluster_mut().set_active(node, true, at);
            self.scaling_trace.push((now, active_count + 1));
            self.peak = self.peak.max(active_count + 1);
            driver.try_assign();
        } else if qlen < active_slots * policy.scale_in_queue_factor
            && active_count > policy.min_nodes
        {
            // Scale in: retire the highest active node. It stops pulling
            // immediately; running jobs drain.
            let node = (0..max_nodes).rev().find(|&n| self.active[n]).expect("min_nodes >= 1");
            self.active[node] = false;
            driver.state.pool.kill(node);
            driver.exec.cluster_mut().set_active(node, false, at);
            if driver.state.node_running[node] == 0 {
                self.close(node, now);
            } else {
                self.draining[node] = true;
            }
            self.scaling_trace.push((now, active_count - 1));
        }
    }
}

/// Run an ensemble with reactive autoscaling. `config.cluster.nodes` is
/// the fleet ceiling (max nodes the autoscaler may rent).
pub fn run_ensemble_autoscale(
    workflows: &[Arc<Workflow>],
    config: &super::SimRunConfig,
    policy: &AutoscalePolicy,
) -> AutoscaleReport {
    let max_nodes = config.cluster.nodes;
    assert!(policy.min_nodes >= 1 && policy.min_nodes <= max_nodes);
    assert!(policy.initial_nodes >= policy.min_nodes && policy.initial_nodes <= max_nodes);

    let mut driver = Driver::new(workflows, config);
    // Start with only the initial nodes pulling.
    for node in policy.initial_nodes..max_nodes {
        driver.state.pool.kill(node);
        let t = driver.exec.now();
        driver.exec.cluster_mut().set_active(node, false, t);
    }
    let rented = |n| n < policy.initial_nodes;
    let mut rent = Rentals {
        active: (0..max_nodes).map(rented).collect(),
        open: (0..max_nodes).map(|n| rented(n).then_some(0.0)).collect(),
        draining: vec![false; max_nodes],
        spans: Vec::new(),
        scaling_trace: vec![(0.0, policy.initial_nodes)],
        peak: policy.initial_nodes,
    };
    driver.exec.schedule_wake(policy.evaluate_interval_secs, TAG_EVAL);

    driver.run(|driver, extra| match extra {
        // A draining node whose last job finished ends its rental.
        Extra::JobFinished { node } => {
            if rent.draining[node] && driver.state.node_running[node] == 0 {
                rent.close(node, driver.exec.now().as_secs_f64());
                rent.draining[node] = false;
            }
        }
        Extra::Wake { token } => {
            assert_eq!(token, TAG_EVAL, "unknown wake tag");
            rent.evaluate(driver, policy);
            if driver.state.all_done_at.is_none() {
                driver.exec.schedule_wake(policy.evaluate_interval_secs, TAG_EVAL);
            }
        }
    });

    let makespan = driver.makespan_secs();
    // Close any open rentals at makespan.
    for node in 0..max_nodes {
        rent.close(node, makespan);
    }
    let node_seconds: f64 = rent.spans.iter().map(|&(s, e)| e - s).sum();
    let price = config.cluster.instance.price_per_hour;
    let hourly = CostModel { billing: BillingModel::PerHour, price_per_hour: price };
    let minute = CostModel { billing: BillingModel::PerMinute, price_per_hour: price };
    let cost_hourly: f64 = rent.spans.iter().map(|&(s, e)| hourly.cost(1, e - s)).sum();
    let cost_per_minute: f64 = rent.spans.iter().map(|&(s, e)| minute.cost(1, e - s)).sum();

    AutoscaleReport {
        makespan_secs: makespan,
        completed: driver.completed(),
        engine: driver.engine.stats(),
        node_spans: rent.spans,
        peak_nodes: rent.peak,
        node_seconds,
        cost_hourly,
        cost_per_minute,
        scaling_trace: rent.scaling_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimRunConfig, SubmissionPlan};
    use dewe_dag::WorkflowBuilder;
    use dewe_simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

    fn fleet(max_nodes: usize) -> SimRunConfig {
        let mut cfg = SimRunConfig::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes: max_nodes,
            storage: StorageConfig::Shared(SharedFsKind::DistFs),
        });
        cfg.per_job_overhead_secs = 0.0;
        cfg
    }

    fn wide_then_narrow() -> Arc<Workflow> {
        // A Montage-like silhouette: wide fan, serial waist, wide fan.
        let mut b = WorkflowBuilder::new("wn");
        let fan1: Vec<_> = (0..256).map(|i| b.job(format!("a{i}"), "t", 4.0).build()).collect();
        let waist = b.job("waist", "t", 120.0).build();
        for &j in &fan1 {
            b.edge(j, waist);
        }
        for i in 0..256 {
            let j = b.job(format!("b{i}"), "t", 4.0).build();
            b.edge(waist, j);
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn autoscaler_scales_out_under_load_and_in_at_the_waist() {
        let policy = AutoscalePolicy {
            min_nodes: 1,
            initial_nodes: 1,
            evaluate_interval_secs: 2.0,
            scale_out_queue_factor: 1.0,
            scale_in_queue_factor: 0.25,
        };
        let report = run_ensemble_autoscale(&[wide_then_narrow()], &fleet(4), &policy);
        assert!(report.completed);
        assert!(report.peak_nodes > 1, "load must trigger scale-out");
        // The waist (120 s, queue empty) must trigger scale-in: some point
        // in the trace returns to 1 node after the peak.
        let peak_at =
            report.scaling_trace.iter().position(|&(_, n)| n == report.peak_nodes).unwrap();
        assert!(
            report.scaling_trace[peak_at..].iter().any(|&(_, n)| n == 1),
            "waist should drain the fleet: {:?}",
            report.scaling_trace
        );
        assert_eq!(report.engine.jobs_completed, 513);
    }

    #[test]
    fn autoscaled_run_rents_fewer_node_seconds_than_static_fleet() {
        let policy = AutoscalePolicy {
            min_nodes: 1,
            initial_nodes: 1,
            evaluate_interval_secs: 2.0,
            scale_out_queue_factor: 1.0,
            scale_in_queue_factor: 0.25,
        };
        let auto = run_ensemble_autoscale(&[wide_then_narrow()], &fleet(4), &policy);
        let static_run = crate::sim::run_ensemble(&[wide_then_narrow()], &fleet(4));
        let static_node_secs = 4.0 * static_run.makespan_secs;
        assert!(
            auto.node_seconds < static_node_secs,
            "autoscaling should rent less: {} vs {}",
            auto.node_seconds,
            static_node_secs
        );
        // And it should not be catastrophically slower.
        assert!(auto.makespan_secs < static_run.makespan_secs * 3.0);
    }

    #[test]
    fn per_minute_billing_shows_the_savings() {
        let policy = AutoscalePolicy {
            min_nodes: 1,
            initial_nodes: 1,
            evaluate_interval_secs: 2.0,
            scale_out_queue_factor: 1.0,
            scale_in_queue_factor: 0.25,
        };
        let report = run_ensemble_autoscale(&[wide_then_narrow()], &fleet(4), &policy);
        // Per-minute cost tracks node-seconds; hourly rounds every span up.
        assert!(report.cost_per_minute <= report.cost_hourly + 1e-9);
        let ideal = report.node_seconds / 3600.0 * C3_8XLARGE.price_per_hour;
        assert!(report.cost_per_minute >= ideal - 1e-9);
        assert!(report.cost_per_minute <= ideal * 1.5 + 0.2, "minute billing near ideal");
    }

    #[test]
    fn autoscaled_wide_then_narrow_is_pinned() {
        // Captured at 8051b72, when this driver still ran its own copy of
        // the event loop; every time is a whole number of seconds, so the
        // comparisons are exact.
        let policy = AutoscalePolicy {
            min_nodes: 1,
            initial_nodes: 1,
            evaluate_interval_secs: 2.0,
            scale_out_queue_factor: 1.0,
            scale_in_queue_factor: 0.25,
        };
        let report = run_ensemble_autoscale(&[wide_then_narrow()], &fleet(4), &policy);
        assert_eq!(
            report.scaling_trace,
            [
                (0.0, 1),
                (2.0, 2),
                (4.0, 3),
                (10.0, 2),
                (12.0, 1),
                (134.0, 2),
                (136.0, 3),
                (142.0, 2),
                (144.0, 1)
            ]
        );
        assert_eq!(
            report.node_spans,
            [(4.0, 12.0), (2.0, 14.0), (136.0, 144.0), (134.0, 146.0), (0.0, 146.0)]
        );
        assert_eq!(report.makespan_secs.to_bits(), 0x4062_4000_0000_0000);
        assert_eq!(report.engine.dispatches, 513);
    }

    #[test]
    fn min_nodes_respected() {
        let policy = AutoscalePolicy {
            min_nodes: 2,
            initial_nodes: 2,
            evaluate_interval_secs: 1.0,
            scale_out_queue_factor: 1e9, // never scale out
            scale_in_queue_factor: 1e9,  // always try to scale in
        };
        let mut b = WorkflowBuilder::new("small");
        for i in 0..8 {
            b.job(format!("j{i}"), "t", 30.0).build();
        }
        let wf = Arc::new(b.finish().unwrap());
        let report = run_ensemble_autoscale(&[wf], &fleet(4), &policy);
        assert!(report.completed);
        assert!(report.scaling_trace.iter().all(|&(_, n)| n >= 2));
    }

    #[test]
    fn incremental_submission_composes_with_autoscaling() {
        let mut cfg = fleet(3);
        cfg.submission = SubmissionPlan::Interval(20.0);
        let wfs: Vec<_> = (0..3).map(|_| wide_then_narrow()).collect();
        let report = run_ensemble_autoscale(&wfs, &cfg, &AutoscalePolicy::default());
        assert!(report.completed);
        assert_eq!(report.engine.workflows_completed, 3);
    }
}
