//! The profiling harness: small-scale runs that feed the index (§IV.A).

use std::sync::Arc;

use dewe_core::sim::{run_ensemble, SimRunConfig};
use dewe_dag::Workflow;
use dewe_simcloud::{ClusterConfig, InstanceType, SharedFsKind, StorageConfig};

use crate::index::IndexPoint;

/// Profiling campaign configuration.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Workloads for the single-node test: up to this many workflows on one
    /// node (the paper runs 1..=10).
    pub single_node_max_workflows: usize,
    /// Fixed workload for the multi-node test (the paper uses 20).
    pub multi_node_workflows: usize,
    /// Node counts for the multi-node test (the paper uses 2..=6).
    pub multi_node_range: (usize, usize),
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self { single_node_max_workflows: 10, multi_node_workflows: 20, multi_node_range: (2, 6) }
    }
}

/// Results of one profiling campaign on one instance type.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Instance type profiled.
    pub instance: &'static str,
    /// Single-node (workflows, makespan secs) measurements (Fig. 5a).
    pub single_node: Vec<(usize, f64)>,
    /// Multi-node measurements with the fixed workload (Fig. 5b/5c).
    pub multi_node: Vec<IndexPoint>,
    /// Converged node performance index (input to Eq. 2).
    pub converged_index: f64,
}

/// Runs profiling campaigns with the DEWE v2 simulated runtime.
pub struct Profiler {
    /// The workflow template replicated to form profiling workloads.
    pub template: Arc<Workflow>,
    /// Campaign shape.
    pub config: ProfileConfig,
}

impl Profiler {
    /// Profiler over a workflow template.
    pub fn new(template: Arc<Workflow>, config: ProfileConfig) -> Self {
        Self { template, config }
    }

    /// Profile one instance type: single-node scaling then multi-node
    /// scaling, returning measurements and the converged index.
    pub fn profile(&self, instance: &'static InstanceType) -> ProfileResult {
        let mut single_node = Vec::new();
        for w in 1..=self.config.single_node_max_workflows {
            let secs = self.run(instance, 1, w, StorageConfig::LocalDisk);
            single_node.push((w, secs));
        }
        let mut multi_node = Vec::new();
        let (lo, hi) = self.config.multi_node_range;
        for n in lo..=hi {
            let secs = self.run(
                instance,
                n,
                self.config.multi_node_workflows,
                // The paper profiles on NFS.
                StorageConfig::Shared(SharedFsKind::Nfs),
            );
            multi_node.push(IndexPoint::new(n, self.config.multi_node_workflows, secs));
        }
        let converged_index = crate::index::converged_index(&multi_node);
        ProfileResult { instance: instance.name, single_node, multi_node, converged_index }
    }

    fn run(
        &self,
        instance: &'static InstanceType,
        nodes: usize,
        workflows: usize,
        storage: StorageConfig,
    ) -> f64 {
        let wfs: Vec<Arc<Workflow>> = (0..workflows).map(|_| Arc::clone(&self.template)).collect();
        let cfg = SimRunConfig::new(ClusterConfig { instance: *instance, nodes, storage });
        let report = run_ensemble(&wfs, &cfg);
        assert!(report.completed, "profiling run starved");
        report.makespan_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;
    use dewe_simcloud::C3_8XLARGE;

    /// A small CPU-bound workflow so profiling runs are fast.
    fn tiny_template() -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("tiny");
        for i in 0..64 {
            b.job(format!("j{i}"), "t", 2.0).build();
        }
        Arc::new(b.finish().unwrap())
    }

    fn fast_config() -> ProfileConfig {
        ProfileConfig {
            single_node_max_workflows: 3,
            // 12 workflows x 64 jobs divide evenly into 64/96/128 slots so
            // wave quantization does not distort the toy index.
            multi_node_workflows: 12,
            multi_node_range: (2, 4),
        }
    }

    #[test]
    fn single_node_times_grow_linearly() {
        let p = Profiler::new(tiny_template(), fast_config());
        let r = p.profile(&C3_8XLARGE);
        assert_eq!(r.single_node.len(), 3);
        // 64 x 2 s per workflow on 32 slots -> ~4 s per workflow.
        let t1 = r.single_node[0].1;
        let t3 = r.single_node[2].1;
        assert!((t3 / t1 - 3.0).abs() < 0.3, "t1={t1} t3={t3}");
    }

    #[test]
    fn multi_node_index_decreases_or_flat() {
        let p = Profiler::new(tiny_template(), fast_config());
        let r = p.profile(&C3_8XLARGE);
        assert_eq!(r.multi_node.len(), 3);
        // CPU-bound toy workload: index should not *increase* with size.
        for w in r.multi_node.windows(2) {
            assert!(w[1].p <= w[0].p * 1.05, "{:?}", r.multi_node);
        }
        assert!(r.converged_index > 0.0);
        assert!(
            r.converged_index <= r.multi_node.iter().map(|p| p.p).fold(f64::MAX, f64::min) + 1e-12
        );
    }
}
