//! Cluster state: nodes, per-node counters, and the storage substrate.

use crate::cost::CostModel;
use crate::instance::InstanceType;
use crate::storage::{Storage, StorageConfig};
use crate::time::SimTime;

/// Index of a node within a cluster.
pub type NodeId = usize;

/// Per-node cumulative counters, the mpstat/iostat-equivalent data the
/// paper's monitoring process collects every 3 seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCounters {
    /// Integrated busy core-seconds (CPU utilization = Δ/(interval·vcpus)).
    pub cpu_busy_core_secs: f64,
    /// Cumulative disk bytes read (cache misses serviced by the device).
    pub bytes_read: f64,
    /// Cumulative logical bytes written.
    pub bytes_written: f64,
    /// Worker threads currently executing jobs.
    pub threads_running: u32,
    /// Cores currently busy computing.
    pub cores_busy: u32,
}

struct Node {
    counters: NodeCounters,
    /// Last time `cpu_busy_core_secs` was integrated up to.
    last_cpu_update: SimTime,
}

/// Configuration for [`Cluster::new`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Instance type for every node (the paper's clusters are homogeneous).
    pub instance: InstanceType,
    /// Node count.
    pub nodes: usize,
    /// Storage arrangement.
    pub storage: StorageConfig,
}

/// A cluster of cloud instances plus its storage substrate.
///
/// Clusters are homogeneous by default (the paper's setting: same instance
/// type, same placement group). [`Cluster::set_speed_factor`] introduces
/// controlled heterogeneity — per-node CPU speed multipliers — used by the
/// ablation that probes how the pulling model degrades when the paper's
/// homogeneity assumption is violated (as in grids).
pub struct Cluster {
    instance: InstanceType,
    nodes: Vec<Node>,
    storage: Storage,
    /// Per-node CPU speed multiplier (1.0 = nominal; 0.5 = half speed).
    speed: Vec<f64>,
}

impl Cluster {
    /// Build a cluster.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        let storage = Storage::new(config.storage, &config.instance, config.nodes);
        let nodes = (0..config.nodes)
            .map(|_| Node { counters: NodeCounters::default(), last_cpu_update: SimTime::ZERO })
            .collect();
        let speed = vec![1.0; config.nodes];
        Self { instance: config.instance, nodes, storage, speed }
    }

    /// Set a node's CPU speed multiplier (heterogeneity ablation).
    pub fn set_speed_factor(&mut self, node: NodeId, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        self.speed[node] = factor;
    }

    /// A node's CPU speed multiplier.
    pub fn speed_factor(&self, node: NodeId) -> f64 {
        self.speed[node]
    }

    /// vCPUs per node.
    pub fn vcpus(&self) -> u32 {
        self.instance.vcpus
    }

    /// Storage substrate.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable storage substrate.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Hourly cost model at this instance type's price.
    pub fn cost_model(&self) -> CostModel {
        CostModel::hourly(self.instance.price_per_hour)
    }

    fn integrate_cpu(&mut self, node: NodeId, now: SimTime) {
        let n = &mut self.nodes[node];
        let dt = now.secs_since(n.last_cpu_update);
        if dt > 0.0 {
            n.counters.cpu_busy_core_secs += dt * n.counters.cores_busy as f64;
            n.last_cpu_update = now;
        }
    }

    /// A job's compute phase starts on `node` using `cores` cores.
    pub fn start_compute(&mut self, node: NodeId, cores: u32, now: SimTime) {
        self.integrate_cpu(node, now);
        self.nodes[node].counters.cores_busy += cores;
        debug_assert!(
            self.nodes[node].counters.cores_busy <= self.instance.vcpus,
            "engine oversubscribed node {node}: {} cores busy",
            self.nodes[node].counters.cores_busy
        );
    }

    /// A job's compute phase ends.
    pub fn end_compute(&mut self, node: NodeId, cores: u32, now: SimTime) {
        self.integrate_cpu(node, now);
        let c = &mut self.nodes[node].counters;
        debug_assert!(c.cores_busy >= cores);
        c.cores_busy = c.cores_busy.saturating_sub(cores);
    }

    /// A worker thread started handling a job on `node`.
    pub fn thread_started(&mut self, node: NodeId) {
        self.nodes[node].counters.threads_running += 1;
    }

    /// A worker thread finished.
    pub fn thread_finished(&mut self, node: NodeId) {
        let c = &mut self.nodes[node].counters;
        debug_assert!(c.threads_running > 0);
        c.threads_running = c.threads_running.saturating_sub(1);
    }

    /// Attribute completed disk-read bytes to `node`.
    pub fn add_read_bytes(&mut self, node: NodeId, bytes: f64) {
        self.nodes[node].counters.bytes_read += bytes;
    }

    /// Attribute written bytes to `node`.
    pub fn add_write_bytes(&mut self, node: NodeId, bytes: f64) {
        self.nodes[node].counters.bytes_written += bytes;
    }

    /// Snapshot of a node's counters with CPU integrated up to `now`.
    pub fn counters(&mut self, node: NodeId, now: SimTime) -> NodeCounters {
        self.integrate_cpu(node, now);
        self.nodes[node].counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::C3_8XLARGE;
    use crate::storage::SharedFsKind;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes,
            storage: StorageConfig::Shared(SharedFsKind::Nfs),
        })
    }

    #[test]
    fn cpu_integration() {
        let mut c = cluster(1);
        c.start_compute(0, 8, t(0.0));
        c.start_compute(0, 8, t(0.0));
        // 16 cores busy for 2 s.
        c.end_compute(0, 8, t(2.0));
        // 8 cores busy for 3 more s.
        let counters = c.counters(0, t(5.0));
        assert!((counters.cpu_busy_core_secs - (32.0 + 24.0)).abs() < 1e-6);
        assert_eq!(counters.cores_busy, 8);
    }

    #[test]
    fn thread_accounting() {
        let mut c = cluster(2);
        c.thread_started(1);
        c.thread_started(1);
        c.thread_finished(1);
        assert_eq!(c.counters(1, t(0.0)).threads_running, 1);
        assert_eq!(c.counters(0, t(0.0)).threads_running, 0);
    }

    #[test]
    fn byte_attribution_is_per_node() {
        let mut c = cluster(2);
        c.add_read_bytes(0, 100.0);
        c.add_write_bytes(1, 200.0);
        assert_eq!(c.counters(0, t(0.0)).bytes_read, 100.0);
        assert_eq!(c.counters(0, t(0.0)).bytes_written, 0.0);
        assert_eq!(c.counters(1, t(0.0)).bytes_written, 200.0);
    }

    #[test]
    fn cost_model_uses_instance_price() {
        let c = cluster(40);
        assert!((c.cost_model().cost(40, 3000.0) - 67.2).abs() < 1e-9);
    }
}
