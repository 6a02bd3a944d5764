//! The mpstat/iostat-equivalent sampler.

use crate::series::TimeSeries;
use dewe_simcloud::NodeCounters;

/// The paper's monitoring cadence: metrics every 3 seconds (§IV.A).
pub const SAMPLE_INTERVAL_SECS: f64 = 3.0;

/// Per-node rate series produced by the sampler.
#[derive(Debug, Clone)]
pub struct NodeSeries {
    /// CPU utilization in percent of the node's vCPUs.
    pub cpu_util: TimeSeries,
    /// Disk read throughput, MB/s.
    pub read_mbps: TimeSeries,
    /// Disk write throughput, MB/s.
    pub write_mbps: TimeSeries,
    /// Concurrent job threads.
    pub threads: TimeSeries,
}

impl NodeSeries {
    fn new(node: usize) -> Self {
        Self {
            cpu_util: TimeSeries::new(format!("node{node}_cpu_util_pct")),
            read_mbps: TimeSeries::new(format!("node{node}_read_mbps")),
            write_mbps: TimeSeries::new(format!("node{node}_write_mbps")),
            threads: TimeSeries::new(format!("node{node}_threads")),
        }
    }
}

/// Converts cumulative [`NodeCounters`] snapshots into per-interval rates.
///
/// Call [`sample`](Self::sample) at a fixed cadence with the counters of
/// every node; rate = Δcounter / Δt, mirroring how mpstat/iostat derive
/// rates from kernel counters.
pub struct ClusterSampler {
    vcpus: u32,
    last_time: f64,
    last: Vec<NodeCounters>,
    series: Vec<NodeSeries>,
}

impl ClusterSampler {
    /// Sampler for `nodes` nodes of `vcpus` vCPUs each.
    pub fn new(nodes: usize, vcpus: u32) -> Self {
        Self {
            vcpus,
            last_time: 0.0,
            last: vec![NodeCounters::default(); nodes],
            series: (0..nodes).map(NodeSeries::new).collect(),
        }
    }

    /// Record a snapshot at time `now` (seconds). `counters[i]` must be the
    /// cumulative counters of node `i`.
    pub fn sample(&mut self, now: f64, counters: &[NodeCounters]) {
        assert_eq!(counters.len(), self.series.len(), "node count changed mid-run");
        let dt = now - self.last_time;
        if dt <= 0.0 {
            return;
        }
        for (i, (&cur, prev)) in counters.iter().zip(&mut self.last).enumerate() {
            let s = &mut self.series[i];
            let cpu_pct = 100.0 * (cur.cpu_busy_core_secs - prev.cpu_busy_core_secs)
                / (dt * self.vcpus as f64);
            s.cpu_util.push(now, cpu_pct.clamp(0.0, 100.0));
            s.read_mbps.push(now, (cur.bytes_read - prev.bytes_read) / dt / 1e6);
            s.write_mbps.push(now, (cur.bytes_written - prev.bytes_written) / dt / 1e6);
            s.threads.push(now, cur.threads_running as f64);
            *prev = cur;
        }
        self.last_time = now;
    }

    /// Per-node series recorded so far.
    pub fn node_series(&self) -> &[NodeSeries] {
        &self.series
    }

    /// Cluster-mean CPU utilization series (average across nodes per tick).
    pub fn mean_cpu_util(&self) -> TimeSeries {
        self.mean_of(|n| &n.cpu_util, "cluster_cpu_util_pct")
    }

    /// Cluster-total read throughput series.
    pub fn total_read_mbps(&self) -> TimeSeries {
        self.sum_of(|n| &n.read_mbps, "cluster_read_mbps")
    }

    /// Cluster-total write throughput series.
    pub fn total_write_mbps(&self) -> TimeSeries {
        self.sum_of(|n| &n.write_mbps, "cluster_write_mbps")
    }

    /// Cluster-total concurrent threads series.
    pub fn total_threads(&self) -> TimeSeries {
        self.sum_of(|n| &n.threads, "cluster_threads")
    }

    fn mean_of(&self, f: impl Fn(&NodeSeries) -> &TimeSeries, name: &str) -> TimeSeries {
        let mut out = self.sum_of(f, name);
        let n = self.series.len().max(1) as f64;
        for p in &mut out.points {
            p.1 /= n;
        }
        out
    }

    fn sum_of(&self, f: impl Fn(&NodeSeries) -> &TimeSeries, name: &str) -> TimeSeries {
        let mut out = TimeSeries::new(name);
        if self.series.is_empty() {
            return out;
        }
        let len = f(&self.series[0]).len();
        for k in 0..len {
            let t = f(&self.series[0]).points[k].0;
            let v: f64 = self.series.iter().map(|s| f(s).points[k].1).sum();
            out.push(t, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(cpu: f64, rd: f64, wr: f64, thr: u32) -> NodeCounters {
        NodeCounters {
            cpu_busy_core_secs: cpu,
            bytes_read: rd,
            bytes_written: wr,
            threads_running: thr,
            cores_busy: 0,
        }
    }

    #[test]
    fn rates_are_deltas_over_dt() {
        let mut s = ClusterSampler::new(1, 32);
        s.sample(3.0, &[counters(48.0, 30e6, 60e6, 5)]);
        let n = &s.node_series()[0];
        // 48 core-seconds over 3 s on 32 cores = 50%.
        assert!((n.cpu_util.points[0].1 - 50.0).abs() < 1e-9);
        assert!((n.read_mbps.points[0].1 - 10.0).abs() < 1e-9);
        assert!((n.write_mbps.points[0].1 - 20.0).abs() < 1e-9);
        assert_eq!(n.threads.points[0].1, 5.0);
    }

    #[test]
    fn second_sample_uses_previous_snapshot() {
        let mut s = ClusterSampler::new(1, 32);
        s.sample(3.0, &[counters(48.0, 0.0, 0.0, 0)]);
        s.sample(6.0, &[counters(48.0, 0.0, 0.0, 0)]); // no progress
        assert_eq!(s.node_series()[0].cpu_util.points[1].1, 0.0);
    }

    #[test]
    fn cpu_clamped_to_100() {
        let mut s = ClusterSampler::new(1, 32);
        s.sample(1.0, &[counters(100.0, 0.0, 0.0, 0)]);
        assert_eq!(s.node_series()[0].cpu_util.points[0].1, 100.0);
    }

    #[test]
    fn aggregates_sum_and_mean() {
        let mut s = ClusterSampler::new(2, 32);
        s.sample(3.0, &[counters(96.0, 30e6, 0.0, 2), counters(0.0, 30e6, 0.0, 3)]);
        assert!((s.mean_cpu_util().points[0].1 - 50.0).abs() < 1e-9);
        assert!((s.total_read_mbps().points[0].1 - 20.0).abs() < 1e-9);
        assert_eq!(s.total_threads().points[0].1, 5.0);
    }

    #[test]
    fn zero_dt_sample_is_ignored() {
        let mut s = ClusterSampler::new(1, 32);
        s.sample(3.0, &[counters(48.0, 0.0, 0.0, 0)]);
        s.sample(3.0, &[counters(96.0, 0.0, 0.0, 0)]);
        assert_eq!(s.node_series()[0].cpu_util.len(), 1);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn node_count_mismatch_panics() {
        let mut s = ClusterSampler::new(2, 32);
        s.sample(3.0, &[counters(0.0, 0.0, 0.0, 0)]);
    }
}
