//! Storage backends: local RAID-0 disks, NFS, and a MooseFS-like
//! distributed file system.
//!
//! The paper uses three storage arrangements:
//!
//! * **Local instance-store RAID-0** for single-node runs (Figs. 4–9).
//! * **N-to-N NFS cross mounts** for small multi-node clusters (Fig. 5):
//!   every node exports its disk and mounts everyone else's; aggregate
//!   bandwidth grows with N but configuration imbalance erodes efficiency
//!   ("as the size of the cluster grows ... resulting in unbalanced
//!   utilization", §V.B).
//! * **MooseFS** (all nodes as trunk servers, single copy per file) for
//!   the large-scale runs (Figs. 10–11), with better but still sub-linear
//!   aggregate scaling.
//!
//! A backend bundles a read [`FairShare`], a write [`WriteBucket`] and a
//! [`ReadCache`]. Local storage has one backend per node; shared storage a
//! single cluster-wide backend whose capacities aggregate the member nodes'
//! disks (bounded per node by the 10 Gbps NIC) scaled by an efficiency
//! factor that decreases with cluster size.

use crate::bucket::WriteBucket;
use crate::fairshare::{FairShare, FlowId};
use crate::instance::InstanceType;
use crate::readcache::ReadCache;
use crate::time::SimTime;

/// In-memory service rate for cache hits and absorbed writes, bytes/sec.
const MEM_RATE: f64 = 3e9;

/// Which shared file system to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedFsKind {
    /// N-to-N NFS cross mounts (small clusters; paper Fig. 5).
    Nfs,
    /// MooseFS-like distributed FS, one copy per file (paper Figs. 10–11).
    DistFs,
}

impl SharedFsKind {
    /// Aggregate-bandwidth efficiency for an `n`-node cluster.
    ///
    /// NFS: substantial per-node coordination overhead (κ = 0.10), which is
    /// what flattens Fig. 5b and drives the node-performance-index decay of
    /// Fig. 5c. MooseFS: much smaller penalty on a 0.9 base (κ = 0.015),
    /// matching the near-even utilization of Fig. 10.
    pub fn efficiency(self, n: usize) -> f64 {
        let n = n.max(1) as f64;
        match self {
            SharedFsKind::Nfs => 1.0 / (1.0 + 0.10 * (n - 1.0)),
            SharedFsKind::DistFs => 0.9 / (1.0 + 0.015 * (n - 1.0)),
        }
    }
}

/// Storage arrangement for a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageConfig {
    /// Independent local RAID-0 per node (no cross-node file visibility —
    /// only meaningful for single-node clusters or per-node scratch).
    LocalDisk,
    /// One shared POSIX namespace across all nodes.
    Shared(SharedFsKind),
}

struct Backend {
    read: FairShare,
    write: WriteBucket,
    cache: ReadCache,
}

/// Runtime storage state for a cluster.
pub struct Storage {
    backends: Vec<Backend>,
    /// node index -> backend index.
    node_backend: Vec<usize>,
}

impl Storage {
    /// Build storage for `nodes` nodes of type `itype`.
    pub fn new(config: StorageConfig, itype: &InstanceType, nodes: usize) -> Self {
        assert!(nodes > 0);
        let mut backends = Vec::new();
        let mut node_backend = Vec::with_capacity(nodes);
        match config {
            StorageConfig::LocalDisk => {
                for i in 0..nodes {
                    backends.push(Self::local_backend(itype));
                    node_backend.push(i);
                }
            }
            StorageConfig::Shared(kind) => {
                backends.push(Self::shared_backend(kind, itype, nodes));
                node_backend = vec![0; nodes];
            }
        }
        Self { backends, node_backend }
    }

    fn local_backend(itype: &InstanceType) -> Backend {
        Backend {
            read: FairShare::new(itype.disk.read_bytes_per_sec()),
            write: WriteBucket::new(
                itype.disk.write_bytes_per_sec(),
                itype.dirty_limit_bytes(),
                MEM_RATE,
            ),
            cache: ReadCache::new(itype.read_cache_bytes()),
        }
    }

    fn shared_backend(kind: SharedFsKind, itype: &InstanceType, nodes: usize) -> Backend {
        let eff = kind.efficiency(nodes);
        let nic = itype.network_bytes_per_sec();
        let per_node_read = itype.disk.read_bytes_per_sec().min(nic);
        let per_node_write = itype.disk.write_bytes_per_sec().min(nic);
        let n = nodes as f64;
        Backend {
            read: FairShare::new(per_node_read * n * eff),
            write: WriteBucket::new(
                per_node_write * n * eff,
                itype.dirty_limit_bytes() * n,
                MEM_RATE * n,
            ),
            cache: ReadCache::new(itype.read_cache_bytes() * n),
        }
    }

    /// Number of backends (1 for shared, N for local).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Backend serving a node.
    pub fn backend_of(&self, node: usize) -> usize {
        self.node_backend[node]
    }

    /// Cache lookup for a read of `key`/`bytes` issued from `node`.
    /// Returns `true` on a hit (serviced at memory speed, no disk traffic).
    pub fn cache_lookup(&mut self, node: usize, key: u64, bytes: f64) -> bool {
        self.backends[self.node_backend[node]].cache.lookup(key, bytes)
    }

    /// Mark `key` resident (just written or just read from disk).
    pub fn cache_insert(&mut self, node: usize, key: u64, bytes: f64) {
        self.backends[self.node_backend[node]].cache.insert(key, bytes);
    }

    /// Classify a job's input files against `node`'s cache in one pass:
    /// hits are counted (and refreshed), misses appended to `missed`.
    /// Returns `(hit_bytes, miss_bytes)`. Resolves the node's backend once
    /// for the whole set instead of once per file.
    pub fn classify_reads(
        &mut self,
        node: usize,
        reads: &[(u64, f64)],
        missed: &mut Vec<(u64, f64)>,
    ) -> (f64, f64) {
        let cache = &mut self.backends[self.node_backend[node]].cache;
        let (mut hit, mut miss) = (0.0, 0.0);
        for &(key, bytes) in reads {
            if cache.lookup(key, bytes) {
                hit += bytes;
            } else {
                miss += bytes;
                missed.push((key, bytes));
            }
        }
        (hit, miss)
    }

    /// Mark a batch of `(key, bytes)` files resident on `node`'s backend
    /// (one backend resolution for the whole set).
    pub fn cache_insert_batch(&mut self, node: usize, files: &[(u64, f64)]) {
        let cache = &mut self.backends[self.node_backend[node]].cache;
        for &(key, bytes) in files {
            cache.insert(key, bytes);
        }
    }

    /// In-memory service time for `bytes` of cache-hit reads.
    pub fn hit_secs(bytes: f64) -> f64 {
        bytes / MEM_RATE
    }

    /// Start a disk read of `bytes` (a cache miss) from `node`.
    pub fn begin_read(&mut self, node: usize, now: SimTime, bytes: f64, tag: u64) -> FlowId {
        self.backends[self.node_backend[node]].read.start(now, bytes.max(0.0), tag)
    }

    /// Abort an in-flight read (worker failure).
    pub fn cancel_read(&mut self, backend: usize, now: SimTime, flow: FlowId) -> Option<u64> {
        self.backends[backend].read.cancel(now, flow)
    }

    /// Next read completion on a backend.
    pub fn next_read_completion(&mut self, backend: usize, now: SimTime) -> Option<SimTime> {
        self.backends[backend].read.next_completion(now)
    }

    /// Harvest completed reads on a backend, appending their tags to a
    /// reusable caller-owned buffer.
    pub fn pop_read_completed_into(&mut self, backend: usize, now: SimTime, tags: &mut Vec<u64>) {
        self.backends[backend].read.pop_completed_into(now, tags);
    }

    /// Submit a job's output files (`(key, bytes)` pairs) from `node` as
    /// one batched bucket update; returns the completion time of the
    /// whole batch. Cheaper and more faithful than per-file submission:
    /// the job's total output is charged against the dirty budget in a
    /// single indexed update.
    pub fn submit_write_batch(
        &mut self,
        node: usize,
        now: SimTime,
        files: &[(u64, f64)],
    ) -> SimTime {
        self.backends[self.node_backend[node]]
            .write
            .submit_batch(now, files.iter().map(|&(_, b)| b))
    }

    /// Read-cache hit rate across backends, by lookup count (the
    /// byte-weighted rate is [`ReadCache::hit_rate`], per cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let (mut h, mut m) = (0u64, 0u64);
        for b in &self.backends {
            let (bh, bm) = b.cache.counters();
            h += bh;
            m += bm;
        }
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{C3_8XLARGE, I2_8XLARGE};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn local_storage_has_one_backend_per_node() {
        let s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 4);
        assert_eq!(s.backend_count(), 4);
        assert_eq!(s.backend_of(0), 0);
        assert_eq!(s.backend_of(3), 3);
    }

    #[test]
    fn shared_storage_has_single_backend() {
        let s = Storage::new(StorageConfig::Shared(SharedFsKind::Nfs), &C3_8XLARGE, 4);
        assert_eq!(s.backend_count(), 1);
        assert_eq!(s.backend_of(0), 0);
        assert_eq!(s.backend_of(3), 0);
    }

    #[test]
    fn nfs_efficiency_decreases_with_size() {
        let e2 = SharedFsKind::Nfs.efficiency(2);
        let e6 = SharedFsKind::Nfs.efficiency(6);
        assert!(e2 > e6);
        assert!((SharedFsKind::Nfs.efficiency(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distfs_outperforms_nfs_at_scale() {
        assert!(SharedFsKind::DistFs.efficiency(25) > SharedFsKind::Nfs.efficiency(25));
    }

    #[test]
    fn shared_read_capacity_is_nic_bounded() {
        // i2 disk reads (2200 MB/s) exceed the 10 Gbps NIC (1250 MB/s); a
        // shared FS cannot ship data faster than the wire.
        let s = Storage::new(StorageConfig::Shared(SharedFsKind::DistFs), &I2_8XLARGE, 2);
        let per_node_capped = I2_8XLARGE.network_bytes_per_sec();
        let expected = per_node_capped * 2.0 * SharedFsKind::DistFs.efficiency(2);
        let mut s = s;
        s.begin_read(0, t(0.0), expected, 1); // full capacity -> 1 second
        let at = s.next_read_completion(0, t(0.0)).unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn cache_flow_hit_then_miss() {
        let mut s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 1);
        assert!(!s.cache_lookup(0, 7, 1e6), "cold read misses");
        s.cache_insert(0, 7, 1e6);
        assert!(s.cache_lookup(0, 7, 1e6), "after insert it hits");
    }

    #[test]
    fn local_caches_are_per_node() {
        let mut s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 2);
        s.cache_insert(0, 7, 1e6);
        assert!(s.cache_lookup(0, 7, 1e6));
        assert!(!s.cache_lookup(1, 7, 1e6), "node 1 has its own cache");
    }

    #[test]
    fn shared_cache_is_cluster_wide() {
        let mut s = Storage::new(StorageConfig::Shared(SharedFsKind::DistFs), &C3_8XLARGE, 3);
        s.cache_insert(0, 7, 1e6);
        assert!(s.cache_lookup(2, 7, 1e6), "written on node 0, hit from node 2");
    }

    #[test]
    fn a_read_completes_with_its_tag() {
        let mut s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 1);
        s.begin_read(0, t(0.0), 250e6, 42); // exactly 1 second at 250 MB/s
        let at = s.next_read_completion(0, t(0.0)).unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 1e-3);
        let mut tags = Vec::new();
        s.pop_read_completed_into(0, at, &mut tags);
        assert_eq!(tags, vec![42]);
    }

    #[test]
    fn a_write_takes_time() {
        let mut s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 1);
        let done = s.submit_write_batch(0, t(0.0), &[(1, 1e9)]);
        assert!(done > t(0.0));
    }

    #[test]
    fn hit_rate_aggregates() {
        let mut s = Storage::new(StorageConfig::LocalDisk, &C3_8XLARGE, 1);
        s.cache_insert(0, 1, 10.0);
        s.cache_lookup(0, 1, 10.0);
        s.cache_lookup(0, 2, 10.0);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-9);
    }
}
