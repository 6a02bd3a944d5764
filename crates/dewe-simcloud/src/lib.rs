//! # dewe-simcloud
//!
//! A deterministic discrete-event simulator of public-cloud clusters,
//! calibrated to the Amazon EC2 instance types of the DEWE v2 paper
//! (Tables I and II). It is the substitute for the paper's physical
//! testbeds — up to 40 × c3.8xlarge (1,280 vCPUs) — and reproduces the
//! resource behaviours the paper's arguments rest on:
//!
//! * **CPU**: fixed-rate cores; jobs occupy `cores` of a node's vCPUs for
//!   `cpu_seconds / cores` wall seconds (engines enforce the paper's
//!   one-thread-per-vCPU concurrency cap, so cores are never oversubscribed).
//! * **Disk reads**: a fluid *processor-sharing* resource per storage
//!   backend — `n` concurrent read flows each progress at `capacity / n` —
//!   implemented with the virtual-time technique so each flow that starts
//!   or finishes costs `O(log n)`.
//! * **Disk writes**: a leaky-bucket *page cache* model. Logical writes
//!   complete at memory speed while the dirty-byte budget lasts and are
//!   throttled to the device's sequential-write rate beyond it. This is
//!   what makes Montage's stage 1 CPU-bound on every instance type despite
//!   heavy logical write traffic (paper Fig. 4 discussion).
//! * **Read cache**: an LRU byte-budget cache over recently written/read
//!   files. Stage-1 `mDiffFit` reads hit (their inputs were just written);
//!   stage-3 `mBackground` reads miss (stage 2 flushed residency), which is
//!   exactly the I/O signature of paper Fig. 4. File keys are
//!   `(namespace << 32) | index`, dense per namespace: [`ReadCache`] states
//!   the contract.
//! * **Shared file systems**: an NFS model (N-to-N cross mounts with a
//!   per-node efficiency penalty growing in cluster size) and a
//!   MooseFS-like distributed model (aggregate bandwidth with a smaller
//!   penalty), matching §V.B's move from NFS to MooseFS at scale.
//! * **Cost**: per-instance-hour billing with partial hours rounded up
//!   (the paper's motivation for the 55-minute deadline), plus a
//!   per-minute variant that `dewe-provision`'s dynamic-provisioning plan
//!   is priced under.
//!
//! The high-level entry point is [`ExecSim`]: engines submit *jobs*
//! (read set → compute → write set) to *nodes* and receive completion
//! events; everything else — fair sharing, caching, throttling, counters —
//! happens inside. A cluster's nodes and storage capacities are fixed for
//! a run: a node fault ([`ExecSim::kill_jobs_on`]) ends that node's jobs
//! and leaves the storage as it was. Both the DEWE v2 engine and the
//! Pegasus-like baseline drive the same `ExecSim`, so their comparison
//! isolates coordination policy, exactly as the paper intends.
//!
//! ```
//! use dewe_simcloud::{ClusterConfig, ExecSim, JobProfile, SimEvent,
//!     StorageConfig, C3_8XLARGE};
//!
//! let mut sim = ExecSim::new(ClusterConfig {
//!     instance: C3_8XLARGE,
//!     nodes: 1,
//!     storage: StorageConfig::LocalDisk,
//! });
//! // A job that reads 250 MB cold (1 s at c3's 250 MB/s) then computes 2 s.
//! sim.submit_job(7, 0, &JobProfile {
//!     reads: vec![(1, 250e6)],
//!     cpu_seconds: 2.0,
//!     cores: 1,
//!     writes: vec![],
//! });
//! match sim.next() {
//!     Some(SimEvent::JobFinished { token, timings, .. }) => {
//!         assert_eq!(token, 7);
//!         assert!((timings.total_secs() - 3.0).abs() < 0.01);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```
#![forbid(unsafe_code)]

mod bucket;
mod cluster;
mod cost;
mod exec;
mod fairshare;
mod hash;
mod instance;
mod kernel;
mod readcache;
mod storage;
mod time;

pub use bucket::WriteBucket;
pub use cluster::{Cluster, ClusterConfig, NodeCounters, NodeId};
pub use cost::{BillingModel, CostModel};
pub use exec::{ExecSim, JobProfile, JobTimings, SimEvent};
pub use fairshare::{FairShare, FlowId};
pub use hash::TokenMap;
pub use instance::{DiskProfile, InstanceType, C3_8XLARGE, I2_8XLARGE, M3_2XLARGE, R3_8XLARGE};
pub use kernel::{EventId, EventQueue};
pub use readcache::ReadCache;
pub use storage::{SharedFsKind, Storage, StorageConfig};
pub use time::SimTime;
