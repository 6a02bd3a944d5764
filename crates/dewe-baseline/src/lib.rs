//! # dewe-baseline
//!
//! A *scheduling-based* workflow management system modeled on the paper's
//! comparison stack — Pegasus (planning) + DAGMan (job release) + Condor
//! (matchmaking and execution). Within the paper's scope "Pegasus" means
//! this whole stack (§V.A), and that is what this crate reproduces.
//!
//! Where DEWE v2's stateless workers *pull* jobs, the baseline's master
//! *pushes*: it tracks every worker's state and assigns each eligible job
//! to a specific node during periodic **negotiation cycles** (Condor's
//! matchmaking). The costs the paper attributes to this design are modeled
//! explicitly and are individually tunable for ablation:
//!
//! * **per-job scheduling/submission overhead** — DAGMan submits each job
//!   through `condor_submit`, and each execution is wrapped (kickstart),
//!   adding CPU-seconds per job. The paper's Fig. 6a shows at most 20
//!   concurrent threads and Fig. 6b at most 80% CPU on a 32-vCPU node;
//! * **negotiation-cycle latency** — eligible jobs wait for the next
//!   matchmaking round instead of being grabbed by idle workers;
//! * **bounded concurrency** — at most `slots_per_node` Condor slots;
//! * **I/O amplification** — staging, kickstart records and per-job logs
//!   multiply the write volume (Fig. 6c / 7c show Pegasus writing far more
//!   than DEWE v2).
//!
//! Jobs execute on exactly the same [`dewe_simcloud::ExecSim`] substrate
//! as DEWE v2's simulated runtime, so any makespan difference is due to
//! coordination policy and its modeled overheads — the comparison the
//! paper makes.
//!
//! ```
//! use dewe_baseline::{run_ensemble, BaselineConfig};
//! use dewe_simcloud::{ClusterConfig, StorageConfig, C3_8XLARGE};
//! use dewe_dag::WorkflowBuilder;
//! use std::sync::Arc;
//!
//! let mut b = WorkflowBuilder::new("w");
//! for i in 0..40 {
//!     b.job(format!("j{i}"), "t", 1.0).build();
//! }
//! let cluster = ClusterConfig {
//!     instance: C3_8XLARGE, nodes: 1, storage: StorageConfig::LocalDisk,
//! };
//! let report = run_ensemble(&[Arc::new(b.finish().unwrap())],
//!     &BaselineConfig::new(cluster));
//! assert!(report.completed);
//! assert_eq!(report.jobs_executed, 40);
//! ```
#![forbid(unsafe_code)]

mod scheduler;
mod sim;

pub use scheduler::Policy;
pub use sim::{run_ensemble, BaselineConfig, BaselineEvent, BaselineReport};
