//! # dewe-provision
//!
//! The paper's profiling-based resource provisioning strategy (§IV):
//!
//! 1. **Profile** — run small-scale experiments (single node with a
//!    growing workload; a fixed workload on a growing cluster) and measure
//!    execution times.
//! 2. **Node performance index** — `P = W / (N · T)` (workflows per
//!    node-second, Eq. 1). As clusters grow, `P` decreases and converges
//!    (clustering performance degradation, Fig. 5c).
//! 3. **Size the cluster** — for an ensemble of `W` workflows and a
//!    deadline `T`, rent `N = W / (P · T)` nodes (Eq. 2), using the
//!    *converged* index. Combined with hourly billing, this yields the
//!    cheapest cluster that meets the deadline (Table III, Fig. 11).
//!
//! The profiler runs the DEWE v2 simulated runtime, mirroring how the
//! authors profiled on real (small) EC2 clusters before renting 1,000-core
//! ones.
//!
//! ```
//! use dewe_provision::{node_performance_index, required_nodes};
//!
//! // A 4-node cluster ran 20 workflows in 2,500 s:
//! let p = node_performance_index(20, 4, 2500.0); // Eq. 1
//! assert!((p - 0.002).abs() < 1e-9);
//! // Nodes needed for 200 workflows inside a 55-minute deadline (Eq. 2):
//! assert_eq!(required_nodes(200, 0.0015, 3300.0), 41);
//! ```
#![forbid(unsafe_code)]

mod dynamic;
mod index;
mod profile;
mod sizing;
mod whatif;

pub use dynamic::{compare_billing, DynamicPlan, ScaleAction};
pub use index::{converged_index, node_performance_index, IndexPoint};
pub use profile::{ProfileConfig, ProfileResult, Profiler};
pub use sizing::{recommend, required_nodes, ClusterPlan};
pub use whatif::{cost_deadline_frontier, FrontierPoint};
