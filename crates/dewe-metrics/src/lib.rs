//! # dewe-metrics
//!
//! Monitoring and reporting for DEWE v2 experiments.
//!
//! The paper runs "a background monitoring process on all worker nodes to
//! collect operating system level metrics every 3 seconds using mpstat and
//! iostat" (§IV.A): concurrent threads, CPU utilization, and disk
//! read/write throughput. [`ClusterSampler`] is that process for the
//! simulated cluster: feed it per-node cumulative counters at a fixed
//! cadence and it produces the per-node rate [`TimeSeries`] behind the
//! paper's Figs. 4, 6, 9 and 10.
//!
//! [`Gantt`] renders the per-vCPU-slot timeline of Fig. 2 from a run's
//! [`Trace`], and [`csv`] serializes any set of series for plotting.
//!
//! ```
//! use dewe_metrics::{ClusterSampler, Summary};
//! use dewe_simcloud::NodeCounters;
//!
//! let mut sampler = ClusterSampler::new(1, 32);
//! sampler.sample(3.0, &[NodeCounters {
//!     cpu_busy_core_secs: 48.0, // 48 core-s over 3 s on 32 cores = 50%
//!     bytes_read: 30e6,
//!     bytes_written: 0.0,
//!     threads_running: 5,
//!     cores_busy: 16,
//! }]);
//! assert_eq!(sampler.mean_cpu_util().points[0].1, 50.0);
//!
//! let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
//! assert_eq!(s.p50, 2.0);
//! ```
#![forbid(unsafe_code)]

mod gantt;
mod sampler;
mod series;
mod summary;
mod trace;

pub mod csv;

pub use gantt::Gantt;
pub use sampler::{ClusterSampler, NodeSeries, SAMPLE_INTERVAL_SECS};
pub use series::TimeSeries;
pub use summary::Summary;
pub use trace::{JobTrace, Trace};
