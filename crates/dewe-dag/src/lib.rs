//! # dewe-dag
//!
//! Workflow DAG data model for the DEWE v2 workflow ensemble execution
//! system (reproduction of *Executing Large Scale Scientific Workflow
//! Ensembles in Public Clouds*, ICPP 2015).
//!
//! A [`Workflow`] is a directed acyclic graph whose vertices are jobs and
//! whose edges are precedence constraints, primarily induced by data
//! dependencies on files. It is held as a few flat arrays — one name arena,
//! one row per job and per file, one I/O list, CSR adjacency — and shows a
//! job or a file as a `Copy` view ([`JobView`], [`FileView`]). An ensemble is a set of
//! interrelated but independent workflows executed as one scientific
//! analysis — the unit of work the paper is about; an [`EnsembleJobId`]
//! names one job in it.
//!
//! The crate is deliberately free of any execution concern: engines
//! (`dewe-core`, `dewe-baseline`) consume the model through the
//! [`DependencyTracker`], a pure state machine that answers the only
//! question the DEWE v2 master daemon ever asks: *which jobs are eligible
//! to run now?*
//!
//! ## Quick example
//!
//! ```
//! use dewe_dag::{WorkflowBuilder, JobState};
//!
//! let mut b = WorkflowBuilder::new("diamond");
//! let raw = b.file("raw.dat", 1 << 20, true);
//! let l = b.file("left.dat", 1 << 10, false);
//! let r = b.file("right.dat", 1 << 10, false);
//! let out = b.file("out.dat", 1 << 10, false);
//!
//! let split_l = b.job("split_l", "split", 1.0).input(raw).output(l).build();
//! let split_r = b.job("split_r", "split", 1.0).input(raw).output(r).build();
//! let join = b.job("join", "join", 2.0).input(l).input(r).output(out).build();
//!
//! let wf = b.finish().expect("acyclic");
//! assert_eq!(wf.job_count(), 3);
//! // Data-dependencies imply split_l -> join and split_r -> join.
//! assert_eq!(wf.parents(join), &[split_l, split_r]);
//!
//! let mut tracker = dewe_dag::DependencyTracker::new(&wf);
//! let ready: Vec<_> = tracker.take_ready();
//! assert_eq!(ready, vec![split_l, split_r]);
//! tracker.complete_in(&wf, split_l);
//! tracker.complete_in(&wf, split_r);
//! assert_eq!(tracker.take_ready(), vec![join]);
//! assert_eq!(tracker.state(join), JobState::Ready);
//! # let _ = raw;
//! ```
#![forbid(unsafe_code)]

mod analysis;
mod dax;
mod dot;
mod ensemble;
mod error;
mod file;
mod format;
mod ids;
mod job;
mod names;
mod reduce;
mod tracker;
mod workflow;

pub use analysis::{CriticalPath, LevelProfile, WorkflowStats};
pub use dax::{parse_dax, write_dax};
pub use dot::{to_dot, to_dot_collapsed};
pub use ensemble::EnsembleJobId;
pub use error::DagError;
pub use file::FileView;
pub use format::{parse_workflow, workflow_name, write_workflow};
pub use ids::{FileId, JobId, WorkflowId};
pub use job::{FileIds, JobBuilder, JobView, DEFAULT_TIMEOUT_SECS};
pub use reduce::{lint, LintFinding};
pub use tracker::{DependencyTracker, JobState, TrackerStats};
pub use workflow::{Files, Jobs, Workflow, WorkflowBuilder};
