//! # dewe
//!
//! A from-scratch Rust reproduction of **DEWE v2**, the pulling-based
//! scientific-workflow-ensemble execution system of *Executing Large Scale
//! Scientific Workflow Ensembles in Public Clouds* (Jiang, Lee & Zomaya,
//! ICPP 2015), together with every substrate the paper depends on:
//!
//! * [`dag`] — workflow DAG model, dependency tracking, DAGMan-style text
//!   format;
//! * [`montage`] — calibrated Montage / LIGO / CyberShake workflow
//!   generators;
//! * [`mq`] — the message layer: work-queue topics, the transport traits
//!   both runtimes implement, framing, send windows, seeded chaos;
//! * [`simcloud`] — a deterministic discrete-event EC2 simulator (instance
//!   catalog, fair-share disks, page-cache model, NFS/MooseFS models,
//!   hourly billing);
//! * [`core`] — DEWE v2 itself: the sans-IO ensemble engine plus threaded
//!   (*realtime*) and simulated runtimes;
//! * [`baseline`] — the Pegasus + DAGMan + Condor-like scheduling engine
//!   the paper compares against;
//! * [`provision`] — profiling-based resource provisioning (node
//!   performance index, Eq. 1–2, cost/deadline planning);
//! * [`metrics`] — mpstat/iostat-style sampling, aggregation and export.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record. The `dewe-bench`
//! crate regenerates every table and figure of the paper's evaluation.
//!
//! ## Two ways to run an ensemble
//!
//! **Real threads** (the library as a workflow engine), meeting on a
//! loopback port as daemons on separate machines would:
//!
//! ```
//! use dewe::core::realtime::{spawn_master_on, spawn_worker_on, submit_over_tcp, MasterConfig,
//!     NoopRunner, Registry, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions,
//!     WorkerConfig};
//! use dewe::dag::write_workflow;
//! use dewe::montage::MontageConfig;
//! use std::sync::Arc;
//!
//! let endpoint = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default())?;
//! let master = spawn_master_on(endpoint.clone(), Registry::new(),
//!     MasterConfig { expected_workflows: Some(1), ..MasterConfig::default() });
//! let mirror = Registry::new();
//! let link = TcpWorkerLink::connect(endpoint.local_addr(), mirror.clone(),
//!     TcpWorkerOptions::default())?;
//! let worker = spawn_worker_on(Arc::new(link), mirror, Arc::new(NoopRunner),
//!     WorkerConfig::default());
//! let demo = write_workflow(&MontageConfig::degree(0.5).build());
//! submit_over_tcp(endpoint.local_addr(), [("demo", demo)])?;
//! let stats = master.join();
//! assert_eq!(stats.jobs_completed, 45);
//! endpoint.shutdown(); // says Bye: the worker's link ends, and the worker
//! worker.wait();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! **Simulated cluster** (the paper's 1,000-core experiments on a laptop):
//!
//! ```
//! use dewe::core::sim::{run_ensemble, SimRunConfig};
//! use dewe::montage::MontageConfig;
//! use dewe::simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};
//! use std::sync::Arc;
//!
//! let wf = Arc::new(MontageConfig::degree(1.0).build());
//! let cluster = ClusterConfig {
//!     instance: C3_8XLARGE,
//!     nodes: 2,
//!     storage: StorageConfig::Shared(SharedFsKind::Nfs),
//! };
//! let report = run_ensemble(&[wf], &SimRunConfig::new(cluster));
//! assert!(report.completed);
//! ```
#![forbid(unsafe_code)]

pub mod manifest;

/// The README's Rust snippets, compiled (and, unless `no_run`, run) by
/// `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use dewe_baseline as baseline;
pub use dewe_core as core;
pub use dewe_dag as dag;
pub use dewe_metrics as metrics;
pub use dewe_montage as montage;
pub use dewe_mq as mq;
pub use dewe_provision as provision;
pub use dewe_simcloud as simcloud;
