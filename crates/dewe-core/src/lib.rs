//! # dewe-core
//!
//! **DEWE v2** — the pulling-based workflow ensemble execution system of
//! *Executing Large Scale Scientific Workflow Ensembles in Public Clouds*
//! (ICPP 2015) — reimplemented in Rust.
//!
//! ## Design (paper §III)
//!
//! DEWE v2 has three components wired through a message queue with three
//! topics (workflow submission, job dispatching, job acknowledgment):
//!
//! * the **master daemon** parses workflow DAGs, tracks precedence, and
//!   publishes jobs that are eligible to run to the dispatch topic. It
//!   knows *nothing* about the worker nodes — there is no scheduling at any
//!   stage;
//! * stateless **worker daemons** pull the dispatch topic first-come
//!   first-served, run jobs against a shared file system, and acknowledge
//!   `Running` / `Completed` on the ack topic. A worker stops pulling when
//!   its concurrent job threads equal its CPU count;
//! * the **workflow submission application** publishes workflow metadata to
//!   the submission topic, from any node at any time.
//!
//! A timeout mechanism makes the system robust: a checked-out job whose
//! completion ack does not arrive within its timeout is republished, so any
//! worker may fail at any time (§III.B, §V.A.3).
//!
//! ## Architecture of this crate
//!
//! The protocol logic lives in the sans-IO [`EnsembleEngine`]: events in
//! ([`AckMsg`], timeout scans, submissions), [`Action`]s out (dispatches,
//! completion notices). Two runtimes drive it:
//!
//! * [`realtime`] — a master and workers with pluggable
//!   [`realtime::JobRunner`]s over TCP, in one process over loopback (the
//!   examples, the tests, the oracle) or as the `dewe-masterd` /
//!   `dewe-workerd` daemons: a *real* workflow engine;
//! * [`sim`] — the `dewe-simcloud` discrete-event cluster, which reproduces
//!   the paper's 1,000-core EC2 experiments on a laptop.
//!
//! Both runtimes share every line of coordination logic, which is the
//! point: the paper's claims are about coordination, not hardware.
//!
//! There is one engine: the simulated runtime and the realtime master's
//! serve loop both drive the single-threaded [`EnsembleEngine`] directly.
#![forbid(unsafe_code)]

mod engine;
mod protocol;
mod wheel;

pub mod fault;
pub mod realtime;
pub mod sim;

pub use engine::{Action, EngineConfig, EngineStats, EnsembleEngine};
pub use protocol::{
    AckKind, AckMsg, Clipped, DispatchMsg, LifecycleKind, LifecycleMsg, SubmissionMsg, WireError,
    WireMsg, WorkflowAnnounce, PROTOCOL_VERSION,
};
