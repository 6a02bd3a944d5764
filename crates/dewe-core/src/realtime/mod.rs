//! Real-time (threaded) DEWE v2 runtime.
//!
//! This is a working in-process workflow engine: a master daemon thread, a
//! configurable pool of worker daemons, and a submission application, all
//! wired through [`dewe_mq`] topics exactly as the paper's deployment wires
//! them through RabbitMQ (§III.C):
//!
//! ```text
//!  submit()  ──▶ workflow_submission ──▶ MasterDaemon
//!                                            │ publishes eligible jobs
//!                                            ▼
//!  WorkerDaemon(s) ◀────── job_dispatch ◀────┘
//!        │ Running/Completed acks
//!        ▼
//!     job_ack ──▶ MasterDaemon (releases dependents, detects timeouts)
//! ```
//!
//! Jobs execute through a pluggable [`JobRunner`]; the crate ships runners
//! that sleep (deterministic scaling tests), do nothing (throughput tests),
//! or perform real file I/O against a workspace directory (data-flow
//! verification — a job finds its inputs on "the shared file system"
//! because its parents really wrote them).
//!
//! Worker daemons can be killed (abandoning in-flight jobs without
//! acknowledgment) and new ones started mid-run — the paper's §V.A.3
//! robustness experiment — and the master's timeout mechanism recovers.

mod bus;
mod dagstore;
mod journal;
mod liveness;
mod master;
mod net;
mod runner;
mod worker;

pub use bus::{BusWorkerLink, MessageBus, Registry};
pub use journal::{
    compact_records, read_journal, recover, replay_liveness, Journal, JournalRecord, Recovery,
};
pub use liveness::{
    LivenessTable, LivenessTransition, MasterStats, RequeueEntry, WorkerPhase, WorkerView,
    REQUEUE_WORKER,
};
pub use master::{
    spawn_master, spawn_master_on, MasterConfig, MasterConfigBuilder, MasterEvent, MasterHandle,
    MasterTransport,
};
pub use net::{submit_over_tcp, TcpWorkerLink, TcpWorkerOptions};
#[cfg(unix)]
pub use net::{TcpMaster, TcpMasterOptions};
pub use runner::{CpuRunner, FsRunner, JobOutcome, JobRunner, NoopRunner, RunContext, SleepRunner};
pub use worker::{spawn_worker, spawn_worker_on, DynWorkerTransport, WorkerConfig, WorkerHandle};

use crate::protocol::SubmissionMsg;
use dewe_dag::Workflow;
use dewe_mq::Transport;
use std::sync::Arc;

/// The workflow submission application (paper §III.E): publish a workflow
/// to the submission topic, from any thread at any time, and ring the
/// master's doorbell ([`Transport::wake`]) — its serve loop sleeps on the
/// ack topic until a deadline is due, so this is what has it ingest the
/// submission at all.
pub fn submit(bus: &MessageBus, name: impl Into<String>, workflow: Arc<Workflow>) {
    bus.submission.publish(SubmissionMsg { name: name.into(), workflow });
    bus.wake();
}
