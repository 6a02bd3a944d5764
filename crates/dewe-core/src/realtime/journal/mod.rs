//! Write-ahead journal of master engine inputs, and recovery from it.
//!
//! The paper's master daemon is a single point of failure: its DAG state
//! lives in memory, so a crash strands the whole ensemble. This module
//! makes the master recoverable by journaling every *input* the sans-IO
//! [`EnsembleEngine`] consumes — workflow submissions, acknowledgments,
//! and effective timeout scans — rather than snapshotting its state. The
//! engine is deterministic, so replaying the inputs rebuilds the tracker,
//! in-flight slab and deadline heap exactly.
//!
//! ## The write-ahead rule
//!
//! No dispatch and no event leaves the master before the input that caused
//! it has been handed to the OS. Records are formatted into the writer's
//! buffer; [`Journal::commit`] hands the buffer over in one `write(2)`; the
//! serve loop appends a whole burst of acknowledgments, commits, and only
//! then lets the engine see the burst and its effects leave — one write per
//! burst, not one per record. What a crash can lose is therefore only input
//! the master had pulled off the socket and not yet acted on: the engine
//! never saw it, no worker was told anything because of it, and the
//! recovered master republishes the jobs it concerned. Submissions and
//! worker transitions write themselves before the call that records them
//! returns; acknowledgments and scans wait in the buffer for the caller's
//! [`Journal::commit`]; nothing else decides when bytes reach the file.
//! "Handed to the OS" is not "on disk": the journal survives the process,
//! not the machine.
//!
//! ## Format
//!
//! Append-only ASCII lines, one record each:
//!
//! ```text
//! S <registry_index> <time_bits>
//! A <workflow> <job> <worker> <kind_code> <attempt> <time_bits>
//! T <time_bits>
//! W <worker> <generation> <phase_code> <time_bits>
//! ```
//!
//! Times are `f64::to_bits` in hex — exact round-trips, no decimal
//! parsing ambiguity. Workflow DAGs are *not* serialized: a submission
//! record stores the workflow's [`Registry`] index, and recovery
//! re-fetches the DAG from the registry (the paper keeps workflow data on
//! the shared file system for the same reason). A truncated final line —
//! the crash happened mid-write — is silently discarded.
//!
//! Masters from 0.5.0 through 0.11.0 ended the submission record with one
//! more numeric token (a placement their engine no longer has). The reader
//! still accepts that token and ignores its value, so every journal an
//! earlier master wrote recovers; a non-numeric token there is corruption
//! like any other malformed line.
//!
//! ## Recovery invariants
//!
//! * Replay feeds records through the same engine entry points the live
//!   master uses, so recovered state is bit-identical to pre-crash state.
//! * The recovered clock resumes from the last journaled time; wall time
//!   restarts but engine time never runs backwards.
//! * Jobs in flight at the crash may exist in the (unknown) queue state;
//!   the recovered master republishes them. Workers may therefore run a
//!   job twice — duplicate-completion noise, the same race the timeout
//!   mechanism already tolerates.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use dewe_dag::{EnsembleJobId, JobId, WorkflowId};

use super::liveness::{LivenessTable, WorkerPhase};
use super::registry::Registry;
use crate::engine::{Action, EngineConfig, EnsembleEngine};
use crate::protocol::{AckKind, AckMsg, DispatchMsg};

mod replay;

pub use replay::{read_journal, recover, replay_liveness, Recovery};

/// One journaled engine input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// A workflow was submitted (stored by registry index).
    Submit {
        /// Registry index of the workflow (equals its engine id).
        workflow: u32,
        /// Engine time of the submission.
        at: f64,
    },
    /// A worker acknowledgment was processed.
    Ack {
        /// The acknowledgment.
        ack: AckMsg,
        /// Engine time it was processed.
        at: f64,
    },
    /// A timeout scan that changed engine state ran.
    Scan {
        /// Engine time of the scan.
        at: f64,
    },
    /// A worker lifecycle transition (liveness plane). Written by the
    /// call that records it, like submissions: the liveness table rebuilt
    /// on recovery must match the pre-crash one exactly, and lifecycle
    /// transitions are far too rare to batch.
    Worker {
        /// Worker id.
        worker: u32,
        /// Incarnation of the worker.
        generation: u32,
        /// Phase the worker entered.
        phase: WorkerPhase,
        /// Engine time of the transition.
        at: f64,
    },
}

impl JournalRecord {
    /// Engine time of this record.
    pub fn at(&self) -> f64 {
        match *self {
            JournalRecord::Submit { at, .. }
            | JournalRecord::Ack { at, .. }
            | JournalRecord::Scan { at }
            | JournalRecord::Worker { at, .. } => at,
        }
    }
}

/// Buffered bytes past which an append writes the buffer out without
/// waiting for a commit — a caller that never commits must not grow it
/// without bound, and writing early never breaks write-ahead.
const SPILL_BYTES: usize = 64 * 1024;

/// Append-only journal writer. Records are formatted into a buffer that
/// [`commit`](Self::commit) hands to the OS in one write. The caller's side
/// of the write-ahead rule is to call it after appending inputs and before
/// acting on them.
pub struct Journal {
    file: File,
    /// Records appended since the last write, as the bytes to write.
    buf: Vec<u8>,
}

/// Format `rec` as its journal line, newline included, straight into `out`.
fn write_record(out: &mut impl Write, rec: &JournalRecord) -> io::Result<()> {
    match *rec {
        JournalRecord::Submit { workflow, at } => writeln!(out, "S {workflow} {:x}", at.to_bits()),
        JournalRecord::Ack { ack, at } => writeln!(
            out,
            "A {} {} {} {} {} {:x}",
            ack.job.workflow.0,
            ack.job.job.0,
            ack.worker,
            ack.kind.code(),
            ack.attempt,
            at.to_bits()
        ),
        JournalRecord::Scan { at } => writeln!(out, "T {:x}", at.to_bits()),
        JournalRecord::Worker { worker, generation, phase, at } => {
            writeln!(out, "W {worker} {generation} {} {:x}", phase.code(), at.to_bits())
        }
    }
}

impl Journal {
    fn over(file: File) -> Self {
        Self { file, buf: Vec::new() }
    }

    /// Start a fresh journal, truncating any existing file.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::over(File::create(path)?))
    }

    /// Open a journal for appending, creating it if absent (recovery
    /// resume).
    pub fn append(path: &Path) -> io::Result<Self> {
        Ok(Self::over(OpenOptions::new().create(true).append(true).open(path)?))
    }

    /// Append one record to the buffer. Returns with it written only when
    /// the spill size says so.
    fn append_record(&mut self, rec: &JournalRecord) -> io::Result<()> {
        write_record(&mut self.buf, rec)?;
        if self.buf.len() >= SPILL_BYTES {
            return self.commit();
        }
        Ok(())
    }

    /// The write-ahead barrier: hand every buffered record to the OS, in
    /// one write. Call it after appending records and before acting on
    /// them; with nothing buffered it costs nothing. After an error the
    /// buffer is dropped, not kept for a retry: part of it may have been
    /// written, and writing it again would put a duplicate in the middle
    /// of the file — the master stops on the error instead.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Journal a workflow submission. Written before this returns — replay
    /// validates dense submission order, so an ack referencing a
    /// never-journaled workflow would corrupt recovery rather than merely
    /// repeat work.
    ///
    /// `_unused` was the shard: unused since PR 14; dropped with the next `benchmark/` change.
    pub fn record_submit(
        &mut self,
        workflow: WorkflowId,
        _unused: usize,
        at: f64,
    ) -> io::Result<()> {
        self.append_record(&JournalRecord::Submit { workflow: workflow.0, at })?;
        self.commit()
    }

    /// Journal a worker acknowledgment (buffered until the next
    /// [`commit`](Self::commit)).
    pub fn record_ack(&mut self, ack: &AckMsg, at: f64) -> io::Result<()> {
        self.append_record(&JournalRecord::Ack { ack: *ack, at })
    }

    /// Journal an effective timeout scan (one that changed engine state;
    /// buffered like an ack).
    pub fn record_scan(&mut self, at: f64) -> io::Result<()> {
        self.append_record(&JournalRecord::Scan { at })
    }

    /// Journal a worker lifecycle transition. Written before this returns
    /// — recovery must rebuild the liveness table exactly, and transitions
    /// are rare (see [`JournalRecord::Worker`]).
    pub fn record_worker(
        &mut self,
        worker: u32,
        generation: u32,
        phase: WorkerPhase,
        at: f64,
    ) -> io::Result<()> {
        self.append_record(&JournalRecord::Worker { worker, generation, phase, at })?;
        self.commit()
    }
}

impl Drop for Journal {
    /// A clean shutdown (as opposed to a crash) must not lose what is
    /// still buffered. Errors are swallowed — there is no one to report
    /// them to in drop, and the records were already at crash-loss risk.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}
