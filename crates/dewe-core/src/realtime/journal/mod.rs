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
//! it has been handed to the OS. Records are encoded by hand into the
//! writer's buffer; [`Journal::commit`] hands the buffer over in one
//! `write(2)`; the serve loop appends a whole burst of acknowledgments,
//! commits, and only then lets the engine see the burst and its effects
//! leave — one write per burst, not one per record. What a crash can lose
//! is therefore only input the master had pulled off the socket and not
//! yet acted on: the engine never saw it, no worker was told anything
//! because of it, and the recovered master republishes the jobs it
//! concerned. Submissions and worker transitions write themselves before
//! the call that records them returns; acknowledgments and scans wait in
//! the buffer for the caller's [`Journal::commit`]; nothing else decides
//! when bytes reach the file.
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
//! the shared file system for the same reason). Every record ends with its
//! newline and the writer writes whole records, so a final line without
//! its newline was torn by a crash mid-write: it is discarded, parsed or
//! not. A malformed complete final line is discarded too; a malformed line
//! before another record, or any line longer than a record, is corruption.
//!
//! A record is encoded by hand — decimal and hex digits in plain loops,
//! into one line on the stack, appended to the buffer whole — and its bytes
//! are exactly what `writeln!` with `{}` and `{:x}` writes, which is what
//! every earlier master wrote.
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

/// Append-only journal writer. Records are encoded into a buffer that
/// [`commit`](Self::commit) hands to the OS in one write. The caller's side
/// of the write-ahead rule is to call it after appending inputs and before
/// acting on them.
pub struct Journal {
    file: File,
    /// Records appended since the last write, as the bytes to write.
    buf: Vec<u8>,
}

/// The longest journal line: `A`, five `u32` fields of up to ten digits
/// and a time of up to sixteen hex digits, each after a space, and the
/// newline.
const LINE_MAX: usize = 1 + 5 * (1 + 10) + (1 + 16) + 1;

/// One record's line, encoded on the stack: a tag, fields each after a
/// space, and the newline.
struct Line {
    bytes: [u8; LINE_MAX],
    len: usize,
}

impl Line {
    /// Start the line over with `tag`.
    fn tag(&mut self, tag: u8) -> &mut Self {
        self.bytes[0] = tag;
        self.len = 1;
        self
    }

    /// Make room for a space and a field of `width` digits; the field's
    /// slots, to be filled from the last.
    fn field(&mut self, width: usize) -> &mut [u8] {
        let start = self.len + 1;
        self.bytes[self.len] = b' ';
        self.len = start + width;
        &mut self.bytes[start..self.len]
    }

    /// A number in decimal, as `{}` writes it.
    fn dec(&mut self, mut n: u32) -> &mut Self {
        let width = n.checked_ilog10().map_or(1, |log| log as usize + 1);
        for slot in self.field(width).iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self
    }

    /// A time as its bits in lower-case hex, as `{:x}` writes them.
    fn hex(&mut self, at: f64) -> &mut Self {
        let mut bits = at.to_bits();
        let width = (u64::BITS - bits.leading_zeros()).div_ceil(4).max(1);
        for slot in self.field(width as usize).iter_mut().rev() {
            *slot = b"0123456789abcdef"[(bits & 15) as usize];
            bits >>= 4;
        }
        self
    }

    /// The finished line, newline included.
    fn end(&mut self) -> &[u8] {
        self.bytes[self.len] = b'\n';
        &self.bytes[..=self.len]
    }
}

/// Encode `rec` as its journal line, newline included, onto `out`.
fn write_record(out: &mut Vec<u8>, rec: &JournalRecord) {
    let mut line = Line { bytes: [0; LINE_MAX], len: 0 };
    match *rec {
        JournalRecord::Submit { workflow, at } => line.tag(b'S').dec(workflow).hex(at),
        JournalRecord::Ack { ack, at } => line
            .tag(b'A')
            .dec(ack.job.workflow.0)
            .dec(ack.job.job.0)
            .dec(ack.worker)
            .dec(ack.kind.code().into())
            .dec(ack.attempt)
            .hex(at),
        JournalRecord::Scan { at } => line.tag(b'T').hex(at),
        JournalRecord::Worker { worker, generation, phase, at } => {
            line.tag(b'W').dec(worker).dec(generation).dec(phase.code().into()).hex(at)
        }
    };
    out.extend_from_slice(line.end());
}

impl Journal {
    fn over(file: File) -> Self {
        Self { file, buf: Vec::new() }
    }

    /// Start a fresh journal, truncating any existing file (no master does).
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::over(File::create(path)?))
    }

    /// Open a journal for appending, creating it if absent — how a master
    /// opens its own.
    pub fn append(path: &Path) -> io::Result<Self> {
        Ok(Self::over(OpenOptions::new().create(true).append(true).open(path)?))
    }

    /// Append one record to the buffer. Returns with it written only when
    /// the spill size says so.
    fn append_record(&mut self, rec: &JournalRecord) -> io::Result<()> {
        write_record(&mut self.buf, rec);
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
