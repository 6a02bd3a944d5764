//! Messages carried on the three DEWE v2 topics (paper §III.C), plus
//! their versioned wire encoding for the TCP runtime.
//!
//! Inside a daemon the structs below travel through `dewe-mq` topics
//! as-is. Over TCP they are wrapped in [`WireMsg`] and serialized into
//! length-prefixed frames (see `dewe_mq::read_frame`/`write_frame`) as
//! `[PROTOCOL_VERSION, message-type, body…]`. Decoding checks the
//! version byte *first*: a frame from an incompatible peer is rejected
//! as [`WireError::Version`] before any body parsing, so mixed-version
//! fleets fail loud and early instead of misinterpreting bytes.
//!
//! The message structs are `#[non_exhaustive]`: future protocol
//! revisions can add fields without breaking downstream constructors,
//! which use the `new` associated functions.

use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowId};
use std::sync::Arc;

/// Wire protocol revision. Bump on any change to frame layouts; peers
/// reject frames whose leading version byte differs from their own.
/// Revision 2 added the coalesced [`WireMsg::DispatchBatch`] frame — a
/// v1 worker cannot parse it, so mixed fleets must fail the handshake,
/// not mid-stream. Revision 3 took the pin flag out of [`WireMsg::Hello`].
/// Revision 4 sends a DAG text over each hop once ([`WireMsg::Repeat`],
/// [`WireMsg::Alias`]) and retired the single-dispatch frame: a run of one
/// is a [`WireMsg::DispatchBatch`] of one. Revision 5 retired `Return`, a
/// worker handing back one unstarted dispatch: the master takes back
/// whatever a worker connection held when that connection drops.
pub const PROTOCOL_VERSION: u8 = 5;

/// Workflow submission topic payload.
///
/// In the paper this is "the name of the workflow, as well as the path to
/// the related folder on the shared file system"; the serve loop is
/// handed the parsed DAG (the shared-FS folder equivalent). On the wire
/// the DAG travels as its text format ([`WireMsg::Submit`]) and is parsed
/// back at the master — or, when it is the text the connection submitted
/// last, as a [`WireMsg::Repeat`] of it.
#[derive(Clone)]
pub struct SubmissionMsg {
    /// Human-readable workflow name.
    pub name: String,
    /// The parsed workflow DAG.
    pub workflow: Arc<Workflow>,
}

impl std::fmt::Debug for SubmissionMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmissionMsg")
            .field("name", &self.name)
            .field("jobs", &self.workflow.job_count())
            .finish()
    }
}

/// Job dispatching topic payload: "meta data about the job (the location of
/// the binary executable with input and output parameters)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DispatchMsg {
    /// Which job, in which workflow of the ensemble.
    pub job: EnsembleJobId,
    /// Delivery attempt, starting at 1; incremented by timeout
    /// resubmissions (diagnostic only — any attempt's completion counts).
    pub attempt: u32,
}

impl DispatchMsg {
    /// Dispatch of `job`'s delivery `attempt`.
    pub fn new(job: EnsembleJobId, attempt: u32) -> Self {
        Self { job, attempt }
    }
}

/// Acknowledgment kinds (paper §III.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// The worker checked the job out and started executing it: the
    /// master's timeout clock for the attempt starts here. A worker link
    /// sends it only if the job is still running when the link's writer
    /// takes it; a job that ends first sends its terminal ack in this one's
    /// place. The master loses nothing by that: it already takes a terminal
    /// ack with no `Running` before it (a lost `Running` looks the same), and
    /// a clock that would have stopped in the same burst times nothing.
    Running,
    /// The job finished successfully.
    Completed,
    /// The job's execution failed on the worker (crash, nonzero exit). The
    /// master treats this as an immediate timeout: resubmit.
    Failed,
}

impl AckKind {
    /// Compact wire code, used by the master's write-ahead journal and
    /// the TCP frame encoding.
    pub fn code(self) -> u8 {
        match self {
            AckKind::Running => 0,
            AckKind::Completed => 1,
            AckKind::Failed => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes (a
    /// corrupt or truncated journal record or frame).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AckKind::Running),
            1 => Some(AckKind::Completed),
            2 => Some(AckKind::Failed),
            _ => None,
        }
    }
}

/// Worker lifecycle announcement kinds (liveness plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleKind {
    /// The worker came up (or back up) and wants a lease.
    Register,
    /// Periodic proof of life; renews the lease.
    Heartbeat,
    /// Graceful shutdown announcement: the worker will finish its current
    /// jobs and exit; the master must stop counting on it for new work.
    Drain,
}

impl LifecycleKind {
    /// Compact wire code, used by the master's write-ahead journal and
    /// the TCP frame encoding.
    pub fn code(self) -> u8 {
        match self {
            LifecycleKind::Register => 0,
            LifecycleKind::Heartbeat => 1,
            LifecycleKind::Drain => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(LifecycleKind::Register),
            1 => Some(LifecycleKind::Heartbeat),
            2 => Some(LifecycleKind::Drain),
            _ => None,
        }
    }
}

/// Worker lifecycle topic payload (worker → master).
///
/// `generation` distinguishes incarnations of the same worker id: a
/// restarted worker registers with a higher generation, and the master
/// treats messages from older generations as coming from a zombie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct LifecycleMsg {
    /// Worker identity (same id space as [`AckMsg::worker`]).
    pub worker: u32,
    /// Incarnation of this worker id, starting at 0.
    pub generation: u32,
    /// What the worker announces.
    pub kind: LifecycleKind,
}

impl LifecycleMsg {
    /// Lifecycle announcement from `worker`'s incarnation `generation`.
    pub fn new(worker: u32, generation: u32, kind: LifecycleKind) -> Self {
        Self { worker, generation, kind }
    }
}

/// Job acknowledgment topic payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AckMsg {
    /// Which job.
    pub job: EnsembleJobId,
    /// Worker identifier (opaque to the master; the master stays
    /// worker-agnostic by design).
    pub worker: u32,
    /// What happened.
    pub kind: AckKind,
    /// Echo of the dispatch attempt.
    pub attempt: u32,
}

impl AckMsg {
    /// Acknowledgment of `job`'s `attempt` from `worker`.
    pub fn new(job: EnsembleJobId, worker: u32, kind: AckKind, attempt: u32) -> Self {
        Self { job, worker, kind, attempt }
    }
}

/// Workflow announcement (master → workers): the accepted workflow's
/// identity and definition, broadcast so workers can mirror the registry
/// — their stand-in for the paper's shared file system.
#[derive(Clone)]
pub struct WorkflowAnnounce {
    /// The dense id the master assigned.
    pub id: WorkflowId,
    /// Human-readable workflow name, echoed from the submission.
    pub name: String,
    /// The parsed workflow DAG.
    pub workflow: Arc<Workflow>,
}

impl std::fmt::Debug for WorkflowAnnounce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowAnnounce")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("jobs", &self.workflow.job_count())
            .finish()
    }
}

/// Decode failure for a TCP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame's leading version byte is not [`PROTOCOL_VERSION`]; the
    /// peer speaks a different protocol revision and the connection must
    /// be dropped.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
    /// The frame ended before its declared contents.
    Truncated,
    /// Unknown message-type byte (within a known version: a corrupt
    /// frame, not a revision skew).
    UnknownType(u8),
    /// A field failed to parse (bad enum code, invalid UTF-8, …).
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Version { got } => {
                write!(f, "protocol version mismatch: got {got}, want {PROTOCOL_VERSION}")
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// Message-type bytes. Client → master types live below 0x80,
// master → client types at or above it; the split is purely for
// readability in packet dumps.
const T_HELLO: u8 = 0x01;
const T_SUBMITTER_HELLO: u8 = 0x02;
const T_ACK: u8 = 0x03;
const T_LIFECYCLE: u8 = 0x04;
const T_SUBMIT: u8 = 0x05;
// 0x06 was `Return` of revisions 1–4.
const T_REPEAT: u8 = 0x07;
const T_WORKFLOW: u8 = 0x81;
// 0x82 was the single `Dispatch` of revisions 1–3.
const T_BYE: u8 = 0x83;
const T_DISPATCH_BATCH: u8 = 0x84;
const T_ALIAS: u8 = 0x85;

/// Every message the TCP runtime carries, in both directions. DAGs
/// travel as their text format (`dewe_dag::write_workflow`), which the
/// receiving side parses back — the wire analogue of the paper's
/// "path to the related folder on the shared file system". A text crosses
/// each connection once: a later copy of it is a [`WireMsg::Repeat`]
/// (submitter → master) or a [`WireMsg::Alias`] (master → worker).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireMsg {
    /// Worker handshake: identity, incarnation, and the dispatch window
    /// (backpressure credit) this worker offers.
    Hello {
        /// Worker identity.
        worker: u32,
        /// Worker incarnation.
        generation: u32,
        /// Maximum dispatches this connection holds unsettled.
        window: u32,
    },
    /// Submission-client handshake (`dewectl submit`).
    SubmitterHello,
    /// Job acknowledgment (worker → master).
    Ack(AckMsg),
    /// Lifecycle announcement (worker → master).
    Lifecycle(LifecycleMsg),
    /// Workflow submission (submitter → master).
    Submit {
        /// Human-readable workflow name.
        name: String,
        /// The DAG in `dewe-dag` text format.
        dag: String,
    },
    /// Workflow submission (submitter → master) of the same DAG text as
    /// this connection's previous submission, which the master already
    /// holds. A connection with no accepted submission before it has
    /// nothing to repeat: the master rejects it.
    Repeat {
        /// Human-readable workflow name.
        name: String,
    },
    /// Workflow announcement (master → worker): registry mirror entry.
    Workflow {
        /// The dense workflow id.
        id: WorkflowId,
        /// Human-readable workflow name.
        name: String,
        /// The DAG in `dewe-dag` text format.
        dag: String,
    },
    /// Workflow announcement (master → worker) of the DAG already announced
    /// on this connection as workflow `same_as`, an earlier id.
    Alias {
        /// The dense workflow id.
        id: WorkflowId,
        /// Human-readable workflow name.
        name: String,
        /// The earlier workflow whose DAG this one shares.
        same_as: WorkflowId,
    },
    /// A run of job dispatches that became eligible in the same master
    /// poll cycle, in one frame (master → worker), however short the run.
    /// The worker executes them in order; the batch spends one window
    /// credit per contained dispatch.
    DispatchBatch(Vec<DispatchMsg>),
    /// The master is done and will close the connection; the worker may
    /// exit instead of reconnecting.
    Bye,
}

impl WireMsg {
    /// Serialize into a frame payload: `[version, type, body…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(PROTOCOL_VERSION);
        match self {
            WireMsg::Hello { worker, generation, window } => {
                out.push(T_HELLO);
                put_u32(&mut out, *worker);
                put_u32(&mut out, *generation);
                put_u32(&mut out, *window);
            }
            WireMsg::SubmitterHello => out.push(T_SUBMITTER_HELLO),
            WireMsg::Ack(ack) => return ack_frame(ack)[4..].to_vec(),
            WireMsg::Lifecycle(msg) => {
                out.push(T_LIFECYCLE);
                put_u32(&mut out, msg.worker);
                put_u32(&mut out, msg.generation);
                out.push(msg.kind.code());
            }
            WireMsg::Submit { name, dag } => return DagFrame { id: None, name, dag }.encode(),
            WireMsg::Repeat { name } => {
                out.push(T_REPEAT);
                put_str(&mut out, name);
            }
            WireMsg::Workflow { id, name, dag } => {
                return DagFrame { id: Some(*id), name, dag }.encode()
            }
            WireMsg::Alias { id, name, same_as } => {
                out.push(T_ALIAS);
                put_u32(&mut out, id.0);
                put_u32(&mut out, same_as.0);
                put_str(&mut out, name);
            }
            WireMsg::DispatchBatch(batch) => return encode_dispatch_batch(batch),
            WireMsg::Bye => out.push(T_BYE),
        }
        out
    }

    /// Parse a frame payload. The version byte is checked before
    /// anything else; see [`WireError::Version`].
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let version = r.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        let ty = r.u8()?;
        let msg = match ty {
            T_HELLO => {
                let worker = r.u32()?;
                let generation = r.u32()?;
                let window = r.u32()?;
                WireMsg::Hello { worker, generation, window }
            }
            T_SUBMITTER_HELLO => WireMsg::SubmitterHello,
            T_ACK => {
                let workflow = WorkflowId(r.u32()?);
                let job = JobId(r.u32()?);
                let worker = r.u32()?;
                let kind = AckKind::from_code(r.u8()?).ok_or(WireError::BadPayload("ack kind"))?;
                let attempt = r.u32()?;
                WireMsg::Ack(AckMsg::new(EnsembleJobId::new(workflow, job), worker, kind, attempt))
            }
            T_LIFECYCLE => {
                let worker = r.u32()?;
                let generation = r.u32()?;
                let kind = LifecycleKind::from_code(r.u8()?)
                    .ok_or(WireError::BadPayload("lifecycle kind"))?;
                WireMsg::Lifecycle(LifecycleMsg::new(worker, generation, kind))
            }
            T_SUBMIT | T_WORKFLOW => {
                let DagFrame { id, name, dag } = DagFrame::body(ty, &mut r)?;
                let (name, dag) = (name.to_string(), dag.to_string());
                match id {
                    None => WireMsg::Submit { name, dag },
                    Some(id) => WireMsg::Workflow { id, name, dag },
                }
            }
            T_REPEAT => WireMsg::Repeat { name: r.str()?.to_string() },
            T_ALIAS => {
                let id = WorkflowId(r.u32()?);
                let same_as = WorkflowId(r.u32()?);
                if same_as >= id {
                    return Err(WireError::BadPayload("alias of a workflow not earlier"));
                }
                WireMsg::Alias { id, name: r.str()?.to_string(), same_as }
            }
            T_DISPATCH_BATCH => {
                let count = r.u32()? as usize;
                // Cap the pre-allocation by what the frame could actually
                // hold (12 bytes per dispatch), so a corrupt count fails
                // as Truncated instead of allocating gigabytes.
                let mut batch = Vec::with_capacity(count.min(r.remaining() / 12 + 1));
                for _ in 0..count {
                    batch.push(r.dispatch()?);
                }
                WireMsg::DispatchBatch(batch)
            }
            T_BYE => WireMsg::Bye,
            other => return Err(WireError::UnknownType(other)),
        };
        Ok(msg)
    }
}

/// A borrowed view of the two frames that carry a DAG —
/// [`WireMsg::Submit`] (`id` is `None`) and [`WireMsg::Workflow`] — for
/// the paths that handle megabytes of DAG text per frame. Decoding
/// borrows `name` and `dag` from the received frame instead of copying
/// them out; encoding is split into [`head`](Self::head), which is
/// everything up to the text, and the text itself, so a sender that
/// already holds the text never concatenates the two. Same bytes on the
/// wire as [`WireMsg::encode`], same rejections as [`WireMsg::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DagFrame<'a> {
    /// The dense workflow id of an announcement; `None` for a submission.
    pub(crate) id: Option<WorkflowId>,
    /// Human-readable workflow name.
    pub(crate) name: &'a str,
    /// The DAG in `dewe-dag` text format.
    pub(crate) dag: &'a str,
}

impl<'a> DagFrame<'a> {
    /// Decode `frame` if it is a `Submit` or `Workflow` frame; `Ok(None)`
    /// for any other well-versioned message type, which the caller hands
    /// to [`WireMsg::decode`].
    pub(crate) fn decode(frame: &'a [u8]) -> Result<Option<Self>, WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let version = r.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        match r.u8()? {
            ty @ (T_SUBMIT | T_WORKFLOW) => Self::body(ty, &mut r).map(Some),
            _ => Ok(None),
        }
    }

    fn body(ty: u8, r: &mut Reader<'a>) -> Result<Self, WireError> {
        let id = if ty == T_WORKFLOW { Some(WorkflowId(r.u32()?)) } else { None };
        Ok(Self { id, name: r.str()?, dag: r.str()? })
    }

    /// The length of the whole frame payload, head and text, without
    /// encoding either: what a sender holds to the receivers' frame cap.
    pub(crate) fn payload_len(&self) -> usize {
        let id = if self.id.is_some() { 4 } else { 0 };
        2 + id + 4 + self.name.len() + 4 + self.dag.len()
    }

    /// The frame payload up to and including the DAG's length prefix;
    /// the payload is this followed by the bytes of `dag`.
    pub(crate) fn head(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 4 + 4 + self.name.len() + 4);
        out.push(PROTOCOL_VERSION);
        match self.id {
            None => out.push(T_SUBMIT),
            Some(id) => {
                out.push(T_WORKFLOW);
                put_u32(&mut out, id.0);
            }
        }
        put_str(&mut out, self.name);
        put_len(&mut out, self.dag);
        out
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = self.head();
        out.extend_from_slice(self.dag.as_bytes());
        out
    }
}

/// The [`WireMsg::DispatchBatch`] frame payload of `run`, encoded from the
/// slice: the master sends every run it places this way, without first
/// copying the run into a message. Allocated with room for the frame's
/// 4-byte length prefix, which the master's sender puts in front.
pub(crate) fn encode_dispatch_batch(run: &[DispatchMsg]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + 4 + run.len() * 12);
    out.push(PROTOCOL_VERSION);
    out.push(T_DISPATCH_BATCH);
    put_u32(&mut out, u32::try_from(run.len()).expect("batch exceeds u32 length"));
    for d in run {
        put_dispatch(&mut out, d);
    }
    out
}

/// Bytes in a framed [`WireMsg::Ack`]: the 4-byte length prefix and the
/// payload — version, type, workflow, job, worker, kind, attempt.
pub(crate) const ACK_FRAME: usize = 4 + 2 + 4 + 4 + 4 + 1 + 4;

/// `ack` framed for the wire, on the stack: its length prefix, then its
/// payload, which is what [`WireMsg::encode`] makes of `WireMsg::Ack(ack)`.
/// Every ack frame is [`ACK_FRAME`] bytes, so a worker link queues it into
/// one byte buffer and can overwrite one queued ack with another in place.
pub(crate) fn ack_frame(ack: &AckMsg) -> [u8; ACK_FRAME] {
    let mut frame = [0; ACK_FRAME];
    frame[..4].copy_from_slice(&(ACK_FRAME as u32 - 4).to_be_bytes());
    frame[4..6].copy_from_slice(&[PROTOCOL_VERSION, T_ACK]);
    frame[6..10].copy_from_slice(&ack.job.workflow.0.to_be_bytes());
    frame[10..14].copy_from_slice(&ack.job.job.0.to_be_bytes());
    frame[14..18].copy_from_slice(&ack.worker.to_be_bytes());
    frame[18] = ack.kind.code();
    frame[19..].copy_from_slice(&ack.attempt.to_be_bytes());
    frame
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_len(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string exceeds u32 length"));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s);
    out.extend_from_slice(s.as_bytes());
}

fn put_dispatch(out: &mut Vec<u8>, d: &DispatchMsg) {
    put_u32(out, d.job.workflow.0);
    put_u32(out, d.job.job.0);
    put_u32(out, d.attempt);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_be_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadPayload("utf-8 string"))
    }

    fn dispatch(&mut self) -> Result<DispatchMsg, WireError> {
        let workflow = WorkflowId(self.u32()?);
        let job = JobId(self.u32()?);
        let attempt = self.u32()?;
        Ok(DispatchMsg::new(EnsembleJobId::new(workflow, job), attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;
    use proptest::prelude::*;

    #[test]
    fn submission_debug_is_compact() {
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        let m = SubmissionMsg { name: "w".into(), workflow: wf };
        let s = format!("{m:?}");
        assert!(s.contains("jobs: 0"));
    }

    #[test]
    fn dispatch_is_small_and_copyable() {
        // Dispatch messages flood the queue at ensemble scale (1.7M jobs);
        // keep them trivially copyable and small.
        assert!(std::mem::size_of::<DispatchMsg>() <= 16);
        let d = DispatchMsg::new(EnsembleJobId::new(WorkflowId(1), JobId(2)), 1);
        let d2 = d;
        assert_eq!(d, d2);
    }

    #[test]
    fn ack_kinds_are_distinct() {
        assert_ne!(AckKind::Running, AckKind::Completed);
        assert_ne!(AckKind::Completed, AckKind::Failed);
    }

    #[test]
    fn lifecycle_codes_round_trip() {
        for kind in [LifecycleKind::Register, LifecycleKind::Heartbeat, LifecycleKind::Drain] {
            assert_eq!(LifecycleKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(LifecycleKind::from_code(9), None);
    }

    #[test]
    fn wire_messages_round_trip() {
        let job = EnsembleJobId::new(WorkflowId(7), JobId(11));
        let msgs = vec![
            WireMsg::Hello { worker: 3, generation: 2, window: 64 },
            WireMsg::SubmitterHello,
            WireMsg::Ack(AckMsg::new(job, 3, AckKind::Completed, 2)),
            WireMsg::Lifecycle(LifecycleMsg::new(3, 2, LifecycleKind::Heartbeat)),
            WireMsg::Submit { name: "montage".into(), dag: "# dag text".into() },
            WireMsg::Repeat { name: "montage-1".into() },
            WireMsg::Workflow { id: WorkflowId(9), name: "m".into(), dag: "# dag".into() },
            WireMsg::Alias { id: WorkflowId(9), name: "m-9".into(), same_as: WorkflowId(2) },
            WireMsg::DispatchBatch(vec![DispatchMsg::new(job, 1)]),
            WireMsg::DispatchBatch(vec![
                DispatchMsg::new(job, 1),
                DispatchMsg::new(EnsembleJobId::new(WorkflowId(7), JobId(12)), 3),
            ]),
            WireMsg::DispatchBatch(Vec::new()),
            WireMsg::Bye,
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(bytes[0], PROTOCOL_VERSION, "version byte leads every frame");
            assert_eq!(WireMsg::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_version_frames_are_rejected_before_parsing() {
        // The compatibility story: a frame from a future (or corrupt)
        // protocol revision must be refused by the version byte alone,
        // even when the rest of the frame is garbage the body parsers
        // would choke on.
        let mut bytes = WireMsg::Bye.encode();
        bytes[0] = PROTOCOL_VERSION + 1;
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Version { got: PROTOCOL_VERSION + 1 }));
        let garbage = [0xFFu8, 0xAA, 0xBB];
        assert_eq!(WireMsg::decode(&garbage), Err(WireError::Version { got: 0xFF }));
        // An empty frame is truncated, not a version skew.
        assert_eq!(WireMsg::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_frames_fail_loud_within_a_known_version() {
        // Unknown type byte.
        assert_eq!(WireMsg::decode(&[PROTOCOL_VERSION, 0x7F]), Err(WireError::UnknownType(0x7F)));
        // The single-dispatch type byte of revisions 1–3, and `Return`'s of 1–4.
        for retired in [0x82, 0x06] {
            let frame = [PROTOCOL_VERSION, retired, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1];
            assert_eq!(WireMsg::decode(&frame), Err(WireError::UnknownType(retired)));
        }
        // Truncated body.
        let bytes = WireMsg::Ack(AckMsg::new(
            EnsembleJobId::new(WorkflowId(1), JobId(2)),
            3,
            AckKind::Completed,
            1,
        ))
        .encode();
        assert_eq!(WireMsg::decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
        // An alias names an earlier workflow: never itself, never a later one.
        for same_as in [3, 4] {
            let alias = WireMsg::Alias {
                id: WorkflowId(3),
                name: "n".into(),
                same_as: WorkflowId(same_as),
            };
            assert_eq!(
                WireMsg::decode(&alias.encode()),
                Err(WireError::BadPayload("alias of a workflow not earlier"))
            );
        }
        // The handshake, cut anywhere inside its three fields.
        let hello = WireMsg::Hello { worker: 3, generation: 2, window: 64 }.encode();
        assert_eq!(hello.len(), 2 + 3 * 4);
        for cut in 2..hello.len() {
            assert_eq!(WireMsg::decode(&hello[..cut]), Err(WireError::Truncated), "cut at {cut}");
        }
        // Bad enum code.
        let mut ack = WireMsg::Ack(AckMsg::new(
            EnsembleJobId::new(WorkflowId(0), JobId(0)),
            0,
            AckKind::Running,
            1,
        ))
        .encode();
        let kind_at = ack.len() - 5; // kind byte sits before the trailing attempt u32
        ack[kind_at] = 9;
        assert_eq!(WireMsg::decode(&ack), Err(WireError::BadPayload("ack kind")));
    }

    #[test]
    fn a_run_of_one_is_a_batch_four_bytes_longer_than_the_retired_frame() {
        let d = DispatchMsg::new(EnsembleJobId::new(WorkflowId(1), JobId(2)), 1);
        let one = encode_dispatch_batch(&[d]);
        assert_eq!(one.len(), 2 + 12 + 4);
        assert_eq!(one, WireMsg::DispatchBatch(vec![d]).encode());
        assert_eq!(WireMsg::decode(&one), Ok(WireMsg::DispatchBatch(vec![d])));
    }

    #[test]
    fn batch_frame_with_corrupt_count_fails_without_allocating() {
        // A frame claiming u32::MAX dispatches but carrying two must be
        // rejected as Truncated — and must not pre-allocate for the lie.
        let job = EnsembleJobId::new(WorkflowId(1), JobId(2));
        let mut bytes =
            WireMsg::DispatchBatch(vec![DispatchMsg::new(job, 1), DispatchMsg::new(job, 2)])
                .encode();
        bytes[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn dag_frames_decode_borrowed_and_encode_split_to_the_same_bytes() {
        let owned = [
            WireMsg::Submit { name: "montage".into(), dag: "# dag é text".into() },
            WireMsg::Workflow { id: WorkflowId(9), name: "".into(), dag: "".into() },
        ];
        for msg in owned {
            let bytes = msg.encode();
            let view = DagFrame::decode(&bytes).unwrap().expect("a DAG frame");
            // Borrowed, not copied: the text points into the frame.
            assert!(bytes.as_ptr_range().contains(&view.dag.as_ptr()) || view.dag.is_empty());
            let mut split = view.head();
            split.extend_from_slice(view.dag.as_bytes());
            assert_eq!(split, bytes, "head + text is the owned encoding");
            assert_eq!(view.payload_len(), bytes.len());
            let again = match view.id {
                None => WireMsg::Submit { name: view.name.into(), dag: view.dag.into() },
                Some(id) => WireMsg::Workflow { id, name: view.name.into(), dag: view.dag.into() },
            };
            assert_eq!(again, msg);
        }
        // Any other well-formed frame is left to `WireMsg::decode`.
        assert_eq!(DagFrame::decode(&WireMsg::Bye.encode()), Ok(None));
        assert_eq!(DagFrame::decode(&[PROTOCOL_VERSION, 0x7F]), Ok(None));
    }

    #[test]
    fn borrowed_decode_rejects_what_the_owned_decode_rejects() {
        let good =
            WireMsg::Workflow { id: WorkflowId(1), name: "n".into(), dag: "JOB a".into() }.encode();
        let both = |frame: &[u8]| {
            let owned = WireMsg::decode(frame).unwrap_err();
            assert_eq!(DagFrame::decode(frame), Err(owned.clone()), "{frame:?}");
            owned
        };
        // Version skew, before anything else is looked at.
        let mut skewed = good.clone();
        skewed[0] = PROTOCOL_VERSION + 1;
        assert_eq!(both(&skewed), WireError::Version { got: PROTOCOL_VERSION + 1 });
        assert_eq!(both(&[0xFF, 0xAA]), WireError::Version { got: 0xFF });
        assert_eq!(both(&[]), WireError::Truncated);
        assert_eq!(both(&[PROTOCOL_VERSION]), WireError::Truncated);
        // Cut anywhere: inside the id, a length prefix, the name, the text.
        for cut in 2..good.len() {
            assert_eq!(both(&good[..cut]), WireError::Truncated, "cut at {cut}");
        }
        // A length prefix that promises more than the frame holds.
        let mut long = good.clone();
        let dag_len_at = good.len() - "JOB a".len() - 4;
        long[dag_len_at..dag_len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(both(&long), WireError::Truncated);
        // Invalid UTF-8 in the name and in the text.
        for at in [good.len() - 1, dag_len_at - 1] {
            let mut bad = good.clone();
            bad[at] = 0xFF;
            assert_eq!(both(&bad), WireError::BadPayload("utf-8 string"));
        }
        let submit = WireMsg::Submit { name: "n".into(), dag: "d".into() }.encode();
        assert_eq!(both(&submit[..submit.len() - 1]), WireError::Truncated);
    }

    fn framed(msg: WireMsg) -> Vec<u8> {
        let mut frame = Vec::new();
        dewe_mq::write_frame(&mut frame, &msg.encode()).unwrap();
        frame
    }

    fn ack_kind() -> impl Strategy<Value = AckKind> {
        prop_oneof![Just(AckKind::Running), Just(AckKind::Completed), Just(AckKind::Failed)]
    }

    fn ack() -> impl Strategy<Value = AckMsg> {
        (any::<u32>(), any::<u32>(), any::<u32>(), ack_kind(), any::<u32>()).prop_map(
            |(workflow, job, worker, kind, attempt)| {
                AckMsg::new(
                    EnsembleJobId::new(WorkflowId(workflow), JobId(job)),
                    worker,
                    kind,
                    attempt,
                )
            },
        )
    }

    /// The ack layout, pinned: the bytes protocol v5 has always sent.
    #[test]
    fn an_ack_frame_is_pinned_byte_for_byte() {
        let ack = AckMsg::new(
            EnsembleJobId::new(WorkflowId(0x0102_0304), JobId(5)),
            6,
            AckKind::Completed,
            0x0708_090a,
        );
        let frame = [0, 0, 0, 19, 5, 3, 1, 2, 3, 4, 0, 0, 0, 5, 0, 0, 0, 6, 1, 7, 8, 9, 10];
        assert_eq!(ack_frame(&ack), frame);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The stack-built ack frame is the encoder's bytes behind their
        /// length prefix, and decodes to the ack.
        #[test]
        fn an_ack_frame_is_the_encoded_ack_framed(ack in ack()) {
            let frame = ack_frame(&ack);
            prop_assert_eq!(frame.to_vec(), framed(WireMsg::Ack(ack)));
            prop_assert_eq!(WireMsg::decode(&frame[4..]).unwrap(), WireMsg::Ack(ack));
        }
    }

    #[test]
    fn workflow_announce_debug_is_compact() {
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        let a = WorkflowAnnounce { id: WorkflowId(3), name: "w".into(), workflow: wf };
        let s = format!("{a:?}");
        assert!(s.contains("jobs: 0"), "{s}");
    }
}
