//! Messages carried on the three DEWE v2 topics (paper §III.C), plus
//! their versioned wire encoding for the TCP runtime.
//!
//! The master's serve loop and a worker's slot loops hand the structs
//! below to their transport (`dewe_mq::Transport`, `WorkerTransport`) as
//! they are. The TCP transport carries each as a [`WireMsg`] frame: a
//! 4-byte big-endian payload length (read back by `dewe_mq::read_frame`
//! and `FrameBuf`), then the payload `[PROTOCOL_VERSION, message-type,
//! body…]`. [`WireMsg`] is the one codec for every frame: it writes its
//! own length prefix ([`WireMsg::frame_into`]), and [`WireMsg::decode`]
//! reads a frame once, borrowing names and a submission's text from it.
//! Decoding checks the version byte *first*: a frame from an incompatible
//! peer is rejected as [`WireError::Version`] before any body parsing, so
//! mixed-version fleets fail loud and early instead of misinterpreting
//! bytes.
//!
//! The message structs are `#[non_exhaustive]`: future protocol
//! revisions can add fields without breaking downstream constructors,
//! which use the `new` associated functions.

use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowId};
use std::borrow::Cow;
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
    /// sends it only if the job is still running when a send takes it (a
    /// tick later at the soonest, unless another slot's send comes first);
    /// a job that ends first sends its terminal ack in this one's place. The master loses nothing by that: it already takes a terminal
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
/// (submitter → master) or a [`WireMsg::Alias`] (master → worker). The
/// `Cow` fields are borrowed from the frame by [`decode`](Self::decode),
/// and from the sender's own strings and dispatch runs when it sends.
#[derive(Clone, PartialEq)]
#[non_exhaustive]
pub enum WireMsg<'a> {
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
        name: Cow<'a, str>,
        /// The DAG in `dewe-dag` text format.
        dag: Cow<'a, str>,
    },
    /// Workflow submission (submitter → master) of the same DAG text as
    /// this connection's previous submission, which the master already
    /// holds. A connection with no accepted submission before it has
    /// nothing to repeat: the master rejects it.
    Repeat {
        /// Human-readable workflow name.
        name: Cow<'a, str>,
    },
    /// Workflow announcement (master → worker): registry mirror entry.
    Workflow {
        /// The dense workflow id.
        id: WorkflowId,
        /// Human-readable workflow name.
        name: Cow<'a, str>,
        /// The DAG in `dewe-dag` text format, owned: the `layers` benchmark
        /// builds this variant from a `String`.
        dag: String,
    },
    /// Workflow announcement (master → worker) of the DAG already announced
    /// on this connection as workflow `same_as`, an earlier id.
    Alias {
        /// The dense workflow id.
        id: WorkflowId,
        /// Human-readable workflow name.
        name: Cow<'a, str>,
        /// The earlier workflow whose DAG this one shares.
        same_as: WorkflowId,
    },
    /// A run of job dispatches that became eligible in the same master
    /// poll cycle, in one frame (master → worker), however short the run.
    /// The worker executes them in order; the batch spends one window
    /// credit per contained dispatch.
    DispatchBatch(Cow<'a, [DispatchMsg]>),
    /// The master is done and will close the connection; the worker may
    /// exit instead of reconnecting.
    Bye,
}

/// The most bytes of one peer-supplied text — a workflow name, an error
/// that quotes a peer's token — that a log line shows.
const LOGGED_BYTES: usize = 64;

/// A text from a peer, as a log line shows it: whole up to 64 bytes, else
/// its first 64 bytes cut back to a char boundary and then its full length
/// in bytes, so that what a peer sends cannot fill a log. `Display` writes
/// the text as it is, `Debug` quotes and escapes it as `str`'s does.
pub struct Clipped<'a>(pub &'a str);

impl Clipped<'_> {
    /// The part shown, and the full length when that is not all of it.
    fn parts(&self) -> (&str, Option<usize>) {
        let text = self.0;
        match text.len() {
            len if len <= LOGGED_BYTES => (text, None),
            len => (&text[..text.floor_char_boundary(LOGGED_BYTES)], Some(len)),
        }
    }
}

impl std::fmt::Display for Clipped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.parts() {
            (text, None) => f.write_str(text),
            (head, Some(len)) => write!(f, "{head}… ({len} bytes)"),
        }
    }
}

impl std::fmt::Debug for Clipped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.parts() {
            (text, None) => write!(f, "{text:?}"),
            (head, Some(len)) => write!(f, "{head:?}… ({len} bytes)"),
        }
    }
}

/// Field by field, except that a DAG text shows as its length, a batch as
/// its count and a name [`Clipped`]: a peer's frame logged whole could put
/// the frame cap's worth of its bytes in the log.
impl std::fmt::Debug for WireMsg<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireMsg::Hello { worker, generation, window } => {
                write!(
                    f,
                    "Hello {{ worker: {worker}, generation: {generation}, window: {window} }}"
                )
            }
            WireMsg::SubmitterHello => write!(f, "SubmitterHello"),
            WireMsg::Ack(ack) => write!(f, "Ack({ack:?})"),
            WireMsg::Lifecycle(msg) => write!(f, "Lifecycle({msg:?})"),
            WireMsg::Submit { name, dag } => {
                let name = Clipped(name);
                write!(f, "Submit {{ name: {name:?}, dag_bytes: {} }}", dag.len())
            }
            WireMsg::Repeat { name } => write!(f, "Repeat {{ name: {:?} }}", Clipped(name)),
            WireMsg::Workflow { id, name, dag } => {
                let name = Clipped(name);
                write!(f, "Workflow {{ id: {id:?}, name: {name:?}, dag_bytes: {} }}", dag.len())
            }
            WireMsg::Alias { id, name, same_as } => {
                let name = Clipped(name);
                write!(f, "Alias {{ id: {id:?}, name: {name:?}, same_as: {same_as:?} }}")
            }
            WireMsg::DispatchBatch(run) => {
                write!(f, "DispatchBatch {{ dispatches: {} }}", run.len())
            }
            WireMsg::Bye => write!(f, "Bye"),
        }
    }
}

impl<'a> WireMsg<'a> {
    /// Serialize into a frame payload, `[version, type, body…]`, in one
    /// allocation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len());
        self.put(&mut out);
        out
    }

    /// Append the message to `out` as a whole frame: the payload's length,
    /// 4 bytes big-endian, then the payload — the bytes
    /// `dewe_mq::write_frame` puts on the wire for [`encode`](Self::encode).
    /// At most one allocation, and none when `out` has the room.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        let len = self.payload_len();
        out.reserve(4 + len);
        put_u32(out, frame_len(len));
        self.put(out);
    }

    /// Append to `out` the length prefix and the payload up to the text of a
    /// frame carrying DAG text `dag`: a `Submit` of it when `id` is `None`,
    /// else a `Workflow` announcing it as `id`. A sender sends its shared
    /// copy of the text right after. Returns the payload length declared.
    pub(crate) fn frame_dag_head(
        out: &mut Vec<u8>,
        id: Option<WorkflowId>,
        name: &str,
        dag: &str,
    ) -> usize {
        let len = dag_payload_len(id, name, dag);
        put_u32(out, frame_len(len));
        out.push(PROTOCOL_VERSION);
        put_dag_head(out, id, name, dag);
        len
    }

    /// The payload's length, without encoding it.
    fn payload_len(&self) -> usize {
        match self {
            WireMsg::Hello { .. } => 2 + 3 * 4,
            WireMsg::SubmitterHello | WireMsg::Bye => 2,
            WireMsg::Ack(_) => ACK_FRAME - 4,
            WireMsg::Lifecycle(_) => 2 + 2 * 4 + 1,
            WireMsg::Submit { name, dag } => dag_payload_len(None, name, dag),
            WireMsg::Repeat { name } => 2 + 4 + name.len(),
            WireMsg::Workflow { id, name, dag } => dag_payload_len(Some(*id), name, dag),
            WireMsg::Alias { name, .. } => 2 + 2 * 4 + 4 + name.len(),
            WireMsg::DispatchBatch(run) => 2 + 4 + run.len() * 12,
        }
    }

    /// Append the payload to `out`: every variant's body, written once.
    fn put(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            WireMsg::Hello { worker, generation, window } => {
                out.push(T_HELLO);
                put_u32(out, *worker);
                put_u32(out, *generation);
                put_u32(out, *window);
            }
            WireMsg::SubmitterHello => out.push(T_SUBMITTER_HELLO),
            WireMsg::Ack(ack) => {
                out.push(T_ACK);
                put_u32(out, ack.job.workflow.0);
                put_u32(out, ack.job.job.0);
                put_u32(out, ack.worker);
                out.push(ack.kind.code());
                put_u32(out, ack.attempt);
            }
            WireMsg::Lifecycle(msg) => {
                out.push(T_LIFECYCLE);
                put_u32(out, msg.worker);
                put_u32(out, msg.generation);
                out.push(msg.kind.code());
            }
            WireMsg::Submit { name, dag } => {
                put_dag_head(out, None, name, dag);
                out.extend_from_slice(dag.as_bytes());
            }
            WireMsg::Repeat { name } => {
                out.push(T_REPEAT);
                put_str(out, name);
            }
            WireMsg::Workflow { id, name, dag } => {
                put_dag_head(out, Some(*id), name, dag);
                out.extend_from_slice(dag.as_bytes());
            }
            WireMsg::Alias { id, name, same_as } => {
                out.push(T_ALIAS);
                put_u32(out, id.0);
                put_u32(out, same_as.0);
                put_str(out, name);
            }
            WireMsg::DispatchBatch(run) => {
                out.push(T_DISPATCH_BATCH);
                put_u32(out, u32::try_from(run.len()).expect("batch exceeds u32 length"));
                for d in run.iter() {
                    put_u32(out, d.job.workflow.0);
                    put_u32(out, d.job.job.0);
                    put_u32(out, d.attempt);
                }
            }
            WireMsg::Bye => out.push(T_BYE),
        }
    }

    /// Parse a frame payload, once: names and a submission's text are
    /// borrowed from `frame`. The version byte is checked before anything
    /// else; see [`WireError::Version`].
    pub fn decode(frame: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let version = r.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        let msg = match r.u8()? {
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
            T_SUBMIT => {
                let name = r.str()?;
                WireMsg::Submit { name: name.into(), dag: r.str()?.into() }
            }
            T_REPEAT => WireMsg::Repeat { name: r.str()?.into() },
            T_WORKFLOW => {
                let id = WorkflowId(r.u32()?);
                let name = r.str()?;
                WireMsg::Workflow { id, name: name.into(), dag: r.str()?.to_owned() }
            }
            T_ALIAS => {
                let id = WorkflowId(r.u32()?);
                let same_as = WorkflowId(r.u32()?);
                if same_as >= id {
                    return Err(WireError::BadPayload("alias of a workflow not earlier"));
                }
                WireMsg::Alias { id, name: r.str()?.into(), same_as }
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
                WireMsg::DispatchBatch(batch.into())
            }
            T_BYE => WireMsg::Bye,
            other => return Err(WireError::UnknownType(other)),
        };
        Ok(msg)
    }
}

/// Bytes in a framed [`WireMsg::Ack`]: the 4-byte length prefix and the
/// payload — version, type, workflow, job, worker, kind, attempt. Every ack
/// frame is this long, so a worker link can overwrite one queued ack with
/// another in place.
pub(crate) const ACK_FRAME: usize = 4 + 2 + 4 + 4 + 4 + 1 + 4;

/// The payload length of a frame carrying DAG text `dag`; see
/// [`WireMsg::frame_dag_head`].
fn dag_payload_len(id: Option<WorkflowId>, name: &str, dag: &str) -> usize {
    2 + id.map_or(0, |_| 4) + 4 + name.len() + 4 + dag.len()
}

/// A DAG frame's body up to its text: type, the announced id if any, the
/// name, and the text's length.
fn put_dag_head(out: &mut Vec<u8>, id: Option<WorkflowId>, name: &str, dag: &str) {
    match id {
        None => out.push(T_SUBMIT),
        Some(id) => {
            out.push(T_WORKFLOW);
            put_u32(out, id.0);
        }
    }
    put_str(out, name);
    put_len(out, dag);
}

/// A payload length as its prefix declares it. Nothing sent comes near
/// 4 GiB (DAG frames are held to the frame cap before they are framed);
/// a frame that did would declare a length every receiver's cap refuses.
fn frame_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
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

    impl WireMsg<'_> {
        /// The message with nothing borrowed, for a test that keeps what it
        /// decoded past the frame.
        pub(crate) fn into_owned(self) -> WireMsg<'static> {
            let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
            match self {
                WireMsg::Hello { worker, generation, window } => {
                    WireMsg::Hello { worker, generation, window }
                }
                WireMsg::SubmitterHello => WireMsg::SubmitterHello,
                WireMsg::Ack(ack) => WireMsg::Ack(ack),
                WireMsg::Lifecycle(msg) => WireMsg::Lifecycle(msg),
                WireMsg::Submit { name, dag } => WireMsg::Submit { name: own(name), dag: own(dag) },
                WireMsg::Repeat { name } => WireMsg::Repeat { name: own(name) },
                WireMsg::Workflow { id, name, dag } => {
                    WireMsg::Workflow { id, name: own(name), dag }
                }
                WireMsg::Alias { id, name, same_as } => {
                    WireMsg::Alias { id, name: own(name), same_as }
                }
                WireMsg::DispatchBatch(run) => WireMsg::DispatchBatch(Cow::Owned(run.into_owned())),
                WireMsg::Bye => WireMsg::Bye,
            }
        }
    }

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
            WireMsg::DispatchBatch(vec![DispatchMsg::new(job, 1)].into()),
            WireMsg::DispatchBatch(
                vec![
                    DispatchMsg::new(job, 1),
                    DispatchMsg::new(EnsembleJobId::new(WorkflowId(7), JobId(12)), 3),
                ]
                .into(),
            ),
            WireMsg::DispatchBatch(Vec::new().into()),
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
        // A DAG frame cut anywhere: inside the id, a length prefix, the
        // name, the text.
        let good =
            WireMsg::Workflow { id: WorkflowId(1), name: "n".into(), dag: "JOB a".into() }.encode();
        for cut in 2..good.len() {
            assert_eq!(WireMsg::decode(&good[..cut]), Err(WireError::Truncated), "cut at {cut}");
        }
        // A length prefix that promises more than the frame holds.
        let mut long = good.clone();
        let dag_len_at = good.len() - "JOB a".len() - 4;
        long[dag_len_at..dag_len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(WireMsg::decode(&long), Err(WireError::Truncated));
        // Invalid UTF-8 in the name and in the text.
        for at in [good.len() - 1, dag_len_at - 1] {
            let mut bad = good.clone();
            bad[at] = 0xFF;
            assert_eq!(WireMsg::decode(&bad), Err(WireError::BadPayload("utf-8 string")));
        }
        let submit = WireMsg::Submit { name: "n".into(), dag: "d".into() }.encode();
        assert_eq!(WireMsg::decode(&submit[..submit.len() - 1]), Err(WireError::Truncated));
    }

    #[test]
    fn a_run_of_one_is_a_batch_four_bytes_longer_than_the_retired_frame() {
        let d = DispatchMsg::new(EnsembleJobId::new(WorkflowId(1), JobId(2)), 1);
        let one = WireMsg::DispatchBatch(Cow::Borrowed(&[d])).encode();
        assert_eq!(one.len(), 2 + 12 + 4);
        assert_eq!(WireMsg::decode(&one), Ok(WireMsg::DispatchBatch(vec![d].into())));
    }

    #[test]
    fn batch_frame_with_corrupt_count_fails_without_allocating() {
        // A frame claiming u32::MAX dispatches but carrying two must be
        // rejected as Truncated — and must not pre-allocate for the lie.
        let job = EnsembleJobId::new(WorkflowId(1), JobId(2));
        let run = [DispatchMsg::new(job, 1), DispatchMsg::new(job, 2)];
        let mut bytes = WireMsg::DispatchBatch(Cow::Borrowed(&run)).encode();
        bytes[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn dag_frames_decode_borrowed_and_frame_as_their_head_then_the_text() {
        let submit = WireMsg::Submit { name: "montage".into(), dag: "# dag é text".into() };
        let bytes = submit.encode();
        let Ok(WireMsg::Submit { name: Cow::Borrowed(_), dag: Cow::Borrowed(dag) }) =
            WireMsg::decode(&bytes)
        else {
            panic!("a submission decodes borrowed");
        };
        assert!(bytes.as_ptr_range().contains(&dag.as_ptr()), "the text points into the frame");
        let announce = WireMsg::Workflow { id: WorkflowId(9), name: "".into(), dag: "".into() };
        for (msg, id, name, dag) in
            [(&submit, None, "montage", "# dag é text"), (&announce, Some(WorkflowId(9)), "", "")]
        {
            let mut frame = Vec::new();
            let len = WireMsg::frame_dag_head(&mut frame, id, name, dag);
            frame.extend_from_slice(dag.as_bytes());
            assert_eq!(frame, framed(msg.clone()), "head + text is the whole frame");
            assert_eq!(len, msg.encode().len());
        }
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

    /// Every v5 frame, pinned: the bytes of each message type behind their
    /// length prefix, as the runtime sends them, and each decodes back.
    #[test]
    fn every_v5_frame_is_pinned_byte_for_byte() {
        let job = |j: u32| EnsembleJobId::new(WorkflowId(7), JobId(j));
        let ack = AckMsg::new(
            EnsembleJobId::new(WorkflowId(0x0102_0304), JobId(5)),
            6,
            AckKind::Completed,
            0x0708_090a,
        );
        let table: [(WireMsg, Vec<u8>); 10] = [
            (
                WireMsg::Hello { worker: 3, generation: 2, window: 64 },
                vec![0, 0, 0, 14, 5, 0x01, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 64],
            ),
            (WireMsg::SubmitterHello, vec![0, 0, 0, 2, 5, 0x02]),
            (
                WireMsg::Ack(ack),
                vec![0, 0, 0, 19, 5, 0x03, 1, 2, 3, 4, 0, 0, 0, 5, 0, 0, 0, 6, 1, 7, 8, 9, 10],
            ),
            (
                WireMsg::Lifecycle(LifecycleMsg::new(3, 2, LifecycleKind::Heartbeat)),
                vec![0, 0, 0, 11, 5, 0x04, 0, 0, 0, 3, 0, 0, 0, 2, 1],
            ),
            (
                WireMsg::Submit { name: "m".into(), dag: "JOB é".into() },
                [&[0, 0, 0, 17, 5, 0x05, 0, 0, 0, 1][..], b"m", &[0, 0, 0, 6], "JOB é".as_bytes()]
                    .concat(),
            ),
            (
                WireMsg::Repeat { name: "m-2".into() },
                [&[0, 0, 0, 9, 5, 0x07, 0, 0, 0, 3][..], b"m-2"].concat(),
            ),
            (
                WireMsg::Workflow { id: WorkflowId(9), name: "m".into(), dag: "JOB a".into() },
                [
                    &[0, 0, 0, 20, 5, 0x81, 0, 0, 0, 9, 0, 0, 0, 1][..],
                    b"m",
                    &[0, 0, 0, 5],
                    b"JOB a",
                ]
                .concat(),
            ),
            (
                WireMsg::Alias { id: WorkflowId(9), name: "m-9".into(), same_as: WorkflowId(2) },
                [&[0, 0, 0, 17, 5, 0x85, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 3][..], b"m-9"].concat(),
            ),
            (
                WireMsg::DispatchBatch(
                    vec![DispatchMsg::new(job(11), 1), DispatchMsg::new(job(12), 3)].into(),
                ),
                vec![
                    0, 0, 0, 30, 5, 0x84, 0, 0, 0, 2, // two dispatches
                    0, 0, 0, 7, 0, 0, 0, 11, 0, 0, 0, 1, // workflow 7, job 11, attempt 1
                    0, 0, 0, 7, 0, 0, 0, 12, 0, 0, 0, 3, // workflow 7, job 12, attempt 3
                ],
            ),
            (WireMsg::Bye, vec![0, 0, 0, 2, 5, 0x83]),
        ];
        for (msg, frame) in &table {
            assert_eq!(&framed(msg.clone()), frame, "{msg:?}");
            assert_eq!(WireMsg::decode(&frame[4..]).as_ref(), Ok(msg));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Every framed ack is [`ACK_FRAME`] bytes, the encoder's behind
        /// their length prefix, and decodes to the ack.
        #[test]
        fn an_ack_frame_is_the_encoded_ack_framed(ack in ack()) {
            let mut frame = Vec::new();
            WireMsg::Ack(ack).frame_into(&mut frame);
            prop_assert_eq!(frame.len(), ACK_FRAME);
            prop_assert_eq!(&frame, &framed(WireMsg::Ack(ack)));
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

    /// A frame a peer sent is logged as its `Debug`: a text shows as its
    /// length, whatever its size.
    #[test]
    fn a_dag_frame_debug_is_compact() {
        let text = "J".repeat(1 << 20);
        let submit = WireMsg::Submit { name: "w".into(), dag: text.as_str().into() };
        let s = format!("{submit:?}");
        assert!(s.len() < 200 && s.contains("dag_bytes: 1048576"), "{s}");
        let announce = WireMsg::Workflow { id: WorkflowId(3), name: "w".into(), dag: text.clone() };
        assert!(format!("{announce:?}").len() < 200);
        // A 1 MiB name, in every variant that carries one, shows as its
        // first 64 bytes and its length.
        let name = "n".repeat(1 << 20);
        let named = [
            WireMsg::Submit { name: name.as_str().into(), dag: text.as_str().into() },
            WireMsg::Repeat { name: name.as_str().into() },
            WireMsg::Workflow { id: WorkflowId(3), name: name.as_str().into(), dag: text.clone() },
            WireMsg::Alias {
                id: WorkflowId(3),
                name: name.as_str().into(),
                same_as: WorkflowId(1),
            },
        ];
        let shown = format!("name: \"{}\"… (1048576 bytes)", &name[..64]);
        for msg in named {
            let s = format!("{msg:?}");
            assert!(s.len() < 200 && s.contains(&shown), "{s}");
        }
    }

    /// A clipped text is cut on a char boundary at or before its 64th
    /// byte; one of 64 bytes or fewer shows whole, as `str` shows it.
    #[test]
    fn a_clipped_text_is_cut_on_a_char_boundary() {
        assert_eq!(format!("{:?}", Clipped("a\tb")), "\"a\\tb\"");
        assert_eq!(Clipped(&"x".repeat(64)).to_string(), "x".repeat(64));
        // 63 bytes, then a 2-byte char across the cut.
        let text = format!("{}é and more", "x".repeat(63));
        let len = text.len();
        assert_eq!(Clipped(&text).to_string(), format!("{}… ({len} bytes)", "x".repeat(63)));
        assert_eq!(
            format!("{:?}", Clipped(&text)),
            format!("\"{}\"… ({len} bytes)", "x".repeat(63))
        );
    }
}
