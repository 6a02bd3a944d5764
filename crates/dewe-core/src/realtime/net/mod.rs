//! The TCP transport: the fabric every master and worker runs over, in
//! one process or across machines.
//!
//! [`TcpMaster`] implements [`Transport`] (and therefore
//! `MasterTransport`), so `spawn_master_on` drives a fleet with the one
//! master loop — LivenessTable lifecycle, retry machinery, WAL journal.
//! [`TcpWorkerLink`] implements [`WorkerTransport`], so `spawn_worker_on`
//! runs the slot/heartbeat loops against it.
//!
//! ## Wire model
//!
//! Every connection speaks length-prefixed [`WireMsg`] frames, none over
//! `dewe_mq::DEFAULT_MAX_FRAME`: the master and the worker link cut what
//! they read into frames where it landed (`dewe_mq::FrameBuf`) and decode
//! each once; every sender has [`WireMsg`] frame what it sends, length
//! prefix included — the master into its per-connection queue, the link
//! into one byte buffer it writes whole, a submitter into a buffer it
//! writes ahead of each DAG text. The first frame after `accept` is a
//! handshake — [`WireMsg::Hello`] for workers, [`WireMsg::SubmitterHello`]
//! for submission clients — and any version skew or garbage drops the
//! connection before it touches master state.
//!
//! ## One loop, and what wakes it
//!
//! The master's endpoint has no thread. Whichever thread is inside
//! [`Transport::pull_ack`] — the serve loop's — sleeps in `poll(2)` over
//! the listener and every connection, and on waking makes one *turn*:
//! accept whoever is waiting; one read of at most 64 KiB from each readable
//! connection, cut into frames where the bytes landed (`dewe_mq::FrameBuf`)
//! and queued for the serve loop; a write to each connection that can take
//! more of what it is owed; then, every refund of the turn counted, what
//! waited for credit. So an ack is read, journaled, applied and answered on
//! one thread, and what a peer that floods can put between another peer and
//! its turn is one read. Nothing blocks on a socket: a frame is written when
//! it is published, from the publisher's thread, and only the part a socket
//! would not take waits, in order, for `POLLOUT` — a peer that stops reading
//! costs the others nothing. The other `Transport` pulls only pop what turns
//! queued; `pull_ack` returns `None` at once when a turn queued a submission
//! or a lifecycle message or [`Transport::wake`] rang (a kill rings it), and
//! otherwise by its deadline, the serve loop's next job timeout or lease
//! expiry if it has one. Nothing sleeps on a timer or polls a flag.
//!
//! Any thread may call in; everything shared sits under one mutex that is
//! not held across `poll`. A caller that changes what a sleeper would want
//! to know — input queued by [`TcpMaster::worker_conns`]'s non-sleeping
//! turn, bytes left over from a publish, a rung doorbell — writes a byte to
//! a socket pair the sleeper polls too. [`TcpMaster::shutdown`] wakes it the
//! same way, for good, takes the connections over, and returns with each
//! `Bye` flushed (two seconds' grace for a peer slow to read) and every
//! socket closed.
//!
//! ## The worker link reads on the slot that waits
//!
//! A [`TcpWorkerLink`]'s one thread, the writer, connects, says `Hello`,
//! sends what the slots leave to it and reconnects; it reads nothing. The
//! outbox is one byte buffer that publishers frame their acks into on the
//! stack (an ack frame is a fixed 23 bytes); whoever sends swaps it for the
//! buffer sent last, emptied, and sends all that waited with one
//! `write_all` (a burst of acks is one `send(2)`), so once both buffers have
//! grown to a burst a job's acks cost the link no allocation. Who sends: a
//! slot in [`WorkerTransport::pull_dispatch`] that finds nothing to run, or
//! that goes into a job with at least half the window it offered queued as
//! frames that settle a dispatch, unless someone is sending already; the
//! writer when a publish rings it on an idle link and, while slots take
//! dispatches, at the end of a tick (1 ms) for frames queued through the
//! whole of the one before — so a tick never sends the `Running` of a job
//! shorter than a tick, and sends a longer job's within about two. A slot in
//! [`WorkerTransport::pull_dispatch`] with nothing queued takes the *reader
//! role* if it is free, sleeps in `poll(2)` until the socket or the link's
//! wake-up is readable (a worker's slot pulls with no deadline), reads
//! once, mirrors announcements, queues dispatches, returns the first and
//! hands the rest — or the role — to one waiting slot. A terminal ack
//! published while its job's `Running` ack still waits to be sent
//! overwrites that frame's bytes in place, so a job that ends before its
//! start leaves the worker is one ack, sent where its `Running` would have
//! been: the master reads no
//! checkout whose clock would stop in the same burst, and still reads the
//! end ahead of anything queued after the start, a `Drain` above all. A new
//! connection first sends what the last may not have delivered: its failed
//! batch, then its last `window` frames that settled a dispatch, kept as
//! fixed 23-byte records.
//! [`WorkerTransport::close_dispatch`] rings that wake-up, a socket pair like
//! the master's, for good.
//!
//! ## Backpressure
//!
//! Each worker offers a dispatch *window* in its Hello; its credit is the
//! window less the `(job, attempt)` pairs its connection holds. A terminal
//! ack (Completed/Failed) refunds the connection holding that pair,
//! whichever one it arrives on, once; publishing a job's next attempt
//! reclaims the earlier ones, so a lost dispatch holds credit only until
//! its deadline; a connection that drops gives back every pair it holds.
//! Dispatches that find no credit anywhere queue inside the master
//! transport and drain as credit frees up. Workers flush
//! their acks a batch at a time, so refunds arrive in bursts: a turn
//! releases every read burst of credit before it drains the pending queue,
//! and the queue leaves as [`WireMsg::DispatchBatch`] frames sized by the
//! burst, not one frame per ack. A slow worker therefore throttles only
//! itself — the paper's pull-based competition, recreated over
//! push-with-credit.
//!
//! ## Registry mirroring
//!
//! Workers do not share the master's in-memory [`Registry`], so the master
//! broadcasts every accepted workflow as a [`WireMsg::Workflow`]
//! announcement (and replays the full set to late-joining workers at
//! Hello). The worker link inserts each DAG into its local registry mirror
//! — its stand-in for the paper's shared file system. With a state
//! directory configured, announcements are also spooled to disk
//! (`wf-<id>.dag`) so a restarted master process can rebuild its registry
//! before WAL recovery; a takeover announces what it loaded under the names
//! it was spooled with and writes none of it again.
//!
//! ## Ingest: a DAG crosses each hop once
//!
//! A DAG crosses this module as text, and a byte-identical text crosses
//! each hop once; every later copy is a reference to the first. A
//! submitter sends a text that is its previous submission's again as a
//! [`WireMsg::Repeat`] of just the name, which the master resolves to the
//! workflow that submission produced. The master keeps one
//! content-addressed `DagStore`, under the endpoint's one mutex like the
//! rest of its state: a text is parsed the first time its bytes are seen,
//! and every byte-identical submission or spool file after that shares the
//! one `Arc<Workflow>`. It never serialises a workflow that arrived as text
//! — the submitter's bytes are what is spooled and announced — and the
//! store's copy of the text is the only long-lived one: announce frames and
//! the replay log hold it by `Arc`, behind a head framed alone
//! (`WireMsg::frame_dag_head`), and a submission's text is decoded in place.
//! The first announcement of an
//! `Arc<Workflow>` carries the text; every later one is a
//! [`WireMsg::Alias`] of that first id, which the store keeps in the
//! workflow's entry, and its spool entry a reference to that id's entry.
//! So each text a worker receives from one master is distinct: the link
//! parses it, and mirrors an alias as the workflow it already holds.
//! The worker keeps no store. A text whose frame would be over the cap is
//! never sent: `submit_over_tcp` refuses to submit it (`InvalidInput`), and
//! `announce` to announce one a spool entry held (`InvalidData`).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dewe_dag::{parse_workflow, EnsembleJobId, Workflow, WorkflowId};
use dewe_mq::{
    poll, FrameBuf, PollFd, Transport, WorkerTransport, DEFAULT_MAX_FRAME, POLLIN, POLLOUT,
};
use parking_lot::{Condvar, Mutex, MutexGuard};

use super::dagstore::{Announced, DagStore};
use super::registry::Registry;
use crate::protocol::{
    AckKind, AckMsg, Clipped, DispatchMsg, LifecycleMsg, SubmissionMsg, WireMsg, WorkflowAnnounce,
};

mod master;
mod spool;
mod worker;

pub use master::{TcpMaster, TcpMasterOptions};
pub use spool::submit_over_tcp;
pub use worker::{TcpWorkerLink, TcpWorkerOptions};

/// The most one read takes off a connection: on the master, what a peer that
/// never stops sending can put between another and its turn.
const READ_BOUND: usize = 64 * 1024;

/// A doorbell for a thread asleep in `poll(2)` over `.0`: a byte written to
/// `.1` returns every such `poll`. Drained by whoever hears it, unless it
/// rang for good: then no `poll` over it sleeps again.
struct Wake(UnixStream, UnixStream);

impl Wake {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self(rx, tx))
    }

    fn ring(&self) {
        let _ = (&self.1).write(&[1]); // Full: unread wake-ups are waiting.
    }

    fn drain(&self) {
        while matches!((&self.0).read(&mut [0; 64]), Ok(1..)) {}
    }
}
