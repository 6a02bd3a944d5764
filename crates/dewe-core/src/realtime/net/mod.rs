//! The TCP transport: a networked master/worker runtime over the same
//! serve loop as the in-process bus.
//!
//! [`TcpMaster`] implements [`Transport`] (and therefore
//! `MasterTransport`), so `spawn_master_on` drives an entire remote
//! fleet with the exact master loop — LivenessTable lifecycle, retry
//! machinery, WAL journal — that the in-process oracle paths exercise.
//! [`TcpWorkerLink`] implements [`WorkerTransport`], so `spawn_worker_on`
//! runs the unchanged slot/heartbeat loops against a remote master.
//!
//! ## Wire model
//!
//! Every connection speaks length-prefixed [`WireMsg`] frames
//! (`dewe_mq::read_frame` / `write_frame`); the first frame after
//! `accept` is a handshake — [`WireMsg::Hello`] for workers,
//! [`WireMsg::SubmitterHello`] for submission clients — and any version
//! skew or garbage drops the connection before it touches master state.
//!
//! ## Threads, and what wakes them
//!
//! Nothing here sleeps on a timer or polls a flag. Each connection has a
//! reader blocked in `read` and a writer blocked on its outbound topic;
//! a writer takes one frame, then every other frame already queued,
//! writes them all and flushes once before it blocks again, so a burst
//! is one `send(2)` and a lone frame leaves at once. Readers ring the
//! master's doorbell ([`Topic::kick`] on the ack topic, where the serve
//! loop sleeps) when a submission or lifecycle message arrives. The
//! accept thread blocks in `accept` and owns every connection thread;
//! [`TcpMaster::shutdown`] wakes it with a connection and returns once
//! it has joined them all — every `Bye` flushed, every socket closed. On
//! the worker side the reader kicks the outbound topic when its
//! connection dies, and the writer leaves an unflushed batch with the
//! link for the next connection to send first.
//!
//! ## Backpressure
//!
//! Each worker offers a dispatch *window* in its Hello: the maximum
//! unsettled dispatches the master may hold on that connection
//! ([`dewe_mq::SendWindow`] credit). A terminal acknowledgment
//! (Completed/Failed) or an explicit [`WireMsg::Return`] refunds one
//! credit; dispatches that find no credit anywhere queue inside the
//! master transport and drain as credit frees up. Workers flush their
//! acks a batch at a time, so refunds arrive in bursts: the reader
//! releases a whole read burst of credit before it drains the pending
//! queue, and the queue leaves as [`WireMsg::DispatchBatch`] frames sized
//! by the burst, not one frame per ack. A slow worker therefore throttles
//! only itself — the paper's pull-based competition, recreated over
//! push-with-credit.
//!
//! ## Registry mirroring
//!
//! Networked workers cannot share the master's in-memory [`Registry`],
//! so the master broadcasts every accepted workflow as a
//! [`WireMsg::Workflow`] announcement (and replays the full set to
//! late-joining workers at Hello). The worker link inserts each DAG into
//! its local registry mirror — its stand-in for the paper's shared file
//! system. With a state directory configured, announcements are also
//! spooled to disk (`wf-<id>.dag`) so a restarted master process can
//! rebuild its registry before WAL recovery.
//!
//! ## Ingest
//!
//! A DAG crosses this module as text, and each end keeps a
//! content-addressed `DagStore`: a text is parsed the first time its
//! bytes are seen and every byte-identical submission, announcement or
//! spool file after that shares the one `Arc<Workflow>`. The master never
//! serialises a workflow that arrived as text — the submitter's bytes are
//! what is spooled and announced — and the store's copy of the text is
//! the only long-lived one: announce frames and the replay log hold it by
//! `Arc`, and the two DAG-bearing frames are decoded in place
//! ([`DagFrame`]).

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dewe_dag::{Workflow, WorkflowId};
use dewe_mq::{
    bind_reuse, queue_frame_split, read_frame, write_frame, write_frame_split, SendWindow, Topic,
    Transport, WorkerTransport, DEFAULT_MAX_FRAME,
};
use parking_lot::Mutex;

use super::bus::Registry;
use super::dagstore::DagStore;
use crate::protocol::{
    AckKind, AckMsg, DagFrame, DispatchMsg, LifecycleMsg, SubmissionMsg, WireMsg, WorkflowAnnounce,
};

mod master;
mod spool;
mod worker;

pub use master::{TcpMaster, TcpMasterOptions};
pub use spool::submit_over_tcp;
pub use worker::{TcpWorkerLink, TcpWorkerOptions};

/// One outbound frame: `head`, then `text` when the frame is a workflow
/// announcement. The text is the DAG store's copy, so queueing an
/// announcement on every connection and keeping it for replay costs a
/// reference each, not megabytes each.
#[derive(Clone)]
struct OutFrame {
    head: Vec<u8>,
    text: Option<Arc<str>>,
}

impl OutFrame {
    /// Queue the frame in `w`; the connection's writer flushes.
    fn queue_to(&self, w: &mut impl Write) -> io::Result<()> {
        queue_frame_split(w, &self.head, self.text.as_deref().unwrap_or_default().as_bytes())
    }
}

#[cfg(test)]
mod testutil {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    pub(super) fn wf(name: &str, jobs: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new(name);
        for i in 0..jobs {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        Arc::new(b.finish().unwrap())
    }

    /// A fresh scratch directory, unique to `tag` and this process.
    pub(super) fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dewe-net-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub(super) fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
