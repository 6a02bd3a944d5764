//! Transport abstraction: the master/worker wiring, minus the wires.
//!
//! DEWE v2's daemons (paper §III.C) only ever touch the message-queue
//! surface: the master pulls submissions/acks/lifecycle traffic and
//! publishes dispatches; a worker pulls dispatches and publishes
//! acks/lifecycle traffic. These two traits capture exactly that surface,
//! so the serve loops in `dewe-core` know nothing of sockets: its TCP
//! runtime implements them, in one process or across machines, and a test
//! can stand in for either side.
//!
//! The message types stay associated, not concrete: this crate knows
//! queues, not workflows. `dewe-core` pins them to its protocol types
//! when it implements the traits.

use std::time::Duration;

/// The master daemon's view of the fabric.
///
/// One extra hook beyond the paper's three topics: [`announce`]
/// (master → workers) broadcasts each accepted workflow's definition so
/// every worker can mirror the registry ("the shared file system")
/// without sharing one: a worker is told a workflow before any of its
/// jobs.
///
/// [`announce`]: Transport::announce
pub trait Transport: Send + Sync + 'static {
    /// Workflow submission payload (submission app → master).
    type Submission: Send;
    /// Job dispatch payload (master → workers).
    type Dispatch: Send;
    /// Job acknowledgment payload (workers → master).
    type Ack: Send;
    /// Worker lifecycle payload (workers → master).
    type Lifecycle: Send;
    /// Workflow announcement payload (master → workers).
    type Announce: Send;

    /// Non-blocking pull from the submission topic.
    fn try_pull_submission(&self) -> Option<Self::Submission>;

    /// Blocking pull from the ack topic, bounded by `timeout` — an upper
    /// bound, not a promise to wait it out. This is where the serve loop
    /// sleeps, so a transport returns `None` early whenever something the
    /// loop serves arrived on another topic (a submission, a lifecycle
    /// message) or somebody rang [`wake`](Transport::wake); the caller goes
    /// round its loop and finds it. `None` therefore means "nothing to
    /// pull right now", never "`timeout` has passed".
    fn pull_ack(&self, timeout: Duration) -> Option<Self::Ack>;

    /// Ring the doorbell: the [`pull_ack`](Transport::pull_ack) in progress
    /// — or, if none is, the next one — returns now, with an ack if one is
    /// queued and `None` if not. How another thread gets the serve loop,
    /// which sleeps on nothing else, to look at what it put somewhere else
    /// (a submission, a lifecycle message, a stop flag).
    fn wake(&self);

    /// Drain up to `max` further acks without blocking, appending to
    /// `out`; returns how many were taken (the ack-burst batch grab).
    fn pull_ack_batch(&self, out: &mut Vec<Self::Ack>, max: usize) -> usize;

    /// Non-blocking pull from the worker lifecycle topic.
    fn try_pull_lifecycle(&self) -> Option<Self::Lifecycle>;

    /// Publish a dispatch. A transport with per-worker backpressure may
    /// park it in a pending queue until a worker has window credit —
    /// delivery order is preserved, delivery time is not guaranteed.
    ///
    /// `_unused` was the shard: unused since PR 14; dropped with the next `benchmark/` change.
    fn publish_dispatch(&self, _unused: usize, dispatch: Self::Dispatch);

    /// Publish a run of dispatches that became eligible in the same poll
    /// cycle, draining `batch`. Semantically identical to publishing
    /// each in order via [`publish_dispatch`](Transport::publish_dispatch)
    /// — the default does exactly that — but a wire transport may
    /// coalesce the run into one frame and debit its backpressure window
    /// once for the whole batch. Takes `&mut Vec` so a hot serve loop can
    /// reuse one run buffer across poll cycles.
    ///
    /// `_unused` was the shard: unused since PR 14; dropped with the next `benchmark/` change.
    fn publish_dispatch_batch(&self, _unused: usize, batch: &mut Vec<Self::Dispatch>) {
        for dispatch in batch.drain(..) {
            self.publish_dispatch(0, dispatch);
        }
    }

    /// Broadcast a workflow announcement to current and future workers.
    /// Called by the master after registering the workflow, before any
    /// of its jobs are dispatched. An `Err` — the transport could not make
    /// the announcement durable, say — ends the master's serve loop before
    /// the workflow is journaled.
    fn announce(&self, announce: Self::Announce) -> std::io::Result<()>;

    /// True once the ack side is shut down and drained — the master's
    /// run-forever exit condition.
    fn ack_closed(&self) -> bool;
}

/// A worker daemon's view of the fabric: the other end of [`Transport`].
///
/// A worker hands nothing back. A dispatch it pulled and never settled with
/// a terminal ack is the fabric's to recover: when the worker's connection
/// ends, everything it held goes back on the queue, started or not —
/// RabbitMQ's rule for a dead consumer's unacknowledged messages.
pub trait WorkerTransport: Send + Sync + 'static {
    /// Job dispatch payload (master → this worker).
    type Dispatch: Send;
    /// Job acknowledgment payload (this worker → master).
    type Ack: Send;
    /// Worker lifecycle payload (this worker → master).
    type Lifecycle: Send;

    /// Blocking pull of the next dispatch, bounded by `timeout`.
    fn pull_dispatch(&self, timeout: Duration) -> Option<Self::Dispatch>;

    /// True once the dispatch side is shut down and drained, or closed —
    /// the worker's exit condition.
    fn dispatch_closed(&self) -> bool;

    /// Close the dispatch side for good — no sleeping slot can miss it:
    /// every `pull_dispatch` in progress or made later returns `None` at
    /// once. Acks and lifecycle messages still go out.
    fn close_dispatch(&self);

    /// Publish a job acknowledgment.
    fn publish_ack(&self, ack: Self::Ack);

    /// Publish a lifecycle announcement (register/heartbeat/drain).
    fn publish_lifecycle(&self, msg: Self::Lifecycle);
}
