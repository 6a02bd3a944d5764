//! The message bus (typed topics) and the shared workflow registry.

use crate::protocol::{AckMsg, DispatchMsg, LifecycleMsg, SubmissionMsg, WorkflowAnnounce};
use dewe_dag::{Workflow, WorkflowId};
use dewe_mq::{Topic, Transport, WorkerTransport};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// The DEWE v2 topics as typed queues (the in-process RabbitMQ): the
/// paper's three (submission/dispatch/ack) plus the worker lifecycle
/// topic added by the liveness plane.
///
/// Cloning shares the underlying topics, like every daemon connecting to
/// the same broker endpoint.
#[derive(Clone, Default)]
pub struct MessageBus {
    /// Workflow submission topic (submission app → master).
    pub submission: Topic<SubmissionMsg>,
    /// Job dispatching topic (master → workers). With a sharded master
    /// this is the fallback for workers not pinned to a shard.
    pub dispatch: Topic<DispatchMsg>,
    /// Per-shard dispatch topics (sharded master → per-shard worker
    /// pools). Empty on an un-sharded bus.
    pub dispatch_shards: Vec<Topic<DispatchMsg>>,
    /// Job acknowledgment topic (workers → master).
    pub ack: Topic<AckMsg>,
    /// Worker lifecycle topic (workers → master): registration,
    /// heartbeats, and drain announcements for the liveness plane.
    pub lifecycle: Topic<LifecycleMsg>,
}

impl MessageBus {
    /// Fresh bus with empty topics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh bus with `shards` per-shard dispatch topics, for fanning a
    /// sharded master's work out to dedicated worker pools.
    pub fn sharded(shards: usize) -> Self {
        Self { dispatch_shards: (0..shards).map(|_| Topic::default()).collect(), ..Self::default() }
    }

    /// The dispatch topic serving `shard`: its dedicated topic when the
    /// bus has one, otherwise the shared fallback topic (so un-sharded
    /// buses and out-of-range shards keep working through `dispatch`).
    pub fn dispatch_topic(&self, shard: usize) -> &Topic<DispatchMsg> {
        self.dispatch_shards.get(shard).unwrap_or(&self.dispatch)
    }

    /// Close every topic, releasing blocked daemons.
    pub fn shutdown(&self) {
        self.submission.close();
        self.dispatch.close();
        for t in &self.dispatch_shards {
            t.close();
        }
        self.ack.close();
        self.lifecycle.close();
    }
}

/// The in-process bus *is* a master transport: the serve loop drives it
/// through the same trait surface the TCP runtime implements, so the
/// oracle paths and a networked fleet share one master implementation.
/// Announcements are dropped — in-process workers share the [`Registry`]
/// object, so there is nothing to mirror.
impl Transport for MessageBus {
    type Submission = SubmissionMsg;
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;
    type Announce = WorkflowAnnounce;

    fn try_pull_submission(&self) -> Option<SubmissionMsg> {
        self.submission.try_pull()
    }

    fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
        self.ack.pull_timeout(timeout)
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        self.ack.try_pull_batch(out, max)
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.lifecycle.try_pull()
    }

    fn publish_dispatch(&self, shard: usize, dispatch: DispatchMsg) {
        self.dispatch_topic(shard).publish(dispatch);
    }

    fn announce(&self, _announce: WorkflowAnnounce) {}

    fn ack_closed(&self) -> bool {
        self.ack.is_closed()
    }
}

/// One worker's view of the in-process bus: the [`WorkerTransport`] the
/// thread-pool worker daemon drives, pinned (or not) to a shard topic.
/// The TCP runtime's `TcpWorkerLink` implements the same trait, so the
/// worker slot/heartbeat loops are written once.
#[derive(Clone)]
pub struct BusWorkerLink {
    bus: MessageBus,
    shard: Option<usize>,
}

impl BusWorkerLink {
    /// A link over `bus`, pulling `shard`'s dispatch topic (`None` pulls
    /// the shared topic — the only source of an un-sharded master).
    pub fn new(bus: MessageBus, shard: Option<usize>) -> Self {
        Self { bus, shard }
    }

    fn dispatch_topic(&self) -> &Topic<DispatchMsg> {
        match self.shard {
            Some(shard) => self.bus.dispatch_topic(shard),
            None => &self.bus.dispatch,
        }
    }
}

impl WorkerTransport for BusWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        self.dispatch_topic().pull_timeout(timeout)
    }

    fn dispatch_closed(&self) -> bool {
        self.dispatch_topic().is_closed()
    }

    fn redeliver(&self, dispatch: DispatchMsg) {
        // The broker redelivers the unacknowledged checkout (RabbitMQ
        // semantics): back onto the same topic for another worker.
        self.dispatch_topic().publish(dispatch);
    }

    fn publish_ack(&self, ack: AckMsg) {
        self.bus.ack.publish(ack);
    }

    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.bus.lifecycle.publish(msg);
    }
}

/// The stand-in for the shared file system's workflow folders: workers look
/// up the DAG (and, conceptually, binaries and data paths) of a dispatched
/// job by its workflow id. The master inserts each workflow *before*
/// publishing any of its jobs, so lookups by dispatch consumers never miss.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<Vec<Arc<Workflow>>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the workflow for `id`. Ids are assigned densely by the
    /// master in submission order.
    pub fn insert(&self, id: WorkflowId, workflow: Arc<Workflow>) {
        let mut inner = self.inner.write();
        assert_eq!(inner.len(), id.index(), "registry insertions must be dense and in order");
        inner.push(workflow);
    }

    /// Look up a workflow.
    pub fn get(&self, id: WorkflowId) -> Option<Arc<Workflow>> {
        self.inner.read().get(id.index()).cloned()
    }

    /// Number of registered workflows.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    #[test]
    fn bus_topics_are_shared_across_clones() {
        let bus = MessageBus::new();
        let bus2 = bus.clone();
        bus.ack.publish(AckMsg {
            job: dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0)),
            worker: 1,
            kind: crate::protocol::AckKind::Running,
            attempt: 1,
        });
        assert!(bus2.ack.try_pull().is_some());
    }

    #[test]
    fn dispatch_topic_falls_back_to_shared() {
        let flat = MessageBus::new();
        assert!(std::ptr::eq(flat.dispatch_topic(3), &flat.dispatch));
        let sharded = MessageBus::sharded(2);
        assert!(std::ptr::eq(sharded.dispatch_topic(0), &sharded.dispatch_shards[0]));
        assert!(std::ptr::eq(sharded.dispatch_topic(1), &sharded.dispatch_shards[1]));
        // Out of range → the shared fallback, never a panic.
        assert!(std::ptr::eq(sharded.dispatch_topic(2), &sharded.dispatch));
    }

    #[test]
    fn registry_dense_insert_and_get() {
        let r = Registry::new();
        assert!(r.is_empty());
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        r.insert(WorkflowId(0), Arc::clone(&wf));
        r.insert(WorkflowId(1), wf);
        assert_eq!(r.len(), 2);
        assert!(r.get(WorkflowId(1)).is_some());
        assert!(r.get(WorkflowId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn registry_rejects_out_of_order_insert() {
        let r = Registry::new();
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        r.insert(WorkflowId(5), wf);
    }
}
