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
    /// Job dispatching topic (master → workers).
    pub dispatch: Topic<DispatchMsg>,
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

    /// Close every topic, releasing blocked daemons.
    pub fn shutdown(&self) {
        self.submission.close();
        self.dispatch.close();
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

    fn wake(&self) {
        self.ack.kick();
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        self.ack.try_pull_batch(out, max)
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.lifecycle.try_pull()
    }

    fn publish_dispatch(&self, _: usize, dispatch: DispatchMsg) {
        self.dispatch.publish(dispatch);
    }

    fn publish_dispatch_batch(&self, _: usize, batch: &mut Vec<DispatchMsg>) {
        self.dispatch.publish_all(batch.drain(..));
    }

    fn announce(&self, _announce: WorkflowAnnounce) {}

    fn ack_closed(&self) -> bool {
        self.ack.is_closed()
    }
}

/// One worker's view of the in-process bus: the [`WorkerTransport`] the
/// thread-pool worker daemon drives. The TCP runtime's `TcpWorkerLink`
/// implements the same trait, so the worker slot/heartbeat loops are
/// written once.
#[derive(Clone)]
pub struct BusWorkerLink {
    bus: MessageBus,
}

impl BusWorkerLink {
    /// A link over `bus`, pulling its dispatch topic.
    pub fn new(bus: MessageBus) -> Self {
        Self { bus }
    }
}

impl WorkerTransport for BusWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        self.bus.dispatch.pull_timeout(timeout)
    }

    fn dispatch_closed(&self) -> bool {
        self.bus.dispatch.is_closed()
    }

    fn redeliver(&self, dispatch: DispatchMsg) {
        // The broker redelivers the unacknowledged checkout (RabbitMQ
        // semantics): back onto the same topic for another worker.
        self.bus.dispatch.publish(dispatch);
    }

    fn publish_ack(&self, ack: AckMsg) {
        self.bus.ack.publish(ack);
    }

    /// Published, and the master — asleep on the ack topic — woken for it.
    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.bus.lifecycle.publish(msg);
        self.bus.wake();
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
