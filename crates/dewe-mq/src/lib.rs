//! # dewe-mq
//!
//! An in-memory, thread-safe, topic-based message broker — the RabbitMQ
//! substitute for the DEWE v2 reproduction.
//!
//! DEWE v2 (paper §III.C) is built around a message-queue system with three
//! topics: *workflow submission*, *job dispatching* and *job
//! acknowledgment*. Workers pull the dispatch topic and compete for jobs on
//! a first-come-first-served basis; the master pulls acknowledgments and
//! publishes newly eligible jobs. The broker therefore needs exactly
//! *work-queue* semantics: each message is delivered to exactly one
//! consumer, FIFO per topic, with blocking and timeout-bounded pulls.
//!
//! ```
//! use dewe_mq::Broker;
//!
//! let broker: Broker<String> = Broker::new();
//! let dispatch = broker.topic("job_dispatch");
//! dispatch.publish("run mProjectPP_0".to_string());
//! assert_eq!(dispatch.try_pull(), Some("run mProjectPP_0".to_string()));
//! assert_eq!(dispatch.try_pull(), None);
//! ```
//!
//! The broker is deliberately *not* distributed: the reproduction's
//! real-time engine runs master and workers as threads in one process, so an
//! in-process broker exercises the same pull-based code path the paper's
//! RabbitMQ deployment does (competition between consumers, acks driving DAG
//! progress) without a network substrate. The discrete-event simulator in
//! `dewe-simcloud` models queue transport latency separately.

pub mod chaos;
mod frame;
mod listen;
mod reliable;
mod topic;
mod transport;
mod window;

pub use chaos::{
    ChaosBus, ChaosConfig, ChaosDecider, ChaosEvent, ChaosSchedule, ChaosStats, ChaosTopic,
    ChaosTrace, Fault,
};
pub use frame::{queue_frame_split, read_frame, write_frame, write_frame_split, DEFAULT_MAX_FRAME};
pub use listen::bind_reuse;
pub use reliable::{Delivery, LeaseId, ReliableTopic};
pub use topic::{Topic, TopicStats};
pub use transport::{Transport, WorkerTransport};
pub use window::SendWindow;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A named collection of [`Topic`]s carrying messages of type `T`.
///
/// Cloning a `Broker` is cheap and shares the underlying topics, mirroring
/// how every daemon in DEWE v2 connects to the same RabbitMQ endpoint.
pub struct Broker<T> {
    topics: Arc<Mutex<HashMap<String, Topic<T>>>>,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Self { topics: Arc::clone(&self.topics) }
    }
}

impl<T> Default for Broker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Broker<T> {
    /// Create an empty broker.
    pub fn new() -> Self {
        Self { topics: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// Get or create the topic with the given name.
    pub fn topic(&self, name: &str) -> Topic<T> {
        let mut topics = self.topics.lock();
        topics.entry(name.to_string()).or_default().clone()
    }

    /// Names of all topics created so far (sorted, for stable output).
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Close every topic: wakes all blocked consumers; subsequent pulls
    /// drain remaining messages and then return `None`.
    pub fn shutdown(&self) {
        for topic in self.topics.lock().values() {
            topic.close();
        }
    }
}

/// The three topic names DEWE v2 uses (paper §III.C).
pub mod topics {
    /// Workflow submission topic: submission app → master daemon.
    pub const WORKFLOW_SUBMISSION: &str = "workflow_submission";
    /// Job dispatching topic: master daemon → worker daemons.
    pub const JOB_DISPATCH: &str = "job_dispatch";
    /// Job acknowledgment topic: worker daemons → master daemon.
    pub const JOB_ACK: &str = "job_ack";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_identity_is_shared() {
        let broker: Broker<u32> = Broker::new();
        let a = broker.topic("x");
        let b = broker.topic("x");
        a.publish(7);
        assert_eq!(b.try_pull(), Some(7));
    }

    #[test]
    fn distinct_topics_are_isolated() {
        let broker: Broker<u32> = Broker::new();
        broker.topic("a").publish(1);
        assert_eq!(broker.topic("b").try_pull(), None);
        assert_eq!(broker.topic("a").try_pull(), Some(1));
    }

    #[test]
    fn clone_shares_topics() {
        let broker: Broker<u32> = Broker::new();
        let clone = broker.clone();
        broker.topic("t").publish(5);
        assert_eq!(clone.topic("t").try_pull(), Some(5));
    }

    #[test]
    fn topic_names_sorted() {
        let broker: Broker<u32> = Broker::new();
        broker.topic("zeta");
        broker.topic("alpha");
        assert_eq!(broker.topic_names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn shutdown_closes_all_topics() {
        let broker: Broker<u32> = Broker::new();
        let t = broker.topic("t");
        t.publish(1);
        broker.shutdown();
        assert_eq!(t.try_pull(), Some(1), "drain continues after close");
        assert_eq!(t.pull(), None, "then pulls return None without blocking");
    }

    #[test]
    fn standard_topic_names() {
        assert_eq!(topics::WORKFLOW_SUBMISSION, "workflow_submission");
        assert_eq!(topics::JOB_DISPATCH, "job_dispatch");
        assert_eq!(topics::JOB_ACK, "job_ack");
    }
}
