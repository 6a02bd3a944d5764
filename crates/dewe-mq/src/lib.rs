//! # dewe-mq
//!
//! The message layer under the DEWE v2 daemons (paper §III.C: a
//! *submission*, a *dispatch* and an *acknowledgment* queue, workers
//! competing first-come-first-served), as the pieces both runtimes are
//! built from:
//!
//! * [`Topic`] — one thread-safe FIFO work queue: each message goes to
//!   exactly one consumer, pulls block with a timeout, publishers wake
//!   only sleepers, [`Topic::kick`] is the doorbell. The in-process bus is
//!   four of these; the TCP runtime uses them between its socket threads
//!   and the serve loop.
//! * [`Transport`] / [`WorkerTransport`] — the master's and a worker's
//!   view of the fabric. `dewe-core` writes its serve loops once against
//!   them and implements them twice: over topics in one process, and over
//!   TCP connections.
//! * [`read_frame`] / [`write_frame`] (and the split / queued writers) —
//!   length-prefixed framing with a size cap, for the TCP runtime.
//! * [`SendWindow`] — per-connection credit for dispatches in flight.
//! * [`bind_reuse`] — a listener a restarted master can rebind at once.
//! * [`chaos`] — seeded drop / duplicate / delay decisions
//!   ([`ChaosDecider`]), keyed by a message's identity; the simulator and
//!   the oracle's drivers apply them at their own transport seams.
//!
//! ```
//! use dewe_mq::Topic;
//!
//! let dispatch: Topic<String> = Topic::new();
//! dispatch.publish("run mProjectPP_0".to_string());
//! assert_eq!(dispatch.try_pull(), Some("run mProjectPP_0".to_string()));
//! assert_eq!(dispatch.try_pull(), None);
//! ```
//!
//! The crate knows queues, not workflows: message types are generic here
//! and pinned to the protocol structs in `dewe-core`.

pub mod chaos;
mod frame;
mod listen;
mod topic;
mod transport;
mod window;

pub use chaos::{ChaosConfig, ChaosDecider, Fault};
pub use frame::{queue_frame_split, read_frame, write_frame, write_frame_split, DEFAULT_MAX_FRAME};
pub use listen::bind_reuse;
pub use topic::{Topic, TopicStats};
pub use transport::{Transport, WorkerTransport};
pub use window::SendWindow;
