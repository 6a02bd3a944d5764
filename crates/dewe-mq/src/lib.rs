//! # dewe-mq
//!
//! The message layer under the DEWE v2 daemons (paper §III.C: a
//! *submission*, a *dispatch* and an *acknowledgment* queue, workers
//! competing first-come-first-served), as the pieces both runtimes are
//! built from:
//!
//! * [`Topic`] — one thread-safe FIFO work queue: each message goes to
//!   exactly one consumer, pulls block with a timeout, publishers wake
//!   only sleepers, [`Topic::kick`] is the doorbell. No shipped fabric uses
//!   it; the benchmark times it and test doubles are built on it.
//! * [`Transport`] / [`WorkerTransport`] — the master's and a worker's
//!   view of the fabric. `dewe-core` writes its serve loops against them
//!   and implements them once, over TCP connections; a test stands in
//!   for either side by implementing one. [`Transport::wake`] is the
//!   serve loop's doorbell.
//! * [`read_frame`] / [`write_frame`] — length-prefixed framing with a
//!   size cap, for the TCP runtime;
//!   [`FrameBuf`] is the reader for a socket that must not block.
//! * [`SendWindow`] — a lock-free credit counter for dispatches in flight.
//! * [`poll`] — where one thread waits on many sockets (Unix), through the
//!   crate's one `unsafe` call.
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

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod chaos;
mod frame;
#[cfg(unix)]
mod poll;
mod topic;
mod transport;
mod window;

pub use chaos::{ChaosConfig, ChaosDecider, Fault};
pub use frame::{read_frame, write_frame, FrameBuf, DEFAULT_MAX_FRAME};
#[cfg(unix)]
pub use poll::{poll, PollFd, POLLIN, POLLOUT};
pub use topic::{Topic, TopicStats};
pub use transport::{Transport, WorkerTransport};
pub use window::SendWindow;
