//! The four execution paths the oracle runs every scenario through.

use std::collections::BTreeSet;

use dewe_metrics::Trace;

use crate::invariant::Event;

pub mod baseline;
mod chaos;
pub mod engine;
pub mod realtime;
pub mod sim;

pub use engine::EngineDriverConfig;

/// The ordered event log of a lifecycle trace: each record's start and
/// finish, by simulated time. Ties sort finishes first, so a parent
/// completing at the instant its child starts reads in dependency order;
/// the record index breaks the remaining ties.
fn timeline(trace: &Trace) -> Vec<Event> {
    let mut timed: Vec<(f64, u8, usize, Event)> = Vec::with_capacity(2 * trace.len());
    for (i, t) in trace.events().iter().enumerate() {
        timed.push((t.started, 1, i, Event::Started { job: (t.workflow, t.job) }));
        timed.push((t.finished, 0, i, Event::Finished { job: (t.workflow, t.job) }));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    timed.into_iter().map(|(.., ev)| ev).collect()
}

/// The jobs a log shows finishing.
fn finished_jobs(events: &[Event]) -> BTreeSet<(u32, u32)> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            Event::Finished { job } => Some(job),
            Event::Started { .. } => None,
        })
        .collect()
}
