//! The sans-IO ensemble engine: the master daemon's brain.
//!
//! [`EnsembleEngine`] holds the DAG-management state of the DEWE v2 master
//! daemon (paper §III.C) with no clocks, threads or queues of its own:
//! callers feed it submissions, acknowledgments and the current time, and
//! it emits [`Action`]s (publish this job, this workflow is done). The
//! realtime and simulated runtimes are thin drivers around it, and tests
//! can exercise every protocol corner deterministically.
//!
//! Beyond the paper's unconditional timeout/resubmission loop, the engine
//! carries an optional per-job attempt cap,
//! [`EngineConfig::max_attempts`], that dead-letters permanently failing
//! jobs (abandoning their descendants so the ensemble terminates with
//! partial completion instead of looping forever). A retry inside the cap
//! is dispatched at once. The default preserves the paper's behavior
//! exactly: unbounded immediate retries.

use std::cmp::Ordering;
use std::sync::Arc;

use dewe_dag::{
    DependencyTracker, EnsembleJobId, JobId, JobState, Workflow, WorkflowId, DEFAULT_TIMEOUT_SECS,
};

use crate::protocol::{AckKind, AckMsg, DispatchMsg};
use crate::wheel::DeadlineWheel;

mod ensemble;

pub use ensemble::{Action, EngineConfig, EngineStats, EnsembleEngine};

struct WorkflowState {
    workflow: Arc<Workflow>,
    tracker: DependencyTracker,
    submitted_at: f64,
    /// First slot of this workflow's lanes region — until the workflow
    /// settles (`tracker.is_settled()`): then the tracker is released, the
    /// region handed back, and the slots may be another workflow's.
    base: u32,
    /// Jobs of this workflow that exhausted their retry budget.
    dead_lettered: u64,
}

/// A slot is not in flight.
const SLOT_EMPTY: u8 = 0;
/// A dispatched attempt; `deadline` is its timeout (possibly infinite).
const SLOT_INFLIGHT: u8 = 1;

/// Engine-wide in-flight slab, laid out struct-of-arrays.
///
/// A workflow with jobs holds a *region* of `job_count` contiguous slots
/// from submission until it settles; a job's slot is the region's start
/// plus its index. A settled workflow's region is marked free and the next
/// workflow of the same length moves in, so the lanes hold the
/// regions that were live at once, not one per workflow ever submitted —
/// and slot order says nothing about `(workflow, job)` order.
///
/// Splitting the former `Vec<Option<Inflight>>` into parallel lanes means
/// each hot loop touches only the bytes it needs: the recovery scan reads
/// the one-byte `tag` lane (plus `attempt` on a hit), the timer currency
/// check reads `tag`/`attempt`/`deadline` without pulling workflow state
/// into cache, and an ack clears a slot by writing a single byte.
///
/// Timer entries name a job by its slot: the `(workflow, job)` pair is
/// recovered from the region table by [`job_at`](Self::job_at), for the
/// entries that expire together and for the one that fires.
#[derive(Default)]
struct InflightLanes {
    /// The regions, by ascending `start`; together they cover the lanes.
    /// The free ones among them are the free list.
    regions: Vec<Region>,
    /// Timeout deadline of the attempt in flight.
    deadline: Vec<f64>,
    /// Attempt number occupying the slot.
    attempt: Vec<u32>,
    /// `SLOT_EMPTY` / `SLOT_INFLIGHT`.
    tag: Vec<u8>,
}

/// `len` slots from `start`, held by workflow `tenant` — or, once `free`,
/// last held by it and waiting for the next workflow of that length.
struct Region {
    start: u32,
    len: u32,
    tenant: WorkflowId,
    free: bool,
}

impl InflightLanes {
    /// A region of `jobs` empty slots for workflow `tenant`: a free one of
    /// that length, else new slots at the end. Returns its first slot.
    fn claim(&mut self, tenant: WorkflowId, jobs: usize) -> u32 {
        if let Some(region) = self.regions.iter_mut().find(|r| r.free && r.len as usize == jobs) {
            region.tenant = tenant;
            region.free = false;
            return region.start;
        }
        let start = self.tag.len();
        // Timer entries carry slots as `u32`.
        let end = u32::try_from(start + jobs).expect("fewer than 2^32 job slots at once");
        self.regions.push(Region { start: start as u32, len: jobs as u32, tenant, free: false });
        self.deadline.resize(end as usize, f64::INFINITY);
        self.attempt.resize(end as usize, 0);
        self.tag.resize(end as usize, SLOT_EMPTY);
        start as u32
    }

    /// Index of the region holding `slot`.
    fn region_of(&self, slot: u32) -> usize {
        self.regions.partition_point(|r| r.start <= slot) - 1
    }

    /// Free the settled workflow's region starting at `start`. Every job
    /// is terminal, so every slot is already empty; timer entries that
    /// still name them stay stale until a next tenant's slot says exactly
    /// what they say.
    fn release(&mut self, start: u32) {
        let r = self.region_of(start);
        let region = &mut self.regions[r];
        debug_assert!(
            self.tag[start as usize..(start + region.len) as usize]
                .iter()
                .all(|&t| t == SLOT_EMPTY),
            "a settled workflow has nothing in flight"
        );
        region.free = true;
    }

    /// The job whose slot this is — of the region's last tenant, when the
    /// region is free.
    fn job_at(&self, slot: u32) -> EnsembleJobId {
        let region = &self.regions[self.region_of(slot)];
        EnsembleJobId::new(region.tenant, JobId(slot - region.start))
    }

    /// Put an attempt in flight in a slot and return the timer entry that
    /// describes it.
    #[inline]
    fn set(&mut self, i: usize, deadline: f64, attempt: u32) -> DeadlineEntry {
        self.deadline[i] = deadline;
        self.attempt[i] = attempt;
        self.tag[i] = SLOT_INFLIGHT;
        DeadlineEntry::new(deadline, i, attempt)
    }

    /// True when `entry` still describes the current checkout of its job:
    /// the slab holds the same attempt in flight with the same deadline.
    /// Any refresh, resubmission or completion invalidates older timer
    /// entries.
    fn entry_is_current(&self, entry: &DeadlineEntry) -> bool {
        let i = entry.slot as usize;
        self.tag[i] == SLOT_INFLIGHT
            && self.deadline[i] == entry.deadline
            && self.attempt[i] == entry.attempt
    }
}

/// A candidate deadline in the engine-wide timer: the timeout of a
/// dispatched or checked-out attempt. 16 bytes.
///
/// Entries are never removed eagerly: a Running re-ack, resubmission or
/// completion simply leaves the old entry behind, and it is discarded at
/// pop time when it no longer matches the in-flight slab (lazy
/// invalidation). `Ord` is ascending deadline, then slot, then attempt.
/// Regions are recycled, so slot order is not (workflow, job) order:
/// [`EnsembleEngine::check_timeouts`] re-sorts the entries that expire at
/// one deadline by the job each names, and a scan fires in ascending
/// (deadline, workflow, job, attempt) order whatever slots the jobs were
/// given.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeadlineEntry {
    pub(crate) deadline: f64,
    /// The job's slot in the in-flight lanes.
    pub(crate) slot: u32,
    /// The attempt the entry times, mirroring the slab's attempt.
    attempt: u32,
}

const _: () = assert!(std::mem::size_of::<DeadlineEntry>() == 16);

impl DeadlineEntry {
    pub(crate) fn new(deadline: f64, slot: usize, attempt: u32) -> Self {
        // `claim` keeps every slot below 2^32.
        Self { deadline, slot: slot as u32, attempt }
    }
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for DeadlineEntry {}

impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.deadline
            .total_cmp(&other.deadline)
            .then_with(|| self.slot.cmp(&other.slot))
            .then_with(|| self.attempt.cmp(&other.attempt))
    }
}
