//! Worker liveness: registration, heartbeats, leases, and requeue.
//!
//! The paper runs workers on rented cloud VMs, where nodes disappear
//! mid-job (spot revocation, VM failure). The master therefore cannot
//! assume every dispatched job is eventually acked by a live worker: it
//! keeps a [`LivenessTable`] with one lease per worker, renewed by
//! heartbeats (and by any accepted ack — a busy worker is alive even if
//! its heartbeat thread is starved). A worker silent past its lease is
//! **expired**: its in-flight jobs are requeued through the existing
//! retry/attempt machinery as synthetic `Failed` acks, and any ack it
//! sends later (a zombie that was merely stalled) is rejected until it
//! proves liveness again.
//!
//! ## Lifecycle state machine
//!
//! ```text
//!             Register/Heartbeat/ack           Drain
//! (unknown) ───────────────────────▶ Live ───────────▶ Draining
//!                                     │ ▲                 │   │
//!                         lease lapse │ │ Heartbeat/      │   │ last
//!                                     ▼ │ Register        │   │ assignment
//!                                  Expired ◀──────────────┘   │ cleared
//!                                         (lease lapse        ▼
//!                                          mid-drain)      Drained
//! ```
//!
//! * Generations distinguish incarnations of a worker id. A message with
//!   a *higher* generation supersedes the old incarnation (its jobs are
//!   requeued immediately — faster than waiting out the lease); a lower
//!   generation is a zombie and is ignored.
//! * An `Expired` worker that heartbeats again is revived to `Live`:
//!   rejecting its acks forever would blackhole every job it pulls after
//!   resuming. Acks sent *while* expired stay rejected — the requeue
//!   already re-dispatched those jobs, and the engine's attempt check
//!   discards any stale `Failed` that slips through.
//! * `Draining` workers keep their lease (they still heartbeat and must
//!   finish their current jobs); when their last assignment clears they
//!   are `Drained`. The phase routes nothing: the TCP endpoint keeps
//!   filling a draining worker's window, and whatever its connection holds
//!   unstarted goes back when the connection drops at the revocation.
//!
//! The table is pure (no threads, no clocks, no IO): the master drives
//! it from its serve loop, the journal replays it for recovery, and the
//! property tests drive it directly.

use std::collections::BTreeMap;

use dewe_dag::EnsembleJobId;

use crate::protocol::{AckKind, AckMsg, LifecycleKind, LifecycleMsg};

/// Sentinel worker id for master-synthesized requeue acks. Acks carrying
/// it bypass the per-worker lease bookkeeping entirely (they are engine
/// inputs manufactured by the master, not traffic from a real worker) —
/// both live and during journal replay, which is what keeps replayed
/// liveness state identical to pre-crash state.
pub const REQUEUE_WORKER: u32 = u32::MAX;

/// Phase of a worker's lifecycle (see the module-level state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerPhase {
    /// Lease held; eligible for dispatch.
    Live,
    /// Announced shutdown; finishing current jobs (dispatch does not route by phase).
    Draining,
    /// Lease lapsed; in-flight jobs requeued, acks rejected.
    Expired,
    /// Drain finished: no assignments left; the worker may exit.
    Drained,
}

impl WorkerPhase {
    /// Compact code for the master's write-ahead journal.
    pub fn code(self) -> u8 {
        match self {
            WorkerPhase::Live => 0,
            WorkerPhase::Draining => 1,
            WorkerPhase::Expired => 2,
            WorkerPhase::Drained => 3,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WorkerPhase::Live),
            1 => Some(WorkerPhase::Draining),
            2 => Some(WorkerPhase::Expired),
            3 => Some(WorkerPhase::Drained),
            _ => None,
        }
    }
}

/// Fault-plane counters kept by the master, alongside the engine's
/// [`EngineStats`](crate::EngineStats).
///
/// `workers_expired` counts lease lapses only; a fast restart that
/// supersedes its old incarnation by generation requeues jobs (counted
/// in `jobs_requeued_on_expiry` — the old lease is force-ended) without
/// counting as an expiry. Journal replay reconstructs every counter but
/// two: rejected acks are dropped *before* journaling (rejected input is
/// not engine input), so `stale_acks_rejected` does not survive a master
/// restart, and neither does `workers_lost_in_recovery`, since
/// [`LivenessTransition::lost_in_recovery`] is not journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MasterStats {
    /// Worker incarnations granted a lease (explicit or implicit).
    pub workers_registered: u64,
    /// Leases that lapsed with the worker silent.
    pub workers_expired: u64,
    /// In-flight jobs requeued because their worker's lease ended
    /// (expiry, or supersession by a newer incarnation).
    pub jobs_requeued_on_expiry: u64,
    /// Acks rejected because their worker was expired at arrival, by this
    /// master incarnation only: a rejected ack is not journaled, so a
    /// takeover counts from 0.
    pub stale_acks_rejected: u64,
    /// Graceful drains that ran to completion.
    pub drains_completed: u64,
    /// Workers expired after a master restart without ever making
    /// contact — the journal references them but they never came back.
    /// Counted by this master incarnation only: the transition is not
    /// journaled, so a takeover counts from 0.
    pub workers_lost_in_recovery: u64,
}

/// One row of a liveness snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerView {
    /// Worker id.
    pub worker: u32,
    /// Current incarnation.
    pub generation: u32,
    /// Current phase.
    pub phase: WorkerPhase,
}

/// A state change the master must journal (`W` record) and may act on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessTransition {
    /// Worker id.
    pub worker: u32,
    /// Incarnation the transition applies to.
    pub generation: u32,
    /// Phase entered.
    pub phase: WorkerPhase,
    /// Engine time of the transition.
    pub at: f64,
    /// True when this expiry hit a worker that never made contact since
    /// the master recovered — the caller should emit a structured
    /// warning (the journal referenced a worker that never came back).
    /// Not journaled.
    pub lost_in_recovery: bool,
}

impl LivenessTransition {
    fn new(worker: u32, generation: u32, phase: WorkerPhase, at: f64) -> Self {
        Self { worker, generation, phase, at, lost_in_recovery: false }
    }
}

/// An in-flight job to requeue after its worker's lease ended. The
/// master feeds it back through the retry machinery as a synthetic
/// `Failed` ack from [`REQUEUE_WORKER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequeueEntry {
    /// The job.
    pub job: EnsembleJobId,
    /// The attempt the dead worker held.
    pub attempt: u32,
    /// The worker that held it (diagnostic).
    pub worker: u32,
}

impl RequeueEntry {
    /// The synthetic `Failed` ack that requeues this job.
    pub fn as_failed_ack(&self) -> AckMsg {
        AckMsg {
            job: self.job,
            worker: REQUEUE_WORKER,
            kind: AckKind::Failed,
            attempt: self.attempt,
        }
    }
}

struct WorkerEntry {
    generation: u32,
    phase: WorkerPhase,
    /// Lease expiry instant (engine time).
    deadline: f64,
    /// False between a master recovery and the worker's first
    /// post-recovery message; an expiry in that window means the worker
    /// never came back at all.
    seen_since_recovery: bool,
}

/// The master's per-worker lease table. Pure state machine: all inputs
/// arrive through [`on_lifecycle`](Self::on_lifecycle),
/// [`admit_ack`](Self::admit_ack) and
/// [`expire_due`](Self::expire_due); outputs are returned transitions
/// (for journaling) and requeue entries (for the retry machinery).
pub struct LivenessTable {
    lease_secs: f64,
    workers: BTreeMap<u32, WorkerEntry>,
    /// Current owner of each checked-out job: the latest worker that
    /// sent `Running` for it, with the attempt it holds.
    assignments: BTreeMap<EnsembleJobId, (u32, u32)>,
    stats: MasterStats,
}

impl LivenessTable {
    /// Fresh table; workers silent for `lease_secs` are expired.
    pub fn new(lease_secs: f64) -> Self {
        Self {
            lease_secs,
            workers: BTreeMap::new(),
            assignments: BTreeMap::new(),
            stats: MasterStats::default(),
        }
    }

    /// Fault-plane counters.
    pub fn stats(&self) -> MasterStats {
        self.stats
    }

    /// Current (worker, generation, phase) rows, ordered by worker id.
    pub fn snapshot(&self) -> Vec<WorkerView> {
        self.workers
            .iter()
            .map(|(&worker, e)| WorkerView { worker, generation: e.generation, phase: e.phase })
            .collect()
    }

    /// The `(worker, attempt)` currently holding `job`, if checked out.
    pub fn assignment(&self, job: EnsembleJobId) -> Option<(u32, u32)> {
        self.assignments.get(&job).copied()
    }

    /// The one place a worker's phase changes and its counters move, for
    /// live traffic and journal replay alike. It writes the worker's entry
    /// (lease from `t.at`); a new incarnation counts as registered, and one
    /// that supersedes an older incarnation requeues what that one held; an
    /// expiry counts (and counts as lost in recovery when `t` says so) and
    /// requeues what the worker held; a drain that completes counts once.
    /// `t` is appended to `transitions`.
    fn enter(
        &mut self,
        t: LivenessTransition,
        transitions: &mut Vec<LivenessTransition>,
        requeue: &mut Vec<RequeueEntry>,
    ) {
        let entry = WorkerEntry {
            generation: t.generation,
            phase: t.phase,
            deadline: t.at + self.lease_secs,
            seen_since_recovery: true,
        };
        let was = match self.workers.insert(t.worker, entry) {
            Some(old) if old.generation >= t.generation => Some(old.phase),
            superseded => {
                self.stats.workers_registered += 1;
                if superseded.is_some() {
                    self.requeue_assignments(t.worker, requeue);
                }
                None
            }
        };
        match t.phase {
            WorkerPhase::Expired => {
                self.stats.workers_expired += 1;
                self.stats.workers_lost_in_recovery += u64::from(t.lost_in_recovery);
                self.requeue_assignments(t.worker, requeue);
            }
            WorkerPhase::Drained if was != Some(WorkerPhase::Drained) => {
                self.stats.drains_completed += 1;
            }
            _ => {}
        }
        transitions.push(t);
    }

    /// Move every assignment `worker` holds to `requeue`, counting them.
    fn requeue_assignments(&mut self, worker: u32, requeue: &mut Vec<RequeueEntry>) {
        let before = requeue.len();
        self.assignments.retain(|&job, &mut (w, attempt)| {
            if w == worker {
                requeue.push(RequeueEntry { job, attempt, worker });
            }
            w != worker
        });
        self.stats.jobs_requeued_on_expiry += (requeue.len() - before) as u64;
    }

    /// A draining worker whose last assignment has cleared is drained.
    fn maybe_drained(&mut self, worker: u32, at: f64, transitions: &mut Vec<LivenessTransition>) {
        let Some(e) = self.workers.get(&worker) else { return };
        if e.phase != WorkerPhase::Draining || self.assignments.values().any(|&(w, _)| w == worker)
        {
            return;
        }
        let t = LivenessTransition::new(worker, e.generation, WorkerPhase::Drained, at);
        self.enter(t, transitions, &mut Vec::new());
    }

    /// Process a lifecycle message. State changes are appended to
    /// `transitions` (journal them as `W` records); jobs freed by a
    /// superseding re-registration are appended to `requeue`.
    pub fn on_lifecycle(
        &mut self,
        msg: &LifecycleMsg,
        now: f64,
        transitions: &mut Vec<LivenessTransition>,
        requeue: &mut Vec<RequeueEntry>,
    ) {
        let phase = match self.workers.get_mut(&msg.worker) {
            // Zombie incarnation: ignore.
            Some(e) if msg.generation < e.generation => return,
            Some(e) if msg.generation == e.generation => {
                e.seen_since_recovery = true;
                match (msg.kind, e.phase) {
                    (_, WorkerPhase::Drained) => return,
                    // Revival: a stalled worker proved liveness again.
                    (LifecycleKind::Register | LifecycleKind::Heartbeat, WorkerPhase::Expired) => {
                        WorkerPhase::Live
                    }
                    (LifecycleKind::Register | LifecycleKind::Heartbeat, _) => {
                        e.deadline = now + self.lease_secs;
                        return;
                    }
                    (LifecycleKind::Drain, WorkerPhase::Live) => WorkerPhase::Draining,
                    (LifecycleKind::Drain, _) => return,
                }
            }
            // A new worker, or a newer incarnation that supersedes the old
            // one: its jobs are requeued now instead of waiting out the lease.
            _ if msg.kind == LifecycleKind::Drain => WorkerPhase::Draining,
            _ => WorkerPhase::Live,
        };
        let t = LivenessTransition::new(msg.worker, msg.generation, phase, now);
        self.enter(t, transitions, requeue);
        if phase == WorkerPhase::Draining {
            self.maybe_drained(msg.worker, now, transitions);
        }
    }

    /// Decide whether to accept an ack, updating assignment bookkeeping
    /// when accepted. Returns `false` for acks from an expired worker
    /// (the zombie-fencing check): the caller must drop them without
    /// journaling or feeding the engine. A drain that completes as a
    /// side effect (last assignment cleared) lands in `transitions`.
    pub fn admit_ack(
        &mut self,
        ack: &AckMsg,
        now: f64,
        transitions: &mut Vec<LivenessTransition>,
    ) -> bool {
        if ack.worker != REQUEUE_WORKER {
            let lease = self.lease_secs;
            match self.workers.get_mut(&ack.worker) {
                Some(e) if e.phase == WorkerPhase::Expired => {
                    self.stats.stale_acks_rejected += 1;
                    return false;
                }
                Some(e) => {
                    // An accepted ack renews the lease (a busy worker is
                    // alive even if its heartbeat thread is starved) but
                    // does NOT count as post-recovery contact: acks a
                    // link queued during a master outage drain into the
                    // replacement right after recovery, so only
                    // fresh lifecycle traffic proves the worker itself
                    // came back.
                    if matches!(e.phase, WorkerPhase::Live | WorkerPhase::Draining) {
                        e.deadline = now + lease;
                    }
                }
                None => {
                    // First contact without registration: grant an
                    // implicit lease so this worker's jobs are protected.
                    // (Workers are expected to heartbeat whenever the
                    // master runs with leases enabled.)
                    self.workers.insert(
                        ack.worker,
                        WorkerEntry {
                            generation: 0,
                            phase: WorkerPhase::Live,
                            deadline: now + lease,
                            seen_since_recovery: true,
                        },
                    );
                    self.stats.workers_registered += 1;
                }
            }
        }
        match ack.kind {
            AckKind::Running => {
                let old = self.assignments.insert(ack.job, (ack.worker, ack.attempt));
                if let Some((ow, _)) = old {
                    if ow != ack.worker {
                        self.maybe_drained(ow, now, transitions);
                    }
                }
            }
            AckKind::Completed | AckKind::Failed => {
                if let Some((ow, _)) = self.assignments.remove(&ack.job) {
                    self.maybe_drained(ow, now, transitions);
                }
            }
        }
        true
    }

    /// The earliest lease deadline among Live and Draining workers — the
    /// first instant [`expire_due`](Self::expire_due) has anything to do —
    /// or `None` while no worker holds a lease.
    pub fn next_expiry(&self) -> Option<f64> {
        self.workers
            .values()
            .filter(|e| matches!(e.phase, WorkerPhase::Live | WorkerPhase::Draining))
            .map(|e| e.deadline)
            .reduce(f64::min)
    }

    /// Expire every worker whose lease lapsed at or before `now`,
    /// appending its freed jobs to `requeue` and the `Expired`
    /// transitions (with `lost_in_recovery` set where applicable) to
    /// `transitions`.
    pub fn expire_due(
        &mut self,
        now: f64,
        transitions: &mut Vec<LivenessTransition>,
        requeue: &mut Vec<RequeueEntry>,
    ) {
        let due: Vec<LivenessTransition> = self
            .workers
            .iter()
            .filter(|(_, e)| {
                matches!(e.phase, WorkerPhase::Live | WorkerPhase::Draining) && e.deadline <= now
            })
            .map(|(&worker, e)| LivenessTransition {
                lost_in_recovery: !e.seen_since_recovery,
                ..LivenessTransition::new(worker, e.generation, WorkerPhase::Expired, now)
            })
            .collect();
        for t in due {
            self.enter(t, transitions, requeue);
        }
    }

    /// Apply a journaled transition during replay, by the live rules (the
    /// synthetic requeue acks follow an expiry in the journal). A journaled
    /// expiry never counts as lost in recovery: that flag is not journaled.
    pub(crate) fn apply_transition(
        &mut self,
        worker: u32,
        generation: u32,
        phase: WorkerPhase,
        at: f64,
    ) {
        let t = LivenessTransition::new(worker, generation, phase, at);
        self.enter(t, &mut Vec::new(), &mut Vec::new());
    }

    /// Grant every live worker a grace lease after a master recovery:
    /// deadlines restart at `resume_at` + lease, and contact tracking
    /// resets so workers that never come back are flagged
    /// (`lost_in_recovery`) when the grace lease lapses.
    pub fn grant_grace(&mut self, resume_at: f64) {
        for e in self.workers.values_mut() {
            if matches!(e.phase, WorkerPhase::Live | WorkerPhase::Draining) {
                e.deadline = resume_at + self.lease_secs;
                e.seen_since_recovery = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::{JobId, WorkflowId};

    fn job(wf: u32, j: u32) -> EnsembleJobId {
        EnsembleJobId::new(WorkflowId(wf), JobId(j))
    }

    fn hb(worker: u32, generation: u32) -> LifecycleMsg {
        LifecycleMsg { worker, generation, kind: LifecycleKind::Heartbeat }
    }

    fn running(worker: u32, wf: u32, j: u32, attempt: u32) -> AckMsg {
        AckMsg { job: job(wf, j), worker, kind: AckKind::Running, attempt }
    }

    fn completed(worker: u32, wf: u32, j: u32, attempt: u32) -> AckMsg {
        AckMsg { job: job(wf, j), worker, kind: AckKind::Completed, attempt }
    }

    #[test]
    fn silence_expires_and_requeues_then_acks_are_fenced() {
        let mut t = LivenessTable::new(1.0);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        t.on_lifecycle(&hb(7, 0), 0.0, &mut tr, &mut rq);
        assert!(t.admit_ack(&running(7, 0, 0, 1), 0.1, &mut tr));
        assert!(t.admit_ack(&running(7, 0, 1, 1), 0.2, &mut tr));
        // Heartbeat at 0.5 renews: nothing expires at 1.0.
        t.on_lifecycle(&hb(7, 0), 0.5, &mut tr, &mut rq);
        t.expire_due(1.2, &mut tr, &mut rq);
        assert!(rq.is_empty());
        // Silence past the lease: both jobs requeued, acks rejected.
        t.expire_due(1.6, &mut tr, &mut rq);
        assert_eq!(rq.len(), 2);
        assert_eq!(t.stats().workers_expired, 1);
        assert_eq!(t.stats().jobs_requeued_on_expiry, 2);
        assert!(!t.admit_ack(&completed(7, 0, 0, 1), 1.7, &mut tr));
        assert_eq!(t.stats().stale_acks_rejected, 1);
        // The requeue ack itself always passes the fence.
        assert!(t.admit_ack(&rq[0].as_failed_ack(), 1.7, &mut tr));
        // A heartbeat revives the worker; its acks flow again.
        t.on_lifecycle(&hb(7, 0), 2.0, &mut tr, &mut rq);
        assert_eq!(t.snapshot()[0].phase, WorkerPhase::Live);
        assert!(t.admit_ack(&running(7, 0, 2, 2), 2.1, &mut tr));
    }

    #[test]
    fn drain_completes_when_last_assignment_clears() {
        let mut t = LivenessTable::new(10.0);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        t.on_lifecycle(&hb(3, 0), 0.0, &mut tr, &mut rq);
        assert!(t.admit_ack(&running(3, 0, 0, 1), 0.1, &mut tr));
        tr.clear();
        t.on_lifecycle(
            &LifecycleMsg { worker: 3, generation: 0, kind: LifecycleKind::Drain },
            0.2,
            &mut tr,
            &mut rq,
        );
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].phase, WorkerPhase::Draining);
        tr.clear();
        assert!(t.admit_ack(&completed(3, 0, 0, 1), 0.5, &mut tr));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].phase, WorkerPhase::Drained);
        assert_eq!(t.stats().drains_completed, 1);
    }

    #[test]
    fn newer_generation_supersedes_and_requeues_immediately() {
        let mut t = LivenessTable::new(10.0);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        t.on_lifecycle(&hb(1, 0), 0.0, &mut tr, &mut rq);
        assert!(t.admit_ack(&running(1, 0, 0, 1), 0.1, &mut tr));
        t.on_lifecycle(&hb(1, 1), 0.5, &mut tr, &mut rq);
        assert_eq!(rq, vec![RequeueEntry { job: job(0, 0), attempt: 1, worker: 1 }]);
        assert_eq!(t.stats().jobs_requeued_on_expiry, 1);
        assert_eq!(t.stats().workers_expired, 0, "supersession is not a lease expiry");
        // The old incarnation is now the zombie: its messages are ignored.
        tr.clear();
        t.on_lifecycle(&hb(1, 0), 0.6, &mut tr, &mut rq);
        assert!(tr.is_empty());
        assert_eq!(
            t.snapshot(),
            vec![WorkerView { worker: 1, generation: 1, phase: WorkerPhase::Live }]
        );
    }

    #[test]
    fn replaying_transitions_rebuilds_the_snapshot() {
        // Drive a live table; apply its emitted transitions (plus the
        // accepted acks) to a fresh table; snapshots must match — the
        // property journal replay depends on.
        let mut live = LivenessTable::new(1.0);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        let acks = [running(5, 0, 0, 1), running(6, 0, 1, 1), completed(6, 0, 1, 1)];
        live.on_lifecycle(&hb(5, 0), 0.0, &mut tr, &mut rq);
        live.on_lifecycle(&hb(6, 0), 0.0, &mut tr, &mut rq);
        for (i, a) in acks.iter().enumerate() {
            assert!(live.admit_ack(a, 0.1 + i as f64 * 0.1, &mut tr));
        }
        live.expire_due(2.0, &mut tr, &mut rq); // both silent: expired

        let mut replayed = LivenessTable::new(1.0);
        let mut tr2 = Vec::new();
        for t in &tr {
            replayed.apply_transition(t.worker, t.generation, t.phase, t.at);
        }
        for (i, a) in acks.iter().enumerate() {
            replayed.admit_ack(a, 0.1 + i as f64 * 0.1, &mut tr2);
        }
        assert_eq!(replayed.snapshot(), live.snapshot());
        assert_eq!(replayed.stats().workers_expired, live.stats().workers_expired);
    }

    #[test]
    fn grace_lease_flags_workers_that_never_come_back() {
        let mut t = LivenessTable::new(1.0);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        t.on_lifecycle(&hb(1, 0), 0.0, &mut tr, &mut rq);
        t.on_lifecycle(&hb(2, 0), 0.0, &mut tr, &mut rq);
        assert!(t.admit_ack(&running(2, 0, 0, 1), 0.1, &mut tr));
        t.grant_grace(5.0);
        // Worker 1 heartbeats after recovery; worker 2 stays dead.
        t.on_lifecycle(&hb(1, 0), 5.5, &mut tr, &mut rq);
        tr.clear();
        t.expire_due(6.2, &mut tr, &mut rq);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].worker, 2);
        assert!(tr[0].lost_in_recovery);
        assert_eq!(t.stats().workers_lost_in_recovery, 1);
        assert_eq!(rq, vec![RequeueEntry { job: job(0, 0), attempt: 1, worker: 2 }]);
    }
}
