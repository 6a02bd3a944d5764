//! Runtime dependency tracking — the master daemon's view of one workflow.
//!
//! [`DependencyTracker`] is a pure state machine: no clocks, no queues, no
//! I/O. The DEWE v2 master (and the Pegasus-like baseline) drive it with
//! completion events and drain the ready frontier into whatever dispatch
//! mechanism they use (message-queue topic, scheduler queue, ...).

use crate::ids::JobId;
use crate::workflow::Workflow;

/// Lifecycle of a job as seen by the master daemon (paper §III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Has unfinished parents; not yet eligible.
    Pending,
    /// All parents complete; eligible to run (published or publishable).
    Ready,
    /// Checked out by a worker; a "running" acknowledgment was received.
    Running,
    /// A "completed" acknowledgment was received.
    Completed,
    /// Dead-lettered: the job exhausted its retry budget (or an ancestor
    /// did), so it will never run. Terminal, like `Completed`, but counts
    /// against the workflow instead of toward it.
    Abandoned,
}

/// Aggregate counts maintained by the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerStats {
    pub pending: usize,
    pub ready: usize,
    pub running: usize,
    pub completed: usize,
    pub abandoned: usize,
}

impl TrackerStats {
    /// Total jobs tracked.
    pub fn total(&self) -> usize {
        self.pending + self.ready + self.running + self.completed + self.abandoned
    }
}

/// Tracks dependency satisfaction and job states for one workflow instance.
///
/// Once every job is terminal the owner can [`release`](Self::release) the
/// per-job lanes: a released tracker answers every query as it did before
/// and ignores every event, as a settled one already did.
#[derive(Debug, Clone)]
pub struct DependencyTracker {
    /// Remaining unfinished parents per job.
    remaining: Vec<u32>,
    /// Per-job state; empty once released with every job completed.
    state: Vec<JobState>,
    /// Jobs that became Ready and have not yet been taken by the engine.
    ready_queue: Vec<JobId>,
    /// Per-job membership flag for `ready_queue`, so resubmission of a
    /// Ready job is O(1) instead of a queue scan.
    in_ready_queue: Vec<bool>,
    stats: TrackerStats,
}

impl DependencyTracker {
    /// Initialize from a validated workflow; all root jobs start Ready.
    pub fn new(workflow: &Workflow) -> Self {
        let n = workflow.job_count();
        let mut remaining = Vec::with_capacity(n);
        let mut state = Vec::with_capacity(n);
        let mut ready_queue = Vec::new();
        let mut in_ready_queue = vec![false; n];
        for j in workflow.job_ids() {
            let deg = workflow.in_degree(j) as u32;
            remaining.push(deg);
            if deg == 0 {
                state.push(JobState::Ready);
                ready_queue.push(j);
                in_ready_queue[j.index()] = true;
            } else {
                state.push(JobState::Pending);
            }
        }
        let stats = TrackerStats {
            pending: n - ready_queue.len(),
            ready: ready_queue.len(),
            running: 0,
            completed: 0,
            abandoned: 0,
        };
        Self { remaining, state, ready_queue, in_ready_queue, stats }
    }

    /// Current state of a job.
    #[inline]
    pub fn state(&self, id: JobId) -> JobState {
        match self.state.get(id.index()) {
            Some(&state) => state,
            None => {
                // Released with every job completed: the lane is implied.
                assert!(id.index() < self.stats.total(), "no job {id:?} in this workflow");
                JobState::Completed
            }
        }
    }

    /// Hand back the per-job lanes of a settled workflow: the dependency
    /// counters and the ready queue (nothing can become ready any more),
    /// and the state lane too when every job completed. A partly abandoned
    /// workflow keeps its one byte a job, which is what still tells a
    /// completed job from an abandoned one.
    pub fn release(&mut self) {
        debug_assert!(self.is_settled(), "released with live jobs");
        self.remaining = Vec::new();
        self.in_ready_queue = Vec::new();
        self.ready_queue = Vec::new();
        if self.is_complete() {
            self.state = Vec::new();
        }
    }

    /// True when no dependency lanes are held: after
    /// [`release`](Self::release), or for a workflow without jobs.
    pub fn is_released(&self) -> bool {
        self.remaining.capacity() == 0
    }

    /// Drain jobs that became eligible since the last call.
    ///
    /// The returned jobs stay in [`JobState::Ready`] until
    /// [`mark_running`](Self::mark_running) is called — mirroring the gap
    /// between the master publishing a job to the dispatch topic and a
    /// worker's "running" acknowledgment.
    pub fn take_ready(&mut self) -> Vec<JobId> {
        for &j in &self.ready_queue {
            self.in_ready_queue[j.index()] = false;
        }
        std::mem::take(&mut self.ready_queue)
    }

    /// Drain eligible jobs into `out` without giving up the queue's buffer
    /// — the allocation-free flavor of [`take_ready`](Self::take_ready)
    /// for steady-state dispatch loops.
    pub fn drain_ready_into(&mut self, out: &mut Vec<JobId>) {
        for &j in &self.ready_queue {
            self.in_ready_queue[j.index()] = false;
        }
        out.append(&mut self.ready_queue);
    }

    /// Discard the ready queue's contents (the caller has already
    /// dispatched or otherwise accounted for those jobs).
    pub fn clear_ready(&mut self) {
        for &j in &self.ready_queue {
            self.in_ready_queue[j.index()] = false;
        }
        self.ready_queue.clear();
    }

    /// Record a worker's "running" acknowledgment.
    ///
    /// Idempotent for already-running jobs; ignored for completed jobs
    /// (a stale ack after a timeout-resubmit race, paper §III.B).
    pub fn mark_running(&mut self, id: JobId) {
        match self.state(id) {
            JobState::Ready => {
                self.state[id.index()] = JobState::Running;
                self.stats.ready -= 1;
                self.stats.running += 1;
            }
            JobState::Pending => {
                // A worker can only have gotten the job if we published it;
                // Pending means a protocol error by the caller.
                debug_assert!(false, "mark_running on pending job {id:?}");
            }
            JobState::Running | JobState::Completed | JobState::Abandoned => {}
        }
    }

    /// Record a worker's "completed" acknowledgment *without* releasing
    /// children — use [`complete_in`](Self::complete_in) in normal operation.
    /// Duplicate completions (two workers raced on a timed-out job) are
    /// ignored.
    pub fn mark_completed(&mut self, id: JobId) {
        match self.state(id) {
            // Abandoned is terminal: a late completion from a worker that
            // raced the dead-letter decision must not resurrect the job —
            // its dependents were already written off.
            JobState::Completed | JobState::Abandoned => return,
            JobState::Ready => self.stats.ready -= 1,
            JobState::Running => self.stats.running -= 1,
            JobState::Pending => {
                debug_assert!(false, "mark_completed on pending job {id:?}");
                self.stats.pending -= 1;
            }
        }
        self.state[id.index()] = JobState::Completed;
        self.stats.completed += 1;
    }

    /// Mark completed and release children onto the ready queue without
    /// allocating — newly eligible jobs are picked up by the next
    /// [`drain_ready_into`](Self::drain_ready_into) /
    /// [`take_ready`](Self::take_ready). Duplicate completions are ignored.
    pub fn complete(&mut self, workflow: &Workflow, id: JobId) {
        if matches!(self.state(id), JobState::Completed | JobState::Abandoned) {
            return;
        }
        self.mark_completed(id);
        for &c in workflow.children(id) {
            let r = &mut self.remaining[c.index()];
            debug_assert!(*r > 0, "child {c:?} released more times than its in-degree");
            *r -= 1;
            if *r == 0 && self.state[c.index()] == JobState::Pending {
                // An Abandoned child (dead-lettered via another parent)
                // stays abandoned even once its last parent completes.
                self.state[c.index()] = JobState::Ready;
                self.stats.pending -= 1;
                self.stats.ready += 1;
                self.ready_queue.push(c);
                self.in_ready_queue[c.index()] = true;
            }
        }
    }

    /// Convenience: mark completed and release children, returning the
    /// newly eligible jobs (allocates; hot paths use
    /// [`complete`](Self::complete) + [`drain_ready_into`](Self::drain_ready_into)).
    pub fn complete_in(&mut self, workflow: &Workflow, id: JobId) -> Vec<JobId> {
        let before = self.ready_queue.len();
        self.complete(workflow, id);
        self.ready_queue[before..].to_vec()
    }

    /// Put a Running job back to Ready (timeout resubmission, §III.B).
    ///
    /// Returns `true` if the job was actually resubmitted (it was Running
    /// and is now queued again), `false` if it had already completed.
    pub fn resubmit(&mut self, id: JobId) -> bool {
        match self.state(id) {
            JobState::Running => {
                self.state[id.index()] = JobState::Ready;
                self.stats.running -= 1;
                self.stats.ready += 1;
                self.ready_queue.push(id);
                self.in_ready_queue[id.index()] = true;
                true
            }
            JobState::Ready => {
                // Published but never picked up: republish.
                if !self.in_ready_queue[id.index()] {
                    self.ready_queue.push(id);
                    self.in_ready_queue[id.index()] = true;
                }
                true
            }
            _ => false,
        }
    }

    /// Dead-letter a job: mark it — and, transitively, every descendant,
    /// which can never become eligible — [`JobState::Abandoned`].
    ///
    /// The job itself may be in any non-terminal state (Running after a
    /// final timeout, Ready after a final failure ack). Returns the number
    /// of jobs newly abandoned (the job plus its written-off descendants);
    /// 0 if the job was already terminal.
    pub fn abandon(&mut self, workflow: &Workflow, id: JobId) -> usize {
        let mut stack = vec![id];
        let mut count = 0usize;
        while let Some(j) = stack.pop() {
            match self.state(j) {
                JobState::Completed | JobState::Abandoned => continue,
                JobState::Ready => {
                    self.stats.ready -= 1;
                    if self.in_ready_queue[j.index()] {
                        // Lazy removal: leave the queue entry behind; drains
                        // skip terminal jobs via the membership flag reset.
                        self.in_ready_queue[j.index()] = false;
                        self.ready_queue.retain(|&q| q != j);
                    }
                }
                JobState::Running => self.stats.running -= 1,
                JobState::Pending => self.stats.pending -= 1,
            }
            self.state[j.index()] = JobState::Abandoned;
            self.stats.abandoned += 1;
            count += 1;
            stack.extend(workflow.children(j).iter().copied());
        }
        count
    }

    /// True once every job has completed.
    pub fn is_complete(&self) -> bool {
        self.stats.completed == self.stats.total()
    }

    /// True once every job reached a terminal state (completed or
    /// abandoned): the workflow can make no further progress.
    pub fn is_settled(&self) -> bool {
        self.stats.completed + self.stats.abandoned == self.stats.total()
    }

    /// Aggregate state counts.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::WorkflowBuilder;

    fn chain3() -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let a = b.job("a", "t", 1.0).build();
        let c = b.job("b", "t", 1.0).build();
        let d = b.job("c", "t", 1.0).build();
        b.edge(a, c);
        b.edge(c, d);
        b.finish().unwrap()
    }

    #[test]
    fn roots_start_ready() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        assert_eq!(t.take_ready(), vec![JobId(0)]);
        assert_eq!(t.stats().ready, 1);
        assert_eq!(t.stats().pending, 2);
    }

    #[test]
    fn completion_releases_children_in_order() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        let newly = t.complete_in(&wf, JobId(0));
        assert_eq!(newly, vec![JobId(1)]);
        assert_eq!(t.state(JobId(1)), JobState::Ready);
        assert_eq!(t.state(JobId(2)), JobState::Pending);
        t.mark_running(JobId(1));
        t.complete_in(&wf, JobId(1));
        t.mark_running(JobId(2));
        t.complete_in(&wf, JobId(2));
        assert!(t.is_complete());
    }

    #[test]
    fn duplicate_completion_is_ignored() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        assert_eq!(t.complete_in(&wf, JobId(0)).len(), 1);
        assert_eq!(t.complete_in(&wf, JobId(0)).len(), 0, "second ack must be a no-op");
        assert_eq!(t.stats().completed, 1);
    }

    #[test]
    fn stale_running_ack_after_completion_ignored() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        t.complete_in(&wf, JobId(0));
        t.mark_running(JobId(0)); // late duplicate-delivery ack
        assert_eq!(t.state(JobId(0)), JobState::Completed);
    }

    #[test]
    fn resubmit_requeues_running_job() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        assert!(t.resubmit(JobId(0)));
        assert_eq!(t.state(JobId(0)), JobState::Ready);
        assert_eq!(t.take_ready(), vec![JobId(0)]);
    }

    #[test]
    fn resubmit_completed_job_is_noop() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        t.complete_in(&wf, JobId(0));
        assert!(!t.resubmit(JobId(0)));
    }

    #[test]
    fn resubmit_ready_job_does_not_duplicate_queue_entry() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        // job 0 is in the ready queue; resubmitting should not add it twice.
        assert!(t.resubmit(JobId(0)));
        assert_eq!(t.take_ready(), vec![JobId(0)]);
    }

    #[test]
    fn stats_sum_to_total() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        assert_eq!(t.stats().total(), 3);
        t.take_ready();
        t.mark_running(JobId(0));
        assert_eq!(t.stats().total(), 3);
        t.complete_in(&wf, JobId(0));
        assert_eq!(t.stats().total(), 3);
    }

    #[test]
    fn empty_workflow_is_immediately_complete() {
        let wf = WorkflowBuilder::new("e").finish().unwrap();
        let t = DependencyTracker::new(&wf);
        assert!(t.is_complete());
    }

    #[test]
    fn drain_ready_into_matches_take_ready_and_keeps_buffer() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        let mut buf = Vec::new();
        t.drain_ready_into(&mut buf);
        assert_eq!(buf, vec![JobId(0)]);
        assert!(t.take_ready().is_empty());
        buf.clear();
        t.mark_running(JobId(0));
        t.complete(&wf, JobId(0));
        t.drain_ready_into(&mut buf);
        assert_eq!(buf, vec![JobId(1)]);
    }

    #[test]
    fn clear_ready_resets_membership() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.clear_ready();
        assert!(t.take_ready().is_empty());
        // The cleared root is still Ready; resubmitting must requeue it
        // exactly once (membership flag was reset by clear_ready).
        assert!(t.resubmit(JobId(0)));
        assert!(t.resubmit(JobId(0)));
        assert_eq!(t.take_ready(), vec![JobId(0)]);
    }

    #[test]
    fn resubmit_after_take_ready_requeues() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        assert_eq!(t.take_ready(), vec![JobId(0)]);
        // Taken but never picked up by a worker: still Ready, and the
        // membership flag must have been cleared by take_ready.
        assert!(t.resubmit(JobId(0)));
        assert_eq!(t.take_ready(), vec![JobId(0)]);
    }

    #[test]
    fn complete_is_alloc_free_flavor_of_complete_in() {
        let wf = chain3();
        let mut a = DependencyTracker::new(&wf);
        let mut b = DependencyTracker::new(&wf);
        a.take_ready();
        b.take_ready();
        a.mark_running(JobId(0));
        b.mark_running(JobId(0));
        let newly = a.complete_in(&wf, JobId(0));
        b.complete(&wf, JobId(0));
        assert_eq!(newly, b.take_ready());
        assert_eq!(a.take_ready(), newly);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn abandon_running_job_writes_off_descendants() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        assert_eq!(t.abandon(&wf, JobId(0)), 3, "job + 2 descendants");
        assert_eq!(t.state(JobId(0)), JobState::Abandoned);
        assert_eq!(t.state(JobId(2)), JobState::Abandoned);
        assert!(t.is_settled());
        assert!(!t.is_complete());
        assert_eq!(t.stats().abandoned, 3);
        assert_eq!(t.stats().total(), 3);
    }

    #[test]
    fn abandon_is_idempotent_and_ignores_completed() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        t.complete_in(&wf, JobId(0));
        t.mark_running(JobId(1));
        assert_eq!(t.abandon(&wf, JobId(1)), 2, "completed parent untouched");
        assert_eq!(t.abandon(&wf, JobId(1)), 0, "second abandon is a no-op");
        assert_eq!(t.state(JobId(0)), JobState::Completed);
        assert!(t.is_settled());
    }

    #[test]
    fn late_completion_of_abandoned_job_is_ignored() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        t.abandon(&wf, JobId(0));
        t.complete(&wf, JobId(0)); // straggler worker finished anyway
        assert_eq!(t.state(JobId(0)), JobState::Abandoned);
        assert_eq!(t.stats().completed, 0);
        assert_eq!(t.take_ready(), Vec::<JobId>::new(), "no children released");
        assert!(!t.resubmit(JobId(0)), "abandoned jobs never resubmit");
    }

    #[test]
    fn abandon_ready_job_purges_ready_queue() {
        let mut b = WorkflowBuilder::new("fork");
        let a = b.job("a", "t", 1.0).build();
        let l = b.job("l", "t", 1.0).build();
        let r = b.job("r", "t", 1.0).build();
        b.edge(a, l);
        b.edge(a, r);
        let wf = b.finish().unwrap();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(a);
        t.complete(&wf, a); // l, r now queued Ready
        assert_eq!(t.abandon(&wf, l), 1);
        assert_eq!(t.take_ready(), vec![r], "abandoned job left the queue");
        assert!(!t.is_settled());
        t.mark_running(r);
        t.complete(&wf, r);
        assert!(t.is_settled());
    }

    #[test]
    fn diamond_join_survivor_parent_does_not_resurrect_abandoned_child() {
        // a -> {l, r} -> d; l is dead-lettered, then r completes. d must
        // stay abandoned even though its last remaining parent finished.
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.job("a", "t", 1.0).build();
        let l = b.job("l", "t", 1.0).build();
        let r = b.job("r", "t", 1.0).build();
        let d = b.job("d", "t", 1.0).build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, d);
        b.edge(r, d);
        let wf = b.finish().unwrap();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(a);
        t.complete(&wf, a);
        t.take_ready();
        t.mark_running(l);
        t.mark_running(r);
        assert_eq!(t.abandon(&wf, l), 2, "l and d");
        t.complete(&wf, r);
        assert_eq!(t.state(d), JobState::Abandoned);
        assert_eq!(t.take_ready(), Vec::<JobId>::new());
        assert!(t.is_settled());
        assert_eq!(t.stats().completed, 2);
        assert_eq!(t.stats().abandoned, 2);
    }

    /// Every query a settled tracker answers, for comparing before and
    /// after `release`.
    fn answers(t: &DependencyTracker, jobs: usize) -> (Vec<JobState>, TrackerStats, bool, bool) {
        let states = (0..jobs).map(|j| t.state(JobId(j as u32))).collect();
        (states, t.stats(), t.is_complete(), t.is_settled())
    }

    #[test]
    fn released_all_completed_tracker_answers_as_before_and_holds_nothing() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        for j in wf.job_ids() {
            t.take_ready();
            t.mark_running(j);
            t.complete(&wf, j);
        }
        assert!(t.is_complete() && !t.is_released());
        let before = answers(&t, 3);
        t.release();
        assert_eq!(answers(&t, 3), before);
        assert!(t.is_released());
        assert_eq!(t.state.capacity() + t.ready_queue.capacity() + t.in_ready_queue.capacity(), 0);
        // Every event is the no-op it was on the settled tracker.
        t.mark_running(JobId(1));
        t.complete(&wf, JobId(1));
        assert!(!t.resubmit(JobId(1)));
        assert_eq!(t.abandon(&wf, JobId(0)), 0);
        assert_eq!(t.take_ready(), Vec::<JobId>::new());
        assert_eq!(answers(&t, 3), before);
    }

    #[test]
    fn released_partly_abandoned_tracker_still_tells_completed_from_abandoned() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(JobId(0));
        t.complete(&wf, JobId(0));
        t.take_ready();
        t.mark_running(JobId(1));
        assert_eq!(t.abandon(&wf, JobId(1)), 2);
        assert!(t.is_settled() && !t.is_complete());
        let before = answers(&t, 3);
        t.release();
        assert_eq!(answers(&t, 3), before);
        assert_eq!(before.0, vec![JobState::Completed, JobState::Abandoned, JobState::Abandoned]);
        assert!(t.is_released());
        assert_eq!(t.ready_queue.capacity() + t.in_ready_queue.capacity(), 0);
        t.complete(&wf, JobId(1)); // the straggler finishes anyway
        assert_eq!(answers(&t, 3), before);
    }

    #[test]
    #[should_panic(expected = "no job")]
    fn released_tracker_still_refuses_a_job_it_never_had() {
        let wf = chain3();
        let mut t = DependencyTracker::new(&wf);
        for j in wf.job_ids() {
            t.complete(&wf, j);
        }
        t.release();
        t.state(JobId(3));
    }

    #[test]
    fn wide_fanout_releases_all_children() {
        let mut b = WorkflowBuilder::new("fan");
        let root = b.job("root", "t", 1.0).build();
        for i in 0..100 {
            let c = b.job(format!("c{i}"), "t", 1.0).build();
            b.edge(root, c);
        }
        let wf = b.finish().unwrap();
        let mut t = DependencyTracker::new(&wf);
        t.take_ready();
        t.mark_running(root);
        let newly = t.complete_in(&wf, root);
        assert_eq!(newly.len(), 100);
        assert_eq!(t.stats().ready, 100);
    }
}
