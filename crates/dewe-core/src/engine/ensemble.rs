use super::*;

/// Engine-wide configuration and the one way to construct engines.
///
/// `EngineConfig` doubles as a builder: chain setters off
/// [`EngineConfig::default()`] and finish with [`build`](Self::build).
///
/// ```
/// use dewe_core::EngineConfig;
/// let engine = EngineConfig::default().timeout(30.0).max_attempts(3).build();
/// assert_eq!(engine.stats().dispatches, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// System-wide default job timeout (overridable per job); default
    /// [`DEFAULT_TIMEOUT_SECS`], paper §III.B.
    pub default_timeout_secs: f64,
    /// Optional dispatch-to-checkout deadline: if a published job is not
    /// checked out (no Running ack) within this many seconds it is
    /// resubmitted. `None` (default) trusts the queue to requeue what a
    /// dead worker held — the paper's assumption. Set it when the transport can *lose* messages
    /// (chaos drop injection), otherwise a dropped dispatch hangs forever.
    pub checkout_timeout_secs: Option<f64>,
    /// Retry budget applied to failed and timed-out jobs: the attempt that
    /// fails as the `n`-th dead-letters its job — it and (transitively) its
    /// dependents are marked [`Abandoned`](dewe_dag::JobState::Abandoned)
    /// and the workflow settles with partial completion. A retry inside
    /// the budget is dispatched at once. `None` (default) retries forever,
    /// the paper's behavior.
    pub max_attempts: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            default_timeout_secs: DEFAULT_TIMEOUT_SECS,
            checkout_timeout_secs: None,
            max_attempts: None,
        }
    }
}

impl EngineConfig {
    /// Set the system-wide default job timeout, in seconds.
    #[must_use]
    pub fn timeout(mut self, secs: f64) -> Self {
        self.default_timeout_secs = secs;
        self
    }

    /// Dead-letter a job once `cap` of its attempts have failed.
    #[must_use]
    pub fn max_attempts(mut self, cap: u32) -> Self {
        self.max_attempts = Some(cap);
        self
    }

    /// Validate the configuration and construct the engine.
    ///
    /// # Panics
    /// On nonsensical settings: non-positive timeout or a zero attempt cap.
    pub fn build(self) -> EnsembleEngine {
        assert!(self.default_timeout_secs > 0.0);
        assert!(self.max_attempts.is_none_or(|cap| cap >= 1));
        EnsembleEngine {
            workflows: Vec::new(),
            live: 0,
            lanes: InflightLanes::default(),
            stats: EngineStats::default(),
            deadlines: DeadlineWheel::default(),
            scratch_ready: Vec::new(),
            scratch_expired: Vec::new(),
            config: self,
        }
    }
}

/// What the master must do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Publish this job to the dispatch topic.
    Dispatch(DispatchMsg),
    /// A job exhausted its retry budget; it and its not-yet-completed
    /// descendants were abandoned (`abandoned_jobs` counts all of them,
    /// including the dead-lettered job itself).
    JobDeadLettered {
        /// Which job, in which workflow.
        job: EnsembleJobId,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// Jobs written off: the job itself plus abandoned descendants.
        abandoned_jobs: usize,
    },
    /// A workflow ran to completion (all jobs acknowledged complete).
    WorkflowCompleted {
        /// Which workflow.
        workflow: WorkflowId,
        /// Seconds from its submission to completion.
        makespan_secs: f64,
    },
    /// A workflow settled with dead-lettered jobs: every job is terminal
    /// (completed or abandoned) but the workflow did not fully complete.
    WorkflowAbandoned {
        /// Which workflow.
        workflow: WorkflowId,
        /// Jobs of this workflow that exhausted their retry budget.
        dead_lettered: u64,
        /// Total abandoned jobs (dead-lettered + written-off dependents).
        abandoned_jobs: usize,
    },
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Workflows submitted.
    pub workflows_submitted: usize,
    /// Workflows completed.
    pub workflows_completed: usize,
    /// Workflows settled with at least one abandoned job.
    pub workflows_abandoned: usize,
    /// Jobs dispatched (including resubmissions).
    pub dispatches: u64,
    /// Timeout/failure resubmissions.
    pub resubmissions: u64,
    /// Completed jobs.
    pub jobs_completed: u64,
    /// Duplicate completions observed (timeout races; harmless by design).
    pub duplicate_completions: u64,
    /// Failure reports discarded as stale: a newer attempt already owned
    /// the job's slot, or the job had already reached a terminal state
    /// (zombie-worker and requeue noise; see the liveness plane).
    pub stale_failures_ignored: u64,
    /// Jobs that exhausted their retry budget.
    pub dead_lettered: u64,
    /// Jobs written off: dead-lettered jobs plus their abandoned
    /// descendants.
    pub jobs_abandoned: u64,
    /// Acknowledgments for work the engine never asked for — an unknown
    /// workflow or job, a job not yet dispatched, the failure of an attempt
    /// not yet issued — counted and otherwise ignored.
    pub rejected_acks: u64,
}

/// The DEWE v2 master daemon's DAG-management state machine.
///
/// Constructed through the [`EngineConfig`] builder:
/// `EngineConfig::default().timeout(..).build()`.
pub struct EnsembleEngine {
    workflows: Vec<WorkflowState>,
    /// Submitted workflows that have not settled.
    live: usize,
    /// Struct-of-arrays in-flight slab shared by every workflow.
    lanes: InflightLanes,
    config: EngineConfig,
    stats: EngineStats,
    /// Engine-wide tracker of candidate deadlines (the hierarchical wheel
    /// of `wheel.rs`), validated lazily against the in-flight slab. Pushed
    /// on checkout (Running ack) and — when a checkout timeout is
    /// configured — dispatch, so its size is bounded by recent protocol
    /// events, not by total in-flight jobs.
    deadlines: DeadlineWheel,
    /// Reusable buffer for draining tracker ready queues.
    scratch_ready: Vec<JobId>,
    /// Reusable buffer for the wheel's per-scan expired batch.
    scratch_expired: Vec<DeadlineEntry>,
}

impl EnsembleEngine {
    /// Submit a workflow at time `now`; appends dispatches for its roots
    /// to `actions` and returns the assigned workflow id.
    ///
    /// Multiple workflows may be in flight at once — their eligible jobs
    /// share the single dispatch topic, which is how DEWE v2 runs
    /// ensembles in parallel on one cluster.
    pub fn submit_workflow(
        &mut self,
        workflow: Arc<Workflow>,
        now: f64,
        actions: &mut Vec<Action>,
    ) -> WorkflowId {
        let id = WorkflowId::from_index(self.workflows.len());
        let tracker = DependencyTracker::new(&workflow);
        // The lanes region must exist before the roots dispatch into it;
        // a workflow without jobs has no slot to name and gets none.
        let base = match workflow.job_count() {
            0 => 0,
            jobs => self.lanes.claim(id, jobs),
        };
        self.workflows.push(WorkflowState {
            workflow,
            tracker,
            submitted_at: now,
            base,
            dead_lettered: 0,
        });
        self.live += 1;
        self.stats.workflows_submitted += 1;
        self.dispatch_ready(id, now, actions);
        // An empty workflow completes immediately.
        self.settle_if_terminal(id, now, actions);
        id
    }

    /// Process a worker acknowledgment at time `now`: actions are
    /// appended to a caller-owned buffer, and in steady state (no new
    /// frontier growth) processing an ack performs no heap allocation.
    ///
    /// Acks come from the network. One that names nothing the engine
    /// dispatched — an unknown workflow or job, a job still waiting on its
    /// parents, the failure of an attempt not yet issued — is counted in
    /// [`EngineStats::rejected_acks`] and changes nothing.
    pub fn on_ack(&mut self, ack: AckMsg, now: f64, actions: &mut Vec<Action>) {
        let wf = ack.job.workflow;
        let job = ack.job.job;
        let Some(state) = self
            .workflows
            .get_mut(wf.index())
            .filter(|state| job.index() < state.workflow.job_count())
        else {
            self.stats.rejected_acks += 1;
            return;
        };
        match state.tracker.state(job) {
            // Every job of a settled workflow is here, so a late ack is
            // fenced before it can read the lanes region's next tenant.
            JobState::Completed | JobState::Abandoned => {
                match ack.kind {
                    // A checkout of work already written off: nothing to time.
                    AckKind::Running => {}
                    // Timeout race: two workers ran the job; results are
                    // identical by workflow determinism (the paper verifies
                    // output checksums), so drop the duplicate. A straggler
                    // completion of a dead-lettered job is likewise noise —
                    // its descendants are already written off.
                    AckKind::Completed => self.stats.duplicate_completions += 1,
                    // Failure evidence for a terminal job is stale by
                    // definition — e.g. a lease-expiry requeue of a phantom
                    // assignment left by a Running ack that was delayed past
                    // its own Completed. Counting it (rather than dropping it
                    // silently) keeps the fault plane's requeue conservation
                    // auditable: every requeued job is either resubmitted or
                    // visibly fenced.
                    AckKind::Failed => self.stats.stale_failures_ignored += 1,
                }
                return;
            }
            // Never dispatched: applying a completion would release its
            // children out of DAG order.
            JobState::Pending => {
                self.stats.rejected_acks += 1;
                return;
            }
            // Dispatched and live, so its slot is occupied.
            JobState::Ready | JobState::Running => {}
        }
        let i = state.base as usize + job.index();
        match ack.kind {
            AckKind::Running => {
                // Checkout: the timeout clock starts now (the job may have
                // sat in the queue arbitrarily long beforehand).
                let timeout =
                    state.workflow.job(job).effective_timeout(self.config.default_timeout_secs);
                if self.lanes.tag[i] == SLOT_INFLIGHT && self.lanes.attempt[i] == ack.attempt {
                    let deadline = now + timeout;
                    self.lanes.deadline[i] = deadline;
                    // Any earlier entry for this job is now stale and
                    // will be discarded lazily at pop time.
                    self.deadlines.push(DeadlineEntry::new(deadline, i, ack.attempt));
                }
                state.tracker.mark_running(job);
            }
            AckKind::Completed => {
                self.lanes.tag[i] = SLOT_EMPTY;
                // Split borrow: the tracker mutates while reading the DAG.
                let WorkflowState { workflow, tracker, .. } = state;
                tracker.complete(workflow, job);
                self.stats.jobs_completed += 1;
                self.dispatch_ready(wf, now, actions);
                // This may have been the last live branch of a workflow
                // that already dead-lettered elsewhere: then it settles
                // (partially complete) rather than completes.
                self.settle_if_terminal(wf, now, actions);
            }
            AckKind::Failed => match ack.attempt.cmp(&self.lanes.attempt[i]) {
                // Generation check: a failure report for an attempt older
                // than the one the slab currently tracks is a zombie's —
                // the attempt already timed out (or its worker's lease
                // expired) and a newer attempt owns the slot. Acting on it
                // would burn retry budget against an attempt that was
                // already written off.
                Ordering::Less => self.stats.stale_failures_ignored += 1,
                // An attempt not yet issued cannot have failed; taking its
                // word would skip the retry budget ahead.
                Ordering::Greater => self.stats.rejected_acks += 1,
                // Immediate failure report (no need to wait for the
                // timeout): route through the retry budget.
                Ordering::Equal => self.handle_attempt_failure(wf, job, ack.attempt, now, actions),
            },
        }
    }

    /// Dispatch, as first attempts, the jobs of `wf` that became ready.
    /// Draining the tracker's queue (rather than taking a returned list)
    /// keeps it from accumulating stale entries.
    fn dispatch_ready(&mut self, wf: WorkflowId, now: f64, actions: &mut Vec<Action>) {
        let mut ready = std::mem::take(&mut self.scratch_ready);
        self.workflows[wf.index()].tracker.drain_ready_into(&mut ready);
        for &job in &ready {
            let action = self.dispatch_indexed(wf, job, 1, now);
            actions.push(action);
        }
        ready.clear();
        self.scratch_ready = ready;
    }

    /// Called when a job of `wf` just became terminal (or `wf` was just
    /// submitted): if that was its last live job, settle it — report it,
    /// then give back what only a live workflow needs: the tracker's lanes
    /// and the in-flight region, which the next workflow of this length
    /// takes.
    fn settle_if_terminal(&mut self, wf: WorkflowId, now: f64, actions: &mut Vec<Action>) {
        let state = &mut self.workflows[wf.index()];
        if !state.tracker.is_settled() {
            return;
        }
        self.live -= 1;
        actions.push(if state.tracker.is_complete() {
            self.stats.workflows_completed += 1;
            Action::WorkflowCompleted { workflow: wf, makespan_secs: now - state.submitted_at }
        } else {
            self.stats.workflows_abandoned += 1;
            Action::WorkflowAbandoned {
                workflow: wf,
                dead_lettered: state.dead_lettered,
                abandoned_jobs: state.tracker.stats().abandoned,
            }
        });
        state.tracker.release();
        if state.workflow.job_count() > 0 {
            self.lanes.release(state.base);
        }
    }

    fn dispatch_indexed(&mut self, wf: WorkflowId, job: JobId, attempt: u32, now: f64) -> Action {
        // The timeout clock normally starts when the job is *checked out*
        // (Running ack), not when it is published: a message sitting in
        // the queue is safe — the queue requeues a dead worker's
        // unacknowledged checkouts (paper §III.B). Until checkout the deadline is
        // infinite and the job has no deadline-timer entry, unless a
        // checkout timeout is configured to survive lossy transports.
        let deadline = match self.config.checkout_timeout_secs {
            Some(t) => now + t,
            None => f64::INFINITY,
        };
        let i = self.workflows[wf.index()].base as usize + job.index();
        let entry = self.lanes.set(i, deadline, attempt);
        if deadline.is_finite() {
            self.deadlines.push(entry);
        }
        self.stats.dispatches += 1;
        Action::Dispatch(DispatchMsg { job: EnsembleJobId::new(wf, job), attempt })
    }

    /// A live job's attempt failed (Failed ack or timeout): retry at once
    /// within budget, or dead-letter.
    fn handle_attempt_failure(
        &mut self,
        wf: WorkflowId,
        job: JobId,
        failed_attempt: u32,
        now: f64,
        actions: &mut Vec<Action>,
    ) {
        let state = &mut self.workflows[wf.index()];
        let i = state.base as usize + job.index();
        if self.config.max_attempts.is_some_and(|cap| failed_attempt >= cap) {
            // Retry budget exhausted: dead-letter the job and write off
            // every descendant that can no longer run.
            self.lanes.tag[i] = SLOT_EMPTY;
            state.dead_lettered += 1;
            let WorkflowState { workflow, tracker, .. } = state;
            let abandoned = tracker.abandon(workflow, job);
            self.stats.dead_lettered += 1;
            self.stats.jobs_abandoned += abandoned as u64;
            actions.push(Action::JobDeadLettered {
                job: EnsembleJobId::new(wf, job),
                attempts: failed_attempt,
                abandoned_jobs: abandoned,
            });
            self.settle_if_terminal(wf, now, actions);
            return;
        }
        if state.tracker.resubmit(job) {
            state.tracker.clear_ready(); // drop the requeue marker
            self.stats.resubmissions += 1;
            let action = self.dispatch_indexed(wf, job, failed_attempt + 1, now);
            actions.push(action);
        }
    }

    /// Periodic timeout scan (paper §III.B): any in-flight job whose
    /// deadline passed is republished so another worker can run it.
    ///
    /// Only entries whose deadline has expired are visited, no matter how
    /// many are in flight: the wheel drains the slots `now` crossed and
    /// just that expired batch is sorted, so a scan fires in ascending
    /// (deadline, workflow, job, attempt) order.
    pub fn check_timeouts(&mut self, now: f64, actions: &mut Vec<Action>) {
        let mut expired = std::mem::take(&mut self.scratch_expired);
        // Processing an expired entry can file new deadlines (checkout
        // timeouts of the retries it dispatches); re-drain until quiescent
        // so any that land at or before `now` fire in this scan.
        loop {
            expired.clear();
            self.deadlines.drain_expired(now, &mut expired);
            if expired.is_empty() {
                break;
            }
            // The wheel hands the batch over in wheel-slot order; the
            // scan's contract is (deadline, workflow, job, attempt) order.
            // Lane slots order jobs within a region but regions are
            // recycled, so entries tied on the deadline are put in the
            // order of the jobs they name. No region changes hands during
            // a scan, and an entry naming a free region is stale wherever
            // it sorts.
            expired.sort_unstable();
            let lanes = &self.lanes;
            for tied in expired.chunk_by_mut(|a, b| a.deadline.total_cmp(&b.deadline).is_eq()) {
                if tied.len() > 1 {
                    tied.sort_unstable_by_key(|e| (lanes.job_at(e.slot), e.attempt));
                }
            }
            for entry in &expired {
                if !self.lanes.entry_is_current(entry) {
                    continue; // superseded checkout, resubmission or completion
                }
                // Being current, the entry names its slot's attempt.
                let EnsembleJobId { workflow: wf, job } = self.lanes.job_at(entry.slot);
                self.handle_attempt_failure(wf, job, entry.attempt, now, actions);
            }
        }
        self.scratch_expired = expired;
    }

    /// Earliest pending job deadline, if any (lets drivers sleep precisely
    /// instead of polling). Amortized O(1): stale entries are pruned as
    /// they surface in the wheel's minimum-slot scan.
    pub fn next_deadline(&mut self) -> Option<f64> {
        let lanes = &self.lanes;
        self.deadlines.next_deadline(|e| lanes.entry_is_current(e))
    }

    /// Entries the deadline wheel re-filed coarse-to-fine while advancing
    /// — cheap observability for dashboards.
    pub fn timer_cascades(&self) -> u64 {
        self.deadlines.cascades()
    }

    /// True once every submitted workflow has fully completed.
    pub fn all_complete(&self) -> bool {
        self.all_settled() && self.stats.workflows_abandoned == 0
    }

    /// True once every submitted workflow is settled: fully completed or
    /// terminated with abandoned jobs. The ensemble can make no further
    /// progress past this point.
    pub fn all_settled(&self) -> bool {
        !self.workflows.is_empty() && self.live == 0
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current in-flight attempts: dispatched and not yet terminal. A
    /// recovered master republishes these — the pre-crash queue contents
    /// are unknown, and a duplicate dispatch is only duplicate-completion
    /// noise while a lost one would strand the job until its timeout.
    pub fn inflight_dispatches(&self, out: &mut Vec<DispatchMsg>) {
        for (wfi, state) in self.workflows.iter().enumerate() {
            if state.tracker.is_settled() {
                continue;
            }
            // Scan the one-byte tag lane; the other lanes are only read
            // on a hit.
            for ji in 0..state.workflow.job_count() {
                let i = state.base as usize + ji;
                if self.lanes.tag[i] == SLOT_INFLIGHT {
                    out.push(DispatchMsg {
                        job: EnsembleJobId::new(WorkflowId::from_index(wfi), JobId::from_index(ji)),
                        attempt: self.lanes.attempt[i],
                    });
                }
            }
        }
    }

    /// Tracker state of one job, or `None` for an unknown workflow/job —
    /// the deterministic hook differential test harnesses use to read the
    /// engine's terminal verdict (completed / abandoned / stuck) per job
    /// without reaching into internals.
    pub fn job_state(&self, job: EnsembleJobId) -> Option<JobState> {
        let state = self.workflows.get(job.workflow.index())?;
        if job.job.index() >= state.workflow.job_count() {
            return None;
        }
        Some(state.tracker.state(job.job))
    }

    /// Access a submitted workflow.
    pub fn workflow(&self, id: WorkflowId) -> &Arc<Workflow> {
        &self.workflows[id.index()].workflow
    }

    /// Number of submitted workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows.len()
    }
}

impl Default for EnsembleEngine {
    fn default() -> Self {
        EngineConfig::default().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    fn chain(n: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let j = b.job(format!("j{i}"), "t", 1.0).build();
            if let Some(p) = prev {
                b.edge(p, j);
            }
            prev = Some(j);
        }
        Arc::new(b.finish().unwrap())
    }

    fn dispatches(actions: &[Action]) -> Vec<DispatchMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    /// Allocating test shims over the sink-based API: unit tests here read
    /// better with returned action lists.
    fn submit(e: &mut EnsembleEngine, wf: Arc<Workflow>, now: f64) -> (WorkflowId, Vec<Action>) {
        let mut actions = Vec::new();
        let id = e.submit_workflow(wf, now, &mut actions);
        (id, actions)
    }

    fn ack(e: &mut EnsembleEngine, msg: AckMsg, now: f64) -> Vec<Action> {
        let mut actions = Vec::new();
        e.on_ack(msg, now, &mut actions);
        actions
    }

    fn scan(e: &mut EnsembleEngine, now: f64) -> Vec<Action> {
        let mut actions = Vec::new();
        e.check_timeouts(now, &mut actions);
        actions
    }

    fn run_ack(job: EnsembleJobId, attempt: u32) -> AckMsg {
        AckMsg { job, worker: 0, kind: AckKind::Running, attempt }
    }

    fn done_ack(job: EnsembleJobId, attempt: u32) -> AckMsg {
        AckMsg { job, worker: 0, kind: AckKind::Completed, attempt }
    }

    fn fail_ack(job: EnsembleJobId, attempt: u32) -> AckMsg {
        AckMsg { job, worker: 0, kind: AckKind::Failed, attempt }
    }

    fn capped(max_attempts: u32) -> EnsembleEngine {
        EngineConfig::default().timeout(10.0).max_attempts(max_attempts).build()
    }

    /// Two independent roots: one dead-letters first, then the other
    /// completes. The *completion* must settle the workflow (emit
    /// `WorkflowAbandoned`, and the ensemble is settled) — regression for the path where
    /// only the dead-letter handler checked settledness and a workflow
    /// whose last live branch finished after a dead-letter hung forever.
    #[test]
    fn completion_after_dead_letter_settles_workflow() {
        let mut e = capped(1);
        let mut b = WorkflowBuilder::new("pair");
        b.job("a", "t", 1.0).build();
        b.job("b", "t", 1.0).build();
        let (wf, actions) = submit(&mut e, Arc::new(b.finish().unwrap()), 0.0);
        let d = dispatches(&actions);
        assert_eq!(d.len(), 2);
        // Root a fails at the cap: dead-lettered, but b is still live so
        // the workflow must not settle yet.
        let actions = ack(&mut e, fail_ack(d[0].job, 1), 1.0);
        assert!(actions.iter().any(|a| matches!(a, Action::JobDeadLettered { .. })));
        assert!(!actions.iter().any(|a| matches!(a, Action::WorkflowAbandoned { .. })));
        assert!(!e.all_settled());
        // Root b completes: that completion settles the workflow.
        let actions = ack(&mut e, done_ack(d[1].job, 1), 2.0);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::WorkflowAbandoned { workflow, dead_lettered: 1, abandoned_jobs: 1 }
                    if *workflow == wf
            )),
            "completion of the last live branch settles: {actions:?}"
        );
        assert!(e.all_settled() && !e.all_complete());
        assert_eq!(e.stats().workflows_abandoned, 1);
        assert_eq!(e.stats().jobs_completed, 1);
    }

    #[test]
    fn submission_dispatches_roots() {
        let mut e = EnsembleEngine::default();
        let (_, actions) = submit(&mut e, chain(3), 0.0);
        let d = dispatches(&actions);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].attempt, 1);
    }

    #[test]
    fn completion_cascades_and_finishes_workflow() {
        let mut e = EnsembleEngine::default();
        let (wf, actions) = submit(&mut e, chain(2), 0.0);
        let d0 = dispatches(&actions)[0];
        ack(&mut e, run_ack(d0.job, 1), 1.0);
        let actions = ack(&mut e, done_ack(d0.job, 1), 2.0);
        let d1 = dispatches(&actions)[0];
        assert_eq!(d1.job.workflow, wf);
        ack(&mut e, run_ack(d1.job, 1), 2.5);
        let actions = ack(&mut e, done_ack(d1.job, 1), 4.0);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::WorkflowCompleted { makespan_secs, .. } if (*makespan_secs - 4.0).abs() < 1e-9
        )));
        assert!(e.all_complete());
    }

    #[test]
    fn timeout_resubmits_with_higher_attempt() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 1.0); // deadline now 11.0
        assert!(scan(&mut e, 10.9).is_empty());
        let actions = scan(&mut e, 11.0);
        let rd = dispatches(&actions);
        assert_eq!(rd.len(), 1);
        assert_eq!(rd[0].attempt, 2);
        assert_eq!(e.stats().resubmissions, 1);
    }

    #[test]
    fn queued_job_never_times_out() {
        // A published-but-unclaimed job sits safely in the queue: the
        // timeout clock only starts at checkout (Running ack). The queue
        // itself requeues a dead worker's checkouts, RabbitMQ-style.
        let mut e = EngineConfig::default().timeout(5.0).build();
        let _ = submit(&mut e, chain(1), 0.0);
        assert!(scan(&mut e, 1e9).is_empty());
        assert_eq!(e.next_deadline(), None);
    }

    #[test]
    fn per_job_timeout_overrides_default() {
        let mut b = WorkflowBuilder::new("t");
        b.job("fast", "t", 1.0).timeout_secs(2.0).build();
        let wf = Arc::new(b.finish().unwrap());
        let mut e = EngineConfig::default().timeout(1000.0).build();
        let (_, actions) = submit(&mut e, wf, 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0);
        assert_eq!(dispatches(&scan(&mut e, 2.0)).len(), 1);
    }

    #[test]
    fn late_completion_after_timeout_is_deduplicated() {
        let mut e = EngineConfig::default().timeout(5.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.5);
        scan(&mut e, 6.0); // resubmitted as attempt 2
                           // Original (slow) worker completes first.
        let actions = ack(&mut e, done_ack(d.job, 1), 7.0);
        assert!(actions.iter().any(|a| matches!(a, Action::WorkflowCompleted { .. })));
        // Second worker completes too: ignored.
        let actions = ack(&mut e, done_ack(d.job, 2), 8.0);
        assert!(actions.is_empty());
        assert_eq!(e.stats().duplicate_completions, 1);
        assert_eq!(e.stats().workflows_completed, 1);
    }

    #[test]
    fn failed_ack_resubmits_immediately() {
        let mut e = EnsembleEngine::default();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 1.0);
        let actions =
            ack(&mut e, AckMsg { job: d.job, worker: 0, kind: AckKind::Failed, attempt: 1 }, 2.0);
        let rd = dispatches(&actions);
        assert_eq!(rd.len(), 1);
        assert_eq!(rd[0].attempt, 2);
    }

    #[test]
    fn running_ack_refreshes_deadline() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        // Job sat in the queue 8 s before a worker picked it up.
        ack(&mut e, run_ack(d.job, 1), 8.0);
        // Dispatch-time deadline (10.0) must no longer apply.
        assert!(scan(&mut e, 10.0).is_empty());
        assert_eq!(dispatches(&scan(&mut e, 18.0)).len(), 1);
    }

    #[test]
    fn multiple_workflows_share_the_dispatch_stream() {
        let mut e = EnsembleEngine::default();
        let (w0, a0) = submit(&mut e, chain(1), 0.0);
        let (w1, a1) = submit(&mut e, chain(1), 5.0);
        assert_ne!(w0, w1);
        let d0 = dispatches(&a0)[0];
        let d1 = dispatches(&a1)[0];
        ack(&mut e, done_ack(d1.job, 1), 6.0);
        assert!(!e.all_complete(), "workflow 0 still running");
        ack(&mut e, done_ack(d0.job, 1), 7.0);
        assert!(e.all_complete());
        assert_eq!(e.stats().workflows_completed, 2);
    }

    #[test]
    fn empty_workflow_completes_on_submission() {
        let mut e = EnsembleEngine::default();
        let wf = Arc::new(WorkflowBuilder::new("empty").finish().unwrap());
        let (_, actions) = submit(&mut e, wf, 3.0);
        assert!(actions.iter().any(|a| matches!(a, Action::WorkflowCompleted { .. })));
        assert!(e.all_complete());
    }

    #[test]
    fn next_deadline_tracks_earliest_checked_out_job() {
        let mut e = EngineConfig::default().timeout(100.0).build();
        let (_, a0) = submit(&mut e, chain(1), 0.0);
        assert_eq!(e.next_deadline(), None, "nothing checked out yet");
        ack(&mut e, run_ack(dispatches(&a0)[0].job, 1), 10.0);
        assert_eq!(e.next_deadline(), Some(110.0));
        let (_, a1) = submit(&mut e, chain(1), 50.0);
        ack(&mut e, run_ack(dispatches(&a1)[0].job, 1), 50.0);
        assert_eq!(e.next_deadline(), Some(110.0));
    }

    #[test]
    fn failed_ack_after_completion_is_ignored() {
        let mut e = EnsembleEngine::default();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, done_ack(d.job, 1), 1.0);
        let actions =
            ack(&mut e, AckMsg { job: d.job, worker: 9, kind: AckKind::Failed, attempt: 1 }, 2.0);
        assert!(actions.is_empty(), "a late failure of a completed job must not resubmit");
        assert_eq!(e.stats().resubmissions, 0);
    }

    #[test]
    fn stale_attempt_failed_ack_does_not_burn_retry_budget() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0); // deadline 10
        let actions = scan(&mut e, 10.0); // resubmit as attempt 2
        assert_eq!(dispatches(&actions)[0].attempt, 2);
        // The zombie's late failure report for attempt 1 must not touch
        // attempt 2 (which would resubmit it as attempt 3 while it is
        // still queued).
        let actions =
            ack(&mut e, AckMsg { job: d.job, worker: 9, kind: AckKind::Failed, attempt: 1 }, 11.0);
        assert!(actions.is_empty());
        assert_eq!(e.stats().resubmissions, 1);
        assert_eq!(e.stats().stale_failures_ignored, 1);
        // A current-attempt failure still routes through the retry budget.
        let actions =
            ack(&mut e, AckMsg { job: d.job, worker: 9, kind: AckKind::Failed, attempt: 2 }, 12.0);
        assert_eq!(dispatches(&actions)[0].attempt, 3);
        assert_eq!(e.stats().resubmissions, 2);
    }

    #[test]
    fn stale_attempt_running_ack_does_not_refresh_deadline() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0); // deadline 10
        let actions = scan(&mut e, 10.0); // resubmit as attempt 2
        let d2 = dispatches(&actions)[0];
        assert_eq!(d2.attempt, 2);
        // The ORIGINAL worker's late running ack (attempt 1) must not push
        // the attempt-2 deadline.
        ack(&mut e, run_ack(d.job, 2), 11.0); // attempt-2 checkout: deadline 21
        ack(&mut e, run_ack(d.job, 1), 20.0); // stale: ignored for the clock
        assert!(scan(&mut e, 20.5).is_empty());
        assert_eq!(dispatches(&scan(&mut e, 21.0)).len(), 1);
    }

    #[test]
    fn timeouts_scan_multiple_workflows_independently() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, a0) = submit(&mut e, chain(1), 0.0);
        let (_, a1) = submit(&mut e, chain(1), 0.0);
        ack(&mut e, run_ack(dispatches(&a0)[0].job, 1), 0.0); // deadline 10
        ack(&mut e, run_ack(dispatches(&a1)[0].job, 1), 5.0); // deadline 15
        assert_eq!(dispatches(&scan(&mut e, 10.0)).len(), 1);
        assert_eq!(dispatches(&scan(&mut e, 15.0)).len(), 1);
    }

    #[test]
    fn a_fired_timer_entry_names_its_job_across_workflow_regions() {
        // Timer entries carry lane slots; the job comes back from the
        // region table. Workflow 1 is job-less: it holds no region and
        // must not be taken for the owner of workflow 2's slots.
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, a0) = submit(&mut e, chain(3), 0.0);
        let empty = Arc::new(WorkflowBuilder::new("empty").finish().unwrap());
        submit(&mut e, empty, 0.0);
        let (w2, a2) = submit(&mut e, chain(2), 0.0);
        ack(&mut e, done_ack(dispatches(&a0)[0].job, 1), 0.0);
        let first = dispatches(&a2)[0];
        let second = dispatches(&ack(&mut e, done_ack(first.job, 1), 0.0))[0];
        assert_eq!(second.job, EnsembleJobId::new(w2, JobId(1)));
        ack(&mut e, run_ack(second.job, 1), 1.0); // deadline 11
        let resubmitted = dispatches(&scan(&mut e, 11.0));
        assert_eq!(resubmitted, vec![DispatchMsg { job: second.job, attempt: 2 }]);
    }

    /// Run `wf`'s outstanding chain job to completion.
    fn finish_chain(e: &mut EnsembleEngine, mut d: DispatchMsg, now: f64) -> Vec<Action> {
        loop {
            let actions = ack(e, done_ack(d.job, d.attempt), now);
            match dispatches(&actions).first() {
                Some(&next) => d = next,
                None => return actions,
            }
        }
    }

    #[test]
    fn state_follows_the_live_workflows_not_every_workflow_submitted() {
        // 200 same-length workflows, at most 4 overlapping: each settled
        // one hands its region and its tracker's lanes to a later one.
        let mut e = EnsembleEngine::default();
        let wf = chain(5);
        let mut live = std::collections::VecDeque::new();
        for n in 0..200 {
            let (_, actions) = submit(&mut e, Arc::clone(&wf), f64::from(n));
            live.push_back(dispatches(&actions)[0]);
            if live.len() == 4 {
                let oldest = live.pop_front().unwrap();
                let done = finish_chain(&mut e, oldest, f64::from(n));
                assert!(done.iter().any(|a| matches!(a, Action::WorkflowCompleted { .. })));
            }
            let unreleased = e.workflows.iter().filter(|w| !w.tracker.is_released()).count();
            assert!(unreleased <= 6 && e.live <= 4, "{unreleased} trackers, {} live", e.live);
            assert!(e.lanes.regions.len() <= 6, "{} regions", e.lanes.regions.len());
        }
        assert_eq!(e.lanes.tag.len(), 4 * 5, "the slab stopped at the peak-live regions");
        for d in live {
            finish_chain(&mut e, d, 200.0);
        }
        assert!(e.all_complete());
        assert!(e.lanes.regions.iter().all(|r| r.free), "every region handed back");
        assert_eq!(e.stats().jobs_completed, 1000);
    }

    #[test]
    fn a_region_is_reused_only_by_a_workflow_of_its_length() {
        let mut e = EnsembleEngine::default();
        let (_, a0) = submit(&mut e, chain(3), 0.0);
        finish_chain(&mut e, dispatches(&a0)[0], 1.0);
        submit(&mut e, chain(2), 2.0);
        assert_eq!(e.lanes.tag.len(), 5, "a 2-job workflow does not move into 3 slots");
        let (w2, _) = submit(&mut e, chain(3), 3.0);
        assert_eq!(e.lanes.tag.len(), 5);
        assert_eq!(e.workflows[w2.index()].base, 0);
        assert_eq!(e.lanes.job_at(2), EnsembleJobId::new(w2, JobId(2)));
    }

    #[test]
    fn late_acks_for_a_settled_workflow_never_reach_the_regions_next_tenant() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, a0) = submit(&mut e, chain(1), 0.0);
        let old = dispatches(&a0)[0];
        ack(&mut e, done_ack(old.job, 1), 1.0);
        let (w1, a1) = submit(&mut e, chain(1), 2.0);
        let new = dispatches(&a1)[0];
        assert_eq!(e.workflows[w1.index()].base, 0, "the region changed hands");
        ack(&mut e, run_ack(new.job, 1), 2.0); // deadline 12
        let before = e.stats();
        // The settled workflow's stragglers: same slot, same attempt.
        assert!(ack(&mut e, run_ack(old.job, 1), 5.0).is_empty());
        assert!(ack(&mut e, done_ack(old.job, 1), 5.0).is_empty());
        assert!(ack(&mut e, fail_ack(old.job, 1), 5.0).is_empty());
        let after = e.stats();
        assert_eq!(after.duplicate_completions, before.duplicate_completions + 1);
        assert_eq!(after.stale_failures_ignored, before.stale_failures_ignored + 1);
        assert_eq!(after.jobs_completed, before.jobs_completed);
        // The tenant's clock was not refreshed and its attempt still runs.
        assert_eq!(e.next_deadline(), Some(12.0));
        assert_eq!(e.job_state(new.job), Some(JobState::Running));
        assert_eq!(dispatches(&scan(&mut e, 12.0)), vec![DispatchMsg { job: new.job, attempt: 2 }]);
    }

    #[test]
    fn a_previous_tenants_timer_entry_that_matches_the_new_one_fires_once() {
        // The old tenant's checkout files (deadline 20, slot 0, attempt 1);
        // it completes, and the next tenant's checkout files the same
        // entry again. Whichever copy surfaces first is current and fires;
        // that invalidates the other.
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, a0) = submit(&mut e, chain(1), 0.0);
        let old = dispatches(&a0)[0];
        ack(&mut e, run_ack(old.job, 1), 10.0);
        ack(&mut e, done_ack(old.job, 1), 10.0);
        let (_, a1) = submit(&mut e, chain(1), 10.0);
        let new = dispatches(&a1)[0];
        ack(&mut e, run_ack(new.job, 1), 10.0);
        assert_eq!(e.deadlines.len(), 2, "two entries, equal field for field");
        assert_eq!(dispatches(&scan(&mut e, 20.0)), vec![DispatchMsg { job: new.job, attempt: 2 }]);
        assert_eq!(e.stats().resubmissions, 1);
        assert_eq!(e.next_deadline(), None);
    }

    #[test]
    fn simultaneous_timeouts_fire_in_workflow_order_whatever_the_slots() {
        // Workflow 1 stays live in the upper region; workflow 2 moves into
        // the lower one that workflow 0 handed back. Their jobs time out at
        // the same instant: workflow 1 fires first, though its slots sort
        // after workflow 2's.
        let mut b = WorkflowBuilder::new("pair");
        b.job("a", "t", 1.0).build();
        b.job("b", "t", 1.0).build();
        let pair = Arc::new(b.finish().unwrap());
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, a0) = submit(&mut e, Arc::clone(&pair), 0.0);
        let (w1, a1) = submit(&mut e, Arc::clone(&pair), 0.0);
        for d in dispatches(&a0) {
            ack(&mut e, done_ack(d.job, 1), 1.0);
        }
        let (w2, a2) = submit(&mut e, pair, 2.0);
        assert!(e.workflows[w2.index()].base < e.workflows[w1.index()].base);
        for d in dispatches(&a2).into_iter().chain(dispatches(&a1)).rev() {
            ack(&mut e, run_ack(d.job, 1), 5.0); // every deadline 15
        }
        let fired: Vec<_> = dispatches(&scan(&mut e, 15.0)).iter().map(|d| d.job).collect();
        let expect: Vec<_> = [(w1, 0), (w1, 1), (w2, 0), (w2, 1)]
            .iter()
            .map(|&(w, j)| EnsembleJobId::new(w, JobId(j)))
            .collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn acks_the_engine_never_asked_for_are_counted_not_applied() {
        let mut e = capped(2);
        let (wf, actions) = submit(&mut e, chain(3), 0.0);
        let root = dispatches(&actions)[0];
        let pending = EnsembleJobId::new(wf, JobId(1));
        let nowhere = [
            EnsembleJobId::new(WorkflowId(7), JobId(0)), // no such workflow
            EnsembleJobId::new(wf, JobId(3)),            // no such job
            pending,                                     // never dispatched
        ];
        for job in nowhere {
            for kind in [AckKind::Running, AckKind::Completed, AckKind::Failed] {
                let hostile = AckMsg { job, worker: 9, kind, attempt: 1 };
                assert!(ack(&mut e, hostile, 1.0).is_empty(), "{hostile:?}");
            }
        }
        assert_eq!(e.stats().rejected_acks, 9);
        assert_eq!(e.job_state(pending), Some(JobState::Pending), "not completed early");
        // A failure of an attempt not yet issued — at the cap it would
        // dead-letter the job, at `u32::MAX` overflow the next attempt.
        for attempt in [2, u32::MAX] {
            assert!(ack(&mut e, fail_ack(root.job, attempt), 1.0).is_empty());
        }
        let stats = e.stats();
        assert_eq!(stats.rejected_acks, 11);
        assert_eq!((stats.jobs_completed, stats.resubmissions, stats.dead_lettered), (0, 0, 0));
        // The workflow still runs in DAG order.
        let next = dispatches(&ack(&mut e, done_ack(root.job, 1), 2.0));
        assert_eq!(next, vec![DispatchMsg { job: pending, attempt: 1 }]);
    }

    #[test]
    fn resubmitted_job_completion_still_releases_children() {
        let mut e = EngineConfig::default().timeout(5.0).build();
        let (_, actions) = submit(&mut e, chain(2), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0);
        let resub = dispatches(&scan(&mut e, 5.0));
        assert_eq!(resub.len(), 1);
        ack(&mut e, run_ack(resub[0].job, 2), 6.0);
        let actions = ack(&mut e, done_ack(resub[0].job, 2), 7.0);
        assert_eq!(dispatches(&actions).len(), 1, "child released after retried completion");
    }

    #[test]
    fn stats_count_dispatches_and_completions() {
        let mut e = EnsembleEngine::default();
        let (_, actions) = submit(&mut e, chain(2), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, done_ack(d.job, 1), 1.0);
        let s = e.stats();
        assert_eq!(s.dispatches, 2); // root + released child
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.workflows_submitted, 1);
    }

    // ---- retry budget / dead-letter ----

    #[test]
    fn always_failing_job_dead_letters_at_cap() {
        let mut e = capped(3);
        let (wf, actions) = submit(&mut e, chain(2), 0.0);
        let mut d = dispatches(&actions)[0];
        for attempt in 1..3 {
            let actions = ack(&mut e, fail_ack(d.job, attempt), f64::from(attempt));
            d = dispatches(&actions)[0];
            assert_eq!(d.attempt, attempt + 1);
        }
        // Third (= cap) failure: no more retries.
        let actions = ack(&mut e, fail_ack(d.job, 3), 10.0);
        assert!(dispatches(&actions).is_empty(), "no retry past the cap");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::JobDeadLettered { attempts: 3, abandoned_jobs: 2, .. })));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::WorkflowAbandoned { workflow, dead_lettered: 1, abandoned_jobs: 2 }
                if *workflow == wf
        )));
        let s = e.stats();
        assert_eq!(s.dead_lettered, 1);
        assert_eq!(s.jobs_abandoned, 2);
        assert_eq!(s.workflows_abandoned, 1);
        assert_eq!(s.workflows_completed, 0);
        assert!(e.all_settled());
        assert!(!e.all_complete());
    }

    #[test]
    fn timeout_exhaustion_dead_letters_too() {
        let mut e = capped(2);
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0);
        let resub = dispatches(&scan(&mut e, 10.0));
        assert_eq!(resub.len(), 1);
        ack(&mut e, run_ack(resub[0].job, 2), 10.0);
        let actions = scan(&mut e, 20.0);
        assert!(dispatches(&actions).is_empty());
        assert!(actions.iter().any(|a| matches!(a, Action::JobDeadLettered { .. })));
        assert_eq!(e.stats().dead_lettered, 1);
    }

    #[test]
    fn unaffected_workflow_completes_alongside_dead_letter() {
        let mut e = capped(1);
        let (_, a0) = submit(&mut e, chain(1), 0.0);
        let (w1, a1) = submit(&mut e, chain(1), 0.0);
        let bad = dispatches(&a0)[0];
        let good = dispatches(&a1)[0];
        let actions = ack(&mut e, fail_ack(bad.job, 1), 1.0);
        assert!(actions.iter().any(|a| matches!(a, Action::WorkflowAbandoned { .. })));
        assert!(!e.all_settled(), "workflow 1 still live");
        let actions = ack(&mut e, done_ack(good.job, 1), 2.0);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::WorkflowCompleted { workflow, .. } if *workflow == w1
        )));
        assert!(e.all_settled() && !e.all_complete());
        assert_eq!(e.stats().workflows_completed, 1);
        assert_eq!(e.stats().workflows_abandoned, 1);
    }

    #[test]
    fn late_completion_of_dead_lettered_job_is_noise() {
        let mut e = capped(1);
        let (_, actions) = submit(&mut e, chain(2), 0.0);
        let d = dispatches(&actions)[0];
        ack(&mut e, run_ack(d.job, 1), 0.0);
        let actions = scan(&mut e, 10.0); // attempt 1 times out = cap
        assert!(actions.iter().any(|a| matches!(a, Action::WorkflowAbandoned { .. })));
        // The straggler worker finishes anyway: must not resurrect.
        let actions = ack(&mut e, done_ack(d.job, 1), 11.0);
        assert!(actions.is_empty());
        assert_eq!(e.stats().duplicate_completions, 1);
        assert_eq!(e.stats().jobs_completed, 0);
        assert!(e.all_settled());
    }

    #[test]
    fn checkout_timeout_recovers_dropped_dispatch() {
        // With a lossy transport the dispatch may never reach a worker: no
        // Running ack ever arrives. The checkout timeout resubmits it.
        let mut e =
            EngineConfig { checkout_timeout_secs: Some(30.0), ..EngineConfig::default() }.build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let d = dispatches(&actions)[0];
        assert_eq!(e.next_deadline(), Some(30.0));
        assert!(scan(&mut e, 29.0).is_empty());
        let rd = dispatches(&scan(&mut e, 30.0));
        assert_eq!(rd.len(), 1);
        assert_eq!(rd[0].attempt, 2);
        // This time the checkout lands; the deadline switches to the job
        // timeout and the job completes normally.
        ack(&mut e, run_ack(d.job, 2), 31.0);
        ack(&mut e, done_ack(d.job, 2), 32.0);
        assert!(e.all_complete());
    }

    #[test]
    fn default_config_preserves_unbounded_retries() {
        let mut e = EngineConfig::default().timeout(10.0).build();
        let (_, actions) = submit(&mut e, chain(1), 0.0);
        let mut d = dispatches(&actions)[0];
        for attempt in 1..50u32 {
            let actions = ack(&mut e, fail_ack(d.job, attempt), f64::from(attempt));
            let rd = dispatches(&actions);
            assert_eq!(rd.len(), 1, "attempt {attempt} must retry");
            d = rd[0];
        }
        assert_eq!(e.stats().dead_lettered, 0);
    }
}
