//! The deadline-wheel engine must be observationally identical to the
//! original implementation that kept per-workflow `HashMap` in-flight
//! tables and scanned every running job on each timeout check.
//!
//! A reference copy of that implementation lives in this file, extended
//! with the same retry budget / dead-letter semantics the real
//! engine grew. Both engines are driven through randomized interleavings
//! of submissions, Running/Completed/Failed acknowledgments (including
//! stale-attempt re-acks and duplicate completions from timeout races)
//! and timeout scans, asserting after every step that they emit the same
//! action sequence, the same statistics and the same next deadline.
//!
//! A second property keeps the engine recycling in-flight regions: equal
//! length workflows, each submitted only once an earlier one settled, whose
//! jobs are checked out in bursts (so a live older workflow and a newer one
//! in a recycled region hold identical deadlines) and lose their workers
//! together (so those deadlines expire in one scan). The scan must fire in
//! (deadline, workflow, job) order whatever slots the jobs were given.
//!
//! A third property drives the real engine while journaling its inputs,
//! recovers a twin from the journal mid-run, and asserts the twin is
//! observationally identical from that point on.

use std::collections::HashMap;
use std::sync::Arc;

use dewe_core::realtime::{recover, JournalRecord, Registry};
use dewe_core::{AckKind, AckMsg, Action, DispatchMsg, EngineConfig, EngineStats, EnsembleEngine};
use dewe_dag::{
    DependencyTracker, EnsembleJobId, JobId, JobState, Workflow, WorkflowBuilder, WorkflowId,
};
use dewe_montage::{random_layered, RandomDagConfig};
use proptest::prelude::*;

// Allocating shims over the engine's sink-based surface: the driver below
// compares whole per-step action vectors, so collect them.

fn submit_step(e: &mut EnsembleEngine, wf: Arc<Workflow>, now: f64) -> (WorkflowId, Vec<Action>) {
    let mut actions = Vec::new();
    let id = e.submit_workflow(wf, now, &mut actions);
    (id, actions)
}

fn ack_step(e: &mut EnsembleEngine, ack: AckMsg, now: f64) -> Vec<Action> {
    let mut actions = Vec::new();
    e.on_ack(ack, now, &mut actions);
    actions
}

fn scan_step(e: &mut EnsembleEngine, now: f64) -> Vec<Action> {
    let mut actions = Vec::new();
    e.check_timeouts(now, &mut actions);
    actions
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-heap engine, scan-everything flavor.
// ---------------------------------------------------------------------------

struct RefWorkflow {
    workflow: Arc<Workflow>,
    tracker: DependencyTracker,
    submitted_at: f64,
    /// (deadline, attempt) per in-flight job — the old sparse table.
    inflight: HashMap<JobId, (f64, u32)>,
    done: bool,
    dead_lettered: u64,
}

struct ReferenceEngine {
    workflows: Vec<RefWorkflow>,
    config: EngineConfig,
    stats: EngineStats,
}

impl ReferenceEngine {
    fn new(config: EngineConfig) -> Self {
        Self { workflows: Vec::new(), config, stats: EngineStats::default() }
    }

    fn submit_workflow(&mut self, workflow: Arc<Workflow>, now: f64) -> (WorkflowId, Vec<Action>) {
        let id = WorkflowId::from_index(self.workflows.len());
        let mut state = RefWorkflow {
            tracker: DependencyTracker::new(&workflow),
            workflow,
            submitted_at: now,
            inflight: HashMap::new(),
            done: false,
            dead_lettered: 0,
        };
        let mut actions = Vec::new();
        for job in state.tracker.take_ready() {
            state.inflight.insert(job, (self.dispatch_deadline(now), 1));
            self.stats.dispatches += 1;
            actions.push(Action::Dispatch(DispatchMsg::new(EnsembleJobId::new(id, job), 1)));
        }
        self.stats.workflows_submitted += 1;
        if state.tracker.is_complete() {
            state.done = true;
            self.stats.workflows_completed += 1;
            actions.push(Action::WorkflowCompleted { workflow: id, makespan_secs: 0.0 });
        }
        self.workflows.push(state);
        (id, actions)
    }

    fn dispatch_deadline(&self, now: f64) -> f64 {
        match self.config.checkout_timeout_secs {
            Some(t) => now + t,
            None => f64::INFINITY,
        }
    }

    fn on_ack(&mut self, ack: AckMsg, now: f64) -> Vec<Action> {
        let wf = ack.job.workflow;
        let job = ack.job.job;
        let mut actions = Vec::new();
        match ack.kind {
            AckKind::Running => {
                let state = &mut self.workflows[wf.index()];
                let timeout =
                    state.workflow.job(job).effective_timeout(self.config.default_timeout_secs);
                if let Some((deadline, attempt)) = state.inflight.get_mut(&job) {
                    if *attempt == ack.attempt {
                        *deadline = now + timeout;
                    }
                }
                state.tracker.mark_running(job);
            }
            AckKind::Completed => {
                let dd = self.dispatch_deadline(now);
                let state = &mut self.workflows[wf.index()];
                match state.tracker.state(job) {
                    JobState::Completed | JobState::Abandoned => {
                        self.stats.duplicate_completions += 1;
                        return actions;
                    }
                    _ => {}
                }
                state.inflight.remove(&job);
                let workflow = Arc::clone(&state.workflow);
                state.tracker.complete(&workflow, job);
                self.stats.jobs_completed += 1;
                for next in state.tracker.take_ready() {
                    state.inflight.insert(next, (dd, 1));
                    self.stats.dispatches += 1;
                    actions
                        .push(Action::Dispatch(DispatchMsg::new(EnsembleJobId::new(wf, next), 1)));
                }
                if state.tracker.is_complete() && !state.done {
                    state.done = true;
                    self.stats.workflows_completed += 1;
                    actions.push(Action::WorkflowCompleted {
                        workflow: wf,
                        makespan_secs: now - state.submitted_at,
                    });
                } else if state.tracker.is_settled() && !state.done {
                    state.done = true;
                    self.stats.workflows_abandoned += 1;
                    actions.push(Action::WorkflowAbandoned {
                        workflow: wf,
                        dead_lettered: state.dead_lettered,
                        abandoned_jobs: state.tracker.stats().abandoned,
                    });
                }
            }
            AckKind::Failed => {
                // Mirror the engine's stale-failure fence: a Failed ack
                // for a superseded attempt must not burn retry budget.
                let stale = self.workflows[wf.index()]
                    .inflight
                    .get(&job)
                    .is_some_and(|&(_, attempt)| attempt > ack.attempt);
                if stale {
                    self.stats.stale_failures_ignored += 1;
                } else {
                    self.attempt_failed(wf, job, ack.attempt, now, &mut actions);
                }
            }
        }
        actions
    }

    fn attempt_failed(
        &mut self,
        wf: WorkflowId,
        job: JobId,
        failed_attempt: u32,
        now: f64,
        actions: &mut Vec<Action>,
    ) {
        let dd = self.dispatch_deadline(now);
        let state = &mut self.workflows[wf.index()];
        match state.tracker.state(job) {
            // Mirrors the engine: failure evidence for a terminal job is
            // counted as stale, not dropped silently.
            JobState::Completed | JobState::Abandoned => {
                self.stats.stale_failures_ignored += 1;
                return;
            }
            _ => {}
        }
        if self.config.max_attempts.is_some_and(|cap| failed_attempt >= cap) {
            state.inflight.remove(&job);
            state.dead_lettered += 1;
            let workflow = Arc::clone(&state.workflow);
            let abandoned = state.tracker.abandon(&workflow, job);
            self.stats.dead_lettered += 1;
            self.stats.jobs_abandoned += abandoned as u64;
            actions.push(Action::JobDeadLettered {
                job: EnsembleJobId::new(wf, job),
                attempts: failed_attempt,
                abandoned_jobs: abandoned,
            });
            let state = &mut self.workflows[wf.index()];
            if state.tracker.is_settled() && !state.done {
                state.done = true;
                self.stats.workflows_abandoned += 1;
                actions.push(Action::WorkflowAbandoned {
                    workflow: wf,
                    dead_lettered: state.dead_lettered,
                    abandoned_jobs: state.tracker.stats().abandoned,
                });
            }
            return;
        }
        if state.tracker.resubmit(job) {
            state.tracker.clear_ready();
            self.stats.resubmissions += 1;
            let next_attempt = failed_attempt + 1;
            state.inflight.insert(job, (dd, next_attempt));
            self.stats.dispatches += 1;
            actions.push(Action::Dispatch(DispatchMsg::new(
                EnsembleJobId::new(wf, job),
                next_attempt,
            )));
        }
    }

    /// The old O(total in-flight) scan: visit every in-flight job of every
    /// workflow, collect the expired ones, process in deterministic
    /// (deadline, workflow, job, attempt) order — the real engine's
    /// heap-pop order over current entries.
    fn check_timeouts(&mut self, now: f64) -> Vec<Action> {
        let mut expired: Vec<(f64, usize, JobId, u32)> = Vec::new();
        for (wfi, state) in self.workflows.iter().enumerate() {
            for (&job, &(deadline, attempt)) in &state.inflight {
                if deadline <= now {
                    expired.push((deadline, wfi, job, attempt));
                }
            }
        }
        expired.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2 .0.cmp(&b.2 .0))
                .then_with(|| a.3.cmp(&b.3))
        });
        let mut actions = Vec::new();
        for (_, wfi, job, attempt) in expired {
            self.attempt_failed(WorkflowId::from_index(wfi), job, attempt, now, &mut actions);
        }
        actions
    }

    /// Earliest finite deadline — the old flat-scan `next_deadline`.
    fn next_deadline(&self) -> Option<f64> {
        self.workflows
            .iter()
            .flat_map(|w| w.inflight.values())
            .map(|&(deadline, _)| deadline)
            .filter(|d| d.is_finite())
            .min_by(|a, b| a.total_cmp(b))
    }

    fn all_settled(&self) -> bool {
        !self.workflows.is_empty() && self.workflows.iter().all(|w| w.done)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Randomized driver.
// ---------------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn workflow_strategy() -> impl Strategy<Value = Arc<Workflow>> {
    (1usize..4, 1usize..6, 0.05f64..0.8, 0.1f64..5.0, any::<u64>()).prop_map(
        |(layers, width, edge_probability, mean_cpu_seconds, seed)| {
            Arc::new(random_layered(&RandomDagConfig {
                layers,
                width,
                edge_probability,
                mean_cpu_seconds,
                seed,
            }))
        },
    )
}

/// A DAG of exactly `jobs` jobs whose edges and per-job timeouts — one of
/// two values — come from `seed`: every workflow of a case has the same
/// length, so a settled one's lanes region fits the next.
fn equal_length_workflow(jobs: usize, timeouts: (f64, f64), seed: u64) -> Arc<Workflow> {
    let mut rng = seed;
    let mut b = WorkflowBuilder::new("equal");
    let mut ids = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let draw = splitmix64(&mut rng);
        let timeout = if draw & 1 == 0 { timeouts.0 } else { timeouts.1 };
        let id = b.job(format!("j{j}"), "t", 1.0).timeout_secs(timeout).build();
        // Roughly two in three jobs hang off an earlier one.
        if j > 0 && !(draw >> 1).is_multiple_of(3) {
            b.edge(ids[(draw >> 8) as usize % j], id);
        }
        ids.push(id);
    }
    Arc::new(b.finish().unwrap())
}

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    (
        1.0f64..20.0,                                           // default timeout
        prop_oneof![Just(None), (1.0f64..10.0).prop_map(Some)], // checkout timeout
        prop_oneof![Just(None), (1u32..5).prop_map(Some)],      // retry cap
    )
        .prop_map(|(timeout, checkout, cap)| EngineConfig {
            default_timeout_secs: timeout,
            checkout_timeout_secs: checkout,
            max_attempts: cap,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive both engines through the same randomized interleaving of
    /// submissions, acks (fresh, stale-attempt and duplicate) and timeout
    /// scans — under randomized retry budgets and checkout timeouts: every step must produce identical actions and
    /// statistics.
    #[test]
    fn engine_matches_scan_reference(
        wfs in prop::collection::vec(workflow_strategy(), 1..4),
        config in config_strategy(),
        seed in any::<u64>(),
    ) {
        let timeout = config.default_timeout_secs;
        let mut rng = seed;
        let mut real = config.build();
        let mut reference = ReferenceEngine::new(config);
        let mut now = 0.0f64;
        // Dispatches published but not yet consumed by a Completed/Failed
        // delivery (may include superseded attempts — that is the race).
        let mut outstanding: Vec<DispatchMsg> = Vec::new();
        // Dispatches whose Completed was already delivered, replayed to
        // exercise the duplicate-completion path.
        let mut finished: Vec<DispatchMsg> = Vec::new();
        let mut submitted = 0usize;
        let mut steps = 0usize;

        macro_rules! check_step {
            ($real_actions:expr, $ref_actions:expr) => {{
                let real_actions: Vec<Action> = $real_actions;
                let ref_actions: Vec<Action> = $ref_actions;
                prop_assert_eq!(&real_actions, &ref_actions);
                prop_assert_eq!(real.stats(), reference.stats());
                prop_assert_eq!(real.next_deadline(), reference.next_deadline());
                for a in &real_actions {
                    if let Action::Dispatch(d) = a {
                        outstanding.push(*d);
                    }
                }
            }};
        }

        loop {
            steps += 1;
            prop_assert!(
                steps < 50_000,
                "driver failed to converge: now={now} submitted={submitted} outstanding={} stats={:?} config={:?}",
                outstanding.len(),
                real.stats(),
                config
            );
            if submitted == wfs.len() && real.all_settled() {
                break;
            }
            now += (splitmix64(&mut rng) % 1000) as f64 / 1000.0 * timeout * 0.2;
            let choice = splitmix64(&mut rng) % 100;
            if submitted < wfs.len() && (choice < 15 || outstanding.is_empty()) {
                let wf = Arc::clone(&wfs[submitted]);
                submitted += 1;
                let (id_a, actions_a) = submit_step(&mut real, Arc::clone(&wf), now);
                let (id_b, actions_b) = reference.submit_workflow(wf, now);
                prop_assert_eq!(id_a, id_b);
                check_step!(actions_a, actions_b);
            } else if outstanding.is_empty() {
                // Everything submitted and queued or terminal; only the
                // clock can make progress.
                now += timeout.max(8.0);
                check_step!(scan_step(&mut real, now), reference.check_timeouts(now));
            } else {
                let pick = (splitmix64(&mut rng) as usize) % outstanding.len();
                match choice {
                    15..=39 => {
                        // Running ack; sometimes with a stale attempt.
                        let d = outstanding[pick];
                        let attempt = if choice < 20 && d.attempt > 1 {
                            d.attempt - 1
                        } else {
                            d.attempt
                        };
                        let ack = AckMsg::new(d.job, (choice % 4) as u32, AckKind::Running, attempt);
                        check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
                    }
                    40..=79 => {
                        let d = outstanding.swap_remove(pick);
                        finished.push(d);
                        let ack = AckMsg::new(d.job, 0, AckKind::Completed, d.attempt);
                        check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
                    }
                    80..=87 => {
                        let d = outstanding.swap_remove(pick);
                        let ack = AckMsg::new(d.job, 0, AckKind::Failed, d.attempt);
                        check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
                    }
                    88..=93 if !finished.is_empty() => {
                        // Duplicate completion (timeout-race replay).
                        let d = finished[(splitmix64(&mut rng) as usize) % finished.len()];
                        let ack = AckMsg::new(d.job, 1, AckKind::Completed, d.attempt);
                        check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
                    }
                    _ => {
                        // Jump past some deadlines and scan.
                        now += (splitmix64(&mut rng) % 3) as f64 * timeout;
                        check_step!(scan_step(&mut real, now), reference.check_timeouts(now));
                    }
                }
            }
        }

        prop_assert!(reference.all_settled());
        prop_assert_eq!(real.stats(), reference.stats());
        let stats = real.stats();
        let total: u64 = wfs.iter().map(|w| w.job_count() as u64).sum();
        // Every job reached exactly one terminal state.
        prop_assert_eq!(stats.jobs_completed + stats.jobs_abandoned, total);
        if config.max_attempts.is_none() {
            prop_assert_eq!(stats.dead_lettered, 0);
            prop_assert_eq!(stats.workflows_abandoned, 0);
        }
    }

    /// Region recycling keeps the scan order: see the module docs. At most
    /// two workflows are live, so every submission after the second moves
    /// into a region a settled workflow handed back — below or above the
    /// one still live, as the run happens to go.
    #[test]
    fn recycled_regions_match_scan_reference(
        jobs in 2usize..10,
        count in 3usize..7,
        timeouts in (1.0f64..6.0, 6.0f64..12.0),
        config in config_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = seed;
        let wfs: Vec<_> = (0..count)
            .map(|_| equal_length_workflow(jobs, timeouts, splitmix64(&mut rng)))
            .collect();
        let mut real = config.build();
        let mut reference = ReferenceEngine::new(config);
        let mut now = 0.0f64;
        // Published and neither completed nor lost with its worker; the
        // flag says a Running ack went out for it.
        let mut outstanding: Vec<(DispatchMsg, bool)> = Vec::new();
        let mut submitted = 0usize;
        let mut steps = 0usize;

        macro_rules! check_step {
            ($real_actions:expr, $ref_actions:expr) => {{
                let real_actions: Vec<Action> = $real_actions;
                let ref_actions: Vec<Action> = $ref_actions;
                prop_assert_eq!(&real_actions, &ref_actions);
                prop_assert_eq!(real.stats(), reference.stats());
                prop_assert_eq!(real.next_deadline(), reference.next_deadline());
                for a in &real_actions {
                    if let Action::Dispatch(d) = a {
                        outstanding.push((*d, false));
                    }
                }
            }};
        }

        while !(submitted == count && real.all_settled()) {
            steps += 1;
            prop_assert!(steps < 20_000, "driver failed to converge: {:?}", real.stats());
            now += (splitmix64(&mut rng) % 1000) as f64 / 1000.0;
            let stats = real.stats();
            let live = submitted - stats.workflows_completed - stats.workflows_abandoned;
            let choice = splitmix64(&mut rng) % 100;
            if submitted < count && live < 2 && (choice < 30 || outstanding.is_empty()) {
                let wf = Arc::clone(&wfs[submitted]);
                submitted += 1;
                let (id_a, actions_a) = submit_step(&mut real, Arc::clone(&wf), now);
                let (id_b, actions_b) = reference.submit_workflow(wf, now);
                prop_assert_eq!(id_a, id_b);
                check_step!(actions_a, actions_b);
            } else if outstanding.is_empty() || choice < 10 {
                // The node dies: whatever ran there is never heard of
                // again (what was still queued stays queued), and the
                // clock runs past every deadline it held.
                outstanding.retain(|&(_, running)| !running);
                now += 12.0f64.max(config.checkout_timeout_secs.unwrap_or(0.0)) + 8.0;
                check_step!(scan_step(&mut real, now), reference.check_timeouts(now));
            } else if choice < 45 {
                // A burst of checkouts at one instant: jobs with the same
                // timeout now share a deadline, across workflows.
                for i in 0..outstanding.len() {
                    let (d, running) = outstanding[i];
                    if !running {
                        outstanding[i].1 = true;
                        let ack = AckMsg::new(d.job, 0, AckKind::Running, d.attempt);
                        check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
                    }
                }
            } else if choice < 90 {
                let pick = (splitmix64(&mut rng) as usize) % outstanding.len();
                let (d, _) = outstanding.swap_remove(pick);
                let ack = AckMsg::new(d.job, 0, AckKind::Completed, d.attempt);
                check_step!(ack_step(&mut real, ack, now), reference.on_ack(ack, now));
            } else {
                check_step!(scan_step(&mut real, now), reference.check_timeouts(now));
            }
        }
        prop_assert!(reference.all_settled());
        let total = (jobs * count) as u64;
        prop_assert_eq!(real.stats().jobs_completed + real.stats().jobs_abandoned, total);
    }

    /// Journal-replay recovery: drive an engine while journaling its
    /// inputs, recover a twin from the journal mid-run, then feed both the
    /// identical event suffix — the twin must emit the same actions, stats
    /// and deadlines as the engine that never crashed.
    #[test]
    fn recovered_engine_is_observationally_identical(
        wfs in prop::collection::vec(workflow_strategy(), 1..3),
        config in config_strategy(),
        seed in any::<u64>(),
        crash_after in 1usize..40,
    ) {
        let timeout = config.default_timeout_secs;
        let mut rng = seed;
        let mut real = config.build();
        let registry = Registry::new();
        for (i, wf) in wfs.iter().enumerate() {
            registry.insert(WorkflowId::from_index(i), Arc::clone(wf));
        }
        let mut journal: Vec<JournalRecord> = Vec::new();
        let mut now = 0.0f64;
        let mut outstanding: Vec<DispatchMsg> = Vec::new();
        let mut submitted = 0usize;
        let mut steps = 0usize;
        // Twin appears at the crash point; until then only `real` runs.
        let mut twin: Option<EnsembleEngine> = None;

        loop {
            steps += 1;
            prop_assert!(steps < 50_000, "driver failed to converge");
            if submitted == wfs.len() && real.all_settled() {
                break;
            }
            if twin.is_none() && steps > crash_after {
                // Crash: rebuild from the journal alone.
                let rec = recover(&journal, &registry, config).unwrap();
                let mut t = rec.engine;
                prop_assert!(rec.resume_at <= now);
                prop_assert_eq!(t.stats(), real.stats());
                prop_assert_eq!(t.next_deadline(), real.next_deadline());
                // The republish set is exactly what the live engine holds
                // in flight.
                let mut live_inflight = Vec::new();
                real.inflight_dispatches(&mut live_inflight);
                prop_assert_eq!(&rec.redispatch, &live_inflight);
                twin = Some(t);
            }
            now += (splitmix64(&mut rng) % 1000) as f64 / 1000.0 * timeout * 0.2;
            let choice = splitmix64(&mut rng) % 100;
            if submitted < wfs.len() && (choice < 20 || outstanding.is_empty()) {
                let wf = Arc::clone(&wfs[submitted]);
                submitted += 1;
                journal.push(JournalRecord::Submit { workflow: submitted as u32 - 1, at: now });
                let (_, actions) = submit_step(&mut real, Arc::clone(&wf), now);
                if let Some(t) = twin.as_mut() {
                    let (_, tw) = submit_step(t, wf, now);
                    prop_assert_eq!(&actions, &tw);
                }
                for a in &actions {
                    if let Action::Dispatch(d) = a {
                        outstanding.push(*d);
                    }
                }
            } else if outstanding.is_empty() {
                now += timeout.max(8.0);
                journal.push(JournalRecord::Scan { at: now });
                let actions = scan_step(&mut real, now);
                if let Some(t) = twin.as_mut() {
                    prop_assert_eq!(&actions, &scan_step(t, now));
                }
                for a in &actions {
                    if let Action::Dispatch(d) = a {
                        outstanding.push(*d);
                    }
                }
            } else {
                let pick = (splitmix64(&mut rng) as usize) % outstanding.len();
                let actions = if choice < 70 {
                    let terminal = choice < 55;
                    let d = if terminal { outstanding.swap_remove(pick) } else { outstanding[pick] };
                    let kind = if terminal {
                        if choice < 45 { AckKind::Completed } else { AckKind::Failed }
                    } else {
                        AckKind::Running
                    };
                    let ack = AckMsg::new(d.job, 0, kind, d.attempt);
                    journal.push(JournalRecord::Ack { ack, at: now });
                    let actions = ack_step(&mut real, ack, now);
                    if let Some(t) = twin.as_mut() {
                        prop_assert_eq!(&actions, &ack_step(t, ack, now));
                    }
                    actions
                } else {
                    now += (splitmix64(&mut rng) % 3) as f64 * timeout;
                    journal.push(JournalRecord::Scan { at: now });
                    let actions = scan_step(&mut real, now);
                    if let Some(t) = twin.as_mut() {
                        prop_assert_eq!(&actions, &scan_step(t, now));
                    }
                    actions
                };
                for a in &actions {
                    if let Action::Dispatch(d) = a {
                        outstanding.push(*d);
                    }
                }
            }
            if let Some(t) = twin.as_mut() {
                prop_assert_eq!(t.stats(), real.stats());
                prop_assert_eq!(t.next_deadline(), real.next_deadline());
            }
        }

        // Even if the run settled before the crash point, recovery of the
        // final journal must reproduce the final state.
        let rec = recover(&journal, &registry, config).unwrap();
        prop_assert_eq!(rec.engine.stats(), real.stats());
    }
}
