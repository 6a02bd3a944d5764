//! The shared invariant suite every execution path is checked against.
//!
//! All three paths reduce their run to the same [`PathOutcome`] shape: an
//! ordered start/finish event log, the terminal per-job verdict, and
//! (where available) engine statistics. [`check`] then applies the
//! invariants that make sense for that path:
//!
//! 1. **Settlement** — the run reached a terminal verdict (no stall).
//! 2. **Terminal partition** — the set of completed jobs equals the
//!    scenario's analytic expectation; no lost jobs (expected-complete but
//!    missing) and no phantom jobs (completed but never expected, or
//!    events for jobs outside the scenario).
//! 3. **Dependency order** — in event-log order, every job's first start
//!    comes after each parent's first finish; abandoned jobs never start.
//! 4. **Conservation** — engine statistics balance: every dispatch is
//!    either a first attempt of a job that terminated (completed or
//!    dead-lettered) or a counted resubmission, and the per-workflow
//!    terminal counters sum to the submitted total.
//! 5. **Makespan sanity** — simulated makespans are bounded below by the
//!    cpu-weighted critical path (only checked for failure-free
//!    scenarios, where every job runs).
//! 6. **Fault plane** — for fault-class scenarios: lease-expiry requeues
//!    are conserved into engine resubmissions (or fenced as stale),
//!    fenced acks imply an expiry happened, and a master kill/restart
//!    resumed from state equivalent to the pre-kill master.

use std::collections::{BTreeMap, BTreeSet};

use dewe_core::realtime::MasterStats;
use dewe_core::EngineStats;

use crate::scenario::Scenario;

/// Which execution path produced an outcome; selects which invariants
/// apply (the baseline models no failures, so it is expected to run
/// everything; the realtime path has no virtual clock, so no makespan
/// bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The sans-IO [`dewe_core::EnsembleEngine`] driven in
    /// virtual time.
    Engine,
    /// The modeled Pegasus/DAGMan/Condor scheduler.
    Baseline,
    /// The threaded master/worker stack over loopback TCP.
    Realtime,
    /// The discrete-event simulation runtime over the `dewe-simcloud`
    /// cluster model.
    Sim,
}

impl PathKind {
    /// Display name used in violation messages.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Engine => "engine",
            PathKind::Baseline => "baseline",
            PathKind::Realtime => "realtime",
            PathKind::Sim => "sim",
        }
    }
}

/// One entry of a path's ordered execution log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An attempt of the job began executing.
    Started {
        /// `(workflow_index, job_index)`.
        job: (u32, u32),
    },
    /// An attempt of the job ran to successful completion.
    Finished {
        /// `(workflow_index, job_index)`.
        job: (u32, u32),
    },
}

/// What one execution path observed for one scenario.
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// Which path ran.
    pub kind: PathKind,
    /// Jobs whose terminal verdict is Completed.
    pub completed: BTreeSet<(u32, u32)>,
    /// Ordered execution log (order is the path's own processing order,
    /// with cross-thread happens-before preserved).
    pub events: Vec<Event>,
    /// Engine statistics, for paths backed by [`EnsembleEngine`]
    /// (`None` for the baseline).
    ///
    /// [`EnsembleEngine`]: dewe_core::EnsembleEngine
    pub stats: Option<EngineStats>,
    /// Simulated makespan, for virtual-time paths.
    pub makespan_secs: Option<f64>,
    /// The run reached a terminal verdict (false = stall / watchdog).
    pub settled: bool,
    /// Master-side counters, for the realtime path (`None` elsewhere);
    /// the liveness table's are all zero unless leases are enabled.
    pub master_stats: Option<MasterStats>,
    /// Master kill/restart verdict: `Some(true)` when the path verified
    /// that recovery resumed from state equivalent to the pre-kill
    /// master (engine path: replayed engine is bit-identical; realtime
    /// path: every pre-kill liveness row survives into the final
    /// table), `Some(false)` on mismatch, `None` when no master kill
    /// fired.
    pub liveness_recovery: Option<bool>,
    /// Free-form diagnostics (stall context).
    pub note: Option<String>,
}

/// Check one path's outcome against the scenario's expectations,
/// returning human-readable violations (empty = conforming).
pub fn check(scenario: &Scenario, outcome: &PathOutcome) -> Vec<String> {
    let mut violations = Vec::new();
    let path = outcome.kind.name();
    let v = &mut violations;

    if !outcome.settled {
        v.push(format!(
            "{path}: did not settle{}",
            outcome.note.as_deref().map(|n| format!(" ({n})")).unwrap_or_default()
        ));
        // A stalled run's partial sets would drown the report in
        // secondary violations; the stall is the finding.
        return violations;
    }

    let expected = match outcome.kind {
        // The baseline stack models no failures or chaos: it must simply
        // run every job exactly once.
        PathKind::Baseline => {
            let mut all = Scenario::expected_outcome(scenario);
            for job in all.dead_lettered.iter().chain(all.abandoned.iter()) {
                all.completed.insert(*job);
            }
            all.dead_lettered.clear();
            all.abandoned.clear();
            all
        }
        PathKind::Engine | PathKind::Realtime | PathKind::Sim => scenario.expected_outcome(),
    };

    // 2. Terminal partition: no lost jobs, no phantom jobs.
    for job in expected.completed.difference(&outcome.completed) {
        v.push(format!("{path}: lost job wf{} j{} (expected complete)", job.0, job.1));
    }
    for job in outcome.completed.difference(&expected.completed) {
        v.push(format!("{path}: phantom completion wf{} j{}", job.0, job.1));
    }

    // Event-log bookkeeping: first positions, multiplicities, validity.
    let mut first_start: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut first_finish: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut finish_count: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (pos, ev) in outcome.events.iter().enumerate() {
        let job = match *ev {
            Event::Started { job } => {
                first_start.entry(job).or_insert(pos);
                job
            }
            Event::Finished { job } => {
                first_finish.entry(job).or_insert(pos);
                *finish_count.entry(job).or_insert(0) += 1;
                if !first_start.contains_key(&job) {
                    v.push(format!("{path}: wf{} j{} finished before starting", job.0, job.1));
                }
                job
            }
        };
        let known =
            scenario.workflows.get(job.0 as usize).is_some_and(|w| (job.1 as usize) < w.jobs.len());
        if !known {
            v.push(format!("{path}: event for unknown job wf{} j{}", job.0, job.1));
        }
    }

    // Executed-but-unfinished consistency: every finish implies the
    // terminal verdict, every completion implies a finish.
    for job in finish_count.keys() {
        if !outcome.completed.contains(job) {
            v.push(format!(
                "{path}: wf{} j{} finished executing but is not terminally complete",
                job.0, job.1
            ));
        }
    }
    for job in &outcome.completed {
        if !finish_count.contains_key(job) {
            v.push(format!(
                "{path}: wf{} j{} terminally complete but never finished executing",
                job.0, job.1
            ));
        }
    }

    // 3. Dependency order and abandonment.
    for (w, wf) in scenario.workflows.iter().enumerate() {
        for (j, job) in wf.jobs.iter().enumerate() {
            let child = (w as u32, j as u32);
            let Some(&child_start) = first_start.get(&child) else { continue };
            for &p in &job.parents {
                let parent = (w as u32, p);
                match first_finish.get(&parent) {
                    Some(&pf) if pf < child_start => {}
                    Some(_) | None => v.push(format!(
                        "{path}: dependency violated — wf{w} j{j} started before parent j{p} \
                         finished"
                    )),
                }
            }
        }
    }
    for job in &expected.abandoned {
        if first_start.contains_key(job) {
            v.push(format!(
                "{path}: abandoned job wf{} j{} was dispatched and started",
                job.0, job.1
            ));
        }
    }

    // Exactly-once execution wherever nothing can force a re-run: the
    // baseline always (it has no retry path at all), the engine and sim
    // paths when neither chaos, scripted failures, nor injected faults
    // exist (a crashed worker's jobs legitimately execute twice).
    let exactly_once = outcome.kind == PathKind::Baseline
        || (matches!(outcome.kind, PathKind::Engine | PathKind::Sim)
            && scenario.chaos.is_noop()
            && scenario.failures.is_empty()
            && scenario.faults.is_empty());
    if exactly_once {
        for (job, &n) in &finish_count {
            if n != 1 {
                v.push(format!("{path}: wf{} j{} executed {n} times", job.0, job.1));
            }
        }
    }

    // 4. Conservation of statistics.
    if let Some(stats) = outcome.stats {
        let n_wf = scenario.workflows.len();
        if stats.workflows_submitted != n_wf {
            v.push(format!(
                "{path}: submitted {} workflows, scenario has {n_wf}",
                stats.workflows_submitted
            ));
        }
        if stats.workflows_completed + stats.workflows_abandoned != n_wf {
            v.push(format!(
                "{path}: workflow terminal counts {} + {} != {n_wf}",
                stats.workflows_completed, stats.workflows_abandoned
            ));
        }
        if stats.jobs_completed != expected.completed.len() as u64 {
            v.push(format!(
                "{path}: stats.jobs_completed {} != expected {}",
                stats.jobs_completed,
                expected.completed.len()
            ));
        }
        if stats.dead_lettered != expected.dead_lettered.len() as u64 {
            v.push(format!(
                "{path}: stats.dead_lettered {} != expected {}",
                stats.dead_lettered,
                expected.dead_lettered.len()
            ));
        }
        let write_offs = (expected.dead_lettered.len() + expected.abandoned.len()) as u64;
        if stats.jobs_abandoned != write_offs {
            v.push(format!(
                "{path}: stats.jobs_abandoned {} != expected write-offs {write_offs}",
                stats.jobs_abandoned
            ));
        }
        // Every dispatch is a first attempt of a job that terminated
        // after execution (completed or dead-lettered) or a counted
        // resubmission; abandoned jobs are never dispatched.
        let accounted = stats.resubmissions + stats.jobs_completed + stats.dead_lettered;
        if stats.dispatches != accounted {
            v.push(format!(
                "{path}: dispatch conservation broken — {} dispatched, {} accounted \
                 (resubmissions {} + completed {} + dead-lettered {})",
                stats.dispatches,
                accounted,
                stats.resubmissions,
                stats.jobs_completed,
                stats.dead_lettered
            ));
        }
    }

    // 6. Fault plane. Requeue conservation: every job the liveness
    // plane requeued on lease expiry either became an engine
    // resubmission or was already superseded (a stale Failed the engine
    // fenced). A requeue that is neither would be a silently dropped
    // recovery — exactly the lost-job class the lease plane exists to
    // prevent.
    if let (Some(ms), Some(stats)) = (outcome.master_stats, outcome.stats) {
        let absorbed = stats.resubmissions + stats.stale_failures_ignored;
        if ms.jobs_requeued_on_expiry > absorbed {
            v.push(format!(
                "{path}: requeue conservation broken — {} requeued on expiry, only {} absorbed \
                 (resubmissions {} + stale-failures {})",
                ms.jobs_requeued_on_expiry,
                absorbed,
                stats.resubmissions,
                stats.stale_failures_ignored
            ));
        }
        if ms.stale_acks_rejected > 0 && ms.workers_expired == 0 {
            v.push(format!(
                "{path}: {} acks fenced as stale but no worker ever expired",
                ms.stale_acks_rejected
            ));
        }
    }
    // Master kill/restart: the path verified recovery equivalence itself
    // (replayed engine state, surviving liveness rows); it reports the
    // verdict here.
    if outcome.liveness_recovery == Some(false) {
        v.push(format!(
            "{path}: master restart diverged from pre-kill state{}",
            outcome.note.as_deref().map(|n| format!(" ({n})")).unwrap_or_default()
        ));
    }

    // 5. Makespan sanity (virtual-time paths, failure-free scenarios).
    if scenario.failures.is_empty() {
        if let Some(makespan) = outcome.makespan_secs {
            let floor = scenario.critical_path_secs();
            // Slack covers clock quantization: the sim path's clock is
            // `Duration`-backed, so a long dependency chain can land a
            // few microseconds under the f64-summed floor. A real
            // violation is off by the order of a job runtime (≥ 50 ms).
            if makespan + 1e-4 < floor {
                v.push(format!(
                    "{path}: makespan {makespan:.6}s below critical-path floor {floor:.6}s"
                ));
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChaosSpec, DagFamily, JobSpec, WorkflowSpec};

    fn chain_scenario() -> Scenario {
        Scenario {
            seed: 0,
            workflows: vec![WorkflowSpec {
                family: DagFamily::Random,
                jobs: vec![
                    JobSpec { cpu_secs: 1.0, parents: vec![] },
                    JobSpec { cpu_secs: 1.0, parents: vec![0] },
                ],
            }],
            submission_interval_secs: 0.0,
            workers: 1,
            slots_per_worker: 1,
            max_attempts: None,
            backoff_base_secs: 0.0,
            chaos: ChaosSpec::none(),
            failures: vec![],
            faults: dewe_core::fault::FaultPlan::none(),
        }
    }

    fn conforming_outcome(kind: PathKind) -> PathOutcome {
        PathOutcome {
            kind,
            completed: [(0, 0), (0, 1)].into_iter().collect(),
            events: vec![
                Event::Started { job: (0, 0) },
                Event::Finished { job: (0, 0) },
                Event::Started { job: (0, 1) },
                Event::Finished { job: (0, 1) },
            ],
            stats: None,
            makespan_secs: Some(2.5),
            settled: true,
            master_stats: None,
            liveness_recovery: None,
            note: None,
        }
    }

    #[test]
    fn conforming_run_has_no_violations() {
        let s = chain_scenario();
        assert!(check(&s, &conforming_outcome(PathKind::Engine)).is_empty());
        assert!(check(&s, &conforming_outcome(PathKind::Baseline)).is_empty());
    }

    #[test]
    fn lost_job_is_flagged() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Engine);
        o.completed.remove(&(0, 1));
        o.events.truncate(3);
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("lost job")), "{v:?}");
    }

    #[test]
    fn dependency_violation_is_flagged() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Engine);
        o.events.swap(1, 2); // child starts before parent finishes
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("dependency violated")), "{v:?}");
    }

    #[test]
    fn stall_short_circuits() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Realtime);
        o.settled = false;
        let v = check(&s, &o);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("did not settle"));
    }

    #[test]
    fn makespan_below_critical_path_is_flagged() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Engine);
        o.makespan_secs = Some(0.5); // floor is 2.0
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("critical-path floor")), "{v:?}");
    }

    #[test]
    fn broken_requeue_conservation_is_flagged() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Realtime);
        o.stats = Some(EngineStats {
            workflows_submitted: 1,
            workflows_completed: 1,
            jobs_completed: 2,
            dispatches: 2,
            ..Default::default()
        });
        // Three requeues but zero resubmissions absorbed them.
        o.master_stats = Some(MasterStats { jobs_requeued_on_expiry: 3, ..Default::default() });
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("requeue conservation")), "{v:?}");
    }

    #[test]
    fn failed_recovery_equivalence_is_flagged() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Realtime);
        o.liveness_recovery = Some(false);
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("master restart diverged")), "{v:?}");
        o.liveness_recovery = Some(true);
        assert!(check(&s, &o).is_empty());
    }

    #[test]
    fn double_execution_is_flagged_for_clean_engine_runs() {
        let s = chain_scenario();
        let mut o = conforming_outcome(PathKind::Engine);
        o.events.push(Event::Started { job: (0, 1) });
        o.events.push(Event::Finished { job: (0, 1) });
        let v = check(&s, &o);
        assert!(v.iter().any(|m| m.contains("executed 2 times")), "{v:?}");
    }
}
