//! Greedy scenario shrinking: reduce a diverging scenario to a minimal
//! repro while the divergence keeps reproducing.
//!
//! The reduction passes, applied to fixpoint:
//!
//! 1. drop whole workflows (failure specs are re-indexed);
//! 2. drop individual jobs (children lose the edge, later parents and
//!    failure specs are re-indexed);
//! 3. drop failure specs;
//! 4. drop injected fault events;
//! 5. switch chaos off entirely, then zero the submission stagger.
//!
//! `diverges` is the caller's oracle: it must return `true` while the
//! candidate still exhibits the original divergence. The shrinker only
//! ever *keeps* a candidate the oracle confirmed, so the result always
//! reproduces. At least one workflow with at least one job is preserved.

use crate::scenario::Scenario;

/// Remove workflow `w`, re-indexing failure specs.
fn remove_workflow(s: &Scenario, w: usize) -> Scenario {
    let mut out = s.clone();
    out.workflows.remove(w);
    out.failures.retain(|f| f.workflow != w as u32);
    for f in &mut out.failures {
        if f.workflow > w as u32 {
            f.workflow -= 1;
        }
    }
    out
}

/// Remove job `j` of workflow `w`, splicing it out of later jobs' parent
/// lists and re-indexing failure specs.
fn remove_job(s: &Scenario, w: usize, j: usize) -> Scenario {
    let mut out = s.clone();
    let wf = &mut out.workflows[w];
    wf.jobs.remove(j);
    for job in wf.jobs.iter_mut().skip(j) {
        job.parents.retain(|&p| p != j as u32);
        for p in &mut job.parents {
            if *p > j as u32 {
                *p -= 1;
            }
        }
    }
    out.failures.retain(|f| !(f.workflow == w as u32 && f.job == j as u32));
    for f in &mut out.failures {
        if f.workflow == w as u32 && f.job > j as u32 {
            f.job -= 1;
        }
    }
    out
}

/// Shrink `initial` (which must diverge) to a locally minimal scenario
/// that still diverges.
pub fn minimize(initial: &Scenario, diverges: &dyn Fn(&Scenario) -> bool) -> Scenario {
    let mut cur = initial.clone();
    loop {
        let mut changed = false;

        let mut w = 0;
        while cur.workflows.len() > 1 && w < cur.workflows.len() {
            let cand = remove_workflow(&cur, w);
            if diverges(&cand) {
                cur = cand;
                changed = true;
            } else {
                w += 1;
            }
        }

        for w in 0..cur.workflows.len() {
            let mut j = 0;
            while cur.workflows[w].jobs.len() > 1 && j < cur.workflows[w].jobs.len() {
                let cand = remove_job(&cur, w, j);
                if diverges(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    j += 1;
                }
            }
        }

        let mut f = 0;
        while f < cur.failures.len() {
            let mut cand = cur.clone();
            cand.failures.remove(f);
            if diverges(&cand) {
                cur = cand;
                changed = true;
            } else {
                f += 1;
            }
        }

        // Drop injected faults one at a time. Removing an event only
        // ever makes the plan less lethal, so the generator's survivor
        // guarantee is preserved by construction.
        let mut fe = 0;
        while fe < cur.faults.events.len() {
            let mut cand = cur.clone();
            cand.faults.events.remove(fe);
            if diverges(&cand) {
                cur = cand;
                changed = true;
            } else {
                fe += 1;
            }
        }

        if !cur.chaos.is_noop() {
            let mut cand = cur.clone();
            cand.chaos = crate::scenario::ChaosSpec::none();
            if diverges(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if cur.submission_interval_secs != 0.0 {
            let mut cand = cur.clone();
            cand.submission_interval_secs = 0.0;
            if diverges(&cand) {
                cur = cand;
                changed = true;
            }
        }

        if !changed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChaosSpec, DagFamily, FailureSpec, JobSpec, WorkflowSpec};
    use dewe_core::fault::{FaultEvent, FaultPlan, TimedFault};

    fn big_scenario() -> Scenario {
        let wf = |n: usize| WorkflowSpec {
            family: DagFamily::Random,
            jobs: (0..n)
                .map(|j| JobSpec {
                    cpu_secs: 0.1,
                    parents: if j > 0 { vec![j as u32 - 1] } else { vec![] },
                })
                .collect(),
        };
        Scenario {
            seed: 0,
            workflows: vec![wf(5), wf(4), wf(3)],
            submission_interval_secs: 0.2,
            workers: 2,
            slots_per_worker: 2,
            max_attempts: Some(2),
            chaos: ChaosSpec {
                seed: 1,
                drop_prob: 0.0,
                dup_prob: 0.0,
                delay_prob: 0.2,
                delay_secs: 0.05,
            },
            failures: vec![FailureSpec { workflow: 1, job: 2, failing_attempts: 3 }],
            faults: FaultPlan {
                events: vec![
                    TimedFault { at_secs: 0.5, event: FaultEvent::WorkerCrash { worker: 0 } },
                    TimedFault {
                        at_secs: 1.0,
                        event: FaultEvent::MasterKill { restart_delay_secs: 0.2 },
                    },
                ],
            },
        }
    }

    #[test]
    fn shrinks_to_single_job_when_anything_diverges() {
        // Oracle that "diverges" on every non-empty scenario: the shrinker
        // must drive the scenario to its 1-workflow / 1-job floor.
        let min = minimize(&big_scenario(), &|_| true);
        assert_eq!(min.workflows.len(), 1);
        assert_eq!(min.workflows[0].jobs.len(), 1);
        assert!(min.failures.is_empty());
        assert!(min.faults.is_empty());
        assert!(min.chaos.is_noop());
        assert_eq!(min.submission_interval_secs, 0.0);
    }

    #[test]
    fn preserves_the_fault_the_divergence_needs() {
        // Divergence requires the master kill to survive shrinking; the
        // worker crash must be dropped.
        let diverges = |s: &Scenario| s.faults.has_master_kill();
        let min = minimize(&big_scenario(), &diverges);
        assert_eq!(min.faults.events.len(), 1);
        assert!(min.faults.has_master_kill());
    }

    #[test]
    fn preserves_what_the_divergence_needs() {
        // Divergence requires the scripted failure to survive: shrinking
        // must keep workflow 1's job 2 (possibly re-indexed) and the spec.
        let diverges = |s: &Scenario| {
            s.failures.iter().any(|f| {
                f.failing_attempts == 3
                    && s.workflows
                        .get(f.workflow as usize)
                        .is_some_and(|w| (f.job as usize) < w.jobs.len())
            })
        };
        let min = minimize(&big_scenario(), &diverges);
        assert_eq!(min.failures.len(), 1);
        assert_eq!(min.workflows.len(), 1);
        assert_eq!(min.workflows[0].jobs.len(), 1);
        assert_eq!(min.failures[0].job, 0);
    }

    #[test]
    fn job_removal_reindexes_parents() {
        let s = big_scenario();
        let out = remove_job(&s, 0, 1); // chain 0-1-2-3-4, drop job 1
        let jobs = &out.workflows[0].jobs;
        assert_eq!(jobs.len(), 4);
        // Old job 2 (now index 1) lost its parent edge to removed job 1.
        assert!(jobs[1].parents.is_empty());
        // Old job 3 (now index 2) kept its chain edge, re-indexed 2 -> 1.
        assert_eq!(jobs[2].parents, vec![1]);
    }
}
