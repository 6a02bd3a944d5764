//! Driver for the modeled Pegasus/DAGMan/Condor baseline scheduler.
//!
//! The baseline models neither chaos nor worker failures, so its role in
//! the oracle is structural: with overheads zeroed it must execute every
//! job of the ensemble exactly once, in dependency order, with a makespan
//! no smaller than the cpu-weighted critical path. Its lifecycle trace is
//! read as an ordered [`Event`](crate::invariant::Event) log for the
//! invariant suite, the way the sim path's is (`paths::timeline`).

use dewe_baseline::{run_ensemble, BaselineConfig};
use dewe_simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

use crate::invariant::{PathKind, PathOutcome};
use crate::scenario::Scenario;

/// Execute the scenario through the baseline scheduler.
pub fn run(scenario: &Scenario) -> PathOutcome {
    let cluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes: scenario.workers,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let mut cfg = BaselineConfig::new(cluster);
    // Zero the Pegasus-stack overheads: the oracle compares schedules,
    // not the paper's performance gap.
    cfg.slots_per_node = scenario.slots_per_worker as u32;
    cfg.negotiation_interval_secs = 0.25;
    cfg.per_job_overhead_secs = 0.0;
    cfg.write_amplification = 1.0;
    cfg.read_amplification = 1.0;
    cfg.log_bytes_per_job = 0.0;
    cfg.planning_secs_per_workflow = 0.0;
    cfg.submission_interval_secs = scenario.submission_interval_secs;
    cfg.record_trace = true;

    let report = run_ensemble(&scenario.build_workflows(), &cfg);
    let events = super::timeline(report.trace.as_ref().expect("record_trace was set"));
    let completed = super::finished_jobs(&events);
    PathOutcome {
        kind: PathKind::Baseline,
        completed,
        events,
        stats: None,
        makespan_secs: Some(report.makespan_secs),
        settled: report.completed,
        // The baseline models no workers to kill and no master to
        // restart: fault plans are structurally inert here.
        master_stats: None,
        liveness_recovery: None,
        note: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant;

    #[test]
    fn clean_scenario_conforms() {
        let s = Scenario::generate(0);
        let out = run(&s);
        assert!(out.settled);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn failure_scenario_still_runs_everything() {
        // The baseline has no failure model: even a class-2 scenario must
        // execute all jobs exactly once.
        let s = Scenario::generate(2);
        let out = run(&s);
        assert!(out.settled);
        assert_eq!(out.completed.len(), s.total_jobs());
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }
}
