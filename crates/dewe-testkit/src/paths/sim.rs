//! Driver for the discrete-event simulation runtime — the oracle's
//! fourth path.
//!
//! Unlike the virtual-time engine driver (which plays transport and
//! worker pool itself), this path hands the scenario to the *production*
//! sim stack: [`dewe_core::sim::run_ensemble`] over the
//! `dewe-simcloud` cluster model, with its own slot pool, I/O model,
//! timeout scans, fault injection, message chaos, and scripted-failure
//! plumbing. The sim is fully deterministic, so it joins the engine and
//! baseline paths in the shrinker's replay set.
//!
//! Scenario knobs map one-to-one: fault plans cross the
//! [`FaultPlan::node_faults`] bridge (master kills have no sim-side
//! analogue and are dropped there), lossy chaos becomes the sim's
//! keyed drop/duplication injection (the sim transport has no latency,
//! so delay-only chaos is a no-op), and scripted failures ride the
//! sim's `failure_script`. Observations come from the per-job lifecycle
//! trace: successful attempts become `Started`/`Finished` events ordered
//! by simulated time (`paths::timeline`), and the completion set is
//! derived from the surviving finish events.
//!
//! [`FaultPlan::node_faults`]: dewe_core::fault::FaultPlan::node_faults

use dewe_core::sim::{run_ensemble, ScriptedFailure, SimRunConfig, SubmissionPlan};
use dewe_mq::ChaosConfig;
use dewe_simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

use crate::invariant::{Event, PathKind, PathOutcome};
use crate::paths::EngineDriverConfig;
use crate::scenario::Scenario;

/// Virtual-time stall guard. Clean scenarios settle in under a hundred
/// virtual seconds; lossy ones bound recovery by the 30 s job timeout
/// per lost message. Anything still unsettled here is a genuine stall.
const SIM_HORIZON_SECS: f64 = 50_000.0;

fn sim_config(scenario: &Scenario) -> SimRunConfig {
    let lossy = scenario.chaos.is_lossy();
    let faulty = !scenario.faults.is_empty();
    let mut cfg = SimRunConfig::new(ClusterConfig {
        instance: C3_8XLARGE,
        nodes: scenario.workers,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    });
    cfg.slots_per_node = Some(scenario.slots_per_worker as u32);
    cfg.engine = super::engine::engine_config(scenario);
    cfg.timeout_scan_secs = if faulty || lossy { 1.0 } else { 5.0 };
    cfg.submission = SubmissionPlan::Interval(scenario.submission_interval_secs);
    cfg.per_job_overhead_secs = 0.0;
    cfg.failure_script = scenario
        .failures
        .iter()
        .map(|f| ScriptedFailure {
            workflow: f.workflow,
            job: f.job,
            failing_attempts: f.failing_attempts,
        })
        .collect();
    cfg.faults = scenario.faults.node_faults();
    cfg.chaos = lossy.then_some(ChaosConfig {
        seed: scenario.chaos.seed,
        drop_prob: scenario.chaos.drop_prob,
        dup_prob: scenario.chaos.dup_prob,
        delay_prob: 0.0,
        delay_secs: 0.0,
    });
    cfg.record_trace = true;
    cfg.horizon_secs = Some(SIM_HORIZON_SECS);
    cfg
}

/// Execute the scenario through the discrete-event sim runtime.
pub fn run(scenario: &Scenario, cfg: &EngineDriverConfig) -> PathOutcome {
    let report = run_ensemble(&scenario.build_workflows(), &sim_config(scenario));

    let trace = report.trace.as_ref().expect("sim path always records a trace");
    let mut events = super::timeline(trace);
    // The injected-bug hook: silently discard the n-th completion event,
    // as if the sim lost a finish record — the oracle must notice.
    if let Some(n) = cfg.sim_drop_nth_completion {
        let nth_finish = events
            .iter()
            .enumerate()
            .filter(|(_, ev)| matches!(ev, Event::Finished { .. }))
            .nth(n as usize);
        if let Some((at, _)) = nth_finish {
            events.remove(at);
        }
    }
    let completed = super::finished_jobs(&events);

    let stats = report.engine;
    let settled = stats.workflows_completed + stats.workflows_abandoned == scenario.workflows.len();
    let note = (!settled).then(|| {
        format!(
            "sim horizon {SIM_HORIZON_SECS}s expired at t={:.3}: {} of {} workflows settled",
            report.makespan_secs,
            stats.workflows_completed + stats.workflows_abandoned,
            scenario.workflows.len()
        )
    });
    PathOutcome {
        kind: PathKind::Sim,
        completed,
        events,
        stats: Some(stats),
        makespan_secs: Some(report.makespan_secs),
        settled,
        master_stats: None,
        liveness_recovery: None,
        note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant;

    #[test]
    fn clean_scenario_settles_and_conforms() {
        let s = Scenario::generate(0); // class 0: clean
        let out = run(&s, &EngineDriverConfig::default());
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sim_path_is_deterministic() {
        let s = Scenario::generate(7); // class 1: chaos
        let a = run(&s, &EngineDriverConfig::default());
        let b = run(&s, &EngineDriverConfig::default());
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.makespan_secs, b.makespan_secs);
    }

    #[test]
    fn failure_scenario_dead_letters_as_expected() {
        let s = Scenario::generate(2); // class 2: scripted failures
        let out = run(&s, &EngineDriverConfig::default());
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(out.completed, s.expected_outcome().completed);
    }

    #[test]
    fn fault_scenario_recovers_and_conforms() {
        let s = Scenario::generate_fault(1);
        let out = run(&s, &EngineDriverConfig::default());
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dropped_completion_mutation_is_caught() {
        let s = Scenario::generate(0);
        let out =
            run(&s, &EngineDriverConfig { sim_drop_nth_completion: Some(0), ..Default::default() });
        let v = invariant::check(&s, &out);
        assert!(v.iter().any(|m| m.contains("lost job")), "{v:?}");
    }
}
