//! Differential smoke suite: seeded scenarios through all four
//! execution paths, plus the oracle's own mutation self-tests.

use dewe_core::fault::{FaultEvent, FaultPlan, TimedFault};
use dewe_testkit::scenario::{ChaosSpec, DagFamily, JobSpec, WorkflowSpec};
use dewe_testkit::{
    minimize, run_fault_chaos_seed, run_fault_seed, run_scenario, run_seed, EngineDriverConfig,
    PathKind, Scenario,
};

/// Every seed in the smoke set must conform across engine, baseline,
/// realtime, and sim. `DEWE_DIFF_SEEDS` widens the sweep (CI runs the release
/// binary for the big sweeps; this keeps the in-tree floor).
#[test]
fn differential_smoke_zero_divergence() {
    let seeds: u64 =
        std::env::var("DEWE_DIFF_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    let mut diverged = Vec::new();
    for seed in 0..seeds {
        let run = run_seed(seed);
        if !run.conforms() {
            diverged.push((seed, run.violations));
        }
    }
    assert!(diverged.is_empty(), "diverging seeds: {diverged:#?}");
}

/// Oracle self-test: inject an engine-side bug (the driver silently
/// discards the first dispatch), confirm the invariant suite catches it,
/// and confirm the shrinker reduces the repro to at most three jobs.
#[test]
fn injected_engine_bug_is_caught_and_shrunk() {
    let cfg = EngineDriverConfig { drop_nth_dispatch: Some(0), ..Default::default() };
    let scenario = Scenario::generate(0); // class 0: no chaos, no failures
    let run = run_scenario(&scenario, &[PathKind::Engine], &cfg);
    assert!(
        !run.conforms(),
        "mutated engine run must diverge, got a clean pass on {} jobs",
        scenario.total_jobs()
    );

    let repro = minimize(&run, &cfg);
    assert!(!repro.minimized_violations.is_empty(), "minimized scenario must still diverge");
    assert!(
        repro.minimized.total_jobs() <= 3,
        "repro not minimal ({} jobs):\n{}",
        repro.minimized.total_jobs(),
        repro.minimized.describe()
    );
    // The report must carry the replay handle.
    let report = repro.report();
    assert!(report.contains("replay"), "{report}");
}

/// Fault-class smoke: seeded worker crashes, spot revocations, heartbeat
/// stalls and master kill/restart must leave every path conforming —
/// lease expiry (realtime) or the timeout backstop (engine sim) requeues
/// whatever dies, and with unbounded retries everything completes.
/// `DEWE_FAULT_SEEDS` widens the sweep (CI runs 32+ via the binary).
#[test]
fn fault_class_smoke_zero_divergence() {
    let seeds: u64 =
        std::env::var("DEWE_FAULT_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let mut diverged = Vec::new();
    for seed in 0..seeds {
        let run = run_fault_seed(seed);
        if !run.conforms() {
            diverged.push((seed, run.violations));
        }
    }
    assert!(diverged.is_empty(), "diverging fault seeds: {diverged:#?}");
}

/// A chain with enough width to keep four workers busy for a while:
/// four independent 4-job chains (cpu 0.4s each), so the ensemble spans
/// ~1.6 virtual seconds and the faults below land mid-run.
fn two_worker_loss_scenario() -> Scenario {
    let chain = |_: usize| WorkflowSpec {
        family: DagFamily::Random,
        jobs: vec![
            JobSpec { cpu_secs: 0.4, parents: vec![] },
            JobSpec { cpu_secs: 0.4, parents: vec![0] },
            JobSpec { cpu_secs: 0.4, parents: vec![1] },
            JobSpec { cpu_secs: 0.4, parents: vec![2] },
        ],
    };
    Scenario {
        seed: 0,
        workflows: (0..4).map(chain).collect(),
        submission_interval_secs: 0.0,
        workers: 4,
        slots_per_worker: 1,
        max_attempts: None,
        chaos: ChaosSpec::none(),
        failures: Vec::new(),
        faults: FaultPlan {
            events: vec![
                TimedFault { at_secs: 0.6, event: FaultEvent::WorkerCrash { worker: 0 } },
                TimedFault {
                    at_secs: 1.0,
                    event: FaultEvent::SpotRevocation { worker: 1, notice_secs: 0.3 },
                },
                TimedFault {
                    at_secs: 1.4,
                    event: FaultEvent::MasterKill { restart_delay_secs: 0.3 },
                },
            ],
        },
    }
}

/// ISSUE acceptance: a scenario that kills 2 of 4 workers (one hard
/// crash, one spot revocation) and kills+restarts the master
/// mid-ensemble must complete with the invariant suite green on every
/// path — and deterministically so on the virtual-time paths.
#[test]
fn two_worker_loss_with_master_restart_completes_on_all_paths() {
    let scenario = two_worker_loss_scenario();
    let run = run_scenario(
        &scenario,
        &[PathKind::Engine, PathKind::Baseline, PathKind::Realtime, PathKind::Sim],
        &EngineDriverConfig::default(),
    );
    assert!(run.conforms(), "{:#?}", run.violations);

    // Determinism: the engine-path driver (faults, crash epochs, replay
    // recovery and all) is a pure function of the scenario.
    let cfg = EngineDriverConfig::default();
    let a = dewe_testkit::paths::engine::run(&scenario, &cfg);
    let b = dewe_testkit::paths::engine::run(&scenario, &cfg);
    assert_eq!(a.events, b.events, "engine fault run is not deterministic");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.completed, b.completed);
    // The master kill fired, and the replayed engine matched bit-for-bit.
    assert_eq!(a.liveness_recovery, Some(true), "note: {:?}", a.note);
}

/// Fault seed 5 through the realtime arm, which runs `dewe-masterd`'s
/// configuration for a loss-free fault scenario: no checkout deadline. A
/// spot revocation kills a worker that holds dispatches it has not
/// started; only the endpoint's requeue of what the dead connection held
/// gets them to another worker. Shrunk, the stall this pins was one
/// workflow of 3 jobs on four single-slot workers and one revocation: 3
/// dispatches, 2 completions, and a watchdog.
#[test]
fn fault_seed_5_settles_on_the_realtime_arm_with_no_checkout_deadline() {
    let scenario = Scenario::generate_fault(5);
    assert!(!scenario.faults.is_empty() && !scenario.chaos.is_lossy(), "a loss-free fault seed");
    let run = run_scenario(&scenario, &[PathKind::Realtime], &EngineDriverConfig::default());
    assert!(run.conforms(), "{:#?}", run.violations);
}

/// The mutation must also be visible differentially (not just via the
/// per-path suite): a clean second engine run disagrees with the mutated
/// one, so cross-path comparison alone flags it.
#[test]
fn mutation_diverges_from_clean_run() {
    let scenario = Scenario::generate(0);
    let clean = run_scenario(&scenario, &[PathKind::Engine], &EngineDriverConfig::default());
    let mutated = run_scenario(
        &scenario,
        &[PathKind::Engine],
        &EngineDriverConfig { drop_nth_dispatch: Some(0), ..Default::default() },
    );
    assert!(clean.conforms(), "{:?}", clean.violations);
    assert!(!mutated.conforms());
}

/// Fault+chaos smoke: the identical fault scenarios with lossy message
/// chaos overlaid — dispatches and acks go missing while workers crash
/// and the master restarts — must still converge on every path.
/// `DEWE_FAULT_CHAOS_SEEDS` widens the sweep (CI runs 32+ via the
/// binary).
#[test]
fn fault_chaos_class_smoke_zero_divergence() {
    let seeds: u64 =
        std::env::var("DEWE_FAULT_CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(6);
    let mut diverged = Vec::new();
    for seed in 0..seeds {
        let run = run_fault_chaos_seed(seed);
        if !run.conforms() {
            diverged.push((seed, run.violations));
        }
    }
    assert!(diverged.is_empty(), "diverging fault+chaos seeds: {diverged:#?}");
}

/// ISSUE acceptance: inject a sim-side bug (the observation layer drops
/// the first completion event), confirm the oracle flags it, and confirm
/// the shrinker reduces the repro to at most three jobs.
#[test]
fn injected_sim_bug_is_caught_and_shrunk() {
    let cfg = EngineDriverConfig { sim_drop_nth_completion: Some(0), ..Default::default() };
    let scenario = Scenario::generate(0); // class 0: no chaos, no failures
    let run = run_scenario(&scenario, &[PathKind::Sim], &cfg);
    assert!(
        !run.conforms(),
        "mutated sim run must diverge, got a clean pass on {} jobs",
        scenario.total_jobs()
    );

    let repro = minimize(&run, &cfg);
    assert!(!repro.minimized_violations.is_empty(), "minimized scenario must still diverge");
    assert!(
        repro.minimized.total_jobs() <= 3,
        "repro not minimal ({} jobs):\n{}",
        repro.minimized.total_jobs(),
        repro.minimized.describe()
    );
    assert!(repro.report().contains("replay"), "{}", repro.report());
}

/// The sim mutation must also be visible purely differentially: the sim
/// path's completion set disagrees with the clean engine path's, so the
/// cross-path comparison flags both.
#[test]
fn sim_mutation_diverges_from_engine_path() {
    let scenario = Scenario::generate(0);
    let cfg = EngineDriverConfig { sim_drop_nth_completion: Some(0), ..Default::default() };
    let run = run_scenario(&scenario, &[PathKind::Engine, PathKind::Sim], &cfg);
    assert!(!run.conforms());
    assert!(
        run.violations.iter().any(|v| v.starts_with("[cross]")),
        "expected a cross-path divergence: {:#?}",
        run.violations
    );
}

/// One representative seed per DAG family, run through the deterministic
/// paths: the family matrix must conform everywhere, not just for the
/// random shapes the classic classes lean on.
#[test]
fn every_dag_family_conforms_across_deterministic_paths() {
    use dewe_testkit::scenario::DagFamily;
    let mut pending: Vec<DagFamily> = DagFamily::ALL.to_vec();
    let mut checked = 0u32;
    for seed in 0..512u64 {
        let scenario = Scenario::generate(seed);
        let Some(pos) =
            pending.iter().position(|f| scenario.workflows.iter().any(|w| w.family == *f))
        else {
            continue;
        };
        pending.remove(pos);
        checked += 1;
        let run = run_scenario(
            &scenario,
            &[PathKind::Engine, PathKind::Baseline, PathKind::Sim],
            &EngineDriverConfig::default(),
        );
        assert!(
            run.conforms(),
            "seed {seed} ({:?}): {:#?}",
            scenario_families(&scenario),
            run.violations
        );
        if pending.is_empty() {
            break;
        }
    }
    assert!(pending.is_empty(), "families never sampled in 512 seeds: {pending:?}");
    assert_eq!(checked, DagFamily::ALL.len() as u32);
}

fn scenario_families(s: &Scenario) -> Vec<&'static str> {
    s.workflows.iter().map(|w| w.family.name()).collect()
}
