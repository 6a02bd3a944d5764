//! Property-based tests for the full DEWE v2 simulated runtime: random
//! workflows, random cluster shapes, random faults — the ensemble always
//! completes, exactly once per job, deterministically.

use std::sync::Arc;

use dewe_core::sim::{run_ensemble, NodeFault, SimRunConfig, SubmissionPlan};
use dewe_core::{AckKind, AckMsg, Action, DispatchMsg, EngineConfig};
use dewe_dag::{EnsembleJobId, JobId, JobState, Workflow, WorkflowBuilder, WorkflowId};
use dewe_montage::{random_layered, RandomDagConfig};
use dewe_simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};
use proptest::prelude::*;

fn workflow_strategy() -> impl Strategy<Value = Arc<Workflow>> {
    (1usize..5, 1usize..8, 0.05f64..0.8, 0.1f64..5.0, any::<u64>()).prop_map(
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

fn cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        instance: C3_8XLARGE,
        nodes,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ensemble of random DAGs on any small cluster completes with
    /// exactly one execution per job.
    #[test]
    fn random_ensembles_complete(
        wfs in prop::collection::vec(workflow_strategy(), 1..5),
        nodes in 1usize..4,
        interval in 0.0f64..10.0,
    ) {
        let total: u64 = wfs.iter().map(|w| w.job_count() as u64).sum();
        let mut cfg = SimRunConfig::new(cluster(nodes));
        cfg.per_job_overhead_secs = 0.0;
        cfg.submission = SubmissionPlan::Interval(interval);
        let report = run_ensemble(&wfs, &cfg);
        prop_assert!(report.completed);
        prop_assert_eq!(report.engine.jobs_completed, total);
        prop_assert_eq!(report.engine.resubmissions, 0);
        prop_assert_eq!(report.engine.duplicate_completions, 0);
        // Makespan bounds: at least the critical path of the longest
        // workflow; at most total serial time plus submission staggering.
        let serial: f64 = wfs.iter().map(|w| w.total_cpu_seconds()).sum();
        let stagger = interval * wfs.len() as f64;
        prop_assert!(report.makespan_secs <= serial + stagger + 1.0,
            "makespan {} > serial bound {}", report.makespan_secs, serial + stagger);
    }

    /// Faults (kill + restart) never prevent completion and never lose or
    /// duplicate effective work.
    #[test]
    fn faulty_ensembles_still_complete(
        wf in workflow_strategy(),
        kill_frac in 0.05f64..0.9,
        outage in 0.5f64..10.0,
    ) {
        // Two nodes, kill node 1 somewhere inside the fault-free makespan.
        let mut cfg = SimRunConfig::new(cluster(2));
        cfg.per_job_overhead_secs = 0.0;
        let clean = run_ensemble(&[Arc::clone(&wf)], &cfg);
        prop_assert!(clean.completed);

        let mut cfg = SimRunConfig::new(cluster(2));
        cfg.per_job_overhead_secs = 0.0;
        cfg.engine.default_timeout_secs = 5.0;
        cfg.timeout_scan_secs = 0.5;
        let kill_at = (clean.makespan_secs * kill_frac).max(0.01);
        cfg.faults = vec![NodeFault {
            node: 1,
            kill_at_secs: kill_at,
            restart_at_secs: Some(kill_at + outage),
        }];
        let report = run_ensemble(&[Arc::clone(&wf)], &cfg);
        prop_assert!(report.completed, "fault run starved");
        prop_assert_eq!(report.engine.jobs_completed, wf.job_count() as u64);
        // Makespan can only grow under faults (same config otherwise).
        prop_assert!(report.makespan_secs + 1e-6 >= clean.makespan_secs * 0.999,
            "faults should not speed things up: {} vs {}",
            report.makespan_secs, clean.makespan_secs);
    }

    /// Determinism: the full runtime is a pure function of its inputs.
    #[test]
    fn runtime_is_deterministic(
        wfs in prop::collection::vec(workflow_strategy(), 1..4),
        nodes in 1usize..4,
    ) {
        let mut cfg = SimRunConfig::new(cluster(nodes));
        cfg.per_job_overhead_secs = 0.05;
        let a = run_ensemble(&wfs, &cfg);
        let b = run_ensemble(&wfs, &cfg);
        prop_assert_eq!(a.makespan_secs, b.makespan_secs);
        prop_assert_eq!(a.workflow_makespans, b.workflow_makespans);
        prop_assert_eq!(a.total_bytes_read, b.total_bytes_read);
        prop_assert_eq!(a.total_bytes_written, b.total_bytes_written);
        prop_assert_eq!(a.engine.dispatches, b.engine.dispatches);
    }

    /// Generation-index safety under churn: a random storm of acks —
    /// completions, failures, duplicate and *stale* acks replayed from
    /// superseded attempts — interleaved with timeout resubmissions and
    /// dead-lettering must never corrupt the engine's in-flight slab.
    /// The slab is a struct-of-arrays keyed by (workflow, job) with the
    /// attempt number as the generation check, so a stale ack landing on
    /// a recycled slot is the exact aliasing hazard this hunts.
    #[test]
    fn generation_churn_never_corrupts_inflight_state(
        wfs in prop::collection::vec(workflow_strategy(), 1..4),
        seed in any::<u64>(),
        storm_steps in 20usize..120,
    ) {
        let mut engine = EngineConfig { checkout_timeout_secs: Some(5.0), ..EngineConfig::default() }
            .timeout(10.0)
            .max_attempts(3)
            .build();

        let mut rng = seed | 1;
        let mut next = move || {
            // xorshift64: cheap, deterministic, seeded by proptest.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        let mut actions = Vec::new();
        let mut outstanding: Vec<DispatchMsg> = Vec::new();
        let mut history: Vec<DispatchMsg> = Vec::new();
        let mut now = 0.0;
        for wf in &wfs {
            engine.submit_workflow(Arc::clone(wf), now, &mut actions);
        }
        let drain = |actions: &mut Vec<Action>,
                         outstanding: &mut Vec<DispatchMsg>,
                         history: &mut Vec<DispatchMsg>| {
            for a in actions.drain(..) {
                if let Action::Dispatch(d) = a {
                    outstanding.push(d);
                    history.push(d);
                }
            }
        };
        drain(&mut actions, &mut outstanding, &mut history);

        // Storm phase: random ack/fail/stale-replay/timeout events.
        for _ in 0..storm_steps {
            if engine.all_settled() {
                break;
            }
            now += (next() % 100) as f64 / 50.0;
            match next() % 8 {
                0..=2 if !outstanding.is_empty() => {
                    let d = outstanding.swap_remove(next() as usize % outstanding.len());
                    let kind =
                        if next() % 4 == 0 { AckKind::Failed } else { AckKind::Completed };
                    engine.on_ack(
                        AckMsg::new(d.job, 0, kind, d.attempt),
                        now,
                        &mut actions,
                    );
                }
                3 if !outstanding.is_empty() => {
                    // Checkout without completion: arms the job timeout.
                    let d = outstanding[next() as usize % outstanding.len()];
                    engine.on_ack(
                        AckMsg::new(d.job, 1, AckKind::Running, d.attempt),
                        now,
                        &mut actions,
                    );
                }
                4..=5 if !history.is_empty() => {
                    // Stale/duplicate replay: an attempt that may have been
                    // superseded, completed, or dead-lettered long ago.
                    let d = history[next() as usize % history.len()];
                    let kind = match next() % 3 {
                        0 => AckKind::Running,
                        1 => AckKind::Completed,
                        _ => AckKind::Failed,
                    };
                    engine.on_ack(
                        AckMsg::new(d.job, 2, kind, d.attempt),
                        now,
                        &mut actions,
                    );
                }
                _ => {
                    if let Some(due) = engine.next_deadline() {
                        now = now.max(due + 1e-9);
                    }
                    engine.check_timeouts(now, &mut actions);
                }
            }
            drain(&mut actions, &mut outstanding, &mut history);
        }

        // Cleanup phase: drive the survivors to settlement. Every path is
        // bounded — attempts cap at 3, so each job either completes here
        // or dead-letters through the timeout machinery.
        let mut guard = 0;
        while !engine.all_settled() {
            guard += 1;
            prop_assert!(guard < 10_000, "engine failed to settle under churn");
            if let Some(due) = engine.next_deadline() {
                now = now.max(due + 1e-9);
                engine.check_timeouts(now, &mut actions);
            } else {
                let Some(d) = outstanding.pop() else {
                    prop_assert!(false, "no deadline and nothing outstanding, yet unsettled");
                    unreachable!()
                };
                engine.on_ack(
                    AckMsg::new(d.job, 0, AckKind::Completed, d.attempt),
                    now,
                    &mut actions,
                );
            }
            drain(&mut actions, &mut outstanding, &mut history);
        }

        // Settled: the slab must be fully drained — a live or phantom
        // entry here means a stale generation survived the churn.
        prop_assert_eq!(engine.next_deadline(), None);
        let mut inflight = Vec::new();
        engine.inflight_dispatches(&mut inflight);
        prop_assert!(inflight.is_empty(), "settled engine still reports in-flight attempts");
        let stats = engine.stats();
        let total: u64 = wfs.iter().map(|w| w.job_count() as u64).sum();
        prop_assert_eq!(stats.jobs_completed + stats.jobs_abandoned, total);
        prop_assert_eq!(stats.workflows_completed + stats.workflows_abandoned, wfs.len());
    }

    /// Acks come from the network, so `on_ack` is total: whatever a peer
    /// sends — for a workflow or job that does not exist, for a job still
    /// waiting on its parents, for an attempt never issued, for a workflow
    /// that settled long ago and whose in-flight region another now holds,
    /// a `Running` after the `Completed` — it neither panics nor bends the
    /// run. Each `Completed` or `Failed` is either applied or lands in
    /// exactly one of `rejected_acks`, `duplicate_completions` and
    /// `stale_failures_ignored`; a `Running` is counted only when it is
    /// rejected. Jobs are still dispatched in DAG order, once settled every
    /// job is terminal exactly once, and nothing is left in flight.
    ///
    /// The instances are one workflow submitted over and over, two live at
    /// a time, so every later one moves into a recycled region.
    #[test]
    fn hostile_acks_are_counted_and_never_applied(
        wf in workflow_strategy(),
        instances in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut engine = EngineConfig { checkout_timeout_secs: Some(5.0), ..EngineConfig::default() }
            .timeout(10.0)
            .max_attempts(3)
            .build();
        let jobs = wf.job_count() as u64;
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let kind_of = |n: u64| match n % 3 {
            0 => AckKind::Running,
            1 => AckKind::Completed,
            _ => AckKind::Failed,
        };

        let mut actions = Vec::new();
        let mut outstanding: Vec<DispatchMsg> = Vec::new();
        let mut history: Vec<DispatchMsg> = Vec::new();
        let mut submitted = 0usize;
        let mut now = 0.0;
        let mut guard = 0;
        while !(submitted == instances && engine.all_settled()) {
            guard += 1;
            prop_assert!(guard < 20_000, "engine failed to settle: {:?}", engine.stats());
            now += (next() % 100) as f64 / 50.0;
            let before = engine.stats();
            let live = submitted - before.workflows_completed - before.workflows_abandoned;
            let mut sent: Option<(AckMsg, Option<JobState>)> = None;
            let mut send = |engine: &mut dewe_core::EnsembleEngine, ack: AckMsg, actions: &mut Vec<Action>| {
                sent = Some((ack, engine.job_state(ack.job)));
                engine.on_ack(ack, now, actions);
            };
            match next() % 10 {
                _ if submitted < instances && live < 2 && (outstanding.is_empty() || next() % 4 == 0) => {
                    engine.submit_workflow(Arc::clone(&wf), now, &mut actions);
                    submitted += 1;
                }
                0..=2 if !outstanding.is_empty() => {
                    // The run's own traffic: what a worker would send.
                    let pick = next() as usize % outstanding.len();
                    let kind = kind_of(next() % 7); // mostly Running and Completed
                    let d = match kind {
                        AckKind::Running => outstanding[pick],
                        _ => outstanding.swap_remove(pick),
                    };
                    send(&mut engine, AckMsg::new(d.job, 0, kind, d.attempt), &mut actions);
                }
                3..=4 => {
                    // Anything at all, in and out of range.
                    let job = EnsembleJobId::new(
                        WorkflowId((next() % (submitted as u64 + 2)) as u32),
                        JobId((next() % (jobs + 2)) as u32),
                    );
                    let attempt = [0, 1, 2, 3, 4, u32::MAX][next() as usize % 6];
                    send(&mut engine, AckMsg::new(job, 7, kind_of(next()), attempt), &mut actions);
                }
                5..=6 if !history.is_empty() => {
                    // A real dispatch, answered again — possibly long
                    // after its workflow settled and its region moved on.
                    let d = history[next() as usize % history.len()];
                    send(&mut engine, AckMsg::new(d.job, 8, kind_of(next()), d.attempt), &mut actions);
                }
                7 if submitted > 0 => {
                    // A job the engine has not dispatched yet, if any.
                    let wf_id = WorkflowId((next() % submitted as u64) as u32);
                    let pending = (0..jobs as u32)
                        .map(|j| EnsembleJobId::new(wf_id, JobId(j)))
                        .find(|&job| engine.job_state(job) == Some(JobState::Pending));
                    if let Some(job) = pending {
                        send(&mut engine, AckMsg::new(job, 9, kind_of(next()), 1), &mut actions);
                    }
                }
                _ => {
                    if let Some(due) = engine.next_deadline() {
                        now = now.max(due + 1e-9);
                    }
                    engine.check_timeouts(now, &mut actions);
                }
            }

            let after = engine.stats();
            if let Some((ack, state_before)) = sent {
                let dropped = (after.rejected_acks - before.rejected_acks)
                    + (after.duplicate_completions - before.duplicate_completions)
                    + (after.stale_failures_ignored - before.stale_failures_ignored);
                let applied = (after.jobs_completed - before.jobs_completed)
                    + (after.resubmissions - before.resubmissions)
                    + (after.dead_lettered - before.dead_lettered);
                let live_job = matches!(state_before, Some(JobState::Ready | JobState::Running));
                match ack.kind {
                    AckKind::Running => {
                        prop_assert_eq!(applied, 0);
                        let asked_for = matches!(state_before, Some(s) if s != JobState::Pending);
                        prop_assert_eq!(dropped, u64::from(!asked_for), "{:?}", ack);
                    }
                    _ => prop_assert_eq!(dropped + applied, 1, "{:?} on {:?}", ack, state_before),
                }
                if !live_job {
                    prop_assert_eq!(applied, 0, "{:?} applied to {:?}", ack, state_before);
                    prop_assert!(actions.is_empty(), "{:?} caused {:?}", ack, actions);
                    prop_assert_eq!(engine.job_state(ack.job), state_before);
                }
            }
            for a in actions.drain(..) {
                if let Action::Dispatch(d) = a {
                    // DAG order: a job goes out only once every parent's
                    // completion came in.
                    for &parent in wf.parents(d.job.job) {
                        let parent = EnsembleJobId::new(d.job.workflow, parent);
                        prop_assert_eq!(engine.job_state(parent), Some(JobState::Completed));
                    }
                    outstanding.push(d);
                    history.push(d);
                }
            }
            if outstanding.is_empty() && engine.next_deadline().is_none() && !engine.all_settled() {
                // Every dispatch was answered with a failure or lost to a
                // hostile completion; what is still live sits queued.
                let mut queued = Vec::new();
                engine.inflight_dispatches(&mut queued);
                outstanding.extend(queued);
            }
        }

        let stats = engine.stats();
        prop_assert_eq!(stats.jobs_completed + stats.jobs_abandoned, jobs * instances as u64);
        prop_assert_eq!(stats.workflows_completed + stats.workflows_abandoned, instances);
        prop_assert_eq!(engine.next_deadline(), None);
        let mut inflight = Vec::new();
        engine.inflight_dispatches(&mut inflight);
        prop_assert!(inflight.is_empty(), "settled engine still reports in-flight attempts");
        for w in 0..instances as u32 {
            for j in 0..jobs as u32 {
                let state = engine.job_state(EnsembleJobId::new(WorkflowId(w), JobId(j)));
                prop_assert!(matches!(state, Some(JobState::Completed | JobState::Abandoned)));
            }
        }
    }

    /// More nodes never hurt: makespan is non-increasing in cluster size
    /// for CPU-bound ensembles (no I/O efficiency penalty on DistFs at
    /// these scales because the workloads are compute-only).
    #[test]
    fn monotone_in_cluster_size(
        width in 8usize..40,
        cpu in 0.5f64..5.0,
    ) {
        // Compute-only fan (no files), so shared-FS scaling effects are out
        // of the picture.
        let mut b = WorkflowBuilder::new("fan");
        for i in 0..width * 4 {
            b.job(format!("j{i}"), "t", cpu).build();
        }
        let wf = Arc::new(b.finish().unwrap());
        let mut prev = f64::INFINITY;
        for nodes in 1..=3 {
            let mut cfg = SimRunConfig::new(cluster(nodes));
            cfg.per_job_overhead_secs = 0.0;
            let r = run_ensemble(&[Arc::clone(&wf)], &cfg);
            prop_assert!(r.completed);
            prop_assert!(r.makespan_secs <= prev + 1e-6,
                "{nodes} nodes slower than {}: {} > {prev}", nodes - 1, r.makespan_secs);
            prev = r.makespan_secs;
        }
    }
}
