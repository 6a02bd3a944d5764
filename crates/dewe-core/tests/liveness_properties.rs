//! Property tests for the lease/requeue plane composed with the engine:
//! **requeue idempotence**. After a worker's lease expires and its jobs
//! are requeued and completed elsewhere, no storm of late acks from the
//! dead worker — Running, Completed, Failed, repeated, in any order,
//! even after the worker revives — may double-complete a job, trigger a
//! spurious redispatch, or corrupt the attempt accounting. Duplicate
//! deliveries of the synthetic requeue acks themselves must be fenced by
//! the engine's attempt check (the `InflightLanes` generation), not
//! burned as extra resubmissions. The table's **next expiry** is exact,
//! since the master sleeps until it and scans leases only then. And
//! **journal replay rebuilds the live table**, so a master that takes over
//! holds the leases, assignments and counters the dead one had.

use std::sync::Arc;

use dewe_core::realtime::{
    replay_liveness, JournalRecord, LivenessTable, LivenessTransition, MasterStats, RequeueEntry,
    WorkerPhase,
};
use dewe_core::{AckKind, AckMsg, Action, DispatchMsg, EngineConfig, LifecycleKind, LifecycleMsg};
use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowBuilder, WorkflowId};
use proptest::prelude::*;

const WORKER_A: u32 = 0;
const WORKER_B: u32 = 1;
const LEASE_SECS: f64 = 1.0;

/// `n` independent jobs — every dispatch is immediate, so worker A can
/// hold the whole ensemble in flight when its lease lapses.
fn independent_jobs(n: usize) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("storm");
    for j in 0..n {
        b.job(format!("j{j}"), "t", 1.0).build();
    }
    Arc::new(b.finish().expect("edge-free DAG is trivially topological"))
}

fn hb(worker: u32) -> LifecycleMsg {
    LifecycleMsg::new(worker, 0, LifecycleKind::Heartbeat)
}

/// Route one ack the way the master does: the liveness fence first, the
/// engine only if admitted.
fn feed(
    table: &mut LivenessTable,
    engine: &mut dewe_core::EnsembleEngine,
    ack: AckMsg,
    now: f64,
    actions: &mut Vec<Action>,
) -> bool {
    let mut transitions = Vec::new();
    if !table.admit_ack(&ack, now, &mut transitions) {
        return false;
    }
    engine.on_ack(ack, now, actions);
    true
}

/// Does any worker hold a lease?
fn leased(table: &LivenessTable) -> bool {
    table
        .snapshot()
        .iter()
        .any(|row| matches!(row.phase, WorkerPhase::Live | WorkerPhase::Draining))
}

/// Journal what one step of the live table did, in the serve loop's order:
/// a `W` record per transition, then the synthetic requeue `A`s.
fn journal(
    records: &mut Vec<JournalRecord>,
    transitions: &mut Vec<LivenessTransition>,
    requeue: &mut Vec<RequeueEntry>,
    at: f64,
) {
    records.extend(transitions.drain(..).map(|t| JournalRecord::Worker {
        worker: t.worker,
        generation: t.generation,
        phase: t.phase,
        at: t.at,
    }));
    records.extend(requeue.drain(..).map(|r| JournalRecord::Ack { ack: r.as_failed_ack(), at }));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Worker A checks out every job, goes silent past its lease, the
    /// jobs are requeued (with a duplicated requeue delivery) and
    /// completed by worker B — then A unleashes a shuffled late-ack
    /// storm, optionally after reviving. The ensemble must stay
    /// completed exactly once per job with exactly one resubmission per
    /// job, and a final expiry pass over whatever the storm re-asserted
    /// must requeue nothing the engine accepts.
    #[test]
    fn late_ack_storm_never_double_completes(
        n_jobs in 2usize..10,
        storm in prop::collection::vec((any::<usize>(), 0u8..3, 1usize..3), 0..40),
        revive in any::<bool>(),
    ) {
        let n = n_jobs as u64;
        let mut engine = EngineConfig::default().timeout(1000.0).build();
        let mut table = LivenessTable::new(LEASE_SECS);
        let mut actions = Vec::new();
        let (mut tr, mut rq) = (Vec::new(), Vec::new());

        // A registers and checks out the whole ensemble.
        table.on_lifecycle(&hb(WORKER_A), 0.0, &mut tr, &mut rq);
        engine.submit_workflow(independent_jobs(n_jobs), 0.0, &mut actions);
        let first_wave = dispatches(&actions);
        prop_assert_eq!(first_wave.len(), n_jobs);
        actions.clear();
        for d in &first_wave {
            let ack =
                AckMsg::new(d.job, WORKER_A, AckKind::Running, d.attempt);
            prop_assert!(feed(&mut table, &mut engine, ack, 0.1, &mut actions));
        }
        prop_assert!(first_wave.iter().all(|d| table.assignment(d.job).is_some()));

        // Lease lapses: every in-flight job is requeued through the
        // retry machinery; a duplicated delivery of each synthetic ack
        // must be fenced as stale, not resubmitted again.
        table.expire_due(2.0, &mut tr, &mut rq);
        prop_assert_eq!(rq.len(), n_jobs);
        prop_assert_eq!(table.stats().workers_expired, 1);
        prop_assert_eq!(table.stats().jobs_requeued_on_expiry, n);
        for entry in &rq {
            prop_assert!(feed(&mut table, &mut engine, entry.as_failed_ack(), 2.0, &mut actions));
            prop_assert!(feed(&mut table, &mut engine, entry.as_failed_ack(), 2.0, &mut actions));
        }
        let second_wave = dispatches(&actions);
        actions.clear();
        prop_assert_eq!(second_wave.len(), n_jobs, "one resubmission per requeued job");
        prop_assert_eq!(engine.stats().resubmissions, n);
        prop_assert_eq!(engine.stats().stale_failures_ignored, n,
            "duplicate requeue deliveries must be fenced");

        // B completes the second attempts.
        table.on_lifecycle(&hb(WORKER_B), 2.1, &mut tr, &mut rq);
        for d in &second_wave {
            let run =
                AckMsg::new(d.job, WORKER_B, AckKind::Running, d.attempt);
            let done = AckMsg::new(run.job, run.worker, AckKind::Completed, run.attempt);
            prop_assert!(feed(&mut table, &mut engine, run, 2.2, &mut actions));
            prop_assert!(feed(&mut table, &mut engine, done, 2.3, &mut actions));
        }
        prop_assert!(engine.all_complete());
        prop_assert_eq!(engine.stats().jobs_completed, n);
        prop_assert!(first_wave.iter().all(|d| table.assignment(d.job).is_none()));

        // The late-ack storm from A, all echoing first attempts.
        if revive {
            table.on_lifecycle(&hb(WORKER_A), 3.0, &mut tr, &mut rq);
        }
        let before = engine.stats();
        let fenced_before = table.stats().stale_acks_rejected;
        let mut sent = 0u64;
        for (idx, kind, repeat) in &storm {
            let d = &first_wave[idx % first_wave.len()];
            let kind = match kind {
                0 => AckKind::Running,
                1 => AckKind::Completed,
                _ => AckKind::Failed,
            };
            for _ in 0..*repeat {
                let ack = AckMsg::new(d.job, WORKER_A, kind, d.attempt);
                let admitted = feed(&mut table, &mut engine, ack, 3.1, &mut actions);
                prop_assert_eq!(admitted, revive, "expired workers are fenced; revived flow");
                sent += 1;
            }
        }
        let after = engine.stats();
        prop_assert!(dispatches(&actions).is_empty(), "storm must not redispatch anything");
        prop_assert_eq!(after.jobs_completed, n, "storm double-completed a job");
        prop_assert_eq!(after.resubmissions, n, "storm burned a retry");
        prop_assert_eq!(after.dispatches, before.dispatches);
        if !revive {
            // Fenced at the door: the engine never even saw the storm.
            prop_assert_eq!(after, before);
            prop_assert_eq!(table.stats().stale_acks_rejected, fenced_before + sent);
        }

        // Whatever assignments the storm re-asserted (revived A's late
        // Running acks) die with A's next silence — and the resulting
        // requeues are all stale to the engine: still no extra work.
        table.expire_due(10.0, &mut tr, &mut rq);
        rq.drain(..).for_each(|entry| {
            let mut t = Vec::new();
            if table.admit_ack(&entry.as_failed_ack(), 10.0, &mut t) {
                engine.on_ack(entry.as_failed_ack(), 10.0, &mut actions);
            }
        });
        prop_assert!(dispatches(&actions).is_empty());
        prop_assert_eq!(engine.stats().resubmissions, n);
        prop_assert_eq!(engine.stats().jobs_completed, n);
        prop_assert!(engine.all_complete());
        prop_assert!(first_wave.iter().all(|d| table.assignment(d.job).is_none()));
    }

    /// `next_expiry` is the earliest lease deadline among Live and Draining
    /// workers — the master sleeps until it — over arbitrary lifecycle
    /// traffic, acks, grace grants and expiry passes: an `expire_due` just
    /// short of it changes nothing, one at it expires a worker, and without
    /// it no worker holds a lease.
    #[test]
    fn next_expiry_is_the_earliest_lease(
        ops in prop::collection::vec((0u8..4, 0u32..4, 0u32..3, 0u32..6, 0u8..3, 0u8..5), 1..60),
    ) {
        const LIFECYCLE: [LifecycleKind; 3] =
            [LifecycleKind::Register, LifecycleKind::Heartbeat, LifecycleKind::Drain];
        const ACKS: [AckKind; 3] = [AckKind::Running, AckKind::Completed, AckKind::Failed];
        let mut table = LivenessTable::new(LEASE_SECS);
        let (mut tr, mut rq) = (Vec::new(), Vec::new());
        let mut now: f64 = 0.0;
        for (op, worker, generation, job, kind, step) in ops {
            now += [0.0, 0.25, 0.5, 1.0, 1.5][step as usize];
            match op {
                0 => {
                    let msg = LifecycleMsg::new(worker, generation, LIFECYCLE[kind as usize]);
                    table.on_lifecycle(&msg, now, &mut tr, &mut rq);
                }
                1 => {
                    let job = EnsembleJobId::new(WorkflowId(0), JobId(job));
                    let ack = AckMsg::new(job, worker, ACKS[kind as usize], 1);
                    table.admit_ack(&ack, now, &mut tr);
                }
                2 => table.grant_grace(now),
                _ => {
                    // Short of the earliest lease nothing lapses, at it
                    // something does; then the clock catches up.
                    let Some(due) = table.next_expiry() else {
                        prop_assert!(!leased(&table), "a lease is held and none expires");
                        continue;
                    };
                    prop_assert!(leased(&table));
                    let before = (table.snapshot(), table.stats());
                    tr.clear();
                    table.expire_due(due.next_down(), &mut tr, &mut rq);
                    table.expire_due(now.min(due.next_down()), &mut tr, &mut rq);
                    prop_assert!(
                        tr.is_empty() && (table.snapshot(), table.stats()) == before,
                        "expire_due short of {due} expired something"
                    );
                    table.expire_due(due, &mut tr, &mut rq);
                    prop_assert!(
                        tr.iter().any(|t| t.phase == WorkerPhase::Expired),
                        "expire_due({due}) expired nobody"
                    );
                    prop_assert!(table.next_expiry().is_none_or(|next| next > due));
                    now = now.max(due);
                    table.expire_due(now, &mut tr, &mut rq);
                }
            }
        }
    }
}

proptest! {
    // A drain that an ack completes is what tells the two tables apart
    // when their counting drifts, and it is a few steps in the making.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Replay rebuilds the live table. Lifecycle traffic, acks and expiry
    /// passes run through a live table and are journaled in the serve
    /// loop's order: a `W` record per transition, an ack's drain-completion
    /// `W` before its `A`, requeue `A`s after their step's `W`s. After every
    /// step — a master may die at any of them — `replay_liveness` of the
    /// records so far is the live table: the same snapshot, the same
    /// assignment for every job and every counter but `stale_acks_rejected`
    /// (a rejected ack is not journaled).
    #[test]
    fn replay_rebuilds_the_live_table(
        ops in prop::collection::vec(
            ((0u8..3, 0u32..4, 0u32..3), (0u32..6, 0u8..3, 1u32..3), 0u8..5),
            1..60,
        ),
    ) {
        const LIFECYCLE: [LifecycleKind; 3] =
            [LifecycleKind::Register, LifecycleKind::Heartbeat, LifecycleKind::Drain];
        const ACKS: [AckKind; 3] = [AckKind::Running, AckKind::Completed, AckKind::Failed];
        let jobs = || (0..6).map(|j| EnsembleJobId::new(WorkflowId(0), JobId(j)));
        let counters = |t: &LivenessTable| MasterStats { stale_acks_rejected: 0, ..t.stats() };
        let mut live = LivenessTable::new(LEASE_SECS);
        let (mut tr, mut rq, mut records) = (Vec::new(), Vec::new(), Vec::new());
        let mut now: f64 = 0.0;
        for ((op, worker, generation), (job, kind, attempt), step) in ops {
            now += [0.0, 0.25, 0.5, 1.0, 1.5][step as usize];
            let admitted = match op {
                0 => {
                    let msg = LifecycleMsg::new(worker, generation, LIFECYCLE[kind as usize]);
                    live.on_lifecycle(&msg, now, &mut tr, &mut rq);
                    None
                }
                1 => {
                    let job = EnsembleJobId::new(WorkflowId(0), JobId(job));
                    let ack = AckMsg::new(job, worker, ACKS[kind as usize], attempt);
                    live.admit_ack(&ack, now, &mut tr).then_some(ack)
                }
                _ => {
                    live.expire_due(now, &mut tr, &mut rq);
                    None
                }
            };
            journal(&mut records, &mut tr, &mut rq, now);
            records.extend(admitted.map(|ack| JournalRecord::Ack { ack, at: now }));

            let replayed = replay_liveness(&records, LEASE_SECS);
            prop_assert_eq!(replayed.snapshot(), live.snapshot());
            for job in jobs() {
                prop_assert_eq!(replayed.assignment(job), live.assignment(job), "{:?}", job);
            }
            prop_assert_eq!(counters(&replayed), counters(&live));
        }
    }
}
