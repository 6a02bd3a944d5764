//! Shard-count invariance: a [`ShardedEngine`] is observationally a
//! partitioned [`EnsembleEngine`]. Driving the same ensemble through the
//! generic [`EngineCore`] surface with 1, 2 and 4 shards — and through the
//! plain single engine — must settle on the identical completion set, the
//! identical per-workflow makespans and abandonments, and conserved merged
//! statistics. The thread-parallel driver in deterministic barrier mode is
//! held to the same bar: identical completion sets, stats, and terminal
//! events as the sequential facade at every shard count.
//!
//! The driver is deliberately order-insensitive so routing cannot leak
//! into the outcome: every job attempt's fate is a pure function of its
//! *global* ensemble id, all acks within a round share one clock value,
//! and time only advances to the engine's own `next_deadline` when no
//! dispatch is immediately serviceable (parked backoff retries). Jitter is
//! disabled because the engine hashes *local* workflow ids into it — the
//! one place shard placement is allowed to show through timing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dewe_core::{
    AckKind, AckMsg, Action, DispatchMsg, EngineConfig, EngineCore, EngineStats, RetryPolicy,
};
use dewe_dag::Workflow;
use dewe_montage::{random_layered, RandomDagConfig};
use proptest::prelude::*;

/// Everything externally observable about a settled run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Completed workflows by global index, with their makespans.
    completed: BTreeMap<usize, f64>,
    /// Abandoned workflows by global index.
    abandoned: BTreeSet<usize>,
    /// Terminal events in emission order (`AllCompleted` / `AllSettled`).
    terminals: Vec<&'static str>,
    stats: EngineStats,
}

/// Scripted per-attempt fate, pure in the *global* ensemble job id so the
/// same attempt fails identically no matter which shard hosts it.
fn attempt_fails(seed: u64, d: &DispatchMsg) -> bool {
    let key = ((d.job.workflow.index() as u64) << 32)
        ^ ((d.job.job.index() as u64) << 8)
        ^ u64::from(d.attempt);
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(5)
}

fn drain(actions: &[Action], queue: &mut VecDeque<DispatchMsg>, out: &mut Outcome) {
    for a in actions {
        match a {
            Action::Dispatch(d) => queue.push_back(*d),
            Action::WorkflowCompleted { workflow, makespan_secs } => {
                out.completed.insert(workflow.index(), *makespan_secs);
            }
            Action::WorkflowAbandoned { workflow, .. } => {
                out.abandoned.insert(workflow.index());
            }
            Action::AllCompleted => out.terminals.push("AllCompleted"),
            Action::AllSettled => out.terminals.push("AllSettled"),
            _ => {}
        }
    }
}

/// Drive any [`EngineCore`] to settlement and report the outcome.
fn settle<E: EngineCore>(mut engine: E, wfs: &[Arc<Workflow>], seed: u64) -> Outcome {
    let mut out = Outcome {
        completed: BTreeMap::new(),
        abandoned: BTreeSet::new(),
        terminals: Vec::new(),
        stats: EngineStats::default(),
    };
    let mut actions: Vec<Action> = Vec::new();
    let mut queue: VecDeque<DispatchMsg> = VecDeque::new();
    let mut now = 0.0f64;
    for (i, wf) in wfs.iter().enumerate() {
        now = i as f64 * 0.25;
        actions.clear();
        engine.submit_workflow(Arc::clone(wf), now, &mut actions);
        drain(&actions, &mut queue, &mut out);
    }
    let mut steps = 0usize;
    while !engine.all_settled() {
        steps += 1;
        assert!(steps < 200_000, "driver failed to converge");
        if let Some(d) = queue.pop_front() {
            actions.clear();
            engine.on_ack(AckMsg::new(d.job, 0, AckKind::Running, d.attempt), now, &mut actions);
            drain(&actions, &mut queue, &mut out);
            let kind = if attempt_fails(seed, &d) { AckKind::Failed } else { AckKind::Completed };
            actions.clear();
            engine.on_ack(AckMsg::new(d.job, 0, kind, d.attempt), now, &mut actions);
            drain(&actions, &mut queue, &mut out);
        } else if let Some(deadline) = engine.next_deadline() {
            // Only parked backoff retries remain: advance to them.
            now = now.max(deadline);
            actions.clear();
            engine.check_timeouts(now, &mut actions);
            drain(&actions, &mut queue, &mut out);
        } else {
            panic!("stuck: queue empty, no deadline, yet not settled");
        }
    }
    out.stats = engine.stats();
    out
}

fn workflow_strategy() -> impl Strategy<Value = Arc<Workflow>> {
    (1usize..4, 1usize..5, 0.05f64..0.8, 0.1f64..3.0, any::<u64>()).prop_map(
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

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    (
        1u32..5,                                // retry cap
        prop_oneof![Just(0.0f64), 0.2f64..1.0], // backoff base
        1.2f64..2.5,                            // backoff factor
    )
        .prop_map(|(cap, base, factor)| {
            EngineConfig::default().timeout(30.0).retry(RetryPolicy {
                max_attempts: Some(cap),
                backoff_base_secs: base,
                backoff_factor: factor,
                backoff_max_secs: 4.0,
                jitter_frac: 0.0,
                seed: 0,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: shard count is an implementation knob, not
    /// an observable. Single engine and 1/2/4-shard engines all settle on
    /// the same completion sets, makespans and merged statistics, and the
    /// merged stats conserve every job.
    #[test]
    fn outcome_is_invariant_in_the_shard_count(
        wfs in prop::collection::vec(workflow_strategy(), 1..6),
        config in config_strategy(),
        seed in any::<u64>(),
    ) {
        let single = settle(config.build(), &wfs, seed);
        for shards in [1usize, 2, 4] {
            let sharded = settle(config.build_sharded(shards), &wfs, seed);
            prop_assert_eq!(
                &sharded, &single,
                "shards={} diverged from the single engine", shards
            );
            // The thread-parallel driver in deterministic barrier mode is
            // indistinguishable from the sequential facade: same
            // completions, same stats, same terminal events.
            let parallel = settle(config.build_parallel(shards, 2), &wfs, seed);
            prop_assert_eq!(
                &parallel, &single,
                "parallel shards={} diverged from the single engine", shards
            );
        }
        let total: u64 = wfs.iter().map(|w| w.job_count() as u64).sum();
        prop_assert_eq!(single.stats.jobs_completed + single.stats.jobs_abandoned, total);
        prop_assert_eq!(
            single.stats.workflows_completed + single.stats.workflows_abandoned,
            wfs.len()
        );
        prop_assert_eq!(single.completed.len() + single.abandoned.len(), wfs.len());
    }
}
