//! Deterministic fault plans: seeded, timed fault schedules injected
//! into both the discrete-event simulator and the threaded realtime
//! runner.
//!
//! The paper's robustness story (§V.A.3) is "kill a worker daemon,
//! watch the timeout mechanism recover". This module widens that to the
//! full fault plane exercised by the differential oracle:
//!
//! * **worker crash** — the daemon dies silently mid-job (no acks, no
//!   heartbeats; jobs recovered by lease expiry or job timeout);
//! * **spot revocation** — the cloud gives notice, the worker announces
//!   a drain and finishes what it can, then dies at the revocation
//!   instant (the paper's spot-instance scenario);
//! * **worker stall** — the daemon stops heartbeating for a window but
//!   keeps running (GC pause / network partition): a lease-enabled
//!   master expires it, then must fence the zombie's late acks;
//! * **master kill** — the master process dies at an arbitrary instant
//!   and a replacement recovers from the write-ahead journal after a
//!   delay.
//!
//! A [`FaultPlan`] is pure data: the testkit's scenario runner and the
//! simulator interpret the same plan against their own clocks, so a
//! failing seed replays identically everywhere. Plans are generated
//! from a seed by [`FaultPlan::generate`], which always leaves at least
//! one worker unharmed so scenarios with unbounded retries settle.

use crate::sim::NodeFault;

/// One fault to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Worker `worker` dies silently: in-flight jobs are abandoned
    /// without acks and heartbeats stop.
    WorkerCrash {
        /// Which worker.
        worker: u32,
    },
    /// Worker `worker` receives a revocation notice: it announces a
    /// drain immediately and is killed `notice_secs` later.
    SpotRevocation {
        /// Which worker.
        worker: u32,
        /// Seconds between the drain announcement and the kill.
        notice_secs: f64,
    },
    /// Worker `worker` stops heartbeating for `stall_secs` but keeps
    /// executing jobs, then resumes heartbeats.
    WorkerStall {
        /// Which worker.
        worker: u32,
        /// Silence window, seconds.
        stall_secs: f64,
    },
    /// The master dies and a replacement recovers from the journal
    /// `restart_delay_secs` later.
    MasterKill {
        /// Seconds the system runs master-less.
        restart_delay_secs: f64,
    },
}

/// A fault scheduled at a point in scenario time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// Scenario seconds at which the fault fires.
    pub at_secs: f64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic, seeded schedule of timed faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Events sorted by `at_secs`.
    pub events: Vec<TimedFault>,
}

/// splitmix64 — the same tiny deterministic generator the testkit's
/// scenario generator uses, duplicated here so `dewe-core` stays
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when the plan kills the master at some point.
    pub fn has_master_kill(&self) -> bool {
        self.events.iter().any(|f| matches!(f.event, FaultEvent::MasterKill { .. }))
    }

    /// Generate a plan for `workers` workers over `horizon_secs` of
    /// scenario time. Deterministic in `seed`. Guarantees:
    ///
    /// * at least one worker is never crashed or revoked (so unbounded
    ///   retries always settle);
    /// * each worker is targeted by at most one lethal event;
    /// * at most one master kill, scheduled in the middle half of the
    ///   horizon so it lands with real journaled progress and real work
    ///   left;
    /// * events are sorted by firing time.
    pub fn generate(seed: u64, workers: u32, horizon_secs: f64) -> Self {
        assert!(workers >= 1, "a plan needs at least one worker");
        let mut st = seed ^ 0xfau64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut events = Vec::new();

        // Lethal faults: up to workers-1 victims, always ≥ 1 survivor.
        let max_victims = workers.saturating_sub(1);
        let victims = if max_victims == 0 {
            0
        } else {
            (splitmix64(&mut st) % u64::from(max_victims + 1)) as u32
        };
        // Victim set: a seeded rotation of the worker ids, so which
        // workers die varies by seed while staying collision-free.
        let offset = (splitmix64(&mut st) % u64::from(workers)) as u32;
        for i in 0..victims {
            let worker = (offset + i) % workers;
            let at_secs = (0.1 + 0.8 * unit(&mut st)) * horizon_secs;
            let event = if splitmix64(&mut st).is_multiple_of(2) {
                FaultEvent::WorkerCrash { worker }
            } else {
                FaultEvent::SpotRevocation {
                    worker,
                    notice_secs: (0.02 + 0.1 * unit(&mut st)) * horizon_secs,
                }
            };
            events.push(TimedFault { at_secs, event });
        }

        // Stalls may hit anyone, including survivors — that is the
        // zombie-fencing case the liveness plane must get right.
        let stalls = splitmix64(&mut st) % 3;
        for _ in 0..stalls {
            let worker = (splitmix64(&mut st) % u64::from(workers)) as u32;
            events.push(TimedFault {
                at_secs: (0.1 + 0.7 * unit(&mut st)) * horizon_secs,
                event: FaultEvent::WorkerStall {
                    worker,
                    stall_secs: (0.1 + 0.3 * unit(&mut st)) * horizon_secs,
                },
            });
        }

        // Roughly half the seeds also kill the master mid-run.
        if splitmix64(&mut st).is_multiple_of(2) {
            events.push(TimedFault {
                at_secs: (0.25 + 0.5 * unit(&mut st)) * horizon_secs,
                event: FaultEvent::MasterKill {
                    restart_delay_secs: (0.02 + 0.08 * unit(&mut st)) * horizon_secs,
                },
            });
        }

        events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        Self { events }
    }

    /// Bridge to the simulator's node-level fault model. Lossy by
    /// design — the sim has no lifecycle wire, so:
    ///
    /// * a crash kills the node with no restart;
    /// * a spot revocation kills the node at notice expiry (the drain
    ///   window is a liveness-plane behaviour the sim cannot observe);
    /// * a stall becomes a kill + restart spanning the silence window
    ///   (the sim's nearest equivalent: the node's capacity vanishes);
    /// * master kills are dropped (the sim master is the event loop
    ///   itself and cannot die).
    pub fn node_faults(&self) -> Vec<NodeFault> {
        self.events
            .iter()
            .filter_map(|f| match f.event {
                FaultEvent::WorkerCrash { worker } => Some(NodeFault {
                    node: worker as usize,
                    kill_at_secs: f.at_secs,
                    restart_at_secs: None,
                }),
                FaultEvent::SpotRevocation { worker, notice_secs } => Some(NodeFault {
                    node: worker as usize,
                    kill_at_secs: f.at_secs + notice_secs,
                    restart_at_secs: None,
                }),
                FaultEvent::WorkerStall { worker, stall_secs } => Some(NodeFault {
                    node: worker as usize,
                    kill_at_secs: f.at_secs,
                    restart_at_secs: Some(f.at_secs + stall_secs),
                }),
                FaultEvent::MasterKill { .. } => None,
            })
            .collect()
    }

    /// One-line human description, for shrink reports and sweep logs.
    pub fn describe(&self) -> String {
        if self.events.is_empty() {
            return "no faults".into();
        }
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|f| match f.event {
                FaultEvent::WorkerCrash { worker } => {
                    format!("crash(w{worker}@{:.1}s)", f.at_secs)
                }
                FaultEvent::SpotRevocation { worker, notice_secs } => {
                    format!("revoke(w{worker}@{:.1}s+{:.1}s)", f.at_secs, notice_secs)
                }
                FaultEvent::WorkerStall { worker, stall_secs } => {
                    format!("stall(w{worker}@{:.1}s for {:.1}s)", f.at_secs, stall_secs)
                }
                FaultEvent::MasterKill { restart_delay_secs } => {
                    format!("master-kill(@{:.1}s +{:.1}s down)", f.at_secs, restart_delay_secs)
                }
            })
            .collect();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for seed in 0..64 {
            let a = FaultPlan::generate(seed, 4, 100.0);
            let b = FaultPlan::generate(seed, 4, 100.0);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn every_seed_leaves_a_survivor() {
        for seed in 0..256 {
            for workers in 1..5u32 {
                let plan = FaultPlan::generate(seed, workers, 50.0);
                let mut lethal = std::collections::BTreeSet::new();
                for f in &plan.events {
                    match f.event {
                        FaultEvent::WorkerCrash { worker }
                        | FaultEvent::SpotRevocation { worker, .. } => {
                            assert!(worker < workers);
                            lethal.insert(worker);
                        }
                        FaultEvent::WorkerStall { worker, .. } => assert!(worker < workers),
                        FaultEvent::MasterKill { .. } => {}
                    }
                }
                assert!(
                    (lethal.len() as u32) < workers,
                    "seed {seed} workers {workers}: all workers die ({lethal:?})"
                );
            }
        }
    }

    #[test]
    fn events_are_sorted_and_inside_the_horizon() {
        for seed in 0..128 {
            let plan = FaultPlan::generate(seed, 4, 80.0);
            let mut prev = 0.0;
            for f in &plan.events {
                assert!(f.at_secs >= prev, "unsorted at seed {seed}");
                assert!(f.at_secs >= 0.0 && f.at_secs <= 80.0);
                prev = f.at_secs;
            }
        }
    }

    #[test]
    fn some_seeds_kill_the_master_and_some_do_not() {
        let kills = (0..64).filter(|&s| FaultPlan::generate(s, 4, 50.0).has_master_kill()).count();
        assert!(
            kills > 10 && kills < 54,
            "master kills should be common but not universal: {kills}"
        );
    }

    #[test]
    fn node_fault_bridge_translates_every_worker_event() {
        let plan = FaultPlan {
            events: vec![
                TimedFault { at_secs: 1.0, event: FaultEvent::WorkerCrash { worker: 0 } },
                TimedFault {
                    at_secs: 2.0,
                    event: FaultEvent::SpotRevocation { worker: 1, notice_secs: 0.5 },
                },
                TimedFault {
                    at_secs: 3.0,
                    event: FaultEvent::WorkerStall { worker: 2, stall_secs: 2.0 },
                },
                TimedFault {
                    at_secs: 4.0,
                    event: FaultEvent::MasterKill { restart_delay_secs: 1.0 },
                },
            ],
        };
        let nf = plan.node_faults();
        assert_eq!(nf.len(), 3, "master kill has no node equivalent");
        assert_eq!(nf[0], NodeFault { node: 0, kill_at_secs: 1.0, restart_at_secs: None });
        assert_eq!(nf[1], NodeFault { node: 1, kill_at_secs: 2.5, restart_at_secs: None });
        assert_eq!(nf[2], NodeFault { node: 2, kill_at_secs: 3.0, restart_at_secs: Some(5.0) });
    }

    #[test]
    fn describe_names_every_event_kind() {
        let plan = FaultPlan::generate(7, 4, 100.0);
        let d = plan.describe();
        assert!(!d.is_empty());
        assert_eq!(FaultPlan::none().describe(), "no faults");
    }
}
