//! Deterministic virtual-time driver for the sans-IO [`EnsembleEngine`] —
//! the oracle's reference path.
//!
//! A discrete-event loop plays the roles of transport and worker pool:
//! dispatch actions become delivery events, deliveries occupy worker
//! slots, executions take their modeled `cpu_secs` of virtual time, and
//! acknowledgments travel back as events of their own. Chaos is applied
//! by the same pure [`ChaosDecider`] the other paths use, but keyed by
//! *message identity* (`workflow`, `job`, `attempt`, `kind`) rather than
//! publish order, so the fault schedule is a function of the scenario
//! alone — independent of event interleaving and re-runs.
//!
//! Between transport events the driver lets the engine's own clock run:
//! whenever the next engine deadline (job timeout or deferred retry)
//! precedes the next transport event, the driver advances virtual time to
//! the deadline and scans. A run with no pending events and no pending
//! deadlines that has not settled is a **stall** — the exact class of bug
//! (lost dispatch, stuck dependency) the oracle exists to catch.
//!
//! [`EnsembleEngine`]: dewe_core::EnsembleEngine

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use dewe_core::fault::FaultEvent;
use dewe_core::{AckKind, AckMsg, DispatchMsg};
use dewe_core::{Action, EngineConfig, EnsembleEngine, RetryPolicy};
use dewe_mq::chaos::streams;
use dewe_mq::{ChaosDecider, Fault};

use super::chaos::{ack_key, decider, dispatch_key};
use crate::invariant::{Event, PathKind, PathOutcome};
use crate::scenario::Scenario;

/// Transport latency between any publish and its delivery, virtual
/// seconds. Small but nonzero so causality is visible in timestamps.
const EPS: f64 = 1e-3;

/// Abort threshold for runaway scenarios (a conforming 36-job scenario
/// settles in a few hundred events).
const STEP_CAP: usize = 200_000;

/// Knobs for deliberately mis-driving the engine — the oracle's own
/// self-test. A mutated run must produce violations, and the shrinker
/// must reduce them to a minimal repro.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineDriverConfig {
    /// Silently discard the n-th (0-based) dispatch action instead of
    /// delivering it: an injected "engine lost a job" bug.
    pub drop_nth_dispatch: Option<u64>,
    /// Silently discard the n-th (0-based) completion event observed on
    /// the **sim** path: an injected "sim lost a finish record" bug the
    /// oracle must flag and shrink (see `paths::sim`).
    pub sim_drop_nth_completion: Option<u64>,
}

enum Ev {
    Submit(usize),
    DispatchArrive(DispatchMsg),
    JobFinish { dispatch: DispatchMsg, fail: bool, worker: usize, epoch: u32 },
    AckArrive(AckMsg),
    Fault(FaultEvent),
    MasterRestart,
}

/// One simulated worker daemon: a pool of slots that can crash (jobs
/// evaporate unacked), drain (stops accepting), or stall (running jobs
/// freeze for the window).
struct SimWorker {
    slots_free: usize,
    alive: bool,
    draining: bool,
    /// Bumped on crash: a `JobFinish` carrying a stale epoch belongs to
    /// a job that died with the worker and is dropped silently.
    epoch: u32,
}

/// Engine inputs in processing order — the virtual-time analogue of the
/// master's write-ahead journal. On a master kill the driver rebuilds a
/// fresh engine by replaying this log and checks it reproduces the
/// killed engine's state exactly.
enum LoggedInput {
    Submit { idx: usize, at: f64 },
    Ack { ack: AckMsg, at: f64 },
    Scan { at: f64 },
}

struct Sched {
    at: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.total_cmp(&other.at).then_with(|| self.seq.cmp(&other.seq))
    }
}

struct Driver<'a> {
    scenario: &'a Scenario,
    cfg: &'a EngineDriverConfig,
    built: Vec<std::sync::Arc<dewe_dag::Workflow>>,
    engine: EnsembleEngine,
    /// Builds an identically configured blank engine — the replacement
    /// master a `MasterKill` fault swaps in after replay.
    config: EngineConfig,
    chaos: Option<ChaosDecider>,
    heap: BinaryHeap<Reverse<Sched>>,
    seq: u64,
    workers: Vec<SimWorker>,
    queue: VecDeque<DispatchMsg>,
    events: Vec<Event>,
    dispatch_counter: u64,
    actions: Vec<Action>,
    /// Every input the engine processed, for master-kill replay.
    input_log: Vec<LoggedInput>,
    /// True between a `MasterKill` fault and its `MasterRestart`.
    master_down: bool,
    /// Submissions and acks that arrived while the master was down; the
    /// replacement consumes them (the backlog its links queued) at restart.
    outage_backlog: Vec<LoggedInput>,
    restarts: u32,
    recovery_ok: bool,
}

impl Driver<'_> {
    fn push(&mut self, at: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(Sched { at, seq: self.seq, ev }));
    }

    fn decide(&self, stream: u64, key: u64) -> Fault {
        match &self.chaos {
            Some(d) => d.decide(stream, key),
            None => Fault::Deliver,
        }
    }

    /// Route a dispatch action through chaos toward the worker pool.
    fn send_dispatch(&mut self, d: DispatchMsg, now: f64) {
        let n = self.dispatch_counter;
        self.dispatch_counter += 1;
        if self.cfg.drop_nth_dispatch == Some(n) {
            return; // the injected bug: the job silently never ships
        }
        match self.decide(streams::DISPATCH, dispatch_key(&d)) {
            Fault::Drop => {}
            Fault::Duplicate => {
                self.push(now + EPS, Ev::DispatchArrive(d));
                self.push(now + 2.0 * EPS, Ev::DispatchArrive(d));
            }
            Fault::Delay(secs) => self.push(now + secs + EPS, Ev::DispatchArrive(d)),
            Fault::Deliver => self.push(now + EPS, Ev::DispatchArrive(d)),
        }
    }

    /// Route a worker acknowledgment through chaos back to the engine.
    fn send_ack(&mut self, ack: AckMsg, now: f64) {
        match self.decide(streams::ACK, ack_key(&ack)) {
            Fault::Drop => {}
            Fault::Duplicate => {
                self.push(now + EPS, Ev::AckArrive(ack));
                self.push(now + 2.0 * EPS, Ev::AckArrive(ack));
            }
            Fault::Delay(secs) => self.push(now + secs + EPS, Ev::AckArrive(ack)),
            Fault::Deliver => self.push(now + EPS, Ev::AckArrive(ack)),
        }
    }

    /// First worker daemon that can accept a job right now.
    fn pick_worker(&self) -> Option<usize> {
        self.workers.iter().position(|w| w.alive && !w.draining && w.slots_free > 0)
    }

    /// A delivered dispatch begins executing on worker `w`.
    fn start_job(&mut self, d: DispatchMsg, w: usize, now: f64) {
        debug_assert!(self.workers[w].slots_free > 0);
        self.workers[w].slots_free -= 1;
        self.events.push(Event::Started { job: (d.job.workflow.0, d.job.job.0) });
        self.send_ack(AckMsg::new(d.job, w as u32, AckKind::Running, d.attempt), now);
        let spec = &self.scenario.workflows[d.job.workflow.index()].jobs[d.job.job.index()];
        // A stall freezes the worker: any job overlapping the window
        // finishes the whole stall later.
        let mut finish = now + spec.cpu_secs;
        for f in &self.scenario.faults.events {
            if let FaultEvent::WorkerStall { worker, stall_secs } = f.event {
                if worker as usize == w && now < f.at_secs + stall_secs && finish > f.at_secs {
                    finish += stall_secs;
                }
            }
        }
        let fail = d.attempt <= self.scenario.failing_attempts(d.job.workflow.0, d.job.job.0);
        let epoch = self.workers[w].epoch;
        self.push(finish, Ev::JobFinish { dispatch: d, fail, worker: w, epoch });
    }

    /// Start queued dispatches while any worker has capacity.
    fn drain_queue(&mut self, now: f64) {
        while !self.queue.is_empty() {
            let Some(w) = self.pick_worker() else { return };
            let d = self.queue.pop_front().expect("checked non-empty");
            self.start_job(d, w, now);
        }
    }

    /// Worker `w` dies: capacity vanishes and every running job's finish
    /// event is orphaned (stale epoch) — no ack is ever sent, so the
    /// engine's job timeout is the only way those attempts recover.
    fn crash_worker(&mut self, w: usize) {
        let worker = &mut self.workers[w];
        if !worker.alive {
            return;
        }
        worker.alive = false;
        worker.draining = false;
        worker.slots_free = 0;
        worker.epoch += 1;
    }

    /// Drain engine actions produced at `now`.
    fn process_actions(&mut self, now: f64) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            if let Action::Dispatch(d) = action {
                self.send_dispatch(d, now);
            }
        }
        self.actions = actions;
    }

    /// Feed one submission to the (live) engine, logging it for replay.
    fn ingest_submit(&mut self, idx: usize, now: f64) {
        let wf = std::sync::Arc::clone(&self.built[idx]);
        self.input_log.push(LoggedInput::Submit { idx, at: now });
        self.engine.submit_workflow(wf, now, &mut self.actions);
        self.process_actions(now);
    }

    /// Feed one acknowledgment to the (live) engine, logging it.
    fn ingest_ack(&mut self, ack: AckMsg, now: f64) {
        self.input_log.push(LoggedInput::Ack { ack, at: now });
        self.engine.on_ack(ack, now, &mut self.actions);
        self.process_actions(now);
    }

    /// Run a timeout scan on the (live) engine, logging it — scans
    /// mutate engine state (resubmissions, attempt bumps), so replay
    /// must reproduce them like any other input.
    fn ingest_scan(&mut self, now: f64) {
        self.input_log.push(LoggedInput::Scan { at: now });
        self.engine.check_timeouts(now, &mut self.actions);
        self.process_actions(now);
    }

    /// The `MasterKill` recovery: build a blank engine, replay the input
    /// log with original timestamps (discarding regenerated actions —
    /// every dispatch it re-derives already shipped before the kill, the
    /// virtual-time analogue of the realtime master's lease-held
    /// redispatch skip), and verify the replayed state is identical to
    /// the engine that died. Then drain the outage backlog into it.
    fn restart_master(&mut self, now: f64) {
        let mut fresh = self.config.build();
        let mut scratch = Vec::new();
        for input in &self.input_log {
            match *input {
                LoggedInput::Submit { idx, at } => {
                    fresh.submit_workflow(
                        std::sync::Arc::clone(&self.built[idx]),
                        at,
                        &mut scratch,
                    );
                }
                LoggedInput::Ack { ack, at } => fresh.on_ack(ack, at, &mut scratch),
                LoggedInput::Scan { at } => fresh.check_timeouts(at, &mut scratch),
            }
            scratch.clear();
        }
        let mut identical = fresh.stats() == self.engine.stats();
        for (w, wf) in self.scenario.workflows.iter().enumerate() {
            for j in 0..wf.jobs.len() {
                let id = dewe_dag::EnsembleJobId::new(
                    dewe_dag::WorkflowId(w as u32),
                    dewe_dag::JobId(j as u32),
                );
                identical &= fresh.job_state(id) == self.engine.job_state(id);
            }
        }
        self.restarts += 1;
        self.recovery_ok &= identical;
        self.engine = fresh;
        self.master_down = false;
        for input in std::mem::take(&mut self.outage_backlog) {
            match input {
                LoggedInput::Submit { idx, .. } => self.ingest_submit(idx, now),
                LoggedInput::Ack { ack, .. } => self.ingest_ack(ack, now),
                LoggedInput::Scan { .. } => unreachable!("scans are never buffered"),
            }
        }
    }

    fn handle(&mut self, ev: Ev, now: f64) {
        match ev {
            Ev::Submit(i) => {
                if self.master_down {
                    self.outage_backlog.push(LoggedInput::Submit { idx: i, at: now });
                } else {
                    self.ingest_submit(i, now);
                }
            }
            Ev::DispatchArrive(d) => {
                if let Some(w) = self.pick_worker() {
                    self.start_job(d, w, now);
                } else {
                    self.queue.push_back(d);
                }
            }
            Ev::JobFinish { dispatch, fail, worker, epoch } => {
                if !self.workers[worker].alive || self.workers[worker].epoch != epoch {
                    return; // the job died with its worker — no ack, ever
                }
                self.workers[worker].slots_free += 1;
                self.drain_queue(now);
                let kind = if fail { AckKind::Failed } else { AckKind::Completed };
                if !fail {
                    self.events.push(Event::Finished {
                        job: (dispatch.job.workflow.0, dispatch.job.job.0),
                    });
                }
                self.send_ack(
                    AckMsg::new(dispatch.job, worker as u32, kind, dispatch.attempt),
                    now,
                );
            }
            Ev::AckArrive(ack) => {
                if self.master_down {
                    self.outage_backlog.push(LoggedInput::Ack { ack, at: now });
                } else {
                    self.ingest_ack(ack, now);
                }
            }
            Ev::Fault(event) => match event {
                FaultEvent::WorkerCrash { worker } => self.crash_worker(worker as usize),
                FaultEvent::SpotRevocation { worker, notice_secs } => {
                    if self.workers[worker as usize].alive {
                        self.workers[worker as usize].draining = true;
                        self.push(now + notice_secs, Ev::Fault(FaultEvent::WorkerCrash { worker }));
                    }
                }
                // Stalls are applied as finish-time freezes in
                // `start_job` (the schedule is known upfront).
                FaultEvent::WorkerStall { .. } => {}
                FaultEvent::MasterKill { restart_delay_secs } => {
                    if !self.master_down {
                        self.master_down = true;
                        self.push(now + restart_delay_secs, Ev::MasterRestart);
                    }
                }
            },
            Ev::MasterRestart => self.restart_master(now),
        }
    }
}

/// The engine settings a scenario runs under — on this path and on the
/// sim's, which shares the virtual-time ladder.
pub(crate) fn engine_config(scenario: &Scenario) -> EngineConfig {
    let lossy = scenario.chaos.is_lossy();
    let faulty = !scenario.faults.is_empty();
    EngineConfig {
        // Generous relative to job runtimes (≤ 1 s) and chaos delays, so
        // spurious timeouts never race the retry-budget accounting; tight
        // enough that drop recovery converges quickly in virtual time.
        // Fault scenarios need the middle ground: a crashed worker's
        // jobs recover only via this timeout, so it must clear the worst
        // stall-stretched runtime yet stay small against the horizon.
        // Fault+chaos takes the lossy arm — a dropped ack and a crashed
        // worker recover through the same deadline, and 30 s covers both
        // in virtual time.
        default_timeout_secs: if lossy {
            30.0
        } else if faulty {
            8.0
        } else {
            1000.0
        },
        checkout_timeout_secs: lossy.then_some(5.0),
        retry: RetryPolicy {
            max_attempts: scenario.max_attempts,
            backoff_base_secs: scenario.backoff_base_secs,
            backoff_max_secs: 60.0,
        },
    }
}

/// Execute the scenario through the deterministic engine path.
pub fn run(scenario: &Scenario, cfg: &EngineDriverConfig) -> PathOutcome {
    let config = engine_config(scenario);
    let chaos = decider(&scenario.chaos, scenario.chaos.delay_secs);
    let mut driver = Driver {
        scenario,
        cfg,
        built: scenario.build_workflows(),
        engine: config.build(),
        config,
        chaos,
        heap: BinaryHeap::new(),
        seq: 0,
        workers: (0..scenario.workers)
            .map(|_| SimWorker {
                slots_free: scenario.slots_per_worker,
                alive: true,
                draining: false,
                epoch: 0,
            })
            .collect(),
        queue: VecDeque::new(),
        events: Vec::new(),
        dispatch_counter: 0,
        actions: Vec::new(),
        input_log: Vec::new(),
        master_down: false,
        outage_backlog: Vec::new(),
        restarts: 0,
        recovery_ok: true,
    };
    for i in 0..scenario.workflows.len() {
        let at = scenario.submission_interval_secs * i as f64;
        driver.push(at, Ev::Submit(i));
    }
    for f in &scenario.faults.events {
        driver.push(f.at_secs, Ev::Fault(f.event));
    }

    let mut now = 0.0f64;
    let mut steps = 0usize;
    let mut note = None;
    // Settled is only terminal once every scheduled submission has fired:
    // an early workflow can settle while later ones still sit in the heap.
    let all_submitted =
        |d: &Driver| d.engine.stats().workflows_submitted == d.scenario.workflows.len();
    while !(driver.engine.all_settled() && all_submitted(&driver) && !driver.master_down) {
        steps += 1;
        if steps > STEP_CAP {
            note = Some(format!("step cap {STEP_CAP} exceeded at t={now:.3}"));
            break;
        }
        let next_event = driver.heap.peek().map(|Reverse(s)| s.at);
        // A dead master scans nothing: its deadlines resume only after
        // the replacement replays the log.
        let next_deadline = if driver.master_down { None } else { driver.engine.next_deadline() };
        match (next_event, next_deadline) {
            (None, None) => {
                note = Some(format!(
                    "stall at t={now:.3}: no pending events or deadlines, \
                     {} dispatches routed, {} queued",
                    driver.dispatch_counter,
                    driver.queue.len()
                ));
                break;
            }
            (event_at, Some(d)) if event_at.is_none_or(|e| d <= e) => {
                now = now.max(d);
                driver.ingest_scan(now);
            }
            _ => {
                let Reverse(sched) = driver.heap.pop().expect("peeked event");
                now = now.max(sched.at);
                driver.handle(sched.ev, now);
            }
        }
    }

    let settled = driver.engine.all_settled();
    let mut completed = std::collections::BTreeSet::new();
    for (w, wf) in scenario.workflows.iter().enumerate() {
        for j in 0..wf.jobs.len() {
            let id = dewe_dag::EnsembleJobId::new(
                dewe_dag::WorkflowId(w as u32),
                dewe_dag::JobId(j as u32),
            );
            if driver.engine.job_state(id) == Some(dewe_dag::JobState::Completed) {
                completed.insert((w as u32, j as u32));
            }
        }
    }
    PathOutcome {
        kind: PathKind::Engine,
        completed,
        events: driver.events,
        stats: Some(driver.engine.stats()),
        makespan_secs: Some(now),
        settled,
        master_stats: None,
        liveness_recovery: (driver.restarts > 0).then_some(driver.recovery_ok),
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
        assert!(out.settled);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn engine_path_is_deterministic() {
        let s = Scenario::generate(7); // class 1: chaos
        let a = run(&s, &EngineDriverConfig::default());
        let b = run(&s, &EngineDriverConfig::default());
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.makespan_secs, b.makespan_secs);
    }

    #[test]
    fn dropped_dispatch_mutation_stalls() {
        let s = Scenario::generate(0);
        let out = run(&s, &EngineDriverConfig { drop_nth_dispatch: Some(0), ..Default::default() });
        assert!(!out.settled, "losing a dispatch must strand the ensemble");
        let v = invariant::check(&s, &out);
        assert!(v.iter().any(|m| m.contains("did not settle")), "{v:?}");
    }
}
