//! Driver for the threaded realtime master/worker stack.
//!
//! Runs the scenario on real daemon threads over loopback TCP, the fabric
//! a deployment runs: one master on a `TcpMaster`, `workers` worker
//! daemons each on its own `TcpWorkerLink`, the workflows sent by
//! `submit_over_tcp`, and — when the scenario carries chaos — each link
//! wrapped in the seeded decorator of `paths/chaos.rs`, which decides
//! every dispatch and ack by its identity. Job execution is tapped by a
//! `TapRunner` that records start/finish events into one mutex-ordered
//! log; the lock order gives the log a total order consistent with
//! cross-thread happens-before (a parent's finish is recorded inside
//! `run()` before its Completed ack is published, and a child's start is
//! recorded only after the master processed that ack and a worker pulled
//! the child's dispatch), so the shared dependency-order invariant reads
//! directly off log positions.
//!
//! Virtual-time quantities are scaled to wall-clock milliseconds: jobs
//! execute instantly (runtimes are the simulators' concern; this path
//! checks protocol correctness), chaos delays hold messages ~20 ms, and a
//! watchdog turns a hung run into a reported stall instead of a hung
//! test.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dewe_core::fault::FaultEvent;
use dewe_core::realtime::{
    spawn_master_on, spawn_worker_on, submit_over_tcp, DynWorkerTransport, JobOutcome, JobRunner,
    MasterConfig, MasterEvent, MasterHandle, Registry, RunContext, TcpMaster, TcpMasterOptions,
    TcpWorkerLink, TcpWorkerOptions, WorkerConfig, WorkerHandle,
};
use dewe_core::{EngineConfig, EngineStats};
use dewe_dag::{write_workflow, JobId, Workflow};

use super::chaos::ChaosState;
use crate::invariant::{Event, PathKind, PathOutcome};
use crate::scenario::{Scenario, FAULT_HORIZON_SECS};

/// Wall-clock hold applied to chaos-delayed messages.
const DELAY_SECS_WALL: f64 = 0.02;

/// Give a stuck run this long before declaring a stall.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Scenario seconds → wall seconds for fault *times* (a 5 s fault axis
/// compresses to 250 ms of wall clock).
const FAULT_WALL_SCALE: f64 = 0.05;

/// Heartbeat-stall windows scale less aggressively so a decent fraction
/// of stalls outlast the lease and exercise the expiry → zombie-fence →
/// revival path rather than just renewing late.
const STALL_WALL_SCALE: f64 = 0.1;

/// Scenario cpu-seconds → wall sleep per job in fault runs, so faults
/// land mid-execution instead of after the last ack.
const JOB_SLEEP_SCALE: f64 = 0.08;

/// Worker lease in fault runs; heartbeats tick every 15 ms, so a live
/// worker has ~8 chances to renew before expiry.
const FAULT_LEASE_SECS: f64 = 0.12;
const FAULT_HEARTBEAT: Duration = Duration::from_millis(15);

/// Records execution events and plays the scenario's failure script.
struct TapRunner {
    failures: HashMap<(u32, u32), u32>,
    /// Wall seconds slept per modeled cpu-second (0 outside fault runs:
    /// protocol checks want instant jobs).
    sleep_scale: f64,
    log: Arc<Mutex<Vec<Event>>>,
}

impl JobRunner for TapRunner {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        let id = (ctx.workflow_id.0, job.0);
        self.log.lock().expect("tap log").push(Event::Started { job: id });
        if let Some(&failing) = self.failures.get(&id) {
            if ctx.attempt <= failing {
                return JobOutcome::Failed(format!("scripted failure, attempt {}", ctx.attempt));
            }
        }
        if self.sleep_scale > 0.0 {
            let secs = workflow.job(job).cpu_seconds * self.sleep_scale;
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
        self.log.lock().expect("tap log").push(Event::Finished { job: id });
        JobOutcome::Success
    }
}

/// The master's configuration for this scenario. Jobs run instantly in
/// the classic classes, so a deadline fires there only when a message
/// was really lost: lossy scenarios get tight deadlines so recovery
/// converges inside the watchdog, loss-free ones deadlines no healthy
/// run can hit. Fault scenarios slow jobs to wall-clock and switch the
/// lease plane on; without loss they run `dewe-masterd`'s configuration —
/// no checkout deadline, which only a dispatch lost on a connection that
/// stays up needs: a killed worker's connection gives back what it held,
/// leases cover a stall, and the job timeout is a distant backstop.
fn master_config(scenario: &Scenario, journal: Option<&Path>) -> MasterConfig {
    let faulty = !scenario.faults.is_empty();
    let (timeout, checkout) = match (faulty, scenario.chaos.is_lossy()) {
        (false, false) => (30.0, None),
        (false, true) => (0.3, Some(0.25)),
        (true, false) => (5.0, None),
        (true, true) => (1.0, Some(0.25)),
    };
    MasterConfig {
        engine: EngineConfig {
            default_timeout_secs: timeout,
            checkout_timeout_secs: checkout,
            max_attempts: scenario.max_attempts,
        },
        expected_workflows: Some(scenario.workflows.len()),
        journal_path: journal.map(Path::to_path_buf),
        lease_secs: faulty.then_some(FAULT_LEASE_SECS),
    }
}

/// Wall-clock fault action, compiled from a [`FaultEvent`].
enum RtFault {
    KillWorker(usize),
    AnnounceDrain(usize),
    PauseHeartbeats(usize),
    ResumeHeartbeats(usize),
    KillMaster,
    RestartMaster,
}

/// Compile the scenario's fault plan into a sorted wall-clock schedule.
fn compile_faults(scenario: &Scenario) -> Vec<(f64, RtFault)> {
    let mut schedule = Vec::new();
    for f in &scenario.faults.events {
        let t = f.at_secs * FAULT_WALL_SCALE;
        match f.event {
            FaultEvent::WorkerCrash { worker } => {
                schedule.push((t, RtFault::KillWorker(worker as usize)));
            }
            FaultEvent::SpotRevocation { worker, notice_secs } => {
                schedule.push((t, RtFault::AnnounceDrain(worker as usize)));
                schedule.push((
                    t + notice_secs * FAULT_WALL_SCALE,
                    RtFault::KillWorker(worker as usize),
                ));
            }
            FaultEvent::WorkerStall { worker, stall_secs } => {
                schedule.push((t, RtFault::PauseHeartbeats(worker as usize)));
                schedule.push((
                    t + stall_secs * STALL_WALL_SCALE,
                    RtFault::ResumeHeartbeats(worker as usize),
                ));
            }
            FaultEvent::MasterKill { restart_delay_secs } => {
                schedule.push((t, RtFault::KillMaster));
                schedule.push((t + restart_delay_secs * FAULT_WALL_SCALE, RtFault::RestartMaster));
            }
        }
    }
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    schedule
}

/// Unique state directories across concurrent runs in one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One master incarnation: its endpoint, its registry, its serve loop.
struct Master {
    tcp: TcpMaster,
    registry: Registry,
    handle: MasterHandle,
}

/// Execute the scenario through the threaded realtime stack. One driver
/// for every class: a classic scenario is a fault scenario with an empty
/// schedule, no leases and no sleeps. With faults, leases and heartbeats
/// are on, jobs are slowed to wall-clock so the compiled schedule lands
/// mid-run, workers are killed / drained / stalled and the master is
/// killed and restarted from its spool and journal on cue.
pub fn run(scenario: &Scenario) -> PathOutcome {
    debug_assert_eq!(FAULT_HORIZON_SECS, 5.0, "wall scales are tuned to this axis");
    let faulty = !scenario.faults.is_empty();
    let chaos = ChaosState::new(&scenario.chaos, DELAY_SECS_WALL);
    let log = Arc::new(Mutex::new(Vec::new()));
    let runner: Arc<dyn JobRunner> = Arc::new(TapRunner {
        failures: scenario
            .failures
            .iter()
            .map(|f| ((f.workflow, f.job), f.failing_attempts))
            .collect(),
        sleep_scale: if faulty { JOB_SLEEP_SCALE } else { 0.0 },
        log: Arc::clone(&log),
    });

    // The journal and the workflow spool are only needed when the plan
    // kills the master; each run gets its own directory so concurrent
    // tests never collide.
    let state: Option<PathBuf> = scenario.faults.has_master_kill().then(|| {
        std::env::temp_dir().join(format!(
            "dewe-testkit-rt-fault-{}-{}-{}",
            std::process::id(),
            scenario.seed,
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    });
    // A master as `dewe-masterd` runs one: its registry is what the spool
    // holds (nothing on a cold start), and a restart takes over the
    // journal beside it.
    let serve = |addr: SocketAddr| -> std::io::Result<Master> {
        let state_dir = state.as_ref().map(|dir| dir.join("spool"));
        let tcp = TcpMaster::bind(addr, TcpMasterOptions { state_dir })?;
        let registry = Registry::new();
        for (id, _, workflow) in tcp.load_spool()? {
            registry.insert(id, workflow);
        }
        let journal = state.as_ref().map(|dir| dir.join("master.wal"));
        let config = master_config(scenario, journal.as_deref());
        let handle = spawn_master_on(tcp.clone(), registry.clone(), config);
        Ok(Master { tcp, registry, handle })
    };
    let first = serve(SocketAddr::from(([127, 0, 0, 1], 0))).expect("bind loopback");
    let addr = first.tcp.local_addr();
    let mut master = Some(first);
    let mut workers: Vec<Option<(TcpWorkerLink, WorkerHandle)>> = (0..scenario.workers)
        .map(|w| {
            let mirror = Registry::new();
            // `dewe-workerd`'s window: every slot busy, one dispatch behind it.
            let window = 2 * scenario.slots_per_worker as u32;
            let opts = TcpWorkerOptions { worker_id: w as u32, window, ..Default::default() };
            let link = TcpWorkerLink::connect(addr, mirror.clone(), opts).expect("a worker link");
            let transport: DynWorkerTransport = Arc::new(link.clone());
            let handle = spawn_worker_on(
                match &chaos {
                    Some(chaos) => chaos.wrap(transport),
                    None => transport,
                },
                mirror,
                Arc::clone(&runner),
                WorkerConfig {
                    worker_id: w as u32,
                    slots: scenario.slots_per_worker,
                    heartbeat_interval: faulty.then_some(FAULT_HEARTBEAT),
                    ..WorkerConfig::default()
                },
            );
            Some((link, handle))
        })
        .collect();

    // One connection, so the workflows are numbered in scenario order.
    let workflows = scenario.build_workflows();
    let texts = workflows.iter().enumerate().map(|(i, wf)| (format!("wf{i}"), write_workflow(wf)));
    let mut note = submit_over_tcp(addr, texts).err().map(|e| format!("submitting: {e}"));

    // The fault clock starts once the master holds the whole ensemble, as
    // a client that must not lose a submission to a crash waits for it to
    // be taken. Then play the schedule and wait for the master's terminal
    // event; a silent 30 s means the stack hung and the stall itself is
    // the finding.
    let deadline = Instant::now() + WATCHDOG;
    let ingesting = |m: &Master| m.registry.len() < workflows.len();
    while note.is_none() && master.as_ref().is_some_and(ingesting) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let schedule = compile_faults(scenario);
    let start = Instant::now();
    let mut next_fault = 0;
    let mut master_killed = false;
    let mut pre_kill_rows: BTreeSet<u32> = BTreeSet::new();
    let mut stats: Option<EngineStats> = None;

    while note.is_none() && Instant::now() < deadline {
        if next_fault < schedule.len() && start.elapsed().as_secs_f64() >= schedule[next_fault].0 {
            match schedule[next_fault].1 {
                RtFault::KillWorker(w) => {
                    if let Some((link, h)) = workers[w].take() {
                        h.kill();
                        link.close();
                    }
                }
                RtFault::AnnounceDrain(w) => {
                    workers[w].iter().for_each(|(_, h)| h.announce_drain())
                }
                RtFault::PauseHeartbeats(w) => {
                    workers[w].iter().for_each(|(_, h)| h.pause_heartbeats())
                }
                RtFault::ResumeHeartbeats(w) => {
                    workers[w].iter().for_each(|(_, h)| h.resume_heartbeats())
                }
                RtFault::KillMaster => {
                    if let Some(m) = master.take() {
                        pre_kill_rows =
                            m.handle.liveness_snapshot().iter().map(|r| r.worker).collect();
                        // A crash: every connection drops with no Bye.
                        m.handle.kill();
                        m.tcp.kill();
                        master_killed = true;
                    }
                }
                RtFault::RestartMaster if master.is_none() => match serve(addr) {
                    Ok(m) => master = Some(m),
                    Err(e) => note = Some(format!("restarting the master on {addr}: {e}")),
                },
                RtFault::RestartMaster => {}
            }
            next_fault += 1;
            continue;
        }
        let Some(m) = master.as_ref() else {
            // Master-less window: workers keep executing, acks wait in
            // their links, which keep reconnecting; wait for the restart.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        match m.handle.events.recv_timeout(Duration::from_millis(2)) {
            Ok(MasterEvent::AllCompleted { stats: s })
            | Ok(MasterEvent::AllSettled { stats: s }) => {
                stats = Some(s);
                break;
            }
            Ok(_) => {}
            // Timeout: re-check faults and the watchdog. Disconnected
            // (master died without a verdict): pace the spin; the
            // watchdog turns it into a reported stall.
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    // Read fault-plane state before teardown consumes the handle. Workers
    // go first, while their master still answers; then killing the
    // endpoint ends a stalled serve loop so the join below cannot hang.
    // Messages chaos still holds go down with the state that holds them.
    let settled = stats.is_some();
    let (master_stats, final_rows) = match master.as_ref() {
        Some(m) => (Some(m.handle.master_stats()), m.handle.liveness_snapshot()),
        None => (None, Vec::new()),
    };
    for (link, h) in workers.iter_mut().filter_map(Option::take) {
        h.stop();
        link.close();
    }
    let final_stats = master.map(|m| {
        m.tcp.kill();
        m.handle.join()
    });
    let note = note.or_else(|| {
        (!settled).then(|| format!("watchdog expired after {WATCHDOG:?}; stats {final_stats:?}"))
    });
    if let Some(dir) = &state {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Recovery equivalence, realtime flavour: every worker the killed
    // master knew about must reappear in the replacement's final table —
    // the journaled lifecycle records survived the crash.
    let liveness_recovery = master_killed.then(|| {
        let final_ids: BTreeSet<u32> = final_rows.iter().map(|r| r.worker).collect();
        pre_kill_rows.is_subset(&final_ids)
    });

    let events = log.lock().expect("tap log").clone();
    let completed: BTreeSet<(u32, u32)> = events
        .iter()
        .filter_map(|ev| match *ev {
            Event::Finished { job } => Some(job),
            Event::Started { .. } => None,
        })
        .collect();
    PathOutcome {
        kind: PathKind::Realtime,
        completed,
        events,
        stats: stats.or(final_stats),
        makespan_secs: None,
        settled,
        master_stats,
        liveness_recovery,
        note,
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
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
    }

    /// Credit follows the dispatch. One worker of one slot offers a window
    /// of two; under heavy loss every dispatch the decorator drops, and
    /// every terminal ack it loses, leaves a pair its connection holds
    /// until the job's next attempt is published — and the run settles.
    #[test]
    fn a_lossy_run_on_one_single_slot_worker_settles() {
        let mut s = Scenario::generate(22);
        s.workers = 1;
        s.slots_per_worker = 1;
        s.chaos = crate::scenario::ChaosSpec {
            seed: 0x1055,
            drop_prob: 0.15,
            dup_prob: 0.15,
            delay_prob: 0.3,
            delay_secs: 0.5,
        };
        let out = run(&s);
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
        let resubmissions = out.stats.map_or(0, |stats| stats.resubmissions);
        assert!(resubmissions >= 2, "two losses fill a window of two: {resubmissions}");
    }

    #[test]
    fn failure_scenario_dead_letters_as_expected() {
        let s = Scenario::generate(2); // class 2: scripted failures
        let out = run(&s);
        assert!(out.settled, "{:?}", out.note);
        let v = invariant::check(&s, &out);
        assert!(v.is_empty(), "{v:?}");
        let expected = s.expected_outcome();
        assert_eq!(out.completed, expected.completed);
    }
}
