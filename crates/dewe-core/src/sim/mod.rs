//! Discrete-event runtime: DEWE v2 on a simulated EC2 cluster.
//!
//! Drives the same [`EnsembleEngine`] as the realtime runtime, but workers
//! are slots on simulated nodes and jobs execute through
//! [`dewe_simcloud::ExecSim`]'s read → compute → write pipeline. This is
//! how the repository reproduces the paper's up-to-1,280-vCPU experiments
//! on one machine.
//!
//! The worker model mirrors §III.D exactly: each node exposes `vcpus`
//! slots; an idle slot pulls the dispatch queue first-come-first-served
//! (idle slots are served in the order they became idle); a node stops
//! pulling when all its slots are busy. Fault injection kills a node's
//! slots mid-run (in-flight jobs vanish without acknowledgment) and
//! restarts them later — the paper's §V.A.3 robustness experiment.

use std::collections::VecDeque;
use std::sync::Arc;

use dewe_dag::{EnsembleJobId, Workflow};
use dewe_metrics::{ClusterSampler, SAMPLE_INTERVAL_SECS};
use dewe_mq::chaos::{self, ChaosConfig, ChaosDecider};
use dewe_simcloud::{ClusterConfig, ExecSim, JobProfile, JobTimings, NodeId, SimEvent, TokenMap};

use crate::engine::{Action, EngineConfig, EngineStats, EnsembleEngine};
use crate::protocol::{AckKind, AckMsg, DispatchMsg};

/// How the ensemble's workflows are submitted (paper §V.A.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmissionPlan {
    /// Workflow *i* submitted at `i * interval_secs` (incremental
    /// submission; `Interval(0.0)` submits all of them at time zero, in
    /// one batch).
    Interval(f64),
}

/// A scripted per-job failure: attempts `1..=failing_attempts` of the
/// job report `Failed` instead of `Completed`, attempt
/// `failing_attempts + 1` succeeds. This is how the differential
/// oracle's scripted-failure class reaches the simulated worker pool —
/// the sim equivalent of the realtime `TapRunner`'s failure taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFailure {
    /// Workflow index in ensemble submission order.
    pub workflow: u32,
    /// Job index within the workflow.
    pub job: u32,
    /// How many leading attempts fail.
    pub failing_attempts: u32,
}

/// A worker-daemon fault to inject (paper §V.A.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Node whose worker daemon dies.
    pub node: NodeId,
    /// When it dies (seconds).
    pub kill_at_secs: f64,
    /// When (if ever) a worker daemon starts again on that node.
    pub restart_at_secs: Option<f64>,
}

/// Configuration for a simulated ensemble run.
#[derive(Debug, Clone)]
pub struct SimRunConfig {
    /// The cluster to run on.
    pub cluster: ClusterConfig,
    /// The master's job timeout, checkout deadline and retry policy
    /// (default: the paper's 600 s timeout and unbounded immediate
    /// retries). One rule is the sim's own: when `chaos` can drop messages
    /// and no checkout deadline is set, the deadline is the job timeout, so
    /// a dropped dispatch recovers instead of hanging the run.
    pub engine: EngineConfig,
    /// Master's timeout scan cadence.
    pub timeout_scan_secs: f64,
    /// Submission plan.
    pub submission: SubmissionPlan,
    /// Fixed per-job execution overhead in CPU-seconds: dispatch round
    /// trip, fork/exec and library loading on the worker. The pulling
    /// model's overhead is small but not zero.
    pub per_job_overhead_secs: f64,
    /// Worker slots per node (`None` = the node's vCPU count, the paper's
    /// setting).
    pub slots_per_node: Option<u32>,
    /// Collect 3-second metrics samples.
    pub sample: bool,
    /// Worker faults to inject.
    pub faults: Vec<NodeFault>,
    /// Scripted per-job failures (see [`ScriptedFailure`]). Failed
    /// acknowledgments are authoritative and bypass the chaos layer —
    /// the engine deliberately does not deduplicate them, so dropping
    /// or duplicating one would desynchronize the retry budget.
    pub failure_script: Vec<ScriptedFailure>,
    /// Per-node CPU speed multipliers (heterogeneity ablation; `None` =
    /// the paper's homogeneous cluster).
    pub node_speed_factors: Option<Vec<f64>>,
    /// Record a per-job lifecycle [`dewe_metrics::Trace`] (memory-heavy at
    /// full ensemble scale; intended for single-workflow analyses).
    pub record_trace: bool,
    /// Message-level fault injection (drop/duplication) applied to the
    /// simulated dispatch and acknowledgment topics, keyed deterministically
    /// by `(workflow, job, attempt)`. Delay decisions are not drawn here:
    /// the sim's transport has no latency to perturb.
    pub chaos: Option<ChaosConfig>,
    /// Virtual-time cap: abort the run (reported as not completed) once
    /// the clock passes this point without every workflow settling.
    /// `None` (default) runs to settlement. The differential oracle sets
    /// this so an engine bug that strands a job surfaces as a bounded,
    /// reportable stall instead of an endless timeout-scan spin.
    pub horizon_secs: Option<f64>,
}

impl SimRunConfig {
    /// Defaults mirroring the paper's setup on the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            engine: EngineConfig::default(),
            timeout_scan_secs: 5.0,
            submission: SubmissionPlan::Interval(0.0),
            per_job_overhead_secs: 0.1,
            slots_per_node: None,
            sample: false,
            faults: Vec::new(),
            failure_script: Vec::new(),
            node_speed_factors: None,
            record_trace: false,
            chaos: None,
            horizon_secs: None,
        }
    }

    /// `engine` with the sim's one rule applied: with message drop in play
    /// a lost dispatch would otherwise hang the run (the checkout clock
    /// never starts), so an unset checkout deadline becomes the job timeout.
    fn run_engine(&self) -> EngineConfig {
        let mut engine = self.engine;
        if self.chaos.is_some_and(|c| c.drop_prob > 0.0) {
            engine.checkout_timeout_secs.get_or_insert(engine.default_timeout_secs);
        }
        engine
    }
}

/// Results of a simulated ensemble run.
pub struct SimReport {
    /// Wall-clock seconds from start to the last workflow completion.
    pub makespan_secs: f64,
    /// Per-workflow makespans (submission → completion), by workflow id.
    pub workflow_makespans: Vec<f64>,
    /// True when every workflow fully completed. False means partial
    /// completion: some jobs dead-lettered (see
    /// [`EngineStats::dead_lettered`]) or the simulation starved (an
    /// engine bug — distinguishable because starving leaves
    /// `engine.workflows_completed + engine.workflows_abandoned` short of
    /// the ensemble size).
    pub completed: bool,
    /// Total CPU busy core-seconds across the cluster.
    pub total_cpu_core_secs: f64,
    /// Total disk bytes read (cache misses).
    pub total_bytes_read: f64,
    /// Total logical bytes written.
    pub total_bytes_written: f64,
    /// Read-cache hit rate (by lookup count).
    pub cache_hit_rate: f64,
    /// Engine statistics (dispatches, resubmissions, ...).
    pub engine: EngineStats,
    /// 3-second samples, when requested.
    pub sampler: Option<ClusterSampler>,
    /// Per-job lifecycle trace, when requested.
    pub trace: Option<dewe_metrics::Trace>,
    /// Rental cost under hourly billing.
    pub cost_usd: f64,
    /// Deadline-wheel cascade count — timer-churn observability for
    /// dashboards.
    pub wheel_cascades: u64,
}

// Wake-token tags (high byte). Job tokens are dense ensemble-wide indices
// (see [`DriverState::token`]), so they stay strictly below every tagged
// token as long as the ensemble has fewer than 2^56 jobs — asserted when
// workflows register.
const TAG_SUBMIT: u64 = 1 << 56;
const TAG_SCAN: u64 = 2 << 56;
const TAG_SAMPLE: u64 = 3 << 56;
const TAG_KILL: u64 = 4 << 56;
const TAG_RESTART: u64 = 5 << 56;
const TAG_MASK: u64 = 0xff << 56;

fn file_key(workflow: dewe_dag::WorkflowId, file: dewe_dag::FileId) -> u64 {
    // Exact packing: u32 workflow in the high half, u32 file in the low
    // half — the `(namespace << 32) | index` that `dewe_simcloud::ReadCache`
    // asks for, file ids being dense per workflow. File keys live in the
    // storage layer's own namespace, never in the wake-token event space,
    // so no tag interaction is possible.
    ((workflow.0 as u64) << 32) | file.0 as u64
}

struct SlotPool {
    /// FIFO of idle slots: (node, epoch at enqueue time).
    idle: VecDeque<(NodeId, u32)>,
    /// Per-node epoch, bumped on kill so stale idle entries are discarded.
    epoch: Vec<u32>,
    active: Vec<bool>,
    slots_per_node: u32,
}

impl SlotPool {
    fn new(nodes: usize, slots_per_node: u32) -> Self {
        let mut idle = VecDeque::with_capacity(nodes * slots_per_node as usize);
        // Interleave nodes so initial assignment spreads round-robin, as
        // simultaneous pulls from idle workers would.
        for _ in 0..slots_per_node {
            for node in 0..nodes {
                idle.push_back((node, 0));
            }
        }
        Self { idle, epoch: vec![0; nodes], active: vec![true; nodes], slots_per_node }
    }

    fn pop_idle(&mut self) -> Option<NodeId> {
        while let Some((node, epoch)) = self.idle.pop_front() {
            if self.active[node] && self.epoch[node] == epoch {
                return Some(node);
            }
        }
        None
    }

    fn release(&mut self, node: NodeId) {
        if self.active[node] {
            self.idle.push_back((node, self.epoch[node]));
        }
    }

    fn kill(&mut self, node: NodeId) {
        self.active[node] = false;
        self.epoch[node] = self.epoch[node].wrapping_add(1);
    }

    /// Start a worker daemon again on a killed node: every slot becomes an
    /// idle puller, since the kill destroyed the node's jobs. A node that
    /// is already pulling is left as it is, so overlapping outages never
    /// hand a node's slots out twice.
    fn restart(&mut self, node: NodeId) {
        if !self.active[node] {
            self.active[node] = true;
            for _ in 0..self.slots_per_node {
                self.idle.push_back((node, self.epoch[node]));
            }
        }
    }
}

/// Per-run driver bookkeeping. What it holds per job follows the jobs that
/// are executing — one `running` entry per occupied slot, reserved up
/// front so the event loop's ack/dispatch path allocates nothing in steady
/// state — and the action/profile buffers are reused across events. Only
/// a traced run keeps anything for every job of the ensemble: its
/// timestamps, in dense slabs indexed by job token.
struct DriverState {
    queue: VecDeque<DispatchMsg>,
    /// The dispatch executing under each job token, for the jobs that are
    /// executing; see [`Self::take_running`].
    running: TokenMap<DispatchMsg>,
    /// First ensemble-wide job index of each submitted workflow
    /// (prefix sums of job counts, in engine submission order).
    job_base: Vec<usize>,
    next_base: usize,
    pool: SlotPool,
    /// Dispatch time of the attempt checked out last, per job index, when
    /// tracing.
    trace_times: Vec<f64>,
    /// Dispatch time per job index, NaN = none recorded; when tracing.
    dispatch_times: Vec<f64>,
    tracing: bool,
    overhead_secs: f64,
    /// Scratch job profile; its read/write vectors are reused per dispatch.
    profile: JobProfile,
    /// Scratch buffer the engine's sink-based methods append to.
    actions: Vec<Action>,
    workflow_makespans: Vec<f64>,
    completed_count: usize,
    /// Workflows settled with dead-lettered jobs (makespan stays 0.0).
    abandoned_count: usize,
    all_done_at: Option<f64>,
    /// Message-level fault injector, when configured.
    chaos: Option<ChaosDecider>,
    /// Scripted per-job failures, when configured.
    failure_script: Vec<ScriptedFailure>,
}

impl DriverState {
    fn new(workflows: &[Arc<Workflow>], pool: SlotPool, config: &SimRunConfig) -> Self {
        let tracing = config.record_trace;
        let total_jobs: usize =
            if tracing { workflows.iter().map(|w| w.job_count()).sum() } else { 0 };
        Self {
            queue: VecDeque::new(),
            running: TokenMap::with_capacity_and_hasher(pool.idle.len(), Default::default()),
            job_base: Vec::with_capacity(workflows.len()),
            next_base: 0,
            pool,
            trace_times: vec![0.0; total_jobs],
            dispatch_times: vec![f64::NAN; total_jobs],
            tracing,
            overhead_secs: config.per_job_overhead_secs,
            profile: JobProfile {
                reads: Vec::new(),
                cpu_seconds: 0.0,
                cores: 1,
                writes: Vec::new(),
            },
            actions: Vec::new(),
            workflow_makespans: vec![0.0f64; workflows.len()],
            completed_count: 0,
            abandoned_count: 0,
            all_done_at: None,
            chaos: config.chaos.map(ChaosDecider::new),
            failure_script: config.failure_script.clone(),
        }
    }

    /// Scripted failing-attempt count for a job (0 = never fails).
    fn failing_attempts(&self, job: EnsembleJobId) -> u32 {
        self.failure_script
            .iter()
            .find(|f| f.workflow == job.workflow.0 && f.job == job.job.0)
            .map_or(0, |f| f.failing_attempts)
    }

    /// Dense ensemble-wide index of a job: provably below the wake-token
    /// tag space (unlike bit-packing workflow/job ids, which silently
    /// collided with the tags once `job.0` reached 2^24 or `workflow.0`
    /// reached 2^32).
    #[inline]
    fn token(&self, job: EnsembleJobId) -> u64 {
        (self.job_base[job.workflow.index()] + job.job.index()) as u64
    }

    /// The finish of the job running under `token`, as the dispatch it
    /// answers; `None` when nothing is (a chaos-duplicated dispatch ran the
    /// job twice under one token and the first finish consumed the entry —
    /// tokens are never reused, so that holds even once the job's workflow
    /// has settled). Under such a duplicate the entry is the latest dispatch.
    fn take_running(&mut self, token: u64) -> Option<DispatchMsg> {
        self.running.remove(&token)
    }

    /// Record a workflow's token range at submission time.
    fn register_workflow(&mut self, wf: dewe_dag::WorkflowId, job_count: usize) {
        debug_assert_eq!(wf.index(), self.job_base.len(), "engine ids are sequential");
        self.job_base.push(self.next_base);
        self.next_base += job_count;
        debug_assert!(
            (self.next_base as u64) < TAG_SUBMIT,
            "job tokens must stay below the wake-token tag space"
        );
    }

    /// How many copies of a message survive the chaos layer: 0 (dropped),
    /// 1, or 2 (duplicated). Keyed by (workflow, job, attempt, kind) so a
    /// resubmitted attempt rolls fresh dice and the decision is identical
    /// across runs regardless of event interleaving.
    fn chaos_copies(&self, stream: u64, job: EnsembleJobId, attempt: u32, kind: u64) -> usize {
        let Some(ch) = &self.chaos else { return 1 };
        let key = chaos::message_key(
            job.workflow.index() as u64,
            job.job.index() as u64,
            (u64::from(attempt) << 2) | kind,
        );
        if ch.drops(stream, key) {
            0
        } else if ch.duplicates(stream, key) {
            2
        } else {
            1
        }
    }

    /// Record that a workflow reached a terminal state (completed or
    /// abandoned); the run ends when the expected total has settled.
    fn workflow_settled(&mut self, now: f64) {
        if self.completed_count + self.abandoned_count == self.workflow_makespans.len() {
            self.all_done_at = Some(now);
        }
    }

    /// Turn engine actions into queue entries / bookkeeping, draining the
    /// scratch action buffer. The run ends when the whole ensemble has
    /// settled, and under incremental submission the engine has not seen
    /// it all yet, so terminal transitions are counted here.
    fn handle_actions(&mut self, now: f64) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Dispatch(d) => {
                    if self.tracing {
                        let t = self.token(d.job) as usize;
                        self.dispatch_times[t] = now;
                    }
                    for _ in 0..self.chaos_copies(chaos::streams::DISPATCH, d.job, d.attempt, 2) {
                        self.queue.push_back(d);
                    }
                }
                Action::WorkflowCompleted { workflow, makespan_secs } => {
                    self.workflow_makespans[workflow.index()] = makespan_secs;
                    self.completed_count += 1;
                    self.workflow_settled(now);
                }
                Action::WorkflowAbandoned { .. } => {
                    self.abandoned_count += 1;
                    self.workflow_settled(now);
                }
                Action::JobDeadLettered { .. } => {}
            }
        }
        self.actions = actions;
    }

    /// Assign queued jobs to idle slots (the pull loop).
    fn try_assign(&mut self, exec: &mut ExecSim, engine: &mut EnsembleEngine) {
        while !self.queue.is_empty() {
            let Some(node) = self.pool.pop_idle() else { break };
            let d = self.queue.pop_front().expect("queue non-empty");
            let now = exec.now().as_secs_f64();
            // Worker checks the job out: Running acknowledgment. Under
            // chaos this ack may be lost (the job still runs — losing the
            // message doesn't kill the work) or delivered twice
            // (idempotent on the engine side).
            for _ in 0..self.chaos_copies(chaos::streams::ACK, d.job, d.attempt, 0) {
                engine.on_ack(
                    AckMsg {
                        job: d.job,
                        worker: node as u32,
                        kind: AckKind::Running,
                        attempt: d.attempt,
                    },
                    now,
                    &mut self.actions,
                );
            }
            debug_assert!(self.actions.is_empty(), "a Running ack emits no actions");
            let workflow = engine.workflow(d.job.workflow);
            let spec = workflow.job(d.job.job);
            self.profile.reads.clear();
            self.profile.reads.extend(
                spec.inputs
                    .iter()
                    .map(|&f| (file_key(d.job.workflow, f), workflow.file(f).size_bytes as f64)),
            );
            self.profile.cpu_seconds = spec.cpu_seconds + self.overhead_secs;
            self.profile.cores = spec.cores;
            self.profile.writes.clear();
            self.profile.writes.extend(
                spec.outputs
                    .iter()
                    .map(|&f| (file_key(d.job.workflow, f), workflow.file(f).size_bytes as f64)),
            );
            let token = self.token(d.job);
            if self.tracing {
                let recorded = self.dispatch_times[token as usize];
                let dispatched = if recorded.is_nan() { now } else { recorded };
                self.dispatch_times[token as usize] = f64::NAN;
                self.trace_times[token as usize] = dispatched;
            }
            self.running.insert(token, d);
            exec.submit_job(token, node, &self.profile);
        }
    }
}

/// One run: the engine, the simulated cluster and the driver's
/// bookkeeping. [`Driver::run`] is the event loop — the only one; the steps
/// each kind of event takes are written once, there.
struct Driver<'a> {
    workflows: &'a [Arc<Workflow>],
    config: &'a SimRunConfig,
    engine: EnsembleEngine,
    exec: ExecSim,
    state: DriverState,
    sampler: Option<ClusterSampler>,
    trace: Option<dewe_metrics::Trace>,
}

impl<'a> Driver<'a> {
    /// Every node of `config.cluster` pulling, and the run's wakes scheduled:
    /// submissions, the master's timeout scan, sampling, faults.
    fn new(workflows: &'a [Arc<Workflow>], config: &'a SimRunConfig) -> Self {
        assert!(!workflows.is_empty(), "ensemble must contain at least one workflow");
        let mut exec = ExecSim::new(config.cluster);
        let nodes = config.cluster.nodes;
        if let Some(speeds) = &config.node_speed_factors {
            assert_eq!(speeds.len(), nodes, "one speed factor per node");
            for (n, &f) in speeds.iter().enumerate() {
                exec.cluster_mut().set_speed_factor(n, f);
            }
        }
        let slots_per_node = config.slots_per_node.unwrap_or(config.cluster.instance.vcpus);
        let pool = SlotPool::new(nodes, slots_per_node);
        let sampler =
            config.sample.then(|| ClusterSampler::new(nodes, config.cluster.instance.vcpus));

        let SubmissionPlan::Interval(interval_secs) = config.submission;
        for i in 0..workflows.len() {
            exec.schedule_wake(interval_secs * i as f64, TAG_SUBMIT | i as u64);
        }
        exec.schedule_wake(config.timeout_scan_secs, TAG_SCAN);
        if sampler.is_some() {
            exec.schedule_wake(SAMPLE_INTERVAL_SECS, TAG_SAMPLE);
        }
        for (i, fault) in config.faults.iter().enumerate() {
            assert!(fault.node < nodes, "fault on unknown node");
            exec.schedule_wake(fault.kill_at_secs, TAG_KILL | i as u64);
            if let Some(at) = fault.restart_at_secs {
                exec.schedule_wake(at, TAG_RESTART | i as u64);
            }
        }
        Self {
            workflows,
            config,
            engine: config.run_engine().build(),
            exec,
            state: DriverState::new(workflows, pool, config),
            sampler,
            trace: config.record_trace.then(dewe_metrics::Trace::new),
        }
    }

    fn try_assign(&mut self) {
        self.state.try_assign(&mut self.exec, &mut self.engine);
    }

    /// Run to settlement (or the horizon).
    fn run(&mut self) {
        while let Some(event) = self.exec.next() {
            match event {
                SimEvent::JobFinished { token, node, timings } => {
                    self.state.pool.release(node);
                    // Nothing running under the token: this is a chaos
                    // duplicate's finish, which frees the slot and sends no
                    // ack. (Killed jobs never get here — kill_jobs_on
                    // suppresses their completions.)
                    if let Some(d) = self.state.take_running(token) {
                        self.job_finished(d, token, node, timings);
                    }
                    self.try_assign();
                }
                SimEvent::Wake { token } => self.wake(token),
            }
            // Exit when done. With sampling on, run a short tail so the
            // series show the ramp-down.
            let now = self.exec.now().as_secs_f64();
            match self.state.all_done_at {
                Some(_) if self.sampler.is_none() => break,
                Some(done) if now > done + 2.0 * SAMPLE_INTERVAL_SECS => break,
                None if self.config.horizon_secs.is_some_and(|h| now > h) => break,
                _ => {}
            }
        }
    }

    /// The worker's report of the attempt it ran under `d`, and what the
    /// engine makes of it.
    fn job_finished(&mut self, d: DispatchMsg, token: u64, node: NodeId, timings: JobTimings) {
        // Scripted failure: the worker ran the attempt but reports Failed
        // instead of Completed.
        let scripted_fail = d.attempt <= self.state.failing_attempts(d.job);
        if !scripted_fail {
            if let Some(tr) = self.trace.as_mut() {
                // The start time comes from this finish event's own
                // timings: under message chaos a duplicated or resubmitted
                // copy of the job can overwrite the per-token `trace_times`
                // slot while an earlier copy is still executing, so the
                // slot's time may belong to a later attempt. Clamp
                // `dispatched` for the same reason.
                let started = timings.submitted.as_secs_f64();
                let dispatched = self.state.trace_times[token as usize].min(started);
                let wf = self.engine.workflow(d.job.workflow);
                tr.record(dewe_metrics::JobTrace {
                    workflow: d.job.workflow.0,
                    job: d.job.job.0,
                    xform: wf.job(d.job.job).xform.to_string(),
                    attempt: d.attempt,
                    node,
                    dispatched,
                    started,
                    read_done: timings.read_done.as_secs_f64(),
                    compute_done: timings.compute_done.as_secs_f64(),
                    finished: timings.finished.as_secs_f64(),
                });
            }
        }
        let now = self.exec.now().as_secs_f64();
        let ack = |kind| AckMsg { job: d.job, worker: node as u32, kind, attempt: d.attempt };
        if scripted_fail {
            // A failure report is authoritative and exactly-once: it
            // bypasses the chaos layer because the engine does not
            // deduplicate Failed acks (a dropped or doubled one would
            // desynchronize the retry budget).
            self.engine.on_ack(ack(AckKind::Failed), now, &mut self.state.actions);
        } else {
            // Under chaos the completion ack may be lost (the master times
            // the job out and resubmits — the work reruns) or duplicated
            // (the second copy is dedup noise).
            for _ in 0..self.state.chaos_copies(chaos::streams::ACK, d.job, d.attempt, 1) {
                self.engine.on_ack(ack(AckKind::Completed), now, &mut self.state.actions);
            }
        }
        self.state.handle_actions(now);
    }

    fn wake(&mut self, token: u64) {
        let now = self.exec.now().as_secs_f64();
        let idx = (token & !TAG_MASK) as usize;
        match token & TAG_MASK {
            TAG_SUBMIT => {
                let workflow = Arc::clone(&self.workflows[idx]);
                let job_count = workflow.job_count();
                let id = self.engine.submit_workflow(workflow, now, &mut self.state.actions);
                self.state.register_workflow(id, job_count);
                self.state.handle_actions(now);
                self.try_assign();
            }
            TAG_SCAN => {
                self.engine.check_timeouts(now, &mut self.state.actions);
                self.state.handle_actions(now);
                self.try_assign();
                if self.state.all_done_at.is_none() {
                    self.exec.schedule_wake(self.config.timeout_scan_secs, TAG_SCAN);
                }
            }
            TAG_SAMPLE => {
                if let Some(s) = self.sampler.as_mut() {
                    let counters: Vec<_> = (0..self.config.cluster.nodes)
                        .map(|n| self.exec.node_counters(n))
                        .collect();
                    s.sample(now, &counters);
                }
                if self.state.all_done_at.is_none() {
                    self.exec.schedule_wake(SAMPLE_INTERVAL_SECS, TAG_SAMPLE);
                }
            }
            TAG_KILL => {
                let node = self.config.faults[idx].node;
                for t in self.exec.kill_jobs_on(node) {
                    self.state.running.remove(&t);
                }
                self.state.pool.kill(node);
            }
            TAG_RESTART => {
                self.state.pool.restart(self.config.faults[idx].node);
                self.try_assign();
            }
            _ => unreachable!("unknown wake tag"),
        }
    }
}

/// Run an ensemble of workflows on a simulated cluster with DEWE v2: one
/// master engine, one worker pool, one shared file system (paper §III).
pub fn run_ensemble(workflows: &[Arc<Workflow>], config: &SimRunConfig) -> SimReport {
    let mut driver = Driver::new(workflows, config);
    driver.run();

    let Driver { engine, mut exec, state, sampler, trace, .. } = driver;
    // When the last workflow settled; the clock, for a run cut short.
    let makespan = state.all_done_at.unwrap_or_else(|| exec.now().as_secs_f64());
    // Every workflow completed: none abandoned, none stranded.
    let completed = state.all_done_at.is_some() && state.abandoned_count == 0;
    let nodes = config.cluster.nodes;
    let mut total_cpu = 0.0;
    let mut total_rd = 0.0;
    let mut total_wr = 0.0;
    for n in 0..nodes {
        let c = exec.node_counters(n);
        total_cpu += c.cpu_busy_core_secs;
        total_rd += c.bytes_read;
        total_wr += c.bytes_written;
    }
    let cost = exec.cluster().cost_model().cost(nodes, makespan);
    SimReport {
        makespan_secs: makespan,
        completed,
        workflow_makespans: state.workflow_makespans,
        total_cpu_core_secs: total_cpu,
        total_bytes_read: total_rd,
        total_bytes_written: total_wr,
        cache_hit_rate: exec.storage().cache_hit_rate(),
        engine: engine.stats(),
        sampler,
        trace,
        cost_usd: cost,
        wheel_cascades: engine.timer_cascades(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetryPolicy;
    use dewe_dag::WorkflowBuilder;
    use dewe_simcloud::{SharedFsKind, StorageConfig, C3_8XLARGE};

    fn cluster(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            instance: C3_8XLARGE,
            nodes,
            storage: StorageConfig::Shared(SharedFsKind::DistFs),
        }
    }

    /// `width` parallel jobs of `secs` CPU-seconds each, no I/O.
    fn parallel_wf(width: usize, secs: f64) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("par");
        for i in 0..width {
            b.job(format!("j{i}"), "t", secs).build();
        }
        Arc::new(b.finish().unwrap())
    }

    fn chain_wf(len: usize, secs: f64) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..len {
            let j = b.job(format!("j{i}"), "t", secs).build();
            if let Some(p) = prev {
                b.edge(p, j);
            }
            prev = Some(j);
        }
        Arc::new(b.finish().unwrap())
    }

    fn no_overhead(cluster: ClusterConfig) -> SimRunConfig {
        SimRunConfig { per_job_overhead_secs: 0.0, ..SimRunConfig::new(cluster) }
    }

    #[test]
    fn single_chain_makespan_is_sum() {
        let report = run_ensemble(&[chain_wf(5, 2.0)], &no_overhead(cluster(1)));
        assert!(report.completed);
        assert!((report.makespan_secs - 10.0).abs() < 0.1, "{}", report.makespan_secs);
        assert_eq!(report.engine.jobs_completed, 5);
    }

    #[test]
    fn parallel_jobs_fill_all_slots() {
        // 64 x 1s jobs on 32 slots -> 2 waves -> ~2 s.
        let report = run_ensemble(&[parallel_wf(64, 1.0)], &no_overhead(cluster(1)));
        assert!((report.makespan_secs - 2.0).abs() < 0.1, "{}", report.makespan_secs);
        assert!((report.total_cpu_core_secs - 64.0).abs() < 0.5);
    }

    #[test]
    fn two_nodes_halve_parallel_makespan() {
        let one = run_ensemble(&[parallel_wf(128, 1.0)], &no_overhead(cluster(1)));
        let two = run_ensemble(&[parallel_wf(128, 1.0)], &no_overhead(cluster(2)));
        assert!((one.makespan_secs - 4.0).abs() < 0.2);
        assert!((two.makespan_secs - 2.0).abs() < 0.2);
    }

    #[test]
    fn ensemble_workflows_run_in_parallel() {
        // 4 chains of 3 x 1 s: chains from different workflows interleave
        // across slots; makespan ~3 s, not 12 s.
        let wfs: Vec<_> = (0..4).map(|_| chain_wf(3, 1.0)).collect();
        let report = run_ensemble(&wfs, &no_overhead(cluster(1)));
        assert!(report.completed);
        assert!(report.makespan_secs < 4.0, "{}", report.makespan_secs);
        assert_eq!(report.workflow_makespans.len(), 4);
        assert!(report.workflow_makespans.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn incremental_submission_staggers_starts() {
        let wfs: Vec<_> = (0..3).map(|_| parallel_wf(4, 1.0)).collect();
        let batch = run_ensemble(&wfs, &no_overhead(cluster(1)));
        let mut cfg = no_overhead(cluster(1));
        cfg.submission = SubmissionPlan::Interval(10.0);
        let staggered = run_ensemble(&wfs, &cfg);
        // Batch: everything at once (~1 s). Staggered: last submitted at 20 s.
        assert!(batch.makespan_secs < 2.0);
        assert!((staggered.makespan_secs - 21.0).abs() < 0.5, "{}", staggered.makespan_secs);
    }

    #[test]
    fn worker_kill_and_restart_recovers_via_timeout() {
        // One long job; the only node dies mid-job and restarts. A blocking
        // job must wait out the timeout (paper §V.A.3).
        let wf = chain_wf(1, 100.0);
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 150.0;
        cfg.faults = vec![NodeFault { node: 0, kill_at_secs: 50.0, restart_at_secs: Some(55.0) }];
        let report = run_ensemble(&[wf], &cfg);
        assert!(report.completed);
        assert_eq!(report.engine.resubmissions, 1);
        assert!(report.makespan_secs > 200.0, "{}", report.makespan_secs);
        assert!(report.makespan_secs < 300.0, "{}", report.makespan_secs);
    }

    #[test]
    fn nonblocking_kill_resumes_quickly() {
        // Plenty of independent jobs: after restart, the worker resumes
        // with OTHER jobs immediately; only the killed in-flight jobs wait
        // for the timeout tail.
        let wf = parallel_wf(320, 1.0); // 10 waves on 32 slots
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 30.0;
        cfg.timeout_scan_secs = 1.0;
        cfg.faults = vec![NodeFault { node: 0, kill_at_secs: 5.0, restart_at_secs: Some(7.0) }];
        let report = run_ensemble(&[wf], &cfg);
        assert!(report.completed);
        assert!(report.engine.resubmissions >= 32);
        assert!(report.makespan_secs < 50.0, "{}", report.makespan_secs);
    }

    #[test]
    fn a_restarted_node_never_runs_more_jobs_than_it_has_slots() {
        let fault = |kill_at_secs, restart_at_secs| NodeFault {
            node: 0,
            kill_at_secs,
            restart_at_secs: Some(restart_at_secs),
        };
        // One outage; then two overlapping ones, whose second restart finds
        // the node already pulling.
        for faults in [vec![fault(5.0, 8.0)], vec![fault(5.0, 8.0), fault(6.0, 7.0)]] {
            let mut cfg = no_overhead(cluster(1));
            cfg.slots_per_node = Some(4);
            cfg.engine.default_timeout_secs = 20.0;
            cfg.timeout_scan_secs = 1.0;
            cfg.record_trace = true;
            cfg.faults = faults.clone();
            let report = run_ensemble(&[parallel_wf(200, 0.7)], &cfg);
            assert!(report.completed, "{faults:?}");
            // Sweep the trace's run intervals, a finish before a start at
            // the same instant (the slot is handed straight on).
            let mut edges: Vec<(f64, i32)> = report
                .trace
                .expect("trace requested")
                .events()
                .iter()
                .flat_map(|e| [(e.started, 1), (e.finished, -1)])
                .collect();
            edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut running = 0;
            for (at, step) in edges {
                running += step;
                assert!(running <= 4, "{running} jobs on node 0 at {at} s under {faults:?}");
            }
        }
    }

    #[test]
    fn sampler_collects_series() {
        let mut cfg = no_overhead(cluster(1));
        cfg.sample = true;
        let report = run_ensemble(&[parallel_wf(64, 5.0)], &cfg);
        let sampler = report.sampler.expect("sampling enabled");
        let cpu = sampler.mean_cpu_util();
        assert!(!cpu.is_empty());
        // 64 jobs x 5 s on 32 cores: utilization reaches 100%.
        assert!(cpu.max() > 99.0, "max util {}", cpu.max());
    }

    #[test]
    fn per_job_overhead_slows_short_jobs() {
        let fast = run_ensemble(&[parallel_wf(64, 1.0)], &no_overhead(cluster(1)));
        let mut cfg = SimRunConfig::new(cluster(1));
        cfg.per_job_overhead_secs = 1.0;
        let slow = run_ensemble(&[parallel_wf(64, 1.0)], &cfg);
        assert!(slow.makespan_secs > fast.makespan_secs * 1.8);
    }

    #[test]
    fn deterministic_given_same_config() {
        let wfs: Vec<_> = (0..3).map(|_| chain_wf(4, 0.7)).collect();
        let a = run_ensemble(&wfs, &no_overhead(cluster(2)));
        let b = run_ensemble(&wfs, &no_overhead(cluster(2)));
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.workflow_makespans, b.workflow_makespans);
        assert_eq!(a.engine.dispatches, b.engine.dispatches);
    }

    #[test]
    fn cost_uses_hourly_billing() {
        let report = run_ensemble(&[parallel_wf(32, 1.0)], &no_overhead(cluster(2)));
        // Under an hour on 2 c3.8xlarge -> 2 x 1.68.
        assert!((report.cost_usd - 3.36).abs() < 1e-9);
    }

    #[test]
    fn trace_records_every_job_with_ordered_phases() {
        let mut cfg = no_overhead(cluster(1));
        cfg.record_trace = true;
        let report = run_ensemble(&[chain_wf(4, 1.0)], &cfg);
        let trace = report.trace.expect("trace requested");
        assert_eq!(trace.len(), 4);
        for e in trace.events() {
            assert!(e.dispatched <= e.started);
            assert!(e.started <= e.read_done);
            assert!(e.finished <= report.makespan_secs + 1e-6);
            assert_eq!(e.attempt, 1);
        }
        // Chain jobs queue-wait ~0 (each dispatched when its parent ends).
        let qw = trace.queue_wait_summary().unwrap();
        assert!(qw.max < 0.1, "chain jobs should not queue: {qw:?}");
    }

    #[test]
    fn trace_exports_are_well_formed() {
        let mut cfg = no_overhead(cluster(2));
        cfg.record_trace = true;
        let report = run_ensemble(&[parallel_wf(70, 1.0)], &cfg);
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 70);
        let json = trace.to_chrome_json();
        assert_eq!(json.matches("\"cat\":\"job\"").count(), 70);
        // 70 jobs on 64 slots: the overflow wave shows queue wait ~1 s.
        let qw = trace.queue_wait_summary().unwrap();
        assert!(qw.max > 0.5, "second wave must have waited: {qw:?}");
    }

    #[test]
    fn always_failing_job_dead_letters_and_run_terminates() {
        // Workflow 0's root takes 100 s of CPU but times out after 10 s:
        // every attempt fails, so with a 3-attempt budget it dead-letters
        // and its dependent is written off — while workflow 1 completes
        // untouched. Without the cap this run would never terminate.
        let mut b = WorkflowBuilder::new("doomed");
        let root = b.job("hog", "t", 100.0).build();
        let child = b.job("child", "t", 1.0).build();
        b.edge(root, child);
        let doomed = Arc::new(b.finish().unwrap());
        let healthy = chain_wf(3, 1.0);
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 10.0;
        cfg.timeout_scan_secs = 1.0;
        cfg.engine.retry = RetryPolicy { max_attempts: Some(3), ..RetryPolicy::default() };
        let report = run_ensemble(&[doomed, healthy], &cfg);
        assert!(!report.completed, "partial completion must be reported");
        assert_eq!(report.engine.dead_lettered, 1);
        assert_eq!(report.engine.jobs_abandoned, 2, "root + dependent");
        assert_eq!(report.engine.workflows_abandoned, 1);
        assert_eq!(report.engine.workflows_completed, 1, "healthy workflow unaffected");
        assert!(report.workflow_makespans[1] > 0.0);
        // Terminates promptly: 3 attempts x ~10 s timeout, not 100 s+.
        assert!(report.makespan_secs < 60.0, "{}", report.makespan_secs);
    }

    #[test]
    fn backoff_spaces_retries_in_sim_time() {
        // Same doomed job, but retries back off 20/40 s: the dead-letter
        // arrives later than with immediate retries, by the backoff sum.
        let wf = || {
            let mut b = WorkflowBuilder::new("doomed");
            b.job("hog", "t", 100.0).build();
            Arc::new(b.finish().unwrap())
        };
        let base = |backoff: f64| {
            let mut cfg = no_overhead(cluster(1));
            cfg.engine.default_timeout_secs = 10.0;
            cfg.timeout_scan_secs = 1.0;
            cfg.engine.retry = RetryPolicy {
                max_attempts: Some(3),
                backoff_base_secs: backoff,
                ..RetryPolicy::default()
            };
            run_ensemble(&[wf()], &cfg)
        };
        let immediate = base(0.0);
        let spaced = base(20.0);
        assert!(!immediate.completed && !spaced.completed);
        assert_eq!(spaced.engine.deferred_retries, 2);
        // 20 + 40 s of backoff shows up in the terminal time.
        assert!(
            spaced.makespan_secs > immediate.makespan_secs + 50.0,
            "immediate {} vs spaced {}",
            immediate.makespan_secs,
            spaced.makespan_secs
        );
    }

    #[test]
    fn chaos_drop_and_dup_still_completes() {
        // Seeded 5% drop + 5% duplication on dispatches and acks: the
        // ensemble must still finish, with only resubmission and
        // duplicate-completion noise.
        let wfs: Vec<_> = (0..4).map(|_| chain_wf(5, 1.0)).collect();
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 20.0;
        cfg.timeout_scan_secs = 1.0;
        cfg.chaos = Some(ChaosConfig::drop_dup(0xC4A05, 0.05, 0.05));
        let report = run_ensemble(&wfs, &cfg);
        assert!(report.completed, "all workflows must survive message chaos");
        assert_eq!(report.engine.jobs_completed, 20);
        assert_eq!(report.engine.dead_lettered, 0);
        let noise = report.engine.resubmissions + report.engine.duplicate_completions;
        assert!(noise > 0, "5% chaos on 20 jobs should leave traces");
        // Lost completions rerun the job; the makespan only degrades by
        // timeout tails, it does not hang.
        assert!(report.makespan_secs < 200.0, "{}", report.makespan_secs);
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let wfs: Vec<_> = (0..3).map(|_| chain_wf(4, 1.0)).collect();
        let run = |seed| {
            let mut cfg = no_overhead(cluster(1));
            cfg.engine.default_timeout_secs = 15.0;
            cfg.timeout_scan_secs = 1.0;
            cfg.chaos = Some(ChaosConfig::drop_dup(seed, 0.1, 0.1));
            run_ensemble(&wfs, &cfg)
        };
        let (a, b, c) = (run(1), run(1), run(2));
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.engine, b.engine, "same seed, same run");
        assert!(
            c.engine != a.engine || c.makespan_secs != a.makespan_secs,
            "different seed should perturb the run"
        );
    }

    #[test]
    fn chaos_heavy_drop_recovers_via_checkout_timeout() {
        // 30% drop: some dispatches never reach a worker. The implied
        // checkout timeout resubmits them, so the run still finishes.
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 10.0;
        cfg.timeout_scan_secs = 1.0;
        cfg.chaos = Some(ChaosConfig::drop_dup(7, 0.3, 0.0));
        let report = run_ensemble(&[parallel_wf(40, 1.0)], &cfg);
        assert!(report.completed);
        assert!(report.engine.resubmissions > 0, "drops must be recovered by resubmission");
    }

    #[test]
    fn only_lossy_chaos_with_no_checkout_deadline_gets_the_job_timeout() {
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.default_timeout_secs = 10.0;
        cfg.chaos = Some(ChaosConfig::drop_dup(7, 0.3, 0.0));
        cfg.engine.checkout_timeout_secs = Some(4.0);
        assert_eq!(cfg.run_engine().checkout_timeout_secs, Some(4.0), "an explicit deadline wins");
        cfg.engine.checkout_timeout_secs = None;
        assert_eq!(
            cfg.run_engine(),
            EngineConfig { checkout_timeout_secs: Some(10.0), ..cfg.engine }
        );
        cfg.chaos = Some(ChaosConfig::drop_dup(7, 0.0, 0.3));
        assert_eq!(cfg.run_engine(), cfg.engine, "chaos that cannot drop keeps no deadline");
        cfg.chaos = None;
        assert_eq!(cfg.run_engine(), cfg.engine);
    }

    #[test]
    fn io_jobs_move_data_through_storage() {
        let mut b = WorkflowBuilder::new("io");
        let f_in = b.file("in", 500_000_000, true);
        let mid = b.file("mid", 250_000_000, false);
        let a = b.job("a", "t", 1.0).input(f_in).output(mid).build();
        let c = b.job("b", "t", 1.0).input(mid).build();
        b.edge(a, c);
        let report = run_ensemble(&[Arc::new(b.finish().unwrap())], &no_overhead(cluster(1)));
        assert!(report.completed);
        // The 500 MB input was a cold read; `mid` was cache-warm.
        assert!(report.total_bytes_read >= 500_000_000.0 * 0.99);
        assert!(report.total_bytes_read < 700_000_000.0);
        assert!((report.total_bytes_written - 250_000_000.0).abs() < 1e6);
    }

    #[test]
    fn scripted_failure_retries_until_success() {
        // Middle chain job fails its first two attempts; unbounded
        // immediate retries rerun it until the third attempt lands.
        let mut cfg = no_overhead(cluster(1));
        cfg.record_trace = true;
        cfg.failure_script = vec![ScriptedFailure { workflow: 0, job: 1, failing_attempts: 2 }];
        let report = run_ensemble(&[chain_wf(3, 1.0)], &cfg);
        assert!(report.completed);
        assert_eq!(report.engine.jobs_completed, 3);
        assert_eq!(report.engine.resubmissions, 2);
        // j0 (1s) + j1 three attempts (3s) + j2 (1s): failed attempts
        // consume real slot time.
        assert!((report.makespan_secs - 5.0).abs() < 0.2, "{}", report.makespan_secs);
        // Failed attempts are not real completions: the trace records
        // exactly one span per job that actually finished.
        assert_eq!(report.trace.expect("trace").len(), 3);
    }

    #[test]
    fn scripted_failure_dead_letters_under_retry_cap() {
        // The middle job always fails and the retry budget allows two
        // attempts: it dead-letters and its descendant is written off.
        let mut cfg = no_overhead(cluster(1));
        cfg.engine.retry = RetryPolicy { max_attempts: Some(2), ..RetryPolicy::default() };
        cfg.failure_script = vec![ScriptedFailure { workflow: 0, job: 1, failing_attempts: 99 }];
        let report = run_ensemble(&[chain_wf(3, 1.0)], &cfg);
        assert!(!report.completed);
        assert_eq!(report.engine.dead_lettered, 1);
        assert_eq!(report.engine.jobs_abandoned, 2);
        assert_eq!(report.engine.workflows_abandoned, 1);
        assert_eq!(report.engine.jobs_completed, 1);
    }

    #[test]
    fn scripted_failure_composes_with_message_chaos() {
        // Failed acks bypass the chaos layer, so a lossy run with a
        // scripted failure still converges: the failure is retried the
        // scripted number of times and every workflow completes.
        let mut cfg = no_overhead(cluster(1));
        cfg.failure_script = vec![ScriptedFailure { workflow: 0, job: 0, failing_attempts: 1 }];
        cfg.chaos =
            Some(ChaosConfig { seed: 7, drop_prob: 0.2, dup_prob: 0.2, ..ChaosConfig::default() });
        let report = run_ensemble(&[parallel_wf(6, 1.0)], &cfg);
        assert!(report.completed);
        assert_eq!(report.engine.jobs_completed, 6);
        assert!(report.engine.resubmissions >= 1);
    }
}
