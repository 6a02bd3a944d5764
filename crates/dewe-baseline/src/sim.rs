//! The scheduling-based engine's simulated runtime.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dewe_dag::{DependencyTracker, EnsembleJobId, Workflow, WorkflowId};
use dewe_metrics::{ClusterSampler, SAMPLE_INTERVAL_SECS};
use dewe_simcloud::{ClusterConfig, ExecSim, JobProfile, SimEvent};

use crate::scheduler::{Policy, Scheduler};

/// Seed of [`Policy::Random`]'s node draws.
const RANDOM_POLICY_SEED: u64 = 42;

/// Configuration of the Pegasus-like baseline.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The cluster to run on (same substrate as DEWE v2 runs).
    pub cluster: ClusterConfig,
    /// Condor slots per node. The paper observes at most 20 concurrent
    /// threads on a 32-vCPU node (Fig. 6a).
    pub slots_per_node: u32,
    /// Matchmaking cadence in seconds: eligible jobs wait for the next
    /// cycle before being assigned to a node.
    pub negotiation_interval_secs: f64,
    /// Per-job scheduling + submission + wrapper overhead in CPU-seconds
    /// (DAGMan submit, matchmaking, kickstart wrapping).
    pub per_job_overhead_secs: f64,
    /// Multiplier on each job's output bytes (staging + kickstart records
    /// + transfer duplication; Fig. 6c).
    pub write_amplification: f64,
    /// Multiplier on each job's input bytes (Condor stage-in copies data to
    /// the execute directory instead of reading in place).
    pub read_amplification: f64,
    /// Additional log/bookkeeping bytes written per job.
    pub log_bytes_per_job: f64,
    /// Seconds of `pegasus-plan` work per workflow: Pegasus materializes
    /// the executable workflow (site selection, transfer jobs, submit
    /// files) before DAGMan sees any job. Planning runs serially on the
    /// submit host, so concurrently submitted workflows queue behind each
    /// other.
    pub planning_secs_per_workflow: f64,
    /// Node-selection policy.
    pub policy: Policy,
    /// Stagger between workflow submissions (0 = batch).
    pub submission_interval_secs: f64,
    /// Collect 3-second metrics samples.
    pub sample: bool,
    /// Per-node CPU speed multipliers (heterogeneity ablation; `None` =
    /// homogeneous).
    pub node_speed_factors: Option<Vec<f64>>,
    /// Record a per-job lifecycle [`dewe_metrics::Trace`]: every start
    /// and finish, which is also what differential testers compare the
    /// baseline's schedule by.
    pub record_trace: bool,
}

impl BaselineConfig {
    /// Defaults calibrated to the paper's observed Pegasus behaviour on
    /// c3.8xlarge (Fig. 6: ≤20 threads, ≤80% CPU, ~2x makespan, ~2x disk
    /// writes versus DEWE v2).
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            slots_per_node: 20,
            negotiation_interval_secs: 2.0,
            per_job_overhead_secs: 1.2,
            write_amplification: 2.2,
            read_amplification: 1.8,
            log_bytes_per_job: 1e6,
            planning_secs_per_workflow: 150.0,
            policy: Policy::LeastLoaded,
            submission_interval_secs: 0.0,
            sample: false,
            node_speed_factors: None,
            record_trace: false,
        }
    }
}

/// Results of a baseline run (same quantities as DEWE's `SimReport`).
pub struct BaselineReport {
    /// Seconds to complete the whole ensemble.
    pub makespan_secs: f64,
    /// Per-workflow makespans (submission → completion).
    pub workflow_makespans: Vec<f64>,
    /// All workflows completed.
    pub completed: bool,
    /// Total CPU busy core-seconds.
    pub total_cpu_core_secs: f64,
    /// Total disk bytes read.
    pub total_bytes_read: f64,
    /// Total logical bytes written (includes amplification and logs).
    pub total_bytes_written: f64,
    /// Jobs executed.
    pub jobs_executed: u64,
    /// 3-second samples, when requested.
    pub sampler: Option<ClusterSampler>,
    /// Per-job lifecycle trace, when requested.
    pub trace: Option<dewe_metrics::Trace>,
    /// Rental cost under hourly billing.
    pub cost_usd: f64,
}

const TAG_CYCLE: u64 = 1 << 56;
const TAG_SAMPLE: u64 = 2 << 56;
const TAG_SUBMIT: u64 = 3 << 56;
const TAG_MASK: u64 = 0xff << 56;

struct WfState {
    workflow: Arc<Workflow>,
    tracker: DependencyTracker,
    submitted_at: f64,
    makespan: f64,
}

/// Run an ensemble with the scheduling-based baseline.
pub fn run_ensemble(workflows: &[Arc<Workflow>], config: &BaselineConfig) -> BaselineReport {
    assert!(!workflows.is_empty());
    let nodes = config.cluster.nodes;
    let mut exec = ExecSim::new(config.cluster);
    let speeds = config.node_speed_factors.clone().unwrap_or_else(|| vec![1.0; nodes]);
    assert_eq!(speeds.len(), nodes, "one speed factor per node");
    for (n, &f) in speeds.iter().enumerate() {
        exec.cluster_mut().set_speed_factor(n, f);
    }
    let mut scheduler =
        Scheduler::new(config.policy, nodes, RANDOM_POLICY_SEED).with_speeds(speeds);
    let mut sampler =
        config.sample.then(|| ClusterSampler::new(nodes, config.cluster.instance.vcpus));
    let mut trace = config.record_trace.then(dewe_metrics::Trace::new);
    // (eligible/dispatch time, start time) per token, for tracing.
    let mut trace_times: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut eligible_times: HashMap<u64, f64> = HashMap::new();

    let mut states: Vec<Option<WfState>> = (0..workflows.len()).map(|_| None).collect();
    // Jobs waiting for the next negotiation cycle.
    let mut pending: VecDeque<EnsembleJobId> = VecDeque::new();
    // Per-node local queues (assigned but not yet started).
    let mut node_queue: Vec<VecDeque<EnsembleJobId>> = vec![VecDeque::new(); nodes];
    let mut node_running: Vec<u32> = vec![0; nodes];
    let mut running: HashMap<u64, EnsembleJobId> = HashMap::new();
    // Matchmaking scratch: per-node load, reused across cycles.
    let mut load: Vec<usize> = Vec::with_capacity(nodes);
    // Scratch for jobs released by a completion, reused across events.
    let mut ready_scratch: Vec<dewe_dag::JobId> = Vec::new();
    let mut completed_workflows = 0usize;
    let mut all_done_at: Option<f64> = None;
    let mut jobs_executed = 0u64;

    // Submissions. Planning serializes on the submit host: workflow i's
    // jobs become visible to DAGMan only when its (queued) planning run
    // finishes.
    let mut planning_free_at = 0.0f64;
    for (i, _) in workflows.iter().enumerate() {
        let submitted = config.submission_interval_secs * i as f64;
        let planned = planning_free_at.max(submitted) + config.planning_secs_per_workflow;
        planning_free_at = planned;
        exec.schedule_wake(planned, TAG_SUBMIT | i as u64);
    }
    exec.schedule_wake(config.negotiation_interval_secs, TAG_CYCLE);
    if sampler.is_some() {
        exec.schedule_wake(SAMPLE_INTERVAL_SECS, TAG_SAMPLE);
    }

    fn token_of(job: EnsembleJobId) -> u64 {
        // Workflow in bits 32..56, job in bits 0..32. The old `<< 24`
        // packing silently collided with the wake-token tags once a
        // workflow exceeded 2^24 jobs; a full u32 job field cannot.
        debug_assert!(job.workflow.0 < (1 << 24), "workflow id must stay below the tag bytes");
        ((job.workflow.0 as u64) << 32) | job.job.0 as u64
    }

    // `dewe_simcloud::ReadCache`'s `(namespace << 32) | index`.
    fn file_key(wf: WorkflowId, f: dewe_dag::FileId) -> u64 {
        ((wf.0 as u64) << 32) | f.0 as u64
    }

    // Start queued jobs on nodes with free slots.
    #[allow(clippy::too_many_arguments)]
    fn start_ready(
        exec: &mut ExecSim,
        config: &BaselineConfig,
        states: &[Option<WfState>],
        node_queue: &mut [VecDeque<EnsembleJobId>],
        node_running: &mut [u32],
        running: &mut HashMap<u64, EnsembleJobId>,
        trace_times: &mut HashMap<u64, (f64, f64)>,
        eligible_times: &mut HashMap<u64, f64>,
        tracing: bool,
    ) {
        for node in 0..node_queue.len() {
            while node_running[node] < config.slots_per_node {
                let Some(job) = node_queue[node].pop_front() else { break };
                let state = states[job.workflow.index()].as_ref().expect("workflow submitted");
                let spec = state.workflow.job(job.job);
                let wf_id = job.workflow;
                let mut writes: Vec<(u64, f64)> = spec
                    .outputs
                    .iter()
                    .map(|&f| {
                        (
                            file_key(wf_id, f),
                            state.workflow.file(f).size_bytes as f64 * config.write_amplification,
                        )
                    })
                    .collect();
                if config.log_bytes_per_job > 0.0 {
                    // Log files are unique per job execution; key them by the
                    // job token in a reserved namespace so they never alias
                    // data files.
                    writes.push(((1 << 63) | token_of(job), config.log_bytes_per_job));
                }
                let profile = JobProfile {
                    reads: spec
                        .inputs
                        .iter()
                        .map(|&f| {
                            (
                                file_key(wf_id, f),
                                state.workflow.file(f).size_bytes as f64
                                    * config.read_amplification,
                            )
                        })
                        .collect(),
                    cpu_seconds: spec.cpu_seconds + config.per_job_overhead_secs,
                    cores: spec.cores,
                    writes,
                };
                node_running[node] += 1;
                if tracing {
                    let now = exec.now().as_secs_f64();
                    let eligible = eligible_times.remove(&token_of(job)).unwrap_or(now);
                    trace_times.insert(token_of(job), (eligible, now));
                }
                running.insert(token_of(job), job);
                exec.submit_job(token_of(job), node, &profile);
            }
        }
    }

    while let Some(event) = exec.next() {
        match event {
            SimEvent::JobFinished { token, node, timings } => {
                let job = running.remove(&token).expect("finished job was running");
                if let Some(tr) = trace.as_mut() {
                    let (dispatched, started) = trace_times.remove(&token).unwrap_or_default();
                    let state = states[job.workflow.index()].as_ref().expect("state");
                    tr.record(dewe_metrics::JobTrace {
                        workflow: job.workflow.0,
                        job: job.job.0,
                        xform: state.workflow.job(job.job).xform.to_string(),
                        attempt: 1,
                        node,
                        dispatched,
                        started,
                        read_done: timings.read_done.as_secs_f64(),
                        compute_done: timings.compute_done.as_secs_f64(),
                        finished: timings.finished.as_secs_f64(),
                    });
                }
                node_running[node] -= 1;
                jobs_executed += 1;
                let now = exec.now().as_secs_f64();
                let state = states[job.workflow.index()].as_mut().expect("workflow state");
                let workflow = Arc::clone(&state.workflow);
                state.tracker.mark_running(job.job);
                state.tracker.complete(&workflow, job.job);
                state.tracker.drain_ready_into(&mut ready_scratch);
                for next in ready_scratch.drain(..) {
                    let next_job = EnsembleJobId::new(job.workflow, next);
                    if trace.is_some() {
                        eligible_times.insert(token_of(next_job), now);
                    }
                    pending.push_back(next_job);
                }
                if state.tracker.is_complete() && state.makespan == 0.0 {
                    state.makespan = now - state.submitted_at;
                    completed_workflows += 1;
                    if completed_workflows == workflows.len() {
                        all_done_at = Some(now);
                    }
                }
                // Freed slot: start whatever is queued locally.
                start_ready(
                    &mut exec,
                    config,
                    &states,
                    &mut node_queue,
                    &mut node_running,
                    &mut running,
                    &mut trace_times,
                    &mut eligible_times,
                    trace.is_some(),
                );
            }
            SimEvent::Wake { token } => match token & TAG_MASK {
                TAG_SUBMIT => {
                    let idx = (token & !TAG_MASK) as usize;
                    let now = exec.now().as_secs_f64();
                    let workflow = Arc::clone(&workflows[idx]);
                    let mut tracker = DependencyTracker::new(&workflow);
                    let wf_id = WorkflowId::from_index(idx);
                    tracker.drain_ready_into(&mut ready_scratch);
                    for root in ready_scratch.drain(..) {
                        let root_job = EnsembleJobId::new(wf_id, root);
                        if trace.is_some() {
                            eligible_times.insert(token_of(root_job), now);
                        }
                        pending.push_back(root_job);
                    }
                    let complete = tracker.is_complete();
                    states[idx] =
                        Some(WfState { workflow, tracker, submitted_at: now, makespan: 0.0 });
                    if complete {
                        completed_workflows += 1;
                        if completed_workflows == workflows.len() {
                            all_done_at = Some(now);
                        }
                    }
                }
                TAG_CYCLE => {
                    // Matchmaking: drain the pending set into node queues.
                    // Node load is computed once per cycle and updated as
                    // placements are made (rebuilding it per pending job
                    // made each cycle O(jobs x nodes)).
                    if !pending.is_empty() {
                        load.clear();
                        load.extend(
                            (0..nodes).map(|n| node_queue[n].len() + node_running[n] as usize),
                        );
                        while let Some(job) = pending.pop_front() {
                            let node = scheduler.pick(&load);
                            node_queue[node].push_back(job);
                            load[node] += 1;
                        }
                    }
                    start_ready(
                        &mut exec,
                        config,
                        &states,
                        &mut node_queue,
                        &mut node_running,
                        &mut running,
                        &mut trace_times,
                        &mut eligible_times,
                        trace.is_some(),
                    );
                    if all_done_at.is_none() {
                        exec.schedule_wake(config.negotiation_interval_secs, TAG_CYCLE);
                    }
                }
                TAG_SAMPLE => {
                    if let Some(s) = sampler.as_mut() {
                        let now = exec.now().as_secs_f64();
                        let counters: Vec<_> = (0..nodes).map(|n| exec.node_counters(n)).collect();
                        s.sample(now, &counters);
                    }
                    if all_done_at.is_none() {
                        exec.schedule_wake(SAMPLE_INTERVAL_SECS, TAG_SAMPLE);
                    }
                }
                _ => unreachable!("unknown wake tag"),
            },
        }
        match all_done_at {
            Some(_) if sampler.is_none() => break,
            Some(done) if exec.now().as_secs_f64() > done + 2.0 * SAMPLE_INTERVAL_SECS => break,
            _ => {}
        }
    }

    let makespan = all_done_at.unwrap_or_else(|| exec.now().as_secs_f64());
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
    BaselineReport {
        makespan_secs: makespan,
        workflow_makespans: states.iter().map(|s| s.as_ref().map_or(0.0, |s| s.makespan)).collect(),
        completed: all_done_at.is_some(),
        total_cpu_core_secs: total_cpu,
        total_bytes_read: total_rd,
        total_bytes_written: total_wr,
        jobs_executed,
        sampler,
        trace,
        cost_usd: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;
    use dewe_simcloud::{SharedFsKind, StorageConfig, C3_8XLARGE};

    fn cluster(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            instance: C3_8XLARGE,
            nodes,
            storage: StorageConfig::Shared(SharedFsKind::DistFs),
        }
    }

    fn parallel_wf(width: usize, secs: f64) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("par");
        for i in 0..width {
            b.job(format!("j{i}"), "t", secs).build();
        }
        Arc::new(b.finish().unwrap())
    }

    fn lean(cluster: ClusterConfig) -> BaselineConfig {
        BaselineConfig {
            per_job_overhead_secs: 0.0,
            write_amplification: 1.0,
            read_amplification: 1.0,
            log_bytes_per_job: 0.0,
            planning_secs_per_workflow: 0.0,
            negotiation_interval_secs: 0.5,
            ..BaselineConfig::new(cluster)
        }
    }

    #[test]
    fn completes_simple_ensemble() {
        let report = run_ensemble(&[parallel_wf(40, 1.0)], &lean(cluster(1)));
        assert!(report.completed);
        assert_eq!(report.jobs_executed, 40);
        assert!(report.workflow_makespans[0] > 0.0);
    }

    #[test]
    fn concurrency_is_bounded_by_slots() {
        // 40 x 1 s jobs, 20 slots -> 2 waves plus cycle latency.
        let report = run_ensemble(&[parallel_wf(40, 1.0)], &lean(cluster(1)));
        assert!(report.makespan_secs >= 2.0);
        // Compared against: 40 jobs on a DEWE node (32 slots) ~ 2 s, but
        // baseline adds at least one negotiation wait.
        assert!(report.makespan_secs < 5.0, "{}", report.makespan_secs);
    }

    #[test]
    fn negotiation_cycle_delays_starts() {
        let quick = run_ensemble(&[parallel_wf(10, 1.0)], &lean(cluster(1)));
        let mut slow_cfg = lean(cluster(1));
        slow_cfg.negotiation_interval_secs = 10.0;
        let slow = run_ensemble(&[parallel_wf(10, 1.0)], &slow_cfg);
        assert!(slow.makespan_secs > quick.makespan_secs + 5.0);
    }

    #[test]
    fn write_amplification_inflates_disk_traffic() {
        let mut b = WorkflowBuilder::new("w");
        let f = b.file("out", 100_000_000, false);
        b.job("a", "t", 1.0).output(f).build();
        let wf = Arc::new(b.finish().unwrap());
        let mut cfg = lean(cluster(1));
        cfg.write_amplification = 2.0;
        cfg.log_bytes_per_job = 1e6;
        let report = run_ensemble(&[wf], &cfg);
        assert!((report.total_bytes_written - 201e6).abs() < 1e5, "{}", report.total_bytes_written);
    }

    #[test]
    fn per_job_overhead_extends_makespan() {
        let base = run_ensemble(&[parallel_wf(20, 1.0)], &lean(cluster(1)));
        let mut cfg = lean(cluster(1));
        cfg.per_job_overhead_secs = 3.0;
        let heavy = run_ensemble(&[parallel_wf(20, 1.0)], &cfg);
        assert!(heavy.makespan_secs > base.makespan_secs + 2.5);
    }

    #[test]
    fn all_policies_complete_the_same_work() {
        // Heterogeneous durations: placement quality differs by policy,
        // correctness must not.
        let mut b = WorkflowBuilder::new("mix");
        for i in 0..60 {
            b.job(format!("j{i}"), "t", if i % 10 == 0 { 20.0 } else { 1.0 }).build();
        }
        let wf = Arc::new(b.finish().unwrap());
        for policy in [Policy::LeastLoaded, Policy::RoundRobin, Policy::Random] {
            let mut cfg = lean(cluster(4));
            cfg.slots_per_node = 2;
            cfg.policy = policy;
            let report = run_ensemble(&[Arc::clone(&wf)], &cfg);
            assert!(report.completed, "{policy:?} did not finish");
            assert_eq!(report.jobs_executed, 60, "{policy:?} job count");
            // 8 total slots, 114 job-seconds of work: lower bound ~14.25 s.
            assert!(report.makespan_secs >= 14.0, "{policy:?}: {}", report.makespan_secs);
        }
    }

    #[test]
    fn deterministic() {
        let wf = parallel_wf(30, 0.8);
        let a = run_ensemble(&[Arc::clone(&wf)], &BaselineConfig::new(cluster(2)));
        let b = run_ensemble(&[wf], &BaselineConfig::new(cluster(2)));
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.total_bytes_written, b.total_bytes_written);
    }

    #[test]
    fn chain_dependencies_respected() {
        let mut b = WorkflowBuilder::new("chain");
        let x = b.job("x", "t", 1.0).build();
        let y = b.job("y", "t", 1.0).build();
        b.edge(x, y);
        let report = run_ensemble(&[Arc::new(b.finish().unwrap())], &lean(cluster(1)));
        assert!(report.completed);
        // Two serial seconds plus up to two negotiation waits.
        assert!(report.makespan_secs >= 2.0);
    }

    #[test]
    fn trace_orders_starts_after_parent_finishes() {
        let mut b = WorkflowBuilder::new("chain");
        let x = b.job("x", "t", 1.0).build();
        let y = b.job("y", "t", 1.0).build();
        let z = b.job("z", "t", 1.0).build();
        b.edge(x, y);
        b.edge(y, z);
        let mut cfg = lean(cluster(1));
        cfg.record_trace = true;
        let report = run_ensemble(&[Arc::new(b.finish().unwrap())], &cfg);
        let trace = report.trace.expect("record_trace was set");
        // Exactly one record per job.
        let mut records: HashMap<u32, &dewe_metrics::JobTrace> = HashMap::new();
        for t in trace.events() {
            assert_eq!(t.workflow, 0);
            assert!(t.started <= t.finished, "{t:?}");
            assert!(records.insert(t.job, t).is_none(), "two records of job {}", t.job);
        }
        assert_eq!(records.len(), 3);
        // Dependency order: each child starts only once its parent has
        // finished.
        for (parent, child) in [(x, y), (y, z)] {
            let (p, c) = (records[&parent.0], records[&child.0]);
            assert!(
                c.started >= p.finished,
                "child started at {} before parent finished {}",
                c.started,
                p.finished
            );
        }
    }

    #[test]
    fn sampling_observes_thread_cap() {
        let mut cfg = lean(cluster(1));
        cfg.sample = true;
        let report = run_ensemble(&[parallel_wf(200, 2.0)], &cfg);
        let threads = report.sampler.unwrap().total_threads();
        assert!(threads.max() <= 20.0, "thread cap violated: {}", threads.max());
    }
}
