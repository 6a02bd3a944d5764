//! `layers` — the traced run. It drives every layer of the library through
//! its public functions with one workload's inputs and prints one
//! `name value unit` line per metric of `spec::PER_LAYER` that can be
//! measured in-process (the process counters come from `bench`).
//!
//! Attribution works from the outside in: a benchmark-owned copy of the sim
//! driver (FIFO ready queue, round-robin idle slots, 5 s timeout scan — the
//! default path of `run_ensemble`) runs the ensemble with a span around each
//! call into the engine and into `ExecSim`; then each layer below is driven
//! alone with the operations that run recorded. A counting allocator gives
//! the noise-free columns (allocations and live bytes per job).
//!
//! Spans are aggregated per call site as they close — 1.7 M jobs × 5 calls do
//! not fit in memory one record each — and the table is written to `--spans`
//! at exit. A clock read costs about 27 ns here, as much as the shortest call
//! it times, so the cost is calibrated first and taken out of every span and
//! of the traced wall time before shares are computed;
//! `sim.trace_overhead_pct` is the uncorrected slowdown.
//!
//! ```text
//! layers --dag <file> --workflows N [--interval S] --scratch <dir> [--spans <file>] [--smoke]
//! ```
//!
//! `dewe` items linked, by layer — the API surface later changes must keep
//! source-compatible (or precede with a benchmark change):
//! `dag::{parse_workflow, write_workflow, DependencyTracker, Workflow, JobId,
//! WorkflowId, EnsembleJobId}`; `core::{EngineConfig, EnsembleEngine, Action,
//! AckMsg, AckKind, DispatchMsg, LifecycleMsg, LifecycleKind, WireMsg}`;
//! `core::sim::{run_ensemble, SimRunConfig, SubmissionPlan}`;
//! `simcloud::{ExecSim, JobProfile, SimEvent, ClusterConfig, StorageConfig,
//! SharedFsKind, C3_8XLARGE, EventQueue, FairShare, ReadCache, Storage,
//! SimTime}`; `mq::{Topic, SendWindow, write_frame, read_frame,
//! DEFAULT_MAX_FRAME, Transport, WorkerTransport}`;
//! `core::realtime::{Journal, read_journal, recover, Registry, LivenessTable,
//! TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions}`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe::core::realtime::{
    read_journal, recover, Journal, LivenessTable, Registry, TcpMaster, TcpMasterOptions,
    TcpWorkerLink, TcpWorkerOptions,
};
use dewe::core::sim::{run_ensemble, SimRunConfig, SubmissionPlan};
use dewe::core::{
    AckKind, AckMsg, Action, DispatchMsg, EngineConfig, LifecycleKind, LifecycleMsg, WireMsg,
};
use dewe::dag::{
    parse_workflow, write_workflow, DependencyTracker, EnsembleJobId, JobId, Workflow, WorkflowId,
};
use dewe::mq::{
    read_frame, write_frame, SendWindow, Topic, Transport, WorkerTransport, DEFAULT_MAX_FRAME,
};
use dewe::simcloud::{
    ClusterConfig, EventQueue, ExecSim, FairShare, JobProfile, ReadCache, SharedFsKind, SimEvent,
    SimTime, Storage, StorageConfig, C3_8XLARGE,
};
use dewe_benchmark::spec;
use dewe_benchmark::stats::percentile_nearest_rank;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus three statistics. `Relaxed` is enough: the
/// counters publish no other data, and every rung that reads them is
/// single-threaded while it measures.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence a
// returned pointer or a layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Forget the high-water mark; the next [`peak_bytes`] is relative to now.
fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The calls the traced driver wraps, one aggregate each.
#[derive(Clone, Copy)]
enum Call {
    EngineSubmitWorkflow,
    EngineOnAck,
    EngineCheckTimeouts,
    ExecSubmitJob,
    ExecNext,
}

const CALL_NAMES: [&str; 5] = [
    "engine.submit_workflow",
    "engine.on_ack",
    "engine.check_timeouts",
    "simcloud.exec.submit_job",
    "simcloud.exec.next",
];

#[derive(Default, Clone, Copy)]
struct Span {
    calls: u64,
    ns: u64,
    allocs: u64,
}

#[derive(Default)]
struct Spans([Span; 5]);

impl Spans {
    fn engine(&self) -> Span {
        self.sum(&[Call::EngineSubmitWorkflow, Call::EngineOnAck, Call::EngineCheckTimeouts])
    }
    fn exec(&self) -> Span {
        self.sum(&[Call::ExecSubmitJob, Call::ExecNext])
    }
    fn sum(&self, calls: &[Call]) -> Span {
        calls.iter().fold(Span::default(), |acc, &c| {
            let s = self.0[c as usize];
            Span { calls: acc.calls + s.calls, ns: acc.ns + s.ns, allocs: acc.allocs + s.allocs }
        })
    }
}

/// Nanoseconds one clock read costs. A span reads the clock twice; about
/// one read's worth falls inside the interval it measures.
fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let began = Instant::now();
    let mut sum = 0u64;
    for _ in 0..READS {
        sum += Instant::now().elapsed().as_nanos() as u64;
    }
    black_box(sum);
    began.elapsed().as_nanos() as f64 / (2 * READS) as f64
}

/// Run `$body` inside a span of `$call`.
macro_rules! span {
    ($spans:expr, $call:expr, $body:expr) => {{
        let (began, allocs_before) = (Instant::now(), allocs());
        let result = $body;
        let span = &mut $spans.0[$call as usize];
        span.ns += began.elapsed().as_nanos() as u64;
        span.allocs += allocs() - allocs_before;
        span.calls += 1;
        result
    }};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Out(Vec<(&'static str, f64)>);

impl Out {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn print(&self) {
        for (name, value) in &self.0 {
            let unit = spec::PER_LAYER
                .iter()
                .find(|m| m.0 == *name)
                .map(|m| m.1)
                .unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER"));
            println!("{name} {value} {unit}");
        }
    }
}

/// SplitMix64: a seedable generator for the synthetic rungs (their op
/// streams must repeat exactly so that counts do).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Repeat `body` until `budget` has passed (at least once); returns the
/// iterations and the nanoseconds they took.
fn repeat_for(budget: Duration, mut body: impl FnMut()) -> (u64, f64) {
    let began = Instant::now();
    let mut iterations = 0;
    loop {
        body();
        iterations += 1;
        if began.elapsed() >= budget {
            return (iterations, began.elapsed().as_nanos() as f64);
        }
    }
}

/// Set once by `main` for `--smoke`: a tenth of the work, for a quick check
/// that every rung still runs, not for numbers.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// How long an isolated rung repeats its loop.
fn rung_budget() -> Duration {
    Duration::from_millis(if SMOKE.load(Ordering::Relaxed) { 20 } else { 300 })
}

/// A fixed iteration count, cut down under `--smoke`.
fn scaled(count: usize) -> usize {
    if SMOKE.load(Ordering::Relaxed) {
        count / 10
    } else {
        count
    }
}

// ---------------------------------------------------------------------------
// dag
// ---------------------------------------------------------------------------

/// Replay one workflow through a tracker in dispatch order (ready jobs
/// first in, first out); returns that order.
fn tracker_replay(wf: &Workflow) -> Vec<JobId> {
    let mut tracker = DependencyTracker::new(wf);
    let mut order = Vec::with_capacity(wf.job_count());
    let mut ready = Vec::new();
    let mut next = 0;
    loop {
        tracker.drain_ready_into(&mut ready);
        order.append(&mut ready);
        if next == order.len() {
            break;
        }
        while next < order.len() {
            tracker.mark_running(order[next]);
            tracker.complete(wf, order[next]);
            next += 1;
        }
    }
    assert!(tracker.is_complete(), "dispatch-order replay must finish the workflow");
    order
}

fn dag_rung(out: &mut Out, text: &str, wf: &Workflow) -> Vec<JobId> {
    let mb = text.len() as f64 / 1e6;
    let (n, ns) = repeat_for(rung_budget(), || {
        black_box(parse_workflow(black_box(text)).expect("the input parses"));
    });
    out.put("dag.parse_mb_per_s", mb * n as f64 / (ns / 1e9));
    let (n, ns) = repeat_for(rung_budget(), || {
        black_box(write_workflow(black_box(wf)));
    });
    out.put("dag.write_mb_per_s", mb * n as f64 / (ns / 1e9));

    let before = live_bytes();
    let tracker = DependencyTracker::new(wf);
    let tracker_bytes = live_bytes() - before;
    drop(tracker);
    out.put("dag.tracker_bytes_per_job", tracker_bytes as f64 / wf.job_count() as f64);
    let mut order = Vec::new();
    let (n, ns) = repeat_for(rung_budget(), || order = tracker_replay(black_box(wf)));
    out.put("dag.tracker_ns_per_job", ns / (n * wf.job_count() as u64) as f64);
    order
}

// ---------------------------------------------------------------------------
// sim: the traced driver
// ---------------------------------------------------------------------------

/// One input of the engine, as the traced driver fed it.
#[derive(Clone, Copy)]
enum Op {
    Submit,
    Ack(AckMsg),
    Scan,
}

struct TracedRun {
    wall_ns: u64,
    spans: Spans,
    ops: Vec<(f64, Op)>,
    /// Events `ExecSim::next` returned.
    events: u64,
    /// Mean jobs inside `ExecSim` over those events.
    mean_running: f64,
    makespan_secs: f64,
    dispatches: u64,
    resubmissions: u64,
    timer_cascades: u64,
    bytes_read: f64,
    bytes_written: f64,
}

const TAG_SUBMIT: u64 = 1 << 56;
const TAG_SCAN: u64 = 2 << 56;
const TAG_MASK: u64 = 0xff << 56;
/// `SimRunConfig::new`'s defaults, which `dewectl simulate` runs with.
const TIMEOUT_SECS: f64 = 600.0;
const SCAN_SECS: f64 = 5.0;
const JOB_OVERHEAD_SECS: f64 = 0.1;

fn file_key(workflow: WorkflowId, file: dewe::dag::FileId) -> u64 {
    ((workflow.0 as u64) << 32) | file.0 as u64
}

/// The default path of `core::sim::run_ensemble`, re-stated here so that
/// spans can sit around its calls into the layers. `sim.trace_valid` checks
/// that it still is that path: same makespan, dispatches and bytes.
fn traced_sim(
    workflows: &[Arc<Workflow>],
    interval_secs: Option<f64>,
    cluster: ClusterConfig,
) -> TracedRun {
    let total_jobs: usize = workflows.iter().map(|w| w.job_count()).sum();
    let mut spans = Spans::default();
    let mut ops: Vec<(f64, Op)> = Vec::with_capacity(2 * total_jobs + workflows.len() + 4096);
    let began = Instant::now();

    let mut engine = EngineConfig::default().timeout(TIMEOUT_SECS).build();
    let mut exec = ExecSim::new(cluster);
    // Idle slots, nodes interleaved so first assignment is round-robin.
    let mut idle: VecDeque<usize> = VecDeque::new();
    for _ in 0..cluster.instance.vcpus {
        idle.extend(0..cluster.nodes);
    }
    let mut queue: VecDeque<DispatchMsg> = VecDeque::new();
    let mut running: Vec<Option<DispatchMsg>> = vec![None; total_jobs];
    let mut submitted: Vec<(Arc<Workflow>, u64)> = Vec::with_capacity(workflows.len());
    let mut next_base = 0u64;
    let mut actions: Vec<Action> = Vec::new();
    let mut profile =
        JobProfile { reads: Vec::new(), cpu_seconds: 0.0, cores: 1, writes: Vec::new() };
    let mut completed = 0usize;
    let mut all_done_at: Option<f64> = None;
    let (mut events, mut running_sum) = (0u64, 0u64);

    for i in 0..workflows.len() {
        exec.schedule_wake(interval_secs.unwrap_or(0.0) * i as f64, TAG_SUBMIT | i as u64);
    }
    exec.schedule_wake(SCAN_SECS, TAG_SCAN);

    while let Some(event) = span!(spans, Call::ExecNext, exec.next()) {
        events += 1;
        running_sum += exec.running_jobs() as u64;
        let now = exec.now().as_secs_f64();
        let mut scanned = false;
        match event {
            SimEvent::JobFinished { token, node, .. } => {
                let d = running[token as usize].take().expect("one finish per dispatch");
                idle.push_back(node);
                let ack = AckMsg::new(d.job, node as u32, AckKind::Completed, d.attempt);
                ops.push((now, Op::Ack(ack)));
                span!(spans, Call::EngineOnAck, engine.on_ack(ack, now, &mut actions));
            }
            SimEvent::Wake { token } if token & TAG_MASK == TAG_SUBMIT => {
                let wf = Arc::clone(&workflows[(token & !TAG_MASK) as usize]);
                ops.push((now, Op::Submit));
                let id = span!(
                    spans,
                    Call::EngineSubmitWorkflow,
                    engine.submit_workflow(Arc::clone(&wf), now, &mut actions)
                );
                assert_eq!(id.index(), submitted.len(), "engine ids are sequential");
                submitted.push((Arc::clone(&wf), next_base));
                next_base += wf.job_count() as u64;
            }
            SimEvent::Wake { .. } => {
                ops.push((now, Op::Scan));
                span!(spans, Call::EngineCheckTimeouts, engine.check_timeouts(now, &mut actions));
                scanned = true;
            }
        }
        for action in actions.drain(..) {
            match action {
                Action::Dispatch(d) => queue.push_back(d),
                Action::WorkflowCompleted { .. } => {
                    completed += 1;
                    if completed == workflows.len() {
                        all_done_at = Some(now);
                    }
                }
                _ => {}
            }
        }
        // The pull loop: idle slots take queued jobs first come, first served.
        while !queue.is_empty() {
            let Some(node) = idle.pop_front() else { break };
            let d = queue.pop_front().expect("queue is not empty");
            let ack = AckMsg::new(d.job, node as u32, AckKind::Running, d.attempt);
            ops.push((now, Op::Ack(ack)));
            span!(spans, Call::EngineOnAck, engine.on_ack(ack, now, &mut actions));
            let (wf, base) = &submitted[d.job.workflow.index()];
            let job = wf.job(d.job.job);
            let sized = |f: &dewe::dag::FileId| {
                (file_key(d.job.workflow, *f), wf.file(*f).size_bytes as f64)
            };
            profile.reads.clear();
            profile.reads.extend(job.inputs.iter().map(sized));
            profile.cpu_seconds = job.cpu_seconds + JOB_OVERHEAD_SECS;
            profile.cores = job.cores;
            profile.writes.clear();
            profile.writes.extend(job.outputs.iter().map(sized));
            let token = base + d.job.job.0 as u64;
            running[token as usize] = Some(d);
            span!(spans, Call::ExecSubmitJob, exec.submit_job(token, node, &profile));
        }
        if all_done_at.is_some() {
            break;
        }
        // After the pull loop, as `run_ensemble` orders it: events scheduled
        // for the same instant fire in the order they were scheduled.
        if scanned {
            exec.schedule_wake(SCAN_SECS, TAG_SCAN);
        }
    }

    let wall_ns = began.elapsed().as_nanos() as u64;
    let (mut bytes_read, mut bytes_written) = (0.0, 0.0);
    for n in 0..cluster.nodes {
        let c = exec.node_counters(n);
        bytes_read += c.bytes_read;
        bytes_written += c.bytes_written;
    }
    let stats = engine.stats();
    assert_eq!(stats.jobs_completed as usize, total_jobs, "traced driver finished every job");
    TracedRun {
        wall_ns,
        spans,
        ops,
        events,
        mean_running: running_sum as f64 / events as f64,
        makespan_secs: all_done_at.expect("the ensemble completed"),
        dispatches: stats.dispatches,
        resubmissions: stats.resubmissions,
        timer_cascades: engine.timer_cascades(),
        bytes_read,
        bytes_written,
    }
}

fn sim_rung(
    out: &mut Out,
    workflows: &[Arc<Workflow>],
    interval_secs: Option<f64>,
    spans_path: Option<&Path>,
) -> TracedRun {
    let cluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes: 40,
        // As `dewectl simulate` for more than one node: the MooseFS-like
        // shared file system the paper ran on.
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let jobs: usize = workflows.iter().map(|w| w.job_count()).sum();
    let clock_ns = clock_read_ns();

    // Untraced first: it is the reference and warms the allocator.
    let mut config = SimRunConfig::new(cluster);
    if let Some(secs) = interval_secs {
        config.submission = SubmissionPlan::Interval(secs);
    }
    let began = Instant::now();
    let reference = run_ensemble(workflows, &config);
    let untraced_ns = began.elapsed().as_nanos() as f64;

    let run = traced_sim(workflows, interval_secs, cluster);
    let valid = reference.completed
        && reference.makespan_secs == run.makespan_secs
        && reference.engine.dispatches == run.dispatches
        && reference.total_bytes_read == run.bytes_read
        && reference.total_bytes_written == run.bytes_written;
    if !valid {
        eprintln!(
            "layers: traced driver diverged from run_ensemble: makespan {} vs {}, dispatches {} vs {}, \
             read {} vs {}, written {} vs {}",
            run.makespan_secs,
            reference.makespan_secs,
            run.dispatches,
            reference.engine.dispatches,
            run.bytes_read,
            reference.total_bytes_read,
            run.bytes_written,
            reference.total_bytes_written
        );
    }
    drop(reference);

    let (engine, exec) = (run.spans.engine(), run.spans.exec());
    // Take the clock's own cost out: one read per span from the span, two
    // from the wall time.
    let engine_ns = engine.ns as f64 - engine.calls as f64 * clock_ns;
    let exec_ns = exec.ns as f64 - exec.calls as f64 * clock_ns;
    let wall = run.wall_ns as f64 - (engine.calls + exec.calls) as f64 * 2.0 * clock_ns;
    out.put("sim.driver_self_ns_per_job", (wall - engine_ns - exec_ns) / jobs as f64);
    out.put("sim.engine_share", 100.0 * engine_ns / wall);
    out.put("sim.simcloud_share", 100.0 * exec_ns / wall);
    out.put("sim.trace_overhead_pct", 100.0 * (run.wall_ns as f64 - untraced_ns) / untraced_ns);
    out.put("sim.trace_valid", if valid { 1.0 } else { 0.0 });
    out.put("simcloud.exec_ns_per_event", exec_ns / run.events as f64);
    out.put("simcloud.events_per_job", run.events as f64 / jobs as f64);
    out.put("simcloud.allocs_per_job", exec.allocs as f64 / jobs as f64);

    if let Some(path) = spans_path {
        let mut table = String::from("call\tcalls\tns\tallocs\n");
        for (name, s) in CALL_NAMES.iter().zip(run.spans.0) {
            table.push_str(&format!("{name}\t{}\t{}\t{}\n", s.calls, s.ns, s.allocs));
        }
        table.push_str(&format!("sim.driver(total)\t1\t{}\t0\n", run.wall_ns));
        table.push_str(&format!("clock_read\t1\t{clock_ns}\t0\n"));
        if let Err(e) = std::fs::write(path, table) {
            eprintln!("layers: write {}: {e}", path.display());
        }
    }
    run
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// Feed a fresh default engine the operations the traced driver recorded.
fn engine_rung(out: &mut Out, workflows: &[Arc<Workflow>], run: &TracedRun) {
    let jobs: usize = workflows.iter().map(|w| w.job_count()).sum();
    let mut actions: Vec<Action> = Vec::new();
    let mut next_workflow = workflows.iter();
    let live_before = live_bytes();
    reset_peak();
    let allocs_before = allocs();
    let began = Instant::now();
    let mut engine = EngineConfig::default().timeout(TIMEOUT_SECS).build();
    for &(now, op) in &run.ops {
        match op {
            Op::Submit => {
                let wf = Arc::clone(next_workflow.next().expect("one submit per workflow"));
                engine.submit_workflow(wf, now, &mut actions);
            }
            Op::Ack(ack) => engine.on_ack(ack, now, &mut actions),
            Op::Scan => engine.check_timeouts(now, &mut actions),
        }
        black_box(&actions);
        actions.clear();
    }
    let ns = began.elapsed().as_nanos() as f64;
    let stats = engine.stats();
    assert_eq!(stats.jobs_completed as usize, jobs, "the replay completes every job");
    out.put("engine.ns_per_job", ns / jobs as f64);
    out.put("engine.allocs_per_job", (allocs() - allocs_before) as f64 / jobs as f64);
    out.put("engine.live_bytes_per_job", (peak_bytes() - live_before) as f64 / jobs as f64);
    out.put("engine.timer_cascades_per_job", engine.timer_cascades() as f64 / jobs as f64);
    // Replay and traced run saw the same inputs, so they agree; a
    // difference is a determinism bug worth seeing.
    assert_eq!(
        (stats.resubmissions, engine.timer_cascades()),
        (run.resubmissions, run.timer_cascades)
    );
    out.put("engine.resubmissions", stats.resubmissions as f64);
}

// ---------------------------------------------------------------------------
// simcloud, layer by layer
// ---------------------------------------------------------------------------

/// Hold model: a queue kept at `pending` events; each step pops the
/// earliest and schedules a replacement a random delay ahead.
fn kernel_rung(out: &mut Out, pending: usize) {
    let mut rng = Rng(1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..pending.max(1) {
        queue.schedule_in(rng.unit() * 10.0, i as u64);
    }
    let (n, ns) = repeat_for(rung_budget(), || {
        for _ in 0..1024 {
            let (_, payload) = queue.pop().expect("the hold model never drains");
            queue.schedule_in(rng.unit() * 10.0, black_box(payload));
        }
    });
    out.put("simcloud.kernel_ns_per_event", ns / (n * 1024) as f64);
}

/// `flows` concurrent reads on one fair-share device: every completion
/// starts a replacement, as a saturated cluster does.
fn fairshare_ns_per_flow(flows: usize) -> f64 {
    let mut rng = Rng(2);
    let mut share = FairShare::new(10e9);
    let mut now = SimTime::ZERO;
    for tag in 0..flows {
        share.start(now, 1e6 + rng.unit() * 99e6, tag as u64);
    }
    let mut done = Vec::new();
    let mut finished = 0u64;
    let (_, ns) = repeat_for(rung_budget(), || {
        for _ in 0..256 {
            now = share.next_completion(now).expect("flows are active");
            share.pop_completed_into(now, &mut done);
            finished += done.len() as u64;
            for tag in done.drain(..) {
                share.start(now, 1e6 + rng.unit() * 99e6, tag);
            }
        }
    });
    ns / finished as f64
}

/// Lookups at a target hit share; every miss is followed by the insert the
/// read path does. Returns ns per lookup and the hit share achieved.
fn readcache_ns_per_op(hit_share: f64) -> (f64, f64) {
    const RESIDENT: u64 = 100_000;
    const FILE_BYTES: f64 = 1e6;
    let mut rng = Rng(3);
    let mut cache = ReadCache::new(RESIDENT as f64 * FILE_BYTES);
    let mut next_key = 0u64;
    while next_key < RESIDENT {
        cache.insert(next_key, FILE_BYTES);
        next_key += 1;
    }
    let mut lookups = 0u64;
    let (_, ns) = repeat_for(rung_budget(), || {
        for _ in 0..1024 {
            let key = if rng.unit() < hit_share {
                // One of the most recently inserted files.
                next_key - 1 - rng.next_u64() % (RESIDENT / 2)
            } else {
                next_key += 1;
                next_key - 1
            };
            if !cache.lookup(black_box(key), FILE_BYTES) {
                cache.insert(key, FILE_BYTES);
            }
            lookups += 1;
        }
    });
    (ns / lookups as f64, cache.hit_rate())
}

/// The storage calls `ExecSim` makes for one job — classify the reads, start
/// one flow for the misses, make them resident, charge the writes — over
/// the workflow's own I/O lists, on the 40-node shared backend.
fn storage_rung(out: &mut Out, wf: &Workflow, order: &[JobId]) {
    const NODES: usize = 40;
    let mut storage = Storage::new(StorageConfig::Shared(SharedFsKind::DistFs), &C3_8XLARGE, NODES);
    // Per job: its `(key, bytes)` reads and writes.
    type Files = Vec<(u64, f64)>;
    let mut io: Vec<(Files, Files)> = order
        .iter()
        .map(|&j| {
            let sized = |f: &dewe::dag::FileId| (f.0 as u64, wf.file(*f).size_bytes as f64);
            let job = wf.job(j);
            (job.inputs.iter().map(sized).collect(), job.outputs.iter().map(sized).collect())
        })
        .collect();
    let (mut missed, mut done) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    let mut jobs = 0u64;
    let (_, ns) = repeat_for(rung_budget(), || {
        // Each pass is a new workflow instance: its files get new keys, as
        // `file_key` gives every instance of the ensemble its own.
        for (reads, writes) in io.iter_mut() {
            for (key, _) in reads.iter_mut().chain(writes.iter_mut()) {
                *key += 1 << 32;
            }
        }
        for (i, (reads, writes)) in io.iter().enumerate() {
            let node = i % NODES;
            now = now.plus_secs_f64(0.01);
            missed.clear();
            let (_, miss_bytes) = storage.classify_reads(node, reads, &mut missed);
            if miss_bytes > 0.0 {
                storage.begin_read(node, now, miss_bytes, jobs);
                storage.cache_insert_batch(node, &missed);
            }
            black_box(storage.submit_write_batch(node, now, writes));
            storage.cache_insert_batch(node, writes);
            storage.pop_read_completed_into(0, now, &mut done);
            done.clear();
            jobs += 1;
        }
    });
    out.put("simcloud.storage_ns_per_job", ns / jobs as f64);
}

// ---------------------------------------------------------------------------
// mq
// ---------------------------------------------------------------------------

fn mq_rung(out: &mut Out, batch_frame: &[u8]) {
    const BATCH: usize = 64;
    let topic: Topic<u64> = Topic::new();
    let mut pulled = Vec::with_capacity(BATCH);
    let (n, ns) = repeat_for(rung_budget(), || {
        topic.publish_all(0..BATCH as u64);
        pulled.clear();
        assert_eq!(topic.try_pull_batch(&mut pulled, BATCH), BATCH);
        black_box(&pulled);
    });
    out.put("mq.topic_ns_per_msg", ns / (n * BATCH as u64) as f64);

    // One thread hop: the consumer is blocked in `pull()` when the message
    // is published, and this thread is blocked in `pull()` for the reply.
    let (ping, pong): (Topic<u64>, Topic<u64>) = (Topic::new(), Topic::new());
    let echo = {
        let (ping, pong) = (ping.clone(), pong.clone());
        std::thread::spawn(move || {
            while let Some(v) = ping.pull() {
                pong.publish(v);
            }
        })
    };
    let mut round_trips_ns: Vec<u64> = (0..scaled(20_000) as u64)
        .map(|i| {
            let began = Instant::now();
            ping.publish(i);
            assert_eq!(pong.pull(), Some(i));
            began.elapsed().as_nanos() as u64
        })
        .collect();
    ping.close();
    echo.join().expect("echo thread");
    round_trips_ns.sort_unstable();
    let p50 = percentile_nearest_rank(&round_trips_ns, 50.0).expect("samples");
    out.put("mq.topic_handoff_us", p50 as f64 / 2.0 / 1e3);

    let window = SendWindow::new(BATCH as u32);
    let (n, ns) = repeat_for(rung_budget(), || {
        let got = window.try_acquire_n(black_box(BATCH as u32));
        for _ in 0..got {
            window.release();
        }
    });
    out.put("mq.window_ns_per_credit", ns / (n * BATCH as u64) as f64);

    let mut wire: Vec<u8> = Vec::with_capacity(batch_frame.len() + 4);
    let (n, ns) = repeat_for(rung_budget(), || {
        wire.clear();
        write_frame(&mut wire, black_box(batch_frame)).expect("write to memory");
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("read from memory");
        black_box(frame);
    });
    out.put("mq.frame_ns_per_frame", ns / n as f64);
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

/// Returns the encoded `DispatchBatch` of 64 for the frame rung.
fn wire_rung(out: &mut Out, dag_text: &str) -> Vec<u8> {
    const BATCH: u32 = 64;
    let job = |i: u32| EnsembleJobId::new(WorkflowId(3), JobId(1000 + i));
    let batch = WireMsg::DispatchBatch((0..BATCH).map(|i| DispatchMsg::new(job(i), 1)).collect());
    let acks: Vec<WireMsg> =
        (0..BATCH).map(|i| WireMsg::Ack(AckMsg::new(job(i), 1, AckKind::Completed, 1))).collect();

    let batch_frame = batch.encode();
    let ack_frames: Vec<Vec<u8>> = acks.iter().map(WireMsg::encode).collect();
    // On the wire each frame carries a four-byte length prefix.
    let bytes = batch_frame.len() + 4 + ack_frames.iter().map(|f| f.len() + 4).sum::<usize>();
    out.put("wire.bytes_per_job", bytes as f64 / BATCH as f64);

    // One pass of each outside the timed loops, so that the count does not
    // depend on how many iterations the time budget allowed.
    let allocs_before = allocs();
    black_box(batch.encode());
    acks.iter().for_each(|ack| drop(black_box(ack.encode())));
    black_box(WireMsg::decode(&batch_frame).expect("own frame decodes"));
    ack_frames.iter().for_each(|f| drop(black_box(WireMsg::decode(f).expect("own frame decodes"))));
    out.put("wire.allocs_per_job", (allocs() - allocs_before) as f64 / BATCH as f64);

    let (n_enc, ns) = repeat_for(rung_budget(), || {
        black_box(black_box(&batch).encode());
        for ack in &acks {
            black_box(black_box(ack).encode());
        }
    });
    out.put("wire.encode_ns_per_job", ns / (n_enc * BATCH as u64) as f64);
    let (n_dec, ns) = repeat_for(rung_budget(), || {
        black_box(WireMsg::decode(black_box(&batch_frame)).expect("own frame decodes"));
        for frame in &ack_frames {
            black_box(WireMsg::decode(black_box(frame)).expect("own frame decodes"));
        }
    });
    out.put("wire.decode_ns_per_job", ns / (n_dec * BATCH as u64) as f64);

    let announce =
        WireMsg::Workflow { id: WorkflowId(0), name: "announce".into(), dag: dag_text.to_string() };
    let (n, ns) = repeat_for(rung_budget(), || {
        let frame = black_box(&announce).encode();
        black_box(WireMsg::decode(&frame).expect("own frame decodes"));
    });
    out.put("wire.announce_mb_per_s", dag_text.len() as f64 / 1e6 * n as f64 / (ns / 1e9));
    batch_frame
}

// ---------------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------------

/// The records a master writes for `copies` workflows — one submission,
/// then a Running and a Completed ack per job in dispatch order — under
/// the default commit policy, committed once per 128-ack burst as the serve
/// loop does; then what a restarted master does with the file.
fn journal_rung(out: &mut Out, scratch: &Path, wf: &Arc<Workflow>, order: &[JobId], copies: u32) {
    let path = scratch.join("journal.wal");
    let mut records = 0u64;
    let began = Instant::now();
    {
        let mut journal = Journal::create(&path).expect("create the journal");
        for w in 0..copies {
            journal.record_submit(WorkflowId(w), 0, w as f64).expect("journal a submission");
            records += 1;
            for (i, &job) in order.iter().enumerate() {
                let at = w as f64 + i as f64 * 1e-4;
                for kind in [AckKind::Running, AckKind::Completed] {
                    let ack = AckMsg::new(EnsembleJobId::new(WorkflowId(w), job), 1, kind, 1);
                    journal.record_ack(&ack, at).expect("journal an ack");
                    records += 1;
                }
                if i % 64 == 63 {
                    journal.commit().expect("commit");
                }
            }
        }
        journal.commit().expect("commit");
    }
    let ns = began.elapsed().as_nanos() as f64;
    let bytes = std::fs::metadata(&path).expect("the journal exists").len();
    out.put("journal.append_ns_per_record", ns / records as f64);
    out.put("journal.bytes_per_record", bytes as f64 / records as f64);

    let registry = Registry::new();
    for w in 0..copies {
        registry.insert(WorkflowId(w), Arc::clone(wf));
    }
    let began = Instant::now();
    let read = read_journal(&path).expect("read the journal back");
    let recovery = recover(&read, &registry, EngineConfig::default()).expect("replay the journal");
    let secs = began.elapsed().as_secs_f64();
    assert_eq!(read.len() as u64, records);
    assert!(recovery.engine.all_complete(), "the journaled run had completed");
    out.put("journal.replay_records_per_s", records as f64 / secs);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// net
// ---------------------------------------------------------------------------

/// The real `TcpMaster` and `TcpWorkerLink` over loopback inside this
/// process: first at a window of 64 with batches of 64 (throughput), then
/// with one dispatch in flight (the transport's share of a hop).
fn net_rung(out: &mut Out) {
    const WINDOW: usize = 64;
    let (jobs, pings) = (scaled(128_000), scaled(5_000));
    let wait = Duration::from_secs(10);
    let master =
        TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).expect("bind loopback");
    let link = TcpWorkerLink::connect(
        master.local_addr(),
        Registry::new(),
        TcpWorkerOptions { worker_id: 0, window: WINDOW as u32, ..TcpWorkerOptions::default() },
    )
    .expect("connect over loopback");
    while master.worker_conns() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let worker = std::thread::spawn(move || {
        for _ in 0..jobs + pings {
            let d = link.pull_dispatch(wait).expect("a dispatch arrives");
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, d.attempt));
        }
        link
    });
    let job =
        |i: usize| EnsembleJobId::new(WorkflowId((i >> 20) as u32), JobId(i as u32 & 0xF_FFFF));

    let began = Instant::now();
    let mut run: Vec<DispatchMsg> = Vec::with_capacity(WINDOW);
    for first in (0..jobs).step_by(WINDOW) {
        run.extend((first..first + WINDOW).map(|i| DispatchMsg::new(job(i), 1)));
        master.publish_dispatch_batch(0, &mut run);
    }
    for _ in 0..jobs {
        master.pull_ack(wait).expect("an ack arrives");
    }
    out.put("net.loopback_jobs_per_s", jobs as f64 / began.elapsed().as_secs_f64());

    let mut round_trips_ns: Vec<u64> = (jobs..jobs + pings)
        .map(|i| {
            let began = Instant::now();
            master.publish_dispatch(0, DispatchMsg::new(job(i), 1));
            master.pull_ack(wait).expect("an ack arrives");
            began.elapsed().as_nanos() as u64
        })
        .collect();
    round_trips_ns.sort_unstable();
    let p50 = percentile_nearest_rank(&round_trips_ns, 50.0).expect("samples");
    out.put("net.pingpong_p50_us", p50 as f64 / 1e3);

    worker.join().expect("worker thread").close();
    master.shutdown();
}

// ---------------------------------------------------------------------------
// liveness
// ---------------------------------------------------------------------------

/// Every edge of the liveness table a lease-enabled master walks per ack:
/// heartbeats, Running/Completed admissions, a drain, lease expiry with
/// requeue, and fenced late acks (the churn `hotpath` also uses).
fn liveness_rung(out: &mut Out) {
    const WORKERS: u32 = 8;
    const JOBS_PER_WORKER: u32 = 16;
    let mut table = LivenessTable::new(1.0);
    let (mut transitions, mut requeue) = (Vec::new(), Vec::new());
    let job = |r: u64, w: u32, j: u32| {
        EnsembleJobId::new(WorkflowId(r as u32), JobId(w * JOBS_PER_WORKER + j))
    };
    let mut ops = 0u64;
    let mut round = 0u64;
    let (_, ns) = repeat_for(rung_budget(), || {
        let (r, t0) = (round, round as f64 * 10.0);
        round += 1;
        for w in 0..WORKERS {
            let beat = LifecycleMsg::new(w, r as u32, LifecycleKind::Heartbeat);
            table.on_lifecycle(&beat, t0, &mut transitions, &mut requeue);
            ops += 1;
        }
        requeue.clear();
        for w in 0..WORKERS {
            for j in 0..JOBS_PER_WORKER {
                let running = AckMsg::new(job(r, w, j), w, AckKind::Running, 1);
                table.admit_ack(&running, t0 + 0.1, &mut transitions);
                ops += 1;
                if w % 2 == 0 {
                    let done = AckMsg::new(running.job, w, AckKind::Completed, 1);
                    table.admit_ack(&done, t0 + 0.2, &mut transitions);
                    ops += 1;
                }
            }
        }
        let drain = LifecycleMsg::new(7, r as u32, LifecycleKind::Drain);
        table.on_lifecycle(&drain, t0 + 0.3, &mut transitions, &mut requeue);
        for j in 0..JOBS_PER_WORKER {
            let done = AckMsg::new(job(r, 7, j), 7, AckKind::Completed, 1);
            table.admit_ack(&done, t0 + 0.4, &mut transitions);
            ops += 1;
        }
        table.expire_due(t0 + 2.0, &mut transitions, &mut requeue);
        for entry in requeue.drain(..) {
            table.admit_ack(&entry.as_failed_ack(), t0 + 2.0, &mut transitions);
            ops += 1;
        }
        for w in (1..WORKERS).step_by(2) {
            let late = AckMsg::new(job(r, w, 0), w, AckKind::Completed, 1);
            table.admit_ack(&late, t0 + 2.1, &mut transitions);
            ops += 1;
        }
        transitions.clear();
    });
    out.put("liveness.ns_per_ack", ns / ops as f64);
}

// ---------------------------------------------------------------------------

struct Args {
    dag: PathBuf,
    workflows: usize,
    interval_secs: Option<f64>,
    scratch: PathBuf,
    spans: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Option<Args> {
    let (mut dag, mut workflows, mut interval_secs, mut scratch, mut spans) =
        (None, None, None, None, None);
    let mut smoke = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next()?;
        match flag.as_str() {
            "--dag" => dag = Some(PathBuf::from(value)),
            "--workflows" => workflows = Some(value.parse().ok().filter(|&n| n > 0)?),
            "--interval" => interval_secs = Some(value.parse().ok()?),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(Args { dag: dag?, workflows: workflows?, interval_secs, scratch: scratch?, spans, smoke })
}

fn main() {
    let Some(args) = parse_args() else {
        eprintln!(
            "usage: layers --dag <file> --workflows N [--interval S] --scratch <dir> \
             [--spans <file>] [--smoke]"
        );
        exit(2);
    };
    SMOKE.store(args.smoke, Ordering::Relaxed);
    let text = match std::fs::read_to_string(&args.dag) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("layers: read {}: {e}", args.dag.display());
            exit(1);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("layers: {}: {e}", args.scratch.display());
        exit(1);
    }
    let wf = match parse_workflow(&text) {
        Ok(wf) => Arc::new(wf),
        Err(e) => {
            eprintln!("layers: {}: {e}", args.dag.display());
            exit(1);
        }
    };
    let workflows: Vec<Arc<Workflow>> = (0..args.workflows).map(|_| Arc::clone(&wf)).collect();

    let mut out = Out::default();
    let order = dag_rung(&mut out, &text, &wf);
    let run = sim_rung(&mut out, &workflows, args.interval_secs, args.spans.as_deref());
    engine_rung(&mut out, &workflows, &run);
    kernel_rung(&mut out, run.mean_running.round() as usize);
    drop(run);
    out.put("simcloud.fairshare_ns_per_flow_32", fairshare_ns_per_flow(32));
    out.put("simcloud.fairshare_ns_per_flow_1280", fairshare_ns_per_flow(1280));
    for (name, share) in
        [("simcloud.readcache_ns_per_op_hit51", 0.51), ("simcloud.readcache_ns_per_op_hit94", 0.94)]
    {
        let (ns, achieved) = readcache_ns_per_op(share);
        eprintln!("layers: {name}: hit share {achieved:.3}");
        out.put(name, ns);
    }
    storage_rung(&mut out, &wf, &order);
    let batch_frame = wire_rung(&mut out, &text);
    mq_rung(&mut out, &batch_frame);
    journal_rung(&mut out, &args.scratch, &wf, &order, args.workflows.min(8) as u32);
    net_rung(&mut out);
    liveness_rung(&mut out);
    out.print();
}
