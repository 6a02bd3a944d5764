//! `bench` — the end-to-end driver. It runs the real binaries (`dewectl`,
//! `dewe-masterd`, `dewe-workerd`, plus the benchmark's own `gen-inputs`,
//! `chain-worker` and `layers`) as processes, times them by wall clock,
//! samples them through `/proc`, checks what they print, and reports
//! medians over reps. It calls nothing in the `dewe` library, so it builds
//! and measures the same way on both sides of any later change.
//!
//! ```text
//! bench [run] --workload <w> [--seed N] [--seconds S | --reps N]
//!             [--trace 0|1] [--smoke]
//! bench layers --workload <w> [--seed N] [--smoke]
//! ```
//!
//! The last line of standard output is the result object the benchmark
//! contract asks for. Binaries are looked up beside this executable; all
//! files are written under `<that directory>/../bench-work/`.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{exit, Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dewe_benchmark::parse::{self, SimStats};
use dewe_benchmark::procfs::{Sampler, Usage};
use dewe_benchmark::spec;
use dewe_benchmark::stats::{median, percentile_nearest_rank, Summary};

/// Jobs in one Montage 6.0° workflow; 200 of them are the paper's ensemble.
const MONTAGE_JOBS: u64 = 8586;
const MONTAGE_DAG: &str = "montage-6.0.dag";
/// How often a run repeats its set-up to report a median `setup_s`.
const SETUP_REPS: usize = 3;
/// How long workers get to exit after the master has.
const WORKER_EXIT_GRACE: Duration = Duration::from_secs(3);

/// What one rep runs. Sizes were chosen so that a rep takes 1–3 s on the
/// two-core sandbox and a run of `run_seconds` holds at least five.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `dewectl simulate montage-6.0.dag --nodes 40 --workflows W [--interval S]`.
    Sim { workflows: u64, interval: Option<u32> },
    /// masterd + 2 × `dewe-workerd --runner noop` + one `dewectl submit --count N`.
    Wide { count: u64 },
    /// masterd + `chain-worker` + `chains` chain workflows of `len` jobs
    /// submitted one at a time, each when the previous one has completed.
    Chain { chains: u64, len: u64 },
}

struct Workload {
    name: &'static str,
    shape: Shape,
    /// The shape `--smoke` runs, and the warm-up rep of every set-up.
    smoke: Shape,
    /// Hard deadline of one rep, about 5× what it takes on the sandbox.
    deadline: Duration,
}

const SMOKE_SIM: Shape = Shape::Sim { workflows: 5, interval: None };
const SMOKE_WIDE: Shape = Shape::Wide { count: 2 };
const SMOKE_CHAIN_LEN: u64 = 500;
const SMOKE_CHAIN: Shape = Shape::Chain { chains: 2, len: SMOKE_CHAIN_LEN };
/// Workflow-sized chains: hop latency rose about fivefold past 65k jobs in
/// one workflow, a size no paper workload reaches.
const FULL_CHAIN: Shape = Shape::Chain { chains: 4, len: MONTAGE_JOBS };

fn workload(name: &str) -> Option<Workload> {
    let name = *spec::WORKLOADS.iter().find(|w| **w == name)?;
    let (shape, smoke, deadline_secs) = match name {
        "sim-paper" => (Shape::Sim { workflows: 200, interval: None }, SMOKE_SIM, 20),
        "sim-staggered" => (
            Shape::Sim { workflows: 200, interval: Some(50) },
            Shape::Sim { workflows: 5, interval: Some(50) },
            20,
        ),
        "tcp-wide" => (Shape::Wide { count: 10 }, SMOKE_WIDE, 15),
        "tcp-chain" => (FULL_CHAIN, SMOKE_CHAIN, 20),
        _ => unreachable!("spec::WORKLOADS and this table list the same names"),
    };
    Some(Workload { name, shape, smoke, deadline: Duration::from_secs(deadline_secs) })
}

/// Where things are, and how this invocation runs.
struct Ctx {
    bin_dir: PathBuf,
    /// `bench-work/<workload>/`.
    work: PathBuf,
    /// Traced run: samplers also read `/proc/<pid>/io` and per-thread
    /// context switches.
    trace: bool,
    /// `--smoke`: tell `layers` to cut its rungs short too.
    smoke: bool,
    /// `(file, bytes)` of every generated input.
    inputs: Vec<(String, u64)>,
    /// The CPU chain fleets are pinned to (see [`Ctx::fleet_command`]).
    pin_cpu: Option<String>,
    /// Fault injection for the benchmark's own test: kill the master of the
    /// first timed rep this long after its submission starts.
    kill_master_after: Cell<Option<Duration>>,
}

impl Ctx {
    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
    fn input(&self, file: &str) -> PathBuf {
        self.work.join("inputs").join(file)
    }
    fn input_bytes(&self, file: &str) -> u64 {
        self.inputs.iter().find(|i| i.0 == file).map_or(0, |i| i.1)
    }

    /// The command that starts `bin` as part of a fleet of `shape`.
    ///
    /// A chain fleet runs on one CPU (`taskset`). With its threads spread
    /// over the sandbox's two virtual CPUs every hand-off is a cross-CPU
    /// wake-up, whose cost in this VM flips between two regimes (44 and
    /// 180 µs per hop) as the scheduler moves threads — a 4× swing that
    /// says nothing about the code. On one CPU a hand-off is a context
    /// switch, and the hop time is the software's.
    fn fleet_command(&self, shape: Shape, bin: &str) -> Command {
        match (&self.pin_cpu, shape) {
            (Some(cpu), Shape::Chain { .. }) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", cpu]).arg(self.bin(bin));
                cmd
            }
            _ => Command::new(self.bin(bin)),
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

enum Event {
    Line(String),
    /// Standard output closed — the process is exiting — at this instant.
    Eof(Instant),
}

/// A child whose stdout is read line by line on a thread of its own (and
/// copied to a log file), so that the driver can block on it with a
/// deadline. Dropping it kills and reaps the process: no path out of a rep,
/// a panic included, leaves a child behind.
struct Proc {
    name: String,
    child: Child,
    events: Receiver<Event>,
    reader: Option<JoinHandle<()>>,
    sampler: Option<Sampler>,
    stdout: String,
    eof_at: Option<Instant>,
}

/// What a finished process leaves.
struct Exit {
    success: bool,
    eof_at: Instant,
    usage: Usage,
    stdout: String,
}

impl Proc {
    /// `sample` attaches a `/proc` sampler.
    fn spawn(
        ctx: &Ctx,
        logs: &Path,
        name: &str,
        cmd: &mut Command,
        sample: bool,
    ) -> Result<Self, String> {
        let err_log = File::create(logs.join(format!("{name}.err")))
            .map_err(|e| format!("{name}: stderr log: {e}"))?;
        let mut out_log = File::create(logs.join(format!("{name}.out")))
            .map_err(|e| format!("{name}: stdout log: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("{name}: spawn {:?}: {e}", cmd.get_program()))?;
        let sampler = sample.then(|| Sampler::spawn(child.id(), ctx.trace));
        let pipe = child.stdout.take().expect("stdout was piped");
        let (tx, events) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = writeln!(out_log, "{line}");
                if tx.send(Event::Line(line)).is_err() {
                    return;
                }
            }
            let _ = tx.send(Event::Eof(Instant::now()));
        });
        Ok(Self {
            name: name.to_string(),
            child,
            events,
            reader: Some(reader),
            sampler,
            stdout: String::new(),
            eof_at: None,
        })
    }

    /// Blocks for the next stdout line; `Ok(None)` once the process exits.
    fn next_line(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        if self.eof_at.is_some() {
            return Ok(None);
        }
        match self.events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Event::Line(line)) => {
                self.stdout.push_str(&line);
                self.stdout.push('\n');
                Ok(Some(line))
            }
            Ok(Event::Eof(at)) => {
                self.eof_at = Some(at);
                Ok(None)
            }
            Err(RecvTimeoutError::Timeout) => Err(format!("{}: hit its deadline", self.name)),
            Err(RecvTimeoutError::Disconnected) => {
                Err(format!("{}: output reader died", self.name))
            }
        }
    }

    /// Blocks until a line satisfies `pick`, or fails if the process exits first.
    fn wait_for<T>(
        &mut self,
        deadline: Instant,
        what: &str,
        pick: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        while let Some(line) = self.next_line(deadline)? {
            if let Some(found) = pick(&line) {
                return Ok(found);
            }
        }
        Err(format!("{}: exited before printing {what}", self.name))
    }

    /// Blocks until the process has exited, then reaps it.
    fn finish(mut self, deadline: Instant) -> Result<Exit, String> {
        while self.next_line(deadline)?.is_some() {}
        // The zombie keeps its final CPU totals until it is waited for, so
        // the sampler goes first.
        let usage = self.sampler.take().map(Sampler::finish).unwrap_or_default();
        let status = self.child.wait().map_err(|e| format!("{}: wait: {e}", self.name))?;
        Ok(Exit {
            success: status.success(),
            eof_at: self.eof_at.expect("next_line saw the end"),
            usage,
            stdout: std::mem::take(&mut self.stdout),
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // After `finish` these are no-ops on a reaped child.
        let _ = self.child.kill();
        if let Some(sampler) = self.sampler.take() {
            sampler.finish();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

// ---------------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------------

/// What one rep measured. A rep that could not finish is the default value
/// with `jobs == failed`.
#[derive(Default)]
struct Rep {
    /// Jobs submitted.
    jobs: u64,
    /// Jobs not completed exactly once.
    failed: u64,
    /// Timed section: sim spawn → exit; tcp first submit → master exit.
    wall_s: f64,
    /// Jobs per second: `jobs / wall_s`, except for a chain, where it is
    /// hops per second of hop time on the worker's clock — that leaves out
    /// the up-to-50 ms the master takes to notice each submission, which on
    /// a 0.3 s chain is noise as large as the signal.
    jobs_per_s: f64,
    /// The process that owns the engine: `dewectl simulate` or `dewe-masterd`.
    owner: Usage,
    workers: Vec<Usage>,
    sim: Option<(SimStats, String)>,
    submit_s: f64,
    dag_bytes: u64,
    wal_bytes: u64,
    resubmissions: u64,
    hops_ns: Vec<u64>,
    /// Why the outputs are not correct; empty when they are.
    problems: Vec<String>,
}

impl Rep {
    fn failed(jobs: u64, why: String) -> Self {
        Self { jobs, failed: jobs, problems: vec![why], ..Self::default() }
    }
    fn good(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

impl Shape {
    fn jobs(self) -> u64 {
        match self {
            Shape::Sim { workflows, .. } => workflows * MONTAGE_JOBS,
            Shape::Wide { count } => count * MONTAGE_JOBS,
            Shape::Chain { chains, len } => chains * len,
        }
    }

    /// The generated file the shape feeds to the binaries.
    fn dag(self) -> String {
        match self {
            Shape::Chain { len, .. } => format!("chain-{len}.dag"),
            _ => MONTAGE_DAG.to_string(),
        }
    }
}

/// Run one rep of `shape` in fresh processes; `label` names its log directory.
fn run_rep(ctx: &Ctx, shape: Shape, label: &str, limit: Duration) -> Rep {
    let jobs = shape.jobs();
    let logs = ctx.work.join("logs").join(label);
    if let Err(e) = std::fs::create_dir_all(&logs) {
        return Rep::failed(jobs, format!("{}: {e}", logs.display()));
    }
    let deadline = Instant::now() + limit;
    let result = match shape {
        Shape::Sim { workflows, interval } => run_sim(ctx, &logs, workflows, interval, deadline),
        Shape::Wide { .. } | Shape::Chain { .. } => run_tcp(ctx, &logs, shape, deadline),
    };
    match result {
        Ok(rep) => rep,
        Err(why) => Rep::failed(jobs, format!("{label}: {why}")),
    }
}

fn run_sim(
    ctx: &Ctx,
    logs: &Path,
    workflows: u64,
    interval: Option<u32>,
    deadline: Instant,
) -> Result<Rep, String> {
    let jobs = workflows * MONTAGE_JOBS;
    let mut cmd = Command::new(ctx.bin("dewectl"));
    cmd.arg("simulate").arg(ctx.input(MONTAGE_DAG));
    cmd.args(["--nodes", "40", "--workflows", &workflows.to_string()]);
    if let Some(secs) = interval {
        cmd.args(["--interval", &secs.to_string()]);
    }
    let started = Instant::now();
    let exit = Proc::spawn(ctx, logs, "dewectl-simulate", &mut cmd, true)?.finish(deadline)?;
    let wall_s = exit.eof_at.duration_since(started).as_secs_f64();
    let mut rep =
        Rep { jobs, wall_s, jobs_per_s: jobs as f64 / wall_s, owner: exit.usage, ..Rep::default() };
    match parse::parse_simulate(&exit.stdout) {
        Some(stats) if exit.success => {
            rep.failed = jobs.abs_diff(stats.jobs).min(jobs);
            if stats.jobs != jobs {
                rep.problems.push(format!("simulate completed {} of {jobs} jobs", stats.jobs));
            }
            rep.sim = Some((stats, exit.stdout));
        }
        _ => {
            rep.failed = jobs;
            rep.problems.push("dewectl simulate failed or printed no report".into());
        }
    }
    Ok(rep)
}

fn run_tcp(ctx: &Ctx, logs: &Path, shape: Shape, deadline: Instant) -> Result<Rep, String> {
    let jobs = shape.jobs();
    // Per-rep state directory (spool + WAL), removed when the rep ends.
    let state = logs.join("state");
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let rep = run_fleet(ctx, logs, &state, shape, jobs, deadline);
    let _ = std::fs::remove_dir_all(&state);
    rep
}

fn run_fleet(
    ctx: &Ctx,
    logs: &Path,
    state: &Path,
    shape: Shape,
    jobs: u64,
    deadline: Instant,
) -> Result<Rep, String> {
    let expect = match shape {
        Shape::Wide { count } => count,
        Shape::Chain { chains, .. } => chains,
        Shape::Sim { .. } => unreachable!("sim reps have no fleet"),
    };
    let dag = ctx.input(&shape.dag());
    let wal = state.join("master.wal");
    let hops_file = state.join("hops.txt");

    // The flags README.md's "Running a real cluster" deploys with.
    let mut cmd = ctx.fleet_command(shape, "dewe-masterd");
    cmd.args(["--listen", "127.0.0.1:0", "--expect", &expect.to_string()]);
    cmd.arg("--state-dir").arg(state).arg("--journal").arg(&wal);
    cmd.args(["--lease-secs", "30", "--timeout", "600"]);
    let mut master = Proc::spawn(ctx, logs, "dewe-masterd", &mut cmd, true)?;
    let addr = master
        .wait_for(deadline, "its address", |l| parse::parse_listening(l).map(String::from))?;

    let mut workers = Vec::new();
    match shape {
        Shape::Wide { .. } => {
            for id in ["1", "2"] {
                let mut cmd = ctx.fleet_command(shape, "dewe-workerd");
                cmd.args(["--master", &addr, "--id", id, "--slots", "2", "--window", "64"]);
                cmd.args(["--heartbeat", "5", "--runner", "noop"]);
                workers.push(Proc::spawn(
                    ctx,
                    logs,
                    &format!("dewe-workerd-{id}"),
                    &mut cmd,
                    true,
                )?);
            }
        }
        _ => {
            let mut cmd = ctx.fleet_command(shape, "chain-worker");
            cmd.args(["--master", &addr]).arg("--hops").arg(&hops_file);
            workers.push(Proc::spawn(ctx, logs, "chain-worker", &mut cmd, true)?);
        }
    }
    for w in &mut workers {
        w.wait_for(deadline, "that it is serving", |l| l.contains("serving").then_some(()))?;
    }

    let submit = |n: usize, count: u64| -> Result<Proc, String> {
        let mut cmd = ctx.fleet_command(shape, "dewectl");
        cmd.arg("submit").arg(&addr).arg(&dag).args(["--count", &count.to_string()]);
        Proc::spawn(ctx, logs, &format!("dewectl-submit-{n}"), &mut cmd, false)
    };
    let started = Instant::now();
    let mut submit_s = 0.0;
    let submissions = match shape {
        Shape::Wide { count } => vec![count],
        _ => vec![1; expect as usize],
    };
    for (n, &count) in submissions.iter().enumerate() {
        if n > 0 {
            let previous = n as u32 - 1;
            master.wait_for(deadline, "a workflow completion", |l| {
                (parse::parse_workflow_completed(l) == Some(previous)).then_some(())
            })?;
        }
        let began = Instant::now();
        let submitting = submit(n, count)?;
        if let Some(after) = ctx.kill_master_after.take() {
            std::thread::sleep(after);
            let _ = master.child.kill();
        }
        let exit = submitting.finish(deadline)?;
        submit_s += exit.eof_at.duration_since(began).as_secs_f64();
        if !exit.success {
            return Err("dewectl submit failed".into());
        }
    }
    let master = master.finish(deadline)?;
    let wall_s = master.eof_at.duration_since(started).as_secs_f64();
    let mut rep = Rep {
        jobs,
        wall_s,
        jobs_per_s: jobs as f64 / wall_s,
        owner: master.usage,
        submit_s,
        dag_bytes: ctx.input_bytes(&shape.dag()) * expect,
        wal_bytes: std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0),
        ..Rep::default()
    };

    // Workers leave on the master's Bye; one that does not is killed (by
    // `Drop`) and fails the rep.
    let grace = Instant::now() + WORKER_EXIT_GRACE;
    let mut executed = 0;
    let mut order_violations = 0;
    for w in workers {
        let name = w.name.clone();
        match w.finish(grace) {
            Ok(exit) => {
                let last = exit.stdout.lines().last().unwrap_or("");
                match parse::parse_jobs_executed(last) {
                    Some(n) if exit.success => executed += n,
                    _ => rep.problems.push(format!("{name}: no closing line, or a failed exit")),
                }
                order_violations += parse::parse_order_violations(last).unwrap_or(0);
                rep.workers.push(exit.usage);
            }
            Err(why) => rep.problems.push(format!("{why}: left a live process behind")),
        }
    }
    if let Ok(text) = std::fs::read_to_string(&hops_file) {
        rep.hops_ns = text.lines().filter_map(|l| l.parse().ok()).collect();
    }

    let done = master.stdout.lines().rev().find_map(parse::parse_master_done);
    match done {
        Some(done) if master.success => {
            rep.resubmissions = done.resubmissions;
            let not_once = jobs.saturating_sub(done.jobs_completed)
                + done.resubmissions
                + done.dead_lettered
                + order_violations
                + executed.abs_diff(jobs);
            rep.failed = not_once.min(jobs);
            if rep.failed > 0 {
                rep.problems.push(format!(
                    "master completed {} of {jobs} jobs ({} resubmissions, {} dead-lettered), \
                     workers executed {executed} ({order_violations} out of order)",
                    done.jobs_completed, done.resubmissions, done.dead_lettered
                ));
            }
        }
        _ => {
            rep.failed = jobs;
            rep.problems.push("dewe-masterd failed or printed no closing line".into());
        }
    }
    if matches!(shape, Shape::Chain { .. }) && rep.failed == 0 {
        let want = (jobs - expect) as usize;
        if rep.hops_ns.len() != want {
            rep.problems
                .push(format!("chain-worker logged {} hops, expected {want}", rep.hops_ns.len()));
        }
        rep.jobs_per_s = rep.hops_ns.len() as f64 / (rep.hops_ns.iter().sum::<u64>() as f64 / 1e9);
    }
    Ok(rep)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Generate the inputs from the seed and check their shape.
fn gen_inputs(ctx: &mut Ctx, seed: u64) -> Result<(), String> {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Both chain lengths, so that a smoke-size warm-up or companion rep and
    // a full-size rep each find their file.
    let want = [
        (MONTAGE_DAG.to_string(), MONTAGE_JOBS),
        (SMOKE_CHAIN.dag(), SMOKE_CHAIN_LEN),
        (FULL_CHAIN.dag(), MONTAGE_JOBS),
    ];
    let mut cmd = Command::new(ctx.bin("gen-inputs"));
    cmd.arg("--out").arg(&dir).args(["--seed", &seed.to_string()]);
    for (_, len) in &want[1..] {
        cmd.args(["--chain-len", &len.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("gen-inputs: {e}"))?;
    if !out.status.success() {
        return Err(format!("gen-inputs failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    ctx.inputs.clear();
    for (file, jobs) in want {
        // `gen-inputs: <file> <jobs> jobs <bytes> bytes`
        let line = text.lines().find(|l| l.split(' ').nth(1) == Some(&file)).unwrap_or("");
        let mut numbers = line.split(' ').skip(2).filter_map(|w| w.parse::<u64>().ok());
        match (numbers.next(), numbers.next()) {
            (Some(j), Some(bytes)) if j == jobs => ctx.inputs.push((file, bytes)),
            _ => return Err(format!("input shape: {file} is not {jobs} jobs: {line:?}")),
        }
    }
    Ok(())
}

/// One set-up: inputs from the seed, then a warm-up rep at smoke size so
/// the binaries and the input files are in the page cache. Returns its
/// `(gen_inputs_s, warmup_s)`.
fn setup_once(ctx: &mut Ctx, wl: &Workload, seed: u64, k: usize) -> Result<(f64, f64), String> {
    let began = Instant::now();
    gen_inputs(ctx, seed)?;
    let gen_s = began.elapsed().as_secs_f64();
    let began = Instant::now();
    let warm = run_rep(ctx, wl.smoke, &format!("setup-{k}"), wl.deadline);
    if !warm.good() {
        return Err(format!("warm-up rep failed: {}", warm.problems.join("; ")));
    }
    Ok((gen_s, began.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name → value; units and order come from the `spec` list.
    values: Vec<(String, f64)>,
}

impl Report {
    /// Every metric of `listed` as `name value unit`, then the contract's
    /// result line. A listed metric without a finite value makes the run
    /// incorrect.
    fn print(&self, listed: &[(&str, &str)]) {
        let mut correct = self.correct;
        let mut metrics = Vec::new();
        for (name, unit) in listed {
            match self.values.iter().find(|v| v.0 == *name).map(|v| v.1) {
                Some(value) if value.is_finite() => {
                    println!("{name} {value} {unit}");
                    metrics
                        .push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
                }
                _ => {
                    eprintln!("bench: metric {name} is missing");
                    correct = false;
                }
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn describe(name: &str, values: &[f64]) {
    if let Some(s) = Summary::of(values) {
        match s.quartiles {
            Some((q1, q3)) => {
                eprintln!("bench: {name}: n={} median={} q1={q1} q3={q3}", s.n, s.median)
            }
            None => eprintln!("bench: {name}: n={} median={}", s.n, s.median),
        }
    }
}

/// The timed loop: reps of the workload's shape, back to back, until the
/// next one would not fit into `seconds` (or `reps` have run).
fn measure(ctx: &Ctx, wl: &Workload, seconds: f64, reps: Option<usize>) -> Vec<Rep> {
    let began = Instant::now();
    let mut done: Vec<Rep> = Vec::new();
    loop {
        let rep = run_rep(ctx, wl.shape, &format!("rep-{}", done.len()), wl.deadline);
        eprintln!(
            "bench: rep-{}: {} jobs in {:.4} s, {:.1} jobs/s, {:.3} CPU-s, {:.1} MiB{}",
            done.len(),
            rep.jobs,
            rep.wall_s,
            rep.jobs_per_s,
            rep.owner.cpu_secs,
            rep.owner.peak_rss_mib,
            if rep.good() { "" } else { " — FAILED" }
        );
        done.push(rep);
        let elapsed = began.elapsed().as_secs_f64();
        let stop = match reps {
            Some(n) => done.len() >= n,
            None => elapsed + elapsed / done.len() as f64 > seconds,
        };
        if stop {
            return done;
        }
    }
}

/// Sim reps of one run get the same inputs, so everything they print must
/// be identical.
fn sim_determinism_problem(reps: &[Rep]) -> Option<String> {
    let mut outputs = reps.iter().filter_map(|r| r.sim.as_ref()).map(|(_, text)| text);
    let first = outputs.next()?;
    outputs
        .any(|o| o != first)
        .then(|| "simulated results differ between reps of one run".to_string())
}

fn end_to_end(setup_s: f64, reps: &[Rep]) -> Report {
    let good: Vec<&Rep> = reps.iter().filter(|r| r.good()).collect();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { good.iter().map(|r| f(r)).collect() };
    let jobs_per_s = per_rep(&|r| r.jobs_per_s);
    let rss = per_rep(&|r| r.owner.peak_rss_mib);
    describe("jobs_per_s", &jobs_per_s);
    describe("cpu_us_per_job (per rep)", &per_rep(&|r| r.owner.cpu_secs * 1e6 / r.jobs as f64));
    describe("peak_rss_mib", &rss);
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    // `/proc` reports CPU time in 10 ms ticks, a fiftieth of a short rep's
    // total, so a median of per-rep values could only take a few values.
    // Pooled over the run's reps the step is a fifth of a percent or less.
    let cpu_secs: f64 = good.iter().map(|r| r.owner.cpu_secs).sum();
    let cpu_us = cpu_secs * 1e6 / good.iter().map(|r| r.jobs).sum::<u64>() as f64;
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    problems.extend(sim_determinism_problem(reps));
    for p in &problems {
        eprintln!("bench: INCORRECT: {p}");
    }
    Report {
        correct: problems.is_empty(),
        attempted: reps.iter().map(|r| r.jobs).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        values: [
            ("setup_s", setup_s),
            ("jobs_per_s", med(&jobs_per_s)),
            ("cpu_us_per_job", cpu_us),
            ("peak_rss_mib", med(&rss)),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into(),
    }
}

/// Arguments that make `layers` drive every layer with this workload's inputs.
fn layers_command(ctx: &Ctx, shape: Shape) -> Command {
    let mut cmd = Command::new(ctx.bin("layers"));
    let (workflows, interval) = match shape {
        Shape::Sim { workflows, interval } => (workflows, interval),
        Shape::Wide { count } => (count, None),
        Shape::Chain { chains, .. } => (chains, None),
    };
    cmd.arg("--dag").arg(ctx.input(&shape.dag())).args(["--workflows", &workflows.to_string()]);
    if let Some(secs) = interval {
        cmd.args(["--interval", &secs.to_string()]);
    }
    cmd.arg("--scratch").arg(ctx.work.join("layers-scratch"));
    cmd.arg("--spans").arg(ctx.work.join("spans.tsv"));
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Run the `layers` bin and collect its `name value unit` lines. A build
/// that lost the bin (an API break in one rung) loses this section only.
fn run_layers(ctx: &Ctx, shape: Shape) -> Vec<(String, f64)> {
    let out = match layers_command(ctx, shape).stderr(Stdio::inherit()).output() {
        Ok(out) if out.status.success() => out,
        Ok(out) => {
            eprintln!("bench: layers exited with {}", out.status);
            return Vec::new();
        }
        Err(e) => {
            eprintln!("bench: layers: {e}");
            return Vec::new();
        }
    };
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(parse::parse_metric_line)
        .map(|(name, value, _)| (name.to_string(), value))
        .collect()
}

/// The traced run: one rep of each process shape with the counting sampler
/// (the workload's own shape at full size, the others at smoke size so that
/// every process counter is measured on every workload), then the `layers`
/// ladder driven with the workload's inputs.
fn per_layer(ctx: &Ctx, wl: &Workload) -> Report {
    let own = |candidate: Shape| {
        if std::mem::discriminant(&candidate) == std::mem::discriminant(&wl.shape) {
            wl.shape
        } else {
            candidate
        }
    };
    let sim = run_rep(ctx, own(SMOKE_SIM), "trace-sim", wl.deadline);
    let chain = run_rep(ctx, own(SMOKE_CHAIN), "trace-chain", wl.deadline);
    let wide = (!matches!(wl.shape, Shape::Chain { .. }))
        .then(|| run_rep(ctx, own(SMOKE_WIDE), "trace-wide", wl.deadline));
    // The fleet whose master and workers the `master.*`, `worker.*` and
    // `ingest.*` counters describe.
    let fleet = wide.as_ref().unwrap_or(&chain);
    let layers = run_layers(ctx, wl.shape);
    let layer = |name: &str| layers.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1);

    let jobs = fleet.jobs as f64;
    let per_job = |count: u64| count as f64 / jobs;
    let sum = |f: &dyn Fn(&Usage) -> u64| -> u64 { fleet.workers.iter().map(f).sum() };
    let master_cpu_us = fleet.owner.cpu_secs * 1e6 / jobs;
    // What the ladder accounts for on the master's path, per job: the
    // engine, one dispatch encode and one ack decode, and per ack (two a
    // job) a journal append and a liveness admission.
    let ladder_us = (layer("engine.ns_per_job")
        + layer("wire.encode_ns_per_job")
        + layer("wire.decode_ns_per_job")
        + 2.0 * layer("journal.append_ns_per_record")
        + 2.0 * layer("liveness.ns_per_ack"))
        / 1e3;
    let mut hops = chain.hops_ns.clone();
    hops.sort_unstable();
    let hop_us = |p: f64| percentile_nearest_rank(&hops, p).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let sim_stats = sim.sim.as_ref().map(|s| s.0);
    let stat = |f: &dyn Fn(&SimStats) -> f64| sim_stats.as_ref().map_or(f64::NAN, f);

    let mut values: Vec<(String, f64)> = [
        ("simcloud.makespan_s", stat(&|s| s.makespan_s)),
        ("simcloud.cache_hit_rate", stat(&|s| s.cache_hit_rate * 100.0)),
        ("simcloud.gb_read", stat(&|s| s.gb_read)),
        ("simcloud.gb_written", stat(&|s| s.gb_written)),
        ("simcloud.cpu_core_s", stat(&|s| s.cpu_core_s)),
        ("journal.wal_bytes_per_job", per_job(fleet.wal_bytes)),
        ("master.syscalls_per_job", per_job(fleet.owner.io.syscr + fleet.owner.io.syscw)),
        ("master.io_bytes_per_job", per_job(fleet.owner.io.rchar + fleet.owner.io.wchar)),
        ("master.vol_ctxsw_per_job", per_job(fleet.owner.vol_ctxsw)),
        ("master.invol_ctxsw_per_job", per_job(fleet.owner.invol_ctxsw)),
        ("master.threads", fleet.owner.threads as f64),
        ("master.residual_us_per_job", master_cpu_us - ladder_us),
        (
            "worker.cpu_us_per_job",
            fleet.workers.iter().map(|u| u.cpu_secs).sum::<f64>() * 1e6 / jobs,
        ),
        ("worker.syscalls_per_job", per_job(sum(&|u| u.io.syscr + u.io.syscw))),
        ("worker.vol_ctxsw_per_job", per_job(sum(&|u| u.vol_ctxsw))),
        ("worker.hop_p50_us", hop_us(50.0)),
        ("worker.hop_p90_us", hop_us(90.0)),
        ("worker.hop_p99_us", hop_us(99.0)),
        ("worker.hop_p999_us", hop_us(99.9)),
        ("worker.hop_max_us", hop_us(100.0)),
        ("ingest.submit_s", fleet.submit_s),
        ("ingest.mb_per_s", fleet.dag_bytes as f64 / 1e6 / fleet.submit_s),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .into();
    let tcp_resubmissions =
        (chain.resubmissions + wide.as_ref().map_or(0, |w| w.resubmissions)) as f64;
    for (name, value) in &layers {
        let value = if name == "engine.resubmissions" { value + tcp_resubmissions } else { *value };
        values.push((name.clone(), value));
    }

    let reps: Vec<&Rep> = [Some(&sim), Some(&chain), wide.as_ref()].into_iter().flatten().collect();
    let problems: Vec<&String> = reps.iter().flat_map(|r| &r.problems).collect();
    for p in &problems {
        eprintln!("bench: INCORRECT: {p}");
    }
    let trace_valid = layer("sim.trace_valid") == 1.0;
    if !trace_valid {
        eprintln!("bench: INCORRECT: the traced sim driver did not reproduce run_ensemble");
    }
    Report {
        correct: problems.is_empty() && trace_valid,
        attempted: reps.iter().map(|r| r.jobs).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        values,
    }
}

/// The first CPU this process may run on, if `taskset` is there to pin to it.
fn first_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?.to_string();
    let works = Command::new("taskset").args(["-c", &first, "true"]).stdout(Stdio::null()).status();
    works.is_ok_and(|s| s.success()).then_some(first)
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    layers_only: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    kill_master_after: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [run] --workload <{}> [--seed N] [--seconds S | --reps N] [--trace 0|1] [--smoke]\n\
         \x20      bench layers --workload <w> [--seed N] [--smoke]",
        spec::WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        layers_only: false,
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        reps: None,
        trace: false,
        smoke: false,
        kill_master_after: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("run") => {
            argv.next();
            // `bench run <workload>` as well as `bench run --workload <w>`.
            if argv.peek().is_some_and(|a| !a.starts_with("--")) {
                args.workload = argv.next().expect("peeked");
            }
        }
        Some("layers") => {
            argv.next();
            args.layers_only = true;
        }
        _ => {}
    }
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = argv.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| args.seconds = v).is_ok(),
            "--reps" => value.parse().map(|v: usize| args.reps = Some(v.max(1))).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    args.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--kill-master-after-ms" => value
                .parse()
                .map(|ms| args.kill_master_after = Some(Duration::from_millis(ms)))
                .is_ok(),
            _ => false,
        };
        if !ok {
            usage();
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(mut wl) = workload(&args.workload) else { usage() };
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("an executable lives in a directory").to_path_buf();
    let work = bin_dir.parent().unwrap_or(&bin_dir).join("bench-work").join(wl.name);
    let mut ctx = Ctx {
        bin_dir,
        work,
        trace: args.trace,
        smoke: args.smoke,
        inputs: Vec::new(),
        pin_cpu: first_allowed_cpu(),
        kill_master_after: Cell::new(None),
    };
    if ctx.pin_cpu.is_none() {
        eprintln!(
            "bench: no taskset or no CPU list: chain fleets run unpinned and will be unsteady"
        );
    }
    if args.smoke {
        wl.shape = wl.smoke;
    }
    // Start from nothing: a file left by an earlier run must not be read as
    // this run's.
    let _ = std::fs::remove_dir_all(&ctx.work);

    if args.layers_only {
        if let Err(why) = gen_inputs(&mut ctx, args.seed) {
            eprintln!("bench: {why}");
            exit(1);
        }
        let status = layers_command(&ctx, wl.shape).status();
        exit(if status.is_ok_and(|s| s.success()) { 0 } else { 1 });
    }

    let setups = if args.smoke { 1 } else { SETUP_REPS };
    let mut parts = Vec::new();
    for k in 0..setups {
        match setup_once(&mut ctx, &wl, args.seed, k) {
            Ok(p) => parts.push(p),
            Err(why) => {
                eprintln!("bench: set-up failed: {why}");
                exit(1);
            }
        }
    }
    let totals: Vec<f64> = parts.iter().map(|p| p.0 + p.1).collect();
    let setup_s = median(&totals).expect("at least one set-up ran");
    let part =
        |f: fn(&(f64, f64)) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    eprintln!("bench: setup.gen_inputs_s {} setup.warmup_s {}", part(|p| p.0), part(|p| p.1));
    describe("setup_s", &totals);

    ctx.kill_master_after.set(args.kill_master_after);
    if args.trace {
        per_layer(&ctx, &wl).print(&spec::PER_LAYER);
        return;
    }
    let reps = measure(&ctx, &wl, args.seconds, args.reps.or(args.smoke.then_some(1)));
    if !reps.iter().any(Rep::good) {
        // No rep finished, so there is no time to report: no result line.
        for p in reps.iter().flat_map(|r| &r.problems) {
            eprintln!("bench: INCORRECT: {p}");
        }
        exit(1);
    }
    end_to_end(setup_s, &reps).print(&spec::END_TO_END);
}
