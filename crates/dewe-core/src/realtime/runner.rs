//! Pluggable job execution strategies for the realtime runtime.

use dewe_dag::{JobId, Workflow, WorkflowId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Execution context handed to runners.
pub struct RunContext {
    /// Set when the hosting worker daemon is being killed; runners should
    /// poll it and bail out promptly (the job then vanishes without an
    /// acknowledgment, like a crashed worker process).
    pub cancelled: Arc<AtomicBool>,
    /// Worker id, for diagnostics.
    pub worker: u32,
    /// Which ensemble workflow the job belongs to (the `&Workflow`
    /// argument is the DAG itself; this is its id on the wire).
    pub workflow_id: WorkflowId,
    /// Which dispatch attempt this execution serves (1-based) — lets
    /// runners script per-attempt behavior and test harnesses tap the
    /// execution trace.
    pub attempt: u32,
}

impl RunContext {
    /// True once the hosting worker is being torn down.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Success,
    /// Execution failed; the master will resubmit.
    Failed(String),
    /// The worker died mid-job; no acknowledgment is sent and the master's
    /// timeout mechanism must recover (paper §III.B).
    Cancelled,
}

/// Executes the actual work of a job on a worker.
pub trait JobRunner: Send + Sync {
    /// Run `job` of `workflow`.
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome;
}

/// Runs jobs instantaneously — for protocol/throughput tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRunner;

impl JobRunner for NoopRunner {
    fn run(&self, _workflow: &Workflow, _job: JobId, ctx: &RunContext) -> JobOutcome {
        if ctx.is_cancelled() {
            JobOutcome::Cancelled
        } else {
            JobOutcome::Success
        }
    }
}

/// Sleeps `cpu_seconds * scale` in small cancellable slices — jobs take
/// real wall time proportional to their profile, so scaling behaviour can
/// be observed with real threads.
#[derive(Debug, Clone, Copy)]
pub struct SleepRunner {
    /// Multiplier on each job's `cpu_seconds` (e.g. 0.001 = 1 ms per
    /// CPU-second).
    pub scale: f64,
}

impl SleepRunner {
    /// A runner sleeping `scale` real seconds per CPU-second.
    pub fn new(scale: f64) -> Self {
        assert!(scale >= 0.0);
        Self { scale }
    }
}

impl JobRunner for SleepRunner {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        let total = Duration::from_secs_f64(workflow.job(job).cpu_seconds * self.scale);
        let slice = Duration::from_millis(5).min(total.max(Duration::from_micros(100)));
        let deadline = std::time::Instant::now() + total;
        while std::time::Instant::now() < deadline {
            if ctx.is_cancelled() {
                return JobOutcome::Cancelled;
            }
            std::thread::sleep(slice);
        }
        if ctx.is_cancelled() {
            JobOutcome::Cancelled
        } else {
            JobOutcome::Success
        }
    }
}

/// Burns real CPU (a checked spin loop) for `cpu_seconds * scale` — unlike
/// [`SleepRunner`], concurrent jobs genuinely contend for cores, so
/// wall-clock speedup from adding worker slots is physical, not simulated.
#[derive(Debug, Clone, Copy)]
pub struct CpuRunner {
    /// Real seconds of spinning per CPU-second of profile.
    pub scale: f64,
}

impl CpuRunner {
    /// A runner burning `scale` real seconds per CPU-second.
    pub fn new(scale: f64) -> Self {
        assert!(scale >= 0.0);
        Self { scale }
    }
}

impl JobRunner for CpuRunner {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        let total = Duration::from_secs_f64(workflow.job(job).cpu_seconds * self.scale);
        let deadline = std::time::Instant::now() + total;
        // Spin in small bounded chunks so cancellation stays responsive.
        let mut acc: u64 = 0x9E3779B97F4A7C15;
        while std::time::Instant::now() < deadline {
            if ctx.is_cancelled() {
                return JobOutcome::Cancelled;
            }
            for _ in 0..10_000 {
                acc = acc.rotate_left(7) ^ acc.wrapping_mul(0x100000001b3);
            }
            std::hint::black_box(acc);
        }
        if ctx.is_cancelled() {
            JobOutcome::Cancelled
        } else {
            JobOutcome::Success
        }
    }
}

/// Performs *real file I/O* in a workspace directory, mirroring the
/// paper's shared-file-system data flow: a job reads every input file
/// (verifying it exists and has the expected length) and writes every
/// output file. Because the master only dispatches a job once its parents
/// completed, each read must succeed — executing a workflow under
/// `FsRunner` is an end-to-end test of the precedence machinery.
///
/// File sizes are scaled down by `bytes_per_logical_byte` so a 35 GB
/// workflow can run in a tempdir.
#[derive(Debug, Clone)]
pub struct FsRunner {
    /// Workspace root (one subdirectory per workflow).
    pub root: PathBuf,
    /// Physical bytes written per logical byte of the file spec.
    pub bytes_per_logical_byte: f64,
}

impl FsRunner {
    /// New runner rooted at `root` with the given scale (e.g. `1e-6` turns
    /// a 2.9 MB input into ~3 bytes).
    pub fn new(root: impl Into<PathBuf>, bytes_per_logical_byte: f64) -> Self {
        Self { root: root.into(), bytes_per_logical_byte }
    }

    fn path_for(&self, workflow: &Workflow, file: dewe_dag::FileId) -> PathBuf {
        self.root.join(workflow.name()).join(workflow.file(file).name)
    }

    fn scaled(&self, logical: u64) -> usize {
        ((logical as f64 * self.bytes_per_logical_byte).ceil() as usize).max(1)
    }

    /// Pre-stage all initial input files of a workflow (the paper downloads
    /// inputs to the storage device before the experiments).
    pub fn stage_inputs(&self, workflow: &Workflow) -> std::io::Result<()> {
        let dir = self.root.join(workflow.name());
        std::fs::create_dir_all(&dir)?;
        for f in workflow.file_ids() {
            let spec = workflow.file(f);
            if spec.initial {
                let bytes = Self::content(spec.name, self.scaled(spec.size_bytes));
                std::fs::write(self.path_for(workflow, f), bytes)?;
            }
        }
        Ok(())
    }

    /// Deterministic pseudo-random file content derived from the file name
    /// (FNV-1a keystream). Because every run writes the same bytes for the
    /// same logical file, checksums are comparable across runs and engines.
    fn content(name: &str, len: usize) -> Vec<u8> {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut out = Vec::with_capacity(len);
        let mut x = h | 1;
        while out.len() < len {
            // xorshift64 keystream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Checksum the workflow's terminal outputs (files produced by sink
    /// jobs) — the one-machine analogue of the paper's verification that
    /// DEWE v2 and Pegasus produce byte-identical final mosaics ("we verify
    /// that the results ... are identical by comparing the size and MD5
    /// check sum of the final output images", §V.A).
    pub fn checksum_outputs(&self, workflow: &Workflow) -> std::io::Result<u64> {
        let mut h: u64 = 0xcbf29ce484222325;
        for sink in workflow.sinks() {
            for &f in &workflow.job(sink).outputs {
                let data = std::fs::read(self.path_for(workflow, f))?;
                for b in data {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
        }
        Ok(h)
    }
}

impl JobRunner for FsRunner {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        if ctx.is_cancelled() {
            return JobOutcome::Cancelled;
        }
        let spec = workflow.job(job);
        // Read phase: every input must exist with the expected size.
        for &f in &spec.inputs {
            let path = self.path_for(workflow, f);
            match std::fs::read(&path) {
                Ok(data) => {
                    let expect = self.scaled(workflow.file(f).size_bytes);
                    if data.len() != expect {
                        return JobOutcome::Failed(format!(
                            "{}: input {} has {} bytes, expected {expect}",
                            spec.name,
                            path.display(),
                            data.len()
                        ));
                    }
                }
                Err(e) => {
                    return JobOutcome::Failed(format!(
                        "{}: missing input {}: {e}",
                        spec.name,
                        path.display()
                    ));
                }
            }
        }
        if ctx.is_cancelled() {
            return JobOutcome::Cancelled;
        }
        // Write phase: deterministic content keyed by file name, so final
        // outputs checksum identically across runs and engines.
        for &f in &spec.outputs {
            let path = self.path_for(workflow, f);
            let spec_f = workflow.file(f);
            let bytes = Self::content(spec_f.name, self.scaled(spec_f.size_bytes));
            if let Err(e) = std::fs::write(&path, bytes) {
                return JobOutcome::Failed(format!(
                    "{}: cannot write {}: {e}",
                    spec.name,
                    path.display()
                ));
            }
        }
        JobOutcome::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    fn ctx() -> RunContext {
        RunContext {
            cancelled: Arc::new(AtomicBool::new(false)),
            worker: 0,
            workflow_id: WorkflowId(0),
            attempt: 1,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dewe_runner_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn noop_succeeds() {
        let wf = {
            let mut b = WorkflowBuilder::new("w");
            b.job("a", "t", 1.0).build();
            b.finish().unwrap()
        };
        assert_eq!(NoopRunner.run(&wf, dewe_dag::JobId(0), &ctx()), JobOutcome::Success);
    }

    #[test]
    fn sleep_runner_takes_scaled_time() {
        let wf = {
            let mut b = WorkflowBuilder::new("w");
            b.job("a", "t", 10.0).build();
            b.finish().unwrap()
        };
        let r = SleepRunner::new(0.005); // 10 cpu-sec -> 50 ms
        let start = std::time::Instant::now();
        assert_eq!(r.run(&wf, dewe_dag::JobId(0), &ctx()), JobOutcome::Success);
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn sleep_runner_cancels_promptly() {
        let wf = {
            let mut b = WorkflowBuilder::new("w");
            b.job("a", "t", 1000.0).build();
            b.finish().unwrap()
        };
        let c = ctx();
        c.cancelled.store(true, Ordering::Relaxed);
        let r = SleepRunner::new(1.0);
        let start = std::time::Instant::now();
        assert_eq!(r.run(&wf, dewe_dag::JobId(0), &c), JobOutcome::Cancelled);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cpu_runner_burns_real_time_and_cancels() {
        let wf = {
            let mut b = WorkflowBuilder::new("w");
            b.job("a", "t", 10.0).build();
            b.finish().unwrap()
        };
        let r = CpuRunner::new(0.003); // 10 cpu-s -> 30 ms
        let start = std::time::Instant::now();
        assert_eq!(r.run(&wf, dewe_dag::JobId(0), &ctx()), JobOutcome::Success);
        assert!(start.elapsed() >= Duration::from_millis(25));

        let c = ctx();
        c.cancelled.store(true, Ordering::Relaxed);
        let r = CpuRunner::new(10.0);
        let start = std::time::Instant::now();
        assert_eq!(r.run(&wf, dewe_dag::JobId(0), &c), JobOutcome::Cancelled);
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn fs_runner_dataflow_roundtrip() {
        let mut b = WorkflowBuilder::new("fsflow");
        let input = b.file("in.dat", 1000, true);
        let out = b.file("out.dat", 500, false);
        let j = b.job("copy", "t", 0.0).input(input).output(out).build();
        let wf = b.finish().unwrap();

        let r = FsRunner::new(tempdir("roundtrip"), 1.0);
        r.stage_inputs(&wf).unwrap();
        assert_eq!(r.run(&wf, j, &ctx()), JobOutcome::Success);
        let written = std::fs::read(r.root.join("fsflow/out.dat")).unwrap();
        assert_eq!(written.len(), 500);
    }

    #[test]
    fn fs_runner_fails_on_missing_input() {
        let mut b = WorkflowBuilder::new("fsmiss");
        let input = b.file("never_staged.dat", 10, false); // produced by nobody
        let j = b.job("reader", "t", 0.0).input(input).build();
        let wf = b.finish().unwrap();
        let r = FsRunner::new(tempdir("missing"), 1.0);
        std::fs::create_dir_all(r.root.join("fsmiss")).unwrap();
        match r.run(&wf, j, &ctx()) {
            JobOutcome::Failed(msg) => assert!(msg.contains("missing input")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checksums_are_reproducible_across_runs() {
        let build = || {
            let mut b = WorkflowBuilder::new("ck");
            let i = b.file("in.dat", 500, true);
            let o = b.file("out.dat", 300, false);
            let j = b.job("only", "t", 0.0).input(i).output(o).build();
            (b.finish().unwrap(), j)
        };
        let run = |tag: &str| {
            let (wf, j) = build();
            let r = FsRunner::new(tempdir(tag), 1.0);
            r.stage_inputs(&wf).unwrap();
            assert_eq!(r.run(&wf, j, &ctx()), JobOutcome::Success);
            r.checksum_outputs(&wf).unwrap()
        };
        assert_eq!(run("ck_a"), run("ck_b"), "same workflow => same final checksum");
    }

    #[test]
    fn content_is_name_dependent() {
        let a = FsRunner::content("a", 64);
        let b = FsRunner::content("b", 64);
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
        assert_eq!(FsRunner::content("a", 64), a, "deterministic");
    }

    #[test]
    fn fs_runner_scales_sizes() {
        let mut b = WorkflowBuilder::new("fsscale");
        let input = b.file("big.dat", 1_000_000, true);
        let j = b.job("touch", "t", 0.0).input(input).build();
        let wf = b.finish().unwrap();
        let r = FsRunner::new(tempdir("scale"), 1e-3);
        r.stage_inputs(&wf).unwrap();
        let staged = std::fs::read(r.root.join("fsscale/big.dat")).unwrap();
        assert_eq!(staged.len(), 1000);
        assert_eq!(r.run(&wf, j, &ctx()), JobOutcome::Success);
    }
}
