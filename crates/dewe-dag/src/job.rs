//! Job views and the fluent job builder.

use std::ops::Deref;

use crate::ids::FileId;
use crate::workflow::{JobRow, WorkflowBuilder};

/// Default timeout applied to jobs that do not declare one, in seconds.
///
/// DEWE v2 gives every job either a user-defined timeout or a system-wide
/// default; when a checked-out job is not acknowledged within its timeout the
/// master republishes it (paper §III.B).
pub const DEFAULT_TIMEOUT_SECS: f64 = 600.0;

/// A single task in a workflow, as [`crate::Workflow::job`] shows it.
///
/// Jobs carry a *resource profile* — CPU seconds, core demand and the byte
/// volumes implied by their input/output files — rather than an executable
/// path, so that the same specification can drive the real-time engine
/// (where a `JobRunner` maps the transformation name to actual work) and the
/// discrete-event simulator (where the profile is charged against modeled
/// resources).
///
/// A view borrows the workflow's flat arrays: making one copies a row and
/// slices the name arena and the I/O list, and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobView<'a> {
    /// Unique (within the workflow) job name, e.g. `mProjectPP_0017`.
    pub name: &'a str,
    /// Transformation (job type) name, e.g. `mProjectPP`. The paper exploits
    /// the fact that most jobs are near-identical copies of few
    /// transformations; engines and provisioning group statistics by this.
    pub xform: &'a str,
    /// Pure computation demand in CPU-seconds on one reference core.
    pub cpu_seconds: f64,
    /// Number of cores the job can exploit (1 for serial jobs; >1 models the
    /// paper's OpenMP-style parallel blocking jobs, §III.D).
    pub cores: u32,
    /// Files read before computation.
    pub inputs: FileIds<'a>,
    /// Files written after computation.
    pub outputs: FileIds<'a>,
    /// Per-job timeout override in seconds (`None` = engine default).
    pub timeout_secs: Option<f64>,
}

impl JobView<'_> {
    /// Effective timeout in seconds given an engine-wide default.
    #[inline]
    pub fn effective_timeout(&self, default_secs: f64) -> f64 {
        self.timeout_secs.unwrap_or(default_secs)
    }
}

/// A job's inputs or its outputs: its stretch of the workflow's one I/O
/// list. Reads as a `[FileId]`, and iterates by value or by reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FileIds<'a>(pub(crate) &'a [FileId]);

impl<'a> FileIds<'a> {
    /// The files, borrowed from the workflow rather than from the view.
    pub fn as_slice(self) -> &'a [FileId] {
        self.0
    }
}

impl Deref for FileIds<'_> {
    type Target = [FileId];

    fn deref(&self) -> &[FileId] {
        self.0
    }
}

impl<'a> IntoIterator for FileIds<'a> {
    type Item = &'a FileId;
    type IntoIter = std::slice::Iter<'a, FileId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &FileIds<'a> {
    type Item = &'a FileId;
    type IntoIter = std::slice::Iter<'a, FileId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl std::fmt::Debug for FileIds<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Fluent builder returned by [`crate::WorkflowBuilder::job`].
///
/// Finish with [`JobBuilder::build`], which registers the job with the
/// owning workflow builder and returns its [`crate::JobId`]. Its files go
/// straight into the owner's wiring lists; a builder dropped unbuilt leaves
/// them to be discarded by the owner's next `job` or its `finish`.
pub struct JobBuilder<'a> {
    pub(crate) owner: &'a mut WorkflowBuilder,
    pub(crate) row: JobRow,
}

impl<'a> JobBuilder<'a> {
    /// Add an input file dependency.
    pub fn input(self, file: FileId) -> Self {
        self.inputs([file])
    }

    /// Add several input files.
    pub fn inputs(self, files: impl IntoIterator<Item = FileId>) -> Self {
        let job = self.owner.next_job();
        self.owner.inputs.extend(files.into_iter().map(|f| (job, f)));
        self
    }

    /// Add an output file.
    pub fn output(self, file: FileId) -> Self {
        self.outputs([file])
    }

    /// Add several output files.
    pub fn outputs(self, files: impl IntoIterator<Item = FileId>) -> Self {
        let job = self.owner.next_job();
        self.owner.outputs.extend(files.into_iter().map(|f| (job, f)));
        self
    }

    /// Declare multi-core capability (OpenMP-style jobs, paper §III.D).
    pub fn cores(mut self, cores: u32) -> Self {
        self.row.cores = cores.max(1);
        self
    }

    /// Set a per-job timeout in seconds (overrides the engine default).
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.row.timeout_secs = Some(secs);
        self
    }

    /// Register the job and return its id.
    pub fn build(self) -> crate::JobId {
        let id = self.owner.next_job();
        self.owner.jobs.push(self.row);
        id
    }
}

#[cfg(test)]
mod tests {
    use crate::WorkflowBuilder;

    #[test]
    fn effective_timeout_prefers_override() {
        let mut b = WorkflowBuilder::new("t");
        let plain = b.job("plain", "x", 1.0).build();
        let capped = b.job("capped", "x", 1.0).timeout_secs(30.0).build();
        let wf = b.finish().unwrap();
        assert_eq!(wf.job(plain).effective_timeout(600.0), 600.0);
        assert_eq!(wf.job(capped).effective_timeout(600.0), 30.0);
    }

    #[test]
    fn a_job_built_after_a_dropped_one_keeps_only_its_own_files() {
        let mut b = WorkflowBuilder::new("t");
        let (f, g) = (b.file("f", 1, true), b.file("g", 1, true));
        let _unbuilt = b.job("dropped", "x", 1.0).input(f).output(g);
        let kept = b.job("kept", "x", 1.0).input(g).build();
        let wf = b.finish().unwrap();
        let job = wf.job(kept);
        assert_eq!(
            (wf.job_count(), job.inputs.as_slice(), job.outputs.as_slice()),
            (1, &[g][..], &[][..])
        );
    }
}
