//! Job specifications and the fluent job builder.

use crate::ids::FileId;

/// Default timeout applied to jobs that do not declare one, in seconds.
///
/// DEWE v2 gives every job either a user-defined timeout or a system-wide
/// default; when a checked-out job is not acknowledged within its timeout the
/// master republishes it (paper §III.B).
pub const DEFAULT_TIMEOUT_SECS: f64 = 600.0;

/// A single task in a workflow.
///
/// Jobs carry a *resource profile* — CPU seconds, core demand and the byte
/// volumes implied by their input/output files — rather than an executable
/// path, so that the same specification can drive the real-time engine
/// (where a `JobRunner` maps the transformation name to actual work) and the
/// discrete-event simulator (where the profile is charged against modeled
/// resources).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique (within the workflow) job name, e.g. `mProjectPP_0017`.
    pub name: String,
    /// Transformation (job type) name, e.g. `mProjectPP`. The paper exploits
    /// the fact that most jobs are near-identical copies of few
    /// transformations; engines and provisioning group statistics by this.
    pub xform: String,
    /// Pure computation demand in CPU-seconds on one reference core.
    pub cpu_seconds: f64,
    /// Number of cores the job can exploit (1 for serial jobs; >1 models the
    /// paper's OpenMP-style parallel blocking jobs, §III.D).
    pub cores: u32,
    /// Files read before computation.
    pub inputs: Vec<FileId>,
    /// Files written after computation.
    pub outputs: Vec<FileId>,
    /// Per-job timeout override in seconds (`None` = engine default).
    pub timeout_secs: Option<f64>,
}

impl JobSpec {
    /// Effective timeout in seconds given an engine-wide default.
    #[inline]
    pub fn effective_timeout(&self, default_secs: f64) -> f64 {
        self.timeout_secs.unwrap_or(default_secs)
    }
}

/// Fluent builder returned by [`crate::WorkflowBuilder::job`].
///
/// Finish with [`JobBuilder::build`], which registers the job with the
/// owning workflow builder and returns its [`crate::JobId`].
pub struct JobBuilder<'a> {
    pub(crate) owner: &'a mut crate::workflow::WorkflowBuilder,
    pub(crate) spec: JobSpec,
}

impl<'a> JobBuilder<'a> {
    /// Add an input file dependency.
    pub fn input(mut self, file: FileId) -> Self {
        self.spec.inputs.push(file);
        self
    }

    /// Add several input files.
    pub fn inputs(mut self, files: impl IntoIterator<Item = FileId>) -> Self {
        self.spec.inputs.extend(files);
        self
    }

    /// Add an output file.
    pub fn output(mut self, file: FileId) -> Self {
        self.spec.outputs.push(file);
        self
    }

    /// Add several output files.
    pub fn outputs(mut self, files: impl IntoIterator<Item = FileId>) -> Self {
        self.spec.outputs.extend(files);
        self
    }

    /// Declare multi-core capability (OpenMP-style jobs, paper §III.D).
    pub fn cores(mut self, cores: u32) -> Self {
        self.spec.cores = cores.max(1);
        self
    }

    /// Set a per-job timeout in seconds (overrides the engine default).
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.spec.timeout_secs = Some(secs);
        self
    }

    /// Register the job and return its id.
    pub fn build(self) -> crate::JobId {
        self.owner.push_job(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cores: u32, cpu: f64) -> JobSpec {
        JobSpec {
            name: "j".into(),
            xform: "x".into(),
            cpu_seconds: cpu,
            cores,
            inputs: vec![],
            outputs: vec![],
            timeout_secs: None,
        }
    }

    #[test]
    fn effective_timeout_prefers_override() {
        let mut s = spec(1, 1.0);
        assert_eq!(s.effective_timeout(600.0), 600.0);
        s.timeout_secs = Some(30.0);
        assert_eq!(s.effective_timeout(600.0), 30.0);
    }
}
