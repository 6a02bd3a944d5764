//! Workflow ensembles — "a set of interrelated but independent workflow
//! applications" executed as one scientific analysis (paper §I). An engine
//! holds the workflows; this module names a job across them.

use crate::ids::{JobId, WorkflowId};

/// Globally identifies a job within an ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnsembleJobId {
    pub workflow: WorkflowId,
    pub job: JobId,
}

impl EnsembleJobId {
    pub fn new(workflow: WorkflowId, job: JobId) -> Self {
        Self { workflow, job }
    }
}

impl std::fmt::Display for EnsembleJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.workflow, self.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensemble_job_id_display() {
        let id = EnsembleJobId::new(WorkflowId(3), JobId(14));
        assert_eq!(id.to_string(), "3:14");
    }
}
