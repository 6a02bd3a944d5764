//! The shared workflow registry.

use dewe_dag::{Workflow, WorkflowId};
use parking_lot::RwLock;
use std::sync::Arc;

/// The stand-in for the shared file system's workflow folders: workers look
/// up the DAG (and, conceptually, binaries and data paths) of a dispatched
/// job by its workflow id. The master inserts each workflow *before*
/// publishing any of its jobs, so lookups by dispatch consumers never miss.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<Vec<Arc<Workflow>>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the workflow for `id`. Ids are assigned densely by the
    /// master in submission order.
    pub fn insert(&self, id: WorkflowId, workflow: Arc<Workflow>) {
        let mut inner = self.inner.write();
        assert_eq!(inner.len(), id.index(), "registry insertions must be dense and in order");
        inner.push(workflow);
    }

    /// Look up a workflow.
    pub fn get(&self, id: WorkflowId) -> Option<Arc<Workflow>> {
        self.inner.read().get(id.index()).cloned()
    }

    /// Number of registered workflows.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    #[test]
    fn registry_dense_insert_and_get() {
        let r = Registry::new();
        assert!(r.is_empty());
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        r.insert(WorkflowId(0), Arc::clone(&wf));
        r.insert(WorkflowId(1), wf);
        assert_eq!(r.len(), 2);
        assert!(r.get(WorkflowId(1)).is_some());
        assert!(r.get(WorkflowId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn registry_rejects_out_of_order_insert() {
        let r = Registry::new();
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        r.insert(WorkflowId(5), wf);
    }
}
