//! Content-addressed store of workflow DAG texts: parse each distinct
//! text once, keep one copy of it, and announce it once.
//!
//! The paper's ensembles are N × the same DAG. Over TCP a DAG reaches the
//! master as text — from submitters, each on its own connection, and from
//! the spool of the master it takes over from — and each arrival would
//! otherwise parse the text again and hold its own `Workflow`.
//! [`DagStore::intern`] gives every byte-identical text the same
//! `Arc<Workflow>`; [`DagStore::announcement`] gives the master the text
//! back for spooling and announcing, so nothing is ever serialised that
//! arrived as text. Dedupe is by content, not by name or id: the submitter
//! chooses names, and the same file is routinely submitted under many. The
//! master announces and spools a text once and every later workflow
//! sharing it as a reference (`net` module documentation), so its workers
//! need no store.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use dewe_dag::{parse_workflow, write_workflow, DagError, Workflow, WorkflowId};

/// What an announcement carries besides its id and name.
pub(crate) enum Announced {
    /// The DAG's text: its first announcement.
    Text(Arc<str>),
    /// The id the DAG was first announced under.
    SameAs(WorkflowId),
}

struct Entry {
    /// The one long-lived copy of this text in the process; announce
    /// frames and the replay log share it.
    text: Arc<str>,
    workflow: Arc<Workflow>,
    /// The id this workflow was first announced under, once it has been.
    announced_as: Option<WorkflowId>,
}

/// See the module documentation. One per `TcpMaster`, under the lock of its
/// endpoint's state; entries live as long as the store.
#[derive(Default)]
pub(crate) struct DagStore {
    /// Keyed per store with the standard library's random keys, so a
    /// sender cannot aim texts at one bucket.
    hasher: RandomState,
    /// Content hash → the addresses of the entries with that hash.
    by_hash: HashMap<u64, Vec<usize>>,
    /// Address of an entry's `Workflow` → the entry. The entry holds the
    /// `Arc`, so an address here is never reused by another workflow.
    entries: HashMap<usize, Entry>,
}

impl DagStore {
    fn find(&self, hash: u64, text: &str) -> Option<&Entry> {
        // The hash only nominates candidates: texts come from the
        // network, and equal means equal bytes.
        let candidates = self.by_hash.get(&hash)?;
        candidates.iter().map(|at| &self.entries[at]).find(|entry| *entry.text == *text)
    }

    fn insert(&mut self, hash: u64, text: Arc<str>, workflow: Arc<Workflow>) {
        let at = Arc::as_ptr(&workflow) as usize;
        self.by_hash.entry(hash).or_default().push(at);
        self.entries.insert(at, Entry { text, workflow, announced_as: None });
    }

    /// The workflow `text` describes: the one parsed earlier from the same
    /// bytes (one hash and one compare, nothing allocated), or a fresh
    /// parse, after which the store keeps its own copy of the text.
    pub(crate) fn intern(&mut self, text: &str) -> Result<Arc<Workflow>, DagError> {
        let hash = self.hasher.hash_one(text);
        if let Some(entry) = self.find(hash, text) {
            return Ok(Arc::clone(&entry.workflow));
        }
        let workflow = Arc::new(parse_workflow(text)?);
        self.insert(hash, text.into(), Arc::clone(&workflow));
        Ok(workflow)
    }

    /// The entry of `workflow`. A workflow that never was text here —
    /// announced straight from a `Workflow` — is serialised now, once, and
    /// from then on is an entry like any other.
    fn entry(&mut self, workflow: &Arc<Workflow>) -> &mut Entry {
        let at = Arc::as_ptr(workflow) as usize;
        if !self.entries.contains_key(&at) {
            let text: Arc<str> = write_workflow(workflow).into();
            self.insert(self.hasher.hash_one(&*text), text, Arc::clone(workflow));
        }
        self.entries.get_mut(&at).expect("an entry for every workflow asked about")
    }

    /// What announcing `workflow` as `id` carries: its text the first time,
    /// and an alias of the first id every later time. An id no later than
    /// the first — the first again, or a takeover's replay — gets the text.
    pub(crate) fn announcement(&mut self, workflow: &Arc<Workflow>, id: WorkflowId) -> Announced {
        let entry = self.entry(workflow);
        match entry.announced_as {
            Some(first) if first < id => Announced::SameAs(first),
            _ => Announced::Text(Arc::clone(&entry.text)),
        }
    }

    /// Record that `workflow` has been sent as `id`; the first id sent
    /// stays the one later announcements alias.
    pub(crate) fn announced(&mut self, workflow: &Arc<Workflow>, id: WorkflowId) {
        self.entry(workflow).announced_as.get_or_insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::{JobId, WorkflowBuilder};

    const TWO_JOBS: &str = "WORKFLOW w\nJOB a t CPU 1\nJOB b t CPU 2\nPARENT a CHILD b\n";

    #[test]
    fn identical_texts_share_one_workflow_and_one_text() {
        let mut store = DagStore::default();
        let first = store.intern(TWO_JOBS).unwrap();
        let elsewhere = String::from(TWO_JOBS);
        let again = store.intern(&elsewhere).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same bytes, same topology");
        assert_eq!(first.job_count(), 2);
        // A different text — even one that parses to an equal workflow —
        // is a different entry: equality is of bytes.
        let spaced = store.intern(&TWO_JOBS.replace("CPU 2", "CPU  2")).unwrap();
        assert!(!Arc::ptr_eq(&first, &spaced));
        assert_eq!(store.entries.len(), 2);
        // The text comes back verbatim, and it is the stored copy.
        let text = Arc::clone(&store.entry(&first).text);
        assert_eq!(&*text, TWO_JOBS);
        assert!(Arc::ptr_eq(&text, &store.entry(&again).text));
    }

    #[test]
    fn a_text_that_does_not_parse_is_not_kept() {
        let mut store = DagStore::default();
        assert!(store.intern("JOB a").is_err());
        assert!(store.intern("JOB a").is_err());
        assert!(store.entries.is_empty());
    }

    #[test]
    fn a_hash_collision_is_told_apart_by_the_bytes() {
        let mut store = DagStore::default();
        let a = store.intern("JOB a t CPU 1").unwrap();
        // Force the next text into the same bucket.
        let other = "JOB b t CPU 1";
        let forged = store.hasher.hash_one("JOB a t CPU 1");
        let parsed = Arc::new(parse_workflow(other).unwrap());
        store.insert(forged, other.into(), parsed);
        assert_eq!(store.by_hash[&forged].len(), 2);
        let found = store.find(forged, "JOB a t CPU 1").expect("first text");
        assert!(Arc::ptr_eq(&found.workflow, &a));
        assert_eq!(
            store.find(forged, other).expect("second text").workflow.job(JobId(0)).name,
            "b"
        );
        assert!(store.find(forged, "JOB c t CPU 1").is_none());
    }

    #[test]
    fn a_workflow_without_text_is_serialised_once_and_adopted() {
        let mut store = DagStore::default();
        let mut b = WorkflowBuilder::new("built");
        b.job("only", "t", 1.0).build();
        let built = Arc::new(b.finish().unwrap());
        let text = Arc::clone(&store.entry(&built).text);
        assert!(Arc::ptr_eq(&text, &store.entry(&built).text), "serialised once");
        // Its text now dedupes like a submitted one.
        assert!(Arc::ptr_eq(&store.intern(&text).unwrap(), &built));
    }

    #[test]
    fn a_workflow_is_announced_as_text_under_its_first_id_and_aliased_after() {
        let mut store = DagStore::default();
        let workflow = store.intern(TWO_JOBS).unwrap();
        let text = |announced| match announced {
            Announced::Text(text) => text,
            Announced::SameAs(first) => panic!("an alias of {first:?}, not the text"),
        };
        // Nothing is recorded until the announcement has been sent.
        assert_eq!(&*text(store.announcement(&workflow, WorkflowId(3))), TWO_JOBS);
        assert_eq!(&*text(store.announcement(&workflow, WorkflowId(4))), TWO_JOBS);
        store.announced(&workflow, WorkflowId(3));
        assert!(matches!(
            store.announcement(&workflow, WorkflowId(5)),
            Announced::SameAs(WorkflowId(3))
        ));
        // The first id again — or an earlier one — is announced in full,
        // and recording a later id leaves the first in place.
        let again = text(store.announcement(&workflow, WorkflowId(3)));
        assert!(Arc::ptr_eq(&again, &store.entry(&workflow).text));
        assert_eq!(&*text(store.announcement(&workflow, WorkflowId(1))), TWO_JOBS);
        store.announced(&workflow, WorkflowId(5));
        assert!(matches!(
            store.announcement(&workflow, WorkflowId(6)),
            Announced::SameAs(WorkflowId(3))
        ));
    }
}
