//! Content-addressed store of workflow DAG texts: parse each distinct
//! text once, keep one copy of it.
//!
//! The paper's ensembles are N × the same DAG. Over TCP a DAG reaches the
//! master as text — from submitters, each on its own connection, and from
//! the spool of the master it takes over from — and each arrival would
//! otherwise parse the text again and hold its own `Workflow`.
//! [`DagStore::intern`] gives every byte-identical text the same
//! `Arc<Workflow>`; [`DagStore::text_of`] gives the master the text back
//! for spooling and announcing, so nothing is ever serialised that arrived
//! as text. Dedupe is by content, not by name or id: the submitter chooses
//! names, and the same file is routinely submitted under many. The master
//! announces and spools a text once and every later workflow sharing it as
//! a reference (`net` module documentation), so its workers need no store.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use dewe_dag::{parse_workflow, write_workflow, DagError, Workflow};
use parking_lot::Mutex;

struct Entry {
    /// The one long-lived copy of this text in the process; announce
    /// frames and the replay log share it.
    text: Arc<str>,
    workflow: Arc<Workflow>,
}

#[derive(Default)]
struct State {
    /// Content hash → the entries with that hash.
    by_hash: HashMap<u64, Vec<Entry>>,
    /// Address of an entry's `Workflow` → its text. The entry holds the
    /// `Arc`, so the address stays taken for as long as the key exists.
    text_of: HashMap<usize, Arc<str>>,
}

impl State {
    fn find(&self, hash: u64, text: &str) -> Option<&Entry> {
        // The hash only nominates candidates: texts come from the
        // network, and equal means equal bytes.
        self.by_hash.get(&hash)?.iter().find(|entry| *entry.text == *text)
    }

    fn insert(&mut self, hash: u64, entry: Entry) {
        self.text_of.insert(Arc::as_ptr(&entry.workflow) as usize, Arc::clone(&entry.text));
        self.by_hash.entry(hash).or_default().push(entry);
    }
}

/// See the module documentation. One per `TcpMaster`; entries live as
/// long as the store.
#[derive(Default)]
pub(crate) struct DagStore {
    /// Keyed per store with the standard library's random keys, so a
    /// sender cannot aim texts at one bucket.
    hasher: RandomState,
    state: Mutex<State>,
    /// Held while a new text is parsed, so that two connections handing
    /// in the same new text at once parse it once. `state` stays free:
    /// hits, and the serve loop's `text_of`, do not wait for a parse.
    parsing: Mutex<()>,
}

impl DagStore {
    /// The workflow `text` describes: the one parsed earlier from the same
    /// bytes (one hash and one compare, nothing allocated), or a fresh
    /// parse, after which the store keeps its own copy of the text.
    pub(crate) fn intern(&self, text: &str) -> Result<Arc<Workflow>, DagError> {
        let hash = self.hasher.hash_one(text);
        let known = |state: &State| state.find(hash, text).map(|e| Arc::clone(&e.workflow));
        if let Some(workflow) = known(&self.state.lock()) {
            return Ok(workflow);
        }
        let _parsing = self.parsing.lock();
        if let Some(workflow) = known(&self.state.lock()) {
            return Ok(workflow);
        }
        let workflow = Arc::new(parse_workflow(text)?);
        let entry = Entry { text: Arc::from(text), workflow: Arc::clone(&workflow) };
        self.state.lock().insert(hash, entry);
        Ok(workflow)
    }

    /// The text `workflow` was interned from. A workflow that never was
    /// text here — announced straight from a `Workflow` — is serialised
    /// now, once, and from then on is an entry like any other.
    pub(crate) fn text_of(&self, workflow: &Arc<Workflow>) -> Arc<str> {
        let address = Arc::as_ptr(workflow) as usize;
        let known = |state: &State| state.text_of.get(&address).cloned();
        if let Some(text) = known(&self.state.lock()) {
            return text;
        }
        let text: Arc<str> = write_workflow(workflow).into();
        let hash = self.hasher.hash_one(&*text);
        let mut state = self.state.lock();
        if let Some(text) = known(&state) {
            return text;
        }
        state.insert(hash, Entry { text: Arc::clone(&text), workflow: Arc::clone(workflow) });
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    const TWO_JOBS: &str = "WORKFLOW w\nJOB a t CPU 1\nJOB b t CPU 2\nPARENT a CHILD b\n";

    #[test]
    fn identical_texts_share_one_workflow_and_one_text() {
        let store = DagStore::default();
        let first = store.intern(TWO_JOBS).unwrap();
        let elsewhere = String::from(TWO_JOBS);
        let again = store.intern(&elsewhere).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same bytes, same topology");
        assert_eq!(first.job_count(), 2);
        // A different text — even one that parses to an equal workflow —
        // is a different entry: equality is of bytes.
        let spaced = store.intern(&TWO_JOBS.replace("CPU 2", "CPU  2")).unwrap();
        assert!(!Arc::ptr_eq(&first, &spaced));
        assert_eq!(store.state.lock().text_of.len(), 2);
        // The text comes back verbatim, and it is the stored copy.
        let text = store.text_of(&first);
        assert_eq!(&*text, TWO_JOBS);
        assert!(Arc::ptr_eq(&text, &store.text_of(&again)));
    }

    #[test]
    fn a_text_that_does_not_parse_is_not_kept() {
        let store = DagStore::default();
        assert!(store.intern("JOB a").is_err());
        assert!(store.intern("JOB a").is_err());
        assert!(store.state.lock().text_of.is_empty());
    }

    #[test]
    fn a_hash_collision_is_told_apart_by_the_bytes() {
        let store = DagStore::default();
        let a = store.intern("JOB a t CPU 1").unwrap();
        // Force the next text into the same bucket.
        let other = "JOB b t CPU 1";
        let forged = store.hasher.hash_one("JOB a t CPU 1");
        let parsed = Arc::new(parse_workflow(other).unwrap());
        store.state.lock().insert(forged, Entry { text: other.into(), workflow: parsed });
        let state = store.state.lock();
        assert_eq!(state.by_hash[&forged].len(), 2);
        let found = state.find(forged, "JOB a t CPU 1").expect("first text");
        assert!(Arc::ptr_eq(&found.workflow, &a));
        assert_eq!(state.find(forged, other).expect("second text").workflow.jobs()[0].name, "b");
        assert!(state.find(forged, "JOB c t CPU 1").is_none());
    }

    #[test]
    fn a_workflow_without_text_is_serialised_once_and_adopted() {
        let store = DagStore::default();
        let mut b = WorkflowBuilder::new("built");
        b.job("only", "t", 1.0).build();
        let built = Arc::new(b.finish().unwrap());
        let text = store.text_of(&built);
        assert!(Arc::ptr_eq(&text, &store.text_of(&built)), "serialised once");
        // Its text now dedupes like a submitted one.
        assert!(Arc::ptr_eq(&store.intern(&text).unwrap(), &built));
    }

    #[test]
    fn concurrent_interns_of_one_new_text_parse_it_once() {
        let store = Arc::new(DagStore::default());
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (store, start) = (Arc::clone(&store), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    store.intern(TWO_JOBS).unwrap()
                })
            })
            .collect();
        let workflows: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(workflows.iter().all(|w| Arc::ptr_eq(w, &workflows[0])));
        assert_eq!(store.state.lock().text_of.len(), 1);
    }
}
