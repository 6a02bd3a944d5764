//! Workflow linting.
//!
//! Real-world DAX generators frequently emit *redundant* precedence edges
//! (an explicit `parent -> grandchild` edge alongside the implied
//! two-step path). Redundant edges are harmless for correctness but cost
//! dependency-tracking work at ensemble scale and clutter visualizations.
//!
//! [`lint`] reports them beside the other structural oddities that usually
//! indicate generator bugs: files nobody reads, non-initial files nobody
//! writes and jobs with no I/O at all.

use std::collections::HashSet;

use crate::ids::JobId;
use crate::workflow::Workflow;

/// Identify redundant *control* edges: `(parent, child)` pairs where
/// another path of length ≥ 2 from parent to child exists.
///
/// Edges implied by data flow (the child reads a file the parent writes)
/// are never reported: the data dependency is real even when the ordering
/// it imposes is transitively implied — in Montage, for example,
/// `mProjectPP -> mBackground` is implied through the background-modeling
/// chain, yet mBackground still physically reads the projected image.
fn redundant_edges(wf: &Workflow) -> Vec<(JobId, JobId)> {
    // For each job u (in reverse topological order), compute reachability
    // via children-of-children; an edge u->v is redundant if v is reachable
    // from some other child of u. For workflow-scale graphs a per-node DFS
    // over the children works; memoized bitsets would be overkill here
    // because fans are shallow.
    let mut redundant = Vec::new();
    for u in wf.job_ids() {
        let children: &[JobId] = wf.children(u);
        if children.len() < 2 {
            continue;
        }
        let direct: HashSet<JobId> = children.iter().copied().collect();
        // BFS from each child; any *other* direct child reached via a path
        // of length >= 1 marks that edge redundant.
        let mut flagged: HashSet<JobId> = HashSet::new();
        for &c in children {
            let mut stack: Vec<JobId> = wf.children(c).to_vec();
            let mut seen: HashSet<JobId> = HashSet::new();
            while let Some(x) = stack.pop() {
                if !seen.insert(x) {
                    continue;
                }
                if direct.contains(&x) {
                    flagged.insert(x);
                    // keep going: other children may also be reachable
                }
                stack.extend_from_slice(wf.children(x));
            }
        }
        for v in flagged {
            let data_implied = wf.job(v).inputs.iter().any(|&f| wf.producer(f) == Some(u));
            if !data_implied {
                redundant.push((u, v));
            }
        }
    }
    redundant.sort_unstable();
    redundant
}

/// A lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintFinding {
    /// A produced file no job reads (wasted output; terminal results from
    /// sink jobs are exempt).
    UnreadFile(String),
    /// A non-initial file consumed but never produced (would block forever
    /// in a system that stages data by producer — here it parses as an
    /// implicitly initial file, almost always a generator bug).
    PhantomInput(String),
    /// A job with neither inputs nor outputs (pure side effect; legal but
    /// suspicious in a data-driven workflow).
    NoIo(String),
    /// A redundant precedence edge `parent -> child`.
    RedundantEdge(String, String),
}

/// Lint a workflow for structural oddities.
pub fn lint(wf: &Workflow) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let sink_outputs: HashSet<_> =
        wf.sinks().iter().flat_map(|&s| wf.job(s).outputs.into_iter().copied()).collect();
    let mut read: vec::BitsetLike = vec::BitsetLike::new(wf.file_count());
    for j in wf.jobs() {
        for &f in &j.inputs {
            read.set(f.index());
        }
    }
    for f in wf.file_ids() {
        let spec = wf.file(f);
        if !spec.initial && !read.get(f.index()) && !sink_outputs.contains(&f) {
            findings.push(LintFinding::UnreadFile(spec.name.to_string()));
        }
        if !spec.initial && wf.producer(f).is_none() {
            findings.push(LintFinding::PhantomInput(spec.name.to_string()));
        }
    }
    for j in wf.jobs() {
        if j.inputs.is_empty() && j.outputs.is_empty() {
            findings.push(LintFinding::NoIo(j.name.to_string()));
        }
    }
    for (u, v) in redundant_edges(wf) {
        findings.push(LintFinding::RedundantEdge(
            wf.job(u).name.to_string(),
            wf.job(v).name.to_string(),
        ));
    }
    findings
}

/// Tiny growable bitset (avoids a HashSet per file at ensemble scale).
mod vec {
    pub struct BitsetLike {
        bits: Vec<u64>,
    }
    impl BitsetLike {
        pub fn new(n: usize) -> Self {
            Self { bits: vec![0; n.div_ceil(64)] }
        }
        pub fn set(&mut self, i: usize) {
            self.bits[i / 64] |= 1 << (i % 64);
        }
        pub fn get(&self, i: usize) -> bool {
            self.bits[i / 64] & (1 << (i % 64)) != 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::WorkflowBuilder;

    /// a -> b -> c with a redundant direct a -> c edge.
    fn triangle() -> Workflow {
        let mut b = WorkflowBuilder::new("tri");
        let a = b.job("a", "t", 1.0).build();
        let m = b.job("b", "t", 1.0).build();
        let c = b.job("c", "t", 1.0).build();
        b.edge(a, m);
        b.edge(m, c);
        b.edge(a, c); // redundant
        b.finish().unwrap()
    }

    #[test]
    fn detects_redundant_edge() {
        let wf = triangle();
        let red = redundant_edges(&wf);
        assert_eq!(red.len(), 1);
        assert_eq!(wf.job(red[0].0).name, "a");
        assert_eq!(wf.job(red[0].1).name, "c");
    }

    #[test]
    fn clean_diamond_is_untouched() {
        let mut b = WorkflowBuilder::new("d");
        let a = b.job("a", "t", 1.0).build();
        let l = b.job("l", "t", 1.0).build();
        let r = b.job("r", "t", 1.0).build();
        let m = b.job("m", "t", 1.0).build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, m);
        b.edge(r, m);
        let wf = b.finish().unwrap();
        assert!(redundant_edges(&wf).is_empty());
    }

    /// Hand-rolled mini-Montage (this crate cannot depend on dewe-montage).
    fn dewe_montage_free_montage() -> Workflow {
        let mut b = WorkflowBuilder::new("mini");
        let mut projs = Vec::new();
        for i in 0..6 {
            let raw = b.file(format!("raw{i}"), 10, true);
            let p = b.file(format!("proj{i}"), 10, false);
            b.job(format!("proj{i}"), "p", 1.0).input(raw).output(p).build();
            projs.push(p);
        }
        let fit = b.file("fit", 1, false);
        b.job("concat", "c", 5.0).inputs(projs.iter().copied()).output(fit).build();
        for (i, &proj) in projs.iter().enumerate() {
            b.job(format!("bg{i}"), "b", 1.0).input(proj).input(fit).build();
        }
        b.finish().unwrap()
    }

    #[test]
    fn lint_finds_phantom_and_unread() {
        let mut b = WorkflowBuilder::new("l");
        let phantom = b.file("phantom.dat", 1, false); // consumed, never produced
        let unread = b.file("unread.dat", 1, false);
        let terminal = b.file("final.dat", 1, false);
        b.job("x", "t", 1.0).input(phantom).output(unread).build();
        b.job("sink", "t", 1.0).input(unread).output(terminal).build();
        b.job("idle", "t", 1.0).build();
        let wf = b.finish().unwrap();
        let findings = lint(&wf);
        assert!(findings.contains(&LintFinding::PhantomInput("phantom.dat".into())));
        assert!(findings.contains(&LintFinding::NoIo("idle".into())));
        // `unread.dat` IS read (by sink) and `final.dat` is a sink output:
        // neither may be flagged as unread.
        assert!(!findings.iter().any(|f| matches!(f, LintFinding::UnreadFile(_))));
    }

    #[test]
    fn lint_clean_workflow_is_empty() {
        let wf = dewe_montage_free_montage();
        assert!(lint(&wf).is_empty(), "{:?}", lint(&wf));
    }

    #[test]
    fn lint_reports_redundant_edges() {
        let findings = lint(&triangle());
        assert!(findings
            .iter()
            .any(|f| matches!(f, LintFinding::RedundantEdge(a, b) if a == "a" && b == "c")));
    }
}
