//! The immutable, validated workflow DAG and its builder.

use crate::error::DagError;
use crate::file::FileSpec;
use crate::ids::{FileId, JobId};
use crate::job::{JobBuilder, JobSpec};

/// A validated, immutable workflow DAG.
///
/// Construction goes through [`WorkflowBuilder`], which
/// 1. derives precedence edges from file producer/consumer relations
///    (a job reading file *f* depends on the job writing *f*),
/// 2. merges them with explicitly declared `PARENT -> CHILD` edges,
/// 3. rejects cycles, duplicate names, dangling references and
///    multi-producer files.
///
/// Adjacency is stored in compressed sparse row (CSR) form — two flat
/// arrays per direction — so that iterating the parents or children of a
/// job is a contiguous slice access. With 1.7 million jobs in the paper's
/// largest ensemble, per-job allocation would dominate; CSR keeps the whole
/// graph in a handful of allocations.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    jobs: Vec<JobSpec>,
    files: Vec<FileSpec>,
    /// CSR offsets/data for children (successors).
    child_offsets: Vec<u32>,
    child_data: Vec<JobId>,
    /// CSR offsets/data for parents (predecessors).
    parent_offsets: Vec<u32>,
    parent_data: Vec<JobId>,
    /// Producer job for each file (None for initial inputs).
    producer: Vec<Option<JobId>>,
    /// A topological order of all jobs (fixed at validation time).
    topo_order: Vec<JobId>,
}

impl Workflow {
    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of files (inputs + produced).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Job spec by id.
    #[inline]
    pub fn job(&self, id: JobId) -> &JobSpec {
        &self.jobs[id.index()]
    }

    /// File spec by id.
    #[inline]
    pub fn file(&self, id: FileId) -> &FileSpec {
        &self.files[id.index()]
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// All files in id order.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// Iterator over all job ids in id order.
    pub fn job_ids(&self) -> impl ExactSizeIterator<Item = JobId> + '_ {
        (0..self.jobs.len()).map(JobId::from_index)
    }

    /// Iterator over all file ids in id order.
    pub fn file_ids(&self) -> impl ExactSizeIterator<Item = FileId> + '_ {
        (0..self.files.len()).map(FileId::from_index)
    }

    /// Successors (children) of `id`.
    #[inline]
    pub fn children(&self, id: JobId) -> &[JobId] {
        let i = id.index();
        &self.child_data[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Predecessors (parents) of `id`.
    #[inline]
    pub fn parents(&self, id: JobId) -> &[JobId] {
        let i = id.index();
        &self.parent_data[self.parent_offsets[i] as usize..self.parent_offsets[i + 1] as usize]
    }

    /// In-degree (number of parents) of `id`.
    #[inline]
    pub fn in_degree(&self, id: JobId) -> usize {
        self.parents(id).len()
    }

    /// The job producing `file`, or `None` for initial inputs.
    #[inline]
    pub fn producer(&self, file: FileId) -> Option<JobId> {
        self.producer[file.index()]
    }

    /// A fixed topological order (parents before children).
    pub fn topo_order(&self) -> &[JobId] {
        &self.topo_order
    }

    /// Jobs with no children (the exit frontier).
    pub fn sinks(&self) -> Vec<JobId> {
        self.job_ids().filter(|&j| self.children(j).is_empty()).collect()
    }

    /// Total number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.child_data.len()
    }

    /// Total bytes of files flagged as initial inputs.
    pub fn input_bytes(&self) -> u64 {
        self.files.iter().filter(|f| f.initial).map(|f| f.size_bytes).sum()
    }

    /// Total bytes of files produced by jobs (intermediate + final outputs).
    pub fn produced_bytes(&self) -> u64 {
        self.files.iter().filter(|f| !f.initial).map(|f| f.size_bytes).sum()
    }

    /// Count of files produced by jobs.
    pub fn produced_file_count(&self) -> usize {
        self.files.iter().filter(|f| !f.initial).count()
    }

    /// Total CPU-seconds over all jobs.
    pub fn total_cpu_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.cpu_seconds).sum()
    }

    /// Look up a job id by name (linear scan; intended for tests/tooling).
    pub fn job_by_name(&self, name: &str) -> Option<JobId> {
        self.jobs.iter().position(|j| j.name == name).map(JobId::from_index)
    }
}

/// Builder for [`Workflow`].
///
/// See the crate-level example. Explicit edges may be added with
/// [`WorkflowBuilder::edge`]; edges implied by file data-flow are always
/// inferred at [`WorkflowBuilder::finish`] time.
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    pub(crate) name: String,
    jobs: Vec<JobSpec>,
    files: Vec<FileSpec>,
    explicit_edges: Vec<(JobId, JobId)>,
}

impl WorkflowBuilder {
    /// Start a new workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Declare a file. `initial` marks pre-staged workflow inputs.
    ///
    /// Returns the file id; declaring the same name twice is detected at
    /// [`finish`](Self::finish) time.
    pub fn file(&mut self, name: impl Into<String>, size_bytes: u64, initial: bool) -> FileId {
        let id = FileId::from_index(self.files.len());
        self.files.push(FileSpec::new(name, size_bytes, initial));
        id
    }

    /// Start declaring a job; finish the returned builder with
    /// [`JobBuilder::build`].
    pub fn job(
        &mut self,
        name: impl Into<String>,
        xform: impl Into<String>,
        cpu_seconds: f64,
    ) -> JobBuilder<'_> {
        JobBuilder {
            owner: self,
            spec: JobSpec {
                name: name.into(),
                xform: xform.into(),
                cpu_seconds,
                cores: 1,
                inputs: Vec::new(),
                outputs: Vec::new(),
                timeout_secs: None,
            },
        }
    }

    /// Attach input or output files to an already-declared job (used by the
    /// text-format parser, which allows wiring statements in any order).
    pub(crate) fn patch_job_io(&mut self, job: JobId, files: &[FileId], is_input: bool) {
        let spec = &mut self.jobs[job.index()];
        if is_input {
            spec.inputs.extend_from_slice(files);
        } else {
            spec.outputs.extend_from_slice(files);
        }
    }

    pub(crate) fn push_job(&mut self, spec: JobSpec) -> JobId {
        let id = JobId::from_index(self.jobs.len());
        self.jobs.push(spec);
        id
    }

    /// Add an explicit precedence edge `parent -> child` (DAGMan
    /// `PARENT a CHILD b`), independent of any data flow.
    pub fn edge(&mut self, parent: JobId, child: JobId) {
        self.explicit_edges.push((parent, child));
    }

    /// Validate and freeze the workflow.
    ///
    /// Errors on duplicate names, dangling ids, multi-producer files,
    /// negative CPU demand and cycles.
    pub fn finish(self) -> Result<Workflow, DagError> {
        let dup = find_duplicate(self.jobs.iter().map(|j| j.name.as_str()))
            .or_else(|| find_duplicate(self.files.iter().map(|f| f.name.as_str())));
        if let Some(dup) = dup {
            return Err(DagError::DuplicateName(dup));
        }
        self.finish_unique()
    }

    /// [`finish`](Self::finish) for a caller that already knows no job
    /// name and no file name repeats (the text parser's name maps).
    pub(crate) fn finish_unique(self) -> Result<Workflow, DagError> {
        let nj = self.jobs.len();
        let nf = self.files.len();

        // Field validation.
        for job in &self.jobs {
            if !job.cpu_seconds.is_finite() || job.cpu_seconds < 0.0 {
                return Err(DagError::InvalidField {
                    entity: job.name.clone(),
                    message: format!(
                        "cpu_seconds must be finite and >= 0, got {}",
                        job.cpu_seconds
                    ),
                });
            }
            if job.cores == 0 {
                return Err(DagError::InvalidField {
                    entity: job.name.clone(),
                    message: "cores must be >= 1".into(),
                });
            }
            if let Some(t) = job.timeout_secs {
                if !t.is_finite() || t <= 0.0 {
                    return Err(DagError::InvalidField {
                        entity: job.name.clone(),
                        message: format!("timeout must be finite and > 0, got {t}"),
                    });
                }
            }
            for &f in job.inputs.iter().chain(&job.outputs) {
                if f.index() >= nf {
                    return Err(DagError::UnknownName(format!("{f:?} referenced by {}", job.name)));
                }
            }
        }
        for &(p, c) in &self.explicit_edges {
            if p.index() >= nj || c.index() >= nj {
                return Err(DagError::UnknownName(format!("edge {p:?} -> {c:?}")));
            }
        }

        // Determine producers; detect multi-producer files and jobs that
        // "produce" initial files.
        let mut producer: Vec<Option<JobId>> = vec![None; nf];
        for (ji, job) in self.jobs.iter().enumerate() {
            let jid = JobId::from_index(ji);
            for &f in &job.outputs {
                match producer[f.index()] {
                    None => producer[f.index()] = Some(jid),
                    Some(prev) => {
                        return Err(DagError::MultipleProducers {
                            file: self.files[f.index()].name.clone(),
                            first: self.jobs[prev.index()].name.clone(),
                            second: job.name.clone(),
                        });
                    }
                }
            }
        }

        // Parents of each job, once each and ascending, in one pass over
        // the jobs: its explicit parents (grouped by child first) and the
        // producers of its inputs, sorted and deduplicated in place.
        let (explicit_offsets, explicit) =
            build_csr(nj, self.explicit_edges.iter().map(|&(p, c)| (c, p)));
        // Each list is dropped once it is read, so the peak stays the two
        // CSRs of the children and parents.
        drop(self.explicit_edges);
        let inputs: usize = self.jobs.iter().map(|job| job.inputs.len()).sum();
        let mut parent_offsets = Vec::with_capacity(nj + 1);
        let mut parent_data = Vec::with_capacity(explicit.len() + inputs);
        parent_offsets.push(0);
        for (ji, job) in self.jobs.iter().enumerate() {
            let (jid, start) = (JobId::from_index(ji), parent_data.len());
            let (from, to) = (explicit_offsets[ji] as usize, explicit_offsets[ji + 1] as usize);
            parent_data.extend_from_slice(&explicit[from..to]);
            parent_data.extend(
                job.inputs.iter().filter_map(|f| producer[f.index()]).filter(|&p| p != jid),
            );
            parent_data[start..].sort_unstable();
            let mut kept = start;
            for at in start..parent_data.len() {
                if kept == start || parent_data[at] != parent_data[kept - 1] {
                    parent_data[kept] = parent_data[at];
                    kept += 1;
                }
            }
            parent_data.truncate(kept);
            parent_offsets.push(kept as u32);
        }
        drop((explicit_offsets, explicit));

        // Children by transposing: jobs are visited in id order, so each
        // job's children come out ascending too.
        let parents_of = |c: usize| {
            let parents = &parent_data[parent_offsets[c] as usize..parent_offsets[c + 1] as usize];
            parents.iter().map(move |&p| (p, JobId::from_index(c)))
        };
        let (child_offsets, child_data) = build_csr(nj, (0..nj).flat_map(parents_of));

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<u32> =
            (0..nj).map(|i| parent_offsets[i + 1] - parent_offsets[i]).collect();
        let mut queue: Vec<JobId> =
            (0..nj).filter(|&i| indeg[i] == 0).map(JobId::from_index).collect();
        let mut topo = Vec::with_capacity(nj);
        let mut head = 0;
        while head < queue.len() {
            let j = queue[head];
            head += 1;
            topo.push(j);
            let s = child_offsets[j.index()] as usize;
            let e = child_offsets[j.index() + 1] as usize;
            for &c in &child_data[s..e] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != nj {
            let cyclic: Vec<String> = (0..nj)
                .filter(|&i| indeg[i] > 0)
                .take(8)
                .map(|i| self.jobs[i].name.clone())
                .collect();
            return Err(DagError::Cycle(cyclic));
        }

        Ok(Workflow {
            name: self.name,
            jobs: self.jobs,
            files: self.files,
            child_offsets,
            child_data,
            parent_offsets,
            parent_data,
            producer,
            topo_order: topo,
        })
    }
}

/// Build CSR arrays from `(source, destination)` pairs; each source's
/// destinations keep the order the list gives them.
fn build_csr(
    n: usize,
    edges: impl Iterator<Item = (JobId, JobId)> + Clone,
) -> (Vec<u32>, Vec<JobId>) {
    let mut offsets = vec![0u32; n + 1];
    edges.clone().for_each(|(src, _)| offsets[src.index() + 1] += 1);
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut data = vec![JobId(0); offsets[n] as usize];
    let mut cursor = offsets.clone();
    edges.for_each(|(src, dst)| {
        data[cursor[src.index()] as usize] = dst;
        cursor[src.index()] += 1;
    });
    (offsets, data)
}

fn find_duplicate<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Option<String> {
    let mut seen = std::collections::HashSet::with_capacity(names.len());
    for n in names {
        if !seen.insert(n) {
            return Some(n.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let raw = b.file("raw", 100, true);
        let l = b.file("l", 10, false);
        let r = b.file("r", 10, false);
        let o = b.file("o", 10, false);
        b.job("a", "split", 1.0).input(raw).output(l).build();
        b.job("b", "split", 1.0).input(raw).output(r).build();
        b.job("c", "join", 2.0).input(l).input(r).output(o).build();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let wf = diamond();
        assert_eq!(wf.job_count(), 3);
        assert_eq!(wf.edge_count(), 2);
        let c = wf.job_by_name("c").unwrap();
        assert_eq!(wf.parents(c).len(), 2);
        assert_eq!(wf.sinks(), vec![c]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let wf = diamond();
        let pos: std::collections::HashMap<_, _> =
            wf.topo_order().iter().enumerate().map(|(i, &j)| (j, i)).collect();
        for j in wf.job_ids() {
            for &c in wf.children(j) {
                assert!(pos[&j] < pos[&c], "{j:?} must precede {c:?}");
            }
        }
    }

    #[test]
    fn producer_tracking() {
        let wf = diamond();
        // Files get their ids in the order `diamond` declares them.
        let (raw, l) = (FileId(0), FileId(1));
        assert_eq!((wf.file(raw).name.as_str(), wf.file(l).name.as_str()), ("raw", "l"));
        assert_eq!(wf.producer(raw), None);
        assert_eq!(wf.producer(l), Some(wf.job_by_name("a").unwrap()));
    }

    #[test]
    fn byte_accounting() {
        let wf = diamond();
        assert_eq!(wf.input_bytes(), 100);
        assert_eq!(wf.produced_bytes(), 30);
        assert_eq!(wf.produced_file_count(), 3);
        assert_eq!(wf.total_cpu_seconds(), 4.0);
    }

    #[test]
    fn cycle_detected() {
        let mut b = WorkflowBuilder::new("cyc");
        let a = b.job("a", "t", 1.0).build();
        let c = b.job("b", "t", 1.0).build();
        b.edge(a, c);
        b.edge(c, a);
        match b.finish() {
            Err(DagError::Cycle(names)) => assert_eq!(names.len(), 2),
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_via_file_is_ignored() {
        // A job that reads and writes the same file does not depend on itself.
        let mut b = WorkflowBuilder::new("s");
        let f = b.file("f", 1, true);
        b.job("a", "t", 1.0).input(f).output(f).build();
        // But a job both producing and consuming means "a" is the producer of
        // an initial file — allowed by the model (it overwrites it).
        let wf = b.finish().unwrap();
        assert_eq!(wf.edge_count(), 0);
    }

    #[test]
    fn duplicate_job_name_rejected() {
        let mut b = WorkflowBuilder::new("d");
        b.job("a", "t", 1.0).build();
        b.job("a", "t", 1.0).build();
        assert!(matches!(b.finish(), Err(DagError::DuplicateName(_))));
    }

    #[test]
    fn duplicate_file_name_rejected() {
        let mut b = WorkflowBuilder::new("d");
        b.file("f", 1, true);
        b.file("f", 2, false);
        assert!(matches!(b.finish(), Err(DagError::DuplicateName(_))));
    }

    #[test]
    fn multi_producer_rejected() {
        let mut b = WorkflowBuilder::new("m");
        let f = b.file("f", 1, false);
        b.job("a", "t", 1.0).output(f).build();
        b.job("b", "t", 1.0).output(f).build();
        assert!(matches!(b.finish(), Err(DagError::MultipleProducers { .. })));
    }

    #[test]
    fn negative_cpu_rejected() {
        let mut b = WorkflowBuilder::new("n");
        b.job("a", "t", -1.0).build();
        assert!(matches!(b.finish(), Err(DagError::InvalidField { .. })));
    }

    #[test]
    fn zero_cores_rejected_by_builder_floor() {
        // JobBuilder::cores floors at 1, so this is unreachable through the
        // fluent API; constructing a spec directly must be caught.
        let mut b = WorkflowBuilder::new("z");
        b.push_job(JobSpec {
            name: "a".into(),
            xform: "t".into(),
            cpu_seconds: 1.0,
            cores: 0,
            inputs: vec![],
            outputs: vec![],
            timeout_secs: None,
        });
        assert!(matches!(b.finish(), Err(DagError::InvalidField { .. })));
    }

    #[test]
    fn explicit_edges_merge_with_dataflow() {
        let mut b = WorkflowBuilder::new("e");
        let f = b.file("f", 1, false);
        let a = b.job("a", "t", 1.0).output(f).build();
        let c = b.job("b", "t", 1.0).input(f).build();
        b.edge(a, c); // duplicate of the data-flow edge
        let wf = b.finish().unwrap();
        assert_eq!(wf.edge_count(), 1, "edges must be deduplicated");
    }

    #[test]
    fn empty_workflow_is_valid() {
        let wf = WorkflowBuilder::new("empty").finish().unwrap();
        assert_eq!(wf.job_count(), 0);
        assert!(wf.sinks().is_empty());
        assert!(wf.topo_order().is_empty());
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut b = WorkflowBuilder::new("d");
        let a = b.job("a", "t", 1.0).build();
        b.edge(a, JobId(99));
        assert!(matches!(b.finish(), Err(DagError::UnknownName(_))));
    }

    #[test]
    fn chain_of_1000_topo_sorts() {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..1000 {
            let j = b.job(format!("j{i}"), "t", 0.1).build();
            if let Some(p) = prev {
                b.edge(p, j);
            }
            prev = Some(j);
        }
        let wf = b.finish().unwrap();
        assert_eq!(wf.topo_order().len(), 1000);
        assert_eq!(wf.sinks().len(), 1);
    }
}
