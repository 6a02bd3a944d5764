//! The immutable, validated workflow DAG and its builder.

use std::ops::Range;

use crate::error::DagError;
use crate::file::FileView;
use crate::ids::{FileId, JobId};
use crate::job::{FileIds, JobBuilder, JobView};
use crate::names::HashIndex;

/// A validated, immutable workflow DAG.
///
/// Construction goes through [`WorkflowBuilder`], which
/// 1. derives precedence edges from file producer/consumer relations
///    (a job reading file *f* depends on the job writing *f*),
/// 2. merges them with explicitly declared `PARENT -> CHILD` edges,
/// 3. rejects cycles, duplicate names, dangling references and
///    multi-producer files.
///
/// A workflow is a few flat arrays, so that the paper's 1.7 million jobs —
/// and each workflow held on the master and on every worker — cost a
/// handful of allocations rather than a few per job:
/// * every job, file and transformation name back to back in one `String`,
///   each transformation once;
/// * one fixed-size row per job and per file;
/// * every job's inputs and then its outputs in one `FileId` list;
/// * adjacency in compressed sparse row (CSR) form — two flat arrays per
///   direction — so that iterating the parents or children of a job is a
///   contiguous slice access.
///
/// [`Workflow::job`] and [`Workflow::file`] return `Copy` views of a row.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    /// Every job, file and transformation name, back to back.
    names: String,
    jobs: Vec<JobRow>,
    files: Vec<FileRow>,
    /// Each job's inputs and then its outputs, job after job.
    io: Vec<FileId>,
    /// CSR offsets/data for children (successors).
    child_offsets: Vec<u32>,
    child_data: Vec<JobId>,
    /// CSR offsets/data for parents (predecessors).
    parent_offsets: Vec<u32>,
    parent_data: Vec<JobId>,
    /// A topological order of all jobs (fixed at validation time).
    topo_order: Vec<JobId>,
}

/// Where a name sits in the name arena: its first byte and one past its last.
type Span = [u32; 2];

/// A job, less its names' bytes and its files.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRow {
    name: Span,
    xform: Span,
    pub(crate) cpu_seconds: f64,
    pub(crate) cores: u32,
    /// Where its inputs start in the I/O list, where its outputs start, and
    /// where they end. While the workflow is built: unset, then its input
    /// and output counts, then the cursors that place them.
    io: [u32; 3],
    pub(crate) timeout_secs: Option<f64>,
}

/// A file, less its name's bytes.
#[derive(Debug, Clone, Copy)]
struct FileRow {
    name: Span,
    size_bytes: u64,
    /// The job writing it, or [`NO_PRODUCER`].
    producer: u32,
    initial: bool,
}

/// [`FileRow::producer`] of a file no job writes.
const NO_PRODUCER: u32 = u32::MAX;

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

    /// Job by id.
    #[inline]
    pub fn job(&self, id: JobId) -> JobView<'_> {
        let row = &self.jobs[id.index()];
        let [inputs, outputs, end] = row.io.map(|at| at as usize);
        JobView {
            name: self.name_at(row.name),
            xform: self.name_at(row.xform),
            cpu_seconds: row.cpu_seconds,
            cores: row.cores,
            inputs: FileIds(&self.io[inputs..outputs]),
            outputs: FileIds(&self.io[outputs..end]),
            timeout_secs: row.timeout_secs,
        }
    }

    /// File by id.
    #[inline]
    pub fn file(&self, id: FileId) -> FileView<'_> {
        let row = &self.files[id.index()];
        FileView { name: self.name_at(row.name), size_bytes: row.size_bytes, initial: row.initial }
    }

    #[inline]
    fn name_at(&self, [start, end]: Span) -> &str {
        &self.names[start as usize..end as usize]
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> Jobs<'_> {
        Jobs { wf: self, ids: 0..self.jobs.len() as u32 }
    }

    /// All files in id order.
    pub fn files(&self) -> Files<'_> {
        Files { wf: self, ids: 0..self.files.len() as u32 }
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
        match self.files[file.index()].producer {
            NO_PRODUCER => None,
            job => Some(JobId(job)),
        }
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

    /// Total CPU-seconds over all jobs; `+0.0` for a workflow without
    /// jobs (an empty `f64` sum is `-0.0`, which prints as `-0`).
    pub fn total_cpu_seconds(&self) -> f64 {
        self.jobs.iter().fold(0.0, |sum, j| sum + j.cpu_seconds)
    }

    /// Look up a job id by name (linear scan; intended for tests/tooling).
    pub fn job_by_name(&self, name: &str) -> Option<JobId> {
        self.jobs.iter().position(|j| self.name_at(j.name) == name).map(JobId::from_index)
    }
}

/// The jobs of a workflow in id order, as [`JobView`]s: what
/// [`Workflow::jobs`] returns.
#[derive(Debug, Clone)]
pub struct Jobs<'a> {
    wf: &'a Workflow,
    ids: Range<u32>,
}

/// The files of a workflow in id order, as [`FileView`]s: what
/// [`Workflow::files`] returns.
#[derive(Debug, Clone)]
pub struct Files<'a> {
    wf: &'a Workflow,
    ids: Range<u32>,
}

macro_rules! views {
    ($views:ident, $view:ident, $id:ident, $get:ident) => {
        impl<'a> $views<'a> {
            /// The views not yet iterated, from the start again: reads as
            /// a slice's `iter`.
            pub fn iter(&self) -> Self {
                self.clone()
            }
        }

        impl<'a> Iterator for $views<'a> {
            type Item = $view<'a>;

            #[inline]
            fn next(&mut self) -> Option<$view<'a>> {
                self.ids.next().map(|i| self.wf.$get($id(i)))
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                self.ids.size_hint()
            }
        }

        impl DoubleEndedIterator for $views<'_> {
            fn next_back(&mut self) -> Option<Self::Item> {
                self.ids.next_back().map(|i| self.wf.$get($id(i)))
            }
        }

        impl ExactSizeIterator for $views<'_> {}
    };
}

views!(Jobs, JobView, JobId, job);
views!(Files, FileView, FileId, file);

/// Builder for [`Workflow`].
///
/// See the crate-level example. Explicit edges may be added with
/// [`WorkflowBuilder::edge`]; edges implied by file data-flow are always
/// inferred at [`WorkflowBuilder::finish`] time. Names go into the
/// workflow's name arena as they are declared, and wiring into two lists
/// that `finish` places by counting.
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    pub(crate) name: String,
    names: String,
    pub(crate) jobs: Vec<JobRow>,
    files: Vec<FileRow>,
    /// Every `(job, file)` input and output given so far, in the order given.
    pub(crate) inputs: Vec<(JobId, FileId)>,
    pub(crate) outputs: Vec<(JobId, FileId)>,
    explicit_edges: Vec<(JobId, JobId)>,
    /// Where each transformation name is stored, found through `xform_index`.
    xforms: Vec<Span>,
    xform_index: HashIndex,
    /// The last transformation stored or found, compared first.
    last_xform: Option<Span>,
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
    pub fn file(&mut self, name: impl AsRef<str>, size_bytes: u64, initial: bool) -> FileId {
        let id = FileId::from_index(self.files.len());
        let name = self.store(name.as_ref());
        self.files.push(FileRow { name, size_bytes, producer: NO_PRODUCER, initial });
        id
    }

    /// Start declaring a job; finish the returned builder with
    /// [`JobBuilder::build`].
    pub fn job(
        &mut self,
        name: impl AsRef<str>,
        xform: impl AsRef<str>,
        cpu_seconds: f64,
    ) -> JobBuilder<'_> {
        self.drop_unbuilt_wiring();
        let name = self.store(name.as_ref());
        let xform = self.intern(xform.as_ref());
        let row = JobRow { name, xform, cpu_seconds, cores: 1, io: [0; 3], timeout_secs: None };
        JobBuilder { owner: self, row }
    }

    /// Drop the wiring a dropped `JobBuilder` gave its would-be job: the
    /// tail of the lists, since a job builder borrows its owner whole.
    fn drop_unbuilt_wiring(&mut self) {
        let next = self.next_job();
        for list in [&mut self.inputs, &mut self.outputs] {
            while list.last().is_some_and(|&(job, _)| job == next) {
                list.pop();
            }
        }
    }

    /// The id the next job built gets.
    pub(crate) fn next_job(&self) -> JobId {
        JobId::from_index(self.jobs.len())
    }

    /// The names of the jobs built so far.
    pub(crate) fn job_names(&self) -> Declared<'_> {
        Declared { names: &self.names, rows: Rows::Jobs(&self.jobs) }
    }

    /// The names of the files declared so far.
    pub(crate) fn file_names(&self) -> Declared<'_> {
        Declared { names: &self.names, rows: Rows::Files(&self.files) }
    }

    fn name_at(&self, [start, end]: Span) -> &str {
        &self.names[start as usize..end as usize]
    }

    /// Append `name` to the arena.
    fn store(&mut self, name: &str) -> Span {
        let start = self.names.len();
        self.names.push_str(name);
        let at = |n: usize| u32::try_from(n).expect("name overflow: more than 4 GiB of names");
        [at(start), at(self.names.len())]
    }

    /// Where transformation `xform` is stored, storing it if it is not.
    fn intern(&mut self, xform: &str) -> Span {
        if let Some(last) = self.last_xform.filter(|&at| self.name_at(at) == xform) {
            return last;
        }
        let (names, xforms) = (&self.names, &self.xforms);
        // The id past the stored ones is `xform`'s if it is new.
        let name_of = |id: u32| match xforms.get(id as usize) {
            Some(&[start, end]) => &names[start as usize..end as usize],
            None => xform,
        };
        let span = match self.xform_index.insert(xform, xforms.len() as u32, name_of) {
            Some(id) => self.xforms[id as usize],
            None => {
                let span = self.store(xform);
                self.xforms.push(span);
                span
            }
        };
        self.last_xform = Some(span);
        span
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
        let dup = find_duplicate(self.jobs.iter().map(|j| self.name_at(j.name)))
            .or_else(|| find_duplicate(self.files.iter().map(|f| self.name_at(f.name))));
        if let Some(dup) = dup {
            return Err(DagError::DuplicateName(dup));
        }
        self.finish_unique()
    }

    /// [`finish`](Self::finish) for a caller that already knows no job
    /// name and no file name repeats (the text parser's name maps).
    pub(crate) fn finish_unique(mut self) -> Result<Workflow, DagError> {
        self.drop_unbuilt_wiring();
        let WorkflowBuilder {
            name,
            mut names,
            mut jobs,
            mut files,
            inputs,
            outputs,
            explicit_edges,
            ..
        } = self;
        let nj = jobs.len();
        let nf = files.len();
        let name_at = |[start, end]: Span| &names[start as usize..end as usize];

        // Place every job's inputs and then its outputs by counting, each
        // list in the order it was given.
        for &(job, _) in &inputs {
            jobs[job.index()].io[1] += 1;
        }
        for &(job, _) in &outputs {
            jobs[job.index()].io[2] += 1;
        }
        let mut placed = 0u32;
        for row in &mut jobs {
            let [_, ins, outs] = row.io;
            row.io = [placed, placed, placed + ins];
            placed += ins + outs;
        }
        let mut io = vec![FileId(0); placed as usize];
        for (list, cursor) in [(&inputs, 1), (&outputs, 2)] {
            for &(job, file) in list {
                let at = &mut jobs[job.index()].io[cursor];
                io[*at as usize] = file;
                *at += 1;
            }
        }
        drop((inputs, outputs));
        let io_of = |row: &JobRow| {
            let [inputs, outputs, end] = row.io.map(|at| at as usize);
            (&io[inputs..outputs], &io[outputs..end])
        };

        // Field validation.
        for job in &jobs {
            let entity = || name_at(job.name).to_string();
            if !job.cpu_seconds.is_finite() || job.cpu_seconds < 0.0 {
                return Err(DagError::InvalidField {
                    entity: entity(),
                    message: format!(
                        "cpu_seconds must be finite and >= 0, got {}",
                        job.cpu_seconds
                    ),
                });
            }
            if job.cores == 0 {
                return Err(DagError::InvalidField {
                    entity: entity(),
                    message: "cores must be >= 1".into(),
                });
            }
            if let Some(t) = job.timeout_secs {
                if !t.is_finite() || t <= 0.0 {
                    return Err(DagError::InvalidField {
                        entity: entity(),
                        message: format!("timeout must be finite and > 0, got {t}"),
                    });
                }
            }
            let (ins, outs) = io_of(job);
            for &f in ins.iter().chain(outs) {
                if f.index() >= nf {
                    return Err(DagError::UnknownName(format!("{f:?} referenced by {}", entity())));
                }
            }
        }
        for &(p, c) in &explicit_edges {
            if p.index() >= nj || c.index() >= nj {
                return Err(DagError::UnknownName(format!("edge {p:?} -> {c:?}")));
            }
        }

        // Determine producers; detect multi-producer files and jobs that
        // "produce" initial files.
        for (ji, job) in jobs.iter().enumerate() {
            for &f in io_of(job).1 {
                match files[f.index()].producer {
                    NO_PRODUCER => files[f.index()].producer = ji as u32,
                    prev => {
                        return Err(DagError::MultipleProducers {
                            file: name_at(files[f.index()].name).to_string(),
                            first: name_at(jobs[prev as usize].name).to_string(),
                            second: name_at(job.name).to_string(),
                        });
                    }
                }
            }
        }

        // Parents of each job, once each and ascending, in one pass over
        // the jobs: its explicit parents (grouped by child first) and the
        // producers of its inputs, sorted and deduplicated in place.
        let (explicit_offsets, explicit) =
            build_csr(nj, explicit_edges.iter().map(|&(p, c)| (c, p)));
        // Each list is dropped once it is read, so the peak stays the two
        // CSRs of the children and parents.
        drop(explicit_edges);
        let mut parent_offsets = Vec::with_capacity(nj + 1);
        let mut parent_data = Vec::with_capacity(explicit.len() + io.len());
        parent_offsets.push(0);
        for (ji, job) in jobs.iter().enumerate() {
            let start = parent_data.len();
            let (from, to) = (explicit_offsets[ji] as usize, explicit_offsets[ji + 1] as usize);
            parent_data.extend_from_slice(&explicit[from..to]);
            parent_data.extend(
                io_of(job)
                    .0
                    .iter()
                    .map(|f| files[f.index()].producer)
                    .filter(|&p| p != NO_PRODUCER && p as usize != ji)
                    .map(JobId),
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
        parent_data.shrink_to_fit();

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
                .map(|i| name_at(jobs[i].name).to_string())
                .collect();
            return Err(DagError::Cycle(cyclic));
        }

        // The arrays grew by doubling; what the workflow keeps is trimmed.
        names.shrink_to_fit();
        jobs.shrink_to_fit();
        files.shrink_to_fit();
        Ok(Workflow {
            name,
            names,
            jobs,
            files,
            io,
            child_offsets,
            child_data,
            parent_offsets,
            parent_data,
            topo_order: topo,
        })
    }
}

/// The names of one kind (jobs or files) a builder holds, in id order.
#[derive(Clone, Copy)]
pub(crate) struct Declared<'a> {
    names: &'a str,
    rows: Rows<'a>,
}

#[derive(Clone, Copy)]
enum Rows<'a> {
    Jobs(&'a [JobRow]),
    Files(&'a [FileRow]),
}

impl<'a> Declared<'a> {
    pub(crate) fn len(self) -> usize {
        match self.rows {
            Rows::Jobs(rows) => rows.len(),
            Rows::Files(rows) => rows.len(),
        }
    }

    /// The name of id `at`, if it is declared.
    pub(crate) fn get(self, at: usize) -> Option<&'a str> {
        let [start, end] = match self.rows {
            Rows::Jobs(rows) => rows.get(at)?.name,
            Rows::Files(rows) => rows.get(at)?.name,
        };
        Some(&self.names[start as usize..end as usize])
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
        assert_eq!((wf.file(raw).name, wf.file(l).name), ("raw", "l"));
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
        // fluent API; a row written directly must be caught.
        let mut b = WorkflowBuilder::new("z");
        let mut job = b.job("a", "t", 1.0);
        job.row.cores = 0;
        job.build();
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
        assert_eq!(wf.total_cpu_seconds().to_bits(), 0, "+0.0, not -0.0");
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
