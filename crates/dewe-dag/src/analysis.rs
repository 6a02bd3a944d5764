//! Structural analysis: level profiles, critical paths, per-transformation
//! statistics and blocking-job detection.
//!
//! The paper's motivation section (§II) rests on two structural facts about
//! Montage: (1) the overwhelming majority of jobs are near-identical copies
//! of a few short transformations, and (2) a narrow "waist" of blocking jobs
//! (`mConcatFit`, `mBgModel`) serializes the middle of the workflow. The
//! functions here compute both facts from any DAG.

use std::collections::HashMap;

use crate::ids::JobId;
use crate::workflow::Workflow;

/// Per-transformation aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStats {
    /// (xform, count, total cpu seconds) sorted by descending count.
    pub by_xform: Vec<(String, usize, f64)>,
    pub total_jobs: usize,
    pub total_cpu_seconds: f64,
    pub input_files: usize,
    pub input_bytes: u64,
    pub intermediate_files: usize,
    pub intermediate_bytes: u64,
    pub edges: usize,
}

impl WorkflowStats {
    /// Compute statistics for a workflow.
    pub fn of(wf: &Workflow) -> Self {
        let mut map: HashMap<&str, (usize, f64)> = HashMap::new();
        for j in wf.jobs() {
            let e = map.entry(j.xform).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += j.cpu_seconds;
        }
        let mut by_xform: Vec<(String, usize, f64)> =
            map.into_iter().map(|(k, (c, t))| (k.to_string(), c, t)).collect();
        by_xform.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        WorkflowStats {
            by_xform,
            total_jobs: wf.job_count(),
            total_cpu_seconds: wf.total_cpu_seconds(),
            input_files: wf.files().iter().filter(|f| f.initial).count(),
            input_bytes: wf.input_bytes(),
            intermediate_files: wf.produced_file_count(),
            intermediate_bytes: wf.produced_bytes(),
            edges: wf.edge_count(),
        }
    }

    /// Fraction of jobs belonging to the `k` most numerous transformations —
    /// the paper's homogeneity argument ("the majority of these 8,586 jobs
    /// are copies of a few short-running jobs").
    pub fn homogeneity(&self, k: usize) -> f64 {
        if self.total_jobs == 0 {
            return 1.0;
        }
        let top: usize = self.by_xform.iter().take(k).map(|(_, c, _)| *c).sum();
        top as f64 / self.total_jobs as f64
    }
}

/// Jobs grouped by topological level (longest distance from any root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    /// `levels[l]` = jobs at level `l`.
    pub levels: Vec<Vec<JobId>>,
}

impl LevelProfile {
    /// Compute the level of every job (roots are level 0; a job's level is
    /// one more than its deepest parent).
    pub fn of(wf: &Workflow) -> Self {
        let mut level = vec![0u32; wf.job_count()];
        for &j in wf.topo_order() {
            for &c in wf.children(j) {
                level[c.index()] = level[c.index()].max(level[j.index()] + 1);
            }
        }
        let depth = level.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut levels = vec![Vec::new(); depth];
        for j in wf.job_ids() {
            levels[level[j.index()] as usize].push(j);
        }
        LevelProfile { levels }
    }

    /// Number of levels (DAG depth).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Maximum level width (peak parallelism under unlimited resources).
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Jobs sitting alone on their level — the *blocking jobs* of the paper:
    /// while such a job runs, no other job of the workflow can run
    /// (`mConcatFit` and `mBgModel` in Montage, §II).
    pub fn blocking_jobs(&self) -> Vec<JobId> {
        self.levels.iter().filter(|l| l.len() == 1).map(|l| l[0]).collect()
    }
}

/// Critical path (longest CPU-weighted root-to-sink chain).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Jobs along the path, root first.
    pub jobs: Vec<JobId>,
    /// Sum of `cpu_seconds` along the path — a lower bound on makespan with
    /// unlimited homogeneous workers and free I/O.
    pub cpu_seconds: f64,
}

impl CriticalPath {
    /// Compute the critical path of a workflow.
    pub fn of(wf: &Workflow) -> Self {
        let n = wf.job_count();
        if n == 0 {
            return CriticalPath { jobs: Vec::new(), cpu_seconds: 0.0 };
        }
        // dist[j] = weight of heaviest path ending at j (inclusive).
        let mut dist = vec![0.0f64; n];
        let mut pred: Vec<Option<JobId>> = vec![None; n];
        for &j in wf.topo_order() {
            dist[j.index()] += wf.job(j).cpu_seconds;
            for &c in wf.children(j) {
                if dist[j.index()] > dist[c.index()] {
                    dist[c.index()] = dist[j.index()];
                    pred[c.index()] = Some(j);
                }
            }
        }
        let end = (0..n)
            .max_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap())
            .map(JobId::from_index)
            .unwrap();
        let mut jobs = vec![end];
        let mut cur = end;
        while let Some(p) = pred[cur.index()] {
            jobs.push(p);
            cur = p;
        }
        jobs.reverse();
        CriticalPath { jobs, cpu_seconds: dist[end.index()] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::WorkflowBuilder;

    /// fan-in / serial waist / fan-out: a miniature Montage shape.
    ///   p0 p1 p2   (parallel, 1s)
    ///     \ | /
    ///      waist1 (10s)  <- blocking
    ///      waist2 (20s)  <- blocking
    ///     / | \
    ///   b0 b1 b2   (parallel, 2s)
    fn waisted() -> Workflow {
        let mut b = WorkflowBuilder::new("waisted");
        let ps: Vec<_> = (0..3).map(|i| b.job(format!("p{i}"), "proj", 1.0).build()).collect();
        let w1 = b.job("waist1", "concat", 10.0).build();
        let w2 = b.job("waist2", "model", 20.0).build();
        for &p in &ps {
            b.edge(p, w1);
        }
        b.edge(w1, w2);
        for i in 0..3 {
            let c = b.job(format!("b{i}"), "back", 2.0).build();
            b.edge(w2, c);
        }
        b.finish().unwrap()
    }

    #[test]
    fn level_profile_depth_and_width() {
        let wf = waisted();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 4);
        assert_eq!(lp.max_width(), 3);
        assert_eq!(lp.levels[0].len(), 3);
        assert_eq!(lp.levels[1].len(), 1);
        assert_eq!(lp.levels[2].len(), 1);
        assert_eq!(lp.levels[3].len(), 3);
    }

    #[test]
    fn blocking_jobs_are_the_waist() {
        let wf = waisted();
        let lp = LevelProfile::of(&wf);
        let blocking: Vec<_> = lp.blocking_jobs().iter().map(|&j| wf.job(j).name).collect();
        assert_eq!(blocking, vec!["waist1", "waist2"]);
    }

    #[test]
    fn critical_path_goes_through_waist() {
        let wf = waisted();
        let cp = CriticalPath::of(&wf);
        // 1 (proj) + 10 + 20 + 2 (back) = 33
        assert!((cp.cpu_seconds - 33.0).abs() < 1e-9);
        assert_eq!(cp.jobs.len(), 4);
        let names: Vec<_> = cp.jobs.iter().map(|&j| wf.job(j).xform).collect();
        assert_eq!(names[1], "concat");
        assert_eq!(names[2], "model");
    }

    #[test]
    fn critical_path_empty_workflow() {
        let wf = WorkflowBuilder::new("e").finish().unwrap();
        let cp = CriticalPath::of(&wf);
        assert!(cp.jobs.is_empty());
        assert_eq!(cp.cpu_seconds, 0.0);
    }

    #[test]
    fn stats_by_xform_sorted_by_count() {
        let wf = waisted();
        let s = WorkflowStats::of(&wf);
        assert_eq!(s.total_jobs, 8);
        assert_eq!(s.by_xform[0].1, 3); // proj or back, both count 3
        assert_eq!(s.edges, 7); // 3 fan-in + 1 waist + 3 fan-out
    }

    #[test]
    fn homogeneity_of_top_2() {
        let wf = waisted();
        let s = WorkflowStats::of(&wf);
        // top-2 xforms (proj + back) = 6 of 8 jobs
        assert!((s.homogeneity(2) - 0.75).abs() < 1e-9);
        assert_eq!(s.homogeneity(usize::MAX), 1.0);
    }

    #[test]
    fn homogeneity_empty_workflow_is_one() {
        let wf = WorkflowBuilder::new("e").finish().unwrap();
        assert_eq!(WorkflowStats::of(&wf).homogeneity(3), 1.0);
    }

    #[test]
    fn single_job_profile() {
        let mut b = WorkflowBuilder::new("one");
        b.job("only", "t", 5.0).build();
        let wf = b.finish().unwrap();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 1);
        assert_eq!(lp.blocking_jobs().len(), 1);
        let cp = CriticalPath::of(&wf);
        assert_eq!(cp.cpu_seconds, 5.0);
    }
}
