//! Per-vCPU-slot timeline rendering (paper Fig. 2).
//!
//! Fig. 2 of the paper visualizes one workflow run as rows of vCPU slots,
//! with compute time and data-staging (communication) time distinguished
//! per job. [`Gantt`] reconstructs that view from a run's [`Trace`]:
//! jobs are assigned to the lowest-indexed free slot on their node, then
//! rendered as ASCII rows (`#` compute, `-` staging, space idle).

use crate::trace::{JobTrace, Trace};

/// A per-slot timeline over a trace's job records.
#[derive(Debug, Clone, Copy)]
pub struct Gantt<'a> {
    spans: &'a [JobTrace],
}

impl<'a> Gantt<'a> {
    /// The timeline of every job attempt `trace` recorded.
    pub fn from_trace(trace: &'a Trace) -> Self {
        Self { spans: trace.events() }
    }

    /// Makespan (latest finish time, seconds).
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.finished).fold(0.0, f64::max)
    }

    /// Total compute seconds across all jobs.
    pub fn total_compute_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.compute_done - s.read_done).sum()
    }

    /// Total staging (communication) seconds across all jobs: the read
    /// and write phases.
    pub fn total_staging_secs(&self) -> f64 {
        self.spans.iter().map(|s| (s.read_done - s.started) + (s.finished - s.compute_done)).sum()
    }

    /// Assign jobs to per-node slots (lowest free slot at start time).
    /// Returns, per node, a vector of slots, each a list of span indices.
    fn slot_assignment(&self) -> Vec<Vec<Vec<usize>>> {
        let nodes = self.spans.iter().map(|s| s.node).max().map_or(0, |m| m + 1);
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            self.spans[a].started.total_cmp(&self.spans[b].started).then(a.cmp(&b))
        });
        let mut per_node: Vec<Vec<Vec<usize>>> = vec![Vec::new(); nodes];
        // slot_free[node][slot] = time the slot becomes free
        let mut slot_free: Vec<Vec<f64>> = vec![Vec::new(); nodes];
        for idx in order {
            let s = &self.spans[idx];
            let frees = &mut slot_free[s.node];
            let slot = match frees.iter().position(|&f| f <= s.started + 1e-9) {
                Some(k) => k,
                None => {
                    frees.push(0.0);
                    per_node[s.node].push(Vec::new());
                    frees.len() - 1
                }
            };
            frees[slot] = s.finished;
            per_node[s.node][slot].push(idx);
        }
        per_node
    }

    /// Render as ASCII: one row per (node, slot), `width` characters across
    /// the full makespan. `#` = compute, `-` = staging, ` ` = idle.
    pub fn render_ascii(&self, width: usize) -> String {
        let mut out = String::new();
        let makespan = self.makespan().max(1e-9);
        let scale = width as f64 / makespan;
        let assignment = self.slot_assignment();
        for (node, slots) in assignment.iter().enumerate() {
            out.push_str(&format!("node {node} ({} slots used)\n", slots.len()));
            for (slot, jobs) in slots.iter().enumerate() {
                let mut row = vec![b' '; width];
                for &idx in jobs {
                    let t = &self.spans[idx];
                    let paint = |row: &mut Vec<u8>, a: f64, b: f64, ch: u8| {
                        let i0 = ((a * scale) as usize).min(width.saturating_sub(1));
                        let i1 = ((b * scale).ceil() as usize).clamp(i0 + 1, width);
                        for c in &mut row[i0..i1] {
                            // staging never overwrites compute marks
                            if *c == b' ' || ch == b'#' {
                                *c = ch;
                            }
                        }
                    };
                    paint(&mut row, t.started, t.read_done, b'-');
                    paint(&mut row, t.read_done, t.compute_done, b'#');
                    paint(&mut row, t.compute_done, t.finished, b'-');
                }
                out.push_str(&format!("  s{slot:02} |{}|\n", String::from_utf8(row).unwrap()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace of `(node, started, read_done, compute_done, finished)`.
    fn trace(jobs: &[(usize, f64, f64, f64, f64)]) -> Trace {
        let mut trace = Trace::new();
        for (job, &(node, started, read_done, compute_done, finished)) in jobs.iter().enumerate() {
            trace.record(JobTrace {
                workflow: 0,
                job: job as u32,
                xform: "t".into(),
                attempt: 1,
                node,
                dispatched: started,
                started,
                read_done,
                compute_done,
                finished,
            });
        }
        trace
    }

    #[test]
    fn makespan_and_totals() {
        let t = trace(&[(0, 0.0, 1.0, 5.0, 6.0), (0, 2.0, 2.0, 8.0, 10.0)]);
        let g = Gantt::from_trace(&t);
        assert_eq!(g.makespan(), 10.0);
        assert!((g.total_compute_secs() - 10.0).abs() < 1e-9);
        assert!((g.total_staging_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_jobs_get_distinct_slots() {
        let t = trace(&[
            (0, 0.0, 0.0, 5.0, 5.0),
            (0, 1.0, 1.0, 4.0, 4.0), // overlaps the first
            (0, 6.0, 6.0, 7.0, 7.0), // fits in slot 0
        ]);
        assert!(Gantt::from_trace(&t).render_ascii(40).contains("2 slots used"));
    }

    #[test]
    fn sequential_jobs_reuse_slot() {
        let t = trace(&[(0, 0.0, 0.0, 1.0, 1.0), (0, 1.0, 1.0, 2.0, 2.0)]);
        assert!(Gantt::from_trace(&t).render_ascii(20).contains("1 slots used"));
    }

    #[test]
    fn nodes_render_separately() {
        let t = trace(&[(0, 0.0, 0.0, 1.0, 1.0), (1, 0.0, 0.0, 1.0, 1.0)]);
        let render = Gantt::from_trace(&t).render_ascii(10);
        assert!(render.contains("node 0"));
        assert!(render.contains("node 1"));
    }

    #[test]
    fn ascii_contains_compute_and_staging_marks() {
        let t = trace(&[(0, 0.0, 3.0, 7.0, 10.0)]);
        let render = Gantt::from_trace(&t).render_ascii(10);
        assert!(render.contains('#'));
        assert!(render.contains('-'));
    }

    #[test]
    fn empty_gantt_renders_nothing() {
        let t = Trace::new();
        let g = Gantt::from_trace(&t);
        assert_eq!(g.render_ascii(10), "");
        assert_eq!(g.makespan(), 0.0);
    }
}
