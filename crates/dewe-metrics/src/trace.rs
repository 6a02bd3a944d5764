//! Structured execution traces: per-job lifecycle events.
//!
//! The sampler (3-second rates) answers "what did the cluster look like";
//! a trace answers "what happened to job X": when it was dispatched, how
//! long it waited in the queue, where it ran, how its time split across
//! read/compute/write, and whether it was resubmitted. The DEWE v2 sim
//! runtime emits these events when tracing is enabled; analyses here
//! compute the distributions (queue wait, per-transformation latency) and
//! export Chrome-tracing JSON (`chrome://tracing` / Perfetto) for visual
//! inspection of million-job runs.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::summary::Summary;

/// Lifecycle of one executed job attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Workflow index within the ensemble.
    pub workflow: u32,
    /// Job index within the workflow.
    pub job: u32,
    /// Transformation name (shared, interned upstream as `Arc<str>` would
    /// be overkill here: traces are opt-in).
    pub xform: String,
    /// Delivery attempt (1 = first execution).
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: usize,
    /// When the master published the job, seconds.
    pub dispatched: f64,
    /// When a worker checked it out, seconds.
    pub started: f64,
    /// When its input reads finished, seconds.
    pub read_done: f64,
    /// When its compute finished, seconds.
    pub compute_done: f64,
    /// When its writes were admitted (completion), seconds.
    pub finished: f64,
}

impl JobTrace {
    /// Seconds spent queued between publication and checkout.
    pub fn queue_wait(&self) -> f64 {
        self.started - self.dispatched
    }

    /// Total execution seconds (checkout to completion).
    pub fn execution(&self) -> f64 {
        self.finished - self.started
    }
}

/// A collection of job traces with analysis helpers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<JobTrace>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed job attempt.
    pub fn record(&mut self, event: JobTrace) {
        debug_assert!(event.dispatched <= event.started);
        debug_assert!(event.started <= event.read_done);
        debug_assert!(event.read_done <= event.compute_done);
        debug_assert!(event.compute_done <= event.finished);
        self.events.push(event);
    }

    /// All recorded events.
    pub fn events(&self) -> &[JobTrace] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Queue-wait distribution (seconds) — the latency the pulling model
    /// is designed to keep small.
    pub fn queue_wait_summary(&self) -> Option<Summary> {
        Summary::of(&self.events.iter().map(JobTrace::queue_wait).collect::<Vec<_>>())
    }

    /// Execution-time distribution per transformation, sorted by name —
    /// quantifies the paper's homogeneity premise (tight distributions for
    /// mProjectPP/mDiffFit/mBackground).
    pub fn per_xform_summary(&self) -> Vec<(String, Summary)> {
        let mut groups: HashMap<&str, Vec<f64>> = HashMap::new();
        for e in &self.events {
            groups.entry(&e.xform).or_default().push(e.execution());
        }
        let mut out: Vec<(String, Summary)> = groups
            .into_iter()
            .filter_map(|(k, v)| Summary::of(&v).map(|s| (k.to_string(), s)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Export as Chrome-tracing "trace event format" JSON (complete
    /// events, microsecond timestamps; one row per node, read/compute/write
    /// sub-phases as nested events). Loadable in `chrome://tracing` or
    /// Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut emit = |out: &mut String,
                        name: &str,
                        cat: &str,
                        node: usize,
                        start: f64,
                        end: f64| {
            if end <= start {
                return;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                r#"  {{"name":"{}","cat":"{}","ph":"X","ts":{:.0},"dur":{:.0},"pid":1,"tid":{}}}"#,
                escape_json(name),
                cat,
                start * 1e6,
                (end - start) * 1e6,
                node
            );
        };
        for e in &self.events {
            let label = format!("{} w{}j{}", e.xform, e.workflow, e.job);
            emit(&mut out, &label, "job", e.node, e.started, e.finished);
            emit(&mut out, "read", "phase", e.node, e.started, e.read_done);
            emit(&mut out, "compute", "phase", e.node, e.read_done, e.compute_done);
            emit(&mut out, "write", "phase", e.node, e.compute_done, e.finished);
        }
        out.push_str("\n]\n");
        out
    }
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(wf: u32, job: u32, xform: &str, node: usize, base: f64) -> JobTrace {
        JobTrace {
            workflow: wf,
            job,
            xform: xform.into(),
            attempt: 1,
            node,
            dispatched: base,
            started: base + 0.5,
            read_done: base + 1.0,
            compute_done: base + 3.0,
            finished: base + 3.5,
        }
    }

    #[test]
    fn derived_durations() {
        let e = ev(0, 1, "t", 0, 10.0);
        assert_eq!(e.queue_wait(), 0.5);
        assert_eq!(e.execution(), 3.0);
    }

    #[test]
    fn queue_wait_summary() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.record(ev(0, i, "t", 0, i as f64));
        }
        let s = t.queue_wait_summary().unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.mean, 0.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn per_xform_grouping() {
        let mut t = Trace::new();
        t.record(ev(0, 0, "mProjectPP", 0, 0.0));
        t.record(ev(0, 1, "mProjectPP", 0, 1.0));
        t.record(ev(0, 2, "mDiffFit", 0, 2.0));
        let groups = t.per_xform_summary();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "mDiffFit");
        assert_eq!(groups[0].1.count, 1);
        assert_eq!(groups[1].1.count, 2);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Trace::new();
        t.record(ev(0, 0, "mAdd", 2, 1.0));
        let json = t.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""tid":2"#));
        assert!(json.contains("mAdd w0j0"));
        // 1 job event + 3 phases.
        assert_eq!(json.matches(r#""ph":"X""#).count(), 4);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert!(t.queue_wait_summary().is_none());
        assert_eq!(t.to_chrome_json().matches("ph").count(), 0);
    }
}
