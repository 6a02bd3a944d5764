//! Graphviz DOT export for workflow visualization.
//!
//! Paper Fig. 1 presents Montage as a DAG drawing; [`to_dot`] produces the
//! equivalent for any workflow, with jobs colored by transformation and
//! optionally collapsed by level for very large graphs (a 6.0-degree
//! Montage has 8,586 vertices — `to_dot_collapsed` renders its 9-level
//! silhouette instead).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::analysis::LevelProfile;
use crate::workflow::Workflow;

/// Render the full job graph as DOT. Transformations get stable fill
/// colors so Montage's stage structure is visible at a glance.
pub fn to_dot(wf: &Workflow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sanitize(wf.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, style=filled, fontname=\"monospace\"];");
    let mut palette: HashMap<&str, usize> = HashMap::new();
    for j in wf.jobs() {
        let next = palette.len();
        let color_idx = *palette.entry(j.xform).or_insert(next);
        let _ = writeln!(
            out,
            "  \"{}\" [fillcolor=\"{}\", label=\"{}\\n{:.1}s\"];",
            sanitize(j.name),
            color(color_idx),
            sanitize(j.name),
            j.cpu_seconds
        );
    }
    for jid in wf.job_ids() {
        for &c in wf.children(jid) {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\";",
                sanitize(wf.job(jid).name),
                sanitize(wf.job(c).name)
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Render the level-collapsed silhouette: one node per (level,
/// transformation) group annotated with its job count — readable even for
/// million-job ensembles.
pub fn to_dot_collapsed(wf: &Workflow) -> String {
    let lp = LevelProfile::of(wf);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}_collapsed\" {{", sanitize(wf.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, style=filled, fontname=\"monospace\"];");

    // Group jobs per (level, xform).
    let mut group_of = vec![String::new(); wf.job_count()];
    let mut counts: HashMap<String, usize> = HashMap::new();
    for (li, level) in lp.levels.iter().enumerate() {
        for &j in level {
            let key = format!("L{li}_{}", wf.job(j).xform);
            *counts.entry(key.clone()).or_insert(0) += 1;
            group_of[j.index()] = key;
        }
    }
    let mut palette: HashMap<String, usize> = HashMap::new();
    let mut keys: Vec<&String> = counts.keys().collect();
    keys.sort();
    for key in keys {
        let xform = key.split('_').skip(1).collect::<Vec<_>>().join("_");
        let next = palette.len();
        let idx = *palette.entry(xform.clone()).or_insert(next);
        let _ = writeln!(
            out,
            "  \"{key}\" [fillcolor=\"{}\", label=\"{xform}\\nx{}\"];",
            color(idx),
            counts[key]
        );
    }
    // Distinct group edges.
    let mut edges: Vec<(String, String)> = Vec::new();
    for j in wf.job_ids() {
        for &c in wf.children(j) {
            edges.push((group_of[j.index()].clone(), group_of[c.index()].clone()));
        }
    }
    edges.sort();
    edges.dedup();
    for (a, b) in edges {
        let _ = writeln!(out, "  \"{a}\" -> \"{b}\";");
    }
    out.push_str("}\n");
    out
}

fn color(idx: usize) -> &'static str {
    const COLORS: [&str; 10] = [
        "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
        "#e31a1c", "#ff7f00",
    ];
    COLORS[idx % COLORS.len()]
}

fn sanitize(s: &str) -> String {
    s.replace('"', "'").replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::WorkflowBuilder;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("d");
        let a = b.job("a", "split", 1.0).build();
        let l = b.job("l", "work", 2.0).build();
        let r = b.job("r", "work", 2.0).build();
        let m = b.job("m", "merge", 1.0).build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, m);
        b.edge(r, m);
        b.finish().unwrap()
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let dot = to_dot(&diamond());
        assert!(dot.starts_with("digraph"));
        for n in ["\"a\"", "\"l\"", "\"r\"", "\"m\""] {
            assert!(dot.contains(n), "missing {n}");
        }
        assert!(dot.contains("\"a\" -> \"l\";"));
        assert!(dot.contains("\"r\" -> \"m\";"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn same_xform_shares_color() {
        let dot = to_dot(&diamond());
        let color_of = |name: &str| {
            let line = dot.lines().find(|l| l.contains(&format!("\"{name}\" ["))).unwrap();
            line.split("fillcolor=\"").nth(1).unwrap().split('"').next().unwrap().to_string()
        };
        assert_eq!(color_of("l"), color_of("r"));
        assert_ne!(color_of("a"), color_of("l"));
    }

    #[test]
    fn collapsed_groups_by_level_and_xform() {
        let dot = to_dot_collapsed(&diamond());
        assert!(dot.contains("\"L0_split\""));
        assert!(dot.contains("\"L1_work\""));
        assert!(dot.contains("x2"), "the two `work` jobs collapse into one node");
        assert!(dot.contains("\"L0_split\" -> \"L1_work\";"));
        // Parallel edges dedup into one.
        assert_eq!(dot.matches("\"L1_work\" -> \"L2_merge\";").count(), 1);
    }

    #[test]
    fn quotes_in_names_are_sanitized() {
        let mut b = WorkflowBuilder::new("q\"uote");
        b.job("j\"1", "t", 1.0).build();
        let dot = to_dot(&b.finish().unwrap());
        assert!(!dot.contains("j\"1"), "raw quote must not survive");
        assert!(dot.contains("j'1"));
    }
}
