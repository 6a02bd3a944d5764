//! Property-based tests for the DAG model.
//!
//! Strategy: generate random layered DAGs (edges only go from lower to
//! higher layers, guaranteeing acyclicity by construction) and assert the
//! structural invariants the engines rely on.

use dewe_dag::{
    parse_workflow, workflow_name, write_workflow, CriticalPath, DagError, DependencyTracker,
    JobId, JobState, LevelProfile, Workflow, WorkflowBuilder,
};
use proptest::prelude::*;

/// A random layered DAG description: layer sizes plus an edge-probability
/// seed. Edges are derived deterministically from the seed so shrinking is
/// well-behaved.
#[derive(Debug, Clone)]
struct RandomDag {
    layer_sizes: Vec<usize>,
    edge_seed: u64,
    edge_density: f64,
}

fn random_dag_strategy() -> impl Strategy<Value = RandomDag> {
    (prop::collection::vec(1usize..6, 1..6), any::<u64>(), 0.05f64..0.9).prop_map(
        |(layer_sizes, edge_seed, edge_density)| RandomDag { layer_sizes, edge_seed, edge_density },
    )
}

/// Cheap deterministic hash for edge selection (splitmix64).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn build(dag: &RandomDag) -> Workflow {
    let mut b = WorkflowBuilder::new("random");
    let mut layers: Vec<Vec<JobId>> = Vec::new();
    let mut n = 0usize;
    for (li, &size) in dag.layer_sizes.iter().enumerate() {
        let mut layer = Vec::new();
        for k in 0..size {
            let cpu = (mix(dag.edge_seed ^ (n as u64)) % 100) as f64 / 10.0;
            layer.push(b.job(format!("l{li}_{k}"), "t", cpu).build());
            n += 1;
        }
        layers.push(layer);
    }
    // Edges between consecutive layers chosen pseudo-randomly.
    for w in layers.windows(2) {
        for &p in &w[0] {
            for &c in &w[1] {
                let h = mix(dag.edge_seed ^ ((p.0 as u64) << 32) ^ c.0 as u64);
                if (h % 1000) as f64 / 1000.0 < dag.edge_density {
                    b.edge(p, c);
                }
            }
        }
    }
    b.finish().expect("layered DAGs are acyclic")
}

proptest! {
    /// Topological order places every parent before each of its children.
    #[test]
    fn topo_order_is_consistent(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let mut pos = vec![usize::MAX; wf.job_count()];
        for (i, &j) in wf.topo_order().iter().enumerate() {
            pos[j.index()] = i;
        }
        for j in wf.job_ids() {
            for &c in wf.children(j) {
                prop_assert!(pos[j.index()] < pos[c.index()]);
            }
        }
    }

    /// parents() and children() are transposes of each other.
    #[test]
    fn adjacency_is_symmetric(dag in random_dag_strategy()) {
        let wf = build(&dag);
        for j in wf.job_ids() {
            for &c in wf.children(j) {
                prop_assert!(wf.parents(c).contains(&j));
            }
            for &p in wf.parents(j) {
                prop_assert!(wf.children(p).contains(&j));
            }
        }
    }

    /// Driving the tracker to completion in any topological order visits
    /// every job exactly once and never leaves the DAG stuck.
    #[test]
    fn tracker_drains_fully(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let mut tracker = DependencyTracker::new(&wf);
        let mut executed = 0usize;
        loop {
            let ready = tracker.take_ready();
            if ready.is_empty() {
                break;
            }
            for j in ready {
                prop_assert_eq!(tracker.state(j), JobState::Ready);
                tracker.mark_running(j);
                tracker.complete_in(&wf, j);
                executed += 1;
            }
        }
        prop_assert!(tracker.is_complete(), "tracker stuck with {} of {} done",
            executed, wf.job_count());
        prop_assert_eq!(executed, wf.job_count());
    }

    /// Tracker progress is immune to timeout-resubmission churn: resubmitting
    /// every running job once before completing it changes nothing.
    #[test]
    fn tracker_survives_resubmission(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let mut tracker = DependencyTracker::new(&wf);
        let mut executed = 0usize;
        loop {
            let ready = tracker.take_ready();
            if ready.is_empty() {
                break;
            }
            for j in ready {
                tracker.mark_running(j);
                // Simulate a worker death + timeout: job goes back to Ready.
                tracker.resubmit(j);
                let requeued = tracker.take_ready();
                prop_assert!(requeued.contains(&j));
                for r in requeued {
                    tracker.mark_running(r);
                    tracker.complete_in(&wf, r);
                    executed += 1;
                }
            }
        }
        prop_assert!(tracker.is_complete());
        prop_assert_eq!(executed, wf.job_count());
    }

    /// The text format round-trips: parse(write(wf)) == wf structurally.
    #[test]
    fn format_roundtrip(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let text = write_workflow(&wf);
        let wf2 = parse_workflow(&text).unwrap();
        prop_assert_eq!(wf.job_count(), wf2.job_count());
        prop_assert_eq!(wf.edge_count(), wf2.edge_count());
        for (a, b) in wf.jobs().iter().zip(wf2.jobs()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.cpu_seconds, b.cpu_seconds);
        }
        for j in wf.job_ids() {
            prop_assert_eq!(wf.children(j), wf2.children(j));
        }
    }

    /// Critical path weight is at least the heaviest single job and at most
    /// the total CPU volume.
    #[test]
    fn critical_path_bounds(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let cp = CriticalPath::of(&wf);
        let heaviest = wf.jobs().iter().map(|j| j.cpu_seconds).fold(0.0, f64::max);
        prop_assert!(cp.cpu_seconds >= heaviest - 1e-9);
        prop_assert!(cp.cpu_seconds <= wf.total_cpu_seconds() + 1e-9);
        // The path itself must be a chain.
        for pair in cp.jobs.windows(2) {
            prop_assert!(wf.children(pair[0]).contains(&pair[1]));
        }
    }

    /// Level profile: every job appears exactly once; level of child > parent.
    #[test]
    fn level_profile_partitions_jobs(dag in random_dag_strategy()) {
        let wf = build(&dag);
        let lp = LevelProfile::of(&wf);
        let mut level_of = vec![usize::MAX; wf.job_count()];
        let mut seen = 0usize;
        for (li, level) in lp.levels.iter().enumerate() {
            for &j in level {
                prop_assert_eq!(level_of[j.index()], usize::MAX, "job in two levels");
                level_of[j.index()] = li;
                seen += 1;
            }
        }
        prop_assert_eq!(seen, wf.job_count());
        for j in wf.job_ids() {
            for &c in wf.children(j) {
                prop_assert!(level_of[c.index()] > level_of[j.index()]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The text parser is total: bytes from the network, decoded the way
    /// a lenient reader would, are parsed or refused, never a panic.
    #[test]
    fn parse_is_total_over_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = parse_workflow(&String::from_utf8_lossy(&bytes));
    }

    /// The same over statement-shaped input, which gets past the first
    /// token far more often than raw bytes do. Whatever parses must
    /// survive its own write/parse round trip.
    #[test]
    fn parse_is_total_over_statement_soup(words in prop::collection::vec(0usize..SOUP.len(), 0..160)) {
        let text: String = words.iter().map(|&w| SOUP[w]).collect();
        if let Ok(wf) = parse_workflow(&text) {
            let again = parse_workflow(&write_workflow(&wf));
            prop_assert_eq!(again.map(|w| w.job_count()), Ok(wf.job_count()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Whitespace and the case of keywords mean nothing: a statement-soup
    /// text respelled with other separators (ASCII and not) and recased
    /// keywords parses to an equal workflow, or fails the same way on the
    /// same line. A respelled line is often not ASCII where the original
    /// was, so the parser's ASCII path is held to its Unicode one.
    #[test]
    fn respelling_whitespace_and_keywords_changes_no_parse(
        words in prop::collection::vec(0usize..SOUP.len(), 0..160),
        seed in any::<u64>(),
    ) {
        let text: String = words.iter().map(|&w| SOUP[w]).collect();
        let respelled = respell(&text, seed);
        prop_assert_eq!(outcome(&respelled), outcome(&text), "{:?}\n{:?}", text, respelled);
    }

    /// The same over what the writer emits, which always parses.
    #[test]
    fn respelling_a_written_workflow_changes_no_parse(dag in random_dag_strategy(), seed in any::<u64>()) {
        let text = write_workflow(&build(&dag));
        let respelled = respell(&text, seed);
        prop_assert!(outcome(&text).is_ok());
        prop_assert_eq!(outcome(&respelled), outcome(&text), "{:?}", respelled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// `workflow_name` names a text's workflow as the parser does, without
    /// the parse: over statement soup with more `WORKFLOW` statements
    /// strewn in, as it is and respelled, whatever parses is named so.
    #[test]
    fn the_name_of_a_soup_is_the_name_it_parses_to(
        words in prop::collection::vec(0usize..SOUP.len() + NAMING.len(), 0..160),
        seed in any::<u64>(),
    ) {
        let text: String =
            words.iter().map(|&w| *SOUP.get(w).unwrap_or_else(|| &NAMING[w - SOUP.len()])).collect();
        for text in [respell(&text, seed), text] {
            if let Ok(wf) = parse_workflow(&text) {
                prop_assert_eq!(workflow_name(&text), wf.name(), "{:?}", text);
            }
        }
    }

    /// The same over what the writer emits, with a `WORKFLOW` statement of
    /// another name put on any line, as it is and respelled.
    #[test]
    fn the_name_of_a_written_workflow_is_the_name_it_parses_to(
        dag in random_dag_strategy(),
        seed in any::<u64>(),
    ) {
        let written = write_workflow(&build(&dag));
        let mut lines: Vec<&str> = written.lines().collect();
        let renamed = format!("WORKFLOW n{seed}");
        lines.insert(seed as usize % (lines.len() + 1), &renamed);
        let renamed = lines.join("\n");
        for text in [respell(&written, seed), respell(&renamed, seed), written, renamed] {
            let wf = parse_workflow(&text).unwrap();
            prop_assert_eq!(workflow_name(&text), wf.name(), "{:?}", text);
        }
    }

    /// It is total: any string gets a name, never a panic — bytes read as
    /// a lenient reader would, and any sequence of chars.
    #[test]
    fn naming_is_total_over_arbitrary_strings(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        chars in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let _ = workflow_name(&String::from_utf8_lossy(&bytes));
        let text: String =
            chars.iter().map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')).collect();
        let _ = workflow_name(&text);
    }
}

/// `WORKFLOW` statements beside [`SOUP`]'s one: named as it is and as a
/// keyword, malformed, in other cases and split across lines, so that the
/// last well-formed one is not always the last one.
const NAMING: [&str; 7] = [
    "WORKFLOW v\n",
    "workflow WORKFLOW\n",
    "Workflow é\r\n",
    "WORKFLOW\n",
    "WORKFLOW x y\n",
    "WORKFLOW",
    "# WORKFLOW z\n",
];

/// What a parse comes to, comparable across texts: the workflow's name,
/// jobs, files (each view as `Debug` spells every field of it) and
/// children, or the error — for a parse error, its line.
#[derive(Debug, PartialEq)]
enum Outcome {
    Parsed(String, Vec<String>, Vec<String>, Vec<Vec<JobId>>),
    ParseError(usize),
    Refused(DagError),
}

fn outcome(text: &str) -> Result<Outcome, Outcome> {
    match parse_workflow(text) {
        Ok(wf) => {
            let children = wf.job_ids().map(|j| wf.children(j).to_vec()).collect();
            let jobs = wf.jobs().map(|j| format!("{j:?}")).collect();
            let files = wf.files().map(|f| format!("{f:?}")).collect();
            Ok(Outcome::Parsed(wf.name().into(), jobs, files, children))
        }
        Err(DagError::Parse { line, .. }) => Err(Outcome::ParseError(line)),
        Err(e) => Err(Outcome::Refused(e)),
    }
}

/// Separators a respelling puts between tokens (and around them): ASCII
/// whitespace, and three Unicode spaces (U+0085 does not end a line).
const SEPARATORS: [&str; 7] = [" ", "\t", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{85}"];

/// `text` with the same tokens on the same lines: each run of whitespace
/// replaced by a random run of [`SEPARATORS`], some lines given a `\r`
/// before their `\n`, and every keyword in a place where the parser reads
/// one recased at random.
fn respell(text: &str, seed: u64) -> String {
    let mut state = seed;
    let mut below = |n: usize| {
        state = mix(state);
        (state % n as u64) as usize
    };
    let mut out = String::new();
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let keyword = keyword_places(&toks);
        for (at, tok) in toks.iter().enumerate() {
            for _ in 0..(at > 0) as usize + below(3) {
                out.push_str(SEPARATORS[below(SEPARATORS.len())]);
            }
            if keyword[at] {
                out.extend(tok.chars().map(|c| match below(2) {
                    0 => c.to_ascii_lowercase(),
                    _ => c.to_ascii_uppercase(),
                }));
            } else {
                out.push_str(tok);
            }
        }
        for _ in 0..below(3) {
            out.push_str(SEPARATORS[below(SEPARATORS.len())]);
        }
        if below(2) == 0 {
            out.push('\r');
        }
    }
    out
}

/// Which tokens of a line the parser compares with a keyword, ignoring
/// case: the directive, and `INITIAL` of `FILE`, `CPU`, `CORES` and
/// `TIMEOUT` of `JOB`, the first `CHILD` of `PARENT` where they stand.
/// Every other token — a name, even one spelled like a keyword — is
/// case-sensitive.
fn keyword_places(toks: &[&str]) -> Vec<bool> {
    let is = |at: usize, words: &[&str]| {
        toks.get(at).is_some_and(|t| words.iter().any(|w| t.eq_ignore_ascii_case(w)))
    };
    let head =
        ["WORKFLOW", "FILE", "JOB", "INPUT", "OUTPUT", "PARENT"].into_iter().find(|&d| is(0, &[d]));
    let child = toks.iter().skip(1).position(|t| t.eq_ignore_ascii_case("CHILD")).map(|at| at + 1);
    (0..toks.len())
        .map(|at| match head {
            None => false,
            Some(_) if at == 0 => true,
            Some("FILE") => at == 3 && is(at, &["INITIAL"]),
            Some("JOB") => {
                (at == 3 && is(at, &["CPU"]))
                    || (at >= 5 && at % 2 == 1 && is(at, &["CORES", "TIMEOUT"]))
            }
            Some("PARENT") => Some(at) == child,
            Some(_) => false,
        })
        .collect()
}

/// Whole statements over a handful of names (so that references resolve,
/// repeat and dangle, in any order), then loose words: keywords in several
/// cases, numbers good and bad, and every separator the tokenizer knows.
const SOUP: [&str; 40] = [
    "JOB a t CPU 1\n",
    "JOB b t CPU 2 CORES 2\n",
    "job c u cpu 0.5 timeout 5\r\n",
    "FILE f 10 INITIAL\n",
    "FILE g 0\n",
    "INPUT a f\n",
    "OUTPUT a g\n",
    "INPUT b g f\n",
    "PARENT a CHILD b\n",
    "PARENT a b CHILD c\n",
    "WORKFLOW w\n",
    "# note\n",
    "PARENT",
    "CHILD",
    "INPUT",
    "OUTPUT",
    "FILE",
    "JOB",
    "CPU",
    "CORES",
    "TIMEOUT",
    "Initial",
    "a",
    "b",
    "c",
    "f",
    "é",
    "0",
    "2.5",
    "-1",
    "1e400",
    "nan",
    "18446744073709551616",
    "#",
    " ",
    " ",
    "\n",
    "\t",
    "\u{a0}",
    "\u{2028}",
];
