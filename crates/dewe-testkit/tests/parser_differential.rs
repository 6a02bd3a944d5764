//! Differential test of `dewe_dag::parse_workflow` against the parser it
//! replaced.
//!
//! `reference::parse_workflow` below is that parser — three passes over
//! per-line token vectors, owned name maps — kept as the model of what the
//! text format means. The shipped parser must agree with it on every text:
//! both accept and build equal workflows (jobs, files, adjacency, topological
//! order), or both reject with the same `DagError` variant. (The variant, not
//! the message: when a text has several faults of one kind the two report
//! different lines.) Texts are the `write_workflow` output of all seven
//! workflow families the oracle samples from, then seeded line- and
//! byte-level damage to each.

use dewe_dag::{parse_workflow, write_workflow, Workflow};
use dewe_montage::{
    random_layered, AdversarialConfig, CyberShakeConfig, EpigenomicsConfig, LigoConfig,
    MontageConfig, RandomDagConfig, SiphtConfig,
};
use dewe_testkit::scenario::{DagFamily, Rng};

mod reference {
    use std::collections::HashMap;

    use dewe_dag::{DagError, FileId, JobId, Workflow, WorkflowBuilder};

    struct Job<'a> {
        name: &'a str,
        xform: &'a str,
        cpu: f64,
        cores: Option<u32>,
        timeout: Option<f64>,
        inputs: Vec<FileId>,
        outputs: Vec<FileId>,
    }

    fn err(line: usize, message: &str) -> DagError {
        DagError::Parse { line, message: message.to_string() }
    }

    pub fn parse_workflow(text: &str) -> Result<Workflow, DagError> {
        let mut name = String::from("workflow");
        let mut decls: Vec<(usize, Vec<&str>)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            decls.push((lineno + 1, line.split_whitespace().collect()));
        }

        // Pass 0: the workflow name, so the builder is named.
        for (line, toks) in &decls {
            if toks[0].eq_ignore_ascii_case("WORKFLOW") {
                if toks.len() != 2 {
                    return Err(err(*line, "WORKFLOW takes exactly one name"));
                }
                name = toks[1].to_string();
            }
        }
        let mut b = WorkflowBuilder::new(name);
        // First declaration wins; the builder reports the repeat.
        let mut file_names: HashMap<String, FileId> = HashMap::new();
        let mut job_names: HashMap<String, JobId> = HashMap::new();
        let mut jobs: Vec<Job<'_>> = Vec::new();

        // Pass 1: FILE and JOB declarations.
        for (line, toks) in &decls {
            match toks[0].to_ascii_uppercase().as_str() {
                "FILE" => {
                    if toks.len() < 3 || toks.len() > 4 {
                        return Err(err(*line, "FILE <name> <size_bytes> [INITIAL]"));
                    }
                    let size: u64 = toks[2].parse().map_err(|_| err(*line, "bad size"))?;
                    let initial = match toks.get(3) {
                        None => false,
                        Some(t) if t.eq_ignore_ascii_case("INITIAL") => true,
                        Some(_) => return Err(err(*line, "unexpected token")),
                    };
                    let id = b.file(toks[1], size, initial);
                    file_names.entry(toks[1].to_string()).or_insert(id);
                }
                "JOB" => {
                    if toks.len() < 5 || !toks[3].eq_ignore_ascii_case("CPU") {
                        return Err(err(*line, "JOB <name> <xform> CPU <secs> ..."));
                    }
                    let cpu: f64 = toks[4].parse().map_err(|_| err(*line, "bad cpu seconds"))?;
                    let mut job = Job {
                        name: toks[1],
                        xform: toks[2],
                        cpu,
                        cores: None,
                        timeout: None,
                        inputs: Vec::new(),
                        outputs: Vec::new(),
                    };
                    let mut i = 5;
                    while i < toks.len() {
                        match toks[i].to_ascii_uppercase().as_str() {
                            "CORES" => {
                                let v = toks
                                    .get(i + 1)
                                    .and_then(|t| t.parse::<u32>().ok())
                                    .ok_or_else(|| err(*line, "CORES needs an integer"))?;
                                job.cores = Some(v);
                                i += 2;
                            }
                            "TIMEOUT" => {
                                let v = toks
                                    .get(i + 1)
                                    .and_then(|t| t.parse::<f64>().ok())
                                    .ok_or_else(|| err(*line, "TIMEOUT needs seconds"))?;
                                job.timeout = Some(v);
                                i += 2;
                            }
                            _ => return Err(err(*line, "unexpected token")),
                        }
                    }
                    job_names.entry(toks[1].to_string()).or_insert(JobId::from_index(jobs.len()));
                    jobs.push(job);
                }
                "WORKFLOW" | "INPUT" | "OUTPUT" | "PARENT" => {}
                _ => return Err(err(*line, "unknown directive")),
            }
        }

        // Pass 2: wiring.
        let unknown = |t: &str| DagError::UnknownName(t.to_string());
        let mut edges: Vec<(JobId, JobId)> = Vec::new();
        for (line, toks) in &decls {
            match toks[0].to_ascii_uppercase().as_str() {
                "INPUT" | "OUTPUT" => {
                    if toks.len() < 3 {
                        return Err(err(*line, "INPUT/OUTPUT <job> <file>..."));
                    }
                    let job = *job_names.get(toks[1]).ok_or_else(|| unknown(toks[1]))?;
                    let mut files = Vec::with_capacity(toks.len() - 2);
                    for t in &toks[2..] {
                        files.push(*file_names.get(*t).ok_or_else(|| unknown(t))?);
                    }
                    if toks[0].eq_ignore_ascii_case("INPUT") {
                        jobs[job.index()].inputs.extend(files);
                    } else {
                        jobs[job.index()].outputs.extend(files);
                    }
                }
                "PARENT" => {
                    let child_pos = toks
                        .iter()
                        .position(|t| t.eq_ignore_ascii_case("CHILD"))
                        .ok_or_else(|| err(*line, "PARENT ... CHILD ..."))?;
                    if child_pos == 1 || child_pos + 1 == toks.len() {
                        return Err(err(*line, "PARENT needs parents and children"));
                    }
                    let resolve = |names: &[&str]| -> Result<Vec<JobId>, DagError> {
                        names
                            .iter()
                            .map(|t| job_names.get(*t).copied().ok_or_else(|| unknown(t)))
                            .collect()
                    };
                    let parents = resolve(&toks[1..child_pos])?;
                    let children = resolve(&toks[child_pos + 1..])?;
                    for &p in &parents {
                        for &c in &children {
                            edges.push((p, c));
                        }
                    }
                }
                _ => {}
            }
        }

        for job in jobs {
            let mut jb = b.job(job.name, job.xform, job.cpu);
            if let Some(cores) = job.cores {
                jb = jb.cores(cores);
            }
            if let Some(secs) = job.timeout {
                jb = jb.timeout_secs(secs);
            }
            jb.inputs(job.inputs).outputs(job.outputs).build();
        }
        for (p, c) in edges {
            b.edge(p, c);
        }
        b.finish()
    }
}

/// Panics unless the two workflows are the same in everything an engine
/// can observe.
fn assert_same_workflow(new: &Workflow, old: &Workflow, what: &str) {
    assert_eq!(new.name(), old.name(), "{what}: name");
    assert_eq!(new.jobs().collect::<Vec<_>>(), old.jobs().collect::<Vec<_>>(), "{what}: jobs");
    assert_eq!(new.files().collect::<Vec<_>>(), old.files().collect::<Vec<_>>(), "{what}: files");
    assert_eq!(new.edge_count(), old.edge_count(), "{what}: edge count");
    for j in new.job_ids() {
        assert_eq!(new.children(j), old.children(j), "{what}: children of {j:?}");
        assert_eq!(new.parents(j), old.parents(j), "{what}: parents of {j:?}");
    }
    for f in new.file_ids() {
        assert_eq!(new.producer(f), old.producer(f), "{what}: producer of {f:?}");
    }
    assert_eq!(new.topo_order(), old.topo_order(), "{what}: topological order");
}

/// Run both parsers on `text`; returns whether they accepted it.
fn check(text: &str, what: &str) -> bool {
    match (parse_workflow(text), reference::parse_workflow(text)) {
        (Ok(new), Ok(old)) => {
            assert_same_workflow(&new, &old, what);
            true
        }
        (Err(new), Err(old)) => {
            assert_eq!(
                std::mem::discriminant(&new),
                std::mem::discriminant(&old),
                "{what}: new parser says {new:?}, reference says {old:?}\n{text}"
            );
            false
        }
        (new, old) => panic!(
            "{what}: new parser {:?}, reference {:?}\n{text}",
            new.map(|w| w.job_count()),
            old.map(|w| w.job_count())
        ),
    }
}

/// One small workflow of `family`, from its generator.
fn generate(family: DagFamily, seed: u64) -> Workflow {
    let pick = |n: u64| 1 + (seed % n) as usize;
    match family {
        DagFamily::Random => random_layered(&RandomDagConfig {
            layers: 1 + pick(4),
            width: pick(5),
            seed,
            ..RandomDagConfig::default()
        }),
        DagFamily::Montage => MontageConfig::degree(0.2).with_seed(seed).build(),
        DagFamily::CyberShake => CyberShakeConfig::new(pick(4)).with_seed(seed).build(),
        DagFamily::Epigenomics => EpigenomicsConfig::new(1, pick(2)).with_seed(seed).build(),
        DagFamily::Ligo => LigoConfig::new(1, pick(2)).with_seed(seed).build(),
        DagFamily::Sipht => SiphtConfig::new(pick(4)).with_seed(seed).build(),
        DagFamily::Adversarial => AdversarialConfig::from_seed(seed, 8).build(),
    }
}

const KEYWORDS: [&str; 11] = [
    "WORKFLOW", "FILE", "JOB", "INPUT", "OUTPUT", "PARENT", "CHILD", "CPU", "CORES", "TIMEOUT",
    "INITIAL",
];

/// One seeded mutation of `text`; the label says which.
fn mutate(text: &str, rng: &mut Rng) -> (&'static str, String) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return ("nothing left", String::new());
    }
    let at = rng.below(lines.len());
    let other = rng.below(lines.len());
    match rng.below(9) {
        0 => {
            lines.remove(at);
            ("dropped line", lines.join("\n"))
        }
        1 => {
            lines.insert(other, lines[at].clone());
            ("duplicated line", lines.join("\n"))
        }
        2 => {
            lines.swap(at, other);
            ("swapped lines", lines.join("\n"))
        }
        3 => {
            // Fisher–Yates: every statement order is legal input.
            for i in (1..lines.len()).rev() {
                lines.swap(i, rng.below(i + 1));
            }
            ("shuffled lines", lines.join("\n"))
        }
        4 => {
            let mut toks: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
            let t = rng.below(toks.len());
            let keep = rng.below(toks[t].chars().count());
            toks[t] = toks[t].chars().take(keep).collect();
            lines[at] = toks.join(" ");
            ("truncated token", lines.join("\n"))
        }
        5 => {
            let recased: Vec<String> = lines
                .iter()
                .map(|line| {
                    line.split(' ')
                        .map(|tok| match (KEYWORDS.contains(&tok), rng.below(3)) {
                            (true, 0) => tok.to_ascii_lowercase(),
                            (true, 1) => tok[..1].to_string() + &tok[1..].to_ascii_lowercase(),
                            _ => tok.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            ("mixed-case keywords", recased.join("\n"))
        }
        6 => ("CRLF", lines.join("\r\n") + "\r\n"),
        7 => {
            // Separators the ASCII table does not know, and blank noise.
            let odd = ["\u{a0}", "\u{2003}", "\u{85}", "\u{b}", "\t \t", "\u{2028}", "\r"];
            let line = lines[at].replace(' ', odd[rng.below(odd.len())]);
            lines[at] = format!(" \u{3000}{line}\u{c}");
            ("unicode whitespace", lines.join("\n"))
        }
        _ => {
            // Multi-byte names, then a cut at any byte: the submitter's
            // frame can end anywhere, and lossy decoding leaves U+FFFD.
            let wide = text.replace('_', "é").replace('.', "→");
            let cut = rng.below(wide.len() + 1);
            ("byte cut", String::from_utf8_lossy(&wide.as_bytes()[..cut]).into_owned())
        }
    }
}

#[test]
fn new_parser_agrees_with_the_reference_on_every_family_and_its_mutations() {
    let mut accepted_mutants = 0;
    let mut rejected_mutants = 0;
    for family in DagFamily::ALL {
        for seed in 0..4u64 {
            let text = write_workflow(&generate(family, seed));
            let what = format!("{} seed {seed}", family.name());
            assert!(check(&text, &what), "{what}: generator output must parse");
            let mut rng = Rng::new(seed ^ (family as u64) << 32);
            for round in 0..80 {
                let (label, mutant) = mutate(&text, &mut rng);
                // Half the time damage the damaged text again.
                let (label, mutant) = match round % 2 {
                    0 => (label, mutant),
                    _ => mutate(&mutant, &mut rng),
                };
                if check(&mutant, &format!("{what}, {label} (round {round})")) {
                    accepted_mutants += 1;
                } else {
                    rejected_mutants += 1;
                }
            }
        }
    }
    // The mutations must land on both sides of the accept/reject line,
    // or the comparison above proves nothing about one of them.
    assert!(accepted_mutants > 200, "only {accepted_mutants} mutants still parsed");
    assert!(rejected_mutants > 200, "only {rejected_mutants} mutants were rejected");
}

#[test]
fn error_variants_match_on_handwritten_faults() {
    let cases = [
        "",
        "BOGUS x",
        "WORKFLOW",
        "WORKFLOW a b",
        "FILE f",
        "FILE f 1 2 3",
        "FILE f x",
        "FILE f 1 INITIALLY",
        "JOB a t",
        "JOB a t CPUS 1",
        "JOB a t CPU x",
        "JOB a t CPU 1 CORES",
        "JOB a t CPU 1 CORES x",
        "JOB a t CPU 1 TIMEOUT",
        "JOB a t CPU 1 EXTRA 2",
        "JOB a t CPU -1",
        "JOB a t CPU 1 CORES 0",
        "JOB a t CPU 1 TIMEOUT 0",
        "JOB a t CPU inf",
        "INPUT a",
        "INPUT a f",
        "JOB a t CPU 1\nINPUT a f",
        "JOB a t CPU 1\nOUTPUT a f\nFILE f 1\nFILE f 2",
        "JOB a t CPU 1\nJOB a t CPU 1\nPARENT a CHILD a",
        "JOB a t CPU 1\nJOB b t CPU 1\nFILE f 1\nOUTPUT a f\nOUTPUT b f",
        "PARENT a",
        "PARENT CHILD a",
        "PARENT a CHILD",
        "PARENT a CHILD b",
        "JOB CHILD t CPU 1\nPARENT CHILD CHILD CHILD",
        "JOB a t CPU 1\nPARENT a CHILD a CHILD",
        "JOB a t CPU 1\nJOB b t CPU 1\nPARENT a CHILD b\nPARENT b CHILD a",
        "INPUT a nosuch\nFILE f notanumber",
        "INPUT a nosuch\nPARENT a",
        "PARENT a\nINPUT a nosuch",
        "FILE f notanumber\nWORKFLOW",
        "# JOB a\n  # indented comment\n#\nJOB #a #t CPU 1",
    ];
    for text in cases {
        check(text, &format!("{text:?}"));
    }
}
