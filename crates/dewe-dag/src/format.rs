//! DAGMan-style plain-text workflow format.
//!
//! DEWE v2 (like Condor DAGMan, which Pegasus plans into) describes
//! workflows in a line-oriented text file living in the workflow folder on
//! the shared file system. This module implements a self-contained dialect:
//!
//! ```text
//! # comment
//! WORKFLOW m16_6deg
//! FILE raw_001.fits 2900000 INITIAL
//! FILE proj_001.fits 1600000
//! JOB mProjectPP_001 mProjectPP CPU 1.7
//! JOB mConcatFit mConcatFit CPU 110 TIMEOUT 900
//! JOB mBgModel mBgModel CPU 130 CORES 8
//! INPUT mProjectPP_001 raw_001.fits
//! OUTPUT mProjectPP_001 proj_001.fits
//! PARENT mProjectPP_001 CHILD mConcatFit
//! ```
//!
//! * `FILE name size [INITIAL]` — data artifact; `INITIAL` marks pre-staged
//!   inputs.
//! * `JOB name xform CPU secs [CORES n] [TIMEOUT secs]` — a task.
//! * `INPUT job file...` / `OUTPUT job file...` — data flow (implies edges).
//! * `PARENT a... CHILD b...` — explicit precedence (DAGMan syntax: full
//!   bipartite product of the two lists).
//!
//! [`parse_workflow`] and [`write_workflow`] round-trip: parsing the output
//! of `write_workflow` reproduces an equivalent workflow (asserted by
//! property tests).
//!
//! A text is parsed at every hop of a deployment — by the submitter, the
//! master and each worker — and comes from the network, so the parser is
//! built for time per byte and stays total over arbitrary input:
//!
//! * each line is split once, into a reused slice of tokens. ASCII text is
//!   scanned a word of eight bytes at a time; a line holding any other byte
//!   is split by `str::split_whitespace`, which defines what a token is;
//! * names go straight into the workflow's name arena, once each. A name
//!   is compared with a few likely declarations, read from the arena,
//!   before the name index is asked. The index holds std's keyed SipHash of
//!   each name and its id, never the name, since names come from
//!   unauthenticated submitters; each declared name is hashed into it
//!   once, which is also the duplicate check;
//! * the I/O lists and the adjacency are placed by counting, never by
//!   sorting ([`WorkflowBuilder`]'s `finish_unique`).
//!
//! [`write_workflow`] is linear too: which child edges data flow implies is
//! marked in one pass over every job's inputs.

use crate::error::DagError;
use crate::ids::{FileId, JobId};
use crate::names::HashIndex;
use crate::workflow::{Declared, Workflow, WorkflowBuilder};

/// Most explicit `PARENT … CHILD …` edges one text may declare, counted
/// after expanding each statement's bipartite product. A statement naming
/// *p* parents and *c* children asks for *p·c* edges, so without a ceiling
/// a few kilobytes of text could demand terabytes of edge list. 2²⁴ is an
/// order of magnitude above the largest published scientific workflows
/// and bounds the list at 128 MiB; a text asking for more is rejected
/// before the expansion is allocated.
const MAX_EXPLICIT_EDGES: usize = 1 << 24;

/// Parse a workflow from the text format.
///
/// One pass over the text, a line at a time: each line is split into a
/// reused token slice, and its statement applied. `FILE`/`JOB`
/// declarations take effect as they are read; wiring statements
/// (`INPUT`/`OUTPUT`/`PARENT`) are resolved on the spot against the names
/// declared so far. The format allows any statement order, so the first
/// wiring statement that does not resolve — and, to keep errors in file
/// order, every wiring statement after it — is set aside and resolved once
/// the whole text has been read. Files written by [`write_workflow`]
/// declare before they wire and never take that path.
///
/// Declaration errors are reported before wiring errors, each kind in
/// file order.
pub fn parse_workflow(text: &str) -> Result<Workflow, DagError> {
    let mut parser = Parser::default();
    let mut name = UNNAMED;
    let mut deferred: Vec<(Directive, Lines<'_>)> = Vec::new();
    let mut toks = Vec::new();
    let mut lines = Lines { text, at: 0, line: 0 };
    loop {
        let from = lines;
        let Some(line) = lines.next_into(&mut toks) else { break };
        let Some((&head, args)) = toks.split_first() else { continue };
        if head.starts_with('#') {
            continue;
        }
        match Directive::of(head) {
            Some(Directive::Workflow) => match *args {
                [n] => name = n,
                _ => return Err(err(line, "WORKFLOW takes exactly one name")),
            },
            Some(Directive::File) => parser.file(line, args)?,
            Some(Directive::Job) => parser.job(line, args)?,
            Some(wiring) => {
                if !deferred.is_empty() || parser.wire(wiring, line, args).is_err() {
                    deferred.push((wiring, from));
                }
            }
            None => return Err(err(line, &format!("unknown directive `{head}`"))),
        }
    }
    for (wiring, mut from) in deferred {
        // Read the line again from where it began.
        if let Some(line) = from.next_into(&mut toks) {
            parser.wire(wiring, line, &toks[1..])?;
        }
    }
    parser.finish(name)
}

/// The name of a text's workflow when it has no `WORKFLOW` statement.
const UNNAMED: &str = "workflow";

/// The name [`parse_workflow`] gives the workflow of `text` if `text`
/// parses, found without parsing it: the name of the last `WORKFLOW`
/// statement, or `workflow` when there is none. One scan for the text's
/// `\n`s, eight bytes at a time; of each line only the first byte is read,
/// and the line is split only if that byte could start `WORKFLOW` or put
/// whitespace ahead of it. Nothing else in the text is checked.
pub fn workflow_name(text: &str) -> &str {
    let bytes = text.as_bytes();
    let mut name = statement_name(text, 0).unwrap_or(UNNAMED);
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let word = match rest.first_chunk::<8>() {
            Some(&chunk) => u64::from_le_bytes(chunk),
            None => {
                // The end of the text, padded with a byte that is not `\n`.
                let mut chunk = [0; 8];
                chunk[..rest.len()].copy_from_slice(rest);
                u64::from_le_bytes(chunk)
            }
        };
        // Each byte's high bit, set where the byte is `\n`.
        let t = word ^ NEWLINES;
        let mut newlines = !(((t & !HIGH) + !HIGH) | t) & HIGH;
        while newlines != 0 {
            let line = at + (newlines.trailing_zeros() / 8) as usize + 1;
            name = statement_name(text, line).unwrap_or(name);
            newlines &= newlines - 1;
        }
        at += 8;
    }
    name
}

/// `\n` in each byte of a word.
const NEWLINES: u64 = 0x0a0a_0a0a_0a0a_0a0a;

/// The name the line starting at `start` gives its workflow, if it is a
/// `WORKFLOW` statement of one name.
fn statement_name(text: &str, start: usize) -> Option<&str> {
    match text.as_bytes().get(start)? {
        b'W' | b'w' | b' ' | b'\t'..=b'\r' | 0x80.. => {}
        _ => return None,
    }
    let line = &text[start..];
    let mut toks = line[..line.find('\n').unwrap_or(line.len())].split_whitespace();
    match (toks.next(), toks.next(), toks.next()) {
        (Some(head), Some(name), None) if head.eq_ignore_ascii_case("WORKFLOW") => Some(name),
        _ => None,
    }
}

/// The lines of a text, each split into the tokens `str::split_whitespace`
/// would give: the statements of `str::lines` and their words, in one
/// scan. ASCII text is read eight bytes at a time; a line that is not all
/// ASCII is handed to `split_whitespace` itself, which knows Unicode's
/// separators.
#[derive(Clone, Copy)]
struct Lines<'a> {
    text: &'a str,
    /// Byte offset where the next line starts; past the end when there is
    /// none.
    at: usize,
    /// The number of the line last read, counted from 1.
    line: usize,
}

/// The high bit of each byte of a word.
const HIGH: u64 = 0x8080_8080_8080_8080;

impl<'a> Lines<'a> {
    /// Split the next line into `toks`; its number, or `None` after the
    /// last line.
    fn next_into(&mut self, toks: &mut Vec<&'a str>) -> Option<usize> {
        let text = self.text;
        if self.at > text.len() {
            return None;
        }
        let first = self.at;
        toks.clear();
        let end = self.split_ascii(toks).unwrap_or_else(|| {
            let end = text[first..].find('\n').map_or(text.len(), |n| first + n);
            toks.clear();
            toks.extend(text[first..end].split_whitespace());
            end
        });
        self.at = end + 1;
        self.line += 1;
        Some(self.line)
    }

    /// Split the line at `self.at` into `toks` a word of eight bytes at a
    /// time; the offset of its end (its `\n`, or the end of the text). `None`
    /// on meeting a byte that is not ASCII, which may sit on a later line
    /// within the same word.
    fn split_ascii(&self, toks: &mut Vec<&'a str>) -> Option<usize> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        // Where the token in hand starts.
        let mut token = self.at;
        let mut cut = |at: usize, token: &mut usize| {
            if at > *token {
                toks.push(&text[*token..at]);
            }
            *token = at + 1;
        };
        let mut at = self.at;
        loop {
            let rest = &bytes[at..];
            let word = match rest.first_chunk::<8>() {
                Some(&chunk) => u64::from_le_bytes(chunk),
                None => {
                    // The end of the text, padded with a byte that is part of a token.
                    let mut chunk = [b'!'; 8];
                    chunk[..rest.len()].copy_from_slice(rest);
                    u64::from_le_bytes(chunk)
                }
            };
            if word & HIGH != 0 {
                return None;
            }
            // One bit on each byte up to 0x20: the separators, `\n`, and
            // the control characters that are neither.
            let mut low = !word.wrapping_add(0x5f5f_5f5f_5f5f_5f5f) & HIGH;
            while low != 0 {
                let i = at + (low.trailing_zeros() / 8) as usize;
                match bytes[i] {
                    b'\n' => {
                        cut(i, &mut token);
                        return Some(i);
                    }
                    // The ASCII characters `char::is_whitespace` accepts.
                    b' ' | b'\t'..=b'\r' => cut(i, &mut token),
                    _ => {}
                }
                low &= low - 1;
            }
            if rest.len() <= 8 {
                cut(bytes.len(), &mut token);
                return Some(bytes.len());
            }
            at += 8;
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Directive {
    Workflow,
    File,
    Job,
    Input,
    Output,
    Parent,
}

impl Directive {
    fn of(token: &str) -> Option<Self> {
        const WORDS: [(&str, Directive); 6] = [
            ("FILE", Directive::File),
            ("INPUT", Directive::Input),
            ("OUTPUT", Directive::Output),
            ("JOB", Directive::Job),
            ("PARENT", Directive::Parent),
            ("WORKFLOW", Directive::Workflow),
        ];
        WORDS.iter().find(|(word, _)| token.eq_ignore_ascii_case(word)).map(|&(_, d)| d)
    }
}

/// The index of the names of one kind (jobs or files) declared so far; the
/// names themselves are the builder's, in id order.
#[derive(Default)]
struct Names {
    /// Name → id, for ids `..indexed`; the first declaration of a name
    /// wins. Brought up to date when a lookup needs it and once more at the
    /// end, so each name is hashed into it once, and a text that declares
    /// before it wires is indexed in one go, into a table allocated at its
    /// final size.
    index: HashIndex,
    indexed: usize,
    /// The first id, in declaration order, whose name was declared before.
    repeated: Option<usize>,
}

impl Names {
    /// Index the `declared` names not yet indexed, noting the first repeat.
    fn index_rest(&mut self, declared: Declared<'_>) {
        let name_of = |id: u32| declared.get(id as usize).unwrap_or_default();
        self.index.reserve(declared.len() - self.indexed);
        for at in self.indexed..declared.len() {
            if self.index.insert(name_of(at as u32), at as u32, name_of).is_some() {
                self.repeated.get_or_insert(at);
            }
        }
        self.indexed = declared.len();
    }

    /// Id of `name` among the `declared`: one of `guess`'s, or else the
    /// index's.
    fn resolve(
        &mut self,
        name: &str,
        declared: Declared<'_>,
        guess: &mut Guess,
        place: usize,
    ) -> Result<usize, DagError> {
        let near = guess.near(place);
        let at = match near.into_iter().find(|&at| declared.get(at) == Some(name)) {
            Some(at) => at,
            None => {
                self.index_rest(declared);
                let name_of = |id: u32| declared.get(id as usize).unwrap_or_default();
                match self.index.get(name, name_of) {
                    Some(at) => at as usize,
                    None => return Err(DagError::UnknownName(name.to_string())),
                }
            }
        };
        guess.learn(place, at);
        Ok(at)
    }
}

/// Where the names of one kind of wiring statement are likely declared.
/// Writers emit wiring in declaration order and give statements of a kind
/// one shape, so before the index is asked (and the name hashed), a name
/// is compared with four declarations:
/// * the one after the last name resolved;
/// * the one as far past that as it was past the name before it;
/// * in the first four places of a statement, the one as far past the
///   name last resolved at that place as that was past the one before it;
/// * the last name itself (`INPUT j …`, then `OUTPUT j …`).
#[derive(Default)]
struct Guess {
    last: usize,
    step: usize,
    /// Per place in a statement: the last position resolved there, and
    /// its step from the one before.
    places: [(usize, usize); 4],
}

impl Guess {
    fn near(&self, place: usize) -> [usize; 4] {
        let (at, step) = self.places.get(place).copied().unwrap_or_default();
        let last = self.last;
        [last.wrapping_add(1), last.wrapping_add(self.step), at.wrapping_add(step), last]
    }

    fn learn(&mut self, place: usize, at: usize) {
        self.step = at.wrapping_sub(self.last);
        self.last = at;
        if let Some(slot) = self.places.get_mut(place) {
            *slot = (at, at.wrapping_sub(slot.0));
        }
    }
}

#[derive(Default)]
struct Parser {
    builder: WorkflowBuilder,
    jobs: Names,
    files: Names,
    /// Where the job names of `INPUT`/`OUTPUT`, their files, and the names
    /// of `PARENT` are likely declared.
    io_jobs: Guess,
    inputs: Guess,
    outputs: Guess,
    edges: Guess,
    /// Explicit edges declared so far, against [`MAX_EXPLICIT_EDGES`].
    explicit_edges: usize,
    /// Resolved ids of the wiring statement in hand, so that a statement
    /// that fails to resolve leaves no trace.
    file_ids: Vec<FileId>,
    job_ids: Vec<JobId>,
}

impl Parser {
    /// `FILE` with the tokens after it, read on line `line`.
    fn file(&mut self, line: usize, args: &[&str]) -> Result<(), DagError> {
        let usage = "FILE <name> <size_bytes> [INITIAL]";
        let [name, size, ref rest @ ..] = *args else {
            return Err(err(line, usage));
        };
        let size: u64 = size.parse().map_err(|_| err(line, &format!("bad size `{size}`")))?;
        let initial = match rest {
            [] => false,
            [t, ..] if t.eq_ignore_ascii_case("INITIAL") => true,
            [t, ..] => return Err(err(line, &format!("unexpected token `{t}`"))),
        };
        if rest.len() > 1 {
            return Err(err(line, usage));
        }
        self.builder.file(name, size, initial);
        Ok(())
    }

    /// `JOB` with the tokens after it, read on line `line`.
    fn job(&mut self, line: usize, args: &[&str]) -> Result<(), DagError> {
        let usage = "JOB <name> <xform> CPU <secs> [CORES n] [TIMEOUT s]";
        let [name, xform, cpu_word, cpu, ref options @ ..] = *args else {
            return Err(err(line, usage));
        };
        if !cpu_word.eq_ignore_ascii_case("CPU") {
            return Err(err(line, usage));
        }
        let cpu_seconds: f64 =
            cpu.parse().map_err(|_| err(line, &format!("bad cpu seconds `{cpu}`")))?;
        let (mut cores, mut timeout) = (1, None);
        for pair in options.chunks(2) {
            let (option, value) = (pair[0], pair.get(1));
            if option.eq_ignore_ascii_case("CORES") {
                cores = value
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line, "CORES needs an integer"))?;
            } else if option.eq_ignore_ascii_case("TIMEOUT") {
                let secs: f64 = value
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line, "TIMEOUT needs seconds"))?;
                timeout = Some(secs);
            } else {
                return Err(err(line, &format!("unexpected token `{option}`")));
            }
        }
        let job = self.builder.job(name, xform, cpu_seconds).cores(cores);
        match timeout {
            Some(secs) => job.timeout_secs(secs),
            None => job,
        }
        .build();
        Ok(())
    }

    /// Resolve one wiring statement and apply it, or fail without effect.
    fn wire(&mut self, directive: Directive, line: usize, args: &[&str]) -> Result<(), DagError> {
        if directive == Directive::Parent {
            return self.parent_child(line, args);
        }
        let [job, ref files @ ..] = *args else {
            return Err(err(line, "INPUT/OUTPUT <job> <file>..."));
        };
        if files.is_empty() {
            return Err(err(line, "INPUT/OUTPUT <job> <file>..."));
        }
        let builder = &self.builder;
        let job = self.jobs.resolve(job, builder.job_names(), &mut self.io_jobs, 0)?;
        let job = JobId::from_index(job);
        let is_input = directive == Directive::Input;
        let guess = if is_input { &mut self.inputs } else { &mut self.outputs };
        self.file_ids.clear();
        for (place, name) in files.iter().enumerate() {
            let at = self.files.resolve(name, builder.file_names(), guess, place)?;
            self.file_ids.push(FileId::from_index(at));
        }
        let wiring = if is_input { &mut self.builder.inputs } else { &mut self.builder.outputs };
        wiring.extend(self.file_ids.iter().map(|&file| (job, file)));
        Ok(())
    }

    /// `PARENT a... CHILD b...`: the tokens up to the first `CHILD` are
    /// parents, everything after it is a child.
    fn parent_child(&mut self, line: usize, args: &[&str]) -> Result<(), DagError> {
        self.job_ids.clear();
        let mut parents = None;
        let mut unknown = None;
        for token in args {
            if parents.is_none() && token.eq_ignore_ascii_case("CHILD") {
                parents = Some(self.job_ids.len());
                continue;
            }
            // Keep counting past an unknown name: a malformed statement
            // is reported as malformed even when it also names no job.
            let declared = self.builder.job_names();
            match self.jobs.resolve(token, declared, &mut self.edges, self.job_ids.len()) {
                Ok(at) => self.job_ids.push(JobId::from_index(at)),
                Err(e) => {
                    unknown.get_or_insert(e);
                    self.job_ids.push(JobId(0));
                }
            }
        }
        let parents = parents.ok_or_else(|| err(line, "PARENT ... CHILD ..."))?;
        let (parents, children) = self.job_ids.split_at(parents);
        if parents.is_empty() || children.is_empty() {
            return Err(err(line, "PARENT needs parents and children"));
        }
        if let Some(unknown) = unknown {
            return Err(unknown);
        }
        self.explicit_edges = parents
            .len()
            .checked_mul(children.len())
            .and_then(|n| n.checked_add(self.explicit_edges))
            .filter(|&n| n <= MAX_EXPLICIT_EDGES)
            .ok_or_else(|| {
                err(line, &format!("more than {MAX_EXPLICIT_EDGES} PARENT/CHILD edges"))
            })?;
        for &p in parents {
            for &c in children {
                self.builder.edge(p, c);
            }
        }
        Ok(())
    }

    fn finish(self, name: &str) -> Result<Workflow, DagError> {
        let Parser { mut builder, mut jobs, mut files, .. } = self;
        let repeated = {
            let (job_names, file_names) = (builder.job_names(), builder.file_names());
            jobs.index_rest(job_names);
            files.index_rest(file_names);
            match (jobs.repeated, files.repeated) {
                (Some(at), _) => job_names.get(at),
                (None, at) => at.and_then(|at| file_names.get(at)),
            }
            .map(str::to_string)
        };
        if let Some(repeated) = repeated {
            return Err(DagError::DuplicateName(repeated));
        }
        // The name indexes, the parse's largest temporaries, are freed
        // before the adjacency is built.
        drop((jobs, files));
        builder.name = name.to_string();
        builder.finish_unique()
    }
}

/// Serialize a workflow to the text format.
///
/// Declarations first (files, then jobs, in id order), then each job's
/// wiring: its `INPUT` and `OUTPUT` lists and a `PARENT … CHILD …` line for
/// each child edge that data flow does not imply.
pub fn write_workflow(wf: &Workflow) -> String {
    use std::fmt::Write;
    // Which child edges data flow implies, marked in one pass over every
    // job's inputs: the `k`-th child of job `j` is `implied[first[j] + k]`.
    let mut first = Vec::with_capacity(wf.job_count());
    let mut edges = 0;
    for j in wf.job_ids() {
        first.push(edges);
        edges += wf.children(j).len();
    }
    let mut implied = vec![false; edges];
    for c in wf.job_ids() {
        for &f in &wf.job(c).inputs {
            if let Some(p) = wf.producer(f) {
                if let Ok(k) = wf.children(p).binary_search(&c) {
                    implied[first[p.index()] + k] = true;
                }
            }
        }
    }

    let mut out = String::new();
    out.push_str("# generated by dewe-dag\nWORKFLOW ");
    out.push_str(wf.name());
    out.push('\n');
    for f in wf.files() {
        out.push_str("FILE ");
        out.push_str(f.name);
        let _ = write!(out, " {}", f.size_bytes);
        out.push_str(if f.initial { " INITIAL\n" } else { "\n" });
    }
    for j in wf.jobs() {
        for part in ["JOB ", j.name, " ", j.xform] {
            out.push_str(part);
        }
        let _ = write!(out, " CPU {}", j.cpu_seconds);
        if j.cores != 1 {
            let _ = write!(out, " CORES {}", j.cores);
        }
        if let Some(t) = j.timeout_secs {
            let _ = write!(out, " TIMEOUT {t}");
        }
        out.push('\n');
    }
    for (ji, j) in wf.jobs().iter().enumerate() {
        for (directive, files) in [("INPUT ", &j.inputs), ("OUTPUT ", &j.outputs)] {
            if !files.is_empty() {
                out.push_str(directive);
                out.push_str(j.name);
                for &f in files {
                    out.push(' ');
                    out.push_str(wf.file(f).name);
                }
                out.push('\n');
            }
        }
        let children = wf.children(JobId::from_index(ji));
        for (k, &c) in children.iter().enumerate() {
            if !implied[first[ji] + k] {
                for part in ["PARENT ", j.name, " CHILD ", wf.job(c).name, "\n"] {
                    out.push_str(part);
                }
            }
        }
    }
    out
}

fn err(line: usize, message: &str) -> DagError {
    DagError::Parse { line, message: message.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# sample montage fragment
WORKFLOW frag
FILE raw.fits 2900000 INITIAL
FILE proj.fits 1600000
FILE fit.tbl 4096
JOB mProjectPP_0 mProjectPP CPU 1.7
JOB mDiffFit_0 mDiffFit CPU 0.9 TIMEOUT 120
JOB mConcatFit mConcatFit CPU 110 CORES 4
INPUT mProjectPP_0 raw.fits
OUTPUT mProjectPP_0 proj.fits
INPUT mDiffFit_0 proj.fits
OUTPUT mDiffFit_0 fit.tbl
PARENT mDiffFit_0 CHILD mConcatFit
"#;

    #[test]
    fn parses_sample() {
        let wf = parse_workflow(SAMPLE).unwrap();
        assert_eq!(wf.name(), "frag");
        assert_eq!(wf.job_count(), 3);
        assert_eq!(wf.file_count(), 3);
        // data edge mProjectPP_0 -> mDiffFit_0 plus explicit edge -> 2 edges
        assert_eq!(wf.edge_count(), 2);
        let diff = wf.job_by_name("mDiffFit_0").unwrap();
        assert_eq!(wf.job(diff).timeout_secs, Some(120.0));
        let cat = wf.job_by_name("mConcatFit").unwrap();
        assert_eq!(wf.job(cat).cores, 4);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let wf = parse_workflow(SAMPLE).unwrap();
        let text = write_workflow(&wf);
        let wf2 = parse_workflow(&text).unwrap();
        assert_eq!(wf.job_count(), wf2.job_count());
        assert_eq!(wf.file_count(), wf2.file_count());
        assert_eq!(wf.edge_count(), wf2.edge_count());
        for (a, b) in wf.jobs().iter().zip(wf2.jobs()) {
            assert_eq!(a, b);
        }
        for (a, b) in wf.files().iter().zip(wf2.files()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn unknown_directive_errors_with_line() {
        let e = parse_workflow("BOGUS x").unwrap_err();
        match e {
            DagError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_job_in_parent_errors() {
        let e = parse_workflow("JOB a t CPU 1\nPARENT a CHILD nosuch").unwrap_err();
        assert!(matches!(e, DagError::UnknownName(_)));
    }

    #[test]
    fn unknown_file_in_input_errors() {
        let e = parse_workflow("JOB a t CPU 1\nINPUT a nosuch.fits").unwrap_err();
        assert!(matches!(e, DagError::UnknownName(_)));
    }

    #[test]
    fn bipartite_parent_child() {
        let text =
            "JOB a t CPU 1\nJOB b t CPU 1\nJOB c t CPU 1\nJOB d t CPU 1\nPARENT a b CHILD c d";
        let wf = parse_workflow(text).unwrap();
        assert_eq!(wf.edge_count(), 4);
    }

    #[test]
    fn bad_size_errors() {
        let e = parse_workflow("FILE f notanumber").unwrap_err();
        assert!(matches!(e, DagError::Parse { .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let wf = parse_workflow("# hi\n\n  \nJOB a t CPU 1\n").unwrap();
        assert_eq!(wf.job_count(), 1);
    }

    #[test]
    fn statements_may_come_in_any_order() {
        let text = "PARENT a CHILD b\nINPUT b f\nOUTPUT a f\nJOB b t CPU 2\nFILE f 7\n\
                    JOB a t CPU 1\nWORKFLOW late";
        let wf = parse_workflow(text).unwrap();
        assert_eq!(wf.name(), "late");
        let (a, b) = (wf.job_by_name("a").unwrap(), wf.job_by_name("b").unwrap());
        assert_eq!((a, b), (JobId(1), JobId(0)), "ids follow declaration order");
        assert_eq!(wf.children(a), &[b]);
        assert_eq!(wf.job(b).inputs, wf.job(a).outputs);
    }

    #[test]
    fn a_set_aside_statement_keeps_later_ones_in_file_order() {
        // Line 2 cannot resolve when it is read, so line 3 must wait
        // behind it although it could: inputs keep their file order.
        let text = "JOB a t CPU 1\nINPUT a late\nINPUT a early\nFILE early 1\nFILE late 1";
        let wf = parse_workflow(text).unwrap();
        let a = wf.job_by_name("a").unwrap();
        let names: Vec<&str> = wf.job(a).inputs.iter().map(|&f| wf.file(f).name).collect();
        assert_eq!(names, ["late", "early"]);
    }

    #[test]
    fn declaration_errors_come_before_wiring_errors() {
        let text = "JOB a t CPU 1\nINPUT a nosuch\nFILE f notanumber";
        assert!(matches!(parse_workflow(text), Err(DagError::Parse { line: 3, .. })));
        let text = "JOB a t CPU 1\nINPUT a nosuch\nPARENT a";
        assert!(matches!(parse_workflow(text), Err(DagError::UnknownName(_))));
    }

    #[test]
    fn malformed_parent_is_a_parse_error_even_with_unknown_names() {
        for text in ["PARENT nosuch", "PARENT CHILD nosuch", "PARENT nosuch CHILD"] {
            assert!(matches!(parse_workflow(text), Err(DagError::Parse { line: 1, .. })), "{text}");
        }
    }

    #[test]
    fn keywords_ignore_case_and_any_unicode_whitespace_separates() {
        let text =
            "workflow w\r\nfile\u{a0}f\u{2003}7 initial\r\njob a t cpu 1 cores 2 timeout 9\r\n\
                    Input a f\u{b}\r\nparent a child a";
        assert!(matches!(parse_workflow(text), Err(DagError::Cycle(_))));
        let wf = parse_workflow(text.rsplit_once("\r\n").unwrap().0).unwrap();
        assert_eq!(wf.name(), "w");
        assert!(wf.file(FileId(0)).initial);
        let job = wf.job(JobId(0));
        assert_eq!((job.cores, job.timeout_secs), (2, Some(9.0)));
        assert_eq!(*job.inputs, [FileId(0)]);
    }

    #[test]
    fn quadratic_parent_child_is_rejected_before_it_is_expanded() {
        // 130 KB of text asking for 33,000² > 10⁹ edges (8.7 GB of edge
        // list): the statement must fail on its size, not on memory.
        let names = "a ".repeat(33_000);
        let text = format!("JOB a t CPU 1\nPARENT {names}CHILD {names}");
        assert!(matches!(parse_workflow(&text), Err(DagError::Parse { line: 2, .. })));
    }

    #[test]
    fn cycle_via_parent_statements_rejected() {
        let text = "JOB a t CPU 1\nJOB b t CPU 1\nPARENT a CHILD b\nPARENT b CHILD a";
        assert!(matches!(parse_workflow(text), Err(DagError::Cycle(_))));
    }

    /// `Lines` must cut every text as `split('\n')` and then
    /// `split_whitespace` do: over every short text from an alphabet of a
    /// token byte, ASCII separators, a control character that is not one,
    /// and non-ASCII characters that are and are not; and over longer ones
    /// that cross words of eight bytes anywhere.
    #[test]
    fn lines_cut_as_split_and_split_whitespace_do() {
        const ALPHABET: [&str; 8] = ["a", " ", "\n", "\r", "\u{1}", "\u{b}", "é", "\u{a0}"];
        let check = |text: &str| {
            let want: Vec<Vec<&str>> =
                text.split('\n').map(|line| line.split_whitespace().collect()).collect();
            let (mut lines, mut toks, mut got) = (Lines { text, at: 0, line: 0 }, vec![], vec![]);
            while let Some(line) = lines.next_into(&mut toks) {
                assert_eq!(line, got.len() + 1, "{text:?}");
                got.push(toks.clone());
            }
            assert_eq!(got, want, "{text:?}");
        };
        let mut text = String::new();
        for len in 0..=5 {
            for n in 0..8usize.pow(len) {
                text.clear();
                (0..len).fold(n, |digits, _| {
                    text.push_str(ALPHABET[digits % 8]);
                    digits / 8
                });
                check(&text);
            }
        }
        let mut state = 1u64;
        for _ in 0..4000 {
            text.clear();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for k in 0..(state >> 59) as usize + 9 {
                let draw = (state >> (k % 20 * 3)) as usize;
                // Mostly tokens and spaces, as real text is.
                text.push_str(if draw.is_multiple_of(3) {
                    ALPHABET[draw / 3 % 8]
                } else {
                    ["x", " "][draw & 1]
                });
            }
            check(&text);
        }
    }
}
