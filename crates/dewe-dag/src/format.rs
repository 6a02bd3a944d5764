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

use std::collections::HashMap;

use crate::error::DagError;
use crate::ids::{FileId, JobId};
use crate::job::JobSpec;
use crate::workflow::{Workflow, WorkflowBuilder};

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
/// One pass over the text. `FILE`/`JOB` declarations take effect as they
/// are read; wiring statements (`INPUT`/`OUTPUT`/`PARENT`) are resolved on
/// the spot against the names declared so far. The format allows any
/// statement order, so the first wiring statement that does not resolve —
/// and, to keep errors in file order, every wiring statement after it —
/// is set aside and resolved once the whole text has been read. Files
/// written by [`write_workflow`] declare before they wire and never take
/// that path.
///
/// Declaration errors are reported before wiring errors, each kind in
/// file order.
pub fn parse_workflow(text: &str) -> Result<Workflow, DagError> {
    let mut parser = Parser::default();
    let mut name = "workflow";
    let mut deferred: Vec<(Directive, Tokens<'_>)> = Vec::new();
    let mut toks = Tokens { text, at: 0, line: 1 };
    loop {
        match toks.next() {
            None => {}
            Some(head) if head.starts_with('#') => {}
            Some(head) => match Directive::of(head) {
                Some(Directive::Workflow) => match (toks.next(), toks.next()) {
                    (Some(n), None) => name = n,
                    _ => return Err(err(toks.line, "WORKFLOW takes exactly one name")),
                },
                Some(Directive::File) => parser.file(&mut toks)?,
                Some(Directive::Job) => parser.job(&mut toks)?,
                Some(wiring) => {
                    if !deferred.is_empty() || parser.wire(wiring, &mut toks.clone()).is_err() {
                        deferred.push((wiring, toks.clone()));
                    }
                }
                None => return Err(err(toks.line, &format!("unknown directive `{head}`"))),
            },
        }
        if !toks.next_line() {
            break;
        }
    }
    for (wiring, mut toks) in deferred {
        parser.wire(wiring, &mut toks)?;
    }
    parser.finish(name)
}

/// The tokens of one line at a time: what `str::lines` followed by
/// `str::split_whitespace` yields, in one scan of the text. ASCII bytes
/// are classified through a table; only a non-ASCII character is decoded
/// and asked `char::is_whitespace`.
#[derive(Clone)]
struct Tokens<'a> {
    text: &'a str,
    /// Byte offset of the first unread character; inside `line`.
    at: usize,
    /// The current line, counted from 1.
    line: usize,
}

const TOKEN: u8 = 0;
/// Whitespace that separates tokens without ending the line.
const BLANK: u8 = 1;
const LINE_FEED: u8 = 2;
const NOT_ASCII: u8 = 3;

const CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut byte = 0;
    while byte < 256 {
        class[byte] = match byte as u8 {
            b'\n' => LINE_FEED,
            b' ' | b'\t' | 0x0b | 0x0c | b'\r' => BLANK,
            0x80.. => NOT_ASCII,
            _ => TOKEN,
        };
        byte += 1;
    }
    class
};

impl<'a> Tokens<'a> {
    /// Advance over the bytes of class `run`, and over the non-ASCII
    /// characters that are whitespace exactly when `run` is [`BLANK`].
    fn skip(&mut self, run: u8) {
        let bytes = self.text.as_bytes();
        while let Some(&byte) = bytes.get(self.at) {
            let class = CLASS[byte as usize];
            if class == run {
                self.at += 1;
            } else if class == NOT_ASCII {
                // `at` has only passed whole characters.
                let Some(c) = self.text.get(self.at..).and_then(|s| s.chars().next()) else {
                    return;
                };
                if c.is_whitespace() != (run == BLANK) {
                    return;
                }
                self.at += c.len_utf8();
            } else {
                return;
            }
        }
    }

    /// Leave the current line; false when it was the last.
    fn next_line(&mut self) -> bool {
        let Some(feed) = self.text.get(self.at..).and_then(|s| s.find('\n')) else {
            return false;
        };
        self.at += feed + 1;
        self.line += 1;
        true
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.skip(BLANK);
        let start = self.at;
        self.skip(TOKEN);
        self.text.get(start..self.at).filter(|token| !token.is_empty())
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

/// The names of one kind (jobs or files) declared so far, in id order.
/// Keys borrow from the text being parsed, so each name is allocated
/// once, for its `JobSpec`/`FileSpec`.
#[derive(Default)]
struct Names<'a> {
    declared: Vec<&'a str>,
    /// Name → position in `declared`, for `declared[..indexed]`; the first
    /// declaration of a name wins. Brought up to date when a lookup needs
    /// it, so a text that declares before it wires is indexed in one go,
    /// into a map allocated at its final size.
    index: HashMap<&'a str, usize>,
    indexed: usize,
}

impl<'a> Names<'a> {
    /// Position of `name`. Writers emit wiring in declaration order, so
    /// the name at `*cursor` (where the caller's last lookup ended) and
    /// the one before it are compared before the index is asked.
    fn resolve(&mut self, name: &str, cursor: &mut usize) -> Result<usize, DagError> {
        let near = [*cursor, cursor.wrapping_sub(1)];
        let at = match near.into_iter().find(|&at| self.declared.get(at) == Some(&name)) {
            Some(at) => at,
            None => {
                self.index.reserve(self.declared.len() - self.indexed);
                for (at, &declared) in self.declared.iter().enumerate().skip(self.indexed) {
                    self.index.entry(declared).or_insert(at);
                }
                self.indexed = self.declared.len();
                match self.index.get(name) {
                    Some(&at) => at,
                    None => return Err(DagError::UnknownName(name.to_string())),
                }
            }
        };
        *cursor = at + 1;
        Ok(at)
    }

    /// True when every declared name has been indexed and none repeated.
    fn indexed_unique(&self) -> bool {
        self.indexed == self.declared.len() && self.index.len() == self.declared.len()
    }
}

#[derive(Default)]
struct Parser<'a> {
    builder: WorkflowBuilder,
    jobs: Names<'a>,
    files: Names<'a>,
    /// Where the last job, input-file and output-file lookups ended.
    job_cursor: usize,
    input_cursor: usize,
    output_cursor: usize,
    /// Explicit edges declared so far, against [`MAX_EXPLICIT_EDGES`].
    explicit_edges: usize,
    /// Resolved ids of the wiring statement in hand, so that a statement
    /// that fails to resolve leaves no trace.
    file_ids: Vec<FileId>,
    job_ids: Vec<JobId>,
}

impl<'a> Parser<'a> {
    fn file(&mut self, toks: &mut Tokens<'a>) -> Result<(), DagError> {
        let usage = "FILE <name> <size_bytes> [INITIAL]";
        let (Some(name), Some(size)) = (toks.next(), toks.next()) else {
            return Err(err(toks.line, usage));
        };
        let size: u64 = size.parse().map_err(|_| err(toks.line, &format!("bad size `{size}`")))?;
        let initial = match toks.next() {
            None => false,
            Some(t) if t.eq_ignore_ascii_case("INITIAL") => true,
            Some(t) => return Err(err(toks.line, &format!("unexpected token `{t}`"))),
        };
        if toks.next().is_some() {
            return Err(err(toks.line, usage));
        }
        self.builder.file(name, size, initial);
        self.files.declared.push(name);
        Ok(())
    }

    fn job(&mut self, toks: &mut Tokens<'a>) -> Result<(), DagError> {
        let usage = "JOB <name> <xform> CPU <secs> [CORES n] [TIMEOUT s]";
        let (Some(name), Some(xform), Some(cpu_word), Some(cpu)) =
            (toks.next(), toks.next(), toks.next(), toks.next())
        else {
            return Err(err(toks.line, usage));
        };
        if !cpu_word.eq_ignore_ascii_case("CPU") {
            return Err(err(toks.line, usage));
        }
        let cpu_seconds: f64 =
            cpu.parse().map_err(|_| err(toks.line, &format!("bad cpu seconds `{cpu}`")))?;
        let mut spec = JobSpec {
            name: name.to_string(),
            xform: xform.to_string(),
            cpu_seconds,
            cores: 1,
            inputs: Vec::new(),
            outputs: Vec::new(),
            timeout_secs: None,
        };
        while let Some(option) = toks.next() {
            let value = toks.next();
            if option.eq_ignore_ascii_case("CORES") {
                let cores: u32 = value
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(toks.line, "CORES needs an integer"))?;
                spec.cores = cores.max(1);
            } else if option.eq_ignore_ascii_case("TIMEOUT") {
                let secs: f64 = value
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(toks.line, "TIMEOUT needs seconds"))?;
                spec.timeout_secs = Some(secs);
            } else {
                return Err(err(toks.line, &format!("unexpected token `{option}`")));
            }
        }
        self.builder.push_job(spec);
        self.jobs.declared.push(name);
        Ok(())
    }

    /// Resolve one wiring statement and apply it, or fail without effect.
    fn wire(&mut self, directive: Directive, toks: &mut Tokens<'a>) -> Result<(), DagError> {
        if directive == Directive::Parent {
            return self.parent_child(toks);
        }
        let (Some(job), Some(first)) = (toks.next(), toks.next()) else {
            return Err(err(toks.line, "INPUT/OUTPUT <job> <file>..."));
        };
        let job = JobId::from_index(self.jobs.resolve(job, &mut self.job_cursor)?);
        let is_input = directive == Directive::Input;
        let cursor = if is_input { &mut self.input_cursor } else { &mut self.output_cursor };
        self.file_ids.clear();
        for name in std::iter::once(first).chain(toks) {
            self.file_ids.push(FileId::from_index(self.files.resolve(name, cursor)?));
        }
        self.builder.patch_job_io(job, &self.file_ids, is_input);
        Ok(())
    }

    /// `PARENT a... CHILD b...`: the tokens up to the first `CHILD` are
    /// parents, everything after it is a child.
    fn parent_child(&mut self, toks: &mut Tokens<'a>) -> Result<(), DagError> {
        self.job_ids.clear();
        let mut parents = None;
        let mut unknown = None;
        // Edges jump about; they start from where the I/O statements are
        // and leave that place alone.
        let mut cursor = self.job_cursor;
        for token in toks.by_ref() {
            if parents.is_none() && token.eq_ignore_ascii_case("CHILD") {
                parents = Some(self.job_ids.len());
                continue;
            }
            // Keep counting past an unknown name: a malformed statement
            // is reported as malformed even when it also names no job.
            match self.jobs.resolve(token, &mut cursor) {
                Ok(at) => self.job_ids.push(JobId::from_index(at)),
                Err(e) => {
                    unknown.get_or_insert(e);
                    self.job_ids.push(JobId(0));
                }
            }
        }
        let parents = parents.ok_or_else(|| err(toks.line, "PARENT ... CHILD ..."))?;
        let (parents, children) = self.job_ids.split_at(parents);
        if parents.is_empty() || children.is_empty() {
            return Err(err(toks.line, "PARENT needs parents and children"));
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
                err(toks.line, &format!("more than {MAX_EXPLICIT_EDGES} PARENT/CHILD edges"))
            })?;
        for &p in parents {
            for &c in children {
                self.builder.edge(p, c);
            }
        }
        Ok(())
    }

    fn finish(mut self, name: &str) -> Result<Workflow, DagError> {
        self.builder.name = name.to_string();
        if self.jobs.indexed_unique() && self.files.indexed_unique() {
            self.builder.finish_unique()
        } else {
            self.builder.finish()
        }
    }
}

/// Serialize a workflow to the text format.
pub fn write_workflow(wf: &Workflow) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# generated by dewe-dag");
    let _ = writeln!(out, "WORKFLOW {}", wf.name());
    for f in wf.files() {
        let _ = write!(out, "FILE {} {}", f.name, f.size_bytes);
        if f.initial {
            out.push_str(" INITIAL");
        }
        out.push('\n');
    }
    for j in wf.jobs() {
        let _ = write!(out, "JOB {} {} CPU {}", j.name, j.xform, j.cpu_seconds);
        if j.cores != 1 {
            let _ = write!(out, " CORES {}", j.cores);
        }
        if let Some(t) = j.timeout_secs {
            let _ = write!(out, " TIMEOUT {t}");
        }
        out.push('\n');
    }
    for (ji, j) in wf.jobs().iter().enumerate() {
        let jid = JobId::from_index(ji);
        if !j.inputs.is_empty() {
            let _ = write!(out, "INPUT {}", j.name);
            for &f in &j.inputs {
                let _ = write!(out, " {}", wf.file(f).name);
            }
            out.push('\n');
        }
        if !j.outputs.is_empty() {
            let _ = write!(out, "OUTPUT {}", j.name);
            for &f in &j.outputs {
                let _ = write!(out, " {}", wf.file(f).name);
            }
            out.push('\n');
        }
        // Emit only edges not implied by data flow to keep files compact.
        for &c in wf.children(jid) {
            let implied = wf.job(c).inputs.iter().any(|&f| wf.producer(f) == Some(jid));
            if !implied {
                let _ = writeln!(out, "PARENT {} CHILD {}", j.name, wf.job(c).name);
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
        let names: Vec<&str> = wf.job(a).inputs.iter().map(|&f| wf.file(f).name.as_str()).collect();
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
        assert!(wf.files()[0].initial);
        assert_eq!((wf.jobs()[0].cores, wf.jobs()[0].timeout_secs), (2, Some(9.0)));
        assert_eq!(wf.jobs()[0].inputs, [FileId(0)]);
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
}
