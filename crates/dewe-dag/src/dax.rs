//! Pegasus DAX (abstract DAG XML) import/export.
//!
//! The paper's comparison system, Pegasus, consumes workflows as DAX
//! documents; published workflow generators (including Montage's) emit
//! them. This module reads the structural subset of DAX v3 that matters
//! for execution and writes it back, so real Pegasus workflows can be fed
//! to DEWE v2 and DEWE workflows can be handed to Pegasus tooling:
//!
//! ```xml
//! <adag name="montage">
//!   <job id="ID00001" name="mProjectPP" runtime="1.7">
//!     <uses file="raw_0.fits" link="input" size="2900000"/>
//!     <uses file="proj_0.fits" link="output" size="1600000"/>
//!   </job>
//!   <child ref="ID00002"><parent ref="ID00001"/></child>
//! </adag>
//! ```
//!
//! Supported: `adag@name`, `job@{id,name,runtime}`, nested
//! `<profile key="runtime">` (the Pegasus convention for expected
//! runtimes), `uses@{file,link,size}`, `child/parent` control edges.
//! Ignored gracefully: namespaces, `argument`, other profiles, metadata.
//! The parser is a minimal hand-rolled XML reader — sufficient for DAX's
//! regular structure, with line-accurate errors.

use std::collections::HashMap;

use crate::error::DagError;
use crate::workflow::{Workflow, WorkflowBuilder};

/// Parse a DAX document into a [`Workflow`].
///
/// File sizes default to 0 when absent; job runtimes default to 0.0 when
/// neither a `runtime` attribute nor a `pegasus::runtime` profile exists.
pub fn parse_dax(text: &str) -> Result<Workflow, DagError> {
    let tokens = tokenize(text)?;
    let mut name = String::from("dax_workflow");

    // First pass: collect jobs (with their uses) and edges.
    struct DaxJob {
        id: String,
        xform: String,
        runtime: f64,
        inputs: Vec<(String, u64)>,
        outputs: Vec<(String, u64)>,
    }
    let mut jobs: Vec<DaxJob> = Vec::new();
    let mut edges: Vec<(String, String)> = Vec::new(); // (parent id, child id)

    let mut current_job: Option<DaxJob> = None;
    let mut current_child: Option<String> = None;
    let mut in_runtime_profile = false;

    for tok in tokens {
        match tok {
            Token::Open { tag, attrs, self_closing, line } => match tag.as_str() {
                "adag" => {
                    if let Some(n) = attrs.get("name") {
                        name = n.clone();
                    }
                }
                "job" => {
                    let id = attrs
                        .get("id")
                        .cloned()
                        .ok_or_else(|| parse_err(line, "job without id"))?;
                    let xform = attrs
                        .get("name")
                        .cloned()
                        .ok_or_else(|| parse_err(line, "job without name"))?;
                    let runtime = attrs
                        .get("runtime")
                        .map(|r| r.parse::<f64>())
                        .transpose()
                        .map_err(|_| parse_err(line, "bad runtime"))?
                        .unwrap_or(0.0);
                    let job =
                        DaxJob { id, xform, runtime, inputs: Vec::new(), outputs: Vec::new() };
                    if self_closing {
                        jobs.push(job);
                    } else {
                        current_job = Some(job);
                    }
                }
                "uses" => {
                    let job =
                        current_job.as_mut().ok_or_else(|| parse_err(line, "uses outside job"))?;
                    let file = attrs
                        .get("file")
                        .or_else(|| attrs.get("name"))
                        .cloned()
                        .ok_or_else(|| parse_err(line, "uses without file"))?;
                    let size = attrs
                        .get("size")
                        .map(|s| s.parse::<u64>())
                        .transpose()
                        .map_err(|_| parse_err(line, "bad size"))?
                        .unwrap_or(0);
                    match attrs.get("link").map(String::as_str) {
                        Some("input") => job.inputs.push((file, size)),
                        Some("output") => job.outputs.push((file, size)),
                        _ => return Err(parse_err(line, "uses without link=input|output")),
                    }
                }
                "profile"
                    if attrs.get("key").map(String::as_str) == Some("runtime")
                        && current_job.is_some()
                        && !self_closing =>
                {
                    in_runtime_profile = true;
                }
                "child" => {
                    let c = attrs
                        .get("ref")
                        .cloned()
                        .ok_or_else(|| parse_err(line, "child without ref"))?;
                    current_child = Some(c);
                }
                "parent" => {
                    let p = attrs
                        .get("ref")
                        .cloned()
                        .ok_or_else(|| parse_err(line, "parent without ref"))?;
                    let c = current_child
                        .clone()
                        .ok_or_else(|| parse_err(line, "parent outside child"))?;
                    edges.push((p, c));
                }
                _ => {} // argument, metadata, executable, ... ignored
            },
            Token::Close { tag } => match tag.as_str() {
                "job" => {
                    if let Some(job) = current_job.take() {
                        jobs.push(job);
                    }
                }
                "child" => current_child = None,
                "profile" => in_runtime_profile = false,
                _ => {}
            },
            Token::Text { content, line } => {
                if in_runtime_profile {
                    if let Some(job) = current_job.as_mut() {
                        job.runtime = content
                            .trim()
                            .parse::<f64>()
                            .map_err(|_| parse_err(line, "bad runtime profile value"))?;
                    }
                }
            }
        }
    }

    // Second pass: build the workflow. Files are shared by name; sizes take
    // the maximum reported. A file never produced by a job is initial.
    let mut b = WorkflowBuilder::new(name);
    let mut file_size: HashMap<&str, u64> = HashMap::new();
    let mut produced: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for job in &jobs {
        for (f, size) in job.inputs.iter().chain(&job.outputs) {
            let e = file_size.entry(f).or_insert(0);
            *e = (*e).max(*size);
        }
        for (f, _) in &job.outputs {
            produced.insert(f);
        }
    }
    let mut file_ids = HashMap::new();
    let mut names: Vec<&&str> = file_size.keys().collect();
    names.sort();
    for fname in names {
        let id = b.file(&(**fname), file_size[*fname], !produced.contains(*fname));
        file_ids.insert((**fname).to_string(), id);
    }
    let mut job_ids = HashMap::new();
    for job in &jobs {
        let mut jb = b.job(&job.id, &job.xform, job.runtime);
        for (f, _) in &job.inputs {
            jb = jb.input(file_ids[f]);
        }
        for (f, _) in &job.outputs {
            jb = jb.output(file_ids[f]);
        }
        let id = jb.build();
        job_ids.insert(job.id.clone(), id);
    }
    for (p, c) in edges {
        let &pid = job_ids.get(&p).ok_or(DagError::UnknownName(p))?;
        let &cid = job_ids.get(&c).ok_or(DagError::UnknownName(c))?;
        b.edge(pid, cid);
    }
    b.finish()
}

/// Serialize a workflow as a DAX v3-style document.
pub fn write_dax(wf: &Workflow) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, r#"<?xml version="1.0" encoding="UTF-8"?>"#);
    let _ = writeln!(out, r#"<adag name="{}">"#, escape(wf.name()));
    for (ji, j) in wf.jobs().iter().enumerate() {
        let _ = writeln!(
            out,
            r#"  <job id="{}" name="{}" runtime="{}">"#,
            escape(j.name),
            escape(j.xform),
            j.cpu_seconds
        );
        for &f in &j.inputs {
            let spec = wf.file(f);
            let _ = writeln!(
                out,
                r#"    <uses file="{}" link="input" size="{}"/>"#,
                escape(spec.name),
                spec.size_bytes
            );
        }
        for &f in &j.outputs {
            let spec = wf.file(f);
            let _ = writeln!(
                out,
                r#"    <uses file="{}" link="output" size="{}"/>"#,
                escape(spec.name),
                spec.size_bytes
            );
        }
        let _ = writeln!(out, "  </job>");
        let _ = ji;
    }
    // Control edges not implied by data flow.
    for j in wf.job_ids() {
        let mut emitted = false;
        for &c in wf.children(j) {
            let implied = wf.job(c).inputs.iter().any(|&f| wf.producer(f) == Some(j));
            if !implied {
                if !emitted {
                    emitted = true;
                }
                let _ = writeln!(
                    out,
                    r#"  <child ref="{}"><parent ref="{}"/></child>"#,
                    escape(wf.job(c).name),
                    escape(wf.job(j).name)
                );
            }
        }
    }
    out.push_str("</adag>\n");
    out
}

// --------------------------------------------------------------- tokenizer

enum Token {
    Open { tag: String, attrs: HashMap<String, String>, self_closing: bool, line: usize },
    Close { tag: String },
    Text { content: String, line: usize },
}

fn parse_err(line: usize, message: &str) -> DagError {
    DagError::Parse { line, message: format!("DAX: {message}") }
}

fn tokenize(text: &str) -> Result<Vec<Token>, DagError> {
    let mut tokens = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut text_start = 0;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
        }
        if bytes[i] == b'<' {
            // Flush pending text.
            let pending = text[text_start..i].trim();
            if !pending.is_empty() {
                tokens.push(Token::Text { content: pending.to_string(), line });
            }
            // Comments and declarations.
            if text[i..].starts_with("<!--") {
                match text[i..].find("-->") {
                    Some(end) => {
                        line += text[i..i + end].matches('\n').count();
                        i += end + 3;
                    }
                    None => return Err(parse_err(line, "unterminated comment")),
                }
                text_start = i;
                continue;
            }
            if text[i..].starts_with("<?") {
                match text[i..].find("?>") {
                    Some(end) => i += end + 2,
                    None => return Err(parse_err(line, "unterminated declaration")),
                }
                text_start = i;
                continue;
            }
            let close = text[i..].find('>').ok_or_else(|| parse_err(line, "unterminated tag"))?;
            let inner = &text[i + 1..i + close];
            line += inner.matches('\n').count();
            if let Some(tag) = inner.strip_prefix('/') {
                tokens.push(Token::Close { tag: tag.trim().to_string() });
            } else {
                let self_closing = inner.ends_with('/');
                let inner = inner.trim_end_matches('/');
                let (tag, attrs) = parse_tag(inner, line)?;
                tokens.push(Token::Open { tag, attrs, self_closing, line });
            }
            i += close + 1;
            text_start = i;
        } else {
            i += 1;
        }
    }
    Ok(tokens)
}

fn parse_tag(inner: &str, line: usize) -> Result<(String, HashMap<String, String>), DagError> {
    let inner = inner.trim();
    let tag_end = inner.find(char::is_whitespace).unwrap_or(inner.len());
    // Strip any namespace prefix ("pegasus:job" -> "job").
    let tag = inner[..tag_end].rsplit(':').next().unwrap_or("").to_string();
    if tag.is_empty() {
        return Err(parse_err(line, "empty tag"));
    }
    let mut attrs = HashMap::new();
    let rest = &inner[tag_end..];
    let mut chars = rest.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        // attribute name
        let eq =
            rest[start..].find('=').ok_or_else(|| parse_err(line, "attribute without value"))?;
        let key = rest[start..start + eq].trim().rsplit(':').next().unwrap_or("").to_string();
        let after = start + eq + 1;
        let quote = rest[after..]
            .chars()
            .next()
            .filter(|&q| q == '"' || q == '\'')
            .ok_or_else(|| parse_err(line, "unquoted attribute value"))?;
        let vstart = after + 1;
        let vend = rest[vstart..]
            .find(quote)
            .ok_or_else(|| parse_err(line, "unterminated attribute value"))?;
        attrs.insert(key, unescape(&rest[vstart..vstart + vend]));
        // advance iterator past the value
        let consumed_to = vstart + vend + 1;
        while let Some(&(p, _)) = chars.peek() {
            if p < consumed_to {
                chars.next();
            } else {
                break;
            }
        }
    }
    Ok((tag, attrs))
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"").replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- generated by a Montage DAX generator -->
<adag name="montage_frag" xmlns="http://pegasus.isi.edu/schema/DAX">
  <job id="proj1" name="mProjectPP" runtime="1.7">
    <uses file="raw_1.fits" link="input" size="2900000"/>
    <uses file="proj_1.fits" link="output" size="1600000"/>
  </job>
  <job id="proj2" name="mProjectPP">
    <profile namespace="pegasus" key="runtime">1.9</profile>
    <uses file="raw_2.fits" link="input" size="2900000"/>
    <uses file="proj_2.fits" link="output" size="1600000"/>
  </job>
  <job id="diff" name="mDiffFit" runtime="0.9">
    <uses file="proj_1.fits" link="input" size="1600000"/>
    <uses file="proj_2.fits" link="input" size="1600000"/>
    <uses file="fit.tbl" link="output" size="2048"/>
  </job>
  <child ref="diff">
    <parent ref="proj1"/>
    <parent ref="proj2"/>
  </child>
</adag>
"#;

    #[test]
    fn parses_sample_structure() {
        let wf = parse_dax(SAMPLE).unwrap();
        assert_eq!(wf.name(), "montage_frag");
        assert_eq!(wf.job_count(), 3);
        assert_eq!(wf.file_count(), 5);
        // raw files are initial; proj/fit are produced.
        assert_eq!(wf.files().iter().filter(|f| f.initial).count(), 2);
        // data edges + explicit control edges dedup to 2.
        assert_eq!(wf.edge_count(), 2);
        let diff = wf.job_by_name("diff").unwrap();
        assert_eq!(wf.parents(diff).len(), 2);
    }

    #[test]
    fn runtime_from_attribute_and_profile() {
        let wf = parse_dax(SAMPLE).unwrap();
        let p1 = wf.job_by_name("proj1").unwrap();
        let p2 = wf.job_by_name("proj2").unwrap();
        assert_eq!(wf.job(p1).cpu_seconds, 1.7);
        assert_eq!(wf.job(p2).cpu_seconds, 1.9, "profile value wins");
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let wf = parse_dax(SAMPLE).unwrap();
        let dax = write_dax(&wf);
        let wf2 = parse_dax(&dax).unwrap();
        assert_eq!(wf.job_count(), wf2.job_count());
        assert_eq!(wf.file_count(), wf2.file_count());
        assert_eq!(wf.edge_count(), wf2.edge_count());
        for (a, b) in wf.jobs().iter().zip(wf2.jobs()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cpu_seconds, b.cpu_seconds);
            assert_eq!(a.inputs.len(), b.inputs.len());
        }
    }

    #[test]
    fn dewe_workflow_exports_to_dax_and_back() {
        // A generated workflow exported to DAX and re-imported drives the
        // tracker identically.
        let mut b = WorkflowBuilder::new("gen");
        let f0 = b.file("a.dat", 100, true);
        let f1 = b.file("b.dat", 50, false);
        b.job("first", "t1", 2.0).input(f0).output(f1).build();
        b.job("second", "t2", 3.0).input(f1).build();
        let wf = b.finish().unwrap();
        let reparsed = parse_dax(&write_dax(&wf)).unwrap();
        assert_eq!(reparsed.job_count(), 2);
        assert_eq!(reparsed.edge_count(), 1);
        assert!(reparsed.files().iter().any(|f| f.name == "a.dat" && f.initial));
    }

    #[test]
    fn unknown_child_ref_errors() {
        let text = r#"<adag name="x">
  <job id="a" name="t" runtime="1"/>
  <child ref="nosuch"><parent ref="a"/></child>
</adag>"#;
        assert!(matches!(parse_dax(text), Err(DagError::UnknownName(_))));
    }

    #[test]
    fn uses_without_link_errors() {
        let text = r#"<adag name="x">
  <job id="a" name="t"><uses file="f"/></job>
</adag>"#;
        match parse_dax(text) {
            Err(DagError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("link"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cycles_in_dax_are_rejected() {
        let text = r#"<adag name="x">
  <job id="a" name="t" runtime="1"/>
  <job id="b" name="t" runtime="1"/>
  <child ref="a"><parent ref="b"/></child>
  <child ref="b"><parent ref="a"/></child>
</adag>"#;
        assert!(matches!(parse_dax(text), Err(DagError::Cycle(_))));
    }

    #[test]
    fn escaped_attributes_roundtrip() {
        let mut b = WorkflowBuilder::new("quo\"te");
        b.job("j<1>", "t&x", 1.0).build();
        let wf = b.finish().unwrap();
        let wf2 = parse_dax(&write_dax(&wf)).unwrap();
        assert_eq!(wf2.name(), "quo\"te");
        assert_eq!(wf2.job(JobId(0)).name, "j<1>");
        assert_eq!(wf2.job(JobId(0)).xform, "t&x");
    }

    #[test]
    fn self_closing_job_supported() {
        let wf = parse_dax(r#"<adag name="x"><job id="a" name="t" runtime="2"/></adag>"#).unwrap();
        assert_eq!(wf.job_count(), 1);
        assert_eq!(wf.job(JobId(0)).cpu_seconds, 2.0);
    }

    #[test]
    fn unterminated_tag_errors_with_line() {
        let err = parse_dax("<adag name=\"x\">\n  <job id=\"a\"").unwrap_err();
        assert!(matches!(err, DagError::Parse { line: 2, .. }), "{err:?}");
    }
}
