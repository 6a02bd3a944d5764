//! End-to-end tests of the `dewectl` binary (spawned as a real process).

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn dewectl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dewectl"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dewectl_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_inspect_roundtrip() {
    let dir = workdir("gen");
    let dag = dir.join("m.dag");
    let out = dewectl()
        .args(["gen", "montage", "1.0", dag.to_str().unwrap()])
        .output()
        .expect("run dewectl");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dag.exists());

    let out = dewectl().args(["inspect", dag.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("jobs          : 192"), "{text}");
    assert!(text.contains("mConcatFit"));
    // Montage legitimately produces unread byproducts (mDiffFit's diff
    // images feed nothing downstream; only the fit tables do) — the lint
    // must surface them.
    assert!(text.contains("UnreadFile"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_to_dax_and_simulate() {
    let dir = workdir("convert");
    let dag = dir.join("s.dag");
    let dax = dir.join("s.dax");
    assert!(dewectl()
        .args(["gen", "sipht", "10", dag.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(dewectl()
        .args(["convert", dag.to_str().unwrap(), dax.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let dax_text = std::fs::read_to_string(&dax).unwrap();
    assert!(dax_text.contains("<adag"));

    let out = dewectl()
        .args(["simulate", dax.to_str().unwrap(), "--nodes", "2", "--type", "i2.8xlarge"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan"), "{text}");
    assert!(text.contains("est. cost"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dot_emits_graphviz() {
    let dir = workdir("dot");
    let dag = dir.join("l.dag");
    assert!(dewectl()
        .args(["gen", "ligo", "2", "3", dag.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = dewectl().args(["dot", dag.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("->"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ensemble_manifest_runs() {
    let dir = workdir("ensemble");
    let dag = dir.join("e.dag");
    assert!(dewectl()
        .args(["gen", "epigenomics", "2", "3", dag.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    std::fs::write(
        dir.join("campaign.txt"),
        "WORKFLOW e.dag COUNT 3\nINTERVAL 10\nNODES 2\nTYPE r3.8xlarge\n",
    )
    .unwrap();
    let out =
        dewectl().args(["ensemble", dir.join("campaign.txt").to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 workflow instances on 2 x r3.8xlarge"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_export_is_valid_chrome_json() {
    let dir = workdir("trace");
    let dag = dir.join("c.dag");
    let json = dir.join("t.json");
    assert!(dewectl()
        .args(["gen", "cybershake", "20", dag.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(dewectl()
        .args(["simulate", dag.to_str().unwrap(), "--trace", json.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&json).unwrap();
    assert!(text.trim_start().starts_with('['));
    assert!(text.trim_end().ends_with(']'));
    // 44 jobs => 44 "job" category events.
    assert_eq!(text.matches(r#""cat":"job""#).count(), 44);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = dewectl().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = dewectl().args(["inspect", "/nonexistent/file.dag"]).output().unwrap();
    assert!(!out.status.success());
    let out = dewectl().args(["simulate", "/nonexistent.dag"]).output().unwrap();
    assert!(!out.status.success());

    // A numeric flag out of range is a reason on stderr and exit 1 before
    // anything runs: no backtrace, no silent fall-back to a batch run, no
    // "submitted 0 x" (the address is never dialled).
    let dir = workdir("flags");
    let dag = dir.join("m.dag");
    let dag = dag.to_str().unwrap();
    assert!(dewectl().args(["gen", "montage", "0.5", dag]).status().unwrap().success());
    for (args, reason) in [
        (
            ["simulate", dag, "--workflows", "0"],
            "--workflows must be a whole number greater than 0",
        ),
        (["simulate", dag, "--nodes", "0"], "--nodes must be a whole number greater than 0"),
        (["simulate", dag, "--nodes", "-3"], "--nodes must be a whole number greater than 0"),
        (["simulate", dag, "--interval", "-5"], "--interval must be a finite number of seconds"),
        (["simulate", dag, "--interval", "nan"], "--interval must be a finite number of seconds"),
        (["simulate", dag, "--interval", "inf"], "--interval must be a finite number of seconds"),
        (
            ["submit", "127.0.0.1:1", dag, "--count"],
            "--count must be a whole number greater than 0",
        ),
    ] {
        let out = dewectl().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("dewectl: ") && stderr.contains(reason), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty() && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let out = dewectl().args(["submit", "127.0.0.1:1", dag, "--count", "0"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--count must be a whole number greater than 0, got 0"), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dewectl … | head -1`: the reader takes one line and goes away. The
/// graph is several times a pipe's capacity, so the writer is still
/// writing when that happens — it must stop quietly, not panic in a print.
#[test]
fn a_reader_that_goes_away_ends_the_command_quietly() {
    let dir = workdir("pipe");
    let dag = dir.join("m.dag");
    assert!(dewectl()
        .args(["gen", "montage", "2.5", dag.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut child = dewectl()
        .args(["dot", dag.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::with_capacity(64, child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("digraph"), "{first}");
    drop(stdout);
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!((status.code(), stderr.as_str()), (Some(0), ""));
    let _ = std::fs::remove_dir_all(&dir);
}
