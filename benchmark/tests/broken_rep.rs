//! A rep that breaks must show up as failed operations, never as a fast run.
//!
//! These tests drive the built release binaries (`run.sh --test` builds them
//! first). Without them — a bare `cargo test` in a fresh checkout — they
//! say so and pass vacuously.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `<target>/release`, next to the `<target>/debug/deps` this test runs from.
fn release_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.parent()?.join("release");
    let built = ["bench", "gen-inputs", "chain-worker", "dewectl", "dewe-masterd", "dewe-workerd"];
    if built.iter().all(|b| dir.join(b).is_file()) {
        Some(dir)
    } else {
        eprintln!(
            "skipped: no release binaries in {} (run benchmark/run.sh --test)",
            dir.display()
        );
        None
    }
}

/// Run `bench` and return the fields of its result line.
fn bench(dir: &Path, args: &[&str]) -> (bool, u64, u64, String) {
    let out = Command::new(dir.join("bench")).args(args).output().expect("run bench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout.lines().last().unwrap_or_else(|| {
        panic!("no result line; stderr: {}", String::from_utf8_lossy(&out.stderr))
    });
    let number = |key: &str| -> u64 {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
        rest[..rest.find(',').expect("a comma")].trim().parse().expect("a whole number")
    };
    (
        line.contains("\"correct\": true"),
        number("\"attempted\":"),
        number("\"failed\":"),
        line.to_string(),
    )
}

#[test]
fn smoke_run_is_correct_and_fails_nothing() {
    let Some(dir) = release_dir() else { return };
    // Not the workload of the other test: each run owns its workload's
    // work directory, and tests run in parallel.
    let (correct, attempted, failed, line) = bench(&dir, &["--workload", "tcp-chain", "--smoke"]);
    assert!(correct && failed == 0, "{line}");
    assert_eq!(attempted, 2 * 500, "{line}");
    for name in ["setup_s", "jobs_per_s", "cpu_us_per_job", "peak_rss_mib"] {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {line}");
    }
}

#[test]
fn master_killed_mid_run_is_reported_as_failed_jobs() {
    let Some(dir) = release_dir() else { return };
    // Two reps; the master of the first is killed 30 ms into its submission.
    let (correct, attempted, failed, line) = bench(
        &dir,
        &["--workload", "tcp-wide", "--smoke", "--reps", "2", "--kill-master-after-ms", "30"],
    );
    assert!(!correct, "{line}");
    assert_eq!(attempted, 2 * 2 * 8586, "{line}");
    assert_eq!(failed, 2 * 8586, "every job of the broken rep, none of the good one: {line}");
}
