//! `gen-inputs` — the only place the benchmark seed goes. Writes the `.dag`
//! files the workloads feed to the measured binaries:
//!
//! * `montage-6.0.dag` — `MontageConfig::degree(6.0)` with the given seed;
//!   seed 42 is the generator's default, so the file equals what
//!   `dewectl gen montage 6.0` writes;
//! * `chain-<L>.dag`, one per `--chain-len L` — one dependency chain of `L`
//!   jobs named `j0, j1, …`, so that exactly one job is ever ready.
//!
//! ```text
//! gen-inputs --out <dir> [--seed N] [--chain-len L]...
//! ```

use std::path::PathBuf;
use std::process::exit;

use dewe::dag::{write_workflow, Workflow, WorkflowBuilder};
use dewe::montage::MontageConfig;

/// Jobs in a Montage 6.0° workflow (paper §V.B).
const MONTAGE_6DEG_JOBS: usize = 8586;

fn chain(len: usize) -> Workflow {
    let mut b = WorkflowBuilder::new("chain");
    let mut prev = None;
    for i in 0..len {
        let job = b.job(format!("j{i}"), "hop", 1.0).build();
        if let Some(p) = prev {
            b.edge(p, job);
        }
        prev = Some(job);
    }
    b.finish().expect("a chain is a valid DAG")
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut seed = 42u64;
    let mut chain_lens: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        let parsed = match (flag.as_str(), value) {
            ("--out", Some(v)) => {
                out = Some(v.into());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|n| seed = n).is_ok(),
            ("--chain-len", Some(v)) => v.parse().map(|n| chain_lens.push(n)).is_ok(),
            _ => false,
        };
        if !parsed {
            eprintln!("usage: gen-inputs --out <dir> [--seed N] [--chain-len L]...");
            exit(2);
        }
    }
    let Some(out) = out else {
        eprintln!("gen-inputs: --out <dir> is required");
        exit(2);
    };

    let montage = MontageConfig::degree(6.0).with_seed(seed).build();
    // Input-shape fence: every job count the workloads state rests on this.
    assert_eq!(montage.job_count(), MONTAGE_6DEG_JOBS, "Montage 6.0 degree changed shape");
    let chains = chain_lens.iter().map(|&len| (format!("chain-{len}.dag"), chain(len)));
    for (file, wf) in std::iter::once(("montage-6.0.dag".to_string(), montage)).chain(chains) {
        let text = write_workflow(&wf);
        let path = out.join(&file);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("gen-inputs: write {}: {e}", path.display());
            exit(1);
        }
        println!("gen-inputs: {file} {} jobs {} bytes", wf.job_count(), text.len());
    }
}
