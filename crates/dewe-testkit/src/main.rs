//! `dewe-testkit` — differential oracle CLI.
//!
//! ```text
//! dewe-testkit run <seed> [--class C]       run one seed through all 4 paths
//! dewe-testkit replay <seed> [--class C]    run one seed, print the full scenario
//! dewe-testkit sweep [--seeds N] [--start S] [--repro-out PATH] [--class C]
//! ```
//!
//! `sweep` runs seeds `S..S+N` (N defaults to `DEWE_DIFF_SEEDS` or 64).
//! On the first divergence it shrinks the scenario, writes the repro
//! report to `--repro-out` (default `target/dewe-diff-repro.txt`), and
//! exits non-zero. `--class fault` switches from the three classic seed
//! classes to fault-plane scenarios (worker crashes, spot revocations,
//! heartbeat stalls, master kill+restart); `--class fault-chaos` overlays
//! lossy message chaos on the identical fault scenarios.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use dewe_testkit::{
    minimize, run_fault_chaos_seed, run_fault_seed, run_seed, EngineDriverConfig, Scenario, SeedRun,
};

const DEFAULT_SEEDS: u64 = 64;
const DEFAULT_REPRO_OUT: &str = "target/dewe-diff-repro.txt";

/// Which scenario generator a command drives.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Classic,
    Fault,
    FaultChaos,
}

impl Class {
    fn generate(self, seed: u64) -> Scenario {
        match self {
            Class::Classic => Scenario::generate(seed),
            Class::Fault => Scenario::generate_fault(seed),
            Class::FaultChaos => Scenario::generate_fault_chaos(seed),
        }
    }

    fn run(self, seed: u64) -> SeedRun {
        match self {
            Class::Classic => run_seed(seed),
            Class::Fault => run_fault_seed(seed),
            Class::FaultChaos => run_fault_chaos_seed(seed),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Class::Classic => "",
            Class::Fault => " (fault class)",
            Class::FaultChaos => " (fault+chaos class)",
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dewe-testkit run <seed> [--class fault]\n       \
         dewe-testkit replay <seed> [--class fault]\n       \
         dewe-testkit sweep [--seeds N] [--start S] [--repro-out PATH] [--class fault|fault-chaos]"
    );
    ExitCode::from(2)
}

fn parse_seed(arg: Option<&String>) -> Option<u64> {
    arg.and_then(|s| s.parse().ok())
}

/// Strip a `--class <name>` pair out of `args`, returning the class.
fn extract_class(args: &mut Vec<String>) -> Option<Class> {
    match args.iter().position(|a| a == "--class") {
        None => Some(Class::Classic),
        Some(i) => {
            let class = match args.get(i + 1).map(String::as_str) {
                Some("fault") => Class::Fault,
                Some("fault-chaos") => Class::FaultChaos,
                Some("classic") => Class::Classic,
                _ => return None,
            };
            args.drain(i..i + 2);
            Some(class)
        }
    }
}

fn run_one(seed: u64, class: Class, show_scenario: bool) -> ExitCode {
    let scenario = class.generate(seed);
    if show_scenario {
        print!("{}", scenario.describe());
        println!();
    }
    let run = class.run(seed);
    if run.conforms() {
        println!("seed {seed}: OK ({} jobs across 4 paths)", scenario.total_jobs());
        ExitCode::SUCCESS
    } else {
        println!("seed {seed}: DIVERGED");
        for v in &run.violations {
            println!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

fn sweep(args: &[String], class: Class) -> ExitCode {
    let mut seeds: u64 =
        std::env::var("DEWE_DIFF_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SEEDS);
    let mut start: u64 = 0;
    let mut repro_out = DEFAULT_REPRO_OUT.to_string();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match parse_seed(it.next()) {
                Some(n) => seeds = n,
                None => return usage(),
            },
            "--start" => match parse_seed(it.next()) {
                Some(s) => start = s,
                None => return usage(),
            },
            "--repro-out" => match it.next() {
                Some(p) => repro_out = p.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let label = class.label();
    println!("differential sweep{label}: seeds {start}..{}", start + seeds);
    for seed in start..start + seeds {
        let run = class.run(seed);
        if run.conforms() {
            println!("seed {seed}: OK ({} jobs)", run.scenario.total_jobs());
            continue;
        }
        println!("seed {seed}: DIVERGED — shrinking");
        for v in &run.violations {
            println!("  - {v}");
        }
        let repro = minimize(&run, &EngineDriverConfig::default());
        let report = repro.report();
        print!("{report}");
        if let Some(dir) = std::path::Path::new(&repro_out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&repro_out, &report) {
            Ok(()) => println!("repro written to {repro_out}"),
            Err(e) => eprintln!("failed to write repro to {repro_out}: {e}"),
        }
        return ExitCode::FAILURE;
    }
    println!("sweep clean: {seeds} seeds, zero divergence");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(class) = extract_class(&mut args) else {
        return usage();
    };
    match args.first().map(String::as_str) {
        Some("run") => match parse_seed(args.get(1)) {
            Some(seed) => run_one(seed, class, false),
            None => usage(),
        },
        Some("replay") => match parse_seed(args.get(1)) {
            Some(seed) => run_one(seed, class, true),
            None => usage(),
        },
        Some("sweep") => sweep(&args[1..], class),
        _ => usage(),
    }
}
