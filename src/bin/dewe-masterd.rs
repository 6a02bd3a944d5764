//! `dewe-masterd` — the networked master daemon.
//!
//! Binds the TCP endpoint, spawns the master serve loop over it (engine,
//! retry machinery, liveness plane, WAL journal) — the one the examples,
//! the tests and the oracle run — and runs the ensemble until every
//! expected workflow settles. Workers connect with `dewe-workerd`;
//! workflows arrive with `dewectl submit`.
//!
//! ```text
//! dewe-masterd --listen <addr> [--expect N] [--state-dir DIR]
//!              [--journal FILE] [--lease-secs S] [--timeout S]
//! ```
//!
//! `--state-dir` spools accepted workflows and `--journal` journals every
//! input. Restarted with the same flags, a master rebuilds its registry from
//! the spool and its engine from the journal, and picks the ensemble back up
//! — the paper's master-failure drill, over real sockets; empty or missing,
//! they are a cold start. One state directory holds one ensemble.
//!
//! Leases are opt-in. With `--lease-secs S` the master expires a worker
//! silent for `S` seconds, and an expired worker's acks are fenced until
//! it heartbeats again: an accepted ack renews a lease, but only a
//! heartbeat revives an expired worker. A worker that never heartbeats —
//! `dewe-workerd` without `--heartbeat`, its default — is fenced for good
//! after one lease of silence (a job longer than `S`, or an idle spell),
//! so `--lease-secs S` needs every worker started with `--heartbeat` well
//! under `S`, and a lease on by default would fence the default worker.
#![forbid(unsafe_code)]

mod flags;

use std::io::Write;
use std::process::exit;

use dewe::core::realtime::{
    spawn_master_on, MasterConfig, MasterEvent, Registry, TcpMaster, TcpMasterOptions,
};
use dewe::core::Clipped;

use flags::{positive_secs, whole};

struct Args {
    listen: String,
    state_dir: Option<String>,
    master: MasterConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { listen: String::new(), state_dir: None, master: MasterConfig::default() };
    let master = &mut args.master;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 2;
        argv.get(*i - 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => args.listen = value(&mut i, "--listen")?,
            "--state-dir" => args.state_dir = Some(value(&mut i, "--state-dir")?),
            "--expect" => {
                master.expected_workflows =
                    Some(whole("--expect", &value(&mut i, "--expect")?, 1..=usize::MAX)?)
            }
            "--journal" => master.journal_path = Some(value(&mut i, "--journal")?.into()),
            "--lease-secs" => {
                master.lease_secs =
                    Some(positive_secs("--lease-secs", &value(&mut i, "--lease-secs")?)?)
            }
            "--timeout" => {
                master.engine.default_timeout_secs =
                    positive_secs("--timeout", &value(&mut i, "--timeout")?)?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.listen.is_empty() {
        return Err("--listen <addr> is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("dewe-masterd: {msg}");
            eprintln!(
                "usage: dewe-masterd --listen <addr> [--expect N] [--state-dir DIR] \
                 [--journal FILE] [--lease-secs S] [--timeout S]"
            );
            exit(2);
        }
    };

    let options = TcpMasterOptions { state_dir: args.state_dir.as_ref().map(Into::into) };
    let transport = match TcpMaster::bind(&args.listen, options) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dewe-masterd: bind {}: {e}", args.listen);
            exit(1);
        }
    };
    // Parsed by tests and wrapper scripts: keep the format stable.
    println!("dewe-masterd: listening on {}", transport.local_addr());
    let _ = std::io::stdout().flush();

    // The master rebuilds its registry from the workflow spool *before*
    // it replays the journal against it.
    let registry = Registry::new();
    match transport.load_spool() {
        Ok(spooled) => {
            for (id, name, workflow) in spooled {
                println!("dewe-masterd: respooled workflow {} ({})", id.0, Clipped(&name));
                registry.insert(id, workflow);
            }
        }
        Err(e) => {
            eprintln!("dewe-masterd: state dir {}: {e}", args.state_dir.unwrap_or_default());
            exit(1);
        }
    }

    let handle = spawn_master_on(transport.clone(), registry, args.master);

    let mut all_completed = false;
    while let Ok(event) = handle.events.recv() {
        match event {
            MasterEvent::WorkflowCompleted { workflow, makespan_secs } => {
                println!("dewe-masterd: workflow {} completed in {makespan_secs:.2}s", workflow.0);
            }
            MasterEvent::WorkflowAbandoned { workflow, dead_lettered } => {
                println!(
                    "dewe-masterd: workflow {} abandoned ({dead_lettered} dead-lettered)",
                    workflow.0
                );
            }
            MasterEvent::AllCompleted { .. } => {
                all_completed = true;
                break;
            }
            MasterEvent::AllSettled { .. } => break,
            MasterEvent::Failed { reason } => {
                eprintln!("dewe-masterd: {reason}");
                exit(1);
            }
        }
        let _ = std::io::stdout().flush();
    }

    let stats = handle.join();
    // Graceful exit: every worker gets a Bye so its daemon can stop too.
    // When `shutdown` returns each Bye is on the wire and every socket is
    // closed, so the process can exit.
    transport.shutdown();
    // The first four counts are read by position (`benchmark/src/parse.rs`).
    let rejected = match stats.rejected_acks {
        0 => String::new(),
        n => format!(", {n} acks rejected"),
    };
    println!(
        "dewe-masterd: done — {} workflows, {} jobs completed, {} resubmissions, {} dead-lettered{rejected}",
        stats.workflows_completed, stats.jobs_completed, stats.resubmissions, stats.dead_lettered
    );
    exit(if all_completed { 0 } else { 3 });
}
