//! `dewe-workerd` — the networked worker daemon.
//!
//! Connects to a `dewe-masterd`, mirrors announced workflows into a
//! local registry, and runs the worker's slot/heartbeat loops over that
//! link. Jobs execute through a pluggable runner selected on the
//! command line. The daemon exits when the master says the ensemble is
//! done (Bye); if the master crashes, the link keeps reconnecting and
//! rides out the restart.
//!
//! ```text
//! dewe-workerd --master <addr> [--id N] [--generation N] [--slots N]
//!              [--window N] [--heartbeat S]
//!              [--runner noop|sleep:<scale>|cpu:<scale>]
//! ```
#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_worker_on, CpuRunner, JobRunner, NoopRunner, Registry, SleepRunner, TcpWorkerLink,
    TcpWorkerOptions, WorkerConfig,
};

struct Args {
    master: String,
    id: u32,
    generation: u32,
    slots: usize,
    window: Option<u32>,
    heartbeat: Option<f64>,
    runner: String,
}

/// A duration flag's value: seconds, greater than zero and small enough
/// for a [`Duration`] (which rules out NaN and the infinities too).
fn positive_secs(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(secs) if secs > 0.0 && Duration::try_from_secs_f64(secs).is_ok() => Ok(secs),
        _ => Err(format!("{flag} must be a finite number of seconds greater than 0, got {value}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        master: String::new(),
        id: 0,
        generation: 0,
        slots: 4,
        window: None,
        heartbeat: None,
        runner: "sleep:1.0".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 2;
        argv.get(*i - 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--master" => args.master = value(&mut i, "--master")?,
            "--id" => args.id = value(&mut i, "--id")?.parse().map_err(|_| "bad --id")?,
            "--generation" => {
                args.generation =
                    value(&mut i, "--generation")?.parse().map_err(|_| "bad --generation")?
            }
            "--slots" => {
                args.slots = value(&mut i, "--slots")?.parse().map_err(|_| "bad --slots")?;
                if args.slots == 0 {
                    return Err("--slots must be at least 1".into());
                }
            }
            "--window" => {
                args.window = Some(value(&mut i, "--window")?.parse().map_err(|_| "bad --window")?)
            }
            "--heartbeat" => {
                args.heartbeat = Some(positive_secs("--heartbeat", &value(&mut i, "--heartbeat")?)?)
            }
            "--runner" => args.runner = value(&mut i, "--runner")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.master.is_empty() {
        return Err("--master <addr> is required".into());
    }
    Ok(args)
}

fn make_runner(spec: &str) -> Result<Arc<dyn JobRunner>, String> {
    if spec == "noop" {
        return Ok(Arc::new(NoopRunner));
    }
    if let Some(scale) = spec.strip_prefix("sleep:") {
        let scale: f64 = scale.parse().map_err(|_| format!("bad sleep scale in {spec}"))?;
        return Ok(Arc::new(SleepRunner::new(scale)));
    }
    if let Some(scale) = spec.strip_prefix("cpu:") {
        let scale: f64 = scale.parse().map_err(|_| format!("bad cpu scale in {spec}"))?;
        return Ok(Arc::new(CpuRunner::new(scale)));
    }
    Err(format!("unknown runner {spec} (expected noop, sleep:<scale>, cpu:<scale>)"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("dewe-workerd: {msg}");
            eprintln!(
                "usage: dewe-workerd --master <addr> [--id N] [--generation N] [--slots N] \
                 [--window N] [--heartbeat S] [--runner noop|sleep:S|cpu:S]"
            );
            exit(2);
        }
    };
    let runner = match make_runner(&args.runner) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("dewe-workerd: {msg}");
            exit(2);
        }
    };

    let registry = Registry::new();
    // Window default: enough credit to keep every slot busy with one
    // dispatch queued behind it.
    let window = args.window.unwrap_or((args.slots as u32).saturating_mul(2));
    let link = match TcpWorkerLink::connect(
        &args.master,
        registry.clone(),
        TcpWorkerOptions { worker_id: args.id, generation: args.generation, window },
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dewe-workerd: connect {}: {e}", args.master);
            exit(1);
        }
    };
    println!("dewe-workerd: worker {} (gen {}) serving {}", args.id, args.generation, args.master);

    let handle = spawn_worker_on(
        Arc::new(link.clone()),
        registry,
        runner,
        WorkerConfig {
            worker_id: args.id,
            generation: args.generation,
            slots: args.slots,
            heartbeat_interval: args.heartbeat.map(Duration::from_secs_f64),
            ..WorkerConfig::default()
        },
    );

    // Serve until the link is done: the master says Bye (or the link gives
    // up), the link closes the dispatch side, the slot loops drain it and
    // exit. `wait` blocks on exactly that.
    let executed = handle.wait();
    link.close();
    println!("dewe-workerd: worker {} done — {executed} jobs executed", args.id);
}
