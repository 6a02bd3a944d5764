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

mod flags;

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use dewe::core::realtime::{
    spawn_worker_on, CpuRunner, JobRunner, NoopRunner, Registry, SleepRunner, TcpWorkerLink,
    TcpWorkerOptions, WorkerConfig,
};

use flags::{positive_secs, whole};

struct Args {
    master: String,
    id: u32,
    generation: u32,
    slots: usize,
    window: Option<u32>,
    heartbeat: Option<f64>,
    runner: Arc<dyn JobRunner>,
}

/// Most `--slots`: the default window, two credits a slot, must fit a `u32`.
const MAX_SLOTS: usize = (u32::MAX / 2) as usize;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        master: String::new(),
        id: 0,
        generation: 0,
        slots: 4,
        window: None,
        heartbeat: None,
        runner: Arc::new(SleepRunner::new(1.0)),
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
            "--id" => args.id = whole("--id", &value(&mut i, "--id")?, 0..=u32::MAX)?,
            "--generation" => {
                args.generation =
                    whole("--generation", &value(&mut i, "--generation")?, 0..=u32::MAX)?
            }
            "--slots" => args.slots = whole("--slots", &value(&mut i, "--slots")?, 1..=MAX_SLOTS)?,
            "--window" => {
                args.window = Some(whole("--window", &value(&mut i, "--window")?, 1..=u32::MAX)?)
            }
            "--heartbeat" => {
                args.heartbeat = Some(positive_secs("--heartbeat", &value(&mut i, "--heartbeat")?)?)
            }
            "--runner" => args.runner = make_runner(&value(&mut i, "--runner")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.master.is_empty() {
        return Err("--master <addr> is required".into());
    }
    Ok(args)
}

/// A `--runner` value: `noop`, or `sleep:` or `cpu:` and a scale in real
/// seconds per CPU-second — not negative, and small enough for a
/// [`Duration`] (which rules out NaN and the infinities too), since every
/// job's run time is computed from it.
fn make_runner(spec: &str) -> Result<Arc<dyn JobRunner>, String> {
    let scale = |s: &str| s.parse().ok().filter(|&x| Duration::try_from_secs_f64(x).is_ok());
    let runner: Option<Arc<dyn JobRunner>> = match spec.split_once(':') {
        None if spec == "noop" => Some(Arc::new(NoopRunner)),
        Some(("sleep", s)) => scale(s).map(|x| Arc::new(SleepRunner::new(x)) as _),
        Some(("cpu", s)) => scale(s).map(|x| Arc::new(CpuRunner::new(x)) as _),
        _ => None,
    };
    runner.ok_or_else(|| {
        format!(
            "--runner must be noop, sleep:<scale> or cpu:<scale> with a finite scale of at \
             least 0, got {spec}"
        )
    })
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
    let registry = Registry::new();
    // Window default: enough credit to keep every slot busy with one
    // dispatch queued behind it.
    let window = args.window.unwrap_or(args.slots as u32 * 2);
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
        args.runner,
        WorkerConfig {
            worker_id: args.id,
            generation: args.generation,
            slots: args.slots,
            heartbeat_interval: args.heartbeat.map(Duration::from_secs_f64),
        },
    );

    // Serve until the link is done: the master says Bye (or the link gives
    // up), the link closes the dispatch side, the slot loops drain it and
    // exit. `wait` blocks on exactly that.
    let executed = handle.wait();
    link.close();
    println!("dewe-workerd: worker {} done — {executed} jobs executed", args.id);
}
