//! `dewectl` — command-line workflow tooling.
//!
//! ```text
//! dewectl inspect  <file>                    structural statistics
//! dewectl convert  <in> <out>                .dag <-> .dax by extension
//! dewectl dot      <file> [--collapsed]      Graphviz to stdout
//! dewectl gen      montage <degree> <out>    generate a workflow file
//! dewectl gen      ligo <groups> <banks> <out>
//! dewectl gen      cybershake <variations> <out>
//! dewectl gen      epigenomics <lanes> <chunks> <out>
//! dewectl gen      sipht <patser_jobs> <out>
//! dewectl simulate <file> [--nodes N] [--type c3.8xlarge] [--workflows W]
//!                         [--interval S] [--trace out.json]
//! dewectl ensemble <manifest>                run a whole campaign manifest
//! dewectl submit   <host:port> <file> [--count N]   submit to a dewe-masterd,
//!                                            checking the file as it is sent
//! ```
//!
//! Workflow files use the DAGMan-style text format (`.dag`) or Pegasus DAX
//! (`.dax`/`.xml`), auto-detected by extension.
//!
//! `submit` sends a `.dag` file as it is and parses it while it is sent. A
//! file that does not parse exits 1 with the parse error, as it did when
//! the check came first, but its copies have reached the master: it logs
//! one refusal for each, a line of bounded length, spools and runs none of
//! them, and serves on. A DAX is converted, and only then sent.
#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

use dewe::core::realtime::submit_over_tcp;
use dewe::core::sim::{run_ensemble, SimRunConfig, SubmissionPlan};
use dewe::dag::{
    lint, parse_dax, parse_workflow, to_dot, to_dot_collapsed, workflow_name, write_dax,
    write_workflow, CriticalPath, LevelProfile, Workflow, WorkflowStats,
};
use dewe::montage::{CyberShakeConfig, EpigenomicsConfig, LigoConfig, MontageConfig, SiphtConfig};
use dewe::simcloud::{ClusterConfig, InstanceType, SharedFsKind, StorageConfig, C3_8XLARGE};

/// Why a subcommand stopped early.
enum Stop {
    /// The command failed; the reason goes to stderr.
    Failed(String),
    /// Standard output could not be written.
    Stdout(io::Error),
}

impl From<String> for Stop {
    fn from(reason: String) -> Self {
        Stop::Failed(reason)
    }
}

impl From<&str> for Stop {
    fn from(reason: &str) -> Self {
        Stop::Failed(reason.to_string())
    }
}

impl From<io::Error> for Stop {
    fn from(error: io::Error) -> Self {
        Stop::Stdout(error)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every subcommand prints through this one locked writer, so a reader
    // that went away (`dewectl inspect … | head`) is an error value here
    // and not a panic inside `println!`.
    let stdout = &mut io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => inspect(&args[1..], stdout),
        Some("convert") => convert(&args[1..], stdout),
        Some("dot") => dot(&args[1..], stdout),
        Some("gen") => generate(&args[1..], stdout),
        Some("simulate") => simulate(&args[1..], stdout),
        Some("ensemble") => ensemble(&args[1..], stdout),
        Some("submit") => submit(&args[1..], stdout),
        _ => {
            eprintln!(
                "usage: dewectl <inspect|convert|dot|gen|simulate|ensemble|submit> ... (see crate docs)"
            );
            exit(2);
        }
    };
    match result.and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => {}
        // Nobody is reading any more: not a failure of this command.
        Err(Stop::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => exit(0),
        Err(Stop::Stdout(e)) => {
            eprintln!("dewectl: stdout: {e}");
            exit(1);
        }
        Err(Stop::Failed(reason)) => {
            eprintln!("dewectl: {reason}");
            exit(1);
        }
    }
}

fn load(path: &str) -> Result<Workflow, String> {
    let (text, converted) = read(path)?;
    converted.map_or_else(|| parse(path, &text), Ok)
}

/// The `.dag` text of the workflow file `path`: the file itself when it is
/// one; when it is a DAX, its conversion, with the workflow it was
/// converted from.
fn read(path: &str) -> Result<(String, Option<Workflow>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ext = Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext {
        "dax" | "xml" => {
            let wf = parse_dax(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok((write_workflow(&wf), Some(wf)))
        }
        _ => Ok((text, None)),
    }
}

/// The workflow of `text`, the `.dag` text of the file `path`.
fn parse(path: &str, text: &str) -> Result<Workflow, String> {
    parse_workflow(text).map_err(|e| format!("{path}: {e}"))
}

fn save(wf: &Workflow, path: &str) -> Result<(), String> {
    let ext = Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("");
    let text = match ext {
        "dax" | "xml" => write_dax(wf),
        _ => write_workflow(wf),
    };
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// A count flag's value: a whole number, at least 1.
fn positive_count(flag: &str, value: Option<&String>) -> Result<usize, String> {
    match value.map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err(format!(
            "{flag} must be a whole number greater than 0, got {}",
            value.map_or("nothing", String::as_str)
        )),
    }
}

/// A duration flag's value: a finite number of seconds, zero or more.
fn non_negative_secs(flag: &str, value: Option<&String>) -> Result<f64, String> {
    match value.map(|v| v.parse::<f64>()) {
        Some(Ok(secs)) if secs.is_finite() && secs >= 0.0 => Ok(secs),
        _ => Err(format!(
            "{flag} must be a finite number of seconds, 0 or more, got {}",
            value.map_or("nothing", String::as_str)
        )),
    }
}

fn inspect(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let path = args.first().ok_or("inspect needs a file")?;
    let wf = load(path)?;
    let stats = WorkflowStats::of(&wf);
    let lp = LevelProfile::of(&wf);
    let cp = CriticalPath::of(&wf);
    writeln!(stdout, "workflow      : {}", wf.name())?;
    writeln!(stdout, "jobs          : {}", stats.total_jobs)?;
    writeln!(stdout, "edges         : {}", stats.edges)?;
    writeln!(
        stdout,
        "files         : {} input ({:.2} GB) + {} produced ({:.2} GB)",
        stats.input_files,
        stats.input_bytes as f64 / 1e9,
        stats.intermediate_files,
        stats.intermediate_bytes as f64 / 1e9
    )?;
    writeln!(stdout, "total CPU     : {:.0} core-seconds", stats.total_cpu_seconds)?;
    writeln!(stdout, "depth / width : {} levels, max width {}", lp.depth(), lp.max_width())?;
    writeln!(stdout, "critical path : {} jobs, {:.1} CPU-seconds", cp.jobs.len(), cp.cpu_seconds)?;
    let blocking = lp.blocking_jobs();
    writeln!(stdout, "blocking jobs : {}", blocking.len())?;
    for &j in blocking.iter().take(8) {
        writeln!(stdout, "                {} ({:.0}s)", wf.job(j).name, wf.job(j).cpu_seconds)?;
    }
    writeln!(stdout, "by transformation:")?;
    for (xform, count, cpu) in stats.by_xform.iter().take(12) {
        writeln!(stdout, "  {xform:<20} x{count:<7} {cpu:>10.0} cpu-s")?;
    }
    writeln!(stdout, "top-3 homogeneity: {:.1}%", 100.0 * stats.homogeneity(3))?;
    let findings = lint(&wf);
    if findings.is_empty() {
        writeln!(stdout, "lint          : clean")?;
    } else {
        writeln!(stdout, "lint          : {} findings", findings.len())?;
        for f in findings.iter().take(10) {
            writeln!(stdout, "                {f:?}")?;
        }
    }
    Ok(())
}

fn convert(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let [input, output] = args else {
        return Err("convert needs <in> <out>".into());
    };
    let wf = load(input)?;
    save(&wf, output)?;
    writeln!(stdout, "wrote {} ({} jobs)", output, wf.job_count())?;
    Ok(())
}

fn dot(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let path = args.first().ok_or("dot needs a file")?;
    let wf = load(path)?;
    let collapsed = args.iter().any(|a| a == "--collapsed");
    if collapsed || wf.job_count() > 2000 {
        if !collapsed {
            eprintln!("(large workflow: emitting collapsed view; pass --collapsed to silence)");
        }
        write!(stdout, "{}", to_dot_collapsed(&wf))?;
    } else {
        write!(stdout, "{}", to_dot(&wf))?;
    }
    Ok(())
}

fn generate(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    match args.first().map(String::as_str) {
        Some("montage") => {
            let [_, degree, out] = args else {
                return Err("gen montage <degree> <out>".into());
            };
            let d: f64 = degree.parse().map_err(|_| "bad degree")?;
            let wf = MontageConfig::degree(d).build();
            save(&wf, out)?;
            writeln!(stdout, "montage {d} deg: {} jobs -> {out}", wf.job_count())?;
        }
        Some("ligo") => {
            let [_, groups, banks, out] = args else {
                return Err("gen ligo <groups> <banks> <out>".into());
            };
            let wf = LigoConfig::new(
                groups.parse().map_err(|_| "bad groups")?,
                banks.parse().map_err(|_| "bad banks")?,
            )
            .build();
            save(&wf, out)?;
            writeln!(stdout, "ligo: {} jobs -> {out}", wf.job_count())?;
        }
        Some("cybershake") => {
            let [_, vars, out] = args else {
                return Err("gen cybershake <variations> <out>".into());
            };
            let wf = CyberShakeConfig::new(vars.parse().map_err(|_| "bad variations")?).build();
            save(&wf, out)?;
            writeln!(stdout, "cybershake: {} jobs -> {out}", wf.job_count())?;
        }
        Some("epigenomics") => {
            let [_, lanes, chunks, out] = args else {
                return Err("gen epigenomics <lanes> <chunks> <out>".into());
            };
            let wf = EpigenomicsConfig::new(
                lanes.parse().map_err(|_| "bad lanes")?,
                chunks.parse().map_err(|_| "bad chunks")?,
            )
            .build();
            save(&wf, out)?;
            writeln!(stdout, "epigenomics: {} jobs -> {out}", wf.job_count())?;
        }
        Some("sipht") => {
            let [_, patser, out] = args else {
                return Err("gen sipht <patser_jobs> <out>".into());
            };
            let wf = SiphtConfig::new(patser.parse().map_err(|_| "bad patser_jobs")?).build();
            save(&wf, out)?;
            writeln!(stdout, "sipht: {} jobs -> {out}", wf.job_count())?;
        }
        _ => return Err("gen <montage|ligo|cybershake|epigenomics|sipht> ...".into()),
    }
    Ok(())
}

fn submit(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let addr = args.first().ok_or("submit needs <host:port> <file> [--count N]")?;
    let path = args.get(1).ok_or("submit needs <host:port> <file> [--count N]")?;
    let mut count = 1usize;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--count" => {
                count = positive_count("--count", args.get(i + 1))?;
                i += 2;
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    // The text goes out as it is, `count` times down one connection, under
    // the name of its `WORKFLOW` statement, and is parsed beside the send:
    // a file that does not parse still fails here, though its copies have
    // reached the master, which refuses each one. A DAX is converted first.
    let (text, converted) = read(path)?;
    let name = converted.as_ref().map_or_else(|| workflow_name(&text), Workflow::name).to_string();
    let names = (0..count).map(|n| match count {
        1 => name.clone(),
        _ => format!("{name}-{n}"),
    });
    let (wf, sent) = std::thread::scope(|scope| {
        let parsed = scope.spawn(|| converted.map_or_else(|| parse(path, &text), Ok));
        let sent = submit_over_tcp(addr.as_str(), names.map(|name| (name, &text)));
        (parsed.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), sent)
    });
    let wf = wf?;
    sent.map_err(|e| format!("submit to {addr}: {e}"))?;
    writeln!(stdout, "submitted {count} x {} ({} jobs each) to {addr}", wf.name(), wf.job_count())?;
    Ok(())
}

fn ensemble(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let path = args.first().ok_or("ensemble needs a manifest file")?;
    let manifest = dewe::manifest::Manifest::load(path)?;
    let wfs = manifest.expand()?;
    let itype = InstanceType::by_name(&manifest.instance).expect("validated at parse");
    let nodes = manifest.nodes;
    writeln!(stdout, "ensemble: {} workflow instances on {nodes} x {}", wfs.len(), itype.name)?;
    run_simulation(stdout, &wfs, itype, nodes, manifest.interval_secs, manifest.timeout_secs, None)
}

fn simulate(args: &[String], stdout: &mut impl Write) -> Result<(), Stop> {
    let path = args.first().ok_or("simulate needs a file")?;
    let wf = Arc::new(load(path)?);
    let mut nodes = 1usize;
    let mut workflows = 1usize;
    let mut itype: &'static InstanceType = &C3_8XLARGE;
    let mut interval = 0.0f64;
    let mut trace_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                nodes = positive_count("--nodes", args.get(i + 1))?;
                i += 2;
            }
            "--workflows" => {
                workflows = positive_count("--workflows", args.get(i + 1))?;
                i += 2;
            }
            "--type" => {
                let name = args.get(i + 1).ok_or("--type <instance>")?;
                itype = InstanceType::by_name(name)
                    .ok_or_else(|| format!("unknown instance type {name}"))?;
                i += 2;
            }
            "--interval" => {
                interval = non_negative_secs("--interval", args.get(i + 1))?;
                i += 2;
            }
            "--trace" => {
                trace_out = Some(args.get(i + 1).ok_or("--trace <out.json>")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let wfs: Vec<_> = (0..workflows).map(|_| Arc::clone(&wf)).collect();
    writeln!(stdout, "simulated {workflows} x {} on {nodes} x {}: ", wf.name(), itype.name)?;
    run_simulation(stdout, &wfs, itype, nodes, interval, None, trace_out.as_deref())
}

/// The one simulated run behind `simulate` and `ensemble`, and its report:
/// `wfs` on `nodes` x `itype` — on local disk when there is one node, else
/// on the distributed file system — submitted `interval` seconds apart (at
/// once for 0), with the engine's job timeout `timeout` if one is given,
/// and the run's trace written to `trace_out` if one is given.
fn run_simulation(
    stdout: &mut impl Write,
    wfs: &[Arc<Workflow>],
    itype: &InstanceType,
    nodes: usize,
    interval: f64,
    timeout: Option<f64>,
    trace_out: Option<&str>,
) -> Result<(), Stop> {
    let storage = if nodes == 1 {
        StorageConfig::LocalDisk
    } else {
        StorageConfig::Shared(SharedFsKind::DistFs)
    };
    let mut cfg = SimRunConfig::new(ClusterConfig { instance: *itype, nodes, storage });
    if interval > 0.0 {
        cfg.submission = SubmissionPlan::Interval(interval);
    }
    if let Some(t) = timeout {
        cfg.engine.default_timeout_secs = t;
    }
    cfg.record_trace = trace_out.is_some();
    let report = run_ensemble(wfs, &cfg);
    writeln!(
        stdout,
        "  makespan   : {:.1}s ({:.1} min)",
        report.makespan_secs,
        report.makespan_secs / 60.0
    )?;
    writeln!(stdout, "  jobs       : {}", report.engine.jobs_completed)?;
    writeln!(stdout, "  cpu        : {:.0} core-seconds", report.total_cpu_core_secs)?;
    writeln!(
        stdout,
        "  disk reads : {:.2} GB (cache hit rate {:.0}%)",
        report.total_bytes_read / 1e9,
        100.0 * report.cache_hit_rate
    )?;
    writeln!(stdout, "  disk writes: {:.2} GB", report.total_bytes_written / 1e9)?;
    writeln!(stdout, "  est. cost  : ${:.2} (hourly billing)", report.cost_usd)?;
    if let (Some(path), Some(trace)) = (trace_out, &report.trace) {
        std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("write {path}: {e}"))?;
        let qw = trace.queue_wait_summary().expect("trace non-empty");
        writeln!(
            stdout,
            "  trace      : {} events -> {path} (queue wait p50 {:.2}s p99 {:.2}s)",
            trace.len(),
            qw.p50,
            qw.p99
        )?;
    }
    if !report.completed {
        return Err("simulation did not complete (engine starvation?)".into());
    }
    Ok(())
}
