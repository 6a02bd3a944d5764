//! What the benchmark learns about a process from outside: parsers for
//! `/proc/<pid>/{stat,status,io}` and a sampler thread that polls them.

use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fixed sampling period. The sampler sleeps between samples; nothing in the
/// benchmark spins, because a spinning thread keeps a core awake and was
/// seen to change the hop latency it is there to measure.
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// `sysconf(_SC_CLK_TCK)`: the unit of `utime`/`stime`. Linux reports these
/// in USER_HZ, which is 100 on every architecture the repo builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub state: char,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl Stat {
    pub fn cpu_secs(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_SEC
    }

    /// Exited but not yet waited for (`Z`) or being torn down (`X`): the
    /// CPU totals are final.
    pub fn exited(&self) -> bool {
        matches!(self.state, 'Z' | 'X' | 'x')
    }
}

/// Parse one `/proc/<pid>/stat` line. The second field is the command name
/// in parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let state = fields.next()?.chars().next()?;
    // After the state (field 3) come fields 4..; utime is 14, stime is 15.
    let utime_ticks = fields.nth(10)?.parse().ok()?;
    let stime_ticks = fields.next()?.parse().ok()?;
    Some(Stat { state, utime_ticks, stime_ticks })
}

/// The fields of `/proc/<pid>/status` (or a task's) the benchmark uses.
/// `vm_hwm_kib` is absent for a zombie and for kernel threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    pub vm_hwm_kib: Option<u64>,
    pub threads: u64,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    let number = |v: &str| v.split_ascii_whitespace().next().and_then(|n| n.parse::<u64>().ok());
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else { continue };
        match key {
            "VmHWM" => s.vm_hwm_kib = number(value),
            "Threads" => s.threads = number(value).unwrap_or(0),
            "voluntary_ctxt_switches" => s.vol_ctxsw = number(value).unwrap_or(0),
            "nonvoluntary_ctxt_switches" => s.invol_ctxsw = number(value).unwrap_or(0),
            _ => {}
        }
    }
    s
}

/// The fields of `/proc/<pid>/io` the benchmark uses (whole process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Io {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

pub fn parse_io(text: &str) -> Option<Io> {
    let mut io = Io::default();
    let mut seen = 0;
    for line in text.lines() {
        let (key, value) = line.split_once(':')?;
        let slot = match key {
            "rchar" => &mut io.rchar,
            "wchar" => &mut io.wchar,
            "syscr" => &mut io.syscr,
            "syscw" => &mut io.syscw,
            _ => continue,
        };
        *slot = value.trim().parse().ok()?;
        seen += 1;
    }
    (seen == 4).then_some(io)
}

/// What one process used, as of the sampler's last sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    /// User + system CPU seconds of the whole process. Final, because the
    /// sampler's last read is of the zombie — unless something else reaped
    /// the process first, which makes it up to one period stale.
    pub cpu_secs: f64,
    /// `VmHWM`, last sample taken while the process was alive.
    pub peak_rss_mib: f64,
    /// Largest `Threads:` seen.
    pub threads: u64,
    /// Traced runs only (zero otherwise): `/proc/<pid>/io` and context
    /// switches summed over every thread ever seen under `task/`.
    pub io: Io,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

/// A thread polling one process every [`SAMPLE_PERIOD`] until it exits.
pub struct Sampler(JoinHandle<Usage>);

impl Sampler {
    /// `counters` adds the per-layer process counters (io, context
    /// switches); end-to-end runs leave it off to read two files per period
    /// instead of a dozen.
    pub fn spawn(pid: u32, counters: bool) -> Self {
        Self(std::thread::spawn(move || sample_until_exit(pid, counters)))
    }

    /// Blocks until the process has exited (at most one period after it
    /// became a zombie). Call before `Child::wait`, which removes `/proc/<pid>`.
    pub fn finish(self) -> Usage {
        self.0.join().expect("sampler thread does not panic")
    }
}

fn sample_until_exit(pid: u32, counters: bool) -> Usage {
    let mut usage = Usage::default();
    let mut tasks: HashMap<String, (u64, u64)> = HashMap::new();
    let read = |file: &str| std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok();
    while let Some(stat) = read("stat").as_deref().and_then(parse_stat) {
        usage.cpu_secs = stat.cpu_secs();
        if stat.exited() {
            break;
        }
        if let Some(status) = read("status").as_deref().map(parse_status) {
            if let Some(kib) = status.vm_hwm_kib {
                usage.peak_rss_mib = kib as f64 / 1024.0;
            }
            usage.threads = usage.threads.max(status.threads);
        }
        if counters {
            if let Some(io) = read("io").as_deref().and_then(parse_io) {
                usage.io = io;
            }
            if let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) {
                for entry in dir.flatten() {
                    let tid = entry.file_name().to_string_lossy().into_owned();
                    if let Some(s) =
                        read(&format!("task/{tid}/status")).as_deref().map(parse_status)
                    {
                        tasks.insert(tid, (s.vol_ctxsw, s.invol_ctxsw));
                    }
                }
            }
        }
        std::thread::sleep(SAMPLE_PERIOD);
    }
    usage.vol_ctxsw = tasks.values().map(|t| t.0).sum();
    usage.invol_ctxsw = tasks.values().map(|t| t.1).sum();
    usage
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str = "17398 17404 17398 0 -1 4194304 81 0 0 0 123 45 0 0 20 0 1 0 252377 \
        2703360 285 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let plain = format!("17404 (dewe-masterd) S {STAT_TAIL}");
        let want = Stat { state: 'S', utime_ticks: 123, stime_ticks: 45 };
        assert_eq!(parse_stat(&plain), Some(want));
        // A command name holding spaces and parentheses shifts naive
        // whitespace splitting by several fields.
        let nasty = format!("17404 (a b) (c)) R) S {STAT_TAIL}");
        assert_eq!(parse_stat(&nasty), Some(want));
        assert!((want.cpu_secs() - 1.68).abs() < 1e-12);
    }

    #[test]
    fn stat_reports_exit_states_and_rejects_garbage() {
        let zombie = format!("9 (x) Z {STAT_TAIL}");
        assert!(parse_stat(&zombie).unwrap().exited());
        assert!(!parse_stat(&format!("9 (x) R {STAT_TAIL}")).unwrap().exited());
        assert_eq!(parse_stat("9 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn status_picks_its_four_fields() {
        let text = "Name:\tdewectl\nVmPeak:\t  999 kB\nVmHWM:\t  399104 kB\nThreads:\t7\n\
            voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Status { vm_hwm_kib: Some(399104), threads: 7, vol_ctxsw: 12, invol_ctxsw: 3 }
        );
        // A zombie's status has no Vm* lines.
        assert_eq!(parse_status("Name:\tx\nState:\tZ (zombie)\nThreads:\t1\n").vm_hwm_kib, None);
    }

    #[test]
    fn io_needs_all_four_counters() {
        let text = "rchar: 3980\nwchar: 17\nsyscr: 9\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 0\n";
        assert_eq!(parse_io(text), Some(Io { rchar: 3980, wchar: 17, syscr: 9, syscw: 2 }));
        assert_eq!(parse_io("rchar: 1\nwchar: 2\n"), None);
        assert_eq!(parse_io("rchar: many\nwchar: 2\nsyscr: 3\nsyscw: 4\n"), None);
    }

    #[test]
    fn sampler_follows_a_real_child_to_its_exit() {
        let mut child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done"])
            .spawn()
            .unwrap();
        let usage = Sampler::spawn(child.id(), true).finish();
        assert!(child.wait().unwrap().success());
        assert!(usage.cpu_secs > 0.0);
        assert!(usage.peak_rss_mib > 0.0);
        assert!(usage.threads >= 1);
    }
}
