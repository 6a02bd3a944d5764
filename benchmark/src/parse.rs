//! Parsers for what the measured binaries print. The formats are the ones
//! `dewectl`, `dewe-masterd` and `dewe-workerd` document as stable.

/// The simulated results `dewectl simulate` prints. They depend only on the
/// inputs, so they must be identical across reps and across commits that
/// claim nothing but speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    pub makespan_s: f64,
    pub jobs: u64,
    pub cpu_core_s: f64,
    pub gb_read: f64,
    /// 0..=1, as printed (whole percent).
    pub cache_hit_rate: f64,
    pub gb_written: f64,
}

/// The number that opens `text` (after optional `$`), up to the first
/// character that cannot continue it.
fn leading_number(text: &str) -> Option<f64> {
    let t = text.trim_start().trim_start_matches('$');
    let end = t.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(t.len());
    t[..end].parse().ok()
}

pub fn parse_simulate(stdout: &str) -> Option<SimStats> {
    let field = |label: &str| {
        stdout.lines().find_map(|l| {
            let (key, value) = l.split_once(':')?;
            (key.trim() == label).then_some(value)
        })
    };
    let reads = field("disk reads")?;
    let hit = reads.split_once("cache hit rate")?.1.trim().trim_end_matches(')');
    Some(SimStats {
        makespan_s: leading_number(field("makespan")?)?,
        jobs: field("jobs")?.trim().parse().ok()?,
        cpu_core_s: leading_number(field("cpu")?)?,
        gb_read: leading_number(reads)?,
        cache_hit_rate: leading_number(hit.trim_end_matches('%'))? / 100.0,
        gb_written: leading_number(field("disk writes")?)?,
    })
}

/// `dewe-masterd: listening on <addr>` → `<addr>`.
pub fn parse_listening(line: &str) -> Option<&str> {
    line.strip_prefix("dewe-masterd: listening on ").map(str::trim)
}

/// `dewe-masterd: workflow <k> completed in <s>s` → `k`.
pub fn parse_workflow_completed(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("dewe-masterd: workflow ")?;
    let (id, tail) = rest.split_once(' ')?;
    tail.starts_with("completed in ").then(|| id.parse().ok())?
}

/// The master's closing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterDone {
    pub workflows: u64,
    pub jobs_completed: u64,
    pub resubmissions: u64,
    pub dead_lettered: u64,
}

/// `dewe-masterd: done — W workflows, J jobs completed, R resubmissions, D dead-lettered`.
pub fn parse_master_done(line: &str) -> Option<MasterDone> {
    let rest = line.strip_prefix("dewe-masterd: done")?;
    let mut counts = rest
        .split(',')
        .map(|part| part.split_ascii_whitespace().find_map(|word| word.parse::<u64>().ok()));
    Some(MasterDone {
        workflows: counts.next()??,
        jobs_completed: counts.next()??,
        resubmissions: counts.next()??,
        dead_lettered: counts.next()??,
    })
}

/// `dewe-workerd: worker <id> done — <n> jobs executed` and
/// `chain-worker: done — <n> jobs executed, …` → `n`.
pub fn parse_jobs_executed(line: &str) -> Option<u64> {
    let head = line.split_once(" jobs executed")?.0;
    if !head.contains("done") {
        return None;
    }
    head.rsplit(' ').next()?.parse().ok()
}

/// `chain-worker: done — <n> jobs executed, <v> order violations`.
pub fn parse_order_violations(line: &str) -> Option<u64> {
    let head = line.strip_prefix("chain-worker: done")?.split_once(" order violations")?.0;
    head.rsplit(' ').next()?.parse().ok()
}

/// A `name value unit` metric line, as `layers` and `bench` print them.
pub fn parse_metric_line(line: &str) -> Option<(&str, f64, &str)> {
    let mut words = line.split_ascii_whitespace();
    let (name, value, unit) = (words.next()?, words.next()?.parse().ok()?, words.next()?);
    (words.next().is_none() && crate::spec::valid_name(name)).then_some((name, value, unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMULATE: &str = "simulated 200 x montage_6deg on 40 x c3.8xlarge: \n\
        \x20 makespan   : 1934.1s (32.2 min)\n\
        \x20 jobs       : 1717200\n\
        \x20 cpu        : 1848663 core-seconds\n\
        \x20 disk reads : 5798.78 GB (cache hit rate 51%)\n\
        \x20 disk writes: 7065.09 GB\n\
        \x20 est. cost  : $67.20 (hourly billing)\n";

    #[test]
    fn simulate_output() {
        assert_eq!(
            parse_simulate(SIMULATE),
            Some(SimStats {
                makespan_s: 1934.1,
                jobs: 1_717_200,
                cpu_core_s: 1_848_663.0,
                gb_read: 5798.78,
                cache_hit_rate: 0.51,
                gb_written: 7065.09,
            })
        );
        assert_eq!(parse_simulate("dewectl: simulation did not complete"), None);
        assert_eq!(parse_simulate(&SIMULATE.replace("1717200", "many")), None);
    }

    #[test]
    fn master_lines() {
        assert_eq!(
            parse_listening("dewe-masterd: listening on 127.0.0.1:41873\n"),
            Some("127.0.0.1:41873")
        );
        assert_eq!(parse_listening("dewe-masterd: respooled workflow 1 (x)"), None);
        assert_eq!(
            parse_workflow_completed("dewe-masterd: workflow 17 completed in 1.25s"),
            Some(17)
        );
        assert_eq!(
            parse_workflow_completed("dewe-masterd: workflow 17 abandoned (2 dead-lettered)"),
            None
        );
        assert_eq!(
            parse_master_done(
                "dewe-masterd: done — 10 workflows, 85860 jobs completed, 3 resubmissions, 1 dead-lettered"
            ),
            Some(MasterDone { workflows: 10, jobs_completed: 85860, resubmissions: 3, dead_lettered: 1 })
        );
        assert_eq!(parse_master_done("dewe-masterd: done — 10 workflows"), None);
    }

    #[test]
    fn worker_lines() {
        assert_eq!(
            parse_jobs_executed("dewe-workerd: worker 1 done — 35712 jobs executed"),
            Some(35712)
        );
        let chain = "chain-worker: done — 17172 jobs executed, 0 order violations";
        assert_eq!(parse_jobs_executed(chain), Some(17172));
        assert_eq!(parse_order_violations(chain), Some(0));
        assert_eq!(parse_jobs_executed("dewe-workerd: worker 1 (gen 0) serving 127.0.0.1:1"), None);
        assert_eq!(parse_order_violations("dewe-workerd: worker 1 done — 5 jobs executed"), None);
    }

    #[test]
    fn metric_lines() {
        assert_eq!(
            parse_metric_line("dag.parse_mb_per_s 151.25 MB/s"),
            Some(("dag.parse_mb_per_s", 151.25, "MB/s"))
        );
        assert_eq!(parse_metric_line("layers: traced sim driver done"), None);
        assert_eq!(parse_metric_line("a b c d"), None);
        assert_eq!(parse_metric_line("bad/name 1 s"), None);
    }
}
