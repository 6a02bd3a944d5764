//! The names the benchmark emits. `BENCHMARK.json` must list exactly these;
//! `tests/contract.rs` checks that it does.

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["sim-paper", "sim-staggered", "tcp-wide", "tcp-chain"];

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("cpu_us_per_job", "us"), ("peak_rss_mib", "MiB")];

/// `(name, unit)` of every per-layer metric, reported by the traced run.
/// A name's prefix is the module (layer) it measures.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("dag.parse_mb_per_s", "MB/s"),
    ("dag.write_mb_per_s", "MB/s"),
    ("dag.tracker_ns_per_job", "ns"),
    ("dag.tracker_bytes_per_job", "B"),
    ("engine.ns_per_job", "ns"),
    ("engine.allocs_per_job", "count"),
    ("engine.live_bytes_per_job", "B"),
    ("engine.timer_cascades_per_job", "count"),
    ("engine.resubmissions", "count"),
    ("sim.driver_self_ns_per_job", "ns"),
    ("sim.engine_share", "%"),
    ("sim.simcloud_share", "%"),
    ("sim.trace_overhead_pct", "%"),
    ("sim.trace_valid", "count"),
    ("simcloud.exec_ns_per_event", "ns"),
    ("simcloud.events_per_job", "count"),
    ("simcloud.allocs_per_job", "count"),
    ("simcloud.kernel_ns_per_event", "ns"),
    ("simcloud.fairshare_ns_per_flow_32", "ns"),
    ("simcloud.fairshare_ns_per_flow_1280", "ns"),
    ("simcloud.readcache_ns_per_op_hit51", "ns"),
    ("simcloud.readcache_ns_per_op_hit94", "ns"),
    ("simcloud.storage_ns_per_job", "ns"),
    ("simcloud.makespan_s", "s"),
    ("simcloud.cache_hit_rate", "%"),
    ("simcloud.gb_read", "GB"),
    ("simcloud.gb_written", "GB"),
    ("simcloud.cpu_core_s", "s"),
    ("mq.topic_ns_per_msg", "ns"),
    ("mq.topic_handoff_us", "us"),
    ("mq.window_ns_per_credit", "ns"),
    ("mq.frame_ns_per_frame", "ns"),
    ("wire.encode_ns_per_job", "ns"),
    ("wire.decode_ns_per_job", "ns"),
    ("wire.bytes_per_job", "B"),
    ("wire.allocs_per_job", "count"),
    ("wire.announce_mb_per_s", "MB/s"),
    ("journal.append_ns_per_record", "ns"),
    ("journal.bytes_per_record", "B"),
    ("journal.replay_records_per_s", "1/s"),
    ("journal.wal_bytes_per_job", "B"),
    ("net.loopback_jobs_per_s", "jobs/s"),
    ("net.pingpong_p50_us", "us"),
    ("liveness.ns_per_ack", "ns"),
    ("master.syscalls_per_job", "count"),
    ("master.io_bytes_per_job", "B"),
    ("master.vol_ctxsw_per_job", "count"),
    ("master.invol_ctxsw_per_job", "count"),
    ("master.threads", "count"),
    ("master.residual_us_per_job", "us"),
    ("worker.cpu_us_per_job", "us"),
    ("worker.syscalls_per_job", "count"),
    ("worker.vol_ctxsw_per_job", "count"),
    ("worker.hop_p50_us", "us"),
    ("worker.hop_p90_us", "us"),
    ("worker.hop_p99_us", "us"),
    ("worker.hop_p999_us", "us"),
    ("worker.hop_max_us", "us"),
    ("ingest.submit_s", "s"),
    ("ingest.mb_per_s", "MB/s"),
];

/// The contract's rule for workload and metric names.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contract's rule for units.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let mut seen = HashSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("tcp-wide") && valid_name("dag.parse_mb_per_s") && valid_name("9lives"));
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("jobs/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"x".repeat(17)));
    }
}
