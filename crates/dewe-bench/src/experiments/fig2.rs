//! Fig. 2: per-vCPU timeline of one Montage workflow on 4 m3.2xlarge
//! nodes (the paper's motivation run, executed with DEWE v1).
//!
//! We run the workflow with DEWE v2's runtime over NFS on four m3.2xlarge
//! nodes and render the per-slot compute/staging gantt. The features the
//! paper points at must be visible: a three-stage progress pattern, a long
//! serial stage 2 (~40% of makespan with one busy core), and staging gaps
//! on every node.

use std::sync::Arc;

use dewe_core::sim::{run_ensemble, SimRunConfig};
use dewe_simcloud::{ClusterConfig, SharedFsKind, StorageConfig, M3_2XLARGE};

use crate::{write_csv, Scale};

/// Fig. 2 outputs.
pub struct Fig2Result {
    /// Workflow makespan, seconds.
    pub makespan_secs: f64,
    /// Fraction of the makespan spent in the serial stage (level-width-1
    /// window), the paper's "approximately 40%".
    pub serial_fraction: f64,
    /// Total compute vs staging seconds across jobs.
    pub compute_secs: f64,
    /// Total staging (communication) seconds across jobs.
    pub staging_secs: f64,
    /// ASCII rendering of the per-slot timeline.
    pub ascii: String,
}

/// Run the Fig. 2 reproduction.
pub fn run_fig2(scale: Scale) -> Fig2Result {
    println!("== Fig 2: 1 workflow on 4 x m3.2xlarge, per-vCPU timeline ==");
    let wf = super::montage(scale);
    let cluster = ClusterConfig {
        instance: M3_2XLARGE,
        nodes: 4,
        storage: StorageConfig::Shared(SharedFsKind::Nfs),
    };
    let mut cfg = SimRunConfig::new(cluster);
    cfg.record_trace = true;
    cfg.sample = true;
    let report = run_ensemble(&[Arc::clone(&wf)], &cfg);
    assert!(report.completed);
    let trace = report.trace.expect("trace requested");
    let gantt = dewe_metrics::Gantt::from_trace(&trace);

    // Serial-stage fraction: sim-seconds during which at most 2 of the 32
    // slots are busy (mConcatFit -> mBgModel window), from the thread
    // samples.
    let sampler = report.sampler.expect("sampling requested");
    let threads = sampler.total_threads();
    let serial_samples = threads.points.iter().filter(|&&(_, v)| (1.0..=2.0).contains(&v)).count();
    let active_samples = threads.points.iter().filter(|&&(_, v)| v >= 1.0).count();
    let serial_fraction = serial_samples as f64 / active_samples.max(1) as f64;

    let ascii = gantt.render_ascii(100);
    println!("{ascii}");
    println!(
        "makespan {:.0}s; serial stage ~{:.0}% of active time; compute {:.0}s vs staging {:.0}s",
        report.makespan_secs,
        serial_fraction * 100.0,
        gantt.total_compute_secs(),
        gantt.total_staging_secs(),
    );
    let cpu = sampler.mean_cpu_util();
    write_csv("fig2_threads.csv", &dewe_metrics::csv::series_to_csv(&[&threads, &cpu]));
    Fig2Result {
        makespan_secs: report.makespan_secs,
        serial_fraction,
        compute_secs: gantt.total_compute_secs(),
        staging_secs: gantt.total_staging_secs(),
        ascii,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shows_three_stage_pattern() {
        std::env::set_var("DEWE_RESULTS_DIR", std::env::temp_dir().join("dewe_f2"));
        let r = run_fig2(Scale::Quick);
        // The serial stage must be a substantial fraction of the run
        // (paper: ~40% for 6.0 degrees on faster nodes).
        assert!(r.serial_fraction > 0.15, "serial fraction {}", r.serial_fraction);
        assert!(r.compute_secs > 0.0);
        assert!(r.staging_secs > 0.0, "NFS runs must show staging gaps");
        assert!(r.ascii.contains("node 3"), "all four nodes rendered");
    }
}
