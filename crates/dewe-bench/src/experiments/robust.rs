//! §V.A.3 robustness: worker-daemon kills during non-blocking versus
//! blocking jobs.
//!
//! Paper claims:
//! * interruptions during **non-blocking** jobs (mProjectPP/mDiffFit)
//!   grow the makespan by roughly the outage duration — execution resumes
//!   as soon as the worker restarts, without waiting for timeouts;
//! * interruptions during **blocking** jobs (mConcatFit/mBgModel) grow it
//!   by roughly the timeout of the interrupted job — nothing else can run
//!   until the resubmitted blocking job completes.

use dewe_core::sim::{run_ensemble, NodeFault, SimRunConfig};
use dewe_metrics::csv::table_to_csv;
use dewe_mq::ChaosConfig;
use dewe_simcloud::{ClusterConfig, StorageConfig, C3_8XLARGE};

use crate::{write_csv, Scale};

/// Robustness experiment outputs.
pub struct RobustResult {
    /// Undisturbed single-workflow makespan.
    pub baseline_secs: f64,
    /// Makespan with a kill during the non-blocking stage 1.
    pub nonblocking_secs: f64,
    /// Makespan with a kill during the blocking stage 2.
    pub blocking_secs: f64,
    /// Outage duration used.
    pub outage_secs: f64,
    /// Job timeout used.
    pub timeout_secs: f64,
    /// Resubmissions in the two fault runs.
    pub resubmissions: (u64, u64),
    /// Message-level chaos columns (seeded drop/duplication injection).
    pub chaos: Vec<ChaosRow>,
}

/// One chaos-injection run: lossy/duplicating transport at a given rate.
pub struct ChaosRow {
    /// Probability a message is dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is duplicated.
    pub dup_prob: f64,
    /// Makespan under injection.
    pub makespan_secs: f64,
    /// Timeout-driven resubmissions (recovering dropped messages).
    pub resubmissions: u64,
    /// Duplicate completions absorbed (from duplicated messages).
    pub duplicate_completions: u64,
}

/// Run the robustness reproduction on a single-node cluster (the paper's
/// first test: master and worker daemon on the same node; the worker
/// daemon is killed and restarted shortly after). A single node guarantees
/// the blocking job is on the killed worker, making the blocking-stage
/// cost deterministic.
pub fn run_robust(scale: Scale) -> RobustResult {
    println!("== Robustness (§V.A.3): worker kill during non-blocking vs blocking jobs ==");
    let cluster =
        ClusterConfig { instance: C3_8XLARGE, nodes: 1, storage: StorageConfig::LocalDisk };
    // A timeout shorter than the remaining stage-1 work lets killed
    // non-blocking jobs rerun while the stage is still busy, hiding their
    // recovery entirely — the mechanism behind the paper's "increase
    // roughly equals the duration of the interruptions".
    let timeout = match scale {
        Scale::Full => 60.0,
        Scale::Quick => 10.0,
    };
    let outage = match scale {
        Scale::Full => 20.0,
        Scale::Quick => 5.0,
    };

    let base = {
        let wfs = super::ensemble(scale, 1);
        let mut cfg = SimRunConfig::new(cluster);
        cfg.engine.default_timeout_secs = timeout;
        cfg.timeout_scan_secs = 1.0;
        let r = run_ensemble(&wfs, &cfg);
        assert!(r.completed);
        r
    };

    // Stage boundaries from the DAG itself: stage 1 is the mProjectPP +
    // mDiffFit fan (levels 0-1) packed onto the node's slots; stage 2
    // begins when mConcatFit starts. Kill mid-stage-1 for the non-blocking
    // case and mid-mConcatFit for the blocking case.
    let wf = super::montage(scale);
    let lp = dewe_dag::LevelProfile::of(&wf);
    let slots = C3_8XLARGE.vcpus as f64;
    let level_cpu =
        |l: usize| -> f64 { lp.levels[l].iter().map(|&j| wf.job(j).cpu_seconds).sum::<f64>() };
    let stage1_secs = (level_cpu(0) + level_cpu(1)) / slots;
    let concat_cpu = wf.job(lp.levels[2][0]).cpu_seconds;
    let stage1_kill = stage1_secs * 0.5;
    let stage2_kill = stage1_secs + concat_cpu * 0.5;

    let run_fault = |kill_at: f64| {
        let wfs = super::ensemble(scale, 1);
        let mut cfg = SimRunConfig::new(cluster);
        cfg.engine.default_timeout_secs = timeout;
        cfg.timeout_scan_secs = 1.0;
        cfg.faults = vec![NodeFault {
            node: 0,
            kill_at_secs: kill_at,
            restart_at_secs: Some(kill_at + outage),
        }];
        let r = run_ensemble(&wfs, &cfg);
        assert!(r.completed, "fault run must still complete");
        r
    };

    let nonblocking = run_fault(stage1_kill);
    let blocking = run_fault(stage2_kill);

    // Message-level chaos: a lossy, duplicating transport between master
    // and workers. Dropped dispatches are recovered by the checkout
    // timeout (auto-enabled by the sim when drop_prob > 0), dropped acks
    // by the job timeout, and duplicated completions are absorbed as
    // noise — the ensemble must still finish every job exactly once.
    let run_chaos = |drop_prob: f64, dup_prob: f64, seed: u64| {
        let wfs = super::ensemble(scale, 1);
        let mut cfg = SimRunConfig::new(cluster);
        cfg.engine.default_timeout_secs = timeout;
        cfg.timeout_scan_secs = 1.0;
        cfg.chaos = Some(ChaosConfig::drop_dup(seed, drop_prob, dup_prob));
        let r = run_ensemble(&wfs, &cfg);
        assert!(r.completed, "chaos run must still complete every job");
        ChaosRow {
            drop_prob,
            dup_prob,
            makespan_secs: r.makespan_secs,
            resubmissions: r.engine.resubmissions,
            duplicate_completions: r.engine.duplicate_completions,
        }
    };
    let chaos = vec![run_chaos(0.02, 0.02, 0xD0D0), run_chaos(0.05, 0.05, 0xD0D1)];

    println!("baseline              : {:>7.0}s", base.makespan_secs);
    println!(
        "kill in stage 1 (+{outage:.0}s outage): {:>7.0}s  (delta {:+.0}s, resub {})",
        nonblocking.makespan_secs,
        nonblocking.makespan_secs - base.makespan_secs,
        nonblocking.engine.resubmissions
    );
    println!(
        "kill in stage 2 (timeout {timeout:.0}s): {:>7.0}s  (delta {:+.0}s, resub {})",
        blocking.makespan_secs,
        blocking.makespan_secs - base.makespan_secs,
        blocking.engine.resubmissions
    );
    for row in &chaos {
        println!(
            "chaos drop {:.0}% dup {:.0}%     : {:>7.0}s  (delta {:+.0}s, resub {}, dup acks {})",
            row.drop_prob * 100.0,
            row.dup_prob * 100.0,
            row.makespan_secs,
            row.makespan_secs - base.makespan_secs,
            row.resubmissions,
            row.duplicate_completions
        );
    }
    let mut rows = vec![
        vec![
            "baseline".into(),
            format!("{:.1}", base.makespan_secs),
            "0".into(),
            "0".into(),
            "0".into(),
        ],
        vec![
            "nonblocking_kill".into(),
            format!("{:.1}", nonblocking.makespan_secs),
            format!("{:.1}", nonblocking.makespan_secs - base.makespan_secs),
            nonblocking.engine.resubmissions.to_string(),
            nonblocking.engine.duplicate_completions.to_string(),
        ],
        vec![
            "blocking_kill".into(),
            format!("{:.1}", blocking.makespan_secs),
            format!("{:.1}", blocking.makespan_secs - base.makespan_secs),
            blocking.engine.resubmissions.to_string(),
            blocking.engine.duplicate_completions.to_string(),
        ],
    ];
    for row in &chaos {
        rows.push(vec![
            format!("chaos_drop{:.0}pct_dup{:.0}pct", row.drop_prob * 100.0, row.dup_prob * 100.0),
            format!("{:.1}", row.makespan_secs),
            format!("{:.1}", row.makespan_secs - base.makespan_secs),
            row.resubmissions.to_string(),
            row.duplicate_completions.to_string(),
        ]);
    }
    write_csv(
        "robust.csv",
        &table_to_csv(
            &["case", "makespan_secs", "delta_secs", "resubmissions", "duplicate_completions"],
            &rows,
        ),
    );
    RobustResult {
        baseline_secs: base.makespan_secs,
        nonblocking_secs: nonblocking.makespan_secs,
        blocking_secs: blocking.makespan_secs,
        outage_secs: outage,
        timeout_secs: timeout,
        resubmissions: (nonblocking.engine.resubmissions, blocking.engine.resubmissions),
        chaos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_shapes() {
        std::env::set_var("DEWE_RESULTS_DIR", std::env::temp_dir().join("dewe_rb"));
        let r = run_robust(Scale::Quick);
        // Non-blocking kill: grows by ~the outage (plus at most the
        // timeout tail of the killed short jobs), far less than a blocking
        // kill.
        let nb_delta = r.nonblocking_secs - r.baseline_secs;
        let b_delta = r.blocking_secs - r.baseline_secs;
        assert!(nb_delta >= 0.0);
        assert!(
            b_delta > nb_delta,
            "blocking kill must cost more: nb={nb_delta:.0} b={b_delta:.0}"
        );
        // Blocking kill cost is dominated by the timeout.
        assert!(
            b_delta > 0.5 * r.timeout_secs,
            "blocking delta {b_delta:.0} vs timeout {}",
            r.timeout_secs
        );
        // Both fault runs resubmitted something.
        assert!(r.resubmissions.0 > 0 && r.resubmissions.1 > 0);
        // Chaos columns: every injected run completed (asserted inside),
        // rates are ordered, and the 5% run shows observable fault noise.
        assert_eq!(r.chaos.len(), 2);
        for row in &r.chaos {
            assert!(row.makespan_secs >= r.baseline_secs - 1.0);
        }
        let heavy = &r.chaos[1];
        assert!(
            heavy.resubmissions + heavy.duplicate_completions > 0,
            "5% drop+dup must leave traces"
        );
    }
}
