//! Cross-crate integration on the simulated runtime: calibration
//! invariants at paper scale, cross-engine comparisons, determinism and
//! conservation laws.

use std::sync::Arc;

use dewe::baseline::{run_ensemble as run_baseline, BaselineConfig};
use dewe::core::sim::{run_ensemble, NodeFault, SimRunConfig, SubmissionPlan};
use dewe::montage::MontageConfig;
use dewe::simcloud::{
    ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE, I2_8XLARGE, R3_8XLARGE,
};

fn local(nodes: usize) -> ClusterConfig {
    ClusterConfig { instance: C3_8XLARGE, nodes, storage: StorageConfig::LocalDisk }
}

/// The paper's headline single-workflow calibration: a 6.0-degree Montage
/// on one c3.8xlarge takes ~600 s with DEWE v2 and roughly twice that with
/// the scheduling baseline (paper: 600 s vs 1240 s).
#[test]
fn six_degree_calibration_anchor() {
    let wf = Arc::new(MontageConfig::degree(6.0).build());
    let d = run_ensemble(&[Arc::clone(&wf)], &SimRunConfig::new(local(1)));
    assert!(d.completed);
    assert!(
        (500.0..750.0).contains(&d.makespan_secs),
        "DEWE 6-degree makespan {} out of calibration band",
        d.makespan_secs
    );
    let p = run_baseline(&[wf], &BaselineConfig::new(local(1)));
    assert!(p.completed);
    assert!(
        p.makespan_secs > 1.8 * d.makespan_secs,
        "baseline must be ~2x slower: {} vs {}",
        p.makespan_secs,
        d.makespan_secs
    );
    // The paper's data volumes: ~35 GB intermediates written per workflow.
    assert!(
        (30e9..45e9).contains(&d.total_bytes_written),
        "write volume {} GB",
        d.total_bytes_written / 1e9
    );
}

/// Work conservation: every job of every workflow is executed exactly once
/// (no faults), across engines and cluster shapes.
#[test]
fn work_conservation_across_engines() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let jobs = wf.job_count() as u64;
    for nodes in [1usize, 3] {
        let wfs: Vec<_> = (0..4).map(|_| Arc::clone(&wf)).collect();
        let cluster = ClusterConfig {
            instance: C3_8XLARGE,
            nodes,
            storage: StorageConfig::Shared(SharedFsKind::Nfs),
        };
        let d = run_ensemble(&wfs, &SimRunConfig::new(cluster));
        assert_eq!(d.engine.jobs_completed, 4 * jobs, "DEWE on {nodes} nodes");
        assert_eq!(d.engine.resubmissions, 0);
        let p = run_baseline(&wfs, &BaselineConfig::new(cluster));
        assert_eq!(p.jobs_executed, 4 * jobs, "baseline on {nodes} nodes");
    }
}

/// Identical configuration => bit-identical results, across engines.
#[test]
fn cross_engine_determinism() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let wfs: Vec<_> = (0..3).map(|_| Arc::clone(&wf)).collect();
    let cluster = ClusterConfig {
        instance: R3_8XLARGE,
        nodes: 2,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let d1 = run_ensemble(&wfs, &SimRunConfig::new(cluster));
    let d2 = run_ensemble(&wfs, &SimRunConfig::new(cluster));
    assert_eq!(d1.makespan_secs, d2.makespan_secs);
    assert_eq!(d1.total_bytes_read, d2.total_bytes_read);
    assert_eq!(d1.workflow_makespans, d2.workflow_makespans);
    let b1 = run_baseline(&wfs, &BaselineConfig::new(cluster));
    let b2 = run_baseline(&wfs, &BaselineConfig::new(cluster));
    assert_eq!(b1.makespan_secs, b2.makespan_secs);
}

/// Instance types differ only where the paper says they should: stage-3
/// I/O. The i2 cluster must never be slower than c3 on the same workload.
#[test]
fn disk_capability_ordering() {
    let wfs: Vec<_> = (0..6).map(|_| Arc::new(MontageConfig::degree(2.0).build())).collect();
    let mut times = Vec::new();
    for itype in [C3_8XLARGE, R3_8XLARGE, I2_8XLARGE] {
        let cluster =
            ClusterConfig { instance: itype, nodes: 1, storage: StorageConfig::LocalDisk };
        let r = run_ensemble(&wfs, &SimRunConfig::new(cluster));
        times.push(r.makespan_secs);
    }
    assert!(times[2] <= times[1] + 1.0, "i2 {} vs r3 {}", times[2], times[1]);
    assert!(times[1] <= times[0] + 1.0, "r3 {} vs c3 {}", times[1], times[0]);
}

/// Faults never lose work: with a kill+restart, everything still completes
/// and at least the in-flight jobs are re-executed.
#[test]
fn fault_injection_preserves_completion() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let mut cfg = SimRunConfig::new(local(2));
    cfg.engine.default_timeout_secs = 30.0;
    cfg.timeout_scan_secs = 1.0;
    cfg.faults = vec![
        NodeFault { node: 0, kill_at_secs: 3.0, restart_at_secs: Some(6.0) },
        NodeFault { node: 1, kill_at_secs: 40.0, restart_at_secs: Some(45.0) },
    ];
    let r = run_ensemble(&[Arc::clone(&wf)], &cfg);
    assert!(r.completed);
    assert_eq!(r.engine.jobs_completed, wf.job_count() as u64);
    assert!(r.engine.resubmissions > 0);
}

/// A permanently dead node (no restart) still leaves a live cluster able
/// to finish.
#[test]
fn permanent_node_loss_is_survivable() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let mut cfg = SimRunConfig::new(local(2));
    cfg.engine.default_timeout_secs = 20.0;
    cfg.timeout_scan_secs = 1.0;
    cfg.faults = vec![NodeFault { node: 1, kill_at_secs: 5.0, restart_at_secs: None }];
    let r = run_ensemble(&[wf], &cfg);
    assert!(r.completed, "surviving node must finish the ensemble");
}

/// Incremental submission preserves total work and per-workflow makespans
/// stay near the single-workflow baseline when intervals are wide.
#[test]
fn wide_intervals_isolate_workflows() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let solo = run_ensemble(&[Arc::clone(&wf)], &SimRunConfig::new(local(1)));
    let wfs: Vec<_> = (0..3).map(|_| Arc::clone(&wf)).collect();
    let mut cfg = SimRunConfig::new(local(1));
    // Interval far larger than the single-workflow makespan: no overlap.
    cfg.submission = SubmissionPlan::Interval(solo.makespan_secs * 2.0);
    let r = run_ensemble(&wfs, &cfg);
    assert!(r.completed);
    for &m in &r.workflow_makespans {
        assert!(
            (m - solo.makespan_secs).abs() / solo.makespan_secs < 0.05,
            "isolated workflow makespan {m} vs solo {}",
            solo.makespan_secs
        );
    }
}

/// Cost model integration: a sub-hour run on N nodes bills exactly N
/// node-hours.
#[test]
fn billing_integration() {
    let wf = Arc::new(MontageConfig::degree(1.0).build());
    let cluster = ClusterConfig {
        instance: I2_8XLARGE,
        nodes: 3,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let r = run_ensemble(&[wf], &SimRunConfig::new(cluster));
    assert!(r.makespan_secs < 3600.0);
    assert!((r.cost_usd - 3.0 * 6.82).abs() < 1e-9);
}

/// The model does not move: refactors of the engine, the timer and the
/// storage layer keep every simulated result bit-identical (DESIGN §4), and
/// this is where a commit that breaks the rule fails. The constants were
/// captured at a1beac3, before the read cache, the deadline wheel and the
/// driver's lanes were re-laid; a change that means to move the model
/// re-captures them and says so.
///
/// The 40-node rows are `sim-paper` / `sim-staggered` at the benchmark's
/// smoke size; at that size nothing is evicted and no deadline cascades, so
/// the 4-node rows (cache a tenth of the data, run three times the 600 s
/// timeout) pin eviction order and the wheel.
#[test]
fn simulated_results_are_pinned_bit_for_bit() {
    struct Pin {
        workflows: u64,
        nodes: usize,
        plan: SubmissionPlan,
        makespan: u64,
        read: u64,
        written: u64,
        hits: u64,
        misses: u64,
        dispatches: u64,
        cascades: u64,
    }
    #[rustfmt::skip]
    let pins = [
        Pin { workflows: 5, nodes: 40, plan: SubmissionPlan::Interval(0.0),
              makespan: 0x4074_0298_d152_6d8b, read: 0x4212_a03a_8100_0000, written: 0x4244_8fe7_4020_0000,
              hits: 121_500, misses: 7_220, dispatches: 42_930, cascades: 0 },
        Pin { workflows: 5, nodes: 40, plan: SubmissionPlan::Interval(50.0),
              makespan: 0x407e_d701_58fb_43d9, read: 0x4212_a03a_8100_0000, written: 0x4244_8fe7_4020_0000,
              hits: 121_500, misses: 7_220, dispatches: 42_930, cascades: 0 },
        Pin { workflows: 20, nodes: 4, plan: SubmissionPlan::Interval(0.0),
              makespan: 0x409d_1a76_05ab_3aac, read: 0x425e_a59c_8fa0_0000, written: 0x4264_8fe7_4020_0000,
              hits: 280_118, misses: 234_762, dispatches: 171_720, cascades: 208_854 },
        Pin { workflows: 20, nodes: 4, plan: SubmissionPlan::Interval(50.0),
              makespan: 0x409c_002d_4f9c_1f86, read: 0x4255_f2d9_3bd8_0000, written: 0x4264_8fe7_4020_0000,
              hits: 370_434, misses: 144_446, dispatches: 171_720, cascades: 185_714 },
    ];
    let wf = Arc::new(MontageConfig::degree(6.0).build());
    let lookups_per_workflow: u64 = wf.jobs().iter().map(|j| j.inputs.len() as u64).sum();
    for pin in pins {
        let wfs: Vec<_> = (0..pin.workflows).map(|_| Arc::clone(&wf)).collect();
        let mut cfg = SimRunConfig::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes: pin.nodes,
            storage: StorageConfig::Shared(SharedFsKind::DistFs),
        });
        cfg.submission = pin.plan;
        let r = run_ensemble(&wfs, &cfg);
        // No job ran twice, so every input was looked up once and the
        // report's by-count hit rate gives the counts back exactly.
        let lookups = pin.workflows * lookups_per_workflow;
        let hits = (r.cache_hit_rate * lookups as f64).round() as u64;
        let got = (
            r.makespan_secs.to_bits(),
            r.total_bytes_read.to_bits(),
            r.total_bytes_written.to_bits(),
            (hits, lookups - hits),
            r.engine.dispatches,
            r.wheel_cascades,
        );
        let want = (
            pin.makespan,
            pin.read,
            pin.written,
            (pin.hits, pin.misses),
            pin.dispatches,
            pin.cascades,
        );
        assert_eq!(
            got,
            want,
            "{} workflows on {} nodes, {:?}: {} s, {} B read, {} B written",
            pin.workflows,
            pin.nodes,
            pin.plan,
            r.makespan_secs,
            r.total_bytes_read,
            r.total_bytes_written
        );
    }
}
