//! Integration: the on-disk workflow format feeding the engines, and the
//! provisioning pipeline closing the loop against actual simulated runs.

use std::sync::Arc;

use dewe::core::sim::{run_ensemble, SimRunConfig};
use dewe::dag::{parse_workflow, write_workflow};
use dewe::montage::{LigoConfig, MontageConfig};
use dewe::provision::{recommend, required_nodes, ProfileConfig, Profiler};
use dewe::simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

/// A workflow serialized to the DAGMan-style text format, reparsed, and
/// executed must behave identically to the original.
#[test]
fn serialized_workflow_executes_identically() {
    let original = Arc::new(MontageConfig::degree(1.0).build());
    let text = write_workflow(&original);
    let reparsed = Arc::new(parse_workflow(&text).expect("roundtrip parse"));
    assert_eq!(original.job_count(), reparsed.job_count());

    let cluster =
        ClusterConfig { instance: C3_8XLARGE, nodes: 1, storage: StorageConfig::LocalDisk };
    let a = run_ensemble(&[original], &SimRunConfig::new(cluster));
    let b = run_ensemble(&[reparsed], &SimRunConfig::new(cluster));
    assert!(a.completed && b.completed);
    assert_eq!(a.makespan_secs, b.makespan_secs, "identical DAG => identical schedule");
    assert_eq!(a.total_bytes_written, b.total_bytes_written);
}

/// Workflow files survive a disk round trip (the shared-FS workflow folder
/// of the paper).
#[test]
fn workflow_file_on_disk() {
    let wf = LigoConfig::new(2, 4).build();
    let path = std::env::temp_dir().join(format!("dewe_wf_{}.dag", std::process::id()));
    std::fs::write(&path, write_workflow(&wf)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_workflow(&text).unwrap();
    assert_eq!(parsed.job_count(), wf.job_count());
    assert_eq!(parsed.edge_count(), wf.edge_count());
    let _ = std::fs::remove_file(&path);
}

/// The provisioning loop closes: profile on small clusters, size a cluster
/// with Eq. 2, run the target ensemble on the design, and the measured
/// time respects the deadline (within the safety the ceiling in Eq. 2
/// provides).
#[test]
fn provisioning_closes_the_loop() {
    let template = Arc::new(MontageConfig::degree(1.0).build());
    let profiler = Profiler::new(
        Arc::clone(&template),
        ProfileConfig {
            single_node_max_workflows: 2,
            multi_node_workflows: 8,
            multi_node_range: (2, 4),
        },
    );
    let profile = profiler.profile(&C3_8XLARGE);
    let index = profile.converged_index;
    assert!(index > 0.0);

    let workflows = 24;
    let deadline = 400.0;
    let nodes = required_nodes(workflows, index, deadline);
    assert!(nodes >= 1);

    let wfs: Vec<_> = (0..workflows).map(|_| Arc::clone(&template)).collect();
    let cluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let report = run_ensemble(&wfs, &SimRunConfig::new(cluster));
    assert!(report.completed);
    // The NFS-profiled index is conservative for a DistFs execution, so
    // the design must meet its deadline with margin.
    assert!(
        report.makespan_secs <= deadline * 1.1,
        "design missed deadline: {}s on {} nodes (deadline {deadline}s)",
        report.makespan_secs,
        nodes
    );
}

/// Recommendations are internally consistent: every plan meets the
/// deadline by construction and plans are sorted by predicted cost.
#[test]
fn recommendation_consistency() {
    let cands: Vec<(&'static dewe::simcloud::InstanceType, f64)> = vec![
        (&dewe::simcloud::C3_8XLARGE, 0.0015),
        (&dewe::simcloud::R3_8XLARGE, 0.0024),
        (&dewe::simcloud::I2_8XLARGE, 0.0026),
    ];
    let plans = recommend(&cands, 200, 3300.0);
    for plan in &plans {
        assert!(plan.predicted_secs <= 3300.0 + 1e-9);
        assert!(plan.predicted_cost > 0.0);
    }
    for w in plans.windows(2) {
        assert!(w[0].predicted_cost <= w[1].predicted_cost);
    }
}
