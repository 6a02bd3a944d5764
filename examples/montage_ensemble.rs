//! Provision-then-execute: the paper's end-to-end story on the simulated
//! cloud.
//!
//! 1. Profile a Montage workflow on small clusters of each instance type
//!    (the paper's §IV.A campaign).
//! 2. Derive each type's converged node performance index and size a
//!    cluster for a 50-workflow ensemble under a deadline (Eq. 2).
//! 3. Execute the ensemble on the recommended cluster and check the
//!    deadline and cost predictions.
//!
//! ```text
//! cargo run --release --example montage_ensemble
//! ```

use std::sync::Arc;

use dewe::core::sim::{run_ensemble, SimRunConfig};
use dewe::montage::MontageConfig;
use dewe::provision::{recommend, ProfileConfig, Profiler};
use dewe::simcloud::{
    ClusterConfig, InstanceType, SharedFsKind, StorageConfig, C3_8XLARGE, I2_8XLARGE, R3_8XLARGE,
};

fn main() {
    // Keep the example fast: 2-degree mosaics (~1,000 jobs each).
    let degree = 2.0;
    let workflows = 50;
    let deadline_secs = 600.0;
    let template = Arc::new(MontageConfig::degree(degree).build());
    println!(
        "workload: {workflows} x {degree}-degree Montage ({} jobs each), deadline {deadline_secs} s",
        template.job_count()
    );

    // 1-2. Profile each type and derive its converged index.
    let config = ProfileConfig {
        single_node_max_workflows: 4,
        multi_node_workflows: 8,
        multi_node_range: (2, 5),
    };
    let types: [&'static InstanceType; 3] = [&C3_8XLARGE, &R3_8XLARGE, &I2_8XLARGE];
    let mut indexed = Vec::new();
    for t in types {
        let profile = Profiler::new(Arc::clone(&template), config.clone()).profile(t);
        println!("{:<12} converged node performance index {:.5}", t.name, profile.converged_index);
        indexed.push((t, profile.converged_index));
    }

    // 3. Recommend, cheapest-first.
    let plans = recommend(&indexed, workflows, deadline_secs);
    println!("\nrecommendations (cheapest first):");
    for p in &plans {
        println!(
            "  {:<12} x{:<3} predicted {:>5.0}s  ${:>7.2} total  (${:.3}/workflow)",
            p.instance, p.nodes, p.predicted_secs, p.predicted_cost, p.price_per_workflow
        );
    }
    let best = &plans[0];

    // 4. Execute on the winning design with a distributed FS (as the
    //    paper's large-scale runs do).
    let itype = *types.iter().find(|t| t.name == best.instance).expect("known type");
    let cluster = ClusterConfig {
        instance: *itype,
        nodes: best.nodes,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let wfs: Vec<_> = (0..workflows).map(|_| Arc::clone(&template)).collect();
    let report = run_ensemble(&wfs, &SimRunConfig::new(cluster));
    assert!(report.completed);
    println!(
        "\nexecuted on {} x{}: makespan {:.0}s (deadline {deadline_secs}s), cost ${:.2}",
        best.instance, best.nodes, report.makespan_secs, report.cost_usd
    );
    if report.makespan_secs <= deadline_secs {
        println!("deadline met — the profiling-based design holds.");
    } else {
        println!(
            "deadline exceeded by {:.0}s — profiling indexes were optimistic for this workload mix.",
            report.makespan_secs - deadline_secs
        );
    }
}
