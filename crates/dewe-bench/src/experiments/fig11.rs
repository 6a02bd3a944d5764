//! Fig. 11: large-scale evaluation of the provisioning strategy — four
//! clusters (c3 x 40, r3 x 25, i2 x 23 designed by Eq. 2; plus
//! "i2.8xlarge B" x 10 as an undesigned comparison at roughly the same
//! hourly price), ensembles of 25..200 workflows.
//!
//! Shapes (paper §V.B):
//! * (a) execution time linear in W on every cluster; the three designed
//!   clusters finish W = 200 within the hour, i2.8xlarge B far exceeds it;
//! * (b) the node performance index grows toward the design index as the
//!   cluster fills; the small i2 B cluster shows the highest index;
//! * (c) under hourly billing the price per workflow falls with W for the
//!   designed clusters, and at W = 200 the designed clusters beat
//!   i2.8xlarge B.

use dewe_core::sim::{run_ensemble, SimRunConfig};
use dewe_metrics::csv::table_to_csv;
use dewe_simcloud::{
    ClusterConfig, CostModel, InstanceType, SharedFsKind, StorageConfig, C3_8XLARGE, I2_8XLARGE,
    R3_8XLARGE,
};

use crate::{write_csv, Scale};

/// One (cluster, workload) measurement.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// Cluster label (e.g. `i2.8xlarge B`).
    pub cluster: String,
    /// Node count.
    pub nodes: usize,
    /// Ensemble size.
    pub workflows: usize,
    /// Makespan, seconds.
    pub secs: f64,
    /// Node performance index `W/(N*T)`.
    pub index: f64,
    /// Price per workflow under hourly billing, USD.
    pub price_per_workflow: f64,
}

/// Fig. 11 outputs.
pub struct Fig11Result {
    /// All sweep points.
    pub points: Vec<Fig11Point>,
    /// Deadline used (seconds).
    pub deadline_secs: f64,
}

impl Fig11Result {
    /// Points of one cluster, in workload order.
    pub fn cluster(&self, label: &str) -> Vec<&Fig11Point> {
        self.points.iter().filter(|p| p.cluster == label).collect()
    }
}

/// Run the Fig. 11 reproduction.
pub fn run_fig11(scale: Scale) -> Fig11Result {
    // The paper designs for the largest ensemble within a one-hour bill;
    // quick scale shrinks both the mosaics and cluster/ensemble sizes.
    type Setup = (Vec<(&'static str, InstanceType, usize)>, Vec<usize>, f64);
    let (clusters, workloads, deadline): Setup = match scale {
        Scale::Full => (
            vec![
                ("c3.8xlarge", C3_8XLARGE, 40),
                ("r3.8xlarge", R3_8XLARGE, 25),
                ("i2.8xlarge", I2_8XLARGE, 23),
                ("i2.8xlarge B", I2_8XLARGE, 10),
            ],
            vec![25, 50, 100, 150, 200],
            3600.0,
        ),
        Scale::Quick => (
            vec![
                ("c3.8xlarge", C3_8XLARGE, 8),
                ("r3.8xlarge", R3_8XLARGE, 5),
                ("i2.8xlarge", I2_8XLARGE, 5),
                ("i2.8xlarge B", I2_8XLARGE, 2),
            ],
            vec![10, 20, 40],
            // Quick mosaics are ~9x smaller; a 10-minute "deadline"
            // separates the designed clusters (which meet it) from the
            // undersized i2 B cluster (which does not), preserving the
            // figure's point.
            600.0,
        ),
    };

    println!("== Fig 11: large-scale provisioning evaluation ==");
    // The sweep's (cluster x workload) cells are independent simulations;
    // run them on scoped threads and print in deterministic order after
    // the barrier (each cell is itself fully deterministic).
    let cells: Vec<(usize, &(&str, InstanceType, usize), usize)> = clusters
        .iter()
        .flat_map(|c| workloads.iter().map(move |&w| (0usize, c, w)))
        .enumerate()
        .map(|(i, (_, c, w))| (i, c, w))
        .collect();
    let mut cell_results: Vec<Option<Fig11Point>> = (0..cells.len()).map(|_| None).collect();
    let parallelism = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut cell_results);
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let (idx, (label, itype, nodes), w) = cells[i];
                let wfs = super::ensemble(scale, w);
                let cluster = ClusterConfig {
                    instance: *itype,
                    nodes: *nodes,
                    storage: StorageConfig::Shared(SharedFsKind::DistFs),
                };
                let report = run_ensemble(&wfs, &SimRunConfig::new(cluster));
                assert!(report.completed, "{label} W={w} starved");
                let index = w as f64 / (*nodes as f64 * report.makespan_secs);
                let price = CostModel::hourly(itype.price_per_hour).price_per_workflow(
                    *nodes,
                    report.makespan_secs,
                    w,
                );
                let point = Fig11Point {
                    cluster: label.to_string(),
                    nodes: *nodes,
                    workflows: w,
                    secs: report.makespan_secs,
                    index,
                    price_per_workflow: price,
                };
                results_mutex.lock().expect("no poisoning")[idx] = Some(point);
            });
        }
    });
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for p in cell_results.into_iter().map(|p| p.expect("cell computed")) {
        println!(
            "{:<13} W={:<4} T={:>7.0}s ({:>5.1} min)  P={:.5}  $/wf={:.3}",
            p.cluster,
            p.workflows,
            p.secs,
            p.secs / 60.0,
            p.index,
            p.price_per_workflow
        );
        rows.push(vec![
            p.cluster.clone(),
            p.nodes.to_string(),
            p.workflows.to_string(),
            format!("{:.1}", p.secs),
            format!("{:.6}", p.index),
            format!("{:.4}", p.price_per_workflow),
        ]);
        points.push(p);
    }
    write_csv(
        "fig11.csv",
        &table_to_csv(
            &["cluster", "nodes", "workflows", "secs", "index", "price_per_workflow"],
            &rows,
        ),
    );
    Fig11Result { points, deadline_secs: deadline }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shapes() {
        std::env::set_var("DEWE_RESULTS_DIR", std::env::temp_dir().join("dewe_f11"));
        let r = run_fig11(Scale::Quick);

        // (a) linear-ish growth in W on every cluster, and the designed
        // clusters meet the deadline at max W while i2 B blows through it.
        for label in ["c3.8xlarge", "r3.8xlarge", "i2.8xlarge", "i2.8xlarge B"] {
            let pts = r.cluster(label);
            for w in pts.windows(2) {
                assert!(w[1].secs > w[0].secs, "{label}: time must grow with W");
            }
        }
        let final_secs = |l: &str| r.cluster(l).last().unwrap().secs;
        for label in ["c3.8xlarge", "r3.8xlarge", "i2.8xlarge"] {
            assert!(
                final_secs(label) <= r.deadline_secs,
                "{label} misses the deadline: {}s",
                final_secs(label)
            );
        }
        assert!(
            final_secs("i2.8xlarge B") > r.deadline_secs,
            "i2 B should exceed the deadline: {}s vs {}s",
            final_secs("i2.8xlarge B"),
            r.deadline_secs
        );

        // (b) the small undesigned cluster has the highest index at max W.
        let idx = |l: &str| r.cluster(l).last().unwrap().index;
        assert!(idx("i2.8xlarge B") >= idx("i2.8xlarge"));

        // (c) price per workflow decreases with W for designed clusters
        // (same bill, more work).
        for label in ["c3.8xlarge", "r3.8xlarge"] {
            let pts = r.cluster(label);
            assert!(
                pts.last().unwrap().price_per_workflow < pts[0].price_per_workflow,
                "{label}: price per workflow should fall with W"
            );
        }
    }
}
