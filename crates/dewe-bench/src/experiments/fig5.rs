//! Fig. 5: impact of workload and cluster size — (a) single-node scaling
//! in W, (b) multi-node scaling in N at fixed W, (c) node performance
//! index degradation and convergence.
//!
//! This is the paper's profiling campaign (§IV.A/B); the converged indexes
//! it produces feed Eq. 2 and Table III.

use dewe_metrics::csv::table_to_csv;
use dewe_provision::{ProfileConfig, ProfileResult, Profiler};
use dewe_simcloud::{InstanceType, C3_8XLARGE, I2_8XLARGE, R3_8XLARGE};

use crate::{write_csv, Scale};

/// Fig. 5 outputs: one profile per instance type.
pub struct Fig5Result {
    /// Profiling results in catalog order (c3, r3, i2).
    pub profiles: Vec<ProfileResult>,
}

impl Fig5Result {
    /// Converged node performance index by instance name.
    pub fn index(&self, name: &str) -> f64 {
        self.profiles.iter().find(|p| p.instance == name).expect("known type").converged_index
    }
}

/// Run the Fig. 5 reproduction.
pub fn run_fig5(scale: Scale) -> Fig5Result {
    println!("== Fig 5: workload & cluster-size scaling (profiling campaign) ==");
    let template = super::montage(scale);
    let config = ProfileConfig {
        single_node_max_workflows: scale.workflows(10),
        multi_node_workflows: scale.workflows(20),
        multi_node_range: (2, 6),
    };
    let types: [&'static InstanceType; 3] = [&C3_8XLARGE, &R3_8XLARGE, &I2_8XLARGE];
    let mut profiles = Vec::new();
    let mut rows_a = Vec::new();
    let mut rows_bc = Vec::new();
    for itype in types {
        let profiler = Profiler::new(std::sync::Arc::clone(&template), config.clone());
        let p = profiler.profile(itype);
        println!("-- {} --", itype.name);
        for &(w, t) in &p.single_node {
            println!("  (a) 1 node, W={w:<3} T={t:>7.0}s");
            rows_a.push(vec![itype.name.to_string(), w.to_string(), format!("{t:.1}")]);
        }
        for pt in &p.multi_node {
            println!(
                "  (b/c) N={:<2} W={:<3} T={:>7.0}s  P={:.5}",
                pt.nodes, pt.workflows, pt.secs, pt.p
            );
            rows_bc.push(vec![
                itype.name.to_string(),
                pt.nodes.to_string(),
                pt.workflows.to_string(),
                format!("{:.1}", pt.secs),
                format!("{:.6}", pt.p),
            ]);
        }
        println!("  converged index: {:.5}", p.converged_index);
        profiles.push(p);
    }
    write_csv("fig5a.csv", &table_to_csv(&["instance", "workflows", "secs"], &rows_a));
    write_csv(
        "fig5bc.csv",
        &table_to_csv(&["instance", "nodes", "workflows", "secs", "index"], &rows_bc),
    );
    Fig5Result { profiles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shapes() {
        std::env::set_var("DEWE_RESULTS_DIR", std::env::temp_dir().join("dewe_f5"));
        let r = run_fig5(Scale::Quick);
        for p in &r.profiles {
            // (a) time grows (roughly linearly) with workload.
            let first = p.single_node.first().unwrap().1;
            let last = p.single_node.last().unwrap().1;
            let w_ratio =
                p.single_node.last().unwrap().0 as f64 / p.single_node.first().unwrap().0 as f64;
            assert!(last > first, "{}: single-node time must grow", p.instance);
            let t_ratio = last / first;
            assert!(
                t_ratio > 0.5 * w_ratio && t_ratio < 1.8 * w_ratio,
                "{}: scaling far from linear: t x{t_ratio:.2} for w x{w_ratio:.2}",
                p.instance
            );
            // (b) more nodes -> faster (monotone non-increasing time).
            for w in p.multi_node.windows(2) {
                assert!(
                    w[1].secs <= w[0].secs * 1.02,
                    "{}: time increased with nodes: {:?}",
                    p.instance,
                    p.multi_node
                );
            }
            // (c) index decreases with cluster size and the asymptote is
            // at or below the last measurement.
            let first_p = p.multi_node.first().unwrap().p;
            let last_p = p.multi_node.last().unwrap().p;
            assert!(last_p <= first_p * 1.02, "{}: index must degrade", p.instance);
            assert!(p.converged_index <= last_p + 1e-9);
            assert!(p.converged_index > 0.0);
        }
    }
}
