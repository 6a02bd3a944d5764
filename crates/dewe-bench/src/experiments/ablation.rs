//! Ablations and extensions beyond the paper's figures.
//!
//! 1. **Parallel blocking jobs** (paper §III.D): DEWE v2 deliberately does
//!    not pin jobs to cores so OpenMP-style blocking jobs can use the
//!    whole node; quantify the speed-up as `mConcatFit`/`mBgModel` gain
//!    cores.
//! 2. **Baseline overhead decomposition**: how much of the DEWE-vs-Pegasus
//!    gap comes from each modeled cost (per-job overhead, negotiation
//!    latency, I/O amplification, concurrency cap, planning)?
//! 3. **Scheduling-policy ablation**: least-loaded vs round-robin vs
//!    random matchmaking in the baseline.
//! 4. **Dynamic provisioning** (paper §V.A.3 sketch): scale the cluster in
//!    during the blocking stage; compare hourly vs per-minute billing.
//! 5. **Heterogeneity stress** — the paper's thesis is that pulling wins
//!    *because* cloud nodes are homogeneous; this ablation deliberately
//!    violates that assumption (a grid-like mix of node speeds) and
//!    measures how much a speed-aware scheduler claws back.
//! 6. **Cost/deadline frontier** — billing-aware Eq. 2 sizing swept over
//!    deadlines (what-if analysis for campaign planning).

use std::sync::Arc;

use dewe_baseline::{run_ensemble as run_baseline, BaselineConfig, Policy};
use dewe_core::sim::{run_ensemble, SimRunConfig};
use dewe_metrics::csv::table_to_csv;
use dewe_montage::MontageConfig;
use dewe_provision::{compare_billing, cost_deadline_frontier, DynamicPlan, ScaleAction};
use dewe_simcloud::{ClusterConfig, StorageConfig, C3_8XLARGE};

use crate::{write_csv, Scale};

/// Ablation outputs.
pub struct AblationResult {
    /// (blocking job cores, makespan secs).
    pub blocking_cores: Vec<(u32, f64)>,
    /// (knob-removed label, makespan secs) for the baseline decomposition;
    /// first entry is the full baseline, last is all knobs off.
    pub baseline_decomposition: Vec<(String, f64)>,
    /// (policy label, makespan secs).
    pub policies: Vec<(String, f64)>,
    /// (hourly static, hourly dynamic, minute static, minute dynamic) USD.
    pub billing: (f64, f64, f64, f64),
    /// Heterogeneity stress: (scenario label, makespan secs).
    pub heterogeneity: Vec<(String, f64)>,
    /// Cost/deadline frontier points: (deadline secs, instance, nodes,
    /// predicted cost USD).
    pub frontier: Vec<(f64, String, usize, f64)>,
}

/// Run all ablations.
pub fn run_ablation(scale: Scale) -> AblationResult {
    let cluster =
        ClusterConfig { instance: C3_8XLARGE, nodes: 1, storage: StorageConfig::LocalDisk };

    // 1. Parallel blocking jobs.
    println!("== Ablation: OpenMP-style blocking jobs (cores for mConcatFit/mBgModel) ==");
    let mut blocking_cores = Vec::new();
    for cores in [1u32, 2, 4, 8, 16, 32] {
        let wf =
            Arc::new(MontageConfig::degree(scale.degree()).with_blocking_job_cores(cores).build());
        let report = run_ensemble(&[wf], &SimRunConfig::new(cluster));
        println!("  blocking cores {cores:>2}: makespan {:>6.0}s", report.makespan_secs);
        blocking_cores.push((cores, report.makespan_secs));
    }

    // 2. Baseline overhead decomposition: switch each cost off one at a
    //    time (cumulative, most-impactful semantics documented in output).
    println!("== Ablation: baseline overhead decomposition (1 workflow) ==");
    let wf = super::montage(scale);
    let mut baseline_decomposition = Vec::new();
    let mut cfg = BaselineConfig::new(cluster);
    let record = |label: &str, cfg: &BaselineConfig, out: &mut Vec<(String, f64)>| {
        let report = run_baseline(&[Arc::clone(&wf)], cfg);
        println!("  {label:<28} {:>6.0}s", report.makespan_secs);
        out.push((label.to_string(), report.makespan_secs));
    };
    record("full baseline", &cfg, &mut baseline_decomposition);
    cfg.planning_secs_per_workflow = 0.0;
    record("- planning", &cfg, &mut baseline_decomposition);
    cfg.per_job_overhead_secs = 0.0;
    record("- per-job overhead", &cfg, &mut baseline_decomposition);
    cfg.write_amplification = 1.0;
    cfg.read_amplification = 1.0;
    cfg.log_bytes_per_job = 0.0;
    record("- I/O amplification", &cfg, &mut baseline_decomposition);
    cfg.negotiation_interval_secs = 0.1;
    record("- negotiation latency", &cfg, &mut baseline_decomposition);
    cfg.slots_per_node = 32;
    record("- concurrency cap (= DEWE-ish)", &cfg, &mut baseline_decomposition);

    // 3. Scheduling policies at multi-node scale.
    println!("== Ablation: baseline matchmaking policies (4 nodes, 4 workflows) ==");
    let mcluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes: 4,
        storage: StorageConfig::Shared(dewe_simcloud::SharedFsKind::Nfs),
    };
    let mut policies = Vec::new();
    for (label, policy) in [
        ("least-loaded", Policy::LeastLoaded),
        ("round-robin", Policy::RoundRobin),
        ("random", Policy::Random),
    ] {
        let wfs = super::ensemble(scale, 4);
        let mut cfg = BaselineConfig::new(mcluster);
        cfg.policy = policy;
        let report = run_baseline(&wfs, &cfg);
        println!("  {label:<14} {:>6.0}s", report.makespan_secs);
        policies.push((label.to_string(), report.makespan_secs));
    }

    // 4. Dynamic provisioning billing analysis: a 4-node run that scales
    //    to 1 node during the blocking stage. Stage boundaries from the
    //    structure of a single-workflow run.
    println!("== Extension: dynamic provisioning under hourly vs per-minute billing ==");
    let single = run_ensemble(&[super::montage(scale)], &SimRunConfig::new(cluster));
    let t = single.makespan_secs;
    let static_plan = DynamicPlan::fixed(4, t);
    let dynamic_plan = DynamicPlan::new(
        vec![
            ScaleAction { at_secs: 0.0, nodes: 4 },
            ScaleAction { at_secs: t * 0.45, nodes: 1 }, // blocking stage
            ScaleAction { at_secs: t * 0.80, nodes: 4 }, // stage 3
        ],
        t,
    );
    let billing = compare_billing(&static_plan, &dynamic_plan, C3_8XLARGE.price_per_hour);
    println!(
        "  hourly: static ${:.2} vs dynamic ${:.2} | per-minute: static ${:.2} vs dynamic ${:.2}",
        billing.0, billing.1, billing.2, billing.3
    );

    // 5. Heterogeneity stress: a 4-node "grid" with speeds 0.4/0.7/1.0/1.6
    //    running 4 workflows. Pulling (speed-blind FCFS) vs a lean
    //    scheduling baseline with and without speed knowledge.
    println!("== Ablation: heterogeneous cluster (speeds 0.4/0.7/1.0/1.6) ==");
    let speeds = vec![0.4, 0.7, 1.0, 1.6];
    let hcluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes: 4,
        storage: StorageConfig::Shared(dewe_simcloud::SharedFsKind::DistFs),
    };
    let mut heterogeneity = Vec::new();
    {
        let wfs = super::ensemble(scale, 4);
        let mut cfg = SimRunConfig::new(hcluster);
        cfg.per_job_overhead_secs = 0.0;
        cfg.node_speed_factors = Some(speeds.clone());
        let r = run_ensemble(&wfs, &cfg);
        println!("  DEWE v2 (pull, speed-blind)   {:>6.0}s", r.makespan_secs);
        heterogeneity.push(("dewe_pull".to_string(), r.makespan_secs));
    }
    for (label, policy) in
        [("least-loaded", Policy::LeastLoaded), ("fastest-first", Policy::FastestFirst)]
    {
        let wfs = super::ensemble(scale, 4);
        // Lean baseline: no Pegasus overheads, so the comparison isolates
        // the *policy* value of speed awareness.
        let mut cfg = BaselineConfig::new(hcluster);
        cfg.per_job_overhead_secs = 0.0;
        cfg.write_amplification = 1.0;
        cfg.read_amplification = 1.0;
        cfg.log_bytes_per_job = 0.0;
        cfg.planning_secs_per_workflow = 0.0;
        cfg.negotiation_interval_secs = 0.5;
        cfg.slots_per_node = 32;
        cfg.policy = policy;
        cfg.node_speed_factors = Some(speeds.clone());
        let r = run_baseline(&wfs, &cfg);
        println!("  lean scheduler ({label:<13}) {:>6.0}s", r.makespan_secs);
        heterogeneity.push((format!("sched_{label}"), r.makespan_secs));
    }

    // 6. Cost/deadline frontier (billing-aware Eq. 2).
    println!("== Extension: cost/deadline frontier (W=200, paper indexes) ==");
    let deadlines: Vec<f64> = (1..=6).map(|k| k as f64 * 1800.0).collect();
    let frontier_points = cost_deadline_frontier(
        &[
            (&dewe_simcloud::C3_8XLARGE, 0.0015),
            (&dewe_simcloud::R3_8XLARGE, 0.0024),
            (&dewe_simcloud::I2_8XLARGE, 0.0026),
        ],
        200,
        &deadlines,
    );
    let mut frontier = Vec::new();
    for p in &frontier_points {
        println!(
            "  deadline {:>5.0}s -> {:<12} x{:<3} ${:>7.2}",
            p.deadline_secs, p.plan.instance, p.plan.nodes, p.plan.predicted_cost
        );
        frontier.push((
            p.deadline_secs,
            p.plan.instance.to_string(),
            p.plan.nodes,
            p.plan.predicted_cost,
        ));
    }

    let rows: Vec<Vec<String>> =
        blocking_cores.iter().map(|(c, s)| vec![c.to_string(), format!("{s:.1}")]).collect();
    write_csv("ablation_blocking_cores.csv", &table_to_csv(&["cores", "makespan_secs"], &rows));
    let rows: Vec<Vec<String>> =
        baseline_decomposition.iter().map(|(l, s)| vec![l.clone(), format!("{s:.1}")]).collect();
    write_csv("ablation_baseline.csv", &table_to_csv(&["config", "makespan_secs"], &rows));
    let rows: Vec<Vec<String>> =
        heterogeneity.iter().map(|(l, s)| vec![l.clone(), format!("{s:.1}")]).collect();
    write_csv("ablation_heterogeneity.csv", &table_to_csv(&["engine", "makespan_secs"], &rows));
    let rows: Vec<Vec<String>> = frontier
        .iter()
        .map(|(d, i, n, c)| vec![format!("{d:.0}"), i.clone(), n.to_string(), format!("{c:.2}")])
        .collect();
    write_csv(
        "ablation_frontier.csv",
        &table_to_csv(&["deadline_secs", "instance", "nodes", "cost_usd"], &rows),
    );

    AblationResult {
        blocking_cores,
        baseline_decomposition,
        policies,
        billing,
        heterogeneity,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes() {
        std::env::set_var("DEWE_RESULTS_DIR", std::env::temp_dir().join("dewe_ab"));
        let r = run_ablation(Scale::Quick);
        // More cores for blocking jobs -> shorter makespan, monotonically.
        for w in r.blocking_cores.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-6,
                "blocking-core speedup must be monotone: {:?}",
                r.blocking_cores
            );
        }
        assert!(
            r.blocking_cores.last().unwrap().1 < r.blocking_cores[0].1,
            "32-core blocking jobs must beat serial ones"
        );
        // Each removed baseline cost shortens (or keeps) the makespan.
        for w in r.baseline_decomposition.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.02,
                "removing overhead should not slow the baseline: {:?}",
                r.baseline_decomposition
            );
        }
        // Per-minute billing rewards the scale-in; hourly does not.
        let (h_s, h_d, m_s, m_d) = r.billing;
        assert!(m_d < m_s);
        assert!(h_d >= h_s - 1e-9);
        // All policies completed with sane times.
        assert_eq!(r.policies.len(), 3);
        // Heterogeneity: the speed-aware scheduler must not lose to the
        // speed-blind one, and the frontier is populated and nonincreasing.
        let get = |l: &str| r.heterogeneity.iter().find(|(k, _)| k == l).map(|(_, v)| *v).unwrap();
        assert!(get("sched_fastest-first") <= get("sched_least-loaded") * 1.02);
        assert_eq!(r.frontier.len(), 6);
        for w in r.frontier.windows(2) {
            assert!(w[1].3 <= w[0].3 + 1e-9, "frontier must be nonincreasing");
        }
    }
}
