//! Pins the simulated runtime's memory: heap bytes live at the peak of a
//! `run_ensemble` call, per job. The engine lanes, the trackers, the
//! deadline wheel, the driver's running lane and the storage read cache
//! are all sized by what is live, so the figure moves only when one of
//! them starts following history again. This is the batch half — every
//! workflow live at the peak; `sim_memory_staggered.rs` is the half where
//! most of them have settled.
//!
//! One test in its own binary, see `common`.

use std::sync::Arc;

use dewe::core::sim::{run_ensemble, SimRunConfig};
use dewe::montage::MontageConfig;
use dewe::simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

mod common;

#[global_allocator]
static GLOBAL: common::CountLive = common::CountLive;

/// 20 × Montage 6.0 (171,720 jobs) batch-submitted to 40 × c3.8xlarge on
/// the shared file system — `sim-paper` at a tenth of its size.
#[test]
fn peak_live_heap_per_job_stays_under_its_ceiling() {
    let wf = Arc::new(MontageConfig::degree(6.0).build());
    let workflows: Vec<_> = (0..20).map(|_| Arc::clone(&wf)).collect();
    let jobs: usize = workflows.iter().map(|w| w.job_count()).sum();
    let config = SimRunConfig::new(ClusterConfig {
        instance: C3_8XLARGE,
        nodes: 40,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    });

    let (peak, report) = common::peak_live_during(|| run_ensemble(&workflows, &config));
    assert!(report.completed);
    assert_eq!(report.engine.jobs_completed as usize, jobs);

    let per_job = peak as f64 / jobs as f64;
    eprintln!("peak live heap: {peak} B over {jobs} jobs = {per_job:.1} B/job");
    // 155.9 B/job when set (the count is exact and repeats), plus 10%. With
    // the driver's `running` lane sized for the ensemble (a7f8651): 159.3.
    // With the read cache's open-addressing table in place of its index
    // pages (a44a518): 172.1. With the generation/deque read cache, the
    // wheel that kept every bucket's high-water mark and the
    // `Option<DispatchMsg>` slab (a1beac3): 433.2.
    const CEILING: f64 = 171.5;
    assert!(per_job <= CEILING, "{per_job:.1} B/job of live heap at the peak (ceiling {CEILING})");
}
