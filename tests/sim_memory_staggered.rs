//! Pins what the simulated runtime holds for workflows that have settled:
//! nothing that grows with their number. Submitted one every 50 s, about
//! four Montage 6.0° workflows are live at a time; a settled one has handed
//! back its tracker lanes and its in-flight region, and the driver's
//! running lane never knew it.
//!
//! The comparison starts at 40 workflows because below that the peak is the
//! read cache filling up — it holds ≈ 37 workflows' files at capacity, and
//! its node slab doubles from 12.6 to 25.2 MB on the way (20 workflows:
//! 20.2 MB; 40: 34.5 MB). That is the simulated page cache doing its job,
//! not bookkeeping, and it is flat from there on.
//!
//! One test in its own binary, see `common`.

use std::sync::Arc;

use dewe::core::sim::{run_ensemble, SimRunConfig, SubmissionPlan};
use dewe::montage::MontageConfig;
use dewe::simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

mod common;

#[global_allocator]
static GLOBAL: common::CountLive = common::CountLive;

/// Peak live heap bytes of `count` × Montage 6.0 submitted every 50 s to
/// 40 × c3.8xlarge on the shared file system — `sim-staggered`, shorter.
fn staggered_peak(count: usize) -> (usize, usize) {
    let wf = Arc::new(MontageConfig::degree(6.0).build());
    let workflows: Vec<_> = (0..count).map(|_| Arc::clone(&wf)).collect();
    let jobs: usize = workflows.iter().map(|w| w.job_count()).sum();
    let mut config = SimRunConfig::new(ClusterConfig {
        instance: C3_8XLARGE,
        nodes: 40,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    });
    config.submission = SubmissionPlan::Interval(50.0);
    let (peak, report) = common::peak_live_during(|| run_ensemble(&workflows, &config));
    assert!(report.completed);
    assert_eq!(report.engine.jobs_completed as usize, jobs);
    (peak, jobs)
}

#[test]
fn peak_live_heap_does_not_grow_with_the_workflows_that_settled() {
    let (peak_40, jobs) = staggered_peak(40);
    let (peak_100, _) = staggered_peak(100);
    let per_job = peak_40 as f64 / jobs as f64;
    let growth = peak_100 as f64 / peak_40 as f64;
    eprintln!(
        "peak live heap: {peak_40} B at 40 workflows = {per_job:.1} B/job; \
         {peak_100} B at 100 = {growth:.3}x"
    );
    // 100.5 B/job when set (the count is exact and repeats), plus 10%. With
    // lanes that only grew, trackers kept whole and the driver's `running`
    // lane sized for the ensemble (a7f8651): 128.6.
    const CEILING: f64 = 110.6;
    assert!(per_job <= CEILING, "{per_job:.1} B/job of live heap at the peak (ceiling {CEILING})");
    // The property itself: sixty more workflows came and went and the peak
    // did not follow them. 1.018x when set; 1.291x at a7f8651, whose every
    // settled workflow left ≈ 24 B a job behind.
    assert!(growth <= 1.15, "peak live heap grew {growth:.3}x from 40 to 100 workflows");
}
