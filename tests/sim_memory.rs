//! Pins the simulated runtime's memory: heap bytes live at the peak of a
//! `run_ensemble` call, per job. The engine lanes, the deadline wheel, the
//! driver's slabs and the storage read cache are all sized by what is in
//! flight, so the figure moves only when one of them starts following
//! history again.
//!
//! One test in its own binary: the allocator counts every thread, and a
//! neighbouring test's allocations would land in the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dewe::core::sim::{run_ensemble, SimRunConfig};
use dewe::montage::MontageConfig;
use dewe::simcloud::{ClusterConfig, SharedFsKind, StorageConfig, C3_8XLARGE};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct CountLive;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the bookkeeping is two atomics and allocates nothing.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through the methods here, with
        // this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the net change: large blocks grow in place (`mremap`),
        // so old and new are not both resident.
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountLive = CountLive;

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

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_ensemble(&workflows, &config);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(report.completed);
    assert_eq!(report.engine.jobs_completed as usize, jobs);

    let per_job = peak as f64 / jobs as f64;
    eprintln!("peak live heap: {peak} B over {jobs} jobs = {per_job:.1} B/job");
    // 159.3 B/job when set (the count is exact and repeats), plus 10%. With
    // the read cache's open-addressing table in place of its index pages
    // (a44a518): 172.1. With the generation/deque read cache, the wheel that
    // kept every bucket's high-water mark and the `Option<DispatchMsg>` slab
    // (a1beac3): 433.2.
    const CEILING: f64 = 175.2;
    assert!(per_job <= CEILING, "{per_job:.1} B/job of live heap at the peak (ceiling {CEILING})");
}
