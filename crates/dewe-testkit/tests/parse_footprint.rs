//! The heap a parse leaves behind, counted: how many times parsing a
//! Montage 6.0 text allocates, how many bytes the workflow holds once it is
//! parsed, and that dropping it gives them all back. A `Workflow` keeps its
//! names and I/O lists in a few flat arrays, so a parse allocates a number
//! of times that grows with the logarithm of the text, not with its jobs
//! and files; a `String` per name or a `Vec` per I/O list would show here
//! as tens of thousands of allocations.
//!
//! One test in its own binary: the allocator counts every thread, and a
//! neighbouring test's allocations would land in its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dewe_dag::{parse_workflow, write_workflow};
use dewe_montage::MontageConfig;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and the calls that allocate
/// (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the bookkeeping is two atomics and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Most allocations one parse may make, of either text below.
const MAX_ALLOCATIONS: usize = 256;
/// Most heap bytes a parsed Montage 6.0 workflow may hold.
const MAX_LIVE_BYTES: usize = 2_304 << 10;
/// Longest a release parse of the 200,000-job text may take.
const MAX_WIDE_PARSE: Duration = Duration::from_secs(2);

/// `text` parsed; the allocations the parse made, the heap bytes the
/// workflow holds, and how long the parse took. Panics if dropping the
/// workflow does not give back every byte it held.
fn parse_counted(text: &str, what: &str) -> (usize, usize, Duration) {
    let (live, calls) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let started = Instant::now();
    let wf = parse_workflow(text).unwrap_or_else(|e| panic!("{what} must parse: {e}"));
    let took = started.elapsed();
    let allocations = CALLS.load(Ordering::Relaxed) - calls;
    let held = LIVE.load(Ordering::Relaxed) - live;
    drop(wf);
    assert_eq!(LIVE.load(Ordering::Relaxed), live, "{what}: dropping the workflow leaks");
    (allocations, held, took)
}

#[test]
fn a_parse_allocates_a_handful_of_arrays() {
    let montage = write_workflow(&MontageConfig::degree(6.0).with_seed(42).build());
    let (allocations, held, took) = parse_counted(&montage, "Montage 6.0");
    println!("Montage 6.0: {allocations} allocations, {held} bytes held, parsed in {took:?}");
    assert!(allocations <= MAX_ALLOCATIONS, "Montage 6.0: {allocations} allocations");
    assert!(held <= MAX_LIVE_BYTES, "Montage 6.0 holds {held} bytes");

    // Every job its own transformation and its own output file: interning
    // 200,000 distinct names by scanning those seen would take ≈2·10¹⁰
    // compares.
    let jobs = 200_000;
    let mut wide = String::from("WORKFLOW wide\n");
    for i in 0..jobs {
        let _ = writeln!(wide, "FILE out_{i} 1");
    }
    for i in 0..jobs {
        let _ = writeln!(wide, "JOB job_{i} xform_{i} CPU 1");
    }
    for i in 0..jobs {
        let _ = writeln!(wide, "OUTPUT job_{i} out_{i}");
    }
    let (allocations, _, took) = parse_counted(&wide, "the 200,000-job text");
    println!("200,000 jobs: {allocations} allocations, parsed in {took:?}");
    assert!(allocations <= MAX_ALLOCATIONS, "200,000 jobs: {allocations} allocations");
    if !cfg!(debug_assertions) {
        assert!(took < MAX_WIDE_PARSE, "200,000 jobs parsed in {took:?}");
    }
}
