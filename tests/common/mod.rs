//! The counting allocator behind the memory pins (`sim_memory*.rs`) and
//! the allocation pin (`worker_link_allocations.rs`). Each of them is one
//! test in its own binary: the allocator counts every thread, and a
//! neighbouring test's allocations would land in its count.
#![allow(dead_code)] // Each pin reads one of the two counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes, their high-water mark, and
/// the calls that allocate (`alloc`, `alloc_zeroed`, `realloc`).
pub struct CountLive;

fn grew(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
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
            CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f`; returns the most heap bytes live at once during the call,
/// above what was live when it began, and `f`'s result.
pub fn peak_live_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - before, result)
}

/// Run `f`; returns how many times any thread allocated during the call,
/// and `f`'s result.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = CALLS.load(Ordering::Relaxed);
    let result = f();
    (CALLS.load(Ordering::Relaxed) - before, result)
}
