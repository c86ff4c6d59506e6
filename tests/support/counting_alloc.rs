//! The workspace's one counting `#[global_allocator]`: live heap bytes,
//! their high-water mark and the number of heap acquisitions, across every
//! thread. The memory tests here include it with `#[path =
//! "support/counting_alloc.rs"] mod counting_alloc;`, and so do the
//! hierarchy's allocation-free probe test and the query bench, by their
//! own relative paths. A test file including it holds one test, so no
//! other test's allocations land in its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since a test last stored into it.
#[allow(dead_code)]
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Heap acquisitions — allocations and reallocations — since the start.
#[allow(dead_code)]
pub static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts live heap bytes, their high-water mark and acquisitions.
struct CountingAlloc;

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics, so updating them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations pass
        // through unchanged.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        out
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
