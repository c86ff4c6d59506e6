//! Probing a concept hierarchy with an already-known path allocates
//! nothing: the dictionary is searched through a borrowed `&str` view, not
//! with a freshly built `String` per path element.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dc_common::DimensionId;
use dc_hierarchy::{ConceptHierarchy, HierarchySchema};

/// Counts the allocations of the thread that armed it.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals,
// so bumping them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_known_path_is_interned_and_looked_up_without_allocating() {
    let mut h = ConceptHierarchy::new(
        DimensionId(0),
        HierarchySchema::new(
            "Customer",
            vec!["Region".into(), "Nation".into(), "Customer".into()],
        ),
    );
    for (r, n, c) in [
        ("EUROPE", "GERMANY", "c1"),
        ("EUROPE", "FRANCE", "c2"),
        ("ASIA", "JAPAN", "c3"),
    ] {
        h.intern_path(&[r, n, c]).unwrap();
    }
    let path = ["EUROPE", "FRANCE", "c2"];
    let want = h.lookup_path(&path).unwrap();

    let mut interned = None;
    let mut looked_up = None;
    let n = allocations(|| {
        interned = Some(h.intern_path(&path).unwrap());
        looked_up = h.lookup_path(&path);
    });
    assert_eq!(n, 0, "probing a known path allocated {n} times");
    assert_eq!((interned, looked_up), (Some(want), Some(want)));

    // The counter does see allocations: a new leaf costs some.
    let n = allocations(|| {
        h.intern_path(&["ASIA", "JAPAN", "c4"]).unwrap();
    });
    assert!(n > 0);
    // And an unknown path is still a clean miss.
    assert_eq!(h.lookup_path(&["ASIA", "CHINA"]), None);
}
