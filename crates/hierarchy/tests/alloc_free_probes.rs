//! Probing a concept hierarchy with an already-known path allocates
//! nothing: the dictionary is searched through a borrowed `&str` view, not
//! with a freshly built `String` per path element.

use std::sync::atomic::Ordering::Relaxed;

use dc_common::DimensionId;
use dc_hierarchy::{ConceptHierarchy, HierarchySchema};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::ALLOCS;

/// Heap acquisitions made while `f` runs; this file's one test is the
/// only code allocating meanwhile.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Relaxed);
    f();
    ALLOCS.load(Relaxed) - before
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
