//! Property-based tests of the concept-hierarchy invariants (Definition 1).

use dc_common::{DimensionId, Level, ValueId};
use dc_hierarchy::{ConceptHierarchy, HierarchySchema};
use proptest::prelude::*;

/// Strategy: a batch of (region, nation, customer) index paths.
fn paths() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..5, 0u8..6, 0u8..8), 1..120)
}

fn build(paths: &[(u8, u8, u8)]) -> (ConceptHierarchy, Vec<ValueId>) {
    let mut h = ConceptHierarchy::new(
        DimensionId(0),
        HierarchySchema::new("D", vec!["A".into(), "B".into(), "C".into()]),
    );
    let leaves = paths
        .iter()
        .map(|&(a, b, c)| {
            h.intern_path(&[
                format!("a{a}"),
                format!("a{a}b{b}"),
                format!("a{a}b{b}c{c}"),
            ])
            .unwrap()
        })
        .collect();
    (h, leaves)
}

proptest! {
    /// Interning is idempotent: same path → same ID, and re-interning never
    /// grows the hierarchy.
    #[test]
    fn intern_idempotent(ps in paths()) {
        let (mut h, leaves) = build(&ps);
        let size = h.num_values();
        for (p, expected) in ps.iter().zip(&leaves) {
            let again = h
                .intern_path(&[
                    format!("a{}", p.0),
                    format!("a{}b{}", p.0, p.1),
                    format!("a{}b{}c{}", p.0, p.1, p.2),
                ])
                .unwrap();
            prop_assert_eq!(again, *expected);
        }
        prop_assert_eq!(h.num_values(), size);
    }

    /// The partial order ⊑ is reflexive, antisymmetric in levels, and every
    /// value sits below ALL.
    #[test]
    fn partial_order_laws(ps in paths()) {
        let (h, leaves) = build(&ps);
        for &leaf in &leaves {
            prop_assert!(h.le(leaf, leaf).unwrap());
            prop_assert!(h.le(leaf, h.all()).unwrap());
            // Walking ancestors: leaf ⊑ every ancestor; ancestors not ⊑ leaf
            // unless equal.
            let mut cur = leaf;
            while let Some(parent) = h.parent(cur).unwrap() {
                prop_assert!(h.le(leaf, parent).unwrap());
                prop_assert!(!h.le(parent, leaf).unwrap());
                cur = parent;
            }
        }
    }

    /// `ancestor_at` agrees with iterated `parent`, level by level.
    #[test]
    fn ancestor_at_is_iterated_parent(ps in paths()) {
        let (h, leaves) = build(&ps);
        for &leaf in &leaves {
            let mut cur = leaf;
            for level in 0..=h.top_level() {
                prop_assert_eq!(h.ancestor_at(leaf, level).unwrap(), cur);
                if level < h.top_level() {
                    cur = h.parent(cur).unwrap().unwrap();
                }
            }
        }
    }

    /// Children partition each level: every non-root value appears in
    /// exactly its parent's child list, and per-level counts match.
    #[test]
    fn children_partition_levels(ps in paths()) {
        let (h, _) = build(&ps);
        for level in 0..h.top_level() {
            let mut from_parents = 0usize;
            for parent in h.values_at(level + 1) {
                for child in h.children(parent).unwrap() {
                    prop_assert_eq!(h.parent(child).unwrap(), Some(parent));
                    prop_assert_eq!(child.level(), level);
                    from_parents += 1;
                }
            }
            prop_assert_eq!(from_parents, h.num_values_at(level));
        }
    }

    /// The flat ancestor tables agree with the parent-pointer walk for
    /// *every* interned value and *every* requested level — including the
    /// error cases — after an arbitrary interleaving of interns. This pins
    /// the O(1) `ancestor_at` fast path to its original-walk oracle.
    #[test]
    fn ancestor_tables_match_walk(ps in paths(), extra in paths()) {
        // Interleave two batches so table rows are appended in a
        // non-monotone order across levels.
        let mut h = ConceptHierarchy::new(
            DimensionId(0),
            HierarchySchema::new("D", vec!["A".into(), "B".into(), "C".into()]),
        );
        let mut it1 = ps.iter();
        let mut it2 = extra.iter();
        loop {
            let a = it1.next();
            let b = it2.next();
            if a.is_none() && b.is_none() {
                break;
            }
            for &(a, b, c) in a.into_iter().chain(b) {
                h.intern_path(&[
                    format!("a{a}"),
                    format!("a{a}b{b}"),
                    format!("a{a}b{b}c{c}"),
                ])
                .unwrap();
            }
        }
        for level in 0..=h.top_level() {
            for v in h.values_at(level) {
                for target in 0..=(h.top_level() + 1) {
                    let fast = h.ancestor_at(v, target);
                    let walk = h.ancestor_at_walk(v, target);
                    match (fast, walk) {
                        (Ok(f), Ok(w)) => prop_assert_eq!(f, w),
                        (Err(_), Err(_)) => {}
                        (f, w) => prop_assert!(false, "fast={f:?} walk={w:?}"),
                    }
                }
            }
        }
    }

    /// `leaves_under(ALL)` enumerates every leaf exactly once, and
    /// `leaves_under(v)` are exactly the leaves whose ancestor is `v`.
    #[test]
    fn leaves_under_is_consistent(ps in paths(), probe_level in 0u8..3) {
        let (h, _) = build(&ps);
        let all_leaves = h.leaves_under(h.all()).unwrap();
        prop_assert_eq!(all_leaves.len(), h.num_values_at(0));
        let level: Level = probe_level;
        for v in h.values_at(level + 1).take(4) {
            let subtree = h.leaves_under(v).unwrap();
            for leaf in &all_leaves {
                let is_under = h.ancestor_at(*leaf, level + 1).unwrap() == v;
                prop_assert_eq!(subtree.contains(leaf), is_under);
            }
        }
    }
}
