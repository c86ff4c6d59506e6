//! Property-based tests of the MDS algebra (Definitions 3–4): the laws the
//! split and query algorithms silently rely on.

use dc_common::{Level, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use proptest::prelude::*;

/// A fixed schema with two 3-level dimensions, populated deterministically
/// so strategies can index into it.
fn schema() -> CubeSchema {
    let mut s = CubeSchema::new(
        vec![
            HierarchySchema::new("X", vec!["A".into(), "B".into(), "C".into()]),
            HierarchySchema::new("Y", vec!["P".into(), "Q".into()]),
        ],
        "m",
    );
    for a in 0..4 {
        for b in 0..3 {
            for c in 0..3 {
                s.intern_record(
                    &[
                        vec![
                            format!("a{a}"),
                            format!("a{a}b{b}"),
                            format!("a{a}b{b}c{c}"),
                        ],
                        vec![
                            format!("p{}", (a + b) % 3),
                            format!("p{}q{}", (a + b) % 3, c),
                        ],
                    ],
                    0,
                )
                .unwrap();
            }
        }
    }
    s
}

/// Strategy: a random MDS over the fixed schema — random level and a random
/// non-empty subset of that level's values, per dimension.
fn mds(schema: &CubeSchema) -> impl Strategy<Value = Mds> {
    let per_dim: Vec<_> = schema
        .dims()
        .map(|h| {
            let top = h.top_level();
            (0..=top as usize).prop_flat_map(move |level| {
                let level = level as Level;
                // Up to 23 picks: sets on both sides of `DimSet::INLINE`
                // where the level has that many values.
                (Just(level), prop::collection::btree_set(0u32..64, 1..24))
            })
        })
        .collect();
    let counts: Vec<Vec<usize>> = schema
        .dims()
        .map(|h| (0..=h.top_level()).map(|l| h.num_values_at(l)).collect())
        .collect();
    per_dim.prop_map(move |dims| {
        Mds::new(
            dims.into_iter()
                .enumerate()
                .map(|(d, (level, picks))| {
                    let count = counts[d][level as usize] as u32;
                    let values: Vec<ValueId> = picks
                        .into_iter()
                        .map(|p| ValueId::new(level, p % count))
                        .collect();
                    DimSet::new(level, values)
                })
                .collect(),
        )
    })
}

/// Strategy: a random record of the fixed schema.
fn record(schema: &CubeSchema) -> impl Strategy<Value = Record> {
    let leaf_counts: Vec<u32> = schema.dims().map(|h| h.num_values_at(0) as u32).collect();
    (0u32..1024, 0u32..1024).prop_map(move |(x, y)| {
        Record::new(
            vec![
                ValueId::new(0, x % leaf_counts[0]),
                ValueId::new(0, y % leaf_counts[1]),
            ],
            1,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The covering MDS contains both operands.
    #[test]
    fn cover_contains_operands(a in mds(&schema()), b in mds(&schema())) {
        let s = schema();
        let c = a.cover(&b, &s).unwrap();
        prop_assert!(a.contained_in(&c, &s).unwrap());
        prop_assert!(b.contained_in(&c, &s).unwrap());
    }

    /// overlap(M, N) ≤ min(volume(M'), volume(N')) after adaptation, and
    /// overlap ≤ extension.
    #[test]
    fn overlap_bounds(a in mds(&schema()), b in mds(&schema())) {
        let s = schema();
        let (x, y) = a.adapted_pair(&b, &s).unwrap();
        let o = x.overlap(&y);
        prop_assert!(o <= x.volume());
        prop_assert!(o <= y.volume());
        prop_assert!(o <= x.extension(&y));
    }

    /// Definition 4 symmetry: overlap and extension are commutative.
    #[test]
    fn overlap_extension_commute(a in mds(&schema()), b in mds(&schema())) {
        let s = schema();
        let (x, y) = a.adapted_pair(&b, &s).unwrap();
        prop_assert_eq!(x.overlap(&y), y.overlap(&x));
        prop_assert_eq!(x.extension(&y), y.extension(&x));
    }

    /// Containment is a partial order: reflexive; antisymmetric up to
    /// adaptation; transitive.
    #[test]
    fn containment_partial_order(
        a in mds(&schema()),
        b in mds(&schema()),
        c in mds(&schema()),
    ) {
        let s = schema();
        prop_assert!(a.contained_in(&a, &s).unwrap());
        if a.contained_in(&b, &s).unwrap() && b.contained_in(&c, &s).unwrap() {
            prop_assert!(a.contained_in(&c, &s).unwrap());
        }
    }

    /// Containment implies overlap (a contained MDS shares every cell).
    #[test]
    fn containment_implies_overlap(a in mds(&schema()), b in mds(&schema())) {
        let s = schema();
        if a.contained_in(&b, &s).unwrap() {
            prop_assert!(a.overlaps(&b, &s).unwrap());
        }
    }

    /// Adaptation to a higher level preserves containment and never grows
    /// the per-dimension set.
    #[test]
    fn adaptation_monotone(a in mds(&schema())) {
        let s = schema();
        let tops: Vec<u8> = s.dims().map(|h| h.top_level()).collect();
        let raised = a.adapt_to_levels(&s, &tops).unwrap();
        prop_assert!(a.contained_in(&raised, &s).unwrap());
        for (orig, up) in a.dims().zip(raised.dims()) {
            prop_assert!(up.len() <= orig.len());
        }
    }

    /// Record containment agrees between an MDS and its cover with anything.
    #[test]
    fn record_containment_respects_cover(
        a in mds(&schema()),
        b in mds(&schema()),
        r in record(&schema()),
    ) {
        let s = schema();
        if a.contains_record(&s, &r).unwrap() {
            let c = a.cover(&b, &s).unwrap();
            prop_assert!(c.contains_record(&s, &r).unwrap());
        }
    }

    /// `extend_to_cover_record` establishes `contains_record` and its
    /// reported enlargement matches `enlargement_for_record`.
    #[test]
    fn extension_establishes_containment(a in mds(&schema()), r in record(&schema())) {
        let s = schema();
        let predicted = a.enlargement_for_record(&s, &r).unwrap();
        let before = a.volume();
        let mut grown = a.clone();
        grown.extend_to_cover_record(&s, &r).unwrap();
        prop_assert!(grown.contains_record(&s, &r).unwrap());
        prop_assert_eq!(grown.volume() - before, predicted);
        // Growing is monotone: the original is contained in the grown MDS.
        prop_assert!(a.contained_in(&grown, &s).unwrap());
    }

    /// union_aligned is idempotent, commutative and associative on aligned
    /// operands (after adaptation).
    #[test]
    fn union_lattice_laws(a in mds(&schema()), b in mds(&schema()), c in mds(&schema())) {
        let s = schema();
        let (x, y) = a.adapted_pair(&b, &s).unwrap();
        prop_assert_eq!(x.union_aligned(&x), x.clone());
        prop_assert_eq!(x.union_aligned(&y), y.union_aligned(&x));
        let levels = x.levels();
        let z = c.adapt_to_levels(&s, &levels);
        if let Ok(z) = z {
            prop_assert_eq!(
                x.union_aligned(&y).union_aligned(&z),
                x.union_aligned(&y.union_aligned(&z))
            );
        }
    }
}
