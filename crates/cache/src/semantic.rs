//! Semantic reuse: answering a range query from a cached MDS that is
//! *contained* by the query, plus a disjoint remainder that still descends
//! the tree.
//!
//! Containment here is Definition 4's sound direction — the same one the
//! DC-tree's materialized shortcut uses after the Fig. 7 erratum (see
//! DESIGN.md §5): `entry ⊑ query` means every leaf cell reachable under the
//! entry's MDS is selected by the query, so the entry's materialized
//! [`MeasureSummary`](dc_common::MeasureSummary) may be added wholesale.
//! The other direction (query ⊑ entry) would require *subtracting* the
//! unselected part of the entry, which is exactly the over-count the paper's
//! literal Fig. 7 commits; this module never uses it.
//!
//! # The remainder decomposition
//!
//! Let the query `Q` constrain dimension `i` at level `l_i^Q` and the cached
//! entry `E` at level `l_i^E ≤ l_i^Q` (containment guarantees the entry is
//! at-or-below the query's level in every dimension). Expanding each query
//! value down to `l_i^E` via
//! [`descendants_at`](dc_hierarchy::ConceptHierarchy::descendants_at) yields `D_i` with
//! `E_i ⊆ D_i`, and `Q` selects exactly the cells of `D_1 × … × D_d`
//! (ancestor composition: a record's ancestor at `l_i^Q` is in `Q_i` iff its
//! ancestor at `l_i^E` is in `D_i`). The classic box difference then splits
//! the uncovered part into `d` pairwise-disjoint MDSs:
//!
//! ```text
//! Q \ E  =  ⊎_{i=1..d}  E_1 × … × E_{i-1} × (D_i \ E_i) × D_{i+1} × … × D_d
//! ```
//!
//! so `summary(Q) = summary(E) + Σ_i summary(term_i)` — an *equality*, not a
//! bound, because the terms partition the uncovered cells. The property test
//! in `tests/proptests.rs` pins this against full descents.

use dc_common::{DcResult, DimensionId};
use dc_hierarchy::CubeSchema;
use dc_mds::{DimSet, Mds};

/// Computes the disjoint remainder MDSs of `query \ entry`.
///
/// Preconditions: `entry.contained_in(query)` holds (the caller checked) and
/// both cover the same dimensions. Returns `None` when expanding the query
/// down to the entry's levels would materialize more than `max_values`
/// attribute values in total — the gate that keeps semantic reuse from
/// costing more than the descent it saves. An empty vector means the entry
/// covers the query exactly (only the cached summary is needed).
pub fn remainder_terms(
    schema: &CubeSchema,
    query: &Mds,
    entry: &Mds,
    max_values: usize,
) -> DcResult<Option<Vec<Mds>>> {
    let d = query.num_dims();
    debug_assert_eq!(d, entry.num_dims(), "query/entry dimension mismatch");
    let mut budget = max_values;
    let mut expanded: Vec<DimSet> = Vec::with_capacity(d);
    for i in 0..d {
        let (q, e) = (query.dim(i), entry.dim(i));
        debug_assert!(
            e.level() <= q.level(),
            "containment puts the entry at-or-below the query level"
        );
        let set = if e.level() == q.level() {
            q.clone()
        } else {
            let h = schema.dim(DimensionId(i as u16));
            let mut values = Vec::new();
            for &v in q.values() {
                values.extend(h.descendants_at(v, e.level())?);
                if values.len() > budget {
                    return Ok(None);
                }
            }
            DimSet::new(e.level(), values)
        };
        if set.len() > budget {
            return Ok(None);
        }
        budget -= set.len();
        expanded.push(set);
    }
    let mut terms = Vec::new();
    for i in 0..d {
        let rest = expanded[i].difference(entry.dim(i));
        if rest.is_empty() {
            continue;
        }
        let dims = (0..d)
            .map(|j| {
                if j < i {
                    entry.dim(j).clone()
                } else if j == i {
                    rest.clone()
                } else {
                    expanded[j].clone()
                }
            })
            .collect();
        terms.push(Mds::new(dims));
    }
    Ok(Some(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;

    /// Two 2-level dimensions with a handful of values each.
    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new("X", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Y", vec!["Year".into(), "Month".into()]),
            ],
            "m",
        );
        for (r, n) in [("EU", "DE"), ("EU", "FR"), ("AS", "JP"), ("AS", "CN")] {
            for (y, mo) in [("1996", "Jan"), ("1996", "Feb"), ("1997", "Jan")] {
                s.intern_record(&[vec![r, n], vec![y, mo]], 0).unwrap();
            }
        }
        s
    }

    fn lookup(s: &CubeSchema, dim: u16, path: &[&str]) -> dc_common::ValueId {
        s.dim(DimensionId(dim)).lookup_path(path).unwrap()
    }

    #[test]
    fn exact_coverage_has_no_remainder() {
        let s = schema();
        let q = Mds::new(vec![
            DimSet::singleton(lookup(&s, 0, &["EU"])),
            DimSet::singleton(lookup(&s, 1, &["1996"])),
        ]);
        let terms = remainder_terms(&s, &q, &q, 1024).unwrap().unwrap();
        assert!(terms.is_empty());
    }

    #[test]
    fn finer_entry_leaves_disjoint_terms_partitioning_the_query() {
        let s = schema();
        // Query: all of EU × year 1996. Entry: {DE} × {1996-Jan, 1996-Feb}.
        let q = Mds::new(vec![
            DimSet::singleton(lookup(&s, 0, &["EU"])),
            DimSet::singleton(lookup(&s, 1, &["1996"])),
        ]);
        let e = Mds::new(vec![
            DimSet::singleton(lookup(&s, 0, &["EU", "DE"])),
            DimSet::new(
                0,
                vec![
                    lookup(&s, 1, &["1996", "Jan"]),
                    lookup(&s, 1, &["1996", "Feb"]),
                ],
            ),
        ]);
        assert!(e.contained_in(&q, &s).unwrap());
        let terms = remainder_terms(&s, &q, &e, 1024).unwrap().unwrap();
        // One term per dimension with something missing: {FR}×{Jan,Feb} and
        // {DE}×{} (empty, dropped) — dim 1 is fully covered by the entry.
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].dim(0).values(), &[lookup(&s, 0, &["EU", "FR"])]);
        assert_eq!(terms[0].dim(1).len(), 2);
        // Disjointness from the entry: no overlap in dimension 0.
        assert_eq!(terms[0].overlap(&e), 0);
    }

    #[test]
    fn expansion_budget_gates_reuse() {
        let s = schema();
        let q = Mds::new(vec![
            DimSet::singleton(s.dim(DimensionId(0)).all()),
            DimSet::singleton(s.dim(DimensionId(1)).all()),
        ]);
        let e = Mds::new(vec![
            DimSet::singleton(lookup(&s, 0, &["EU", "DE"])),
            DimSet::singleton(lookup(&s, 1, &["1996", "Jan"])),
        ]);
        assert!(e.contained_in(&q, &s).unwrap());
        assert!(remainder_terms(&s, &q, &e, 2).unwrap().is_none());
        assert!(remainder_terms(&s, &q, &e, 1024).unwrap().is_some());
    }
}
