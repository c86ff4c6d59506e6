//! One dimension's component of an MDS: a level and a sorted value set.

use dc_common::{DcResult, Level, ValueId};
use dc_hierarchy::{ConceptHierarchy, IdVec};

/// The entry `M_i = (d_i, l_i)` of an MDS (Definition 3): a set of attribute
/// values `d_i ⊆ D_i` that all belong to the relevant level `l_i` of the
/// dimension's concept hierarchy.
///
/// Values are kept sorted and deduplicated, so set operations run in linear
/// time and the on-disk encoding is canonical. Sets of up to
/// [`DimSet::INLINE`] values — nine in ten of a TPC-D tree's directory
/// sets — are held inline ([`IdVec`]), so a directory entry's MDS is the
/// entry itself rather than five heap fragments.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DimSet {
    level: Level,
    values: IdVec<{ DimSet::INLINE }>,
}

impl DimSet {
    /// Values stored without a heap allocation. Measured on directory
    /// entries of TPC-D trees (median set 5 values, 76 % ≤ 7, 90 % ≤ 15,
    /// max 62): with 7 inline a narrow query still ran 14 % slower on a
    /// tree grown in place than on its compacted copy, with 15 it runs
    /// within 3 %.
    pub const INLINE: usize = 15;

    /// Builds a dimension set from arbitrary values.
    ///
    /// # Panics
    /// Panics (debug and release) if any value is not on `level` — mixing
    /// levels inside one dimension set breaks every operation of
    /// Definition 4 ("the union of American customers and North America
    /// makes no sense").
    pub fn new(level: Level, mut values: Vec<ValueId>) -> Self {
        assert!(
            values.iter().all(|v| v.level() == level),
            "all values of a DimSet must sit on the relevant level {level}"
        );
        values.sort_unstable();
        values.dedup();
        DimSet {
            level,
            values: values.into(),
        }
    }

    /// Builds a dimension set from values already sorted and distinct, as a
    /// decoder produces them: copied in, inline up to [`Self::INLINE`],
    /// with no sort and no intermediate `Vec`.
    ///
    /// # Panics
    /// Panics unless the values are strictly increasing and all on `level`.
    pub fn from_sorted(level: Level, values: &[ValueId]) -> Self {
        assert!(
            values.iter().all(|v| v.level() == level) && values.windows(2).all(|w| w[0] < w[1]),
            "a DimSet's values are distinct, sorted and on its level {level}"
        );
        DimSet {
            level,
            values: values.into(),
        }
    }

    /// What an MDS's unused inline cells hold: no values, no allocation.
    pub(crate) fn blank() -> Self {
        DimSet {
            level: 0,
            values: [][..].into(),
        }
    }

    /// A singleton set.
    pub fn singleton(value: ValueId) -> Self {
        DimSet {
            level: value.level(),
            values: [value][..].into(),
        }
    }

    /// The relevant level `l_i`.
    #[inline]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The sorted attribute values `d_i`.
    #[inline]
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// `|d_i|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff the set is empty (only transiently possible, e.g. the
    /// intersection of disjoint sets).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains_value(&self, v: ValueId) -> bool {
        self.values.binary_search(&v).is_ok()
    }

    /// Inserts a value already on this set's level. Returns `true` if it was
    /// new.
    pub fn insert(&mut self, v: ValueId) -> bool {
        assert_eq!(
            v.level(),
            self.level,
            "inserted value must be on the relevant level"
        );
        match self.values.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.values.insert(pos, v);
                true
            }
        }
    }

    /// Adapts this set to a higher `level` of the hierarchy by replacing
    /// every value with its ancestor on `level` (the adaptation step of the
    /// split and range-query algorithms, Figs. 5 and 7).
    ///
    /// `level` must be ≥ the current level; adapting to the current level is
    /// a clone.
    pub fn adapt_to(&self, h: &ConceptHierarchy, level: Level) -> DcResult<DimSet> {
        if level == self.level {
            return Ok(self.clone());
        }
        let mut values = Vec::with_capacity(self.values.len());
        for &v in &self.values {
            values.push(h.ancestor_at(v, level)?);
        }
        values.sort_unstable();
        values.dedup();
        Ok(DimSet {
            level,
            values: values.into(),
        })
    }

    /// `|d_i ∩ e_i|` for two sets on the same level.
    pub fn intersection_len(&self, other: &DimSet) -> usize {
        debug_assert_eq!(
            self.level, other.level,
            "intersection requires equal levels"
        );
        sorted_intersection_len(&self.values, &other.values)
    }

    /// `|d_i ∪ e_i|` for two sets on the same level.
    pub fn union_len(&self, other: &DimSet) -> usize {
        debug_assert_eq!(self.level, other.level, "union requires equal levels");
        self.values.len() + other.values.len() - self.intersection_len(other)
    }

    /// Merges `other` (same level) into `self`.
    pub fn union_with(&mut self, other: &DimSet) {
        debug_assert_eq!(self.level, other.level, "union requires equal levels");
        let mut merged = Vec::with_capacity(self.values.len() + other.values.len());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            use std::cmp::Ordering::*;
            match self.values[i].cmp(&other.values[j]) {
                Less => {
                    merged.push(self.values[i]);
                    i += 1;
                }
                Greater => {
                    merged.push(other.values[j]);
                    j += 1;
                }
                Equal => {
                    merged.push(self.values[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.values[i..]);
        merged.extend_from_slice(&other.values[j..]);
        self.values = merged.into();
    }

    /// `d_i \ e_i` for two sets on the same level: the values of `self`
    /// absent from `other`. Linear merge over the sorted value vectors.
    pub fn difference(&self, other: &DimSet) -> DimSet {
        debug_assert_eq!(self.level, other.level, "difference requires equal levels");
        let mut values = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() {
            if j >= other.values.len() {
                values.extend_from_slice(&self.values[i..]);
                break;
            }
            use std::cmp::Ordering::*;
            match self.values[i].cmp(&other.values[j]) {
                Less => {
                    values.push(self.values[i]);
                    i += 1;
                }
                Greater => j += 1,
                Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        DimSet {
            level: self.level,
            values: values.into(),
        }
    }

    /// Subset test for two sets on the same level.
    pub fn is_subset_of(&self, other: &DimSet) -> bool {
        debug_assert_eq!(self.level, other.level, "subset requires equal levels");
        self.intersection_len(other) == self.values.len()
    }

    /// `true` iff every value of `self` has an ancestor-or-equal in `other`
    /// (the per-dimension containment of Definition 4: *other* contains
    /// *self* in this dimension). Handles differing levels: if `other` sits
    /// below `self`, no value of `self` can be dominated and the result is
    /// `false`.
    pub fn dominated_by(&self, other: &DimSet, h: &ConceptHierarchy) -> DcResult<bool> {
        if other.level < self.level {
            return Ok(false);
        }
        for &v in &self.values {
            let anc = h.ancestor_at(v, other.level)?;
            if !other.contains_value(anc) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` iff the two sets share at least one region of the hierarchy:
    /// the lower-level set is adapted up to the higher level, then the
    /// intersection is tested for non-emptiness (Fig. 7's comparability
    /// loop).
    pub fn overlaps(&self, other: &DimSet, h: &ConceptHierarchy) -> DcResult<bool> {
        let target = self.level.max(other.level);
        let a = self.adapt_to(h, target)?;
        let b = other.adapt_to(h, target)?;
        Ok(a.intersection_len(&b) > 0)
    }
}

fn sorted_intersection_len(a: &[ValueId], b: &[ValueId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        use std::cmp::Ordering::*;
        match a[i].cmp(&b[j]) {
            Less => i += 1,
            Greater => j += 1,
            Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::DimensionId;
    use dc_hierarchy::HierarchySchema;

    fn hierarchy() -> ConceptHierarchy {
        let mut h = ConceptHierarchy::new(
            DimensionId(0),
            HierarchySchema::new(
                "Customer",
                vec!["Region".into(), "Nation".into(), "CustomerId".into()],
            ),
        );
        for (r, n, c) in [
            ("Europe", "Germany", "c0"),
            ("Europe", "Germany", "c1"),
            ("Europe", "France", "c2"),
            ("Asia", "Japan", "c3"),
            ("Asia", "Japan", "c4"),
            ("Asia", "China", "c5"),
        ] {
            h.intern_path(&[r, n, c]).unwrap();
        }
        h
    }

    fn leaf(h: &ConceptHierarchy, c: &str) -> ValueId {
        h.values_at(0).find(|&v| h.name(v).unwrap() == c).unwrap()
    }

    fn nation(h: &ConceptHierarchy, n: &str) -> ValueId {
        h.values_at(1).find(|&v| h.name(v).unwrap() == n).unwrap()
    }

    #[test]
    fn new_sorts_and_dedups() {
        let h = hierarchy();
        let c1 = leaf(&h, "c1");
        let c0 = leaf(&h, "c0");
        let s = DimSet::new(0, vec![c1, c0, c1]);
        assert_eq!(s.values(), &[c0, c1]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "relevant level")]
    fn mixed_levels_panic() {
        let h = hierarchy();
        let _ = DimSet::new(0, vec![leaf(&h, "c0"), nation(&h, "Germany")]);
    }

    #[test]
    fn adapt_to_promotes_and_dedups() {
        let h = hierarchy();
        let s = DimSet::new(0, vec![leaf(&h, "c0"), leaf(&h, "c1"), leaf(&h, "c2")]);
        let nations = s.adapt_to(&h, 1).unwrap();
        assert_eq!(nations.len(), 2); // Germany, France
        let regions = s.adapt_to(&h, 2).unwrap();
        assert_eq!(regions.len(), 1); // Europe
        let all = s.adapt_to(&h, 3).unwrap();
        assert_eq!(all.values(), &[h.all()]);
    }

    #[test]
    fn set_operations_on_same_level() {
        let h = hierarchy();
        let (c0, c1, c2) = (leaf(&h, "c0"), leaf(&h, "c1"), leaf(&h, "c2"));
        let a = DimSet::new(0, vec![c0, c1]);
        let b = DimSet::new(0, vec![c1, c2]);
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.union_len(&b), 3);
        assert!(!a.is_subset_of(&b));
        assert!(DimSet::new(0, vec![c1]).is_subset_of(&a));
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.values(), &[c0, c1, c2]);
    }

    #[test]
    fn dominated_by_follows_partial_order() {
        let h = hierarchy();
        let leaves = DimSet::new(0, vec![leaf(&h, "c0"), leaf(&h, "c2")]);
        let nations = DimSet::new(1, vec![nation(&h, "Germany"), nation(&h, "France")]);
        // Every leaf is under one of the nations.
        assert!(leaves.dominated_by(&nations, &h).unwrap());
        // Nations are not dominated by leaf-level sets (coarser side).
        assert!(!nations.dominated_by(&leaves, &h).unwrap());
        // A leaf outside the nations is not dominated.
        let outsider = DimSet::new(0, vec![leaf(&h, "c3")]);
        assert!(!outsider.dominated_by(&nations, &h).unwrap());
        // Same-level domination degenerates to subset.
        let g = DimSet::new(1, vec![nation(&h, "Germany")]);
        assert!(g.dominated_by(&nations, &h).unwrap());
    }

    #[test]
    fn overlaps_adapts_lower_to_higher() {
        let h = hierarchy();
        let leaves = DimSet::new(0, vec![leaf(&h, "c3")]); // Japan
        let germany = DimSet::new(1, vec![nation(&h, "Germany")]);
        let japan = DimSet::new(1, vec![nation(&h, "Japan")]);
        assert!(!leaves.overlaps(&germany, &h).unwrap());
        assert!(leaves.overlaps(&japan, &h).unwrap());
        // Symmetric.
        assert!(japan.overlaps(&leaves, &h).unwrap());
    }

    #[test]
    fn difference_is_sorted_complement() {
        let h = hierarchy();
        let (c0, c1, c2) = (leaf(&h, "c0"), leaf(&h, "c1"), leaf(&h, "c2"));
        let a = DimSet::new(0, vec![c0, c1, c2]);
        let b = DimSet::new(0, vec![c1]);
        assert_eq!(a.difference(&b).values(), &[c0, c2]);
        assert!(b.difference(&a).is_empty());
        assert_eq!(a.difference(&a).len(), 0);
        let empty = a.difference(&a);
        assert_eq!(a.difference(&empty).values(), a.values());
    }

    #[test]
    fn sets_behave_alike_on_both_sides_of_the_inline_capacity() {
        let ids = |r: std::ops::Range<u32>| r.map(|i| ValueId::new(0, i)).collect::<Vec<_>>();
        let n = DimSet::INLINE as u32 + 5;
        // Grown one insert at a time, out of order, through the boundary.
        let mut grown = DimSet::new(0, vec![]);
        for i in (0..n).rev() {
            assert!(grown.insert(ValueId::new(0, i)));
            assert!(!grown.insert(ValueId::new(0, i)));
        }
        let built = DimSet::new(0, ids(0..n));
        assert_eq!(grown, built);
        assert_eq!(grown.values(), &ids(0..n)[..]);
        // Set algebra between an inline and a spilled operand.
        let small = DimSet::new(0, ids(4..9));
        assert!(small.len() <= DimSet::INLINE && built.len() > DimSet::INLINE);
        assert_eq!(small.intersection_len(&built), 5);
        assert!(small.is_subset_of(&built));
        assert_eq!(
            built.difference(&small).values(),
            &[ids(0..4), ids(9..n)].concat()[..]
        );
        let mut union = small;
        union.union_with(&DimSet::new(0, ids(7..n)));
        assert_eq!(union.values(), &ids(4..n)[..]);
        assert_eq!(union.clone(), union);
    }

    #[test]
    fn insert_keeps_order() {
        let h = hierarchy();
        let mut s = DimSet::new(0, vec![leaf(&h, "c2")]);
        assert!(s.insert(leaf(&h, "c0")));
        assert!(!s.insert(leaf(&h, "c0")));
        assert_eq!(s.values(), &[leaf(&h, "c0"), leaf(&h, "c2")]);
    }
}
