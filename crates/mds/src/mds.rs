//! The MDS proper: a sequence of per-dimension sets, plus Definition 4's
//! algebra and the adaptation rules shared by the split and query paths.

use std::ops::{Deref, DerefMut};

use dc_common::{DcResult, Level};
use dc_hierarchy::{CubeSchema, Dims, Record};

use crate::dimset::DimSet;

/// A minimum describing sequence `(M_1, …, M_d)` (Definition 3).
///
/// Invariants (enforced by constructors, checked by the DC-tree's invariant
/// checker):
/// * one [`DimSet`] per cube dimension, in dimension order;
/// * within a dimension all values are on the set's relevant level;
/// * sets are sorted and deduplicated.
///
/// The sets of a cube of up to [`Dims::INLINE`] dimensions are held inside
/// the value (and each set holds its values inline up to
/// [`DimSet::INLINE`]), so a directory node's entries are one contiguous
/// run a query walks front to back, as in the paper's disk block — not a
/// pointer per entry to a pointer per dimension.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Mds {
    dims: DimSets,
}

/// The per-dimension sets of one MDS; a slice of [`DimSet`]s to everything
/// but its storage.
// The large variant is the point: the sets live in the value.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum DimSets {
    Inline {
        len: u8,
        sets: [DimSet; Dims::INLINE],
    },
    Spilled(Box<[DimSet]>),
}

impl Deref for DimSets {
    type Target = [DimSet];

    #[inline]
    fn deref(&self) -> &[DimSet] {
        match self {
            DimSets::Inline { len, sets } => &sets[..usize::from(*len)],
            DimSets::Spilled(sets) => sets,
        }
    }
}

impl DerefMut for DimSets {
    #[inline]
    fn deref_mut(&mut self) -> &mut [DimSet] {
        match self {
            DimSets::Inline { len, sets } => &mut sets[..usize::from(*len)],
            DimSets::Spilled(sets) => sets,
        }
    }
}

impl FromIterator<DimSet> for DimSets {
    fn from_iter<I: IntoIterator<Item = DimSet>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut sets: [DimSet; Dims::INLINE] = std::array::from_fn(|_| DimSet::blank());
        let mut len = 0;
        while let Some(set) = iter.next() {
            if len == sets.len() {
                let mut spilled = Vec::from(sets);
                spilled.push(set);
                spilled.extend(iter);
                return DimSets::Spilled(spilled.into_boxed_slice());
            }
            sets[len] = set;
            len += 1;
        }
        DimSets::Inline {
            len: len as u8,
            sets,
        }
    }
}

impl PartialEq for DimSets {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for DimSets {}

impl std::hash::Hash for DimSets {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for DimSets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An MDS of the sets in order, one per cube dimension.
impl FromIterator<DimSet> for Mds {
    fn from_iter<I: IntoIterator<Item = DimSet>>(sets: I) -> Self {
        Mds {
            dims: sets.into_iter().collect(),
        }
    }
}

impl Mds {
    /// Builds an MDS from per-dimension sets (one per cube dimension).
    pub fn new(dims: Vec<DimSet>) -> Self {
        Mds {
            dims: dims.into_iter().collect(),
        }
    }

    /// The initial MDS of a fresh DC-tree: `(ALL, …, ALL)` — "the relevant
    /// level is initialized to the top level for each dimension" (§3.2).
    pub fn all(schema: &CubeSchema) -> Self {
        Mds {
            dims: schema.dims().map(|h| DimSet::singleton(h.all())).collect(),
        }
    }

    /// The point MDS of a single data record: singleton leaf-level sets.
    pub fn from_record(record: &Record) -> Self {
        Mds {
            dims: record.dims.iter().map(|&v| DimSet::singleton(v)).collect(),
        }
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// One dimension's component.
    #[inline]
    pub fn dim(&self, i: usize) -> &DimSet {
        &self.dims[i]
    }

    /// Mutable access used by the insert path when widening coverage.
    #[inline]
    pub fn dim_mut(&mut self, i: usize) -> &mut DimSet {
        &mut self.dims[i]
    }

    /// Iterates the per-dimension components.
    pub fn dims(&self) -> impl Iterator<Item = &DimSet> {
        self.dims.iter()
    }

    /// The relevant levels `(l_1, …, l_d)`.
    pub fn levels(&self) -> Vec<Level> {
        self.dims.iter().map(DimSet::level).collect()
    }

    /// `size(M) = Σ_i |M_i|` (Definition 4) — proportional to the MDS's
    /// storage footprint.
    pub fn size(&self) -> usize {
        self.dims.iter().map(DimSet::len).sum()
    }

    /// `volume(M) = Π_i |M_i|` (Definition 4). Saturating `u128`.
    pub fn volume(&self) -> u128 {
        self.dims
            .iter()
            .fold(1u128, |acc, d| acc.saturating_mul(d.len() as u128))
    }

    /// `overlap(M, N) = Π_i |M_i ∩ N_i|` (Definition 4).
    ///
    /// Both operands must be *comparable*: equal relevant levels in every
    /// dimension. The split path guarantees this by adapting entries to the
    /// node MDS first; use [`Mds::adapted_pair`] otherwise.
    pub fn overlap(&self, other: &Mds) -> u128 {
        self.dims
            .iter()
            .zip(other.dims.iter())
            .fold(1u128, |acc, (a, b)| {
                acc.saturating_mul(a.intersection_len(b) as u128)
            })
    }

    /// `extension(M, N) = Π_i |M_i ∪ N_i|` (Definition 4). Same
    /// comparability requirement as [`Mds::overlap`].
    pub fn extension(&self, other: &Mds) -> u128 {
        self.dims
            .iter()
            .zip(other.dims.iter())
            .fold(1u128, |acc, (a, b)| {
                acc.saturating_mul(a.union_len(b) as u128)
            })
    }

    /// Adapts this MDS to the given target levels (all ≥ current levels).
    pub fn adapt_to_levels(&self, schema: &CubeSchema, levels: &[Level]) -> DcResult<Mds> {
        debug_assert_eq!(levels.len(), self.dims.len());
        let dims = self
            .dims
            .iter()
            .zip(schema.dims())
            .zip(levels)
            .map(|((d, h), &lvl)| d.adapt_to(h, lvl))
            .collect::<DcResult<_>>()?;
        Ok(Mds { dims })
    }

    /// Makes two MDSs comparable by adapting, per dimension, the lower-level
    /// side up to the higher level — the for-loop at the top of the
    /// range-query algorithm (Fig. 7), where "we do not know which of the two
    /// MDSs contains the higher level attribute values".
    pub fn adapted_pair(&self, other: &Mds, schema: &CubeSchema) -> DcResult<(Mds, Mds)> {
        let levels: Vec<Level> = self
            .dims
            .iter()
            .zip(other.dims.iter())
            .map(|(a, b)| a.level().max(b.level()))
            .collect();
        Ok((
            self.adapt_to_levels(schema, &levels)?,
            other.adapt_to_levels(schema, &levels)?,
        ))
    }

    /// Containment in the sense of Definition 4: `other` contains `self`
    /// iff for each dimension, every value of `self` has an ancestor-or-equal
    /// among `other`'s values.
    ///
    /// This is the *sound* direction used by the range query's materialized
    /// shortcut: when it returns `true`, every leaf cell reachable under
    /// `self` is selected by `other`.
    pub fn contained_in(&self, other: &Mds, schema: &CubeSchema) -> DcResult<bool> {
        for ((a, b), h) in self.dims.iter().zip(other.dims.iter()).zip(schema.dims()) {
            if !a.dominated_by(b, h)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` iff the two MDSs overlap in every dimension after adaptation.
    /// Used to prune irrelevant directory entries (Fig. 7).
    pub fn overlaps(&self, other: &Mds, schema: &CubeSchema) -> DcResult<bool> {
        for ((a, b), h) in self.dims.iter().zip(other.dims.iter()).zip(schema.dims()) {
            if !a.overlaps(b, h)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The union of two *comparable* MDSs (equal relevant levels in every
    /// dimension): per-dimension set union. This is the covering MDS in the
    /// common case where both operands were already adapted — the hierarchy
    /// split works exclusively on such aligned operands.
    pub fn union_aligned(&self, other: &Mds) -> Mds {
        debug_assert_eq!(
            self.levels(),
            other.levels(),
            "union_aligned requires equal levels"
        );
        let mut out = self.clone();
        for (da, db) in out.dims.iter_mut().zip(other.dims.iter()) {
            da.union_with(db);
        }
        out
    }

    /// The covering MDS of two operands: per dimension, both sides adapted
    /// to the higher of the two levels, then united. Used for seed selection
    /// in the hierarchy split (Fig. 6: "Compute the covering MDS for each
    /// pair of MDSs") and to recompute node MDSs.
    pub fn cover(&self, other: &Mds, schema: &CubeSchema) -> DcResult<Mds> {
        let (mut a, b) = self.adapted_pair(other, schema)?;
        for (da, db) in a.dims.iter_mut().zip(b.dims.iter()) {
            da.union_with(db);
        }
        Ok(a)
    }

    /// `true` iff the record's leaf values are covered: each leaf's ancestor
    /// on the relevant level is in the dimension set.
    pub fn contains_record(&self, schema: &CubeSchema, record: &Record) -> DcResult<bool> {
        for ((d, h), &leaf) in self.dims.iter().zip(schema.dims()).zip(&record.dims) {
            let anc = h.ancestor_at(leaf, d.level())?;
            if !d.contains_value(anc) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Widens this MDS (in place) to cover `record`, keeping the relevant
    /// levels. Returns the number of dimensions in which a value was added —
    /// 0 means the record was already covered.
    pub fn extend_to_cover_record(
        &mut self,
        schema: &CubeSchema,
        record: &Record,
    ) -> DcResult<usize> {
        let mut added = 0;
        for ((d, h), &leaf) in self.dims.iter_mut().zip(schema.dims()).zip(&record.dims) {
            let anc = h.ancestor_at(leaf, d.level())?;
            if d.insert(anc) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// The volume enlargement caused by covering `record`: the volume of
    /// this MDS after extension minus before. Drives choose-subtree.
    pub fn enlargement_for_record(&self, schema: &CubeSchema, record: &Record) -> DcResult<u128> {
        let before = self.volume();
        let mut after = 1u128;
        for ((d, h), &leaf) in self.dims.iter().zip(schema.dims()).zip(&record.dims) {
            let anc = h.ancestor_at(leaf, d.level())?;
            let len = d.len() as u128 + u128::from(!d.contains_value(anc));
            after = after.saturating_mul(len);
        }
        Ok(after - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::{DimensionId, ValueId};
    use dc_hierarchy::HierarchySchema;

    /// The paper's running example (§3.2): dimensions Customer, Supplier,
    /// Time with one measure.
    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Supplier", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        // Interning happens through records.
        for (c, sup, t) in [
            (
                ("Europe", "Germany"),
                ("North America", "USA"),
                ("1996", "01"),
            ),
            (
                ("Europe", "France"),
                ("North America", "USA"),
                ("1997", "02"),
            ),
            (
                ("Europe", "Netherlands"),
                ("North America", "Canada"),
                ("1996", "05"),
            ),
            (("Europe", "Switzerland"), ("Asia", "Japan"), ("1998", "07")),
        ] {
            s.intern_record(&[vec![c.0, c.1], vec![sup.0, sup.1], vec![t.0, t.1]], 100)
                .unwrap();
        }
        s
    }

    // In this schema Nation/Month are the leaves (level 0) and
    // Region/Year sit on level 1; ALL is level 2.
    fn nation(s: &CubeSchema, dim: u16, name: &str) -> ValueId {
        let h = s.dim(DimensionId(dim));
        h.values_at(0)
            .find(|&v| h.name(v).unwrap() == name)
            .unwrap()
    }

    fn region(s: &CubeSchema, dim: u16, name: &str) -> ValueId {
        let h = s.dim(DimensionId(dim));
        h.values_at(1)
            .find(|&v| h.name(v).unwrap() == name)
            .unwrap()
    }

    /// Definition 4 runs on a cube wider than the inline capacity as it
    /// does on a narrow one, and an MDS stays a fixed, pinned size.
    #[test]
    fn wide_cubes_spill_and_the_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<DimSet>(), 72);
        assert_eq!(std::mem::size_of::<Mds>(), 368);
        for d in [1, Dims::INLINE, Dims::INLINE + 1, Dims::INLINE + 4] {
            let sets = |shift: u32| -> Vec<DimSet> {
                (0..d as u32)
                    .map(|i| DimSet::new(0, vec![ValueId::new(0, i), ValueId::new(0, i + shift)]))
                    .collect()
            };
            let (a, b) = (Mds::new(sets(1)), Mds::new(sets(2)));
            assert_eq!(a.num_dims(), d);
            assert_eq!(a.dims().count(), d);
            assert_eq!(a.size(), 2 * d);
            assert_eq!(a.volume(), 1u128 << d);
            assert_eq!(a.overlap(&b), 1);
            assert_eq!(a.union_aligned(&b).size(), 3 * d);
            assert_eq!(a, a.clone());
            assert_ne!(a, b);
            assert_eq!(a.dim(d - 1), &sets(1)[d - 1]);
            let mut c = a.clone();
            c.dim_mut(d - 1).insert(ValueId::new(0, 900));
            assert_eq!(c.size(), 2 * d + 1);
            assert_eq!(a.size(), 2 * d);
        }
    }

    /// The paper's §3.2 example: records (Germany, North America, 1996) and
    /// (France, North America, 1997) yield the MDS
    /// ({Germany, France}, {North America}, {1996, 1997}) — and
    /// ({Europe}, {North America}, {1996, 1997}) when the first dimension's
    /// relevant level is raised by one.
    #[test]
    fn paper_example_mds_and_adaptation() {
        let s = schema();
        let m = Mds::new(vec![
            DimSet::new(0, vec![nation(&s, 0, "Germany"), nation(&s, 0, "France")]),
            DimSet::new(1, vec![region(&s, 1, "North America")]),
            DimSet::new(
                1,
                vec![
                    s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap(),
                    s.dim(DimensionId(2)).lookup_path(&["1997"]).unwrap(),
                ],
            ),
        ]);
        assert_eq!(m.size(), 5);
        assert_eq!(m.volume(), 4); // 2 × 1 × 2
        let raised = m.adapt_to_levels(&s, &[1, 1, 1]).unwrap();
        assert_eq!(raised.dim(0).len(), 1); // {Europe}
        assert_eq!(raised.dim(0).values()[0], region(&s, 0, "Europe"));
    }

    #[test]
    fn all_mds_has_volume_one_and_contains_everything() {
        let s = schema();
        let all = Mds::all(&s);
        assert_eq!(all.volume(), 1);
        assert_eq!(all.size(), 3);
        let m = Mds::new(vec![
            DimSet::new(0, vec![nation(&s, 0, "Germany")]),
            DimSet::new(0, vec![nation(&s, 1, "USA")]),
            DimSet::new(
                1,
                vec![s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap()],
            ),
        ]);
        assert!(m.contained_in(&all, &s).unwrap());
        assert!(!all.contained_in(&m, &s).unwrap());
        assert!(all.overlaps(&m, &s).unwrap());
    }

    #[test]
    fn overlap_and_extension_match_definition_4() {
        let s = schema();
        let (g, f, n) = (
            nation(&s, 0, "Germany"),
            nation(&s, 0, "France"),
            nation(&s, 0, "Netherlands"),
        );
        let usa = nation(&s, 1, "USA");
        let y96 = s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap();
        let y97 = s.dim(DimensionId(2)).lookup_path(&["1997"]).unwrap();
        let m = Mds::new(vec![
            DimSet::new(0, vec![g, f]),
            DimSet::new(0, vec![usa]),
            DimSet::new(1, vec![y96, y97]),
        ]);
        let nn = Mds::new(vec![
            DimSet::new(0, vec![f, n]),
            DimSet::new(0, vec![usa]),
            DimSet::new(1, vec![y96]),
        ]);
        assert_eq!(m.overlap(&nn), 1); // {F} × {USA} × {96}
        assert_eq!(m.extension(&nn), 3 * 2); // {G,F,N} × {USA} × {96,97}
        assert_eq!(m.volume(), 4);
        assert_eq!(nn.volume(), 2);
    }

    #[test]
    fn cover_contains_both_operands() {
        let s = schema();
        let m = Mds::new(vec![
            DimSet::new(0, vec![nation(&s, 0, "Germany")]),
            DimSet::new(1, vec![region(&s, 1, "North America")]),
            DimSet::new(
                1,
                vec![s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap()],
            ),
        ]);
        let n = Mds::new(vec![
            DimSet::new(1, vec![region(&s, 0, "Europe")]),
            DimSet::new(0, vec![nation(&s, 1, "Japan")]),
            DimSet::new(
                1,
                vec![s.dim(DimensionId(2)).lookup_path(&["1998"]).unwrap()],
            ),
        ]);
        let c = m.cover(&n, &s).unwrap();
        assert!(m.contained_in(&c, &s).unwrap());
        assert!(n.contained_in(&c, &s).unwrap());
        // Cover adapts to the coarser level per dimension.
        assert_eq!(c.dim(0).level(), 1);
        assert_eq!(c.dim(1).level(), 1);
        assert_eq!(c.dim(2).level(), 1);
    }

    #[test]
    fn record_containment_and_extension() {
        let mut s = schema();
        let r = s
            .intern_record(
                &[
                    vec!["Europe", "Germany"],
                    vec!["North America", "USA"],
                    vec!["1996", "01"],
                ],
                10,
            )
            .unwrap();
        let mut m = Mds::new(vec![
            DimSet::new(0, vec![nation(&s, 0, "France")]),
            DimSet::new(1, vec![region(&s, 1, "North America")]),
            DimSet::new(
                1,
                vec![s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap()],
            ),
        ]);
        assert!(!m.contains_record(&s, &r).unwrap());
        assert_eq!(m.enlargement_for_record(&s, &r).unwrap(), 1); // 2×1×1 − 1×1×1
        let added = m.extend_to_cover_record(&s, &r).unwrap();
        assert_eq!(added, 1);
        assert!(m.contains_record(&s, &r).unwrap());
        assert_eq!(m.extend_to_cover_record(&s, &r).unwrap(), 0);
    }

    #[test]
    fn adapted_pair_aligns_mixed_levels() {
        let s = schema();
        let fine = Mds::new(vec![
            DimSet::new(0, vec![nation(&s, 0, "Germany"), nation(&s, 0, "France")]),
            DimSet::new(0, vec![nation(&s, 1, "USA")]),
            DimSet::new(
                1,
                vec![s.dim(DimensionId(2)).lookup_path(&["1996"]).unwrap()],
            ),
        ]);
        let coarse = Mds::new(vec![
            DimSet::new(1, vec![region(&s, 0, "Europe")]),
            DimSet::new(0, vec![nation(&s, 1, "Canada")]),
            DimSet::new(2, vec![s.dim(DimensionId(2)).all()]),
        ]);
        let (a, b) = fine.adapted_pair(&coarse, &s).unwrap();
        assert_eq!(a.levels(), b.levels());
        assert_eq!(a.levels(), vec![1, 0, 2]);
        assert_eq!(a.overlap(&b), 0); // USA vs Canada disjoint in dim 1
    }

    #[test]
    fn point_mds_of_record() {
        let mut s = schema();
        let r = s
            .intern_record(
                &[
                    vec!["Europe", "Germany"],
                    vec!["North America", "USA"],
                    vec!["1996", "01"],
                ],
                10,
            )
            .unwrap();
        let p = Mds::from_record(&r);
        assert_eq!(p.volume(), 1);
        assert_eq!(p.levels(), vec![0, 0, 0]);
        assert!(p.contains_record(&s, &r).unwrap());
    }
}
