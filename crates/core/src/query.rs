//! Prepared range queries.
//!
//! The naive range-query algorithm (Fig. 7) adapts the *query* MDS to the
//! entry's level for every directory entry it inspects. With large query
//! MDSs (the paper's 25%-selectivity runs reach hundreds of values per
//! dimension) that re-adaptation dominates the runtime — the effect the
//! paper itself observes: "a larger query MDS involves more expensive
//! computations of the overlap, because a large MDS consists of large sets
//! for the single dimensions."
//!
//! A `PreparedRange` hoists that work out of the traversal: per dimension
//! it precomputes, once, the query's value set adapted to **every** level at
//! or above the query level. Each entry test then degenerates to
//! parent-pointer walks and O(1) bitset probes against the precomputed sets.
//!
//! Every read of the tree — scalar aggregate, `group_by`, `pivot`, range
//! selection and point count — is the one descent of `DcTree` over a
//! prepared range, folding what it meets into a [`Visitor`]: [`Cells`]
//! for the aggregates, [`Select`] for the selections.

use std::cell::RefCell;
use std::collections::BTreeMap;

use dc_common::{DcError, DcResult, DimensionId, Level, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;

use crate::node::{DirEntry, StoredRecord};

/// Upper bound on recycled bitset backing stores kept per thread. Generous
/// for any realistic query shape (dims × levels) while bounding the pool if
/// a pathological workload churns huge prepared ranges.
const WORD_POOL_CAP: usize = 256;

/// Per-thread scratch for [`PreparedRange`] construction: recycled bitset
/// word vectors and the ping/pong buffers used by the up-adaptation loop.
/// Steady-state preparation on a warm thread reuses these instead of
/// allocating, which is what keeps the serving engine's query path free of
/// per-query heap churn once the pool threads have warmed up.
#[derive(Default)]
struct PrepScratch {
    /// Recycled `LevelBits` backing stores, returned on `PreparedRange` drop.
    words: Vec<Vec<u64>>,
    /// Up-adaptation ping buffer (the set at the current level).
    current: Vec<ValueId>,
    /// Up-adaptation pong buffer (the set lifted one level).
    up: Vec<ValueId>,
}

thread_local! {
    static PREP_SCRATCH: RefCell<PrepScratch> = RefCell::new(PrepScratch::default());
}

/// A dense bitset over the per-level index space of one hierarchy level.
#[derive(Clone, Debug)]
struct LevelBits {
    words: Vec<u64>,
}

impl LevelBits {
    /// Builds the bitset backed by a recycled word vector when the pool has
    /// one, a fresh allocation otherwise.
    fn from_values_pooled(values: &[ValueId], universe: usize, pool: &mut Vec<Vec<u64>>) -> Self {
        let n = universe.div_ceil(64).max(1);
        let mut words = pool.pop().unwrap_or_default();
        words.clear();
        words.resize(n, 0);
        for v in values {
            let idx = v.index() as usize;
            words[idx / 64] |= 1 << (idx % 64);
        }
        LevelBits { words }
    }

    #[inline]
    fn contains(&self, v: ValueId) -> bool {
        let idx = v.index() as usize;
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1 << (idx % 64)) != 0)
    }
}

/// One dimension of a prepared range: the query's set, pre-adapted to every
/// level from the query level up to `ALL`, as O(1)-membership bitsets.
#[derive(Clone, Debug)]
struct PreparedDim {
    /// The query's own relevant level.
    level: Level,
    /// `bits[l - level]` = the query set adapted to level `l`.
    bits: Vec<LevelBits>,
}

impl PreparedDim {
    /// Membership in the query set adapted to `level` (≥ the query level).
    #[inline]
    fn contains_at(&self, level: Level, v: ValueId) -> bool {
        self.bits[(level - self.level) as usize].contains(v)
    }
}

/// A range MDS preprocessed for fast entry tests: every per-entry and
/// per-record test reduces to parent-pointer walks plus O(1) bit probes.
///
/// # Shared preparation across shards
///
/// Preparation only consults the hierarchy of the **query's own values**
/// (their parents, and per-level universe sizes for bitset width). In the
/// sharded engine every shard schema is a strict prefix of the global
/// catalog schema — same `ValueId`s, same parents — so a range prepared once
/// against the catalog is valid for evaluation against *any* shard: the
/// traversal only probes shard-known values, whose bits are where the
/// catalog put them. This is what lets `ShardedDcTree` prepare a query once
/// instead of once per shard.
///
/// Dropping a `PreparedRange` returns its bitset backing stores to the
/// dropping thread's scratch pool, so a warm query thread re-prepares
/// without touching the allocator.
#[derive(Clone, Debug)]
pub struct PreparedRange {
    dims: Vec<PreparedDim>,
    /// Reproduce the paper's literal (unsound) Fig. 7 adaptation: when the
    /// entry is coarser than the query, lift the *query* to the entry's
    /// level and test subset there. See `DcTreeConfig::use_paper_fig7_containment`.
    paper_containment: bool,
}

impl Drop for PreparedRange {
    fn drop(&mut self) {
        // Recycle the word vectors into the dropping thread's pool. `try_with`
        // because TLS may already be torn down during thread exit.
        let _ = PREP_SCRATCH.try_with(|s| {
            let pool = &mut s.borrow_mut().words;
            for d in &mut self.dims {
                for b in &mut d.bits {
                    if pool.len() >= WORD_POOL_CAP {
                        return;
                    }
                    pool.push(std::mem::take(&mut b.words));
                }
            }
        });
    }
}

impl PreparedRange {
    /// Prepares `range` against `schema`: O(size × levels) once, instead of
    /// per directory entry.
    pub fn new(schema: &CubeSchema, range: &Mds) -> DcResult<Self> {
        Self::with_mode(schema, range, false)
    }

    /// Prepares `range` with an explicit containment mode, reusing the
    /// calling thread's scratch buffers. Fails with
    /// [`DcError::DimensionMismatch`] when `range` and `schema` differ in
    /// dimensionality.
    pub fn with_mode(schema: &CubeSchema, range: &Mds, paper_containment: bool) -> DcResult<Self> {
        PREP_SCRATCH.with(|s| {
            Self::with_mode_scratch(schema, range, paper_containment, &mut s.borrow_mut())
        })
    }

    fn with_mode_scratch(
        schema: &CubeSchema,
        range: &Mds,
        paper_containment: bool,
        scratch: &mut PrepScratch,
    ) -> DcResult<Self> {
        if range.num_dims() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: range.num_dims(),
            });
        }
        let mut dims = Vec::with_capacity(range.num_dims());
        for (set, h) in range.dims().zip(schema.dims()) {
            let level = set.level();
            let mut bits = vec![LevelBits::from_values_pooled(
                set.values(),
                h.num_values_at(level),
                &mut scratch.words,
            )];
            scratch.current.clear();
            scratch.current.extend_from_slice(set.values());
            for l in level..h.top_level() {
                scratch.up.clear();
                for &v in &scratch.current {
                    scratch.up.push(h.parent(v)?.expect("below ALL"));
                }
                scratch.up.sort_unstable();
                scratch.up.dedup();
                bits.push(LevelBits::from_values_pooled(
                    &scratch.up,
                    h.num_values_at(l + 1),
                    &mut scratch.words,
                ));
                std::mem::swap(&mut scratch.current, &mut scratch.up);
            }
            dims.push(PreparedDim { level, bits });
        }
        Ok(PreparedRange {
            dims,
            paper_containment,
        })
    }

    /// Number of dimensions the range was prepared over.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// `true` iff `entry` overlaps the range in every dimension — the
    /// pruning test of Fig. 7, with the query side precomputed.
    pub fn overlaps(&self, schema: &CubeSchema, entry: &Mds) -> DcResult<bool> {
        for ((p, e), h) in self.dims.iter().zip(entry.dims()).zip(schema.dims()) {
            let le = e.level();
            let hit = if le >= p.level {
                // Query adapted up to the entry's level: probe each entry
                // value against the precomputed bitset.
                e.values().iter().any(|&v| p.contains_at(le, v))
            } else {
                // Entry is finer: lift each entry value to the query level.
                let mut any = false;
                for &v in e.values() {
                    if p.contains_at(p.level, h.ancestor_at(v, p.level)?) {
                        any = true;
                        break;
                    }
                }
                any
            };
            if !hit {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `true` iff `entry` is fully contained in the range (Definition 4
    /// domination) — the materialized-measure shortcut of Fig. 7.
    pub fn contains_entry(&self, schema: &CubeSchema, entry: &Mds) -> DcResult<bool> {
        for ((p, e), h) in self.dims.iter().zip(entry.dims()).zip(schema.dims()) {
            if e.level() > p.level {
                if !self.paper_containment {
                    return Ok(false); // coarser than the range: cannot be inside
                }
                // Paper mode (Fig. 7 literal): lift the query to the
                // entry's level and test subset there — over-approximate.
                for &v in e.values() {
                    if !p.contains_at(e.level(), v) {
                        return Ok(false);
                    }
                }
                continue;
            }
            for &v in e.values() {
                if !p.contains_at(p.level, h.ancestor_at(v, p.level)?) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// `true` iff the record is selected by the range.
    pub fn contains_record(&self, schema: &CubeSchema, record: &Record) -> DcResult<bool> {
        for ((p, &leaf), h) in self.dims.iter().zip(&record.dims).zip(schema.dims()) {
            let anc = h.ancestor_at(leaf, p.level)?;
            if !p.contains_at(p.level, anc) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// What a read answers with ([`DcTree::read_counted`](crate::DcTree::read_counted)),
/// and what a partitioned engine merges across partitions.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryOutput {
    /// An ungrouped aggregate.
    Scalar(MeasureSummary),
    /// Non-empty groups, sorted by value id.
    Grouped(Vec<(ValueId, MeasureSummary)>),
}

impl QueryOutput {
    /// The empty output matching `grouped`ness.
    pub fn empty(grouped: bool) -> Self {
        if grouped {
            QueryOutput::Grouped(Vec::new())
        } else {
            QueryOutput::Scalar(MeasureSummary::empty())
        }
    }

    /// Merges another partition's output into this one (scatter-gather).
    pub fn merge(&mut self, other: &QueryOutput) {
        match (self, other) {
            (QueryOutput::Scalar(a), QueryOutput::Scalar(b)) => a.merge(b),
            (QueryOutput::Grouped(a), QueryOutput::Grouped(b)) => {
                let mut map: BTreeMap<ValueId, MeasureSummary> = a.drain(..).collect();
                for (v, s) in b {
                    map.entry(*v).or_default().merge(s);
                }
                *a = map.into_iter().collect();
            }
            _ => unreachable!("scalar and grouped outputs never mix in one plan"),
        }
    }
}

/// What one read does with what the descent meets: the records the range
/// selects, and the directory entries it contains.
pub(crate) trait Visitor {
    /// Whether [`Self::absorb`] can ever answer an entry; the descent skips
    /// the containment test for a visitor that cannot.
    const ABSORBS: bool = false;

    /// A stored record the range selects.
    fn record(&mut self, r: &StoredRecord) -> DcResult<()>;

    /// A directory entry the range contains: folds its materialized
    /// summary in and returns `true`, or returns `false` to have the
    /// descent visit its subtree instead.
    fn absorb(&mut self, _: &DirEntry) -> DcResult<bool> {
        Ok(false)
    }
}

/// Summaries over `N` = zero, one or two grouping axes, as `(dimension,
/// level)`, fixed at compile time so a scalar read pays no axis loop:
/// one cell for a scalar query, one per group value for `group_by`, rows ×
/// columns for `pivot`. Cell `i` is the axis values' indices in row-major
/// order. An entry is absorbed when it maps to one value on every axis.
/// `cells` holds the product of the axes' value counts.
pub(crate) struct Cells<'a, const N: usize> {
    pub(crate) schema: &'a CubeSchema,
    pub(crate) axes: [(DimensionId, Level); N],
    pub(crate) cells: &'a mut [MeasureSummary],
}

impl<const N: usize> Cells<'_, N> {
    /// The cell of the record's ancestors on the axes.
    fn cell_of_record(&self, record: &Record) -> DcResult<usize> {
        let mut cell = 0;
        for (dim, level) in self.axes {
            let h = self.schema.dim(dim);
            let key = h.ancestor_at(record.dims[dim.as_usize()], level)?;
            cell = cell * h.num_values_at(level) + key.index() as usize;
        }
        Ok(cell)
    }

    /// The one cell every record below `mds` falls in, if there is one:
    /// on each axis, every value of `mds` lies below one single value.
    fn cell_of_entry(&self, mds: &Mds) -> DcResult<Option<usize>> {
        let mut cell = 0;
        for (dim, level) in self.axes {
            let h = self.schema.dim(dim);
            let set = mds.dim(dim.as_usize());
            if set.level() > level {
                return Ok(None); // coarser than the axis: spans many values
            }
            let mut single: Option<ValueId> = None;
            for &v in set.values() {
                let key = h.ancestor_at(v, level)?;
                if single.is_some_and(|s| s != key) {
                    return Ok(None);
                }
                single = Some(key);
            }
            let Some(key) = single else { return Ok(None) };
            cell = cell * h.num_values_at(level) + key.index() as usize;
        }
        Ok(Some(cell))
    }
}

impl<const N: usize> Visitor for Cells<'_, N> {
    const ABSORBS: bool = true;

    #[inline]
    fn record(&mut self, r: &StoredRecord) -> DcResult<()> {
        let cell = self.cell_of_record(&r.record)?;
        self.cells[cell].add(r.record.measure);
        Ok(())
    }

    #[inline]
    fn absorb(&mut self, e: &DirEntry) -> DcResult<bool> {
        let Some(cell) = self.cell_of_entry(&e.mds)? else {
            return Ok(false);
        };
        self.cells[cell].merge(&e.summary);
        Ok(true)
    }
}

/// A selection: hands every selected record to the closure and absorbs no
/// entry, so contained subtrees are descended to their data pages.
pub(crate) struct Select<F>(pub(crate) F);

impl<F: FnMut(&StoredRecord)> Visitor for Select<F> {
    fn record(&mut self, r: &StoredRecord) -> DcResult<()> {
        (self.0)(r);
        Ok(())
    }
}

/// Consistency helper for tests: the prepared tests must agree with the
/// direct MDS algebra.
#[cfg(test)]
pub(crate) fn agrees_with_mds(
    schema: &CubeSchema,
    range: &Mds,
    entry: &Mds,
) -> DcResult<(bool, bool)> {
    let p = PreparedRange::new(schema, range)?;
    let fast = (p.overlaps(schema, entry)?, p.contains_entry(schema, entry)?);
    let slow = (
        entry.overlaps(range, schema)?,
        entry.contained_in(range, schema)?,
    );
    assert_eq!(fast, slow, "prepared query diverges from MDS algebra");
    Ok(fast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::DimensionId;
    use dc_hierarchy::HierarchySchema;
    use dc_mds::DimSet;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new(
                    "Customer",
                    vec!["Region".into(), "Nation".into(), "Cust".into()],
                ),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let r = rng.gen_range(0..4);
            let n = rng.gen_range(0..5);
            let c = rng.gen_range(0..10);
            let y = rng.gen_range(1995..1999);
            let m = rng.gen_range(1..13);
            s.intern_record(
                &[
                    vec![
                        format!("R{r}"),
                        format!("R{r}N{n}"),
                        format!("R{r}N{n}C{c}"),
                    ],
                    vec![format!("{y}"), format!("{y}-{m:02}")],
                ],
                1,
            )
            .unwrap();
        }
        s
    }

    fn random_mds(s: &CubeSchema, rng: &mut StdRng) -> Mds {
        let dims = (0..s.num_dims())
            .map(|d| {
                let h = s.dim(DimensionId(d as u16));
                let level = rng.gen_range(0..=h.top_level());
                let vals: Vec<ValueId> = h.values_at(level).collect();
                let take = rng.gen_range(1..=vals.len().min(6));
                DimSet::new(level, vals.choose_multiple(rng, take).copied().collect())
            })
            .collect();
        Mds::new(dims)
    }

    #[test]
    fn prepared_tests_agree_with_mds_algebra() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let range = random_mds(&s, &mut rng);
            let entry = random_mds(&s, &mut rng);
            let _ = agrees_with_mds(&s, &range, &entry).unwrap();
        }
    }

    #[test]
    fn prepared_record_test_agrees() {
        let mut s = schema();
        let mut rng = StdRng::seed_from_u64(3);
        let mut records = Vec::new();
        for _ in 0..50 {
            let r = rng.gen_range(0..4);
            let n = rng.gen_range(0..5);
            let c = rng.gen_range(0..10);
            let y = rng.gen_range(1995..1999);
            let m = rng.gen_range(1..13);
            records.push(
                s.intern_record(
                    &[
                        vec![
                            format!("R{r}"),
                            format!("R{r}N{n}"),
                            format!("R{r}N{n}C{c}"),
                        ],
                        vec![format!("{y}"), format!("{y}-{m:02}")],
                    ],
                    1,
                )
                .unwrap(),
            );
        }
        for _ in 0..100 {
            let range = random_mds(&s, &mut rng);
            let p = PreparedRange::new(&s, &range).unwrap();
            for r in &records {
                assert_eq!(
                    p.contains_record(&s, r).unwrap(),
                    range.contains_record(&s, r).unwrap()
                );
            }
        }
    }
}
