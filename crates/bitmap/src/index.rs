//! The bitmap index over a data cube.
//!
//! One compressed bitmap per attribute value of every hierarchy level of
//! every dimension, plus a measure column addressed by record id. A range
//! MDS is evaluated the classic way: OR the bitmaps of the selected values
//! within each dimension, AND the per-dimension results, then walk the
//! surviving record ids through the measure column.
//!
//! The structure demonstrates both halves of the paper's §2 verdict:
//! queries are fast set algebra, but **every insertion touches one bitmap
//! per (dimension, level)** — 13 bitmap appends per record on the TPC-D
//! cube — and the measure column is unclustered, so selected records
//! scatter across its pages.

use std::sync::Arc;

use dc_common::{AggregateOp, DcError, DcResult, DimensionId, Measure, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;
use dc_storage::{BlockConfig, IoStats, IoTracker};

use crate::blocks::Blocks;
use crate::wah::CompressedBitmap;

/// Bitmap slots per shared block of a level's slot vector.
const SLOT_BLOCK: usize = 64;
/// Measures per shared block of the measure column.
const MEASURE_BLOCK: usize = 512;
/// Words (of 64 record ids each) per shared block of the deleted mask.
const MASK_BLOCK: usize = 64;

/// One level's bitmaps, indexed by the value's per-level index (value ids
/// are dense per level; a value with no record here has no bitmap).
type Slots = Blocks<Option<Arc<CompressedBitmap>>, SLOT_BLOCK>;

/// A compressed bitmap index over the cube's dimensions and hierarchy
/// levels, with a measure column.
///
/// Everything a writer appends to is shared at a fine grain, so a `clone`
/// (a published snapshot) copies pointers, and the first insert after it
/// copies O(touched tails), never O(index):
/// * each value's bitmap sits behind its own `Arc`, and keeps its words in
///   sealed `Arc` chunks plus a short open part ([`CompressedBitmap`]) —
///   an append copies the open part and the chunk pointers;
/// * each level's bitmap slots, the measure column and the deleted mask are
///   held in `Arc`'d fixed-size blocks — an insert copies the last measure
///   block and one slot block per (dimension, level).
#[derive(Clone, Debug)]
pub struct BitmapIndex {
    /// `bitmaps[dim][level]` holds each value's bitmap at its index.
    bitmaps: Vec<Vec<Slots>>,
    /// Measures by record id.
    measures: Blocks<Measure, MEASURE_BLOCK>,
    /// Records logically deleted, one bit per record id (bitmap indices
    /// handle deletion by masking, not by rewriting every bitmap).
    deleted: Blocks<u64, MASK_BLOCK>,
    deleted_count: u64,
    /// Running [`Self::bitmap_bytes`] total.
    bitmap_bytes: usize,
    records_per_block: usize,
    io: IoTracker,
}

impl BitmapIndex {
    /// An empty index for `schema`'s shape.
    pub fn new(schema: &CubeSchema, block: BlockConfig) -> Self {
        let bitmaps = schema
            .dims()
            .map(|h| (0..h.top_level()).map(|_| Slots::new()).collect())
            .collect();
        let record_bytes = schema.num_dims() * 4 + 8;
        BitmapIndex {
            bitmaps,
            measures: Blocks::new(),
            deleted: Blocks::new(),
            deleted_count: 0,
            bitmap_bytes: 0,
            records_per_block: (block.block_size / record_bytes.max(1)).max(1),
            io: IoTracker::new(),
        }
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.measures.len() as u64 - self.deleted_count
    }

    /// `true` iff no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical I/O counters. Bitmap touches are charged per compressed
    /// block; measure lookups per record block.
    pub fn io_stats(&self) -> IoStats {
        self.io.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Total compressed size of all bitmaps, in bytes. O(1): kept as a
    /// running total by [`Self::insert`].
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmap_bytes
    }

    /// Inserts a record — the expensive path the paper criticizes: one
    /// bitmap append per (dimension, level).
    pub fn insert(&mut self, schema: &CubeSchema, record: &Record) -> DcResult<()> {
        schema.validate_record(record)?;
        let rid = self.measures.len() as u64;
        let mut appends = 0;
        for (d, h) in schema.dims().enumerate() {
            for level in 0..h.top_level() {
                let i = h.ancestor_at(record.dims[d], level)?.index() as usize;
                let slots = &mut self.bitmaps[d][level as usize];
                slots.grow_to(i + 1, None);
                let slot = slots.get_mut(i).expect("slots grown past the index");
                let before = slot.as_ref().map_or(0, |bm| bm.size_in_bytes());
                let bm = Arc::make_mut(slot.get_or_insert_with(Default::default));
                bm.set(rid);
                self.bitmap_bytes += bm.size_in_bytes() - before;
                appends += 1;
            }
        }
        self.measures.push(record.measure);
        // Each append dirties (at worst) the bitmap's last block, and the
        // measure lands in the column's last block.
        self.io.write(appends + 1);
        Ok(())
    }

    /// Marks one record matching `record` (dims and measure) as deleted.
    /// Returns `false` when none matches. Deletion never rewrites value
    /// bitmaps; the deleted mask is consulted at query time.
    pub fn delete(&mut self, schema: &CubeSchema, record: &Record) -> DcResult<bool> {
        schema.validate_record(record)?;
        // Find candidates by intersecting the leaf-level bitmaps.
        let mut acc: Option<CompressedBitmap> = None;
        let empty = CompressedBitmap::new();
        for (d, _) in schema.dims().enumerate() {
            let bm = self
                .bitmap_at(d, 0, record.dims[d].index())
                .unwrap_or(&empty);
            self.charge_bitmap_read(bm);
            acc = Some(match acc {
                None => bm.clone(),
                Some(a) => a.and(bm),
            });
        }
        let Some(candidates) = acc else {
            return Ok(false);
        };
        let hit = candidates
            .iter_ones()
            .find(|&rid| self.measures[rid as usize] == record.measure && !self.is_deleted(rid));
        let Some(rid) = hit else {
            return Ok(false);
        };
        let word = (rid / 64) as usize;
        self.deleted.grow_to(word + 1, 0);
        if let Some(w) = self.deleted.get_mut(word) {
            *w |= 1 << (rid % 64);
        }
        self.deleted_count += 1;
        self.io.write(1);
        Ok(true)
    }

    fn is_deleted(&self, rid: u64) -> bool {
        self.deleted_count != 0
            && self
                .deleted
                .get((rid / 64) as usize)
                .is_some_and(|w| w & (1 << (rid % 64)) != 0)
    }

    fn bitmap_at(&self, dim: usize, level: usize, index: u32) -> Option<&CompressedBitmap> {
        self.bitmaps
            .get(dim)?
            .get(level)?
            .get(index as usize)?
            .as_deref()
    }

    fn charge_bitmap_read(&self, bm: &CompressedBitmap) {
        let blocks = bm.size_in_bytes().div_ceil(4096).max(1);
        self.io.read(blocks as u32);
    }

    /// The filter bitmap of `range` — OR within dimensions, AND across —
    /// or `None` when every dimension is unconstrained.
    fn filter(&self, schema: &CubeSchema, range: &Mds) -> DcResult<Option<CompressedBitmap>> {
        if range.num_dims() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: range.num_dims(),
            });
        }
        let mut acc: Option<CompressedBitmap> = None;
        for ((d, set), h) in range.dims().enumerate().zip(schema.dims()) {
            if set.level() >= h.top_level() {
                continue; // ALL — unconstrained
            }
            let mut dim_or = CompressedBitmap::new();
            for &v in set.values() {
                if let Some(bm) = self.bitmap_at(d, set.level() as usize, v.index()) {
                    self.charge_bitmap_read(bm);
                    dim_or = dim_or.or(bm);
                }
            }
            acc = Some(match acc {
                None => dim_or,
                Some(a) => a.and(&dim_or),
            });
        }
        Ok(acc)
    }

    /// Sums the live records among `rids` (increasing). The measure column
    /// is unclustered: each record costs a block read unless it shares the
    /// previous one.
    fn gather(&self, rids: impl Iterator<Item = u64>) -> MeasureSummary {
        let mut summary = MeasureSummary::empty();
        let mut last_block = u64::MAX;
        for rid in rids.filter(|&rid| !self.is_deleted(rid)) {
            let block = rid / self.records_per_block as u64;
            if block != last_block {
                self.io.read(1);
                last_block = block;
            }
            summary.add(self.measures[rid as usize]);
        }
        summary
    }

    /// Evaluates a range MDS: OR within dimensions, AND across, then gather
    /// measures.
    pub fn range_summary(&self, schema: &CubeSchema, range: &Mds) -> DcResult<MeasureSummary> {
        Ok(match self.filter(schema, range)? {
            None => {
                // Fully unconstrained: every live record qualifies.
                let blocks = self.measures.len().div_ceil(self.records_per_block).max(1);
                self.io.read(blocks as u32);
                let mut summary = MeasureSummary::empty();
                for (rid, &m) in self.measures.iter().enumerate() {
                    if !self.is_deleted(rid as u64) {
                        summary.add(m);
                    }
                }
                summary
            }
            Some(selected) => self.gather(selected.iter_ones()),
        })
    }

    /// Groups the records selected by `range` on `(dim, level)` with pure
    /// set algebra: the filter bitmap is built once (OR within dimensions,
    /// AND across), then ANDed with every value bitmap of the grouping
    /// level; only non-empty groups are returned, sorted by value id.
    pub fn group_by(
        &self,
        schema: &CubeSchema,
        dim: DimensionId,
        level: u8,
        range: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        if range.num_dims() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: range.num_dims(),
            });
        }
        let h = schema.dim(dim);
        if level >= h.top_level() {
            return Err(DcError::BadLevel {
                dim,
                id: h.all(),
                requested: level,
            });
        }
        let acc = self.filter(schema, range)?;
        let mut groups = Vec::new();
        // Slots are in value-id order, so the groups come out sorted.
        for (index, slot) in self.bitmaps[dim.as_usize()][level as usize]
            .iter()
            .enumerate()
        {
            let Some(bm) = slot else { continue };
            self.charge_bitmap_read(bm);
            let summary = match &acc {
                None => self.gather(bm.iter_ones()),
                Some(a) => self.gather(a.and(bm).iter_ones()),
            };
            if summary.count > 0 {
                groups.push((ValueId::new(level, index as u32), summary));
            }
        }
        Ok(groups)
    }

    /// Evaluates a range query with one aggregation operator.
    pub fn range_query(
        &self,
        schema: &CubeSchema,
        range: &Mds,
        op: AggregateOp,
    ) -> DcResult<Option<f64>> {
        Ok(self.range_summary(schema, range)?.eval(op))
    }

    /// Direct access to one value's bitmap (diagnostics).
    pub fn bitmap_for(&self, dim: DimensionId, value: ValueId) -> Option<&CompressedBitmap> {
        self.bitmap_at(dim.as_usize(), value.level() as usize, value.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;
    use dc_mds::DimSet;

    fn setup() -> (CubeSchema, BitmapIndex, Vec<Record>) {
        let mut schema = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        let mut idx = BitmapIndex::new(&schema, BlockConfig::DEFAULT);
        let mut records = Vec::new();
        for (r, n, y, m, price) in [
            ("EU", "DE", "1996", "01", 100),
            ("EU", "FR", "1996", "02", 250),
            ("AS", "JP", "1997", "01", 400),
            ("EU", "DE", "1997", "03", 50),
        ] {
            let rec = schema
                .intern_record(&[vec![r, n], vec![y, m]], price)
                .unwrap();
            idx.insert(&schema, &rec).unwrap();
            records.push(rec);
        }
        (schema, idx, records)
    }

    #[test]
    fn range_queries_match_semantics() {
        let (schema, idx, _) = setup();
        let eu = schema.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap();
        let y96 = schema.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap();
        let q = Mds::new(vec![DimSet::singleton(eu), DimSet::singleton(y96)]);
        let s = idx.range_summary(&schema, &q).unwrap();
        assert_eq!(s.sum, 350);
        assert_eq!(s.count, 2);
        // Unconstrained query returns the total.
        let all = Mds::all(&schema);
        assert_eq!(idx.range_summary(&schema, &all).unwrap().count, 4);
    }

    #[test]
    fn an_insert_into_a_clone_copies_only_the_bitmaps_it_appends_to() {
        let (mut schema, snap, _) = setup();
        let mut idx = snap.clone();
        let rec = schema
            .intern_record(&[vec!["AS", "JP"], vec!["1998", "01"]], 7)
            .unwrap();
        idx.insert(&schema, &rec).unwrap();

        let h = schema.dim(DimensionId(0));
        let shared = |path: &[&str]| {
            let v = h.lookup_path(path).unwrap();
            std::ptr::eq(
                idx.bitmap_for(DimensionId(0), v).unwrap(),
                snap.bitmap_for(DimensionId(0), v).unwrap(),
            )
        };
        assert!(shared(&["EU"]) && shared(&["EU", "DE"]) && shared(&["EU", "FR"]));
        assert!(!shared(&["AS"]) && !shared(&["AS", "JP"]));

        let all = Mds::all(&schema);
        assert_eq!(idx.range_summary(&schema, &all).unwrap().count, 5);
        assert_eq!(snap.range_summary(&schema, &all).unwrap().count, 4);
        let asia = Mds::new(vec![
            DimSet::singleton(h.lookup_path(&["AS"]).unwrap()),
            DimSet::singleton(schema.dim(DimensionId(1)).all()),
        ]);
        assert_eq!(idx.range_summary(&schema, &asia).unwrap().sum, 407);
        assert_eq!(snap.range_summary(&schema, &asia).unwrap().sum, 400);
    }

    #[test]
    fn an_insert_after_a_clone_copies_a_bounded_tail_of_a_large_index() {
        use crate::wah::CHUNK_WORDS;
        let data = dc_tpcd::generate(&dc_tpcd::TpcdConfig::scaled(100_000, 3));
        let schema = &data.schema;
        let (last, load) = data.records.split_last().unwrap();
        let mut idx = BitmapIndex::new(schema, BlockConfig::DEFAULT);
        for r in load {
            idx.insert(schema, r).unwrap();
        }
        let snap = idx.clone();
        idx.insert(schema, last).unwrap();

        let (mut levels, mut total_words, mut unshared_words, mut unshared_slot_blocks) =
            (0, 0, 0, 0);
        for (new_dim, old_dim) in idx.bitmaps.iter().zip(&snap.bitmaps) {
            for (new, old) in new_dim.iter().zip(old_dim) {
                levels += 1;
                unshared_slot_blocks += new.blocks().len()
                    - new
                        .blocks()
                        .iter()
                        .zip(old.blocks())
                        .filter(|(a, b)| Arc::ptr_eq(a, b))
                        .count();
                for (i, slot) in new.iter().enumerate() {
                    let Some(bm) = slot else { continue };
                    total_words += (bm.size_in_bytes() - 24) / 8;
                    match old.get(i).and_then(Option::as_ref) {
                        Some(prev) if Arc::ptr_eq(bm, prev) => {}
                        prev => unshared_words += bm.unshared_words(prev.map(|p| &**p)),
                    }
                }
            }
        }
        let measure_blocks = idx.measures.blocks();
        let unshared_measures: usize = measure_blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                snap.measures
                    .blocks()
                    .get(*i)
                    .is_none_or(|old| !Arc::ptr_eq(b, old))
            })
            .map(|(_, b)| b.len())
            .sum();

        let bound = levels * 2 * CHUNK_WORDS + MEASURE_BLOCK;
        assert_eq!(levels, 13);
        assert!(
            unshared_words + unshared_measures <= bound,
            "{unshared_words} words + {unshared_measures} measures unshared, bound {bound}"
        );
        assert!(
            unshared_slot_blocks <= levels,
            "{unshared_slot_blocks} slot blocks"
        );
        // The bound is a sliver of what a whole copy would cost.
        assert!(total_words + load.len() > 50 * bound, "{total_words} words");
    }

    #[test]
    fn leaf_level_queries_work() {
        let (schema, idx, _) = setup();
        let de = schema
            .dim(DimensionId(0))
            .lookup_path(&["EU", "DE"])
            .unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(de),
            DimSet::singleton(schema.dim(DimensionId(1)).all()),
        ]);
        let s = idx.range_summary(&schema, &q).unwrap();
        assert_eq!(s.sum, 150);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn delete_masks_one_record() {
        let (schema, mut idx, records) = setup();
        assert!(idx.delete(&schema, &records[0]).unwrap());
        assert_eq!(idx.len(), 3);
        let all = Mds::all(&schema);
        let s = idx.range_summary(&schema, &all).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 700);
        // Deleting again finds nothing equal (measure included).
        assert!(!idx.delete(&schema, &records[0]).unwrap());
    }

    #[test]
    fn group_by_matches_manual_grouping() {
        let (schema, mut idx, records) = setup();
        // Group by Customer.Region over everything.
        let all = Mds::all(&schema);
        let groups = idx.group_by(&schema, DimensionId(0), 1, &all).unwrap();
        let h = schema.dim(DimensionId(0));
        let by_name: Vec<(&str, u64, i64)> = groups
            .iter()
            .map(|(v, s)| (h.name(*v).unwrap(), s.count, s.sum))
            .collect();
        assert!(by_name.contains(&("EU", 3, 400)));
        assert!(by_name.contains(&("AS", 1, 400)));
        // Deletion is honoured.
        assert!(idx.delete(&schema, &records[0]).unwrap());
        let groups = idx.group_by(&schema, DimensionId(0), 1, &all).unwrap();
        let eu = groups
            .iter()
            .find(|(v, _)| h.name(*v).unwrap() == "EU")
            .unwrap();
        assert_eq!(eu.1.count, 2);
        // A filtered group-by: only 1996 records.
        let y96 = schema.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(schema.dim(DimensionId(0)).all()),
            DimSet::singleton(y96),
        ]);
        let groups = idx.group_by(&schema, DimensionId(0), 1, &q).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.sum, 250);
        // Grouping on the ALL pseudo-level is rejected.
        assert!(idx
            .group_by(&schema, DimensionId(0), h.top_level(), &all)
            .is_err());
    }

    #[test]
    fn insert_cost_grows_with_hierarchy_size() {
        // The paper's point: every insert appends to one bitmap per
        // (dimension, level) — 4 here — plus the measure column.
        let (schema, _, _) = setup();
        let mut idx = BitmapIndex::new(&schema, BlockConfig::DEFAULT);
        let mut s2 = schema;
        let rec = s2
            .intern_record(&[vec!["EU", "DE"], vec!["1996", "01"]], 10)
            .unwrap();
        idx.reset_io();
        idx.insert(&s2, &rec).unwrap();
        assert_eq!(idx.io_stats().writes, 4 + 1);
    }

    #[test]
    fn empty_value_set_yields_empty_result() {
        let (schema, idx, _) = setup();
        // A nation that exists but has no records at this measure level...
        // use a value with no bitmap: query on year 1998 (never inserted).
        let mut s2 = schema;
        let rec = s2
            .intern_record(&[vec!["EU", "DE"], vec!["1998", "01"]], 0)
            .unwrap();
        let _ = rec;
        let y98 = s2.dim(DimensionId(1)).lookup_path(&["1998"]).unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(s2.dim(DimensionId(0)).all()),
            DimSet::singleton(y98),
        ]);
        assert_eq!(idx.range_summary(&s2, &q).unwrap(), MeasureSummary::empty());
    }
}
