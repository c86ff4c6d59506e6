//! # dc-scan
//!
//! The sequential-scan baseline of the DC-tree evaluation (§5.2):
//! "the range query algorithm for the sequential search simply runs through
//! every existing data record and determines whether this data record is
//! contained in the range_mds or not. In the positive case, the measure
//! value of the data record is added to the result."
//!
//! The table is a flat file of fixed-size records; logical I/O is charged
//! per block of `records_per_block` records, so experiments can compare page
//! accesses as well as wall time.
//!
//! The file is held in those blocks, each behind its own `Arc`: a `clone`
//! copies one pointer per block and shares the records, and a mutation
//! copies only the block it lands in (the last one for an append). That is
//! what lets the serving engine publish a table snapshot per writer batch
//! without copying the table.

use std::sync::Arc;

use dc_common::{AggregateOp, DcError, DcResult, DimensionId, Level, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;
use dc_storage::{BlockConfig, IoStats, IoTracker};

/// A flat record table scanned in full by every query.
#[derive(Clone, Debug)]
pub struct FlatTable {
    /// Insertion order, in blocks of at most `records_per_block` records;
    /// none is empty, and only a delete leaves one short of full.
    blocks: Vec<Arc<Vec<Record>>>,
    len: usize,
    records_per_block: usize,
    io: IoTracker,
}

impl FlatTable {
    /// Creates an empty table. `record_bytes` is the on-disk size of one
    /// record (dimension IDs + measure), used to derive records per block.
    pub fn new(block: BlockConfig, record_bytes: usize) -> Self {
        let records_per_block = (block.block_size / record_bytes.max(1)).max(1);
        FlatTable {
            blocks: Vec::new(),
            len: 0,
            records_per_block,
            io: IoTracker::new(),
        }
    }

    /// Creates a table sized for records of `num_dims` dimensions
    /// (4 bytes per leaf ID + 8 bytes measure).
    pub fn for_schema(block: BlockConfig, schema: &CubeSchema) -> Self {
        Self::new(block, schema.num_dims() * 4 + 8)
    }

    /// Appends a record (the "insert file" of the evaluation is
    /// append-only).
    pub fn insert(&mut self, record: Record) {
        match self.blocks.last_mut() {
            Some(last) if last.len() < self.records_per_block => Arc::make_mut(last).push(record),
            _ => {
                let mut block = Vec::with_capacity(self.records_per_block);
                block.push(record);
                self.blocks.push(Arc::new(block));
            }
        }
        self.len += 1;
        self.io.write(1);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records per simulated block.
    pub fn records_per_block(&self) -> usize {
        self.records_per_block
    }

    /// Logical I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.io.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Starts recording a block-access trace (see [`IoTracker::begin_trace`]).
    pub fn begin_trace(&self) {
        self.io.begin_trace();
    }

    /// Stops recording and returns the trace.
    pub fn end_trace(&self) -> Vec<u64> {
        self.io.end_trace()
    }

    /// Full-scan range query returning the mergeable summary.
    pub fn range_summary(&self, schema: &CubeSchema, range: &Mds) -> DcResult<MeasureSummary> {
        if range.num_dims() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: range.num_dims(),
            });
        }
        // A sequential scan reads every block, selected or not.
        let blocks = self.len.div_ceil(self.records_per_block) as u32;
        for b in 0..blocks.max(1) as u64 {
            self.io.read_keyed(b, 1);
        }
        let mut acc = MeasureSummary::empty();
        for r in self.iter() {
            if range.contains_record(schema, r)? {
                acc.add(r.measure);
            }
        }
        Ok(acc)
    }

    /// Removes the first record equal to `record` (dims and measure).
    /// Returns `false` when none matches. Like the insert file, deletion
    /// rewrites the tail of the flat file — the scan baseline has no
    /// cheaper option.
    pub fn delete(&mut self, record: &Record) -> bool {
        let mut before = 0;
        for b in 0..self.blocks.len() {
            let Some(pos) = self.blocks[b].iter().position(|r| r == record) else {
                before += self.blocks[b].len();
                continue;
            };
            if self.blocks[b].len() == 1 {
                self.blocks.remove(b);
            } else {
                Arc::make_mut(&mut self.blocks[b]).remove(pos);
            }
            self.len -= 1;
            // Every block from the hole to the end is rewritten.
            let from = (before + pos) / self.records_per_block;
            let to = self.len.div_ceil(self.records_per_block);
            self.io.write((to.saturating_sub(from) as u32).max(1));
            return true;
        }
        false
    }

    /// Full-scan group-by: one pass over every block, each selected record
    /// keyed by its ancestor at `(dim, level)`. Groups are returned sorted
    /// by value id; empty groups are omitted.
    pub fn group_by(
        &self,
        schema: &CubeSchema,
        dim: DimensionId,
        level: Level,
        range: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        if range.num_dims() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: range.num_dims(),
            });
        }
        let blocks = self.len.div_ceil(self.records_per_block) as u32;
        for b in 0..blocks.max(1) as u64 {
            self.io.read_keyed(b, 1);
        }
        let h = schema.dim(dim);
        let mut groups: std::collections::BTreeMap<ValueId, MeasureSummary> = Default::default();
        for r in self.iter() {
            if range.contains_record(schema, r)? {
                let key = h.ancestor_at(r.dims[dim.as_usize()], level)?;
                groups.entry(key).or_default().add(r.measure);
            }
        }
        Ok(groups.into_iter().collect())
    }

    /// Full-scan range query evaluating one aggregation operator.
    pub fn range_query(
        &self,
        schema: &CubeSchema,
        range: &Mds,
        op: AggregateOp,
    ) -> DcResult<Option<f64>> {
        Ok(self.range_summary(schema, range)?.eval(op))
    }

    /// Iterates the stored records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.blocks.iter().flat_map(|block| block.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;
    use dc_mds::DimSet;

    fn setup() -> (CubeSchema, FlatTable) {
        let mut schema = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        let mut table = FlatTable::for_schema(BlockConfig::DEFAULT, &schema);
        for (r, n, y, m, price) in [
            ("Europe", "Germany", "1996", "01", 100),
            ("Europe", "France", "1996", "02", 250),
            ("Asia", "Japan", "1997", "01", 400),
        ] {
            let rec = schema
                .intern_record(&[vec![r, n], vec![y, m]], price)
                .unwrap();
            table.insert(rec);
        }
        (schema, table)
    }

    #[test]
    fn scan_matches_predicate() {
        let (schema, table) = setup();
        let europe = schema
            .dim(dc_common::DimensionId(0))
            .lookup_path(&["Europe"])
            .unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(europe),
            DimSet::singleton(schema.dim(dc_common::DimensionId(1)).all()),
        ]);
        let s = table.range_summary(&schema, &q).unwrap();
        assert_eq!(s.sum, 350);
        assert_eq!(s.count, 2);
        assert_eq!(
            table.range_query(&schema, &q, AggregateOp::Max).unwrap(),
            Some(250.0)
        );
    }

    #[test]
    fn scan_reads_every_block_regardless_of_selectivity() {
        let (schema, table) = setup();
        let all = Mds::all(&schema);
        table.reset_io();
        let _ = table.range_summary(&schema, &all).unwrap();
        let full = table.io_stats().reads;
        table.reset_io();
        let europe = schema
            .dim(dc_common::DimensionId(0))
            .lookup_path(&["Europe"])
            .unwrap();
        let narrow = Mds::new(vec![
            DimSet::singleton(europe),
            DimSet::singleton(schema.dim(dc_common::DimensionId(1)).all()),
        ]);
        let _ = table.range_summary(&schema, &narrow).unwrap();
        assert_eq!(
            table.io_stats().reads,
            full,
            "a scan always reads everything"
        );
    }

    #[test]
    fn delete_removes_first_match_only() {
        let (mut schema, mut table) = setup();
        let dup = schema
            .intern_record(&[vec!["Europe", "Germany"], vec!["1996", "01"]], 100)
            .unwrap();
        table.insert(dup.clone());
        assert_eq!(table.len(), 4);
        assert!(table.delete(&dup));
        assert_eq!(table.len(), 3);
        assert!(table.delete(&dup));
        assert_eq!(table.len(), 2);
        assert!(!table.delete(&dup), "both copies are gone");
    }

    #[test]
    fn a_clone_shares_blocks_and_only_touched_ones_are_copied() {
        let (mut schema, _) = setup();
        // 1 KiB records: four to a block.
        let mut table = FlatTable::new(BlockConfig::DEFAULT, 1024);
        assert_eq!(table.records_per_block(), 4);
        let records: Vec<Record> = (0..11)
            .map(|i| {
                schema
                    .intern_record(&[vec!["Europe", "Germany"], vec!["1996", "01"]], i)
                    .unwrap()
            })
            .collect();
        for r in &records[..10] {
            table.insert(r.clone());
        }
        let snap = table.clone();
        let shared = |a: &FlatTable, b: &FlatTable| -> Vec<bool> {
            a.blocks
                .iter()
                .zip(&b.blocks)
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        assert_eq!(shared(&table, &snap), [true, true, true]);

        // An append lands in the short last block; a delete in the block
        // holding the record. The snapshot sees neither.
        table.insert(records[10].clone());
        assert_eq!(shared(&table, &snap), [true, true, false]);
        assert!(table.delete(&records[5]));
        assert_eq!(shared(&table, &snap), [true, false, false]);
        assert_eq!(snap.len(), 10);
        assert!(snap.iter().eq(&records[..10]));
        assert_eq!(table.len(), 10);
        let want: Vec<&Record> = records.iter().filter(|r| r.measure != 5).collect();
        assert!(table.iter().eq(want));

        // A block that loses its last record goes away; order holds and
        // appends keep filling the (new) last block.
        for r in &records[8..] {
            assert!(table.delete(r));
        }
        assert_eq!(table.blocks.len(), 2);
        table.insert(records[9].clone());
        assert_eq!(table.blocks.len(), 2, "the short block takes the append");
        let measures: Vec<i64> = table.iter().map(|r| r.measure).collect();
        assert_eq!(measures, [0, 1, 2, 3, 4, 6, 7, 9]);
        let all = Mds::all(&schema);
        assert_eq!(table.range_summary(&schema, &all).unwrap().count, 8);
        assert_eq!(snap.range_summary(&schema, &all).unwrap().count, 10);
    }

    #[test]
    fn group_by_keys_by_ancestor() {
        let (schema, table) = setup();
        let all = Mds::all(&schema);
        let groups = table
            .group_by(&schema, dc_common::DimensionId(0), 1, &all)
            .unwrap();
        let h = schema.dim(dc_common::DimensionId(0));
        let by_name: Vec<(&str, i64)> = groups
            .iter()
            .map(|(v, s)| (h.name(*v).unwrap(), s.sum))
            .collect();
        assert!(by_name.contains(&("Europe", 350)));
        assert!(by_name.contains(&("Asia", 400)));
    }

    #[test]
    fn records_per_block_derived_from_record_size() {
        let (schema, _) = setup();
        let table = FlatTable::for_schema(BlockConfig::new(4096), &schema);
        // 2 dims × 4 bytes + 8 bytes measure = 16 bytes → 256 records/block.
        assert_eq!(table.records_per_block(), 256);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let (schema, table) = setup();
        let bad = Mds::new(vec![DimSet::singleton(
            schema.dim(dc_common::DimensionId(0)).all(),
        )]);
        assert!(table.range_summary(&schema, &bad).is_err());
    }
}
