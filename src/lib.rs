//! # dctree
//!
//! Facade crate for the DC-tree workspace — a full reproduction of
//! *"The DC-Tree: A Fully Dynamic Index Structure for Data Warehouses"*
//! (Ester, Kohlhammer, Kriegel; ICDE 2000).
//!
//! Re-exports the public API of every workspace crate under stable module
//! names, and adds [`ConcurrentDcTree`], a thread-safe wrapper for the
//! always-online deployment scenario that motivates the paper ("global
//! companies … will more and more want to have their data warehouse
//! available 24 hours a day").
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`common`] | `dc-common` | IDs, measures, aggregate summaries, errors |
//! | [`hierarchy`] | `dc-hierarchy` | concept hierarchies, cube schema |
//! | [`mds`] | `dc-mds` | minimum describing sequences |
//! | [`storage`] | `dc-storage` | block model, I/O stats, binary codec, paged file (the buffer pool over it lives in `dc-oocore`) |
//! | [`tree`] | `dc-tree` | **the DC-tree** |
//! | [`xtree`] | `dc-xtree` | X-tree baseline |
//! | [`scan`] | `dc-scan` | sequential-scan baseline |
//! | [`tpcd`] | `dc-tpcd` | TPC-D-style cube generator |
//! | [`query`] | `dc-query` | §5.2 range-query workloads |
//! | [`bitmap`] | `dc-bitmap` | compressed bitmap-index baseline (§2 related work) |
//! | [`ql`] | `dc-ql` | the small aggregate-query language (`SUM WHERE … GROUP BY …`) |
//! | [`mview`] | `dc-mview` | materialized group-by views (the static §2 baseline) |
//! | [`plan`] | `dc-plan` | cost-based planner choosing between the four engines, with `EXPLAIN` |
//! | [`durable`] | `dc-durable` | write-ahead log, checkpoints, crash recovery |
//! | [`cache`] | `dc-cache` | semantic aggregate cache with write-through delta maintenance |
//! | [`serve`] | `dc-serve` | sharded concurrent serving engine + dc-ql TCP front-end |
//! | [`oocore`] | `dc-oocore` | the one page layer: concurrent scan-resistant buffer pool, node-page codec, `OocStore` (every paged DC-tree is `DcTree<OocStore>`) |
//! | [`replica`] | `dc-replica` | WAL segment-shipping replication: follower reads, read-your-LSN, promotion |

pub use dc_bitmap as bitmap;
pub use dc_cache as cache;
pub use dc_common as common;
pub use dc_durable as durable;
pub use dc_hierarchy as hierarchy;
pub use dc_mds as mds;
pub use dc_mview as mview;
pub use dc_oocore as oocore;
pub use dc_plan as plan;
pub use dc_ql as ql;
pub use dc_query as query;
pub use dc_replica as replica;
pub use dc_scan as scan;
pub use dc_serve as serve;
pub use dc_storage as storage;
pub use dc_tpcd as tpcd;
pub use dc_tree as tree;
pub use dc_xtree as xtree;

// The most commonly used items, flattened for convenience.
pub use dc_common::{
    AggregateOp, DcError, DcResult, DimensionId, Measure, MeasureSummary, RecordId, ValueId,
};
pub use dc_hierarchy::{ConceptHierarchy, CubeSchema, HierarchySchema, Record};
pub use dc_mds::{DimSet, Mds};
pub use dc_serve::{
    DiskOptions, EngineConfig, PartitionPolicy, ShardedDcTree, StorageMode, SyncPolicy, WalOptions,
};
pub use dc_tree::{DcTree, DcTreeConfig};

use parking_lot::RwLock;

/// A thread-safe DC-tree: many concurrent readers or one writer.
///
/// The paper motivates the DC-tree with warehouses that stay online while
/// updates stream in; this wrapper provides the minimal concurrency story
/// for that deployment — cheap single-record writes (≈ tens of
/// microseconds) interleaved with analytical reads. See the
/// `streaming_updates` example for a full producer/consumer setup.
pub struct ConcurrentDcTree {
    inner: RwLock<DcTree>,
}

impl ConcurrentDcTree {
    /// Wraps a tree.
    pub fn new(tree: DcTree) -> Self {
        ConcurrentDcTree {
            inner: RwLock::new(tree),
        }
    }

    /// Inserts a raw record under the write lock.
    pub fn insert_raw<S: AsRef<str>>(
        &self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<RecordId> {
        self.inner.write().insert_raw(paths, measure)
    }

    /// Inserts a pre-interned record under the write lock.
    pub fn insert(&self, record: Record) -> DcResult<RecordId> {
        self.inner.write().insert(record)
    }

    /// Deletes a record under the write lock.
    pub fn delete(&self, record: &Record) -> DcResult<bool> {
        self.inner.write().delete(record)
    }

    /// Runs a range query under a read lock (concurrent with other readers).
    pub fn range_query(&self, range: &Mds, op: AggregateOp) -> DcResult<Option<f64>> {
        self.inner.read().range_query(range, op)
    }

    /// Runs a range query returning the full summary.
    pub fn range_summary(&self, range: &Mds) -> DcResult<MeasureSummary> {
        self.inner.read().range_summary(range)
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        self.inner.read().len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Runs `f` with shared access to the underlying tree.
    pub fn with_read<R>(&self, f: impl FnOnce(&DcTree) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive access to the underlying tree.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut DcTree) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Unwraps the inner tree.
    pub fn into_inner(self) -> DcTree {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_wrapper_basics() {
        let schema = CubeSchema::new(
            vec![HierarchySchema::new("D", vec!["A".into(), "B".into()])],
            "M",
        );
        let tree = ConcurrentDcTree::new(DcTree::new(schema, DcTreeConfig::default()));
        assert!(tree.is_empty());
        tree.insert_raw(&[vec!["a1", "b1"]], 10).unwrap();
        tree.insert_raw(&[vec!["a1", "b2"]], 20).unwrap();
        assert_eq!(tree.len(), 2);
        let q = tree.with_read(|t| Mds::all(t.schema()));
        assert_eq!(tree.range_query(&q, AggregateOp::Sum).unwrap(), Some(30.0));
        let rec = tree.with_read(|t| t.iter_records().next().unwrap().record.clone());
        assert!(tree.delete(&rec).unwrap());
        assert_eq!(tree.len(), 1);
    }
}
