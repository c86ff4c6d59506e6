//! # dctree
//!
//! Facade crate for the DC-tree workspace — a full reproduction of
//! *"The DC-Tree: A Fully Dynamic Index Structure for Data Warehouses"*
//! (Ester, Kohlhammer, Kriegel; ICDE 2000).
//!
//! Re-exports the public API of every workspace crate under stable module
//! names. The always-online deployment that motivates the paper ("global
//! companies … will more and more want to have their data warehouse
//! available 24 hours a day") is [`ShardedDcTree`]: writers stream records
//! in while readers query published snapshots, with an optional WAL and
//! checkpoints underneath. See the `streaming_updates` example.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`common`] | `dc-common` | IDs, measures, aggregate summaries, errors |
//! | [`hierarchy`] | `dc-hierarchy` | concept hierarchies, cube schema |
//! | [`mds`] | `dc-mds` | minimum describing sequences |
//! | [`storage`] | `dc-storage` | block model, I/O stats, binary codec, paged file (read and written by `dc-oocore`'s store) |
//! | [`tree`] | `dc-tree` | **the DC-tree** |
//! | [`xtree`] | `dc-xtree` | X-tree baseline |
//! | [`scan`] | `dc-scan` | sequential-scan baseline |
//! | [`tpcd`] | `dc-tpcd` | TPC-D-style cube generator |
//! | [`query`] | `dc-query` | §5.2 range-query workloads |
//! | [`bitmap`] | `dc-bitmap` | compressed bitmap-index baseline (§2 related work) |
//! | [`ql`] | `dc-ql` | the small aggregate-query language (`SUM WHERE … GROUP BY …`) |
//! | [`mview`] | `dc-mview` | materialized group-by views (the static §2 baseline) |
//! | [`plan`] | `dc-plan` | cost-based planner choosing between DC-tree descent and a roll-up view, with `EXPLAIN` |
//! | [`durable`] | `dc-durable` | segmented write-ahead log, checkpoint directory protocol, fault-injection shim |
//! | [`cache`] | `dc-cache` | semantic aggregate cache with write-through delta maintenance |
//! | [`serve`] | `dc-serve` | sharded concurrent serving engine + dc-ql TCP front-end |
//! | [`oocore`] | `dc-oocore` | the one page layer: node-page codec, `OocStore` and its cache of decoded nodes (every paged DC-tree is `DcTree<OocStore>`) |
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
    AggregateOp, DcError, DcResult, DimensionId, Measure, MeasureSummary, ValueId,
};
pub use dc_hierarchy::{ConceptHierarchy, CubeSchema, HierarchySchema, Record};
pub use dc_mds::{DimSet, Mds};
pub use dc_serve::{
    DiskOptions, EngineConfig, PartitionPolicy, ShardedDcTree, StorageMode, SyncPolicy, WalOptions,
};
pub use dc_tree::{DcTree, DcTreeConfig};
